//! The AERIS model (§V-B): a pixel-level, non-hierarchical Swin diffusion
//! transformer for global weather and subseasonal-to-seasonal prediction,
//! plus its training loop and autoregressive ensemble forecaster.
//!
//! Architecture (Fig. 3 of the paper): 2D sinusoidal positional encoding
//! added to every input channel → linear embedding → N Swin layers of
//! transformer blocks with pre-RMSNorm, SwiGLU, window attention under axial
//! 2D RoPE, windows shifted every other block, AdaLN (α, β, γ) conditioning
//! on the diffusion time → RMSNorm → linear decode back to pixel space.
//!
//! The model is trained under TrigFlow (Eq. 1) with the latitude/pressure
//! weighted objective (Eq. 2), predicts the *residual* `x_i − x_{i−1}` in
//! standardized units, and is conditioned on the previous state and the
//! forcings by channel-wise concatenation (§VI-B).

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod distill;
pub mod forecast;
pub mod model;
pub mod training;

pub use config::AerisConfig;
pub use distill::{ConsistencyStudent, DistillConfig};
pub use forecast::{member_rng, step_batch, EnsembleForecast, Forecaster};
pub use model::{AerisModel, Workspace};
pub use training::{prepare_samples, TrainSample, Trainer, TrainerConfig};
