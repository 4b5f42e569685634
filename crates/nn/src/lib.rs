//! Neural-network layers for AERIS.
//!
//! The building blocks follow §V-B of the paper: pre-RMSNorm, SwiGLU
//! feed-forward, multi-head window attention with axial-frequency 2D rotary
//! position embeddings, adaptive layer norm (AdaLN/FiLM) conditioning on the
//! diffusion time, a 2D sinusoidal positional encoding added to the input
//! pixels, and the Swin window partition / cyclic-shift machinery.
//!
//! Parameters live in a [`ParamStore`] as FP32 master copies, as in the paper
//! (whose compute then runs in BF16; here it stays f32); each forward pass
//! binds them onto an [`aeris_autodiff::Tape`] through a [`Binding`].

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod attention;
pub mod checkpoint;
pub mod ffn;
pub mod linear;
pub mod norm;
pub mod optim;
pub mod params;
pub mod posenc;
pub mod rope;
pub mod timecond;
pub mod window;

pub use attention::WindowAttention;
pub use checkpoint::{load_entries, save_entries};
pub use ffn::SwiGlu;
pub use linear::Linear;
pub use norm::RmsNorm;
pub use optim::{AdamW, AdamWConfig, Ema, LrSchedule};
pub use params::{batch_mean, Binding, ParamId, ParamStore, Slots};
pub use posenc::pos_encoding_2d;
pub use rope::RopeTable;
pub use timecond::{timestep_features, TimeConditioner};
pub use window::WindowGrid;
