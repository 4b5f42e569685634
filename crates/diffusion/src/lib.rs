//! Diffusion parameterizations and samplers for AERIS.
//!
//! - [`trigflow`]: the paper's training objective (§VI-B) — TrigFlow
//!   (Lu & Song 2024), which unifies EDM and flow matching under a spherical
//!   interpolation `x_t = cos(t)·x₀ + sin(t)·z` and a v-prediction target.
//! - [`sampler`]: the paper's inference procedure — a second-order
//!   DPMSolver++ 2S-style solver expressed in TrigFlow's angular domain with
//!   a log-uniform time schedule and a trigonometric Langevin-like churn.
//! - [`edm`]: Karras et al. EDM parameterization and stochastic Heun sampler,
//!   used by the GenCast-analog baseline.
//! - [`weights`]: the latitude- and pressure-weighted loss mask of Eq. 2.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod edm;
pub mod sampler;
pub mod trigflow;
pub mod weights;

pub use edm::{EdmConfig, EdmSampler};
pub use sampler::{Guidance, NoGuidance, SamplerConfig, SamplerError, TrigFlowSampler};
pub use trigflow::TrigFlow;
pub use weights::loss_weights;
