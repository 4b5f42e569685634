//! AERIS facade crate: re-exports the whole workspace under one roof.
//!
//! The paper's two contributions map to [`core`] (the pixel-level Swin
//! diffusion transformer) and [`swipe`] (the window/sequence/pipeline
//! parallelism runtime); everything else is the substrate they stand on.
//!
//! ```
//! use aeris::diffusion::TrigFlow;
//! use aeris::tensor::{Rng, Tensor};
//!
//! // TrigFlow's spherical interpolation keeps unit marginal variance, and
//! // the exact angular ODE step inverts it given the true velocity.
//! let tf = TrigFlow::default();
//! let mut rng = Rng::seed_from(0);
//! let x0 = Tensor::randn(&[16], &mut rng);
//! let z = Tensor::randn(&[16], &mut rng);
//! let t = 0.9_f32;
//! let xt = tf.interpolate(&x0, &z, t);
//! let v = tf.velocity_target(&x0, &z, t);
//! assert!(tf.denoise(&xt, &v, t).max_abs_diff(&x0) < 1e-5);
//! ```

#![forbid(unsafe_code)]
pub use aeris_assim as assim;
pub use aeris_autodiff as autodiff;
pub use aeris_baselines as baselines;
pub use aeris_core as core;
pub use aeris_diffusion as diffusion;
pub use aeris_earthsim as earthsim;
pub use aeris_evaluation as evaluation;
pub use aeris_nn as nn;
pub use aeris_obs as obs;
pub use aeris_perfmodel as perfmodel;
pub use aeris_sched as sched;
pub use aeris_serve as serve;
pub use aeris_swipe as swipe;
pub use aeris_tensor as tensor;
