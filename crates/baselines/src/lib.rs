//! Baseline forecast systems for the AERIS evaluation (§VII-B).
//!
//! - [`deterministic`]: a GraphCast-class deterministic model — the same
//!   Swin backbone trained with weighted MSE; exhibits the blurring and
//!   zero-spread ensembles that motivate diffusion,
//! - [`gencast`]: the GenCast analog — the same backbone under the EDM
//!   σ-space parameterization with a stochastic Heun sampler,
//! - [`numerical`]: the IFS ENS analog — the toy dynamical core integrated
//!   from perturbed initial conditions with per-member stochastic physics.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod deterministic;
pub mod gencast;
pub mod numerical;

pub use deterministic::DeterministicForecaster;
pub use gencast::GenCastAnalog;
pub use numerical::numerical_ensemble;

use aeris_core::TrainSample;
use aeris_tensor::Rng;

/// The shuffled-epoch loop both learned baselines train with: `epochs`
/// passes over `samples` in chunks of `batch`, reshuffled each pass from a
/// stream seeded `seed`; `step` runs one optimizer step (it may draw from
/// the same stream) and returns that step's loss.
pub(crate) fn fit_epochs(
    samples: &[TrainSample],
    batch: usize,
    epochs: usize,
    seed: u64,
    mut step: impl FnMut(&[&TrainSample], &mut Rng) -> f64,
) -> Vec<f64> {
    let mut rng = Rng::seed_from(seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut losses = Vec::new();
    for _ in 0..epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(batch.max(1)) {
            let b: Vec<&TrainSample> = chunk.iter().map(|&i| &samples[i]).collect();
            losses.push(step(&b, &mut rng));
        }
    }
    losses
}
