//! The IFS ENS analog: a perfect-model numerical ensemble.
//!
//! In a synthetic-truth world, "the operational numerical ensemble" is the
//! generating dynamical core itself, integrated from perturbed initial
//! conditions with per-member stochastic physics (the toy equivalent of the
//! IFS's singular-vector ICs + SPPT). This is a *strong* baseline: the model
//! is perfect by construction, and only initial-condition and stochastic
//! uncertainty limit its skill.

use aeris_core::forecast::ensemble;
use aeris_earthsim::{ToyAtmosphere, VariableSet};
use aeris_tensor::Tensor;

/// Run an `n_members` numerical ensemble from the given simulator state for
/// `steps` outputs. Member `m` perturbs the initial condition with amplitude
/// `pert_amp` and reseeds its stochastic forcing from `base_seed ⊕ m`.
/// Returns `[member][step]` rendered states.
pub fn numerical_ensemble(
    init: &ToyAtmosphere,
    vars: &VariableSet,
    steps: usize,
    n_members: usize,
    pert_amp: f32,
    base_seed: u64,
) -> Vec<Vec<Tensor>> {
    ensemble(n_members, base_seed, |m, rng| {
        let mut sim = init.clone();
        sim.perturb(pert_amp, rng);
        sim.reseed_stochastic(base_seed ^ (m as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            sim.step();
            out.push(sim.render(vars));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_earthsim::ToyParams;

    #[test]
    fn ensemble_shapes_and_spread() {
        let params = ToyParams { nlat: 16, nlon: 32, seed: 5, ..Default::default() };
        let mut sim = ToyAtmosphere::new(params);
        sim.spinup(20);
        let vars = VariableSet::default_toy();
        let ens = numerical_ensemble(&sim, &vars, 3, 4, 1.0, 99);
        assert_eq!(ens.len(), 4);
        assert_eq!(ens[0].len(), 3);
        // Members diverge.
        assert!(ens[0][2].max_abs_diff(&ens[1][2]) > 1e-4);
        // Deterministic reproduction.
        let ens2 = numerical_ensemble(&sim, &vars, 3, 4, 1.0, 99);
        assert_eq!(ens[3][2], ens2[3][2]);
    }

    #[test]
    fn unperturbed_member_tracks_truth_initially() {
        // With tiny perturbations the ensemble mean at step 1 stays close to
        // the unperturbed trajectory (perfect-model property).
        let params = ToyParams { nlat: 16, nlon: 32, seed: 6, ..Default::default() };
        let mut sim = ToyAtmosphere::new(params);
        sim.spinup(20);
        let vars = VariableSet::default_toy();
        let mut truth = sim.clone();
        truth.step();
        let truth_state = truth.render(&vars);
        let ens = numerical_ensemble(&sim, &vars, 1, 6, 0.05, 42);
        // Mean over members.
        let mut mean = Tensor::zeros(truth_state.shape());
        for m in &ens {
            mean.add_assign(&m[0]);
        }
        mean.scale_inplace(1.0 / ens.len() as f32);
        let t2m = vars.index_of("t2m").unwrap();
        let mut err = 0.0f64;
        for t in 0..truth_state.shape()[0] {
            let d = (mean.at(&[t, t2m]) - truth_state.at(&[t, t2m])) as f64;
            err += d * d;
        }
        let rmse = (err / truth_state.shape()[0] as f64).sqrt();
        assert!(rmse < 1.0, "1-step ensemble-mean T2m error {rmse}");
    }
}
