//! Nowcasting: analysis ensembles from a background state and observations.
//!
//! A nowcast is one guided forecast step — the diffusion model proposes a
//! residual consistent with both the background (through conditioning) and
//! the observations (through [`ObsGuidance`]), yielding an analysis state.
//! Member seeds follow the `Forecaster::ensemble` discipline
//! ([`member_rng`]), and the serving engine runs the same
//! [`nowcast_step`] / [`nowcast_step_fast`] the member calls wrap, so a
//! served analysis equals a direct call bit for bit.

use crate::guidance::{GuidanceSchedule, ObsGuidance};
use crate::operator::ObservationSet;
use aeris_core::forecast::ensemble;
use aeris_core::{member_rng, ConsistencyStudent, Forecaster, Workspace};
use aeris_tensor::{Rng, Tensor};
use std::sync::Arc;

/// An ensemble of analysis states, one per member, in physical units.
pub struct NowcastEnsemble {
    pub members: Vec<Tensor>,
}

/// One guided analysis step on the caller's noise stream, in `ws`: a
/// forecast step from `background` with [`ObsGuidance`] toward `obs`
/// threaded through the sampler.
pub fn nowcast_step(
    fc: &Forecaster,
    ws: &mut Workspace,
    background: &Arc<Tensor>,
    forcings: &Tensor,
    obs: &Arc<ObservationSet>,
    schedule: GuidanceSchedule,
    rng: &mut Rng,
) -> Tensor {
    let mut guidance = ObsGuidance::new(
        Arc::clone(obs),
        Arc::clone(background),
        &fc.res_stats,
        schedule,
        fc.sampler.cfg.n_steps,
    );
    fc.forecast_step_guided(ws, background, forcings, rng, &mut guidance)
}

/// One analysis member: [`nowcast_step`] on member `member`'s stream of an
/// ensemble seeded `seed`, over a workspace of its own.
pub fn nowcast_member(
    fc: &Forecaster,
    background: &Arc<Tensor>,
    forcings: &Tensor,
    obs: &Arc<ObservationSet>,
    schedule: GuidanceSchedule,
    seed: u64,
    member: usize,
) -> Tensor {
    nowcast_step(fc, &mut Workspace::default(), background, forcings, obs, schedule, &mut member_rng(seed, member))
}

/// One bounded Kalman-like relaxation of `x` toward the present
/// observations: at each unmasked site, `x ← x + g·(y − x)` with gain
/// `g = w / (w + σ_o²)`. The gain is in `(0, 1)` for any positive weight —
/// accurate observations (small σ_o) pull hard, noisy ones gently — and a
/// zero weight leaves `x` untouched (bitwise, by skipping the pass).
///
/// This is the fast tier's whole assimilation step: where the quality tier
/// threads [`ObsGuidance`] through every sampler iteration, the one-step
/// distilled path has no sampler iterations to guide, so the correction is
/// a single post-hoc analysis update.
pub fn relax_toward_observations(x: &mut Tensor, obs: &ObservationSet, weight: f32) {
    if weight <= 0.0 {
        return;
    }
    assert_eq!(x.shape(), [obs.tokens, obs.channels], "state shape mismatch");
    let data = x.data_mut();
    for ((site, &y), &present) in obs.sites.iter().zip(&obs.values).zip(&obs.mask) {
        if !present {
            continue;
        }
        let sigma2 = obs.noise_std[site.channel] * obs.noise_std[site.channel];
        let gain = weight / (weight + sigma2);
        let idx = site.token * obs.channels + site.channel;
        data[idx] += gain * (y - data[idx]);
    }
}

/// Fast-tier analysis step on the caller's noise stream, in `ws`: one
/// distilled forecast step from `background` followed by
/// [`relax_toward_observations`] at the schedule's initial weight.
pub fn nowcast_step_fast(
    student: &ConsistencyStudent,
    ws: &mut Workspace,
    background: &Tensor,
    forcings: &Tensor,
    obs: &ObservationSet,
    schedule: GuidanceSchedule,
    rng: &mut Rng,
) -> Tensor {
    let mut x = student.forecast_step_in(ws, background, forcings, rng);
    relax_toward_observations(&mut x, obs, schedule.weight(0, 1));
    x
}

/// Fast-tier analysis member: [`nowcast_step_fast`] on the same member-seed
/// discipline as [`nowcast_member`] (a workspace of its own), so the result
/// is bitwise reproducible across runs, thread counts, and serving engines.
pub fn nowcast_member_fast(
    student: &ConsistencyStudent,
    background: &Arc<Tensor>,
    forcings: &Tensor,
    obs: &Arc<ObservationSet>,
    schedule: GuidanceSchedule,
    seed: u64,
    member: usize,
) -> Tensor {
    nowcast_step_fast(student, &mut Workspace::default(), background, forcings, obs, schedule, &mut member_rng(seed, member))
}

/// A full analysis ensemble: [`nowcast_step`] once per member, each in its
/// own workspace, through [`aeris_core::forecast::ensemble`] (results are
/// member-seed pure, so thread count never changes the numbers).
pub fn nowcast_ensemble(
    fc: &Forecaster,
    background: &Arc<Tensor>,
    forcings: &Tensor,
    obs: &Arc<ObservationSet>,
    schedule: GuidanceSchedule,
    n_members: usize,
    seed: u64,
) -> NowcastEnsemble {
    let members = ensemble(n_members, seed, |_, rng| {
        nowcast_step(fc, &mut Workspace::default(), background, forcings, obs, schedule, rng)
    });
    NowcastEnsemble { members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::ObsOperator;
    use aeris_core::{AerisConfig, AerisModel};
    use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
    use aeris_earthsim::{Grid, NormStats};

    fn tiny_forecaster(second_order: bool) -> Forecaster {
        let cfg = AerisConfig::test_tiny();
        let channels = cfg.channels;
        let model = AerisModel::new(cfg);
        let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
        Forecaster {
            model,
            res_stats: stats.clone(),
            stats,
            sampler: TrigFlowSampler::new(
                TrigFlow::default(),
                SamplerConfig { n_steps: 2, churn: 0.1, second_order },
            ),
        }
    }

    #[test]
    fn zero_weight_nowcast_is_bitwise_a_forecast_step() {
        for second_order in [false, true] {
            let fc = tiny_forecaster(second_order);
            let grid = Grid::new(8, 16);
            let mut rng = Rng::seed_from(1);
            let background = Arc::new(Tensor::randn(&[128, 4], &mut rng));
            let truth = Tensor::randn(&[128, 4], &mut rng);
            let op = ObsOperator::stations(&grid, 10, &[0], &[0.5; 4], 2);
            let obs = Arc::new(op.observe(&truth, 0.0, 3));
            let forc = Tensor::zeros(&[128, 3]);

            let analysis = nowcast_member(
                &fc, &background, &forc, &obs, GuidanceSchedule::off(), 55, 0,
            );
            let mut plain_rng = Rng::seed_from(55).stream(1);
            let plain = fc.forecast_step(&background, &forc, &mut plain_rng);
            assert_eq!(analysis, plain, "second_order={second_order}");
        }
    }

    #[test]
    fn fast_nowcast_zero_weight_is_bitwise_a_student_step() {
        let fc = tiny_forecaster(false);
        let samples_rng = &mut Rng::seed_from(12);
        let background = Arc::new(Tensor::randn(&[128, 4], samples_rng));
        let truth = Tensor::randn(&[128, 4], samples_rng);
        let grid = Grid::new(8, 16);
        let op = ObsOperator::stations(&grid, 10, &[0], &[0.5; 4], 2);
        let obs = Arc::new(op.observe(&truth, 0.0, 3));
        let forc = Tensor::zeros(&[128, 3]);
        // An undistilled student (teacher copy, zero steps) is fine here:
        // the property under test is the seed/relaxation plumbing.
        let student = aeris_core::ConsistencyStudent {
            model: fc.replicate().model,
            stats: fc.stats.clone(),
            res_stats: fc.res_stats.clone(),
            tf: fc.sampler.tf,
        };
        let analysis = nowcast_member_fast(
            &student, &background, &forc, &obs, GuidanceSchedule::off(), 55, 0,
        );
        let mut plain_rng = Rng::seed_from(55).stream(1);
        let plain = student.forecast_step(&background, &forc, &mut plain_rng);
        assert_eq!(analysis, plain, "w=0 must leave the student step untouched");
    }

    #[test]
    fn relaxation_pulls_observed_sites_toward_observations() {
        let grid = Grid::new(8, 16);
        let mut rng = Rng::seed_from(14);
        let truth = Tensor::randn(&[128, 4], &mut rng);
        let op = ObsOperator::stations(&grid, 24, &[0, 1], &[0.5; 4], 9);
        let mut obs = op.observe(&truth, 0.0, 4);
        obs.mask[0] = false;
        let mut x = Tensor::randn(&[128, 4], &mut rng);
        let before = x.clone();
        relax_toward_observations(&mut x, &obs, 1.0);
        let mut moved = 0usize;
        for ((site, &y), &present) in obs.sites.iter().zip(&obs.values).zip(&obs.mask) {
            let b = before.at(&[site.token, site.channel]);
            let a = x.at(&[site.token, site.channel]);
            if !present {
                assert_eq!(a, b, "masked site must not move");
                continue;
            }
            // Strictly between background and observation (gain in (0,1)).
            assert!((a - y).abs() < (b - y).abs() || b == y, "site must move toward y");
            if a != b {
                moved += 1;
            }
        }
        assert!(moved > 20, "most present sites should move, got {moved}");
        // Unobserved cells are untouched.
        let observed: std::collections::HashSet<_> =
            obs.sites.iter().map(|s| (s.token, s.channel)).collect();
        for t in 0..obs.tokens {
            for c in 0..obs.channels {
                if !observed.contains(&(t, c)) {
                    assert_eq!(x.at(&[t, c]), before.at(&[t, c]));
                }
            }
        }
    }

    #[test]
    fn guided_members_are_distinct_deterministic_and_finite() {
        let fc = tiny_forecaster(true);
        let grid = Grid::new(8, 16);
        let mut rng = Rng::seed_from(4);
        let background = Arc::new(Tensor::randn(&[128, 4], &mut rng));
        let truth = Tensor::randn(&[128, 4], &mut rng);
        let op = ObsOperator::stations(&grid, 32, &[0, 1], &[1.0; 4], 5);
        let obs = Arc::new(op.observe(&truth, 0.1, 6));
        let forc = Tensor::zeros(&[128, 3]);
        let sched = GuidanceSchedule::Ramp { start: 0.0, end: 0.3 };

        let ens = nowcast_ensemble(&fc, &background, &forc, &obs, sched, 3, 77);
        assert_eq!(ens.members.len(), 3);
        for m in &ens.members {
            assert!(m.all_finite());
        }
        assert!(ens.members[0].max_abs_diff(&ens.members[1]) > 1e-6);
        // Ensemble call reproduces the member call exactly.
        let direct = nowcast_member(&fc, &background, &forc, &obs, sched, 77, 2);
        assert_eq!(ens.members[2], direct);
    }
}
