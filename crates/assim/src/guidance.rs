//! Observation-consistency guidance for the TrigFlow sampler.
//!
//! The sampler hands every data-prediction estimate `x̂` (a *standardized
//! residual* in AERIS's parameterization) to a [`aeris_diffusion::Guidance`]
//! hook. [`ObsGuidance`] maps that estimate to observation space through the
//! background state — `H(x_b + σ_r ⊙ x̂ + μ_r)` — and nudges it by the
//! weighted, precision-scaled innovation `w · Hᵀ R⁻¹ (y − H(·))`, the
//! diffusion-posterior-sampling approximation of the likelihood score. The
//! weight follows a per-solver-step [`GuidanceSchedule`]; a step whose weight
//! is exactly zero returns `None` so the solver path stays bitwise identical
//! to the unguided sampler.

use crate::operator::ObservationSet;
use aeris_diffusion::Guidance;
use aeris_earthsim::NormStats;
use aeris_tensor::Tensor;
use std::sync::Arc;

/// Per-step guidance weight over the sampler's `n_steps` solver steps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GuidanceSchedule {
    /// The same weight at every step (0.0 = guidance off).
    Constant(f32),
    /// Linear ramp from `start` (first step, noisiest) to `end` (last step):
    /// observations should bind harder as the estimate sharpens.
    Ramp { start: f32, end: f32 },
}

impl GuidanceSchedule {
    /// Guidance disabled: zero weight everywhere, bitwise-neutral by the
    /// `Guidance` contract.
    pub fn off() -> Self {
        GuidanceSchedule::Constant(0.0)
    }

    /// Weight at solver step `step` of `n_steps`.
    pub fn weight(&self, step: usize, n_steps: usize) -> f32 {
        match *self {
            GuidanceSchedule::Constant(w) => w,
            GuidanceSchedule::Ramp { start, end } => {
                if n_steps <= 1 {
                    end
                } else {
                    let frac = step as f32 / (n_steps - 1) as f32;
                    start + frac * (end - start)
                }
            }
        }
    }

    /// True when every step's weight is exactly zero — the request can then
    /// share cache entries and code paths with plain forecasts.
    pub fn is_off(&self) -> bool {
        match *self {
            GuidanceSchedule::Constant(w) => w == 0.0,
            GuidanceSchedule::Ramp { start, end } => start == 0.0 && end == 0.0,
        }
    }

    /// Every step's weight is finite: `Constant(w)` with `w` finite, a `Ramp`
    /// with `start`, `end` and `end − start` finite. Checked at serve
    /// admission: a NaN weight is not [`Self::is_off`], so it would scale every
    /// observed site's nudge to a non-finite state.
    pub fn validate(&self) -> Result<(), String> {
        let finite = match *self {
            GuidanceSchedule::Constant(w) => w.is_finite(),
            GuidanceSchedule::Ramp { start, end } => [start, end, end - start].iter().all(|w| w.is_finite()),
        };
        if finite {
            Ok(())
        } else {
            Err(format!("guidance schedule {self:?} has a non-finite weight"))
        }
    }

    /// Content digest (variant tag + parameter bits), a cache-key component.
    pub fn digest(&self) -> u64 {
        match *self {
            GuidanceSchedule::Constant(w) => 0x0C0_0000 ^ ((w.to_bits() as u64) << 8),
            GuidanceSchedule::Ramp { start, end } => {
                0x04A_0001 ^ ((start.to_bits() as u64) << 8) ^ ((end.to_bits() as u64) << 33)
            }
        }
    }
}

/// The `Hᵀ R⁻¹ (y − H(x̂))` nudge toward an [`ObservationSet`], expressed in
/// the sampler's standardized-residual space. Owns `Arc`s of its inputs so a
/// serving worker can build one per member-task without borrowing from the
/// request.
pub struct ObsGuidance {
    obs: Arc<ObservationSet>,
    background: Arc<Tensor>,
    /// Residual normalization (maps standardized residual → physical units).
    res_std: Vec<f32>,
    res_mean: Vec<f32>,
    schedule: GuidanceSchedule,
    n_steps: usize,
}

impl ObsGuidance {
    /// Build the guidance for one member. `background` is the physical
    /// previous state `x_b` ([tokens, channels]); `res_stats` the residual
    /// normalization of the forecaster whose sampler will run; `n_steps` that
    /// sampler's step count (drives the schedule).
    pub fn new(
        obs: Arc<ObservationSet>,
        background: Arc<Tensor>,
        res_stats: &NormStats,
        schedule: GuidanceSchedule,
        n_steps: usize,
    ) -> Self {
        assert_eq!(
            background.shape(),
            [obs.tokens, obs.channels],
            "background shape does not match observation geometry"
        );
        assert_eq!(res_stats.std.len(), obs.channels, "residual stats channel mismatch");
        ObsGuidance {
            obs,
            background,
            res_std: res_stats.std.clone(),
            res_mean: res_stats.mean.clone(),
            schedule,
            n_steps,
        }
    }
}

impl Guidance for ObsGuidance {
    fn nudge(&mut self, x_hat: &Tensor, step: usize, _t: f32) -> Option<Tensor> {
        let w = self.schedule.weight(step, self.n_steps);
        if w == 0.0 {
            return None;
        }
        let channels = self.obs.channels;
        let mut g = Tensor::zeros(x_hat.shape());
        let gd = g.data_mut();
        let xh = x_hat.data();
        let bg = self.background.data();
        for (i, site) in self.obs.sites.iter().enumerate() {
            if !self.obs.mask[i] {
                continue;
            }
            let (tok, ch) = (site.token, site.channel);
            let idx = tok * channels + ch;
            // Predicted observation from the current estimate: background
            // plus the un-standardized residual at the site.
            let predicted = bg[idx] + xh[idx] * self.res_std[ch] + self.res_mean[ch];
            let innovation = self.obs.values[i] - predicted;
            let sigma_o = self.obs.noise_std[ch];
            // ∂(predicted)/∂x̂ = σ_r[ch], so the likelihood score in x̂-space
            // carries one factor of the residual std.
            gd[idx] += w * self.res_std[ch] * innovation / (sigma_o * sigma_o);
        }
        Some(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::ObsOperator;
    use aeris_earthsim::Grid;
    use aeris_tensor::Rng;

    fn setup() -> (Arc<ObservationSet>, Arc<Tensor>, NormStats) {
        let grid = Grid::new(8, 16);
        let op = ObsOperator::stations(&grid, 24, &[0, 1], &[0.5, 0.5, 0.5, 0.5], 3);
        let mut rng = Rng::seed_from(9);
        let truth = Tensor::randn(&[op.tokens, op.channels], &mut rng);
        let background = Tensor::randn(&[op.tokens, op.channels], &mut rng);
        let obs = op.observe(&truth, 0.25, 17);
        let stats = NormStats { mean: vec![0.1, -0.2, 0.0, 0.3], std: vec![1.5, 0.7, 1.0, 2.0] };
        (Arc::new(obs), Arc::new(background), stats)
    }

    #[test]
    fn schedule_weights() {
        let c = GuidanceSchedule::Constant(0.4);
        assert_eq!(c.weight(0, 10), 0.4);
        assert_eq!(c.weight(9, 10), 0.4);
        assert!(!c.is_off());
        assert!(GuidanceSchedule::off().is_off());
        let r = GuidanceSchedule::Ramp { start: 0.0, end: 1.0 };
        assert_eq!(r.weight(0, 5), 0.0);
        assert_eq!(r.weight(4, 5), 1.0);
        assert!(r.weight(2, 5) > 0.4 && r.weight(2, 5) < 0.6);
        assert_eq!(r.weight(0, 1), 1.0, "single step uses the end weight");
        assert!(!r.is_off());
        assert!(GuidanceSchedule::Ramp { start: 0.0, end: 0.0 }.is_off());
    }

    #[test]
    fn validate_accepts_exactly_the_finite_schedules() {
        for ok in [
            GuidanceSchedule::off(),
            GuidanceSchedule::Constant(-2.5),
            GuidanceSchedule::Ramp { start: 0.0, end: 1.0 },
            GuidanceSchedule::Ramp { start: f32::MAX, end: 0.0 },
        ] {
            assert_eq!(ok.validate(), Ok(()), "{ok:?}");
        }
        for bad in [
            GuidanceSchedule::Constant(f32::NAN),
            GuidanceSchedule::Constant(f32::NEG_INFINITY),
            GuidanceSchedule::Ramp { start: 0.0, end: f32::INFINITY },
            GuidanceSchedule::Ramp { start: f32::NAN, end: 0.0 },
            // Both ends finite, but the ramp's span overflows.
            GuidanceSchedule::Ramp { start: -f32::MAX, end: f32::MAX },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn schedule_digests_distinguish_variants_and_params() {
        let a = GuidanceSchedule::Constant(0.4).digest();
        let b = GuidanceSchedule::Constant(0.5).digest();
        let c = GuidanceSchedule::Ramp { start: 0.4, end: 0.4 }.digest();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, GuidanceSchedule::Constant(0.4).digest());
    }

    #[test]
    fn zero_weight_returns_none_nonzero_returns_sparse_nudge() {
        let (obs, bg, stats) = setup();
        let x_hat = Tensor::zeros(&[obs.tokens, obs.channels]);
        let mut off =
            ObsGuidance::new(Arc::clone(&obs), Arc::clone(&bg), &stats, GuidanceSchedule::off(), 4);
        assert!(off.nudge(&x_hat, 0, 1.0).is_none(), "zero weight must return None");

        let mut ramp = ObsGuidance::new(
            Arc::clone(&obs),
            Arc::clone(&bg),
            &stats,
            GuidanceSchedule::Ramp { start: 0.0, end: 1.0 },
            4,
        );
        assert!(ramp.nudge(&x_hat, 0, 1.0).is_none(), "ramp start 0 is exactly off at step 0");
        let g = ramp.nudge(&x_hat, 3, 0.5).expect("ramp end must fire");
        assert_eq!(g.shape(), x_hat.shape());
        // Nudge is sparse: non-zero only at present observation sites.
        let observed: std::collections::HashSet<usize> = obs
            .sites
            .iter()
            .enumerate()
            .filter(|(i, _)| obs.mask[*i])
            .map(|(_, s)| s.token * obs.channels + s.channel)
            .collect();
        let mut nonzero = 0;
        for (idx, &v) in g.data().iter().enumerate() {
            if !observed.contains(&idx) {
                assert_eq!(v, 0.0, "nudge leaked outside observed sites at {idx}");
            } else if v != 0.0 {
                nonzero += 1;
            }
        }
        assert!(nonzero > 0, "some observed site must receive a pull");
    }

    #[test]
    fn nudge_points_toward_observations() {
        let (obs, bg, stats) = setup();
        // Start from the background itself (zero residual estimate): the
        // innovation is y − H(x_b) − μ_r, and one nudge step must reduce the
        // observation-space misfit.
        let x_hat = Tensor::zeros(&[obs.tokens, obs.channels]);
        let mut g = ObsGuidance::new(
            Arc::clone(&obs),
            Arc::clone(&bg),
            &stats,
            GuidanceSchedule::Constant(0.05),
            4,
        );
        let nudge = g.nudge(&x_hat, 0, 1.0).unwrap();
        let misfit = |xh: &Tensor| -> f64 {
            let mut acc = 0.0f64;
            for (i, s) in obs.sites.iter().enumerate() {
                if !obs.mask[i] {
                    continue;
                }
                let idx = s.token * obs.channels + s.channel;
                let pred = bg.data()[idx]
                    + xh.data()[idx] * stats.std[s.channel]
                    + stats.mean[s.channel];
                acc += ((obs.values[i] - pred) as f64).powi(2);
            }
            acc
        };
        let before = misfit(&x_hat);
        let after = misfit(&x_hat.add(&nudge));
        assert!(after < before, "nudge must reduce observation misfit: {before} -> {after}");
    }
}
