//! Distillation-gap evaluation: how far the one-step consistency student
//! (AERIS §VII-C) drifts from its many-step diffusion teacher as lead time
//! grows.
//!
//! For each lead time `1..=steps`, both models roll identically-seeded
//! ensembles from the same initial condition, and the sweep records the
//! latitude-weighted RMSE between the two ensemble means (the *gap*) next
//! to each ensemble's spread. The gap curve is the acceptance artifact for
//! the serving fast tier: it quantifies exactly what a deadline-routed
//! request trades away, in the same units as the forecast-skill metrics,
//! and the spread columns show whether the student keeps the teacher's
//! ensemble dispersion or collapses.

use aeris_core::{ConsistencyStudent, Forecaster};
use aeris_earthsim::Grid;
use aeris_tensor::Tensor;

use crate::metrics::{ensemble_mean, rmse, spread};

/// Sweep configuration for [`distillation_gap`].
#[derive(Clone, Debug)]
pub struct DistillEvalConfig {
    /// Forecast horizon: the sweep reports every lead time `1..=steps`.
    pub steps: usize,
    /// Ensemble members per model (≥ 2 so spread is defined).
    pub n_members: usize,
    /// Base seed; member `m` of *both* models draws from
    /// `Rng::seed_from(seed).stream(m+1)`, so the gap isolates the model
    /// difference, not the noise realization.
    pub seed: u64,
    /// State channels the metrics average over.
    pub channels: Vec<usize>,
}

/// One lead time of the student-vs-teacher sweep.
#[derive(Clone, Copy, Debug)]
pub struct DistillPoint {
    /// Lead time in steps (1-based).
    pub lead: usize,
    /// Latitude-weighted RMSE between the student and teacher ensemble
    /// means, averaged over the configured channels.
    pub gap_rmse: f64,
    /// Teacher ensemble spread at this lead time.
    pub teacher_spread: f64,
    /// Student ensemble spread at this lead time.
    pub student_spread: f64,
}

/// Run the lead-time sweep: one [`DistillPoint`] per step of the horizon.
///
/// Both ensembles are rolled once (each member seeded identically across
/// the two models) and every lead time is read off the same trajectories,
/// so the whole sweep costs one teacher ensemble plus one student ensemble.
pub fn distillation_gap(
    teacher: &Forecaster,
    student: &ConsistencyStudent,
    grid: &Grid,
    init: &Tensor,
    forcings: &(dyn Fn(usize) -> Tensor + Sync),
    cfg: &DistillEvalConfig,
) -> Vec<DistillPoint> {
    assert!(cfg.steps >= 1, "the sweep needs at least one lead time");
    assert!(cfg.n_members >= 2, "spread needs at least two members");
    assert!(!cfg.channels.is_empty(), "the sweep needs at least one channel");
    let lat_w = grid.token_lat_weights();

    let teacher_ens = teacher.ensemble(init, forcings, cfg.steps, cfg.n_members, cfg.seed);
    let student_ens = student.ensemble(init, forcings, cfg.steps, cfg.n_members, cfg.seed);

    (0..cfg.steps)
        .map(|k| {
            let t_members: Vec<&Tensor> =
                teacher_ens.members.iter().map(|m| &m[k]).collect();
            let s_members: Vec<&Tensor> =
                student_ens.iter().map(|m| &m[k]).collect();
            let t_mean = ensemble_mean(&t_members);
            let s_mean = ensemble_mean(&s_members);
            let mut gap = 0.0f64;
            let mut t_spread = 0.0f64;
            let mut s_spread = 0.0f64;
            for &ch in &cfg.channels {
                gap += rmse(&s_mean, &t_mean, &lat_w, ch);
                t_spread += spread(&t_members, &lat_w, ch);
                s_spread += spread(&s_members, &lat_w, ch);
            }
            let n = cfg.channels.len() as f64;
            DistillPoint {
                lead: k + 1,
                gap_rmse: gap / n,
                teacher_spread: t_spread / n,
                student_spread: s_spread / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_core::{AerisConfig, AerisModel};
    use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
    use aeris_earthsim::NormStats;
    use aeris_tensor::Rng;

    fn tiny_pair() -> (Forecaster, ConsistencyStudent) {
        let cfg = AerisConfig::test_tiny();
        let channels = cfg.channels;
        let model = AerisModel::new(cfg);
        let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
        let fc = Forecaster {
            model,
            res_stats: stats.clone(),
            stats,
            sampler: TrigFlowSampler::new(
                TrigFlow::default(),
                SamplerConfig { n_steps: 2, churn: 0.1, second_order: false },
            ),
        };
        let student = ConsistencyStudent {
            model: fc.replicate().model,
            stats: fc.stats.clone(),
            res_stats: fc.res_stats.clone(),
            tf: fc.sampler.tf,
        };
        (fc, student)
    }

    #[test]
    fn sweep_covers_every_lead_time_with_finite_numbers() {
        let (fc, student) = tiny_pair();
        let grid = Grid::new(8, 16);
        let init = Tensor::randn(&[128, 4], &mut Rng::seed_from(5));
        let cfg = DistillEvalConfig {
            steps: 3,
            n_members: 2,
            seed: 17,
            channels: vec![0, 1],
        };
        let pts =
            distillation_gap(&fc, &student, &grid, &init, &|_k| Tensor::zeros(&[128, 3]), &cfg);
        assert_eq!(pts.len(), 3);
        for (k, p) in pts.iter().enumerate() {
            assert_eq!(p.lead, k + 1);
            assert!(p.gap_rmse.is_finite() && p.gap_rmse >= 0.0);
            assert!(p.teacher_spread.is_finite() && p.student_spread.is_finite());
        }
        // The student is a *different* sampler over the same weights, so at
        // some lead the gap must be nonzero — a zero curve means the sweep
        // compared a model to itself.
        assert!(pts.iter().any(|p| p.gap_rmse > 0.0), "gap curve is identically zero");
    }

    #[test]
    fn sweep_is_deterministic() {
        let (fc, student) = tiny_pair();
        let grid = Grid::new(8, 16);
        let init = Tensor::randn(&[128, 4], &mut Rng::seed_from(6));
        let cfg = DistillEvalConfig { steps: 2, n_members: 2, seed: 23, channels: vec![0] };
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let a = distillation_gap(&fc, &student, &grid, &init, &forc, &cfg);
        let b = distillation_gap(&fc, &student, &grid, &init, &forc, &cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.gap_rmse.to_bits(), y.gap_rmse.to_bits());
            assert_eq!(x.teacher_spread.to_bits(), y.teacher_spread.to_bits());
            assert_eq!(x.student_spread.to_bits(), y.student_spread.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "two members")]
    fn single_member_sweeps_are_rejected() {
        let (fc, student) = tiny_pair();
        let grid = Grid::new(4, 8);
        let cfg = DistillEvalConfig { steps: 1, n_members: 1, seed: 1, channels: vec![0] };
        distillation_gap(
            &fc,
            &student,
            &grid,
            &Tensor::zeros(&[32, 4]),
            &|_k| Tensor::zeros(&[32, 3]),
            &cfg,
        );
    }
}
