//! Consistency distillation (§VII-C of the paper).
//!
//! "Our diffusion parameterization also allows for consistency distillation
//! [TrigFlow/sCM], which allows us to compress the model size and reduce
//! inference to a single step, thereby lowering computational cost by orders
//! of magnitude for generating new forecasts."
//!
//! This module implements discrete-time consistency distillation: a student
//! (initialized from the teacher) is trained so that its denoised prediction
//! `f(x_t, t) = cos(t)·x_t − sin(t)·v̂(x_t, t)` is constant along teacher ODE
//! trajectories. After distillation a forecast step costs **one** network
//! evaluation instead of `2·n_steps` (the DPMSolver++ 2S budget).

use crate::forecast::{self, Forecaster};
use crate::model::{AerisModel, Workspace};
use crate::training::TrainSample;
use aeris_diffusion::TrigFlow;
use aeris_earthsim::NormStats;
use aeris_nn::{AdamW, AdamWConfig, Ema};
use aeris_tensor::{Rng, Tensor};

/// Configuration for consistency distillation.
#[derive(Clone, Copy, Debug)]
pub struct DistillConfig {
    /// Discretization points along the TrigFlow time axis.
    pub n_times: usize,
    /// Distillation steps (each one teacher ODE hop + one student update).
    pub steps: usize,
    pub lr: f32,
    /// EMA half-life (in updates) for the distillation target network.
    pub target_halflife: f64,
    pub seed: u64,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig { n_times: 12, steps: 200, lr: 5e-4, target_halflife: 40.0, seed: 11 }
    }
}

/// A distilled one-step forecaster.
pub struct ConsistencyStudent {
    pub model: AerisModel,
    pub stats: NormStats,
    pub res_stats: NormStats,
    pub tf: TrigFlow,
}

impl ConsistencyStudent {
    /// Distill `teacher` on conditioning/target pairs drawn from `samples`.
    pub fn distill(
        teacher: &Forecaster,
        samples: &[TrainSample],
        weights: &Tensor,
        cfg: DistillConfig,
    ) -> ConsistencyStudent {
        assert!(!samples.is_empty(), "distillation needs at least one sample");
        assert!(cfg.n_times >= 2, "distillation needs n_times >= 2 (an adjacent time pair)");
        assert!(cfg.steps >= 1, "distillation needs steps >= 1");
        let tf = teacher.sampler.tf;
        // Student starts as a copy of the teacher.
        let mut student = teacher.replicate().model;
        // EMA of the student provides the distillation target (stop-grad).
        let mut target_ema = Ema::new(&student.store, cfg.target_halflife);
        let mut opt = AdamW::new(&student.store, AdamWConfig { weight_decay: 0.0, ..Default::default() });
        let mut rng = Rng::seed_from(cfg.seed);

        // Log-uniform time grid matching the training prior, descending.
        let grid: Vec<f32> = {
            let lmin = tf.sigma_min.ln();
            let lmax = tf.sigma_max.ln();
            let mut ts: Vec<f32> = (0..cfg.n_times)
                .map(|i| {
                    let frac = i as f32 / (cfg.n_times - 1) as f32;
                    tf.t_of_sigma((lmax + frac * (lmin - lmax)).exp())
                })
                .collect();
            ts.push(0.0);
            ts
        };

        let mut target_model = AerisModel::new(teacher.model.cfg.clone());
        let mut ws = Workspace::default();
        for _step in 0..cfg.steps {
            let sample = &samples[rng.below(samples.len())];
            // Pick an adjacent time pair (t_{n+1} > t_n).
            let n = rng.below(cfg.n_times);
            let (t_hi, t_lo) = (grid[n], grid[n + 1]);
            let z = Tensor::randn(sample.residual.shape(), &mut rng);
            let x_hi = tf.interpolate(&sample.residual, &z, t_hi);

            // Teacher ODE hop t_hi → t_lo (one exact angular step with the
            // teacher's velocity).
            let v_teacher =
                teacher.model.velocity_into(&mut ws, &x_hi, &sample.x_prev, &sample.forcings, t_hi);
            let x_lo = tf.ode_step(&x_hi, &v_teacher, t_hi, t_lo);

            // Target: the EMA student's denoised prediction at (x_lo, t_lo);
            // at t_lo = 0 the target is x_lo itself (boundary condition).
            target_ema.apply_to(&mut target_model.store);
            let f_target = if t_lo > 0.0 {
                let v = target_model.velocity_into(&mut ws, &x_lo, &sample.x_prev, &sample.forcings, t_lo);
                tf.denoise(&x_lo, &v, t_lo)
            } else {
                x_lo
            };

            // Student update: match f_student(x_hi, t_hi) to the target.
            // f = cos(t)·x_hi − sin(t)·v̂ ⇒ train v̂ toward
            // (cos(t)·x_hi − f_target)/sin(t).
            let (c, s) = (t_hi.cos(), t_hi.sin());
            let v_target = x_hi.zip_map(&f_target, |x, f| (c * x - f) / s);
            // The sin² factor converts velocity-space error back to
            // consistency (denoised-space) error.
            let w = weights.scale(s * s);
            let mut g: Vec<Option<Tensor>> = vec![None; student.store.len()];
            student.loss_grads(&mut ws, &x_hi, &sample.x_prev, &sample.forcings, t_hi, &v_target, &w, &mut g);
            opt.step(&mut student.store, &g, cfg.lr);
            target_ema.update(&student.store, 1.0);
        }

        ConsistencyStudent {
            model: student,
            stats: teacher.stats.clone(),
            res_stats: teacher.res_stats.clone(),
            tf,
        }
    }

    /// [`Self::forecast_step_in`] over a workspace of its own.
    pub fn forecast_step(&self, x_prev: &Tensor, forcings: &Tensor, rng: &mut Rng) -> Tensor {
        self.forecast_step_in(&mut Workspace::default(), x_prev, forcings, rng)
    }

    /// One-network-evaluation forecast step in `ws`: denoise noise at t = π/2.
    pub fn forecast_step_in(&self, ws: &mut Workspace, x_prev: &Tensor, forcings: &Tensor, rng: &mut Rng) -> Tensor {
        let prev_std = self.stats.standardize(x_prev);
        let t = self.tf.t_of_sigma(self.tf.sigma_max);
        let noise = Tensor::randn(prev_std.shape(), rng).scale(self.tf.sigma_d);
        let v = self.model.velocity_into(ws, &noise, &prev_std, forcings, t);
        let residual_std = self.tf.denoise(&noise, &v, t);
        forecast::add_residual(x_prev, &residual_std, &self.res_stats)
    }

    /// Single-step autoregressive rollout, in one workspace.
    pub fn rollout(
        &self,
        x0: &Tensor,
        forcings: &dyn Fn(usize) -> Tensor,
        steps: usize,
        rng: &mut Rng,
    ) -> Vec<Tensor> {
        let mut ws = Workspace::default();
        forecast::rollout(x0, forcings, steps, |x, f| self.forecast_step_in(&mut ws, x, f, rng))
    }

    /// Ensemble of one-step rollouts.
    pub fn ensemble(
        &self,
        x0: &Tensor,
        forcings: &(dyn Fn(usize) -> Tensor + Sync),
        steps: usize,
        n_members: usize,
        base_seed: u64,
    ) -> Vec<Vec<Tensor>> {
        forecast::ensemble(n_members, base_seed, |_, rng| self.rollout(x0, &forcings, steps, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AerisConfig;
    use crate::forecast::Forecaster;
    use aeris_diffusion::{SamplerConfig, TrigFlowSampler};

    fn make_teacher_and_samples() -> (Forecaster, Vec<TrainSample>, Tensor) {
        let cfg = AerisConfig::test_tiny();
        let channels = cfg.channels;
        let mut model = AerisModel::new(cfg);
        // Nudge the decoder so the teacher is nontrivial.
        let mut rng = Rng::seed_from(8);
        let shape = model.store.get(model.decode.w).shape().to_vec();
        let dw = Tensor::randn(&shape, &mut rng).scale(0.05);
        model.store.get_mut(model.decode.w).add_assign(&dw);
        let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
        let teacher = Forecaster {
            model,
            stats: stats.clone(),
            res_stats: stats,
            sampler: TrigFlowSampler::new(
                TrigFlow::default(),
                SamplerConfig { n_steps: 4, churn: 0.0, second_order: true },
            ),
        };
        let samples: Vec<TrainSample> = (0..4)
            .map(|_| TrainSample {
                x_prev: Tensor::randn(&[128, 4], &mut rng),
                residual: Tensor::randn(&[128, 4], &mut rng).scale(0.5),
                forcings: Tensor::randn(&[128, 3], &mut rng),
            })
            .collect();
        let weights = Tensor::ones(&[128, 4]);
        (teacher, samples, weights)
    }

    #[test]
    fn distillation_runs_and_student_forecasts_in_one_step() {
        let (teacher, samples, weights) = make_teacher_and_samples();
        let cfg = DistillConfig { steps: 12, n_times: 6, ..Default::default() };
        let student = ConsistencyStudent::distill(&teacher, &samples, &weights, cfg);
        let mut rng = Rng::seed_from(3);
        let next = student.forecast_step(&samples[0].x_prev, &samples[0].forcings, &mut rng);
        assert_eq!(next.shape(), samples[0].x_prev.shape());
        assert!(next.all_finite());
        // Rollout works and members differ.
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let ens = student.ensemble(&samples[0].x_prev, &forc, 2, 2, 5);
        assert!(ens[0][1].max_abs_diff(&ens[1][1]) > 1e-7);
    }

    /// The distillation trajectory as a contract: an FNV-1a fold of every
    /// student parameter's bits after six updates (captured before the
    /// student update became a caller of `AerisModel::loss_grads`).
    #[test]
    fn distilled_parameters_are_pinned_bitwise() {
        let (teacher, samples, weights) = make_teacher_and_samples();
        let cfg = DistillConfig { steps: 6, n_times: 6, ..Default::default() };
        let student = ConsistencyStudent::distill(&teacher, &samples, &weights, cfg);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (_, _, v) in student.model.store.iter() {
            for x in v.data() {
                h = (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x831f_ac55_26b0_25d4, "got {h:#x}");
    }

    #[test]
    fn student_initialization_matches_teacher() {
        let (teacher, samples, weights) = make_teacher_and_samples();
        // One update at learning rate zero → student == teacher weights.
        let cfg = DistillConfig { steps: 1, lr: 0.0, ..Default::default() };
        let student = ConsistencyStudent::distill(&teacher, &samples, &weights, cfg);
        for (id, _, v) in teacher.model.store.iter() {
            assert_eq!(student.model.store.get(id), v);
        }
    }

    /// `n_times == 1` used to divide 0 by 0 into a NaN time grid and train a
    /// NaN student without a word; `n_times == 0` died later in `below(0)`.
    #[test]
    #[should_panic(expected = "distillation needs n_times >= 2")]
    fn distill_rejects_a_single_point_time_grid() {
        let (teacher, samples, weights) = make_teacher_and_samples();
        let cfg = DistillConfig { n_times: 1, steps: 1, ..Default::default() };
        ConsistencyStudent::distill(&teacher, &samples, &weights, cfg);
    }

    #[test]
    #[should_panic(expected = "distillation needs steps >= 1")]
    fn distill_rejects_zero_steps() {
        let (teacher, samples, weights) = make_teacher_and_samples();
        let cfg = DistillConfig { steps: 0, ..Default::default() };
        ConsistencyStudent::distill(&teacher, &samples, &weights, cfg);
    }

    #[test]
    #[should_panic(expected = "distillation needs at least one sample")]
    fn distill_rejects_an_empty_sample_set() {
        let (teacher, _, weights) = make_teacher_and_samples();
        ConsistencyStudent::distill(&teacher, &[], &weights, DistillConfig::default());
    }

    /// The point of distillation: a forecast step is one network evaluation
    /// vs 2·n_steps for the teacher — verify by counting evaluations through
    /// an instrumented velocity closure on the teacher path.
    #[test]
    fn teacher_uses_many_evals_student_one() {
        let (teacher, samples, _) = make_teacher_and_samples();
        let mut count = 0usize;
        let prev = teacher.stats.standardize(&samples[0].x_prev);
        let mut vel = |x: &Tensor, t: f32| {
            count += 1;
            teacher.model.velocity(x, &prev, &samples[0].forcings, t)
        };
        let mut rng = Rng::seed_from(4);
        let _ = teacher.sampler.sample(&[128, 4], &mut vel, &mut rng);
        assert!(count >= 8, "teacher used {count} evals");
        // The student's step is definitionally a single `velocity` call (see
        // `forecast_step`), an order-of-magnitude latency reduction.
    }
}
