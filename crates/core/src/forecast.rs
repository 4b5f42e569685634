//! Autoregressive ensemble forecasting (Fig. 1c/d of the paper).
//!
//! Each forecast step integrates the PFODE with the DPMSolver++ 2S sampler to
//! draw a residual, adds it to the previous state, and feeds the result back
//! autoregressively. New ensemble members resample the initial noise (and
//! churn noise) with different seeds.

use crate::model::{AerisModel, Workspace};
use aeris_diffusion::{Guidance, NoGuidance, TrigFlowSampler};
use aeris_earthsim::NormStats;
use aeris_tensor::{sweeps, Rng, Tensor};
use rayon::prelude::*;

/// A trained model packaged for inference.
pub struct Forecaster {
    /// The (EMA) model.
    pub model: AerisModel,
    /// Normalization statistics of the full fields (for conditioning).
    pub stats: NormStats,
    /// Normalization statistics of the one-step residuals (for the sampled
    /// diffusion targets).
    pub res_stats: NormStats,
    /// Sampler configuration.
    pub sampler: TrigFlowSampler,
}

/// An ensemble of autoregressive rollouts: `members[m][k]` is member `m`'s
/// state after `k+1` forecast steps, in physical units.
pub struct EnsembleForecast {
    pub members: Vec<Vec<Tensor>>,
}

/// `x_prev` plus the un-standardized residual: one unrolled unit-stride
/// sweep per row (no per-element multi-index lookups). Every forecast step
/// in the workspace — AERIS, the student, the baselines, rollout
/// fine-tuning — ends here.
pub fn add_residual(
    x_prev: &Tensor,
    residual_std: &Tensor,
    res_stats: &NormStats,
) -> Tensor {
    let mut next = x_prev.clone();
    let (std, mean) = (&res_stats.std, &res_stats.mean);
    for r in 0..next.shape()[0] {
        sweeps::add_scale_shift(next.row_mut(r), residual_std.row(r), std, mean);
    }
    next
}

/// The autoregressive loop: apply `step(x, forcings(k))` for `steps` steps,
/// feeding each output back as the next input.
pub fn rollout(
    x0: &Tensor,
    forcings: &dyn Fn(usize) -> Tensor,
    steps: usize,
    mut step: impl FnMut(&Tensor, &Tensor) -> Tensor,
) -> Vec<Tensor> {
    let mut states = Vec::with_capacity(steps);
    let mut x = x0.clone();
    for k in 0..steps {
        x = step(&x, &forcings(k));
        states.push(x.clone());
    }
    states
}

/// Member `member`'s private noise stream in an ensemble seeded `seed`.
/// Every ensemble in the workspace — direct calls, nowcasts, baselines and
/// the serving engine — seeds its members here, which is what makes a served
/// member bitwise equal to the same member of a direct call.
pub fn member_rng(seed: u64, member: usize) -> Rng {
    Rng::seed_from(seed).stream(member as u64 + 1)
}

/// Run `member(m, rng)` once per ensemble member, each on its own
/// [`member_rng`] stream. One of the workspace's two pool fan-outs (the other
/// is [`step_batch`]): members run on up to `AERIS_THREADS` scoped threads,
/// and `out[m]` is member `m`'s result, bitwise, whatever that width — a
/// member reads shared immutable state and its own stream only, and the pool
/// writes each result to its own slot.
pub fn ensemble<T: Send>(
    n_members: usize,
    base_seed: u64,
    member: impl Fn(usize, &mut Rng) -> T + Sync,
) -> Vec<T> {
    (0..n_members)
        .into_par_iter()
        .map(|m| member(m, &mut member_rng(base_seed, m)))
        .collect()
}

/// Advance several independent jobs by one step each, in parallel (the
/// pool's other fan-out, next to [`ensemble`]); `out[i]` is
/// `step(&mut jobs[i], &mut workspaces[i])` at any pool width (`workspaces`
/// grows to one per job). A job owns everything its step mutates (its RNG,
/// any guidance state) and runs in its own workspace, whose contents never
/// reach a result, so a job's result is a pure function of that job alone —
/// batch order and composition can never change the numbers, which is what
/// lets the serving engine coalesce requests freely while staying bitwise
/// deterministic.
pub fn step_batch<J: Send>(jobs: &mut [J], workspaces: &mut Vec<Workspace>, step: impl Fn(&mut J, &mut Workspace) -> Tensor + Sync) -> Vec<Tensor> {
    workspaces.resize_with(workspaces.len().max(jobs.len()), Workspace::default);
    jobs.iter_mut().zip(workspaces).into_par_iter().map(|(job, ws)| step(job, ws)).collect()
}

impl EnsembleForecast {
    /// Number of forecast steps.
    pub fn n_steps(&self) -> usize {
        self.members.first().map_or(0, |m| m.len())
    }

    /// All member states at step `k`, or `None` for an empty ensemble or a
    /// step beyond the rollout horizon.
    pub fn at_step(&self, k: usize) -> Option<Vec<&Tensor>> {
        if self.members.is_empty() || k >= self.n_steps() {
            return None;
        }
        Some(self.members.iter().map(|m| &m[k]).collect())
    }
}

impl Forecaster {
    /// A bitwise-identical forecaster whose copy-on-write parameter store
    /// shares every tensor with this one until either side is trained: a
    /// parameter is copied only when one of them writes it. Distillation
    /// seeds the student from such a copy.
    pub fn replicate(&self) -> Forecaster {
        Forecaster {
            model: self.model.clone(),
            stats: self.stats.clone(),
            res_stats: self.res_stats.clone(),
            sampler: self.sampler,
        }
    }

    /// One forecast step over a workspace of its own: physical `x_prev` +
    /// forcings → physical `x_next`, by sampling a standardized residual.
    pub fn forecast_step(&self, x_prev: &Tensor, forcings: &Tensor, rng: &mut Rng) -> Tensor {
        self.forecast_step_guided(&mut Workspace::default(), x_prev, forcings, rng, &mut NoGuidance)
    }

    /// [`Self::forecast_step`] in `ws`, with an observation-consistency
    /// guidance hook threaded into the sampler (generative data
    /// assimilation). A hook that never fires ([`NoGuidance`]) leaves this
    /// bitwise identical to the plain step.
    pub fn forecast_step_guided(
        &self,
        ws: &mut Workspace,
        x_prev: &Tensor,
        forcings: &Tensor,
        rng: &mut Rng,
        guidance: &mut dyn Guidance,
    ) -> Tensor {
        let prev_std = self.stats.standardize(x_prev);
        let shape = prev_std.shape().to_vec();
        let mut velocity =
            |x_t: &Tensor, t: f32| self.model.velocity_into(ws, x_t, &prev_std, forcings, t);
        let residual_std = self.sampler.sample_guided(&shape, &mut velocity, rng, guidance);
        add_residual(x_prev, &residual_std, &self.res_stats)
    }

    /// Autoregressive rollout (one workspace). `forcings(k)` returns the
    /// forcing tensor valid at the *input* of step `k` (solar radiation moves
    /// with the clock; orography and land-sea mask are static).
    pub fn rollout(
        &self,
        x0: &Tensor,
        forcings: &dyn Fn(usize) -> Tensor,
        steps: usize,
        rng: &mut Rng,
    ) -> Vec<Tensor> {
        let mut ws = Workspace::default();
        rollout(x0, forcings, steps, |x, f| self.forecast_step_guided(&mut ws, x, f, rng, &mut NoGuidance))
    }

    /// Generate an ensemble of rollouts (members fan out through [`ensemble`],
    /// each a [`Self::rollout`] in its own workspace). Member `m` draws from
    /// [`member_rng`]`(base_seed, m)`.
    pub fn ensemble(
        &self,
        x0: &Tensor,
        forcings: &(dyn Fn(usize) -> Tensor + Sync),
        steps: usize,
        n_members: usize,
        base_seed: u64,
    ) -> EnsembleForecast {
        let members =
            ensemble(n_members, base_seed, |_, rng| self.rollout(x0, &forcings, steps, rng));
        EnsembleForecast { members }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AerisConfig;
    use aeris_diffusion::{SamplerConfig, TrigFlow};

    fn tiny_forecaster() -> Forecaster {
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
                SamplerConfig { n_steps: 3, churn: 0.1, second_order: true },
            ),
        }
    }

    /// `replicate` shares every parameter buffer with the original, and
    /// training the copy copies what it writes: the original keeps its bits.
    #[test]
    fn training_a_replicated_model_leaves_the_original_unchanged() {
        use crate::training::{TrainSample, Trainer, TrainerConfig};
        let f = tiny_forecaster();
        let cfg = f.model.cfg.clone();
        let mut rng = Rng::seed_from(5);
        let samples: Vec<TrainSample> = (0..2)
            .map(|_| TrainSample {
                x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
                residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
                forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
            })
            .collect();
        let bits = |m: &AerisModel| -> Vec<u32> {
            m.store.iter().flat_map(|(_, _, v)| v.data().iter().map(|x| x.to_bits())).collect()
        };
        let ptrs = |m: &AerisModel| -> Vec<*const f32> {
            m.store.iter().map(|(_, _, v)| v.data().as_ptr()).collect()
        };
        let before = bits(&f.model);
        let mut copy = f.replicate().model;
        assert_eq!(ptrs(&copy), ptrs(&f.model), "replicate copied a parameter");
        let grid = aeris_earthsim::Grid::new(cfg.grid_h, cfg.grid_w);
        let kappa = vec![1.0; cfg.channels];
        let mut trainer = Trainer::new(&copy, grid, &kappa, TrainerConfig::paper_scaled(100, 2));
        for _ in 0..2 {
            // The first step runs at the warmup's learning rate 0.
            trainer.train_step(&mut copy, &[&samples[0], &samples[1]]);
        }
        assert_eq!(bits(&f.model), before, "training the copy wrote the original");
        assert_ne!(bits(&copy), before, "the copy did not train");
    }

    #[test]
    fn forecast_step_shape_and_finiteness() {
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(1);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = Tensor::zeros(&[128, 3]);
        let x1 = f.forecast_step(&x0, &forc, &mut rng);
        assert_eq!(x1.shape(), &[128, 4]);
        assert!(x1.all_finite());
        // Untrained (zero-velocity) model: the sampled residual is driven to
        // the denoised estimate of pure noise; the state must still change.
        assert!(x1.max_abs_diff(&x0) > 0.0);
    }

    #[test]
    fn rollout_produces_requested_steps() {
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(2);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let states = f.rollout(&x0, &forc, 5, &mut rng);
        assert_eq!(states.len(), 5);
        for s in &states {
            assert!(s.all_finite());
        }
    }

    #[test]
    fn ensemble_members_are_distinct_and_deterministic() {
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(3);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let ens = f.ensemble(&x0, &forc, 2, 3, 99);
        assert_eq!(ens.members.len(), 3);
        assert_eq!(ens.n_steps(), 2);
        assert!(ens.members[0][0].max_abs_diff(&ens.members[1][0]) > 1e-6);
        // Deterministic reproduction with the same base seed.
        let ens2 = f.ensemble(&x0, &forc, 2, 3, 99);
        assert_eq!(ens.members[2][1], ens2.members[2][1]);
    }

    #[test]
    fn empty_or_out_of_range_accessors_return_none() {
        let empty = EnsembleForecast { members: vec![] };
        assert!(empty.at_step(0).is_none());
        assert_eq!(empty.n_steps(), 0);
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(4);
        let x0 = Tensor::randn(&[128, 4], &mut rng);
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let ens = f.ensemble(&x0, &forc, 2, 2, 5);
        assert_eq!(ens.at_step(1).map(|m| m.len()), Some(2));
        assert!(ens.at_step(2).is_none(), "step beyond horizon must be None");
    }

    #[test]
    fn step_batch_is_the_sequential_map_in_order_at_any_thread_count() {
        let f = tiny_forecaster();
        let mut rng = Rng::seed_from(6);
        let states: Vec<Tensor> =
            (0..5).map(|_| Tensor::randn(&[128, 4], &mut rng)).collect();
        let forc = Tensor::zeros(&[128, 3]);
        // Sequential reference, one private RNG stream per job.
        let root = Rng::seed_from(77);
        let expect: Vec<Tensor> = states
            .iter()
            .enumerate()
            .map(|(i, x)| f.forecast_step(x, &forc, &mut root.stream(i as u64)))
            .collect();
        for threads in [1, 4] {
            rayon::set_thread_override(Some(threads));
            let mut jobs: Vec<(&Tensor, Rng)> =
                states.iter().enumerate().map(|(i, x)| (x, root.stream(i as u64))).collect();
            let got = step_batch(&mut jobs, &mut Vec::new(), |(x, rng), ws| {
                f.forecast_step_guided(ws, x, &forc, rng, &mut NoGuidance)
            });
            rayon::set_thread_override(None);
            assert_eq!(expect, got, "batching must not change the numbers ({threads} threads)");
            // The jobs' own state advanced exactly as the sequential calls did.
            for (i, (x, rng)) in jobs.iter_mut().enumerate() {
                let mut seq = root.stream(i as u64);
                f.forecast_step(x, &forc, &mut seq);
                assert_eq!(rng.snapshot(), seq.snapshot(), "job {i} RNG state");
            }
        }
    }
}
