//! Training loop: TrigFlow objective over residual targets with the
//! physically weighted loss, AdamW, the paper's LR schedule, and EMA.

use crate::forecast::add_residual;
use crate::model::{AerisModel, Workspace};
use aeris_diffusion::{loss_weights, TrigFlow};
use aeris_earthsim::{Dataset, Grid};
use aeris_nn::{batch_mean, AdamW, AdamWConfig, Ema, LrSchedule};
use aeris_tensor::{Rng, Tensor};

/// One training sample in standardized units.
#[derive(Clone, Debug)]
pub struct TrainSample {
    /// Previous state x_{i−1} (standardized), `[tokens, C]`.
    pub x_prev: Tensor,
    /// Residual target x₀ = (x_i − x_{i−1})/σ_v (standardized residual).
    pub residual: Tensor,
    /// Forcings at i−1, `[tokens, F]`.
    pub forcings: Tensor,
}

/// Build standardized training samples from a dataset pair range.
pub fn prepare_samples(ds: &Dataset, range: std::ops::Range<usize>) -> Vec<TrainSample> {
    range
        .map(|i| {
            let pair = ds.pair(i);
            let x_prev = ds.stats.standardize(&pair.prev);
            let residual = ds.res_stats.standardize(&pair.next.sub(&pair.prev));
            TrainSample { x_prev, residual, forcings: pair.forcings }
        })
        .collect()
}

/// Trainer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainerConfig {
    pub adamw: AdamWConfig,
    pub schedule: LrSchedule,
    /// Samples per optimizer step.
    pub batch: usize,
    /// EMA half-life in images.
    pub ema_halflife: f64,
    pub seed: u64,
}

impl TrainerConfig {
    /// Paper hyperparameters scaled to a small run of `total_images`.
    pub fn paper_scaled(total_images: u64, batch: usize) -> Self {
        TrainerConfig {
            adamw: AdamWConfig::default(),
            schedule: LrSchedule { peak: 1e-3, ..LrSchedule::paper_scaled(total_images) },
            batch,
            ema_halflife: total_images as f64 / 30.0,
            seed: 7,
        }
    }
}

/// Drives TrigFlow training of an [`AerisModel`].
pub struct Trainer {
    pub cfg: TrainerConfig,
    pub tf: TrigFlow,
    opt: AdamW,
    pub ema: Ema,
    /// Loss-weight mask `[tokens, C]` (Eq. 2).
    pub weights: Tensor,
    images_seen: u64,
    rng: Rng,
    ws: Workspace,
}

impl Trainer {
    /// Construct for a model over a given grid (for latitude weights) and
    /// channel κ weights.
    pub fn new(model: &AerisModel, grid: Grid, kappa: &[f32], cfg: TrainerConfig) -> Self {
        let weights = loss_weights(&grid.token_lat_weights(), kappa);
        assert_eq!(weights.shape(), &[model.cfg.tokens(), model.cfg.channels]);
        Trainer {
            cfg,
            tf: TrigFlow::default(),
            opt: AdamW::new(&model.store, cfg.adamw),
            ema: Ema::new(&model.store, cfg.ema_halflife),
            weights,
            images_seen: 0,
            rng: Rng::seed_from(cfg.seed),
            ws: Workspace::default(),
        }
    }

    /// One optimizer step over a mini-batch (gradients averaged). Returns the
    /// mean loss.
    pub fn train_step(&mut self, model: &mut AerisModel, batch: &[&TrainSample]) -> f64 {
        let mut acc: Vec<Option<Tensor>> = vec![None; model.store.len()];
        let mut total_loss = 0.0;
        for sample in batch {
            let t = self.tf.sample_t(&mut self.rng);
            let z = Tensor::randn(sample.residual.shape(), &mut self.rng);
            let x_t = self.tf.interpolate(&sample.residual, &z, t);
            let v_target = self.tf.velocity_target(&sample.residual, &z, t);
            let (x_prev, forcings) = (&sample.x_prev, &sample.forcings);
            total_loss +=
                model.loss_grads(&mut self.ws, &x_t, x_prev, forcings, t, &v_target, &self.weights, &mut acc);
        }
        let loss = batch_mean(&mut acc, total_loss, batch.len());
        let lr = self.cfg.schedule.lr_at(self.images_seen);
        self.opt.step(&mut model.store, &acc, lr);
        self.images_seen += batch.len() as u64;
        self.ema.update(&model.store, batch.len() as f64);
        loss
    }

    /// Train over shuffled epochs of `samples` until `total_images` are seen.
    /// Returns the per-step loss history.
    pub fn fit(
        &mut self,
        model: &mut AerisModel,
        samples: &[TrainSample],
        total_images: u64,
    ) -> Vec<f64> {
        assert!(!samples.is_empty());
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut losses = Vec::new();
        let mut cursor = samples.len(); // trigger shuffle on first use
        while self.images_seen < total_images {
            let bs = self.cfg.batch.min(samples.len());
            let mut batch = Vec::with_capacity(bs);
            for _ in 0..bs {
                if cursor >= order.len() {
                    self.rng.shuffle(&mut order);
                    cursor = 0;
                }
                batch.push(&samples[order[cursor]]);
                cursor += 1;
            }
            losses.push(self.train_step(model, &batch));
        }
        losses
    }

    /// Multi-step (rollout) fine-tuning (§VII-C, after SWIFT \[87\] and the
    /// design-space study \[88\]): instead of teacher-forced one-step targets,
    /// the model forecasts its *own* next state (one full sampler solve, no
    /// gradient) and is then trained on the diffusion objective conditioned
    /// on that self-generated state. This exposes training to the
    /// autoregressive distribution shift and measurably reduces rollout
    /// drift. Returns per-step losses.
    pub fn finetune_rollout(
        &mut self,
        model: &mut AerisModel,
        ds: &Dataset,
        sampler: &aeris_diffusion::TrigFlowSampler,
        pair_range: std::ops::Range<usize>,
        images: u64,
    ) -> Vec<f64> {
        assert!(pair_range.len() >= 2, "rollout fine-tuning needs consecutive pairs");
        let mut losses = Vec::new();
        let target_images = self.images_seen + images;
        let mut order: Vec<usize> = pair_range.clone().collect();
        order.pop(); // need i+1 to exist inside the range
        let mut cursor = order.len();
        while self.images_seen < target_images {
            if cursor >= order.len() {
                self.rng.shuffle(&mut order);
                cursor = 0;
            }
            let i = order[cursor];
            cursor += 1;

            // Step 1 (no grad): model forecasts x̂_i from x_{i-1}.
            let pair0 = ds.pair(i);
            let prev_std = ds.stats.standardize(&pair0.prev);
            let forc0 = pair0.forcings.clone();
            let shape = prev_std.shape().to_vec();
            let mut velocity =
                |x_t: &Tensor, t: f32| model.velocity_into(&mut self.ws, x_t, &prev_std, &forc0, t);
            let res_std = sampler.sample(&shape, &mut velocity, &mut self.rng);
            let x_hat = add_residual(&pair0.prev, &res_std, &ds.res_stats);

            // Step 2 (with grad): diffusion loss for x_{i+1} conditioned on
            // the self-generated x̂_i instead of the true x_i.
            let pair1 = ds.pair(i + 1);
            let sample = TrainSample {
                x_prev: ds.stats.standardize(&x_hat),
                residual: ds.res_stats.standardize(&pair1.next.sub(&x_hat)),
                forcings: pair1.forcings.clone(),
            };
            losses.push(self.train_step(model, &[&sample]));
        }
        losses
    }

    /// A model clone carrying the EMA weights (the inference model, §VI-B).
    pub fn ema_model(&self, model: &AerisModel) -> AerisModel {
        let mut m = AerisModel::new(model.cfg.clone());
        self.ema.apply_to(&mut m.store);
        m
    }
}

#[cfg(test)]
impl Trainer {
    /// Images consumed so far.
    pub(crate) fn images_seen(&self) -> u64 {
        self.images_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AerisConfig;
    use aeris_earthsim::{ToyParams, VariableSet};

    fn tiny_dataset() -> (Dataset, VariableSet) {
        let vars = VariableSet::with_levels(&[850]); // 10 channels
        let params = ToyParams { nlat: 8, nlon: 16, seed: 3, ..Default::default() };
        let ds = Dataset::generate(params, &vars, 24, 8, 0.8, 0.1);
        (ds, vars)
    }

    fn tiny_model(channels: usize) -> AerisModel {
        AerisModel::new(AerisConfig { channels, ..AerisConfig::test_tiny() })
    }

    #[test]
    fn prepare_samples_shapes() {
        let (ds, vars) = tiny_dataset();
        let samples = prepare_samples(&ds, 0..5);
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0].x_prev.shape(), &[128, vars.len()]);
        assert_eq!(samples[0].residual.shape(), &[128, vars.len()]);
        assert_eq!(samples[0].forcings.shape(), &[128, 3]);
    }

    #[test]
    fn loss_decreases_with_training() {
        let (ds, vars) = tiny_dataset();
        let samples = prepare_samples(&ds, 0..ds.train_pairs);
        let mut model = tiny_model(vars.len());
        let cfg = TrainerConfig {
            schedule: LrSchedule { peak: 3e-3, warmup: 16, decay: 20, total: 10_000 },
            batch: 2,
            ..TrainerConfig::paper_scaled(10_000, 2)
        };
        let mut trainer = Trainer::new(&model, ds.grid, &vars.kappa(), cfg);
        let losses = trainer.fit(&mut model, &samples, 200);
        let head: f64 = losses[..10].iter().sum::<f64>() / 10.0;
        let tail: f64 = losses[losses.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(
            tail < head * 0.93,
            "no learning: first {head:.4} last {tail:.4} ({} steps)",
            losses.len()
        );
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn ema_model_differs_from_raw_after_training_and_tracks_it() {
        let (ds, vars) = tiny_dataset();
        let samples = prepare_samples(&ds, 0..ds.train_pairs);
        let mut model = tiny_model(vars.len());
        let cfg = TrainerConfig::paper_scaled(1000, 2);
        let mut trainer = Trainer::new(&model, ds.grid, &vars.kappa(), cfg);
        trainer.fit(&mut model, &samples, 20);
        let ema_model = trainer.ema_model(&model);
        // Same architecture, different (lagged) weights.
        assert_eq!(ema_model.param_count(), model.param_count());
        let mut any_diff = false;
        for (id, _, v) in model.store.iter() {
            if ema_model.store.get(id).max_abs_diff(v) > 1e-9 {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "EMA weights identical to raw weights");
    }

    #[test]
    fn rollout_finetuning_runs_and_stays_finite() {
        let (ds, vars) = tiny_dataset();
        let mut model = tiny_model(vars.len());
        let mut trainer =
            Trainer::new(&model, ds.grid, &vars.kappa(), TrainerConfig::paper_scaled(500, 2));
        // Brief teacher-forced phase first.
        let samples = prepare_samples(&ds, ds.split_ranges().0);
        trainer.fit(&mut model, &samples, 20);
        let sampler = aeris_diffusion::TrigFlowSampler::new(
            TrigFlow::default(),
            aeris_diffusion::SamplerConfig { n_steps: 3, churn: 0.0, second_order: true },
        );
        let losses =
            trainer.finetune_rollout(&mut model, &ds, &sampler, ds.split_ranges().0, 8);
        assert_eq!(losses.len(), 8);
        assert!(losses.iter().all(|l| l.is_finite()));
        assert_eq!(trainer.images_seen(), 28);
    }

    /// The training trajectory as a contract: `fit` on the tiny model with
    /// fixed seeds reproduces these per-step losses bit for bit (captured
    /// while `train_step` still built its own tape).
    #[test]
    fn fit_loss_history_is_pinned_bitwise() {
        let cfg = AerisConfig::test_tiny();
        let mut rng = Rng::seed_from(21);
        let samples: Vec<TrainSample> = (0..5)
            .map(|_| TrainSample {
                x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
                residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.4),
                forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
            })
            .collect();
        let grid = Grid::new(cfg.grid_h, cfg.grid_w);
        let kappa = vec![1.0; cfg.channels];
        let mut model = AerisModel::new(cfg);
        let mut trainer = Trainer::new(&model, grid, &kappa, TrainerConfig::paper_scaled(100, 2));
        let losses = trainer.fit(&mut model, &samples, 12);
        let bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
        let pinned: [u64; 6] = [
            0x3fd38ff0e0000000,
            0x3fe2559084000000,
            0x3fde38a578000000,
            0x3fc9b144c0000000,
            0x3fc544dd80000000,
            0x3fdf379628000000,
        ];
        assert_eq!(bits, pinned, "got {bits:#x?}");
    }

    /// A train step binds every parameter by reference and drops its tapes
    /// before AdamW runs, so the optimizer writes each store tensor in
    /// place: no parameter buffer moves. A copy-on-write copy here would
    /// change no bit, only cost a copy of every parameter per step.
    #[test]
    fn a_train_step_updates_every_parameter_in_its_own_buffer() {
        let (ds, vars) = tiny_dataset();
        let samples = prepare_samples(&ds, 0..2);
        let mut model = tiny_model(vars.len());
        let mut trainer =
            Trainer::new(&model, ds.grid, &vars.kappa(), TrainerConfig::paper_scaled(100, 2));
        let ptrs = |m: &AerisModel| -> Vec<*const f32> {
            m.store.iter().map(|(_, _, v)| v.data().as_ptr()).collect()
        };
        let (before, at) = (model.store.snapshot(), ptrs(&model));
        for _ in 0..2 {
            // The first step runs at the warmup's learning rate 0.
            trainer.train_step(&mut model, &[&samples[0], &samples[1]]);
            assert_eq!(ptrs(&model), at, "a parameter buffer moved during the step");
        }
        assert!(model.store.iter().zip(&before).any(|((_, _, v), b)| v != b), "no parameter trained");
    }

    #[test]
    fn images_seen_counts() {
        let (ds, vars) = tiny_dataset();
        let samples = prepare_samples(&ds, 0..4);
        let mut model = tiny_model(vars.len());
        let mut trainer =
            Trainer::new(&model, ds.grid, &vars.kappa(), TrainerConfig::paper_scaled(100, 2));
        trainer.fit(&mut model, &samples, 10);
        assert_eq!(trainer.images_seen(), 10);
    }
}
