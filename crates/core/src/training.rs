//! Training loop: TrigFlow objective over residual targets with the
//! physically weighted loss, AdamW, the paper's LR schedule, and EMA.

use crate::forecast::add_residual;
use crate::model::AerisModel;
use aeris_diffusion::{loss_weights, TrigFlow};
use aeris_earthsim::{Dataset, Grid};
use aeris_nn::checkpoint::{entry_u64, save_entries, u64_entry, Entries};
use aeris_nn::{batch_mean, AdamW, AdamWConfig, Ema, LrSchedule};
use aeris_tensor::{Rng, RngSnapshot, Tensor};
use std::io;
use std::path::Path;

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
        }
    }

    /// Images consumed so far.
    pub fn images_seen(&self) -> u64 {
        self.images_seen
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
                model.loss_grads(&x_t, x_prev, forcings, t, &v_target, &self.weights, &mut acc);
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

    /// Multi-step (rollout) fine-tuning (§VII-C, after SWIFT [87] and the
    /// design-space study [88]): instead of teacher-forced one-step targets,
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
            let velocity =
                |x_t: &Tensor, t: f32| model.velocity(x_t, &prev_std, &forc0, t);
            let res_std = sampler.sample(&shape, &mut |x, t| velocity(x, t), &mut self.rng);
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

    /// Serialize the complete training state — model parameters, AdamW
    /// moments and step counter, EMA shadow, RNG stream, and the images-seen
    /// counter — so that a restarted run continues bitwise-identically.
    pub fn save_checkpoint(&self, model: &AerisModel, path: &Path) -> io::Result<()> {
        let mut entries = Vec::new();
        for (i, (_, name, v)) in model.store.iter().enumerate() {
            entries.push((format!("param/{name}"), v.clone()));
            let (m, s) = self.opt.state(i);
            entries.push((format!("opt.m/{name}"), m.clone()));
            entries.push((format!("opt.v/{name}"), s.clone()));
            entries.push((format!("ema/{name}"), self.ema.shadow()[i].clone()));
        }
        entries.push(u64_entry("meta/images_seen", self.images_seen));
        entries.push(u64_entry("meta/adamw_steps", self.opt.steps()));
        let snap = self.rng.snapshot();
        entries.push(u64_entry("meta/rng_state", snap.state));
        // The Box–Muller cache is an f32 (or absent): a presence flag plus the
        // value round-trips it exactly through the f32 tensor format.
        let (flag, cached) = match snap.gauss_cache {
            Some(g) => (1.0, g),
            None => (0.0, 0.0),
        };
        entries.push(("meta/rng_gauss".to_string(), Tensor::from_slice(&[flag, cached])));
        save_entries(&entries, path)
    }

    /// Restore state written by [`Trainer::save_checkpoint`] into this
    /// trainer and `model`. Every `param/`, `opt.m/`, `opt.v/` and `ema/`
    /// entry must be present in its parameter's shape and the metadata
    /// well-formed, or the load is `InvalidData` and neither the model nor
    /// the trainer has changed: everything is validated before anything is
    /// committed.
    pub fn load_checkpoint(&mut self, model: &mut AerisModel, path: &Path) -> io::Result<()> {
        let mut entries = Entries::load(path)?;
        let params = entries.take_params("param/", &model.store)?;
        let m = entries.take_params("opt.m/", &model.store)?;
        let v = entries.take_params("opt.v/", &model.store)?;
        let shadow = entries.take_params("ema/", &model.store)?;
        let images_seen = entry_u64(&entries.take("meta/images_seen")?)?;
        let adamw_steps = entry_u64(&entries.take("meta/adamw_steps")?)?;
        let state = entry_u64(&entries.take("meta/rng_state")?)?;
        let gauss = entries.take_shaped("meta/rng_gauss", &[2])?;

        model.store.restore(&params);
        for (i, (m, v)) in m.into_iter().zip(v).enumerate() {
            let (sm, sv) = self.opt.state_mut(i);
            (*sm, *sv) = (m, v);
        }
        self.ema.restore_shadow(shadow);
        self.images_seen = images_seen;
        self.opt.set_steps(adamw_steps);
        let gauss_cache = (gauss.data()[0] != 0.0).then(|| gauss.data()[1]);
        self.rng = Rng::restore(RngSnapshot { state, gauss_cache });
        Ok(())
    }

    /// A model clone carrying the EMA weights (the inference model, §VI-B).
    pub fn ema_model(&self, model: &AerisModel) -> AerisModel {
        let mut m = AerisModel::new(model.cfg.clone());
        self.ema.apply_to(&mut m.store);
        m
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

    #[test]
    fn checkpoint_restart_resumes_bitwise() {
        let (ds, vars) = tiny_dataset();
        let samples = prepare_samples(&ds, 0..6);
        let cfg = TrainerConfig::paper_scaled(1000, 2);
        let batches: Vec<Vec<&TrainSample>> =
            (0..6).map(|s| vec![&samples[(2 * s) % 6], &samples[(2 * s + 1) % 6]]).collect();

        // Uninterrupted run: 6 fixed-batch steps.
        let mut model_a = tiny_model(vars.len());
        let mut tr_a = Trainer::new(&model_a, ds.grid, &vars.kappa(), cfg);
        let mut losses_a = Vec::new();
        for b in &batches {
            losses_a.push(tr_a.train_step(&mut model_a, b));
        }

        // Interrupted run: 3 steps, checkpoint, "crash", fresh trainer +
        // model (different init), restore, 3 more steps.
        let dir = std::env::temp_dir().join("aeris_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trainer.ckpt");
        let mut model_b = tiny_model(vars.len());
        let mut tr_b = Trainer::new(&model_b, ds.grid, &vars.kappa(), cfg);
        let mut losses_b = Vec::new();
        for b in &batches[..3] {
            losses_b.push(tr_b.train_step(&mut model_b, b));
        }
        tr_b.save_checkpoint(&model_b, &path).unwrap();
        drop((tr_b, model_b));

        let mut model_c = AerisModel::new(AerisConfig {
            channels: vars.len(),
            seed: 999, // decidedly not the checkpointed init
            ..AerisConfig::test_tiny()
        });
        let mut tr_c = Trainer::new(&model_c, ds.grid, &vars.kappa(), cfg);
        tr_c.load_checkpoint(&mut model_c, &path).unwrap();
        assert_eq!(tr_c.images_seen(), 6);
        for b in &batches[3..] {
            losses_b.push(tr_c.train_step(&mut model_c, b));
        }
        std::fs::remove_file(&path).ok();

        // Bitwise: the resumed trajectory is indistinguishable.
        assert_eq!(
            losses_a.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            losses_b.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "resumed loss curve diverged from the uninterrupted run"
        );
        for (id, name, v) in model_a.store.iter() {
            assert_eq!(
                v.data(),
                model_c.store.get(id).data(),
                "parameter {name} diverged after resume"
            );
        }
        let ema_a = tr_a.ema_model(&model_a);
        let ema_c = tr_c.ema_model(&model_c);
        for (id, name, v) in ema_a.store.iter() {
            assert_eq!(v.data(), ema_c.store.get(id).data(), "EMA {name} diverged");
        }
    }

    #[test]
    fn load_checkpoint_rejects_corrupt_entries_and_leaves_state_untouched() {
        let (ds, vars) = tiny_dataset();
        let samples = prepare_samples(&ds, 0..4);
        let cfg = TrainerConfig::paper_scaled(1000, 2);
        let dir = std::env::temp_dir().join(format!("aeris_ckpt_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trainer.ckpt");
        let mut model = tiny_model(vars.len());
        let mut tr = Trainer::new(&model, ds.grid, &vars.kappa(), cfg);
        tr.train_step(&mut model, &[&samples[0], &samples[1]]);
        tr.save_checkpoint(&model, &path).unwrap();
        let good = aeris_nn::load_entries(&path).unwrap();
        // One step past the checkpoint, so a partial restore would show.
        tr.train_step(&mut model, &[&samples[2], &samples[3]]);

        // Every parameter, moment and EMA value as a bit pattern.
        let state = |tr: &Trainer, model: &AerisModel| {
            let moments = (0..model.store.len()).flat_map(|i| {
                let (m, v) = tr.opt.state(i);
                [m, v]
            });
            let params = model.store.iter().map(|(_, _, v)| v);
            let tensors = params.chain(moments).chain(tr.ema.shadow());
            let bits: Vec<Vec<u32>> =
                tensors.map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect();
            (bits, tr.images_seen, tr.rng.snapshot())
        };
        let before = state(&tr, &model);
        let grown = |t: &Tensor| Tensor::zeros(&[t.len() + 1]);
        let last_ema = good.iter().rposition(|(k, _)| k.starts_with("ema/")).unwrap();
        let first = |prefix: &str| good.iter().position(|(k, _)| k.starts_with(prefix)).unwrap();
        let cases: [(&str, usize, Option<Tensor>); 4] = [
            ("1-element meta/rng_gauss", first("meta/rng_gauss"), Some(Tensor::from_slice(&[1.0]))),
            ("mis-shaped ema/*", first("ema/"), Some(grown(&good[first("ema/")].1))),
            ("mis-shaped opt.m/*", first("opt.m/"), Some(grown(&good[first("opt.m/")].1))),
            ("missing last ema/*", last_ema, None),
        ];
        for (what, at, value) in cases {
            let mut entries = good.clone();
            match value {
                Some(v) => entries[at].1 = v,
                None => {
                    entries.remove(at);
                }
            }
            save_entries(&entries, &path).unwrap();
            let err = tr.load_checkpoint(&mut model, &path).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(state(&tr, &model) == before, "{what}: state changed by a rejected load");
        }
        // The intact file still restores, and that does change the state.
        save_entries(&good, &path).unwrap();
        tr.load_checkpoint(&mut model, &path).unwrap();
        assert!(state(&tr, &model) != before);
        std::fs::remove_dir_all(&dir).ok();
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
