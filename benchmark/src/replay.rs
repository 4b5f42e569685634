//! The layer replay: a request or a train step rebuilt from the program's
//! public pieces, with a benchmark-owned span around each call. The replica
//! must produce the program's bits (`Forecaster::forecast_step`,
//! `ConsistencyStudent::forecast_step`, `Trainer::train_step`), which the
//! callers check, so it cannot drift from what it claims to decompose.

use crate::spans::Recorder;
use aeris_autodiff::Tape;
use aeris_core::{AerisModel, ConsistencyStudent, Forecaster, TrainSample, TrainerConfig};
use aeris_diffusion::{NoGuidance, TrigFlow};
use aeris_nn::{AdamW, Binding, Ema, ParamId};
use aeris_tensor::{sweeps, Rng, Tensor};

/// What one model evaluation left on its tape (exact counts).
#[derive(Clone, Copy, Default)]
pub struct TapeStats {
    pub nodes: usize,
    pub activation_elems: usize,
}

/// `AerisModel::velocity`, spanned. Parameters are bound up front instead of
/// lazily inside the forward — same values, so the same bits — which is what
/// separates the per-evaluation parameter clone from the forward itself.
pub fn velocity(
    rec: &mut Recorder,
    model: &AerisModel,
    x_t: &Tensor,
    x_prev: &Tensor,
    forcings: &Tensor,
    t: f32,
    stats: &mut TapeStats,
) -> Tensor {
    let id = rec.open("velocity", "core");
    let input = rec.leaf("assemble_input", "core", || {
        model.assemble_input(x_t, x_prev, forcings)
    });
    let mut tape = Tape::new();
    let mut binding = Binding::new(&model.store);
    rec.leaf("bind_params", "autodiff", || {
        for i in 0..model.store.len() {
            binding.var(&mut tape, &model.store, ParamId(i));
        }
    });
    let out = rec.leaf("forward_taped", "core", || {
        let iv = tape.constant(input);
        model.forward(&mut tape, &mut binding, iv, t)
    });
    let v = rec.leaf("read_out", "autodiff", || tape.value(out).clone());
    *stats = TapeStats {
        nodes: tape.len(),
        activation_elems: tape.activation_elems(),
    };
    rec.leaf("drop_tape", "autodiff", || drop(tape));
    rec.close(id);
    v
}

fn unstandardize(
    rec: &mut Recorder,
    x_prev: &Tensor,
    residual_std: &Tensor,
    std: &[f32],
    mean: &[f32],
) -> Tensor {
    rec.leaf("unstandardize", "core", || {
        let mut next = x_prev.clone();
        for r in 0..residual_std.shape()[0] {
            sweeps::add_scale_shift(next.row_mut(r), residual_std.row(r), std, mean);
        }
        next
    })
}

/// `Forecaster::forecast_step`, spanned. The benchmark's own velocity
/// closure is what lets it see inside the sampler.
pub fn forecast_step(
    rec: &mut Recorder,
    fc: &Forecaster,
    x_prev: &Tensor,
    forcings: &Tensor,
    rng: &mut Rng,
    stats: &mut TapeStats,
) -> Tensor {
    let id = rec.open("forecast_step", "core");
    let prev_std = rec.leaf("standardize", "core", || fc.stats.standardize(x_prev));
    let shape = prev_std.shape().to_vec();
    let sid = rec.open("sample_guided", "diffusion");
    let residual_std = {
        let mut vel =
            |x_t: &Tensor, t: f32| velocity(rec, &fc.model, x_t, &prev_std, forcings, t, stats);
        fc.sampler
            .sample_guided(&shape, &mut vel, rng, &mut NoGuidance)
    };
    rec.close(sid);
    let next = unstandardize(
        rec,
        x_prev,
        &residual_std,
        &fc.res_stats.std,
        &fc.res_stats.mean,
    );
    rec.close(id);
    next
}

/// `ConsistencyStudent::forecast_step`, spanned: one evaluation at t = π/2.
pub fn student_step(
    rec: &mut Recorder,
    student: &ConsistencyStudent,
    x_prev: &Tensor,
    forcings: &Tensor,
    rng: &mut Rng,
    stats: &mut TapeStats,
) -> Tensor {
    let id = rec.open("student_step", "core");
    let prev_std = rec.leaf("standardize", "core", || student.stats.standardize(x_prev));
    let tf = student.tf;
    let t = tf.t_of_sigma(tf.sigma_max);
    let noise = rec.leaf("initial_noise", "diffusion", || {
        Tensor::randn(prev_std.shape(), rng).scale(tf.sigma_d)
    });
    let v = velocity(rec, &student.model, &noise, &prev_std, forcings, t, stats);
    let residual_std = rec.leaf("denoise", "diffusion", || tf.denoise(&noise, &v, t));
    // The student un-standardizes with scalar indexing where the forecaster
    // sweeps rows; the arithmetic per element is the same expression.
    let next = rec.leaf("unstandardize", "core", || {
        let mut next = x_prev.clone();
        let (rows, cols) = (next.shape()[0], next.shape()[1]);
        for r in 0..rows {
            let row = next.row_mut(r);
            for (j, o) in row.iter_mut().enumerate().take(cols) {
                *o +=
                    residual_std.at(&[r, j]) * student.res_stats.std[j] + student.res_stats.mean[j];
            }
        }
        next
    });
    rec.close(id);
    next
}

/// A replica of `Trainer` assembled from the public optimizer pieces, so a
/// train step can be spanned from outside (`Trainer`'s own optimizer and RNG
/// are private). Same seed, same arithmetic, same order ⇒ the same losses.
pub struct TrainReplica {
    cfg: TrainerConfig,
    tf: TrigFlow,
    opt: AdamW,
    ema: Ema,
    weights: Tensor,
    images_seen: u64,
    rng: Rng,
}

impl TrainReplica {
    pub fn new(model: &AerisModel, weights: Tensor, cfg: TrainerConfig) -> Self {
        TrainReplica {
            cfg,
            tf: TrigFlow::default(),
            opt: AdamW::new(&model.store, cfg.adamw),
            ema: Ema::new(&model.store, cfg.ema_halflife),
            weights,
            images_seen: 0,
            rng: Rng::seed_from(cfg.seed),
        }
    }

    /// `Trainer::train_step`, spanned.
    pub fn train_step(
        &mut self,
        rec: &mut Recorder,
        model: &mut AerisModel,
        batch: &[&TrainSample],
    ) -> f64 {
        let id = rec.open("train_step", "core");
        let mut acc: Vec<Option<Tensor>> = vec![None; model.store.len()];
        let mut total_loss = 0.0;
        for sample in batch {
            let sid = rec.open("sample_grads", "core");
            let t = self.tf.sample_t(&mut self.rng);
            let (x_t, v_target) = rec.leaf("noise_and_target", "diffusion", || {
                let z = Tensor::randn(sample.residual.shape(), &mut self.rng);
                (
                    self.tf.interpolate(&sample.residual, &z, t),
                    self.tf.velocity_target(&sample.residual, &z, t),
                )
            });
            let input = rec.leaf("assemble_input", "core", || {
                model.assemble_input(&x_t, &sample.x_prev, &sample.forcings)
            });
            let mut tape = Tape::new();
            let mut binding = Binding::new(&model.store);
            rec.leaf("bind_params", "autodiff", || {
                for i in 0..model.store.len() {
                    binding.var(&mut tape, &model.store, ParamId(i));
                }
            });
            let loss = rec.leaf("forward_taped", "core", || {
                let iv = tape.constant(input);
                let out = model.forward(&mut tape, &mut binding, iv, t);
                tape.weighted_mse(out, &v_target, &self.weights)
            });
            total_loss += tape.value(loss).data()[0] as f64;
            let mut grads = rec.leaf("backward", "autodiff", || tape.backward(loss));
            let grads = rec.leaf("collect_grads", "nn", || binding.collect_grads(&mut grads));
            rec.leaf("accumulate", "core", || {
                for (slot, g) in acc.iter_mut().zip(grads) {
                    match (slot.as_mut(), g) {
                        (Some(a), Some(g)) => a.add_assign(&g),
                        (None, Some(g)) => *slot = Some(g),
                        _ => {}
                    }
                }
            });
            rec.leaf("drop_tape", "autodiff", || drop(tape));
            rec.close(sid);
        }
        let inv = 1.0 / batch.len() as f32;
        for slot in acc.iter_mut().flatten() {
            slot.scale_inplace(inv);
        }
        let lr = self.cfg.schedule.lr_at(self.images_seen);
        rec.leaf("adamw", "nn", || self.opt.step(&mut model.store, &acc, lr));
        self.images_seen += batch.len() as u64;
        rec.leaf("ema", "nn", || {
            self.ema.update(&model.store, batch.len() as f64)
        });
        rec.close(id);
        total_loss / batch.len() as f64
    }
}
