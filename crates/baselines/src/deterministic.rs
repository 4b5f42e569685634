//! GraphCast-class deterministic baseline: the identical Swin backbone
//! trained to regress the (standardized) residual with the physically
//! weighted MSE. Section IV-A of the paper: such models deliver competitive
//! medium-range skill but blur at long leads and have no ensemble spread.

use aeris_autodiff::Tape;
use aeris_core::{AerisModel, TrainSample};
use aeris_earthsim::NormStats;
use aeris_nn::{AdamW, AdamWConfig, Binding};
use aeris_tensor::{Rng, Tensor};

/// A deterministic residual-regression forecaster on the AERIS backbone.
/// The diffusion-conditioning slot (`x_t`) is fed zeros at `t = 0`.
pub struct DeterministicForecaster {
    pub model: AerisModel,
    pub stats: NormStats,
    /// Residual statistics (prediction targets are residual-standardized).
    pub res_stats: NormStats,
}

impl DeterministicForecaster {
    /// Wrap a freshly initialized model.
    pub fn new(model: AerisModel, stats: NormStats, res_stats: NormStats) -> Self {
        DeterministicForecaster { model, stats, res_stats }
    }

    /// One training step over a batch: weighted MSE on the standardized
    /// residual. Returns the mean loss.
    pub fn train_step(
        &mut self,
        opt: &mut AdamW,
        batch: &[&TrainSample],
        weights: &Tensor,
        lr: f32,
    ) -> f64 {
        let mut acc: Vec<Option<Tensor>> = vec![None; self.model.store.len()];
        let mut total = 0.0f64;
        let zeros = Tensor::zeros(&[self.model.cfg.tokens(), self.model.cfg.channels]);
        for s in batch {
            let input = self.model.assemble_input(&zeros, &s.x_prev, &s.forcings);
            let mut tape = Tape::new();
            let mut binding = Binding::new(&self.model.store);
            let iv = tape.constant(input);
            let out = self.model.forward(&mut tape, &mut binding, iv, 0.0);
            let loss = tape.weighted_mse(out, &s.residual, weights);
            total += tape.value(loss).data()[0] as f64;
            let mut grads = tape.backward(loss);
            binding.accumulate_grads(&mut grads, &mut acc);
        }
        let inv = 1.0 / batch.len() as f32;
        for g in acc.iter_mut().flatten() {
            g.scale_inplace(inv);
        }
        opt.step(&mut self.model.store, &acc, lr);
        total / batch.len() as f64
    }

    /// Train for `epochs` shuffled passes.
    pub fn fit(
        &mut self,
        samples: &[TrainSample],
        weights: &Tensor,
        batch: usize,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> Vec<f64> {
        let mut opt = AdamW::new(&self.model.store, AdamWConfig::default());
        let mut rng = Rng::seed_from(seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut losses = Vec::new();
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch.max(1)) {
                let b: Vec<&TrainSample> = chunk.iter().map(|&i| &samples[i]).collect();
                losses.push(self.train_step(&mut opt, &b, weights, lr));
            }
        }
        losses
    }

    /// One deterministic forecast step in physical units.
    pub fn forecast_step(&self, x_prev: &Tensor, forcings: &Tensor) -> Tensor {
        let prev_std = self.stats.standardize(x_prev);
        let zeros = Tensor::zeros(prev_std.shape());
        let pred = self.model.velocity(&zeros, &prev_std, forcings, 0.0);
        let mut next = x_prev.clone();
        for r in 0..pred.shape()[0] {
            let row = next.row_mut(r);
            for j in 0..pred.shape()[1] {
                row[j] += pred.at(&[r, j]) * self.res_stats.std[j] + self.res_stats.mean[j];
            }
        }
        next
    }

    /// Deterministic autoregressive rollout.
    pub fn rollout(&self, x0: &Tensor, forcings: &dyn Fn(usize) -> Tensor, steps: usize) -> Vec<Tensor> {
        let mut states = Vec::with_capacity(steps);
        let mut x = x0.clone();
        for k in 0..steps {
            x = self.forecast_step(&x, &forcings(k));
            states.push(x.clone());
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_core::AerisConfig;
    use aeris_diffusion::loss_weights;
    use aeris_earthsim::Grid;

    fn setup() -> (DeterministicForecaster, Vec<TrainSample>, Tensor) {
        let cfg = AerisConfig::test_tiny();
        let grid = Grid::new(cfg.grid_h, cfg.grid_w);
        let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
        let mut rng = Rng::seed_from(3);
        let samples: Vec<TrainSample> = (0..6)
            .map(|_| {
                let x_prev = Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng);
                // Learnable rule: residual = 0.5 * prev (plus noise).
                let residual = x_prev.scale(0.5);
                TrainSample { x_prev, residual, forcings: Tensor::zeros(&[cfg.tokens(), 3]) }
            })
            .collect();
        let stats = NormStats { mean: vec![0.0; cfg.channels], std: vec![1.0; cfg.channels] };
        (
            DeterministicForecaster::new(AerisModel::new(cfg), stats.clone(), stats),
            samples,
            weights,
        )
    }

    #[test]
    fn training_reduces_loss() {
        let (mut f, samples, weights) = setup();
        let losses = f.fit(&samples, &weights, 2, 6, 3e-3, 1);
        let head = losses[0];
        let tail = *losses.last().unwrap();
        assert!(tail < head * 0.8, "no learning: {head:.4} -> {tail:.4}");
    }

    #[test]
    fn rollout_is_deterministic_with_zero_spread() {
        let (f, samples, _) = setup();
        let forc = |_k: usize| Tensor::zeros(&[128, 3]);
        let a = f.rollout(&samples[0].x_prev, &forc, 3);
        let b = f.rollout(&samples[0].x_prev, &forc, 3);
        assert_eq!(a[2], b[2], "deterministic model must have zero ensemble spread");
    }
}
