//! GraphCast-class deterministic baseline: the identical Swin backbone
//! trained to regress the (standardized) residual with the physically
//! weighted MSE. Section IV-A of the paper: such models deliver competitive
//! medium-range skill but blur at long leads and have no ensemble spread.

use aeris_core::forecast::{add_residual, rollout};
use aeris_core::{AerisModel, TrainSample, Workspace};
use aeris_earthsim::NormStats;
use aeris_nn::{batch_mean, AdamW, AdamWConfig};
use aeris_tensor::Tensor;

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

    /// One training step over a batch, in `ws`: weighted MSE on the
    /// standardized residual. Returns the mean loss.
    pub fn train_step(
        &mut self,
        ws: &mut Workspace,
        opt: &mut AdamW,
        batch: &[&TrainSample],
        weights: &Tensor,
        lr: f32,
    ) -> f64 {
        let mut acc: Vec<Option<Tensor>> = vec![None; self.model.store.len()];
        let mut total = 0.0f64;
        let zeros = Tensor::zeros(&[self.model.cfg.tokens(), self.model.cfg.channels]);
        for s in batch {
            total += self.model.loss_grads(
                ws, &zeros, &s.x_prev, &s.forcings, 0.0, &s.residual, weights, &mut acc,
            );
        }
        let loss = batch_mean(&mut acc, total, batch.len());
        opt.step(&mut self.model.store, &acc, lr);
        loss
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
        let mut ws = Workspace::default();
        crate::fit_epochs(samples, batch, epochs, seed, |b, _| {
            self.train_step(&mut ws, &mut opt, b, weights, lr)
        })
    }

    /// One deterministic forecast step in physical units, in `ws`.
    pub fn forecast_step(&self, ws: &mut Workspace, x_prev: &Tensor, forcings: &Tensor) -> Tensor {
        let prev_std = self.stats.standardize(x_prev);
        let zeros = Tensor::zeros(prev_std.shape());
        let pred = self.model.velocity_into(ws, &zeros, &prev_std, forcings, 0.0);
        add_residual(x_prev, &pred, &self.res_stats)
    }

    /// Deterministic autoregressive rollout, in one workspace.
    pub fn rollout(&self, x0: &Tensor, forcings: &dyn Fn(usize) -> Tensor, steps: usize) -> Vec<Tensor> {
        let mut ws = Workspace::default();
        rollout(x0, forcings, steps, |x, f| self.forecast_step(&mut ws, x, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_core::AerisConfig;
    use aeris_diffusion::loss_weights;
    use aeris_earthsim::Grid;
    use aeris_tensor::Rng;

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

    /// The training trajectory as a contract: these per-step losses were
    /// captured while `train_step` still built its own tape.
    #[test]
    fn fit_loss_history_is_pinned_bitwise() {
        let (mut f, samples, weights) = setup();
        let losses = f.fit(&samples, &weights, 4, 2, 3e-3, 1);
        let bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
        let pinned: [u64; 4] =
            [0x3fd0bb4300000000, 0x3fccbe0b90000000, 0x3fcdda7a98000000, 0x3fc66d0530000000];
        assert_eq!(bits, pinned, "got {bits:#x?}");
    }

    /// An empty batch used to return `0/0` as its loss and step the
    /// optimizer on nothing.
    #[test]
    #[should_panic(expected = "batch mean over an empty batch")]
    fn train_step_rejects_an_empty_batch() {
        let (mut f, _, weights) = setup();
        let mut opt = AdamW::new(&f.model.store, AdamWConfig::default());
        f.train_step(&mut Workspace::default(), &mut opt, &[], &weights, 3e-3);
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
