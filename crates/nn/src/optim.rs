//! Optimization: AdamW (paper hyperparameters), the paper's learning-rate
//! schedule, and the EMA of parameters used at inference.

use crate::params::ParamStore;
use aeris_tensor::Tensor;

/// AdamW hyperparameters. Defaults follow the paper (§VI-B):
/// β = [0.85, 0.9], ε = 1e-8, weight decay λ = 0.01.
#[derive(Clone, Copy, Debug)]
pub struct AdamWConfig {
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig { beta1: 0.85, beta2: 0.9, eps: 1e-8, weight_decay: 0.01 }
    }
}

/// AdamW with decoupled weight decay and bias correction. Optimizer state is
/// kept in FP32 alongside FP32 master weights, matching the paper's
/// mixed-precision policy.
pub struct AdamW {
    cfg: AdamWConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    step: u64,
}

impl AdamW {
    /// State sized for `store`.
    pub fn new(store: &ParamStore, cfg: AdamWConfig) -> Self {
        let m = store.iter().map(|(_, _, t)| Tensor::zeros(t.shape())).collect();
        let v = store.iter().map(|(_, _, t)| Tensor::zeros(t.shape())).collect();
        AdamW { cfg, m, v, step: 0 }
    }

    /// Number of optimizer steps taken.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Apply one update. `grads[i]` is the gradient for parameter id `i`
    /// (missing gradients are skipped — e.g. pipeline stages only own a slice
    /// of the parameters).
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Option<Tensor>], lr: f32) {
        assert_eq!(grads.len(), store.len(), "gradient vector size mismatch");
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.cfg.beta1.powf(t);
        let bc2 = 1.0 - self.cfg.beta2.powf(t);
        for (i, grad) in grads.iter().enumerate() {
            let Some(g) = grad else { continue };
            let id = crate::params::ParamId(i);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            assert_eq!(g.shape(), m.shape(), "grad shape mismatch for param {i}");
            let p = store.get_mut(id);
            let (b1, b2, eps, wd) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps, self.cfg.weight_decay);
            adamw_sweep(
                p.data_mut(), g.data(), m.data_mut(), v.data_mut(),
                b1, b2, eps, wd, lr, bc1, bc2,
            );
        }
    }

    /// Direct access to first/second-moment state for a parameter (ZeRO-1
    /// sharding in `aeris-swipe` moves these across ranks).
    pub fn state_mut(&mut self, i: usize) -> (&mut Tensor, &mut Tensor) {
        (&mut self.m[i], &mut self.v[i])
    }

    /// Read-only access to first/second-moment state (checkpointing).
    pub fn state(&self, i: usize) -> (&Tensor, &Tensor) {
        (&self.m[i], &self.v[i])
    }

    /// Restore the step counter after loading checkpointed moments; the
    /// counter drives bias correction, so resumed runs must continue it
    /// exactly where the saved run stopped.
    pub fn set_steps(&mut self, steps: u64) {
        self.step = steps;
    }
}

/// The fused AdamW update over one parameter's flat buffers, unrolled in
/// `sweeps::W`-wide unit-stride chunks so the autovectorizer can lift it to
/// SIMD. Element `j` depends only on inputs `j` (no cross-element reduction),
/// so the sweep is bitwise identical to the scalar loop it replaced —
/// checkpoint-resume bitwise guarantees are unaffected.
#[allow(clippy::too_many_arguments)]
fn adamw_sweep(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    b1: f32,
    b2: f32,
    eps: f32,
    wd: f32,
    lr: f32,
    bc1: f32,
    bc2: f32,
) {
    use aeris_tensor::sweeps::W;
    #[inline(always)]
    fn update(
        pj: &mut f32, gj: f32, mj: &mut f32, vj: &mut f32,
        b1: f32, b2: f32, eps: f32, wd: f32, lr: f32, bc1: f32, bc2: f32,
    ) {
        *mj = b1 * *mj + (1.0 - b1) * gj;
        *vj = b2 * *vj + (1.0 - b2) * gj * gj;
        let mhat = *mj / bc1;
        let vhat = *vj / bc2;
        *pj -= lr * (mhat / (vhat.sqrt() + eps) + wd * *pj);
    }
    let mut pc = p.chunks_exact_mut(W);
    let mut gc = g.chunks_exact(W);
    let mut mc = m.chunks_exact_mut(W);
    let mut vc = v.chunks_exact_mut(W);
    for (((pw, gw), mw), vw) in (&mut pc).zip(&mut gc).zip(&mut mc).zip(&mut vc) {
        for j in 0..W {
            update(&mut pw[j], gw[j], &mut mw[j], &mut vw[j], b1, b2, eps, wd, lr, bc1, bc2);
        }
    }
    for (((pj, &gj), mj), vj) in pc
        .into_remainder()
        .iter_mut()
        .zip(gc.remainder())
        .zip(mc.into_remainder().iter_mut())
        .zip(vc.into_remainder().iter_mut())
    {
        update(pj, gj, mj, vj, b1, b2, eps, wd, lr, bc1, bc2);
    }
}

/// The paper's learning-rate schedule (§VI-B): linear warmup over
/// `warmup` images to `peak`, constant, then linear decay to zero over the
/// final `decay` images of `total`.
#[derive(Clone, Copy, Debug)]
pub struct LrSchedule {
    pub peak: f32,
    pub warmup: u64,
    pub decay: u64,
    pub total: u64,
}

impl LrSchedule {
    /// The paper's published schedule scaled to a given total image count:
    /// peak 5e-4, warmup 50k/3m of total, decay 100k/3m of total.
    pub fn paper_scaled(total: u64) -> Self {
        LrSchedule {
            peak: 5e-4,
            warmup: (total / 60).max(1),
            decay: (total / 30).max(1),
            total,
        }
    }

    /// Learning rate after `images` images have been seen.
    pub fn lr_at(&self, images: u64) -> f32 {
        if images < self.warmup {
            return self.peak * images as f32 / self.warmup as f32;
        }
        let decay_start = self.total.saturating_sub(self.decay);
        if images >= self.total {
            return 0.0;
        }
        if images >= decay_start {
            let frac = (self.total - images) as f32 / self.decay as f32;
            return self.peak * frac;
        }
        self.peak
    }
}

/// Exponential moving average of parameters with an image-count half-life
/// (paper: 100k-image half-life; EMA weights are the inference weights).
pub struct Ema {
    shadow: Vec<Tensor>,
    halflife: f64,
}

impl Ema {
    /// Initialize the shadow from the current parameters.
    pub fn new(store: &ParamStore, halflife_images: f64) -> Self {
        Ema { shadow: store.snapshot(), halflife: halflife_images }
    }

    /// Fold in the current parameters after observing `n_images` more images.
    pub fn update(&mut self, store: &ParamStore, n_images: f64) {
        let decay = (0.5f64).powf(n_images / self.halflife) as f32;
        for ((_, _, p), s) in store.iter().zip(&mut self.shadow) {
            // s = decay * s + (1 - decay) * p
            s.scale_inplace(decay);
            s.axpy(1.0 - decay, p);
        }
    }

    /// Copy the EMA weights into a store (typically a clone used for
    /// inference).
    pub fn apply_to(&self, store: &mut ParamStore) {
        store.restore(&self.shadow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;

    #[test]
    fn adamw_descends_a_quadratic() {
        // minimize f(w) = (w - 3)^2 elementwise
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[0.0, 10.0]));
        let mut opt = AdamW::new(&store, AdamWConfig { weight_decay: 0.0, ..Default::default() });
        for _ in 0..800 {
            let g = store.get(w).map(|x| 2.0 * (x - 3.0));
            opt.step(&mut store, &[Some(g)], 0.05);
        }
        for &x in store.get(w).data() {
            assert!((x - 3.0).abs() < 0.05, "did not converge: {x}");
        }
    }

    #[test]
    fn weight_decay_shrinks_params_without_grad_signal() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[4.0]));
        let mut opt = AdamW::new(&store, AdamWConfig::default());
        for _ in 0..100 {
            opt.step(&mut store, &[Some(Tensor::zeros(&[1]))], 0.1);
        }
        assert!(store.get(w).data()[0] < 4.0);
    }

    #[test]
    fn missing_grads_are_skipped() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[1.0]));
        let mut opt = AdamW::new(&store, AdamWConfig::default());
        opt.step(&mut store, &[None], 0.1);
        assert_eq!(store.get(w).data(), &[1.0]);
    }

    #[test]
    fn schedule_shape() {
        let s = LrSchedule { peak: 1.0, warmup: 100, decay: 200, total: 1000 };
        assert_eq!(s.lr_at(0), 0.0);
        assert!((s.lr_at(50) - 0.5).abs() < 1e-6);
        assert_eq!(s.lr_at(100), 1.0);
        assert_eq!(s.lr_at(500), 1.0);
        assert!((s.lr_at(900) - 0.5).abs() < 1e-6);
        assert_eq!(s.lr_at(1000), 0.0);
        assert_eq!(s.lr_at(2000), 0.0);
    }

    #[test]
    fn paper_scaled_ratios() {
        let s = LrSchedule::paper_scaled(3_000_000);
        assert_eq!(s.warmup, 50_000);
        assert_eq!(s.decay, 100_000);
        assert_eq!(s.peak, 5e-4);
    }

    #[test]
    fn ema_halflife_semantics() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[0.0]));
        let mut ema = Ema::new(&store, 100.0);
        // Move the parameter to 1.0 and update for exactly one half-life.
        store.get_mut(w).data_mut()[0] = 1.0;
        ema.update(&store, 100.0);
        assert!((ema.shadow[0].data()[0] - 0.5).abs() < 1e-6);
        // Another half-life pulls halfway to 1.0 again: 0.75.
        ema.update(&store, 100.0);
        assert!((ema.shadow[0].data()[0] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn ema_apply_round_trip() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(40);
        let _w = store.register("w", Tensor::randn(&[4], &mut rng));
        let ema = Ema::new(&store, 10.0);
        let mut infer = store.clone();
        infer.get_mut(crate::params::ParamId(0)).data_mut().fill(0.0);
        ema.apply_to(&mut infer);
        assert_eq!(infer.get(crate::params::ParamId(0)), store.get(crate::params::ParamId(0)));
    }
}
