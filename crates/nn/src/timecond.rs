//! Diffusion-time conditioning (§V-B).
//!
//! The TrigFlow diffusion time `t ∈ [0, π/2]` is embedded with sinusoidal
//! features, projected through a **shared** linear layer (one per model), and
//! broadcast to all blocks; each block owns a layer-specific linear head that
//! produces its AdaLN `(shift, scale, gate)` values. The block heads are
//! zero-initialized (the DiT trick) so every block starts as an identity
//! residual branch.

use crate::linear::Linear;
use crate::params::{Binding, ParamStore, Slots};
use aeris_autodiff::{Tape, Var};
use aeris_tensor::{sweeps, Rng, Tensor};

/// Sinusoidal features of a scalar diffusion time. `dim` must be even; half
/// the features are sines, half cosines, with log-spaced frequencies.
pub fn timestep_features(t: f32, dim: usize) -> Tensor {
    assert!(dim.is_multiple_of(2), "feature dim must be even");
    let half = dim / 2;
    let mut out = Tensor::zeros(&[dim]);
    for k in 0..half {
        // Frequencies from 1 to 10^3, log-spaced — t is O(1) so low
        // frequencies carry the coarse scale and high ones the detail.
        let freq = 1_000.0f32.powf(k as f32 / (half.max(2) - 1) as f32);
        out.data_mut()[k] = (t * freq).sin();
        out.data_mut()[half + k] = (t * freq).cos();
    }
    out
}

/// The shared part of the conditioner: features → SiLU(Linear) → cond vector.
#[derive(Clone, Copy, Debug)]
pub struct TimeConditioner {
    pub proj: Linear,
    pub feat_dim: usize,
    pub cond_dim: usize,
}

impl TimeConditioner {
    /// Construct with feature and conditioning dims.
    pub fn new(store: &mut ParamStore, name: &str, feat_dim: usize, cond_dim: usize, rng: &mut Rng) -> Self {
        let proj = Linear::new(store, &format!("{name}.proj"), feat_dim, cond_dim, rng);
        TimeConditioner { proj, feat_dim, cond_dim }
    }

    /// Embed a diffusion time onto the tape → `[1, cond_dim]`.
    pub fn embed(&self, tape: &mut Tape, binding: &mut Binding, store: &ParamStore, t: f32) -> Var {
        let feats = timestep_features(t, self.feat_dim).reshape(&[1, self.feat_dim]);
        let f = tape.constant(feats);
        let h = self.proj.forward(tape, binding, store, f);
        tape.silu(h)
    }

    /// [`TimeConditioner::embed`] without a tape: `t`'s features into
    /// `feats`, their projection into `time` and its SiLU, the conditioning
    /// vector, into `cond`.
    pub fn apply(&self, store: &ParamStore, t: f32, feats: &mut [f32], time: &mut [f32], cond: &mut [f32]) {
        feats.copy_from_slice(timestep_features(t, self.feat_dim).data());
        self.proj.apply(store, feats, time);
        sweeps::silu(cond, time);
    }

    /// The backward of [`TimeConditioner::apply`] for `cond`'s gradient
    /// `dcond`: the SiLU's into `dtime`, then the projection's parameter
    /// gradients (the features are constants).
    pub fn backward(&self, slots: &mut Slots, feats: &[f32], time: &[f32], dcond: &[f32], dtime: &mut [f32], dw: &mut [f32]) {
        sweeps::silu_backward(dtime, time, dcond);
        slots.linear(&self.proj, feats, dtime, dw);
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.proj.num_params()
    }
}

/// A per-block AdaLN head producing six `[dim]` modulation vectors
/// `(shift_attn, scale_attn, gate_attn, shift_mlp, scale_mlp, gate_mlp)` from
/// the shared conditioning vector.
#[derive(Clone, Copy, Debug)]
pub struct AdaLnHead {
    pub head: Linear,
    pub dim: usize,
}

impl AdaLnHead {
    /// Zero-initialized head (blocks start as identity).
    pub fn new(store: &mut ParamStore, name: &str, cond_dim: usize, dim: usize) -> Self {
        let head = Linear::new_zeros(store, &format!("{name}.adaln"), cond_dim, 6 * dim);
        AdaLnHead { head, dim }
    }

    /// Produce the six modulation vectors for this block.
    pub fn forward(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        store: &ParamStore,
        cond: Var,
    ) -> [Var; 6] {
        let m = self.head.forward(tape, binding, store, cond); // [1, 6*dim]
        let flat = tape.reshape(m, &[6 * self.dim]);
        // Slices of a 1-D tensor: go through a [6, dim] view and gather rows.
        let mat = tape.reshape(flat, &[6, self.dim]);
        let mut out = Vec::with_capacity(6);
        for i in 0..6 {
            let row = tape.gather_rows(mat, &[i]);
            out.push(tape.reshape(row, &[self.dim]));
        }
        [out[0], out[1], out[2], out[3], out[4], out[5]]
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.head.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_distinguish_times() {
        let a = timestep_features(0.1, 32);
        let b = timestep_features(1.4, 32);
        assert!(a.max_abs_diff(&b) > 0.1);
        assert_eq!(a.shape(), &[32]);
        assert!(a.abs_max() <= 1.0 + 1e-6);
    }

    #[test]
    fn features_are_smooth_in_t() {
        let a = timestep_features(0.5, 64);
        let b = timestep_features(0.5001, 64);
        assert!(a.max_abs_diff(&b) < 0.15);
    }

    #[test]
    fn conditioner_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(30);
        let tc = TimeConditioner::new(&mut store, "t", 16, 24, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let c = tc.embed(&mut tape, &mut binding, &store, 0.7);
        assert_eq!(tape.value(c).shape(), &[1, 24]);
    }

    #[test]
    fn adaln_head_starts_at_identity_modulation() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(31);
        let tc = TimeConditioner::new(&mut store, "t", 16, 24, &mut rng);
        let head = AdaLnHead::new(&mut store, "blk0", 24, 8);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let c = tc.embed(&mut tape, &mut binding, &store, 0.3);
        let mods = head.forward(&mut tape, &mut binding, &store, c);
        for m in mods {
            assert_eq!(tape.value(m).shape(), &[8]);
            assert_eq!(tape.value(m).abs_max(), 0.0, "zero-init head must emit zeros");
        }
    }

    #[test]
    fn adaln_head_gradients_flow() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(32);
        let tc = TimeConditioner::new(&mut store, "t", 8, 12, &mut rng);
        let head = AdaLnHead::new(&mut store, "blk0", 12, 4);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let c = tc.embed(&mut tape, &mut binding, &store, 0.9);
        let mods = head.forward(&mut tape, &mut binding, &store, c);
        let rows: Vec<Var> = mods
            .iter()
            .map(|&m| tape_reshape_row(&mut tape, m))
            .collect();
        let cat = tape.concat_cols(&rows);
        let sq = tape.mul(cat, cat);
        let loss = tape.sum(sq);
        let mut grads = tape.backward(loss);
        let g = binding.collect_grads(&mut grads);
        // Zero-init head weight gets zero grad contribution only if upstream is
        // zero; loss = sum(m^2) has dL/dm = 2m = 0, so instead check the bias
        // path participates (grad exists even if numerically zero).
        assert!(g[head.head.w.0].is_some());
        assert!(g[head.head.b.unwrap().0].is_some());
    }

    fn tape_reshape_row(tape: &mut Tape, v: Var) -> Var {
        let n = tape.value(v).len();
        tape.reshape(v, &[1, n])
    }
}
