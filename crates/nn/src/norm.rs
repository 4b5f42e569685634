//! Root-mean-square layer normalization (pre-norm, per §V-B).

use crate::params::{Binding, ParamId, ParamStore};
use aeris_autodiff::{Tape, Var};
use aeris_tensor::sweeps;

/// RMSNorm with a learned gain, applied over the feature (last) dimension of a
/// `[tokens, dim]` activation.
#[derive(Clone, Copy, Debug)]
pub struct RmsNorm {
    pub gamma: ParamId,
    pub dim: usize,
    pub eps: f32,
}

impl RmsNorm {
    /// Gain initialized to ones.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.register_ones(format!("{name}.gamma"), &[dim]);
        RmsNorm { gamma, dim, eps: 1e-6 }
    }

    /// Forward: `[rows, dim] → [rows, dim]`.
    pub fn forward(&self, tape: &mut Tape, binding: &mut Binding, store: &ParamStore, x: Var) -> Var {
        let g = binding.var(tape, store, self.gamma);
        tape.rmsnorm_rows(x, g, self.eps)
    }

    /// Pre-norm followed by AdaLN modulation, `norm(x) ⊙ (1 + scale) + shift`
    /// with `scale`, `shift: [dim]`, as one tape node — how every Swin block
    /// branch (core and SWiPe alike) enters its attention / MLP.
    pub fn forward_modulated(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        store: &ParamStore,
        x: Var,
        scale: Var,
        shift: Var,
    ) -> Var {
        let g = binding.var(tape, store, self.gamma);
        tape.modulated_rmsnorm(x, g, scale, shift, self.eps)
    }

    /// [`RmsNorm::forward`] without a tape: `x: [rows, dim]` into `out`,
    /// each row's `1/rms` into `inv_rms` (`[rows]`), the sweep the tape op
    /// runs; its backward is [`crate::Slots::rmsnorm`].
    pub fn apply(&self, store: &ParamStore, x: &[f32], out: &mut [f32], inv_rms: &mut [f32]) {
        sweeps::rmsnorm_rows(out, inv_rms, x, store.get(self.gamma).data(), self.eps);
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::{Rng, Tensor};

    #[test]
    fn unit_gain_normalizes_rms_to_one() {
        let mut store = ParamStore::new();
        let norm = RmsNorm::new(&mut store, "n", 16);
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[8, 16], &mut rng).scale(5.0);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let xv = tape.constant(x);
        let y = norm.forward(&mut tape, &mut binding, &store, xv);
        for r in 0..8 {
            let row = &tape.value(y).data()[r * 16..(r + 1) * 16];
            let rms: f32 = (row.iter().map(|v| v * v).sum::<f32>() / 16.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-3, "row {r} rms {rms}");
        }
    }

    #[test]
    fn scale_invariance() {
        // RMSNorm(c*x) == RMSNorm(x) for c > 0 (up to eps effects).
        let mut store = ParamStore::new();
        let norm = RmsNorm::new(&mut store, "n", 8);
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[2, 8], &mut rng);
        let run = |input: Tensor, store: &ParamStore| {
            let mut tape = Tape::new();
            let mut binding = Binding::new(store);
            let xv = tape.constant(input);
            let y = norm.forward(&mut tape, &mut binding, store, xv);
            tape.value(y).clone()
        };
        let y1 = run(x.clone(), &store);
        let y2 = run(x.scale(10.0), &store);
        assert!(y1.max_abs_diff(&y2) < 1e-3);
    }
}
