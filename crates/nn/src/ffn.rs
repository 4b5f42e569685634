//! SwiGLU feed-forward network (§V-B, after Llama 3 / GLU variants).

use crate::linear::Linear;
use crate::params::{Binding, ParamStore};
use aeris_autodiff::{Tape, Var};
use aeris_tensor::Rng;

/// `y = W_down( SiLU(W_gate x) ⊙ (W_up x) )`.
///
/// The gate and up projections are fused into a single `[dim, 2*ffn]` matmul
/// whose two halves `Tape::swiglu` reads in place, matching how production
/// kernels lay this out.
#[derive(Clone, Copy, Debug)]
pub struct SwiGlu {
    pub w_in: Linear,  // [dim, 2*ffn] fused gate|up
    pub w_down: Linear, // [ffn, dim]
    pub dim: usize,
    pub ffn: usize,
}

impl SwiGlu {
    /// Construct with the given model and hidden dims.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, ffn: usize, rng: &mut Rng) -> Self {
        let w_in = Linear::new_no_bias(store, &format!("{name}.w_in"), dim, 2 * ffn, rng);
        let w_down = Linear::new_no_bias(store, &format!("{name}.w_down"), ffn, dim, rng);
        SwiGlu { w_in, w_down, dim, ffn }
    }

    /// Forward: `[rows, dim] → [rows, dim]`.
    pub fn forward(&self, tape: &mut Tape, binding: &mut Binding, store: &ParamStore, x: Var) -> Var {
        let gu = self.w_in.forward(tape, binding, store, x);
        let hidden = tape.swiglu(gu);
        self.w_down.forward(tape, binding, store, hidden)
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w_in.num_params() + self.w_down.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Tensor;

    #[test]
    fn shapes_and_param_count() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(6);
        let ffn = SwiGlu::new(&mut store, "ffn", 8, 16, &mut rng);
        assert_eq!(ffn.num_params(), 8 * 32 + 16 * 8);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let x = tape.constant(Tensor::randn(&[5, 8], &mut rng));
        let y = ffn.forward(&mut tape, &mut binding, &store, x);
        assert_eq!(tape.value(y).shape(), &[5, 8]);
        assert!(tape.value(y).all_finite());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(7);
        let ffn = SwiGlu::new(&mut store, "ffn", 4, 8, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let x = tape.constant(Tensor::zeros(&[3, 4]));
        let y = ffn.forward(&mut tape, &mut binding, &store, x);
        assert_eq!(tape.value(y).abs_max(), 0.0);
    }

    #[test]
    fn gradients_flow_to_all_weights() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(8);
        let ffn = SwiGlu::new(&mut store, "ffn", 4, 6, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let x = tape.constant(Tensor::randn(&[3, 4], &mut rng));
        let y = ffn.forward(&mut tape, &mut binding, &store, x);
        let sq = tape.mul(y, y);
        let loss = tape.sum(sq);
        let mut grads = tape.backward(loss);
        let g = binding.collect_grads(&mut grads);
        assert!(g[ffn.w_in.w.0].as_ref().unwrap().abs_max() > 0.0);
        assert!(g[ffn.w_down.w.0].as_ref().unwrap().abs_max() > 0.0);
    }
}
