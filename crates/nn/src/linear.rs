//! Fully connected layer.

use crate::params::{Binding, ParamId, ParamStore};
use aeris_autodiff::{Tape, Var};
use aeris_tensor::{gemm::gemm, sweeps, Rng};

/// `y = x W (+ b)` with `W: [in, out]`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    pub w: ParamId,
    pub b: Option<ParamId>,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    /// Create with transformer init (normal std `1/sqrt(in)`), plus zero bias.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let std = 1.0 / (in_dim as f32).sqrt();
        let w = store.register_normal(format!("{name}.w"), &[in_dim, out_dim], std, rng);
        let b = Some(store.register_zeros(format!("{name}.b"), &[out_dim]));
        Linear { w, b, in_dim, out_dim }
    }

    /// Create without bias.
    pub fn new_no_bias(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let std = 1.0 / (in_dim as f32).sqrt();
        let w = store.register_normal(format!("{name}.w"), &[in_dim, out_dim], std, rng);
        Linear { w, b: None, in_dim, out_dim }
    }

    /// Create with zero-initialized weight and bias (the standard DiT trick
    /// for AdaLN modulation heads: start every block as identity).
    pub fn new_zeros(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = store.register_zeros(format!("{name}.w"), &[in_dim, out_dim]);
        let b = Some(store.register_zeros(format!("{name}.b"), &[out_dim]));
        Linear { w, b, in_dim, out_dim }
    }

    /// Forward on a tape: `x: [rows, in] → [rows, out]`.
    pub fn forward(&self, tape: &mut Tape, binding: &mut Binding, store: &ParamStore, x: Var) -> Var {
        assert_eq!(
            tape.value(x).shape()[1],
            self.in_dim,
            "Linear input dim mismatch"
        );
        let w = binding.var(tape, store, self.w);
        let y = tape.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = binding.var(tape, store, b);
                tape.add_rows(y, bv)
            }
            None => y,
        }
    }

    /// The same `x W (+ b)` without a tape, row-major `x: [rows, in]` into
    /// every element of `out: [rows, out]`: the GEMM and the bias sweep that
    /// [`Linear::forward`]'s two ops run, so its bits.
    pub fn apply(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        gemm(x.len() / self.in_dim, self.out_dim, self.in_dim, x, false, store.get(self.w).data(), false, out);
        if let Some(b) = self.b {
            sweeps::add_rows(out, store.get(b).data());
        }
    }

    /// The input gradient `d·Wᵀ` of [`Linear::apply`] for the upstream
    /// gradient `d: [rows, out]` into `dx: [rows, in]`: the tape's NT GEMM.
    /// The parameter gradients are [`crate::Slots::linear`].
    pub fn input_grad(&self, store: &ParamStore, d: &[f32], dx: &mut [f32]) {
        gemm(d.len() / self.out_dim, self.in_dim, self.out_dim, d, false, store.get(self.w).data(), true, dx);
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.in_dim * self.out_dim + if self.b.is_some() { self.out_dim } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Tensor;

    #[test]
    fn forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let lin = Linear::new(&mut store, "l", 4, 3, &mut rng);
        assert_eq!(lin.num_params(), 15);
        // Force known values: W = 0, b = [1,2,3] => y = b broadcast.
        store.get_mut(lin.w).data_mut().fill(0.0);
        *store.get_mut(lin.b.unwrap()) = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let x = tape.constant(Tensor::ones(&[2, 4]));
        let y = lin.forward(&mut tape, &mut binding, &store, x);
        assert_eq!(tape.value(y).shape(), &[2, 3]);
        assert_eq!(tape.value(y).row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn gradient_flows_to_weight_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let x = tape.constant(Tensor::ones(&[4, 3]));
        let y = lin.forward(&mut tape, &mut binding, &store, x);
        let loss = tape.sum(y);
        let mut grads = tape.backward(loss);
        let g = binding.collect_grads(&mut grads);
        // dW = X^T dY = all-ones [3,2] * 4 rows
        let gw = g[lin.w.0].as_ref().unwrap();
        assert!(gw.data().iter().all(|&v| (v - 4.0).abs() < 1e-5));
        let gb = g[lin.b.unwrap().0].as_ref().unwrap();
        assert!(gb.data().iter().all(|&v| (v - 4.0).abs() < 1e-5));
    }

    #[test]
    fn zeros_init_is_identity_free() {
        let mut store = ParamStore::new();
        let lin = Linear::new_zeros(&mut store, "mod", 4, 8);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let mut rng = Rng::seed_from(3);
        let x = tape.constant(Tensor::randn(&[2, 4], &mut rng));
        let y = lin.forward(&mut tape, &mut binding, &store, x);
        assert_eq!(tape.value(y).abs_max(), 0.0);
    }
}
