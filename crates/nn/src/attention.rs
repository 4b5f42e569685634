//! Multi-head self-attention within a Swin window, with axial 2D RoPE.

use crate::linear::Linear;
use crate::params::{Binding, ParamStore};
use crate::rope::RopeTable;
use aeris_autodiff::{Tape, Var, WindowAttnPlan};
use aeris_tensor::Rng;

/// Window-local multi-head attention: queries, keys, and values are projected
/// from the window's tokens, queries/keys are rotated by the 2D RoPE table,
/// and scaled dot-product attention runs independently per head.
#[derive(Clone, Copy, Debug)]
pub struct WindowAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub dim: usize,
    pub n_heads: usize,
    pub head_dim: usize,
}

impl WindowAttention {
    /// Construct with `dim = n_heads * head_dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, n_heads: usize, rng: &mut Rng) -> Self {
        assert_eq!(dim % n_heads, 0, "dim must divide by n_heads");
        let head_dim = dim / n_heads;
        assert_eq!(head_dim % 4, 0, "head_dim must be divisible by 4 for axial RoPE");
        WindowAttention {
            wq: Linear::new_no_bias(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new_no_bias(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new_no_bias(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new_no_bias(store, &format!("{name}.wo"), dim, dim, rng),
            dim,
            n_heads,
            head_dim,
        }
    }

    /// Forward for one window: `x: [s, dim] → [s, dim]`, `s = rope.seq_len()`,
    /// as a chain of primitive tape ops. No model path records this: it is
    /// the oracle the fused ops are tested against (here and in
    /// `tests/parallel_determinism.rs`).
    pub fn forward(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        store: &ParamStore,
        x: Var,
        rope: &RopeTable,
    ) -> Var {
        let s = tape.value(x).shape()[0];
        assert_eq!(s, rope.seq_len(), "window size mismatch with RoPE table");
        let q = self.wq.forward(tape, binding, store, x);
        let k = self.wk.forward(tape, binding, store, x);
        let v = self.wv.forward(tape, binding, store, x);

        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut head_outs = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let (c0, c1) = (h * self.head_dim, (h + 1) * self.head_dim);
            let qh = tape.slice_cols(q, c0, c1);
            let kh = tape.slice_cols(k, c0, c1);
            let vh = tape.slice_cols(v, c0, c1);
            let qh = tape.rope_rows(qh, &rope.cos, &rope.sin);
            let kh = tape.rope_rows(kh, &rope.cos, &rope.sin);
            let scores = tape.matmul_nt(qh, kh);
            let scores = tape.scale(scores, scale);
            let probs = tape.softmax_rows(scores);
            head_outs.push(tape.matmul(probs, vh));
        }
        let merged = tape.concat_cols(&head_outs);
        self.wo.forward(tape, binding, store, merged)
    }

    /// Fused forward over *all* windows at once: `windowed` is the
    /// window-partitioned `[n_windows · s, dim]` token matrix (window-major
    /// rows), `s = rope.seq_len()`. One tape node instead of ~10 per window;
    /// the core walks the windows in order on the calling thread. Matches
    /// [`WindowAttention::forward`] applied window by window.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_all_windows(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        store: &ParamStore,
        windowed: Var,
        rope: &RopeTable,
        n_windows: usize,
    ) -> Var {
        let plan = WindowAttnPlan::new(
            n_windows,
            rope.seq_len(),
            self.n_heads,
            self.head_dim,
            rope.cos.clone(),
            rope.sin.clone(),
        );
        let wq = binding.var(tape, store, self.wq.w);
        let wk = binding.var(tape, store, self.wk.w);
        let wv = binding.var(tape, store, self.wv.w);
        let wo = binding.var(tape, store, self.wo.w);
        tape.window_attention(windowed, wq, wk, wv, wo, &plan)
    }

    /// Number of scalar parameters (4·dim² for the projections).
    pub fn num_params(&self) -> usize {
        self.wq.num_params() + self.wk.num_params() + self.wv.num_params() + self.wo.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Tensor;

    fn setup(dim: usize, heads: usize) -> (ParamStore, WindowAttention, Rng) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(20);
        let attn = WindowAttention::new(&mut store, "attn", dim, heads, &mut rng);
        (store, attn, rng)
    }

    #[test]
    fn output_shape_and_param_count() {
        let (store, attn, mut rng) = setup(16, 2);
        assert_eq!(attn.num_params(), 4 * 16 * 16);
        let rope = RopeTable::new(2, 3, 8, 0, 0);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let x = tape.constant(Tensor::randn(&[6, 16], &mut rng));
        let y = attn.forward(&mut tape, &mut binding, &store, x, &rope);
        assert_eq!(tape.value(y).shape(), &[6, 16]);
        assert!(tape.value(y).all_finite());
    }

    /// Attention rows are convex combinations: with V = const rows, output
    /// before W_o equals that constant. We test end-to-end by checking the
    /// attention is permutation-equivariant-free thanks to RoPE: permuting
    /// tokens changes outputs (position matters).
    #[test]
    fn rope_makes_attention_position_sensitive() {
        let (store, attn, mut rng) = setup(8, 2);
        let rope = RopeTable::new(2, 2, 4, 0, 0);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let run = |input: &Tensor| {
            let mut tape = Tape::new();
            let mut binding = Binding::new(&store);
            let xv = tape.constant(input.clone());
            let y = attn.forward(&mut tape, &mut binding, &store, xv, &rope);
            tape.value(y).clone()
        };
        let y = run(&x);
        // Swap token 0 and 3 and compare swapped output: with absolute PE-free
        // attention they would match exactly; RoPE breaks the symmetry.
        let mut xs = x.clone();
        let (r0, r3) = (x.row(0).to_vec(), x.row(3).to_vec());
        xs.row_mut(0).copy_from_slice(&r3);
        xs.row_mut(3).copy_from_slice(&r0);
        let ys = run(&xs);
        let mut ys_unswapped = ys.clone();
        let (s0, s3) = (ys.row(0).to_vec(), ys.row(3).to_vec());
        ys_unswapped.row_mut(0).copy_from_slice(&s3);
        ys_unswapped.row_mut(3).copy_from_slice(&s0);
        assert!(y.max_abs_diff(&ys_unswapped) > 1e-4, "attention ignored positions");
    }

    #[test]
    fn gradients_reach_all_projections() {
        let (store, attn, mut rng) = setup(8, 2);
        let rope = RopeTable::new(2, 2, 4, 0, 0);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let x = tape.constant(Tensor::randn(&[4, 8], &mut rng));
        let y = attn.forward(&mut tape, &mut binding, &store, x, &rope);
        let sq = tape.mul(y, y);
        let loss = tape.sum(sq);
        let mut grads = tape.backward(loss);
        let g = binding.collect_grads(&mut grads);
        for lin in [attn.wq, attn.wk, attn.wv, attn.wo] {
            assert!(g[lin.w.0].as_ref().unwrap().abs_max() > 0.0, "missing grad");
        }
    }

    /// The tape-built attention must agree with a straightforward reference
    /// implementation computed with raw tensor ops.
    #[test]
    fn matches_brute_force_reference() {
        let (store, attn, mut rng) = setup(8, 2);
        let rope = RopeTable::new(2, 2, 4, 0, 0);
        let x = Tensor::randn(&[4, 8], &mut rng);

        // Tape path.
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let xv = tape.constant(x.clone());
        let y = attn.forward(&mut tape, &mut binding, &store, xv, &rope);
        let tape_out = tape.value(y).clone();

        // Reference path.
        let w = |lin: &crate::linear::Linear| store.get(lin.w).clone();
        let q = aeris_tensor::matmul(&x, &w(&attn.wq));
        let k = aeris_tensor::matmul(&x, &w(&attn.wk));
        let v = aeris_tensor::matmul(&x, &w(&attn.wv));
        let mut heads = Vec::new();
        for h in 0..2 {
            let (c0, c1) = (h * 4, (h + 1) * 4);
            let qh = crate::rope::apply_rope(&q.slice_cols(c0, c1), &rope);
            let kh = crate::rope::apply_rope(&k.slice_cols(c0, c1), &rope);
            let vh = v.slice_cols(c0, c1);
            let scores = aeris_tensor::matmul_nt(&qh, &kh).scale(1.0 / 2.0);
            let probs = scores.softmax_rows();
            heads.push(aeris_tensor::matmul(&probs, &vh));
        }
        let merged = Tensor::concat_cols(&heads.iter().collect::<Vec<_>>());
        let reference = aeris_tensor::matmul(&merged, &w(&attn.wo));
        assert!(
            tape_out.max_abs_diff(&reference) < 1e-4,
            "tape attention deviates from reference by {}",
            tape_out.max_abs_diff(&reference)
        );
    }

    /// The fused all-windows path must agree with the per-window op chain in
    /// both forward values and gradients (input and all four projections).
    #[test]
    fn fused_all_windows_matches_per_window_path() {
        let (store, attn, mut rng) = setup(8, 2);
        let rope = RopeTable::new(2, 2, 4, 0, 0);
        let n_windows = 3;
        let wlen = rope.seq_len();
        let x = Tensor::randn(&[n_windows * wlen, 8], &mut rng);

        let run = |fused: bool| -> (Tensor, Vec<Option<Tensor>>, Tensor) {
            let mut tape = Tape::new();
            let mut binding = Binding::new(&store);
            let xv = tape.leaf(x.clone());
            // All windows as one output, or one output per window; the loss
            // is the sum of squares over every output either way.
            let outs: Vec<_> = if fused {
                vec![attn.forward_all_windows(&mut tape, &mut binding, &store, xv, &rope, n_windows)]
            } else {
                (0..n_windows)
                    .map(|w| {
                        let win = tape.gather_rows(xv, &(w * wlen..(w + 1) * wlen).collect::<Vec<_>>());
                        attn.forward(&mut tape, &mut binding, &store, win, &rope)
                    })
                    .collect()
            };
            let y_val = Tensor::concat_rows(&outs.iter().map(|&y| tape.value(y)).collect::<Vec<_>>());
            let sums: Vec<_> = outs.iter().map(|&y| { let sq = tape.mul(y, y); tape.sum(sq) }).collect();
            let loss = sums[1..].iter().fold(sums[0], |acc, &s| tape.add(acc, s));
            let mut grads = tape.backward(loss);
            let gx = grads.take(xv).unwrap();
            (y_val, binding.collect_grads(&mut grads), gx)
        };

        let (y_f, g_f, gx_f) = run(true);
        let (y_u, g_u, gx_u) = run(false);
        assert!(y_f.max_abs_diff(&y_u) < 1e-5, "forward diff {}", y_f.max_abs_diff(&y_u));
        assert!(gx_f.max_abs_diff(&gx_u) < 1e-5, "input grad diff {}", gx_f.max_abs_diff(&gx_u));
        for lin in [attn.wq, attn.wk, attn.wv, attn.wo] {
            let (a, b) = (g_f[lin.w.0].as_ref().unwrap(), g_u[lin.w.0].as_ref().unwrap());
            assert!(a.max_abs_diff(b) < 1e-5, "weight grad diff {}", a.max_abs_diff(b));
        }
    }

    /// Numerical gradcheck of the full attention block wrt the input.
    #[test]
    fn gradcheck_attention_input() {
        let (store, attn, mut rng) = setup(8, 2);
        let rope = RopeTable::new(2, 2, 4, 0, 0);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let f = |input: &Tensor| {
            let mut tape = Tape::new();
            let mut binding = Binding::new(&store);
            let xv = tape.leaf(input.clone());
            let y = attn.forward(&mut tape, &mut binding, &store, xv, &rope);
            let sq = tape.mul(y, y);
            let l = tape.sum(sq);
            (tape, binding, xv, l)
        };
        let (mut tape, _b, xv, l) = f(&x);
        let mut grads = tape.backward(l);
        let analytic = grads.take(xv).unwrap();
        let mut numf = |input: &Tensor| {
            let (tape, _b, _x, l) = f(input);
            tape.value(l).data()[0] as f64
        };
        let numeric = aeris_autodiff::numeric_grad(&mut numf, &x, 1e-3);
        aeris_autodiff::assert_grad_close(&analytic, &numeric, 3e-2);
    }
}
