//! Fused windowed multi-head attention as a single tape op.
//!
//! The unfused Swin block builds ~10 tape nodes *per window* (row gather,
//! per-head column slices, RoPE, scores, softmax, weighted sum, concats), so
//! the tape grows as O(windows · heads) per block and every node's backward
//! allocates intermediate tensors. [`Tape::window_attention`] replaces that
//! chain with **one** node: one `[tokens, dim] × [dim, 3·dim]` projection GEMM
//! over the per-call concatenation `Wq | Wk | Wv`, the attention core, the
//! output GEMM, and an analytic backward. The concatenation gives the core
//! `Q | K | V` as the one row-major matrix it reads, and makes the input gradient one
//! `dQKV · (Wq | Wk | Wv)ᵀ` GEMM rather than three products and two sums.
//!
//! There is one attention core — `aeris_tensor::attention`'s forward and
//! backward window loops — and one op that records it, `window_attention`,
//! with the projection GEMMs around it: the `Tensor` forms `window_core_on`
//! and `window_core_backward_on` on the detected build, each over a scratch
//! of its own. The tape-free block (`aeris_core`'s `SwinBlock::pass` and its
//! backward, which SWiPe's block stage runs with its Ulysses all-to-alls
//! around the core) calls their slice forms over its `Workspace`'s scratch;
//! a test-only op, `window_attention_core`, records the core alone.
//!
//! # Query-lane core
//!
//! The core's numerics live in `aeris-tensor`, beside the GEMM: its AVX2 and
//! `avx512f` builds are reached through that crate's one runtime dispatch,
//! which needs `unsafe`, and this crate is `#![forbid(unsafe_code)]`; every
//! build returns the portable body's bits. It takes a window's
//! queries 16 at a time as the SIMD lanes and stores each probability tile
//! key-major, `Pᵀ[key][query]`, so a query's max, exp-sum and normalisation
//! run lane-wise down the key rows and `O` accumulates one head-dim column at
//! a time with the queries as lanes (layout, padding and the bit argument in
//! that module's docs). Each output element sums the same products in the
//! same order as the cores it replaced, kept here as test oracles: the
//! row-major forward and the head-major backward, both held equal bitwise by
//! proptests over window lengths 1–40, which cover tail tiles and 2–3 tiles.
//!
//! # Recompute contract
//!
//! The backward does not store probabilities: it re-runs the one loader and
//! the one probability tile the forward ran, so the recomputed probabilities
//! are bitwise the ones the forward used.
//!
//! # Backward derivation
//!
//! Per window and head, with `Q̃ = R(Q)`, `K̃ = R(K)` (RoPE rotation `R`),
//! `S = Q̃K̃ᵀ·s`, `P = softmax(S)`, `O = PV`:
//!
//! - `dV = Pᵀ dO`
//! - `dP = dO Vᵀ`, and through softmax `dS_ij = P_ij (dP_ij − Σ_j P_ij dP_ij)`
//! - `dQ̃ = s·dS K̃`, `dK̃ = s·dSᵀ Q̃`, un-rotated with `R⁻¹ = R(−θ)`
//!
//! `dP` and `dQ̃` are computed per query tile with the queries as lanes;
//! `dK̃` and `dV` sum over the queries, so they run with the keys as lanes and
//! accumulate across the window's query tiles in query order. The core
//! writes `dQ | dK | dV` into each window's rows of one combined
//! `[tokens, 3·dim]` buffer, which feeds the two shared projection GEMMs
//! `dX = dQKV · W_qkvᵀ` and `dW_qkv = Xᵀ · dQKV` (split by columns).

use crate::tape::{Tape, Var};
use aeris_tensor::attention::{window_core_backward_on, window_core_on, WindowAttnPlan};
use aeris_tensor::dispatch::Kernel;
use aeris_tensor::{matmul, matmul_nt, matmul_tn, Tensor};

/// Forward: `Y = attn(X) Wo`. Returns `(y, qkv, o)` with the fused
/// projection and the pre-output-projection context `O` saved for the
/// backward pass.
fn forward(x: &Tensor, w_qkv: &Tensor, wo: &Tensor, plan: &WindowAttnPlan) -> (Tensor, Tensor, Tensor) {
    let qkv = matmul(x, w_qkv);
    let o = window_core_on(Kernel::detected(), &qkv, plan);
    let y = matmul(&o, wo);
    (y, qkv, o)
}

/// Analytic backward of [`forward`]: the core's window loop between the
/// projection GEMMs, where all cross-window reductions happen.
fn backward(
    dy: &Tensor,
    x: &Tensor,
    w_qkv: &Tensor,
    wo: &Tensor,
    qkv: &Tensor,
    o: &Tensor,
    plan: &WindowAttnPlan,
) -> Vec<Tensor> {
    let dim = plan.dim();
    let dwo = matmul_tn(o, dy);
    let dqkv = window_core_backward_on(Kernel::detected(), &matmul_nt(dy, wo), qkv, plan);
    let dx = matmul_nt(&dqkv, w_qkv);
    let dw_qkv = matmul_tn(x, &dqkv);
    vec![
        dx,
        dw_qkv.slice_cols(0, dim),
        dw_qkv.slice_cols(dim, 2 * dim),
        dw_qkv.slice_cols(2 * dim, 3 * dim),
        dwo,
    ]
}

impl Tape {
    /// Fused windowed multi-head attention with RoPE:
    /// `Y = concat_w softmax(R(X_w Wq) R(X_w Wk)ᵀ / √d) (X_w Wv) · Wo`
    /// over all windows of `x: [tokens, dim]`, as **one** tape node.
    ///
    /// `x` is the window-partitioned token matrix (window-major rows, as
    /// produced by the Swin partition permutation); `wq`/`wk`/`wv`/`wo` are
    /// the `[dim, dim]` projection weights. Matches the unfused per-window op
    /// chain exactly in both value and gradients.
    pub fn window_attention(
        &mut self,
        x: Var,
        wq: Var,
        wk: Var,
        wv: Var,
        wo: Var,
        plan: &WindowAttnPlan,
    ) -> Var {
        let (tokens, dim) = (plan.tokens(), plan.dim());
        assert_eq!(self.value(x).shape(), &[tokens, dim], "window_attention input shape");
        for w in [wq, wk, wv, wo] {
            assert_eq!(self.value(w).shape(), &[dim, dim], "window_attention weight shape");
        }
        let w_qkv = Tensor::concat_cols(&[self.value(wq), self.value(wk), self.value(wv)]);
        let (y, qkv, o) = forward(self.value(x), &w_qkv, self.value(wo), plan);
        let plan = plan.clone();
        let (px, pwo) = (x.0, wo.0);
        self.push(
            y,
            vec![px, wq.0, wk.0, wv.0, pwo],
            Some(Box::new(move |d, nodes| {
                backward(&d, nodes[px].value(), &w_qkv, nodes[pwo].value(), &qkv, &o, &plan)
            })),
            true,
        )
    }
}

#[cfg(test)]
impl Tape {
    /// The attention core of [`Tape::window_attention`] on its own:
    /// `qkv` is the window-major `[n_windows · window_len, 3 · dim]` matrix
    /// `Q | K | V` with `dim = plan.dim()`, the result the
    /// `[n_windows · window_len, dim]` context `O`. **One** node; only `O` is
    /// retained, and the backward reads `qkv` from its parent. The same two
    /// functions `window_attention` runs between its GEMMs, so
    /// `matmul(core(matmul(x, Wq|Wk|Wv)), Wo)` equals it bitwise in value and
    /// gradients.
    pub(crate) fn window_attention_core(&mut self, qkv: Var, plan: &WindowAttnPlan) -> Var {
        assert_eq!(
            self.value(qkv).shape(),
            &[plan.tokens(), 3 * plan.dim()],
            "window_attention_core input shape"
        );
        let o = window_core_on(Kernel::detected(), self.value(qkv), plan);
        let plan = plan.clone();
        let pqkv = qkv.0;
        self.push(
            o,
            vec![pqkv],
            Some(Box::new(move |d, nodes| {
                vec![window_core_backward_on(Kernel::detected(), &d, nodes[pqkv].value(), &plan)]
            })),
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_grad_close, numeric_grad};
    use aeris_tensor::{sweeps, Rng};
    use proptest::prelude::*;

    fn test_plan(n_windows: usize, wlen: usize, n_heads: usize, head_dim: usize) -> WindowAttnPlan {
        let pairs = head_dim / 2;
        let angles: Vec<f32> = (0..wlen * pairs).map(|i| 0.37 * i as f32).collect();
        let cos = Tensor::from_vec(&[wlen, pairs], angles.iter().map(|a| a.cos()).collect());
        let sin = Tensor::from_vec(&[wlen, pairs], angles.iter().map(|a| a.sin()).collect());
        WindowAttnPlan::new(n_windows, wlen, n_heads, head_dim, cos, sin)
    }

    fn random_weights(dim: usize, rng: &mut Rng) -> [Tensor; 4] {
        std::array::from_fn(|_| Tensor::randn(&[dim, dim], rng).scale(1.0 / (dim as f32).sqrt()))
    }

    /// The unfused reference: the exact per-window / per-head tape-op chain
    /// the Swin block used before fusion.
    fn unfused(
        tape: &mut Tape,
        x: Var,
        w: [Var; 4],
        plan: &WindowAttnPlan,
    ) -> Var {
        let [wq, wk, wv, wo] = w;
        let wlen = plan.window_len;
        let scale = 1.0 / (plan.head_dim as f32).sqrt();
        let mut outs = Vec::new();
        for win in 0..plan.n_windows {
            let xw = tape.slice_rows(x, win * wlen, (win + 1) * wlen);
            let q = tape.matmul(xw, wq);
            let k = tape.matmul(xw, wk);
            let v = tape.matmul(xw, wv);
            let mut heads = Vec::new();
            for h in 0..plan.n_heads {
                let (c0, c1) = (h * plan.head_dim, (h + 1) * plan.head_dim);
                let qh = tape.slice_cols(q, c0, c1);
                let kh = tape.slice_cols(k, c0, c1);
                let vh = tape.slice_cols(v, c0, c1);
                let qh = tape.rope_rows(qh, &plan.cos, &plan.sin);
                let kh = tape.rope_rows(kh, &plan.cos, &plan.sin);
                let s = tape.matmul_nt(qh, kh);
                let s = tape.scale(s, scale);
                let p = tape.softmax_rows(s);
                heads.push(tape.matmul(p, vh));
            }
            let merged = tape.concat_cols(&heads);
            outs.push(tape.matmul(merged, wo));
        }
        tape.concat_rows(&outs)
    }

    fn setup(plan: &WindowAttnPlan, seed: u64) -> (Tensor, [Tensor; 4]) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[plan.tokens(), plan.dim()], &mut rng);
        let w = random_weights(plan.dim(), &mut rng);
        (x, w)
    }

    /// The row-major forward this op ran before the head-major and
    /// query-lane cores: three projection GEMMs, then per window / head /
    /// query `window_len` strided dot products of length `head_dim` and a
    /// `P·V` row accumulated in memory. Kept as the oracle the core's forward
    /// must equal bitwise.
    fn row_major_forward(x: &Tensor, w: &[Tensor; 4], plan: &WindowAttnPlan) -> Tensor {
        let (tokens, dim) = (plan.tokens(), plan.dim());
        let (wlen, n_heads, head_dim) = (plan.window_len, plan.n_heads, plan.head_dim);
        let scale = 1.0 / (head_dim as f32).sqrt();
        let pairs = head_dim / 2;
        let (q, k, v) = (matmul(x, &w[0]), matmul(x, &w[1]), matmul(x, &w[2]));
        let (q_data, k_data, v_data) = (q.data(), k.data(), v.data());
        let (cos, sin) = (plan.cos.data(), plan.sin.data());
        let mut o = Tensor::zeros(&[tokens, dim]);
        let (mut qr, mut kr) = (vec![0.0f32; wlen * dim], vec![0.0f32; wlen * dim]);
        let mut prow = vec![0.0f32; wlen];
        for (win, o_win) in o.data_mut().chunks_mut(wlen * dim).enumerate() {
            let r0 = win * wlen;
            for i in 0..wlen {
                let (cr, sr) = (&cos[i * pairs..(i + 1) * pairs], &sin[i * pairs..(i + 1) * pairs]);
                let row = (r0 + i) * dim;
                rope_row(&q_data[row..row + dim], &mut qr[i * dim..(i + 1) * dim], cr, sr, head_dim);
                rope_row(&k_data[row..row + dim], &mut kr[i * dim..(i + 1) * dim], cr, sr, head_dim);
            }
            for h in 0..n_heads {
                let base = h * head_dim;
                for i in 0..wlen {
                    let q_i = &qr[i * dim + base..i * dim + base + head_dim];
                    for (j, p) in prow.iter_mut().enumerate() {
                        let k_j = &kr[j * dim + base..j * dim + base + head_dim];
                        let mut acc = 0.0f32;
                        for (&qc, &kc) in q_i.iter().zip(k_j) {
                            acc += qc * kc;
                        }
                        *p = acc * scale;
                    }
                    let m = prow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut z = 0.0f32;
                    for p in prow.iter_mut() {
                        let mut e = [*p - m];
                        sweeps::exp(&mut e);
                        *p = e[0];
                        z += e[0];
                    }
                    let inv = 1.0 / z;
                    for p in prow.iter_mut() {
                        *p *= inv;
                    }
                    let out = &mut o_win[i * dim + base..i * dim + base + head_dim];
                    for (j, &pw) in prow.iter().enumerate() {
                        let v_j = &v_data[(r0 + j) * dim + base..(r0 + j) * dim + base + head_dim];
                        for (oc, &vc) in out.iter_mut().zip(v_j) {
                            *oc += pw * vc;
                        }
                    }
                }
            }
        }
        matmul(&o, &w[3])
    }

    // The head-major core's backward as it was before the query-lane core —
    // its scratch, loader, probability rows and `small_matmul`, unchanged —
    // kept as the oracle the query-lane backward must equal bitwise.

    /// A strided row-major matrix view: element `(r, c)` is `data[r·stride + c]`.
    #[derive(Clone, Copy)]
    struct Mat<'a> {
        data: &'a [f32],
        stride: usize,
    }

    /// The scratch of one core call, allocated once and reused for every window.
    /// `[dim, window_len]` buffers hold a window's rows transposed, so a head is
    /// `head_dim` consecutive rows with the window's tokens as the unit-stride
    /// lane. The backward-only buffers stay empty in the forward.
    struct Scratch {
        /// Rotated queries for the current window, `[window_len, dim]` row-major.
        qr: Vec<f32>,
        /// Rotated keys, same layout (the backward's `dQ̃ = dS K̃` reads rows).
        kr: Vec<f32>,
        /// Rotated keys transposed, `[dim, window_len]`: the score rows' operand.
        kt: Vec<f32>,
        /// Attention probabilities of the current head,
        /// `[window_len, window_len]` (query-major).
        probs: Vec<f32>,
        /// Backward only: `Q̃`, `V` and `dO` of the window, transposed.
        qt: Vec<f32>,
        vt: Vec<f32>,
        dot: Vec<f32>,
        /// Backward only: `dK̃` and `dV` of the window, transposed.
        dkt: Vec<f32>,
        dvt: Vec<f32>,
        /// Backward only: `dP`, then `dS`, of the current head, shaped like `probs`.
        ds: Vec<f32>,
        /// Backward only: `dQ̃` of the current head, `[window_len, head_dim]`.
        dq: Vec<f32>,
        /// Backward only: one token row, `[dim]`.
        row: Vec<f32>,
    }

    impl Scratch {
        fn new(plan: &WindowAttnPlan, backward: bool) -> Self {
            let (wlen, dim) = (plan.window_len, plan.dim());
            let bwd = |n: usize| vec![0.0; if backward { n } else { 0 }];
            Scratch {
                qr: vec![0.0; wlen * dim],
                kr: vec![0.0; wlen * dim],
                kt: vec![0.0; wlen * dim],
                probs: vec![0.0; wlen * wlen],
                qt: bwd(wlen * dim),
                vt: bwd(wlen * dim),
                dot: bwd(wlen * dim),
                dkt: bwd(wlen * dim),
                dvt: bwd(wlen * dim),
                ds: bwd(wlen * wlen),
                dq: bwd(wlen * plan.head_dim),
                row: bwd(dim),
            }
        }

        /// The one scratch loader, shared by forward and backward: rotate the Q
        /// and K rows of the window starting at token `r0` of `qkv`
        /// (`[tokens, 3·dim]`, `Q | K | V` side by side) into `qr` / `kr`, and
        /// store `kr` transposed into `kt`.
        fn load_window(&mut self, qkv: &[f32], r0: usize, plan: &WindowAttnPlan) {
            let (wlen, dim, head_dim) = (plan.window_len, plan.dim(), plan.head_dim);
            let pairs = head_dim / 2;
            let (cos, sin) = (plan.cos.data(), plan.sin.data());
            for i in 0..wlen {
                let (cr, sr) = (&cos[i * pairs..(i + 1) * pairs], &sin[i * pairs..(i + 1) * pairs]);
                let src = &qkv[(r0 + i) * 3 * dim..(r0 + i + 1) * 3 * dim];
                rope_row(&src[..dim], &mut self.qr[i * dim..(i + 1) * dim], cr, sr, head_dim);
                rope_row(&src[dim..2 * dim], &mut self.kr[i * dim..(i + 1) * dim], cr, sr, head_dim);
            }
            transpose_into(Mat { data: &self.kr, stride: dim }, &mut self.kt, wlen, dim);
        }

        /// The softmax probabilities of head `h` of the loaded window: row `i` of
        /// `probs` (`[window_len, window_len]`) is `softmax_j(Q̃_i · K̃_j · scale)`.
        /// Matches the unfused op *structure* (full dot product, then ×scale;
        /// max / exp / ×(1/z) softmax, the exp-sum in key order), phase by phase
        /// over the head's whole `[window_len, window_len]` scratch: every row's
        /// max subtracted, then one [`sweeps::exp`] over all of it, then the row
        /// sums. It is the only definition of the probabilities: the backward
        /// recomputes through this same function, so its rows are bitwise the
        /// forward's (`sweeps::exp` gives an element the same bits wherever it
        /// sits). The unfused tape path runs through the GEMM, which fuses each
        /// multiply-add where this core rounds the product first, and a
        /// lane-split softmax sum: a different operation order, so
        /// fused-vs-unfused agreement is within rounding (≤ 1e-5 under test),
        /// not bitwise — on every host alike.
        fn prob_rows(&mut self, h: usize, plan: &WindowAttnPlan) {
            let (wlen, dim, head_dim) = (plan.window_len, plan.dim(), plan.head_dim);
            let base = h * head_dim;
            let q_h = Mat { data: &self.qr[base..], stride: dim };
            let kt_h = Mat { data: &self.kt[base * wlen..], stride: wlen };
            small_matmul(q_h, kt_h, &mut self.probs, wlen, (wlen, head_dim, wlen));
            sweeps::scale(&mut self.probs, plan.scale());
            for prow in self.probs.chunks_exact_mut(wlen) {
                let m = sweeps::max(prow);
                for p in prow.iter_mut() {
                    *p -= m;
                }
            }
            sweeps::exp(&mut self.probs);
            for prow in self.probs.chunks_exact_mut(wlen) {
                let mut z = 0.0f32;
                for &e in prow.iter() {
                    z += e;
                }
                sweeps::scale(prow, 1.0 / z);
            }
        }
    }

    /// `dst[c][r] = src[r][c]` for a `[rows, cols]` source, into a dense
    /// `[cols, rows]` destination.
    fn transpose_into(src: Mat, dst: &mut [f32], rows: usize, cols: usize) {
        for r in 0..rows {
            for (c, &v) in src.data[r * src.stride..r * src.stride + cols].iter().enumerate() {
                dst[c * rows + r] = v;
            }
        }
    }

    /// Rotate every head segment of one token row by the table row `(cos, sin)`.
    fn rope_row(src: &[f32], dst: &mut [f32], cos: &[f32], sin: &[f32], head_dim: usize) {
        for (src_h, dst_h) in src.chunks_exact(head_dim).zip(dst.chunks_exact_mut(head_dim)) {
            let pairs = src_h.chunks_exact(2).zip(dst_h.chunks_exact_mut(2));
            for ((x, y), (&c, &s)) in pairs.zip(cos.iter().zip(sin)) {
                y[0] = x[0] * c - x[1] * s;
                y[1] = x[0] * s + x[1] * c;
            }
        }
    }

    /// Inverse rotation (by `−θ`): transforms gradients in rotated space back.
    fn rope_row_inv(src: &[f32], dst: &mut [f32], cos: &[f32], sin: &[f32], head_dim: usize) {
        for (src_h, dst_h) in src.chunks_exact(head_dim).zip(dst.chunks_exact_mut(head_dim)) {
            let pairs = src_h.chunks_exact(2).zip(dst_h.chunks_exact_mut(2));
            for ((g, y), (&c, &s)) in pairs.zip(cos.iter().zip(sin)) {
                y[0] = g[0] * c + g[1] * s;
                y[1] = -g[0] * s + g[1] * c;
            }
        }
    }

    /// One `N`-lane column block of [`small_matmul`], for every row of `C`: the
    /// accumulators live in registers across the whole `t` loop and are stored
    /// once.
    #[inline(always)]
    fn matmul_lanes<const N: usize>(a: Mat, b: Mat, c: &mut [f32], c_stride: usize, n: usize, k: usize, l0: usize) {
        for i in 0..n {
            let a_i = &a.data[i * a.stride..i * a.stride + k];
            let mut acc = [0.0f32; N];
            for (t, &at) in a_i.iter().enumerate() {
                let b_t = &b.data[t * b.stride + l0..t * b.stride + l0 + N];
                for l in 0..N {
                    acc[l] += at * b_t[l];
                }
            }
            c[i * c_stride + l0..i * c_stride + l0 + N].copy_from_slice(&acc);
        }
    }

    /// `C[i][l] = Σ_t A[i][t] · B[t][l]` for `A: [n, k]`, `B: [k, m]`,
    /// `C: [n, m]`, summed from `0.0` with `t` ascending and one accumulator per
    /// output element — every inner product of the attention core (`Q̃·K̃ᵀ`
    /// over `K̃ᵀ` rows, `P·V`, `dO·Vᵀ`, `dS·K̃`, …) in its unit-stride form, at
    /// the sizes of one window head, where packing for the GEMM core would cost
    /// more than the product. Lane blocking (16/8/4/1 columns) only decides which
    /// register holds an accumulator, never what it sums, and no zero operand is
    /// skipped (`0 · NaN` must stay NaN).
    fn small_matmul(a: Mat, b: Mat, c: &mut [f32], c_stride: usize, (n, k, m): (usize, usize, usize)) {
        let mut l0 = 0;
        while l0 < m {
            l0 += match m - l0 {
                16.. => {
                    matmul_lanes::<16>(a, b, c, c_stride, n, k, l0);
                    16
                }
                8.. => {
                    matmul_lanes::<8>(a, b, c, c_stride, n, k, l0);
                    8
                }
                4.. => {
                    matmul_lanes::<4>(a, b, c, c_stride, n, k, l0);
                    4
                }
                _ => {
                    matmul_lanes::<1>(a, b, c, c_stride, n, k, l0);
                    1
                }
            };
        }
    }

    /// Analytic backward of the head-major core: `dQ | dK | dV` side by side,
    /// `[tokens, 3·dim]`, from `dO`. Each window writes only its own rows of the
    /// combined buffer.
    fn attention_core_backward(d_o: &Tensor, qkv: &Tensor, plan: &WindowAttnPlan) -> Tensor {
        let (tokens, dim) = (plan.tokens(), plan.dim());
        let (wlen, n_heads, head_dim) = (plan.window_len, plan.n_heads, plan.head_dim);
        let scale = plan.scale();
        let pairs = head_dim / 2;

        let mut dqkv = Tensor::zeros(&[tokens, 3 * dim]);
        let (qkv_data, do_data) = (qkv.data(), d_o.data());
        let (cos, sin) = (plan.cos.data(), plan.sin.data());
        let mut scr = Scratch::new(plan, true);
        for (w, dwin) in dqkv.data_mut().chunks_mut(wlen * 3 * dim).enumerate() {
            let r0 = w * wlen;
            scr.load_window(qkv_data, r0, plan);
            transpose_into(Mat { data: &scr.qr, stride: dim }, &mut scr.qt, wlen, dim);
            transpose_into(Mat { data: &qkv_data[r0 * 3 * dim + 2 * dim..], stride: 3 * dim }, &mut scr.vt, wlen, dim);
            transpose_into(Mat { data: &do_data[r0 * dim..], stride: dim }, &mut scr.dot, wlen, dim);
            for h in 0..n_heads {
                let base = h * head_dim;
                scr.prob_rows(h, plan);
                // dP = dO Vᵀ, then softmax backward to dS in place, with the
                // ×scale of the score op folded in.
                let do_h = Mat { data: &do_data[r0 * dim + base..], stride: dim };
                let vt_h = Mat { data: &scr.vt[base * wlen..], stride: wlen };
                small_matmul(do_h, vt_h, &mut scr.ds, wlen, (wlen, head_dim, wlen));
                for (prow, ds_row) in scr.probs.chunks_exact(wlen).zip(scr.ds.chunks_exact_mut(wlen)) {
                    let dot: f32 = prow.iter().zip(ds_row.iter()).map(|(&p, &g)| p * g).sum();
                    for (ds, &p) in ds_row.iter_mut().zip(prow) {
                        *ds = p * (*ds - dot) * scale;
                    }
                }
                let (p, ds) = (Mat { data: &scr.probs, stride: wlen }, Mat { data: &scr.ds, stride: wlen });
                // dQ̃ = dS K̃, un-rotated into the dQ section of the window buffer.
                let kr_h = Mat { data: &scr.kr[base..], stride: dim };
                small_matmul(ds, kr_h, &mut scr.dq, head_dim, (wlen, wlen, head_dim));
                for (i, dq_rot) in scr.dq.chunks_exact(head_dim).enumerate() {
                    let (cr, sr) = (&cos[i * pairs..(i + 1) * pairs], &sin[i * pairs..(i + 1) * pairs]);
                    let dq_i = &mut dwin[i * 3 * dim + base..i * 3 * dim + base + head_dim];
                    rope_row_inv(dq_rot, dq_i, cr, sr, head_dim);
                }
                // dK̃ᵀ = Q̃ᵀ dS and dVᵀ = dOᵀ P, keys as the lane.
                let qt_h = Mat { data: &scr.qt[base * wlen..], stride: wlen };
                let dot_h = Mat { data: &scr.dot[base * wlen..], stride: wlen };
                small_matmul(qt_h, ds, &mut scr.dkt[base * wlen..], wlen, (head_dim, wlen, wlen));
                small_matmul(dot_h, p, &mut scr.dvt[base * wlen..], wlen, (head_dim, wlen, wlen));
            }
            // Transpose dK̃ (un-rotated on the way) and dV back into token rows.
            for j in 0..wlen {
                let d_j = &mut dwin[j * 3 * dim + dim..(j + 1) * 3 * dim];
                let (dk_j, dv_j) = d_j.split_at_mut(dim);
                for c in 0..dim {
                    scr.row[c] = scr.dkt[c * wlen + j];
                    dv_j[c] = scr.dvt[c * wlen + j];
                }
                let (cr, sr) = (&cos[j * pairs..(j + 1) * pairs], &sin[j * pairs..(j + 1) * pairs]);
                rope_row_inv(&scr.row, dk_j, cr, sr, head_dim);
            }
        }
        dqkv
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// One fused QKV GEMM + the attention core produce the very bits the
    /// three-GEMM row-major forward did: toy48's geometry, a 64-token window
    /// with 16-wide heads, and a window shorter than one 16-query tile.
    #[test]
    fn head_major_forward_equals_row_major_oracle_bitwise() {
        for (seed, (n_windows, wlen, n_heads, head_dim)) in
            [(32, 16, 4, 12), (2, 64, 4, 16), (3, 6, 2, 4)].into_iter().enumerate()
        {
            let plan = test_plan(n_windows, wlen, n_heads, head_dim);
            let (x, w) = setup(&plan, 40 + seed as u64);
            let w_qkv = Tensor::concat_cols(&[&w[0], &w[1], &w[2]]);
            let (y, _, _) = forward(&x, &w_qkv, &w[3], &plan);
            assert_eq!(
                bits(&y),
                bits(&row_major_forward(&x, &w, &plan)),
                "forward bits moved at {:?}",
                (n_windows, wlen, n_heads, head_dim)
            );
        }
    }

    /// No zero-skip in the core: a probability that underflows to exactly 0
    /// still multiplies its V row, so an Inf there reaches the output as NaN.
    #[test]
    fn zero_probability_still_propagates_non_finite_values() {
        let plan = test_plan(1, 4, 1, 4);
        let dim = plan.dim();
        let mut qkv = Tensor::zeros(&[4, 3 * dim]);
        // Query 0 and key 0 align at position 0 (identity rotation) with a
        // score far above the others, so every other probability of row 0
        // underflows to 0.
        qkv.row_mut(0)[0] = 60.0;
        qkv.row_mut(0)[dim] = 60.0;
        qkv.row_mut(3)[2 * dim] = f32::INFINITY;
        let o = window_core_on(Kernel::detected(), &qkv, &plan);
        assert!(o.at(&[0, 0]).is_nan(), "0 · inf must stay NaN, got {}", o.at(&[0, 0]));
        assert!(o.row(0)[1..].iter().all(|v| *v == 0.0));
        // The tape op records that very core.
        let mut tape = Tape::new();
        let qv = tape.leaf(qkv);
        let ov = tape.window_attention_core(qv, &plan);
        assert_eq!(bits(tape.value(ov)), bits(&o));
    }

    /// The same at `window_len` 17: the Inf sits in the one key of the second
    /// key chunk and query 16 is the one live lane of a tail tile, whose
    /// uniform row reads that Inf at probability 1/17.
    #[test]
    fn zero_probability_still_propagates_non_finite_values_in_a_tail_tile() {
        let plan = test_plan(1, 17, 1, 4);
        let dim = plan.dim();
        let mut qkv = Tensor::zeros(&[17, 3 * dim]);
        qkv.row_mut(0)[0] = 60.0;
        qkv.row_mut(0)[dim] = 60.0;
        qkv.row_mut(16)[2 * dim] = f32::INFINITY;
        let o = window_core_on(Kernel::detected(), &qkv, &plan);
        assert!(o.at(&[0, 0]).is_nan(), "0 · inf must stay NaN, got {}", o.at(&[0, 0]));
        assert!(o.row(0)[1..].iter().all(|v| *v == 0.0));
        assert_eq!(o.at(&[16, 0]), f32::INFINITY, "tail-tile query must see the Inf");
        let mut tape = Tape::new();
        let qv = tape.leaf(qkv);
        let ov = tape.window_attention_core(qv, &plan);
        assert_eq!(bits(tape.value(ov)), bits(&o));
    }

    /// `head_dim` drawn from the values the model and the tests use.
    const HEAD_DIMS: [usize; 5] = [2, 4, 8, 12, 16];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused QKV GEMM + query-lane core equal the row-major oracle
        /// bitwise, over window lengths that are a tail tile alone, one or
        /// more full tiles, and 2–3 tiles with a tail.
        #[test]
        fn query_lane_forward_equals_row_major_oracle_bitwise(
            wlen in 1usize..41,
            hd in 0usize..5,
            n_heads in 1usize..5,
            n_windows in 1usize..4,
            seed in 0u64..1000,
        ) {
            let plan = test_plan(n_windows, wlen, n_heads, HEAD_DIMS[hd]);
            let (x, w) = setup(&plan, seed);
            let w_qkv = Tensor::concat_cols(&[&w[0], &w[1], &w[2]]);
            let (y, _, _) = forward(&x, &w_qkv, &w[3], &plan);
            let shape = (n_windows, wlen, n_heads, HEAD_DIMS[hd]);
            prop_assert_eq!(bits(&y), bits(&row_major_forward(&x, &w, &plan)), "forward bits moved at {:?}", shape);
        }

        /// `dQ | dK | dV` of the query-lane core equal the head-major
        /// backward's bitwise on the same geometries.
        #[test]
        fn query_lane_backward_equals_head_major_oracle_bitwise(
            wlen in 1usize..41,
            hd in 0usize..5,
            n_heads in 1usize..5,
            n_windows in 1usize..4,
            seed in 0u64..1000,
        ) {
            let plan = test_plan(n_windows, wlen, n_heads, HEAD_DIMS[hd]);
            let mut rng = Rng::seed_from(seed);
            let qkv = Tensor::randn(&[plan.tokens(), 3 * plan.dim()], &mut rng);
            let d_o = Tensor::randn(&[plan.tokens(), plan.dim()], &mut rng);
            prop_assert_eq!(
                bits(&window_core_backward_on(Kernel::detected(), &d_o, &qkv, &plan)),
                bits(&attention_core_backward(&d_o, &qkv, &plan)),
                "dQKV bits moved at {:?}",
                (n_windows, wlen, n_heads, HEAD_DIMS[hd])
            );
        }
    }

    /// The core op with the projections as plain tape GEMMs around it:
    /// `matmul(core(matmul(x, Wq|Wk|Wv)), Wo)`. Returns the output and the
    /// `[x, Wq|Wk|Wv, Wo]` leaves.
    fn core_between_gemms(tape: &mut Tape, x: &Tensor, w: &[Tensor; 4], plan: &WindowAttnPlan) -> (Var, [Var; 3]) {
        let xv = tape.leaf(x.clone());
        let w_qkv = tape.leaf(Tensor::concat_cols(&[&w[0], &w[1], &w[2]]));
        let wo = tape.leaf(w[3].clone());
        let qkv = tape.matmul(xv, w_qkv);
        let o = tape.window_attention_core(qkv, plan);
        (tape.matmul(o, wo), [xv, w_qkv, wo])
    }

    /// Bits of `y`, then of `d(Σ y²)/d leaf` for every leaf.
    fn value_and_grad_bits(mut tape: Tape, y: Var, leaves: &[Var]) -> Vec<Vec<u32>> {
        let sq = tape.mul(y, y);
        let loss = tape.sum(sq);
        let mut out = vec![bits(tape.value(y))];
        let mut grads = tape.backward(loss);
        out.extend(leaves.iter().map(|&v| bits(&grads.take(v).expect("grad"))));
        out
    }

    /// The core op between two tape GEMMs is `window_attention` bit for bit —
    /// value, `dX`, `dWq | dWk | dWv` and `dWo` — on the shapes the row-major
    /// oracle covers.
    #[test]
    fn core_between_projection_gemms_equals_window_attention_bitwise() {
        for (seed, (n_windows, wlen, n_heads, head_dim)) in
            [(32, 16, 4, 12), (2, 64, 4, 16), (3, 6, 2, 4)].into_iter().enumerate()
        {
            let plan = test_plan(n_windows, wlen, n_heads, head_dim);
            let (x, w) = setup(&plan, 50 + seed as u64);

            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv: Vec<Var> = w.iter().map(|t| tape.leaf(t.clone())).collect();
            let y = tape.window_attention(xv, wv[0], wv[1], wv[2], wv[3], &plan);
            let fused = value_and_grad_bits(tape, y, &[xv, wv[0], wv[1], wv[2], wv[3]]);

            let mut tape = Tape::new();
            let (y, leaves) = core_between_gemms(&mut tape, &x, &w, &plan);
            let split = value_and_grad_bits(tape, y, &leaves);

            let shape = (n_windows, wlen, n_heads, head_dim);
            assert_eq!(fused[0], split[0], "value bits differ at {shape:?}");
            assert_eq!(fused[1], split[1], "dX bits differ at {shape:?}");
            assert_eq!(fused[5], split[3], "dWo bits differ at {shape:?}");
            // Column block j of d(Wq|Wk|Wv) is dWq / dWk / dWv.
            let dim = plan.dim();
            for (r, row) in split[2].chunks_exact(3 * dim).enumerate() {
                for j in 0..3 {
                    assert_eq!(
                        &row[j * dim..(j + 1) * dim],
                        &fused[2 + j][r * dim..(r + 1) * dim],
                        "dW block {j} row {r} differs at {shape:?}"
                    );
                }
            }
        }
    }

    /// Gradcheck of the core op against central finite differences w.r.t.
    /// `qkv` (every Q, K and V entry, RoPE and softmax included).
    #[test]
    fn gradcheck_core_wrt_qkv() {
        let plan = test_plan(2, 4, 2, 4);
        let mut rng = Rng::seed_from(25);
        let qkv = Tensor::randn(&[plan.tokens(), 3 * plan.dim()], &mut rng);
        let loss_of = |qkv_t: &Tensor| -> (Tape, Var, Var) {
            let mut tape = Tape::new();
            let qv = tape.leaf(qkv_t.clone());
            let o = tape.window_attention_core(qv, &plan);
            let sq = tape.mul(o, o);
            let l = tape.sum(sq);
            (tape, qv, l)
        };
        let (mut tape, qv, l) = loss_of(&qkv);
        let analytic = tape.backward(l).take(qv).unwrap();
        let mut f = |qkv_t: &Tensor| {
            let (tape, _, l) = loss_of(qkv_t);
            tape.value(l).data()[0] as f64
        };
        assert_grad_close(&analytic, &numeric_grad(&mut f, &qkv, 1e-3), 3e-2);
    }

    /// Fused forward, loss, and all five gradients vs. the unfused op chain.
    #[test]
    fn fused_matches_unfused_forward_and_backward() {
        let plan = test_plan(3, 4, 2, 4);
        let (x, w) = setup(&plan, 21);

        let run = |fused: bool| -> (Tensor, Vec<Tensor>) {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv: Vec<Var> = w.iter().map(|t| tape.leaf(t.clone())).collect();
            let y = if fused {
                tape.window_attention(xv, wv[0], wv[1], wv[2], wv[3], &plan)
            } else {
                unfused(&mut tape, xv, [wv[0], wv[1], wv[2], wv[3]], &plan)
            };
            let sq = tape.mul(y, y);
            let loss = tape.sum(sq);
            let y_val = tape.value(y).clone();
            let mut grads = tape.backward(loss);
            let gs = std::iter::once(xv)
                .chain(wv)
                .map(|v| grads.take(v).expect("grad"))
                .collect();
            (y_val, gs)
        };

        let (y_f, g_f) = run(true);
        let (y_u, g_u) = run(false);
        assert!(y_f.max_abs_diff(&y_u) < 1e-5, "forward diff {}", y_f.max_abs_diff(&y_u));
        for (i, (gf, gu)) in g_f.iter().zip(&g_u).enumerate() {
            assert!(
                gf.max_abs_diff(gu) < 1e-5,
                "grad {i} diff {}",
                gf.max_abs_diff(gu)
            );
        }
    }

    /// Gradcheck against central finite differences for the input and one
    /// projection weight.
    #[test]
    fn gradcheck_input_and_weight() {
        let plan = test_plan(2, 4, 2, 4);
        let (x, w) = setup(&plan, 22);

        // d/dx
        let loss_of = |x_t: &Tensor, wq_t: &Tensor| -> (Tape, Var, Var, Var) {
            let mut tape = Tape::new();
            let xv = tape.leaf(x_t.clone());
            let wqv = tape.leaf(wq_t.clone());
            let wkv = tape.constant(w[1].clone());
            let wvv = tape.constant(w[2].clone());
            let wov = tape.constant(w[3].clone());
            let y = tape.window_attention(xv, wqv, wkv, wvv, wov, &plan);
            let sq = tape.mul(y, y);
            let l = tape.sum(sq);
            (tape, xv, wqv, l)
        };
        let (mut tape, xv, wqv, l) = loss_of(&x, &w[0]);
        let mut grads = tape.backward(l);
        let gx = grads.take(xv).unwrap();
        let gwq = grads.take(wqv).unwrap();

        let mut fx = |x_t: &Tensor| {
            let (tape, _, _, l) = loss_of(x_t, &w[0]);
            tape.value(l).data()[0] as f64
        };
        assert_grad_close(&gx, &numeric_grad(&mut fx, &x, 1e-3), 3e-2);
        let mut fw = |wq_t: &Tensor| {
            let (tape, _, _, l) = loss_of(&x, wq_t);
            tape.value(l).data()[0] as f64
        };
        assert_grad_close(&gwq, &numeric_grad(&mut fw, &w[0], 1e-3), 3e-2);
    }

    /// One tape node regardless of window/head count (plus the leaves).
    #[test]
    fn tape_is_constant_size_in_windows() {
        let plan = test_plan(8, 4, 2, 4);
        let (x, w) = setup(&plan, 23);
        let mut tape = Tape::new();
        let xv = tape.leaf(x);
        let wv: Vec<Var> = w.into_iter().map(|t| tape.leaf(t)).collect();
        let before = tape.len();
        let _ = tape.window_attention(xv, wv[0], wv[1], wv[2], wv[3], &plan);
        assert_eq!(tape.len() - before, 1);
        // The core op: one node, retaining its `[tokens, dim]` output only.
        let qkv = tape.leaf(Tensor::zeros(&[plan.tokens(), 3 * plan.dim()]));
        let (nodes, elems) = (tape.len(), tape.activation_elems());
        let _ = tape.window_attention_core(qkv, &plan);
        assert_eq!(tape.len() - nodes, 1);
        assert_eq!(tape.activation_elems() - elems, plan.tokens() * plan.dim());
    }
}
