//! The numeric core of windowed multi-head attention with RoPE, query-lane.
//!
//! [`window_core`] computes, per window and head of a window-partitioned
//! token matrix, `O = softmax(R(Q) R(K)ᵀ · s) V` from the fused projection
//! `qkv: [tokens, 3·dim]` (`Q | K | V` side by side, `R` the RoPE rotation,
//! `s = 1/√head_dim`); [`window_core_backward`] is its analytic backward,
//! `dQ | dK | dV` from `dO`. The projection GEMMs and the tape live in
//! `aeris-autodiff`, which calls these two functions and nothing else of the
//! core.
//!
//! # Layout
//!
//! A window's queries are processed in tiles of `LANES` = 16, the query
//! being the SIMD lane of every vector in the core. Per window the loader
//! transposes Q and K once into lane-major buffers — one 16-lane row per
//! column and tile, `Q̃ᵀ[c][query]` — and rotates them there (RoPE), each lane
//! by its own position's angles from tables transposed once per call. The
//! probability tile of one (query tile, head) is stored **key-major**,
//! `Pᵀ[key][query]`:
//!
//! - score row `j` is `Σ_t K̃[j][t] · Q̃ᵀ[t][·]`, one broadcast key element
//!   times a query vector per step;
//! - the row max, the exp-sum and the normalisation of a query are then
//!   lane-wise operations down the key rows, not horizontal or serial chains
//!   along one row;
//! - `O` accumulates one head-dim column at a time over the keys, with the
//!   queries as the lanes, and a finished tile is written out row by row.
//!
//! The backward recomputes the tile through the same function and runs its
//! four products the same way: `dPᵀ = V·dOᵀ` and `dQ̃ᵀ = K̃ᵀ·dSᵀ` with query
//! lanes; `dK̃ = dSᵀ·Q̃` and `dV = Pᵀ·dO`, which sum over the *queries*, with
//! the keys as lanes, over query-major copies of the two tiles, accumulated
//! across the window's query tiles in order. `dQ` and `dK` are un-rotated
//! lane-wise before they are written out.
//!
//! The key count and `head_dim` are runtime values and the lane count is the
//! only constant, so every shape runs one body. A tail tile
//! (`window_len % 16 ≠ 0`) has zero-padded lanes whose results are never
//! written back and never enter a sum over queries; a key chunk past
//! `window_len` in the backward is the same — the GEMM's edge-tile argument.
//! Rows are `#[repr(align(64))]`, so a row is one cache line and never two.
//! (A prototype of this core saw `serve_quality_distinct` p50 swing
//! 114.6–170.6 ms unaligned against 116.1–123.8 ms aligned. Re-measured with
//! minor-fault counts, swings of that size follow the serve workers'
//! heap-trim page-fault storms in both builds, which is why the scratch is
//! per thread: see `TILES`.)
//!
//! # Bits
//!
//! Every output element sums the same products in the same order as the
//! cores this replaced (the row-major forward and the head-major backward,
//! kept as test oracles in `aeris-autodiff`, where proptests hold them equal
//! bitwise): scores from `0.0` with `t` ascending, then `× s`; the exp-sum
//! from `0.0`, keys ascending; the normaliser `p · (1/z)`; `P·V` keys
//! ascending; and the backward's `Σ_j P·dP` from **−0.0**, the identity of
//! `Iterator::sum` on `f32`, which the head-major backward used (from `+0.0`
//! an all-`−0` sum would come back `+0`). The RoPE rotations are the same
//! four products and two sums per pair. IEEE multiplication commutes, so which
//! operand is the broadcast does not matter. The one reordering is the row
//! max: `max` is exact, so the order can only change which of `±0` comes
//! back, and `exp(p − m)` does not depend on that. No multiply–add is
//! contracted, so the portable build and the AVX2 build ([`crate::sweeps`]'s
//! `dispatched!`) return the same bits; the exponential is the lane function
//! of [`crate::sweeps::exp`], which depends on its input alone. There is no
//! 512-bit build: an `avx512f` instantiation of the forward measured the same
//! as the AVX2 one at toy48's shape (90–91 against 91–92 µs a call) and slower
//! at `(2, 64, 4, 16)` (100–101 against 81 µs).
//!
//! # Recompute contract
//!
//! The backward stores nothing from the forward: it re-runs the one loader
//! and the one probability tile, so its probabilities are the forward's bits.

use crate::sweeps::{dispatched, exp_lane};
use crate::Tensor;

/// Queries per tile: the lane count of every vector of the core (two AVX2
/// registers, one 512-bit register).
const LANES: usize = 16;

/// Static geometry of a windowed-attention call: how the token matrix
/// splits into windows, the head layout, and the (shared) RoPE tables.
#[derive(Clone, Debug)]
pub struct WindowAttnPlan {
    pub n_windows: usize,
    pub window_len: usize,
    pub n_heads: usize,
    pub head_dim: usize,
    /// `[window_len, head_dim/2]` cosine table, shared by all windows & heads.
    pub cos: Tensor,
    /// `[window_len, head_dim/2]` sine table.
    pub sin: Tensor,
}

impl WindowAttnPlan {
    /// Build a plan; validates the table shapes against the geometry.
    pub fn new(
        n_windows: usize,
        window_len: usize,
        n_heads: usize,
        head_dim: usize,
        cos: Tensor,
        sin: Tensor,
    ) -> Self {
        assert_eq!(head_dim % 2, 0, "RoPE needs an even head_dim");
        assert_eq!(cos.shape(), &[window_len, head_dim / 2]);
        assert_eq!(sin.shape(), &[window_len, head_dim / 2]);
        WindowAttnPlan { n_windows, window_len, n_heads, head_dim, cos, sin }
    }

    /// Total token count covered (`n_windows · window_len`).
    pub fn tokens(&self) -> usize {
        self.n_windows * self.window_len
    }

    /// Model dimension (`n_heads · head_dim`).
    pub fn dim(&self) -> usize {
        self.n_heads * self.head_dim
    }

    /// `1/√head_dim`, the score scale.
    pub fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }
}

/// One value per lane of a tile, on its own 64-byte line.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Lanes([f32; LANES]);

impl Lanes {
    const ZERO: Lanes = Lanes([0.0; LANES]);

    /// `self[l] += a · b[l]`: a product, then a sum, never fused.
    #[inline(always)]
    fn add_scaled(&mut self, a: f32, b: &Lanes) {
        for l in 0..LANES {
            self.0[l] += a * b.0[l];
        }
    }
}

/// Lane-major buffers hold one [`Lanes`] per column and tile: token `i`,
/// column `c` of a `[_, cols]` matrix is lane `i % 16` of entry
/// `(i / 16)·cols + c`. Write token row `i` (`row: [cols]`) there.
#[inline(always)]
fn scatter(dst: &mut [Lanes], i: usize, row: &[f32]) {
    let (t, l, cols) = (i / LANES, i % LANES, row.len());
    for (d, &v) in dst[t * cols..(t + 1) * cols].iter_mut().zip(row) {
        d.0[l] = v;
    }
}

/// Read token row `i` (`row: [cols]`) back out of a lane-major buffer.
#[inline(always)]
fn gather(src: &[Lanes], i: usize, row: &mut [f32]) {
    let (t, l, cols) = (i / LANES, i % LANES, row.len());
    for (v, s) in row.iter_mut().zip(&src[t * cols..(t + 1) * cols]) {
        *v = s.0[l];
    }
}

/// Rotate every head segment of one lane-major tile (`x: [dim]` columns) by
/// the tile's table lanes (`cos`, `sin`: `[head_dim/2]`), each lane by its
/// own token's angles. A pair is read whole, then written whole: written
/// lane by lane in place, the loop compiled to scalar code (≈ 20 µs of a
/// toy48 call instead of ≈ 4).
#[inline(always)]
fn rope_lanes(x: &mut [Lanes], cos: &[Lanes], sin: &[Lanes], head_dim: usize) {
    for head in x.chunks_exact_mut(head_dim) {
        for (pair, (c, s)) in head.chunks_exact_mut(2).zip(cos.iter().zip(sin)) {
            let (x0, x1) = (pair[0].0, pair[1].0);
            pair[0] = Lanes(std::array::from_fn(|l| x0[l] * c.0[l] - x1[l] * s.0[l]));
            pair[1] = Lanes(std::array::from_fn(|l| x0[l] * s.0[l] + x1[l] * c.0[l]));
        }
    }
}

/// Inverse rotation (by `−θ`) of [`rope_lanes`]: transforms gradients in
/// rotated space back.
#[inline(always)]
fn rope_lanes_inv(x: &mut [Lanes], cos: &[Lanes], sin: &[Lanes], head_dim: usize) {
    for head in x.chunks_exact_mut(head_dim) {
        for (pair, (c, s)) in head.chunks_exact_mut(2).zip(cos.iter().zip(sin)) {
            let (g0, g1) = (pair[0].0, pair[1].0);
            pair[0] = Lanes(std::array::from_fn(|l| g0[l] * c.0[l] + g1[l] * s.0[l]));
            pair[1] = Lanes(std::array::from_fn(|l| -g0[l] * s.0[l] + g1[l] * c.0[l]));
        }
    }
}

/// The scratch of the core: one per thread ([`TILES`]), re-sized and zeroed
/// for every call, reused for every window; `[·]` counts are per tile. The
/// backward-only buffers stay empty in the forward.
#[derive(Default)]
struct Tiles {
    /// The RoPE tables lane-major, `[head_dim/2]`; pad lanes are 0.
    cos: Vec<Lanes>,
    sin: Vec<Lanes>,
    /// Rotated queries of the loaded window, lane-major `[dim]`. A tail
    /// tile's pad lanes stay 0.
    q: Vec<Lanes>,
    /// Rotated keys, laid out like `q` and read one element at a time.
    k: Vec<Lanes>,
    /// The probability tile of one (query tile, head), key-major: `p[j]`
    /// lane `l` is `P[t·16 + l][j]`.
    p: Vec<Lanes>,
    /// Forward only: `O` of one query tile, lane-major `[dim]`.
    o: Vec<Lanes>,
    /// Backward only: `dO` of the window, laid out like `q`.
    d_o: Vec<Lanes>,
    /// Backward only: `dPᵀ`, then `dSᵀ`, laid out like `p`.
    ds: Vec<Lanes>,
    /// Backward only: `dQ̃ᵀ`, then `dQᵀ`, of one (query tile, head),
    /// `[head_dim]`.
    dq: Vec<Lanes>,
    /// Backward only: `P` and `dS` of one tile query-major, keys as lanes:
    /// `p_rows[l·chunks + h]` lane `m` is `P[t·16 + l][h·16 + m]`.
    p_rows: Vec<Lanes>,
    ds_rows: Vec<Lanes>,
    /// Backward only: `dK̃` (then `dK`) and `dV` of the window, lane-major
    /// with the keys as lanes, `[dim]`.
    dk: Vec<Lanes>,
    dv: Vec<Lanes>,
}

thread_local! {
    /// The calling thread's scratch, so a call allocates nothing but its
    /// result. Allocated per call (64-byte aligned, so through the system
    /// allocator's aligned path), the scratch made glibc's heap-trim
    /// page-fault storms in the serve lane workers heavier: over 10 10-s
    /// `serve_quality_distinct` runs each, per call read p50 106.6–152.2 ms
    /// with up to 3.5 M minor faults a run, per thread 100.3–115.9 ms with at
    /// most 2.5 M.
    static TILES: std::cell::RefCell<Tiles> = std::cell::RefCell::default();
}

impl Tiles {
    /// Size every buffer for `plan` (the backward-only ones to 0 unless
    /// `backward`), zero it, and transpose the RoPE tables in.
    fn prepare(&mut self, plan: &WindowAttnPlan, backward: bool) {
        let (wlen, dim, pairs) = (plan.window_len, plan.dim(), plan.head_dim / 2);
        // Query tiles and key chunks: both `⌈window_len / 16⌉`.
        let tiles = wlen.div_ceil(LANES);
        let (fwd, bwd) = if backward { (0, 1) } else { (1, 0) };
        for (buf, n) in [
            (&mut self.cos, tiles * pairs),
            (&mut self.sin, tiles * pairs),
            (&mut self.q, tiles * dim),
            (&mut self.k, tiles * dim),
            (&mut self.p, wlen),
            (&mut self.o, fwd * dim),
            (&mut self.d_o, bwd * tiles * dim),
            (&mut self.ds, bwd * wlen),
            (&mut self.dq, bwd * plan.head_dim),
            (&mut self.p_rows, bwd * LANES * tiles),
            (&mut self.ds_rows, bwd * LANES * tiles),
            (&mut self.dk, bwd * tiles * dim),
            (&mut self.dv, bwd * tiles * dim),
        ] {
            buf.clear();
            buf.resize(n, Lanes::ZERO);
        }
        for (i, (c, s)) in plan.cos.data().chunks_exact(pairs).zip(plan.sin.data().chunks_exact(pairs)).enumerate() {
            scatter(&mut self.cos, i, c);
            scatter(&mut self.sin, i, s);
        }
    }

    /// The one loader, shared by forward and backward: transpose the Q and K
    /// rows of one window of `qkv` (`win: [window_len, 3·dim]`) into `q` and
    /// `k`, and rotate them tile by tile.
    #[inline(always)]
    fn load(&mut self, win: &[f32], plan: &WindowAttnPlan) {
        let (dim, head_dim) = (plan.dim(), plan.head_dim);
        for (i, src) in win.chunks_exact(3 * dim).enumerate() {
            scatter(&mut self.q, i, &src[..dim]);
            scatter(&mut self.k, i, &src[dim..2 * dim]);
        }
        let pairs = head_dim / 2;
        for (t, (q, k)) in self.q.chunks_exact_mut(dim).zip(self.k.chunks_exact_mut(dim)).enumerate() {
            let (cos, sin) = (&self.cos[t * pairs..(t + 1) * pairs], &self.sin[t * pairs..(t + 1) * pairs]);
            rope_lanes(q, cos, sin, head_dim);
            rope_lanes(k, cos, sin, head_dim);
        }
    }

    /// The probability tile of query tile `t` and the head whose columns
    /// start at `base`: `p[j]` lane `l` is `softmax_j(Q̃_i · K̃_j · s)` for
    /// query `i = t·16 + l`. The only definition of the probabilities: the
    /// backward recomputes through this same function.
    #[inline(always)]
    fn probs(&mut self, t: usize, base: usize, plan: &WindowAttnPlan) {
        let (dim, head_dim, scale) = (plan.dim(), plan.head_dim, plan.scale());
        let q = &self.q[t * dim + base..t * dim + base + head_dim];
        let mut m = Lanes([f32::NEG_INFINITY; LANES]);
        for (j, p) in self.p.iter_mut().enumerate() {
            let (k_j, jl) = (&self.k[j / LANES * dim + base..][..head_dim], j % LANES);
            let mut s = Lanes::ZERO;
            for (q_c, k_c) in q.iter().zip(k_j) {
                s.add_scaled(k_c.0[jl], q_c);
            }
            for l in 0..LANES {
                s.0[l] *= scale;
                m.0[l] = m.0[l].max(s.0[l]);
            }
            *p = s;
        }
        let mut z = Lanes::ZERO;
        for p in self.p.iter_mut() {
            for l in 0..LANES {
                p.0[l] = exp_lane(p.0[l] - m.0[l]);
                z.0[l] += p.0[l];
            }
        }
        let inv = Lanes(z.0.map(|z| 1.0 / z));
        for p in self.p.iter_mut() {
            for l in 0..LANES {
                p.0[l] *= inv.0[l];
            }
        }
    }
}

dispatched!(
    /// The forward window loop: `o: [tokens, dim]` from `qkv: [tokens, 3·dim]`.
    fn forward_windows, forward_body, forward_avx2,
    (qkv: &[f32], plan: &WindowAttnPlan, o: &mut [f32], s: &mut Tiles) {
        let (wlen, dim, head_dim) = (plan.window_len, plan.dim(), plan.head_dim);
        for (win, o_win) in qkv.chunks_exact(wlen * 3 * dim).zip(o.chunks_exact_mut(wlen * dim)) {
            s.load(win, plan);
            for t in 0..wlen.div_ceil(LANES) {
                for base in (0..dim).step_by(head_dim) {
                    s.probs(t, base, plan);
                    for c in base..base + head_dim {
                        let mut o_c = Lanes::ZERO;
                        for (p, v_j) in s.p.iter().zip(win.chunks_exact(3 * dim)) {
                            o_c.add_scaled(v_j[2 * dim + c], p);
                        }
                        s.o[c] = o_c;
                    }
                }
                let rows = t * LANES..wlen.min((t + 1) * LANES);
                for (l, o_i) in o_win[rows.start * dim..rows.end * dim].chunks_exact_mut(dim).enumerate() {
                    gather(&s.o, l, o_i);
                }
            }
        }
    }
);

dispatched!(
    /// The backward window loop: `dqkv: [tokens, 3·dim]` (`dQ | dK | dV`)
    /// from `d_o: [tokens, dim]`; each window writes only its own rows.
    fn backward_windows, backward_body, backward_avx2,
    (d_o: &[f32], qkv: &[f32], plan: &WindowAttnPlan, dqkv: &mut [f32], s: &mut Tiles) {
        let (wlen, dim, head_dim, scale) = (plan.window_len, plan.dim(), plan.head_dim, plan.scale());
        let (chunks, pairs) = (wlen.div_ceil(LANES), head_dim / 2);
        let windows = qkv.chunks_exact(wlen * 3 * dim).zip(d_o.chunks_exact(wlen * dim));
        for ((win, do_win), d_win) in windows.zip(dqkv.chunks_exact_mut(wlen * 3 * dim)) {
            s.load(win, plan);
            for (i, g_i) in do_win.chunks_exact(dim).enumerate() {
                scatter(&mut s.d_o, i, g_i);
            }
            s.dk.fill(Lanes::ZERO);
            s.dv.fill(Lanes::ZERO);
            for t in 0..chunks {
                let live = LANES.min(wlen - t * LANES);
                let tables = t * pairs..(t + 1) * pairs;
                for base in (0..dim).step_by(head_dim) {
                    s.probs(t, base, plan);
                    // dPᵀ = V dOᵀ, then softmax backward to dSᵀ in place with
                    // the ×scale of the score folded in.
                    let g = &s.d_o[t * dim + base..t * dim + base + head_dim];
                    let mut dot = Lanes([-0.0; LANES]);
                    for ((ds, p), v_j) in s.ds.iter_mut().zip(&s.p).zip(win.chunks_exact(3 * dim)) {
                        let mut acc = Lanes::ZERO;
                        for (g_c, &v) in g.iter().zip(&v_j[2 * dim + base..2 * dim + base + head_dim]) {
                            acc.add_scaled(v, g_c);
                        }
                        for l in 0..LANES {
                            dot.0[l] += p.0[l] * acc.0[l];
                        }
                        *ds = acc;
                    }
                    for (ds, p) in s.ds.iter_mut().zip(&s.p) {
                        let dp = ds.0;
                        *ds = Lanes(std::array::from_fn(|l| p.0[l] * (dp[l] - dot.0[l]) * scale));
                    }
                    // dQ̃ᵀ = K̃ᵀ dSᵀ, un-rotated into the dQ section.
                    for (c, dq) in s.dq.iter_mut().enumerate() {
                        let mut acc = Lanes::ZERO;
                        for (j, ds) in s.ds.iter().enumerate() {
                            acc.add_scaled(s.k[j / LANES * dim + base + c].0[j % LANES], ds);
                        }
                        *dq = acc;
                    }
                    rope_lanes_inv(&mut s.dq, &s.cos[tables.clone()], &s.sin[tables.clone()], head_dim);
                    for l in 0..live {
                        let i = t * LANES + l;
                        gather(&s.dq, l, &mut d_win[i * 3 * dim + base..i * 3 * dim + base + head_dim]);
                    }
                    // dK̃ = dSᵀ Q̃ and dV = Pᵀ dO sum over the queries: copy the
                    // live queries' rows out key-major, then accumulate with
                    // the keys as lanes, queries ascending.
                    for (j, (p, ds)) in s.p.iter().zip(&s.ds).enumerate() {
                        let (h, m) = (j / LANES, j % LANES);
                        for l in 0..live {
                            s.p_rows[l * chunks + h].0[m] = p.0[l];
                            s.ds_rows[l * chunks + h].0[m] = ds.0[l];
                        }
                    }
                    for c in base..base + head_dim {
                        let (q_c, g_c) = (&s.q[t * dim + c], &s.d_o[t * dim + c]);
                        for h in 0..chunks {
                            let (mut dk, mut dv) = (s.dk[h * dim + c], s.dv[h * dim + c]);
                            for l in 0..live {
                                dk.add_scaled(q_c.0[l], &s.ds_rows[l * chunks + h]);
                                dv.add_scaled(g_c.0[l], &s.p_rows[l * chunks + h]);
                            }
                            s.dk[h * dim + c] = dk;
                            s.dv[h * dim + c] = dv;
                        }
                    }
                }
            }
            // dK (un-rotated) and dV back into token rows.
            for (h, dk) in s.dk.chunks_exact_mut(dim).enumerate() {
                rope_lanes_inv(dk, &s.cos[h * pairs..(h + 1) * pairs], &s.sin[h * pairs..(h + 1) * pairs], head_dim);
            }
            for (j, d_j) in d_win.chunks_exact_mut(3 * dim).enumerate() {
                let (d_k, d_v) = d_j[dim..].split_at_mut(dim);
                gather(&s.dk, j, d_k);
                gather(&s.dv, j, d_v);
            }
        }
    }
);

/// The attention core: `O = softmax(R(Q) R(K)ᵀ · s) V` per window and head,
/// `[tokens, dim]`, from the window-major fused projection
/// `qkv: [tokens, 3·dim]` (`Q | K | V` side by side).
pub fn window_core(qkv: &Tensor, plan: &WindowAttnPlan) -> Tensor {
    assert_eq!(qkv.shape(), &[plan.tokens(), 3 * plan.dim()], "window_core input shape");
    let mut o = Tensor::for_overwrite(&[plan.tokens(), plan.dim()]);
    TILES.with_borrow_mut(|s| {
        s.prepare(plan, false);
        forward_windows(qkv.data(), plan, o.data_mut(), s);
    });
    o
}

/// Analytic backward of [`window_core`]: `dQ | dK | dV` side by side,
/// `[tokens, 3·dim]`, from `d_o: [tokens, dim]`. With `S = Q̃K̃ᵀ·s`,
/// `P = softmax(S)`: `dV = Pᵀ dO`, `dP = dO Vᵀ`,
/// `dS_ij = s · P_ij (dP_ij − Σ_j P_ij dP_ij)`, `dQ̃ = dS K̃`, `dK̃ = dSᵀ Q̃`,
/// and `dQ`, `dK` un-rotated with `R⁻¹ = R(−θ)`.
pub fn window_core_backward(d_o: &Tensor, qkv: &Tensor, plan: &WindowAttnPlan) -> Tensor {
    let (tokens, dim) = (plan.tokens(), plan.dim());
    assert_eq!(qkv.shape(), &[tokens, 3 * dim], "window_core_backward input shape");
    assert_eq!(d_o.shape(), &[tokens, dim], "window_core_backward gradient shape");
    let mut dqkv = Tensor::for_overwrite(&[tokens, 3 * dim]);
    TILES.with_borrow_mut(|s| {
        s.prepare(plan, true);
        backward_windows(d_o.data(), qkv.data(), plan, dqkv.data_mut(), s);
    });
    dqkv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn plan(n_windows: usize, wlen: usize, n_heads: usize, head_dim: usize) -> WindowAttnPlan {
        let pairs = head_dim / 2;
        let angles: Vec<f32> = (0..wlen * pairs).map(|i| 0.37 * i as f32).collect();
        let cos = Tensor::from_vec(&[wlen, pairs], angles.iter().map(|a| a.cos()).collect());
        let sin = Tensor::from_vec(&[wlen, pairs], angles.iter().map(|a| a.sin()).collect());
        WindowAttnPlan::new(n_windows, wlen, n_heads, head_dim, cos, sin)
    }

    /// toy48, one lane-exact window, a tail tile, 2–3 tiles, tiny heads.
    const GEOMETRIES: [(usize, usize, usize, usize); 6] =
        [(32, 16, 4, 12), (2, 64, 4, 16), (3, 6, 2, 4), (2, 20, 2, 8), (1, 9, 3, 2), (2, 33, 1, 12)];

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Portable ≡ AVX2, forward and backward: the `*_body` functions are the
    /// portable build, the entry points dispatch to the AVX2 one when the
    /// host has it (a self-comparison on a host without AVX2).
    #[test]
    fn portable_and_dispatched_builds_agree_bitwise() {
        for (seed, (n_windows, wlen, n_heads, head_dim)) in GEOMETRIES.into_iter().enumerate() {
            let plan = plan(n_windows, wlen, n_heads, head_dim);
            let mut rng = Rng::seed_from(70 + seed as u64);
            let qkv = Tensor::randn(&[plan.tokens(), 3 * plan.dim()], &mut rng);
            let d_o = Tensor::randn(&[plan.tokens(), plan.dim()], &mut rng);

            let mut o = vec![0.0; plan.tokens() * plan.dim()];
            let mut s = Tiles::default();
            s.prepare(&plan, false);
            forward_body(qkv.data(), &plan, &mut o, &mut s);
            assert_eq!(bits(&o), bits(window_core(&qkv, &plan).data()), "forward at {:?}", (n_windows, wlen, n_heads, head_dim));

            let mut dqkv = vec![0.0; qkv.len()];
            s.prepare(&plan, true);
            backward_body(d_o.data(), qkv.data(), &plan, &mut dqkv, &mut s);
            let dispatched = window_core_backward(&d_o, &qkv, &plan);
            assert_eq!(bits(&dqkv), bits(dispatched.data()), "backward at {:?}", (n_windows, wlen, n_heads, head_dim));
        }
    }

    /// Every live query lane of every probability tile is a probability
    /// vector over the keys: no entry above 1 (the max is `exp(0) = 1` before
    /// the division) and a sum of 1 within `window_len · ε`.
    #[test]
    fn prob_rows_are_normalized() {
        for (seed, (n_windows, wlen, n_heads, head_dim)) in GEOMETRIES.into_iter().enumerate() {
            let plan = plan(n_windows, wlen, n_heads, head_dim);
            let mut rng = Rng::seed_from(60 + seed as u64);
            let qkv = Tensor::randn(&[plan.tokens(), 3 * plan.dim()], &mut rng);
            let mut s = Tiles::default();
            s.prepare(&plan, false);
            for win in qkv.data().chunks_exact(wlen * 3 * plan.dim()) {
                s.load(win, &plan);
                for t in 0..wlen.div_ceil(LANES) {
                    for base in (0..plan.dim()).step_by(head_dim) {
                        s.probs(t, base, &plan);
                        for l in 0..LANES.min(wlen - t * LANES) {
                            let row: Vec<f32> = s.p.iter().map(|p| p.0[l]).collect();
                            assert!(row.iter().all(|p| (0.0..=1.0).contains(p)), "probability outside [0, 1]");
                            let sum: f32 = row.iter().sum();
                            assert!((sum - 1.0).abs() <= wlen as f32 * f32::EPSILON, "row sums to {sum}");
                        }
                    }
                }
            }
        }
    }
}
