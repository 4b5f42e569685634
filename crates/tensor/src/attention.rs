//! The numeric core of windowed multi-head attention with RoPE, query-lane.
//!
//! Four entry points run the one window loop of each direction.
//! [`window_core_into`] computes, per window and head of a window-partitioned
//! token matrix, `O = softmax(R(Q) R(K)ᵀ · s) V` from the fused projection
//! `qkv: [tokens, 3·dim]` (`Q | K | V` side by side, `R` the RoPE rotation,
//! `s = 1/√head_dim`); [`window_core_backward_into`] is its analytic
//! backward, `dQ | dK | dV` from `dO`. Both write slices over a
//! [`CoreScratch`] the caller keeps: the model's tape-free block pass (one
//! row block of whole windows at a time) and its backward, and SWiPe's block
//! stage. [`window_core_on`] and [`window_core_backward_on`] are the
//! `Tensor` forms on a given build, each over a scratch of its own: the
//! tape's op in `aeris-autodiff` (the recording oracle) calls them with
//! [`Kernel::detected`], the parity tests on every build.
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
//! heap-trim page-fault storms in both builds, which is why the caller
//! keeps the scratch: see [`CoreScratch`].)
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
//! contracted, so every build returns the same bits; the exponential is the
//! lane function of [`crate::sweeps::exp`], which depends on its input alone.
//!
//! # Builds
//!
//! [`crate::dispatch`]'s `dispatched!` runs one of three, by
//! [`Kernel::detected`]: the portable body, the same body built for AVX2
//! and FMA (which defines the bits above), and on an `avx512f` host a
//! hand-written build in `std::arch` intrinsics with every 16-lane tile row
//! in one zmm register. That build keeps the layout and the per-element order; what
//! it changes is what the autovectorized body cannot hold in registers:
//!
//! - the loader transposes each 16-token × 16-column block of Q and K in
//!   registers (a 16 × 16 shuffle transpose) and rotates it there, and the
//!   write-outs (`O`, `dQ`, `dK`, `dV`) and the backward's `dO` load and two
//!   query-major copies are the same transposes;
//! - the score, `P·V` and backward products run in register blocks of 8,
//!   4, 2 and 1 keys or head-dim columns (as the window length and
//!   `head_dim` allow), each block that many independent accumulators,
//!   every one summed in the order above with `_mm512_mul_ps` and
//!   `_mm512_add_ps`, never fused;
//! - the forward computes the next head's probability tile before the
//!   current head's `P·V`, so the two dependency chains overlap.
//!
//! An `avx512f` instantiation of the portable body measured no faster than
//! the AVX2 one (toy48 90–91 against 91–92 µs a call; 100–101 against 81 at
//! `(2, 64, 4, 16)`): its `[f32; 16]` accumulators spill, as the GEMM's did.
//! The intrinsic build reads, at toy48 on a 2-vCPU `avx512f` box, forward
//! ≈ 53–54 against ≈ 93–95 µs and backward ≈ 118–120 against ≈ 226–230 µs
//! (`examples/layer_probe.rs`). Every build is pinned to one digest and to
//! the portable body bitwise by this module's tests.
//!
//! # Recompute contract
//!
//! The backward stores nothing from the forward: it re-runs the one loader
//! and the one probability tile, so its probabilities are the forward's bits.

use crate::dispatch::{dispatched, Kernel};
use crate::sweeps::exp_lane;
#[cfg(target_arch = "x86_64")]
use crate::sweeps::{EXP_LO, EXP_POLY, LN2_HI, LN2_LO, ROUND};
use crate::Tensor;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m512, _mm512_add_ps, _mm512_castpd_ps, _mm512_castps_pd, _mm512_cmp_ps_mask, _mm512_div_ps,
    _mm512_load_ps, _mm512_mask_blend_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
    _mm512_maskz_scalef_ps, _mm512_max_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    _mm512_shuffle_f32x4, _mm512_store_ps, _mm512_sub_ps, _mm512_unpackhi_pd, _mm512_unpackhi_ps,
    _mm512_unpacklo_pd, _mm512_unpacklo_ps, _CMP_GE_OQ, _CMP_NLT_UQ,
};

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

/// The core's scratch: the lane-major tiles of one window, re-sized and
/// zeroed for every call and reused for every window; `[·]` counts are per
/// tile. The backward-only buffers stay empty in the forward. The caller
/// keeps one across calls (the model's `Workspace` holds it), so a call
/// allocates nothing but its result: allocated per call (64-byte aligned, so
/// through the system allocator's aligned path), the scratch made glibc's
/// heap-trim page-fault storms in the serve lane workers heavier — over 10
/// 10-s `serve_quality_distinct` runs each, per call read p50
/// 106.6–152.2 ms with up to 3.5 M minor faults a run, kept 100.3–115.9 ms
/// with at most 2.5 M.
#[derive(Default)]
pub struct CoreScratch {
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
    /// Backward: `dPᵀ`, then `dSᵀ`, laid out like `p`. Forward, in the
    /// `avx512f` build only: the next head's probability tile.
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

impl CoreScratch {
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
            (&mut self.ds, wlen),
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
    fn forward_windows, avx512 = forward_avx512,
    (qkv: &[f32], plan: &WindowAttnPlan, o: &mut [f32], s: &mut CoreScratch) {
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
    fn backward_windows, avx512 = backward_avx512,
    (d_o: &[f32], qkv: &[f32], plan: &WindowAttnPlan, dqkv: &mut [f32], s: &mut CoreScratch) {
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

/// `(start, width)` runs covering `0..n`: widths of 8 while 8 remain, then
/// one each of 4, 2 and 1 as needed — the register blocks of the `avx512f`
/// build, over keys or head-dim columns.
#[cfg(target_arch = "x86_64")]
fn blocks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut start = 0;
    std::iter::from_fn(move || {
        let width = [8, 4, 2, 1].into_iter().find(|&w| start + w <= n)?;
        start += width;
        Some((start - width, width))
    })
}

/// `$body` with the const `$b` equal to `$w`, a width of [`blocks`]: one
/// instantiation per width.
#[cfg(target_arch = "x86_64")]
macro_rules! at_width {
    ($w:expr, $b:ident => $body:block) => {
        match $w {
            8 => {
                const $b: usize = 8;
                $body
            }
            4 => {
                const $b: usize = 4;
                $body
            }
            2 => {
                const $b: usize = 2;
                $body
            }
            _ => {
                const $b: usize = 1;
                $body
            }
        }
    };
}

/// One tile row as a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn ld(x: &Lanes) -> __m512 {
    // SAFETY: a `Lanes` is 16 f32 on a 64-byte boundary, one aligned load.
    unsafe { _mm512_load_ps(x.0.as_ptr()) }
}

/// A register into one tile row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn st(x: &mut Lanes, v: __m512) {
    // SAFETY: as in `ld`, one aligned store of the row's 64 bytes.
    unsafe { _mm512_store_ps(x.0.as_mut_ptr(), v) }
}

/// 16 × 16 register transpose: lane `j` of `out[i]` is lane `i` of `r[j]`.
/// Interleaves 32-bit then 64-bit pairs within each 128-bit lane, then
/// transposes the 4 × 4 grid of 128-bit lanes: data movement only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose16(r: [__m512; 16]) -> [__m512; 16] {
    let mut t = [_mm512_setzero_ps(); 16];
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // `u[4i + m]`, 128-bit lane `k`: column `4k + m` of rows `4i .. 4i+4`.
    let mut u = [_mm512_setzero_ps(); 16];
    for i in 0..4 {
        let [a, b, c, d] = [0, 1, 2, 3].map(|x| _mm512_castps_pd(t[4 * i + x]));
        u[4 * i] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, c));
        u[4 * i + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, c));
        u[4 * i + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(b, d));
        u[4 * i + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(b, d));
    }
    let mut out = [_mm512_setzero_ps(); 16];
    for m in 0..4 {
        let (x0, x1) = (_mm512_shuffle_f32x4::<0x44>(u[m], u[4 + m]), _mm512_shuffle_f32x4::<0xee>(u[m], u[4 + m]));
        let (y0, y1) = (_mm512_shuffle_f32x4::<0x44>(u[8 + m], u[12 + m]), _mm512_shuffle_f32x4::<0xee>(u[8 + m], u[12 + m]));
        out[m] = _mm512_shuffle_f32x4::<0x88>(x0, y0);
        out[4 + m] = _mm512_shuffle_f32x4::<0xdd>(x0, y0);
        out[8 + m] = _mm512_shuffle_f32x4::<0x88>(x1, y1);
        out[12 + m] = _mm512_shuffle_f32x4::<0xdd>(x1, y1);
    }
    out
}

/// Token rows `0..live` of `src` (row `l` is `src[l·stride..][..cols]`,
/// `cols ≤ 16`) as 16 column registers, the row being the lane; rows past
/// `live` and columns past `cols` read 0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn columns(src: &[f32], stride: usize, live: usize, cols: usize) -> [__m512; 16] {
    let mut rows = [_mm512_setzero_ps(); 16];
    let mask = ((1u32 << cols) - 1) as u16;
    for (l, row) in rows.iter_mut().enumerate().take(live) {
        let src = &src[l * stride..][..cols];
        // SAFETY: `src` is a bounds-checked subslice of `cols ≤ 16` f32 and
        // `mask` enables exactly lanes `0..cols`; a masked load does not
        // touch the memory of the lanes it leaves out.
        *row = unsafe { _mm512_maskz_loadu_ps(mask, src.as_ptr()) };
    }
    transpose16(rows)
}

/// The inverse of [`columns`]: column registers `x` back into token rows
/// `0..live` of `dst` (row `l` is `dst[l·stride..][..cols]`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn write_rows(x: &[__m512; 16], dst: &mut [f32], stride: usize, live: usize, cols: usize) {
    let mask = ((1u32 << cols) - 1) as u16;
    for (l, row) in transpose16(*x).into_iter().enumerate().take(live) {
        let dst = &mut dst[l * stride..][..cols];
        // SAFETY: `dst` is a bounds-checked subslice of `cols ≤ 16` f32 and
        // `mask` enables exactly lanes `0..cols`.
        unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), mask, row) };
    }
}

/// [`rope_lanes`] on column registers: `x[c]` is model column `col0 + c`
/// (`col0` even, `c < cols`), its pair's angles lanes of `cos` / `sin`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn rope_cols(x: &mut [__m512; 16], cols: usize, col0: usize, head_dim: usize, cos: &[Lanes], sin: &[Lanes]) {
    for c in (0..cols).step_by(2) {
        let p = (col0 + c) % head_dim / 2;
        let (co, si, x0, x1) = (ld(&cos[p]), ld(&sin[p]), x[c], x[c + 1]);
        x[c] = _mm512_sub_ps(_mm512_mul_ps(x0, co), _mm512_mul_ps(x1, si));
        x[c + 1] = _mm512_add_ps(_mm512_mul_ps(x0, si), _mm512_mul_ps(x1, co));
    }
}

/// [`rope_lanes_inv`] on column registers, laid out as for [`rope_cols`].
/// `g1·c − g0·s` is `(−g0)·s + g1·c`: negation and multiplication commute
/// exactly, and `a − b` is `a + (−b)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn rope_inv_cols(x: &mut [__m512; 16], cols: usize, col0: usize, head_dim: usize, cos: &[Lanes], sin: &[Lanes]) {
    for c in (0..cols).step_by(2) {
        let p = (col0 + c) % head_dim / 2;
        let (co, si, g0, g1) = (ld(&cos[p]), ld(&sin[p]), x[c], x[c + 1]);
        x[c] = _mm512_add_ps(_mm512_mul_ps(g0, co), _mm512_mul_ps(g1, si));
        x[c + 1] = _mm512_sub_ps(_mm512_mul_ps(g1, co), _mm512_mul_ps(g0, si));
    }
}

/// [`exp_lane`] on 16 lanes, bit for bit: the same reduction and
/// polynomial, operation for operation. Only `y · 2ⁿ` is spelled
/// differently, as one `scalef`: for `n ≤ 127` the bit-built `2ⁿ` is exact,
/// so both are the one rounding of the exact product; `n = 128` is where
/// the bit-built `2ⁿ` is `+∞`, and so is every `x > EXP_HI` (`n ≥ 128`
/// there too), so `n ≥ 128` selects `+∞`. `x < EXP_LO` selects 0; a NaN
/// `x` passes the unordered range compare, fails the ordered `n` one, and
/// comes back NaN from `scalef`, as `y` is NaN.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn exp_zmm(x: __m512) -> __m512 {
    let splat = _mm512_set1_ps;
    let t = _mm512_add_ps(_mm512_mul_ps(x, splat(std::f32::consts::LOG2_E)), splat(ROUND));
    let n = _mm512_sub_ps(t, splat(ROUND));
    let r = _mm512_sub_ps(_mm512_sub_ps(x, _mm512_mul_ps(n, splat(LN2_HI))), _mm512_mul_ps(n, splat(LN2_LO)));
    let mut p = splat(EXP_POLY[0]);
    for &c in &EXP_POLY[1..] {
        p = _mm512_add_ps(_mm512_mul_ps(p, r), splat(c));
    }
    let y = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(p, _mm512_mul_ps(r, r)), r), splat(1.0));
    let in_range = _mm512_cmp_ps_mask::<_CMP_NLT_UQ>(x, splat(EXP_LO));
    let e = _mm512_maskz_scalef_ps(in_range, y, n);
    _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_GE_OQ>(n, splat(128.0)), e, splat(f32::INFINITY))
}

/// Scores of keys `j0 .. j0+B` against a head's rotated query tile
/// `q: [head_dim]`, before the scale: `B` independent accumulators, each
/// from 0 with the column ascending.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn score_block<const B: usize>(q: &[Lanes], k: &[Lanes], j0: usize, base: usize, dim: usize) -> [__m512; B] {
    let n = q.len();
    let mut k_rows: [&[Lanes]; B] = [&[]; B];
    for (b, k_row) in k_rows.iter_mut().enumerate() {
        *k_row = &k[(j0 + b) / LANES * dim + base..][..n];
    }
    let mut acc = [_mm512_setzero_ps(); B];
    for c in 0..n {
        let q_c = ld(&q[c]);
        for b in 0..B {
            let k_jc = _mm512_set1_ps(k_rows[b][c].0[(j0 + b) % LANES]);
            acc[b] = _mm512_add_ps(acc[b], _mm512_mul_ps(k_jc, q_c));
        }
    }
    acc
}

/// `Σ_j P[j] · V[j][col + b]` for `b < B` over the probability tile `p`,
/// keys ascending, `V` read in place from the window's token rows (`row`
/// apart).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn pv_block<const B: usize>(p: &[Lanes], win: &[f32], col: usize, row: usize) -> [__m512; B] {
    let mut acc = [_mm512_setzero_ps(); B];
    for (j, p_j) in p.iter().enumerate() {
        let (p_j, v_j) = (ld(p_j), &win[j * row + col..][..B]);
        for (acc, &v) in acc.iter_mut().zip(v_j) {
            *acc = _mm512_add_ps(*acc, _mm512_mul_ps(_mm512_set1_ps(v), p_j));
        }
    }
    acc
}

/// `dPᵀ` rows of keys `j0 .. j0+B`: `Σ_c V[j][col + c] · dOᵀ[c]` over the
/// head's `dO` tile `g: [head_dim]`, from 0 with the column ascending.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn dp_block<const B: usize>(g: &[Lanes], win: &[f32], j0: usize, col: usize, row: usize) -> [__m512; B] {
    let n = g.len();
    let mut v_rows: [&[f32]; B] = [&[]; B];
    for (b, v_row) in v_rows.iter_mut().enumerate() {
        *v_row = &win[(j0 + b) * row + col..][..n];
    }
    let mut acc = [_mm512_setzero_ps(); B];
    for c in 0..n {
        let g_c = ld(&g[c]);
        for b in 0..B {
            acc[b] = _mm512_add_ps(acc[b], _mm512_mul_ps(_mm512_set1_ps(v_rows[b][c]), g_c));
        }
    }
    acc
}

/// `dQ̃ᵀ` rows of columns `col .. col+B`: `Σ_j K̃[j][col + b] · dSᵀ[j]`,
/// keys ascending.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn dq_block<const B: usize>(k: &[Lanes], ds: &[Lanes], col: usize, dim: usize) -> [__m512; B] {
    let mut acc = [_mm512_setzero_ps(); B];
    for (j, ds_j) in ds.iter().enumerate() {
        let (ds_j, k_j) = (ld(ds_j), &k[j / LANES * dim + col..][..B]);
        for (acc, k_jc) in acc.iter_mut().zip(k_j) {
            *acc = _mm512_add_ps(*acc, _mm512_mul_ps(_mm512_set1_ps(k_jc.0[j % LANES]), ds_j));
        }
    }
    acc
}

/// Add query tile `t`'s `live` queries, ascending, into the `dK̃` and `dV`
/// accumulators of columns `col .. col+B` of every key chunk:
/// `Q̃[i][c] · dS[i][·]` and `dO[i][c] · P[i][·]` over the query-major
/// copies, keys as lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn dkv_block<const B: usize>(s: &mut CoreScratch, t: usize, col: usize, live: usize, dim: usize) {
    let live = live.min(LANES);
    let chunks = s.dk.len() / dim;
    let (q, g) = (&s.q[t * dim + col..][..B], &s.d_o[t * dim + col..][..B]);
    for h in 0..chunks {
        let (dk, dv) = (&mut s.dk[h * dim + col..][..B], &mut s.dv[h * dim + col..][..B]);
        let mut acc_k = [_mm512_setzero_ps(); B];
        let mut acc_v = [_mm512_setzero_ps(); B];
        for b in 0..B {
            (acc_k[b], acc_v[b]) = (ld(&dk[b]), ld(&dv[b]));
        }
        for l in 0..live {
            let (ds_l, p_l) = (ld(&s.ds_rows[l * chunks + h]), ld(&s.p_rows[l * chunks + h]));
            for b in 0..B {
                acc_k[b] = _mm512_add_ps(acc_k[b], _mm512_mul_ps(_mm512_set1_ps(q[b].0[l]), ds_l));
                acc_v[b] = _mm512_add_ps(acc_v[b], _mm512_mul_ps(_mm512_set1_ps(g[b].0[l]), p_l));
            }
        }
        for b in 0..B {
            st(&mut dk[b], acc_k[b]);
            st(&mut dv[b], acc_v[b]);
        }
    }
}

/// The `avx512f` build of [`CoreScratch::load`]: each 16-token × 16-column block
/// of Q and K is transposed in registers and rotated there, then stored.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load_zmm(s: &mut CoreScratch, win: &[f32], plan: &WindowAttnPlan) {
    let (wlen, dim, head_dim) = (plan.window_len, plan.dim(), plan.head_dim);
    let pairs = head_dim / 2;
    for t in 0..wlen.div_ceil(LANES) {
        let (live, rows) = (LANES.min(wlen - t * LANES), &win[t * LANES * 3 * dim..]);
        let (cos, sin) = (&s.cos[t * pairs..][..pairs], &s.sin[t * pairs..][..pairs]);
        for (dst, offset) in [(&mut s.q, 0), (&mut s.k, dim)] {
            for col0 in (0..dim).step_by(LANES) {
                let cols = LANES.min(dim - col0);
                let mut x = columns(&rows[offset + col0..], 3 * dim, live, cols);
                rope_cols(&mut x, cols, col0, head_dim, cos, sin);
                for (d, x) in dst[t * dim + col0..][..cols].iter_mut().zip(x) {
                    st(d, x);
                }
            }
        }
    }
}

/// The `avx512f` build of [`CoreScratch::probs`]: the same tile, bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn probs_zmm(q: &[Lanes], k: &[Lanes], p: &mut [Lanes], t: usize, base: usize, plan: &WindowAttnPlan) {
    let (dim, head_dim) = (plan.dim(), plan.head_dim);
    let (q, scale) = (&q[t * dim + base..][..head_dim], _mm512_set1_ps(plan.scale()));
    let mut m = _mm512_set1_ps(f32::NEG_INFINITY);
    for (j0, width) in blocks(p.len()) {
        at_width!(width, B => {
            let scores = score_block::<B>(q, k, j0, base, dim);
            for (p, score) in p[j0..j0 + B].iter_mut().zip(scores) {
                let score = _mm512_mul_ps(score, scale);
                // `max` returns its second operand when either is NaN, as
                // `f32::max(m, score)` returns `m` for a NaN score.
                m = _mm512_max_ps(score, m);
                st(p, score);
            }
        });
    }
    let mut z = _mm512_setzero_ps();
    for p in p.iter_mut() {
        let e = exp_zmm(_mm512_sub_ps(ld(p), m));
        z = _mm512_add_ps(z, e);
        st(p, e);
    }
    let inv = _mm512_div_ps(_mm512_set1_ps(1.0), z);
    for p in p.iter_mut() {
        st(p, _mm512_mul_ps(ld(p), inv));
    }
}

/// The `avx512f` build of `forward_windows`: each query tile's `O` is
/// accumulated head by head in `B`-column register blocks over the keys,
/// then transposed out into token rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn forward_avx512(qkv: &[f32], plan: &WindowAttnPlan, o: &mut [f32], s: &mut CoreScratch) {
    let (wlen, dim, head_dim) = (plan.window_len, plan.dim(), plan.head_dim);
    for (win, o_win) in qkv.chunks_exact(wlen * 3 * dim).zip(o.chunks_exact_mut(wlen * dim)) {
        load_zmm(s, win, plan);
        for t in 0..wlen.div_ceil(LANES) {
            // One head's probabilities are computed ahead of the previous
            // head's `P·V` (into `ds`, then swapped in), so the two chains
            // overlap.
            probs_zmm(&s.q, &s.k, &mut s.p, t, 0, plan);
            for base in (0..dim).step_by(head_dim) {
                if base + head_dim < dim {
                    probs_zmm(&s.q, &s.k, &mut s.ds, t, base + head_dim, plan);
                }
                for (c0, width) in blocks(head_dim) {
                    at_width!(width, B => {
                        let o_c = pv_block::<B>(&s.p, win, 2 * dim + base + c0, 3 * dim);
                        for (d, o_c) in s.o[base + c0..][..B].iter_mut().zip(o_c) {
                            st(d, o_c);
                        }
                    });
                }
                std::mem::swap(&mut s.p, &mut s.ds);
            }
            let live = LANES.min(wlen - t * LANES);
            for col0 in (0..dim).step_by(LANES) {
                let cols = LANES.min(dim - col0);
                let mut x = [_mm512_setzero_ps(); LANES];
                for (x, o_c) in x.iter_mut().zip(&s.o[col0..col0 + cols]) {
                    *x = ld(o_c);
                }
                write_rows(&x, &mut o_win[t * LANES * dim + col0..], dim, live, cols);
            }
        }
    }
}

/// The `avx512f` build of `backward_windows`: the same four products in
/// register blocks, the `dO` load, the two query-major copies and every
/// write-out as register transposes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn backward_avx512(d_o: &[f32], qkv: &[f32], plan: &WindowAttnPlan, dqkv: &mut [f32], s: &mut CoreScratch) {
    let (wlen, dim, head_dim, scale) = (plan.window_len, plan.dim(), plan.head_dim, plan.scale());
    let (chunks, pairs) = (wlen.div_ceil(LANES), head_dim / 2);
    let windows = qkv.chunks_exact(wlen * 3 * dim).zip(d_o.chunks_exact(wlen * dim));
    for ((win, do_win), d_win) in windows.zip(dqkv.chunks_exact_mut(wlen * 3 * dim)) {
        load_zmm(s, win, plan);
        for t in 0..chunks {
            let live = LANES.min(wlen - t * LANES);
            for col0 in (0..dim).step_by(LANES) {
                let cols = LANES.min(dim - col0);
                let x = columns(&do_win[t * LANES * dim + col0..], dim, live, cols);
                for (d, x) in s.d_o[t * dim + col0..][..cols].iter_mut().zip(x) {
                    st(d, x);
                }
            }
        }
        s.dk.fill(Lanes::ZERO);
        s.dv.fill(Lanes::ZERO);
        for t in 0..chunks {
            let live = LANES.min(wlen - t * LANES);
            let tables = t * pairs..(t + 1) * pairs;
            for base in (0..dim).step_by(head_dim) {
                probs_zmm(&s.q, &s.k, &mut s.p, t, base, plan);
                // dPᵀ = V dOᵀ with `Σ_j P·dP` from −0.0, keys ascending; then
                // dSᵀ in place.
                let g = &s.d_o[t * dim + base..][..head_dim];
                let mut dot = _mm512_set1_ps(-0.0);
                for (j0, width) in blocks(wlen) {
                    at_width!(width, B => {
                        let dp = dp_block::<B>(g, win, j0, 2 * dim + base, 3 * dim);
                        for ((ds, p), dp) in s.ds[j0..j0 + B].iter_mut().zip(&s.p[j0..]).zip(dp) {
                            dot = _mm512_add_ps(dot, _mm512_mul_ps(ld(p), dp));
                            st(ds, dp);
                        }
                    });
                }
                let scale = _mm512_set1_ps(scale);
                for (ds, p) in s.ds.iter_mut().zip(&s.p) {
                    st(ds, _mm512_mul_ps(_mm512_mul_ps(ld(p), _mm512_sub_ps(ld(ds), dot)), scale));
                }
                // dQ̃ᵀ = K̃ᵀ dSᵀ, un-rotated and written into the dQ section.
                for (c0, width) in blocks(head_dim) {
                    at_width!(width, B => {
                        let dq = dq_block::<B>(&s.k, &s.ds, base + c0, dim);
                        for (d, dq) in s.dq[c0..c0 + B].iter_mut().zip(dq) {
                            st(d, dq);
                        }
                    });
                }
                for col0 in (0..head_dim).step_by(LANES) {
                    let cols = LANES.min(head_dim - col0);
                    let mut x = [_mm512_setzero_ps(); LANES];
                    for (x, dq) in x.iter_mut().zip(&s.dq[col0..col0 + cols]) {
                        *x = ld(dq);
                    }
                    rope_inv_cols(&mut x, cols, col0, head_dim, &s.cos[tables.clone()], &s.sin[tables.clone()]);
                    write_rows(&x, &mut d_win[t * LANES * 3 * dim + base + col0..], 3 * dim, live, cols);
                }
                // The query-major copies of P and dS, one transpose per key
                // chunk (keys past `window_len` read 0), then dK̃ and dV.
                for h in 0..chunks {
                    let keys = LANES.min(wlen - h * LANES);
                    for (tile, rows) in [(&s.p, &mut s.p_rows), (&s.ds, &mut s.ds_rows)] {
                        let mut x = [_mm512_setzero_ps(); LANES];
                        for (x, v) in x.iter_mut().zip(&tile[h * LANES..h * LANES + keys]) {
                            *x = ld(v);
                        }
                        for (l, x) in transpose16(x).into_iter().enumerate() {
                            st(&mut rows[l * chunks + h], x);
                        }
                    }
                }
                for (c0, width) in blocks(head_dim) {
                    at_width!(width, B => {
                        dkv_block::<B>(s, t, base + c0, live, dim);
                    });
                }
            }
        }
        // dK (un-rotated) and dV back into token rows.
        for h in 0..chunks {
            let keys = LANES.min(wlen - h * LANES);
            let (cos, sin) = (&s.cos[h * pairs..][..pairs], &s.sin[h * pairs..][..pairs]);
            for col0 in (0..dim).step_by(LANES) {
                let cols = LANES.min(dim - col0);
                let rows = &mut d_win[h * LANES * 3 * dim..];
                let mut x = [_mm512_setzero_ps(); LANES];
                for (x, dk) in x.iter_mut().zip(&s.dk[h * dim + col0..][..cols]) {
                    *x = ld(dk);
                }
                rope_inv_cols(&mut x, cols, col0, head_dim, cos, sin);
                write_rows(&x, &mut rows[dim + col0..], 3 * dim, keys, cols);
                for (x, dv) in x.iter_mut().zip(&s.dv[h * dim + col0..][..cols]) {
                    *x = ld(dv);
                }
                write_rows(&x, &mut rows[2 * dim + col0..], 3 * dim, keys, cols);
            }
        }
    }
}

/// The attention core: `O = softmax(R(Q) R(K)ᵀ · s) V` per window and head,
/// `[tokens, dim]`, from the window-major fused projection
/// `qkv: [tokens, 3·dim]` (`Q | K | V` side by side), on the build of
/// `kernel` over a scratch of its own. Panics when this CPU does not support
/// `kernel`.
pub fn window_core_on(kernel: Kernel, qkv: &Tensor, plan: &WindowAttnPlan) -> Tensor {
    assert_eq!(qkv.shape(), &[plan.tokens(), 3 * plan.dim()], "window_core input shape");
    let mut o = Tensor::for_overwrite(&[plan.tokens(), plan.dim()]);
    window_core_into(kernel, qkv.data(), plan, o.data_mut(), &mut CoreScratch::default());
    o
}

/// [`window_core_on`] on row-major slices over the caller's scratch `s`:
/// `qkv: [tokens, 3·dim]` in, every element of `o: [tokens, dim]` written.
pub fn window_core_into(kernel: Kernel, qkv: &[f32], plan: &WindowAttnPlan, o: &mut [f32], s: &mut CoreScratch) {
    assert_eq!(qkv.len(), plan.tokens() * 3 * plan.dim(), "window_core input length");
    assert_eq!(o.len(), plan.tokens() * plan.dim(), "window_core output length");
    s.prepare(plan, false);
    forward_windows(kernel, qkv, plan, o, s);
}

/// Analytic backward of [`window_core_on`]: `dQ | dK | dV` side by side,
/// `[tokens, 3·dim]`, from `d_o: [tokens, dim]`. With `S = Q̃K̃ᵀ·s`,
/// `P = softmax(S)`: `dV = Pᵀ dO`, `dP = dO Vᵀ`,
/// `dS_ij = s · P_ij (dP_ij − Σ_j P_ij dP_ij)`, `dQ̃ = dS K̃`, `dK̃ = dSᵀ Q̃`,
/// and `dQ`, `dK` un-rotated with `R⁻¹ = R(−θ)`, over a scratch of its own.
pub fn window_core_backward_on(kernel: Kernel, d_o: &Tensor, qkv: &Tensor, plan: &WindowAttnPlan) -> Tensor {
    let (tokens, dim) = (plan.tokens(), plan.dim());
    assert_eq!(qkv.shape(), &[tokens, 3 * dim], "window_core_backward input shape");
    assert_eq!(d_o.shape(), &[tokens, dim], "window_core_backward gradient shape");
    let mut dqkv = Tensor::for_overwrite(&[tokens, 3 * dim]);
    window_core_backward_into(kernel, d_o.data(), qkv.data(), plan, dqkv.data_mut(), &mut CoreScratch::default());
    dqkv
}

/// [`window_core_backward_on`] on row-major slices over the caller's scratch
/// `s`: `d_o: [tokens, dim]` and `qkv: [tokens, 3·dim]` in, every element of
/// `dqkv: [tokens, 3·dim]` written.
pub fn window_core_backward_into(kernel: Kernel, d_o: &[f32], qkv: &[f32], plan: &WindowAttnPlan, dqkv: &mut [f32], s: &mut CoreScratch) {
    let (tokens, dim) = (plan.tokens(), plan.dim());
    assert_eq!(qkv.len(), tokens * 3 * dim, "window_core_backward input length");
    assert_eq!(d_o.len(), tokens * dim, "window_core_backward gradient length");
    assert_eq!(dqkv.len(), tokens * 3 * dim, "window_core_backward output length");
    s.prepare(plan, true);
    backward_windows(kernel, d_o, qkv, plan, dqkv, s);
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

    /// FNV-1a over the output bits of forward and backward at the six
    /// `GEOMETRIES` below, captured on the portable and AVX2 builds.
    const WINDOW_CORE_DIGEST: u64 = 0xeb87_a1a3_82e8_80d0;

    /// Forward `O` and backward `dQ | dK | dV` at every geometry of
    /// `GEOMETRIES` hash to one pinned digest on every supported kernel: the
    /// bits of the core are a function of its inputs alone, whichever build
    /// runs and whichever host it runs on.
    #[test]
    fn core_outputs_hash_to_one_pinned_digest_on_every_kernel() {
        for &kernel in Kernel::supported() {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (seed, (n_windows, wlen, n_heads, head_dim)) in GEOMETRIES.into_iter().enumerate() {
                let plan = plan(n_windows, wlen, n_heads, head_dim);
                let mut rng = Rng::seed_from(80 + seed as u64);
                let qkv = Tensor::randn(&[plan.tokens(), 3 * plan.dim()], &mut rng);
                let d_o = Tensor::randn(&[plan.tokens(), plan.dim()], &mut rng);
                let o = window_core_on(kernel, &qkv, &plan);
                let dqkv = window_core_backward_on(kernel, &d_o, &qkv, &plan);
                for x in o.data().iter().chain(dqkv.data()) {
                    h = (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(h, WINDOW_CORE_DIGEST, "{} kernel: got {h:#x}", kernel.name());
        }
    }

    /// Every build ≡ the portable one, forward and backward: each arm the
    /// host supports (portable, AVX2, `avx512f`) is called directly through
    /// the kernel-keyed entry of `dispatched!` and compared bitwise with the
    /// portable body (`Kernel::Portable`). Beyond `GEOMETRIES`, the window
    /// lengths and head dims cover every register-block width of the
    /// `avx512f` build (1, 2, 4 and 8 keys or columns, several at once), a
    /// one-token window, and a head wider than one 16-column transpose.
    /// Prints the arms that ran (`--nocapture`).
    #[test]
    fn portable_and_dispatched_builds_agree_bitwise() {
        let extra = [(2, 1, 2, 4), (1, 7, 2, 6), (1, 17, 3, 10), (1, 40, 1, 16), (2, 23, 2, 14), (1, 12, 2, 20)];
        let arms = Kernel::supported();
        println!("arms compared: {}", arms.iter().map(|k| k.name()).collect::<Vec<_>>().join(", "));
        for (seed, (n_windows, wlen, n_heads, head_dim)) in GEOMETRIES.into_iter().chain(extra).enumerate() {
            let geometry = (n_windows, wlen, n_heads, head_dim);
            let plan = plan(n_windows, wlen, n_heads, head_dim);
            let mut rng = Rng::seed_from(70 + seed as u64);
            let qkv = Tensor::randn(&[plan.tokens(), 3 * plan.dim()], &mut rng);
            let d_o = Tensor::randn(&[plan.tokens(), plan.dim()], &mut rng);

            let mut s = CoreScratch::default();
            let mut o = vec![0.0; plan.tokens() * plan.dim()];
            s.prepare(&plan, false);
            forward_windows(Kernel::Portable, qkv.data(), &plan, &mut o, &mut s);
            let mut dqkv = vec![0.0; qkv.len()];
            s.prepare(&plan, true);
            backward_windows(Kernel::Portable, d_o.data(), qkv.data(), &plan, &mut dqkv, &mut s);

            for &kernel in arms {
                let mut arm = CoreScratch::default();
                let mut o_arm = vec![f32::NAN; o.len()];
                arm.prepare(&plan, false);
                forward_windows(kernel, qkv.data(), &plan, &mut o_arm, &mut arm);
                assert_eq!(bits(&o_arm), bits(&o), "{} forward at {geometry:?}", kernel.name());
                let mut dqkv_arm = vec![f32::NAN; dqkv.len()];
                arm.prepare(&plan, true);
                backward_windows(kernel, d_o.data(), qkv.data(), &plan, &mut dqkv_arm, &mut arm);
                assert_eq!(bits(&dqkv_arm), bits(&dqkv), "{} backward at {geometry:?}", kernel.name());
            }
        }
    }

    /// The `avx512f` exponential is [`exp_lane`] bit for bit: over every
    /// 1021st f32 bit pattern below that of −100 (every positive value,
    /// NaNs, the negatives down to −100) and the edges — both range ends and
    /// their neighbours, where `n` reaches 128 (`88.376_27`), ±0, ±∞, the
    /// extremes. Skipped (with a note) on a host without `avx512f`.
    #[test]
    fn exp_zmm_is_exp_lane_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            if Kernel::detected() < Kernel::Avx512 {
                println!("skipped: this CPU has no avx512f");
                return;
            }
            #[target_feature(enable = "avx512f")]
            fn exp_all(x: &[Lanes]) -> Vec<Lanes> {
                x.iter()
                    .map(|x| {
                        let mut e = Lanes::ZERO;
                        st(&mut e, exp_zmm(ld(x)));
                        e
                    })
                    .collect()
            }
            let mut xs: Vec<f32> = Vec::new();
            xs.extend((0..(-100.0f32).to_bits()).step_by(1021).map(f32::from_bits));
            for edge in [crate::sweeps::EXP_LO, 88.376_27, 88.722_84] {
                let b = edge.to_bits();
                xs.extend((b - 3..=b + 3).map(f32::from_bits));
            }
            xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX, f32::MIN, 1e30, -1e30]);
            let lanes: Vec<Lanes> =
                xs.chunks(LANES).map(|c| Lanes(std::array::from_fn(|l| c.get(l).copied().unwrap_or(0.0)))).collect();
            // SAFETY: `Kernel::detected()` is `Avx512`, so the CPU has avx512f.
            let got = unsafe { exp_all(&lanes) };
            for (x, e) in lanes.iter().zip(&got).flat_map(|(x, e)| x.0.iter().zip(e.0)) {
                let want = exp_lane(*x);
                assert!(want.to_bits() == e.to_bits() || (want.is_nan() && e.is_nan()), "exp({x:e}): {e:e} against {want:e}");
            }
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
            let mut s = CoreScratch::default();
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
