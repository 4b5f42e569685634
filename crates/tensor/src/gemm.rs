//! The cache-blocked GEMM core shared by every layout variant, reading its
//! operands where they lie.
//!
//! The three public GEMM entry points (`matmul`/`matmul_nt`/`matmul_tn`) lower
//! to one f32 driver, [`gemm`]: row blocks of `MC` = 32 rows of C, column
//! panels of `NR` = 16 lanes, register tiles — the BLIS/GotoBLAS loop nest
//! scaled down to this workspace's shapes, without its copies where they buy
//! nothing:
//!
//! 1. **A is never packed.** The kernels see A through one view (`AView`):
//!    element `(i, kk)` of register tile `t` is
//!    `a[base + (t·R + i)·row_stride + kk·k_stride]`. A row-major `A: [m, k]`
//!    (`matmul`, `matmul_nt`) is `(k, 1)`; `matmul_tn`'s `A: [k, m]` is
//!    `(1, m)`, so a tile's `R` broadcasts at step `kk` are `R` adjacent
//!    floats of row `kk`.
//! 2. **B is copied only when transposed or partial.** The kernels see B's
//!    column panels of `NR` lanes through one view (`BView`). A full panel
//!    `p` of a row-major `B: [k, n]` is read in place: lane `j` of k-row `kk`
//!    is `b[kk·n + p·NR + j]`. `pack_b_panel` copies into contiguous
//!    `[k, NR]` strips in exactly two cases: every panel of a transposed B
//!    (`matmul_nt`'s `B: [n, k]`, transposed during the copy so a kernel never
//!    loads a strided B lane), and the zero-padded last panel of a row-major B
//!    whose `n` is not a multiple of `NR`.
//! 3. **Micro-kernel**: an `MR × NR` register tile accumulated over the full
//!    `k` extent, one fused multiply-add per `k` step in ascending `k`. The
//!    row-block loop is a `dispatched!` instance ([`crate::dispatch`]) with
//!    three builds, picked once per process by [`Kernel::detected`]: the
//!    portable body (4 × 16, `f32::mul_add`, autovectorized), the same body
//!    under `#[target_feature(enable = "avx2,fma")]` (`mul_add` is one
//!    vfmadd), and a hand-written `avx512f` build in `std::arch` intrinsics —
//!    8 rows × up to three adjacent B panels, 24 zmm accumulators, one
//!    `_mm512_fmadd_ps` each per `k` step. Panels go three at a time; four
//!    left run as 2 + 2 and one or two left as one narrower tile, so every
//!    toy48 width (48, 96, 144, 192, 288 lanes) runs three-panel tiles only.
//!
//! At these cache-resident shapes the copies were the cost, not a source of
//! L1 reuse: dropping them made the `k = 512` weight-gradient GEMMs
//! 1.5–2.0× faster (DESIGN.md "Tensor backend"; `examples/layer_probe.rs`
//! times every model shape). Operands and accumulators are all f32: bf16
//! operands measured 1.2–1.5× slower (DESIGN.md "Deviations").
//!
//! # Determinism
//!
//! Every output element is produced by exactly one micro-kernel accumulator
//! that sums `A[i,kk]·B[kk,j]` for `kk = 0, 1, …, k−1` in ascending order —
//! the block decomposition changes the order rows are visited in, never the
//! per-element order of floating-point operations. The driver runs on the
//! calling thread (threads live above the kernels, see DESIGN.md "Where
//! threads live"), so a product's bits depend on its operands alone.
//! Remainder tiles reuse the same kernel: B lanes past `n` are zero-padded
//! and tile rows past `m` re-read the last live row; both feed accumulators
//! that are never written back, so edges follow the identical accumulation
//! order too.
//!
//! Every kernel issues one fused multiply-add per element per `k` step, so
//! there is one bit class: all three return the same bits on every shape,
//! layout and host, and [`Kernel::name`] reports a speed choice only.

use crate::dispatch::{dispatched, Kernel};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_set1_ps,
    _mm512_setzero_ps,
};

/// Register-tile rows of the portable and AVX2+FMA kernels.
const MR: usize = 4;
/// Register-tile rows of the AVX-512 kernel.
const MR_AVX512: usize = 8;
/// Register-tile columns per B panel (two 8-lane AVX2 vectors, one zmm).
const NR: usize = 16;
/// Rows of C per row block (a multiple of both tile heights; sized so the A
/// rows of a block stay cache-resident while every B panel passes over them).
const MC: usize = 32;

/// Copy panel `p` of B (columns `p·NR .. p·NR+NR`) into `dst: [k, NR]`,
/// every element of it: columns past `n` are written as zeros. Only a
/// transposed B's panels and a row-major B's partial last panel are copied.
///
/// `b` is `[k, n]` row-major when `trans` is false, `[n, k]` row-major when
/// true (the `matmul_nt` layout, read as its transpose).
fn pack_b_panel(b: &[f32], k: usize, n: usize, trans: bool, p: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), k * NR);
    let j0 = p * NR;
    let w = NR.min(n - j0);
    if w < NR {
        for out in dst.chunks_exact_mut(NR) {
            out[w..].fill(0.0);
        }
    }
    if !trans {
        for (kk, out) in dst.chunks_exact_mut(NR).enumerate() {
            out[..w].copy_from_slice(&b[kk * n + j0..][..w]);
        }
    } else {
        // Read each source row (a column of Bᵀ) at unit stride; the strided
        // writes land in the small in-cache destination panel.
        for j in 0..w {
            let src = &b[(j0 + j) * k..(j0 + j) * k + k];
            for (kk, &s) in src.iter().enumerate() {
                dst[kk * NR + j] = s;
            }
        }
    }
}

/// Where the kernels find the A operand of one row block, read in place: with
/// `R` the kernel's tile height, element `(i, kk)` of register tile `t` is
/// `a[base + (t·R + i)·row_stride + kk·k_stride]`. Row-major `A: [m, k]` is
/// `(row_stride, k_stride) = (k, 1)`; `matmul_tn`'s `A: [k, m]` is `(1, m)`.
#[derive(Clone, Copy)]
struct AView<'a> {
    a: &'a [f32],
    base: usize,
    row_stride: usize,
    k_stride: usize,
}

impl<'a> AView<'a> {
    /// The `R` rows of tile `t`, each a bounds-checked subslice running from
    /// the row's first element to its last (`kk = k−1`). Rows past `live`
    /// repeat the last live row, so an edge tile runs the interior's loop;
    /// their accumulators are never written back.
    #[inline(always)]
    fn tile<const R: usize>(&self, t: usize, k: usize, live: usize) -> [&'a [f32]; R] {
        std::array::from_fn(|i| {
            let first = self.base + (t * R + i.min(live - 1)) * self.row_stride;
            &self.a[first..first + (k - 1) * self.k_stride + 1]
        })
    }
}

/// Where the kernels find B's `n.div_ceil(NR)` column panels of [`NR`] lanes.
/// Panels `p < in_place` are read in place from row-major `b: [k, n]`: lane
/// `j` of k-row `kk` is `b[kk·n + p·NR + j]`. The rest are `[k, NR]` strips
/// [`pack_b_panel`] wrote into `packed`, from panel `in_place` on.
#[derive(Clone, Copy)]
struct BView<'a> {
    b: &'a [f32],
    n: usize,
    in_place: usize,
    packed: &'a [f32],
}

impl<'a> BView<'a> {
    /// Panel `p` as one bounds-checked subslice running from lane 0 of
    /// k-row 0 to the last lane of k-row `k−1`, with its k-row stride.
    #[inline(always)]
    fn panel(&self, p: usize, k: usize) -> (&'a [f32], usize) {
        if p < self.in_place {
            (&self.b[p * NR..p * NR + (k - 1) * self.n + NR], self.n)
        } else {
            (&self.packed[(p - self.in_place) * k * NR..][..k * NR], NR)
        }
    }
}

/// The portable and AVX2+FMA register tile: the `MR × NR` outputs of tile
/// `t` (`live` rows) against panel `p`, accumulated over the full `k` extent.
#[inline(always)]
fn micro_kernel(a: AView, t: usize, live: usize, b: BView, p: usize, k: usize) -> [[f32; NR]; MR] {
    let rows = a.tile::<MR>(t, k, live);
    let (panel, b_stride) = b.panel(p, k);
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let lanes = &panel[kk * b_stride..][..NR];
        for i in 0..MR {
            let aik = rows[i][kk * a.k_stride];
            for j in 0..NR {
                acc[i][j] = aik.mul_add(lanes[j], acc[i][j]);
            }
        }
    }
    acc
}

/// The AVX-512 register tile: `MR_AVX512` rows of tile `t` × the `P` panels
/// `p ..` of `b`, `8·P` zmm accumulators over the full `k` extent — per `k`
/// step `P` panel loads, eight broadcasts of `A[i, kk]` and `8·P` fused
/// multiply-adds, element for element the `mul_add` sequence of the 4 × 16
/// body. Writes the tile's live rows into `c_rows` (`[live, n]`) at the
/// panels' columns, clipped to `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn tile_avx512<const P: usize>(a: AView, t: usize, b: BView, p: usize, k: usize, c_rows: &mut [f32]) {
    let rows = a.tile::<MR_AVX512>(t, k, c_rows.len() / b.n);
    let panels: [(&[f32], usize); P] = std::array::from_fn(|q| b.panel(p + q, k));
    let mut acc = [[_mm512_setzero_ps(); P]; MR_AVX512];
    for kk in 0..k {
        let mut bv = [_mm512_setzero_ps(); P];
        for q in 0..P {
            let (panel, b_stride) = panels[q];
            // SAFETY: `panel` is a bounds-checked subslice of `(k−1)·b_stride
            // + NR` f32 and `kk < k`, so the NR = 16 f32 (64 bytes) an
            // unaligned 512-bit load reads from `kk·b_stride` lie inside it.
            bv[q] = unsafe { _mm512_loadu_ps(panel.as_ptr().add(kk * b_stride)) };
        }
        for i in 0..MR_AVX512 {
            let aik = _mm512_set1_ps(rows[i][kk * a.k_stride]);
            for q in 0..P {
                acc[i][q] = _mm512_fmadd_ps(aik, bv[q], acc[i][q]);
            }
        }
    }
    for (out_row, acc_row) in c_rows.chunks_exact_mut(b.n).zip(&acc) {
        for q in 0..P {
            let j = (p + q) * NR;
            let out = &mut out_row[j..b.n.min(j + NR)];
            let mask = ((1u32 << out.len()) - 1) as u16;
            // SAFETY: `out` is a bounds-checked subslice of 1..=16 f32 and
            // `mask` enables exactly lanes `0..out.len()`; a masked store
            // does not touch memory of the lanes it leaves out.
            unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr(), mask, acc_row[q]) };
        }
    }
}

/// How many B panels the AVX-512 tile takes at once when `left` panels
/// remain: three while at least three do, except that four run as 2 + 2 and
/// a remainder of one or two as one tile, so only a one-panel B runs the
/// one-panel tile and every multiple of 48 lanes runs three-panel tiles only.
#[cfg(target_arch = "x86_64")]
fn avx512_group(left: usize) -> usize {
    match left {
        4 => 2,
        1..=3 => left,
        _ => 3,
    }
}

/// `compute_block`'s AVX-512 build: B panels are taken in the
/// groups of [`avx512_group`], each swept over every row tile of the block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn compute_block_avx512(a: AView, b: BView, k: usize, c_block: &mut [f32]) {
    let panels = b.n.div_ceil(NR);
    let mut p = 0;
    while p < panels {
        let group = avx512_group(panels - p);
        for (t, c_rows) in c_block.chunks_mut(MR_AVX512 * b.n).enumerate() {
            match group {
                3 => tile_avx512::<3>(a, t, b, p, k, c_rows),
                2 => tile_avx512::<2>(a, t, b, p, k, c_rows),
                _ => tile_avx512::<1>(a, t, b, p, k, c_rows),
            }
        }
        p += group;
    }
}

dispatched!(
    /// Compute one row block of C, `c_block: [rows, n]`, fully overwritten:
    /// the 4 × 16 tile over every B panel, or the AVX-512 tiles of
    /// `compute_block_avx512`.
    fn compute_block, avx512 = compute_block_avx512, (a: AView, b: BView, k: usize, c_block: &mut [f32]) {
        let n = b.n;
        for p in 0..n.div_ceil(NR) {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            for (t, c_rows) in c_block.chunks_mut(MR * n).enumerate() {
                // The tile hands its accumulators back by value: with the write-back
                // inside it, they leave the vector registers and the k loop goes scalar.
                let acc = micro_kernel(a, t, c_rows.len() / n, b, p, k);
                for (out_row, acc_row) in c_rows.chunks_exact_mut(n).zip(&acc) {
                    out_row[j0..j0 + w].copy_from_slice(&acc_row[..w]);
                }
            }
        }
    }
);

/// `C = op(A) · op(B)` through the blocked core, on the kernel this CPU
/// supports best, packing B's copied panels into a buffer of its own: the
/// wrapper for cold callers. A hot loop passes a buffer it keeps to
/// [`gemm_with`].
///
/// - `a` is `[m, k]` row-major, or `[k, m]` when `a_trans` (read as Aᵀ);
/// - `b` is `[k, n]` row-major, or `[n, k]` when `b_trans` (read as Bᵀ);
/// - `c` is `[m, n]` row-major and fully overwritten.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    gemm_with(&mut Vec::new(), m, n, k, a, a_trans, b, b_trans, c);
}

/// [`gemm`] with the caller's pack buffer: `pack_b_panel`'s strips (every
/// panel of a transposed B, the partial last panel of a row-major one) go
/// into `pack`, grown when too short and otherwise reused, so a warm call
/// takes nothing from the heap. Its contents on entry are never read.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    pack: &mut Vec<f32>,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    gemm_core(Kernel::detected(), pack, m, n, k, a, a_trans, b, b_trans, c);
}

/// [`gemm`] on a kernel given as a value, for the kernel-parity tests.
/// The dispatched `compute_block` panics when this CPU does not support
/// `kernel`.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_on(
    kernel: Kernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    gemm_core(kernel, &mut Vec::new(), m, n, k, a, a_trans, b, b_trans, c);
}

#[allow(clippy::too_many_arguments)]
fn gemm_core(
    kernel: Kernel,
    pack: &mut Vec<f32>,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A buffer length");
    assert_eq!(b.len(), k * n, "B buffer length");
    assert_eq!(c.len(), m * n, "C buffer length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }

    let in_place = if b_trans { 0 } else { n / NR };
    let len = (n.div_ceil(NR) - in_place) * k * NR;
    if pack.len() < len {
        pack.resize(len, 0.0);
    }
    let packed = &mut pack[..len];
    if cfg!(debug_assertions) {
        packed.fill(f32::NAN);
    }
    for (p, dst) in packed.chunks_exact_mut(k * NR).enumerate() {
        pack_b_panel(b, k, n, b_trans, in_place + p, dst);
    }
    let b = BView { b, n, in_place, packed };
    for (blk, c_block) in c.chunks_mut(MC * n).enumerate() {
        let a = if a_trans {
            AView { a, base: blk * MC, row_stride: 1, k_stride: m }
        } else {
            AView { a, base: blk * MC * k, row_stride: k, k_stride: 1 }
        };
        compute_block(kernel, a, b, k, c_block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f64 reference with the same operand layouts.
    fn naive(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        a_trans: bool,
        b: &[f32],
        b_trans: bool,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for kk in 0..k {
                    let av = if a_trans { a[kk * m + i] } else { a[i * k + kk] };
                    let bv = if b_trans { b[j * k + kk] } else { b[kk * n + j] };
                    s += (av * bv) as f64;
                }
                c[i * n + j] = s as f32;
            }
        }
        c
    }

    #[test]
    fn all_layouts_match_reference_on_edge_shapes() {
        let mut rng = crate::Rng::seed_from(17);
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (17, 19, 23), (33, 16, 4), (5, 33, 65)] {
            let a_nn: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b_nn: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, &a_nn, false, &b_nn, false, &mut c);
            let r = naive(m, n, k, &a_nn, false, &b_nn, false);
            for (x, y) in c.iter().zip(&r) {
                assert!((x - y).abs() < 1e-3, "NN mismatch at {m}x{n}x{k}: {x} vs {y}");
            }
        }
    }

    /// The AVX-512 panel groups cover every panel once, are 1–3 panels wide,
    /// run a one-panel tile only when B is one panel wide, and run three at
    /// a time wherever the panels divide by three (every toy48 width).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_groups_cover_every_panel_without_a_lone_panel() {
        for panels in 1..=40 {
            let mut groups = Vec::new();
            let mut p = 0;
            while p < panels {
                groups.push(avx512_group(panels - p));
                p += groups.last().unwrap();
            }
            assert_eq!(p, panels);
            assert!(groups.iter().all(|g| (1..=3).contains(g)), "{panels}: {groups:?}");
            assert_eq!(groups.contains(&1), panels == 1, "{panels}: {groups:?}");
            if panels % 3 == 0 {
                assert!(groups.iter().all(|&g| g == 3), "{panels}: {groups:?}");
            }
        }
    }

    /// A reused pack buffer, whatever it holds, gives the bits of a fresh
    /// one: transposed B, a partial last panel, and a shorter product after
    /// a longer one.
    #[test]
    fn a_dirty_pack_buffer_keeps_the_bits() {
        let mut rng = crate::Rng::seed_from(5);
        let mut pack = vec![f32::NAN; 7];
        for &(m, n, k, b_trans) in &[(9, 20, 33, false), (9, 20, 33, true), (5, 48, 17, true), (3, 5, 7, false)] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let (mut fresh, mut reused) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
            gemm(m, n, k, &a, false, &b, b_trans, &mut fresh);
            pack.iter_mut().for_each(|x| *x = f32::NAN);
            gemm_with(&mut pack, m, n, k, &a, false, &b, b_trans, &mut reused);
            let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused), bits(&fresh), "{m}x{n}x{k}, b_trans {b_trans}");
        }
    }

    #[test]
    fn zero_k_gives_zero_output() {
        let mut c = vec![7.0f32; 6];
        gemm(2, 3, 0, &[], false, &[], false, &mut c);
        assert!(c.iter().all(|&x| x == 0.0));
    }
}
