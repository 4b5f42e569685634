//! The packed, cache-blocked GEMM core shared by every layout variant.
//!
//! The three public GEMM entry points (`matmul`/`matmul_nt`/`matmul_tn`) lower
//! to one f32 driver, [`gemm`], that follows the classic three-stage
//! BLIS/GotoBLAS structure scaled down to this workspace's shapes:
//!
//! 1. **Pack B** once into column panels of [`NR`] columns, each stored as a
//!    contiguous `[k, NR]` strip (zero-padded tail panel). A transposed source
//!    (`matmul_nt`'s `B: [n, k]`) is transposed *during* the pack, so the
//!    compute stage never sees a strided operand — this is what removes
//!    `matmul_nt`'s one-strided-dot-per-element behaviour.
//! 2. **Pack A only when transposed.** A row-major `A: [m, k]` (`matmul`,
//!    `matmul_nt`) is read where it lies: a register tile broadcasts
//!    `A[i, kk]` straight from row `i`, so no copy of A is made. `matmul_tn`'s
//!    `A: [k, m]` is packed per row block of [`MC`] rows into `[k, MR]`
//!    micro-panels. Both reach the kernels as one A view (`AView`)
//!    `(base, row_stride, k_stride)`: `(k, 1)` in place, `(1, MR)` packed.
//! 3. **Micro-kernel**: an `MR × NR` register tile accumulated over the full
//!    `k` extent, one multiply-add per `k` step in ascending `k`. Three
//!    builds, picked once per process by [`Kernel::detected`]: a portable
//!    one (4 × 16, plain `a*b + c`, autovectorized), the same body under
//!    `#[target_feature(enable = "avx2,fma")]` (`mul_add` is one vfmadd), and
//!    an AVX-512 one written with `std::arch` intrinsics — 8 rows × two
//!    adjacent B panels, 16 zmm accumulators, one `_mm512_fmadd_ps` each per
//!    `k` step (a lone last panel runs the same tile one panel wide).
//!
//! Operands, packs and accumulators are all f32: at these cache-resident
//! sizes bf16 operands measured 1.2–1.5× slower (DESIGN.md "Deviations").
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
//! The two FMA kernels round identically (one fused multiply-add per element
//! per `k` step, whatever the register width), so AVX-512 adds no bit class:
//! a host's results are those of the FMA class or of the non-FMA (portable)
//! class, and [`kernel_name`] says which arithmetic ran.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_set1_ps,
    _mm512_setzero_ps,
};

/// Register-tile rows of the portable and AVX2+FMA kernels.
pub const MR: usize = 4;
/// Register-tile rows of the AVX-512 kernel.
pub const MR_AVX512: usize = 8;
/// Register-tile columns per B panel (two 8-lane AVX2 vectors, one zmm).
pub const NR: usize = 16;
/// Rows of C per row block (a multiple of both tile heights; sized so the A
/// rows of a block stay cache-resident while every B panel passes over them).
pub const MC: usize = 32;

/// The micro-kernel builds, ordered by what the CPU must support: each one
/// runs wherever a later one does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// 4 × 16 tile, separate multiply and add, baseline x86-64 (or any other
    /// target): the non-FMA bit class.
    Portable,
    /// The same 4 × 16 body built with AVX2 and fused multiply-add.
    Avx2Fma,
    /// 8 × 32 tile of `avx512f` intrinsics; bit for bit what `Avx2Fma` returns.
    Avx512,
}

impl Kernel {
    /// Every kernel, in support order (what the parity tests iterate).
    pub const ALL: [Kernel; 3] = [Kernel::Portable, Kernel::Avx2Fma, Kernel::Avx512];

    /// The widest kernel this CPU supports: the workspace's one runtime
    /// feature detector, read once per process. The choice is machine-global,
    /// so it can never differ between threads or between runs on one host. It
    /// switches the GEMM micro-kernel here and, through `Kernel::has_avx2`,
    /// the AVX2 build of the `exp` sweeps in [`crate::sweeps`] (which widens
    /// lanes only and never fuses).
    pub fn detected() -> Kernel {
        static DETECTED: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
                return if std::arch::is_x86_feature_detected!("avx512f") {
                    Kernel::Avx512
                } else {
                    Kernel::Avx2Fma
                };
            }
            Kernel::Portable
        })
    }

    /// `"portable" | "avx2+fma" | "avx512f"`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Avx2Fma => "avx2+fma",
            Kernel::Avx512 => "avx512f",
        }
    }

    /// True when this kernel's CPU has AVX2.
    pub(crate) fn has_avx2(self) -> bool {
        self >= Kernel::Avx2Fma
    }

    /// Rows of this kernel's register tile.
    fn mr(self) -> usize {
        match self {
            Kernel::Avx512 => MR_AVX512,
            _ => MR,
        }
    }
}

/// Name of the kernel every GEMM of this process runs. A served digest or a
/// checkpoint is comparable across hosts only within one FMA class:
/// `"avx2+fma"` and `"avx512f"` produce the same bits, `"portable"` others.
pub fn kernel_name() -> &'static str {
    Kernel::detected().name()
}

/// Pack panel `p` of B (columns `p·NR .. p·NR+NR`) into `dst: [k, NR]`,
/// zero-padding columns past `n`.
///
/// `b` is `[k, n]` row-major when `trans` is false, `[n, k]` row-major when
/// true (the `matmul_nt` layout, read as its transpose).
fn pack_b_panel(b: &[f32], k: usize, n: usize, trans: bool, p: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), k * NR);
    let j0 = p * NR;
    let w = NR.min(n - j0);
    if !trans {
        for kk in 0..k {
            let out = &mut dst[kk * NR..kk * NR + NR];
            out[..w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            out[w..].fill(0.0);
        }
    } else {
        // Read each source row (a column of Bᵀ) at unit stride; the strided
        // writes land in the small in-cache destination panel.
        if w < NR {
            dst.fill(0.0);
        }
        for j in 0..w {
            let src = &b[(j0 + j) * k..(j0 + j) * k + k];
            for (kk, &s) in src.iter().enumerate() {
                dst[kk * NR + j] = s;
            }
        }
    }
}

/// Pack rows `i0 .. i0+rows` of Aᵀ — `a` is `[k, m]` row-major, the
/// `matmul_tn` layout — into `[k, mr]` micro-panels. Each `k`-row of `a`
/// contributes `mr` consecutive elements. Panel lanes past the
/// block's last row keep stale values: [`AView::tile`] never reads them.
fn pack_a_block(a: &[f32], m: usize, k: usize, i0: usize, rows: usize, mr: usize, dst: &mut [f32]) {
    for t in 0..rows.div_ceil(mr) {
        let r0 = t * mr;
        let live = mr.min(rows - r0);
        let panel = &mut dst[t * mr * k..(t + 1) * mr * k];
        for kk in 0..k {
            let src = &a[kk * m + i0 + r0..kk * m + i0 + r0 + live];
            panel[kk * mr..kk * mr + live].copy_from_slice(src);
        }
    }
}

/// Where the kernels find the A operand of one row block: with `R` the
/// kernel's tile height, element `(i, kk)` of register tile `t` is
/// `a[base + t·R·k + i·row_stride + kk·k_stride]`. Row-major A read in place
/// is `(row_stride, k_stride) = (k, 1)`; the `[k, R]` micro-panels
/// [`pack_a_block`] writes are `(1, R)`.
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
            let first = self.base + t * R * k + i.min(live - 1) * self.row_stride;
            &self.a[first..first + (k - 1) * self.k_stride + 1]
        })
    }
}

/// The portable register tile: accumulate `MR × NR` outputs over the full `k`
/// extent. `rows` is one [`AView::tile`], `bp` one `[k, NR]` B panel.
///
/// `FMA` selects fused multiply-add: `true` only inside the
/// `#[target_feature(enable = "avx2,fma")]` instantiation, where `mul_add`
/// compiles to a single vfmadd; elsewhere it would fall back to a libm call.
#[inline(always)]
fn micro_kernel<const FMA: bool>(rows: [&[f32]; MR], k_stride: usize, bp: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (kk, b) in bp.chunks_exact(NR).enumerate() {
        for i in 0..MR {
            let aik = rows[i][kk * k_stride];
            for j in 0..NR {
                if FMA {
                    acc[i][j] = aik.mul_add(b[j], acc[i][j]);
                } else {
                    acc[i][j] += aik * b[j];
                }
            }
        }
    }
    acc
}

/// Compute one row block of C from its A rows and the shared packed B
/// panels. `c_block` is `[rows, n]`, fully overwritten.
#[inline(always)]
fn compute_block_body<const FMA: bool>(a: AView, bpack: &[f32], k: usize, n: usize, c_block: &mut [f32]) {
    for (p, bp) in bpack.chunks_exact(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for (t, c_rows) in c_block.chunks_mut(MR * n).enumerate() {
            let acc = micro_kernel::<FMA>(a.tile(t, k, c_rows.len() / n), a.k_stride, bp);
            for (out_row, acc_row) in c_rows.chunks_exact_mut(n).zip(&acc) {
                out_row[j0..j0 + w].copy_from_slice(&acc_row[..w]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn compute_block_avx2(a: AView, bpack: &[f32], k: usize, n: usize, c_block: &mut [f32]) {
    compute_block_body::<true>(a, bpack, k, n, c_block);
}

/// The AVX-512 register tile: `MR_AVX512` rows × `P` adjacent B panels
/// (`bp: [P, k, NR]`), `8·P` zmm accumulators over the full `k` extent — per
/// `k` step `P` panel loads, eight broadcasts of `A[i, kk]` and `8·P` fused
/// multiply-adds, element for element the `mul_add` sequence of the AVX2+FMA
/// build. Writes the tile's live rows into `c_rows` (`[live, n]`, the C rows
/// of this tile) at columns `j0 ..`, clipped to `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn tile_avx512<const P: usize>(
    rows: [&[f32]; MR_AVX512],
    k_stride: usize,
    bp: &[f32],
    c_rows: &mut [f32],
    n: usize,
    j0: usize,
) {
    let k = bp.len() / (P * NR);
    let mut acc = [[_mm512_setzero_ps(); P]; MR_AVX512];
    for kk in 0..k {
        let mut b = [_mm512_setzero_ps(); P];
        for q in 0..P {
            let lanes = &bp[(q * k + kk) * NR..(q * k + kk + 1) * NR];
            // SAFETY: `lanes` is a bounds-checked subslice of exactly NR = 16
            // f32, the 64 bytes an unaligned 512-bit load reads.
            b[q] = unsafe { _mm512_loadu_ps(lanes.as_ptr()) };
        }
        for i in 0..MR_AVX512 {
            let aik = _mm512_set1_ps(rows[i][kk * k_stride]);
            for q in 0..P {
                acc[i][q] = _mm512_fmadd_ps(aik, b[q], acc[i][q]);
            }
        }
    }
    for (out_row, acc_row) in c_rows.chunks_exact_mut(n).zip(&acc) {
        for q in 0..P {
            let j = j0 + q * NR;
            let out = &mut out_row[j..n.min(j + NR)];
            let mask = ((1u32 << out.len()) - 1) as u16;
            // SAFETY: `out` is a bounds-checked subslice of 1..=16 f32 and
            // `mask` enables exactly lanes `0..out.len()`; a masked store
            // does not touch memory of the lanes it leaves out.
            unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr(), mask, acc_row[q]) };
        }
    }
}

/// [`compute_block_body`] for the AVX-512 tile: B panels are taken two at a
/// time, an odd last one alone.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn compute_block_avx512(a: AView, bpack: &[f32], k: usize, n: usize, c_block: &mut [f32]) {
    const R: usize = MR_AVX512;
    for (pair, bp) in bpack.chunks(2 * k * NR).enumerate() {
        let j0 = pair * 2 * NR;
        for (t, c_rows) in c_block.chunks_mut(R * n).enumerate() {
            let tile = a.tile(t, k, c_rows.len() / n);
            if bp.len() == 2 * k * NR {
                tile_avx512::<2>(tile, a.k_stride, bp, c_rows, n, j0);
            } else {
                tile_avx512::<1>(tile, a.k_stride, bp, c_rows, n, j0);
            }
        }
    }
}

/// Run `kernel`'s block compute. The caller has checked that the CPU
/// supports `kernel` ([`gemm_on`] asserts it).
#[inline]
fn compute_block(kernel: Kernel, a: AView, bpack: &[f32], k: usize, n: usize, c_block: &mut [f32]) {
    match kernel {
        // SAFETY (both arms): `kernel <= Kernel::detected()`, asserted by
        // `gemm_on`, so the CPU has the features the callee is built with.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => unsafe { compute_block_avx512(a, bpack, k, n, c_block) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2Fma => unsafe { compute_block_avx2(a, bpack, k, n, c_block) },
        _ => compute_block_body::<false>(a, bpack, k, n, c_block),
    }
}

/// `C = op(A) · op(B)` through the packed core, on the kernel this CPU
/// supports best.
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
    gemm_on(Kernel::detected(), m, n, k, a, a_trans, b, b_trans, c);
}

/// [`gemm`] on a kernel given as a value, for the kernel-parity tests.
/// Panics when this CPU does not support `kernel`.
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
    assert!(kernel <= Kernel::detected(), "this CPU does not support the {} kernel", kernel.name());
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

    let panels = n.div_ceil(NR);
    let mut bpack = vec![0.0f32; panels * k * NR];
    for (p, dst) in bpack.chunks_mut(k * NR).enumerate() {
        pack_b_panel(b, k, n, b_trans, p, dst);
    }
    let mr = kernel.mr();
    let mut apack = vec![0.0f32; if a_trans { MC.min(m.div_ceil(mr) * mr) * k } else { 0 }];
    for (blk, c_block) in c.chunks_mut(MC * n).enumerate() {
        let i0 = blk * MC;
        let view = if a_trans {
            pack_a_block(a, m, k, i0, c_block.len() / n, mr, &mut apack);
            AView { a: &apack, base: 0, row_stride: 1, k_stride: mr }
        } else {
            AView { a, base: i0 * k, row_stride: k, k_stride: 1 }
        };
        compute_block(kernel, view, &bpack, k, n, c_block);
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

    #[test]
    fn zero_k_gives_zero_output() {
        let mut c = vec![7.0f32; 6];
        gemm(2, 3, 0, &[], false, &[], false, &mut c);
        assert!(c.iter().all(|&x| x == 0.0));
    }
}
