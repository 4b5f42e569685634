//! The packed, cache-blocked GEMM core shared by every layout variant.
//!
//! All six public GEMM entry points (`matmul`/`matmul_nt`/`matmul_tn`, f32 and
//! bf16) lower to one driver, [`gemm`], that follows the classic three-stage
//! BLIS/GotoBLAS structure scaled down to this workspace's shapes:
//!
//! 1. **Pack B** once into column panels of [`NR`] columns, each stored as a
//!    contiguous `[k, NR]` strip (zero-padded tail panel). A transposed source
//!    (`matmul_nt`'s `B: [n, k]`) is transposed *during* the pack, so the
//!    compute stage never sees a strided operand — this is what removes
//!    `matmul_nt`'s one-strided-dot-per-element behaviour.
//! 2. **Pack A** per row block of [`MC`] rows into interleaved micro-panels:
//!    micro-panel `t` holds rows `t·MR .. t·MR+MR` laid out `[k, MR]`, so the
//!    micro-kernel reads one contiguous `MR`-chunk of A and one contiguous
//!    `NR`-chunk of B per `k` step. `matmul_tn`'s transposed A packs here the
//!    same way.
//! 3. **Micro-kernel**: an `MR × NR` register tile accumulated over the full
//!    `k` extent with an explicitly unrolled multiply-add over unit-stride
//!    slices. The loop body is shape-independent and branch-free (no
//!    data-dependent skips), so the autovectorizer lifts the `NR`-wide inner
//!    loop to SIMD; on x86-64 with AVX2+FMA available at runtime, a
//!    `#[target_feature]`-compiled instantiation uses fused multiply-adds.
//!
//! bf16 operands (`u16` bit patterns) are widened to f32 **during packing**,
//! so the memory traffic against the large source matrices is halved while
//! every arithmetic operation — multiplies and the accumulator — stays f32.
//! This is the paper's "BF16 compute with FP32 accumulation" policy (§V-A)
//! realized in software.
//!
//! # Determinism
//!
//! Every output element is produced by exactly one micro-kernel accumulator
//! that sums `A[i,kk]·B[kk,j]` for `kk = 0, 1, …, k−1` in ascending order —
//! the block decomposition changes the order rows are visited in, never the
//! per-element order of floating-point operations. The driver runs on the
//! calling thread (threads live above the kernels, see DESIGN.md "Where
//! threads live"), so a product's bits depend on its operands alone.
//! Remainder tiles reuse the same kernel against zero-padded panel lanes;
//! padded lanes feed accumulators that are never written back, so edges follow
//! the identical accumulation order too.

/// Register-tile rows per micro-panel.
pub const MR: usize = 4;
/// Register-tile columns per B panel (two 8-lane AVX2 vectors).
pub const NR: usize = 16;
/// Rows of C per row block (a multiple of `MR`; sized so a packed A block of
/// `MC·k` f32 stays L2-resident for the model's `k` range).
pub const MC: usize = 32;

/// A GEMM operand element: anything that widens to f32. Arithmetic is always
/// f32; implementors only define the storage format.
pub trait Scalar: Copy + Send + Sync {
    fn widen(self) -> f32;
}

impl Scalar for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
}

/// bf16 stored as its raw bit pattern: the top 16 bits of the f32 it rounds.
impl Scalar for u16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        f32::from_bits((self as u32) << 16)
    }
}

/// True once the CPU is known to support AVX2+FMA: the workspace's one
/// runtime feature detector and the switch of both dispatched kernels — the
/// FMA micro-kernel build here and the AVX2 build of the `exp` sweeps in
/// [`crate::sweeps`] (which widens lanes only and never fuses).
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0); // 0 unknown, 1 yes, 2 no
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            STATE.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
            yes
        }
    }
}

/// Pack panel `p` of B (columns `p·NR .. p·NR+NR`) into `dst: [k, NR]`,
/// widening to f32 and zero-padding columns past `n`.
///
/// `b` is `[k, n]` row-major when `trans` is false, `[n, k]` row-major when
/// true (the `matmul_nt` layout, read as its transpose).
fn pack_b_panel<T: Scalar>(b: &[T], k: usize, n: usize, trans: bool, p: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), k * NR);
    let j0 = p * NR;
    let w = NR.min(n - j0);
    if !trans {
        for kk in 0..k {
            let src = &b[kk * n + j0..kk * n + j0 + w];
            let out = &mut dst[kk * NR..kk * NR + NR];
            for (o, &s) in out.iter_mut().zip(src) {
                *o = s.widen();
            }
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
                dst[kk * NR + j] = s.widen();
            }
        }
    }
}

/// Pack rows `i0 .. i0+rows` of A into interleaved `[k, MR]` micro-panels,
/// widening to f32 and zero-padding rows past the block.
///
/// `a` is `[m, k]` row-major when `trans` is false, `[k, m]` row-major when
/// true (the `matmul_tn` layout, read as its transpose).
fn pack_a_block<T: Scalar>(
    a: &[T],
    m: usize,
    k: usize,
    trans: bool,
    i0: usize,
    rows: usize,
    dst: &mut [f32],
) {
    let tiles = rows.div_ceil(MR);
    debug_assert!(dst.len() >= tiles * MR * k);
    for t in 0..tiles {
        let r0 = t * MR;
        let live = MR.min(rows - r0);
        let panel = &mut dst[t * MR * k..(t + 1) * MR * k];
        if !trans {
            for i in 0..live {
                let src = &a[(i0 + r0 + i) * k..(i0 + r0 + i) * k + k];
                for (kk, &s) in src.iter().enumerate() {
                    panel[kk * MR + i] = s.widen();
                }
            }
            if live < MR {
                for kk in 0..k {
                    panel[kk * MR + live..kk * MR + MR].fill(0.0);
                }
            }
        } else {
            // A is [k, m]: each k-row contributes MR consecutive elements.
            for kk in 0..k {
                let src = &a[kk * m + i0 + r0..kk * m + i0 + r0 + live];
                let out = &mut panel[kk * MR..kk * MR + MR];
                for (o, &s) in out.iter_mut().zip(src) {
                    *o = s.widen();
                }
                out[live..].fill(0.0);
            }
        }
    }
}

/// The register-tile micro-kernel: accumulate `MR × NR` outputs over the full
/// `k` extent. `ap` is one `[k, MR]` micro-panel, `bp` one `[k, NR]` B panel.
///
/// `FMA` selects fused multiply-add: `true` only inside the
/// `#[target_feature(enable = "avx2,fma")]` instantiation, where `mul_add`
/// compiles to a single vfmadd; elsewhere it would fall back to a libm call.
#[inline(always)]
fn micro_kernel<const FMA: bool>(k: usize, ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(k) {
        for i in 0..MR {
            let aik = a[i];
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

/// Compute one row block of C from its packed A block and the shared packed
/// B panels. `c_block` is `[rows, n]`, fully overwritten.
#[inline(always)]
fn compute_block_body<const FMA: bool>(
    apack: &[f32],
    bpack: &[f32],
    k: usize,
    n: usize,
    rows: usize,
    c_block: &mut [f32],
) {
    let tiles = rows.div_ceil(MR);
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let bp = &bpack[p * k * NR..(p + 1) * k * NR];
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for t in 0..tiles {
            let ap = &apack[t * MR * k..(t + 1) * MR * k];
            let acc = micro_kernel::<FMA>(k, ap, bp);
            let live = MR.min(rows - t * MR);
            for (i, acc_row) in acc.iter().enumerate().take(live) {
                let row = t * MR + i;
                c_block[row * n + j0..row * n + j0 + w].copy_from_slice(&acc_row[..w]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn compute_block_avx2(
    apack: &[f32],
    bpack: &[f32],
    k: usize,
    n: usize,
    rows: usize,
    c_block: &mut [f32],
) {
    compute_block_body::<true>(apack, bpack, k, n, rows, c_block);
}

/// Runtime-dispatched block compute: AVX2+FMA build when the CPU has it,
/// portable build otherwise. The choice is machine-global, so it can never
/// differ between threads or between runs on the same host.
#[inline]
fn compute_block(apack: &[f32], bpack: &[f32], k: usize, n: usize, rows: usize, c_block: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: fma_available() checked avx2+fma support at runtime.
        unsafe { compute_block_avx2(apack, bpack, k, n, rows, c_block) };
        return;
    }
    compute_block_body::<false>(apack, bpack, k, n, rows, c_block);
}

/// `C = op(A) · op(B)` through the packed core.
///
/// - `a` is `[m, k]` row-major, or `[k, m]` when `a_trans` (read as Aᵀ);
/// - `b` is `[k, n]` row-major, or `[n, k]` when `b_trans` (read as Bᵀ);
/// - `c` is `[m, n]` row-major and fully overwritten.
///
/// Operand storage may mix f32 and bf16 freely; all arithmetic is f32.
#[allow(clippy::too_many_arguments)]
pub fn gemm<TA: Scalar, TB: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[TA],
    a_trans: bool,
    b: &[TB],
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

    let panels = n.div_ceil(NR);
    let mut bpack = vec![0.0f32; panels * k * NR];
    for (p, dst) in bpack.chunks_mut(k * NR).enumerate() {
        pack_b_panel(b, k, n, b_trans, p, dst);
    }
    let mut apack = vec![0.0f32; MC.min(m.div_ceil(MR) * MR) * k];
    for (blk, c_block) in c.chunks_mut(MC * n).enumerate() {
        let i0 = blk * MC;
        let rows = c_block.len() / n;
        pack_a_block(a, m, k, a_trans, i0, rows, &mut apack);
        compute_block(&apack, &bpack, k, n, rows, c_block);
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
        gemm::<f32, f32>(2, 3, 0, &[], false, &[], false, &mut c);
        assert!(c.iter().all(|&x| x == 0.0));
    }
}
