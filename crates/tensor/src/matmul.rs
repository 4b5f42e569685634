//! The GEMM family: `matmul` (NN), `matmul_nt` (NBᵀ), `matmul_tn` (AᵀB), all
//! lowered to the one cache-blocked f32 micro-kernel in [`crate::gemm`].
//!
//! Layout is handled by the A and B views handed to the kernel (both read in
//! place, except a transposed B, which is packed), so every variant runs the
//! identical branch-free inner loop — in particular
//! `matmul_nt` no longer computes one strided dot product per output element,
//! and no variant skips zero multiplicands (a data-dependent branch that also
//! suppressed NaN/Inf propagation: `0·NaN` must stay NaN).
//!
//! See the [`crate::gemm`] module docs for the blocking scheme and the
//! determinism argument (fixed per-element accumulation order).

use crate::gemm::gemm;
use crate::Tensor;

/// `C = A @ B` for `A: [m, k]`, `B: [k, n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::for_overwrite(&[a.shape()[0], b.shape()[1]]);
    matmul_into(a, b, &mut c);
    c
}

/// `C = A @ B` written into a preallocated output (contents overwritten).
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
    assert_eq!(c.shape(), &[m, n], "output shape mismatch");
    gemm(m, n, k, a.data(), false, b.data(), false, c.data_mut());
}

/// `C = A^T @ B` for `A: [k, m]`, `B: [k, n]` — the shape that appears in
/// weight gradients (`dW = X^T dY`), computed without materializing `A^T`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimension mismatch in matmul_tn");
    let mut c = Tensor::for_overwrite(&[m, n]);
    gemm(m, n, k, a.data(), true, b.data(), false, c.data_mut());
    c
}

/// `C = A @ B^T` for `A: [m, k]`, `B: [n, k]` — the shape that appears in
/// input gradients (`dX = dY W^T`) and attention scores (`Q K^T`), computed
/// without materializing `B^T`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimension mismatch in matmul_nt");
    let mut c = Tensor::for_overwrite(&[m, n]);
    gemm(m, n, k, a.data(), false, b.data(), true, c.data_mut());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for kk in 0..k {
                    s += (a.at(&[i, kk]) * b.at(&[kk, j])) as f64;
                }
                *c.at_mut(&[i, j]) = s as f32;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive_small() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(&[7, 5], &mut rng);
        let b = Tensor::randn(&[5, 9], &mut rng);
        assert!(matmul(&a, &b).max_abs_diff(&naive(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_matches_naive_large_parallel_path() {
        let mut rng = Rng::seed_from(2);
        let a = Tensor::randn(&[80, 70], &mut rng);
        let b = Tensor::randn(&[70, 90], &mut rng);
        assert!(matmul(&a, &b).max_abs_diff(&naive(&a, &b)) < 1e-3);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(&[6, 6], &mut rng);
        let mut eye = Tensor::zeros(&[6, 6]);
        for i in 0..6 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(&[11, 6], &mut rng);
        let b = Tensor::randn(&[11, 8], &mut rng);
        assert!(matmul_tn(&a, &b).max_abs_diff(&matmul(&a.t(), &b)) < 1e-4);

        let c = Tensor::randn(&[9, 7], &mut rng);
        let d = Tensor::randn(&[5, 7], &mut rng);
        assert!(matmul_nt(&c, &d).max_abs_diff(&matmul(&c, &d.t())) < 1e-4);
    }

    /// All three variants share one accumulation order, so transposing an
    /// operand source never changes a single bit of the result.
    #[test]
    fn variants_are_bitwise_identical_under_transposition() {
        let mut rng = Rng::seed_from(12);
        for &(m, n, k) in &[(7, 9, 5), (70, 90, 80)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let nn = matmul(&a, &b);
            let tn = matmul_tn(&a.t(), &b);
            let nt = matmul_nt(&a, &b.t());
            for (x, y) in nn.data().iter().zip(tn.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "tn differs at {m}x{n}x{k}");
            }
            for (x, y) in nn.data().iter().zip(nt.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "nt differs at {m}x{n}x{k}");
            }
        }
    }

    /// Zero multiplicands must not short-circuit the accumulation: `0 · NaN`
    /// is NaN and `0 · ∞` is NaN, and both must reach the output. (The old
    /// kernels skipped `a == 0.0` rows as an "optimization", silently turning
    /// NaN-corrupted operands into finite outputs.)
    #[test]
    fn nan_and_inf_propagate_through_zero_rows() {
        for variant in ["nn", "tn", "nt"] {
            // A has an all-zero row; B carries a NaN and an Inf.
            let a = Tensor::from_vec(&[2, 2], vec![0.0, 0.0, 1.0, 2.0]);
            let mut b = Tensor::from_vec(&[2, 2], vec![1.0, f32::NAN, f32::INFINITY, 4.0]);
            let c = match variant {
                "nn" => matmul(&a, &b),
                "tn" => matmul_tn(&a.t(), &b),
                _ => {
                    b = b.t();
                    matmul_nt(&a, &b)
                }
            };
            // Row 0 of C multiplies the zero row against NaN/Inf columns.
            assert!(
                c.at(&[0, 0]).is_nan() && c.at(&[0, 1]).is_nan(),
                "{variant}: zero row must produce NaN against NaN/Inf operands, got {:?}",
                c.data()
            );
            assert!(!c.all_finite());
        }
    }

    #[test]
    fn tn_matches_naive_across_several_row_blocks() {
        // 80 output rows span three `MC` row blocks, the last one partial.
        let mut rng = Rng::seed_from(6);
        let a = Tensor::randn(&[90, 80], &mut rng);
        let b = Tensor::randn(&[90, 70], &mut rng);
        assert!(matmul_tn(&a, &b).max_abs_diff(&naive(&a.t(), &b)) < 1e-3);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(&[4, 4], &mut rng);
        let b = Tensor::randn(&[4, 4], &mut rng);
        let mut c = Tensor::full(&[4, 4], 123.0); // stale contents must be overwritten
        matmul_into(&a, &b, &mut c);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-4);
    }
}
