//! Tape-based reverse-mode automatic differentiation over `aeris-tensor`.
//!
//! A [`Tape`] is cheap, single-threaded, and dropped after the backward
//! pass.
//!
//! The op vocabulary is exactly what a pixel-level Swin diffusion transformer
//! needs: matmul (plus the `A·Bᵀ` variant used for attention scores), row-wise
//! softmax / RMSNorm, SiLU, elementwise arithmetic, column/row split-concat
//! (heads, SwiGLU), row gathers (window partition / shift / rolls), RoPE
//! rotations, and row-broadcast affine modulation (AdaLN) — plus the fused
//! forms `AerisModel::forward` records: windowed attention (`attention`) and the
//! block's norm-modulate / SwiGLU / gated-residual chains (`fused`).
//!
//! No model path records a tape any more: inference and training run the
//! hand-written executor of `aeris-core` (`SwinBlock::pass` and its
//! backward), on one process and in SWiPe's stages alike. The tape is the
//! gradient oracle those are tested against bit for bit, and the benchmark's
//! replay. [`Tape::backward`] is its one reverse sweep.
//!
//! Every op's backward is verified against central finite differences in the
//! `grad` test module and property tests.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

mod attention;
mod fused;
mod tape;

pub use aeris_tensor::attention::WindowAttnPlan;
pub use tape::{Grads, Tape, Var};

use aeris_tensor::Tensor;

/// Central finite-difference gradient of a scalar-valued function of one
/// tensor, used to verify analytic gradients in tests.
pub fn numeric_grad(f: &mut dyn FnMut(&Tensor) -> f64, x: &Tensor, eps: f32) -> Tensor {
    let mut g = Tensor::zeros(x.shape());
    let mut xp = x.clone();
    for i in 0..x.len() {
        let orig = x.data()[i];
        xp.data_mut()[i] = orig + eps;
        let fp = f(&xp);
        xp.data_mut()[i] = orig - eps;
        let fm = f(&xp);
        xp.data_mut()[i] = orig;
        g.data_mut()[i] = ((fp - fm) / (2.0 * eps as f64)) as f32;
    }
    g
}

/// Assert an analytic gradient matches the finite-difference one within a
/// combined relative/absolute tolerance. Panics with the worst offender.
pub fn assert_grad_close(analytic: &Tensor, numeric: &Tensor, tol: f32) {
    assert_eq!(analytic.shape(), numeric.shape());
    let mut worst = 0.0f32;
    let mut worst_i = 0;
    for i in 0..analytic.len() {
        let (a, n) = (analytic.data()[i], numeric.data()[i]);
        let err = (a - n).abs() / (1.0f32).max(a.abs()).max(n.abs());
        if err > worst {
            worst = err;
            worst_i = i;
        }
    }
    assert!(
        worst <= tol,
        "gradient mismatch at flat index {worst_i}: analytic={} numeric={} (rel err {worst})",
        analytic.data()[worst_i],
        numeric.data()[worst_i]
    );
}
