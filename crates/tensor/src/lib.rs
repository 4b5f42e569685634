//! Dense f32 tensor substrate for the AERIS reproduction.
//!
//! This crate provides the numerical foundation used by every other crate in
//! the workspace:
//!
//! - [`Tensor`]: a contiguous, row-major, dynamically shaped f32 array with
//!   elementwise / reduction / linear-algebra operations,
//! - [`gemm`]: the shared cache-blocked, register-tiled f32 GEMM core all
//!   three matmul layouts lower to, reading its operands in place (only a
//!   transposed or partial B panel is copied), on the widest of three
//!   micro-kernels the CPU supports,
//! - [`matmul()`] / [`matmul_nt()`] / [`matmul_tn()`]: entry points over
//!   that core,
//! - [`dispatch`]: which build of a hot loop runs — the one CPU detector
//!   ([`dispatch::Kernel::detected`]) and the one macro that builds the
//!   GEMM's row blocks, the attention core and the sweeps three times,
//! - [`sweeps`]: unrolled unit-stride sweep kernels for the elementwise /
//!   softmax / un-standardize hot loops,
//! - [`attention`]: the numeric core of windowed multi-head attention with
//!   RoPE, forward and backward, in 16-query tiles (what `aeris-autodiff`'s
//!   window-attention ops run between their projection GEMMs),
//! - [`rng::Rng`]: a deterministic SplitMix64-based random number generator
//!   with Gaussian sampling and seed-derived independent streams.
//!
//! Design notes (per the HPC guides): tensors are always contiguous and owned,
//! hot loops avoid allocation by writing into preallocated outputs where it
//! matters, and reductions that feed tests use pairwise summation so results
//! are stable across run-to-run and chunking changes. Every kernel runs on
//! the calling thread and keeps a fixed per-element accumulation order (see
//! the `gemm` module docs).

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]
// The workspace's only `unsafe` lives in this crate (`dispatch`'s one
// dispatch macro, the intrinsic loads / stores of `gemm`'s AVX-512 tile, and
// the aligned / masked loads and stores of `attention`'s `avx512f` build).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod attention;
pub mod dispatch;
pub mod fft;
pub mod gemm;
pub mod matmul;
pub mod ops;
pub mod rng;
pub mod sweeps;
pub mod tensor;

pub use matmul::{matmul, matmul_into, matmul_tn, matmul_nt};
pub use rng::{Rng, RngSnapshot};
pub use tensor::Tensor;

/// Pairwise (tree) summation of a slice: O(log n) rounding-error growth and a
/// deterministic result independent of external chunking.
pub fn pairwise_sum(xs: &[f32]) -> f64 {
    const LEAF: usize = 64;
    fn go(xs: &[f32]) -> f64 {
        if xs.len() <= LEAF {
            xs.iter().map(|&x| x as f64).sum()
        } else {
            let mid = xs.len() / 2;
            go(&xs[..mid]) + go(&xs[mid..])
        }
    }
    go(xs)
}

/// The 64-bit FNV-1a offset basis: the state a digest starts from.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold one word into the FNV-1a state `h`, byte by byte in little-endian
/// order: the workspace's one word hasher (the serve cache keys and
/// `ObservationSet::digest`).
#[inline]
pub fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative-or-absolute closeness test.
    fn close(a: f32, b: f32, tol: f32) -> bool {
        let diff = (a - b).abs();
        diff <= tol || diff <= tol * a.abs().max(b.abs())
    }

    #[test]
    fn pairwise_sum_matches_naive_on_small_input() {
        let xs: Vec<f32> = (0..100).map(|i| i as f32 * 0.25).collect();
        let naive: f64 = xs.iter().map(|&x| x as f64).sum();
        assert!((pairwise_sum(&xs) - naive).abs() < 1e-9);
    }

    #[test]
    fn pairwise_sum_empty_is_zero() {
        assert_eq!(pairwise_sum(&[]), 0.0);
    }

    #[test]
    fn close_handles_relative_and_absolute() {
        assert!(close(1e6, 1e6 + 1.0, 1e-5));
        assert!(close(0.0, 1e-7, 1e-6));
        assert!(!close(1.0, 2.0, 1e-3));
    }
}
