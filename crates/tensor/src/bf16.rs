//! bfloat16 as a real storage format.
//!
//! The paper runs all compute-intensive kernels in BF16 while keeping
//! embeddings, master weights, and gradient reductions in FP32 (§V-A "Mixed
//! precision"). [`Bf16Tensor`] reproduces the *storage* half of that policy
//! honestly: a `u16` buffer holding the top 16 bits of each f32
//! (round-to-nearest-even), half the bytes of a [`Tensor`]. The *compute*
//! half lives in the GEMM core ([`crate::gemm`]): bf16 panels are widened to
//! f32 in registers during packing and every multiply/accumulate runs in f32,
//! so a bf16 GEMM reads half the source bandwidth while producing
//! full-precision accumulations.
//!
//! [`round_bf16`] (round f32 → bf16 → f32) is kept for call sites that only
//! want the rounding effect without the storage change.

use crate::Tensor;

/// Round an f32 to its nearest bf16 bit pattern (round-to-nearest-even).
/// NaN is canonicalized to a quiet NaN pattern so the carry in the rounding
/// add can never turn a NaN payload into an infinity.
#[inline]
pub fn bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) | 0x0040) as u16;
    }
    let lsb = (bits >> 16) & 1;
    (bits.wrapping_add(0x7FFF + lsb) >> 16) as u16
}

/// Widen a bf16 bit pattern back to f32 (exact: bf16 ⊂ f32).
#[inline]
pub fn bf16_to_f32(bits: u16) -> f32 {
    f32::from_bits((bits as u32) << 16)
}

/// Round an f32 to bfloat16 precision (RNE) and widen back to f32.
#[inline]
pub fn round_bf16(x: f32) -> f32 {
    bf16_to_f32(bf16_bits(x))
}

/// A dense, row-major, contiguous bfloat16 tensor: the same layout contract
/// as [`Tensor`], at half the bytes per element.
#[derive(Clone, Debug, PartialEq)]
pub struct Bf16Tensor {
    shape: Vec<usize>,
    data: Vec<u16>,
}

impl Bf16Tensor {
    /// Round a full-precision tensor into bf16 storage.
    pub fn from_f32(t: &Tensor) -> Self {
        Bf16Tensor {
            shape: t.shape().to_vec(),
            data: t.data().iter().map(|&x| bf16_bits(x)).collect(),
        }
    }

    /// Wrap raw bf16 bit patterns. Panics if the length does not match.
    pub fn from_bits(shape: &[usize], data: Vec<u16>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "buffer length {} != shape {:?}", data.len(), shape);
        Bf16Tensor { shape: shape.to_vec(), data }
    }

    /// The shape as a slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw bf16 bit patterns (row-major).
    #[inline]
    pub fn bits(&self) -> &[u16] {
        &self.data
    }

    /// Widen every element back to an f32 [`Tensor`] (exact).
    pub fn widen(&self) -> Tensor {
        Tensor::from_vec(&self.shape, self.data.iter().map(|&b| bf16_to_f32(b)).collect())
    }

    /// Transpose a 2-D bf16 tensor (bit-pattern moves, no re-rounding).
    pub fn transpose_2d(&self) -> Bf16Tensor {
        assert_eq!(self.ndim(), 2, "transpose_2d requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0u16; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Bf16Tensor { shape: vec![n, m], data: out }
    }
}

impl Tensor {
    /// Round into bf16 storage (a real `u16` buffer, half the bytes).
    pub fn to_bf16(&self) -> Bf16Tensor {
        Bf16Tensor::from_f32(self)
    }
}

/// Relative rounding error bound for bf16 (8-bit mantissa): 2^-8.
pub const BF16_EPS: f32 = 1.0 / 256.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn exact_values_pass_through() {
        for &x in &[0.0f32, 1.0, -1.0, 0.5, 2.0, -4.0, 1.5] {
            assert_eq!(round_bf16(x), x);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut rng = Rng::seed_from(6);
        for _ in 0..10_000 {
            let x = rng.uniform(-1e6, 1e6);
            if x == 0.0 {
                continue;
            }
            let r = round_bf16(x);
            assert!(((r - x) / x).abs() <= BF16_EPS, "x={x} r={r}");
        }
    }

    #[test]
    fn idempotent() {
        let mut rng = Rng::seed_from(7);
        for _ in 0..1000 {
            let x = rng.normal() * 100.0;
            let once = round_bf16(x);
            assert_eq!(round_bf16(once), once);
        }
    }

    #[test]
    fn preserves_sign_and_specials() {
        assert_eq!(round_bf16(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!(round_bf16(f32::INFINITY).is_infinite());
        assert!(round_bf16(f32::NEG_INFINITY).is_infinite());
        assert!(round_bf16(f32::NAN).is_nan(), "NaN must stay NaN through rounding");
        assert!(bf16_to_f32(bf16_bits(f32::NAN)).is_nan());
        let mut rng = Rng::seed_from(8);
        for _ in 0..100 {
            let x = rng.normal();
            assert_eq!(round_bf16(x).is_sign_negative(), x.is_sign_negative());
        }
    }

    #[test]
    fn storage_is_half_and_round_trips_exactly() {
        let mut rng = Rng::seed_from(9);
        let t = Tensor::randn(&[8, 8], &mut rng);
        let b = t.to_bf16();
        assert_eq!(std::mem::size_of_val(b.bits()), t.len() * 2);
        assert_eq!(b.shape(), t.shape());
        // widen() is exact on stored bits: a second round trip is identity.
        let w = b.widen();
        assert_eq!(w.to_bf16().bits(), b.bits());
        // And widen() agrees with the pure rounding map.
        assert_eq!(w.data(), t.map(round_bf16).data());
    }

    #[test]
    fn tensor_round_trip_error_small() {
        let mut rng = Rng::seed_from(9);
        let t = Tensor::randn(&[64], &mut rng);
        let r = t.to_bf16().widen();
        for (a, b) in t.data().iter().zip(r.data()) {
            assert!((a - b).abs() <= a.abs() * BF16_EPS + 1e-30);
        }
    }

    #[test]
    fn transpose_2d_round_trips() {
        let mut rng = Rng::seed_from(10);
        let t = Tensor::randn(&[5, 3], &mut rng).to_bf16();
        let back = t.transpose_2d().transpose_2d();
        assert_eq!(t, back);
    }
}
