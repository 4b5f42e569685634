//! The [`Tensor`] type: an owned, contiguous, row-major f32 array.

use crate::rng::Rng;

/// A dense, row-major, contiguous f32 tensor with a dynamic shape.
///
/// Invariant: `data.len() == shape.iter().product()`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor of `shape` for a producer that writes every element before
    /// anything reads one (a GEMM output, an elementwise result, a gather):
    /// zeroed memory from the allocator, with no fill pass. A build with
    /// `debug_assertions` (`cargo test` without `--release`) fills it with
    /// NaN instead, so a producer that misses an element poisons its result
    /// and the bitwise suites fail. An accumulator, which reads before it
    /// writes, takes [`Tensor::zeros`].
    pub fn for_overwrite(shape: &[usize]) -> Self {
        Self::full(shape, if cfg!(debug_assertions) { f32::NAN } else { 0.0 })
    }

    /// Create a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![value; n] }
    }

    /// Create a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Wrap an existing buffer. Panics if the length does not match the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "buffer length {} != shape {:?}", data.len(), shape);
        Tensor { shape: shape.to_vec(), data }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: vec![data.len()], data: data.to_vec() }
    }

    /// Standard-normal random tensor.
    pub fn randn(shape: &[usize], rng: &mut Rng) -> Self {
        let mut data = vec![0.0; shape.iter().product()];
        rng.fill_normal(&mut data);
        Tensor { shape: shape.to_vec(), data }
    }

    /// Uniform random tensor on `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(lo + (hi - lo) * rng.next_f32());
        }
        Tensor { shape: shape.to_vec(), data }
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

    /// Immutable view of the backing buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Re-size this tensor, in its own buffers, to a `shape` tensor for a
    /// producer that writes every element before anything reads one: the
    /// reused sibling of [`Tensor::for_overwrite`], NaN-filled under
    /// `debug_assertions` as it is. Takes from the heap only to grow.
    pub fn reuse_for_overwrite(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(shape.iter().product(), 0.0);
        if cfg!(debug_assertions) {
            self.data.fill(f32::NAN);
        }
    }

    /// Reshape in place to a new shape with the same element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape {:?} -> {:?} changes element count", self.shape, shape);
        self.shape = shape.to_vec();
        self
    }

    /// Row-major linear offset for a multi-index.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            debug_assert!(ix < dim, "index {ix} out of bounds for dim {i} ({dim})");
            off = off * dim + ix;
        }
        off
    }

    /// Element access by multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Mutable element access by multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.offset(idx);
        &mut self.data[off]
    }

    /// For a 2-D tensor, the `r`-th row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// For a 2-D tensor, the `r`-th row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Transpose a 2-D tensor.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "t() requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::for_overwrite(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Concatenate 2-D tensors along rows (axis 0). All must share column count.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let cols = parts[0].shape[1];
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.ndim(), 2);
            assert_eq!(p.shape[1], cols, "column mismatch in concat_rows");
            rows += p.shape[0];
            data.extend_from_slice(&p.data);
        }
        Tensor { shape: vec![rows, cols], data }
    }

    /// Concatenate 2-D tensors along columns (axis 1). All must share row count.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let rows = parts[0].shape[0];
        let total_cols: usize = parts.iter().map(|p| p.shape[1]).sum();
        let mut out = Tensor::for_overwrite(&[rows, total_cols]);
        for r in 0..rows {
            let mut c0 = 0;
            for p in parts {
                assert_eq!(p.ndim(), 2);
                assert_eq!(p.shape[0], rows, "row mismatch in concat_cols");
                let w = p.shape[1];
                out.row_mut(r)[c0..c0 + w].copy_from_slice(p.row(r));
                c0 += w;
            }
        }
        out
    }

    /// Extract columns `[c0, c1)` of a 2-D tensor.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let (rows, cols) = (self.shape[0], self.shape[1]);
        assert!(c0 <= c1 && c1 <= cols);
        let w = c1 - c0;
        let mut data = Vec::with_capacity(rows * w);
        for r in 0..rows {
            data.extend_from_slice(&self.data[r * cols + c0..r * cols + c1]);
        }
        Tensor { shape: vec![rows, w], data }
    }

    /// Maximum absolute difference to another tensor of the same shape.
    /// NaN differences propagate (return NaN) so comparisons against
    /// NaN-corrupted outputs fail loudly instead of passing silently.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, |m, d| if d.is_nan() { f32::NAN } else { m.max(d) })
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(&[2, 3], vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.row(1), &[3., 4., 5.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![0., 1., 2., 3., 4., 5.]).reshape(&[3, 2]);
        assert_eq!(t.at(&[2, 1]), 5.0);
        assert_eq!(t.shape(), &[3, 2]);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = Rng::seed_from(7);
        let t = Tensor::randn(&[4, 5], &mut rng);
        let back = t.t().t();
        assert_eq!(t, back);
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2, 3], vec![5., 6., 7., 8., 9., 10.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 5), b);

        let r = Tensor::concat_rows(&[&a, &a]);
        assert_eq!(r.shape(), &[4, 2]);
        assert_eq!(&r.data()[4..], a.data());
    }

    /// The write-once guard: in a test build (`debug_assertions`) a
    /// `for_overwrite` buffer is all NaN, so a producer that misses an
    /// element leaves a NaN the bitwise suites see; without it, all zero.
    #[test]
    fn a_for_overwrite_buffer_is_all_nan_in_a_debug_build() {
        let want = if cfg!(debug_assertions) { f32::NAN } else { 0.0 };
        for shape in [&[7][..], &[4096, 8]] {
            let t = Tensor::for_overwrite(shape);
            assert_eq!(t.shape(), shape);
            assert!(t.data().iter().all(|x| x.to_bits() == want.to_bits()), "{shape:?}");
        }
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let a = Tensor::from_slice(&[1.0, f32::NAN]);
        let b = Tensor::from_slice(&[1.0, 0.0]);
        assert!(a.max_abs_diff(&b).is_nan(), "NaN must not be masked");
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng::seed_from(42);
        let mut r2 = Rng::seed_from(42);
        assert_eq!(Tensor::randn(&[8], &mut r1), Tensor::randn(&[8], &mut r2));
    }

    #[test]
    fn randn_has_roughly_unit_moments() {
        let mut rng = Rng::seed_from(3);
        let t = Tensor::randn(&[10_000], &mut rng);
        let mean: f32 = t.data().iter().sum::<f32>() / t.len() as f32;
        let var: f32 = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
