//! Elementwise and reduction operations on [`Tensor`].
//!
//! All binary ops require exactly matching shapes (no implicit broadcasting —
//! the layers in `aeris-nn` broadcast explicitly where the architecture needs
//! it, which keeps shape errors loud).

use crate::{pairwise_sum, sweeps, Tensor};

impl Tensor {
    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(self.shape(), data)
    }

    /// Elementwise combination of two same-shaped tensors.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in zip_map");
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(self.shape(), data)
    }

    /// Elementwise addition (unrolled sweep).
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add");
        let mut out = Tensor::for_overwrite(self.shape());
        sweeps::add_into(out.data_mut(), self.data(), other.data());
        out
    }

    /// Elementwise subtraction (unrolled sweep).
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub");
        let mut out = Tensor::for_overwrite(self.shape());
        sweeps::sub_into(out.data_mut(), self.data(), other.data());
        out
    }

    /// Elementwise (Hadamard) product (unrolled sweep).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in mul");
        let mut out = Tensor::for_overwrite(self.shape());
        sweeps::mul_into(out.data_mut(), self.data(), other.data());
        out
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        sweeps::add_assign(self.data_mut(), other.data());
    }

    /// Multiply by a scalar, as a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let mut out = self.clone();
        sweeps::scale(out.data_mut(), alpha);
        out
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, alpha: f32) {
        sweeps::scale(self.data_mut(), alpha);
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x + c)
    }

    /// Sum of all elements (pairwise, f64 accumulate).
    pub fn sum(&self) -> f64 {
        pairwise_sum(self.data())
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sum() / self.len() as f64
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let ss = pairwise_sum(&self.data().iter().map(|&x| {
            let d = x as f64 - m;
            (d * d) as f32
        }).collect::<Vec<_>>());
        ss / self.len() as f64
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Largest absolute value.
    pub fn abs_max(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Euclidean norm (f64 accumulate).
    pub fn norm(&self) -> f64 {
        pairwise_sum(&self.data().iter().map(|&x| x * x).collect::<Vec<_>>()).sqrt()
    }

    /// Dot product of two same-shaped tensors (f64 accumulate).
    pub fn dot(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in dot");
        pairwise_sum(
            &self
                .data()
                .iter()
                .zip(other.data())
                .map(|(&a, &b)| a * b)
                .collect::<Vec<_>>(),
        )
    }

    /// Row-wise softmax of a 2-D tensor (numerically stable).
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "softmax_rows requires a 2-D tensor");
        let rows = self.shape()[0];
        let mut out = Tensor::for_overwrite(self.shape());
        for r in 0..rows {
            let row = self.row(r);
            let m = sweeps::max(row);
            let dst = out.row_mut(r);
            let z = sweeps::exp_shift_sum(dst, row, m);
            sweeps::scale(dst, 1.0 / z);
        }
        out
    }
}

#[cfg(test)]
impl Tensor {
    /// In-place `self += alpha * other` (axpy).
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        sweeps::axpy(self.data_mut(), alpha, other.data());
    }

    /// Elementwise division (unrolled sweep).
    pub(crate) fn div(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in div");
        let mut out = Tensor::for_overwrite(self.shape());
        sweeps::div_into(out.data_mut(), self.data(), other.data());
        out
    }

    /// Clamp every element to `[lo, hi]`.
    pub(crate) fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(b.div(&a).data(), &[4., 2.5, 2.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.add_scalar(1.0).data(), &[2., 3., 4.]);
    }

    #[test]
    #[should_panic]
    fn mismatched_shapes_panic() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Tensor::from_slice(&[1., 1.]);
        let b = Tensor::from_slice(&[2., 3.]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[3., 4.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[4., 5.5]);
    }

    /// Index of the first maximum element.
    fn argmax(x: &[f32]) -> usize {
        let mut best = 0;
        for (i, &v) in x.iter().enumerate() {
            if v > x[best] {
                best = i;
            }
        }
        best
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1., 2., 3., 4.]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!((t.variance() - 1.25).abs() < 1e-9);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.abs_max(), 4.0);
        assert!((t.norm() - 30f64.sqrt()).abs() < 1e-6);
        assert_eq!(argmax(t.data()), 3);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut rng = Rng::seed_from(11);
        let t = Tensor::randn(&[5, 16], &mut rng).scale(4.0);
        let s = t.softmax_rows();
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            let row_max = t.row(r).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert!(row_max.is_finite());
        }
        // Softmax is monotone: argmax preserved per-row.
        for r in 0..5 {
            let (am_in, am_out) = (argmax(t.row(r)), argmax(s.row(r)));
            assert_eq!(am_in, am_out);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let t = Tensor::from_vec(&[1, 3], vec![1., 2., 3.]);
        let shifted = t.add_scalar(100.0);
        assert!(t.softmax_rows().max_abs_diff(&shifted.softmax_rows()) < 1e-6);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn clamp_bounds() {
        let t = Tensor::from_slice(&[-2., 0.5, 9.]).clamp(-1.0, 1.0);
        assert_eq!(t.data(), &[-1., 0.5, 1.]);
    }
}
