//! Axial-frequency 2D rotary positional embeddings (§V-B, after Heo et al.).
//!
//! Queries and keys are rotated pairwise before the dot product. For 2D data
//! the pair slots of each head are split between the two axes: the first half
//! of the pairs rotate by angles proportional to the token's *row*, the second
//! half by its *column*. Because attention scores depend only on angle
//! *differences*, the rotation encodes relative 2D offsets — the property the
//! paper uses in place of SwinV2's relative positional biases.

use aeris_tensor::Tensor;

/// Precomputed cos/sin tables for every token of an `h × w` window.
#[derive(Clone, Debug)]
pub struct RopeTable {
    /// `[h*w, head_dim/2]` cosine of the rotation angle per token per pair.
    pub cos: Tensor,
    /// `[h*w, head_dim/2]` sine table.
    pub sin: Tensor,
    pub h: usize,
    pub w: usize,
    pub head_dim: usize,
}

impl RopeTable {
    /// Build the table for an `h × w` token grid with the given per-head
    /// feature dimension. `row0`/`col0` offset the coordinates (used to show
    /// translation invariance; windows may share one table built at 0,0).
    pub fn new(h: usize, w: usize, head_dim: usize, row0: usize, col0: usize) -> Self {
        assert_eq!(head_dim % 4, 0, "axial 2D RoPE needs head_dim divisible by 4");
        let pairs = head_dim / 2;
        let axis_pairs = pairs / 2; // pairs per spatial axis
        let base: f32 = 10_000.0;
        let s = h * w;
        let mut cos = Tensor::zeros(&[s, pairs]);
        let mut sin = Tensor::zeros(&[s, pairs]);
        for r in 0..h {
            for c in 0..w {
                let tok = r * w + c;
                for j in 0..axis_pairs {
                    let freq = base.powf(-(j as f32) / axis_pairs as f32);
                    // First half of pairs: row axis.
                    let a_row = (r + row0) as f32 * freq;
                    *cos.at_mut(&[tok, j]) = a_row.cos();
                    *sin.at_mut(&[tok, j]) = a_row.sin();
                    // Second half: column axis.
                    let a_col = (c + col0) as f32 * freq;
                    *cos.at_mut(&[tok, axis_pairs + j]) = a_col.cos();
                    *sin.at_mut(&[tok, axis_pairs + j]) = a_col.sin();
                }
            }
        }
        RopeTable { cos, sin, h, w, head_dim }
    }

    /// Number of tokens covered.
    pub fn seq_len(&self) -> usize {
        self.h * self.w
    }
}

/// Rotate a raw (non-tape) `[s, head_dim]` matrix by the table: the tests'
/// oracle for the tape's rope op.
#[cfg(test)]
pub(crate) fn apply_rope(x: &Tensor, table: &RopeTable) -> Tensor {
    let (s, d) = (x.shape()[0], x.shape()[1]);
    assert_eq!(s, table.seq_len());
    assert_eq!(d, table.head_dim);
    let mut out = Tensor::zeros(x.shape());
    for t in 0..s {
        let xr = x.row(t);
        let o = out.row_mut(t);
        for p in 0..d / 2 {
            let (c, si) = (table.cos.at(&[t, p]), table.sin.at(&[t, p]));
            o[2 * p] = xr[2 * p] * c - xr[2 * p + 1] * si;
            o[2 * p + 1] = xr[2 * p] * si + xr[2 * p + 1] * c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;

    #[test]
    fn table_shape() {
        let t = RopeTable::new(4, 5, 8, 0, 0);
        assert_eq!(t.cos.shape(), &[20, 4]);
        assert_eq!(t.sin.shape(), &[20, 4]);
        assert_eq!(t.seq_len(), 20);
    }

    #[test]
    fn origin_token_is_identity() {
        let t = RopeTable::new(3, 3, 8, 0, 0);
        for p in 0..4 {
            assert!((t.cos.at(&[0, p]) - 1.0).abs() < 1e-6);
            assert!(t.sin.at(&[0, p]).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let t = RopeTable::new(2, 4, 8, 0, 0);
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn(&[8, 8], &mut rng);
        let y = apply_rope(&x, &t);
        for r in 0..8 {
            let nx: f32 = x.row(r).iter().map(|v| v * v).sum();
            let ny: f32 = y.row(r).iter().map(|v| v * v).sum();
            assert!((nx - ny).abs() < 1e-4);
        }
    }

    /// The defining relative property: <RoPE(q,pos_a), RoPE(k,pos_b)> depends
    /// only on pos_a - pos_b; shifting both positions by the same offset
    /// leaves attention scores unchanged.
    #[test]
    fn scores_are_translation_invariant() {
        let mut rng = Rng::seed_from(10);
        let q = Tensor::randn(&[6, 8], &mut rng);
        let k = Tensor::randn(&[6, 8], &mut rng);
        let t0 = RopeTable::new(2, 3, 8, 0, 0);
        let t1 = RopeTable::new(2, 3, 8, 7, 11);
        let score = |t: &RopeTable| {
            let qr = apply_rope(&q, t);
            let kr = apply_rope(&k, t);
            aeris_tensor::matmul_nt(&qr, &kr)
        };
        let s0 = score(&t0);
        let s1 = score(&t1);
        assert!(s0.max_abs_diff(&s1) < 1e-3, "diff {}", s0.max_abs_diff(&s1));
    }

    /// Distinct 2D offsets produce distinct phase patterns: a token one row
    /// away is encoded differently from a token one column away.
    #[test]
    fn axes_are_distinguished() {
        let t = RopeTable::new(2, 2, 8, 0, 0);
        // token (0,1) = index 1 (column shift), token (1,0) = index 2 (row shift)
        let col_shift: Vec<f32> = (0..4).map(|p| t.cos.at(&[1, p])).collect();
        let row_shift: Vec<f32> = (0..4).map(|p| t.cos.at(&[2, p])).collect();
        assert_ne!(col_shift, row_shift);
    }
}
