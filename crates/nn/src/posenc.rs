//! 2D sinusoidal positional encoding added to the input pixels (§V-B).
//!
//! The paper adds one 2D sinusoidal field to *each channel* of the input as a
//! proxy of locality. We build a multi-octave sin/cos field over (lat, lon)
//! normalized to zero mean and bounded amplitude.

use aeris_tensor::Tensor;

/// Positional field of shape `[h*w]` (row-major), values in roughly
/// `[-amp, amp]`. Added identically to every channel.
pub fn pos_encoding_2d(h: usize, w: usize, amp: f32) -> Tensor {
    let octaves = 4usize;
    let mut out = Tensor::zeros(&[h * w]);
    let norm = amp / (2.0 * octaves as f32);
    for r in 0..h {
        for c in 0..w {
            let mut v = 0.0f32;
            for k in 0..octaves {
                let f = (1 << k) as f32;
                let ar = 2.0 * std::f32::consts::PI * f * r as f32 / h as f32;
                let ac = 2.0 * std::f32::consts::PI * f * c as f32 / w as f32;
                v += ar.sin() + ac.cos();
            }
            out.data_mut()[r * w + c] = v * norm;
        }
    }
    out
}

/// The model input: `parts` (`[h*w, ·]` each) side by side, the positional
/// field added to every channel, written into every element of a row-major
/// `[h*w, Σ widths]` slice.
pub fn assemble_into(parts: &[&Tensor], pe: &Tensor, out: &mut [f32]) {
    let width: usize = parts.iter().map(|p| p.shape()[1]).sum();
    assert!(parts.iter().all(|p| p.shape()[0] == pe.len()), "a part is not [h*w, ·]");
    assert_eq!(out.len(), pe.len() * width, "assembled input length");
    for (r, (row, &p)) in out.chunks_exact_mut(width).zip(pe.data()).enumerate() {
        let mut c0 = 0;
        for part in parts {
            let src = part.row(r);
            for (o, &v) in row[c0..c0 + src.len()].iter_mut().zip(src) {
                *o = v + p;
            }
            c0 += src.len();
        }
    }
}

/// [`assemble_into`] a new `[h*w, Σ widths]` tensor.
pub fn assemble(parts: &[&Tensor], pe: &Tensor) -> Tensor {
    let width = parts.iter().map(|p| p.shape()[1]).sum();
    let mut out = Tensor::for_overwrite(&[pe.len(), width]);
    assemble_into(parts, pe, out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplitude_is_bounded() {
        let pe = pos_encoding_2d(16, 32, 0.1);
        assert!(pe.abs_max() <= 0.1 + 1e-6);
    }

    #[test]
    fn distinct_positions_get_distinct_codes() {
        let pe = pos_encoding_2d(8, 8, 1.0);
        // Not all equal
        assert!(pe.max() - pe.min() > 1e-3);
    }

    /// The field is added to every channel of every part, and the parts sit
    /// side by side in order.
    #[test]
    fn add_broadcasts_over_channels() {
        let pe = pos_encoding_2d(2, 2, 1.0);
        let (a, b) = (Tensor::zeros(&[4, 3]), Tensor::ones(&[4, 2]));
        let y = assemble(&[&a, &b], &pe);
        assert_eq!(y.shape(), &[4, 5]);
        for r in 0..4 {
            for c in 0..5 {
                assert_eq!(y.at(&[r, c]), if c < 3 { 0.0 } else { 1.0 } + pe.data()[r]);
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(pos_encoding_2d(6, 6, 0.5), pos_encoding_2d(6, 6, 0.5));
    }
}
