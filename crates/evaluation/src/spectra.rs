//! Zonal power spectra: the paper validates that AERIS keeps "correct
//! power-spectra even at the smallest scales" over 90-day rollouts (§VII-B),
//! and that deterministic models blur (spectral deficit at high wavenumber).

use aeris_earthsim::Grid;
use aeris_tensor::fft::zonal_power_spectrum;
use aeris_tensor::Tensor;

/// Zonal power spectrum of channel `ch` of a `[tokens, C]` field on `grid`:
/// returns `nlon/2 + 1` band powers averaged over latitude rows.
pub fn zonal_spectrum(field: &Tensor, grid: Grid, ch: usize) -> Vec<f64> {
    assert_eq!(field.shape()[0], grid.tokens());
    let mut plane = vec![0.0f32; grid.tokens()];
    for t in 0..grid.tokens() {
        plane[t] = field.at(&[t, ch]);
    }
    zonal_power_spectrum(&plane, grid.nlat, grid.nlon)
}

/// The share of the truth's total power (zonal mean included) below which
/// a tail is not resolved: an amplitude under 0.1 % of the field's RMS. A
/// smooth toy field's tail holds round-off, ≈ 1e-16 of its power.
const RESOLVED: f64 = 1e-6;

/// Prediction-to-truth power over the top-third (smallest resolved)
/// wavenumbers — a scalar "sharpness" diagnostic: the ratio of the tail's
/// summed band powers, each sum floored at `RESOLVED` (1e-6) of the truth's
/// total power. So tails below that floor in both read 1, not the ratio of
/// two round-off numbers, and no band's near-zero truth power can blow the
/// scalar up: it is at most the floor's inverse times the prediction's
/// total power over the truth's.
pub fn high_k_sharpness(pred: &Tensor, truth: &Tensor, grid: Grid, ch: usize) -> f64 {
    let (sp, st) = (zonal_spectrum(pred, grid, ch), zonal_spectrum(truth, grid, ch));
    let start = st.len() * 2 / 3;
    let floor = RESOLVED * st.iter().sum::<f64>();
    let tail = |s: &[f64]| s[start..].iter().sum::<f64>().max(floor);
    let (p, t) = (tail(&sp), tail(&st));
    if t > 0.0 { p / t } else { 1.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;

    /// Prediction-to-truth power band by band (1 where the truth's is 0).
    fn spectral_ratio(pred: &Tensor, truth: &Tensor, grid: Grid, ch: usize) -> Vec<f64> {
        let sp = zonal_spectrum(pred, grid, ch);
        let st = zonal_spectrum(truth, grid, ch);
        sp.iter().zip(&st).map(|(p, t)| if *t > 0.0 { p / t } else { 1.0 }).collect()
    }

    #[test]
    fn identical_fields_have_unit_ratio() {
        let grid = Grid::new(8, 32);
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[grid.tokens(), 2], &mut rng);
        let r = spectral_ratio(&x, &x, grid, 1);
        for v in &r {
            assert!((v - 1.0).abs() < 1e-9);
        }
        assert!((high_k_sharpness(&x, &x, grid, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_shows_up_as_high_k_deficit() {
        let grid = Grid::new(8, 32);
        let mut rng = Rng::seed_from(2);
        let truth = Tensor::randn(&[grid.tokens(), 1], &mut rng);
        // 3-point zonal smoothing = blur.
        let mut blurred = truth.clone();
        for r in 0..grid.nlat {
            for c in 0..grid.nlon {
                let cm = (c + grid.nlon - 1) % grid.nlon;
                let cp = (c + 1) % grid.nlon;
                *blurred.at_mut(&[grid.index(r, c), 0]) = (truth.at(&[grid.index(r, cm), 0])
                    + truth.at(&[grid.index(r, c), 0])
                    + truth.at(&[grid.index(r, cp), 0]))
                    / 3.0;
            }
        }
        let s = high_k_sharpness(&blurred, &truth, grid, 0);
        assert!(s < 0.5, "blurred sharpness {s}");
    }

    /// A smooth truth (one zonal wave a row) holds only round-off above
    /// its wavenumber, and so does a prediction that copies it at another
    /// amplitude: band by band their tails' ratios are ratios of round-off,
    /// but the sharpness reads 1.
    #[test]
    fn a_round_off_truth_tail_reads_sharp() {
        let grid = Grid::new(8, 32);
        let wave = |amp: f32| {
            let mut x = Tensor::zeros(&[grid.tokens(), 1]);
            for r in 0..grid.nlat {
                for c in 0..grid.nlon {
                    let phase = 2.0 * std::f32::consts::PI * (c as f32 + 0.37 * r as f32) / grid.nlon as f32;
                    *x.at_mut(&[grid.index(r, c), 0]) = amp * phase.sin();
                }
            }
            x
        };
        let (truth, pred) = (wave(1.0), wave(1.3));
        let total = |x: &Tensor| zonal_spectrum(x, grid, 0).iter().sum::<f64>();
        let tail = &spectral_ratio(&pred, &truth, grid, 0)[11..];
        assert!(tail.iter().any(|r| (r - 1.69).abs() > 0.1), "the band ratios are round-off: {tail:?}");
        let s = high_k_sharpness(&pred, &truth, grid, 0);
        assert!((s - 1.0).abs() < 1e-9, "round-off tails read sharp: {s}");
        // Real high-k power in the prediction still shows, bounded.
        let mut rng = Rng::seed_from(4);
        let noisy = Tensor::randn(&[grid.tokens(), 1], &mut rng).scale(0.1);
        let noisy = wave(1.0).zip_map(&noisy, |a, b| a + b);
        let s = high_k_sharpness(&noisy, &truth, grid, 0);
        assert!(s > 1.0 && s <= total(&noisy) / total(&truth) / RESOLVED, "spurious high-k power: {s}");
    }

    #[test]
    fn spectrum_length_is_half_plus_one() {
        let grid = Grid::new(4, 16);
        let x = Tensor::zeros(&[grid.tokens(), 1]);
        assert_eq!(zonal_spectrum(&x, grid, 0).len(), 9);
    }
}
