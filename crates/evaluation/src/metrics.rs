//! Probabilistic forecast metrics (latitude-weighted, per channel), as used
//! in WeatherBench 2 and Fig. 5a of the paper.

use aeris_tensor::Tensor;

/// Latitude-weighted RMSE of a single field vs truth, for channel `ch`.
/// `lat_w` are per-token weights with mean 1.
pub fn rmse(pred: &Tensor, truth: &Tensor, lat_w: &[f32], ch: usize) -> f64 {
    assert_eq!(pred.shape(), truth.shape());
    let tokens = pred.shape()[0];
    assert_eq!(lat_w.len(), tokens);
    let mut acc = 0.0f64;
    let mut wsum = 0.0f64;
    for t in 0..tokens {
        let d = (pred.at(&[t, ch]) - truth.at(&[t, ch])) as f64;
        acc += lat_w[t] as f64 * d * d;
        wsum += lat_w[t] as f64;
    }
    (acc / wsum).sqrt()
}

/// Ensemble mean of member fields.
pub fn ensemble_mean(members: &[&Tensor]) -> Tensor {
    assert!(!members.is_empty());
    let mut acc = Tensor::zeros(members[0].shape());
    for m in members {
        acc.add_assign(m);
    }
    acc.scale(1.0 / members.len() as f32)
}

/// Fair (unbiased) ensemble CRPS for channel `ch`, latitude-weighted:
/// `CRPS = mean_i |x_i − y| − 1/(2M(M−1)) Σ_{i≠j} |x_i − x_j|`.
pub fn crps(members: &[&Tensor], truth: &Tensor, lat_w: &[f32], ch: usize) -> f64 {
    let m = members.len();
    assert!(m >= 2, "CRPS needs at least two members");
    let tokens = truth.shape()[0];
    let mut acc = 0.0f64;
    let mut wsum = 0.0f64;
    let mut vals = vec![0.0f32; m];
    for t in 0..tokens {
        for (i, mem) in members.iter().enumerate() {
            vals[i] = mem.at(&[t, ch]);
        }
        let y = truth.at(&[t, ch]);
        let mut term1 = 0.0f64;
        for &v in &vals {
            term1 += (v - y).abs() as f64;
        }
        term1 /= m as f64;
        let mut term2 = 0.0f64;
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    term2 += (vals[i] - vals[j]).abs() as f64;
                }
            }
        }
        term2 /= 2.0 * (m * (m - 1)) as f64;
        acc += lat_w[t] as f64 * (term1 - term2);
        wsum += lat_w[t] as f64;
    }
    acc / wsum
}

/// Ensemble spread for channel `ch`: square root of the latitude-weighted
/// mean of the unbiased ensemble variance.
pub fn spread(members: &[&Tensor], lat_w: &[f32], ch: usize) -> f64 {
    let m = members.len();
    assert!(m >= 2);
    let tokens = members[0].shape()[0];
    let mut acc = 0.0f64;
    let mut wsum = 0.0f64;
    for t in 0..tokens {
        let mut mean = 0.0f64;
        for mem in members {
            mean += mem.at(&[t, ch]) as f64;
        }
        mean /= m as f64;
        let mut var = 0.0f64;
        for mem in members {
            let d = mem.at(&[t, ch]) as f64 - mean;
            var += d * d;
        }
        var /= (m - 1) as f64;
        acc += lat_w[t] as f64 * var;
        wsum += lat_w[t] as f64;
    }
    (acc / wsum).sqrt()
}

/// Spread/skill ratio with the (M+1)/M finite-ensemble correction:
/// SSR = 1 indicates a perfectly calibrated ensemble; < 1 under-dispersive
/// (the regime the paper reports for both AERIS and GenCast).
pub fn ssr(members: &[&Tensor], truth: &Tensor, lat_w: &[f32], ch: usize) -> f64 {
    let m = members.len() as f64;
    let sp = spread(members, lat_w, ch) * ((m + 1.0) / m).sqrt();
    let mean = ensemble_mean(members);
    let skill = rmse(&mean, truth, lat_w, ch);
    sp / skill
}

/// Anomaly correlation coefficient vs a climatology field, channel `ch`.
pub fn acc(pred: &Tensor, truth: &Tensor, clim: &Tensor, lat_w: &[f32], ch: usize) -> f64 {
    let tokens = pred.shape()[0];
    let mut num = 0.0f64;
    let mut pp = 0.0f64;
    let mut tt = 0.0f64;
    for t in 0..tokens {
        let w = lat_w[t] as f64;
        let pa = (pred.at(&[t, ch]) - clim.at(&[t, ch])) as f64;
        let ta = (truth.at(&[t, ch]) - clim.at(&[t, ch])) as f64;
        num += w * pa * ta;
        pp += w * pa * pa;
        tt += w * ta * ta;
    }
    num / (pp.sqrt() * tt.sqrt()).max(1e-30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;

    /// Rank histogram (Talagrand diagram) for channel `ch`: counts where the
    /// truth falls within the sorted ensemble at each grid point, pooled over
    /// tokens. A flat histogram indicates a calibrated ensemble; a U-shape
    /// indicates under-dispersion (the paper's SSR < 1 regime); a dome indicates
    /// over-dispersion. Returns `members.len() + 1` bins.
    fn rank_histogram(members: &[&Tensor], truth: &Tensor, ch: usize) -> Vec<usize> {
        let m = members.len();
        assert!(m >= 1);
        let tokens = truth.shape()[0];
        let mut bins = vec![0usize; m + 1];
        for t in 0..tokens {
            let y = truth.at(&[t, ch]);
            let rank = members.iter().filter(|mem| mem.at(&[t, ch]) < y).count();
            bins[rank] += 1;
        }
        bins
    }

    /// χ²-style flatness score of a rank histogram (0 = perfectly flat).
    fn rank_histogram_flatness(bins: &[usize]) -> f64 {
        let total: usize = bins.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let expected = total as f64 / bins.len() as f64;
        bins.iter()
            .map(|&b| {
                let d = b as f64 - expected;
                d * d / expected
            })
            .sum::<f64>()
            / bins.len() as f64
    }

    fn uniform_w(n: usize) -> Vec<f32> {
        vec![1.0; n]
    }

    #[test]
    fn rmse_of_identical_fields_is_zero() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[50, 2], &mut rng);
        assert_eq!(rmse(&x, &x, &uniform_w(50), 0), 0.0);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        let p = Tensor::from_vec(&[2, 1], vec![1.0, 3.0]);
        let t = Tensor::from_vec(&[2, 1], vec![0.0, 0.0]);
        let r = rmse(&p, &t, &uniform_w(2), 0);
        assert!((r - (5.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn lat_weighting_emphasizes_heavy_rows() {
        let p = Tensor::from_vec(&[2, 1], vec![1.0, 0.0]);
        let t = Tensor::zeros(&[2, 1]);
        // Error only at token 0; upweighting token 0 raises RMSE.
        let light = rmse(&p, &t, &[0.5, 1.5], 0);
        let heavy = rmse(&p, &t, &[1.5, 0.5], 0);
        assert!(heavy > light);
    }

    #[test]
    fn crps_of_perfect_deterministic_ensemble_is_zero() {
        let mut rng = Rng::seed_from(2);
        let truth = Tensor::randn(&[30, 1], &mut rng);
        let members = [truth.clone(), truth.clone(), truth.clone()];
        let refs: Vec<&Tensor> = members.iter().collect();
        let c = crps(&refs, &truth, &uniform_w(30), 0);
        assert!(c.abs() < 1e-7);
    }

    /// Fair CRPS of an ensemble drawn from the correct distribution
    /// approaches the analytic Gaussian value σ(1/√π)(√2−1)·… — we verify
    /// against the known closed form E|X−y| relationships numerically:
    /// a calibrated ensemble must score better than a degenerate one.
    #[test]
    fn crps_rewards_calibration() {
        let mut rng = Rng::seed_from(3);
        let truth = Tensor::randn(&[400, 1], &mut rng);
        // Calibrated: members ~ N(0,1) like the truth.
        let cal: Vec<Tensor> = (0..8).map(|_| Tensor::randn(&[400, 1], &mut rng)).collect();
        let cal_refs: Vec<&Tensor> = cal.iter().collect();
        // Miscalibrated: biased members.
        let biased: Vec<Tensor> = cal.iter().map(|t| t.add_scalar(2.0)).collect();
        let biased_refs: Vec<&Tensor> = biased.iter().collect();
        let w = uniform_w(400);
        assert!(crps(&cal_refs, &truth, &w, 0) < crps(&biased_refs, &truth, &w, 0));
    }

    #[test]
    fn ssr_of_calibrated_gaussian_ensemble_is_near_one() {
        let mut rng = Rng::seed_from(4);
        let truth = Tensor::randn(&[2000, 1], &mut rng);
        let members: Vec<Tensor> = (0..20).map(|_| Tensor::randn(&[2000, 1], &mut rng)).collect();
        let refs: Vec<&Tensor> = members.iter().collect();
        let s = ssr(&refs, &truth, &uniform_w(2000), 0);
        assert!((s - 1.0).abs() < 0.1, "SSR {s}");
    }

    #[test]
    fn ssr_detects_underdispersion() {
        let mut rng = Rng::seed_from(5);
        let truth = Tensor::randn(&[2000, 1], &mut rng);
        // Members with half the spread of the truth distribution.
        let members: Vec<Tensor> =
            (0..20).map(|_| Tensor::randn(&[2000, 1], &mut rng).scale(0.3)).collect();
        let refs: Vec<&Tensor> = members.iter().collect();
        let s = ssr(&refs, &truth, &uniform_w(2000), 0);
        assert!(s < 0.7, "SSR {s} should flag under-dispersion");
    }

    #[test]
    fn acc_is_one_for_perfect_anomalies_and_negative_for_inverted() {
        let mut rng = Rng::seed_from(6);
        let clim = Tensor::randn(&[100, 1], &mut rng);
        let anom = Tensor::randn(&[100, 1], &mut rng);
        let truth = clim.add(&anom);
        let w = uniform_w(100);
        assert!((acc(&truth, &truth, &clim, &w, 0) - 1.0).abs() < 1e-6);
        let inverted = clim.sub(&anom);
        assert!(acc(&inverted, &truth, &clim, &w, 0) < -0.99);
    }

    #[test]
    fn rank_histogram_flat_for_calibrated_ensemble() {
        let mut rng = Rng::seed_from(7);
        let truth = Tensor::randn(&[4000, 1], &mut rng);
        let members: Vec<Tensor> = (0..7).map(|_| Tensor::randn(&[4000, 1], &mut rng)).collect();
        let refs: Vec<&Tensor> = members.iter().collect();
        let bins = rank_histogram(&refs, &truth, 0);
        assert_eq!(bins.len(), 8);
        assert_eq!(bins.iter().sum::<usize>(), 4000);
        let flat = rank_histogram_flatness(&bins);
        assert!(flat < 3.0, "calibrated ensemble histogram not flat: {flat} {bins:?}");
    }

    #[test]
    fn rank_histogram_u_shaped_for_underdispersed_ensemble() {
        let mut rng = Rng::seed_from(8);
        let truth = Tensor::randn(&[4000, 1], &mut rng);
        let members: Vec<Tensor> =
            (0..7).map(|_| Tensor::randn(&[4000, 1], &mut rng).scale(0.2)).collect();
        let refs: Vec<&Tensor> = members.iter().collect();
        let bins = rank_histogram(&refs, &truth, 0);
        // Extremes dominate when the ensemble is too narrow.
        let edge = bins[0] + bins[7];
        let middle: usize = bins[2..6].iter().sum();
        assert!(edge > middle, "expected U shape, got {bins:?}");
    }

    #[test]
    fn ensemble_mean_averages() {
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 2.0]);
        let b = Tensor::from_vec(&[1, 2], vec![2.0, 4.0]);
        let m = ensemble_mean(&[&a, &b]);
        assert_eq!(m.data(), &[1.0, 3.0]);
    }
}
