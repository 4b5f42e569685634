//! Order statistics, the tail-percentile selector, the run-to-run spread the
//! agreement tooling uses, and the spin-loop disturbance probe.

use std::time::{Duration, Instant};

/// Percentile by linear interpolation between closest ranks. `None` when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let (&first, &last) = (sorted.first()?, sorted.last()?);
    if sorted.len() == 1 || p <= 0.0 {
        return Some(first);
    }
    if p >= 100.0 {
        return Some(last);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + frac * (sorted[(lo + 1).min(sorted.len() - 1)] - sorted[lo]))
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(&sorted(xs.to_vec()), 50.0)
}

/// The percentile ladder a tail may be reported at.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] with at least ten samples beyond it
/// (choosing-metrics §1): a tail read off fewer samples is noise.
pub fn highest_supported_percentile(n: usize) -> f64 {
    let mut best = LADDER[0];
    for p in LADDER {
        // (100 − p) is exact for every rung; 1 − p/100 is not.
        if n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9 {
            best = p;
        }
    }
    best
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some([q(1), q(2), q(3)])
}

/// Interquartile distance as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Million iterations per second of a dependent integer chain over `window`:
/// a probe of how much CPU this process is getting. Run before and after a
/// workload; a difference above 5 % flags the run as disturbed.
pub fn spin_mops(window: Duration) -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut iters = 0u64;
    while t0.elapsed() < window {
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x ^= x >> 29;
        }
        iters += 4096;
    }
    std::hint::black_box(x);
    iters as f64 / t0.elapsed().as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(170), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(4.6));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(spread(&v), Some(1.0));
    }
}
