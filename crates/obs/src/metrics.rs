//! Thread-shared scalar metric series with bounded memory and lock-free
//! recording.
//!
//! [`MetricSeries`] records scalar samples (latencies, batch sizes, queue
//! depths, per-step millisecond timings, …) from any number of threads and
//! answers count/mean/max/percentile queries. Since the v2 migration the
//! storage is a [`Histogram`] — a lock-free sharded log-linear bucket array
//! with a fixed ~16 KiB footprint — instead of an ever-growing
//! mutex-guarded `Vec<f64>`:
//!
//! - `record()` is lock-free (one atomic bucket increment plus CAS-loop
//!   sum/min/max updates) and safe on the serve hot path;
//! - `count`/`mean`/`max` and the `p ≤ 0` / `p ≥ 100` percentiles are
//!   exact; interior percentiles are deterministic estimates within
//!   [`MAX_QUANTILE_REL_ERROR`](crate::histogram::MAX_QUANTILE_REL_ERROR)
//!   (3.125%) of the exact nearest-rank answer;
//! - memory no longer grows with sample count: no raw samples are kept.

use crate::histogram::Histogram;
use std::sync::Arc;

/// A thread-shared series of scalar metric samples. Cloning shares the
/// underlying series.
#[derive(Clone)]
pub struct MetricSeries {
    hist: Arc<Histogram>,
}

impl Default for MetricSeries {
    fn default() -> Self {
        MetricSeries::new()
    }
}

/// The standard distribution block of one series, computed in a single
/// histogram merge pass by [`MetricSeries::summary`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSummary {
    pub count: usize,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

impl std::fmt::Display for MetricSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

impl MetricSeries {
    /// An empty series: bounded memory, lock-free record, no raw samples
    /// retained.
    pub fn new() -> Self {
        MetricSeries { hist: Arc::new(Histogram::new()) }
    }

    /// Append one sample. Lock-free; non-finite samples are ignored.
    pub fn record(&self, value: f64) {
        self.hist.record(value);
    }

    /// The shared histogram backing this series (bucket iteration for the
    /// Prometheus exporter, cross-series merging).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Exact number of samples recorded.
    pub fn count(&self) -> usize {
        self.hist.count() as usize
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> f64 {
        self.hist.sum()
    }

    /// Exact arithmetic mean, or `None` with no samples.
    pub fn mean(&self) -> Option<f64> {
        self.hist.mean()
    }

    /// Exact smallest sample, or `None` with no samples.
    pub fn min(&self) -> Option<f64> {
        self.hist.min()
    }

    /// Exact largest sample, or `None` with no samples.
    pub fn max(&self) -> Option<f64> {
        self.hist.max()
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100), or `None` with no samples.
    /// `p ≤ 0` / `p ≥ 100` are the exact min/max; interior percentiles are
    /// histogram estimates within the documented relative-error bound of
    /// the nearest-rank answer.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.hist.percentile(p)
    }

    /// count/mean/p50/p95/p99/max in one histogram merge pass, or `None`
    /// with no samples.
    pub fn summary(&self) -> Option<MetricSummary> {
        let qs = self.hist.percentiles(&[50.0, 95.0, 99.0])?;
        Some(MetricSummary {
            count: self.count(),
            mean: self.mean().unwrap_or(0.0),
            p50: qs[0],
            p95: qs[1],
            p99: qs[2],
            max: self.max().unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::MAX_QUANTILE_REL_ERROR;

    #[test]
    fn distribution_queries() {
        let m = MetricSeries::new();
        assert!(m.mean().is_none() && m.percentile(50.0).is_none() && m.max().is_none());
        assert!(m.summary().is_none());
        for v in [5.0, 1.0, 9.0, 3.0] {
            m.record(v);
        }
        assert_eq!(m.count(), 4);
        assert!((m.mean().unwrap() - 4.5).abs() < 1e-12);
        assert_eq!(m.max().unwrap(), 9.0);
        assert_eq!(m.min().unwrap(), 1.0);
        assert_eq!(m.percentile(0.0).unwrap(), 1.0);
        assert_eq!(m.percentile(100.0).unwrap(), 9.0);
        // Nearest-rank median of [1,3,5,9] is 5; the histogram answers
        // within its documented relative-error bound.
        let med = m.percentile(50.0).unwrap();
        assert!((med - 5.0).abs() <= 5.0 * MAX_QUANTILE_REL_ERROR, "median {med}");
        // Shared across clones.
        let m2 = m.clone();
        m2.record(2.0);
        assert_eq!(m.count(), 5);
    }

    #[test]
    fn default_series_retains_no_raw_samples() {
        let m = MetricSeries::new();
        for v in 0..1000 {
            m.record(v as f64);
        }
        assert_eq!(m.count(), 1000);
    }

    #[test]
    fn summary_matches_individual_queries() {
        let m = MetricSeries::new();
        for v in 0..100 {
            m.record(v as f64);
        }
        let s = m.summary().unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - m.mean().unwrap()).abs() < 1e-12);
        assert_eq!(s.p50, m.percentile(50.0).unwrap());
        assert_eq!(s.p95, m.percentile(95.0).unwrap());
        assert_eq!(s.p99, m.percentile(99.0).unwrap());
        assert_eq!(s.max, 99.0);
        assert!(!format!("{s}").is_empty());
        // Estimates stay within the documented bound of the exact answers.
        assert!((s.p50 - 50.0).abs() <= 50.0 * MAX_QUANTILE_REL_ERROR + 1e-9);
        assert!((s.p95 - 94.0).abs() <= 94.0 * MAX_QUANTILE_REL_ERROR + 1e-9);
    }

    #[test]
    fn sum_is_exact() {
        let m = MetricSeries::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.record(v);
        }
        assert_eq!(m.sum(), 10.0);
    }
}
