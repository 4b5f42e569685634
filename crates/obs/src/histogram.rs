//! Lock-free sharded log-linear histogram — the bounded-memory engine under
//! [`MetricSeries`](crate::metrics::MetricSeries).
//!
//! # Layout
//!
//! HDR-style fixed log-linear buckets: each power-of-two **octave**
//! `[2^e, 2^(e+1))` for `e ∈ [E_MIN, E_MAX]` is split into
//! [`SUBBUCKETS`] equal-width linear subbuckets, so a finite value maps to a
//! bucket with pure bit arithmetic on its IEEE-754 representation (exponent
//! field picks the octave, top mantissa bits pick the subbucket — no `log`,
//! no branches on magnitude). One underflow bucket catches everything below
//! [`Histogram::MIN_TRACKED`] (including zero and negatives) and one
//! overflow bucket everything at or above [`Histogram::MAX_TRACKED`].
//!
//! # Error bound
//!
//! A bucket `[lo, hi)` inside the tracked range has width `lo / SUBBUCKETS`
//! ≤ `v / SUBBUCKETS` for any member `v`; quantile queries return the bucket
//! *midpoint* clamped into `[min, max]` of the recorded data, so the
//! relative error of any quantile estimate against the exact nearest-rank
//! sample is at most [`MAX_QUANTILE_REL_ERROR`] = `1/(2·SUBBUCKETS)`
//! (3.125% with 16 subbuckets) for values inside the tracked range.
//! `count`, `sum`/`mean`, `min`, and `max` are tracked exactly.
//!
//! # Concurrency and memory
//!
//! Bucket counts are `AtomicU64`s striped across [`SHARDS`] shards (threads
//! pick a shard by a thread-local slot, so two busy threads never contend on
//! the same cache lines); `sum`/`min`/`max` are CAS-loop f64 atomics. The
//! record path is wait-free apart from those CAS loops — no mutex anywhere —
//! and total memory is a fixed [`Histogram::MEMORY_BYTES`] (~16 KiB)
//! independent of how many samples are recorded.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Linear subbuckets per power-of-two octave. Must be a power of two.
pub const SUBBUCKETS: usize = 16;
const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros();

/// Smallest tracked binary exponent: values below `2^E_MIN` land in the
/// underflow bucket.
const E_MIN: i32 = -20;
/// Largest tracked binary exponent: values at or above `2^(E_MAX+1)` land in
/// the overflow bucket.
const E_MAX: i32 = 43;
const OCTAVES: usize = (E_MAX - E_MIN + 1) as usize;

/// Bucket count: underflow + log-linear grid + overflow.
const BUCKETS: usize = 2 + OCTAVES * SUBBUCKETS;

/// Count-array shards (thread striping). Must be a power of two.
pub const SHARDS: usize = 2;

/// Worst-case relative error of a quantile estimate vs the exact
/// nearest-rank sample, for values inside the tracked range.
pub const MAX_QUANTILE_REL_ERROR: f64 = 1.0 / (2 * SUBBUCKETS) as f64;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);
std::thread_local! {
    static THREAD_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn shard_index() -> usize {
    THREAD_SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT_THREAD_SLOT.fetch_add(1, Relaxed);
            slot.set(v);
        }
        v & (SHARDS - 1)
    })
}

struct Shard {
    /// One count per bucket.
    counts: Box<[AtomicU64]>,
    /// Exact running sum of this shard's samples (f64 bits, CAS-added).
    sum_bits: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Shard { counts: counts.into_boxed_slice(), sum_bits: AtomicU64::new(0f64.to_bits()) }
    }
}

/// Lock-free bounded-memory value distribution. See the module docs for the
/// bucket layout and error bound.
pub struct Histogram {
    shards: [Shard; SHARDS],
    /// Exact min/max of all recorded samples (f64 bits; +inf/-inf = empty).
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            shards: [Shard::new(), Shard::new()],
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

fn atomic_f64_update(cell: &AtomicU64, value: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = f64::from_bits(cell.load(Relaxed));
    while better(value, cur) {
        match cell.compare_exchange_weak(cur.to_bits(), value.to_bits(), Relaxed, Relaxed) {
            Ok(_) => return,
            Err(bits) => cur = f64::from_bits(bits),
        }
    }
}

fn atomic_f64_add(cell: &AtomicU64, value: f64) {
    let mut cur = cell.load(Relaxed);
    loop {
        let next = (f64::from_bits(cur) + value).to_bits();
        match cell.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
            Ok(_) => return,
            Err(bits) => cur = bits,
        }
    }
}

/// Map a finite value to its bucket index.
fn bucket_index(value: f64) -> usize {
    if value < Histogram::MIN_TRACKED {
        return 0; // negatives, zero, subnormal-small values
    }
    if value >= Histogram::MAX_TRACKED {
        return BUCKETS - 1;
    }
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
    1 + (exp - E_MIN) as usize * SUBBUCKETS + sub
}

/// Half-open value range `[lo, hi)` covered by a bucket.
fn bucket_bounds(index: usize) -> (f64, f64) {
    if index == 0 {
        return (0.0, Histogram::MIN_TRACKED);
    }
    if index == BUCKETS - 1 {
        return (Histogram::MAX_TRACKED, f64::INFINITY);
    }
    let i = index - 1;
    let e = E_MIN + (i / SUBBUCKETS) as i32;
    let sub = (i % SUBBUCKETS) as f64;
    let scale = f64::from_bits(((e + 1023) as u64) << 52); // exact 2^e
    let width = scale / SUBBUCKETS as f64;
    (scale + sub * width, scale + (sub + 1.0) * width)
}

/// The value a bucket reports for quantile queries (midpoint; clamped into
/// `[min, max]` by the caller).
fn representative(index: usize) -> f64 {
    if index == 0 {
        return 0.0;
    }
    if index == BUCKETS - 1 {
        return Histogram::MAX_TRACKED;
    }
    let (lo, hi) = bucket_bounds(index);
    0.5 * (lo + hi)
}

impl Histogram {
    /// Values below this land in the underflow bucket (reported as the exact
    /// tracked minimum).
    pub const MIN_TRACKED: f64 = 9.5367431640625e-7; // 2^-20
    /// Values at or above this land in the overflow bucket (reported as the
    /// exact tracked maximum).
    pub const MAX_TRACKED: f64 = 17_592_186_044_416.0; // 2^44

    /// Fixed memory footprint of the bucket arrays, independent of sample
    /// count.
    pub const MEMORY_BYTES: usize = SHARDS * BUCKETS * 8;

    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample. Lock-free: one bucket `fetch_add` plus CAS-loop
    /// sum/min/max updates; non-finite samples are ignored.
    pub fn record(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let shard = &self.shards[shard_index()];
        shard.counts[bucket_index(value)].fetch_add(1, Relaxed);
        atomic_f64_add(&shard.sum_bits, value);
        atomic_f64_update(&self.min_bits, value, |v, cur| v < cur);
        atomic_f64_update(&self.max_bits, value, |v, cur| v > cur);
    }

    /// Exact number of recorded samples.
    pub fn count(&self) -> u64 {
        self.merged().iter().sum()
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.shards.iter().map(|s| f64::from_bits(s.sum_bits.load(Relaxed))).sum()
    }

    /// Exact minimum recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        let v = f64::from_bits(self.min_bits.load(Relaxed));
        v.is_finite().then_some(v)
    }

    /// Exact maximum recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        let v = f64::from_bits(self.max_bits.load(Relaxed));
        v.is_finite().then_some(v)
    }

    /// Exact arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() / n as f64)
    }

    /// Merge counts across shards into one per-bucket array.
    fn merged(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for shard in &self.shards {
            for (o, c) in out.iter_mut().zip(shard.counts.iter()) {
                *o += c.load(Relaxed);
            }
        }
        out
    }

    /// Nearest-rank percentile estimate (0 ≤ p ≤ 100), or `None` when empty.
    /// Within [`MAX_QUANTILE_REL_ERROR`] of the exact sorted-sample answer
    /// for values inside the tracked range; `p ≤ 0` / `p ≥ 100` return the
    /// exact min / max.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.percentiles(&[p]).map(|v| v[0])
    }

    /// Batch variant of [`Histogram::percentile`]: one merge pass answers
    /// every requested percentile.
    pub fn percentiles(&self, ps: &[f64]) -> Option<Vec<f64>> {
        let merged = self.merged();
        let n: u64 = merged.iter().sum();
        if n == 0 {
            return None;
        }
        let (min, max) = (self.min().unwrap_or(0.0), self.max().unwrap_or(0.0));
        Some(
            ps.iter()
                .map(|&p| {
                    if p <= 0.0 {
                        return min;
                    }
                    if p >= 100.0 {
                        return max;
                    }
                    let rank = ((p / 100.0) * (n as f64 - 1.0)).round() as u64;
                    let mut cum = 0u64;
                    for (i, c) in merged.iter().enumerate() {
                        cum += c;
                        if cum > rank {
                            return representative(i).clamp(min, max);
                        }
                    }
                    max
                })
                .collect(),
        )
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs in
    /// ascending order — the Prometheus `_bucket{le=...}` series (the final
    /// `+Inf` bucket is the total count and is left to the exporter).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let merged = self.merged();
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in merged.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_bounds(i).1, cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_answers_none() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none() && h.min().is_none() && h.max().is_none());
        assert!(h.percentile(50.0).is_none());
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn exact_stats_and_extreme_percentiles() {
        let h = Histogram::new();
        for v in [5.0, 1.0, 9.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 18.0);
        assert_eq!(h.mean(), Some(4.5));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(9.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(100.0), Some(9.0));
    }

    #[test]
    fn single_sample_quantiles_are_exact_via_clamping() {
        let h = Histogram::new();
        h.record(10.0);
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(10.0));
        }
    }

    #[test]
    fn bucket_index_bounds_round_trip() {
        for v in [
            Histogram::MIN_TRACKED,
            1e-3,
            0.5,
            1.0,
            1.5,
            4.999,
            1234.567,
            1e9,
            Histogram::MAX_TRACKED / 2.0,
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi}) (bucket {i})");
            assert!((hi - lo) / lo <= 1.0 / SUBBUCKETS as f64 + 1e-12);
        }
    }

    #[test]
    fn out_of_range_values_clamp_to_edge_buckets() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(1e-9);
        h.record(1e15);
        h.record(f64::NAN); // ignored
        h.record(f64::INFINITY); // ignored
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(1e15));
        // Underflow reports within [min, max]; never panics.
        let p50 = h.percentile(50.0).unwrap();
        assert!((-3.0..=1e15).contains(&p50));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn memory_is_fixed_and_small() {
        assert!(Histogram::MEMORY_BYTES <= 32 * 1024, "{}", Histogram::MEMORY_BYTES);
        // ~16 KiB with 2 shards x (2 + 64*16) buckets x 8 B.
        assert_eq!(Histogram::MEMORY_BYTES, SHARDS * BUCKETS * 8);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total() {
        let h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        let mut prev_le = 0.0;
        let mut prev_cum = 0;
        for &(le, cum) in &buckets {
            assert!(le > prev_le && cum >= prev_cum, "le={le} cum={cum}");
            prev_le = le;
            prev_cum = cum;
        }
        assert_eq!(buckets.last().unwrap().1, 100);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        h.record((t * 10_000 + i) as f64 + 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(40_000.0));
    }

    /// Exact nearest-rank percentile over a sorted copy (the old
    /// `MetricSeries` semantics the histogram approximates).
    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    proptest! {
        /// Quantile estimates stay within the documented relative-error
        /// bound of the exact sorted-sample nearest-rank answer, for any
        /// sample set inside the tracked range.
        #[test]
        fn quantiles_within_documented_error_bound(
            values in proptest::collection::vec(1e-6f64..1e12, 64),
            keep in 1usize..64,
            ps in proptest::collection::vec(0.0f64..100.0001, 6),
        ) {
            let values = &values[..keep];
            let h = Histogram::new();
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for &v in values {
                h.record(v);
            }
            for &p in &ps {
                let exact = exact_percentile(&sorted, p);
                let est = h.percentile(p).unwrap();
                let rel = (est - exact).abs() / exact.abs().max(f64::MIN_POSITIVE);
                prop_assert!(
                    rel <= MAX_QUANTILE_REL_ERROR + 1e-12,
                    "p{p}: est {est} vs exact {exact} (rel {rel})"
                );
            }
        }
    }
}
