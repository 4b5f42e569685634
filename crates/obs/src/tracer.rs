//! The span tracer: a thread-shared, low-overhead record of what each actor
//! (rank thread, serving worker) did and when.
//!
//! Design constraints, in priority order:
//!
//! 1. **Disabled is free.** Every span site costs exactly one relaxed atomic
//!    load when tracing is off (`obs.span_disabled_ns` in `benchmark/` and
//!    the tier-1 overhead test keep this honest at < 2% of a training step).
//! 2. **Deterministic assertions.** Wall-clock timestamps are monotonic but
//!    not reproducible, so every span also carries *logical* coordinates: a
//!    global begin/end sequence number plus optional step/microbatch tags.
//!    Tests assert on counts, categories, tags, and begin/end balance — never
//!    on durations.
//! 3. **Thread-shared.** One [`Tracer`] handle is cloned into every rank
//!    thread; recording appends under a short mutex hold (spans are only
//!    recorded while enabled, so the lock is never touched on the fast path).
//!
//! A span is opened with [`Tracer::span`] and closed when the returned
//! [`SpanGuard`] drops — including on early returns and error unwinds, which
//! is what keeps begin/end pairs balanced under injected faults.

use crate::metrics::MetricSeries;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a span measures. The taxonomy mirrors the paper's step decomposition
/// (compute, Ulysses all-to-all, pipeline P2P, collectives, bubble) plus the
/// serving-engine stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanCategory {
    /// Forward computation of one microbatch on one stage.
    Forward,
    /// Backward computation of one microbatch on one stage.
    Backward,
    /// Pipeline point-to-point send/recv (activations, gradients, shift
    /// exchange between stage layouts).
    P2p,
    /// Ulysses / window-parallel all-to-all.
    AllToAll,
    /// Gradient allreduce.
    AllReduce,
    /// ZeRO-1 parameter allgather.
    AllGather,
    /// Control / parameter broadcast.
    Broadcast,
    /// ZeRO-1 owner update + parameter redistribution.
    OptimizerStep,
    /// Time blocked waiting on the pipeline (warm-up / cool-down idle —
    /// the schedule's bubble, directly visible per rank in the timeline).
    Bubble,
    /// Serving: forming a shape-compatible batch from the task pool.
    BatchAssembly,
    /// Serving: rollout-cache prefix lookup.
    CacheLookup,
    /// Serving: request validation + admission control.
    Admission,
    /// Coordinated checkpoint write.
    Checkpoint,
    /// A parked data-parallel replica waiting out a fault window (opens at
    /// retirement, closes at rejoin — balanced pairs prove every retired
    /// replica that was scheduled to return actually did).
    Outage,
    /// Elastic recovery work: supervisor restart attempts and the rejoin
    /// state re-shard (donor send / rejoiner receive).
    Recovery,
}

impl SpanCategory {
    /// All categories, in display order.
    pub const ALL: [SpanCategory; 15] = [
        SpanCategory::Forward,
        SpanCategory::Backward,
        SpanCategory::P2p,
        SpanCategory::AllToAll,
        SpanCategory::AllReduce,
        SpanCategory::AllGather,
        SpanCategory::Broadcast,
        SpanCategory::OptimizerStep,
        SpanCategory::Bubble,
        SpanCategory::BatchAssembly,
        SpanCategory::CacheLookup,
        SpanCategory::Admission,
        SpanCategory::Checkpoint,
        SpanCategory::Outage,
        SpanCategory::Recovery,
    ];

    /// Stable lowercase name (Prometheus label / Chrome-trace category).
    pub fn name(self) -> &'static str {
        match self {
            SpanCategory::Forward => "forward",
            SpanCategory::Backward => "backward",
            SpanCategory::P2p => "p2p",
            SpanCategory::AllToAll => "alltoall",
            SpanCategory::AllReduce => "allreduce",
            SpanCategory::AllGather => "allgather",
            SpanCategory::Broadcast => "broadcast",
            SpanCategory::OptimizerStep => "optimizer_step",
            SpanCategory::Bubble => "bubble",
            SpanCategory::BatchAssembly => "batch_assembly",
            SpanCategory::CacheLookup => "cache_lookup",
            SpanCategory::Admission => "admission",
            SpanCategory::Checkpoint => "checkpoint",
            SpanCategory::Outage => "outage",
            SpanCategory::Recovery => "recovery",
        }
    }
}

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub category: SpanCategory,
    /// Site label (defaults to the category name).
    pub label: &'static str,
    /// The actor (rank thread / serving worker) that executed the span.
    pub actor: usize,
    /// Logical training step / request id, when the site tagged one.
    pub step: Option<u64>,
    /// Microbatch / ensemble-member index, when the site tagged one.
    pub micro: Option<u64>,
    /// Monotonic begin, nanoseconds since the tracer's epoch.
    pub begin_ns: u64,
    /// Monotonic end, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Global logical order at open (deterministic modulo thread
    /// interleaving; unique per span).
    pub seq_begin: u64,
    /// Global logical order at close.
    pub seq_end: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

struct TracerInner {
    enabled: AtomicBool,
    epoch: Instant,
    seq: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
    /// Named metric series registered for export. Recording through a series
    /// is *not* gated by `enabled` — they are the ops surface (latency, batch
    /// size, …) and stay live in production; only span/counter sites are
    /// subject to the one-atomic-load budget.
    series: Mutex<Vec<(String, MetricSeries)>>,
    /// Last-write-wins gauges (status snapshot export). Like series, gauges
    /// are the always-on ops surface and are not gated by `enabled`.
    gauges: Mutex<BTreeMap<String, f64>>,
}

/// A cloneable, thread-shared span tracer. `Tracer::default()` is disabled;
/// a disabled tracer's span sites cost one relaxed atomic load.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("spans", &self.span_count())
            .finish()
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                series: Mutex::new(Vec::new()),
                gauges: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// An enabled tracer.
    pub fn enabled() -> Self {
        Tracer::new(true)
    }

    /// A disabled tracer (span sites cost one atomic load).
    pub fn disabled() -> Self {
        Tracer::new(false)
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Open a span. The span closes (and is recorded) when the returned
    /// guard drops; tag it with [`SpanGuard::step`] / [`SpanGuard::micro`].
    ///
    /// Disabled fast path: one relaxed atomic load, no allocation, no lock.
    #[inline]
    pub fn span(&self, category: SpanCategory, actor: usize) -> SpanGuard {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return SpanGuard::noop();
        }
        self.begin_span(category, actor)
    }

    #[cold]
    fn begin_span(&self, category: SpanCategory, actor: usize) -> SpanGuard {
        let seq_begin = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            inner: Some(Arc::clone(&self.inner)),
            category,
            label: category.name(),
            actor,
            step: None,
            micro: None,
            begin_ns: self.inner.epoch.elapsed().as_nanos() as u64,
            seq_begin,
        }
    }

    /// Bump a named counter. Disabled fast path: one relaxed atomic load.
    #[inline]
    pub fn incr(&self, name: &str, by: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        *self.inner.counters.lock().entry(name.to_string()).or_insert(0) += by;
    }

    /// Bump a named counter regardless of the enabled flag. For rare
    /// operational events (recovery restarts, steps lost) that must stay
    /// visible in production where span tracing is off.
    pub fn incr_always(&self, name: &str, by: u64) {
        *self.inner.counters.lock().entry(name.to_string()).or_insert(0) += by;
    }

    /// Set a last-write-wins gauge (always on, like series). Rendered as a
    /// Prometheus `gauge` family by [`Tracer::prometheus_text`].
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner.gauges.lock().insert(name.to_string(), value);
    }

    /// Snapshot of the named gauges.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.inner.gauges.lock().iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Get-or-register a named metric series. The returned handle is shared:
    /// recording through it feeds the tracer's Prometheus export. Series
    /// record regardless of the enabled flag (they are the always-on ops
    /// surface).
    pub fn series(&self, name: &str) -> MetricSeries {
        let mut reg = self.inner.series.lock();
        if let Some((_, s)) = reg.iter().find(|(n, _)| n == name) {
            return s.clone();
        }
        let s = MetricSeries::new();
        reg.push((name.to_string(), s.clone()));
        s
    }

    /// Number of completed spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.inner.spans.lock().len()
    }

    /// Copy out all completed spans (ordered by completion time).
    pub fn snapshot_spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().clone()
    }

    /// Drain all completed spans, leaving the tracer empty.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.inner.spans.lock())
    }

    /// Snapshot of the named counters.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.counters.lock().iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Snapshot of the registered metric series handles.
    pub fn series_list(&self) -> Vec<(String, MetricSeries)> {
        self.inner.series.lock().clone()
    }

    /// Export completed spans as Chrome-trace JSON (open in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        crate::chrome::chrome_trace_json(&self.snapshot_spans())
    }

    /// Export span totals, counters, gauges, and metric-series
    /// summaries + histogram buckets in the Prometheus text exposition
    /// format.
    pub fn prometheus_text(&self) -> String {
        crate::prometheus::prometheus_text(
            &self.snapshot_spans(),
            &self.counters(),
            &self.gauges(),
            &self.series_list(),
        )
    }
}

/// An open span; recording happens when it drops (also on unwind/early
/// return, which keeps begin/end pairs balanced under faults).
#[must_use = "a span measures the scope holding its guard"]
pub struct SpanGuard {
    /// `None` for the disabled-tracer no-op guard.
    inner: Option<Arc<TracerInner>>,
    category: SpanCategory,
    label: &'static str,
    actor: usize,
    step: Option<u64>,
    micro: Option<u64>,
    begin_ns: u64,
    seq_begin: u64,
}

impl SpanGuard {
    fn noop() -> Self {
        SpanGuard {
            inner: None,
            category: SpanCategory::Forward,
            label: "",
            actor: 0,
            step: None,
            micro: None,
            begin_ns: 0,
            seq_begin: 0,
        }
    }

    /// Tag the span with a logical step (or request id).
    pub fn step(mut self, step: u64) -> Self {
        if self.inner.is_some() {
            self.step = Some(step);
        }
        self
    }

    /// Tag the span with a microbatch / member index.
    pub fn micro(mut self, micro: u64) -> Self {
        if self.inner.is_some() {
            self.micro = Some(micro);
        }
        self
    }

    /// Override the site label (defaults to the category name).
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let seq_end = inner.seq.fetch_add(1, Ordering::Relaxed);
        inner.spans.lock().push(SpanRecord {
            category: self.category,
            label: self.label,
            actor: self.actor,
            step: self.step,
            micro: self.micro,
            begin_ns: self.begin_ns,
            end_ns,
            seq_begin: self.seq_begin,
            seq_end,
        });
    }
}

/// Verify per-actor begin/end balance and stack discipline: replaying every
/// actor's spans in logical-sequence order, each close must match the most
/// recently opened span, and nothing may stay open. Holds by construction
/// (guards close on drop, even through `?` returns and unwinds); the
/// property tests check it stays true under induced faults.
pub fn verify_balanced(spans: &[SpanRecord]) -> Result<(), String> {
    use std::collections::HashMap;
    // Per actor: interleave begin/end events by global sequence number.
    let mut events: HashMap<usize, Vec<(u64, bool, usize)>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.seq_end <= s.seq_begin {
            return Err(format!("span {i}: seq_end {} <= seq_begin {}", s.seq_end, s.seq_begin));
        }
        let e = events.entry(s.actor).or_default();
        e.push((s.seq_begin, true, i));
        e.push((s.seq_end, false, i));
    }
    for (actor, mut evs) in events {
        evs.sort_unstable_by_key(|&(seq, _, _)| seq);
        let mut stack: Vec<usize> = Vec::new();
        for (seq, is_begin, i) in evs {
            if is_begin {
                stack.push(i);
            } else {
                match stack.pop() {
                    Some(top) if top == i => {}
                    Some(top) => {
                        return Err(format!(
                            "actor {actor}: span {i} ({}) closed at seq {seq} while span {top} \
                             ({}) was innermost — interleaved, not nested",
                            spans[i].label, spans[top].label
                        ));
                    }
                    None => return Err(format!("actor {actor}: close without open at seq {seq}")),
                }
            }
        }
        if let Some(open) = stack.pop() {
            return Err(format!("actor {actor}: span {open} ({}) never closed", spans[open].label));
        }
    }
    Ok(())
}

#[cfg(test)]
impl Tracer {
    /// Toggle recording at runtime (shared across all clones).
    fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _g = t.span(SpanCategory::Forward, 0).step(1).micro(2);
        }
        t.incr("x", 3);
        assert_eq!(t.span_count(), 0);
        assert!(t.counters().is_empty());
    }

    #[test]
    fn spans_record_on_drop_with_tags() {
        let t = Tracer::enabled();
        {
            let _outer = t.span(SpanCategory::Forward, 3).step(7).micro(1);
            let _inner = t.span(SpanCategory::AllToAll, 3).step(7);
        }
        let spans = t.snapshot_spans();
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        assert_eq!(spans[0].category, SpanCategory::AllToAll);
        assert_eq!(spans[1].category, SpanCategory::Forward);
        assert_eq!(spans[1].step, Some(7));
        assert_eq!(spans[1].micro, Some(1));
        assert_eq!(spans[1].actor, 3);
        assert!(spans[1].seq_begin < spans[0].seq_begin);
        verify_balanced(&spans).expect("proper nesting");
    }

    #[test]
    fn early_return_still_closes_spans() {
        let t = Tracer::enabled();
        fn failing(t: &Tracer) -> Result<(), ()> {
            let _g = t.span(SpanCategory::Backward, 0);
            Err(())
        }
        assert!(failing(&t).is_err());
        assert_eq!(t.span_count(), 1);
        verify_balanced(&t.snapshot_spans()).expect("balanced after early return");
    }

    #[test]
    fn verify_balanced_rejects_interleaving() {
        // Hand-built interleaved (not nested) spans on one actor:
        // a opens, b opens, a closes, b closes.
        let bad = vec![
            SpanRecord {
                category: SpanCategory::Forward,
                label: "a",
                actor: 0,
                step: None,
                micro: None,
                begin_ns: 0,
                end_ns: 2,
                seq_begin: 0,
                seq_end: 2,
            },
            SpanRecord {
                category: SpanCategory::Backward,
                label: "b",
                actor: 0,
                step: None,
                micro: None,
                begin_ns: 1,
                end_ns: 3,
                seq_begin: 1,
                seq_end: 3,
            },
        ];
        assert!(verify_balanced(&bad).is_err());
    }

    #[test]
    fn counters_and_series_share_state_across_clones() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t.incr("hits", 1);
        t2.incr("hits", 2);
        assert_eq!(t.counters(), vec![("hits".to_string(), 3)]);
        let s = t.series("latency");
        s.record(5.0);
        assert_eq!(t2.series("latency").count(), 1);
        // Series stay live even when disabled (ops surface).
        t.set_enabled(false);
        t2.series("latency").record(6.0);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn runtime_toggle_gates_span_sites() {
        let t = Tracer::disabled();
        {
            let _g = t.span(SpanCategory::Forward, 0);
        }
        t.set_enabled(true);
        {
            let _g = t.span(SpanCategory::Forward, 0);
        }
        assert_eq!(t.span_count(), 1);
    }

    proptest::proptest! {
        /// The parsers of both exports are total: a flipped byte and a cut
        /// at any offset yield `Ok` or a typed `Err`, never a panic.
        #[test]
        fn corrupt_exports_parse_or_fail_without_panicking(
            flip_at in 0usize..100_000,
            flip_mask in 1u8..255,
            cut_at in 0usize..100_000,
        ) {
            let t = Tracer::enabled();
            {
                let _f = t.span(SpanCategory::Forward, 0).step(3).micro(1);
                let _a = t.span(SpanCategory::AllToAll, 1).label("ulysses");
            }
            t.incr("cache hits", 5);
            t.set_gauge("queue depth", 2.5);
            t.series("latency_ms").record(4.0);
            let (chrome, prom) = (t.chrome_trace(), t.prometheus_text());
            crate::chrome::validate_chrome_trace(&chrome).expect("intact export is valid");
            crate::prometheus::parse_text(&prom).expect("intact exposition parses");

            let corrupt = |doc: String| {
                let mut bytes = doc.into_bytes();
                let at = flip_at % bytes.len();
                bytes[at] ^= flip_mask;
                bytes.truncate(bytes.len() - cut_at % bytes.len());
                String::from_utf8_lossy(&bytes).into_owned()
            };
            let _ = crate::json::parse(&corrupt(chrome));
            let _ = crate::prometheus::parse_text(&corrupt(prom));
        }
    }
}
