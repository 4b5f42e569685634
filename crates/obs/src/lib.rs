//! # aeris-obs — observability for the AERIS runtimes
//!
//! Four pieces, layered:
//!
//! - [`tracer`]: the low-overhead, thread-shared span tracer. One [`Tracer`]
//!   handle is cloned into every rank thread / serving worker; a span site is
//!   `let _g = tracer.span(SpanCategory::Forward, rank).step(s).micro(m);`
//!   and costs one relaxed atomic load when tracing is disabled.
//! - [`metrics`]: [`MetricSeries`], thread-shared scalar distributions
//!   backed by [`histogram`] — a lock-free sharded log-linear histogram
//!   with bounded (~16 KiB) memory, exact count/sum/min/max, and
//!   deterministic quantile estimates with a documented relative-error
//!   bound.
//! - [`slo`]: latency/availability objectives over ring-buffer sample
//!   windows with Google-SRE multi-window burn-rate alerting
//!   ([`SloVerdict::Ok`]/[`SloVerdict::Warn`]/[`SloVerdict::Page`]).
//! - [`status`]: the [`StatusReport`] introspection snapshot (queue depths,
//!   wait quantiles, quota balances, cache occupancy, SLO state) rendered
//!   as a text dashboard or exported as Prometheus gauges.
//! - exporters: [`chrome`] (Chrome-trace / Perfetto JSON of the per-rank
//!   pipeline timeline) and [`prometheus`] (text exposition of span totals,
//!   counters, gauges, series summaries, and histogram buckets — plus
//!   [`prometheus::parse_text`] for round-trip tests), backed by [`json`],
//!   a dependency-free parser the repo's tests use to validate every JSON
//!   artifact they emit.
//! - [`report`]: per-step [`StepBreakdown`]s and the measured-vs-modeled
//!   [`MfuReport`], including the exact M = b·s·h/SP/WP byte-law check
//!   against the runtime's traffic counters.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod report;
pub mod slo;
pub mod status;
pub mod tracer;

pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use histogram::Histogram;
pub use json::JsonValue;
pub use metrics::{MetricSeries, MetricSummary};
pub use prometheus::{escape_label, parse_text, prometheus_text, PromSample};
pub use report::{
    mfu_report, step_breakdowns, CommBytes, LawCheck, MessageLaw, MfuInputs, MfuReport,
    StepBreakdown,
};
pub use slo::{SloConfig, SloState, SloTracker, SloVerdict};
pub use status::{CacheStatus, StatusReport, TenantStatus, TierStatus};
pub use tracer::{verify_balanced, SpanCategory, SpanGuard, SpanRecord, Tracer};
