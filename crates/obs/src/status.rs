//! Live engine introspection: one [`StatusReport`] snapshot of everything
//! an operator needs to answer "is serving healthy *right now*".
//!
//! The report is plain data — the serve engine (which can see the
//! scheduler, quota table, cache, and SLO trackers) fills it
//! in; this module only defines the shape, the text dashboard rendering
//! ([`std::fmt::Display`]), and the Prometheus gauge export
//! ([`StatusReport::export_gauges`] pushes every numeric field into the
//! tracer's gauge registry, from where the existing
//! [`prometheus_text`](crate::prometheus::prometheus_text) path renders it).

use crate::metrics::MetricSummary;
use crate::slo::SloState;
use crate::tracer::Tracer;

/// One serving tier's scheduling and SLO state.
#[derive(Clone, Debug, Default)]
pub struct TierStatus {
    pub name: String,
    /// Entries waiting in the dispatch queue right now.
    pub queue_depth: usize,
    /// EDF/WFQ queue-wait distribution (enqueue → dispatch), milliseconds.
    pub queue_wait_ms: Option<MetricSummary>,
    /// WFQ virtual-time lag distribution (how far behind the fair-share
    /// frontier tasks were when dispatched).
    pub wfq_lag: Option<MetricSummary>,
    /// EWMA service-time estimate (ms per work unit), `None` until warm.
    pub est_ms_per_unit: Option<f64>,
    /// Samples the estimator has absorbed.
    pub est_samples: u64,
    /// Worker threads dispatching for the tier.
    pub workers: usize,
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    /// Live SLO state, when the engine has an objective configured.
    pub slo: Option<SloState>,
}

/// One tenant's admission and quota state.
#[derive(Clone, Debug, Default)]
pub struct TenantStatus {
    pub name: String,
    /// Current token-bucket balance, `None` for unlimited tenants.
    pub quota_tokens: Option<f64>,
    pub submitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub quota_denied: u64,
    pub rejected: u64,
    pub slo: Option<SloState>,
}

/// Rollout-cache occupancy and effectiveness.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStatus {
    pub hits: u64,
    pub misses: u64,
    pub hit_rate: f64,
    pub bytes: u64,
    pub budget_bytes: u64,
    pub entries: u64,
    pub evictions: u64,
}

/// A single point-in-time introspection snapshot of a serving engine.
#[derive(Clone, Debug, Default)]
pub struct StatusReport {
    pub tiers: Vec<TierStatus>,
    pub tenants: Vec<TenantStatus>,
    pub cache: Option<CacheStatus>,
    /// Requests admitted but not yet terminal.
    pub in_flight: u64,
    /// Named counters worth surfacing (swipe recovery/restart counters,
    /// cache hit counters, …) — typically a filtered tracer counter list.
    pub counters: Vec<(String, u64)>,
}

fn fmt_summary(s: &Option<MetricSummary>) -> String {
    match s {
        Some(m) if m.count > 0 => {
            format!("p50={:.2} p99={:.2} max={:.2} (n={})", m.p50, m.p99, m.max, m.count)
        }
        _ => "-".to_string(),
    }
}

impl std::fmt::Display for StatusReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== engine status ==")?;
        writeln!(f, "in-flight: {}", self.in_flight)?;
        for t in &self.tiers {
            writeln!(
                f,
                "tier {:<8} depth={:<3} admitted={} completed={} shed={} workers={}",
                t.name, t.queue_depth, t.admitted, t.completed, t.shed, t.workers
            )?;
            writeln!(f, "  queue wait ms: {}", fmt_summary(&t.queue_wait_ms))?;
            writeln!(f, "  wfq lag:       {}", fmt_summary(&t.wfq_lag))?;
            match t.est_ms_per_unit {
                Some(ms) => {
                    writeln!(f, "  est: {ms:.3} ms/unit (n={})", t.est_samples)?;
                }
                None => writeln!(f, "  est: warming (n={})", t.est_samples)?,
            }
            if let Some(slo) = &t.slo {
                writeln!(f, "  slo: {slo}")?;
            }
        }
        for t in &self.tenants {
            write!(
                f,
                "tenant {:<12} submitted={} completed={} shed={} quota_denied={} rejected={}",
                t.name, t.submitted, t.completed, t.shed, t.quota_denied, t.rejected
            )?;
            match t.quota_tokens {
                Some(tok) => writeln!(f, " tokens={tok:.1}")?,
                None => writeln!(f, " tokens=unlimited")?,
            }
            if let Some(slo) = &t.slo {
                writeln!(f, "  slo: {slo}")?;
            }
        }
        if let Some(c) = &self.cache {
            writeln!(
                f,
                "cache: hit_rate={:.1}% entries={} bytes={}/{} evictions={}",
                c.hit_rate * 100.0,
                c.entries,
                c.bytes,
                c.budget_bytes,
                c.evictions
            )?;
        }
        for (name, v) in &self.counters {
            writeln!(f, "counter {name} = {v}")?;
        }
        Ok(())
    }
}

impl StatusReport {
    /// Push every numeric field as a gauge into `tracer`'s gauge registry;
    /// the next [`Tracer::prometheus_text`] render then exposes the whole
    /// snapshot through the existing Prometheus path.
    pub fn export_gauges(&self, tracer: &Tracer) {
        tracer.set_gauge("status_in_flight", self.in_flight as f64);
        for t in &self.tiers {
            let g = |k: &str, v: f64| tracer.set_gauge(&format!("status_{}_{k}", t.name), v);
            g("queue_depth", t.queue_depth as f64);
            g("admitted", t.admitted as f64);
            g("completed", t.completed as f64);
            g("shed", t.shed as f64);
            if let Some(w) = &t.queue_wait_ms {
                g("queue_wait_p99_ms", w.p99);
            }
            if let Some(l) = &t.wfq_lag {
                g("wfq_lag_p99", l.p99);
            }
            if let Some(ms) = t.est_ms_per_unit {
                g("est_ms_per_unit", ms);
            }
            if let Some(slo) = &t.slo {
                g("slo_severity", slo.verdict.severity() as f64);
                g("slo_long_burn", slo.long_burn);
                g("slo_budget_remaining", slo.budget_remaining);
            }
        }
        for t in &self.tenants {
            if let Some(tok) = t.quota_tokens {
                tracer.set_gauge(&format!("status_tenant_{}_tokens", t.name), tok);
            }
        }
        if let Some(c) = &self.cache {
            tracer.set_gauge("status_cache_hit_rate", c.hit_rate);
            tracer.set_gauge("status_cache_bytes", c.bytes as f64);
            tracer.set_gauge("status_cache_entries", c.entries as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SloState, SloVerdict};

    fn sample_report() -> StatusReport {
        StatusReport {
            tiers: vec![TierStatus {
                name: "fast".into(),
                queue_depth: 3,
                queue_wait_ms: Some(MetricSummary {
                    count: 10,
                    mean: 1.0,
                    p50: 0.9,
                    p95: 2.0,
                    p99: 2.5,
                    max: 3.0,
                }),
                wfq_lag: None,
                est_ms_per_unit: Some(1.25),
                est_samples: 42,
                workers: 2,
                admitted: 100,
                completed: 95,
                shed: 2,
                slo: Some(SloState {
                    verdict: SloVerdict::Warn,
                    short_burn: 1.5,
                    long_burn: 1.2,
                    budget_remaining: 0.4,
                    good_total: 90,
                    total: 97,
                }),
            }],
            tenants: vec![TenantStatus {
                name: "ops".into(),
                quota_tokens: Some(17.5),
                submitted: 50,
                completed: 48,
                shed: 1,
                quota_denied: 1,
                rejected: 0,
                slo: None,
            }],
            cache: Some(CacheStatus {
                hits: 70,
                misses: 30,
                hit_rate: 0.7,
                bytes: 1024,
                budget_bytes: 4096,
                entries: 5,
                evictions: 1,
            }),
            in_flight: 3,
            counters: vec![("swipe_restarts".into(), 2)],
        }
    }

    #[test]
    fn dashboard_renders_every_section() {
        let text = sample_report().to_string();
        for needle in [
            "engine status",
            "tier fast",
            "queue wait ms: p50=0.90",
            "est: 1.250 ms/unit",
            "slo: warn",
            "tenant ops",
            "tokens=17.5",
            "cache: hit_rate=70.0%",
            "counter swipe_restarts = 2",
            "in-flight: 3",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn gauges_flow_through_the_prometheus_path() {
        let tracer = Tracer::enabled();
        sample_report().export_gauges(&tracer);
        let prom = tracer.prometheus_text();
        for needle in [
            "aeris_status_in_flight 3",
            "aeris_status_fast_queue_depth 3",
            "aeris_status_fast_slo_severity 1",
            "aeris_status_fast_slo_budget_remaining 0.4",
            "aeris_status_tenant_ops_tokens 17.5",
            "aeris_status_cache_hit_rate 0.7",
            "# TYPE aeris_status_in_flight gauge",
        ] {
            assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
        }
    }
}
