//! The read side: the live `status()` snapshot and the final report, both
//! assembled from `Lane::counts` and one walk of the tenant table.

use super::{EngineShared, Lane, ServeEngine};
use crate::report::{ServeReport, ServeSloReport, TenantCounts, TierCounts};
use aeris_obs::{CacheStatus, SloState, SloTracker, StatusReport, TenantStatus, TierStatus};
use aeris_sched::{ServiceEstimator, Tier};
use std::collections::HashMap;

impl EngineShared {
    /// Every tenant's ledger and live SLO state, sorted by name: the one
    /// walk of the tenant table that both the live snapshot and the final
    /// report read.
    fn tenant_rows(&self) -> Vec<(String, TenantCounts, Option<SloState>)> {
        let mut rows: Vec<_> = self
            .tenants
            .lock()
            .iter()
            .map(|(name, e)| (name.to_string(), e.counts, e.slo.as_ref().map(SloTracker::state)))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// The final ops report of a drained engine. Its four totals are sums
    /// of the two ledgers: outcomes of the lanes, quota denials (which never
    /// reach a lane) of the tenants.
    pub(super) fn report(&self) -> ServeReport {
        let rows = self.tenant_rows();
        let slo = self.cfg.slo.as_ref().map(|_| ServeSloReport {
            tiers: Tier::ALL
                .map(|t| self.lane(t).slo.as_ref().map_or_else(SloState::empty, SloTracker::state)),
            tenants: rows.iter().filter_map(|(n, _, s)| s.map(|s| (n.clone(), s))).collect(),
        });
        let tiers = Tier::ALL.map(|t| self.lane(t).counts());
        let sum = |f: fn(&TierCounts) -> u64| tiers.iter().map(f).sum();
        ServeReport {
            completed: sum(|t| t.completed),
            nowcasts: sum(|t| t.nowcasts),
            shed: sum(|t| t.shed),
            quota_denied: rows.iter().map(|(_, c, _)| c.quota_denied).sum(),
            tiers,
            tenants: rows.into_iter().map(|(name, counts, _)| (name, counts)).collect(),
            metrics: self.metrics.clone(),
            cache: self.cache.stats(),
            slo,
        }
    }
}

impl Lane {
    /// The lane's row of the live snapshot.
    fn status(&self, estimator: &ServiceEstimator) -> TierStatus {
        let counts = self.counts();
        TierStatus {
            name: self.tier.name().to_string(),
            queue_depth: self.queue.depth(),
            queue_wait_ms: self.wait.wait_ms.summary(),
            wfq_lag: self.wait.virtual_lag.summary(),
            est_ms_per_unit: estimator.per_unit(self.tier).map(|s| s * 1e3),
            est_samples: estimator.samples(self.tier),
            workers: self.workers,
            admitted: counts.admitted,
            completed: counts.completed,
            shed: counts.shed,
            slo: self.slo.as_ref().map(SloTracker::state),
        }
    }
}

impl ServeEngine {
    /// One point-in-time introspection snapshot: queue depths, wait/lag
    /// quantiles, service estimates, worker sizing, per-tenant
    /// ledgers and token balances, cache effectiveness, live SLO states,
    /// and the tracer's counters. Render it with `Display` for the text
    /// dashboard, or push it into the Prometheus path with
    /// [`StatusReport::export_gauges`].
    pub fn status(&self) -> StatusReport {
        let shared = &self.shared;
        // Display order is quality first; a lane without workers (the fast
        // lane of a quality-only engine) is not shown.
        let lanes = Tier::ALL.into_iter().rev().map(|t| shared.lane(t)).filter(|l| l.workers > 0);
        let tiers = lanes.map(|lane| lane.status(&shared.estimator)).collect();
        let balances: HashMap<String, f64> =
            shared.quotas.iter().flat_map(|q| q.balances()).collect();
        let tenants = shared
            .tenant_rows()
            .into_iter()
            .map(|(name, c, slo)| TenantStatus {
                quota_tokens: balances.get(&name).copied(),
                name,
                submitted: c.submitted,
                completed: c.completed,
                shed: c.shed,
                quota_denied: c.quota_denied,
                rejected: c.rejected,
                slo,
            })
            .collect();
        let cs = shared.cache.stats();
        StatusReport {
            tiers,
            tenants,
            cache: Some(CacheStatus {
                hits: cs.hits,
                misses: cs.misses,
                hit_rate: cs.hit_rate(),
                bytes: cs.bytes as u64,
                budget_bytes: shared.cfg.cache_bytes as u64,
                entries: cs.entries as u64,
                evictions: cs.evictions,
            }),
            in_flight: *shared.outstanding.lock() as u64,
            counters: shared.tracer.counters(),
        }
    }
}
