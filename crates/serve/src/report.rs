//! The post-shutdown ops report: per-tier / per-tenant counters, final SLO
//! states, and the request-conservation check.

use crate::cache::CacheStats;
use crate::engine::ServeMetrics;
use aeris_obs::SloState;
use aeris_sched::Tier;

/// Per-tier slice of the final report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Requests routed here that passed admission control.
    pub admitted: u64,
    /// Requests this tier served to completion.
    pub completed: u64,
    /// Requests shed on this tier for deadline reasons.
    pub shed: u64,
    /// Of the completed, nowcast requests.
    pub nowcasts: u64,
}

/// Per-tenant slice of the final report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounts {
    /// Requests that passed validation and named this tenant.
    pub submitted: u64,
    /// Of the submitted, requests that also passed quota, routing, and
    /// admission control (each ends completed or shed).
    pub admitted: u64,
    /// Of the submitted, requests rejected after the quota check: a bad
    /// route (explicit fast tier without a student) or a full queue.
    pub rejected: u64,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Requests shed for deadline reasons.
    pub shed: u64,
    /// Requests refused at admission by the tenant's token bucket.
    pub quota_denied: u64,
}

/// Final SLO snapshot of a drained engine (present iff
/// [`ServeConfig::slo`](crate::api::ServeConfig::slo) was configured).
#[derive(Clone, Debug)]
pub struct ServeSloReport {
    /// Per-tier final state, indexed by [`Tier::index`].
    pub tiers: [SloState; 2],
    /// Per-tenant final state, sorted by tenant name.
    pub tenants: Vec<(String, SloState)>,
}

impl ServeSloReport {
    /// The final SLO state of one tier.
    pub fn tier(&self, tier: Tier) -> &SloState {
        &self.tiers[tier.index()]
    }

    /// The final SLO state of a tenant, if it saw any outcomes.
    pub fn tenant(&self, name: &str) -> Option<&SloState> {
        self.tenants.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// Post-shutdown report: everything the engine observed while serving.
pub struct ServeReport {
    /// Requests served to completion (summed over [`ServeReport::tiers`]).
    pub completed: u64,
    /// Of those, nowcast (assimilation) requests (summed over the tiers).
    pub nowcasts: u64,
    /// Requests shed for deadline reasons — at admission (budget already
    /// unmeetable), at dispatch (expired or projected past the deadline
    /// while queued), in total (summed over the tiers).
    pub shed: u64,
    /// Requests refused by per-tenant token buckets (summed over
    /// [`ServeReport::tenants`]).
    pub quota_denied: u64,
    /// Per-tier counters, indexed by [`Tier::index`].
    pub tiers: [TierCounts; 2],
    /// Per-tenant counters, sorted by tenant name.
    pub tenants: Vec<(String, TenantCounts)>,
    /// Latency / batch-size / queue-depth series.
    pub metrics: ServeMetrics,
    /// Final rollout-cache accounting.
    pub cache: CacheStats,
    /// Final SLO states, when the engine ran with an objective.
    pub slo: Option<ServeSloReport>,
}

impl ServeReport {
    /// The per-tier counters for `tier`.
    pub fn tier(&self, tier: Tier) -> &TierCounts {
        &self.tiers[tier.index()]
    }

    /// The counters for a tenant (zeros if it never appeared).
    pub fn tenant(&self, name: &str) -> TenantCounts {
        self.tenants
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Check the report's conservation identities. The engine never loses a
    /// request: post-drain (`in_flight == 0`), every admitted request is
    /// exactly one of completed or shed, and every submitted request is
    /// exactly one of completed, shed, quota-denied, or rejected —
    /// `completed + shed + quota_denied + rejected + in_flight == submitted`
    /// per tenant, `completed + shed == admitted` per tier. Returns the
    /// first violated identity.
    pub fn verify_accounting(&self) -> Result<(), String> {
        for (tier, c) in Tier::ALL.map(|t| (t, self.tier(t))) {
            if c.completed + c.shed != c.admitted {
                return Err(format!(
                    "tier {}: completed {} + shed {} != admitted {}",
                    tier.name(),
                    c.completed,
                    c.shed,
                    c.admitted
                ));
            }
        }
        let mut admitted = 0u64;
        for (name, c) in &self.tenants {
            if c.completed + c.shed != c.admitted {
                return Err(format!(
                    "tenant {name}: completed {} + shed {} != admitted {}",
                    c.completed, c.shed, c.admitted
                ));
            }
            if c.admitted + c.quota_denied + c.rejected != c.submitted {
                return Err(format!(
                    "tenant {name}: admitted {} + quota_denied {} + rejected {} != submitted {}",
                    c.admitted, c.quota_denied, c.rejected, c.submitted
                ));
            }
            admitted += c.admitted;
        }
        let tier_admitted: u64 = self.tiers.iter().map(|t| t.admitted).sum();
        if tier_admitted != admitted {
            return Err(format!(
                "tier admitted total {tier_admitted} != tenant admitted total {admitted}"
            ));
        }
        Ok(())
    }
}
