//! Per-tenant admission quotas (token buckets) and fair-queueing weights.
//!
//! The dispatch queue's WFQ keeps a *backlogged* tenant from starving the
//! others, but it cannot stop a tenant from filling the bounded queue
//! itself. The token bucket closes that hole at admission: each tenant
//! spends tokens proportional to the work it submits (member-steps), and a
//! drained bucket means a typed rejection *before* the request occupies a
//! queue slot. Together: buckets bound how much enters, weights shape who
//! runs first.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-tenant scheduling policy.
#[derive(Clone, Copy, Debug)]
pub struct TenantPolicy {
    /// WFQ weight (> 0; larger = proportionally more service under backlog).
    pub weight: f64,
    /// Token refill rate in work units (member-steps) per second.
    /// Non-positive means *unlimited*: admission never denies.
    pub rate: f64,
    /// Bucket capacity — the largest burst admissible at once. A request
    /// costing more than `burst` can never be admitted (typed deny).
    pub burst: f64,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        // Unlimited by default: quotas are opt-in per deployment.
        TenantPolicy { weight: 1.0, rate: 0.0, burst: 0.0 }
    }
}

/// Quota table configuration: a default policy plus per-tenant overrides.
#[derive(Clone, Debug, Default)]
pub struct QuotaConfig {
    pub default: TenantPolicy,
    pub overrides: Vec<(Arc<str>, TenantPolicy)>,
}

impl QuotaConfig {
    fn policy(&self, tenant: &str) -> TenantPolicy {
        self.overrides
            .iter()
            .find(|(name, _)| &**name == tenant)
            .map(|(_, p)| *p)
            .unwrap_or(self.default)
    }
}

/// Outcome of an admission check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuotaDecision {
    Admit,
    /// Denied; `retry_after` is when the bucket will have refilled enough
    /// (zero when the request exceeds the burst capacity outright and can
    /// never be admitted).
    Deny { retry_after: Duration },
}

impl QuotaDecision {
    pub fn admitted(self) -> bool {
        matches!(self, QuotaDecision::Admit)
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Thread-shared per-tenant token buckets + weight lookup.
pub struct QuotaTable {
    cfg: QuotaConfig,
    buckets: Mutex<HashMap<Arc<str>, Bucket>>,
}

impl QuotaTable {
    pub fn new(cfg: QuotaConfig) -> Self {
        QuotaTable { cfg, buckets: Mutex::new(HashMap::new()) }
    }

    /// The WFQ weight for a tenant (default policy's weight if unknown).
    pub fn weight(&self, tenant: &str) -> f64 {
        let w = self.cfg.policy(tenant).weight;
        if w > 0.0 { w } else { 1.0 }
    }

    /// Try to admit `cost` work units for `tenant` now.
    pub fn admit(&self, tenant: &Arc<str>, cost: f64) -> QuotaDecision {
        self.admit_at(tenant, cost, Instant::now())
    }

    /// Read-only snapshot of every known tenant's current token balance
    /// (refilled to `now` without mutating the buckets), sorted by tenant
    /// name. Unlimited tenants never open a bucket and so never appear.
    pub fn balances(&self) -> Vec<(String, f64)> {
        self.balances_at(Instant::now())
    }

    /// Deterministic-clock variant of [`QuotaTable::balances`].
    pub fn balances_at(&self, now: Instant) -> Vec<(String, f64)> {
        let buckets = self.buckets.lock();
        let mut out: Vec<(String, f64)> = buckets
            .iter()
            .map(|(tenant, bucket)| {
                let policy = self.cfg.policy(tenant);
                let dt = now.saturating_duration_since(bucket.last).as_secs_f64();
                let tokens = (bucket.tokens + dt * policy.rate).min(policy.burst);
                (tenant.to_string(), tokens)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Deterministic-time variant of [`QuotaTable::admit`] (tests inject
    /// the clock; `now` must be monotone per tenant).
    pub fn admit_at(&self, tenant: &Arc<str>, cost: f64, now: Instant) -> QuotaDecision {
        let policy = self.cfg.policy(tenant);
        if policy.rate <= 0.0 {
            return QuotaDecision::Admit;
        }
        let cost = cost.max(0.0);
        if cost > policy.burst {
            // Larger than the bucket can ever hold: waiting will not help.
            return QuotaDecision::Deny { retry_after: Duration::ZERO };
        }
        let mut buckets = self.buckets.lock();
        let bucket = buckets
            .entry(Arc::clone(tenant))
            .or_insert_with(|| Bucket { tokens: policy.burst, last: now });
        let dt = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * policy.rate).min(policy.burst);
        bucket.last = now;
        if bucket.tokens >= cost {
            bucket.tokens -= cost;
            QuotaDecision::Admit
        } else {
            // A rate so small that the wait overflows `Duration` saturates.
            let wait = (cost - bucket.tokens) / policy.rate;
            let retry_after = Duration::try_from_secs_f64(wait).unwrap_or(Duration::MAX);
            QuotaDecision::Deny { retry_after }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limited(rate: f64, burst: f64) -> QuotaTable {
        QuotaTable::new(QuotaConfig {
            default: TenantPolicy { weight: 1.0, rate, burst },
            overrides: vec![],
        })
    }

    #[test]
    fn default_policy_is_unlimited() {
        let q = QuotaTable::new(QuotaConfig::default());
        let t: Arc<str> = Arc::from("anyone");
        for _ in 0..1000 {
            assert!(q.admit(&t, 1e9).admitted());
        }
    }

    #[test]
    fn bucket_drains_then_refills() {
        let q = limited(10.0, 20.0);
        let t: Arc<str> = Arc::from("a");
        let t0 = Instant::now();
        // Full bucket: two 10-unit requests pass, the third is denied.
        assert!(q.admit_at(&t, 10.0, t0).admitted());
        assert!(q.admit_at(&t, 10.0, t0).admitted());
        let denied = q.admit_at(&t, 10.0, t0);
        match denied {
            QuotaDecision::Deny { retry_after } => {
                assert!((retry_after.as_secs_f64() - 1.0).abs() < 1e-6, "10 units at 10/s");
            }
            QuotaDecision::Admit => panic!("empty bucket must deny"),
        }
        // One second later the refill covers it.
        assert!(q.admit_at(&t, 10.0, t0 + Duration::from_secs(1)).admitted());
    }

    #[test]
    fn a_tiny_rate_saturates_retry_after() {
        let q = limited(1e-300, 4.0);
        let t: Arc<str> = Arc::from("a");
        let t0 = Instant::now();
        assert!(q.admit_at(&t, 4.0, t0).admitted());
        assert_eq!(q.admit_at(&t, 4.0, t0), QuotaDecision::Deny { retry_after: Duration::MAX });
    }

    #[test]
    fn burst_caps_refill_and_oversized_requests_never_admit() {
        let q = limited(10.0, 20.0);
        let t: Arc<str> = Arc::from("a");
        let t0 = Instant::now();
        assert_eq!(
            q.admit_at(&t, 25.0, t0),
            QuotaDecision::Deny { retry_after: Duration::ZERO },
            "cost beyond burst is a permanent deny"
        );
        // Drain, then wait far longer than needed: tokens cap at burst.
        assert!(q.admit_at(&t, 20.0, t0).admitted());
        let later = t0 + Duration::from_secs(3600);
        assert!(q.admit_at(&t, 20.0, later).admitted());
        assert!(!q.admit_at(&t, 1.0, later).admitted(), "no accumulation past burst");
    }

    #[test]
    fn balances_snapshot_refills_without_mutating() {
        let q = limited(10.0, 20.0);
        let t: Arc<str> = Arc::from("a");
        let t0 = Instant::now();
        assert!(q.admit_at(&t, 15.0, t0).admitted());
        assert_eq!(q.balances_at(t0), vec![("a".to_string(), 5.0)]);
        // Half a second later the snapshot shows the refill...
        let later = t0 + Duration::from_millis(500);
        let b = q.balances_at(later);
        assert!((b[0].1 - 10.0).abs() < 1e-9, "{b:?}");
        // ...but reading did not consume or commit it: an admit at t0's
        // state still sees 5 tokens (bucket.last unchanged).
        assert!(!q.admit_at(&t, 6.0, t0).admitted());
    }

    #[test]
    fn tenants_have_independent_buckets_and_overrides_apply() {
        let vip: Arc<str> = Arc::from("vip");
        let q = QuotaTable::new(QuotaConfig {
            default: TenantPolicy { weight: 1.0, rate: 1.0, burst: 1.0 },
            overrides: vec![(
                Arc::clone(&vip),
                TenantPolicy { weight: 4.0, rate: 100.0, burst: 100.0 },
            )],
        });
        let plain: Arc<str> = Arc::from("plain");
        let t0 = Instant::now();
        assert!(q.admit_at(&plain, 1.0, t0).admitted());
        assert!(!q.admit_at(&plain, 1.0, t0).admitted());
        // The vip's bucket is its own and far deeper.
        for _ in 0..50 {
            assert!(q.admit_at(&vip, 2.0, t0).admitted());
        }
        assert!((q.weight("vip") - 4.0).abs() < 1e-12);
        assert!((q.weight("plain") - 1.0).abs() < 1e-12);
        assert!((q.weight("unknown") - 1.0).abs() < 1e-12);
    }
}
