//! Serving tiers and the deadline-slack router.
//!
//! The paper's §VII-C consistency distillation compresses a forecast step to
//! one network evaluation; the full DPMSolver++ sampler costs `2·n_steps`.
//! That asymmetry is the whole point of two-tier serving: requests that can
//! afford the full sampler get it (bitwise identical to a direct ensemble
//! call), requests that cannot get the distilled one-step path. The router
//! decides which is which — explicitly, or by comparing the request's
//! deadline slack to the measured quality-tier service time.

use crate::estimator::ServiceEstimator;
use std::time::Duration;

/// The two serving tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// One-step distilled (`ConsistencyStudent`) path: order-of-magnitude
    /// cheaper per forecast step, a quantified quality cost (the
    /// distillation-gap sweep of `aeris-evaluation`'s tests).
    Fast,
    /// Full multi-step sampler: bitwise identical to a direct
    /// `Forecaster::ensemble` call.
    Quality,
}

impl Tier {
    /// Both tiers, in display order.
    pub const ALL: [Tier; 2] = [Tier::Fast, Tier::Quality];

    /// Stable index for per-tier arrays.
    pub fn index(self) -> usize {
        match self {
            Tier::Fast => 0,
            Tier::Quality => 1,
        }
    }

    /// Stable lowercase name (metric labels, bench JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Quality => "quality",
        }
    }
}

/// Routing policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Deadline slack at or below which a request routes fast even before
    /// the service-time estimator has warmed up (a hard "this is a nowcast
    /// with a tight budget" floor).
    pub slack_floor: Duration,
    /// Safety multiplier on the estimated quality-tier service time: a
    /// request routes fast when `slack < safety × est_quality`. Values > 1
    /// shed risk onto the fast tier (better a cheaper answer than a missed
    /// deadline).
    pub safety: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { slack_floor: Duration::from_millis(250), safety: 2.0 }
    }
}

/// Classifies requests into tiers. Stateless apart from the shared
/// [`ServiceEstimator`] it reads.
pub struct TierRouter {
    pub cfg: RouterConfig,
}

impl TierRouter {
    pub fn new(cfg: RouterConfig) -> Self {
        TierRouter { cfg }
    }

    /// Route one request.
    ///
    /// - An explicit tier always wins (the caller has already validated that
    ///   the fast tier exists).
    /// - Without a fast tier, everything is quality.
    /// - Without a deadline there is no slack to protect: quality.
    /// - Slack at or below the configured floor: fast.
    /// - Otherwise fast iff the measured quality-tier estimate for
    ///   `chain_units` member-steps (one member's sequential chain), scaled
    ///   by the safety factor, exceeds the slack. An unwarmed estimator
    ///   routes quality — the floor is the cold-start rule.
    pub fn route(
        &self,
        explicit: Option<Tier>,
        slack: Option<Duration>,
        chain_units: u64,
        fast_available: bool,
        estimator: &ServiceEstimator,
    ) -> Tier {
        if let Some(t) = explicit {
            return t;
        }
        if !fast_available {
            return Tier::Quality;
        }
        let Some(slack) = slack else {
            return Tier::Quality;
        };
        if slack <= self.cfg.slack_floor {
            return Tier::Fast;
        }
        // In f64 seconds, so any `safety` compares without panicking: a
        // negative or NaN one never routes fast, a huge one routes fast.
        let safety = self.cfg.safety;
        match estimator.estimate(Tier::Quality, chain_units) {
            Some(est) if slack.as_secs_f64() < est.as_secs_f64() * safety => Tier::Fast,
            _ => Tier::Quality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> TierRouter {
        TierRouter::new(RouterConfig { slack_floor: Duration::from_millis(100), safety: 2.0 })
    }

    #[test]
    fn explicit_tier_always_wins() {
        let est = ServiceEstimator::new();
        let r = router();
        assert_eq!(r.route(Some(Tier::Fast), None, 4, true, &est), Tier::Fast);
        assert_eq!(
            r.route(Some(Tier::Quality), Some(Duration::ZERO), 4, true, &est),
            Tier::Quality
        );
    }

    #[test]
    fn no_fast_tier_or_no_deadline_routes_quality() {
        let est = ServiceEstimator::new();
        let r = router();
        assert_eq!(r.route(None, Some(Duration::from_millis(1)), 4, false, &est), Tier::Quality);
        assert_eq!(r.route(None, None, 4, true, &est), Tier::Quality);
    }

    #[test]
    fn slack_floor_routes_fast_before_estimator_warms() {
        let est = ServiceEstimator::new();
        let r = router();
        assert_eq!(r.route(None, Some(Duration::from_millis(50)), 4, true, &est), Tier::Fast);
        // Above the floor with a cold estimator: quality.
        assert_eq!(r.route(None, Some(Duration::from_secs(5)), 4, true, &est), Tier::Quality);
    }

    #[test]
    fn warm_estimator_drives_the_slack_rule() {
        let est = ServiceEstimator::new();
        // 100 ms per quality member-step, warm.
        for _ in 0..8 {
            est.observe(Tier::Quality, 0.1);
        }
        let r = router();
        // 4-step chain ⇒ est 400 ms, safety 2 ⇒ threshold 800 ms.
        assert_eq!(r.route(None, Some(Duration::from_millis(500)), 4, true, &est), Tier::Fast);
        assert_eq!(r.route(None, Some(Duration::from_millis(900)), 4, true, &est), Tier::Quality);
    }

    #[test]
    fn any_safety_factor_routes_without_panicking() {
        let est = ServiceEstimator::new();
        for _ in 0..8 {
            est.observe(Tier::Quality, 0.1);
        }
        let slack = Some(Duration::from_millis(500));
        for (safety, tier) in
            [(-1.0, Tier::Quality), (f64::NAN, Tier::Quality), (1e300, Tier::Fast)]
        {
            let r = TierRouter::new(RouterConfig { slack_floor: Duration::ZERO, safety });
            assert_eq!(r.route(None, slack, 4, true, &est), tier, "safety {safety}");
        }
    }
}
