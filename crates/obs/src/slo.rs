//! Service-level objectives with multi-window burn-rate alerting.
//!
//! An SLO here is "at least `target` of recent requests are *good*", where
//! good means completed within [`SloConfig::latency_ms`] (a shed, timeout,
//! or over-objective completion is *bad*). The tracker keeps outcomes in a
//! bounded ring buffer and evaluates Google-SRE-style **multi-window burn
//! rates**:
//!
//! ```text
//! burn(window) = bad_fraction(window) / (1 - target)
//! ```
//!
//! A burn rate of 1 consumes the error budget exactly at the sustainable
//! rate; 10 consumes it 10× too fast. The verdict requires *both* a short
//! and a long window over threshold — the long window proves the burn is
//! sustained (no paging on a single blip), the short window proves it is
//! still happening (alert resets quickly once the system recovers):
//!
//! - [`SloVerdict::Page`]: both windows ≥ [`SloConfig::page_burn`];
//! - [`SloVerdict::Warn`]: both windows ≥ [`SloConfig::warn_burn`];
//! - [`SloVerdict::Ok`] otherwise.
//!
//! Windows are **sample-count** windows, not wall-clock, so a synthetic
//! outcome stream produces bit-identical verdict flips at the same sample
//! indices on every run — the serve tests rely on that determinism.

use parking_lot::Mutex;
use std::sync::Arc;

/// One service-level objective: a latency threshold, a good-fraction
/// target, and the alerting windows/thresholds.
#[derive(Clone, Debug, PartialEq)]
pub struct SloConfig {
    /// A request is *good* iff it completes within this many milliseconds.
    pub latency_ms: f64,
    /// Required good fraction (e.g. 0.99 ⇒ 1% error budget).
    pub target: f64,
    /// Short (recent) window length in samples.
    pub short_window: usize,
    /// Long (sustained) window length in samples; also the ring capacity.
    pub long_window: usize,
    /// Burn-rate threshold for [`SloVerdict::Warn`].
    pub warn_burn: f64,
    /// Burn-rate threshold for [`SloVerdict::Page`].
    pub page_burn: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_ms: 1000.0,
            target: 0.99,
            short_window: 60,
            long_window: 600,
            warn_burn: 1.0,
            page_burn: 6.0,
        }
    }
}

/// The alert state of one objective, worst first when ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloVerdict {
    Ok,
    Warn,
    Page,
}

impl SloVerdict {
    pub fn name(self) -> &'static str {
        match self {
            SloVerdict::Ok => "ok",
            SloVerdict::Warn => "warn",
            SloVerdict::Page => "page",
        }
    }

    /// Numeric severity (0 = ok, 1 = warn, 2 = page) for gauge export.
    pub fn severity(self) -> u8 {
        match self {
            SloVerdict::Ok => 0,
            SloVerdict::Warn => 1,
            SloVerdict::Page => 2,
        }
    }
}

impl std::fmt::Display for SloVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A point-in-time snapshot of one objective's state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloState {
    pub verdict: SloVerdict,
    /// Burn rate over the short window (0 when no samples yet).
    pub short_burn: f64,
    /// Burn rate over the long window (0 when no samples yet).
    pub long_burn: f64,
    /// Fraction of the long-window error budget still unconsumed, in [0, 1].
    pub budget_remaining: f64,
    /// Lifetime good / total outcome counts.
    pub good_total: u64,
    pub total: u64,
}

impl SloState {
    /// The state of an objective that has seen no traffic.
    pub fn empty() -> Self {
        SloState {
            verdict: SloVerdict::Ok,
            short_burn: 0.0,
            long_burn: 0.0,
            budget_remaining: 1.0,
            good_total: 0,
            total: 0,
        }
    }
}

impl std::fmt::Display for SloState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} burn(short)={:.2} burn(long)={:.2} budget={:.0}% good={}/{}",
            self.verdict,
            self.short_burn,
            self.long_burn,
            self.budget_remaining * 100.0,
            self.good_total,
            self.total
        )
    }
}

struct Ring {
    /// Outcome ring, `cap` slots: `true` = good.
    buf: Vec<bool>,
    cap: usize,
    next: usize,
    len: usize,
    good_total: u64,
    total: u64,
}

impl Ring {
    /// Count bad outcomes among the last `window` samples.
    fn bad_in_last(&self, window: usize) -> (usize, usize) {
        let k = window.min(self.len);
        let mut bad = 0;
        for i in 0..k {
            // Walk backwards from the most recent write.
            let idx = (self.next + self.cap - 1 - i) % self.cap;
            if !self.buf[idx] {
                bad += 1;
            }
        }
        (bad, k)
    }
}

struct TrackerInner {
    cfg: SloConfig,
    ring: Mutex<Ring>,
}

/// Thread-shared tracker for one objective. Cloning shares state.
#[derive(Clone)]
pub struct SloTracker {
    inner: Arc<TrackerInner>,
}

impl SloTracker {
    pub fn new(cfg: SloConfig) -> Self {
        let cap = cfg.long_window.max(cfg.short_window).max(1);
        SloTracker {
            inner: Arc::new(TrackerInner {
                cfg,
                ring: Mutex::new(Ring {
                    buf: Vec::with_capacity(cap),
                    cap,
                    next: 0,
                    len: 0,
                    good_total: 0,
                    total: 0,
                }),
            }),
        }
    }

    /// Record one outcome directly (`true` = within objective).
    pub fn observe(&self, good: bool) {
        let mut r = self.inner.ring.lock();
        let cap = r.cap;
        if r.buf.len() < cap {
            r.buf.push(good);
        } else {
            let at = r.next;
            r.buf[at] = good;
        }
        r.next = (r.next + 1) % cap;
        r.len = (r.len + 1).min(cap);
        r.total += 1;
        if good {
            r.good_total += 1;
        }
    }

    /// Record a completed request's latency; good iff within the objective.
    pub fn observe_latency(&self, latency_ms: f64) {
        self.observe(latency_ms <= self.inner.cfg.latency_ms);
    }

    /// Burn rate over the last `window` outcomes: bad fraction divided by
    /// the error budget. Infinite when the target leaves no budget and a
    /// bad outcome occurred.
    fn burn(&self, bad: usize, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let budget = 1.0 - self.inner.cfg.target;
        let bad_frac = bad as f64 / k as f64;
        if budget <= 0.0 {
            if bad > 0 {
                return f64::INFINITY;
            }
            return 0.0;
        }
        bad_frac / budget
    }

    /// Evaluate both windows and produce the current snapshot.
    pub fn state(&self) -> SloState {
        let cfg = &self.inner.cfg;
        let r = self.inner.ring.lock();
        let (short_bad, short_k) = r.bad_in_last(cfg.short_window);
        let (long_bad, long_k) = r.bad_in_last(cfg.long_window);
        let short_burn = self.burn(short_bad, short_k);
        let long_burn = self.burn(long_bad, long_k);
        let verdict = if short_k > 0 && short_burn >= cfg.page_burn && long_burn >= cfg.page_burn
        {
            SloVerdict::Page
        } else if short_k > 0 && short_burn >= cfg.warn_burn && long_burn >= cfg.warn_burn {
            SloVerdict::Warn
        } else {
            SloVerdict::Ok
        };
        // Budget over the *full* long window (unseen samples count as good),
        // so a freshly started tracker reports a full budget.
        let allowed_bad = (1.0 - cfg.target) * cfg.long_window.max(1) as f64;
        let budget_remaining = if allowed_bad > 0.0 {
            (1.0 - long_bad as f64 / allowed_bad).clamp(0.0, 1.0)
        } else if long_bad > 0 {
            0.0
        } else {
            1.0
        };
        SloState {
            verdict,
            short_burn,
            long_burn,
            budget_remaining,
            good_total: r.good_total,
            total: r.total,
        }
    }

    /// Shorthand for `state().verdict`.
    pub fn verdict(&self) -> SloVerdict {
        self.state().verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(target: f64, short: usize, long: usize, warn: f64, page: f64) -> SloConfig {
        SloConfig {
            latency_ms: 100.0,
            target,
            short_window: short,
            long_window: long,
            warn_burn: warn,
            page_burn: page,
        }
    }

    #[test]
    fn empty_tracker_is_ok_with_full_budget() {
        let t = SloTracker::new(SloConfig::default());
        let s = t.state();
        assert_eq!(s.verdict, SloVerdict::Ok);
        assert_eq!(s.budget_remaining, 1.0);
        assert_eq!(s.total, 0);
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        // target 0.9 => 10% budget. 1 bad in 10 => burn 1.0.
        let t = SloTracker::new(cfg(0.9, 10, 10, 2.0, 5.0));
        for i in 0..10 {
            t.observe(i != 0);
        }
        let s = t.state();
        assert!((s.long_burn - 1.0).abs() < 1e-12, "{}", s.long_burn);
        assert_eq!(s.verdict, SloVerdict::Ok);
    }

    #[test]
    fn verdict_flips_ok_warn_page_at_expected_samples() {
        // Budget 50%; short window 4, long window 12; warn at burn 1,
        // page at burn 1.8 (short window all-bad burn = 2).
        let t = SloTracker::new(cfg(0.5, 4, 12, 1.0, 1.8));
        // 12 good outcomes: everything healthy.
        for _ in 0..12 {
            t.observe_latency(10.0);
            assert_eq!(t.verdict(), SloVerdict::Ok);
        }
        // Bad outcomes (over-latency). Short window (4) saturates quickly;
        // the long window (12) lags and gates the escalation:
        //   after k bad: short burn = min(k,4)/4 / 0.5, long = k/12 / 0.5.
        // Warn needs both >= 1  => short: k >= 2, long: k >= 6.
        // Page needs both >= 1.8 => short: k >= 4 (burn 2), long: k >= 11.
        let mut verdicts = Vec::new();
        for _ in 0..12 {
            t.observe_latency(500.0);
            verdicts.push(t.verdict());
        }
        let expect: Vec<SloVerdict> = (1..=12)
            .map(|k| {
                if k >= 11 {
                    SloVerdict::Page
                } else if k >= 6 {
                    SloVerdict::Warn
                } else {
                    SloVerdict::Ok
                }
            })
            .collect();
        assert_eq!(verdicts, expect);
    }

    #[test]
    fn recovery_resets_the_short_window_first() {
        let t = SloTracker::new(cfg(0.5, 2, 8, 1.0, 1.9));
        for _ in 0..8 {
            t.observe(false);
        }
        assert_eq!(t.verdict(), SloVerdict::Page);
        // Two good samples clear the short window: page (and warn) end even
        // though the long window is still mostly bad.
        t.observe(true);
        t.observe(true);
        assert_eq!(t.verdict(), SloVerdict::Ok);
        let s = t.state();
        assert!(s.long_burn > 1.0, "long window still burning: {}", s.long_burn);
    }

    #[test]
    fn zero_budget_target_pages_on_any_error() {
        let t = SloTracker::new(cfg(1.0, 2, 4, 1.0, 2.0));
        t.observe(true);
        assert_eq!(t.verdict(), SloVerdict::Ok);
        t.observe(false);
        let s = t.state();
        assert!(s.short_burn.is_infinite());
        assert_eq!(s.verdict, SloVerdict::Page);
        assert_eq!(s.budget_remaining, 0.0);
    }

    #[test]
    fn budget_remaining_counts_down_over_the_long_window() {
        // Budget 25% of a 8-sample window => 2 allowed bad.
        let t = SloTracker::new(cfg(0.75, 4, 8, 10.0, 20.0));
        for _ in 0..8 {
            t.observe(true);
        }
        assert_eq!(t.state().budget_remaining, 1.0);
        t.observe(false);
        assert!((t.state().budget_remaining - 0.5).abs() < 1e-12);
        t.observe(false);
        assert_eq!(t.state().budget_remaining, 0.0);
    }

    #[test]
    fn clones_share_state() {
        let t = SloTracker::new(SloConfig::default());
        let t2 = t.clone();
        t2.observe(true);
        assert_eq!(t.state().total, 1);
    }
}
