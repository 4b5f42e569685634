//! Deterministic fault injection for the distributed runtime.
//!
//! A [`FaultPlan`] is a seedable, fully pre-declared schedule of faults that
//! the [`World`](crate::comm::World) consults on every message it moves:
//!
//! - **delay**: the nth message on a directed channel is held back for a
//!   fixed number of milliseconds before delivery (any traffic class);
//! - **drop**: the nth point-to-point message on a channel is suppressed a
//!   fixed number of times — each suppression models one lost transmission
//!   that the receiver's retry timer must recover with a retransmit request;
//! - **crash**: a rank leaves the world, either *at a step boundary*
//!   ([`crash_rank`](FaultPlan::crash_rank), which the trainer survives by
//!   retiring the dead rank's data-parallel replica) or *mid-step after a
//!   fixed number of communication operations*
//!   ([`crash_rank_after_ops`](FaultPlan::crash_rank_after_ops), which peers
//!   observe as timeouts and surface as typed errors).
//!
//! Because the plan is plain data known to every rank, runs under a plan are
//! exactly reproducible, and step-boundary reconfiguration needs no
//! agreement protocol: every survivor computes the same set of dead replicas
//! from (plan, step). Message indices count *every* mailbox insertion on a
//! directed channel in sender program order — point-to-point sends and
//! collective member messages alike — so a fault can target any wire
//! message a run produces.

use crate::events::{EventRecord, FaultEvent};
use std::collections::HashMap;

/// A fault attached to one (src → dst, nth-message) channel slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFault {
    /// Hold the message back this long before it becomes visible.
    Delay { millis: u64 },
    /// Suppress delivery this many times; each receiver retransmit request
    /// recovers one suppression. Only meaningful for point-to-point traffic
    /// (collectives fail fast rather than retry).
    Drop { times: u32 },
}

/// A deterministic, seedable schedule of injected faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// (src, dst, per-channel message index) → fault.
    messages: HashMap<(usize, usize, u64), MessageFault>,
    /// rank → step boundary at which it crashes (graceful degradation path).
    step_crashes: HashMap<usize, usize>,
    /// rank → communication-op count after which it crashes mid-step
    /// (hard-failure path).
    op_crashes: HashMap<usize, u64>,
    /// rank → step boundary at which a step-crashed rank rejoins the run
    /// (elastic path; must be later than the rank's crash step).
    restarts: HashMap<usize, usize>,
}

impl FaultPlan {
    /// An empty plan (no faults): installed in a world, every hook runs and
    /// injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Delay the `nth` message (0-based, counted per directed channel) from
    /// `src` to `dst` by `millis`.
    pub fn delay_message(mut self, src: usize, dst: usize, nth: u64, millis: u64) -> Self {
        self.messages.insert((src, dst, nth), MessageFault::Delay { millis });
        self
    }

    /// Drop the `nth` message from `src` to `dst`, `times` times.
    pub fn drop_message(mut self, src: usize, dst: usize, nth: u64, times: u32) -> Self {
        self.messages.insert((src, dst, nth), MessageFault::Drop { times });
        self
    }

    /// Crash `rank` at the boundary of training step `step` (before it does
    /// any work for that step).
    pub fn crash_rank(mut self, rank: usize, step: usize) -> Self {
        self.step_crashes.insert(rank, step);
        self
    }

    /// Crash `rank` mid-step, after it has completed `ops` communication
    /// operations since the start of the run.
    pub fn crash_rank_after_ops(mut self, rank: usize, ops: u64) -> Self {
        self.op_crashes.insert(rank, ops);
        self
    }

    /// Schedule a step-boundary-crashed `rank` to rejoin at the boundary of
    /// `step` (before any work of that step). The rank's replica regrows into
    /// the data-parallel groups in group order and receives a re-sharded copy
    /// of the surviving replicas' state. `step` must be strictly later than
    /// the rank's crash step; a restart with no matching crash is inert.
    pub fn restart_rank(mut self, rank: usize, step: usize) -> Self {
        self.restarts.insert(rank, step);
        self
    }

    /// A seeded random delay-only plan: `count` delays of up to `max_millis`
    /// each, scattered over the first `max_nth` messages of random directed
    /// channels in an `n`-rank world. Delay-only plans must never change
    /// results — only timing — which the property tests assert.
    pub fn chaos_delays(seed: u64, n: usize, max_nth: u64, count: usize, max_millis: u64) -> Self {
        let mut plan = FaultPlan::new();
        let mut rng = aeris_tensor::Rng::seed_from(seed ^ 0xFA17_7E57);
        for _ in 0..count {
            let src = rng.below(n);
            let dst = rng.below(n);
            if src == dst {
                continue;
            }
            let nth = rng.below(max_nth.max(1) as usize) as u64;
            let millis = 1 + rng.below(max_millis.max(1) as usize) as u64;
            plan = plan.delay_message(src, dst, nth, millis);
        }
        plan
    }

    /// A seeded random crash→restart plan: `count` ranks (drawn from distinct
    /// data-parallel replicas of an `n`-rank world with `ranks_per_dp` ranks
    /// per replica) each crash at a step boundary in `[1, max_step)` and
    /// rejoin at a later boundary `<= max_step`. Mirrors
    /// [`chaos_delays`](FaultPlan::chaos_delays): the plan is a pure function
    /// of the seed, so chaos runs reproduce exactly.
    pub fn chaos_restarts(
        seed: u64,
        n: usize,
        ranks_per_dp: usize,
        max_step: usize,
        count: usize,
    ) -> Self {
        assert!(max_step >= 2, "need room for a crash strictly before a rejoin");
        let mut plan = FaultPlan::new();
        let mut rng = aeris_tensor::Rng::seed_from(seed ^ 0xE1A5_71C0_FA17_7E57);
        let mut hit_dps = Vec::new();
        for _ in 0..count {
            let rank = rng.below(n);
            let dp = rank / ranks_per_dp;
            if hit_dps.contains(&dp) {
                continue; // one fault window per replica keeps windows disjoint
            }
            hit_dps.push(dp);
            let crash = 1 + rng.below(max_step - 1);
            let restart = crash + 1 + rng.below(max_step - crash);
            plan = plan.crash_rank(rank, crash).restart_rank(rank, restart);
        }
        plan
    }

    /// True if the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty() && self.step_crashes.is_empty() && self.op_crashes.is_empty()
    }

    /// The fault (if any) attached to the `nth` message from `src` to `dst`.
    pub fn message_fault(&self, src: usize, dst: usize, nth: u64) -> Option<MessageFault> {
        self.messages.get(&(src, dst, nth)).copied()
    }

    /// The step at which `rank` is planned to crash, if any.
    pub fn crash_step(&self, rank: usize) -> Option<usize> {
        self.step_crashes.get(&rank).copied()
    }

    /// The op count after which `rank` is planned to crash mid-step, if any.
    pub fn crash_after_ops(&self, rank: usize) -> Option<u64> {
        self.op_crashes.get(&rank).copied()
    }

    /// The step boundary at which `rank` is scheduled to rejoin, if any.
    pub fn restart_step(&self, rank: usize) -> Option<usize> {
        self.restarts.get(&rank).copied()
    }

    /// Ranks that are dead at `step`: their planned step-boundary crash has
    /// occurred (`crash <= step`) and no scheduled restart has taken effect
    /// yet (`restart > step`, or none). Mid-step op crashes are not included:
    /// they are hard failures surfaced as errors, not reconfigurations.
    pub fn dead_ranks_at(&self, step: usize) -> Vec<usize> {
        let mut dead: Vec<usize> = self
            .step_crashes
            .iter()
            .filter(|&(&r, &s)| s <= step && !matches!(self.restart_step(r), Some(t) if t <= step))
            .map(|(&r, _)| r)
            .collect();
        dead.sort_unstable();
        dead
    }

    /// The plan minus every crash that already fired in a previous attempt,
    /// as witnessed by that attempt's event log. A recovery supervisor passes
    /// the failed run's events here so the resumed run does not re-execute
    /// crashes from before the resume point (the plan is step-indexed, and a
    /// resumed run replays the same step numbers). Message faults are kept:
    /// they are channel-indexed, recoverable by design, and a fresh world's
    /// channels restart from message zero anyway.
    pub fn without_fired(&self, events: &[EventRecord]) -> FaultPlan {
        let mut plan = self.clone();
        for rec in events {
            match rec.event {
                FaultEvent::RankCrashed { rank, .. } => {
                    plan.step_crashes.remove(&rank);
                    plan.restarts.remove(&rank);
                }
                FaultEvent::RankCrashedMidStep { rank, .. } => {
                    plan.op_crashes.remove(&rank);
                }
                _ => {}
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let plan = FaultPlan::new()
            .delay_message(0, 1, 3, 25)
            .drop_message(2, 0, 0, 2)
            .crash_rank(5, 1)
            .crash_rank_after_ops(6, 100);
        assert!(!plan.is_empty());
        assert_eq!(plan.message_fault(0, 1, 3), Some(MessageFault::Delay { millis: 25 }));
        assert_eq!(plan.message_fault(2, 0, 0), Some(MessageFault::Drop { times: 2 }));
        assert_eq!(plan.message_fault(0, 1, 4), None);
        assert_eq!(plan.crash_step(5), Some(1));
        assert_eq!(plan.crash_step(6), None);
        assert_eq!(plan.crash_after_ops(6), Some(100));
        assert_eq!(plan.dead_ranks_at(0), Vec::<usize>::new());
        assert_eq!(plan.dead_ranks_at(1), vec![5]);
        assert_eq!(plan.dead_ranks_at(9), vec![5]);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::default().message_fault(0, 1, 0).is_none());
    }

    #[test]
    fn chaos_delays_is_deterministic_and_delay_only() {
        let a = FaultPlan::chaos_delays(42, 8, 16, 10, 4);
        let b = FaultPlan::chaos_delays(42, 8, 16, 10, 4);
        assert_eq!(a.messages, b.messages);
        assert!(a.step_crashes.is_empty() && a.op_crashes.is_empty());
        for fault in a.messages.values() {
            assert!(matches!(fault, MessageFault::Delay { millis } if *millis >= 1));
        }
        let c = FaultPlan::chaos_delays(43, 8, 16, 10, 4);
        assert_ne!(a.messages, c.messages, "different seeds should differ");
    }

    #[test]
    fn restart_reopens_the_dead_window() {
        let plan = FaultPlan::new().crash_rank(3, 2).restart_rank(3, 5);
        assert_eq!(plan.restart_step(3), Some(5));
        assert_eq!(plan.restart_step(4), None);
        assert_eq!(plan.dead_ranks_at(1), Vec::<usize>::new());
        assert_eq!(plan.dead_ranks_at(2), vec![3]);
        assert_eq!(plan.dead_ranks_at(4), vec![3]);
        assert_eq!(plan.dead_ranks_at(5), Vec::<usize>::new());
        assert_eq!(plan.dead_ranks_at(9), Vec::<usize>::new());
    }

    #[test]
    fn chaos_restarts_is_deterministic_and_well_formed() {
        let a = FaultPlan::chaos_restarts(7, 16, 8, 6, 2);
        let b = FaultPlan::chaos_restarts(7, 16, 8, 6, 2);
        assert_eq!(a.step_crashes, b.step_crashes);
        assert_eq!(a.restarts, b.restarts);
        assert!(a.messages.is_empty() && a.op_crashes.is_empty());
        for (&rank, &crash) in &a.step_crashes {
            let restart = a.restarts[&rank];
            assert!(crash >= 1 && crash < restart && restart <= 6, "{crash}->{restart}");
        }
        // Crashed ranks hit distinct replicas (one fault window per dp).
        let dps: Vec<usize> = a.step_crashes.keys().map(|&r| r / 8).collect();
        let mut uniq = dps.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), dps.len());
    }

    #[test]
    fn without_fired_strips_only_witnessed_crashes() {
        let plan = FaultPlan::new()
            .crash_rank(2, 1)
            .restart_rank(2, 3)
            .crash_rank(5, 4)
            .crash_rank_after_ops(6, 100)
            .drop_message(0, 1, 2, 1);
        let events = vec![
            EventRecord { rank: 2, event: FaultEvent::RankCrashed { rank: 2, step: 1 } },
            EventRecord { rank: 6, event: FaultEvent::RankCrashedMidStep { rank: 6, ops: 100 } },
        ];
        let stripped = plan.without_fired(&events);
        assert_eq!(stripped.crash_step(2), None);
        assert_eq!(stripped.restart_step(2), None);
        assert_eq!(stripped.crash_step(5), Some(4), "unfired crash survives");
        assert_eq!(stripped.crash_after_ops(6), None);
        assert!(stripped.message_fault(0, 1, 2).is_some(), "message faults are kept");
    }
}
