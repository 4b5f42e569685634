//! The fault log of the SWiPe trainer: an append-only, thread-shared log
//! of [`FaultEvent`]s, each tagged with the rank that observed it.
//!
//! Every injected fault, recovery action, and reconfiguration decision of the
//! trainer is recorded here so that tests (and operators) can assert not just
//! *that* a run survived, but *how*: which messages were delayed or dropped,
//! which retransmits fired, which replicas were retired, and where
//! checkpoints landed. The log is shared across all rank threads through the
//! [`World`] and surfaces in [`TrainReport::events`] /
//! [`TrainFailure::events`].
//!
//! [`World`]: crate::comm::World
//! [`TrainReport::events`]: crate::trainer::TrainReport
//! [`TrainFailure::events`]: crate::trainer::TrainFailure

use crate::comm::CommClass;
use parking_lot::Mutex;
use std::sync::Arc;

/// One fault-related occurrence in a run.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// The fault plan held a message back before delivery.
    InjectedDelay { src: usize, dst: usize, class: CommClass, millis: u64 },
    /// The fault plan suppressed a message delivery (`remaining` further
    /// deliveries of the same message will also be suppressed).
    InjectedDrop { src: usize, dst: usize, remaining: u32 },
    /// A receiver's retry timer fired and requested a retransmit of a
    /// dropped point-to-point message (`attempt` counts from 1).
    RetransmitRequest { src: usize, dst: usize, attempt: u32 },
    /// A blocking wait exceeded its deadline and the operation failed.
    CommTimeout { rank: usize, peer: usize, waited_ms: u64 },
    /// A rank executed its planned crash and left the world.
    RankCrashed { rank: usize, step: usize },
    /// A rank died mid-step after `ops` completed communication operations
    /// (hard failure — peers surface it as timeouts / dead-peer errors).
    RankCrashedMidStep { rank: usize, ops: u64 },
    /// A surviving member of a crashed rank's data-parallel replica retired
    /// (the whole replica leaves the run together).
    ReplicaRetired { rank: usize, dp: usize, step: usize },
    /// The data-parallel group shrank; gradient averaging was rescaled to
    /// the surviving global batch.
    GroupRescaled { step: usize, live_dp: usize },
    /// A coordinated checkpoint was written covering training state up to
    /// (excluding) `next_step`.
    CheckpointSaved { next_step: usize, path: String },
    /// A previously crashed rank re-entered the world at a step boundary and
    /// received a re-sharded copy of the surviving replicas' state.
    RankRejoined { rank: usize, step: usize },
    /// A parked member of a crashed rank's replica resumed with it (the
    /// whole replica rejoins the run together, mirroring `ReplicaRetired`).
    ReplicaRejoined { rank: usize, dp: usize, step: usize },
    /// The recovery supervisor relaunched training after a failure
    /// (`attempt` counts from 1; `from_step` is the resume boundary).
    RunResumed { attempt: usize, from_step: usize },
}

/// An event plus the rank thread that observed/performed it.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    pub rank: usize,
    pub event: FaultEvent,
}

/// Append-only, thread-shared fault log; clones share one log.
#[derive(Clone, Default)]
pub struct EventLog {
    entries: Arc<Mutex<Vec<EventRecord>>>,
}

impl EventLog {
    /// Record an event observed by `rank`.
    pub fn record(&self, rank: usize, event: FaultEvent) {
        self.entries.lock().push(EventRecord { rank, event });
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the log (ordering is by record time across all ranks).
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.entries.lock().clone()
    }
}

#[cfg(test)]
impl EventLog {
    /// Number of recorded events matching a predicate.
    pub(crate) fn count_matching(&self, pred: impl Fn(&FaultEvent) -> bool) -> usize {
        self.entries.lock().iter().filter(|r| pred(&r.event)).count()
    }

    /// Whether any recorded event matches a predicate.
    pub(crate) fn any(&self, pred: impl Fn(&FaultEvent) -> bool) -> bool {
        self.count_matching(pred) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_shared_across_clones_and_threads() {
        let log = EventLog::default();
        let log2 = log.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                log2.record(1, FaultEvent::RetransmitRequest { src: 0, dst: 1, attempt: 1 });
            });
            s.spawn(|| {
                log.record(0, FaultEvent::GroupRescaled { step: 2, live_dp: 1 });
            });
        });
        assert_eq!(log.snapshot().len(), 2);
        assert!(log.any(|e| matches!(e, FaultEvent::RetransmitRequest { attempt: 1, .. })));
        assert_eq!(
            log.count_matching(|e| matches!(e, FaultEvent::GroupRescaled { live_dp: 1, .. })),
            1
        );
    }
}
