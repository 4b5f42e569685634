//! Structured event logging shared by the distributed runtimes.
//!
//! Originally this module held the fault log of the SWiPe trainer; the
//! machinery (an append-only, thread-shared log of typed records, each tagged
//! with the actor that observed it) is equally what an inference server needs
//! for its ops surface, so the log, [`EventLog<E>`], is generic over the
//! event type: SWiPe instantiates it at the default `E = FaultEvent`;
//! `aeris-serve` instantiates it with its own event enum.
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

/// An event plus the actor (rank thread, serving worker, …) that
/// observed/performed it.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord<E = FaultEvent> {
    pub rank: usize,
    pub event: E,
}

/// Append-only, thread-shared event log, generic over the event type.
pub struct EventLog<E = FaultEvent> {
    entries: Arc<Mutex<Vec<EventRecord<E>>>>,
}

// Derived `Clone`/`Default` would demand `E: Clone`/`E: Default`; the log
// itself only clones the `Arc` handle and starts empty, so implement both by
// hand without bounds.
impl<E> Clone for EventLog<E> {
    fn clone(&self) -> Self {
        EventLog { entries: Arc::clone(&self.entries) }
    }
}

impl<E> Default for EventLog<E> {
    fn default() -> Self {
        EventLog { entries: Arc::new(Mutex::new(Vec::new())) }
    }
}

impl<E> EventLog<E> {
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Record an event observed by actor `rank`.
    pub fn record(&self, rank: usize, event: E) {
        self.entries.lock().push(EventRecord { rank, event });
    }

    /// Number of recorded events matching a predicate.
    pub fn count_matching(&self, pred: impl Fn(&E) -> bool) -> usize {
        self.entries.lock().iter().filter(|r| pred(&r.event)).count()
    }

    /// Whether any recorded event matches a predicate.
    pub fn any(&self, pred: impl Fn(&E) -> bool) -> bool {
        self.count_matching(pred) > 0
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: Clone> EventLog<E> {
    /// Copy out the log (ordering is by record time across all actors).
    pub fn snapshot(&self) -> Vec<EventRecord<E>> {
        self.entries.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_shared_across_clones_and_threads() {
        let log = EventLog::new();
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

    #[test]
    fn log_is_generic_over_event_type() {
        #[derive(Clone, Debug, PartialEq)]
        enum Custom {
            Tick(u32),
        }
        let log: EventLog<Custom> = EventLog::new();
        log.record(3, Custom::Tick(7));
        assert_eq!(log.len(), 1);
        assert!(log.any(|e| matches!(e, Custom::Tick(7))));
        assert_eq!(log.snapshot()[0].rank, 3);
    }
}
