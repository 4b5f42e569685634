//! Thread-rank communicator with byte-accurate traffic accounting and
//! fault-tolerant delivery.
//!
//! Message passing uses one mailbox per receiving rank, keyed by `(src, tag)`;
//! tags are derived from per-(pair/group) operation counters so that, as on a
//! real interconnect, matching is by order within a channel and collectives
//! cannot cross-talk. Collectives are deterministic: reductions combine
//! contributions in group-rank order regardless of arrival order, so
//! distributed runs are bitwise reproducible for a fixed topology.
//!
//! Each mailbox has its own lock and condvar, and only its owner waits on it.
//! A wait records the `(src, tag)` key it is blocked on, and a send notifies
//! only when it lands that key: a rank wakes for the message it waits on, not
//! for another sender's. A death wakes every mailbox. A single world-wide
//! mailbox woke every blocked rank on every message. On the benchmark's
//! `train_swipe` (16 ranks, 2 cores) that cost ≈ 1.9 M voluntary context
//! switches and 11.5 s of system CPU per 20-s run, against ≈ 0.45 M and 4.3 s
//! with a mailbox per receiver that every put notified, and ≈ 0.14 M and
//! 3.5 s once puts notify only the awaited key and the trainer runs one
//! collective per group where it ran one per parameter.
//!
//! Fault tolerance (robustness layer):
//! - every blocking wait carries a deadline ([`CommConfig::deadline`]); an
//!   expired deadline surfaces as [`CommError::Timeout`] instead of hanging,
//! - point-to-point receives run a retransmit timer with exponential backoff
//!   that recovers messages suppressed by an injected drop fault; the timer
//!   runs only while the awaited message sits suppressed, so no wait polls;
//!   collectives never retransmit and fail fast (a lost collective
//!   contribution is a rank-level failure, so a retry storm would only delay
//!   the inevitable error),
//! - a [`FaultPlan`] injects delays, drops, and crashes deterministically;
//!   every hook is a no-op costing one branch when no plan is installed,
//! - dead ranks are tracked; waiting on a rank that died without having sent
//!   yields [`CommError::PeerDead`] as soon as the death is observed.
//!
//! Buffers: the trainer's operations (`send_with` / `recv_with`, the
//! all-to-all, the bucketed reduction and the owner broadcast over flat
//! buckets) write every payload into a buffer from the sending rank's
//! [`Pool`], and the receiver hands it to its own pool once read. A
//! rank's sends and receives balance over a step, so a warm step takes
//! nothing from the heap for its messages.

use crate::events::{EventLog, FaultEvent};
use crate::fault::{FaultPlan, MessageFault};
use aeris_obs::{CommBytes, SpanCategory, SpanGuard, Tracer};
use aeris_tensor::Tensor;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traffic class, matching the paper's communication breakdown (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommClass {
    /// Pipeline send/recv (stage-to-stage activations and gradients).
    P2p,
    /// Ulysses / window-parallel all-to-all.
    AllToAll,
    /// Gradient allreduce.
    AllReduce,
    /// ZeRO-1 parameter allgather / broadcast.
    AllGather,
    /// Control broadcasts.
    Broadcast,
}

const CLASSES: [CommClass; 5] = [
    CommClass::P2p,
    CommClass::AllToAll,
    CommClass::AllReduce,
    CommClass::AllGather,
    CommClass::Broadcast,
];

/// A typed communication failure. Every blocking operation either completes
/// within its deadline or returns one of these — the runtime never deadlocks
/// on a lost message or a dead peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A blocking wait exceeded the configured deadline.
    Timeout { rank: usize, peer: usize, waited_ms: u64 },
    /// The awaited peer died before sending.
    PeerDead { rank: usize, peer: usize },
    /// This rank itself crashed (injected by the fault plan).
    Crashed { rank: usize },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, peer, waited_ms } => {
                write!(f, "rank {rank}: wait for rank {peer} timed out after {waited_ms} ms")
            }
            CommError::PeerDead { rank, peer } => {
                write!(f, "rank {rank}: peer rank {peer} died before sending")
            }
            CommError::Crashed { rank } => write!(f, "rank {rank}: crashed (injected fault)"),
        }
    }
}

impl std::error::Error for CommError {}

/// Timeout and retry policy for blocking communication.
#[derive(Clone, Copy, Debug)]
pub struct CommConfig {
    /// Hard deadline for any single blocking wait. Generous by default: on an
    /// oversubscribed host (many rank threads per core) pipeline-fill waits
    /// are legitimately long; chaos tests override this downward.
    pub deadline: Duration,
    /// Initial retransmit-timer interval for point-to-point receives.
    pub retry_backoff: Duration,
    /// Ceiling for the exponentially growing retransmit interval.
    pub max_backoff: Duration,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            deadline: Duration::from_secs(120),
            retry_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
        }
    }
}

/// A rank's spare one-tensor payloads, kept across its operations and,
/// through the parked thread's stash, across `train` calls. Bounded: a
/// payload given back to a full pool is freed.
#[derive(Default)]
pub struct Pool {
    spare: Vec<Vec<Tensor>>,
}

impl Pool {
    /// Most payloads a pool keeps. A rank's sends and receives balance
    /// over a step, so the bound only stops a rank whose receives run
    /// ahead of its sends from keeping them all.
    const CAP: usize = 64;

    /// A one-tensor `[len]` payload, every element NaN under
    /// `debug_assertions` (the writer must overwrite all of it): the spare
    /// whose buffer fits `len` most tightly, else the largest, grown.
    fn take(&mut self, len: usize) -> Vec<Tensor> {
        let cap = |p: &Vec<Tensor>| p[0].capacity();
        let fit = (0..self.spare.len())
            .filter(|&i| cap(&self.spare[i]) >= len)
            .min_by_key(|&i| cap(&self.spare[i]))
            .or_else(|| (0..self.spare.len()).max_by_key(|&i| cap(&self.spare[i])));
        match fit {
            Some(i) => {
                let mut payload = self.spare.swap_remove(i);
                payload[0].reuse_for_overwrite(&[len]);
                payload
            }
            None => vec![Tensor::for_overwrite(&[len])],
        }
    }

    /// Keep a read payload for a later `take`.
    fn give(&mut self, payload: Vec<Tensor>) {
        if payload.len() == 1 && self.spare.len() < Self::CAP {
            self.spare.push(payload);
        }
    }
}

/// The data of a one-tensor payload.
fn flat(payload: &[Tensor]) -> &[f32] {
    match payload {
        [t] => t.data(),
        _ => panic!("a pooled message carries one tensor, not {}", payload.len()),
    }
}

/// `(offset, len)` of each segment of a flat bucket of `lens`.
pub(crate) fn segments(lens: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    lens.iter().scan(0, |off, &len| {
        let seg = (*off, len);
        *off += len;
        Some(seg)
    })
}

/// A buffered message plus its remaining injected-drop suppressions. While
/// `suppressed > 0` the message is invisible to its receiver, as if lost in
/// transit; each retransmit request recovers one suppression.
struct Envelope {
    payload: Vec<Tensor>,
    suppressed: u32,
}

/// One receiving rank's buffered messages; the receiver is the index of
/// its [`Mailbox`], so keys name only the sender.
struct MailboxState {
    slots: HashMap<(usize, u64), Envelope>,
    /// Per sender: how many messages it has posted to this rank (the fault
    /// plan addresses messages by this per-channel index).
    posted: HashMap<usize, u64>,
    /// The `(src, tag)` keys this rank is blocked on right now.
    awaited: Vec<(usize, u64)>,
}

impl Default for MailboxState {
    /// Room for `MailboxState::SLOTS` buffered messages up front, so how
    /// far the ranks run ahead of a receiver does not decide when its
    /// table grows.
    fn default() -> Self {
        MailboxState { slots: HashMap::with_capacity(Self::SLOTS), posted: HashMap::new(), awaited: Vec::new() }
    }
}

impl MailboxState {
    /// Messages a mailbox holds before its table grows (a warm step at the
    /// benchmark's `train_swipe` shape grows none: `tests/allocations.rs`).
    const SLOTS: usize = 32;
}

/// A receiving rank's mailbox. Only its owner's thread waits on `cond`, and
/// only for the keys in `awaited`: a put notifies when it lands one of them,
/// so a rank wakes for the message it waits on and sleeps through the rest.
/// `mark_dead` notifies every mailbox whatever it awaits. Notifies use
/// `notify_all`: with one waiter it wakes the same single thread
/// `notify_one` would, and it stays correct if a second communicator for the
/// same rank ever waits too.
#[derive(Default)]
struct Mailbox {
    state: Mutex<MailboxState>,
    cond: Condvar,
}

struct WorldInner {
    n: usize,
    /// One mailbox per receiving rank, indexed by `dst`.
    mailboxes: Vec<Mailbox>,
    /// bytes sent per (rank, class).
    sent: Vec<[AtomicU64; 5]>,
    config: CommConfig,
    plan: Option<FaultPlan>,
    events: EventLog,
    tracer: Tracer,
    dead: Vec<AtomicBool>,
    /// Communication operations completed per rank (drives mid-step crash
    /// faults and lets tests aim a crash at a specific point in a run).
    ops: Vec<AtomicU64>,
}

/// A communication world of `n` thread ranks.
#[derive(Clone)]
pub struct World {
    inner: Arc<WorldInner>,
}

/// Per-rank, per-class traffic totals (bytes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficReport {
    pub per_rank: Vec<HashMap<&'static str, u64>>,
}

impl TrafficReport {
    /// Total bytes of a class across all ranks.
    pub fn total(&self, class: CommClass) -> u64 {
        self.per_rank.iter().map(|m| m.get(class_name(class)).copied().unwrap_or(0)).sum()
    }

    /// Bytes of a class sent by one rank.
    pub fn rank_total(&self, rank: usize, class: CommClass) -> u64 {
        self.per_rank[rank].get(class_name(class)).copied().unwrap_or(0)
    }

    /// Per-class totals as the plain byte carrier the `aeris-obs` MFU report
    /// consumes.
    pub fn comm_bytes(&self) -> CommBytes {
        CommBytes {
            p2p: self.total(CommClass::P2p),
            alltoall: self.total(CommClass::AllToAll),
            allreduce: self.total(CommClass::AllReduce),
            allgather: self.total(CommClass::AllGather),
            broadcast: self.total(CommClass::Broadcast),
        }
    }

    /// Pretty-print the per-rank × per-class traffic table (bytes), with a
    /// totals row. Deterministic layout, suitable for example output and
    /// golden assertions.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>6}", "rank"));
        for &c in &CLASSES {
            out.push_str(&format!(" {:>14}", class_name(c)));
        }
        out.push_str(&format!(" {:>14}\n", "total"));
        let mut grand = 0u64;
        for (rank, _) in self.per_rank.iter().enumerate() {
            out.push_str(&format!("{rank:>6}"));
            let mut row_total = 0u64;
            for &c in &CLASSES {
                let b = self.rank_total(rank, c);
                row_total += b;
                out.push_str(&format!(" {b:>14}"));
            }
            grand += row_total;
            out.push_str(&format!(" {row_total:>14}\n"));
        }
        out.push_str(&format!("{:>6}", "all"));
        for &c in &CLASSES {
            out.push_str(&format!(" {:>14}", self.total(c)));
        }
        out.push_str(&format!(" {grand:>14}\n"));
        out
    }
}

fn class_name(c: CommClass) -> &'static str {
    match c {
        CommClass::P2p => "p2p",
        CommClass::AllToAll => "alltoall",
        CommClass::AllReduce => "allreduce",
        CommClass::AllGather => "allgather",
        CommClass::Broadcast => "broadcast",
    }
}

/// The span category a traffic class traces as.
fn class_category(c: CommClass) -> SpanCategory {
    match c {
        CommClass::P2p => SpanCategory::P2p,
        CommClass::AllToAll => SpanCategory::AllToAll,
        CommClass::AllReduce => SpanCategory::AllReduce,
        CommClass::AllGather => SpanCategory::AllGather,
        CommClass::Broadcast => SpanCategory::Broadcast,
    }
}

impl World {
    /// Create a world with `n` ranks, default timeouts, and no fault plan.
    pub fn new(n: usize) -> Self {
        World::with_config(n, CommConfig::default(), None)
    }

    /// Create a world with explicit timeout policy and an optional fault
    /// plan (tracing disabled: every span site costs one atomic load).
    pub fn with_config(n: usize, config: CommConfig, plan: Option<FaultPlan>) -> Self {
        World::with_tracer(n, config, plan, Tracer::default())
    }

    /// Create a world sharing an externally owned [`Tracer`]: every
    /// communicator operation emits a span into it (when enabled), tagged
    /// with the rank and the trainer-provided step/microbatch context.
    pub fn with_tracer(
        n: usize,
        config: CommConfig,
        plan: Option<FaultPlan>,
        tracer: Tracer,
    ) -> Self {
        assert!(n > 0);
        let sent = (0..n).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect();
        World {
            inner: Arc::new(WorldInner {
                n,
                mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
                sent,
                config,
                plan,
                events: EventLog::default(),
                tracer,
                dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
                ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
            }),
        }
    }

    /// The shared fault log.
    pub fn events(&self) -> &EventLog {
        &self.inner.events
    }

    /// The shared span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The installed fault plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.inner.plan.as_ref()
    }

    /// Communication operations completed so far, per rank.
    pub fn op_counts(&self) -> Vec<u64> {
        self.inner.ops.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Mark `rank` dead and wake every mailbox's waiter so it can observe
    /// the death instead of sleeping out its backoff or deadline (any rank
    /// may be waiting on the dead one).
    pub fn mark_dead(&self, rank: usize) {
        self.inner.dead[rank].store(true, Ordering::SeqCst);
        for mailbox in &self.inner.mailboxes {
            let _guard = mailbox.state.lock();
            mailbox.cond.notify_all();
        }
    }

    /// Whether `rank` has died.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.inner.dead[rank].load(Ordering::SeqCst)
    }

    /// Re-admit a previously dead rank (elastic rejoin). Idempotent — every
    /// live rank calls this for each scheduled rejoiner in its own
    /// step-boundary preamble, so no rank can observe a stale dead flag on a
    /// peer it is about to exchange step traffic with.
    pub fn revive(&self, rank: usize) {
        self.inner.dead[rank].store(false, Ordering::SeqCst);
    }

    /// A communicator handle for `rank`.
    pub fn communicator(&self, rank: usize) -> Communicator {
        assert!(rank < self.inner.n);
        Communicator {
            rank,
            world: self.clone(),
            chan_seq: HashMap::new(),
            group_seq: HashMap::new(),
            trace_step: None,
            trace_micro: None,
            pool: Pool::default(),
        }
    }

    /// Snapshot of traffic counters.
    pub fn traffic(&self) -> TrafficReport {
        let per_rank = self
            .inner
            .sent
            .iter()
            .map(|counters| {
                CLASSES
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (class_name(c), counters[i].load(Ordering::Relaxed)))
                    .collect()
            })
            .collect();
        TrafficReport { per_rank }
    }

    fn account(&self, rank: usize, class: CommClass, bytes: u64) {
        let i = CLASSES.iter().position(|&c| c == class).unwrap();
        self.inner.sent[rank][i].fetch_add(bytes, Ordering::Relaxed);
    }

    fn put(&self, src: usize, dst: usize, tag: u64, class: CommClass, payload: Vec<Tensor>) {
        let mailbox = &self.inner.mailboxes[dst];
        let fault = {
            let mut st = mailbox.state.lock();
            let seq = st.posted.entry(src).or_insert(0);
            let nth = *seq;
            *seq += 1;
            // Fast path: no plan installed → plain insert under one lock.
            let fault = self.inner.plan.as_ref().and_then(|p| p.message_fault(src, dst, nth));
            match fault {
                Some(MessageFault::Delay { .. }) => {}
                other => {
                    let suppressed = match other {
                        Some(MessageFault::Drop { times }) => times,
                        _ => 0,
                    };
                    let prev = st.slots.insert((src, tag), Envelope { payload, suppressed });
                    assert!(prev.is_none(), "duplicate message ({src}->{dst}, tag {tag})");
                    let awaited = st.awaited.contains(&(src, tag));
                    drop(st);
                    if suppressed > 0 {
                        self.inner
                            .events
                            .record(src, FaultEvent::InjectedDrop { src, dst, remaining: suppressed });
                    }
                    // A suppressed envelope wakes its waiter too: the wait
                    // arms its retransmit timer once it sees one.
                    if awaited {
                        mailbox.cond.notify_all();
                    }
                    return;
                }
            }
            fault
        };
        // Delayed message: stall the sender's link outside the lock, then
        // deliver. Later messages on the same channel queue behind the stall
        // (the sender thread is inside this call), preserving FIFO order.
        if let Some(MessageFault::Delay { millis }) = fault {
            self.inner.events.record(src, FaultEvent::InjectedDelay { src, dst, class, millis });
            std::thread::sleep(Duration::from_millis(millis));
        }
        let mut st = mailbox.state.lock();
        let prev = st.slots.insert((src, tag), Envelope { payload, suppressed: 0 });
        assert!(prev.is_none(), "duplicate message ({src}->{dst}, tag {tag})");
        let awaited = st.awaited.contains(&(src, tag));
        drop(st);
        if awaited {
            mailbox.cond.notify_all();
        }
    }

    /// Blocking mailbox wait with deadline. `retry_p2p` enables the
    /// retransmit timer that recovers drop-suppressed messages; collectives
    /// pass `false` and fail fast on loss. The timer is armed only while the
    /// awaited key holds a suppressed envelope; otherwise the wait sleeps
    /// until a put lands its key, a rank dies or the deadline passes.
    fn take(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        retry_p2p: bool,
    ) -> Result<Vec<Tensor>, CommError> {
        let config = &self.inner.config;
        let start = Instant::now();
        // `None` (a deadline past the clock's range, e.g. `Duration::MAX`):
        // no timeout; the wait ends on a put, a death or the retransmit timer.
        let deadline = start.checked_add(config.deadline);
        let mut backoff = config.retry_backoff;
        // When the retransmit timer fires next; `None` while disarmed.
        let mut retry_at: Option<Instant> = None;
        let mut attempt = 0u32;
        let key = (src, tag);
        let mailbox = &self.inner.mailboxes[dst];
        let mut st = mailbox.state.lock();
        loop {
            let suppressed = st.slots.get(&key).map(|env| env.suppressed);
            if suppressed == Some(0) {
                return Ok(st.slots.remove(&key).expect("a deliverable envelope").payload);
            }
            // Not (yet) deliverable. A dead sender can neither send nor
            // retransmit, so give up immediately.
            if self.is_dead(src) {
                return Err(CommError::PeerDead { rank: dst, peer: src });
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                let waited_ms = config.deadline.as_millis() as u64;
                self.inner
                    .events
                    .record(dst, FaultEvent::CommTimeout { rank: dst, peer: src, waited_ms });
                return Err(CommError::Timeout { rank: dst, peer: src, waited_ms });
            }
            // Retransmit timer: once a suppressed message has sat through a
            // full backoff interval, request a retransmit (recover one
            // suppression) and escalate the interval.
            if retry_p2p && suppressed.is_some() {
                match retry_at {
                    // `None` past the clock's range: the timer never fires.
                    None => retry_at = now.checked_add(backoff),
                    Some(at) if now >= at => {
                        st.slots.get_mut(&key).expect("a suppressed envelope").suppressed -= 1;
                        attempt += 1;
                        self.inner
                            .events
                            .record(dst, FaultEvent::RetransmitRequest { src, dst, attempt });
                        backoff = backoff.saturating_mul(2).min(config.max_backoff);
                        retry_at = None;
                        continue;
                    }
                    Some(_) => {}
                }
            }
            st.awaited.push(key);
            match [deadline, retry_at].into_iter().flatten().min() {
                Some(until) => {
                    let _ = mailbox.cond.wait_for(&mut st, until.saturating_duration_since(now));
                }
                None => mailbox.cond.wait(&mut st),
            }
            let mine = st.awaited.iter().position(|&k| k == key).expect("wait key registered");
            st.awaited.swap_remove(mine);
        }
    }
}

/// A rank's endpoint into the world. Not `Clone`: one per rank thread.
pub struct Communicator {
    rank: usize,
    world: World,
    /// Sequence counters per peer channel (send side and recv side advance in
    /// lockstep because each directed channel is FIFO-by-construction).
    chan_seq: HashMap<(usize, usize), u64>,
    /// Sequence counters per collective group.
    group_seq: HashMap<Vec<usize>, u64>,
    /// Trace context: the logical step the owner is executing (set by the
    /// trainer — communication ops don't know the step on their own).
    trace_step: Option<u64>,
    /// Trace context: the microbatch in flight.
    trace_micro: Option<u64>,
    /// The rank's message buffers (lent by its stash for a call).
    pool: Pool,
}

impl Communicator {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The world this communicator belongs to.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The rank's message buffers, to lend in and take back.
    pub(crate) fn pool_mut(&mut self) -> &mut Pool {
        &mut self.pool
    }

    /// Set the step tag stamped onto spans this communicator emits (clears
    /// the microbatch tag: a new step starts outside any microbatch).
    pub fn set_trace_step(&mut self, step: u64) {
        self.trace_step = Some(step);
        self.trace_micro = None;
    }

    /// Set the microbatch tag stamped onto spans this communicator emits.
    pub fn set_trace_micro(&mut self, micro: Option<u64>) {
        self.trace_micro = micro;
    }

    /// Open a span tagged with this communicator's rank and step/microbatch
    /// context. One relaxed atomic load when tracing is disabled.
    #[inline]
    pub fn trace_span(&self, category: SpanCategory) -> SpanGuard {
        let mut g = self.world.inner.tracer.span(category, self.rank);
        if let Some(step) = self.trace_step {
            g = g.step(step);
        }
        if let Some(micro) = self.trace_micro {
            g = g.micro(micro);
        }
        g
    }

    /// Execute this rank's planned step-boundary crash, if the plan schedules
    /// one for `step`. Returns `true` if the rank just died (the caller must
    /// stop communicating and unwind).
    pub fn planned_crash(&mut self, step: usize) -> bool {
        let crashes = match self.world.plan() {
            Some(plan) => plan.crash_step(self.rank) == Some(step),
            None => false,
        };
        if crashes {
            self.world.events().record(self.rank, FaultEvent::RankCrashed { rank: self.rank, step });
            self.world.mark_dead(self.rank);
        }
        crashes
    }

    /// Per-operation fault hook: counts the op, and executes a planned
    /// mid-step (op-count-triggered) crash. Every public operation calls this
    /// once on entry; with no plan installed it costs one atomic increment
    /// and a branch.
    fn op_hook(&mut self) -> Result<(), CommError> {
        if self.world.is_dead(self.rank) {
            return Err(CommError::Crashed { rank: self.rank });
        }
        let done = self.world.inner.ops[self.rank].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(plan) = self.world.plan() {
            if let Some(limit) = plan.crash_after_ops(self.rank) {
                if done > limit {
                    self.world
                        .events()
                        .record(self.rank, FaultEvent::RankCrashedMidStep { rank: self.rank, ops: done - 1 });
                    self.world.mark_dead(self.rank);
                    return Err(CommError::Crashed { rank: self.rank });
                }
            }
        }
        Ok(())
    }

    fn next_chan_tag(&mut self, src: usize, dst: usize) -> u64 {
        let c = self.chan_seq.entry((src, dst)).or_insert(0);
        let t = *c;
        *c += 1;
        t
    }

    /// Per-group operation tag: a fingerprint of the member list mixed with a
    /// per-group sequence counter. Distinct groups that share rank pairs must
    /// not collide in the mailbox, so the group identity is part of the tag.
    fn next_group_tag(&mut self, group: &[usize]) -> u64 {
        let count = match self.group_seq.get_mut(group) {
            Some(c) => {
                *c += 1;
                *c - 1
            }
            None => {
                self.group_seq.insert(group.to_vec(), 1);
                0
            }
        };
        let mut h: u64 = 0xcbf29ce484222325;
        for &r in group {
            h ^= r as u64 + 1;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= count.wrapping_mul(0x9E3779B97F4A7C15);
        h = h.wrapping_mul(0x100000001b3);
        // Reserve the low 16 bits for the member index.
        h << 16
    }

    fn payload_bytes(payload: &[Tensor]) -> u64 {
        payload.iter().map(|t| 4 * t.len() as u64).sum()
    }

    /// Send tensors to `dst` (non-blocking; buffered in the mailbox).
    pub fn send(
        &mut self,
        dst: usize,
        class: CommClass,
        payload: Vec<Tensor>,
    ) -> Result<(), CommError> {
        let _span = self.trace_span(class_category(class)).label("send");
        self.op_hook()?;
        let tag = self.next_chan_tag(self.rank, dst);
        self.world.account(self.rank, class, Self::payload_bytes(&payload));
        self.world.put(self.rank, dst, tag, class, payload);
        Ok(())
    }

    /// Blocking receive of the next message from `src` (retransmit timer
    /// active: recovers injected drops with exponential backoff).
    pub fn recv(&mut self, src: usize) -> Result<Vec<Tensor>, CommError> {
        let _span = self.trace_span(SpanCategory::P2p).label("recv");
        self.op_hook()?;
        let tag = self.next_chan_tag(src, self.rank);
        self.world.take(src, self.rank, tag, true)
    }

    /// Send `dst` a `len`-element payload from this rank's pool, written
    /// whole by `fill`.
    pub(crate) fn send_with(
        &mut self,
        dst: usize,
        class: CommClass,
        len: usize,
        fill: impl FnOnce(&mut [f32]),
    ) -> Result<(), CommError> {
        let mut payload = self.pool.take(len);
        fill(payload[0].data_mut());
        self.send(dst, class, payload)
    }

    /// Receive the next message from `src` (a pooled one-tensor payload),
    /// hand its data to `read` and keep the buffer in this rank's pool.
    pub(crate) fn recv_with<R>(&mut self, src: usize, read: impl FnOnce(&[f32]) -> R) -> Result<R, CommError> {
        let payload = self.recv(src)?;
        let out = read(flat(&payload));
        self.pool.give(payload);
        Ok(out)
    }

    /// Barrier over a group (all members must call with the identical group).
    pub fn barrier(&mut self, group: &[usize]) -> Result<(), CommError> {
        self.allgather(group, CommClass::Broadcast, Tensor::zeros(&[1]))?;
        Ok(())
    }

    /// Post one message to every other member of `group`, in group order:
    /// member `j` is sent `payload(j)` under `tag(j)`, accounted to `class`.
    fn post(
        &self,
        group: &[usize],
        me: usize,
        class: CommClass,
        tag: impl Fn(usize) -> u64,
        mut payload: impl FnMut(usize) -> Vec<Tensor>,
    ) {
        for (j, &dst) in group.iter().enumerate() {
            if j == me {
                continue;
            }
            let payload = payload(j);
            self.world.account(self.rank, class, Self::payload_bytes(&payload));
            self.world.put(self.rank, dst, tag(j), class, payload);
        }
    }

    /// Take one message from every other member of `group`, in group order,
    /// handing member `j`'s tensors (awaited under `tag(j)`) to `sink`. No
    /// retransmit timer: collectives fail fast on loss.
    fn collect(
        &self,
        group: &[usize],
        me: usize,
        tag: impl Fn(usize) -> u64,
        mut sink: impl FnMut(usize, Vec<Tensor>),
    ) -> Result<(), CommError> {
        for (j, &src) in group.iter().enumerate() {
            if j == me {
                continue;
            }
            sink(j, self.world.take(src, self.rank, tag(j), false)?);
        }
        Ok(())
    }

    /// [`Communicator::post`] of pooled payloads: member `j` gets `len(j)`
    /// elements written by `fill(j, ·)`.
    fn post_pooled(
        &mut self,
        group: &[usize],
        me: usize,
        class: CommClass,
        tag: impl Fn(usize) -> u64,
        len: impl Fn(usize) -> usize,
        mut fill: impl FnMut(usize, &mut [f32]),
    ) {
        for (j, &dst) in group.iter().enumerate() {
            if j == me {
                continue;
            }
            let mut payload = self.pool.take(len(j));
            fill(j, payload[0].data_mut());
            self.world.account(self.rank, class, Self::payload_bytes(&payload));
            self.world.put(self.rank, dst, tag(j), class, payload);
        }
    }

    /// [`Communicator::collect`] of pooled payloads: member `j`'s data goes
    /// to `read(j, ·)`, its buffer to this rank's pool.
    fn collect_pooled(
        &mut self,
        group: &[usize],
        me: usize,
        tag: impl Fn(usize) -> u64,
        mut read: impl FnMut(usize, &[f32]),
    ) -> Result<(), CommError> {
        for (j, &src) in group.iter().enumerate() {
            if j == me {
                continue;
            }
            let payload = self.world.take(src, self.rank, tag(j), false)?;
            read(j, flat(&payload));
            self.pool.give(payload);
        }
        Ok(())
    }

    /// All-to-all within `group` over pooled payloads: member `j` is sent
    /// `len` elements written by `fill(state, j, ·)`, and what member `j`
    /// sent this rank goes to `read(state, j, ·)`, after every send. The
    /// rank's own chunk never leaves: the caller reads it in place.
    /// Accounted as [`Communicator::alltoall`] of the same chunks.
    pub(crate) fn alltoall_with<S: ?Sized>(
        &mut self,
        group: &[usize],
        state: &mut S,
        len: usize,
        mut fill: impl FnMut(&S, usize, &mut [f32]),
        mut read: impl FnMut(&mut S, usize, &[f32]),
    ) -> Result<(), CommError> {
        let _span = self.trace_span(SpanCategory::AllToAll);
        self.op_hook()?;
        let tag_base = self.next_group_tag(group);
        let me = group.iter().position(|&r| r == self.rank).expect("rank not in group");
        self.post_pooled(group, me, CommClass::AllToAll, |j| tag_base | j as u64, |_| len, |j, buf| fill(state, j, buf));
        self.collect_pooled(group, me, |_| tag_base | me as u64, |j, data| read(state, j, data))
    }

    /// All-to-all within `group`: `chunks[j]` goes to group member `j`;
    /// returns the chunks received from each member (self-chunk passes
    /// through untouched and un-accounted, as on a real interconnect).
    pub fn alltoall(
        &mut self,
        group: &[usize],
        mut chunks: Vec<Tensor>,
    ) -> Result<Vec<Tensor>, CommError> {
        let _span = self.trace_span(SpanCategory::AllToAll);
        self.op_hook()?;
        assert_eq!(chunks.len(), group.len());
        let tag_base = self.next_group_tag(group);
        let me = group.iter().position(|&r| r == self.rank).expect("rank not in group");
        // Each chunk leaves its slot on the way out and the slot takes what
        // that member sent back; slot `me` is never touched.
        self.post(group, me, CommClass::AllToAll, |j| tag_base | j as u64, |j| {
            vec![std::mem::replace(&mut chunks[j], Tensor::zeros(&[0]))]
        });
        self.collect(group, me, |_| tag_base | me as u64, |j, mut p| chunks[j] = one(&mut p))?;
        Ok(chunks)
    }

    /// Allgather within `group`: returns every member's tensor, in group
    /// order.
    pub fn allgather(
        &mut self,
        group: &[usize],
        class: CommClass,
        value: Tensor,
    ) -> Result<Vec<Tensor>, CommError> {
        let _span = self.trace_span(class_category(class)).label("allgather");
        self.op_hook()?;
        let tag_base = self.next_group_tag(group);
        let me = group.iter().position(|&r| r == self.rank).expect("rank not in group");
        self.post(group, me, class, |_| tag_base | me as u64, |_| vec![value.clone()]);
        let mut out = vec![Tensor::zeros(&[0]); group.len()];
        self.collect(group, me, |j| tag_base | j as u64, |j, mut p| out[j] = one(&mut p))?;
        out[me] = value;
        Ok(out)
    }

    /// Sum-allreduce of one tensor within `group`: the one-segment case of
    /// `Communicator::allreduce_flat`.
    pub fn allreduce_sum(&mut self, group: &[usize], value: &Tensor) -> Result<Tensor, CommError> {
        let mut out = value.clone();
        self.allreduce_flat(group, out.data_mut(), &[value.len()])?;
        Ok(out)
    }

    /// Sum-allreduce, in place, of a flat bucket of segments `lens` within
    /// `group`, in one reduce-scatter + allgather round, so per-rank traffic
    /// is ≈ 2×data regardless of group size (the bandwidth-optimal ring
    /// volume — this is what makes the paper's "gradient-allreduce volume is
    /// unchanged by WP" claim measurable). Member `j` owns chunk `j` of
    /// every segment; one pooled message to it carries this member's slice
    /// of each, and its reply carries each reduced chunk. Deterministic:
    /// every chunk is reduced in group order by its owner, starting from its
    /// own value, so each element, and the bytes accounted, are those of one
    /// [`Communicator::allreduce_sum`] per segment.
    pub(crate) fn allreduce_flat(&mut self, group: &[usize], bucket: &mut [f32], lens: &[usize]) -> Result<(), CommError> {
        let _span = self.trace_span(SpanCategory::AllReduce);
        self.op_hook()?;
        let n = group.len();
        assert_eq!(bucket.len(), lens.iter().sum::<usize>(), "bucket length vs. its segments");
        if n == 1 {
            return Ok(());
        }
        let tag_base = self.next_group_tag(group);
        let me = group.iter().position(|&r| r == self.rank).expect("rank not in group");
        // Chunk `j` of each segment, as ranges of the bucket.
        let chunks = |j: usize| segments(lens).map(move |(off, len)| off + len * j / n..off + len * (j + 1) / n);
        let part_len = |j: usize| chunks(j).map(|c| c.len()).sum::<usize>();
        let gather = |bucket: &[f32], j: usize, buf: &mut [f32]| {
            let mut at = 0;
            for c in chunks(j) {
                buf[at..at + c.len()].copy_from_slice(&bucket[c.clone()]);
                at += c.len();
            }
        };
        // Reduce-scatter: send my slice of chunk j of every segment to its owner j.
        self.post_pooled(group, me, CommClass::AllReduce, |j| tag_base | j as u64, part_len, |j, buf| gather(bucket, j, buf));
        // Deterministic accumulation: contributions arrive in group order.
        self.collect_pooled(group, me, |_| tag_base | me as u64, |_, part| {
            let mut at = 0;
            for c in chunks(me) {
                for (m, &v) in bucket[c.clone()].iter_mut().zip(&part[at..at + c.len()]) {
                    *m += v;
                }
                at += c.len();
            }
        })?;
        // Allgather the reduced chunks.
        let tag2 = self.next_group_tag(group);
        self.post_pooled(group, me, CommClass::AllReduce, |_| tag2 | me as u64, |_| part_len(me), |_, buf| gather(bucket, me, buf));
        self.collect_pooled(group, me, |j| tag2 | j as u64, |j, part| {
            let mut at = 0;
            for c in chunks(j) {
                bucket[c.clone()].copy_from_slice(&part[at..at + c.len()]);
                at += c.len();
            }
        })
    }

    /// ZeRO-1 owner broadcast, in place, of a flat bucket of segments
    /// `lens` within `group`: segment `i` belongs to the member at position
    /// `owners[i]`, which holds its value; every member ends with every
    /// segment's. A member's own segments go to each peer in one pooled
    /// message. Values and accounted bytes are those of one root broadcast
    /// per segment.
    pub(crate) fn broadcast_flat(
        &mut self,
        group: &[usize],
        owners: &[usize],
        bucket: &mut [f32],
        lens: &[usize],
    ) -> Result<(), CommError> {
        let _span = self.trace_span(SpanCategory::Broadcast);
        self.op_hook()?;
        assert_eq!(owners.len(), lens.len(), "one owner per segment");
        let tag_base = self.next_group_tag(group);
        let me = group.iter().position(|&r| r == self.rank).expect("rank not in group");
        let of = |j: usize| segments(lens).zip(owners).filter(move |(_, &o)| o == j).map(|(seg, _)| seg);
        let mine: usize = of(me).map(|(_, len)| len).sum();
        self.post_pooled(group, me, CommClass::AllGather, |_| tag_base | me as u64, |_| mine, |_, buf| {
            let mut at = 0;
            for (off, len) in of(me) {
                buf[at..at + len].copy_from_slice(&bucket[off..off + len]);
                at += len;
            }
        });
        self.collect_pooled(group, me, |j| tag_base | j as u64, |j, part| {
            let mut at = 0;
            for (off, len) in of(j) {
                bucket[off..off + len].copy_from_slice(&part[at..at + len]);
                at += len;
            }
            assert_eq!(at, part.len(), "an owner sends every segment it owns");
        })
    }
}

/// The one tensor of a single-tensor message.
fn one(payload: &mut Vec<Tensor>) -> Tensor {
    payload.pop().expect("a single-tensor message carries one tensor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;
    use std::thread;

    /// Runs `f` on every rank of a fresh `n`-rank world; returns each rank's
    /// result, in rank order, and the world's traffic.
    fn run_ranks<T: Send, F>(n: usize, f: F) -> (Vec<T>, TrafficReport)
    where
        F: Fn(Communicator) -> T + Sync,
    {
        let world = World::new(n);
        let out = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let comm = world.communicator(r);
                    let f = &f;
                    s.spawn(move || f(comm))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (out, world.traffic())
    }

    #[test]
    fn send_recv_roundtrip_and_fifo_order() {
        run_ranks(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, CommClass::P2p, vec![Tensor::from_slice(&[1.0])]).unwrap();
                c.send(1, CommClass::P2p, vec![Tensor::from_slice(&[2.0])]).unwrap();
            } else {
                let a = c.recv(0).unwrap();
                let b = c.recv(0).unwrap();
                assert_eq!(a[0].data(), &[1.0]);
                assert_eq!(b[0].data(), &[2.0]);
            }
        });
    }

    #[test]
    fn allreduce_sums_deterministically() {
        let group: Vec<usize> = (0..4).collect();
        run_ranks(4, |mut c| {
            let v = Tensor::from_slice(&[c.rank() as f32, 1.0]);
            let g = group.clone();
            let out = c.allreduce_sum(&g, &v).unwrap();
            assert_eq!(out.data(), &[6.0, 4.0]);
            // Repeat to exercise tag sequencing.
            let out2 = c.allreduce_sum(&g, &v).unwrap();
            assert_eq!(out2.data(), &[6.0, 4.0]);
        });
    }

    #[test]
    fn alltoall_exchanges_correct_chunks() {
        let group: Vec<usize> = (0..3).collect();
        run_ranks(3, |mut c| {
            let r = c.rank() as f32;
            let chunks: Vec<Tensor> =
                (0..3).map(|j| Tensor::from_slice(&[r * 10.0 + j as f32])).collect();
            let out = c.alltoall(&group, chunks).unwrap();
            for (j, t) in out.iter().enumerate() {
                // Received from member j: their chunk addressed to me.
                assert_eq!(t.data(), &[j as f32 * 10.0 + r]);
            }
        });
    }

    #[test]
    fn broadcast_distributes_root_value() {
        let group: Vec<usize> = (0..3).collect();
        run_ranks(3, |mut c| {
            let mut bucket = if c.rank() == 1 { vec![7.0, 8.0] } else { vec![0.0; 2] };
            c.broadcast_flat(&group, &[1], &mut bucket, &[2]).unwrap();
            assert_eq!(bucket, [7.0, 8.0]);
        });
    }

    /// One root broadcast per slot, spelled with point-to-point messages in
    /// the class the owner broadcast accounts to: the owner of slot `i` sends
    /// it to every other member, and the others take it in slot order.
    fn root_broadcasts(
        c: &mut Communicator,
        group: &[usize],
        owners: &[usize],
        mut values: Vec<Tensor>,
    ) -> Vec<Tensor> {
        let me = group.iter().position(|&r| r == c.rank()).unwrap();
        for (i, &owner) in owners.iter().enumerate() {
            if owner == me {
                for &dst in group.iter().filter(|&&dst| dst != group[me]) {
                    c.send(dst, CommClass::AllGather, vec![values[i].clone()]).unwrap();
                }
            } else {
                values[i] = c.recv(group[owner]).unwrap().pop().unwrap();
            }
        }
        values
    }

    /// A flat bucket's segments of `lens`, one tensor each.
    fn split(bucket: &[f32], lens: &[usize]) -> Vec<Tensor> {
        segments(lens).map(|(off, len)| Tensor::from_slice(&bucket[off..off + len])).collect()
    }

    /// Shape and bit pattern of each tensor: equal bits, not equal values
    /// (`-0.0 == 0.0`).
    fn bits(tensors: &[Tensor]) -> Vec<(Vec<usize>, Vec<u32>)> {
        let pattern = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        tensors.iter().map(|t| (t.shape().to_vec(), pattern(t))).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// One bucketed reduction equals one reduction per segment, and one
        /// owner broadcast one root broadcast per segment: bit for bit on every
        /// rank, byte for byte in the traffic report. Lengths include 0 and
        /// lengths below the group size (members whose chunk is empty).
        #[test]
        fn bucketed_collectives_keep_bits_and_bytes(
            n in 1usize..6,
            k in 0usize..5,
            lens in proptest::collection::vec(0usize..9, 4),
            owner_draws in proptest::collection::vec(0usize..5, 4),
            seed in 0u64..1000,
        ) {
            let group: Vec<usize> = (0..n).collect();
            let values = |rank: usize| -> Vec<Tensor> {
                let mut rng = Rng::seed_from(seed * 8 + rank as u64);
                lens[..k].iter().map(|&len| Tensor::randn(&[len], &mut rng)).collect()
            };
            let (many, many_traffic) = run_ranks(n, |mut c| {
                let mine = values(c.rank());
                let mut bucket: Vec<f32> = mine.iter().flat_map(|v| v.data().to_vec()).collect();
                c.allreduce_flat(&group, &mut bucket, &lens[..k]).unwrap();
                split(&bucket, &lens[..k])
            });
            let (each, each_traffic) = run_ranks(n, |mut c| {
                let mine = values(c.rank());
                mine.iter().map(|v| c.allreduce_sum(&group, v).unwrap()).collect::<Vec<_>>()
            });
            for (a, b) in many.iter().zip(&each) {
                proptest::prop_assert_eq!(bits(a), bits(b));
            }
            proptest::prop_assert_eq!(many_traffic, each_traffic);

            let owners: Vec<usize> = owner_draws[..k].iter().map(|&o| o % n).collect();
            let lens = &lens[..k];
            let (owned, owned_traffic) = run_ranks(n, |mut c| {
                let mut bucket: Vec<f32> = values(c.rank()).iter().flat_map(|v| v.data().to_vec()).collect();
                c.broadcast_flat(&group, &owners, &mut bucket, lens).unwrap();
                split(&bucket, lens)
            });
            let (rooted, rooted_traffic) =
                run_ranks(n, |mut c| {
                    let mine = values(c.rank());
                    root_broadcasts(&mut c, &group, &owners, mine)
                });
            for (a, b) in owned.iter().zip(&rooted) {
                proptest::prop_assert_eq!(bits(a), bits(b));
            }
            proptest::prop_assert_eq!(owned_traffic, rooted_traffic);
        }
    }

    #[test]
    fn subgroup_collectives_do_not_interfere() {
        // Two disjoint groups run different numbers of collectives.
        run_ranks(4, |mut c| {
            let g = if c.rank() < 2 { vec![0, 1] } else { vec![2, 3] };
            let reps = if c.rank() < 2 { 3 } else { 5 };
            for i in 0..reps {
                let v = Tensor::from_slice(&[i as f32]);
                let out = c.allreduce_sum(&g, &v).unwrap();
                assert_eq!(out.data(), &[2.0 * i as f32]);
            }
        });
    }

    #[test]
    fn traffic_accounting_counts_sent_bytes() {
        let world = World::new(2);
        thread::scope(|s| {
            let mut c0 = world.communicator(0);
            let mut c1 = world.communicator(1);
            s.spawn(move || {
                c0.send(1, CommClass::P2p, vec![Tensor::zeros(&[10])]).unwrap();
            });
            s.spawn(move || {
                let _ = c1.recv(0).unwrap();
            });
        });
        let t = world.traffic();
        assert_eq!(t.rank_total(0, CommClass::P2p), 40);
        assert_eq!(t.rank_total(1, CommClass::P2p), 0);
        assert_eq!(t.total(CommClass::AllToAll), 0);
    }

    #[test]
    fn stress_concurrent_collectives() {
        let group: Vec<usize> = (0..8).collect();
        run_ranks(8, |mut c| {
            let mut rng = Rng::seed_from(c.rank() as u64);
            for _ in 0..20 {
                let v = Tensor::randn(&[16], &mut rng);
                let parts = c.allgather(&group, CommClass::AllGather, v.clone()).unwrap();
                assert_eq!(parts.len(), 8);
                assert_eq!(parts[c.rank()], v);
            }
        });
    }

    #[test]
    fn recv_times_out_with_typed_error_instead_of_hanging() {
        let world = World::with_config(
            2,
            CommConfig { deadline: Duration::from_millis(50), ..CommConfig::default() },
            None,
        );
        let mut c = world.communicator(1);
        let start = Instant::now();
        let err = c.recv(0).unwrap_err();
        assert_eq!(err, CommError::Timeout { rank: 1, peer: 0, waited_ms: 50 });
        assert!(start.elapsed() < Duration::from_secs(5), "deadline not honored");
        assert!(world.events().any(|e| matches!(e, FaultEvent::CommTimeout { .. })));
    }

    #[test]
    fn waiting_on_a_dead_peer_fails_fast() {
        let world = World::new(2);
        world.mark_dead(0);
        let mut c = world.communicator(1);
        assert_eq!(c.recv(0).unwrap_err(), CommError::PeerDead { rank: 1, peer: 0 });
        // The dead rank itself can no longer communicate.
        let mut c0 = world.communicator(0);
        assert_eq!(
            c0.send(1, CommClass::P2p, vec![Tensor::zeros(&[1])]).unwrap_err(),
            CommError::Crashed { rank: 0 }
        );
    }

    #[test]
    fn dropped_p2p_message_recovered_by_retransmit() {
        let plan = FaultPlan::new().drop_message(0, 1, 0, 2);
        let world = World::with_config(2, CommConfig::default(), Some(plan));
        thread::scope(|s| {
            let mut c0 = world.communicator(0);
            let mut c1 = world.communicator(1);
            s.spawn(move || {
                c0.send(1, CommClass::P2p, vec![Tensor::from_slice(&[9.0])]).unwrap();
            });
            s.spawn(move || {
                assert_eq!(c1.recv(0).unwrap()[0].data(), &[9.0]);
            });
        });
        assert!(world.events().any(|e| matches!(e, FaultEvent::InjectedDrop { .. })));
        assert_eq!(
            world
                .events()
                .count_matching(|e| matches!(e, FaultEvent::RetransmitRequest { .. })),
            2
        );
    }

    #[test]
    fn recv_with_an_unbounded_deadline_delivers() {
        let unbounded = CommConfig { deadline: Duration::MAX, ..CommConfig::default() };
        let world = World::with_config(2, unbounded, None);
        thread::scope(|s| {
            let mut c0 = world.communicator(0);
            let mut c1 = world.communicator(1);
            // Already in the mailbox when the receive starts.
            c0.send(1, CommClass::P2p, vec![Tensor::from_slice(&[1.0])]).unwrap();
            s.spawn(move || {
                thread::sleep(Duration::from_millis(20));
                c0.send(1, CommClass::P2p, vec![Tensor::from_slice(&[2.0])]).unwrap();
            });
            assert_eq!(c1.recv(0).unwrap()[0].data(), &[1.0]);
            // Arrives while the receive waits.
            assert_eq!(c1.recv(0).unwrap()[0].data(), &[2.0]);
        });
    }

    /// Waits whose retransmit interval is a minute: only a notification
    /// reaching the waiter's own mailbox can end them within a second (a
    /// missed one ends in a `Timeout` at the 5-s deadline). The tests' 20-ms
    /// sleeps let the waiter block first; they pass either way.
    fn notify_only_world(n: usize) -> World {
        let minute = Duration::from_secs(60);
        let deadline = Duration::from_secs(5);
        let config = CommConfig { deadline, retry_backoff: minute, max_backoff: minute };
        World::with_config(n, config, None)
    }

    #[test]
    fn a_send_wakes_its_blocked_receiver() {
        let world = notify_only_world(2);
        thread::scope(|s| {
            let mut c0 = world.communicator(0);
            let mut c1 = world.communicator(1);
            s.spawn(move || {
                thread::sleep(Duration::from_millis(20));
                c0.send(1, CommClass::P2p, vec![Tensor::from_slice(&[1.0])]).unwrap();
                thread::sleep(Duration::from_millis(20));
                c0.allgather(&[0, 1], CommClass::AllGather, Tensor::from_slice(&[2.0])).unwrap();
            });
            let start = Instant::now();
            assert_eq!(c1.recv(0).unwrap()[0].data(), &[1.0]);
            assert!(start.elapsed() < Duration::from_secs(1), "recv missed its wake-up");
            let start = Instant::now();
            let parts =
                c1.allgather(&[0, 1], CommClass::AllGather, Tensor::from_slice(&[3.0])).unwrap();
            assert_eq!(parts[0].data(), &[2.0]);
            assert!(start.elapsed() < Duration::from_secs(1), "allgather missed its wake-up");
        });
    }

    /// Returns once `dst`'s owner is blocked waiting on a message from `src`.
    fn until_blocked_on(world: &World, dst: usize, src: usize) {
        while !world.inner.mailboxes[dst].state.lock().awaited.iter().any(|&(s, _)| s == src) {
            thread::yield_now();
        }
    }

    /// A put notifies only a waiter blocked on its key: another sender's
    /// message landing first neither wakes the receiver nor hides the one
    /// it waits on.
    #[test]
    fn a_receiver_blocked_on_one_peer_gets_its_message_after_another_peers() {
        let world = notify_only_world(3);
        thread::scope(|s| {
            let mut c0 = world.communicator(0);
            let mut c1 = world.communicator(1);
            let mut c2 = world.communicator(2);
            let w = &world;
            s.spawn(move || {
                until_blocked_on(w, 2, 0);
                c1.send(2, CommClass::P2p, vec![Tensor::from_slice(&[2.0])]).unwrap();
                c0.send(2, CommClass::P2p, vec![Tensor::from_slice(&[1.0])]).unwrap();
            });
            let start = Instant::now();
            assert_eq!(c2.recv(0).unwrap()[0].data(), &[1.0]);
            assert!(start.elapsed() < Duration::from_secs(1), "recv missed its wake-up");
            assert_eq!(c2.recv(1).unwrap()[0].data(), &[2.0]);
        });
    }

    /// A wait arms its retransmit timer only once its key holds a suppressed
    /// envelope. Here the drop-suppressed message lands after the receiver
    /// blocked: its put must wake the receiver to arm the timer, or the
    /// receive would sleep to its 5-s deadline.
    #[test]
    fn a_drop_that_lands_after_its_receiver_blocked_is_retransmitted() {
        let plan = FaultPlan::new().drop_message(0, 1, 0, 2);
        let config = CommConfig { deadline: Duration::from_secs(5), ..CommConfig::default() };
        let world = World::with_config(2, config, Some(plan));
        thread::scope(|s| {
            let mut c0 = world.communicator(0);
            let mut c1 = world.communicator(1);
            let w = &world;
            s.spawn(move || {
                until_blocked_on(w, 1, 0);
                c0.send(1, CommClass::P2p, vec![Tensor::from_slice(&[9.0])]).unwrap();
            });
            let start = Instant::now();
            assert_eq!(c1.recv(0).unwrap()[0].data(), &[9.0]);
            let elapsed = start.elapsed();
            assert!(elapsed < Duration::from_secs(1), "the suppressed arrival armed no timer");
        });
        let retransmits =
            world.events().count_matching(|e| matches!(e, FaultEvent::RetransmitRequest { .. }));
        assert_eq!(retransmits, 2);
    }

    #[test]
    fn a_death_wakes_a_receiver_blocked_on_the_dead_rank() {
        let world = notify_only_world(2);
        thread::scope(|s| {
            let mut c1 = world.communicator(1);
            let w = &world;
            s.spawn(move || {
                thread::sleep(Duration::from_millis(20));
                w.mark_dead(0);
            });
            let start = Instant::now();
            assert_eq!(c1.recv(0).unwrap_err(), CommError::PeerDead { rank: 1, peer: 0 });
            assert!(start.elapsed() < Duration::from_secs(1), "death missed its wake-up");
        });
    }

    #[test]
    fn op_counts_track_operations() {
        let world = World::new(2);
        thread::scope(|s| {
            let mut c0 = world.communicator(0);
            let mut c1 = world.communicator(1);
            s.spawn(move || {
                c0.send(1, CommClass::P2p, vec![Tensor::zeros(&[1])]).unwrap();
                c0.send(1, CommClass::P2p, vec![Tensor::zeros(&[1])]).unwrap();
            });
            s.spawn(move || {
                let _ = c1.recv(0).unwrap();
                let _ = c1.recv(0).unwrap();
            });
        });
        assert_eq!(world.op_counts(), vec![2, 2]);
    }
}
