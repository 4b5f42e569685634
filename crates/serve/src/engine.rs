//! The serving engine: admission control, two-tier scheduling, per-tier
//! workers, request lifecycle, and the ops surface.
//!
//! ## Lifecycle of a request
//!
//! 1. **Validation and quota** ([`ServeEngine::submit`] /
//!    [`ServeEngine::submit_nowcast`]): the request is checked against the
//!    engine's model config; then, if the engine has per-tenant quotas, the
//!    tenant's token bucket must cover the request's work (member-steps),
//!    else [`ServeError::QuotaExceeded`] — the one check a tenant cannot
//!    scheduling-game its way around.
//! 2. **Routing**: the [`TierRouter`] classifies the request onto the
//!    **quality** tier (full sampler) or the **fast** tier (distilled
//!    one-step student), explicitly or from deadline slack against the
//!    measured quality-tier service time. Engines without a student serve
//!    everything on quality.
//! 3. **Admission**: admitted iff fewer than `queue_capacity` requests are
//!    outstanding (else [`ServeError::QueueFull`] — fail fast, never queue
//!    unboundedly).
//! 4. **Prefix reuse**: each ensemble member consults the rollout cache for
//!    the longest contiguous prefix of its trajectory (state + RNG snapshot
//!    per step). Fully-cached members complete at admission without touching
//!    a worker pool. Fast- and quality-tier entries live in disjoint
//!    content-addressed namespaces (the tier is folded into the cache key's
//!    aux word) because they are *different numbers*.
//! 5. **Dispatch**: remaining members become member-step tasks in the
//!    tier's [`DispatchQueue`] — earliest-deadline-first for deadlined
//!    work, weighted fair queueing per tenant for the rest. Workers coalesce
//!    shape-compatible tasks in priority order into one batched model
//!    evaluation per round, feed the per-tier [`ServiceEstimator`] with the
//!    measured cost, shed tasks whose estimated completion already overruns
//!    their deadline, then requeue or finish each member.
//! 6. **Completion**: the last finishing member resolves the client's
//!    [`Ticket`]; per-request latency, tier provenance, and cache
//!    accounting ride along.
//!
//! ## Structure
//!
//! Four private values each say one thing once:
//!
//! - `Intake`, the one request normal form: a `ForecastRequest` or a
//!   `NowcastRequest` is moved into it, and one `admit` runs steps 1–4 for
//!   both kinds.
//! - `Lane`, what a tier owns: its queue, counters (`Lane::counts`), SLO
//!   tracker, workers, the model they step on and its four metric series —
//!   `[Lane; 2]` by [`Tier::index`]. A worker runs its lane's loop, *cull →
//!   step → retire* (step 5).
//! - The tenant table: one map whose entry is the public [`TenantCounts`]
//!   ledger plus the tenant's SLO tracker.
//! - `resolve`, the one terminal transition (step 6), total over a private
//!   `Outcome`: the only place a result is set, counted once on its lane
//!   and once on its tenant's ledger, judged against the objective, and its
//!   slot released.
//!
//! This file keeps the types and the engine's lifecycle (launch, drain,
//! shutdown, drop); `engine/admission.rs` holds `Intake`, validation and
//! `admit`, `engine/worker.rs` the lane loop and `resolve`, and
//! `engine/status.rs` the live snapshot and the final report, both read off
//! `Lane::counts` and the tenant table — the engine keeps no other outcome
//! counter, so the report's totals are sums of those two ledgers.
//!
//! ## Determinism
//!
//! Member `m` of a request draws from the private stream
//! [`aeris_core::member_rng`]`(seed, m)` — the one [`Forecaster::ensemble`] uses — and
//! a batched step evaluates each task with its own RNG through the very
//! functions a direct caller would use (`forecast_step`, `nowcast_step`,
//! `nowcast_step_fast`). Quality-tier responses are therefore bitwise
//! identical to a direct `ensemble` call, fast-tier responses to a direct
//! `ConsistencyStudent::ensemble` call, both invariant under worker count,
//! batch composition, scheduling order, and cache hits. The scheduler moves
//! *time*, never *numbers*.
//!
//! [`Forecaster::ensemble`]: aeris_core::Forecaster::ensemble

use crate::api::{fnv_pair, ForecastResponse, Forcings, ServeConfig, ServeError};
use crate::cache::{CacheKey, RolloutCache};
use crate::report::{ServeReport, TenantCounts, TierCounts};
use aeris_assim::{GuidanceSchedule, ObservationSet};
use aeris_core::{ConsistencyStudent, EnsembleForecast, Forecaster};
use aeris_obs::{MetricSeries, SloTracker, Tracer};
use aeris_sched::{
    DispatchQueue, QueueMetrics, QuotaTable, ServiceEstimator, TaskMeta, Tier, TierRouter,
};
use aeris_tensor::{Rng, Tensor};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Actor id of tracer spans opened on the submitting client's thread
/// (workers use their pool index; fast-tier workers follow the quality
/// workers' indices).
pub const CLIENT_ACTOR: usize = usize::MAX;

/// Folded into a fast-tier request's cache-key aux word: the student's
/// trajectories are different numbers from the sampler's, so the two tiers
/// must never alias cache entries.
const FAST_AUX: u64 = 0xFA57_7153_AE51_0001;

/// The engine's operational metric series (shared handles; cloning is cheap).
/// The series are registered with the engine's [`Tracer`], so
/// `tracer.prometheus_text()` exports them alongside span totals and
/// counters — one exporter path for trainer, server, and benches.
#[derive(Clone, Default)]
pub struct ServeMetrics {
    /// Per-request submission-to-completion latency for quality-tier
    /// forecast requests, milliseconds.
    pub latency_ms: MetricSeries,
    /// Per-request submission-to-completion latency for quality-tier
    /// nowcast (assimilation) requests, milliseconds — the two traffic
    /// shapes have very different profiles (long rollouts vs one guided step
    /// under tight deadlines), so they get separate series.
    pub nowcast_latency_ms: MetricSeries,
    /// Fast-tier forecast latency, milliseconds.
    pub fast_latency_ms: MetricSeries,
    /// Fast-tier nowcast latency, milliseconds.
    pub fast_nowcast_latency_ms: MetricSeries,
    /// Member-steps per executed batch (both tiers).
    pub batch_size: MetricSeries,
    /// Pending member-steps observed by workers after forming each batch.
    pub queue_depth: MetricSeries,
    /// Enqueue-to-dispatch wait of quality-tier member-steps, milliseconds
    /// (recorded by the dispatch queue itself; see
    /// [`aeris_sched::QueueMetrics`]).
    pub queue_wait_ms: MetricSeries,
    /// Fast-tier enqueue-to-dispatch wait, milliseconds.
    pub fast_queue_wait_ms: MetricSeries,
    /// WFQ virtual-time lag of dispatched quality-tier tasks: how far the
    /// fair-share frontier had overtaken a task's finish tag when it ran
    /// (0 for tasks dispatched in pure tag order).
    pub wfq_lag: MetricSeries,
    /// Fast-tier WFQ virtual-time lag.
    pub fast_wfq_lag: MetricSeries,
}

impl ServeMetrics {
    /// Series registered under stable names in `tracer`'s exporter registry.
    fn registered(tracer: &Tracer) -> ServeMetrics {
        ServeMetrics {
            latency_ms: tracer.series("serve_latency_ms"),
            nowcast_latency_ms: tracer.series("serve_nowcast_latency_ms"),
            fast_latency_ms: tracer.series("serve_fast_latency_ms"),
            fast_nowcast_latency_ms: tracer.series("serve_fast_nowcast_latency_ms"),
            batch_size: tracer.series("serve_batch_size"),
            queue_depth: tracer.series("serve_queue_depth"),
            queue_wait_ms: tracer.series("serve_queue_wait_ms"),
            fast_queue_wait_ms: tracer.series("serve_fast_queue_wait_ms"),
            wfq_lag: tracer.series("serve_wfq_lag"),
            fast_wfq_lag: tracer.series("serve_fast_wfq_lag"),
        }
    }
}

/// Terminal-state marker plus per-request result assembly.
struct DoneState {
    /// `members[m]` is member `m`'s trajectory once finished.
    members: Vec<Option<Vec<Arc<Tensor>>>>,
    /// Members still in flight.
    remaining: usize,
    /// Member-steps served from cache (the rest were evaluated by the model).
    cache_hits: usize,
    /// Submission-to-terminal latency (stamped by the terminal transition).
    latency: Duration,
    /// Terminal result; `None` while in flight. Set exactly once, by
    /// `EngineShared::resolve`.
    result: Option<Result<(), ServeError>>,
}

/// The assimilation payload of a nowcast request: what turns a member-step
/// into a *guided* member-step (quality tier) or adds the post-hoc
/// relaxation (fast tier).
pub(crate) struct NowcastSpec {
    pub obs: Arc<ObservationSet>,
    pub schedule: GuidanceSchedule,
}

/// Shared per-request state: identity, scheduling class, cache addressing,
/// and the slot the client's [`Ticket`] blocks on.
pub(crate) struct RequestState {
    pub id: u64,
    pub init: Arc<Tensor>,
    pub init_hash: u64,
    pub forcings: Forcings,
    pub forcings_key: u64,
    pub steps: usize,
    pub n_members: usize,
    pub seed: u64,
    /// The tier this request was routed to.
    pub tier: Tier,
    /// The tenant it bills to.
    pub tenant: Arc<str>,
    /// `Some` for nowcasts: the observations + guidance schedule.
    pub nowcast: Option<NowcastSpec>,
    /// Cache-key auxiliary component (see [`CacheKey::aux`]): 0 for
    /// quality forecasts and off-schedule quality nowcasts (bitwise-equal
    /// trajectories, so they *should* share entries), the obs ⊕ schedule
    /// digest for guided nowcasts, with [`FAST_AUX`] folded in on the fast
    /// tier (different numbers, disjoint namespace).
    pub aux: u64,
    pub submitted: Instant,
    pub deadline: Option<Instant>,
    done: Mutex<DoneState>,
    done_cv: Condvar,
}

impl RequestState {
    /// Whether the request already resolved (completed or shed).
    fn terminal(&self) -> bool {
        self.done.lock().result.is_some()
    }
}

/// One in-flight ensemble member: the unit the dispatch queue schedules.
pub(crate) struct MemberTask {
    pub req: Arc<RequestState>,
    pub member: usize,
    /// Steps completed so far (`x` is the state after `next_step` steps).
    pub next_step: usize,
    pub x: Arc<Tensor>,
    pub rng: Rng,
    /// Trajectory states `1..=next_step`.
    pub states: Vec<Arc<Tensor>>,
    /// Steps of this member served from cache.
    pub cache_hits: usize,
}

/// A claim on a submitted request; [`Ticket::wait`] blocks for the result.
pub struct Ticket {
    req: Arc<RequestState>,
}

impl Ticket {
    /// The engine-assigned request id.
    pub fn id(&self) -> u64 {
        self.req.id
    }

    /// The tier the request was routed to.
    pub fn tier(&self) -> Tier {
        self.req.tier
    }

    fn assemble(&self, done: &DoneState) -> Result<ForecastResponse, ServeError> {
        done.result.clone().expect("caller checked terminal state")?;
        let owned = |m: &Option<Vec<Arc<Tensor>>>| -> Vec<Tensor> {
            let states = m.as_ref().expect("all members present on success");
            states.iter().map(|s| (**s).clone()).collect()
        };
        Ok(ForecastResponse {
            id: self.req.id,
            forecast: EnsembleForecast { members: done.members.iter().map(owned).collect() },
            cache_hits: done.cache_hits,
            computed_steps: self.req.steps * self.req.n_members - done.cache_hits,
            latency: done.latency,
            tier: self.req.tier,
        })
    }

    /// Block until the request resolves, then assemble the response.
    pub fn wait(&self) -> Result<ForecastResponse, ServeError> {
        let mut done = self.req.done.lock();
        while done.result.is_none() {
            self.req.done_cv.wait(&mut done);
        }
        self.assemble(&done)
    }

    /// Bounded [`Ticket::wait`]: block at most `timeout` for the result.
    /// On timeout returns [`ServeError::WaitTimeout`] — the request is NOT
    /// cancelled; it keeps running, and the ticket can be waited again (a
    /// later `wait`/`wait_for` can still succeed).
    pub fn wait_for(&self, timeout: Duration) -> Result<ForecastResponse, ServeError> {
        // A bound beyond `Instant`'s range is no bound.
        let Some(give_up) = Instant::now().checked_add(timeout) else {
            return self.wait();
        };
        let mut done = self.req.done.lock();
        while done.result.is_none() {
            let now = Instant::now();
            if now >= give_up {
                return Err(ServeError::WaitTimeout { req: self.req.id });
            }
            // The condvar can wake spuriously or on another request's
            // completion broadcast; recompute the remaining budget each
            // pass so the total bound stays `timeout`.
            let _ = self.req.done_cv.wait_for(&mut done, give_up - now);
        }
        self.assemble(&done)
    }
}

/// The model a lane's workers step member tasks on.
enum TierModel {
    Quality(Arc<Forecaster>),
    Fast(Arc<ConsistencyStudent>),
}

/// Everything one serving tier owns, stated once: its dispatch queue, its
/// request counters, its objective tracker, its workers and the model they
/// step on, and its clones of the tier's four [`ServeMetrics`] series.
/// The engine holds `[Lane; 2]` indexed by [`Tier::index`].
struct Lane {
    tier: Tier,
    queue: DispatchQueue<MemberTask>,
    /// `None` only for the fast lane of a quality-only engine, which has no
    /// workers and is never routed to.
    model: Option<TierModel>,
    /// Worker threads dispatching for the lane (0 iff it has no model).
    workers: usize,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    nowcasts: AtomicU64,
    /// The tier's objective tracker, present iff [`ServeConfig::slo`] is set.
    slo: Option<SloTracker>,
    /// Forecast / nowcast request latency of this tier, milliseconds.
    latency_ms: MetricSeries,
    nowcast_latency_ms: MetricSeries,
    /// The tier's queue-wait and WFQ-lag series, recorded by the queue itself
    /// (lock-free histogram records; negligible next to a model evaluation).
    wait: QueueMetrics,
}

impl Lane {
    /// The one place a tier is mapped to its model, its worker knob and its
    /// series; everything after reads them off the lane.
    fn new(
        tier: Tier,
        forecaster: &Arc<Forecaster>,
        student: Option<&Arc<ConsistencyStudent>>,
        cfg: &ServeConfig,
        m: &ServeMetrics,
    ) -> Lane {
        let (model, workers, [latency_ms, nowcast_latency_ms], [wait_ms, lag]) = match tier {
            Tier::Fast => (
                student.cloned().map(TierModel::Fast),
                cfg.fast_workers,
                [&m.fast_latency_ms, &m.fast_nowcast_latency_ms],
                [&m.fast_queue_wait_ms, &m.fast_wfq_lag],
            ),
            Tier::Quality => (
                Some(TierModel::Quality(Arc::clone(forecaster))),
                cfg.workers,
                [&m.latency_ms, &m.nowcast_latency_ms],
                [&m.queue_wait_ms, &m.wfq_lag],
            ),
        };
        let wait = QueueMetrics { wait_ms: wait_ms.clone(), virtual_lag: lag.clone() };
        let queue = DispatchQueue::new();
        queue.instrument(wait.clone());
        Lane {
            tier,
            queue,
            workers: if model.is_some() { workers.max(1) } else { 0 },
            model,
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            nowcasts: AtomicU64::new(0),
            slo: cfg.slo.clone().map(SloTracker::new),
            latency_ms: latency_ms.clone(),
            nowcast_latency_ms: nowcast_latency_ms.clone(),
            wait,
        }
    }

    /// The tier's slice of the request ledger.
    fn counts(&self) -> TierCounts {
        TierCounts {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            nowcasts: self.nowcasts.load(Ordering::Relaxed),
        }
    }
}

/// One tenant's row of the engine's single tenant table.
#[derive(Default)]
struct TenantEntry {
    /// The public ledger itself; reports copy it out whole.
    counts: TenantCounts,
    /// Materializes on the tenant's first terminal outcome (and only when
    /// [`ServeConfig::slo`] is set).
    slo: Option<SloTracker>,
}

/// Everything the workers and the submitting threads share.
struct EngineShared {
    forecaster: Arc<Forecaster>,
    /// One lane per tier, indexed by [`Tier::index`].
    lanes: [Lane; 2],
    router: TierRouter,
    estimator: ServiceEstimator,
    quotas: Option<QuotaTable>,
    default_tenant: Arc<str>,
    cfg: ServeConfig,
    cache: RolloutCache,
    metrics: ServeMetrics,
    tracer: Tracer,
    /// Batch-compatibility key of every task ([`TaskMeta::shape`]): admission
    /// guarantees one state shape per engine, so it is hashed once at launch.
    shape_key: u64,
    accepting: AtomicBool,
    outstanding: Mutex<usize>,
    drained: Condvar,
    next_id: AtomicU64,
    /// The one tenant table: ledger + objective tracker per tenant.
    tenants: Mutex<HashMap<Arc<str>, TenantEntry>>,
}

impl EngineShared {
    fn new(
        forecaster: Arc<Forecaster>,
        student: Option<Arc<ConsistencyStudent>>,
        cfg: ServeConfig,
        tracer: Tracer,
    ) -> EngineShared {
        let metrics = ServeMetrics::registered(&tracer);
        let lanes =
            Tier::ALL.map(|tier| Lane::new(tier, &forecaster, student.as_ref(), &cfg, &metrics));
        let model_cfg = &forecaster.model.cfg;
        EngineShared {
            lanes,
            router: TierRouter::new(cfg.router),
            estimator: ServiceEstimator::new(),
            quotas: cfg.quota.clone().map(QuotaTable::new),
            default_tenant: Arc::from("public"),
            cache: RolloutCache::new(cfg.cache_bytes),
            metrics,
            tracer,
            shape_key: fnv_pair(model_cfg.tokens() as u64, model_cfg.channels as u64),
            accepting: AtomicBool::new(true),
            outstanding: Mutex::new(0),
            drained: Condvar::new(),
            next_id: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
            forecaster,
            cfg,
        }
    }

    fn lane(&self, tier: Tier) -> &Lane {
        let lane = &self.lanes[tier.index()];
        debug_assert_eq!(lane.tier, tier, "lanes are indexed by Tier::index");
        lane
    }

    fn release_outstanding(&self) {
        let mut g = self.outstanding.lock();
        *g -= 1;
        if *g == 0 {
            self.drained.notify_all();
        }
    }

    /// A member task paired with its scheduling metadata: the deadline (EDF
    /// class), the tenant + WFQ weight, the member's *remaining* chain length
    /// as cost, and the engine's state shape as the batch-compatibility key.
    fn with_meta(&self, task: MemberTask) -> (MemberTask, TaskMeta) {
        let req = &task.req;
        let meta = TaskMeta {
            deadline: req.deadline,
            tenant: Arc::clone(&req.tenant),
            weight: self.quotas.as_ref().map_or(1.0, |q| q.weight(&req.tenant)),
            cost: (req.steps - task.next_step) as f64,
            shape: self.shape_key,
        };
        (task, meta)
    }

    fn bump_tenant(&self, tenant: &Arc<str>, f: impl FnOnce(&mut TenantCounts)) {
        let mut tenants = self.tenants.lock();
        f(&mut tenants.entry(Arc::clone(tenant)).or_default().counts);
    }

    fn cache_key(&self, req: &RequestState, member: usize, step: usize) -> CacheKey {
        CacheKey {
            init: req.init_hash,
            forcings: req.forcings_key,
            seed: req.seed,
            member: member as u64,
            step: step as u32,
            aux: req.aux,
        }
    }
}

/// The batched, multi-tenant, two-tier forecast serving engine.
pub struct ServeEngine {
    shared: Arc<EngineShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServeEngine {
    /// Spin up a quality-only engine around a shared forecaster (tracing
    /// disabled; span sites cost one atomic load). Every request serves on
    /// the full sampler.
    pub fn start(forecaster: Arc<Forecaster>, cfg: ServeConfig) -> ServeEngine {
        ServeEngine::start_traced(forecaster, cfg, Tracer::default())
    }

    /// [`ServeEngine::start`] sharing an externally owned [`Tracer`]:
    /// admission, cache lookups, batch assembly, and batched model steps emit
    /// spans (request id in the `step` tag, member in `micro`); cache
    /// hit/miss counters and the [`ServeMetrics`] series export through the
    /// tracer's Prometheus path.
    pub fn start_traced(
        forecaster: Arc<Forecaster>,
        cfg: ServeConfig,
        tracer: Tracer,
    ) -> ServeEngine {
        ServeEngine::launch(forecaster, None, cfg, tracer)
    }

    /// Spin up a **two-tier** engine: the full-sampler quality tier plus a
    /// distilled fast tier around `student`. Requests route by explicit
    /// tier or deadline slack (see [`crate::api::ForecastRequest::tier`]).
    ///
    /// Panics if the student's grid does not match the forecaster's — a
    /// construction error, not a runtime state.
    pub fn start_two_tier(
        forecaster: Arc<Forecaster>,
        student: Arc<ConsistencyStudent>,
        cfg: ServeConfig,
    ) -> ServeEngine {
        ServeEngine::start_two_tier_traced(forecaster, student, cfg, Tracer::default())
    }

    /// [`ServeEngine::start_two_tier`] with an externally owned [`Tracer`].
    pub fn start_two_tier_traced(
        forecaster: Arc<Forecaster>,
        student: Arc<ConsistencyStudent>,
        cfg: ServeConfig,
        tracer: Tracer,
    ) -> ServeEngine {
        assert_eq!(
            (student.model.cfg.tokens(), student.model.cfg.channels),
            (forecaster.model.cfg.tokens(), forecaster.model.cfg.channels),
            "student grid must match the forecaster's"
        );
        ServeEngine::launch(forecaster, Some(student), cfg, tracer)
    }

    fn launch(
        forecaster: Arc<Forecaster>,
        student: Option<Arc<ConsistencyStudent>>,
        cfg: ServeConfig,
        tracer: Tracer,
    ) -> ServeEngine {
        let shared = Arc::new(EngineShared::new(forecaster, student, cfg, tracer));
        // Actor ids are pool indices, quality workers first (the fast
        // lane's follow), so walk the tiers in reverse display order.
        let mut workers = Vec::new();
        for tier in Tier::ALL.into_iter().rev() {
            for w in 0..shared.lane(tier).workers {
                let (shared, actor) = (Arc::clone(&shared), workers.len());
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("aeris-serve-{}{w}", &tier.name()[..1]))
                        .spawn(move || shared.lane(tier).run(&shared, actor))
                        .expect("spawn serve worker"),
                );
            }
        }
        ServeEngine { shared, workers }
    }

    /// The per-tier service-time estimator (measured seconds per
    /// member-step; `None` per tier until warm).
    pub fn estimator(&self) -> &ServiceEstimator {
        &self.shared.estimator
    }

    /// Stop admitting new requests (they fail with [`ServeError::Shutdown`]);
    /// already-admitted work keeps running.
    pub fn stop_accepting(&self) {
        self.shared.accepting.store(false, Ordering::Release);
    }

    /// Gate dispatch on both tiers: workers stop pulling work (submissions
    /// are still accepted and queue up) until [`ServeEngine::release_dispatch`].
    /// Lets tests build a deterministic backlog; also usable as a
    /// maintenance pause.
    pub fn hold_dispatch(&self) {
        for lane in &self.shared.lanes {
            lane.queue.hold();
        }
    }

    /// Re-open dispatch after [`ServeEngine::hold_dispatch`].
    pub fn release_dispatch(&self) {
        for lane in &self.shared.lanes {
            lane.queue.release();
        }
    }

    /// Block until every admitted request has resolved.
    pub fn drain(&self) {
        let mut g = self.shared.outstanding.lock();
        while *g > 0 {
            self.shared.drained.wait(&mut g);
        }
    }

    /// Graceful shutdown: stop admissions, drain all in-flight requests,
    /// stop the workers, and return the final ops report.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_accepting();
        // A held queue cannot drain; close() also clears any hold.
        self.release_dispatch();
        self.drain();
        for lane in &self.shared.lanes {
            lane.queue.close();
        }
        for w in self.workers.drain(..) {
            w.join().expect("serve worker panicked");
        }
        self.shared.report()
    }
}

impl Drop for ServeEngine {
    /// Dropping without [`ServeEngine::shutdown`] still finishes admitted
    /// work (workers drain the pools before exiting), so no ticket is ever
    /// left hanging.
    fn drop(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        for lane in &self.shared.lanes {
            lane.queue.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

mod admission;
mod status;
mod worker;

#[cfg(test)]
mod tests;
