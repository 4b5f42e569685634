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
//!   `Outcome`: the only place a result is set, counted on every ledger,
//!   judged against the objective and logged, and its slot released.
//!
//! This file keeps the types and the engine's lifecycle (launch, drain,
//! shutdown, drop); `engine/admission.rs` holds `Intake`, validation and
//! `admit`, `engine/worker.rs` the lane loop and `resolve`, and
//! `engine/status.rs` the live snapshot and the final report, both read off
//! `Lane::counts` and the tenant table.
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

use crate::api::{
    fnv_pair, ForecastRequest, ForecastResponse, Forcings, NowcastRequest, ServeConfig, ServeError,
};
use crate::cache::{content_hash, CacheKey, RolloutCache};
use crate::report::{ServeReport, ServeSloReport, TenantCounts, TierCounts};
use aeris_assim::{nowcast_step, nowcast_step_fast, GuidanceSchedule, ObservationSet};
use aeris_core::{member_rng, step_batch, ConsistencyStudent, EnsembleForecast, Forecaster};
use aeris_obs::{
    CacheStatus, MetricSeries, SloState, SloTracker, SloVerdict, SpanCategory, StatusReport,
    TenantStatus, TierStatus, Tracer,
};
use aeris_sched::{
    DispatchQueue, QueueMetrics, QuotaTable, ServiceEstimator, TaskMeta, Tier, TierRouter,
};
use aeris_swipe::EventLog;
use aeris_tensor::{Rng, Tensor};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Actor id used for events recorded on the submitting client's thread
/// (workers use their pool index; fast-tier workers follow the quality
/// workers' indices).
pub const CLIENT_ACTOR: usize = usize::MAX;

/// Folded into a fast-tier request's cache-key aux word: the student's
/// trajectories are different numbers from the sampler's, so the two tiers
/// must never alias cache entries.
const FAST_AUX: u64 = 0xFA57_7153_AE51_0001;

/// One serving-related occurrence, recorded through the reusable
/// [`EventLog`] shared with the SWiPe runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeEvent {
    /// A request passed validation and admission control.
    Admitted { req: u64, members: usize, steps: usize },
    /// A nowcast (assimilation) request passed validation and admission
    /// control; `n_obs` is the number of present observations it carries.
    AdmittedNowcast { req: u64, members: usize, n_obs: usize },
    /// The router assigned an admitted request to a serving tier.
    Routed { req: u64, tier: Tier },
    /// Admission control refused a request (queue at capacity).
    RejectedQueueFull { capacity: usize },
    /// Admission control refused a request (tenant token bucket empty).
    RejectedQuota { tenant: String },
    /// A request arrived after shutdown began.
    RejectedShutdown,
    /// One batched model evaluation: `size` member-steps spanning
    /// `requests` distinct requests, on `tier`.
    BatchExecuted { size: usize, requests: usize, tier: Tier },
    /// A member reused a cached rollout prefix of `steps` steps.
    PrefixReused { req: u64, member: usize, steps: usize },
    /// A request was shed for deadline reasons: its budget expired, or the
    /// service-time estimator projected its remaining chain past the
    /// deadline at dispatch.
    DeadlineExceeded { req: u64 },
    /// A request completed successfully.
    Completed { req: u64, latency_ms: u64, cache_hits: usize, computed_steps: usize },
    /// The engine drained and stopped after serving `completed` requests.
    Drained { completed: u64 },
}

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
        let give_up = Instant::now() + timeout;
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
    events: EventLog<ServeEvent>,
    metrics: ServeMetrics,
    tracer: Tracer,
    /// Batch-compatibility key of every task ([`TaskMeta::shape`]): admission
    /// guarantees one state shape per engine, so it is hashed once at launch.
    shape_key: u64,
    accepting: AtomicBool,
    outstanding: Mutex<usize>,
    drained: Condvar,
    next_id: AtomicU64,
    // Global outcome counters: what `ServeReport::verify_accounting`
    // cross-checks the per-lane and per-tenant sums against.
    completed: AtomicU64,
    nowcasts: AtomicU64,
    shed: AtomicU64,
    quota_denied: AtomicU64,
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
            events: EventLog::new(),
            metrics,
            tracer,
            shape_key: fnv_pair(model_cfg.tokens() as u64, model_cfg.channels as u64),
            accepting: AtomicBool::new(true),
            outstanding: Mutex::new(0),
            drained: Condvar::new(),
            next_id: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            nowcasts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            quota_denied: AtomicU64::new(0),
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

    /// The serving event log (shared handle).
    pub fn events(&self) -> &EventLog<ServeEvent> {
        &self.shared.events
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
        let completed = self.shared.completed.load(Ordering::Relaxed);
        self.shared.events.record(CLIENT_ACTOR, ServeEvent::Drained { completed });
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

/// The one request normal form. A [`ForecastRequest`] or [`NowcastRequest`]
/// is *moved* into it (nothing is cloned); from here on the engine knows one
/// kind of request: a nowcast is a 1-step rollout carrying a [`NowcastSpec`].
struct Intake {
    init: Tensor,
    forcings: Forcings,
    steps: usize,
    n_members: usize,
    seed: u64,
    deadline: Option<Duration>,
    tenant: Option<Arc<str>>,
    /// The explicitly requested tier, if any.
    tier: Option<Tier>,
    nowcast: Option<NowcastSpec>,
}

impl From<ForecastRequest> for Intake {
    fn from(r: ForecastRequest) -> Intake {
        let ForecastRequest { init, forcings, steps, n_members, seed, deadline, tenant, tier } = r;
        Intake { init, forcings, steps, n_members, seed, deadline, tenant, tier, nowcast: None }
    }
}

impl From<NowcastRequest> for Intake {
    fn from(r: NowcastRequest) -> Intake {
        let NowcastRequest {
            background: init,
            forcings,
            observations: obs,
            schedule,
            n_members,
            seed,
            deadline,
            tenant,
            tier,
        } = r;
        let nowcast = Some(NowcastSpec { obs, schedule });
        Intake { init, forcings, steps: 1, n_members, seed, deadline, tenant, tier, nowcast }
    }
}

impl RequestState {
    /// The state of an admitted request; `intake` is consumed (its `init`
    /// tensor moves into the shared `Arc`, never cloned).
    fn new(id: u64, intake: Intake, tier: Tier, tenant: Arc<str>) -> Self {
        let submitted = Instant::now();
        // An off schedule is a bitwise 1-step forecast (on either tier), so
        // it keeps the plain aux and shares cache entries with one; active
        // guidance gets its own content-addressed namespace.
        let guided = intake
            .nowcast
            .as_ref()
            .filter(|n| !n.schedule.is_off())
            .map_or(0, |n| fnv_pair(n.obs.digest(), n.schedule.digest()));
        RequestState {
            id,
            init_hash: content_hash(&intake.init),
            init: Arc::new(intake.init),
            forcings_key: intake.forcings.content_key(),
            forcings: intake.forcings,
            steps: intake.steps,
            n_members: intake.n_members,
            seed: intake.seed,
            tier,
            tenant,
            nowcast: intake.nowcast,
            // Fast-tier trajectories are different numbers from quality ones
            // and must never alias: namespace the key by tier.
            aux: if tier == Tier::Fast { fnv_pair(guided, FAST_AUX) } else { guided },
            submitted,
            deadline: intake.deadline.map(|d| submitted + d),
            done: Mutex::new(DoneState {
                members: vec![None; intake.n_members],
                remaining: intake.n_members,
                cache_hits: 0,
                latency: Duration::ZERO,
                result: None,
            }),
            done_cv: Condvar::new(),
        }
    }
}

impl ServeEngine {
    /// Validate, admit, route, and enqueue a forecast request. Returns a
    /// [`Ticket`] the client blocks on; every admission failure is a typed
    /// error.
    pub fn submit(&self, request: ForecastRequest) -> Result<Ticket, ServeError> {
        self.admit(request.into())
    }

    /// Validate, admit, route, and enqueue a nowcast (assimilation) request.
    /// The returned [`Ticket`] resolves to a 1-step `ForecastResponse`
    /// whose `members[m][0]` is member `m`'s analysis state — bitwise
    /// identical to `aeris_assim::nowcast_member` (quality tier) or
    /// `aeris_assim::nowcast_member_fast` (fast tier) with the same inputs.
    /// Nowcast member-steps run through the same dispatch queues as
    /// forecasts and the rollout cache answers exact replays (keyed on the
    /// observation digest, guidance schedule, and tier).
    pub fn submit_nowcast(&self, request: NowcastRequest) -> Result<Ticket, ServeError> {
        self.admit(request.into())
    }

    /// The one way in, for both request kinds: shutdown gate, validation,
    /// tenant ledger, quota (`steps × n_members` member-steps), routing, the
    /// outstanding-slot bound (fail-fast, never queue unboundedly), then the
    /// request state, its admission events and its members. A routing or
    /// slot refusal after the quota check counts as a rejection on the
    /// tenant's ledger, so `submitted == admitted + quota_denied + rejected`
    /// always balances.
    fn admit(&self, intake: Intake) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            shared.events.record(CLIENT_ACTOR, ServeEvent::RejectedShutdown);
            return Err(ServeError::Shutdown);
        }
        self.validate(&intake)?;
        let tenant = intake.tenant.clone().unwrap_or_else(|| Arc::clone(&shared.default_tenant));
        shared.bump_tenant(&tenant, |t| t.submitted += 1);
        self.check_quota(&tenant, (intake.steps * intake.n_members) as f64)?;
        let tier = self
            .route(&intake)
            .inspect_err(|_| shared.bump_tenant(&tenant, |t| t.rejected += 1))?;
        let adm = shared.tracer.span(SpanCategory::Admission, CLIENT_ACTOR);
        {
            let capacity = shared.cfg.queue_capacity;
            let mut outstanding = shared.outstanding.lock();
            if *outstanding >= capacity {
                shared.events.record(CLIENT_ACTOR, ServeEvent::RejectedQueueFull { capacity });
                shared.bump_tenant(&tenant, |t| t.rejected += 1);
                return Err(ServeError::QueueFull { capacity });
            }
            *outstanding += 1;
        }
        // From here the request owns one outstanding slot, released by
        // `resolve` and nowhere else.
        shared.lane(tier).admitted.fetch_add(1, Ordering::Relaxed);
        shared.bump_tenant(&tenant, |t| t.admitted += 1);
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let _adm = adm.step(id);
        let req = Arc::new(RequestState::new(id, intake, tier, tenant));
        let members = req.n_members;
        let admitted = match &req.nowcast {
            None => ServeEvent::Admitted { req: id, members, steps: req.steps },
            Some(n) => ServeEvent::AdmittedNowcast { req: id, members, n_obs: n.obs.n_present() },
        };
        shared.events.record(CLIENT_ACTOR, admitted);
        shared.events.record(CLIENT_ACTOR, ServeEvent::Routed { req: id, tier });
        self.enqueue_members(req)
    }

    /// Token-bucket admission for `cost` member-steps; a deny is recorded
    /// and surfaced as [`ServeError::QuotaExceeded`].
    fn check_quota(&self, tenant: &Arc<str>, cost: f64) -> Result<(), ServeError> {
        let shared = &self.shared;
        if shared.quotas.as_ref().is_none_or(|q| q.admit(tenant, cost).admitted()) {
            return Ok(());
        }
        shared.quota_denied.fetch_add(1, Ordering::Relaxed);
        shared.bump_tenant(tenant, |t| t.quota_denied += 1);
        let tenant = tenant.to_string();
        shared.events.record(CLIENT_ACTOR, ServeEvent::RejectedQuota { tenant: tenant.clone() });
        Err(ServeError::QuotaExceeded { tenant })
    }

    /// Route a request onto a tier; an explicit fast request on a
    /// quality-only engine is a typed error.
    fn route(&self, intake: &Intake) -> Result<Tier, ServeError> {
        let fast_available = self.shared.lane(Tier::Fast).model.is_some();
        if intake.tier == Some(Tier::Fast) && !fast_available {
            return Err(ServeError::BadRequest(
                "fast tier requested but the engine has no distilled student".into(),
            ));
        }
        Ok(self.shared.router.route(
            intake.tier,
            intake.deadline,
            intake.steps as u64,
            fast_available,
            &self.shared.estimator,
        ))
    }

    /// The admitted-request tail: per member, reuse the longest cached
    /// prefix (fully-cached members finish right here), then shed or
    /// enqueue the remainder.
    fn enqueue_members(&self, req: Arc<RequestState>) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let mut tasks = Vec::new();
        for m in 0..req.n_members {
            let task = shared.resume_member(&req, m);
            if task.next_step == req.steps {
                shared.finish_member(task, CLIENT_ACTOR);
            } else {
                tasks.push(task);
            }
        }
        // Admission-time shedding: a deadline that has already passed, or
        // that leaves less headroom than the batcher's gather window, cannot
        // be met — fail now instead of queuing doomed work. Fully-cached
        // requests never reach this check (no tasks remain).
        let unmeetable = |dl: Instant| {
            let now = Instant::now();
            now >= dl || dl - now < shared.cfg.max_wait
        };
        if !tasks.is_empty() && req.deadline.is_some_and(unmeetable) {
            shared.resolve(&req, Outcome::Shed, CLIENT_ACTOR);
            return Err(ServeError::DeadlineExceeded { req: req.id });
        }
        let tasks: Vec<_> = tasks.into_iter().map(|t| shared.with_meta(t)).collect();
        shared.lane(req.tier).queue.push_many(tasks);
        Ok(Ticket { req })
    }

    /// Everything a client can get wrong, checked before anything is
    /// counted: sizes, the input state, a nowcast's observation set and the
    /// sampler it will be guided through, the forcings.
    fn validate(&self, r: &Intake) -> Result<(), ServeError> {
        let fc = &self.shared.forecaster;
        let cfg = &fc.model.cfg;
        if r.steps == 0 || r.n_members == 0 {
            return Err(ServeError::BadRequest("steps and n_members must be ≥ 1".into()));
        }
        self.validate_state(if r.nowcast.is_some() { "background" } else { "init" }, &r.init)?;
        if let Some(NowcastSpec { obs, .. }) = &r.nowcast {
            obs.validate().map_err(ServeError::BadRequest)?;
            let (tokens, channels) = (cfg.tokens(), cfg.channels);
            if (obs.tokens, obs.channels) != (tokens, channels) {
                return Err(ServeError::BadRequest(format!(
                    "observation geometry {}x{} != model grid {tokens}x{channels}",
                    obs.tokens, obs.channels
                )));
            }
            // Guided sampling runs the solver: a malformed schedule is a
            // typed admission error here, not a panic on a worker.
            fc.sampler
                .cfg
                .validate(&fc.sampler.tf)
                .map_err(|e| ServeError::BadRequest(format!("sampler config: {e}")))?;
        }
        self.validate_forcings(&r.forcings, r.steps)
    }

    /// A request's input state must match the model grid and be finite — a
    /// NaN/Inf would otherwise be sampled, cached and returned as success.
    fn validate_state(&self, what: &str, x: &Tensor) -> Result<(), ServeError> {
        let cfg = &self.shared.forecaster.model.cfg;
        let want = [cfg.tokens(), cfg.channels];
        if x.shape() != want {
            return Err(ServeError::BadRequest(format!(
                "{what} shape {:?} != model state shape {want:?}",
                x.shape()
            )));
        }
        if !x.all_finite() {
            return Err(ServeError::BadRequest(format!("{what} contains non-finite values")));
        }
        Ok(())
    }

    fn validate_forcings(&self, forcings: &Forcings, steps: usize) -> Result<(), ServeError> {
        let cfg = &self.shared.forecaster.model.cfg;
        if !forcings.covers(steps) {
            return Err(ServeError::BadRequest(format!(
                "forcing table does not cover {steps} steps"
            )));
        }
        if let Forcings::Table(t) = forcings {
            let want = [cfg.tokens(), cfg.forcing_channels];
            if let Some(bad) = t.iter().take(steps).find(|f| f.shape() != want) {
                return Err(ServeError::BadRequest(format!(
                    "forcing tensor shape {:?} != {want:?}",
                    bad.shape()
                )));
            }
        } else if forcings.channels() != Some(cfg.forcing_channels) {
            return Err(ServeError::BadRequest(format!(
                "forcing channels {:?} != model forcing_channels {}",
                forcings.channels(),
                cfg.forcing_channels
            )));
        }
        Ok(())
    }
}

impl EngineShared {
    /// Member `m` of `req`, advanced through the longest contiguous cached
    /// prefix of its trajectory (state + RNG snapshot per step).
    fn resume_member(&self, req: &Arc<RequestState>, m: usize) -> MemberTask {
        let mut task = MemberTask {
            req: Arc::clone(req),
            member: m,
            next_step: 0,
            x: Arc::clone(&req.init),
            rng: member_rng(req.seed, m),
            states: Vec::with_capacity(req.steps),
            cache_hits: 0,
        };
        {
            let lookup = self.tracer.span(SpanCategory::CacheLookup, CLIENT_ACTOR);
            let _lookup = lookup.step(req.id).micro(m as u64);
            while task.next_step < req.steps {
                let key = self.cache_key(req, m, task.next_step + 1);
                let Some(hit) = self.cache.get(&key) else { break };
                task.rng = Rng::restore(hit.rng);
                task.x = Arc::clone(&hit.state);
                task.states.push(hit.state);
                task.next_step += 1;
                task.cache_hits += 1;
            }
        }
        self.tracer.incr("serve_cache_hits", task.cache_hits as u64);
        if task.next_step < req.steps {
            self.tracer.incr("serve_cache_misses", 1);
        }
        if task.cache_hits > 0 {
            self.events.record(
                CLIENT_ACTOR,
                ServeEvent::PrefixReused { req: req.id, member: m, steps: task.cache_hits },
            );
        }
        task
    }
}

/// How an admitted request ends. [`EngineShared::resolve`] is total over
/// it: a new way to end is one variant here, one counter on [`Lane`] and one
/// field of `TenantCounts`.
#[derive(Clone, Copy)]
enum Outcome {
    /// Every member finished; the latency is judged against the objective.
    Completed,
    /// Shed for deadline reasons (at admission or at dispatch); always a bad
    /// outcome for the objective.
    Shed,
}

impl EngineShared {
    /// The one terminal transition (first call per request wins): set the
    /// ticket's result, stamp the latency, wake the client, count the
    /// outcome on the global, lane and tenant ledgers, record the latency
    /// series, feed the lane's and the tenant's SLO trackers, log the
    /// event, and release the request's outstanding slot.
    fn resolve(&self, req: &RequestState, outcome: Outcome, actor: usize) {
        let (latency, cache_hits) = {
            let mut done = req.done.lock();
            if done.result.is_some() {
                return;
            }
            done.latency = req.submitted.elapsed();
            done.result = Some(match outcome {
                Outcome::Completed => Ok(()),
                Outcome::Shed => Err(ServeError::DeadlineExceeded { req: req.id }),
            });
            req.done_cv.notify_all();
            (done.latency, done.cache_hits)
        };
        let latency_ms = latency.as_secs_f64() * 1e3;
        let lane = self.lane(req.tier);
        let (global, in_lane, event) = match outcome {
            Outcome::Completed => {
                let series = if req.nowcast.is_some() {
                    self.nowcasts.fetch_add(1, Ordering::Relaxed);
                    lane.nowcasts.fetch_add(1, Ordering::Relaxed);
                    &lane.nowcast_latency_ms
                } else {
                    &lane.latency_ms
                };
                series.record(latency_ms);
                let event = ServeEvent::Completed {
                    req: req.id,
                    latency_ms: latency.as_millis() as u64,
                    cache_hits,
                    computed_steps: req.steps * req.n_members - cache_hits,
                };
                (&self.completed, &lane.completed, event)
            }
            Outcome::Shed => (&self.shed, &lane.shed, ServeEvent::DeadlineExceeded { req: req.id }),
        };
        global.fetch_add(1, Ordering::Relaxed);
        in_lane.fetch_add(1, Ordering::Relaxed);
        let judge = |slo: &SloTracker| match outcome {
            Outcome::Completed => slo.observe_latency(latency_ms),
            Outcome::Shed => slo.observe(false),
        };
        if let Some(slo) = &lane.slo {
            judge(slo);
        }
        {
            let mut tenants = self.tenants.lock();
            let entry = tenants.entry(Arc::clone(&req.tenant)).or_default();
            match outcome {
                Outcome::Completed => entry.counts.completed += 1,
                Outcome::Shed => entry.counts.shed += 1,
            }
            if let Some(cfg) = &self.cfg.slo {
                judge(entry.slo.get_or_insert_with(|| SloTracker::new(cfg.clone())));
            }
        }
        self.events.record(actor, event);
        self.release_outstanding();
    }

    /// Deliver a finished member; the last one completes the request.
    fn finish_member(&self, task: MemberTask, actor: usize) {
        let req = task.req;
        let last = {
            let mut done = req.done.lock();
            if done.result.is_some() {
                return; // request already shed; drop the member quietly
            }
            done.members[task.member] = Some(task.states);
            done.remaining -= 1;
            done.cache_hits += task.cache_hits;
            done.remaining == 0
        };
        if last {
            self.resolve(&req, Outcome::Completed, actor);
        }
    }
}

impl TierModel {
    /// Advance `task` by one step on its own RNG. Forecast tasks take the
    /// model's plain step; nowcast tasks take the tier's assimilation step —
    /// sampler guidance on the quality tier, and on the fast tier (where the
    /// student has no solver iterations to guide) one post-hoc bounded
    /// relaxation toward the observations.
    fn step(&self, task: &mut MemberTask, forcings: &Tensor) -> Tensor {
        let (x, rng) = (&task.x, &mut task.rng);
        match (self, &task.req.nowcast) {
            (TierModel::Quality(fc), None) => fc.forecast_step(x, forcings, rng),
            (TierModel::Quality(fc), Some(n)) => {
                nowcast_step(fc, x, forcings, &n.obs, n.schedule, rng)
            }
            (TierModel::Fast(student), None) => student.forecast_step(x, forcings, rng),
            (TierModel::Fast(student), Some(n)) => {
                nowcast_step_fast(student, x, forcings, &n.obs, n.schedule, rng)
            }
        }
    }

    /// The `Forward` span label of this tier's batched step.
    fn span_label(&self) -> &'static str {
        match self {
            TierModel::Quality(_) => "forecast_step_batch",
            TierModel::Fast(_) => "fast_step_batch",
        }
    }
}

impl Lane {
    /// A worker's life: pull a batch in priority order, then *cull* it,
    /// *step* what is left, and *retire* the results — until the queue
    /// closes and runs dry.
    fn run(&self, shared: &EngineShared, actor: usize) {
        let Some(model) = &self.model else { return };
        loop {
            // The assembly span covers the blocking wait for work: its
            // duration is the dispatcher's gather window plus any idle time,
            // which is exactly the "why is the worker not forecasting"
            // question.
            let next = {
                let _asm =
                    shared.tracer.span(SpanCategory::BatchAssembly, actor).label(self.tier.name());
                self.queue.next_batch(shared.cfg.max_batch, shared.cfg.max_wait)
            };
            let Some(batch) = next else { break };
            let depth: usize = shared.lanes.iter().map(|l| l.queue.depth()).sum();
            shared.metrics.queue_depth.record(depth as f64);
            let mut live = self.cull(shared, batch, actor);
            if live.is_empty() {
                continue;
            }
            let outs = self.step(shared, model, &mut live, actor);
            self.retire(shared, live, outs, actor);
        }
    }

    /// Phase 1 — cull: drop tasks of already-resolved requests, expire
    /// deadlines, and — once the tier's service-time estimate is warm — shed
    /// *doomed* requests whose remaining chain is projected past the
    /// deadline: better to fail them now than to burn model evaluations on
    /// work that cannot arrive in time.
    fn cull(&self, shared: &EngineShared, batch: Vec<MemberTask>, actor: usize) -> Vec<MemberTask> {
        let now = Instant::now();
        let per_unit = shared.estimator.per_unit(self.tier);
        // Error-budget-aware shedding: the hotter the tier's burn rate, the
        // more pessimistically the doom check projects remaining service
        // time, so borderline requests are shed earlier and the freed
        // capacity protects the work that can still meet its deadline.
        // Time-only policy — it moves *which* requests get shed, never the
        // numbers of the ones that complete.
        let doom_safety = self.slo.as_ref().map_or(1.0, |slo| match slo.verdict() {
            SloVerdict::Ok => 1.0,
            SloVerdict::Warn => 1.1,
            SloVerdict::Page => 1.25,
        });
        let mut live = Vec::with_capacity(batch.len());
        for task in batch {
            if task.req.terminal() {
                continue;
            }
            let doomed = task.req.deadline.is_some_and(|dl| {
                now >= dl
                    || per_unit.is_some_and(|per| {
                        let remaining = (task.req.steps - task.next_step) as f64;
                        now + Duration::from_secs_f64(per * remaining * doom_safety) > dl
                    })
            });
            if doomed {
                shared.resolve(&task.req, Outcome::Shed, actor);
            } else {
                live.push(task);
            }
        }
        live
    }

    /// Phase 2 — step: one batched model evaluation for the whole
    /// (shape-compatible) batch; every task advances on its own private RNG.
    /// Returns each task's next state, in batch order.
    fn step(
        &self,
        shared: &EngineShared,
        model: &TierModel,
        live: &mut [MemberTask],
        actor: usize,
    ) -> Vec<Tensor> {
        shared.metrics.batch_size.record(live.len() as f64);
        let mut req_ids: Vec<u64> = live.iter().map(|t| t.req.id).collect();
        req_ids.sort_unstable();
        req_ids.dedup();
        let (size, requests) = (live.len(), req_ids.len());
        shared.events.record(actor, ServeEvent::BatchExecuted { size, requests, tier: self.tier });
        let tokens = shared.forecaster.model.cfg.tokens();
        let forcings: Vec<Tensor> =
            live.iter().map(|t| t.req.forcings.at(tokens, t.next_step)).collect();
        let t0 = Instant::now();
        let outs = {
            let fwd = shared.tracer.span(SpanCategory::Forward, actor).label(model.span_label());
            let _fwd = fwd.micro(live.len() as u64);
            let mut jobs: Vec<(&mut MemberTask, &Tensor)> =
                live.iter_mut().zip(&forcings).collect();
            step_batch(&mut jobs, |(task, f)| model.step(task, f))
        };
        // Feed the router's and the doom check's service model with the
        // amortized (batching included) cost of one member-step as served.
        shared.estimator.observe(self.tier, t0.elapsed().as_secs_f64() / live.len() as f64);
        outs
    }

    /// Phase 3 — retire: cache each new state with its RNG snapshot, then
    /// finish the member or requeue it for its next step.
    fn retire(&self, shared: &EngineShared, live: Vec<MemberTask>, out: Vec<Tensor>, actor: usize) {
        for (mut task, next) in live.into_iter().zip(out) {
            let next = Arc::new(next);
            task.next_step += 1;
            shared.cache.insert(
                shared.cache_key(&task.req, task.member, task.next_step),
                Arc::clone(&next),
                task.rng.snapshot(),
            );
            task.states.push(Arc::clone(&next));
            task.x = next;
            if task.next_step == task.req.steps {
                shared.finish_member(task, actor);
            } else {
                let (task, meta) = shared.with_meta(task);
                self.queue.push(task, meta);
            }
        }
    }
}

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

    /// The final ops report of a drained engine.
    fn report(&self) -> ServeReport {
        let rows = self.tenant_rows();
        let slo = self.cfg.slo.as_ref().map(|_| ServeSloReport {
            tiers: Tier::ALL
                .map(|t| self.lane(t).slo.as_ref().map_or_else(SloState::empty, SloTracker::state)),
            tenants: rows.iter().filter_map(|(n, _, s)| s.map(|s| (n.clone(), s))).collect(),
        });
        ServeReport {
            completed: self.completed.load(Ordering::Relaxed),
            nowcasts: self.nowcasts.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quota_denied: self.quota_denied.load(Ordering::Relaxed),
            tiers: Tier::ALL.map(|t| self.lane(t).counts()),
            tenants: rows.into_iter().map(|(name, counts, _)| (name, counts)).collect(),
            events: self.events.snapshot(),
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

#[cfg(test)]
mod tests;
