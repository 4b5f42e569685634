//! The serving engine: admission control, two-tier scheduling, per-tier
//! workers, request lifecycle, and the ops surface.
//!
//! ## Lifecycle of a request
//!
//! 1. **Quota** ([`ServeEngine::submit`]): if the engine has per-tenant
//!    quotas, the tenant's token bucket must cover the request's work
//!    (member-steps), else [`ServeError::QuotaExceeded`] — the one check a
//!    tenant cannot scheduling-game its way around.
//! 2. **Admission**: the request is validated against the engine's model
//!    config, then admitted iff fewer than `queue_capacity` requests are
//!    outstanding (else [`ServeError::QueueFull`] — fail fast, never queue
//!    unboundedly).
//! 3. **Routing**: the [`TierRouter`] classifies the request onto the
//!    **quality** tier (full sampler) or the **fast** tier (distilled
//!    one-step student), explicitly or from deadline slack against the
//!    measured quality-tier service time. Engines without a student serve
//!    everything on quality.
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
//! ## Determinism
//!
//! Member `m` of a request draws from the private stream
//! [`member_rng`]`(seed, m)` — the one [`Forecaster::ensemble`] uses — and
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
    fnv_init, fnv_u64, ForecastRequest, ForecastResponse, Forcings, NowcastRequest, ServeConfig,
    ServeError,
};
use crate::cache::{content_hash, CacheKey, CacheStats, RolloutCache};
use crate::report::{ServeReport, ServeSloReport, TenantCounts, TierCounts};
use aeris_assim::{nowcast_step, nowcast_step_fast, GuidanceSchedule, ObservationSet};
use aeris_core::{member_rng, step_batch, ConsistencyStudent, EnsembleForecast, Forecaster};
use aeris_obs::{
    CacheStatus, MetricSeries, SloConfig, SloState, SloTracker, SloVerdict, SpanCategory,
    SpanGuard, StatusReport, TenantStatus, TierStatus, Tracer,
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

    /// The queue-wait series for one tier.
    fn queue_wait_series(&self, tier: Tier) -> &MetricSeries {
        match tier {
            Tier::Quality => &self.queue_wait_ms,
            Tier::Fast => &self.fast_queue_wait_ms,
        }
    }

    /// The WFQ-lag series for one tier.
    fn wfq_lag_series(&self, tier: Tier) -> &MetricSeries {
        match tier {
            Tier::Quality => &self.wfq_lag,
            Tier::Fast => &self.fast_wfq_lag,
        }
    }

    /// The instrumentation handles handed to one tier's dispatch queue.
    fn queue_metrics(&self, tier: Tier) -> QueueMetrics {
        QueueMetrics {
            wait_ms: self.queue_wait_series(tier).clone(),
            virtual_lag: self.wfq_lag_series(tier).clone(),
        }
    }

    /// The request-latency series for one (tier, is-nowcast) traffic class.
    fn latency_series(&self, tier: Tier, nowcast: bool) -> &MetricSeries {
        match (tier, nowcast) {
            (Tier::Quality, false) => &self.latency_ms,
            (Tier::Quality, true) => &self.nowcast_latency_ms,
            (Tier::Fast, false) => &self.fast_latency_ms,
            (Tier::Fast, true) => &self.fast_nowcast_latency_ms,
        }
    }
}

/// Terminal-state marker plus per-request result assembly.
struct DoneState {
    /// `members[m]` is member `m`'s trajectory once finished.
    members: Vec<Option<Vec<Arc<Tensor>>>>,
    /// Members still in flight.
    remaining: usize,
    /// Member-steps served from cache.
    cache_hits: usize,
    /// Member-steps evaluated by the model.
    computed_steps: usize,
    /// Submission-to-terminal latency (set at completion/failure).
    latency: Duration,
    /// Terminal result; `None` while in flight. Set exactly once.
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
    #[allow(clippy::too_many_arguments)]
    fn with_core(
        id: u64,
        init: Tensor,
        forcings: Forcings,
        steps: usize,
        n_members: usize,
        seed: u64,
        deadline: Option<Duration>,
        tier: Tier,
        tenant: Arc<str>,
    ) -> Self {
        let submitted = Instant::now();
        RequestState {
            id,
            init_hash: content_hash(&init),
            init: Arc::new(init),
            forcings_key: forcings.content_key(),
            forcings,
            steps,
            n_members,
            seed,
            tier,
            tenant,
            nowcast: None,
            aux: 0,
            submitted,
            deadline: deadline.map(|d| submitted + d),
            done: Mutex::new(DoneState {
                members: vec![None; n_members],
                remaining: n_members,
                cache_hits: 0,
                computed_steps: 0,
                latency: Duration::ZERO,
                result: None,
            }),
            done_cv: Condvar::new(),
        }
    }

    /// Namespace the cache key by tier: fast-tier trajectories are different
    /// numbers from quality ones and must never alias.
    fn apply_tier_aux(&mut self) {
        if self.tier == Tier::Fast {
            let mut h = fnv_init();
            fnv_u64(&mut h, self.aux);
            fnv_u64(&mut h, FAST_AUX);
            self.aux = h;
        }
    }

    fn new(id: u64, req: &ForecastRequest, tier: Tier, tenant: Arc<str>) -> Self {
        let mut state = RequestState::with_core(
            id,
            req.init.clone(),
            req.forcings.clone(),
            req.steps,
            req.n_members,
            req.seed,
            req.deadline,
            tier,
            tenant,
        );
        state.apply_tier_aux();
        state
    }

    fn new_nowcast(id: u64, req: &NowcastRequest, tier: Tier, tenant: Arc<str>) -> Self {
        let mut state = RequestState::with_core(
            id,
            req.background.clone(),
            req.forcings.clone(),
            1,
            req.n_members,
            req.seed,
            req.deadline,
            tier,
            tenant,
        );
        // An off schedule is a bitwise 1-step forecast (on either tier), so
        // it keeps the plain aux and shares cache entries with one; active
        // guidance gets its own content-addressed namespace.
        if !req.schedule.is_off() {
            let mut h = fnv_init();
            fnv_u64(&mut h, req.observations.digest());
            fnv_u64(&mut h, req.schedule.digest());
            state.aux = h;
        }
        state.apply_tier_aux();
        state.nowcast = Some(NowcastSpec {
            obs: Arc::clone(&req.observations),
            schedule: req.schedule,
        });
        state
    }

    /// Whether the request already resolved (completed or failed).
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
        match done.result.clone().expect("caller checked terminal state") {
            Err(e) => Err(e),
            Ok(()) => {
                let members: Vec<Vec<Tensor>> = done
                    .members
                    .iter()
                    .map(|m| {
                        m.as_ref()
                            .expect("all members present on success")
                            .iter()
                            .map(|s| (**s).clone())
                            .collect()
                    })
                    .collect();
                Ok(ForecastResponse {
                    id: self.req.id,
                    forecast: EnsembleForecast { members },
                    cache_hits: done.cache_hits,
                    computed_steps: done.computed_steps,
                    latency: done.latency,
                    tier: self.req.tier,
                })
            }
        }
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

#[derive(Default)]
struct TenantCounters {
    /// Requests that passed validation and named this tenant.
    submitted: u64,
    /// Requests that passed quota + routing + admission control.
    admitted: u64,
    /// Admitted requests rejected post-quota (bad route or queue full).
    rejected: u64,
    completed: u64,
    shed: u64,
    quota_denied: u64,
}

/// Per-tier and per-tenant objective trackers (present iff
/// [`ServeConfig::slo`] is set). Tier trackers are fixed at launch; tenant
/// trackers materialize on each tenant's first observed outcome.
struct SloBook {
    cfg: SloConfig,
    /// Indexed by [`Tier::index`].
    tiers: [SloTracker; 2],
    tenants: Mutex<HashMap<Arc<str>, SloTracker>>,
}

impl SloBook {
    fn new(cfg: SloConfig) -> Self {
        SloBook {
            tiers: [SloTracker::new(cfg.clone()), SloTracker::new(cfg.clone())],
            tenants: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    /// Record one request outcome on its tier's and its tenant's tracker.
    fn observe(&self, tier: Tier, tenant: &Arc<str>, good: bool) {
        self.tiers[tier.index()].observe(good);
        self.tenants
            .lock()
            .entry(Arc::clone(tenant))
            .or_insert_with(|| SloTracker::new(self.cfg.clone()))
            .observe(good);
    }

    /// Final per-tenant states, sorted by tenant name.
    fn tenant_states(&self) -> Vec<(String, SloState)> {
        let mut out: Vec<(String, SloState)> =
            self.tenants.lock().iter().map(|(n, t)| (n.to_string(), t.state())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Everything the workers and the submitting threads share.
struct EngineShared {
    forecaster: Arc<Forecaster>,
    /// The distilled fast-tier model; `None` on quality-only engines.
    student: Option<Arc<ConsistencyStudent>>,
    /// One dispatch queue per tier, indexed by [`Tier::index`].
    queues: [DispatchQueue<MemberTask>; 2],
    router: TierRouter,
    estimator: ServiceEstimator,
    quotas: Option<QuotaTable>,
    default_tenant: Arc<str>,
    cfg: ServeConfig,
    cache: RolloutCache,
    events: EventLog<ServeEvent>,
    metrics: ServeMetrics,
    tracer: Tracer,
    accepting: AtomicBool,
    outstanding: Mutex<usize>,
    drained: Condvar,
    next_id: AtomicU64,
    completed: AtomicU64,
    nowcasts: AtomicU64,
    shed: AtomicU64,
    quota_denied: AtomicU64,
    tier_admitted: [AtomicU64; 2],
    tier_completed: [AtomicU64; 2],
    tier_shed: [AtomicU64; 2],
    tier_nowcasts: [AtomicU64; 2],
    tenants: Mutex<HashMap<Arc<str>, TenantCounters>>,
    /// SLO trackers, present iff [`ServeConfig::slo`] is configured.
    slo: Option<SloBook>,
}

impl EngineShared {
    fn release_outstanding(&self) {
        let mut g = self.outstanding.lock();
        *g -= 1;
        if *g == 0 {
            self.drained.notify_all();
        }
    }

    fn tenant_weight(&self, tenant: &str) -> f64 {
        self.quotas.as_ref().map_or(1.0, |q| q.weight(tenant))
    }

    /// Scheduling metadata for a member task: the deadline (EDF class), the
    /// tenant + WFQ weight, the member's *remaining* chain length as cost,
    /// and the state shape as the batch-compatibility key.
    fn task_meta(&self, task: &MemberTask) -> TaskMeta {
        let req = &task.req;
        let shape = task.x.shape();
        let mut sh = fnv_init();
        for &d in shape {
            fnv_u64(&mut sh, d as u64);
        }
        TaskMeta {
            deadline: req.deadline,
            tenant: Arc::clone(&req.tenant),
            weight: self.tenant_weight(&req.tenant),
            cost: (req.steps - task.next_step) as f64,
            shape: sh,
        }
    }

    fn bump_tenant(&self, tenant: &Arc<str>, f: impl FnOnce(&mut TenantCounters)) {
        let mut tenants = self.tenants.lock();
        f(tenants.entry(Arc::clone(tenant)).or_default());
    }

    /// Resolve a request as failed (first terminal transition wins).
    fn fail_request(&self, req: &Arc<RequestState>, err: ServeError, actor: usize) {
        {
            let mut done = req.done.lock();
            if done.result.is_some() {
                return;
            }
            done.latency = req.submitted.elapsed();
            done.result = Some(Err(err.clone()));
            req.done_cv.notify_all();
        }
        if let ServeError::DeadlineExceeded { req: id } = err {
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.tier_shed[req.tier.index()].fetch_add(1, Ordering::Relaxed);
            self.bump_tenant(&req.tenant, |t| t.shed += 1);
            if let Some(slo) = &self.slo {
                slo.observe(req.tier, &req.tenant, false);
            }
            self.events.record(actor, ServeEvent::DeadlineExceeded { req: id });
        }
        self.release_outstanding();
    }

    /// Deliver a finished member; the last one completes the request.
    fn finish_member(&self, task: MemberTask, actor: usize) {
        let req = task.req;
        let computed = req.steps - task.cache_hits;
        let finished = {
            let mut done = req.done.lock();
            if done.result.is_some() {
                return; // request already failed; drop the member quietly
            }
            done.members[task.member] = Some(task.states);
            done.remaining -= 1;
            done.cache_hits += task.cache_hits;
            done.computed_steps += computed;
            if done.remaining == 0 {
                done.latency = req.submitted.elapsed();
                done.result = Some(Ok(()));
                req.done_cv.notify_all();
                Some((done.latency, done.cache_hits, done.computed_steps))
            } else {
                None
            }
        };
        if let Some((latency, cache_hits, computed_steps)) = finished {
            self.completed.fetch_add(1, Ordering::Relaxed);
            self.tier_completed[req.tier.index()].fetch_add(1, Ordering::Relaxed);
            self.bump_tenant(&req.tenant, |t| t.completed += 1);
            if req.nowcast.is_some() {
                self.nowcasts.fetch_add(1, Ordering::Relaxed);
                self.tier_nowcasts[req.tier.index()].fetch_add(1, Ordering::Relaxed);
            }
            self.metrics
                .latency_series(req.tier, req.nowcast.is_some())
                .record(latency.as_secs_f64() * 1e3);
            if let Some(slo) = &self.slo {
                slo.observe(req.tier, &req.tenant, latency.as_secs_f64() * 1e3 <= slo.cfg.latency_ms);
            }
            self.events.record(
                actor,
                ServeEvent::Completed {
                    req: req.id,
                    latency_ms: latency.as_millis() as u64,
                    cache_hits,
                    computed_steps,
                },
            );
            self.release_outstanding();
        }
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

    fn total_queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.depth()).sum()
    }
}

/// The model a tier's workers step member tasks on.
enum TierModel<'a> {
    Quality(&'a Forecaster),
    Fast(&'a ConsistencyStudent),
}

impl TierModel<'_> {
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

fn worker_loop(shared: Arc<EngineShared>, tier: Tier, actor: usize) {
    let model = match tier {
        Tier::Quality => TierModel::Quality(&shared.forecaster),
        Tier::Fast => TierModel::Fast(
            shared.student.as_deref().expect("fast worker without a student"),
        ),
    };
    let tokens = shared.forecaster.model.cfg.tokens();
    let queue = &shared.queues[tier.index()];
    loop {
        // The assembly span covers the blocking wait for work: its duration
        // is the dispatcher's gather window plus any idle time, which is
        // exactly the "why is the worker not forecasting" question.
        let batch = {
            let _asm =
                shared.tracer.span(SpanCategory::BatchAssembly, actor).label(tier.name());
            match queue.next_batch(shared.cfg.max_batch, shared.cfg.max_wait) {
                Some(b) => b,
                None => break,
            }
        };
        shared.metrics.queue_depth.record(shared.total_queue_depth() as f64);
        // Shed tasks of already-resolved requests, expire deadlines, and —
        // once the tier's service-time estimate is warm — shed *doomed*
        // requests whose remaining chain is projected past the deadline:
        // better to fail them now than to burn model evaluations on work
        // that cannot arrive in time.
        let now = Instant::now();
        let per_unit = shared.estimator.per_unit(tier);
        // Error-budget-aware shedding: the hotter the tier's burn rate, the
        // more pessimistically the doom check projects remaining service
        // time, so borderline requests are shed earlier and the freed
        // capacity protects the work that can still meet its deadline.
        // Time-only policy — it moves *which* requests get shed, never the
        // numbers of the ones that complete.
        let doom_safety = shared.slo.as_ref().map_or(1.0, |slo| {
            match slo.tiers[tier.index()].verdict() {
                SloVerdict::Ok => 1.0,
                SloVerdict::Warn => 1.1,
                SloVerdict::Page => 1.25,
            }
        });
        let mut live: Vec<MemberTask> = Vec::with_capacity(batch.len());
        for task in batch {
            if task.req.terminal() {
                continue;
            }
            if let Some(dl) = task.req.deadline {
                let doomed = now >= dl
                    || per_unit.is_some_and(|per| {
                        let remaining = (task.req.steps - task.next_step) as f64;
                        now + Duration::from_secs_f64(per * remaining * doom_safety) > dl
                    });
                if doomed {
                    let id = task.req.id;
                    shared.fail_request(
                        &task.req,
                        ServeError::DeadlineExceeded { req: id },
                        actor,
                    );
                    continue;
                }
            }
            live.push(task);
        }
        if live.is_empty() {
            continue;
        }
        shared.metrics.batch_size.record(live.len() as f64);
        let mut req_ids: Vec<u64> = live.iter().map(|t| t.req.id).collect();
        req_ids.sort_unstable();
        req_ids.dedup();
        shared.events.record(
            actor,
            ServeEvent::BatchExecuted { size: live.len(), requests: req_ids.len(), tier },
        );

        // One batched model evaluation for the whole (shape-compatible)
        // batch; every task advances on its own private RNG.
        let forcings: Vec<Tensor> =
            live.iter().map(|t| t.req.forcings.at(tokens, t.next_step)).collect();
        let t0 = Instant::now();
        let outs = {
            let _fwd = shared
                .tracer
                .span(SpanCategory::Forward, actor)
                .label(model.span_label())
                .micro(live.len() as u64);
            let mut jobs: Vec<(&mut MemberTask, &Tensor)> =
                live.iter_mut().zip(&forcings).collect();
            step_batch(&mut jobs, |(task, f)| model.step(task, f))
        };
        // Feed the router's and the doom check's service model with the
        // amortized (batching included) cost of one member-step as served.
        shared.estimator.observe(tier, t0.elapsed().as_secs_f64() / live.len() as f64);
        for (mut task, next) in live.into_iter().zip(outs) {
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
                let meta = shared.task_meta(&task);
                queue.push(task, meta);
            }
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
        let n_quality = cfg.workers.max(1);
        let n_fast = if student.is_some() { cfg.fast_workers.max(1) } else { 0 };
        let shared = Arc::new(EngineShared {
            student,
            queues: [DispatchQueue::new(), DispatchQueue::new()],
            router: TierRouter::new(cfg.router),
            estimator: ServiceEstimator::new(),
            quotas: cfg.quota.clone().map(QuotaTable::new),
            default_tenant: Arc::from("public"),
            cache: RolloutCache::new(cfg.cache_bytes),
            events: EventLog::new(),
            metrics: ServeMetrics::registered(&tracer),
            tracer,
            accepting: AtomicBool::new(true),
            outstanding: Mutex::new(0),
            drained: Condvar::new(),
            next_id: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            nowcasts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            quota_denied: AtomicU64::new(0),
            tier_admitted: [AtomicU64::new(0), AtomicU64::new(0)],
            tier_completed: [AtomicU64::new(0), AtomicU64::new(0)],
            tier_shed: [AtomicU64::new(0), AtomicU64::new(0)],
            tier_nowcasts: [AtomicU64::new(0), AtomicU64::new(0)],
            tenants: Mutex::new(HashMap::new()),
            slo: cfg.slo.clone().map(SloBook::new),
            forecaster,
            cfg,
        });
        // The queues report their own wait/lag distributions through the
        // engine's metric series (lock-free histogram records; negligible
        // next to a model evaluation).
        for tier in [Tier::Quality, Tier::Fast] {
            shared.queues[tier.index()].instrument(shared.metrics.queue_metrics(tier));
        }
        let mut workers = Vec::with_capacity(n_quality + n_fast);
        for w in 0..n_quality {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("aeris-serve-q{w}"))
                    .spawn(move || worker_loop(shared, Tier::Quality, w))
                    .expect("spawn serve worker"),
            );
        }
        for w in 0..n_fast {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("aeris-serve-f{w}"))
                    .spawn(move || worker_loop(shared, Tier::Fast, n_quality + w))
                    .expect("spawn serve worker"),
            );
        }
        ServeEngine { shared, workers }
    }

    /// The tracer the engine records through (disabled no-op tracer unless
    /// started via a `*_traced` constructor).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// The per-tier service-time estimator (measured seconds per
    /// member-step; `None` per tier until warm).
    pub fn estimator(&self) -> &ServiceEstimator {
        &self.shared.estimator
    }

    /// Token-bucket admission for `cost` member-steps; a deny is recorded
    /// and surfaced as [`ServeError::QuotaExceeded`].
    fn check_quota(&self, tenant: &Arc<str>, cost: f64) -> Result<(), ServeError> {
        let Some(quotas) = &self.shared.quotas else {
            return Ok(());
        };
        if quotas.admit(tenant, cost).admitted() {
            return Ok(());
        }
        self.shared.quota_denied.fetch_add(1, Ordering::Relaxed);
        self.shared.bump_tenant(tenant, |t| t.quota_denied += 1);
        self.shared
            .events
            .record(CLIENT_ACTOR, ServeEvent::RejectedQuota { tenant: tenant.to_string() });
        Err(ServeError::QuotaExceeded { tenant: tenant.to_string() })
    }

    /// Route a request onto a tier; an explicit fast request on a
    /// quality-only engine is a typed error.
    fn route(
        &self,
        explicit: Option<Tier>,
        deadline: Option<Duration>,
        chain_units: u64,
    ) -> Result<Tier, ServeError> {
        let fast_available = self.shared.student.is_some();
        if explicit == Some(Tier::Fast) && !fast_available {
            return Err(ServeError::BadRequest(
                "fast tier requested but the engine has no distilled student".into(),
            ));
        }
        Ok(self.shared.router.route(
            explicit,
            deadline,
            chain_units,
            fast_available,
            &self.shared.estimator,
        ))
    }

    /// The admission prologue both request kinds share: shutdown gate,
    /// validation, tenant ledger, quota (`steps × n_members` member-steps),
    /// routing, and the outstanding-slot bound. Returns the fresh request
    /// id, its tier and tenant, and the open `Admission` span. A routing
    /// failure after the quota check counts as a rejection on the tenant's
    /// ledger (so `submitted == admitted + quota_denied + rejected` always
    /// balances).
    fn admit(
        &self,
        validate: impl FnOnce() -> Result<(), ServeError>,
        tenant: &Option<Arc<str>>,
        explicit: Option<Tier>,
        deadline: Option<Duration>,
        steps: usize,
        n_members: usize,
    ) -> Result<(u64, Tier, Arc<str>, SpanGuard), ServeError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            shared.events.record(CLIENT_ACTOR, ServeEvent::RejectedShutdown);
            return Err(ServeError::Shutdown);
        }
        validate()?;
        let tenant = tenant.clone().unwrap_or_else(|| Arc::clone(&shared.default_tenant));
        shared.bump_tenant(&tenant, |t| t.submitted += 1);
        self.check_quota(&tenant, (steps * n_members) as f64)?;
        let tier = self.route(explicit, deadline, steps as u64).inspect_err(|_| {
            shared.bump_tenant(&tenant, |t| t.rejected += 1);
        })?;
        let adm = shared.tracer.span(SpanCategory::Admission, CLIENT_ACTOR);
        let id = self.acquire_slot(&tenant, tier)?;
        Ok((id, tier, tenant, adm.step(id)))
    }

    /// Validate, admit, route, and enqueue a forecast request. Returns a
    /// [`Ticket`] the client blocks on; every admission failure is a typed
    /// error.
    pub fn submit(&self, request: ForecastRequest) -> Result<Ticket, ServeError> {
        let (id, tier, tenant, _adm) = self.admit(
            || self.validate(&request),
            &request.tenant,
            request.tier,
            request.deadline,
            request.steps,
            request.n_members,
        )?;
        let req = RequestState::new(id, &request, tier, tenant);
        self.shared.events.record(
            CLIENT_ACTOR,
            ServeEvent::Admitted { req: id, members: request.n_members, steps: request.steps },
        );
        self.enqueue_members(req)
    }

    /// Validate, admit, route, and enqueue a nowcast (assimilation) request.
    /// The returned [`Ticket`] resolves to a 1-step [`ForecastResponse`]
    /// whose `members[m][0]` is member `m`'s analysis state — bitwise
    /// identical to `aeris_assim::nowcast_member` (quality tier) or
    /// `aeris_assim::nowcast_member_fast` (fast tier) with the same inputs.
    /// Nowcast member-steps run through the same dispatch queues as
    /// forecasts and the rollout cache answers exact replays (keyed on the
    /// observation digest, guidance schedule, and tier).
    pub fn submit_nowcast(&self, request: NowcastRequest) -> Result<Ticket, ServeError> {
        let (id, tier, tenant, _adm) = self.admit(
            || self.validate_nowcast(&request),
            &request.tenant,
            request.tier,
            request.deadline,
            1,
            request.n_members,
        )?;
        let req = RequestState::new_nowcast(id, &request, tier, tenant);
        self.shared.events.record(
            CLIENT_ACTOR,
            ServeEvent::AdmittedNowcast {
                req: id,
                members: request.n_members,
                n_obs: request.observations.n_present(),
            },
        );
        self.enqueue_members(req)
    }

    /// Admission control: bounded outstanding requests, fail-fast. On
    /// success the caller owns one outstanding slot and a fresh request id,
    /// and the request is counted admitted on its tier's and tenant's
    /// ledgers; a refusal counts as a tenant rejection.
    fn acquire_slot(&self, tenant: &Arc<str>, tier: Tier) -> Result<u64, ServeError> {
        let shared = &self.shared;
        {
            let mut g = shared.outstanding.lock();
            if *g >= shared.cfg.queue_capacity {
                shared.events.record(
                    CLIENT_ACTOR,
                    ServeEvent::RejectedQueueFull { capacity: shared.cfg.queue_capacity },
                );
                shared.bump_tenant(tenant, |t| t.rejected += 1);
                return Err(ServeError::QueueFull { capacity: shared.cfg.queue_capacity });
            }
            *g += 1;
        }
        shared.tier_admitted[tier.index()].fetch_add(1, Ordering::Relaxed);
        shared.bump_tenant(tenant, |t| t.admitted += 1);
        Ok(shared.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// The admitted-request tail shared by both request kinds.
    fn enqueue_members(&self, req: RequestState) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let req = Arc::new(req);
        let id = req.id;
        shared.events.record(CLIENT_ACTOR, ServeEvent::Routed { req: id, tier: req.tier });
        // Per member: reuse the longest contiguous cached prefix, then
        // enqueue the remainder (fully-cached members finish right here).
        let mut tasks = Vec::new();
        for m in 0..req.n_members {
            let mut task = MemberTask {
                req: Arc::clone(&req),
                member: m,
                next_step: 0,
                x: Arc::clone(&req.init),
                rng: member_rng(req.seed, m),
                states: Vec::with_capacity(req.steps),
                cache_hits: 0,
            };
            {
                let _lookup = shared
                    .tracer
                    .span(SpanCategory::CacheLookup, CLIENT_ACTOR)
                    .step(id)
                    .micro(m as u64);
                while task.next_step < req.steps {
                    let key = shared.cache_key(&req, m, task.next_step + 1);
                    match shared.cache.get(&key) {
                        Some(hit) => {
                            task.rng = Rng::restore(hit.rng);
                            task.x = Arc::clone(&hit.state);
                            task.states.push(hit.state);
                            task.next_step += 1;
                            task.cache_hits += 1;
                        }
                        None => break,
                    }
                }
            }
            shared.tracer.incr("serve_cache_hits", task.cache_hits as u64);
            if task.next_step < req.steps {
                shared.tracer.incr("serve_cache_misses", 1);
            }
            if task.cache_hits > 0 {
                shared.events.record(
                    CLIENT_ACTOR,
                    ServeEvent::PrefixReused { req: id, member: m, steps: task.cache_hits },
                );
            }
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
        if !tasks.is_empty() {
            if let Some(dl) = req.deadline {
                let now = Instant::now();
                if now >= dl || dl - now < shared.cfg.max_wait {
                    shared.fail_request(&req, ServeError::DeadlineExceeded { req: id }, CLIENT_ACTOR);
                    return Err(ServeError::DeadlineExceeded { req: id });
                }
            }
        }
        let queue = &shared.queues[req.tier.index()];
        let metas: Vec<(MemberTask, TaskMeta)> = tasks
            .into_iter()
            .map(|t| {
                let meta = shared.task_meta(&t);
                (t, meta)
            })
            .collect();
        queue.push_many(metas);
        Ok(Ticket { req })
    }

    fn validate(&self, r: &ForecastRequest) -> Result<(), ServeError> {
        if r.steps == 0 || r.n_members == 0 {
            return Err(ServeError::BadRequest("steps and n_members must be ≥ 1".into()));
        }
        self.validate_state("init", &r.init)?;
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

    fn validate_nowcast(&self, r: &NowcastRequest) -> Result<(), ServeError> {
        let fc = &self.shared.forecaster;
        let cfg = &fc.model.cfg;
        if r.n_members == 0 {
            return Err(ServeError::BadRequest("n_members must be ≥ 1".into()));
        }
        self.validate_state("background", &r.background)?;
        let obs = &r.observations;
        if obs.tokens != cfg.tokens() || obs.channels != cfg.channels {
            return Err(ServeError::BadRequest(format!(
                "observation geometry {}x{} != model grid {}x{}",
                obs.tokens,
                obs.channels,
                cfg.tokens(),
                cfg.channels
            )));
        }
        let n = obs.sites.len();
        if obs.values.len() != n || obs.mask.len() != n {
            return Err(ServeError::BadRequest(format!(
                "inconsistent observation lengths: {n} sites, {} values, {} mask bits",
                obs.values.len(),
                obs.mask.len()
            )));
        }
        if obs.noise_std.len() != obs.channels {
            return Err(ServeError::BadRequest(format!(
                "noise_std has {} entries for {} channels",
                obs.noise_std.len(),
                obs.channels
            )));
        }
        if let Some((ch, &s)) =
            obs.noise_std.iter().enumerate().find(|(_, &s)| s <= 0.0 || s.is_nan())
        {
            return Err(ServeError::BadRequest(format!(
                "noise_std[{ch}] = {s} must be strictly positive"
            )));
        }
        if let Some(bad) =
            obs.sites.iter().find(|s| s.token >= obs.tokens || s.channel >= obs.channels)
        {
            return Err(ServeError::BadRequest(format!(
                "observation site ({}, {}) outside the {}x{} grid",
                bad.token, bad.channel, obs.tokens, obs.channels
            )));
        }
        if let Some(i) = (0..n).find(|&i| obs.mask[i] && !obs.values[i].is_finite()) {
            return Err(ServeError::BadRequest(format!(
                "observation {i} is present but not finite ({})",
                obs.values[i]
            )));
        }
        // Guided sampling runs the solver; reject a malformed schedule here
        // as a typed admission error instead of panicking on a worker.
        fc.sampler
            .cfg
            .validate(&fc.sampler.tf)
            .map_err(|e| ServeError::BadRequest(format!("sampler config: {e}")))?;
        self.validate_forcings(&r.forcings, 1)
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
        for q in &self.shared.queues {
            q.hold();
        }
    }

    /// Re-open dispatch after [`ServeEngine::hold_dispatch`].
    pub fn release_dispatch(&self) {
        for q in &self.shared.queues {
            q.release();
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
        for q in &self.shared.queues {
            q.release();
        }
        self.drain();
        for q in &self.shared.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            w.join().expect("serve worker panicked");
        }
        let shared = &self.shared;
        let completed = shared.completed.load(Ordering::Relaxed);
        shared.events.record(CLIENT_ACTOR, ServeEvent::Drained { completed });
        let tiers = [Tier::Fast, Tier::Quality].map(|t| TierCounts {
            admitted: shared.tier_admitted[t.index()].load(Ordering::Relaxed),
            completed: shared.tier_completed[t.index()].load(Ordering::Relaxed),
            shed: shared.tier_shed[t.index()].load(Ordering::Relaxed),
            nowcasts: shared.tier_nowcasts[t.index()].load(Ordering::Relaxed),
        });
        let mut tenants: Vec<(String, TenantCounts)> = shared
            .tenants
            .lock()
            .iter()
            .map(|(name, c)| {
                (
                    name.to_string(),
                    TenantCounts {
                        submitted: c.submitted,
                        admitted: c.admitted,
                        rejected: c.rejected,
                        completed: c.completed,
                        shed: c.shed,
                        quota_denied: c.quota_denied,
                    },
                )
            })
            .collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        let slo = shared.slo.as_ref().map(|book| ServeSloReport {
            tiers: [Tier::Fast, Tier::Quality].map(|t| book.tiers[t.index()].state()),
            tenants: book.tenant_states(),
        });
        ServeReport {
            completed,
            nowcasts: shared.nowcasts.load(Ordering::Relaxed),
            shed: shared.shed.load(Ordering::Relaxed),
            quota_denied: shared.quota_denied.load(Ordering::Relaxed),
            tiers,
            tenants,
            events: shared.events.snapshot(),
            metrics: shared.metrics.clone(),
            cache: shared.cache.stats(),
            slo,
        }
    }

    /// The serving event log (shared handle).
    pub fn events(&self) -> &EventLog<ServeEvent> {
        &self.shared.events
    }

    /// Rollout-cache accounting.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Requests admitted but not yet terminal.
    pub fn in_flight(&self) -> usize {
        *self.shared.outstanding.lock()
    }

    /// Live SLO state of one tier (`None` unless [`ServeConfig::slo`] is
    /// configured).
    pub fn slo_state(&self, tier: Tier) -> Option<SloState> {
        self.shared.slo.as_ref().map(|b| b.tiers[tier.index()].state())
    }

    /// One point-in-time introspection snapshot: queue depths, wait/lag
    /// quantiles, service estimates, worker sizing, per-tenant
    /// ledgers and token balances, cache effectiveness, live SLO states,
    /// and the tracer's counters. Render it with `Display` for the text
    /// dashboard, or push it into the Prometheus path with
    /// [`StatusReport::export_gauges`].
    pub fn status(&self) -> StatusReport {
        let shared = &self.shared;
        let mut tiers = Vec::new();
        for tier in [Tier::Quality, Tier::Fast] {
            if tier == Tier::Fast && shared.student.is_none() {
                continue;
            }
            let i = tier.index();
            let wait = shared.metrics.queue_wait_series(tier);
            let lag = shared.metrics.wfq_lag_series(tier);
            tiers.push(TierStatus {
                name: tier.name().to_string(),
                queue_depth: shared.queues[i].depth(),
                queue_wait_ms: wait.summary(),
                wfq_lag: lag.summary(),
                est_ms_per_unit: shared.estimator.per_unit(tier).map(|s| s * 1e3),
                est_samples: shared.estimator.samples(tier),
                workers: match tier {
                    Tier::Quality => shared.cfg.workers.max(1),
                    Tier::Fast => shared.cfg.fast_workers.max(1),
                },
                admitted: shared.tier_admitted[i].load(Ordering::Relaxed),
                completed: shared.tier_completed[i].load(Ordering::Relaxed),
                shed: shared.tier_shed[i].load(Ordering::Relaxed),
                slo: shared.slo.as_ref().map(|b| b.tiers[i].state()),
            });
        }
        let balances: HashMap<String, f64> = shared
            .quotas
            .as_ref()
            .map(|q| q.balances().into_iter().collect())
            .unwrap_or_default();
        let mut tenants: Vec<TenantStatus> = shared
            .tenants
            .lock()
            .iter()
            .map(|(name, c)| TenantStatus {
                name: name.to_string(),
                quota_tokens: balances.get(&**name).copied(),
                submitted: c.submitted,
                completed: c.completed,
                shed: c.shed,
                quota_denied: c.quota_denied,
                rejected: c.rejected,
                slo: shared
                    .slo
                    .as_ref()
                    .and_then(|b| b.tenants.lock().get(name).map(|t| t.state())),
            })
            .collect();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
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

impl Drop for ServeEngine {
    /// Dropping without [`ServeEngine::shutdown`] still finishes admitted
    /// work (workers drain the pools before exiting), so no ticket is ever
    /// left hanging.
    fn drop(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        for q in &self.shared.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests;
