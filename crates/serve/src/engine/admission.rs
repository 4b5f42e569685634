//! The one way in: the request normal form (`Intake`), validation, and
//! `admit` — shutdown gate through `push_many`, for both request kinds.

use super::worker::Outcome;
use super::{
    DoneState, EngineShared, MemberTask, NowcastSpec, RequestState, ServeEngine, Ticket,
    CLIENT_ACTOR, FAST_AUX,
};
use crate::api::{fnv_pair, ForecastRequest, Forcings, NowcastRequest, ServeError};
use crate::cache::content_hash;
use aeris_core::member_rng;
use aeris_obs::SpanCategory;
use aeris_sched::Tier;
use aeris_tensor::{Rng, Tensor};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
            // This runs after `admit` took the outstanding slot, so it must
            // not panic (`Instant + Duration` does on overflow): a deadline
            // beyond `Instant`'s range is no deadline.
            deadline: intake.deadline.and_then(|d| submitted.checked_add(d)),
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
    /// request state and its members. A routing or
    /// slot refusal after the quota check counts as a rejection on the
    /// tenant's ledger, so `submitted == admitted + quota_denied + rejected`
    /// always balances.
    fn admit(&self, intake: Intake) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
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
        self.enqueue_members(Arc::new(RequestState::new(id, intake, tier, tenant)))
    }

    /// Token-bucket admission for `cost` member-steps; a deny is counted on
    /// the tenant's ledger and surfaced as [`ServeError::QuotaExceeded`].
    fn check_quota(&self, tenant: &Arc<str>, cost: f64) -> Result<(), ServeError> {
        let shared = &self.shared;
        if shared.quotas.as_ref().is_none_or(|q| q.admit(tenant, cost).admitted()) {
            return Ok(());
        }
        shared.bump_tenant(tenant, |t| t.quota_denied += 1);
        Err(ServeError::QuotaExceeded { tenant: tenant.to_string() })
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
                shared.finish_member(task);
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
            shared.resolve(&req, Outcome::Shed);
            return Err(ServeError::DeadlineExceeded { req: req.id });
        }
        let tasks: Vec<_> = tasks.into_iter().map(|t| shared.with_meta(t)).collect();
        shared.lane(req.tier).queue.push_many(tasks);
        Ok(Ticket { req })
    }

    /// Everything a client can get wrong, checked before anything is
    /// counted: sizes, the input state, a nowcast's observation set, its
    /// guidance schedule and the sampler it will be guided through, the
    /// forcings.
    fn validate(&self, r: &Intake) -> Result<(), ServeError> {
        let fc = &self.shared.forecaster;
        let cfg = &fc.model.cfg;
        if r.steps == 0 || r.n_members == 0 {
            return Err(ServeError::BadRequest("steps and n_members must be ≥ 1".into()));
        }
        // The response holds `steps × n_members` model states: a size whose
        // byte count overflows could never be allocated (and its member-step
        // count would overflow the quota cost), so it is a client error.
        let state_bytes = cfg.tokens() * cfg.channels * std::mem::size_of::<f32>();
        let response_bytes = r.steps.checked_mul(r.n_members).and_then(|s| s.checked_mul(state_bytes));
        if response_bytes.is_none_or(|b| b > isize::MAX as usize) {
            return Err(ServeError::BadRequest(format!(
                "{} steps × {} members overflows the response size",
                r.steps, r.n_members
            )));
        }
        self.validate_state(if r.nowcast.is_some() { "background" } else { "init" }, &r.init)?;
        if let Some(NowcastSpec { obs, schedule }) = &r.nowcast {
            obs.validate().map_err(ServeError::BadRequest)?;
            schedule.validate().map_err(ServeError::BadRequest)?;
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
            // The same reason as `validate_state`: a NaN/Inf forcing would be
            // sampled, cached and returned as success.
            if let Some(k) = t.iter().take(steps).position(|f| !f.all_finite()) {
                return Err(ServeError::BadRequest(format!(
                    "forcing table entry {k} contains non-finite values"
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
            states: Vec::new(),
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
        task
    }
}
