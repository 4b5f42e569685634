//! What runs after admission: the one terminal transition (`resolve`) and
//! the lane's worker loop — cull, step, retire.

use super::{EngineShared, Lane, MemberTask, RequestState, TierModel};
use crate::api::ServeError;
use aeris_assim::{nowcast_step, nowcast_step_fast};
use aeris_core::{step_batch, Workspace};
use aeris_diffusion::NoGuidance;
use aeris_obs::{SloTracker, SloVerdict, SpanCategory};
use aeris_tensor::Tensor;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How an admitted request ends. [`EngineShared::resolve`] is total over
/// it: a new way to end is one variant here, one counter on [`Lane`] and one
/// field of `TenantCounts`.
#[derive(Clone, Copy)]
pub(super) enum Outcome {
    /// Every member finished; the latency is judged against the objective.
    Completed,
    /// Shed for deadline reasons (at admission or at dispatch); always a bad
    /// outcome for the objective.
    Shed,
}

impl EngineShared {
    /// The one terminal transition (first call per request wins): set the
    /// ticket's result, stamp the latency, wake the client, count the
    /// outcome once on the lane and once on the tenant ledger, record the
    /// latency series, feed the lane's and the tenant's SLO trackers, and
    /// release the request's outstanding slot.
    pub(super) fn resolve(&self, req: &RequestState, outcome: Outcome) {
        let latency = {
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
            done.latency
        };
        let latency_ms = latency.as_secs_f64() * 1e3;
        let lane = self.lane(req.tier);
        let in_lane = match outcome {
            Outcome::Completed => {
                let series = if req.nowcast.is_some() {
                    lane.nowcasts.fetch_add(1, Ordering::Relaxed);
                    &lane.nowcast_latency_ms
                } else {
                    &lane.latency_ms
                };
                series.record(latency_ms);
                &lane.completed
            }
            Outcome::Shed => &lane.shed,
        };
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
        self.release_outstanding();
    }

    /// Deliver a finished member; the last one completes the request.
    pub(super) fn finish_member(&self, task: MemberTask) {
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
            self.resolve(&req, Outcome::Completed);
        }
    }
}

impl TierModel {
    /// Advance `task` by one step on its own RNG, in `ws`. Forecast tasks
    /// take the model's plain step; nowcast tasks take the tier's
    /// assimilation step — sampler guidance on the quality tier, and on the
    /// fast tier (where the student has no solver iterations to guide) one
    /// post-hoc bounded relaxation toward the observations.
    fn step(&self, ws: &mut Workspace, task: &mut MemberTask, forcings: &Tensor) -> Tensor {
        let (x, rng) = (&task.x, &mut task.rng);
        match (self, &task.req.nowcast) {
            (TierModel::Quality(fc), None) => fc.forecast_step_guided(ws, x, forcings, rng, &mut NoGuidance),
            (TierModel::Quality(fc), Some(n)) => {
                nowcast_step(fc, ws, x, forcings, &n.obs, n.schedule, rng)
            }
            (TierModel::Fast(student), None) => student.forecast_step_in(ws, x, forcings, rng),
            (TierModel::Fast(student), Some(n)) => {
                nowcast_step_fast(student, ws, x, forcings, &n.obs, n.schedule, rng)
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
    /// *step* what is left (one workspace per batch slot, kept across
    /// batches), and *retire* the results — until the queue closes and runs
    /// dry.
    pub(super) fn run(&self, shared: &EngineShared, actor: usize) {
        let Some(model) = &self.model else { return };
        let mut workspaces: Vec<Workspace> = Vec::new();
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
            let mut live = self.cull(shared, batch);
            if live.is_empty() {
                continue;
            }
            let outs = self.step(shared, model, &mut live, &mut workspaces, actor);
            self.retire(shared, live, outs);
        }
    }

    /// Phase 1 — cull: drop tasks of already-resolved requests, expire
    /// deadlines, and — once the tier's service-time estimate is warm — shed
    /// *doomed* requests whose remaining chain is projected past the
    /// deadline: better to fail them now than to burn model evaluations on
    /// work that cannot arrive in time.
    fn cull(&self, shared: &EngineShared, batch: Vec<MemberTask>) -> Vec<MemberTask> {
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
                shared.resolve(&task.req, Outcome::Shed);
            } else {
                live.push(task);
            }
        }
        live
    }

    /// Phase 2 — step: one batched model evaluation for the whole
    /// (shape-compatible) batch; every task advances on its own private RNG
    /// and workspace. Returns each task's next state, in batch order.
    fn step(
        &self,
        shared: &EngineShared,
        model: &TierModel,
        live: &mut [MemberTask],
        workspaces: &mut Vec<Workspace>,
        actor: usize,
    ) -> Vec<Tensor> {
        shared.metrics.batch_size.record(live.len() as f64);
        let tokens = shared.forecaster.model.cfg.tokens();
        let forcings: Vec<Tensor> =
            live.iter().map(|t| t.req.forcings.at(tokens, t.next_step)).collect();
        let t0 = Instant::now();
        let outs = {
            let fwd = shared.tracer.span(SpanCategory::Forward, actor).label(model.span_label());
            let _fwd = fwd.micro(live.len() as u64);
            let mut jobs: Vec<(&mut MemberTask, &Tensor)> =
                live.iter_mut().zip(&forcings).collect();
            step_batch(&mut jobs, workspaces, |(task, f), ws| model.step(ws, task, f))
        };
        // Feed the router's and the doom check's service model with the
        // amortized (batching included) cost of one member-step as served.
        shared.estimator.observe(self.tier, t0.elapsed().as_secs_f64() / live.len() as f64);
        outs
    }

    /// Phase 3 — retire: cache each new state with its RNG snapshot, then
    /// finish the member or requeue it for its next step.
    fn retire(&self, shared: &EngineShared, live: Vec<MemberTask>, out: Vec<Tensor>) {
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
                shared.finish_member(task);
            } else {
                let (task, meta) = shared.with_meta(task);
                self.queue.push(task, meta);
            }
        }
    }
}
