//! The typed request/response surface of the serving engine.
//!
//! A [`ForecastRequest`] names everything that determines an ensemble
//! forecast — initial state, forcings, horizon, member count, seed — plus an
//! optional latency deadline. Results come back as a [`ForecastResponse`];
//! every failure mode is a typed [`ServeError`] (mirroring the
//! `CommError` taxonomy of the SWiPe runtime: no panics, no hangs).

use aeris_assim::{GuidanceSchedule, ObservationSet};
use aeris_core::EnsembleForecast;
use aeris_obs::SloConfig;
use aeris_sched::{QuotaConfig, RouterConfig, Tier};
use aeris_tensor::{fnv_u64, Tensor, FNV_INIT};
use std::sync::Arc;
use std::time::Duration;

/// How a request specifies the forcing tensor for each rollout step.
#[derive(Clone)]
pub enum Forcings {
    /// Zero forcings (`[tokens, channels]` of zeros at every step) — the
    /// idiom the repo's tests use for untrained/toy models.
    Zeros { channels: usize },
    /// An explicit per-step table: `table[k]` is the forcing tensor valid at
    /// the *input* of step `k`. Must cover at least `steps` entries. The
    /// table is shared (`Arc`) so many requests over the same forecast cycle
    /// don't duplicate it.
    Table(Arc<Vec<Tensor>>),
}

impl Forcings {
    /// The forcing tensor at the input of step `k`.
    pub fn at(&self, tokens: usize, k: usize) -> Tensor {
        match self {
            Forcings::Zeros { channels } => Tensor::zeros(&[tokens, *channels]),
            Forcings::Table(t) => t[k].clone(),
        }
    }

    /// Number of forcing channels this spec produces.
    pub fn channels(&self) -> Option<usize> {
        match self {
            Forcings::Zeros { channels } => Some(*channels),
            Forcings::Table(t) => t.first().map(|f| f.shape()[1]),
        }
    }

    /// Whether the spec covers a rollout of `steps` steps.
    pub fn covers(&self, steps: usize) -> bool {
        match self {
            Forcings::Zeros { .. } => true,
            Forcings::Table(t) => t.len() >= steps,
        }
    }

    /// Content key for the rollout cache: equal keys ⇒ identical forcing
    /// streams. Zeros and tables hash their full content, so two requests
    /// with the same numbers share cache entries even when built separately.
    pub fn content_key(&self) -> u64 {
        match self {
            Forcings::Zeros { channels } => fnv_pair(0x5A5A_0001, *channels as u64),
            Forcings::Table(t) => {
                let mut h = FNV_INIT;
                fnv_u64(&mut h, 0x5A5A_0002);
                for f in t.iter() {
                    fnv_u64(&mut h, crate::cache::content_hash(f));
                }
                h
            }
        }
    }
}

/// A forecast request: one client asking for an ensemble rollout.
#[derive(Clone)]
pub struct ForecastRequest {
    /// Initial physical state, `[tokens, channels]`.
    pub init: Tensor,
    /// Forcing stream for the rollout.
    pub forcings: Forcings,
    /// Rollout horizon in forecast steps (must be ≥ 1).
    pub steps: usize,
    /// Ensemble members (must be ≥ 1). Member `m` uses the deterministic
    /// seed stream `seed ⊕ m`, exactly like [`Forecaster::ensemble`].
    ///
    /// [`Forecaster::ensemble`]: aeris_core::Forecaster::ensemble
    pub n_members: usize,
    /// Base seed for the ensemble's noise streams.
    pub seed: u64,
    /// Optional latency budget measured from submission. A request whose
    /// budget is already spent at submission — or leaves less headroom than
    /// the micro-batcher's gather window (`ServeConfig::max_wait`) — is shed
    /// at admission with [`ServeError::DeadlineExceeded`] instead of queuing
    /// doomed work; one that expires while queued is shed at dequeue. Both
    /// kinds count toward `ServeReport::shed`. Requests answered entirely
    /// from cache never expire (they cost no model evaluations).
    pub deadline: Option<Duration>,
    /// Tenant this request bills to (quota bucket + fair-queueing weight).
    /// `None` uses the shared `"public"` tenant.
    pub tenant: Option<Arc<str>>,
    /// Explicit serving tier. `None` lets the router choose: quality unless
    /// the deadline slack is too small for the full sampler (measured
    /// service time), in which case the distilled fast tier. Explicitly
    /// requesting [`Tier::Fast`] on an engine without a student is a
    /// [`ServeError::BadRequest`].
    pub tier: Option<Tier>,
}

/// A nowcast (assimilation) request: one client asking for an analysis
/// ensemble — a single guided forecast step from a background state toward
/// an observation set (`aeris_assim::nowcast_ensemble` as a service).
///
/// Served through the same micro-batcher and worker pool as forecasts, so
/// nowcast member-steps batch freely with forecast member-steps. The
/// response reuses [`ForecastResponse`] with a 1-step horizon:
/// `forecast.members[m][0]` is member `m`'s analysis state, bitwise
/// identical to a direct `nowcast_member` call with the same inputs. The
/// rollout cache keys nowcasts on the observation digest and guidance
/// schedule, so replaying the same request is answered from cache.
#[derive(Clone)]
pub struct NowcastRequest {
    /// Background physical state `x_b`, `[tokens, channels]`.
    pub background: Tensor,
    /// Forcings valid at the analysis step.
    pub forcings: Forcings,
    /// The observations to assimilate (shared: many members, one set).
    pub observations: Arc<ObservationSet>,
    /// Per-solver-step guidance weights. [`GuidanceSchedule::off`] makes the
    /// nowcast a plain 1-step forecast (and lets it share cache entries with
    /// one).
    pub schedule: GuidanceSchedule,
    /// Analysis ensemble members (must be ≥ 1); member `m` uses the seed
    /// stream `seed ⊕ (m+1)` like forecasts.
    pub n_members: usize,
    /// Base seed for the ensemble's noise streams.
    pub seed: u64,
    /// Optional latency budget (same shedding semantics as
    /// [`ForecastRequest::deadline`]).
    pub deadline: Option<Duration>,
    /// Tenant this request bills to (see [`ForecastRequest::tenant`]).
    pub tenant: Option<Arc<str>>,
    /// Explicit serving tier (see [`ForecastRequest::tier`]). A fast-tier
    /// nowcast replaces in-sampler guidance with one post-hoc bounded
    /// relaxation toward the observations
    /// (`aeris_assim::nowcast_member_fast`).
    pub tier: Option<Tier>,
}

/// The served ensemble plus per-request accounting.
pub struct ForecastResponse {
    /// Engine-assigned request id (also tagged on the engine's event log).
    pub id: u64,
    /// The forecast: `members[m][k]` is member `m` after `k+1` steps,
    /// bitwise identical to a direct [`Forecaster::ensemble`] call with the
    /// same inputs.
    ///
    /// [`Forecaster::ensemble`]: aeris_core::Forecaster::ensemble
    pub forecast: EnsembleForecast,
    /// Member-steps reused from the rollout cache.
    pub cache_hits: usize,
    /// Member-steps actually evaluated by the model for this request.
    pub computed_steps: usize,
    /// Submission-to-completion latency.
    pub latency: Duration,
    /// Result provenance: which serving tier produced this response. A
    /// [`Tier::Quality`] response is bitwise identical to a direct ensemble
    /// call; a [`Tier::Fast`] one came from the distilled one-step student
    /// (bitwise reproducible, but a different — cheaper — distribution; the
    /// distillation-gap sweep of `aeris-evaluation`'s tests quantifies it).
    pub tier: Tier,
}

/// Typed serving failure. Every submitted request either completes or
/// resolves to exactly one of these — the engine never loses a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the request: the engine already holds its
    /// configured maximum of outstanding requests.
    QueueFull { capacity: usize },
    /// The request was dequeued after its latency deadline; its remaining
    /// work was shed.
    DeadlineExceeded { req: u64 },
    /// The engine is draining or stopped and no longer accepts requests.
    Shutdown,
    /// A bounded [`Ticket::wait_for`] ran out of patience. The request is
    /// NOT resolved — it keeps running, and the ticket can be waited again.
    ///
    /// [`Ticket::wait_for`]: crate::engine::Ticket::wait_for
    WaitTimeout { req: u64 },
    /// Admission control refused the request: the tenant's token bucket has
    /// too few tokens for the request's work (member-steps).
    QuotaExceeded { tenant: String },
    /// The request is malformed for the engine's model (shape mismatch,
    /// non-finite state or observation, zero members/steps, forcing table
    /// too short, …).
    BadRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "queue full: {capacity} requests already outstanding")
            }
            ServeError::DeadlineExceeded { req } => {
                write!(f, "request {req}: deadline exceeded, work shed")
            }
            ServeError::Shutdown => write!(f, "engine is shut down"),
            ServeError::WaitTimeout { req } => {
                write!(f, "request {req}: wait timed out (request still in flight)")
            }
            ServeError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant}: quota exceeded, request refused")
            }
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Engine sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads evaluating batched quality-tier forecast steps.
    pub workers: usize,
    /// Worker threads on the fast (distilled) tier. Only used by engines
    /// started with a student; ignored otherwise.
    pub fast_workers: usize,
    /// Admission-control bound on outstanding (admitted, unfinished)
    /// requests; submissions beyond it fail fast with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Micro-batcher: largest number of member-steps fused into one batched
    /// model evaluation.
    pub max_batch: usize,
    /// Micro-batcher: how long a worker holding a non-full batch waits for
    /// more compatible work before running what it has.
    pub max_wait: Duration,
    /// Rollout-cache byte budget (0 disables caching).
    pub cache_bytes: usize,
    /// Tier-routing policy (deadline-slack floor + safety factor).
    pub router: RouterConfig,
    /// Per-tenant admission quotas and fair-queueing weights. `None`
    /// disables quotas (every tenant unlimited, weight 1).
    pub quota: Option<QuotaConfig>,
    /// Serving objective. When set, the engine tracks per-tier and
    /// per-tenant burn rates (every completion within
    /// `SloConfig::latency_ms` is *good*, every shed is *bad*), surfaces
    /// live [`SloState`](aeris_obs::SloState) in
    /// [`ServeEngine::status`](crate::engine::ServeEngine::status) and the
    /// final report, and lets dispatch-time doom shedding grow more
    /// conservative as the error budget burns (a time-only policy: *which*
    /// requests survive may change, their numbers never do). `None`
    /// disables SLO tracking entirely.
    pub slo: Option<SloConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            fast_workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            cache_bytes: 64 << 20,
            router: RouterConfig::default(),
            quota: None,
            slo: None,
        }
    }
}

/// FNV-1a over two words (how the engine folds a cache key's aux word).
pub(crate) fn fnv_pair(a: u64, b: u64) -> u64 {
    let mut h = FNV_INIT;
    fnv_u64(&mut h, a);
    fnv_u64(&mut h, b);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forcings_cover_and_key() {
        let z = Forcings::Zeros { channels: 3 };
        assert!(z.covers(1000));
        assert_eq!(z.at(4, 0).shape(), &[4, 3]);
        let t = Forcings::Table(Arc::new(vec![Tensor::ones(&[4, 3]); 2]));
        assert!(t.covers(2) && !t.covers(3));
        // Content-addressed: same numbers, same key; different numbers differ.
        let t2 = Forcings::Table(Arc::new(vec![Tensor::ones(&[4, 3]); 2]));
        assert_eq!(t.content_key(), t2.content_key());
        assert_ne!(t.content_key(), z.content_key());
        let t3 = Forcings::Table(Arc::new(vec![Tensor::zeros(&[4, 3]); 2]));
        assert_ne!(t.content_key(), t3.content_key());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ServeError::QueueFull { capacity: 4 };
        assert!(e.to_string().contains("4"));
        assert!(ServeError::DeadlineExceeded { req: 9 }.to_string().contains("9"));
        assert!(ServeError::WaitTimeout { req: 7 }.to_string().contains("7"));
        assert!(ServeError::QuotaExceeded { tenant: "acme".into() }.to_string().contains("acme"));
        assert!(ServeError::BadRequest("x".into()).to_string().contains("x"));
    }
}
