//! # aeris-serve — batched, multi-tenant, two-tier forecast serving
//!
//! Production inference for AERIS forecasts, built in the same
//! rank-as-thread idiom as the `aeris-swipe` training runtime. The serve
//! engine delegates admission and dispatch to the `aeris-sched` subsystem:
//!
//! - **Two tiers.** A *quality* tier runs the full diffusion sampler
//!   ([`Forecaster`]); an optional *fast* tier runs the distilled one-step
//!   [`ConsistencyStudent`] (AERIS §VII-C) at a fraction of the NFE cost.
//!   Requests pick a tier explicitly or are routed by deadline slack
//!   against the measured per-tier service time; the response carries the
//!   tier that produced it.
//! - **Deadline-aware dispatch.** Per-tier `DispatchQueue`s schedule
//!   member-step tasks earliest-deadline-first, with weighted fair queueing
//!   across tenants for undeadlined work, and shed requests that can no
//!   longer meet their deadline instead of burning model evaluations.
//! - **Tenants.** Optional per-tenant token-bucket quotas gate admission;
//!   tenant weights bias the fair queue; the final report breaks counters
//!   out per tenant and per tier. Each outcome is counted once, on its
//!   tier's and its tenant's ledger; the report's totals are their sums.
//! - **Workers and caching.** Each tier's workers share the tier's one
//!   immutable model, and all of them share one content-addressed LRU
//!   rollout cache (fast- and quality-tier entries live in disjoint
//!   namespaces).
//!
//! ```no_run
//! use aeris_serve::{ForecastRequest, Forcings, ServeConfig, ServeEngine, Tier};
//! use std::sync::Arc;
//! use std::time::Duration;
//! # fn demo(
//! #     forecaster: Arc<aeris_core::Forecaster>,
//! #     student: Arc<aeris_core::ConsistencyStudent>,
//! #     init: aeris_tensor::Tensor,
//! # ) {
//! let engine = ServeEngine::start_two_tier(forecaster, student, ServeConfig::default());
//! let ticket = engine
//!     .submit(ForecastRequest {
//!         init,
//!         forcings: Forcings::Zeros { channels: 3 },
//!         steps: 10,
//!         n_members: 4,
//!         seed: 42,
//!         deadline: Some(Duration::from_millis(150)), // tight ⇒ routed fast
//!         tenant: Some(Arc::from("nowcast-desk")),
//!         tier: None, // let the router decide; Some(Tier::Fast) forces it
//!     })
//!     .expect("admitted");
//! let response = ticket.wait().expect("served");
//! println!("tier {:?}, {} steps computed", response.tier, response.computed_steps);
//! let report = engine.shutdown();
//! println!(
//!     "fast tier served {} requests, quality {}",
//!     report.tier(Tier::Fast).completed,
//!     report.tier(Tier::Quality).completed,
//! );
//! # }
//! ```
//!
//! Served forecasts are **bitwise identical** to a direct
//! [`Forecaster::ensemble`] (quality tier) or `ConsistencyStudent::ensemble`
//! (fast tier) call with the same inputs, regardless of worker count,
//! batch composition, scheduling order, or cache hits — see
//! the module docs of [`engine`] for the determinism argument.
//!
//! [`Forecaster`]: aeris_core::Forecaster
//! [`ConsistencyStudent`]: aeris_core::ConsistencyStudent
//! [`Forecaster::ensemble`]: aeris_core::Forecaster::ensemble

#![forbid(unsafe_code)]

pub mod api;
pub mod cache;
pub mod engine;
pub mod report;

pub use aeris_obs::{SloConfig, SloState, SloVerdict, StatusReport};
pub use aeris_sched::{QuotaConfig, RouterConfig, TenantPolicy, Tier};
pub use api::{
    ForecastRequest, ForecastResponse, Forcings, NowcastRequest, ServeConfig, ServeError,
};
pub use cache::{content_hash, CacheEntry, CacheKey, CacheStats, RolloutCache};
pub use engine::{ServeEngine, ServeMetrics, Ticket};
pub use report::{ServeReport, ServeSloReport, TenantCounts, TierCounts};
