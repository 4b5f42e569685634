//! Generative data assimilation for AERIS (ROADMAP item 4).
//!
//! The paper (§VII) frames the diffusion forecaster as a generative engine
//! whose sampler can be conditioned at inference time; the exascale
//! generative-assimilation line of work (PAPERS.md) conditions it on sparse,
//! noisy observations instead of a full analysis state. This crate supplies
//! the three layers of that workload:
//!
//! - [`operator`]: typed observation operators — synthetic station networks
//!   and satellite ground tracks over an `earthsim` grid, a sparse forward
//!   map `H(x)` with its adjoint `Hᵀ`, seeded Gaussian observation noise and
//!   missing-data masks, and an [`ObservationSet`] container that round-trips
//!   through the checkpoint byte format.
//! - [`guidance`]: the observation-consistency term injected into the
//!   TrigFlow sampler — weight-scheduled `Hᵀ R⁻¹ (y − H(x̂))` nudging of the
//!   data-prediction estimate at every solver step, implemented against the
//!   `aeris_diffusion::Guidance` hook. A schedule whose weight is zero keeps
//!   the sampler bitwise identical to the unguided solver.
//! - [`nowcast`]: analysis ensembles — guided one-step rollouts from a
//!   background state toward an observation set, with the same member seed
//!   discipline as `Forecaster::ensemble`.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod guidance;
pub mod nowcast;
pub mod operator;

pub use guidance::{GuidanceSchedule, ObsGuidance};
pub use nowcast::{
    nowcast_ensemble, nowcast_member, nowcast_member_fast, nowcast_step, nowcast_step_fast,
    relax_toward_observations, NowcastEnsemble,
};
pub use operator::{ObsOperator, ObsSite, ObservationSet};
