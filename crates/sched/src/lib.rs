//! # aeris-sched — deadline-aware two-tier scheduling
//!
//! The scheduling subsystem the serving engine delegates admission and
//! dispatch to. It is deliberately model-agnostic: every primitive here is
//! generic over the task type (the serve engine instantiates them with its
//! member-step tasks), so the policies can be unit-tested with plain
//! integers and reused by future engines.
//!
//! The pieces, composed by `aeris-serve`:
//!
//! - [`Tier`] / [`TierRouter`]: classify each request into a **fast** tier
//!   (one-step distilled model) or a **quality** tier (full multi-step
//!   sampler), either explicitly or inferred from deadline slack against the
//!   measured quality-tier service time.
//! - [`ServiceEstimator`]: per-tier exponentially-weighted service-time
//!   estimates (seconds per member-step), fed by the workers after every
//!   batch, consumed by the router and by dispatch-time shedding.
//! - [`DispatchQueue`]: the pending-work pool. Dispatch order is
//!   **earliest-deadline-first** for deadlined tasks, **weighted fair
//!   queueing** (virtual-time tags per tenant) for the rest; batches are
//!   formed by sweeping same-shape tasks in priority order.
//! - [`QuotaTable`]: per-tenant token buckets — admission-time rate limits
//!   so one tenant cannot monopolize the engine — plus the per-tenant WFQ
//!   weights the dispatch queue consumes.
//!
//! Every policy here shapes *latency and ordering only*. Tasks carry their
//! own RNG streams (the engine's discipline), so which worker, batch, or
//! dispatch order a task sees can never change its numbers — the
//! bitwise-determinism contract of the serve engine survives scheduling.

#![forbid(unsafe_code)]

pub mod dispatch;
pub mod estimator;
pub mod tenant;
pub mod tier;

pub use dispatch::{DispatchQueue, QueueMetrics, TaskMeta};
pub use estimator::ServiceEstimator;
pub use tenant::{QuotaConfig, QuotaDecision, QuotaTable, TenantPolicy};
pub use tier::{RouterConfig, Tier, TierRouter};
