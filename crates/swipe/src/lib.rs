//! SWiPe: Sequence-Window-Pipeline parallelism (§V-A of the paper),
//! reproduced as a thread-rank distributed runtime.
//!
//! Ranks are OS threads, parked between calls; collectives run over one
//! mailbox per receiving rank (a send wakes only its receiver) with
//! byte-accurate traffic accounting, so the paper's communication claims (message size `M = b·s·h/SP/WP`,
//! unchanged gradient-allreduce volume, 1/WP activation memory) are
//! *measured*, not asserted. Ranks take their data rows from the caller's
//! in-memory samples ([`data`]); the paper's per-node HDF5 reads are not
//! reproduced.
//!
//! Components:
//! - [`comm`]: world/communicator with send/recv, all-to-all, allreduce,
//!   allgather, broadcast, barrier — all with per-class byte counters,
//! - [`topology`]: the WP(A×B) × SP × PP × DP rank grid and its groups,
//! - [`layout`]: activation layouts (round-robin window ownership + Ulysses
//!   token shards) and the relayout routing between pipeline stages,
//! - [`schedule`]: the 1F1B pipeline schedule,
//! - [`stage`]: per-stage model shards (embedding / Swin block / head) with
//!   segmented forward-backward across communication boundaries,
//! - [`trainer`]: the end-to-end distributed training step (shared-seed
//!   diffusion times, ZeRO-1 sharded optimizer, gradient reduction over
//!   DP×WP×SP), validated for equivalence against single-rank training,
//! - [`fault`] / [`events`]: deterministic fault injection (delays, drops,
//!   crashes) and the structured fault log; together with comm-level
//!   timeouts/retry and trainer-level checkpoint-restart + DP-degradation
//!   they make the runtime survive or cleanly report injected failures.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod comm;
pub mod data;
pub mod events;
pub mod fault;
pub mod layout;
mod parked;
mod rank;
pub mod recovery;
pub mod schedule;
pub mod stage;
pub mod topology;
pub mod trainer;

pub use comm::{CommClass, CommConfig, CommError, Communicator, TrafficReport, World};
pub use events::{EventLog, EventRecord, FaultEvent};
pub use fault::{FaultPlan, MessageFault};
pub use layout::ActLayout;
pub use recovery::{supervise, RecoveryConfig, RecoveryError, RecoveryOutcome};
pub use schedule::{one_f_one_b, Action, ScheduleError};
pub use stage::StageError;
pub use topology::{RankCoords, SwipeTopology};
pub use trainer::{
    CheckpointConfig, CheckpointError, DistributedTrainer, SwipeConfig, SwipeError, TrainFailure,
    TrainReport,
};
