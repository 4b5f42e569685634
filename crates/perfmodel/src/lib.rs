//! Analytical performance model for AERIS training at supercomputer scale.
//!
//! The paper measures ExaFLOPS on Aurora with an analytical FLOPs model plus
//! end-to-end timers (§VI-D). Reproducing the *measurements* requires the
//! machine; this crate reproduces the *model*: hardware constants from
//! Table I, the Table II model configurations with a first-principles
//! parameter/FLOPs count, a communication and pipeline-bubble cost model, and
//! the throughput/efficiency sweeps behind Table III and Figure 4.
//!
//! The model is calibrated once (three kernel-efficiency constants, see
//! [`throughput::EffModel`]) and then asked to reproduce every published
//! number; `EXPERIMENTS.md` records model-vs-paper for each.

#![forbid(unsafe_code)]

pub mod configs;
pub mod flops;
pub mod machine;
pub mod scaling;
pub mod throughput;

pub use configs::{AerisPerfConfig, PAPER_CONFIGS};
pub use flops::{params_count, train_flops_per_sample};
pub use machine::{MachineSpec, AURORA, LUMI};
pub use scaling::{strong_scaling_gas, strong_scaling_wp, weak_scaling};
pub use throughput::{predict, EffModel, Prediction};
