//! The crash-recovery supervisor: bounded restart attempts around
//! [`DistributedTrainer::train`].
//!
//! A SWiPe run can die in two recoverable ways — a hard communication
//! failure (mid-step crash, timeout) or the loss of every data-parallel
//! replica. The supervisor turns either into a resumable incident:
//!
//! 1. classify the failure ([`SwipeError::Comm`] / `AllReplicasLost` are
//!    recoverable; stage, schedule, and checkpoint-validation errors are
//!    configuration bugs and surface as [`RecoveryError::Unrecoverable`]);
//! 2. select the latest coordinated checkpoint in the configured directory
//!    (none yet → restart from scratch) and point `resume_from` at it;
//! 3. strip the faults that already fired from the plan
//!    ([`FaultPlan::without_fired`]) — a resumed run replays the same step
//!    numbers, and an already-executed crash must not re-fire;
//! 4. relaunch, up to [`RecoveryConfig::max_restarts`] times.
//!
//! Because checkpoint restore is world-size independent along the
//! data-parallel axis, step 2 works even when the relaunch uses a different
//! DP width than the world that wrote the checkpoint.
//!
//! Every attempt is traced as a [`SpanCategory::Recovery`] span and the
//! concatenated event log (each failed attempt's events, a
//! [`FaultEvent::RunResumed`] marker per restart, then the final attempt's
//! events) is returned in [`RecoveryOutcome::events`], so the full
//! retire → restore → rejoin sequence of an incident is replayable.
//!
//! [`FaultPlan::without_fired`]: crate::fault::FaultPlan::without_fired

use crate::data::InMemorySource;
use crate::events::{EventRecord, FaultEvent};
use crate::trainer::{
    checkpoint_step, CheckpointConfig, DistributedTrainer, SwipeConfig, SwipeError, TrainFailure,
    TrainReport,
};
use aeris_core::AerisModel;
use aeris_nn::checkpoint::latest_checkpoint;
use aeris_obs::SpanCategory;
use aeris_tensor::Tensor;

/// Actor id the supervisor stamps onto its own events and spans (it runs
/// outside any rank thread).
pub const SUPERVISOR_ACTOR: usize = usize::MAX;

/// Supervisor policy.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Restart attempts allowed before giving up (0 = fail on first crash).
    pub max_restarts: usize,
    /// Coordinated checkpointing installed into every attempt; the
    /// supervisor restores from the latest `step_*.ckpt` in this directory.
    /// Overrides whatever `SwipeConfig::checkpoint` the caller set.
    pub checkpoint: CheckpointConfig,
}

/// Why supervised training gave up.
#[derive(Debug)]
pub enum RecoveryError {
    /// The failure is not a crash: restarting cannot fix a stage, schedule,
    /// or checkpoint-validation error.
    Unrecoverable { failure: TrainFailure },
    /// Every allowed restart was consumed; `last` is the final failure.
    RestartsExhausted { attempts: usize, last: TrainFailure },
    /// The checkpoint directory could not be scanned or the selected
    /// checkpoint's metadata could not be read.
    Io(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Unrecoverable { failure } => {
                write!(f, "unrecoverable failure: {failure}")
            }
            RecoveryError::RestartsExhausted { attempts, last } => {
                write!(f, "restart budget exhausted after {attempts} restarts: {last}")
            }
            RecoveryError::Io(msg) => write!(f, "checkpoint selection failure: {msg}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What supervised training reports back.
pub struct RecoveryOutcome {
    /// The successful attempt's report.
    pub report: TrainReport,
    /// Restart attempts consumed (0 = the first launch succeeded).
    pub restarts: usize,
    /// Steps of work re-executed across all failed attempts: per failure,
    /// the furthest step the attempt is known (from its events) to have
    /// reached, minus the step the next attempt resumed from. A lower bound
    /// when the attempt died without logging its last step.
    pub steps_lost: usize,
    /// Every attempt's fault log, in order, with a
    /// [`FaultEvent::RunResumed`] marker at each restart.
    pub events: Vec<EventRecord>,
}

/// Run training under the supervisor, restarting from the latest coordinated
/// checkpoint after each recoverable failure. Arguments mirror
/// [`DistributedTrainer::train`]; `rcfg.checkpoint` replaces
/// `cfg.checkpoint` so every attempt leaves restore points behind.
///
/// Determinism: a successful supervised run's losses and final parameters
/// are bitwise identical to the uninterrupted run from the last resume step
/// on (checkpoint restore is exact, and noise/diffusion times are stateless
/// functions of `(seed, step)`).
pub fn supervise(
    reference: &AerisModel,
    cfg: &SwipeConfig,
    source: &InMemorySource,
    schedule: &[Vec<Vec<usize>>],
    weights: &Tensor,
    rcfg: &RecoveryConfig,
) -> Result<RecoveryOutcome, RecoveryError> {
    let mut attempt_cfg = cfg.clone();
    attempt_cfg.checkpoint = Some(rcfg.checkpoint.clone());
    let mut restarts = 0usize;
    let mut steps_lost = 0usize;
    let mut events: Vec<EventRecord> = Vec::new();
    loop {
        let result = {
            let _attempt = cfg
                .tracer
                .span(SpanCategory::Recovery, SUPERVISOR_ACTOR)
                .label("attempt")
                .step(restarts as u64);
            DistributedTrainer::train(reference, &attempt_cfg, source, schedule, weights)
        };
        match result {
            Ok(report) => {
                events.extend(report.events.iter().cloned());
                return Ok(RecoveryOutcome { report, restarts, steps_lost, events });
            }
            Err(failure) => {
                if !recoverable(&failure.error) {
                    return Err(RecoveryError::Unrecoverable { failure });
                }
                if restarts >= rcfg.max_restarts {
                    return Err(RecoveryError::RestartsExhausted { attempts: restarts, last: failure });
                }
                restarts += 1;
                let ckpt = latest_checkpoint(&rcfg.checkpoint.dir)
                    .map_err(|e| RecoveryError::Io(e.to_string()))?;
                let resume_step = match &ckpt {
                    Some(path) => {
                        checkpoint_step(path).map_err(|e| RecoveryError::Io(e.to_string()))?
                    }
                    None => 0,
                };
                let lost = reached_step(&failure).saturating_sub(resume_step);
                steps_lost += lost;
                // Ungated counters: incident telemetry must reach the
                // registry (and the status dashboard) even when span
                // tracing is off in production.
                cfg.tracer.incr_always("swipe_restarts", 1);
                cfg.tracer.incr_always("swipe_steps_lost", lost as u64);
                // The resumed run replays the same step numbers: crashes that
                // already fired must not fire again.
                attempt_cfg.faults =
                    attempt_cfg.faults.as_ref().map(|p| p.without_fired(&failure.events));
                attempt_cfg.resume_from = ckpt;
                events.extend(failure.events);
                events.push(EventRecord {
                    rank: SUPERVISOR_ACTOR,
                    event: FaultEvent::RunResumed { attempt: restarts, from_step: resume_step },
                });
            }
        }
    }
}

/// Whether restarting can ride out this failure.
fn recoverable(e: &SwipeError) -> bool {
    matches!(e, SwipeError::Comm(_) | SwipeError::AllReplicasLost { .. })
}

/// The furthest step a failed attempt is known to have reached, from its
/// typed error and event log.
fn reached_step(failure: &TrainFailure) -> usize {
    let mut reached = match failure.error {
        SwipeError::AllReplicasLost { step } => step,
        _ => 0,
    };
    for rec in &failure.events {
        let s = match &rec.event {
            FaultEvent::RankCrashed { step, .. } => *step,
            FaultEvent::ReplicaRetired { step, .. } => *step,
            FaultEvent::GroupRescaled { step, .. } => *step,
            FaultEvent::RankRejoined { step, .. } => *step,
            FaultEvent::ReplicaRejoined { step, .. } => *step,
            FaultEvent::CheckpointSaved { next_step, .. } => *next_step,
            _ => 0,
        };
        reached = reached.max(s);
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::topology::SwipeTopology;
    use aeris_core::{AerisConfig, TrainSample};
    use aeris_tensor::Rng;
    use std::path::PathBuf;

    /// A tiny model over two replicas of a four-stage pipeline (8 ranks),
    /// four samples scheduled one per replica and step for four steps, and
    /// the loss weights.
    fn two_replica_run() -> (AerisModel, InMemorySource, Vec<Vec<Vec<usize>>>, Tensor) {
        let reference = AerisModel::new(AerisConfig::test_tiny());
        let cfg = &reference.cfg;
        let mut rng = Rng::seed_from(5);
        let samples = (0..4)
            .map(|_| TrainSample {
                x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
                residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
                forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
            })
            .collect();
        let schedule = (0..4).map(|step| vec![vec![(2 * step) % 4], vec![(2 * step + 1) % 4]]).collect();
        let grid = aeris_earthsim::Grid::new(cfg.grid_h, cfg.grid_w);
        let weights = aeris_diffusion::loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
        (reference, InMemorySource { samples }, schedule, weights)
    }

    fn config(n_steps: usize) -> SwipeConfig {
        SwipeConfig { n_steps, ..SwipeConfig::new(SwipeTopology::new(2, 4, 1, 1, 1)) }
    }

    /// An empty directory of its own for a test.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aeris_recovery_unit_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn file_names(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("a checkpoint directory")
            .map(|e| e.expect("a directory entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Every save is written under a `.tmp` name and renamed once synced:
    /// a finished run leaves its checkpoints under their final names only.
    #[test]
    fn a_checkpointed_run_leaves_no_temporary_file() {
        let (reference, source, schedule, weights) = two_replica_run();
        let dir = scratch_dir("no_tmp");
        let cfg = SwipeConfig {
            checkpoint: Some(CheckpointConfig { dir: dir.clone(), every: 1 }),
            ..config(2)
        };
        DistributedTrainer::train(&reference, &cfg, &source, &schedule[..2], &weights).expect("a fault-free run");
        assert_eq!(file_names(&dir), ["step_000001.ckpt", "step_000002.ckpt"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A save killed mid-write leaves a `step_*.ckpt.tmp`, here garbage at a
    /// later step than any good checkpoint. The supervisor still resumes
    /// from the last good one (step 2) and matches the uninterrupted run
    /// bitwise from there.
    #[test]
    fn a_torn_temporary_file_does_not_change_the_resume() {
        let (reference, source, schedule, weights) = two_replica_run();
        let clean = DistributedTrainer::train(&reference, &config(4), &source, &schedule, &weights)
            .expect("a fault-free run");
        let dir = scratch_dir("torn_tmp");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("step_000009.ckpt.tmp"), b"torn").unwrap();
        // Both replicas die at step 3; `every: 2` last saved step 2.
        let faulty = SwipeConfig { faults: Some(FaultPlan::new().crash_rank(1, 3).crash_rank(5, 3)), ..config(4) };
        let rcfg = RecoveryConfig { max_restarts: 1, checkpoint: CheckpointConfig { dir: dir.clone(), every: 2 } };
        let outcome = supervise(&reference, &faulty, &source, &schedule, &weights, &rcfg)
            .expect("a resume past the torn file");
        assert_eq!(outcome.restarts, 1);
        assert_eq!(outcome.report.start_step, 2);
        for step in 2..4 {
            assert_eq!(outcome.report.losses[step].to_bits(), clean.losses[step].to_bits(), "step {step}");
        }
        for (name, value) in &clean.final_params {
            assert_eq!(value.data(), outcome.report.final_params[name].data(), "{name}");
        }
        assert_eq!(file_names(&dir), ["step_000002.ckpt", "step_000004.ckpt", "step_000009.ckpt.tmp"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
