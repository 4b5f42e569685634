//! Chaos tests: the distributed trainer under injected faults.
//!
//! These exercise the full robustness surface end to end — dropped pipeline
//! messages recovered by the retransmit timer, step-boundary crashes survived
//! by DP degradation, mid-step crashes surfaced as typed errors within the
//! deadline (never a deadlock), and checkpoint-restart reproducing the
//! uninterrupted run bitwise after a kill.

use aeris_core::{AerisConfig, AerisModel, TrainSample};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_nn::checkpoint::{load_entries, save_entries};
use aeris_swipe::{
    CheckpointConfig, CheckpointError, CommConfig, CommError, DistributedTrainer, FaultEvent,
    FaultPlan, StageError, SwipeConfig, SwipeError, SwipeTopology, World,
};
use aeris_tensor::{Rng, Tensor};
use std::time::{Duration, Instant};

fn tiny_cfg() -> AerisConfig {
    AerisConfig {
        grid_h: 8,
        grid_w: 16,
        channels: 4,
        forcing_channels: 3,
        dim: 16,
        n_heads: 2,
        ffn: 32,
        n_layers: 2,
        blocks_per_layer: 1,
        window: (4, 4),
        time_feat_dim: 16,
        cond_dim: 24,
        seed: 11,
        pos_amp: 0.1,
    }
}

fn random_samples(n: usize, tokens: usize, channels: usize) -> Vec<TrainSample> {
    let mut rng = Rng::seed_from(77);
    (0..n)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[tokens, channels], &mut rng),
            residual: Tensor::randn(&[tokens, channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[tokens, 3], &mut rng),
        })
        .collect()
}

fn weights_for(cfg: &AerisConfig) -> Tensor {
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels])
}

fn schedule(n_steps: usize, dp: usize, gas: usize, n_samples: usize) -> Vec<Vec<Vec<usize>>> {
    let mut ix = 0usize;
    (0..n_steps)
        .map(|_| {
            (0..dp)
                .map(|_| {
                    (0..gas)
                        .map(|_| {
                            let s = ix % n_samples;
                            ix += 1;
                            s
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

fn expect_failure(
    result: Result<aeris_swipe::TrainReport, aeris_swipe::TrainFailure>,
    why: &str,
) -> aeris_swipe::TrainFailure {
    match result {
        Err(f) => f,
        Ok(_) => panic!("{why}"),
    }
}

/// A dropped pipeline activation message is recovered by the receiver's
/// retransmit timer and the run's results are bitwise unaffected.
#[test]
fn dropped_pipeline_message_recovered_bitwise() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(1, 4, 1, 1, 1); // linear 4-rank pipeline
    let sched = schedule(1, 1, 1, 4);
    let reference = AerisModel::new(cfg);

    let base = SwipeConfig { topo, ..SwipeConfig::new(topo) };
    let clean = DistributedTrainer::train(&reference, &base, &source, &sched, &weights)
        .expect("fault-free run");

    // The first message on channel 0 -> 1 is the first forward relayout
    // (stage 0 sends before it ever joins a collective); lose it twice.
    let faulty = SwipeConfig {
        faults: Some(FaultPlan::new().drop_message(0, 1, 0, 2)),
        ..SwipeConfig::new(topo)
    };
    let report = DistributedTrainer::train(&reference, &faulty, &source, &sched, &weights)
        .expect("drops must be recovered by retransmit");

    assert_eq!(bits(&report.losses), bits(&clean.losses), "recovery changed the result");
    for (name, v) in &clean.final_params {
        assert_eq!(
            v.data(),
            report.final_params[name].data(),
            "parameter {name} diverged after drop recovery"
        );
    }
    let retransmits = report
        .events
        .iter()
        .filter(|r| matches!(r.event, FaultEvent::RetransmitRequest { .. }))
        .count();
    assert_eq!(retransmits, 2, "expected one retransmit per suppression");
    assert!(report
        .events
        .iter()
        .any(|r| matches!(r.event, FaultEvent::InjectedDrop { src: 0, dst: 1, .. })));
}

/// A message lost more times than the deadline allows retransmits for must
/// surface as a typed timeout, not a deadlock.
#[test]
fn unrecoverable_drop_times_out_with_typed_error() {
    let plan = FaultPlan::new().drop_message(0, 1, 0, u32::MAX);
    let config = CommConfig {
        deadline: Duration::from_millis(200),
        ..CommConfig::default()
    };
    let world = World::with_config(2, config, Some(plan));
    let start = Instant::now();
    std::thread::scope(|s| {
        let mut c0 = world.communicator(0);
        let mut c1 = world.communicator(1);
        s.spawn(move || {
            c0.send(1, aeris_swipe::CommClass::P2p, vec![Tensor::from_slice(&[1.0])]).unwrap();
        });
        s.spawn(move || {
            let err = c1.recv(0).unwrap_err();
            assert_eq!(err, CommError::Timeout { rank: 1, peer: 0, waited_ms: 200 });
        });
    });
    assert!(start.elapsed() < Duration::from_secs(10), "timeout did not bound the wait");
}

/// A planned step-boundary crash degrades gracefully: the dead rank's whole
/// DP replica retires, surviving groups shrink and rescale, and the run
/// completes with the pre-crash trajectory bitwise intact.
#[test]
fn step_boundary_crash_degrades_gracefully() {
    let cfg = tiny_cfg();
    let samples = random_samples(6, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(2, 4, 1, 1, 1); // 8 ranks, 2 replicas
    let sched = schedule(3, 2, 1, 6);
    let reference = AerisModel::new(cfg);

    let base = SwipeConfig { n_steps: 3, ..SwipeConfig::new(topo) };
    let clean = DistributedTrainer::train(&reference, &base, &source, &sched, &weights)
        .expect("fault-free run");

    // Rank 5 = replica dp=1, stage 1. It crashes at the step-1 boundary;
    // replica 1 must retire with it.
    let faulty = SwipeConfig {
        n_steps: 3,
        faults: Some(FaultPlan::new().crash_rank(5, 1)),
        ..SwipeConfig::new(topo)
    };
    let report = DistributedTrainer::train(&reference, &faulty, &source, &sched, &weights)
        .expect("step-boundary crashes must degrade, not fail");

    // Pre-crash step is bitwise identical; post-crash steps still train.
    assert_eq!(report.losses[0].to_bits(), clean.losses[0].to_bits());
    assert!(report.losses[1].is_finite() && report.losses[1] > 0.0);
    assert!(report.losses[2].is_finite() && report.losses[2] > 0.0);
    assert!(!report.final_params.is_empty(), "surviving replica must report final params");

    let ev = |pred: &dyn Fn(&FaultEvent) -> bool| report.events.iter().any(|r| pred(&r.event));
    assert!(ev(&|e| matches!(e, FaultEvent::RankCrashed { rank: 5, step: 1 })));
    assert!(ev(&|e| matches!(e, FaultEvent::ReplicaRetired { dp: 1, step: 1, .. })));
    assert!(ev(&|e| matches!(e, FaultEvent::GroupRescaled { step: 1, live_dp: 1 })));
}

/// A mid-step (hard) crash cannot be degraded around: peers observe the dead
/// rank and the run fails with a typed error well within the deadline —
/// never a hang.
#[test]
fn mid_step_crash_fails_fast_with_typed_error() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(1, 4, 1, 1, 1);
    let sched = schedule(1, 1, 1, 4);
    let reference = AerisModel::new(cfg);

    let deadline = Duration::from_secs(10);
    let swipe_cfg = SwipeConfig {
        comm: CommConfig { deadline, ..CommConfig::default() },
        faults: Some(FaultPlan::new().crash_rank_after_ops(1, 2)),
        ..SwipeConfig::new(topo)
    };
    let start = Instant::now();
    let failure = expect_failure(
        DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights),
        "a mid-step crash must fail the run",
    );
    assert!(
        start.elapsed() < 2 * deadline,
        "failure took {:?}, deadline was {deadline:?}",
        start.elapsed()
    );
    assert!(
        matches!(failure.error, SwipeError::Comm(_)),
        "expected a typed communication error, got {}",
        failure.error
    );
    assert!(failure
        .events
        .iter()
        .any(|r| matches!(r.event, FaultEvent::RankCrashedMidStep { rank: 1, .. })));
}

/// A head count the SP degree does not divide is a typed configuration error
/// from stage construction on every rank — not a panic inside a rank thread
/// that aborts the run and leaves its peers sleeping to the comm deadline.
#[test]
fn sp_not_dividing_heads_is_a_typed_stage_error() {
    let cfg = tiny_cfg(); // 2 heads, 16-token windows
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(1, 4, 1, 1, 4);
    let sched = schedule(1, 1, 1, 4);
    let reference = AerisModel::new(cfg);

    let failure = expect_failure(
        DistributedTrainer::train(&reference, &SwipeConfig::new(topo), &source, &sched, &weights),
        "sp=4 over 2 heads must be rejected",
    );
    assert_eq!(
        failure.error,
        SwipeError::Stage(StageError::HeadsNotDivisible { n_heads: 2, sp: 4 })
    );
}

/// The acceptance scenario: run A trains uninterrupted with checkpoints; run
/// B hits a recovered message drop and then a mid-step rank kill; run C
/// restarts from B's last checkpoint and must reproduce A's loss curve and
/// final parameters bitwise.
#[test]
fn checkpoint_restart_after_crash_matches_uninterrupted_run_bitwise() {
    let cfg = tiny_cfg();
    let samples = random_samples(6, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(2, 4, 1, 1, 1); // 8 ranks
    let sched = schedule(3, 2, 1, 6);
    let reference = AerisModel::new(cfg);

    let tmp = std::env::temp_dir().join(format!("aeris_chaos_ckpt_{}", std::process::id()));
    let dir_a = tmp.join("a");
    let dir_b = tmp.join("b");

    // Run A: uninterrupted, checkpoint after every step.
    let cfg_a = SwipeConfig {
        n_steps: 3,
        checkpoint: Some(CheckpointConfig { dir: dir_a.clone(), every: 1 }),
        ..SwipeConfig::new(topo)
    };
    let report_a = DistributedTrainer::train(&reference, &cfg_a, &source, &sched, &weights)
        .expect("uninterrupted run");
    assert!(dir_a.join("step_000002.ckpt").exists());
    assert!(report_a
        .events
        .iter()
        .any(|r| matches!(r.event, FaultEvent::CheckpointSaved { next_step: 2, .. })));

    // Communication is deterministic, so run A's op counts tell us where
    // step boundaries fall; aim run B's kill a few ops into step 2 (after
    // the step-1 checkpoint is on disk).
    let victim = 5usize;
    let per_step = report_a.comm_ops[victim] / 3;
    assert!(per_step > 2, "need room inside a step to crash mid-step");

    // Run B: one recovered drop, then a hard mid-step kill during step 2.
    let cfg_b = SwipeConfig {
        n_steps: 3,
        checkpoint: Some(CheckpointConfig { dir: dir_b.clone(), every: 1 }),
        faults: Some(
            FaultPlan::new()
                .drop_message(0, 1, 0, 1)
                .crash_rank_after_ops(victim, 2 * per_step + 1),
        ),
        ..SwipeConfig::new(topo)
    };
    let failure = expect_failure(
        DistributedTrainer::train(&reference, &cfg_b, &source, &sched, &weights),
        "the kill must abort run B",
    );
    assert!(matches!(failure.error, SwipeError::Comm(_)));
    let had = |pred: &dyn Fn(&FaultEvent) -> bool| failure.events.iter().any(|r| pred(&r.event));
    assert!(had(&|e| matches!(e, FaultEvent::RetransmitRequest { .. })), "drop was not retried");
    assert!(had(&|e| matches!(e, FaultEvent::RankCrashedMidStep { rank: 5, .. })));
    assert!(
        dir_b.join("step_000002.ckpt").exists(),
        "both pre-kill checkpoints must have been written"
    );

    // Run C: restart from run B's last checkpoint, no faults.
    let cfg_c = SwipeConfig {
        n_steps: 3,
        resume_from: Some(dir_b.join("step_000002.ckpt")),
        ..SwipeConfig::new(topo)
    };
    let report_c = DistributedTrainer::train(&reference, &cfg_c, &source, &sched, &weights)
        .expect("resumed run");
    assert_eq!(report_c.start_step, 2);

    // Bitwise: the resumed tail of the loss curve and the final parameters
    // are indistinguishable from the run that never crashed.
    assert_eq!(
        report_c.losses[2].to_bits(),
        report_a.losses[2].to_bits(),
        "resumed loss diverged: {} vs {}",
        report_c.losses[2],
        report_a.losses[2]
    );
    assert_eq!(report_a.final_params.len(), report_c.final_params.len());
    for (name, v) in &report_a.final_params {
        assert_eq!(
            v.data(),
            report_c.final_params[name].data(),
            "parameter {name} diverged after checkpoint-restart"
        );
    }

    std::fs::remove_dir_all(&tmp).ok();
}

/// Resume validation: a checkpoint from a different topology or seed is a
/// typed checkpoint error, not silent corruption — and so is a well-formed
/// checkpoint with any one entry missing or mis-shaped. The one entry that is
/// written and never read (`meta/world`) may change freely; nothing panics.
#[test]
fn resume_rejects_mismatched_checkpoint() {
    let cfg = tiny_cfg();
    let samples = random_samples(2, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(1, 4, 1, 1, 1);
    let sched = schedule(1, 1, 1, 2);
    let reference = AerisModel::new(cfg);

    let tmp = std::env::temp_dir().join(format!("aeris_chaos_mismatch_{}", std::process::id()));
    let cfg_save = SwipeConfig {
        checkpoint: Some(CheckpointConfig { dir: tmp.clone(), every: 1 }),
        ..SwipeConfig::new(topo)
    };
    DistributedTrainer::train(&reference, &cfg_save, &source, &sched, &weights)
        .expect("checkpointing run");

    let cfg_bad_seed = SwipeConfig {
        seed: 999,
        resume_from: Some(tmp.join("step_000001.ckpt")),
        ..SwipeConfig::new(topo)
    };
    let failure = expect_failure(
        DistributedTrainer::train(&reference, &cfg_bad_seed, &source, &sched, &weights),
        "seed mismatch must be rejected",
    );
    assert!(
        matches!(failure.error, SwipeError::Checkpoint(_)),
        "expected a checkpoint error, got {}",
        failure.error
    );

    // Entry-level mutations of the same checkpoint, resumed into one more
    // step than it holds so that a faithful resume has something to compute.
    let ckpt = tmp.join("step_000001.ckpt");
    let entries = load_entries(&ckpt).expect("readable checkpoint");
    let sched = schedule(2, 1, 1, 2);
    let resume = |path: &std::path::Path| {
        let cfg = SwipeConfig {
            n_steps: 2,
            resume_from: Some(path.to_path_buf()),
            ..SwipeConfig::new(topo)
        };
        DistributedTrainer::train(&reference, &cfg, &source, &sched, &weights)
    };
    let faithful = resume(&ckpt).expect("unmutated resume");
    let mutated = tmp.join("mutated.ckpt");
    for (i, (name, tensor)) in entries.iter().enumerate() {
        for grown in [false, true] {
            let mut m = entries.clone();
            if grown {
                m[i].1 = Tensor::zeros(&[tensor.len() + 1]);
            } else {
                m.remove(i);
            }
            save_entries(&m, &mutated).expect("write mutated checkpoint");
            let what = format!("{name} {}", if grown { "grown by one" } else { "removed" });
            let meta = name.starts_with("meta/");
            match resume(&mutated) {
                Ok(report) => {
                    assert_eq!(name, "meta/world", "{what}: resumed as if nothing happened");
                    assert_eq!(bits(&report.losses), bits(&faithful.losses), "{what}");
                    for (param, v) in &faithful.final_params {
                        assert_eq!(v.data(), report.final_params[param].data(), "{what}: {param}");
                    }
                }
                Err(failure) => {
                    let typed = match &failure.error {
                        SwipeError::Checkpoint(CheckpointError::MissingEntry(key)) => {
                            !grown && key == name
                        }
                        SwipeError::Checkpoint(CheckpointError::ShapeMismatch { name: key }) => {
                            grown && !meta && key == name
                        }
                        SwipeError::Checkpoint(CheckpointError::Io(_)) => grown && meta,
                        _ => false,
                    };
                    assert!(typed && name != "meta/world", "{what}: got {}", failure.error);
                }
            }
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// Span-replay audit of an elastic outage: with tracing on, a crash→rejoin
/// window leaves balanced spans (every opened Outage closed — the parked
/// replica came back), one Outage span per parked rank, and a re-shard
/// send/recv pair per rejoining rank; the retire and rejoin events pair up
/// the same way.
#[test]
fn rejoin_outage_spans_and_events_are_balanced() {
    let cfg = tiny_cfg();
    let samples = random_samples(8, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(2, 4, 1, 1, 1);
    let sched = schedule(4, 2, 1, 8);
    let reference = AerisModel::new(cfg);

    let tracer = aeris_obs::Tracer::enabled();
    let elastic_cfg = SwipeConfig {
        n_steps: 4,
        faults: Some(FaultPlan::new().crash_rank(5, 1).restart_rank(5, 3)),
        tracer: tracer.clone(),
        ..SwipeConfig::new(topo)
    };
    let report = DistributedTrainer::train(&reference, &elastic_cfg, &source, &sched, &weights)
        .expect("rejoin run");

    let spans = tracer.snapshot_spans();
    aeris_obs::verify_balanced(&spans).expect("span replay must balance");
    let outages: Vec<_> =
        spans.iter().filter(|s| s.category == aeris_obs::SpanCategory::Outage).collect();
    assert_eq!(outages.len(), 4, "one closed Outage span per parked rank of dp=1");
    for s in &outages {
        assert_eq!(s.step, Some(1), "outage opens at the crash boundary");
        assert!(s.dur_ns() > 0);
        assert!((4..8).contains(&s.actor), "outage on a dp=1 rank, got actor {}", s.actor);
    }
    let reshard = |label: &str| {
        spans
            .iter()
            .filter(|s| s.category == aeris_obs::SpanCategory::Recovery && s.label == label)
            .count()
    };
    assert_eq!(reshard("reshard_recv"), 4, "each rejoiner receives one re-shard");
    assert_eq!(reshard("reshard_send"), 4, "the donor re-shards to each rejoiner");

    // Event balance mirrors the span balance: every retirement has a rejoin.
    let count = |pred: &dyn Fn(&FaultEvent) -> bool| {
        report.events.iter().filter(|r| pred(&r.event)).count()
    };
    let retired =
        count(&|e| matches!(e, FaultEvent::RankCrashed { .. }))
            + count(&|e| matches!(e, FaultEvent::ReplicaRetired { .. }));
    let rejoined = count(&|e| matches!(e, FaultEvent::RankRejoined { .. }))
        + count(&|e| matches!(e, FaultEvent::ReplicaRejoined { .. }));
    assert_eq!(retired, 4);
    assert_eq!(retired, rejoined, "retire/rejoin events must pair up");
}

/// Delay faults on the trainer's own message channels change timing only:
/// the full distributed training result is bitwise identical.
#[test]
fn delayed_pipeline_messages_do_not_change_training() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = aeris_swipe::data::InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(1, 4, 1, 2, 1); // 8 ranks with WP relayouts
    let sched = schedule(1, 1, 2, 4);
    let reference = AerisModel::new(cfg);

    let base = SwipeConfig { gas: 2, ..SwipeConfig::new(topo) };
    let clean = DistributedTrainer::train(&reference, &base, &source, &sched, &weights)
        .expect("fault-free run");

    let delayed_cfg = SwipeConfig {
        gas: 2,
        faults: Some(FaultPlan::chaos_delays(3, topo.world_size(), 6, 10, 5)),
        ..SwipeConfig::new(topo)
    };
    let delayed = DistributedTrainer::train(&reference, &delayed_cfg, &source, &sched, &weights)
        .expect("delays must never fail a run");

    assert_eq!(bits(&delayed.losses), bits(&clean.losses));
    for (name, v) in &clean.final_params {
        assert_eq!(v.data(), delayed.final_params[name].data(), "param {name} diverged");
    }
}
