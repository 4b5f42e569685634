//! Parked rank threads: `DistributedTrainer::train` runs its ranks on
//! threads that outlive the call. A call spawns a thread only when none is
//! idle, a later call reuses them, and two concurrent calls never share one.
//! Rank threads are counted by name in `/proc/self/task`, so this file holds
//! one test: no other test's calls take or add threads while it counts.

#![cfg(target_os = "linux")]

use aeris_core::{AerisConfig, AerisModel, TrainSample};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_swipe::data::InMemorySource;
use aeris_swipe::{DistributedTrainer, SwipeConfig, SwipeTopology, TrafficReport, TrainReport};
use aeris_tensor::{Rng, Tensor};
use std::sync::Barrier;

/// Threads of this process named as the parked rank threads are.
fn rank_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter(|task| {
            let comm = task.as_ref().map(|t| std::fs::read_to_string(t.path().join("comm")));
            matches!(comm, Ok(Ok(name)) if name.trim_end() == "swipe-rank")
        })
        .count()
}

/// What a call returned, bit for bit.
#[derive(Debug, PartialEq)]
struct Bits {
    losses: Vec<u64>,
    traffic: TrafficReport,
    comm_ops: Vec<u64>,
    params: Vec<(String, Vec<u32>)>,
}

fn bits(report: &TrainReport) -> Bits {
    let mut params: Vec<(String, Vec<u32>)> = report
        .final_params
        .iter()
        .map(|(name, v)| (name.clone(), v.data().iter().map(|x| x.to_bits()).collect()))
        .collect();
    params.sort();
    Bits {
        losses: report.losses.iter().map(|l| l.to_bits()).collect(),
        traffic: report.traffic.clone(),
        comm_ops: report.comm_ops.clone(),
        params,
    }
}

#[test]
fn parked_ranks_are_reused_and_never_shared() {
    let cfg = AerisConfig::test_tiny();
    let mut rng = Rng::seed_from(5);
    let samples = (0..4)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
        })
        .collect();
    let source = InMemorySource { samples };
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
    let reference = AerisModel::new(cfg);
    // `train_swipe`'s topology: 16 ranks.
    let topo = SwipeTopology::new(1, 4, 1, 2, 2);
    let swipe = SwipeConfig { gas: 2, n_steps: 2, ..SwipeConfig::new(topo) };
    let schedule = vec![vec![vec![0, 1]], vec![vec![2, 3]]];
    let call = || {
        let report = DistributedTrainer::train(&reference, &swipe, &source, &schedule, &weights)
            .expect("fault-free run");
        bits(&report)
    };

    let first = call();
    assert_eq!(rank_threads(), topo.world_size(), "the first call spawns a thread per rank");
    assert_eq!(call(), first, "a call on parked threads returns the same bits");
    assert_eq!(rank_threads(), topo.world_size(), "a second call spawns no thread");

    // Two calls at once: neither waits for a thread the other holds, and each
    // returns the sequential call's bits.
    let start = Barrier::new(2);
    let at_once = || {
        start.wait();
        call()
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(at_once);
        let b = s.spawn(at_once);
        (a.join().expect("first concurrent call"), b.join().expect("second concurrent call"))
    });
    assert_eq!(a, first);
    assert_eq!(b, first);
    let parked = rank_threads();
    assert!(
        (topo.world_size()..=2 * topo.world_size()).contains(&parked),
        "two concurrent calls hold at most a thread per rank each: {parked} threads"
    );
    assert_eq!(call(), first);
    assert_eq!(rank_threads(), parked, "a call after the concurrent ones spawns no thread");
}
