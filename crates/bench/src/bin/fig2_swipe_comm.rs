//! Demonstrates Fig. 2 quantitatively: the SWiPe communication pattern.
//! Runs the thread-rank runtime at several WP degrees and prints measured
//! per-rank traffic by class, validating M = b·s·h/SP/WP and the invariant
//! gradient-allreduce volume, plus activation memory and the input rows each
//! stage-0 rank gathers.

use aeris_core::{AerisConfig, AerisModel, TrainSample};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_nn::window::WindowGrid;
use aeris_nn::AdamWConfig;
use aeris_swipe::data::InMemorySource;
use aeris_swipe::{ActLayout, CommClass, DistributedTrainer, RankCoords, SwipeConfig, SwipeTopology};
use aeris_tensor::{Rng, Tensor};

fn main() {
    let cfg = AerisConfig {
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
        pos_amp: 0.1,
        seed: 11,
    };
    let mut rng = Rng::seed_from(5);
    let samples: Vec<TrainSample> = (0..4)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), 3], &mut rng),
        })
        .collect();
    let source = InMemorySource { samples };
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);

    println!("SWiPe measured traffic (1 step, GAS=2, PP=4, SP=2), per block-stage rank:");
    println!(
        "{:>4}{:>8}{:>14}{:>12}{:>14}{:>12}{:>18}",
        "WP", "ranks", "alltoall(B)", "p2p(B)", "allreduce(B)", "act(elems)", "x_prev/stage0(B)"
    );
    for wp_b in [1usize, 2, 4] {
        let topo = SwipeTopology::new(1, 4, 1, wp_b, 2);
        let swipe_cfg = SwipeConfig {
            topo,
            gas: 2,
            n_steps: 1,
            lr: 1e-3,
            seed: 9,
            adamw: AdamWConfig::default(),
            ..SwipeConfig::new(topo)
        };
        let sched = vec![vec![vec![0usize, 1]]];
        let reference = AerisModel::new(cfg.clone());
        let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");
        let block_rank = topo.rank_of(RankCoords { dp: 0, stage: 1, wp_row: 0, wp_col: 0, sp: 0 });
        let windows = WindowGrid::new(cfg.grid_h, cfg.grid_w, cfg.window.0, cfg.window.1);
        let rows = ActLayout::new(windows, false, topo.wp_a, topo.wp_b, topo.sp).rows_per_rank();
        let scheduled = sched.iter().flatten().flatten().count();
        println!(
            "{:>4}{:>8}{:>14}{:>12}{:>14}{:>12}{:>18}",
            wp_b,
            topo.world_size(),
            report.traffic.rank_total(block_rank, CommClass::AllToAll),
            report.traffic.rank_total(block_rank, CommClass::P2p),
            report.traffic.rank_total(block_rank, CommClass::AllReduce),
            report.max_activation_elems,
            scheduled * rows * cfg.channels * std::mem::size_of::<f32>(),
        );
    }
    println!("\nx_prev/stage0: the x_prev bytes each stage-0 rank gathers, its own");
    println!("token rows of every scheduled sample (f32).");
    println!("\nExpected (paper §V-A): alltoall and p2p per rank fall as 1/WP;");
    println!("gradient allreduce volume is unchanged; activation memory and the");
    println!("input rows per stage-0 rank fall as 1/WP.");
}
