//! Fig. 2 quantitatively: the SWiPe communication pattern. Runs the
//! thread-rank runtime at several WP degrees and reports measured per-rank
//! traffic by class, validating M = b·s·h/SP/WP, plus the live activation
//! saves and the input rows each stage-0 rank gathers.

use crate::{cells, Report, RunScale, Table};
use aeris_core::{AerisConfig, AerisModel, TrainSample};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_nn::window::WindowGrid;
use aeris_nn::AdamWConfig;
use aeris_swipe::data::InMemorySource;
use aeris_swipe::{ActLayout, CommClass, DistributedTrainer, RankCoords, SwipeConfig, SwipeTopology};
use aeris_tensor::{Rng, Tensor};

pub fn run(_: &RunScale) -> Report {
    let cfg = AerisConfig { seed: 11, ..AerisConfig::test_tiny() };
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

    let mut r = Report::new("Fig 2: SWiPe measured traffic (1 step, GAS=2, PP=4, SP=2), per block-stage rank");
    let mut t = Table::new(&[
        ("WP", 4, 0), ("ranks", 8, 0), ("alltoall(B)", 14, 0), ("p2p(B)", 12, 0), ("allreduce(B)", 14, 0),
        ("act(elems)", 12, 0), ("x_prev/stage0(B)", 18, 0)
    ]);
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
        let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights)
            .expect("fault-free run");
        let block_rank = topo.rank_of(RankCoords { dp: 0, stage: 1, wp_row: 0, wp_col: 0, sp: 0 });
        let windows = WindowGrid::new(cfg.grid_h, cfg.grid_w, cfg.window.0, cfg.window.1);
        let rows = ActLayout::new(windows, false, topo.wp_a, topo.wp_b, topo.sp).rows_per_rank();
        let scheduled = sched.iter().flatten().flatten().count();
        let bytes = |class| report.traffic.rank_total(block_rank, class);
        t.row(cells![
            wp_b, topo.world_size(), bytes(CommClass::AllToAll), bytes(CommClass::P2p),
            bytes(CommClass::AllReduce), report.max_activation_elems,
            scheduled * rows * cfg.channels * std::mem::size_of::<f32>()
        ]);
    }
    r.table(t);
    r.note("\nact(elems): the largest live activation saves of any rank.");
    r.note("x_prev/stage0: the x_prev bytes each stage-0 rank gathers, its own");
    r.note("token rows of every scheduled sample (f32).");
    r.note("\nExpected (paper §V-A): alltoall and p2p per rank fall as 1/WP;");
    r.note("gradient allreduce converges to the WP-independent 2·P reduce-scatter");
    r.note("volume; activation memory and the input rows per stage-0 rank fall as 1/WP.");
    r
}
