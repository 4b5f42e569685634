//! Fig. 4 (top): strong scaling of the 40B configuration by
//! gradient-accumulation steps (GBS 1960) and by window parallelism
//! (GBS 140), vs the paper's 81.6% and 100/87/64%.

use crate::{cells, Report, RunScale, Table};
use aeris_perfmodel::configs::config;
use aeris_perfmodel::{strong_scaling_gas, strong_scaling_wp, EffModel, AURORA};

pub fn run(_: &RunScale) -> Report {
    let eff = EffModel::default();
    let c = config("40B");
    let mut r = Report::new("Fig 4 (top): strong scaling of the 40B configuration");

    r.section("Strong scaling via GAS (GBS = 1960)");
    let mut t = Table::new(&[
        ("DP", 6, 0), ("GAS", 8, 0), ("nodes", 8, 0), ("images/sec", 14, 1), ("efficiency", 12, 3),
    ]);
    for p in strong_scaling_gas(c, &AURORA, 1960, &[2, 4, 7, 14], &eff) {
        let dp = p.prediction.dp;
        t.row(cells![dp, 1960 / dp, p.nodes, p.prediction.samples_per_s, p.efficiency]);
    }
    r.table(t);
    r.note("Paper: 81.6% strong-scaling efficiency; losses mainly from the pipeline bubble.");

    r.section("Strong scaling via WP (GBS = 140, DP = 1)");
    let mut t = Table::new(&[
        ("WP", 6, 0), ("nodes", 8, 0), ("images/sec", 14, 1), ("efficiency", 12, 3), ("speedup", 12, 2),
    ]);
    let wps = [36usize, 64, 144];
    let pts = strong_scaling_wp(c, &AURORA, 140, &wps, &eff);
    let base = pts[0].prediction.samples_per_s;
    for (wp, p) in wps.iter().zip(&pts) {
        let sps = p.prediction.samples_per_s;
        t.row(cells![*wp, p.nodes, sps, p.efficiency, sps / base]);
    }
    r.table(t);
    r.note("Paper: 100% / 87% / 64%; WP=144 is 4x the nodes of WP=36 for a 2.4x speedup.");
    r
}
