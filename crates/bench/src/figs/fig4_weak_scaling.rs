//! Fig. 4 (bottom + 4b): weak scaling in images/sec and sustained FLOPS as
//! data parallelism grows at fixed model-parallel settings.

use crate::{cells, Report, RunScale, Table};
use aeris_perfmodel::{weak_scaling, EffModel, AURORA, LUMI, PAPER_CONFIGS};

pub fn run(_: &RunScale) -> Report {
    let eff = EffModel::default();
    let mut r = Report::new("Fig 4 (bottom): weak scaling by data parallelism");
    for c in &PAPER_CONFIGS {
        let machine = if c.name.ends_with("(L)") { &LUMI } else { &AURORA };
        // DP doubles from 1 up to the configuration's DP, which ends the sweep.
        let max_dp = c.dp.max(1);
        let mut dps: Vec<usize> =
            std::iter::successors(Some(1usize), |d| Some(d * 2)).take_while(|&d| d <= max_dp).collect();
        if *dps.last().unwrap() != max_dp {
            dps.push(max_dp);
        }
        r.section(format!("{} on {} (WP={}, PP={}, GAS={})", c.name, machine.name, c.wp(), c.pp, c.gas));
        let mut t = Table::new(&[
            ("DP", 8, 0), ("nodes", 8, 0), ("images/sec", 14, 1), ("EF(sust)", 12, 2), ("weak eff", 12, 3),
        ]);
        for (&dp, p) in dps.iter().zip(weak_scaling(c, machine, &dps, &eff)) {
            let pr = &p.prediction;
            t.row(cells![dp, p.nodes, pr.samples_per_s, pr.sustained_flops / 1e18, p.efficiency]);
        }
        r.table(t);
    }
    r.note("\nPaper: 40B maintains ~95% weak-scaling efficiency to 10,080 nodes, 10.21 EF sustained.");
    r
}
