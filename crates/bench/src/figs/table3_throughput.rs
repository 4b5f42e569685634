//! Table III: sustained and peak training throughput from the analytical
//! performance model, against the paper's published numbers.

use crate::{cells, Report, RunScale, Table};
use aeris_perfmodel::throughput::predict_table3;
use aeris_perfmodel::{EffModel, AURORA, LUMI, PAPER_CONFIGS};

/// The paper's TF/tile, MFU %, EF sustained and EF peak per configuration.
const PAPER: [(f64, f64, f64, f64); 5] = [
    (47.6, 21.6, 1.1, 1.2),
    (63.3, 28.8, 5.8, 6.4),
    (84.4, 38.4, 10.21, 11.21),
    (52.8, 24.0, 5.27, 6.1),
    (66.5, 34.8, 0.54, 0.62),
];

pub fn run(_: &RunScale) -> Report {
    let eff = EffModel::default();
    let mut r = Report::new("Table III: sustained & peak throughput — analytical model vs paper");
    let mut t = Table::new(&[
        ("Config", 8, 0), ("Nodes", 7, 0), ("DP", 5, 0), ("GBS", 6, 0), ("TF/T", 11, 1), ("paper", 8, 1),
        ("MFU%", 11, 1), ("paper", 8, 1), ("EF(S)", 12, 2), ("paper", 9, 2), ("EF(P)", 12, 2), ("paper", 9, 2)
    ]);
    for (c, (tft_p, mfu_p, efs_p, efp_p)) in PAPER_CONFIGS.iter().zip(PAPER) {
        let machine = if c.name.ends_with("(L)") { &LUMI } else { &AURORA };
        let p = predict_table3(c, machine, &eff);
        t.row(cells![
            c.name, p.nodes, p.dp, p.gbs, p.tf_per_tile, tft_p, p.mfu * 100.0, mfu_p,
            p.sustained_flops / 1e18, efs_p, p.peak_flops / 1e18, efp_p
        ]);
    }
    r.table(t);
    let p40 = predict_table3(&PAPER_CONFIGS[2], &AURORA, &eff);
    r.value("40B at full scale, samples/s (paper: ~50)", p40.samples_per_s, 0, "");
    r.value("3M samples (paper: ~15 h)", 3.0e6 / p40.samples_per_s / 3600.0, 1, "h");
    r
}
