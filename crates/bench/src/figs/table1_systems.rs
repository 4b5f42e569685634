//! Table I: system configurations used in the evaluation.

use crate::{cells, Report, RunScale, Table};
use aeris_perfmodel::{MachineSpec, AURORA, LUMI};

const LABELS: [&str; 10] = [
    "GPU",
    "GPUs (tiles) / node",
    "GPU Memory (GB)",
    "GPU Memory BW (TB/s)",
    "NICs / node",
    "Network BW / direction (GB/s)",
    "Scale-up BW / direction (GB/s)",
    "Peak BF16 TFLOPS / tile",
    "Collective library",
    "Total nodes (tiles) scaled",
];

/// A machine's column, one entry per label.
fn column(m: &MachineSpec) -> [String; 10] {
    [
        m.gpu.into(),
        format!("{}({})", m.gpus_per_node, m.tiles_per_node),
        m.gpu_memory_gb.to_string(),
        m.gpu_mem_bw_tbs.to_string(),
        m.nics_per_node.to_string(),
        m.network_bw_gbs.to_string(),
        m.scaleup_bw_gbs.to_string(),
        m.peak_bf16_tflops_per_tile.to_string(),
        m.ccl.into(),
        format!("{} ({})", m.max_nodes, m.tiles(m.max_nodes)),
    ]
}

pub fn run(_: &RunScale) -> Report {
    let mut r = Report::new("Table I: System configuration for performance evaluations");
    let mut t = Table::new(&[("", 34, 0), ("Aurora", 16, 0), ("LUMI", 16, 0)]);
    for ((label, aurora), lumi) in LABELS.into_iter().zip(column(&AURORA)).zip(column(&LUMI)) {
        t.row(cells![label, aurora, lumi]);
    }
    r.table(t);
    r
}
