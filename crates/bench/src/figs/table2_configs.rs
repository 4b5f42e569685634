//! Table II: AERIS model configurations, with parameter counts derived from
//! the analytical model (blocks = 2·(PP−2), see DESIGN.md).

use crate::{cells, Report, RunScale, Table};
use aeris_perfmodel::{params_count, PAPER_CONFIGS};

pub fn run(_: &RunScale) -> Report {
    let mut r = Report::new("Table II: AERIS model configurations (derived params vs labels)");
    let mut t = Table::new(&[
        ("Params", 8, 0), ("WP", 8, 0), ("WP(large)", 12, 0), ("PP", 6, 0), ("GAS", 6, 0), ("Dim", 7, 0),
        ("Heads", 8, 0), ("FFN", 8, 0), ("Blocks", 8, 0), ("Nodes/inst", 12, 0), ("Derived(B)", 12, 2)
    ]);
    for c in &PAPER_CONFIGS {
        t.row(cells![
            c.name, format!("{}x{}", c.wp_base.0, c.wp_base.1), format!("{}x{}", c.wp_large.0, c.wp_large.1),
            c.pp, c.gas, c.dim, c.heads, c.ffn, c.blocks, c.nodes_per_instance(), params_count(c) / 1e9
        ]);
    }
    r.table(t);
    r.note("\nNote: Table II prints WP=16(4x4) for the 40B row but 720 nodes;");
    r.note("the text and Table III use WP=36 (6x6): 36 x 20 = 720 (see DESIGN.md).");
    r
}
