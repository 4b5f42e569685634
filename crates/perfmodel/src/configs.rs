//! The AERIS model configurations of Table II.
//!
//! Layer counts are not printed in the paper; they follow from the stage
//! structure `PP = L + 2` (§VII-A) with two transformer blocks per Swin layer,
//! which reproduces the named parameter counts from first principles (e.g.
//! 36 blocks at dim 6144 / FFN 40960 → 40.7B; 48 blocks at dim 7680 →
//! 79.3B, matching the text's "79B").
//!
//! Table II lists WP = 16 (4×4) for the 40B row while quoting 720 nodes; the
//! text and Table III use WP = 36 (6×6) for the large 40B runs
//! (36 × 20 = 720). Both variants are exposed; the headline runs use
//! `wp_large`.

/// One Table II row.
#[derive(Clone, Copy, Debug)]
pub struct AerisPerfConfig {
    pub name: &'static str,
    /// Published parameter-count label (billions).
    pub params_label_b: f64,
    /// Base window-parallel grid (A, B) from the WP column.
    pub wp_base: (usize, usize),
    /// Large-run window-parallel grid used in §VII-A / Table III.
    pub wp_large: (usize, usize),
    /// Pipeline stages.
    pub pp: usize,
    /// Gradient accumulation steps.
    pub gas: usize,
    /// Hidden dimension.
    pub dim: usize,
    pub heads: usize,
    /// SwiGLU hidden width.
    pub ffn: usize,
    /// Transformer blocks (2 per Swin layer, L = PP − 2).
    pub blocks: usize,
    /// Attention window (tokens per side); 6h model uses 30×30, 24h 60×60.
    pub window: usize,
    /// Table III run: node count.
    pub nodes: usize,
    /// Table III run: data-parallel degree.
    pub dp: usize,
    /// Sequence length in tokens (ERA5: 720×1440 at patch 1×1). A field
    /// rather than a global so toy-scale runs (tests, the MFU report for
    /// thread-rank trainer traces) can be predicted with the same model.
    pub seq_tokens: usize,
    /// Prognostic channels.
    pub channels: usize,
}

impl AerisPerfConfig {
    /// Swin layers L = PP − 2 (I/O + embedding stages separated).
    pub fn layers(&self) -> usize {
        self.pp - 2
    }

    /// WP degree of the large run.
    pub fn wp(&self) -> usize {
        self.wp_large.0 * self.wp_large.1
    }

    /// Nodes per model instance = WP × PP.
    pub fn nodes_per_instance(&self) -> usize {
        self.wp() * self.pp
    }
}

/// ERA5 resolution: 720 × 1440 pixels at patch size 1×1.
pub const SEQ_TOKENS: usize = 720 * 1440;
/// Prognostic channels (§VI-B): 5 surface + 5 upper-air × 13 levels.
pub const CHANNELS: usize = 70;

/// The five published configurations (Tables II & III).
pub const PAPER_CONFIGS: [AerisPerfConfig; 5] = [
    AerisPerfConfig {
        name: "1.3B",
        params_label_b: 1.3,
        wp_base: (2, 2),
        wp_large: (2, 2),
        pp: 12,
        gas: 60,
        dim: 1536,
        heads: 12,
        ffn: 9216,
        blocks: 20,
        window: 60,
        nodes: 1920,
        dp: 40,
        seq_tokens: SEQ_TOKENS,
        channels: CHANNELS,
    },
    AerisPerfConfig {
        name: "13B",
        params_label_b: 13.0,
        wp_base: (4, 4),
        wp_large: (4, 4),
        pp: 16,
        gas: 48,
        dim: 4608,
        heads: 36,
        ffn: 25600,
        blocks: 28,
        window: 60,
        nodes: 7680,
        dp: 30,
        seq_tokens: SEQ_TOKENS,
        channels: CHANNELS,
    },
    AerisPerfConfig {
        name: "40B",
        params_label_b: 40.0,
        wp_base: (4, 4),
        wp_large: (6, 6),
        pp: 20,
        gas: 140,
        dim: 6144,
        heads: 48,
        ffn: 40960,
        blocks: 36,
        window: 60,
        nodes: 10_080,
        dp: 14,
        seq_tokens: SEQ_TOKENS,
        channels: CHANNELS,
    },
    AerisPerfConfig {
        name: "80B",
        params_label_b: 80.0,
        wp_base: (6, 6),
        wp_large: (8, 8),
        pp: 26,
        gas: 52,
        dim: 7680,
        heads: 60,
        ffn: 46080,
        blocks: 48,
        window: 60,
        nodes: 8320,
        dp: 5,
        seq_tokens: SEQ_TOKENS,
        channels: CHANNELS,
    },
    AerisPerfConfig {
        name: "26B(L)",
        params_label_b: 26.0,
        wp_base: (6, 6),
        wp_large: (6, 6),
        pp: 14,
        gas: 70,
        dim: 6144,
        heads: 48,
        ffn: 32768,
        blocks: 24,
        window: 60,
        nodes: 1008,
        dp: 2,
        seq_tokens: SEQ_TOKENS,
        channels: CHANNELS,
    },
];

/// Look up a config by name.
pub fn config(name: &str) -> &'static AerisPerfConfig {
    PAPER_CONFIGS
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown config {name}"))
}

#[cfg(test)]
impl AerisPerfConfig {
    /// Global batch size = DP × GAS (microbatch 1 per instance).
    pub(crate) fn gbs(&self) -> usize {
        self.dp * self.gas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_node_counts_match_table() {
        // Table II / Table III consistency: nodes = DP × WP × PP.
        for c in &PAPER_CONFIGS {
            assert_eq!(
                c.nodes,
                c.dp * c.nodes_per_instance(),
                "{}: {} vs dp {} × instance {}",
                c.name,
                c.nodes,
                c.dp,
                c.nodes_per_instance()
            );
        }
    }

    #[test]
    fn gbs_matches_table_iii() {
        let expect = [2400usize, 1440, 1960, 260, 140];
        for (c, &g) in PAPER_CONFIGS.iter().zip(&expect) {
            assert_eq!(c.gbs(), g, "{}", c.name);
        }
    }

    #[test]
    fn blocks_are_two_per_layer() {
        for c in &PAPER_CONFIGS {
            assert_eq!(c.blocks, 2 * c.layers(), "{}", c.name);
        }
    }

    #[test]
    fn full_system_run_is_40b_at_10080_nodes() {
        let c = config("40B");
        assert_eq!(c.nodes, 10_080);
        assert_eq!(c.wp(), 36);
        assert_eq!(c.nodes_per_instance(), 720);
    }
}
