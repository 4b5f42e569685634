//! The SWiPe rank grid: DP × PP × WP(A×B) × SP.
//!
//! One model instance occupies `PP × WP_A × WP_B × SP` ranks (the paper's
//! "nodes needed to run a single model instance is WP × PP", with SP ranks
//! inside each node); data parallelism replicates instances.

/// Topology extents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwipeTopology {
    /// Data-parallel replicas.
    pub dp: usize,
    /// Pipeline stages (= Swin layers + 2, §VII-A).
    pub pp: usize,
    /// Window-parallel grid rows (A).
    pub wp_a: usize,
    /// Window-parallel grid cols (B).
    pub wp_b: usize,
    /// Sequence-parallel (Ulysses) degree within a window group.
    pub sp: usize,
}

/// Coordinates of one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCoords {
    pub dp: usize,
    pub stage: usize,
    pub wp_row: usize,
    pub wp_col: usize,
    pub sp: usize,
}

impl SwipeTopology {
    /// Validate and construct.
    pub fn new(dp: usize, pp: usize, wp_a: usize, wp_b: usize, sp: usize) -> Self {
        assert!(dp >= 1 && pp >= 1 && wp_a >= 1 && wp_b >= 1 && sp >= 1);
        SwipeTopology { dp, pp, wp_a, wp_b, sp }
    }

    /// Window-parallel degree WP = A×B.
    pub fn wp(&self) -> usize {
        self.wp_a * self.wp_b
    }

    /// Ranks per model instance (PP × WP × SP).
    pub fn model_ranks(&self) -> usize {
        self.pp * self.wp() * self.sp
    }

    /// Total world size.
    pub fn world_size(&self) -> usize {
        self.dp * self.model_ranks()
    }

    /// Flatten coordinates to a rank id. Layout: dp-major, then stage, then
    /// wp_row, wp_col, sp (sp fastest — "SP groups confined within a node").
    pub fn rank_of(&self, c: RankCoords) -> usize {
        debug_assert!(c.dp < self.dp && c.stage < self.pp);
        debug_assert!(c.wp_row < self.wp_a && c.wp_col < self.wp_b && c.sp < self.sp);
        (((c.dp * self.pp + c.stage) * self.wp_a + c.wp_row) * self.wp_b + c.wp_col) * self.sp
            + c.sp
    }

    /// Inverse of [`SwipeTopology::rank_of`].
    pub fn coords_of(&self, rank: usize) -> RankCoords {
        assert!(rank < self.world_size());
        let sp = rank % self.sp;
        let rest = rank / self.sp;
        let wp_col = rest % self.wp_b;
        let rest = rest / self.wp_b;
        let wp_row = rest % self.wp_a;
        let rest = rest / self.wp_a;
        let stage = rest % self.pp;
        let dp = rest / self.pp;
        RankCoords { dp, stage, wp_row, wp_col, sp }
    }

    /// The SP (Ulysses) group of a rank: same dp/stage/wp, all sp.
    pub fn sp_group(&self, c: RankCoords) -> Vec<usize> {
        (0..self.sp).map(|sp| self.rank_of(RankCoords { sp, ..c })).collect()
    }

    /// The gradient-reduction group for stage-local parameters: same stage,
    /// all dp × wp × sp (the paper: WP reduces message sizes but "overhead
    /// from gradient allreduce remains unchanged" — the reduction spans all
    /// replicas of the stage's weights).
    pub fn grad_group(&self, c: RankCoords) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.dp * self.wp() * self.sp);
        for dp in 0..self.dp {
            for wp_row in 0..self.wp_a {
                for wp_col in 0..self.wp_b {
                    for sp in 0..self.sp {
                        out.push(self.rank_of(RankCoords { dp, wp_row, wp_col, sp, ..c }));
                    }
                }
            }
        }
        out
    }

    /// All ranks (for globally replicated parameters, e.g. the shared time
    /// conditioner).
    pub fn all_ranks(&self) -> Vec<usize> {
        (0..self.world_size()).collect()
    }

    /// The within-replica ZeRO-1 group for stage-local parameters: same dp,
    /// same stage, all wp × sp. Optimizer moments shard over this group and
    /// are therefore *replicated across* data-parallel replicas (ORBIT-style
    /// hybrid sharding) — its size never changes when replicas retire or
    /// rejoin, so moment ownership survives membership churn, and any live
    /// replica can re-shard a rejoining one by position alone.
    pub fn replica_grad_group(&self, c: RankCoords) -> Vec<usize> {
        self.stage_ranks(c.dp, c.stage)
    }

    /// The within-replica ZeRO-1 group for the shared time-conditioner
    /// parameters: all interior (Swin-block) stages of one dp replica, sorted
    /// (the shared params are absent from the edge stages).
    pub fn replica_shared_group(&self, dp: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for stage in 1..self.pp - 1 {
            out.extend(self.stage_ranks(dp, stage));
        }
        out.sort_unstable();
        out
    }

    /// All ranks of the interior (Swin-block) stages, across dp/wp/sp — the
    /// reduction group for the shared time-conditioner parameters, which are
    /// replicated in every block stage but absent from the edge stages.
    pub fn block_stage_ranks(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for dp in 0..self.dp {
            for stage in 1..self.pp - 1 {
                out.extend(self.stage_ranks(dp, stage));
            }
        }
        out.sort_unstable();
        out
    }

    /// The subset of `ranks` whose data-parallel replica is still live.
    /// Graceful degradation: a crashed rank takes its whole replica down, so
    /// every collective group shrinks to the ranks of surviving replicas
    /// (order is preserved — reductions stay deterministic).
    pub fn filter_live(&self, ranks: &[usize], dead_dps: &[usize]) -> Vec<usize> {
        ranks.iter().copied().filter(|&r| !dead_dps.contains(&self.coords_of(r).dp)).collect()
    }

    /// The data-parallel replicas containing any of `dead_ranks`, sorted.
    pub fn dead_dps(&self, dead_ranks: &[usize]) -> Vec<usize> {
        let mut dps: Vec<usize> = dead_ranks.iter().map(|&r| self.coords_of(r).dp).collect();
        dps.sort_unstable();
        dps.dedup();
        dps
    }

    /// All ranks of one stage within a dp replica (targets of a relayout).
    pub fn stage_ranks(&self, dp: usize, stage: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for wp_row in 0..self.wp_a {
            for wp_col in 0..self.wp_b {
                for sp in 0..self.sp {
                    out.push(self.rank_of(RankCoords { dp, stage, wp_row, wp_col, sp }));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coords_roundtrip() {
        let t = SwipeTopology::new(2, 3, 2, 2, 2);
        assert_eq!(t.world_size(), 48);
        for r in 0..t.world_size() {
            assert_eq!(t.rank_of(t.coords_of(r)), r);
        }
    }

    #[test]
    fn sp_group_is_contiguous() {
        let t = SwipeTopology::new(1, 2, 2, 1, 4);
        let c = t.coords_of(9);
        let g = t.sp_group(c);
        assert_eq!(g.len(), 4);
        for w in g.windows(2) {
            assert_eq!(w[1], w[0] + 1, "SP ranks must be adjacent (intra-node)");
        }
        assert!(g.contains(&9));
    }

    #[test]
    fn grad_group_spans_dp_wp_sp_same_stage() {
        let t = SwipeTopology::new(2, 3, 2, 1, 2);
        let c = t.coords_of(t.rank_of(RankCoords { dp: 0, stage: 1, wp_row: 0, wp_col: 0, sp: 0 }));
        let g = t.grad_group(c);
        assert_eq!(g.len(), 8); // dp(2) x wp(2x1) x sp(2)
        for &r in &g {
            assert_eq!(t.coords_of(r).stage, 1);
        }
    }

    #[test]
    fn model_ranks_matches_paper_formula() {
        // Table II: nodes per instance = WP × PP (SP inside the node).
        let t = SwipeTopology::new(1, 12, 2, 2, 12);
        assert_eq!(t.model_ranks() / t.sp, 4 * 12);
    }

    #[test]
    fn live_filtering_preserves_order_and_drops_whole_replicas() {
        let t = SwipeTopology::new(3, 2, 1, 1, 2);
        let c = t.coords_of(0);
        let g = t.grad_group(c);
        // Kill one rank of replica 1: its entire replica must drop out.
        let dead = t.dead_dps(&[t.rank_of(RankCoords { dp: 1, stage: 0, wp_row: 0, wp_col: 0, sp: 1 })]);
        assert_eq!(dead, vec![1]);
        let live = t.filter_live(&g, &dead);
        assert_eq!(live.len(), g.len() - g.len() / 3);
        for &r in &live {
            assert_ne!(t.coords_of(r).dp, 1);
        }
        // Order preserved.
        let mut sorted = live.clone();
        sorted.sort_unstable();
        let mut orig: Vec<usize> = g.iter().copied().filter(|r| live.contains(r)).collect();
        assert_eq!(live, orig);
        orig.sort_unstable();
        assert_eq!(orig, sorted);
    }

    #[test]
    fn replica_groups_are_dp_local_and_positionally_stable() {
        let t = SwipeTopology::new(3, 4, 2, 1, 2);
        for dp in 0..3 {
            let c = RankCoords { dp, stage: 1, wp_row: 0, wp_col: 0, sp: 0 };
            let g = t.replica_grad_group(t.coords_of(t.rank_of(c)));
            assert_eq!(g.len(), t.wp() * t.sp);
            for (i, &r) in g.iter().enumerate() {
                let rc = t.coords_of(r);
                assert_eq!((rc.dp, rc.stage), (dp, 1));
                // Same position in every replica's group maps to the same
                // model-parallel coordinates — the re-shard correspondence.
                let r0 = t.replica_grad_group(RankCoords { dp: 0, ..c })[i];
                let c0 = t.coords_of(r0);
                assert_eq!((c0.stage, c0.wp_row, c0.wp_col, c0.sp), (rc.stage, rc.wp_row, rc.wp_col, rc.sp));
            }
            let s = t.replica_shared_group(dp);
            assert_eq!(s.len(), (t.pp - 2) * t.wp() * t.sp);
            for &r in &s {
                let rc = t.coords_of(r);
                assert_eq!(rc.dp, dp);
                assert!(rc.stage >= 1 && rc.stage < t.pp - 1);
            }
        }
    }

    #[test]
    fn stage_ranks_cover_wp_sp() {
        let t = SwipeTopology::new(2, 2, 2, 2, 2);
        let ranks = t.stage_ranks(1, 0);
        assert_eq!(ranks.len(), 8);
        for &r in &ranks {
            let c = t.coords_of(r);
            assert_eq!(c.dp, 1);
            assert_eq!(c.stage, 0);
        }
    }
}
