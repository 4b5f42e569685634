//! Activation layouts and stage-to-stage relayout routing.
//!
//! Within a stage, the global `[H×W, dim]` token matrix is partitioned
//! window-by-window: windows are distributed round-robin over the WP grid
//! (paper Fig. 2a middle) and each window's tokens are split contiguously
//! into SP chunks (Ulysses). Shifted blocks use the same machinery on the
//! half-window-rolled image, so a layout is fully described by
//! `(grid, shifted, wp_a, wp_b, sp)`.
//!
//! Relayout between consecutive stages (including the unshifted↔shifted
//! transition) is pure index math computed identically on the send and
//! receive sides — no metadata travels with the tensors, matching how the
//! paper's round-robin distribution makes the shift a fixed send/recv
//! pattern of 1/SP-window messages.

use aeris_nn::window::{invert_perm, WindowGrid};

/// A distributed activation layout.
#[derive(Clone, Debug)]
pub struct ActLayout {
    pub grid: WindowGrid,
    pub shifted: bool,
    pub wp_a: usize,
    pub wp_b: usize,
    pub sp: usize,
    /// inverse roll permutation (identity when unshifted).
    inv_roll: Vec<usize>,
    /// roll permutation (identity when unshifted).
    roll: Vec<usize>,
}

/// One relayout message: rows `src_rows` of the source rank's local matrix
/// land at rows `dst_rows` of the destination rank's local matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteMsg {
    pub dst: (usize, usize, usize),
    pub src_rows: Vec<usize>,
    pub dst_rows: Vec<usize>,
}

impl ActLayout {
    /// Construct; window counts must divide evenly over the WP grid and the
    /// window length over SP.
    pub fn new(grid: WindowGrid, shifted: bool, wp_a: usize, wp_b: usize, sp: usize) -> Self {
        assert!(grid.rows().is_multiple_of(wp_a), "window rows must divide over WP rows");
        assert!(grid.cols().is_multiple_of(wp_b), "window cols must divide over WP cols");
        assert!(grid.window_len().is_multiple_of(sp), "window length must divide over SP");
        let (roll, inv_roll) = if shifted {
            let (sh, sw) = grid.half_shift();
            let r = grid.roll_perm(sh, sw);
            let inv = invert_perm(&r);
            (r, inv)
        } else {
            let id: Vec<usize> = (0..grid.tokens()).collect();
            (id.clone(), id)
        };
        ActLayout { grid, shifted, wp_a, wp_b, sp, inv_roll, roll }
    }

    /// Windows owned by WP rank `(ra, rb)`, in deterministic order.
    pub fn windows_of(&self, ra: usize, rb: usize) -> Vec<(usize, usize)> {
        self.grid.windows_of_owner(ra, rb, self.wp_a, self.wp_b)
    }

    /// Windows per WP rank.
    pub fn windows_per_rank(&self) -> usize {
        self.grid.count() / (self.wp_a * self.wp_b)
    }

    /// Token rows held by one (wp, sp) rank.
    pub fn rows_per_rank(&self) -> usize {
        self.windows_per_rank() * self.grid.window_len() / self.sp
    }

    /// Rows of one window chunk.
    pub fn chunk_rows(&self) -> usize {
        self.grid.window_len() / self.sp
    }

    /// Global (image) token ids held by rank `(ra, rb, sp)`, in local row
    /// order: owned windows in order, each contributing its sp-th contiguous
    /// chunk of window-major tokens.
    pub fn tokens_of(&self, ra: usize, rb: usize, sp: usize) -> Vec<usize> {
        let chunk = self.chunk_rows();
        let mut out = Vec::with_capacity(self.rows_per_rank());
        for (wr, wc) in self.windows_of(ra, rb) {
            let toks = self.grid.window_token_indices(wr, wc);
            for &p in &toks[sp * chunk..(sp + 1) * chunk] {
                out.push(self.roll[p]);
            }
        }
        out
    }

    /// Owner `(ra, rb, sp)` and local row of a global token id.
    pub fn owner_of(&self, token: usize) -> (usize, usize, usize, usize) {
        // Position of this token's content in the (rolled) partition space.
        let p = self.inv_roll[token];
        let (gr, gc) = (p / self.grid.w, p % self.grid.w);
        let (wr, wc) = (gr / self.grid.wh, gc / self.grid.ww);
        let (ra, rb) = self.grid.round_robin_owner(wr, wc, self.wp_a, self.wp_b);
        let j = (gr % self.grid.wh) * self.grid.ww + (gc % self.grid.ww);
        let chunk = self.chunk_rows();
        let sp = j / chunk;
        let row_in_chunk = j % chunk;
        // Round-robin placement: the owner holds every `wp_a`-th window row
        // and every `wp_b`-th column, row-major (the order of `windows_of`).
        let w_ix = (wr / self.wp_a) * (self.grid.cols() / self.wp_b) + wc / self.wp_b;
        (ra, rb, sp, w_ix * chunk + row_in_chunk)
    }

    /// Routing plan for relayout from `self` to `dst` for the given source
    /// rank: one message per destination rank that receives any rows.
    pub fn routing_to(&self, dst: &ActLayout, ra: usize, rb: usize, sp: usize) -> Vec<RouteMsg> {
        assert_eq!(self.grid, dst.grid, "layouts must share the grid");
        let tokens = self.tokens_of(ra, rb, sp);
        let mut msgs: Vec<RouteMsg> = Vec::new();
        for (src_row, &tok) in tokens.iter().enumerate() {
            let (da, db, dsp, drow) = dst.owner_of(tok);
            let key = (da, db, dsp);
            match msgs.iter_mut().find(|m| m.dst == key) {
                Some(m) => {
                    m.src_rows.push(src_row);
                    m.dst_rows.push(drow);
                }
                None => msgs.push(RouteMsg { dst: key, src_rows: vec![src_row], dst_rows: vec![drow] }),
            }
        }
        msgs
    }

    /// All messages a destination rank expects under a relayout, grouped per
    /// source rank (in deterministic source-rank order).
    pub fn routing_from(
        src: &ActLayout,
        dst: &ActLayout,
        da: usize,
        db: usize,
        dsp: usize,
    ) -> Vec<((usize, usize, usize), RouteMsg)> {
        let mut out = Vec::new();
        for ra in 0..src.wp_a {
            for rb in 0..src.wp_b {
                for sp in 0..src.sp {
                    for m in src.routing_to(dst, ra, rb, sp) {
                        if m.dst == (da, db, dsp) {
                            out.push(((ra, rb, sp), m));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> WindowGrid {
        WindowGrid::new(8, 16, 4, 4) // 2x4 windows of 16 tokens
    }

    #[test]
    fn tokens_partition_exactly_once() {
        for shifted in [false, true] {
            let l = ActLayout::new(grid(), shifted, 2, 2, 2);
            let mut seen = [false; 128];
            for ra in 0..2 {
                for rb in 0..2 {
                    for sp in 0..2 {
                        for &t in &l.tokens_of(ra, rb, sp) {
                            assert!(!seen[t], "token {t} owned twice");
                            seen[t] = true;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "unowned tokens (shifted={shifted})");
        }
    }

    #[test]
    fn owner_of_agrees_with_tokens_of() {
        for shifted in [false, true] {
            let l = ActLayout::new(grid(), shifted, 2, 2, 2);
            for ra in 0..2 {
                for rb in 0..2 {
                    for sp in 0..2 {
                        for (row, &t) in l.tokens_of(ra, rb, sp).iter().enumerate() {
                            assert_eq!(l.owner_of(t), (ra, rb, sp, row));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rows_per_rank_balanced() {
        let l = ActLayout::new(grid(), false, 2, 2, 2);
        assert_eq!(l.rows_per_rank(), 128 / 8);
        assert_eq!(l.windows_per_rank(), 2);
        assert_eq!(l.chunk_rows(), 8);
        // Each rank's share of the rows halves as wp_b doubles: the 1/WP
        // input rows a stage-0 rank gathers (fig2_swipe_comm's last column).
        let rows = [1, 2, 4].map(|wp_b| ActLayout::new(grid(), false, 1, wp_b, 2).rows_per_rank());
        assert_eq!(rows, [64, 32, 16]);
    }

    /// Relayout routing moves every token to exactly the right place — a full
    /// local simulation of the unshifted→shifted exchange.
    #[test]
    fn routing_preserves_content() {
        let src = ActLayout::new(grid(), false, 2, 2, 2);
        let dst = ActLayout::new(grid(), true, 2, 2, 2);
        // Local "global" array: token id as the value.
        let mut received: Vec<Vec<f32>> = vec![vec![-1.0; dst.rows_per_rank()]; 8];
        let rank_ix = |a: usize, b: usize, s: usize| ((a * 2) + b) * 2 + s;
        for ra in 0..2 {
            for rb in 0..2 {
                for sp in 0..2 {
                    let tokens = src.tokens_of(ra, rb, sp);
                    for m in src.routing_to(&dst, ra, rb, sp) {
                        let di = rank_ix(m.dst.0, m.dst.1, m.dst.2);
                        for (s, d) in m.src_rows.iter().zip(&m.dst_rows) {
                            received[di][*d] = tokens[*s] as f32;
                        }
                    }
                }
            }
        }
        for da in 0..2 {
            for db in 0..2 {
                for dsp in 0..2 {
                    let expect = dst.tokens_of(da, db, dsp);
                    let got = &received[rank_ix(da, db, dsp)];
                    for (row, &t) in expect.iter().enumerate() {
                        assert_eq!(got[row], t as f32, "rank ({da},{db},{dsp}) row {row}");
                    }
                }
            }
        }
    }

    /// The paper's message-size claim: with round-robin ownership, the
    /// shifted relayout sends messages of ≤ window_len/SP rows each, i.e.
    /// each rank sends "1/SP of the window" chunks.
    #[test]
    fn shift_messages_are_window_chunks() {
        let src = ActLayout::new(grid(), false, 2, 2, 2);
        let dst = ActLayout::new(grid(), true, 2, 2, 2);
        for ra in 0..2 {
            for rb in 0..2 {
                for sp in 0..2 {
                    let msgs = src.routing_to(&dst, ra, rb, sp);
                    let total: usize = msgs.iter().map(|m| m.src_rows.len()).sum();
                    assert_eq!(total, src.rows_per_rank(), "every row routed");
                }
            }
        }
    }

    #[test]
    fn routing_from_matches_routing_to() {
        let src = ActLayout::new(grid(), false, 2, 2, 2);
        let dst = ActLayout::new(grid(), true, 2, 2, 2);
        let incoming = ActLayout::routing_from(&src, &dst, 1, 0, 1);
        assert!(!incoming.is_empty());
        for ((ra, rb, sp), m) in &incoming {
            let outgoing = src.routing_to(&dst, *ra, *rb, *sp);
            assert!(outgoing.contains(m));
        }
    }

    #[test]
    fn identity_relayout_is_local() {
        let l = ActLayout::new(grid(), false, 2, 2, 2);
        let msgs = l.routing_to(&l, 0, 1, 1);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].dst, (0, 1, 1));
        assert_eq!(msgs[0].src_rows, msgs[0].dst_rows);
    }
}
