//! Swin window geometry: partition, merge, and cyclic shift index math.
//!
//! Activations are kept as `[H*W, C]` token matrices (row-major over the
//! lat-lon grid). Everything here is pure index computation producing gather
//! permutations, which both the single-rank model (`aeris-core`) and the
//! distributed runtime (`aeris-swipe`, for its round-robin window placement
//! and shift exchanges) consume.
//!
//! Note on shift masking: the original Swin masks attention across the
//! wrap-around seam after a cyclic shift. Global weather fields are periodic
//! in longitude, so the wrap is physically meaningful along W; the latitude
//! seam is an accepted approximation (the paper trains on pole-trimmed ERA5),
//! and we follow it.

/// Geometry of an image partitioned into non-overlapping attention windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowGrid {
    /// Image height in tokens (latitude).
    pub h: usize,
    /// Image width in tokens (longitude).
    pub w: usize,
    /// Window height.
    pub wh: usize,
    /// Window width.
    pub ww: usize,
}

impl WindowGrid {
    /// Construct; the window must tile the image exactly.
    pub fn new(h: usize, w: usize, wh: usize, ww: usize) -> Self {
        assert!(h.is_multiple_of(wh), "window height {wh} must divide image height {h}");
        assert!(w.is_multiple_of(ww), "window width {ww} must divide image width {w}");
        WindowGrid { h, w, wh, ww }
    }

    /// Number of window rows.
    pub fn rows(&self) -> usize {
        self.h / self.wh
    }

    /// Number of window columns.
    pub fn cols(&self) -> usize {
        self.w / self.ww
    }

    /// Total number of windows.
    pub fn count(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Tokens per window.
    pub fn window_len(&self) -> usize {
        self.wh * self.ww
    }

    /// Total tokens in the image.
    pub fn tokens(&self) -> usize {
        self.h * self.w
    }

    /// Flattened token indices of window `(wr, wc)`, row-major within the
    /// window.
    pub fn window_token_indices(&self, wr: usize, wc: usize) -> Vec<usize> {
        assert!(wr < self.rows() && wc < self.cols());
        let mut out = Vec::with_capacity(self.window_len());
        for r in 0..self.wh {
            let gr = wr * self.wh + r;
            let base = gr * self.w + wc * self.ww;
            out.extend(base..base + self.ww);
        }
        out
    }

    /// Gather permutation producing window-major layout: all tokens of window
    /// (0,0), then (0,1), … row-major over windows.
    pub fn partition_perm(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.tokens());
        for wr in 0..self.rows() {
            for wc in 0..self.cols() {
                out.extend(self.window_token_indices(wr, wc));
            }
        }
        out
    }

    /// Gather permutation for a cyclic roll: output token at `(r, c)` comes
    /// from input token at `((r + sh) mod H, (c + sw) mod W)` — i.e. the image
    /// content moves up-left by `(sh, sw)`, matching `torch.roll(x, (-sh,-sw))`
    /// used by Swin before partitioning shifted windows.
    pub fn roll_perm(&self, sh: usize, sw: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.tokens());
        for r in 0..self.h {
            for c in 0..self.w {
                let sr = (r + sh) % self.h;
                let sc = (c + sw) % self.w;
                out.push(sr * self.w + sc);
            }
        }
        out
    }

    /// The standard Swin shift: half a window in each direction.
    pub fn half_shift(&self) -> (usize, usize) {
        (self.wh / 2, self.ww / 2)
    }

    /// Round-robin owner of window `(wr, wc)` on an `a × b` WP rank grid
    /// (paper Fig. 2a middle: windows distributed round-robin in X and Y so
    /// that shifted windows land on the same ranks).
    pub fn round_robin_owner(&self, wr: usize, wc: usize, a: usize, b: usize) -> (usize, usize) {
        (wr % a, wc % b)
    }

    /// All windows owned by WP rank `(ra, rb)` under round-robin placement.
    pub fn windows_of_owner(&self, ra: usize, rb: usize, a: usize, b: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for wr in (ra..self.rows()).step_by(a) {
            for wc in (rb..self.cols()).step_by(b) {
                out.push((wr, wc));
            }
        }
        out
    }
}

/// Invert a permutation.
pub fn invert_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        debug_assert!(inv[p] == usize::MAX, "not a permutation");
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let g = WindowGrid::new(8, 12, 4, 4);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.cols(), 3);
        assert_eq!(g.count(), 6);
        assert_eq!(g.window_len(), 16);
        assert_eq!(g.tokens(), 96);
    }

    #[test]
    #[should_panic]
    fn non_divisible_window_rejected() {
        WindowGrid::new(10, 12, 4, 4);
    }

    #[test]
    fn window_tokens_are_correct() {
        let g = WindowGrid::new(4, 4, 2, 2);
        // window (1,0) covers rows 2-3, cols 0-1
        assert_eq!(g.window_token_indices(1, 0), vec![8, 9, 12, 13]);
        assert_eq!(g.window_token_indices(0, 1), vec![2, 3, 6, 7]);
    }

    #[test]
    fn partition_perm_is_a_permutation_and_invertible() {
        let g = WindowGrid::new(6, 8, 3, 4);
        let p = g.partition_perm();
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>());
        let inv = invert_perm(&p);
        for i in 0..p.len() {
            assert_eq!(inv[p[i]], i);
        }
    }

    #[test]
    fn roll_matches_reference_semantics() {
        let g = WindowGrid::new(3, 4, 3, 4);
        let p = g.roll_perm(1, 2);
        // output (0,0) should read input (1,2) = index 6
        assert_eq!(p[0], 6);
        // output (2,3) should read input ((2+1)%3,(3+2)%4) = (0,1) = 1
        assert_eq!(p[2 * 4 + 3], 1);
    }

    #[test]
    fn roll_unroll_roundtrip() {
        let g = WindowGrid::new(6, 8, 2, 4);
        let (sh, sw) = g.half_shift();
        let roll = g.roll_perm(sh, sw);
        // Rolling back by the complement of the shift undoes the roll.
        let unroll = g.roll_perm(g.h - sh, g.w - sw);
        for i in 0..g.tokens() {
            assert_eq!(roll[unroll[i]], i);
            assert_eq!(unroll[roll[i]], i);
        }
    }

    #[test]
    fn round_robin_covers_all_windows_exactly_once() {
        let g = WindowGrid::new(16, 16, 2, 2); // 8x8 windows
        let (a, b) = (2, 4);
        let mut seen = vec![false; g.count()];
        for ra in 0..a {
            for rb in 0..b {
                for (wr, wc) in g.windows_of_owner(ra, rb, a, b) {
                    assert_eq!(g.round_robin_owner(wr, wc, a, b), (ra, rb));
                    let ix = wr * g.cols() + wc;
                    assert!(!seen[ix], "window seen twice");
                    seen[ix] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The property SWiPe exploits (paper §V-A): under round-robin placement,
    /// shifting windows by half a window moves each window's content between
    /// the SAME pair of ranks for every window a rank owns, giving the batched
    /// send/recv pattern. We verify the weaker invariant that each owner's
    /// window count is balanced.
    #[test]
    fn round_robin_is_balanced() {
        let g = WindowGrid::new(24, 24, 3, 3); // 8x8 windows
        let (a, b) = (4, 4);
        let mut counts = vec![0usize; a * b];
        for wr in 0..g.rows() {
            for wc in 0..g.cols() {
                let (ra, rb) = g.round_robin_owner(wr, wc, a, b);
                counts[ra * b + rb] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == g.count() / (a * b)));
    }

    #[test]
    fn invert_perm_identity() {
        let p: Vec<usize> = vec![3, 1, 0, 2];
        assert_eq!(invert_perm(&invert_perm(&p)), p);
    }
}
