//! Chunked, window-sliceable storage — the HDF5 analog.
//!
//! The paper stores ERA5 as HDF5 precisely because it supports efficient
//! spatial slicing: under window parallelism each node loads only the windows
//! it owns (§V-A "Data loading"), cutting per-node I/O by the WP factor. This
//! module reproduces that property in memory: states are stored
//! chunk-per-(time, window), a window read touches only its chunk, and a byte
//! counter lets the SWiPe tests assert the 1/WP I/O scaling quantitatively.

use aeris_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Geometry of a store: grid, channels, and chunking window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreLayout {
    pub nlat: usize,
    pub nlon: usize,
    pub channels: usize,
    /// Chunk window height (grid rows).
    pub wh: usize,
    /// Chunk window width (grid cols).
    pub ww: usize,
}

impl StoreLayout {
    /// A usable layout: no zero dimension, windows that tile the grid.
    /// Panics on one that is not — a programming error.
    pub fn new(nlat: usize, nlon: usize, channels: usize, wh: usize, ww: usize) -> Self {
        let layout = StoreLayout { nlat, nlon, channels, wh, ww };
        assert!(![nlat, nlon, channels, wh, ww].contains(&0), "zero dimension in {layout:?}");
        assert!(
            nlat.is_multiple_of(wh) && nlon.is_multiple_of(ww),
            "windows must tile the grid: {layout:?}"
        );
        layout
    }

    /// Window rows × cols.
    pub fn windows(&self) -> (usize, usize) {
        (self.nlat / self.wh, self.nlon / self.ww)
    }

    /// Bytes per chunk (f32 values).
    pub fn chunk_bytes(&self) -> usize {
        self.wh * self.ww * self.channels * 4
    }

    /// Chunks per time step.
    pub fn chunks_per_step(&self) -> usize {
        let (a, b) = self.windows();
        a * b
    }
}

/// A chunked store of `[tokens, channels]` snapshots.
pub struct ChunkedStore {
    layout: StoreLayout,
    /// One `[wh·ww, channels]` chunk per (time, window), windows row-major
    /// within a time step.
    chunks: Vec<Vec<f32>>,
    bytes_read: AtomicU64,
}

impl ChunkedStore {
    /// An empty store.
    pub fn new(layout: StoreLayout) -> Self {
        ChunkedStore { layout, chunks: Vec::new(), bytes_read: AtomicU64::new(0) }
    }

    /// The layout.
    pub fn layout(&self) -> StoreLayout {
        self.layout
    }

    /// Number of stored snapshots.
    pub fn n_times(&self) -> usize {
        self.chunks.len() / self.layout.chunks_per_step()
    }

    /// Total bytes read through [`Self::read_window`] since creation.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Append a `[tokens, channels]` snapshot as the next time step; returns
    /// its time index.
    pub fn append_snapshot(&mut self, state: &Tensor) -> usize {
        let l = self.layout;
        assert_eq!(state.shape(), &[l.nlat * l.nlon, l.channels], "snapshot shape mismatch");
        let t = self.n_times();
        let (wrows, wcols) = l.windows();
        for wr in 0..wrows {
            for wc in 0..wcols {
                let mut chunk = Vec::with_capacity(l.wh * l.ww * l.channels);
                for r in 0..l.wh {
                    let row0 = (wr * l.wh + r) * l.nlon + wc * l.ww;
                    for token in row0..row0 + l.ww {
                        chunk.extend_from_slice(state.row(token));
                    }
                }
                self.chunks.push(chunk);
            }
        }
        t
    }

    /// Read one window chunk: returns `[wh*ww, channels]` (tokens row-major
    /// within the window). Reads exactly one chunk and counts its bytes.
    pub fn read_window(&self, t: usize, wr: usize, wc: usize) -> Tensor {
        let l = self.layout;
        assert!(t < self.n_times(), "time index {t} out of range ({})", self.n_times());
        let (wrows, wcols) = l.windows();
        assert!(wr < wrows && wc < wcols);
        let chunk = &self.chunks[t * l.chunks_per_step() + wr * wcols + wc];
        self.bytes_read.fetch_add(l.chunk_bytes() as u64, Ordering::Relaxed);
        Tensor::from_vec(&[l.wh * l.ww, l.channels], chunk.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;

    fn layout() -> StoreLayout {
        StoreLayout::new(8, 16, 3, 4, 4)
    }

    fn snapshot(seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        Tensor::randn(&[8 * 16, 3], &mut rng)
    }

    /// Every window of snapshot `t`, re-assembled to `[tokens, channels]`.
    fn reassembled(store: &ChunkedStore, t: usize) -> Tensor {
        let l = store.layout();
        let (wrows, wcols) = l.windows();
        let mut out = Tensor::zeros(&[l.nlat * l.nlon, l.channels]);
        for wr in 0..wrows {
            for wc in 0..wcols {
                let win = store.read_window(t, wr, wc);
                for r in 0..l.wh {
                    for c in 0..l.ww {
                        let token = (wr * l.wh + r) * l.nlon + (wc * l.ww + c);
                        out.row_mut(token).copy_from_slice(win.row(r * l.ww + c));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn roundtrip_in_memory() {
        let mut store = ChunkedStore::new(layout());
        let s0 = snapshot(1);
        let s1 = snapshot(2);
        assert_eq!(store.append_snapshot(&s0), 0);
        assert_eq!(store.append_snapshot(&s1), 1);
        assert_eq!(store.n_times(), 2);
        assert_eq!(reassembled(&store, 0), s0);
        assert_eq!(reassembled(&store, 1), s1);
    }

    #[test]
    fn window_read_matches_full_read() {
        let mut store = ChunkedStore::new(layout());
        let s = snapshot(3);
        store.append_snapshot(&s);
        let win = store.read_window(0, 1, 2);
        assert_eq!(win.shape(), &[16, 3]);
        // Window (1,2) covers grid rows 4..8, cols 8..12.
        for r in 0..4 {
            for c in 0..4 {
                let token = (4 + r) * 16 + (8 + c);
                for ch in 0..3 {
                    assert_eq!(win.at(&[r * 4 + c, ch]), s.at(&[token, ch]));
                }
            }
        }
    }

    #[test]
    fn window_read_touches_one_chunk_of_bytes() {
        let mut store = ChunkedStore::new(layout());
        store.append_snapshot(&snapshot(4));
        assert_eq!(store.bytes_read(), 0, "appends are not reads");
        let _ = store.read_window(0, 0, 0);
        assert_eq!(store.bytes_read(), layout().chunk_bytes() as u64);
        // A full snapshot reads all chunks.
        let before = store.bytes_read();
        let _ = reassembled(&store, 0);
        assert_eq!(
            store.bytes_read() - before,
            (layout().chunk_bytes() * layout().chunks_per_step()) as u64
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_time_panics() {
        let store = ChunkedStore::new(layout());
        let _ = store.read_window(0, 0, 0);
    }

    #[test]
    #[should_panic]
    fn bad_snapshot_shape_rejected() {
        let mut store = ChunkedStore::new(layout());
        let bad = Tensor::zeros(&[10, 3]);
        let _ = store.append_snapshot(&bad);
    }
}
