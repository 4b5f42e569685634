//! Chunked, window-sliceable binary storage — the HDF5 analog.
//!
//! The paper stores ERA5 as HDF5 precisely because it supports efficient
//! spatial slicing: under window parallelism each node loads only the windows
//! it owns (§V-A "Data loading"), cutting per-node I/O by the WP factor. This
//! module reproduces that property: states are stored chunk-per-(time,
//! window), window reads touch only their chunk, and a byte counter lets the
//! SWiPe tests assert the 1/WP I/O scaling quantitatively.

use aeris_tensor::Tensor;
use bytes::{Buf, BufMut};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: u32 = 0xAE51_5001;

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
    /// A usable layout (see `snapshot_bytes`); panics on one that is not — a
    /// programming error. Files go through [`ChunkedStore::open`], which
    /// returns the same failure as `InvalidData`.
    pub fn new(nlat: usize, nlon: usize, channels: usize, wh: usize, ww: usize) -> Self {
        let layout = StoreLayout { nlat, nlon, channels, wh, ww };
        layout.snapshot_bytes().unwrap_or_else(|why| panic!("{why}"));
        layout
    }

    /// The one statement of a usable layout — no zero dimension, windows
    /// that tile the grid, sizes that fit `usize` — returning the bytes of
    /// one snapshot (`chunks_per_step() * chunk_bytes()`).
    fn snapshot_bytes(&self) -> Result<usize, String> {
        let StoreLayout { nlat, nlon, channels, wh, ww } = *self;
        if [nlat, nlon, channels, wh, ww].contains(&0) {
            return Err(format!("zero dimension in {self:?}"));
        }
        if !nlat.is_multiple_of(wh) || !nlon.is_multiple_of(ww) {
            return Err(format!("windows must tile the grid: {self:?}"));
        }
        [nlon, channels, 4]
            .iter()
            .try_fold(nlat, |bytes, &d| bytes.checked_mul(d))
            .ok_or_else(|| format!("snapshot size overflows: {self:?}"))
    }

    /// Window rows × cols.
    pub fn windows(&self) -> (usize, usize) {
        (self.nlat / self.wh, self.nlon / self.ww)
    }

    /// Bytes per chunk.
    pub fn chunk_bytes(&self) -> usize {
        self.wh * self.ww * self.channels * 4
    }

    /// Chunks per time step.
    pub fn chunks_per_step(&self) -> usize {
        let (a, b) = self.windows();
        a * b
    }
}

enum Backend {
    Mem(Vec<u8>),
    File(File),
}

/// A chunked store of `[tokens, channels]` snapshots.
pub struct ChunkedStore {
    layout: StoreLayout,
    n_times: usize,
    backend: Backend,
    bytes_read: AtomicU64,
}

impl ChunkedStore {
    const HEADER_BYTES: usize = 4 * 7;

    /// In-memory store (tests, small runs).
    pub fn in_memory(layout: StoreLayout) -> Self {
        let mut mem = Vec::new();
        Self::write_header(&mut mem, layout, 0);
        ChunkedStore { layout, n_times: 0, backend: Backend::Mem(mem), bytes_read: AtomicU64::new(0) }
    }

    /// Create a file-backed store (truncates any existing file).
    pub fn create(path: &Path, layout: StoreLayout) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().create(true).write(true).read(true).truncate(true).open(path)?;
        let mut header = Vec::new();
        Self::write_header(&mut header, layout, 0);
        file.write_all(&header)?;
        Ok(ChunkedStore { layout, n_times: 0, backend: Backend::File(file), bytes_read: AtomicU64::new(0) })
    }

    /// Open an existing file-backed store. A header that is not a store's —
    /// wrong magic, an unusable layout, more snapshots than the file holds —
    /// is `InvalidData` (a short one `UnexpectedEof`), never a panic.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let bad = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = [0u8; Self::HEADER_BYTES];
        file.read_exact(&mut header)?;
        let mut buf = &header[..];
        if buf.get_u32_le() != MAGIC {
            return Err(bad("not an AERIS chunked store".into()));
        }
        let [nlat, nlon, channels, wh, ww, n_times] = [(); 6].map(|()| buf.get_u32_le() as usize);
        let layout = StoreLayout { nlat, nlon, channels, wh, ww };
        let snapshot = layout.snapshot_bytes().map_err(bad)?;
        let have = file.metadata()?.len();
        let need = snapshot.checked_mul(n_times).and_then(|b| b.checked_add(Self::HEADER_BYTES));
        if need.is_none_or(|need| need as u64 > have) {
            return Err(bad(format!(
                "header claims {n_times} snapshots of {snapshot} bytes, file holds {have} bytes"
            )));
        }
        Ok(ChunkedStore { layout, n_times, backend: Backend::File(file), bytes_read: AtomicU64::new(0) })
    }

    fn write_header(out: &mut Vec<u8>, layout: StoreLayout, n_times: u32) {
        out.put_u32_le(MAGIC);
        out.put_u32_le(layout.nlat as u32);
        out.put_u32_le(layout.nlon as u32);
        out.put_u32_le(layout.channels as u32);
        out.put_u32_le(layout.wh as u32);
        out.put_u32_le(layout.ww as u32);
        out.put_u32_le(n_times);
    }

    /// The layout.
    pub fn layout(&self) -> StoreLayout {
        self.layout
    }

    /// Number of stored snapshots.
    pub fn n_times(&self) -> usize {
        self.n_times
    }

    /// Total bytes read through window/full reads since creation.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Reset the read counter (per-experiment accounting).
    pub fn reset_bytes_read(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
    }

    fn chunk_offset(&self, t: usize, wr: usize, wc: usize) -> u64 {
        let (_, wcols) = self.layout.windows();
        let chunk_ix = (t * self.layout.chunks_per_step()) + wr * wcols + wc;
        Self::HEADER_BYTES as u64 + (chunk_ix * self.layout.chunk_bytes()) as u64
    }

    /// Append a `[tokens, channels]` snapshot as the next time step.
    pub fn append_snapshot(&mut self, state: &Tensor) -> std::io::Result<usize> {
        let l = self.layout;
        assert_eq!(state.shape(), &[l.nlat * l.nlon, l.channels], "snapshot shape mismatch");
        let (wrows, wcols) = l.windows();
        let t = self.n_times;
        let mut chunk = Vec::with_capacity(l.chunk_bytes());
        for wr in 0..wrows {
            for wc in 0..wcols {
                chunk.clear();
                for r in 0..l.wh {
                    let gr = wr * l.wh + r;
                    for c in 0..l.ww {
                        let gc = wc * l.ww + c;
                        let token = gr * l.nlon + gc;
                        for ch in 0..l.channels {
                            chunk.put_f32_le(state.at(&[token, ch]));
                        }
                    }
                }
                let off = self.chunk_offset(t, wr, wc);
                self.write_at(off, &chunk)?;
            }
        }
        self.n_times += 1;
        // Refresh header's time count.
        let mut header = Vec::new();
        Self::write_header(&mut header, l, self.n_times as u32);
        self.write_at(0, &header)?;
        Ok(t)
    }

    /// Read one window chunk: returns `[wh*ww, channels]` (tokens row-major
    /// within the window). Reads exactly one chunk from the backend.
    pub fn read_window(&self, t: usize, wr: usize, wc: usize) -> std::io::Result<Tensor> {
        let l = self.layout;
        assert!(t < self.n_times, "time index {t} out of range ({})", self.n_times);
        let (wrows, wcols) = l.windows();
        assert!(wr < wrows && wc < wcols);
        let mut buf = vec![0u8; l.chunk_bytes()];
        let off = self.chunk_offset(t, wr, wc);
        self.read_at(off, &mut buf)?;
        self.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let mut data = Vec::with_capacity(l.wh * l.ww * l.channels);
        let mut cursor = &buf[..];
        for _ in 0..l.wh * l.ww * l.channels {
            data.push(cursor.get_f32_le());
        }
        Ok(Tensor::from_vec(&[l.wh * l.ww, l.channels], data))
    }

    /// Read a full snapshot (all windows re-assembled to `[tokens, channels]`).
    pub fn read_snapshot(&self, t: usize) -> std::io::Result<Tensor> {
        let l = self.layout;
        let (wrows, wcols) = l.windows();
        let mut out = Tensor::zeros(&[l.nlat * l.nlon, l.channels]);
        for wr in 0..wrows {
            for wc in 0..wcols {
                let win = self.read_window(t, wr, wc)?;
                for r in 0..l.wh {
                    for c in 0..l.ww {
                        let token = (wr * l.wh + r) * l.nlon + (wc * l.ww + c);
                        let wtoken = r * l.ww + c;
                        for ch in 0..l.channels {
                            *out.at_mut(&[token, ch]) = win.at(&[wtoken, ch]);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> std::io::Result<()> {
        match &mut self.backend {
            Backend::Mem(mem) => {
                let end = off as usize + data.len();
                if mem.len() < end {
                    mem.resize(end, 0);
                }
                mem[off as usize..end].copy_from_slice(data);
                Ok(())
            }
            Backend::File(f) => {
                f.seek(SeekFrom::Start(off))?;
                f.write_all(data)
            }
        }
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
        match &self.backend {
            Backend::Mem(mem) => {
                let end = off as usize + buf.len();
                assert!(end <= mem.len(), "read past end of store");
                buf.copy_from_slice(&mem[off as usize..end]);
                Ok(())
            }
            Backend::File(f) => {
                use std::os::unix::fs::FileExt;
                f.read_exact_at(buf, off)
            }
        }
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

    #[test]
    fn roundtrip_in_memory() {
        let mut store = ChunkedStore::in_memory(layout());
        let s0 = snapshot(1);
        let s1 = snapshot(2);
        store.append_snapshot(&s0).unwrap();
        store.append_snapshot(&s1).unwrap();
        assert_eq!(store.n_times(), 2);
        assert!(store.read_snapshot(0).unwrap().max_abs_diff(&s0) < 1e-7);
        assert!(store.read_snapshot(1).unwrap().max_abs_diff(&s1) < 1e-7);
    }

    #[test]
    fn window_read_matches_full_read() {
        let mut store = ChunkedStore::in_memory(layout());
        let s = snapshot(3);
        store.append_snapshot(&s).unwrap();
        let win = store.read_window(0, 1, 2).unwrap();
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
        let mut store = ChunkedStore::in_memory(layout());
        store.append_snapshot(&snapshot(4)).unwrap();
        store.reset_bytes_read();
        let _ = store.read_window(0, 0, 0).unwrap();
        assert_eq!(store.bytes_read(), layout().chunk_bytes() as u64);
        // Full snapshot reads all chunks.
        store.reset_bytes_read();
        let _ = store.read_snapshot(0).unwrap();
        assert_eq!(
            store.bytes_read(),
            (layout().chunk_bytes() * layout().chunks_per_step()) as u64
        );
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join("aeris_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ast");
        {
            let mut store = ChunkedStore::create(&path, layout()).unwrap();
            store.append_snapshot(&snapshot(5)).unwrap();
            store.append_snapshot(&snapshot(6)).unwrap();
        }
        let store = ChunkedStore::open(&path).unwrap();
        assert_eq!(store.n_times(), 2);
        assert_eq!(store.layout(), layout());
        assert!(store.read_snapshot(1).unwrap().max_abs_diff(&snapshot(6)) < 1e-7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_corrupt_headers_with_typed_errors() {
        use std::io::ErrorKind::{InvalidData, UnexpectedEof};
        let dir = std::env::temp_dir().join(format!("aeris_store_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.ast");
        {
            let mut store = ChunkedStore::create(&path, layout()).unwrap();
            store.append_snapshot(&snapshot(7)).unwrap();
            store.append_snapshot(&snapshot(8)).unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        // Whatever `open` accepts must then read without panicking (a panic
        // fails the test); what it refuses, it refuses with a typed error.
        let probe = |bytes: &[u8], what: String| {
            std::fs::write(&path, bytes).unwrap();
            match ChunkedStore::open(&path) {
                Ok(store) => {
                    for t in 0..store.n_times() {
                        let _ = store.read_snapshot(t);
                    }
                    true
                }
                Err(e) => {
                    assert!(matches!(e.kind(), InvalidData | UnexpectedEof), "{what}: {e:?}");
                    false
                }
            }
        };
        assert!(probe(&intact, "intact".into()));
        // Every truncation loses part of the header or of a snapshot.
        for len in 0..intact.len() {
            assert!(!probe(&intact[..len], format!("cut at {len}")), "cut at {len} opened");
        }
        // Every single-bit flip of the header: the magic, a dimension that no
        // longer tiles / is zero / outgrows the file, or a snapshot count.
        let mut survivors = 0;
        for bit in 0..ChunkedStore::HEADER_BYTES * 8 {
            let mut flipped = intact.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            survivors += probe(&flipped, format!("flip of bit {bit}")) as usize;
        }
        // Fewer channels or snapshots than written still fit the file.
        assert!(survivors > 0 && survivors < 16, "{survivors} flipped headers opened");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic]
    fn out_of_range_time_panics() {
        let store = ChunkedStore::in_memory(layout());
        let _ = store.read_window(0, 0, 0);
    }

    #[test]
    #[should_panic]
    fn bad_snapshot_shape_rejected() {
        let mut store = ChunkedStore::in_memory(layout());
        let bad = Tensor::zeros(&[10, 3]);
        let _ = store.append_snapshot(&bad);
    }
}
