//! Distributed data loading (§V-A "Data loading").
//!
//! Under window parallelism only the first and last pipeline stages touch
//! data, and each rank loads exactly the token rows it owns. The
//! [`WindowSource`] trait exposes row-sliced access to the three fields a
//! training sample needs; [`StoreBackedSource`] reads from chunked stores
//! (the HDF5-slicing analog) so per-rank I/O bytes can be measured, and
//! [`InMemorySource`] serves tests cheaply.

use aeris_core::TrainSample;
use aeris_earthsim::store::ChunkedStore;
use aeris_tensor::Tensor;
use std::collections::HashMap;

/// Which field of a training sample to read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    /// Previous state x_{i−1} (standardized).
    Prev,
    /// Residual target x₀ (standardized).
    Residual,
    /// Forcings.
    Forcing,
}

/// Row-sliced sample access.
pub trait WindowSource: Sync {
    /// Number of samples.
    fn n_samples(&self) -> usize;
    /// Rows `tokens` of `field` for sample `ix` → `[tokens.len(), ch]`.
    fn load_rows(&self, ix: usize, field: Field, tokens: &[usize]) -> Tensor;
}

/// In-memory samples.
pub struct InMemorySource {
    pub samples: Vec<TrainSample>,
}

impl WindowSource for InMemorySource {
    fn n_samples(&self) -> usize {
        self.samples.len()
    }

    fn load_rows(&self, ix: usize, field: Field, tokens: &[usize]) -> Tensor {
        gather(field.of(&self.samples[ix]), tokens)
    }
}

impl Field {
    /// This field of `sample`.
    fn of(self, sample: &TrainSample) -> &Tensor {
        match self {
            Field::Prev => &sample.x_prev,
            Field::Residual => &sample.residual,
            Field::Forcing => &sample.forcings,
        }
    }
}

/// Every row of the samples one `DistributedTrainer::train` call schedules,
/// read from the caller's [`WindowSource`] on the calling thread. The ranks
/// read their rows from here: they run on parked threads that outlive the
/// call, so they cannot borrow the caller's source. A source's row is a
/// function of (sample, field, token), so a row gathered from the snapshot
/// is the row the source would have returned.
pub(crate) struct Snapshot {
    samples: HashMap<usize, TrainSample>,
}

impl Snapshot {
    /// Read all `tokens` rows of every field of each sample in `samples`.
    pub(crate) fn read(
        source: &dyn WindowSource,
        samples: impl IntoIterator<Item = usize>,
        tokens: usize,
    ) -> Self {
        let all: Vec<usize> = (0..tokens).collect();
        let mut rows = HashMap::new();
        for ix in samples {
            rows.entry(ix).or_insert_with(|| TrainSample {
                x_prev: source.load_rows(ix, Field::Prev, &all),
                residual: source.load_rows(ix, Field::Residual, &all),
                forcings: source.load_rows(ix, Field::Forcing, &all),
            });
        }
        Snapshot { samples: rows }
    }

    /// Rows `tokens` of `field` for sample `ix`, as
    /// [`WindowSource::load_rows`] returns them.
    pub(crate) fn load_rows(&self, ix: usize, field: Field, tokens: &[usize]) -> Tensor {
        gather(field.of(&self.samples[&ix]), tokens)
    }
}

/// Chunked-store-backed samples: three stores indexed by sample (time) id.
/// Reads go through window chunks so the byte counters reflect real sliced
/// I/O.
pub struct StoreBackedSource {
    pub prev: ChunkedStore,
    pub residual: ChunkedStore,
    pub forcing: ChunkedStore,
}

impl StoreBackedSource {
    /// Build the stores from in-memory samples.
    pub fn from_samples(samples: &[TrainSample], wh: usize, ww: usize, nlat: usize, nlon: usize) -> Self {
        use aeris_earthsim::store::StoreLayout;
        let c = samples[0].residual.shape()[1];
        let f = samples[0].forcings.shape()[1];
        let mut prev = ChunkedStore::new(StoreLayout::new(nlat, nlon, c, wh, ww));
        let mut residual = ChunkedStore::new(StoreLayout::new(nlat, nlon, c, wh, ww));
        let mut forcing = ChunkedStore::new(StoreLayout::new(nlat, nlon, f, wh, ww));
        for s in samples {
            prev.append_snapshot(&s.x_prev);
            residual.append_snapshot(&s.residual);
            forcing.append_snapshot(&s.forcings);
        }
        StoreBackedSource { prev, residual, forcing }
    }
}

impl WindowSource for StoreBackedSource {
    fn n_samples(&self) -> usize {
        self.residual.n_times()
    }

    fn load_rows(&self, ix: usize, field: Field, tokens: &[usize]) -> Tensor {
        let store = match field {
            Field::Prev => &self.prev,
            Field::Residual => &self.residual,
            Field::Forcing => &self.forcing,
        };
        let l = store.layout();
        // Identify the set of store chunks covering the tokens; read each
        // exactly once.
        let mut chunks: Vec<((usize, usize), Tensor)> = Vec::new();
        let mut out = Tensor::zeros(&[tokens.len(), l.channels]);
        for (row, &tok) in tokens.iter().enumerate() {
            let (gr, gc) = (tok / l.nlon, tok % l.nlon);
            let key = (gr / l.wh, gc / l.ww);
            let at = chunks.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
                chunks.push((key, store.read_window(ix, key.0, key.1)));
                chunks.len() - 1
            });
            let local = (gr % l.wh) * l.ww + (gc % l.ww);
            out.row_mut(row).copy_from_slice(chunks[at].1.row(local));
        }
        out
    }
}

/// Gather rows of a `[tokens, C]` tensor by index.
pub fn gather(src: &Tensor, rows: &[usize]) -> Tensor {
    let c = src.shape()[1];
    let mut out = Tensor::zeros(&[rows.len(), c]);
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(src.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;

    fn samples(n: usize) -> Vec<TrainSample> {
        let mut rng = Rng::seed_from(1);
        (0..n)
            .map(|_| TrainSample {
                x_prev: Tensor::randn(&[8 * 16, 5], &mut rng),
                residual: Tensor::randn(&[8 * 16, 5], &mut rng),
                forcings: Tensor::randn(&[8 * 16, 3], &mut rng),
            })
            .collect()
    }

    #[test]
    fn in_memory_rows_match_direct_indexing() {
        let s = samples(2);
        let src = InMemorySource { samples: s.clone() };
        let tokens = vec![0, 17, 95, 3];
        let rows = src.load_rows(1, Field::Prev, &tokens);
        for (i, &t) in tokens.iter().enumerate() {
            assert_eq!(rows.row(i), s[1].x_prev.row(t));
        }
    }

    #[test]
    fn store_backed_agrees_with_in_memory() {
        let s = samples(3);
        let mem = InMemorySource { samples: s.clone() };
        let store = StoreBackedSource::from_samples(&s, 4, 4, 8, 16);
        let tokens: Vec<usize> = vec![5, 64, 120, 33, 34];
        for field in [Field::Prev, Field::Residual, Field::Forcing] {
            let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let a = mem.load_rows(2, field, &tokens);
            let b = store.load_rows(2, field, &tokens);
            assert_eq!(a.shape(), b.shape());
            assert_eq!(bits(a), bits(b), "{field:?}");
        }
    }

    #[test]
    fn store_backed_reads_only_touched_chunks() {
        let s = samples(1);
        let store = StoreBackedSource::from_samples(&s, 4, 4, 8, 16);
        // Tokens within one 4x4 window: exactly one chunk per store read.
        let tokens: Vec<usize> = vec![0, 1, 16, 17];
        let _ = store.load_rows(0, Field::Prev, &tokens);
        assert_eq!(store.prev.bytes_read(), store.prev.layout().chunk_bytes() as u64);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut rng = Rng::seed_from(2);
        let src = Tensor::randn(&[10, 3], &mut rng);
        let rows = vec![2, 7, 4];
        let g = gather(&src, &rows);
        assert_eq!(g.shape(), &[3, 3]);
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(g.row(i), src.row(r));
        }
    }
}
