//! Training samples of a distributed run (§V-A "Data loading").
//!
//! In the paper each node reads only the windows it owns from HDF5. Here the
//! samples are in memory: a [`DistributedTrainer::train`] call copies each
//! sample its schedule names, once, on the calling thread, and every input-
//! and head-stage rank gathers the token rows it owns from that copy. No
//! rank reads storage.
//!
//! [`DistributedTrainer::train`]: crate::DistributedTrainer::train

use aeris_core::TrainSample;
use aeris_tensor::Tensor;

/// The samples a training schedule indexes.
pub struct InMemorySource {
    pub samples: Vec<TrainSample>,
}

/// Gather rows of a `[tokens, C]` tensor by index.
pub(crate) fn gather(src: &Tensor, rows: &[usize]) -> Tensor {
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
