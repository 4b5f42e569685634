//! Parameter storage and tape binding.
//!
//! [`ParamStore`] owns the FP32 master copy of every learnable tensor in a
//! model. Layers hold [`ParamId`]s into the store, so the same layer objects
//! can be (a) trained single-rank, (b) replicated across SWiPe model-parallel
//! ranks, or (c) swapped for EMA shadow weights at inference, just by handing
//! them a different store.
//!
//! The store is copy-on-write: each tensor sits behind an `Arc`, so a cloned
//! store, and every tape a [`Binding`] binds a parameter onto, shares the
//! buffer instead of copying it. [`ParamStore::get_mut`] copies a tensor only
//! while something else still shares it; with no tape or clone alive, an
//! optimizer step writes in place. [`ParamStore::snapshot`] and
//! [`ParamStore::restore`] deep-copy.

use std::sync::Arc;

use aeris_autodiff::{Grads, Tape, Var};
use aeris_tensor::{gemm::gemm, sweeps, Rng, Tensor};

use crate::linear::Linear;
use crate::norm::RmsNorm;

/// Index of a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// Owns parameter tensors (FP32 master weights) and their names; a clone
/// shares every tensor until one side writes it.
#[derive(Clone, Default)]
pub struct ParamStore {
    values: Vec<Arc<Tensor>>,
    names: Vec<String>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter tensor under `name`; returns its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.values.push(Arc::new(value));
        self.names.push(name.into());
        ParamId(self.values.len() - 1)
    }

    /// Register a truncated-normal-initialized parameter (std 0.02, the
    /// standard transformer init) of the given shape.
    pub fn register_normal(&mut self, name: impl Into<String>, shape: &[usize], std: f32, rng: &mut Rng) -> ParamId {
        let mut t = Tensor::zeros(shape);
        for v in t.data_mut() {
            // Truncate at 2 std to avoid outlier weights.
            let mut x = rng.normal();
            while x.abs() > 2.0 {
                x = rng.normal();
            }
            *v = x * std;
        }
        self.register(name, t)
    }

    /// Register a zero-initialized parameter.
    pub fn register_zeros(&mut self, name: impl Into<String>, shape: &[usize]) -> ParamId {
        self.register(name, Tensor::zeros(shape))
    }

    /// Register a ones-initialized parameter (norm gains).
    pub fn register_ones(&mut self, name: impl Into<String>, shape: &[usize]) -> ParamId {
        self.register(name, Tensor::ones(shape))
    }

    /// Number of parameters tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|t| t.len()).sum()
    }

    /// Borrow a parameter value.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutably borrow a parameter value (optimizer updates): copied first
    /// only when a tape or a cloned store still shares it.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.values[id.0])
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterate `(id, name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .zip(&self.names)
            .enumerate()
            .map(|(i, (v, n))| (ParamId(i), n.as_str(), &**v))
    }

    /// Deep-copy all values (EMA shadow, checkpointing).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.values.iter().map(|v| Tensor::clone(v)).collect()
    }

    /// Restore values from a snapshot taken on an identical store layout:
    /// each parameter gets a fresh copy, and whatever shared the old one
    /// keeps it.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(snapshot.len(), self.values.len());
        for (v, s) in self.values.iter_mut().zip(snapshot) {
            assert_eq!(v.shape(), s.shape());
            *v = Arc::new(s.clone());
        }
    }
}

/// Per-tape cache binding parameters onto tape leaves, so a parameter used by
/// several layers (or several windows) appears exactly once in the graph and
/// its gradient accumulates across all uses.
pub struct Binding {
    vars: Vec<Option<Var>>,
}

impl Binding {
    /// A binding sized for `store`.
    pub fn new(store: &ParamStore) -> Self {
        Binding { vars: vec![None; store.len()] }
    }

    /// The tape leaf for parameter `id`, creating it on first use. The leaf
    /// shares the store's tensor ([`Tape::shared_leaf`]): binding copies no
    /// parameter.
    pub fn var(&mut self, tape: &mut Tape, store: &ParamStore, id: ParamId) -> Var {
        if let Some(v) = self.vars[id.0] {
            return v;
        }
        let v = tape.shared_leaf(Arc::clone(&store.values[id.0]));
        self.vars[id.0] = Some(v);
        v
    }

    /// Collect gradients for every bound parameter after `tape.backward`.
    /// Unused parameters get `None`.
    pub fn collect_grads(&self, grads: &mut Grads) -> Vec<Option<Tensor>> {
        self.vars
            .iter()
            .map(|slot| slot.and_then(|v| grads.take(v)))
            .collect()
    }

    /// Add every bound parameter's gradient into `into` (store order, one
    /// slot per parameter): the first contribution moves in, later ones add.
    /// For summing over samples or microbatches.
    pub fn accumulate_grads(&self, grads: &mut Grads, into: &mut [Option<Tensor>]) {
        assert_eq!(into.len(), self.vars.len(), "one gradient slot per parameter");
        for (slot, var) in into.iter_mut().zip(&self.vars) {
            match (slot.as_mut(), var.and_then(|v| grads.take(v))) {
                (Some(acc), Some(g)) => acc.add_assign(&g),
                (None, Some(g)) => *slot = Some(g),
                _ => {}
            }
        }
    }
}

/// Gradient slots filled without a tape, as [`Binding::accumulate_grads`]
/// fills them: a parameter's first contribution moves in, later ones add.
/// Every hand-written backward (`AerisModel::loss_grads`, SWiPe's stages)
/// writes its parameter gradients through one.
pub struct Slots<'a> {
    store: &'a ParamStore,
    acc: &'a mut [Option<Tensor>],
}

impl<'a> Slots<'a> {
    /// The slots `acc` (one per parameter of `store`, in store order).
    pub fn new(store: &'a ParamStore, acc: &'a mut [Option<Tensor>]) -> Self {
        assert_eq!(acc.len(), store.len(), "one gradient slot per parameter");
        Slots { store, acc }
    }

    /// Parameter `id`'s gradient, written whole by `f` into a slice of its
    /// size: straight into a new tensor when the slot is empty, else into
    /// `dw` and added.
    pub fn put(&mut self, id: ParamId, dw: &mut [f32], f: impl FnOnce(&mut [f32])) {
        match &mut self.acc[id.0] {
            Some(sum) => {
                let g = &mut dw[..sum.len()];
                f(g);
                sweeps::add_assign(sum.data_mut(), g);
            }
            slot @ None => {
                let mut g = Tensor::for_overwrite(self.store.get(id).shape());
                f(g.data_mut());
                *slot = Some(g);
            }
        }
    }

    /// Columns `c0..c0 + n` of `g` (rows of `width`), `n` the width of
    /// parameter `id`: what the tape's `slice_cols` hands on.
    pub fn add_cols(&mut self, id: ParamId, g: &[f32], width: usize, c0: usize) {
        let n = self.store.get(id).shape()[1];
        let cols = g.chunks_exact(width).map(|row| &row[c0..c0 + n]);
        match &mut self.acc[id.0] {
            Some(sum) => sum.data_mut().chunks_exact_mut(n).zip(cols).for_each(|(s, c)| sweeps::add_assign(s, c)),
            slot @ None => *slot = Some(Tensor::from_vec(self.store.get(id).shape(), cols.flatten().copied().collect())),
        }
    }

    /// A linear layer's parameter gradients for the upstream gradient `d`
    /// at input `x`: the bias's row sum of `d` (when it has a bias) and the
    /// weight's `xᵀ·d`, the tape's TN GEMM. The input gradient is
    /// [`Linear::input_grad`], a separate call.
    pub fn linear(&mut self, lin: &Linear, x: &[f32], d: &[f32], dw: &mut [f32]) {
        if let Some(b) = lin.b {
            self.put(b, dw, |db| {
                db.fill(0.0);
                sweeps::add_rows_backward(db, d);
            });
        }
        let rows = d.len() / lin.out_dim;
        self.put(lin.w, dw, |g| gemm(lin.in_dim, lin.out_dim, rows, x, true, d, false, g));
    }

    /// The backward of [`RmsNorm::apply`] at input `x` (with its `inv_rms`)
    /// for the upstream gradient `d`: the gain's gradient, and the input
    /// gradient into `dx` from the same sweep, the tape op's backward.
    pub fn rmsnorm(&mut self, norm: &RmsNorm, x: &[f32], d: &[f32], inv_rms: &[f32], dx: &mut [f32], dw: &mut [f32]) {
        let gamma = self.store.get(norm.gamma).data();
        self.put(norm.gamma, dw, |dg| {
            dg.fill(0.0);
            sweeps::rmsnorm_rows_backward(dx, dg, x, d, gamma, inv_rms);
        });
    }
}

/// Turn the loss and gradient sums that [`Binding::accumulate_grads`] built
/// over `n` samples into the batch mean: every gradient is scaled by `1/n`
/// in place and the mean loss comes back.
pub fn batch_mean(acc: &mut [Option<Tensor>], total_loss: f64, n: usize) -> f64 {
    assert!(n > 0, "batch mean over an empty batch");
    let inv = 1.0 / n as f32;
    for g in acc.iter_mut().flatten() {
        g.scale_inplace(inv);
    }
    total_loss / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let a = store.register_normal("w", &[3, 4], 0.02, &mut rng);
        let b = store.register_zeros("b", &[4]);
        let g = store.register_ones("gamma", &[4]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.num_scalars(), 12 + 4 + 4);
        assert_eq!(store.name(a), "w");
        assert_eq!(store.get(b).abs_max(), 0.0);
        assert_eq!(store.get(g).min(), 1.0);
    }

    #[test]
    fn normal_init_is_truncated() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let w = store.register_normal("w", &[1000], 0.02, &mut rng);
        assert!(store.get(w).abs_max() <= 0.04 + 1e-9);
    }

    #[test]
    fn binding_dedups_leaves_and_accumulates_grads() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[2.0]));
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let v1 = binding.var(&mut tape, &store, w);
        let v2 = binding.var(&mut tape, &store, w);
        assert_eq!(v1, v2);
        // loss = w*w + 3w => grad 2w+3 = 7
        let sq = tape.mul(v1, v2);
        let three = tape.scale(v1, 3.0);
        let s = tape.add(sq, three);
        let loss = tape.sum(s);
        let mut grads = tape.backward(loss);
        let collected = binding.collect_grads(&mut grads);
        assert_eq!(collected.len(), 1);
        assert!((collected[0].as_ref().unwrap().data()[0] - 7.0).abs() < 1e-5);
    }

    /// A bound parameter's value is the store's own buffer, not a copy.
    #[test]
    fn a_bound_parameter_shares_the_store_buffer() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[2.0, 3.0]));
        let mut tape = Tape::new();
        let mut binding = Binding::new(&store);
        let v = binding.var(&mut tape, &store, w);
        assert_eq!(tape.value(v).data().as_ptr(), store.get(w).data().as_ptr());
    }

    /// A write through `get_mut` copies a tensor still shared with a cloned
    /// store, so the clone keeps its value; the unshared writer then writes
    /// in place.
    #[test]
    fn get_mut_copies_only_a_shared_parameter() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[1.0, 2.0]));
        let clone = store.clone();
        assert_eq!(clone.get(w).data().as_ptr(), store.get(w).data().as_ptr());
        store.get_mut(w).data_mut()[0] = 5.0;
        assert_eq!(clone.get(w).data(), &[1.0, 2.0]);
        let at = store.get(w).data().as_ptr();
        assert_ne!(at, clone.get(w).data().as_ptr());
        store.get_mut(w).data_mut()[1] = 6.0;
        assert_eq!((store.get(w).data(), store.get(w).data().as_ptr()), (&[5.0, 6.0][..], at));
    }

    #[test]
    fn accumulate_grads_moves_first_then_adds_and_skips_unbound() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[2.0]));
        let _unused = store.register("u", Tensor::from_slice(&[1.0]));
        let mut acc: Vec<Option<Tensor>> = vec![None; store.len()];
        for _ in 0..2 {
            let mut tape = Tape::new();
            let mut binding = Binding::new(&store);
            let v = binding.var(&mut tape, &store, w);
            let sq = tape.mul(v, v);
            let loss = tape.sum(sq);
            let mut grads = tape.backward(loss);
            binding.accumulate_grads(&mut grads, &mut acc);
        }
        assert_eq!(acc[0].as_ref().unwrap().data(), &[8.0]); // 2 · 2w
        assert!(acc[1].is_none());
    }

    #[test]
    fn batch_mean_scales_every_bound_gradient_and_the_loss() {
        let mut acc = vec![Some(Tensor::from_slice(&[8.0, 2.0])), None];
        assert_eq!(batch_mean(&mut acc, 3.0, 4), 0.75);
        assert_eq!(acc[0].as_ref().unwrap().data(), &[2.0, 0.5]);
        assert!(acc[1].is_none());
    }

    #[test]
    #[should_panic(expected = "batch mean over an empty batch")]
    fn batch_mean_rejects_an_empty_batch() {
        batch_mean(&mut [], 0.0, 0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_slice(&[1.0, 2.0]));
        let snap = store.snapshot();
        store.get_mut(w).data_mut()[0] = 99.0;
        store.restore(&snap);
        assert_eq!(store.get(w).data(), &[1.0, 2.0]);
    }
}
