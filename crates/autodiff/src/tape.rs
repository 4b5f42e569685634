//! The differentiation tape.

use aeris_tensor::{matmul, matmul_nt, matmul_tn, sweeps, Tensor};
use std::sync::Arc;

/// Handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape that
/// created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Backward closure: receives the node's upstream gradient *by value* (the
/// reverse sweep is done with it afterwards), so trivial ops — `add`,
/// `add_scalar`, `reshape`, `scale` — forward or transform the buffer in
/// place instead of cloning it.
pub(crate) type BackFn = Box<dyn Fn(Tensor, &[Node]) -> Vec<Tensor>>;

/// A node's value: computed by an op and owned by the tape, or shared with
/// its owner (a parameter store's tensor, bound by [`Tape::shared_leaf`]).
enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

pub(crate) struct Node {
    value: Value,
    parents: Vec<usize>,
    backward: Option<BackFn>,
    requires_grad: bool,
}

impl Node {
    #[inline]
    pub(crate) fn value(&self) -> &Tensor {
        match &self.value {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }

    /// False for a constant leaf: the sweep passes it no cotangent.
    fn takes_grad(&self) -> bool {
        self.requires_grad || self.backward.is_some()
    }
}

/// Gradients produced by [`Tape::backward`].
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// Move the gradient out (used by optimizers to avoid a clone).
    pub fn take(&mut self, var: Var) -> Option<Tensor> {
        self.grads.get_mut(var.0).and_then(|g| g.take())
    }
}

/// A single-threaded reverse-mode AD tape.
///
/// Build the forward computation with the op methods, then call
/// [`Tape::backward`] on a scalar node. The tape owns every value its ops
/// compute, and drops them with itself to release activation memory; a leaf
/// bound with [`Tape::shared_leaf`] shares its value with the parameter store
/// instead of copying it, so a weight enters the graph by reference and its
/// gradient is keyed by its leaf.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total activation memory held by the tape, in f32 elements, shared
    /// leaves included.
    pub fn activation_elems(&self) -> usize {
        self.nodes.iter().map(|n| n.value().len()).sum()
    }

    /// Record a node.
    pub(crate) fn push(&mut self, value: Tensor, parents: Vec<usize>, backward: Option<BackFn>, rg: bool) -> Var {
        self.push_value(Value::Owned(value), parents, backward, rg)
    }

    fn push_value(&mut self, value: Value, parents: Vec<usize>, backward: Option<BackFn>, rg: bool) -> Var {
        self.nodes.push(Node { value, parents, backward, requires_grad: rg });
        Var(self.nodes.len() - 1)
    }

    /// A differentiable leaf (parameter or input needing gradients).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, vec![], None, true)
    }

    /// A differentiable leaf sharing `value` with its owner: no copy is made,
    /// and the owner's tensor cannot change while the tape holds it.
    pub fn shared_leaf(&mut self, value: Arc<Tensor>) -> Var {
        self.push_value(Value::Shared(value), vec![], None, true)
    }

    /// A non-differentiable constant; gradients are not accumulated for it.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, vec![], None, false)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        self.nodes[v.0].value()
    }

    // ---- elementwise ----

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|d, _| {
                let da = d.clone();
                vec![da, d]
            })),
            true,
        )
    }

    /// Hadamard product `a ⊙ b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let (pa, pb) = (a.0, b.0);
        self.push(
            value,
            vec![pa, pb],
            Some(Box::new(move |d, nodes| {
                vec![d.mul(nodes[pb].value()), d.mul(nodes[pa].value())]
            })),
            true,
        )
    }

    /// `c * a` for a scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).scale(c);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |mut d, _| {
                d.scale_inplace(c);
                vec![d]
            })),
            true,
        )
    }

    /// Reshape (same element count); backward reshapes the gradient back.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let old_shape = self.value(a).shape().to_vec();
        let value = self.value(a).clone().reshape(shape);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |d, _| vec![d.reshape(&old_shape)])),
            true,
        )
    }

    /// SiLU activation `x · σ(x)`, σ being [`sweeps::sigmoid`].
    pub fn silu(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut value = Tensor::for_overwrite(x.shape());
        sweeps::silu(value.data_mut(), x.data());
        let pa = a.0;
        self.push(
            value,
            vec![pa],
            Some(Box::new(move |d, nodes| {
                let x = nodes[pa].value();
                let mut dx = Tensor::for_overwrite(x.shape());
                sweeps::silu_backward(dx.data_mut(), x.data(), d.data());
                vec![dx]
            })),
            true,
        )
    }

    // ---- linear algebra ----

    /// `A @ B` for 2-D `A: [m,k]`, `B: [k,n]`. A constant `A` (the model's
    /// input, the time features) gets no `dC Bᵀ`: the sweep would drop it.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = matmul(self.value(a), self.value(b));
        let (pa, pb) = (a.0, b.0);
        let a_grad = self.nodes[pa].takes_grad();
        self.push(
            value,
            vec![pa, pb],
            Some(Box::new(move |d, nodes| {
                // dC Bᵀ, or an empty stand-in the sweep skips.
                let da = if a_grad { matmul_nt(&d, nodes[pb].value()) } else { Tensor::zeros(&[0]) };
                let db = matmul_tn(nodes[pa].value(), &d); // Aᵀ dC
                vec![da, db]
            })),
            true,
        )
    }

    /// `A @ Bᵀ` for `A: [m,k]`, `B: [n,k]` — attention scores `QKᵀ`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let value = matmul_nt(self.value(a), self.value(b));
        let (pa, pb) = (a.0, b.0);
        self.push(
            value,
            vec![pa, pb],
            Some(Box::new(move |d, nodes| {
                let da = matmul(&d, nodes[pb].value()); // dC B
                let db = matmul_tn(&d, nodes[pa].value()); // dCᵀ A
                vec![da, db]
            })),
            true,
        )
    }

    // ---- normalization / activation over rows ----

    /// Row-wise softmax of a 2-D tensor.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        let y = value.clone();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |d, _| {
                let (rows, cols) = (y.shape()[0], y.shape()[1]);
                let mut dx = Tensor::for_overwrite(y.shape());
                for r in 0..rows {
                    let yr = y.row(r);
                    let dr = &d.data()[r * cols..(r + 1) * cols];
                    let dot = sweeps::dot(yr, dr);
                    let out = dx.row_mut(r);
                    for ((o, &p), &g) in out.iter_mut().zip(yr).zip(dr) {
                        *o = p * (g - dot);
                    }
                }
                vec![dx]
            })),
            true,
        )
    }

    /// Row-wise RMSNorm with learned gain: `y = x / rms(x) ⊙ γ`,
    /// `rms(x) = sqrt(mean(x²) + eps)`. `x: [rows, dim]`, `gamma: [dim]`.
    pub fn rmsnorm_rows(&mut self, x: Var, gamma: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let gv = self.value(gamma);
        assert_eq!(xv.ndim(), 2);
        assert_eq!(gv.shape(), &[xv.shape()[1]]);
        let mut value = Tensor::for_overwrite(xv.shape());
        let mut inv_rms = vec![0.0; xv.shape()[0]];
        sweeps::rmsnorm_rows(value.data_mut(), &mut inv_rms, xv.data(), gv.data(), eps);
        let (px, pg) = (x.0, gamma.0);
        self.push(
            value,
            vec![px, pg],
            Some(Box::new(move |d, nodes| {
                let xv = nodes[px].value();
                let gv = nodes[pg].value();
                let mut dx = Tensor::for_overwrite(xv.shape());
                let mut dg = Tensor::zeros(gv.shape());
                sweeps::rmsnorm_rows_backward(dx.data_mut(), dg.data_mut(), xv.data(), d.data(), gv.data(), &inv_rms);
                vec![dx, dg]
            })),
            true,
        )
    }

    // ---- structural ----

    /// Columns `[c0, c1)` of a 2-D tensor.
    pub fn slice_cols(&mut self, a: Var, c0: usize, c1: usize) -> Var {
        let av = self.value(a);
        let cols = av.shape()[1];
        let value = av.slice_cols(c0, c1);
        let rows = av.shape()[0];
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |d, _| {
                let mut dx = Tensor::zeros(&[rows, cols]);
                let w = c1 - c0;
                for r in 0..rows {
                    dx.row_mut(r)[c0..c1].copy_from_slice(&d.data()[r * w..(r + 1) * w]);
                }
                vec![dx]
            })),
            true,
        )
    }

    /// Concatenate 2-D tensors along columns.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let widths: Vec<usize> = tensors.iter().map(|t| t.shape()[1]).collect();
        let value = Tensor::concat_cols(&tensors);
        let parents: Vec<usize> = parts.iter().map(|v| v.0).collect();
        self.push(
            value,
            parents,
            Some(Box::new(move |d, _| {
                let mut out = Vec::with_capacity(widths.len());
                let mut c0 = 0;
                for &w in &widths {
                    out.push(d.slice_cols(c0, c0 + w));
                    c0 += w;
                }
                out
            })),
            true,
        )
    }

    /// Gather rows: `y[i] = x[idx[i]]`. `idx` may be any permutation or
    /// selection; backward scatter-adds. This is the primitive behind window
    /// partition, window merge, and the cyclic shift of Swin attention.
    pub fn gather_rows(&mut self, a: Var, idx: &[usize]) -> Var {
        let av = self.value(a);
        assert_eq!(av.ndim(), 2);
        let (rows, cols) = (av.shape()[0], av.shape()[1]);
        let mut value = Tensor::for_overwrite(&[idx.len(), cols]);
        for (i, &src) in idx.iter().enumerate() {
            assert!(src < rows, "gather index {src} out of bounds ({rows})");
            value.row_mut(i).copy_from_slice(av.row(src));
        }
        let idx = idx.to_vec();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |d, _| {
                let mut dx = Tensor::zeros(&[rows, cols]);
                sweeps::gather_rows_backward(dx.data_mut(), d.data(), &idx, cols);
                vec![dx]
            })),
            true,
        )
    }

    /// Rotary position embedding over adjacent pairs: for each row `r` and
    /// pair `p`, rotate `(x[2p], x[2p+1])` by the constant angle whose
    /// cos/sin are `cos[r,p]` / `sin[r,p]`.
    pub fn rope_rows(&mut self, a: Var, cos: &Tensor, sin: &Tensor) -> Var {
        let av = self.value(a);
        assert_eq!(av.ndim(), 2);
        let (rows, dim) = (av.shape()[0], av.shape()[1]);
        assert_eq!(dim % 2, 0, "RoPE requires an even feature dimension");
        assert_eq!(cos.shape(), &[rows, dim / 2]);
        assert_eq!(sin.shape(), &[rows, dim / 2]);
        let mut value = Tensor::for_overwrite(av.shape());
        for r in 0..rows {
            let xr = av.row(r);
            let out = value.row_mut(r);
            for p in 0..dim / 2 {
                let (c, s) = (cos.at(&[r, p]), sin.at(&[r, p]));
                let (x0, x1) = (xr[2 * p], xr[2 * p + 1]);
                out[2 * p] = x0 * c - x1 * s;
                out[2 * p + 1] = x0 * s + x1 * c;
            }
        }
        let (cos, sin) = (cos.clone(), sin.clone());
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |d, _| {
                // Inverse rotation (by -θ) applied to the output gradient.
                let mut dx = Tensor::for_overwrite(d.shape());
                for r in 0..rows {
                    let dr = &d.data()[r * dim..(r + 1) * dim];
                    let out = dx.row_mut(r);
                    for p in 0..dim / 2 {
                        let (c, s) = (cos.at(&[r, p]), sin.at(&[r, p]));
                        let (g0, g1) = (dr[2 * p], dr[2 * p + 1]);
                        out[2 * p] = g0 * c + g1 * s;
                        out[2 * p + 1] = -g0 * s + g1 * c;
                    }
                }
                vec![dx]
            })),
            true,
        )
    }

    /// Row-broadcast addition `y = x + vec` (bias).
    pub fn add_rows(&mut self, x: Var, vec: Var) -> Var {
        let xv = self.value(x);
        let vv = self.value(vec);
        let dim = xv.shape()[1];
        assert_eq!(vv.shape(), &[dim]);
        let mut value = xv.clone();
        sweeps::add_rows(value.data_mut(), vv.data());
        self.push(
            value,
            vec![x.0, vec.0],
            Some(Box::new(move |d, _| {
                let mut dv = Tensor::zeros(&[dim]);
                sweeps::add_rows_backward(dv.data_mut(), d.data());
                vec![d, dv]
            })),
            true,
        )
    }

    // ---- reductions / losses ----

    /// Sum of all elements → shape `[1]`.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = Tensor::from_slice(&[self.value(a).sum() as f32]);
        let shape = self.value(a).shape().to_vec();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |d, _| vec![Tensor::full(&shape, d.data()[0])])),
            true,
        )
    }

    /// Weighted squared-error loss against constant target with constant
    /// per-element weights: `Σ w ⊙ (pred − target)² / pred.len()`.
    ///
    /// This is the fused primitive behind the paper's physically weighted
    /// diffusion objective (Eq. 2); `target` and `weights` never need grads.
    pub fn weighted_mse(&mut self, pred: Var, target: &Tensor, weights: &Tensor) -> Var {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape());
        assert_eq!(pv.shape(), weights.shape());
        let value = Tensor::from_slice(&[sweeps::weighted_mse_loss(pv.data(), target.data(), weights.data())]);
        let (target, weights) = (target.clone(), weights.clone());
        let p_ix = pred.0;
        self.push(
            value,
            vec![p_ix],
            Some(Box::new(move |d, nodes| {
                let pv = nodes[p_ix].value();
                let mut grad = Tensor::for_overwrite(pv.shape());
                sweeps::weighted_mse_backward(grad.data_mut(), pv.data(), target.data(), weights.data(), d.data()[0]);
                vec![grad]
            })),
            true,
        )
    }

    /// Run the backward pass from a scalar node; returns gradients for every
    /// `leaf` that participated.
    pub fn backward(&mut self, loss: Var) -> Grads {
        assert_eq!(self.value(loss).len(), 1, "backward requires a scalar loss");
        let seed = Tensor::ones(&[1]).reshape(self.value(loss).shape());
        self.backward_from(&[(loss, seed)])
    }

    /// The reverse sweep seeded with explicit cotangents at `seeds` (a
    /// vector–Jacobian product): each node, last to first, passes its
    /// accumulated cotangent to its parents, and a differentiable leaf keeps
    /// it.
    // Inlined into `backward`: an out-of-line sweep measured the
    // single-process training step 2–4 % slower (most likely code layout).
    #[inline]
    fn backward_from(&self, seeds: &[(Var, Tensor)]) -> Grads {
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        for (var, seed) in seeds {
            assert_eq!(seed.shape(), self.value(*var).shape(), "seed shape mismatch for var {}", var.0);
            match &mut grads[var.0] {
                Some(acc) => acc.add_assign(seed),
                slot @ None => *slot = Some(seed.clone()),
            }
        }
        for i in (0..self.nodes.len()).rev() {
            let Some(dout) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            if let Some(back) = &node.backward {
                let parent_grads = back(dout, &self.nodes);
                debug_assert_eq!(parent_grads.len(), node.parents.len());
                for (&p, g) in node.parents.iter().zip(parent_grads) {
                    if !self.nodes[p].takes_grad() {
                        continue; // constant leaf: skip accumulation
                    }
                    match &mut grads[p] {
                        Some(acc) => acc.add_assign(&g),
                        slot @ None => *slot = Some(g),
                    }
                }
            } else if node.requires_grad {
                grads[i] = Some(dout); // keep leaf gradient
            }
        }
        Grads { grads }
    }
}

#[cfg(test)]
impl Grads {
    /// Gradient of the loss w.r.t. `var`, if it participated in the graph.
    pub(crate) fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }
}

/// Ops only this crate's tests build: primitives the gradchecks and the
/// attention oracles compose, and the unfused AdaLN chain the fused ops are
/// checked against (`fused.rs` tests).
#[cfg(test)]
impl Tape {
    /// Rows `[r0, r1)` of a 2-D tensor. Unlike [`Tape::gather_rows`] with a
    /// consecutive index vector, this is a contiguous memcpy forward and a
    /// single `copy_from_slice` into a zero buffer backward — no index vector,
    /// no per-row scatter-add.
    pub(crate) fn slice_rows(&mut self, a: Var, r0: usize, r1: usize) -> Var {
        let av = self.value(a);
        assert_eq!(av.ndim(), 2);
        let (rows, cols) = (av.shape()[0], av.shape()[1]);
        assert!(r0 <= r1 && r1 <= rows, "row slice [{r0}, {r1}) out of bounds ({rows})");
        let value = Tensor::from_vec(&[r1 - r0, cols], av.data()[r0 * cols..r1 * cols].to_vec());
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |d, _| {
                let mut dx = Tensor::zeros(&[rows, cols]);
                dx.data_mut()[r0 * cols..r1 * cols].copy_from_slice(d.data());
                vec![dx]
            })),
            true,
        )
    }

    /// Concatenate 2-D tensors along rows.
    pub(crate) fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let heights: Vec<usize> = tensors.iter().map(|t| t.shape()[0]).collect();
        let value = Tensor::concat_rows(&tensors);
        let parents: Vec<usize> = parts.iter().map(|v| v.0).collect();
        self.push(
            value,
            parents,
            Some(Box::new(move |d, _| {
                let (cols, mut r0) = (d.shape()[1], 0);
                let mut out = Vec::with_capacity(heights.len());
                for &h in &heights {
                    out.push(Tensor::from_vec(&[h, cols], d.data()[r0 * cols..(r0 + h) * cols].to_vec()));
                    r0 += h;
                }
                out
            })),
            true,
        )
    }

    /// `a - b` (same shape).
    pub(crate) fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|d, _| {
                let db = d.scale(-1.0);
                vec![d, db]
            })),
            true,
        )
    }

    /// `a + c` for a scalar constant `c`.
    pub(crate) fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).add_scalar(c);
        self.push(value, vec![a.0], Some(Box::new(|d, _| vec![d])), true)
    }

    /// Mean of all elements → shape `[1]`.
    pub(crate) fn mean(&mut self, a: Var) -> Var {
        let n = self.value(a).len() as f32;
        let s = self.sum(a);
        self.scale(s, 1.0 / n)
    }

    /// Row-broadcast affine: `y = x ⊙ scale + shift` with `x: [rows, dim]`,
    /// `scale, shift: [dim]`. This is the AdaLN modulation primitive.
    pub(crate) fn affine_rows(&mut self, x: Var, scale: Var, shift: Var) -> Var {
        let xv = self.value(x);
        let sv = self.value(scale);
        let bv = self.value(shift);
        assert_eq!(xv.ndim(), 2);
        let (rows, dim) = (xv.shape()[0], xv.shape()[1]);
        assert_eq!(sv.shape(), &[dim]);
        assert_eq!(bv.shape(), &[dim]);
        let mut value = Tensor::zeros(xv.shape());
        for r in 0..rows {
            let xr = xv.row(r);
            let out = value.row_mut(r);
            for j in 0..dim {
                out[j] = xr[j] * sv.data()[j] + bv.data()[j];
            }
        }
        let (px, ps) = (x.0, scale.0);
        self.push(
            value,
            vec![px, ps, shift.0],
            Some(Box::new(move |d, nodes| {
                let xv = nodes[px].value();
                let sv = nodes[ps].value();
                let mut dx = Tensor::zeros(xv.shape());
                let mut dscale = Tensor::zeros(sv.shape());
                let mut dshift = Tensor::zeros(sv.shape());
                for r in 0..rows {
                    let dr = &d.data()[r * dim..(r + 1) * dim];
                    let xr = xv.row(r);
                    let dxr = dx.row_mut(r);
                    for j in 0..dim {
                        dxr[j] = dr[j] * sv.data()[j];
                        dscale.data_mut()[j] += dr[j] * xr[j];
                        dshift.data_mut()[j] += dr[j];
                    }
                }
                vec![dx, dscale, dshift]
            })),
            true,
        )
    }

    /// Row-broadcast product `y = x ⊙ vec` (AdaLN gating).
    pub(crate) fn mul_rows(&mut self, x: Var, vec: Var) -> Var {
        let xv = self.value(x);
        let vv = self.value(vec);
        let (rows, dim) = (xv.shape()[0], xv.shape()[1]);
        assert_eq!(vv.shape(), &[dim]);
        let mut value = Tensor::zeros(xv.shape());
        for r in 0..rows {
            for (o, (&xi, &vi)) in value.row_mut(r).iter_mut().zip(xv.row(r).iter().zip(vv.data())) {
                *o = xi * vi;
            }
        }
        let (px, pv) = (x.0, vec.0);
        self.push(
            value,
            vec![px, pv],
            Some(Box::new(move |d, nodes| {
                let xv = nodes[px].value();
                let vv = nodes[pv].value();
                let mut dx = Tensor::zeros(xv.shape());
                let mut dv = Tensor::zeros(vv.shape());
                for r in 0..rows {
                    let dr = &d.data()[r * dim..(r + 1) * dim];
                    let xr = xv.row(r);
                    let dxr = dx.row_mut(r);
                    for j in 0..dim {
                        dxr[j] = dr[j] * vv.data()[j];
                        dv.data_mut()[j] += dr[j] * xr[j];
                    }
                }
                vec![dx, dv]
            })),
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_grad_close, numeric_grad};
    use aeris_tensor::Rng;

    /// Run f building a scalar loss from a leaf initialized to x; return
    /// (loss value, analytic grad).
    fn analytic(x: &Tensor, f: impl Fn(&mut Tape, Var) -> Var) -> (f64, Tensor) {
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let loss = f(&mut tape, v);
        let val = tape.value(loss).data()[0] as f64;
        let mut grads = tape.backward(loss);
        (val, grads.take(v).expect("leaf grad"))
    }

    fn check(x: &Tensor, tol: f32, f: impl Fn(&mut Tape, Var) -> Var + Copy) {
        let (_, g) = analytic(x, f);
        let mut numf = |xt: &Tensor| analytic(xt, f).0;
        let ng = numeric_grad(&mut numf, x, 1e-3);
        assert_grad_close(&g, &ng, tol);
    }

    #[test]
    fn grad_of_sum_is_ones() {
        let x = Tensor::from_slice(&[1., 2., 3.]);
        let (_, g) = analytic(&x, |t, v| t.sum(v));
        assert_eq!(g.data(), &[1., 1., 1.]);
    }

    #[test]
    fn grad_elementwise_chain() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[2, 3], &mut rng);
        check(&x, 1e-2, |t, v| {
            let a = t.scale(v, 3.0);
            let b = t.mul(a, v);
            let c = t.add(b, v);
            let d = t.add_scalar(c, 0.5);
            t.sum(d)
        });
    }

    #[test]
    fn grad_sub_and_mean() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[4], &mut rng);
        check(&x, 1e-2, |t, v| {
            let two = t.constant(Tensor::full(&[4], 2.0));
            let d = t.sub(v, two);
            let sq = t.mul(d, d);
            t.mean(sq)
        });
    }

    #[test]
    fn grad_matmul_both_sides() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 2], &mut rng);
        // grad wrt a
        check(&a, 1e-2, |t, v| {
            let bc = t.constant(b.clone());
            let c = t.matmul(v, bc);
            t.sum(c)
        });
        // grad wrt b (as leaf)
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let bv = tape.leaf(b.clone());
        let c = tape.matmul(av, bv);
        let loss = tape.sum(c);
        let mut grads = tape.backward(loss);
        let gb = grads.take(bv).unwrap();
        let mut numf = |bt: &Tensor| {
            let mut t = Tape::new();
            let av = t.constant(a.clone());
            let bv = t.leaf(bt.clone());
            let c = t.matmul(av, bv);
            let l = t.sum(c);
            t.value(l).data()[0] as f64
        };
        let ng = numeric_grad(&mut numf, &b, 1e-3);
        assert_grad_close(&gb, &ng, 1e-2);
    }

    #[test]
    fn grad_matmul_nt() {
        let mut rng = Rng::seed_from(4);
        let q = Tensor::randn(&[3, 4], &mut rng);
        let k = Tensor::randn(&[5, 4], &mut rng);
        check(&q, 1e-2, |t, v| {
            let kc = t.constant(k.clone());
            let s = t.matmul_nt(v, kc);
            let sq = t.mul(s, s);
            t.sum(sq)
        });
    }

    #[test]
    fn grad_softmax() {
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[2, 5], &mut rng);
        check(&x, 1e-2, |t, v| {
            let s = t.softmax_rows(v);
            let sq = t.mul(s, s);
            t.sum(sq)
        });
    }

    #[test]
    fn grad_silu() {
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[8], &mut rng).reshape(&[2, 4]);
        check(&x, 1e-2, |t, v| {
            let s = t.silu(v);
            t.sum(s)
        });
    }

    #[test]
    fn grad_rmsnorm_x_and_gamma() {
        let mut rng = Rng::seed_from(7);
        let x = Tensor::randn(&[3, 6], &mut rng);
        let gamma = Tensor::rand_uniform(&[6], 0.5, 1.5, &mut rng);
        check(&x, 2e-2, |t, v| {
            let g = t.constant(gamma.clone());
            let y = t.rmsnorm_rows(v, g, 1e-6);
            let sq = t.mul(y, y);
            t.sum(sq)
        });
        // gamma gradient
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let gv = tape.leaf(gamma.clone());
        let y = tape.rmsnorm_rows(xv, gv, 1e-6);
        let sq = tape.mul(y, y);
        let loss = tape.sum(sq);
        let mut grads = tape.backward(loss);
        let gg = grads.take(gv).unwrap();
        let mut numf = |gt: &Tensor| {
            let mut t = Tape::new();
            let xv = t.constant(x.clone());
            let gv = t.leaf(gt.clone());
            let y = t.rmsnorm_rows(xv, gv, 1e-6);
            let sq = t.mul(y, y);
            let l = t.sum(sq);
            t.value(l).data()[0] as f64
        };
        let ng = numeric_grad(&mut numf, &gamma, 1e-3);
        assert_grad_close(&gg, &ng, 2e-2);
    }

    #[test]
    fn grad_slice_concat_cols() {
        let mut rng = Rng::seed_from(8);
        let x = Tensor::randn(&[2, 6], &mut rng);
        check(&x, 1e-2, |t, v| {
            let a = t.slice_cols(v, 0, 3);
            let b = t.slice_cols(v, 3, 6);
            let p = t.mul(a, b);
            let c = t.concat_cols(&[p, a]);
            t.sum(c)
        });
    }

    #[test]
    fn grad_concat_rows() {
        let mut rng = Rng::seed_from(18);
        let x = Tensor::randn(&[4, 3], &mut rng);
        check(&x, 1e-2, |t, v| {
            let top = t.gather_rows(v, &[0, 1]);
            let bot = t.gather_rows(v, &[2, 3]);
            let cat = t.concat_rows(&[bot, top]);
            let sq = t.mul(cat, cat);
            t.sum(sq)
        });
    }

    #[test]
    fn grad_slice_rows() {
        let mut rng = Rng::seed_from(19);
        let x = Tensor::randn(&[5, 3], &mut rng);
        check(&x, 1e-2, |t, v| {
            let mid = t.slice_rows(v, 1, 4);
            let sq = t.mul(mid, mid);
            t.sum(sq)
        });
    }

    #[test]
    fn slice_rows_matches_gather_rows() {
        let mut rng = Rng::seed_from(20);
        let x = Tensor::randn(&[6, 4], &mut rng);
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let s = tape.slice_rows(v, 2, 5);
        let g = tape.gather_rows(v, &[2, 3, 4]);
        assert!(tape.value(s).max_abs_diff(tape.value(g)) < 1e-7);
        assert_eq!(tape.value(s).shape(), &[3, 4]);
    }

    #[test]
    fn grad_gather_rows_with_duplicates() {
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn(&[4, 3], &mut rng);
        check(&x, 1e-2, |t, v| {
            let g = t.gather_rows(v, &[1, 1, 3, 0]);
            let sq = t.mul(g, g);
            t.sum(sq)
        });
    }

    #[test]
    fn gather_rows_permutation_roundtrip() {
        let mut rng = Rng::seed_from(10);
        let x = Tensor::randn(&[5, 2], &mut rng);
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let perm = [4, 2, 0, 3, 1];
        let mut inv = [0usize; 5];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        let g = tape.gather_rows(v, &perm);
        let back = tape.gather_rows(g, &inv);
        assert!(tape.value(back).max_abs_diff(&x) < 1e-7);
    }

    #[test]
    fn grad_rope() {
        let mut rng = Rng::seed_from(11);
        let x = Tensor::randn(&[3, 4], &mut rng);
        let angles: Vec<f32> = (0..6).map(|i| 0.3 * i as f32).collect();
        let cos = Tensor::from_vec(&[3, 2], angles.iter().map(|a| a.cos()).collect());
        let sin = Tensor::from_vec(&[3, 2], angles.iter().map(|a| a.sin()).collect());
        check(&x, 1e-2, |t, v| {
            let r = t.rope_rows(v, &cos, &sin);
            let sq = t.mul(r, r);
            t.sum(sq)
        });
    }

    #[test]
    fn rope_preserves_pair_norms() {
        let mut rng = Rng::seed_from(12);
        let x = Tensor::randn(&[2, 6], &mut rng);
        let cos = Tensor::from_vec(&[2, 3], vec![0.6; 6]);
        let sin = Tensor::from_vec(&[2, 3], vec![0.8; 6]);
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let r = tape.rope_rows(v, &cos, &sin);
        let y = tape.value(r);
        for row in 0..2 {
            for p in 0..3 {
                let nx = x.at(&[row, 2 * p]).hypot(x.at(&[row, 2 * p + 1]));
                let ny = y.at(&[row, 2 * p]).hypot(y.at(&[row, 2 * p + 1]));
                assert!((nx - ny).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn grad_affine_mul_add_rows() {
        let mut rng = Rng::seed_from(13);
        let x = Tensor::randn(&[3, 4], &mut rng);
        let s = Tensor::rand_uniform(&[4], 0.5, 1.5, &mut rng);
        let b = Tensor::randn(&[4], &mut rng);
        check(&x, 1e-2, |t, v| {
            let sv = t.constant(s.clone());
            let bv = t.constant(b.clone());
            let y = t.affine_rows(v, sv, bv);
            let z = t.mul_rows(y, sv);
            let w = t.add_rows(z, bv);
            let sq = t.mul(w, w);
            t.sum(sq)
        });
        // scale / shift grads
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let sv = tape.leaf(s.clone());
        let bv = tape.leaf(b.clone());
        let y = tape.affine_rows(xv, sv, bv);
        let sq = tape.mul(y, y);
        let loss = tape.sum(sq);
        let mut grads = tape.backward(loss);
        let gs = grads.take(sv).unwrap();
        let gb = grads.take(bv).unwrap();
        let mut numf_s = |st: &Tensor| {
            let mut t = Tape::new();
            let xv = t.constant(x.clone());
            let sv = t.leaf(st.clone());
            let bv = t.constant(b.clone());
            let y = t.affine_rows(xv, sv, bv);
            let sq = t.mul(y, y);
            let l = t.sum(sq);
            t.value(l).data()[0] as f64
        };
        assert_grad_close(&gs, &numeric_grad(&mut numf_s, &s, 1e-3), 2e-2);
        let mut numf_b = |bt: &Tensor| {
            let mut t = Tape::new();
            let xv = t.constant(x.clone());
            let sv = t.constant(s.clone());
            let bv = t.leaf(bt.clone());
            let y = t.affine_rows(xv, sv, bv);
            let sq = t.mul(y, y);
            let l = t.sum(sq);
            t.value(l).data()[0] as f64
        };
        assert_grad_close(&gb, &numeric_grad(&mut numf_b, &b, 1e-3), 2e-2);
    }

    #[test]
    fn grad_weighted_mse() {
        let mut rng = Rng::seed_from(14);
        let pred = Tensor::randn(&[2, 3], &mut rng);
        let target = Tensor::randn(&[2, 3], &mut rng);
        let weights = Tensor::rand_uniform(&[2, 3], 0.1, 2.0, &mut rng);
        check(&pred, 1e-2, |t, v| t.weighted_mse(v, &target, &weights));
    }

    #[test]
    fn weighted_mse_value_is_correct() {
        let pred = Tensor::from_slice(&[1.0, 2.0]);
        let target = Tensor::from_slice(&[0.0, 0.0]);
        let w = Tensor::from_slice(&[1.0, 0.5]);
        let mut tape = Tape::new();
        let v = tape.leaf(pred);
        let l = tape.weighted_mse(v, &target, &w);
        // (1*1 + 0.5*4)/2 = 1.5
        assert!((tape.value(l).data()[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&[2.0]));
        let c = tape.constant(Tensor::from_slice(&[3.0]));
        let y = tape.mul(x, c);
        let l = tape.sum(y);
        let mut grads = tape.backward(l);
        assert!(grads.get(c).is_none());
        assert_eq!(grads.take(x).unwrap().data(), &[3.0]);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = sum(x*x + x*x) => grad = 4x
        let x = Tensor::from_slice(&[1.5, -2.0]);
        let (_, g) = analytic(&x, |t, v| {
            let a = t.mul(v, v);
            let b = t.mul(v, v);
            let s = t.add(a, b);
            t.sum(s)
        });
        assert!((g.data()[0] - 6.0).abs() < 1e-5);
        assert!((g.data()[1] + 8.0).abs() < 1e-5);
    }

    #[test]
    fn backward_from_matches_split_computation() {
        // Full graph: loss = sum((2x)^2). Split at y = 2x: backward of
        // sum(y^2) seeds dy = 2y; backward_from((y, dy)) on the producer tape
        // must equal the fused gradient 8x.
        let x = Tensor::from_slice(&[1.0, -3.0]);
        // Fused reference.
        let (_, g_ref) = analytic(&x, |t, v| {
            let y = t.scale(v, 2.0);
            let sq = t.mul(y, y);
            t.sum(sq)
        });
        // Split: producer tape computes y only.
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let y = tape.scale(v, 2.0);
        let y_val = tape.value(y).clone();
        // "Consumer" computes dL/dy = 2y externally.
        let dy = y_val.scale(2.0);
        let mut grads = tape.backward_from(&[(y, dy)]);
        let g_split = grads.take(v).unwrap();
        assert!(g_split.max_abs_diff(&g_ref) < 1e-6);
    }

    #[test]
    fn backward_from_accumulates_multiple_seeds() {
        let x = Tensor::from_slice(&[2.0]);
        let mut tape = Tape::new();
        let v = tape.leaf(x);
        let a = tape.scale(v, 3.0);
        let b = tape.scale(v, 5.0);
        let mut grads = tape.backward_from(&[
            (a, Tensor::from_slice(&[1.0])),
            (b, Tensor::from_slice(&[1.0])),
        ]);
        assert_eq!(grads.take(v).unwrap().data(), &[8.0]);
    }

    #[test]
    fn activation_accounting_grows() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[10, 10]));
        assert_eq!(tape.activation_elems(), 100);
        let y = tape.add_scalar(x, 1.0);
        let _ = tape.mul(y, y);
        assert_eq!(tape.activation_elems(), 300);
        assert_eq!(tape.len(), 3);
    }
}
