//! [`AerisModel::loss_grads`] without a tape: the forward is
//! [`AerisModel::run`], each block's [`SwinBlock::pass`] keeping its saves,
//! and the backward is the recording tape's reverse sweep written out by
//! hand, [`SwinBlock::backward`] per block. SWiPe's block stage runs the
//! same pair over its rank's rows, with its exchanges as the attention step.
//!
//! **Bits.** The tape's backward of `forward` + `weighted_mse` is a fixed
//! sequence of kernel calls; this is that sequence. Every call is the one
//! the tape's closure makes, on a matrix of the same shape, layout and row
//! order: the weight gradients are the tape's TN GEMMs over all rows, the
//! input gradients its NT GEMMs, the bias, γ, scale, shift and gate row
//! sums the same `sweeps` loops over the same rows, and the attention core's
//! backward runs over all windows. Where a tape node has two consumers, the
//! sweep moves the later consumer's cotangent in and adds the earlier one's;
//! so `cond`'s gradient is `((g₃ + g₂) + g₁) + g₀` over the blocks' AdaLN
//! heads. Where the tape scatters into zeros — the window partition's two
//! gathers and the AdaLN head's six one-row gathers — a `−0.0` turns into
//! `+0.0`, and so it does here, through the same `sweeps` fn. The loss and
//! every gradient equal the tape's bit for bit
//! (`loss_grads_equals_the_recording_backward_bitwise`). Each weight
//! gradient is a statement of its own beside the input-gradient chain, so a
//! schedule may defer it.
//!
//! **Memory.** The saves and the backward's buffers live in the caller's
//! [`Workspace`] beside the forward's, sized on its first training call: a
//! warm call takes from the heap only what the block pass does (its
//! modulation vectors and the `Wq | Wk | Wv` concatenation), what the GEMMs
//! pack and what the caller's empty gradient slots need.

use super::{size_buffers, AerisModel, AttentionStep, BlockConsts, BlockRows, Saves, SwinBlock, Workspace};
use crate::config::AerisConfig;
use aeris_nn::{ParamStore, Slots};
use aeris_tensor::gemm::gemm;
use aeris_tensor::{sweeps, Tensor};

/// What one block's backward reads, kept by its pass in the layouts the
/// tape keeps them in: the attention step's row order inside attention,
/// stream order everywhere else.
#[derive(Default)]
pub struct BlockSaves {
    /// The block input and the post-attention stream `mid`, `[tokens, dim]`,
    /// and the conditioning vector.
    x: Vec<f32>,
    mid: Vec<f32>,
    cond: Vec<f32>,
    /// Row order: the first norm's rows, `qkv` (as the attention step left
    /// it) and the context.
    h1: Vec<f32>,
    qkv: Vec<f32>,
    o: Vec<f32>,
    /// Stream order: the attention branch's output, the second norm's rows,
    /// the gate-up, the SwiGLU output and the MLP branch's output.
    y1: Vec<f32>,
    h2: Vec<f32>,
    gu: Vec<f32>,
    hid: Vec<f32>,
    y2: Vec<f32>,
    /// Stream order: both norms' `r`.
    ir1: Vec<f32>,
    ir2: Vec<f32>,
    consts: Option<BlockConsts>,
}

impl BlockSaves {
    /// Size every buffer for a block of `cfg`'s model over `tokens` stream
    /// rows.
    pub fn prepare(&mut self, cfg: &AerisConfig, tokens: usize) {
        let (dim, ffn) = (cfg.dim, cfg.ffn);
        size_buffers([
            (&mut self.x, tokens * dim),
            (&mut self.mid, tokens * dim),
            (&mut self.cond, cfg.cond_dim),
            (&mut self.h1, tokens * dim),
            (&mut self.qkv, tokens * 3 * dim),
            (&mut self.o, tokens * dim),
            (&mut self.y1, tokens * dim),
            (&mut self.h2, tokens * dim),
            (&mut self.gu, tokens * 2 * ffn),
            (&mut self.hid, tokens * ffn),
            (&mut self.y2, tokens * dim),
            (&mut self.ir1, tokens),
            (&mut self.ir2, tokens),
        ]);
    }

    /// Activation elements held (the saves' buffers; the constants are
    /// parameter-sized).
    pub fn elems(&self) -> usize {
        [&self.x, &self.mid, &self.cond, &self.h1, &self.qkv, &self.o, &self.y1, &self.h2, &self.gu, &self.hid, &self.y2, &self.ir1, &self.ir2]
            .iter()
            .map(|b| b.len())
            .sum()
    }
}

/// Row `i` of `src` (rows of `src.len() / rows.len()`) into row `rows[i]`
/// of `dst`.
fn scatter(dst: &mut [f32], src: &[f32], rows: &[usize]) {
    let width = src.len() / rows.len();
    if width == 1 {
        rows.iter().zip(src).for_each(|(&t, &v)| dst[t] = v);
        return;
    }
    for (row, &t) in src.chunks_exact(width).zip(rows) {
        dst[t * width..(t + 1) * width].copy_from_slice(row);
    }
}

impl Saves for BlockSaves {
    fn input(&mut self, x: &[f32], cond: &[f32]) {
        self.x.copy_from_slice(x);
        self.cond.copy_from_slice(cond);
    }

    fn window_rows(&mut self, r0: usize, n: usize) -> Option<[&mut [f32]; 3]> {
        let dim = self.x.len() / self.ir1.len();
        Some([&mut self.h1[r0 * dim..][..n * dim], &mut self.qkv[r0 * 3 * dim..][..n * 3 * dim], &mut self.o[r0 * dim..][..n * dim]])
    }

    fn attention(&mut self, rows: &[usize], [ir, y]: [&[f32]; 2]) {
        scatter(&mut self.ir1, ir, rows);
        scatter(&mut self.y1, y, rows);
    }

    fn mlp(&mut self, rows: &[usize], [h, ir, gu, hid, y]: [&[f32]; 5]) {
        for (dst, src) in [(&mut self.h2, h), (&mut self.ir2, ir), (&mut self.gu, gu), (&mut self.hid, hid), (&mut self.y2, y)] {
            scatter(dst, src, rows);
        }
    }

    fn done(&mut self, mid: &mut Vec<f32>, consts: BlockConsts) {
        std::mem::swap(&mut self.mid, mid);
        self.consts = Some(consts);
    }
}

/// The working buffers of [`SwinBlock::backward`] over `tokens` rows.
#[derive(Default)]
pub struct BlockGrads {
    /// The stream's gradient, `[tokens, dim]`: the block output's before a
    /// backward, its input's after.
    pub dx: Vec<f32>,
    /// `[tokens, dim]`: a branch's gradient (stream order), a norm's input
    /// gradient, and, in row order, the attention output's gradient (then
    /// the attention input's) and the context's.
    dh: Vec<f32>,
    dn: Vec<f32>,
    dwin: Vec<f32>,
    d_o: Vec<f32>,
    dqkv: Vec<f32>,
    dhid: Vec<f32>,
    dgu: Vec<f32>,
    /// A parameter's gradient on its way into a filled slot (the largest
    /// parameter, or `[dim, 3·dim]`).
    pub dw: Vec<f32>,
    /// The block's six modulation gradients, `[shift1, scale1, gate1,
    /// shift2, scale2, gate2]`, and their scatter-add into zeros.
    dvecs: Vec<f32>,
    dmods: Vec<f32>,
    /// After a backward: the block's AdaLN head's part of `cond`'s gradient.
    pub dcond: Vec<f32>,
}

impl BlockGrads {
    /// Size every buffer for a block of `cfg`'s model over `tokens` rows,
    /// `widest` the largest parameter a slot may take through `dw`.
    pub fn prepare(&mut self, cfg: &AerisConfig, tokens: usize, widest: usize) {
        let (dim, ffn) = (cfg.dim, cfg.ffn);
        size_buffers([
            (&mut self.dx, tokens * dim),
            (&mut self.dh, tokens * dim),
            (&mut self.dn, tokens * dim),
            (&mut self.dwin, tokens * dim),
            (&mut self.d_o, tokens * dim),
            (&mut self.dqkv, tokens * 3 * dim),
            (&mut self.dhid, tokens * ffn),
            (&mut self.dgu, tokens * 2 * ffn),
            (&mut self.dw, widest.max(dim * 3 * dim)),
            (&mut self.dvecs, 6 * dim),
            (&mut self.dmods, 6 * dim),
            (&mut self.dcond, cfg.cond_dim),
        ]);
    }
}

impl Workspace {
    /// Size the training buffers for `m` (a no-op after the first call on
    /// one config; the forward's are sized by the forward).
    fn prepare_grads(&mut self, m: &AerisModel) {
        let cfg = &m.cfg;
        let tokens = cfg.tokens();
        self.saves.resize_with(m.blocks.len(), BlockSaves::default);
        for saves in &mut self.saves {
            saves.prepare(cfg, tokens);
        }
        let widest = m.store.iter().map(|(_, _, p)| p.len()).max().unwrap_or(0);
        self.grads.prepare(cfg, tokens, widest);
        size_buffers([
            (&mut self.out, tokens * cfg.channels),
            (&mut self.dout, tokens * cfg.channels),
            (&mut self.dcond, cfg.cond_dim),
            (&mut self.dtime, cfg.cond_dim),
        ]);
    }
}

impl AerisModel {
    /// The training sibling of [`AerisModel::velocity_into`], in `ws`: the
    /// same evaluation, scored against `target` with the `weights`-weighted
    /// MSE and differentiated, without a tape. The loss comes back; every
    /// parameter's gradient is added into `acc` (one slot per parameter in
    /// store order, `None` until first touched), so a batch is one call per
    /// sample followed by [`aeris_nn::batch_mean`]. No randomness is drawn
    /// here: callers keep their own `t` / noise streams. Bitwise equal to
    /// the recording chain: [`AerisModel::forward`], `Tape::weighted_mse`,
    /// `Tape::backward` and `Binding::accumulate_grads`.
    #[allow(clippy::too_many_arguments)]
    pub fn loss_grads(
        &self,
        ws: &mut Workspace,
        x_t: &Tensor,
        x_prev: &Tensor,
        forcings: &Tensor,
        t: f32,
        target: &Tensor,
        weights: &Tensor,
        acc: &mut [Option<Tensor>],
    ) -> f64 {
        let shape = [self.cfg.tokens(), self.cfg.channels];
        assert!(target.shape() == shape && weights.shape() == shape, "target and weights must be [tokens, channels]");
        let parts = self.input_parts(x_t, x_prev, forcings);
        ws.prepare_grads(self);
        // The saves and the prediction leave `ws` while the forward and the
        // backward work in it.
        let (mut saves, mut out) = (std::mem::take(&mut ws.saves), std::mem::take(&mut ws.out));
        self.run(parts, t, ws, &mut saves, &mut out);
        let loss = sweeps::weighted_mse_loss(&out, target.data(), weights.data());
        self.backward(ws, &saves, &out, target.data(), weights.data(), &mut Slots::new(&self.store, acc));
        (ws.saves, ws.out) = (saves, out);
        loss as f64
    }

    /// The reverse sweep of the recording chain over the blocks' `saves` and
    /// the prediction `out`, seeded with 1 at the loss.
    fn backward(&self, ws: &mut Workspace, saves: &[BlockSaves], out: &[f32], target: &[f32], weights: &[f32], slots: &mut Slots) {
        let store = &self.store;
        let Workspace { grads: g, mid, x, inv_rms, dout, .. } = ws;
        sweeps::weighted_mse_backward(dout, out, target, weights, 1.0);
        slots.linear(&self.decode, mid, dout, &mut g.dw);
        self.decode.input_grad(store, dout, &mut g.dn);
        slots.rmsnorm(&self.out_norm, x, &g.dn, inv_rms, &mut g.dx, &mut g.dw);
        let mut plan = ws.plan.take().expect("the forward keeps its plan");
        for (i, (block, sv)) in self.blocks.iter().zip(saves).enumerate().rev() {
            let Ok(()) = block.backward(store, self.geo.rows(block.shifted), &mut plan, sv, ws, slots);
            if i + 1 == self.blocks.len() {
                ws.dcond.copy_from_slice(&ws.grads.dcond);
            } else {
                sweeps::add_assign(&mut ws.dcond, &ws.grads.dcond);
            }
        }
        ws.plan = Some(plan);
        let Workspace { grads: g, input, feats, time, dcond, dtime, .. } = ws;
        // The embedding's input is a constant: no input gradient.
        slots.linear(&self.embed, input, &g.dx, &mut g.dw);
        self.time_cond.backward(slots, feats, time, dcond, dtime, &mut g.dw);
    }
}

impl SwinBlock {
    /// The backward of [`SwinBlock::pass`] over its saves `sv`, with the
    /// same `rows` and the attention step's backward, in `ws.grads`: `dx`
    /// holds the block output's gradient and leaves with its input's, and
    /// `dcond` with its AdaLN head's part of `cond`'s. Parameter gradients go
    /// to `slots`.
    pub fn backward<A: AttentionStep>(
        &self,
        store: &ParamStore,
        rows: BlockRows,
        attn: &mut A,
        sv: &BlockSaves,
        ws: &mut Workspace,
        slots: &mut Slots,
    ) -> Result<(), A::Error> {
        let (dim, ffn) = (self.norm1.dim, self.mlp.ffn);
        let Workspace { grads, core, .. } = ws;
        let BlockGrads { dx, dh, dn, dwin, d_o, dqkv, dhid, dgu, dw, dvecs, dmods, dcond } = grads;
        let BlockConsts { mods, scales: [scale1, scale2], w_qkv } = sv.consts.as_ref().expect("the pass keeps its constants");
        let gate = |i: usize| &mods[i * dim..(i + 1) * dim];
        dvecs.fill(0.0);
        let mut d = dvecs.chunks_exact_mut(dim);
        let [dshift1, dscale1, dgate1, dshift2, dscale2, dgate2]: [&mut [f32]; 6] =
            std::array::from_fn(|_| d.next().expect("six modulation vectors"));

        // MLP branch: the gated residual (its `d` moves on to `mid`), the
        // down projection, SwiGLU, the gate-up projection and the norm.
        sweeps::gated_residual_backward(dh, dgate2, dx, &sv.y2, gate(5));
        self.mlp.w_down.input_grad(store, dh, dhid);
        slots.linear(&self.mlp.w_down, &sv.hid, dh, dw);
        sweeps::swiglu_backward(dgu, &sv.gu, dhid, ffn);
        self.mlp.w_in.input_grad(store, dgu, dh);
        slots.linear(&self.mlp.w_in, &sv.h2, dgu, dw);
        let g2 = store.get(self.norm2.gamma).data();
        slots.put(self.norm2.gamma, dw, |dg| {
            dg.fill(0.0);
            sweeps::modulated_rmsnorm_backward(dn, [dg, dscale2, dshift2], &sv.mid, dh, g2, scale2, &sv.ir2);
        });
        sweeps::add_assign(dx, dn);

        // Attention branch: the gated residual, the merge gather's
        // scatter-add into zeros (row order), the output projection, the
        // attention step, the fused projection and the partition gather's
        // scatter-add.
        sweeps::gated_residual_backward(dh, dgate1, dx, &sv.y1, gate(2));
        dwin.fill(0.0);
        sweeps::gather_rows_backward(dwin, dh, rows.inv, dim);
        slots.linear(&self.attn.wo, &sv.o, dwin, dw);
        self.attn.wo.input_grad(store, dwin, d_o);
        attn.backward(d_o, &sv.qkv, dqkv, core)?;
        // The fused projection's NT and TN GEMMs; `dwin` takes the windowed
        // input's gradient.
        let tokens = rows.order.len();
        gemm(tokens, dim, 3 * dim, dqkv, false, w_qkv.data(), true, dwin);
        let dw_qkv = &mut dw[..dim * 3 * dim];
        gemm(dim, 3 * dim, tokens, &sv.h1, true, dqkv, false, dw_qkv);
        for (i, w) in [self.attn.wq.w, self.attn.wk.w, self.attn.wv.w].into_iter().enumerate() {
            slots.add_cols(w, dw_qkv, 3 * dim, i * dim);
        }
        dh.fill(0.0);
        sweeps::gather_rows_backward(dh, dwin, rows.order, dim);
        let g1 = store.get(self.norm1.gamma).data();
        slots.put(self.norm1.gamma, dw, |dg| {
            dg.fill(0.0);
            sweeps::modulated_rmsnorm_backward(dn, [dg, dscale1, dshift1], &sv.x, dh, g1, scale1, &sv.ir1);
        });
        sweeps::add_assign(dx, dn);

        // The AdaLN head: its six one-row gathers scatter-add into zeros.
        dmods.fill(0.0);
        for (i, dv) in dvecs.chunks_exact(dim).enumerate() {
            sweeps::gather_rows_backward(dmods, dv, &[i], dim);
        }
        slots.linear(&self.adaln.head, &sv.cond, dmods, dw);
        self.adaln.head.input_grad(store, dmods, dcond);
        Ok(())
    }
}
