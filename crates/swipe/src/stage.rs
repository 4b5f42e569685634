//! Per-rank pipeline-stage models and their segmented forward/backward.
//!
//! A model instance is split into `n_layers + 2` stages (§VII-A): stage 0
//! holds data loading + the input embedding, stages `1..=L` hold one Swin
//! block each, and the last stage holds the output norm, decoder, target
//! loading, and the loss. Parameters are copied from a reference
//! single-rank [`aeris_core::AerisModel`], and every stage runs the
//! reference's tape-free calls, so a stage's output and its input gradient
//! equal the reference's on the same rows bit for bit (`tests`); its weight
//! gradients sum the rank's rows, in layout order.
//!
//! A block stage is a distribution of the reference block, not a copy of
//! it: it runs [`SwinBlock::pass`] and [`SwinBlock::backward`] — the one
//! block sequence — over the rank's rows as one row block, with `Ulysses`
//! as the attention step: the fused `Wq | Wk | Wv` GEMM, the all-to-all
//! (heads scatter), one gather of the peers' chunks into window-major
//! `Q | K | V`, the window core over the rank's local heads, the inverse
//! gather, the second all-to-all (heads gather) and `Wo`. The backward runs
//! the mirror: `Wo`ᵀ, the transposed exchanges around the core's backward,
//! then the fused projection's NT and TN GEMMs. A microbatch's [`StageRun`]
//! owns the saves its backward reads, sized to the rank's rows; the stage's
//! [`Workspace`] holds its working buffers and the spare saves of finished
//! microbatches.

use crate::comm::{CommError, Communicator};
use crate::layout::ActLayout;
use aeris_core::model::{AttentionStep, BlockRows, BlockSaves, SwinBlock, Workspace};
use aeris_core::{AerisConfig, AerisModel};
use aeris_nn::timecond::AdaLnHead;
use aeris_nn::window::invert_perm;
use aeris_nn::{Linear, ParamId, ParamStore, RmsNorm, RopeTable, Slots, SwiGlu, TimeConditioner, WindowAttention};
use aeris_tensor::attention::{window_core_backward_into, window_core_into, CoreScratch, WindowAttnPlan};
use aeris_tensor::dispatch::Kernel;
use aeris_tensor::{sweeps, Tensor};

/// What a stage computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Data loading + input embedding.
    Input,
    /// Swin block `b` (0-based block index).
    Block(usize),
    /// Output norm + decoder + loss.
    Head,
}

/// The layers of one stage kind; their parameter ids index the stage's store.
// One value per rank thread, built once: the block variant's size is no cost.
#[allow(clippy::large_enum_variant)]
enum StageLayers {
    Input {
        embed: Linear,
    },
    Block {
        /// The reference's config: it sizes the stage's buffers.
        cfg: AerisConfig,
        /// The shared time conditioner, replicated into every block stage.
        time_cond: TimeConditioner,
        block: SwinBlock,
        /// This rank's windows over its local heads (`n_heads / sp`).
        plan: WindowAttnPlan,
        /// Row `w·wlen + i·chunk + r` of the window-major `Q | K | V` is row
        /// `i·rows + w·chunk + r` of the SP peers' chunks stacked in group
        /// order (peer `i` holds rows `[i·chunk, (i+1)·chunk)` of each window).
        to_windows: Vec<usize>,
        /// The inverse: window-major attention rows back to peer-major.
        to_peers: Vec<usize>,
        /// The rank's rows as they lie, `0..rows`: its layout is already
        /// window-major, so they are the block's row order and its inverse.
        rows: Vec<usize>,
        /// The pass's and the backward's buffers, kept across microbatches,
        /// and in `saves` those of finished microbatches, which the next
        /// forward takes over (1F1B holds at most pp at once).
        ws: Workspace,
    },
    Head {
        out_norm: RmsNorm,
        decode: Linear,
    },
}

/// Learnable state of one stage (parameters replicated across DP×WP×SP).
pub struct StageModel {
    pub store: ParamStore,
    layers: StageLayers,
}

/// Why a stage could not be built from a reference model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageError {
    /// The distributed runtime holds one Swin block per pipeline stage.
    BlocksPerLayer(usize),
    /// Ulysses attention gives each SP peer whole heads.
    HeadsNotDivisible { n_heads: usize, sp: usize },
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::BlocksPerLayer(n) => {
                write!(f, "reference model has {n} blocks per Swin layer; the runtime requires 1")
            }
            StageError::HeadsNotDivisible { n_heads, sp } => {
                write!(f, "{n_heads} attention heads do not divide over sp={sp}")
            }
        }
    }
}

impl std::error::Error for StageError {}

/// Re-registers reference parameters, under their reference names, in a
/// stage's own store.
struct ParamCopier<'a> {
    from: &'a ParamStore,
    to: ParamStore,
}

impl ParamCopier<'_> {
    fn param(&mut self, id: ParamId) -> ParamId {
        self.to.register(self.from.name(id), self.from.get(id).clone())
    }

    fn linear(&mut self, lin: &Linear) -> Linear {
        Linear { w: self.param(lin.w), b: lin.b.map(|b| self.param(b)), ..*lin }
    }

    fn rms(&mut self, norm: &RmsNorm) -> RmsNorm {
        RmsNorm { gamma: self.param(norm.gamma), ..*norm }
    }
}

impl StageModel {
    /// Build a stage by copying the relevant parameters from a reference
    /// model, for a rank whose activations follow `layout`. The run's
    /// configuration is checked here, once, for every stage kind: the
    /// reference must use `blocks_per_layer == 1` (one block per stage) and
    /// its heads must divide over `layout.sp`.
    pub fn from_reference(
        model: &AerisModel,
        kind: StageKind,
        layout: &ActLayout,
    ) -> Result<Self, StageError> {
        let cfg = &model.cfg;
        if cfg.blocks_per_layer != 1 {
            return Err(StageError::BlocksPerLayer(cfg.blocks_per_layer));
        }
        let sp = layout.sp;
        if !cfg.n_heads.is_multiple_of(sp) {
            return Err(StageError::HeadsNotDivisible { n_heads: cfg.n_heads, sp });
        }
        let mut c = ParamCopier { from: &model.store, to: ParamStore::new() };
        let layers = match kind {
            StageKind::Input => StageLayers::Input { embed: c.linear(&model.embed) },
            StageKind::Block(b) => {
                let blk = &model.blocks[b];
                let time_cond =
                    TimeConditioner { proj: c.linear(&model.time_cond.proj), ..model.time_cond };
                let block = SwinBlock {
                    norm1: c.rms(&blk.norm1),
                    attn: WindowAttention {
                        wq: c.linear(&blk.attn.wq),
                        wk: c.linear(&blk.attn.wk),
                        wv: c.linear(&blk.attn.wv),
                        wo: c.linear(&blk.attn.wo),
                        ..blk.attn
                    },
                    norm2: c.rms(&blk.norm2),
                    mlp: SwiGlu {
                        w_in: c.linear(&blk.mlp.w_in),
                        w_down: c.linear(&blk.mlp.w_down),
                        ..blk.mlp
                    },
                    adaln: AdaLnHead { head: c.linear(&blk.adaln.head), ..blk.adaln },
                    shifted: blk.shifted,
                };
                let rope = RopeTable::new(cfg.window.0, cfg.window.1, cfg.head_dim(), 0, 0);
                let (nw, chunk) = (layout.windows_per_rank(), layout.chunk_rows());
                let plan = WindowAttnPlan::new(
                    nw,
                    layout.grid.window_len(),
                    cfg.n_heads / sp,
                    cfg.head_dim(),
                    rope.cos,
                    rope.sin,
                );
                let to_windows: Vec<usize> = (0..nw)
                    .flat_map(|w| (0..sp).map(move |i| (i * nw + w) * chunk))
                    .flat_map(|r0| r0..r0 + chunk)
                    .collect();
                let to_peers = invert_perm(&to_windows);
                let rows = (0..layout.rows_per_rank()).collect();
                let ws = Workspace::default();
                StageLayers::Block { cfg: cfg.clone(), time_cond, block, plan, to_windows, to_peers, rows, ws }
            }
            StageKind::Head => StageLayers::Head {
                out_norm: c.rms(&model.out_norm),
                decode: c.linear(&model.decode),
            },
        };
        Ok(StageModel { store: c.to, layers })
    }

    /// Ids of the globally replicated (time-conditioner) parameters.
    pub fn shared_param_ixs(&self) -> Vec<usize> {
        self.store
            .iter()
            .filter(|(_, n, _)| n.starts_with("time."))
            .map(|(id, _, _)| id.0)
            .collect()
    }
}

/// What one microbatch's forward keeps for its backward, sized to the
/// rank's rows. 1F1B holds up to pp of them.
// At most pp values per rank, each moved once into and out of its map: the
// block variant's size is no cost.
#[allow(clippy::large_enum_variant)]
pub enum StageRun {
    /// The assembled input rows (the embedding's weight gradient reads them).
    Input(Tensor),
    /// The block's saves, and the time embedding's features and projection.
    Block { saves: BlockSaves, feats: Vec<f32>, time: Vec<f32> },
    /// The head's input rows, the output norm's output and `r`, the
    /// prediction, the target and the loss scale.
    Head { x: Tensor, h: Vec<f32>, inv_rms: Vec<f32>, pred: Vec<f32>, target: Tensor, scale: f32 },
}

impl StageRun {
    /// Activation elements this run holds.
    pub fn activation_elems(&self) -> usize {
        match self {
            StageRun::Input(input) => input.len(),
            StageRun::Block { saves, feats, time } => saves.elems() + feats.len() + time.len(),
            StageRun::Head { x, h, inv_rms, pred, target, .. } => {
                x.len() + h.len() + inv_rms.len() + pred.len() + target.len()
            }
        }
    }
}

/// A block stage's attention step: the Ulysses all-to-alls of the rank's
/// SP group around the window core over its local heads (`plan`).
struct Ulysses<'a> {
    comm: &'a mut Communicator,
    group: &'a [usize],
    /// This rank's slot in `group`.
    me: usize,
    plan: &'a WindowAttnPlan,
    to_windows: &'a [usize],
    to_peers: &'a [usize],
}

impl Ulysses<'_> {
    /// One all-to-all: peer `j` gets `chunk(j)`. Returns what each peer
    /// sent, with the rank's own chunk, which never leaves, at its slot.
    fn exchange(&mut self, chunk: impl Fn(usize) -> Tensor) -> Result<Vec<Tensor>, CommError> {
        let me = self.me;
        let sent = (0..self.group.len()).map(|j| if j == me { Tensor::zeros(&[0]) } else { chunk(j) }).collect();
        let mut got = self.comm.alltoall(self.group, sent)?;
        got[me] = chunk(me);
        Ok(got)
    }
}

/// Head block `j` (`cols` columns of each `dim`-wide part of a row, `parts`
/// parts a row) of every row of `m`, as `[rows, parts·cols]`.
fn head_block(m: &[f32], dim: usize, parts: usize, cols: usize, j: usize) -> Tensor {
    let mut data = Vec::with_capacity(m.len() / dim * cols);
    for part in m.chunks_exact(dim) {
        data.extend_from_slice(&part[j * cols..(j + 1) * cols]);
    }
    Tensor::from_vec(&[m.len() / (parts * dim), parts * cols], data)
}

/// The inverse of [`head_block`]: every peer's chunk into its head block of `m`.
fn put_head_blocks(m: &mut [f32], dim: usize, cols: usize, got: &[Tensor]) {
    for (j, chunk) in got.iter().enumerate() {
        for (part, c) in m.chunks_exact_mut(dim).zip(chunk.data().chunks_exact(cols)) {
            part[j * cols..(j + 1) * cols].copy_from_slice(c);
        }
    }
}

/// Row `k` of `dst` is row `idx[k]` of the matrices `srcs` stacked in
/// order.
fn gather_stacked(dst: &mut [f32], srcs: &[&[f32]], idx: &[usize]) {
    let width = dst.len() / idx.len();
    let per = srcs[0].len() / width;
    for (row, &i) in dst.chunks_exact_mut(width).zip(idx) {
        row.copy_from_slice(&srcs[i / per][(i % per) * width..][..width]);
    }
}

/// Peer `j`'s rows of the window-major `local` (rows of `width`), as a
/// `[rows, width]` message: the inverse of the gather into window order.
fn peer_rows(local: &[f32], to_peers: &[usize], sp: usize, width: usize, j: usize) -> Tensor {
    let rows = to_peers.len() / sp;
    let mut msg = Tensor::for_overwrite(&[rows, width]);
    gather_stacked(msg.data_mut(), &[local], &to_peers[j * rows..(j + 1) * rows]);
    msg
}

impl AttentionStep for Ulysses<'_> {
    type Error = CommError;

    /// Heads scatter: peer `j` gets head block `j` of the rank's rows as one
    /// `[rows, 3·cols]` `Q | K | V` message (window chunks batched into a
    /// single message, as in the paper's merged communication). The peers'
    /// chunks, gathered into window-major rows of the local heads, replace
    /// `qkv` (the backward reads them there). The core writes the local
    /// heads' context into `o`, every peer's message is cut from it, and
    /// heads gather: peer `j` takes back its rows of every window, as head
    /// block `j` of its context, which overwrites `o`.
    fn forward(&mut self, qkv: &mut [f32], o: &mut [f32], core: &mut CoreScratch) -> Result<(), CommError> {
        let (sp, cols, plan, to_windows, to_peers) = (self.group.len(), self.plan.dim(), self.plan, self.to_windows, self.to_peers);
        let got = self.exchange(|j| head_block(qkv, sp * cols, 3, cols, j))?;
        gather_stacked(qkv, &got.iter().map(Tensor::data).collect::<Vec<_>>(), to_windows);
        window_core_into(Kernel::detected(), qkv, plan, o, core);
        let got = self.exchange(|j| peer_rows(o, to_peers, sp, cols, j))?;
        put_head_blocks(o, sp * cols, cols, &got);
        Ok(())
    }

    /// The mirror: head block `j` of the context's gradient goes to peer
    /// `j`, the peers' blocks are gathered into window-major rows in `d_o`,
    /// the core's backward writes their `dQ | dK | dV` into `dqkv`, and peer
    /// `j` takes back that of its rows, which overwrites `dqkv`.
    fn backward(&mut self, d_o: &mut [f32], qkv: &[f32], dqkv: &mut [f32], core: &mut CoreScratch) -> Result<(), CommError> {
        let (sp, cols, plan, to_windows, to_peers) = (self.group.len(), self.plan.dim(), self.plan, self.to_windows, self.to_peers);
        let got = self.exchange(|j| head_block(d_o, sp * cols, 1, cols, j))?;
        gather_stacked(d_o, &got.iter().map(Tensor::data).collect::<Vec<_>>(), to_windows);
        window_core_backward_into(Kernel::detected(), d_o, qkv, plan, dqkv, core);
        let got = self.exchange(|j| peer_rows(dqkv, to_peers, sp, 3 * cols, j))?;
        put_head_blocks(dqkv, sp * cols, cols, &got);
        Ok(())
    }
}

impl StageModel {
    /// The largest parameter of the stage: the size of a gradient on its way
    /// into a filled slot.
    fn widest(&self) -> usize {
        self.store.iter().map(|(_, _, p)| p.len()).max().unwrap_or(0)
    }

    /// Input-stage forward: `input` is the assembled, PE-augmented
    /// `[rows, in_channels]` matrix for this rank's tokens. Returns the run
    /// and the embedding.
    pub fn forward_input(&self, input: Tensor) -> (StageRun, Tensor) {
        let StageLayers::Input { embed } = &self.layers else { panic!("not an input stage") };
        let mut out = Tensor::for_overwrite(&[input.shape()[0], embed.out_dim]);
        embed.apply(&self.store, input.data(), out.data_mut());
        (StageRun::Input(input), out)
    }

    /// Head-stage forward: output norm, decode and the physically weighted
    /// loss against the target rows, scaled by `rows/global_tokens` (in f32)
    /// so that summing the loss over all head ranks yields the global mean
    /// objective. Returns the run and the scaled loss.
    pub fn forward_head(
        &self,
        x: Tensor,
        target: Tensor,
        weight_rows: &Tensor,
        global_tokens: usize,
    ) -> (StageRun, f64) {
        let StageLayers::Head { out_norm, decode } = &self.layers else { panic!("not a head stage") };
        let rows = x.shape()[0];
        let (mut h, mut inv_rms) = (vec![0.0; x.len()], vec![0.0; rows]);
        out_norm.apply(&self.store, x.data(), &mut h, &mut inv_rms);
        let mut pred = vec![0.0; rows * decode.out_dim];
        decode.apply(&self.store, &h, &mut pred);
        let scale = rows as f32 / global_tokens as f32;
        let loss = sweeps::weighted_mse_loss(&pred, target.data(), weight_rows.data()) * scale;
        (StageRun::Head { x, h, inv_rms, pred, target, scale }, loss as f64)
    }

    /// Block-stage forward: the reference block's [`SwinBlock::pass`] over
    /// the rank's rows, with `Ulysses` attention.
    ///
    /// `x_in`: `[rows, dim]` for this rank's windows/chunk under the block's
    /// layout; `t`: the shared diffusion time of this microbatch;
    /// `sp_group`: world ranks of this rank's SP group (self included).
    /// Returns the run and the block's output rows.
    pub fn forward_block(
        &mut self,
        x_in: Tensor,
        t: f32,
        comm: &mut Communicator,
        sp_group: &[usize],
    ) -> Result<(StageRun, Tensor), CommError> {
        let StageLayers::Block { cfg, time_cond, block, plan, to_windows, to_peers, rows, ws } = &mut self.layers
        else {
            panic!("not a block stage")
        };
        let me = sp_group.iter().position(|&r| r == comm.rank()).expect("rank in sp group");
        assert_eq!(x_in.shape(), [rows.len(), cfg.dim], "block input rows vs. the stage's layout");
        ws.prepare(cfg, rows.len(), rows.len());
        time_cond.apply(&self.store, t, &mut ws.feats, &mut ws.time, &mut ws.cond);
        ws.x.copy_from_slice(x_in.data());
        let mut saves = ws.saves.pop().unwrap_or_default();
        saves.prepare(cfg, rows.len());
        let mut step = Ulysses { comm, group: sp_group, me, plan, to_windows, to_peers };
        let order = BlockRows { order: rows, inv: rows, block: rows.len() };
        block.pass(&self.store, order, &mut step, ws, &mut saves)?;
        let run = StageRun::Block { saves, feats: ws.feats.clone(), time: ws.time.clone() };
        Ok((run, Tensor::from_vec(x_in.shape(), ws.x.clone())))
    }

    /// Block backward: [`SwinBlock::backward`] over the run's saves with the
    /// `Ulysses` step's mirror, then the time conditioner's. Returns the
    /// gradient w.r.t. the block input and accumulates parameter gradients
    /// into `param_grads`; the run's saves go back to the stage for the
    /// next forward.
    pub fn backward_block(
        &mut self,
        run: StageRun,
        g_out: Tensor,
        comm: &mut Communicator,
        sp_group: &[usize],
        param_grads: &mut [Option<Tensor>],
    ) -> Result<Tensor, CommError> {
        let widest = self.widest();
        let StageLayers::Block { cfg, time_cond, block, plan, to_windows, to_peers, rows, ws } = &mut self.layers
        else {
            panic!("not a block stage")
        };
        let StageRun::Block { saves, feats, time } = run else { panic!("not a block run") };
        let me = sp_group.iter().position(|&r| r == comm.rank()).expect("rank in sp group");
        ws.grads.prepare(cfg, rows.len(), widest);
        ws.grads.dx.copy_from_slice(g_out.data());
        let mut slots = Slots::new(&self.store, param_grads);
        let mut step = Ulysses { comm, group: sp_group, me, plan, to_windows, to_peers };
        let order = BlockRows { order: rows, inv: rows, block: rows.len() };
        block.backward(&self.store, order, &mut step, &saves, ws, &mut slots)?;
        let mut dtime = vec![0.0; time.len()];
        time_cond.backward(&mut slots, &feats, &time, &ws.grads.dcond, &mut dtime, &mut ws.grads.dw);
        ws.saves.push(saves);
        Ok(Tensor::from_vec(g_out.shape(), ws.grads.dx.clone()))
    }

    /// Input-stage backward: the embedding's parameter gradients (its input
    /// is data, so no input gradient).
    pub fn backward_input(&self, run: StageRun, g_out: Tensor, param_grads: &mut [Option<Tensor>]) {
        let StageLayers::Input { embed } = &self.layers else { panic!("not an input stage") };
        let StageRun::Input(input) = run else { panic!("not an input run") };
        let mut dw = vec![0.0; self.widest()];
        Slots::new(&self.store, param_grads).linear(embed, input.data(), g_out.data(), &mut dw);
    }

    /// Head-stage backward, seeded with the loss scale: returns the gradient
    /// w.r.t. the head input rows.
    pub fn backward_head(&self, run: StageRun, weight_rows: &Tensor, param_grads: &mut [Option<Tensor>]) -> Tensor {
        let StageLayers::Head { out_norm, decode } = &self.layers else { panic!("not a head stage") };
        let StageRun::Head { x, h, inv_rms, pred, target, scale } = run else { panic!("not a head run") };
        let mut dpred = vec![0.0; pred.len()];
        sweeps::weighted_mse_backward(&mut dpred, &pred, target.data(), weight_rows.data(), scale);
        let mut slots = Slots::new(&self.store, param_grads);
        let mut dw = vec![0.0; self.widest()];
        slots.linear(decode, &h, &dpred, &mut dw);
        let mut dh = vec![0.0; h.len()];
        decode.input_grad(&self.store, &dpred, &mut dh);
        let mut dx = vec![0.0; x.len()];
        slots.rmsnorm(out_norm, x.data(), &dh, &inv_rms, &mut dx, &mut dw);
        Tensor::from_vec(x.shape(), dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;
    use crate::data::gather;
    use aeris_autodiff::Tape;
    use aeris_core::AerisConfig;
    use aeris_nn::window::WindowGrid;
    use aeris_nn::Binding;
    use aeris_tensor::Rng;

    /// A two-block reference on a `grid_h × grid_w` grid of 4×4 windows, with
    /// every parameter nudged off its initialization (the zero-initialized
    /// AdaLN heads and decoder would make the blocks identities and the
    /// loss flat).
    fn reference(grid_h: usize, grid_w: usize) -> AerisModel {
        let mut m = AerisModel::new(AerisConfig { grid_h, grid_w, ..AerisConfig::test_tiny() });
        let mut rng = Rng::seed_from(9);
        let ids: Vec<ParamId> = m.store.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let nudge = Tensor::randn(m.store.get(id).shape(), &mut rng).scale(0.05);
            m.store.get_mut(id).add_assign(&nudge);
        }
        m
    }

    fn layout(m: &AerisModel, block: usize, sp: usize) -> ActLayout {
        let c = &m.cfg;
        let grid = WindowGrid::new(c.grid_h, c.grid_w, c.window.0, c.window.1);
        ActLayout::new(grid, m.blocks[block].shifted, 1, 1, sp)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Parameter gradients by parameter name.
    type Named = Vec<(String, Tensor)>;

    /// The reference block `b` recorded on a tape over token-order `x` at
    /// time `t`, seeded with `g` at its output through `Σ out ⊙ g` (whose
    /// backward hands `out` exactly `1 · g`): its output, its input's
    /// gradient, and its parameter gradients by name.
    fn taped_block(m: &AerisModel, b: usize, x: &Tensor, g: &Tensor, t: f32) -> (Tensor, Tensor, Named) {
        let mut tape = Tape::new();
        let mut binding = Binding::new(&m.store);
        let xv = tape.leaf(x.clone());
        let cond = m.time_cond.embed(&mut tape, &mut binding, &m.store, t);
        let out = m.blocks[b].forward(&mut tape, &mut binding, &m.store, xv, cond, &m.geo);
        let gv = tape.constant(g.clone());
        let seeded = tape.mul(out, gv);
        let loss = tape.sum(seeded);
        let value = tape.value(out).clone();
        let mut grads = tape.backward(loss);
        let g_in = grads.take(xv).expect("input grad");
        let named = binding.collect_grads(&mut grads).into_iter().enumerate();
        let named = named.filter_map(|(i, g)| g.map(|g| (m.store.name(ParamId(i)).to_string(), g))).collect();
        (value, g_in, named)
    }

    /// Block stage `b` on every rank of one SP group (wp = 1×1), forward and
    /// backward over the rank's rows of `x` and `g`: each rank's output, its
    /// input gradient, and the parameter gradients summed over the ranks by
    /// name.
    fn staged_block(m: &AerisModel, b: usize, sp: usize, x: &Tensor, g: &Tensor, t: f32) -> (Vec<(Tensor, Tensor)>, Named) {
        let layout = layout(m, b, sp);
        let world = World::new(sp);
        let group: Vec<usize> = (0..sp).collect();
        let per_rank: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..sp)
                .map(|rank| {
                    let (mut comm, layout, group) = (world.communicator(rank), &layout, &group);
                    s.spawn(move || {
                        let mut stage = StageModel::from_reference(m, StageKind::Block(b), layout).unwrap();
                        let tokens = layout.tokens_of(0, 0, rank);
                        let (run, out) = stage.forward_block(gather(x, &tokens), t, &mut comm, group).unwrap();
                        let mut grads = vec![None; stage.store.len()];
                        let g_in =
                            stage.backward_block(run, gather(g, &tokens), &mut comm, group, &mut grads).unwrap();
                        let named: Vec<_> = stage.store.iter().map(|(id, n, _)| (n.to_string(), grads[id.0].take())).collect();
                        (out, g_in, named)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut summed: Named = Vec::new();
        for (_, _, named) in &per_rank {
            for (name, g) in named {
                let g = g.as_ref().expect("every stage parameter gets a gradient");
                match summed.iter_mut().find(|(n, _)| n == name) {
                    Some((_, sum)) => sum.add_assign(g),
                    None => summed.push((name.clone(), g.clone())),
                }
            }
        }
        (per_rank.into_iter().map(|(out, g_in, _)| (out, g_in)).collect(), summed)
    }

    /// At `sp` ranks (wp = 1×1), each block stage's output and block-input
    /// gradient equal the reference block's recording tape on the rank's
    /// layout rows, bit for bit, unshifted and shifted: the stage runs the
    /// same kernels on the same rows, its Ulysses exchanges only move them.
    /// Its weight gradients sum the rows in layout order (and over ranks),
    /// so they equal the tape's within rounding.
    fn block_stage_matches_the_taped_block(sp: usize) {
        let m = reference(8, 16);
        let t = 0.7;
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[m.cfg.tokens(), m.cfg.dim], &mut rng);
        let g = Tensor::randn(&[m.cfg.tokens(), m.cfg.dim], &mut rng);
        for b in 0..m.blocks.len() {
            let shifted = m.blocks[b].shifted;
            let (out, g_in, reference) = taped_block(&m, b, &x, &g, t);
            let (ranks, staged) = staged_block(&m, b, sp, &x, &g, t);
            let layout = layout(&m, b, sp);
            for (rank, (s_out, s_g_in)) in ranks.iter().enumerate() {
                let tokens = layout.tokens_of(0, 0, rank);
                assert_eq!(bits(s_out), bits(&gather(&out, &tokens)), "output, block {b} (shifted: {shifted}), rank {rank}");
                assert_eq!(bits(s_g_in), bits(&gather(&g_in, &tokens)), "input gradient, block {b} (shifted: {shifted}), rank {rank}");
            }
            assert_eq!(staged.len(), reference.len(), "block {b}: the same parameters get gradients");
            for (name, want) in &reference {
                let (_, got) = staged.iter().find(|(n, _)| n == name).expect("staged gradient");
                let err = got.max_abs_diff(want) / want.abs_max().max(1e-3);
                assert!(err < 1e-5, "block {b}: gradient of {name} deviates by {err:.2e} of its abs max");
            }
        }
    }

    #[test]
    fn single_rank_block_stage_equals_reference_block_bitwise() {
        block_stage_matches_the_taped_block(1);
    }

    #[test]
    fn sp_block_stage_equals_reference_block_row_by_row_bitwise() {
        block_stage_matches_the_taped_block(2);
    }

    /// The head stage's loss and its input gradient equal the taped head —
    /// out-norm, decode, `weighted_mse`, `scale` by `rows/global_tokens`,
    /// `backward` — bit for bit, and so do its parameter gradients (the
    /// same rows in the same order).
    #[test]
    fn head_stage_equals_the_taped_head_bitwise() {
        let m = reference(8, 16);
        let layout = layout(&m, 1, 2);
        let stage = StageModel::from_reference(&m, StageKind::Head, &layout).unwrap();
        let (rows, global) = (layout.rows_per_rank(), m.cfg.tokens());
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[rows, m.cfg.dim], &mut rng);
        let target = Tensor::randn(&[rows, m.cfg.channels], &mut rng);
        let w = Tensor::rand_uniform(target.shape(), 0.5, 1.5, &mut rng);

        let mut tape = Tape::new();
        let mut binding = Binding::new(&m.store);
        let xv = tape.leaf(x.clone());
        let h = m.out_norm.forward(&mut tape, &mut binding, &m.store, xv);
        let pred = m.decode.forward(&mut tape, &mut binding, &m.store, h);
        let local = tape.weighted_mse(pred, &target, &w);
        let loss = tape.scale(local, rows as f32 / global as f32);
        let want_loss = tape.value(loss).data()[0] as f64;
        let mut grads = tape.backward(loss);
        let want_g_in = grads.take(xv).expect("input grad");
        let want = binding.collect_grads(&mut grads);

        let (run, got_loss) = stage.forward_head(x, target, &w, global);
        let mut got = vec![None; stage.store.len()];
        let got_g_in = stage.backward_head(run, &w, &mut got);
        assert_eq!(got_loss.to_bits(), want_loss.to_bits());
        assert_eq!(bits(&got_g_in), bits(&want_g_in));
        for (id, name, _) in stage.store.iter() {
            let ref_id = m.store.iter().find(|(_, n, _)| *n == name).expect("reference parameter").0;
            let (g, r) = (got[id.0].as_ref().expect("staged"), want[ref_id.0].as_ref().expect("taped"));
            assert_eq!(bits(g), bits(r), "gradient of {name}");
        }
    }
}
