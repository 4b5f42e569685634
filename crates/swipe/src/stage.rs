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
//! (heads scatter) of the peers' chunks into window-major `Q | K | V`, the
//! window core over the rank's local heads, the second all-to-all (heads
//! gather) and `Wo`. The backward runs the mirror: `Wo`ᵀ, the transposed
//! exchanges around the core's backward, then the fused projection's NT
//! and TN GEMMs. The rank's own chunk never becomes a message: the heads
//! gathers and the backward's scatter read it where it lies.
//!
//! Buffers: a microbatch's [`StageRun`] owns what its backward reads,
//! sized to the rank's rows; [`StageBufs`] holds everything else — the
//! executor's [`Workspace`] with its pack buffer, the Ulysses scratch, the
//! edge stages' row buffers and the boundary rows. Both live in the rank
//! thread's stash, so a warm microbatch only rewrites them.

use crate::comm::{CommError, Communicator};
use crate::data::gather_rows;
use crate::layout::ActLayout;
use crate::trainer::noise_rows_into;
use aeris_core::model::{AttentionStep, BlockRows, BlockSaves, SwinBlock, Workspace};
use aeris_core::{AerisConfig, AerisModel, TrainSample};
use aeris_diffusion::TrigFlow;
use aeris_nn::posenc::assemble_into;
use aeris_nn::timecond::AdaLnHead;
use aeris_nn::{Linear, ParamId, ParamStore, RmsNorm, RopeTable, Slots, SwiGlu, TimeConditioner, WindowAttention};
use aeris_tensor::attention::{window_core_backward_into, window_core_into, CoreScratch, WindowAttnPlan};
use aeris_tensor::dispatch::Kernel;
use aeris_tensor::sweeps;

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
        /// Row `i·rows + r` of the SP peers' chunks stacked in group order
        /// (peer `i` holds rows `[i·chunk, (i+1)·chunk)` of each window) is
        /// row `to_peers[i·rows + r]` of the window-major `Q | K | V`.
        to_peers: Vec<usize>,
        /// The rank's rows as they lie, `0..rows`: its layout is already
        /// window-major, so they are the block's row order and its inverse.
        rows: Vec<usize>,
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
                let to_peers = aeris_nn::window::invert_perm(&to_windows);
                let rows = (0..layout.rows_per_rank()).collect();
                StageLayers::Block { cfg: cfg.clone(), time_cond, block, plan, to_peers, rows }
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

/// `buf` as `n` elements for a producer that writes every one: NaN-filled
/// under `debug_assertions`, as `Workspace::prepare` fills its buffers, so
/// an element a producer misses poisons the result.
pub(crate) fn sized(buf: &mut Vec<f32>, n: usize) -> &mut [f32] {
    buf.resize(n, 0.0);
    if cfg!(debug_assertions) {
        buf.fill(f32::NAN);
    }
    buf
}

/// A stage's working buffers, kept in its rank thread's stash across
/// microbatches, steps and calls: each is sized by the use that needs it
/// and rewritten in place after that.
#[derive(Default)]
pub struct StageBufs {
    /// The executor's buffers: a block stage's stream, pass and backward
    /// buffers and the spare saves of finished microbatches, and the GEMM
    /// pack buffer every stage kind uses.
    pub ws: Workspace,
    /// Ulysses' window-major scratch, `[rows, dim]` and `[rows, 3·dim]`.
    win: Vec<f32>,
    win3: Vec<f32>,
    /// The edge stages' sample rows (the residual's, `x_prev`'s and the
    /// forcings'), the noise rows and the interpolated `x_t`.
    x0: Vec<f32>,
    prev: Vec<f32>,
    forc: Vec<f32>,
    z: Vec<f32>,
    x_t: Vec<f32>,
    /// The rows that cross the stage's boundaries: what a forward receives
    /// (the input stage's embedding, which it sends), and the gradient a
    /// backward receives (the head's input gradient, which it sends).
    pub act: Vec<f32>,
    pub grad: Vec<f32>,
    /// The head's backward rows, a parameter gradient on its way into a
    /// filled slot, and the block stage's time-projection gradient.
    dpred: Vec<f32>,
    dh: Vec<f32>,
    dw: Vec<f32>,
    dtime: Vec<f32>,
}

/// What one microbatch's forward keeps for its backward, sized to the
/// rank's rows. 1F1B holds up to pp of them; a finished one is reused.
// At most pp + 1 values per rank, each moved into and out of its slot: the
// block variant's size is no cost.
#[allow(clippy::large_enum_variant)]
pub enum StageRun {
    /// The assembled input rows (the embedding's weight gradient reads them).
    Input(Vec<f32>),
    /// The block's saves, and the time embedding's features and projection.
    Block { saves: BlockSaves, feats: Vec<f32>, time: Vec<f32> },
    /// The head's input rows, the output norm's output and `r`, the
    /// prediction, the target and the loss scale.
    Head { x: Vec<f32>, h: Vec<f32>, inv_rms: Vec<f32>, pred: Vec<f32>, target: Vec<f32>, scale: f32 },
}

impl StageRun {
    /// An empty run of `kind`'s variant, its buffers sized by its forward.
    pub fn new(kind: StageKind) -> Self {
        match kind {
            StageKind::Input => StageRun::Input(Vec::new()),
            StageKind::Block(_) => StageRun::Block { saves: BlockSaves::default(), feats: Vec::new(), time: Vec::new() },
            StageKind::Head => StageRun::Head {
                x: Vec::new(),
                h: Vec::new(),
                inv_rms: Vec::new(),
                pred: Vec::new(),
                target: Vec::new(),
                scale: 0.0,
            },
        }
    }

    /// Whether this run is `kind`'s variant.
    pub fn is(&self, kind: StageKind) -> bool {
        matches!(
            (self, kind),
            (StageRun::Input(_), StageKind::Input) | (StageRun::Block { .. }, StageKind::Block(_)) | (StageRun::Head { .. }, StageKind::Head)
        )
    }

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

/// What an edge stage reads of one microbatch: the sample, its index (the
/// noise stream's key), the run's seed, the rank's token rows and the
/// microbatch's diffusion time.
pub struct Feed<'a> {
    pub sample: &'a TrainSample,
    pub ix: usize,
    pub seed: u64,
    pub tokens: &'a [usize],
    pub t: f32,
}

impl Feed<'_> {
    /// The sample's residual rows into `x0` and their noise rows into `z`.
    fn residual_and_noise(&self, x0: &mut Vec<f32>, z: &mut Vec<f32>) {
        let c = self.sample.residual.shape()[1];
        let n = self.tokens.len() * c;
        gather_rows(sized(x0, n), self.sample.residual.data(), self.tokens);
        noise_rows_into(self.seed, self.ix, self.tokens, c, sized(z, n));
    }
}

/// A block stage's attention step: the Ulysses all-to-alls of the rank's
/// SP group around the window core over its local heads (`plan`), with the
/// stage's window-major scratch.
struct Ulysses<'a> {
    comm: &'a mut Communicator,
    group: &'a [usize],
    /// This rank's slot in `group`.
    me: usize,
    plan: &'a WindowAttnPlan,
    to_peers: &'a [usize],
    win: &'a mut Vec<f32>,
    win3: &'a mut Vec<f32>,
}

/// Head block `j` (`cols` columns of each of the `parts` `dim`-wide parts
/// of a row) of every row `r` of `m`, into row `idx[r]` of `dst` (rows of
/// `parts·cols`; `None`: row `r`).
fn head_block_out(m: &[f32], [parts, dim, cols]: [usize; 3], j: usize, dst: &mut [f32], idx: Option<&[usize]>) {
    let out = parts * cols;
    for (r, row) in m.chunks_exact(parts * dim).enumerate() {
        let d = idx.map_or(r, |idx| idx[r]);
        for (o, part) in dst[d * out..(d + 1) * out].chunks_exact_mut(cols).zip(row.chunks_exact(dim)) {
            o.copy_from_slice(&part[j * cols..(j + 1) * cols]);
        }
    }
}

/// The inverse of [`head_block_out`]: row `idx[r]` of `src` into head
/// block `j` of every row `r` of `m`.
fn head_block_in(m: &mut [f32], [parts, dim, cols]: [usize; 3], j: usize, src: &[f32], idx: Option<&[usize]>) {
    let out = parts * cols;
    for (r, row) in m.chunks_exact_mut(parts * dim).enumerate() {
        let s = idx.map_or(r, |idx| idx[r]);
        for (part, c) in row.chunks_exact_mut(dim).zip(src[s * out..(s + 1) * out].chunks_exact(cols)) {
            part[j * cols..(j + 1) * cols].copy_from_slice(c);
        }
    }
}

/// Row `r` of `src` into row `idx[r]` of `dst` (rows of `src.len() / idx.len()`).
fn scatter_rows(dst: &mut [f32], src: &[f32], idx: &[usize]) {
    let width = src.len() / idx.len();
    for (row, &i) in src.chunks_exact(width).zip(idx) {
        dst[i * width..(i + 1) * width].copy_from_slice(row);
    }
}

impl AttentionStep for Ulysses<'_> {
    type Error = CommError;

    /// Heads scatter: peer `j` gets head block `j` of the rank's rows as one
    /// `[rows, 3·cols]` `Q | K | V` message (window chunks batched into a
    /// single message, as in the paper's merged communication). The peers'
    /// chunks, and the rank's own (copied out first: `qkv` is overwritten),
    /// land in window-major rows of the local heads in `qkv` (the backward
    /// reads them there). The core writes the local heads' context into the
    /// scratch, peer `j`'s rows of every window are cut from it, and heads
    /// gather: each peer's context, and the rank's own read in place, lands
    /// in its head block of `o`.
    fn forward(&mut self, qkv: &mut [f32], o: &mut [f32], core: &mut CoreScratch) -> Result<(), CommError> {
        let (sp, cols, me, plan, to_peers) = (self.group.len(), self.plan.dim(), self.me, self.plan, self.to_peers);
        let (dim, rows) = (sp * cols, to_peers.len() / sp);
        let peer = |j: usize| &to_peers[j * rows..(j + 1) * rows];
        let (qkv3, one) = ([3, dim, cols], [1, dim, cols]);
        let own = sized(self.win3, rows * 3 * cols);
        head_block_out(qkv, qkv3, me, own, None);
        self.comm.alltoall_with(
            self.group,
            qkv,
            |_| rows * 3 * cols,
            |qkv, j, buf| head_block_out(qkv, qkv3, j, buf, None),
            |qkv, j, got| scatter_rows(qkv, got, peer(j)),
        )?;
        scatter_rows(qkv, own, peer(me));
        let win = sized(self.win, o.len());
        window_core_into(Kernel::detected(), qkv, plan, win, core);
        let win = &*win;
        self.comm.alltoall_with(
            self.group,
            o,
            |_| rows * cols,
            |_, j, buf| gather_rows(buf, win, peer(j)),
            |o, j, got| head_block_in(o, one, j, got, None),
        )?;
        head_block_in(o, one, me, win, Some(peer(me)));
        Ok(())
    }

    /// The mirror: head block `j` of the context's gradient goes to peer
    /// `j`, the peers' blocks and the rank's own, read in place, land in
    /// window-major rows of the scratch, the core's backward writes their
    /// `dQ | dK | dV` into the second scratch, and peer `j` takes back that
    /// of its rows: each lands in its head block of `dqkv`.
    fn backward(&mut self, d_o: &mut [f32], qkv: &[f32], dqkv: &mut [f32], core: &mut CoreScratch) -> Result<(), CommError> {
        let (sp, cols, me, plan, to_peers) = (self.group.len(), self.plan.dim(), self.me, self.plan, self.to_peers);
        let (dim, rows) = (sp * cols, to_peers.len() / sp);
        let peer = |j: usize| &to_peers[j * rows..(j + 1) * rows];
        let (qkv3, one) = ([3, dim, cols], [1, dim, cols]);
        let d_o = &*d_o;
        let win = sized(self.win, d_o.len());
        self.comm.alltoall_with(
            self.group,
            win,
            |_| rows * cols,
            |_, j, buf| head_block_out(d_o, one, j, buf, None),
            |win, j, got| scatter_rows(win, got, peer(j)),
        )?;
        head_block_out(d_o, one, me, win, Some(peer(me)));
        let win3 = sized(self.win3, dqkv.len());
        window_core_backward_into(Kernel::detected(), win, qkv, plan, win3, core);
        let win3 = &*win3;
        self.comm.alltoall_with(
            self.group,
            dqkv,
            |_| rows * 3 * cols,
            |_, j, buf| gather_rows(buf, win3, peer(j)),
            |dqkv, j, got| head_block_in(dqkv, qkv3, j, got, None),
        )?;
        head_block_in(dqkv, qkv3, me, win3, Some(peer(me)));
        Ok(())
    }
}

impl StageModel {
    /// The largest parameter of the stage: the size of a gradient on its way
    /// into a filled slot.
    fn widest(&self) -> usize {
        self.store.iter().map(|(_, _, p)| p.len()).max().unwrap_or(0)
    }

    /// Input-stage forward: the microbatch's `x_t`, `x_prev` and forcing
    /// rows with the positional field `pos` added, assembled into the run
    /// (`[rows, in_channels]`), and their embedding into `bufs.act`.
    pub fn forward_input(&self, bufs: &mut StageBufs, run: &mut StageRun, feed: &Feed, pos: &[f32]) {
        let StageLayers::Input { embed } = &self.layers else { panic!("not an input stage") };
        let StageRun::Input(input) = run else { panic!("not an input run") };
        let (s, rows) = (feed.sample, feed.tokens.len());
        feed.residual_and_noise(&mut bufs.x0, &mut bufs.z);
        TrigFlow::default().interpolate_into(&bufs.x0, &bufs.z, feed.t, sized(&mut bufs.x_t, bufs.x0.len()));
        gather_rows(sized(&mut bufs.prev, s.x_prev.len() / s.x_prev.shape()[0] * rows), s.x_prev.data(), feed.tokens);
        gather_rows(sized(&mut bufs.forc, s.forcings.len() / s.forcings.shape()[0] * rows), s.forcings.data(), feed.tokens);
        let input = sized(input, rows * embed.in_dim);
        assemble_into(&[&bufs.x_t, &bufs.prev, &bufs.forc], pos, input);
        embed.apply(&self.store, input, sized(&mut bufs.act, rows * embed.out_dim), &mut bufs.ws.pack);
    }

    /// Head-stage forward over the input rows in `bufs.act`: output norm,
    /// decode and the physically weighted loss against the microbatch's
    /// velocity target rows, scaled by `rows/global_tokens` (in f32) so that
    /// summing the loss over all head ranks yields the global mean
    /// objective. Returns the scaled loss.
    pub fn forward_head(
        &self,
        bufs: &mut StageBufs,
        run: &mut StageRun,
        feed: &Feed,
        weight_rows: &[f32],
        global_tokens: usize,
    ) -> f64 {
        let StageLayers::Head { out_norm, decode } = &self.layers else { panic!("not a head stage") };
        let StageRun::Head { x, h, inv_rms, pred, target, scale } = run else { panic!("not a head run") };
        let rows = feed.tokens.len();
        feed.residual_and_noise(&mut bufs.x0, &mut bufs.z);
        TrigFlow::default().velocity_target_into(&bufs.x0, &bufs.z, feed.t, sized(target, bufs.x0.len()));
        sized(x, bufs.act.len()).copy_from_slice(&bufs.act);
        out_norm.apply(&self.store, x, sized(h, x.len()), sized(inv_rms, rows));
        decode.apply(&self.store, h, sized(pred, rows * decode.out_dim), &mut bufs.ws.pack);
        *scale = rows as f32 / global_tokens as f32;
        let loss = sweeps::weighted_mse_loss(pred, target, weight_rows) * *scale;
        loss as f64
    }

    /// Block-stage forward: the reference block's [`SwinBlock::pass`] over
    /// the rank's rows in `bufs.act`, with `Ulysses` attention, at the
    /// shared diffusion time `t`; `sp_group` lists the world ranks of this
    /// rank's SP group (self included). The block's output rows are left in
    /// `bufs.ws.x`.
    pub fn forward_block(
        &self,
        bufs: &mut StageBufs,
        run: &mut StageRun,
        t: f32,
        comm: &mut Communicator,
        sp_group: &[usize],
    ) -> Result<(), CommError> {
        let StageLayers::Block { cfg, time_cond, block, plan, to_peers, rows } = &self.layers else {
            panic!("not a block stage")
        };
        let StageRun::Block { saves, feats, time } = run else { panic!("not a block run") };
        let me = sp_group.iter().position(|&r| r == comm.rank()).expect("rank in sp group");
        let StageBufs { ws, win, win3, act, .. } = bufs;
        assert_eq!(act.len(), rows.len() * cfg.dim, "block input rows vs. the stage's layout");
        ws.prepare(cfg, rows.len(), rows.len());
        time_cond.apply(&self.store, t, &mut ws.feats, &mut ws.time, &mut ws.cond, &mut ws.pack);
        ws.x.copy_from_slice(act);
        saves.prepare(cfg, rows.len());
        let mut step = Ulysses { comm, group: sp_group, me, plan, to_peers, win, win3 };
        let order = BlockRows { order: rows, inv: rows, block: rows.len() };
        block.pass(&self.store, order, &mut step, ws, saves)?;
        sized(feats, ws.feats.len()).copy_from_slice(&ws.feats);
        sized(time, ws.time.len()).copy_from_slice(&ws.time);
        Ok(())
    }

    /// Block backward for the output gradient in `bufs.grad`:
    /// [`SwinBlock::backward`] over the run's saves with the `Ulysses`
    /// step's mirror, then the time conditioner's. Leaves the gradient
    /// w.r.t. the block input in `bufs.ws.grads.dx` and adds the parameter
    /// gradients into `slots`.
    pub fn backward_block(
        &self,
        bufs: &mut StageBufs,
        run: &StageRun,
        comm: &mut Communicator,
        sp_group: &[usize],
        slots: &mut Slots,
    ) -> Result<(), CommError> {
        let StageLayers::Block { cfg, time_cond, block, plan, to_peers, rows } = &self.layers else {
            panic!("not a block stage")
        };
        let StageRun::Block { saves, feats, time } = run else { panic!("not a block run") };
        let me = sp_group.iter().position(|&r| r == comm.rank()).expect("rank in sp group");
        let StageBufs { ws, win, win3, grad, dtime, .. } = bufs;
        ws.grads.prepare(cfg, rows.len(), self.widest());
        ws.grads.dx.copy_from_slice(grad);
        let mut step = Ulysses { comm, group: sp_group, me, plan, to_peers, win, win3 };
        let order = BlockRows { order: rows, inv: rows, block: rows.len() };
        block.backward(&self.store, order, &mut step, saves, ws, slots)?;
        let dtime = sized(dtime, time.len());
        time_cond.backward(slots, feats, time, &ws.grads.dcond, dtime, &mut ws.grads.dw, &mut ws.pack);
        Ok(())
    }

    /// Input-stage backward for the embedding's output gradient in
    /// `bufs.grad`: its parameter gradients (its input is data, so no input
    /// gradient).
    pub fn backward_input(&self, bufs: &mut StageBufs, run: &StageRun, slots: &mut Slots) {
        let StageLayers::Input { embed } = &self.layers else { panic!("not an input stage") };
        let StageRun::Input(input) = run else { panic!("not an input run") };
        let dw = sized(&mut bufs.dw, self.widest());
        slots.linear(embed, input, &bufs.grad, dw, &mut bufs.ws.pack);
    }

    /// Head-stage backward, seeded with the loss scale: the gradient w.r.t.
    /// the head input rows into `bufs.grad`.
    pub fn backward_head(&self, bufs: &mut StageBufs, run: &StageRun, weight_rows: &[f32], slots: &mut Slots) {
        let StageLayers::Head { out_norm, decode } = &self.layers else { panic!("not a head stage") };
        let StageRun::Head { x, h, inv_rms, pred, target, scale } = run else { panic!("not a head run") };
        let StageBufs { ws, grad, dpred, dh, dw, .. } = bufs;
        let dpred = sized(dpred, pred.len());
        sweeps::weighted_mse_backward(dpred, pred, target, weight_rows, *scale);
        let dw = sized(dw, self.widest());
        slots.linear(decode, h, dpred, dw, &mut ws.pack);
        let dh = sized(dh, h.len());
        decode.input_grad(&self.store, dpred, dh, &mut ws.pack);
        slots.rmsnorm(out_norm, x, dh, inv_rms, sized(grad, x.len()), dw);
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
    use aeris_tensor::{Rng, Tensor};

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
                        let stage = StageModel::from_reference(m, StageKind::Block(b), layout).unwrap();
                        let tokens = layout.tokens_of(0, 0, rank);
                        let shape = [tokens.len(), m.cfg.dim];
                        let (mut bufs, mut run) = (StageBufs::default(), StageRun::new(StageKind::Block(b)));
                        // Twice over the same buffers: the second, warm,
                        // microbatch must return the first one's bits.
                        let mut calls = (0..2).map(|_| {
                            bufs.act = gather(x, &tokens).data().to_vec();
                            stage.forward_block(&mut bufs, &mut run, t, &mut comm, group).unwrap();
                            let out = Tensor::from_vec(&shape, bufs.ws.x.clone());
                            let mut grads = vec![None; stage.store.len()];
                            bufs.grad = gather(g, &tokens).data().to_vec();
                            let mut slots = Slots::new(&stage.store, &mut grads);
                            stage.backward_block(&mut bufs, &run, &mut comm, group, &mut slots).unwrap();
                            let g_in = Tensor::from_vec(&shape, bufs.ws.grads.dx.clone());
                            let named: Vec<_> =
                                stage.store.iter().map(|(id, n, _)| (n.to_string(), grads[id.0].take())).collect();
                            (out, g_in, named)
                        });
                        let (first, warm) = (calls.next().unwrap(), calls.next().unwrap());
                        assert_eq!((bits(&warm.0), bits(&warm.1)), (bits(&first.0), bits(&first.1)), "a warm microbatch");
                        first
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
        let (rows, global, c) = (layout.rows_per_rank(), m.cfg.tokens(), m.cfg.channels);
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[rows, m.cfg.dim], &mut rng);
        let tokens = layout.tokens_of(0, 0, 1);
        let sample = TrainSample {
            x_prev: Tensor::zeros(&[global, c]),
            residual: Tensor::randn(&[global, c], &mut rng),
            forcings: Tensor::zeros(&[global, m.cfg.forcing_channels]),
        };
        let (ix, seed, t) = (3, 11, 0.6);
        let z = crate::trainer::noise_rows(seed, ix, &tokens, c);
        let target = TrigFlow::default().velocity_target(&gather(&sample.residual, &tokens), &z, t);
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

        let (mut bufs, mut run) = (StageBufs::default(), StageRun::new(StageKind::Head));
        bufs.act = x.data().to_vec();
        let feed = Feed { sample: &sample, ix, seed, tokens: &tokens, t };
        let got_loss = stage.forward_head(&mut bufs, &mut run, &feed, w.data(), global);
        let mut got = vec![None; stage.store.len()];
        stage.backward_head(&mut bufs, &run, w.data(), &mut Slots::new(&stage.store, &mut got));
        assert_eq!(got_loss.to_bits(), want_loss.to_bits());
        assert_eq!(bits(&Tensor::from_vec(x.shape(), bufs.grad.clone())), bits(&want_g_in));
        for (id, name, _) in stage.store.iter() {
            let ref_id = m.store.iter().find(|(_, n, _)| *n == name).expect("reference parameter").0;
            let (g, r) = (got[id.0].as_ref().expect("staged"), want[ref_id.0].as_ref().expect("taped"));
            assert_eq!(bits(g), bits(r), "gradient of {name}");
        }
    }
}
