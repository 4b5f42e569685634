//! Per-rank pipeline-stage models and their segmented forward/backward.
//!
//! A model instance is split into `n_layers + 2` stages (§VII-A): stage 0
//! holds data loading + the input embedding, stages `1..=L` hold one Swin
//! block each, and the last stage holds the output norm, decoder, target
//! loading, and the loss. Parameters are copied from a reference
//! single-rank [`aeris_core::AerisModel`] so distributed results can be
//! compared against it exactly.
//!
//! A block stage is a distribution of the reference block, not a copy of it:
//! it runs [`SwinBlock::forward_with`] — the one block body — and supplies the
//! attention as a closure: `Wq`/`Wk`/`Wv`, the Ulysses all-to-all (heads
//! scatter), one gather of the peers' chunks into window-major `Q | K | V`,
//! [`Tape::window_attention_core`] — the one attention core — over the rank's
//! local heads, the inverse gather, the second all-to-all (heads gather) and
//! `Wo`. The tape has a fixed number of nodes whatever the number of windows
//! a rank holds.
//!
//! The tape records the shipped activation vars. The backward is one reverse
//! sweep of that tape that stops twice, at the vars each all-to-all shipped,
//! to run the transposed exchange and seed the cotangents it returns.

use crate::comm::{CommError, Communicator};
use crate::layout::ActLayout;
use aeris_autodiff::{Tape, Var, WindowAttnPlan};
use aeris_core::model::SwinBlock;
use aeris_core::AerisModel;
use aeris_nn::timecond::AdaLnHead;
use aeris_nn::window::invert_perm;
use aeris_nn::{
    Binding, Linear, ParamId, ParamStore, RmsNorm, RopeTable, SwiGlu, TimeConditioner,
    WindowAttention,
};
use aeris_tensor::Tensor;

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
                StageLayers::Block { time_cond, block, plan, to_windows, to_peers }
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

/// Record of one microbatch pass through a stage (kept until backward).
pub struct StageRun {
    pub tape: Tape,
    pub binding: Binding,
    /// Input leaf (None for the input stage, whose input is constant data).
    pub x_in: Option<Var>,
    /// Stage output: activations (input/block) or scalar loss (head).
    pub out: Var,
    /// Per-SP-peer QKV chunks shipped out (self slot included, unsent).
    pub qkv_sent: Vec<Var>,
    /// Per-SP-peer QKV leaves received (None at the self slot).
    pub qkv_recv: Vec<Option<Var>>,
    /// Per-SP-peer attention-output chunks shipped back.
    pub attn_sent: Vec<Var>,
    /// Per-SP-peer attention-output leaves received (None at self).
    pub attn_recv: Vec<Option<Var>>,
    /// Head stages: the (already globally scaled) loss value.
    pub loss: f64,
}

impl StageRun {
    fn simple(tape: Tape, binding: Binding, x_in: Option<Var>, out: Var) -> Self {
        StageRun {
            tape,
            binding,
            x_in,
            out,
            qkv_sent: Vec::new(),
            qkv_recv: Vec::new(),
            attn_sent: Vec::new(),
            attn_recv: Vec::new(),
            loss: 0.0,
        }
    }

    /// Activation elements currently held by this run's tape.
    pub fn activation_elems(&self) -> usize {
        self.tape.activation_elems()
    }
}

/// One Ulysses all-to-all of tape values: ships `sent[j]` to peer `j` of
/// `sp_group` and returns, per peer, the leaf holding what that peer sent
/// (`None` at the self slot `me`, whose chunk never leaves the tape).
fn alltoall_vars(
    tape: &mut Tape,
    comm: &mut Communicator,
    sp_group: &[usize],
    me: usize,
    sent: &[Var],
) -> Result<Vec<Option<Var>>, CommError> {
    let chunks = sent
        .iter()
        .enumerate()
        .map(|(j, &v)| if j == me { Tensor::zeros(&[0]) } else { tape.value(v).clone() })
        .collect();
    let received = comm.alltoall(sp_group, chunks)?;
    Ok(received.into_iter().enumerate().map(|(i, t)| (i != me).then(|| tape.leaf(t))).collect())
}

/// What each peer's slot reads: the received leaf, or the rank's own chunk.
fn peer_vars(sent: &[Var], recv: &[Option<Var>]) -> Vec<Var> {
    sent.iter().zip(recv).map(|(&own, leaf)| leaf.unwrap_or(own)).collect()
}

impl StageModel {
    /// Input-stage forward: `input` is the assembled, PE-augmented
    /// `[rows, in_channels]` matrix for this rank's tokens.
    pub fn forward_input(&self, input: Tensor) -> StageRun {
        let StageLayers::Input { embed } = &self.layers else { panic!("not an input stage") };
        let mut tape = Tape::new();
        let mut binding = Binding::new(&self.store);
        let iv = tape.constant(input);
        let out = embed.forward(&mut tape, &mut binding, &self.store, iv);
        StageRun::simple(tape, binding, None, out)
    }

    /// Head-stage forward: decode + physically weighted loss against the
    /// target rows, scaled by `rows/global_tokens` so that summing the loss
    /// over all head ranks yields the global mean objective.
    pub fn forward_head(
        &self,
        x_in_val: Tensor,
        target_rows: &Tensor,
        weight_rows: &Tensor,
        global_tokens: usize,
    ) -> StageRun {
        let StageLayers::Head { out_norm, decode } = &self.layers else {
            panic!("not a head stage")
        };
        let rows = x_in_val.shape()[0];
        let mut tape = Tape::new();
        let mut binding = Binding::new(&self.store);
        let x_in = tape.leaf(x_in_val);
        let h = out_norm.forward(&mut tape, &mut binding, &self.store, x_in);
        let pred = decode.forward(&mut tape, &mut binding, &self.store, h);
        let local = tape.weighted_mse(pred, target_rows, weight_rows);
        let loss = tape.scale(local, rows as f32 / global_tokens as f32);
        let loss_val = tape.value(loss).data()[0] as f64;
        let mut run = StageRun::simple(tape, binding, Some(x_in), loss);
        run.loss = loss_val;
        run
    }

    /// Block-stage forward: the reference model's block body
    /// ([`SwinBlock::forward_with`]) around distributed (Ulysses) attention.
    ///
    /// `x_in_val`: `[rows, dim]` for this rank's windows/chunk under the
    /// block's layout; `t`: the shared diffusion time of this microbatch;
    /// `sp_group`: world ranks of this rank's SP group (self included).
    pub fn forward_block(
        &self,
        x_in_val: Tensor,
        t: f32,
        comm: &mut Communicator,
        sp_group: &[usize],
    ) -> Result<StageRun, CommError> {
        let StageLayers::Block { time_cond, block, plan, to_windows, to_peers } = &self.layers
        else {
            panic!("not a block stage")
        };
        let store = &self.store;
        let sp = sp_group.len();
        let me = sp_group.iter().position(|&r| r == comm.rank()).expect("rank in sp group");
        let rows = x_in_val.shape()[0];
        assert_eq!(rows * sp, to_windows.len(), "block input rows vs. the stage's layout");
        let cols = plan.dim(); // feature columns per peer (local head block)

        let mut tape = Tape::new();
        let mut binding = Binding::new(store);
        let x_in = tape.leaf(x_in_val);
        let cond = time_cond.embed(&mut tape, &mut binding, store, t);
        let (mut qkv_sent, mut qkv_recv, mut attn_sent, mut attn_recv) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let out = block.forward_with(&mut tape, &mut binding, store, x_in, cond, |tape, binding, h| {
            let [q, k, v] =
                [block.attn.wq, block.attn.wk, block.attn.wv].map(|w| w.forward(tape, binding, store, h));
            // Ulysses scatter: peer j gets head block j of my rows as one
            // [rows, 3·cols] `Q | K | V` message (window chunks batched into
            // a single message, as in the paper's merged communication).
            qkv_sent = (0..sp)
                .map(|j| {
                    let parts = [q, k, v].map(|p| tape.slice_cols(p, j * cols, (j + 1) * cols));
                    tape.concat_cols(&parts)
                })
                .collect();
            qkv_recv = alltoall_vars(tape, comm, sp_group, me, &qkv_sent)?;
            let stacked = tape.concat_rows(&peer_vars(&qkv_sent, &qkv_recv));
            let windowed = tape.gather_rows(stacked, to_windows);
            let o = tape.window_attention_core(windowed, plan);
            // Ulysses gather: peer j takes back its rows of every window.
            let by_peer = tape.gather_rows(o, to_peers);
            attn_sent = (0..sp).map(|j| tape.slice_rows(by_peer, j * rows, (j + 1) * rows)).collect();
            attn_recv = alltoall_vars(tape, comm, sp_group, me, &attn_sent)?;
            // Peer i computed head block i: concat columns in SP order
            // restores the full feature dim for my rows.
            let attn_full = tape.concat_cols(&peer_vars(&attn_sent, &attn_recv));
            Ok(block.attn.wo.forward(tape, binding, store, attn_full))
        })?;

        Ok(StageRun {
            tape,
            binding,
            x_in: Some(x_in),
            out,
            qkv_sent,
            qkv_recv,
            attn_sent,
            attn_recv,
            loss: 0.0,
        })
    }

    /// Block backward: the forward's transpose, as one reverse sweep with two
    /// stops. The sweep halts at the vars shipped through each all-to-all
    /// (the attention outputs, then the `Q | K | V` chunks), the gradients of
    /// the leaves received there travel back through the same exchange, and
    /// what arrives seeds the shipped vars before the sweep resumes. Every
    /// node's backward runs once. Returns the gradient w.r.t. the block input
    /// and accumulates parameter gradients into `param_grads`.
    pub fn backward_block(
        &self,
        run: StageRun,
        g_out: Tensor,
        comm: &mut Communicator,
        sp_group: &[usize],
        param_grads: &mut [Option<Tensor>],
    ) -> Result<Tensor, CommError> {
        let me = sp_group.iter().position(|&r| r == comm.rank()).expect("rank in sp group");
        let tape = &run.tape;
        let mut grads = tape.grads();
        tape.seed(&mut grads, run.out, g_out);
        for (sent, recv) in [(&run.attn_sent, &run.attn_recv), (&run.qkv_sent, &run.qkv_recv)] {
            tape.sweep(&mut grads, sent);
            let chunks = recv
                .iter()
                .map(|leaf| match *leaf {
                    Some(v) => grads.take(v).unwrap_or_else(|| Tensor::zeros(tape.value(v).shape())),
                    None => Tensor::zeros(&[0]),
                })
                .collect();
            let returned = comm.alltoall(sp_group, chunks)?;
            for (i, g) in returned.into_iter().enumerate().filter(|&(i, _)| i != me) {
                tape.seed(&mut grads, sent[i], g);
            }
        }
        tape.sweep(&mut grads, &[]);
        let x_in = run.x_in.expect("block stages have an input leaf");
        let g_in = grads.take(x_in).expect("block input grad");
        run.binding.accumulate_grads(&mut grads, param_grads);
        Ok(g_in)
    }

    /// Input-stage backward.
    pub fn backward_input(&self, mut run: StageRun, g_out: Tensor, param_grads: &mut [Option<Tensor>]) {
        let mut grads = run.tape.backward_from(&[(run.out, g_out)]);
        run.binding.accumulate_grads(&mut grads, param_grads);
    }

    /// Head-stage backward: returns grad w.r.t. the head input rows.
    pub fn backward_head(&self, mut run: StageRun, param_grads: &mut [Option<Tensor>]) -> Tensor {
        let mut grads = run.tape.backward(run.out);
        let x_in = run.x_in.expect("head stages have an input leaf");
        let g = grads.take(x_in).expect("head input grad");
        run.binding.accumulate_grads(&mut grads, param_grads);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;
    use crate::data::gather;
    use aeris_core::AerisConfig;
    use aeris_nn::window::WindowGrid;
    use aeris_tensor::Rng;

    /// A two-block reference on a `grid_h × grid_w` grid of 4×4 windows, with
    /// the zero-initialized AdaLN heads nudged so the blocks are not
    /// identities.
    fn reference(grid_h: usize, grid_w: usize) -> AerisModel {
        let mut m = AerisModel::new(AerisConfig { grid_h, grid_w, ..AerisConfig::test_tiny() });
        let mut rng = Rng::seed_from(9);
        for head in m.blocks.iter().map(|b| b.adaln.head).collect::<Vec<_>>() {
            for id in [head.w, head.b.expect("adaln bias")] {
                let nudge = Tensor::randn(m.store.get(id).shape(), &mut rng).scale(0.05);
                m.store.get_mut(id).add_assign(&nudge);
            }
        }
        m
    }

    fn layout(m: &AerisModel, block: usize, sp: usize) -> ActLayout {
        let c = &m.cfg;
        let grid = WindowGrid::new(c.grid_h, c.grid_w, c.window.0, c.window.1);
        ActLayout::new(grid, m.blocks[block].shifted, 1, 1, sp)
    }

    /// Forward block 0 on every rank of one SP group (wp = 1×1) over random
    /// rows; returns each rank's tape length.
    fn block_tape_lens(m: &AerisModel, sp: usize) -> Vec<usize> {
        let layout = layout(m, 0, sp);
        let world = World::new(sp);
        let group: Vec<usize> = (0..sp).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..sp)
                .map(|rank| {
                    let (mut comm, layout, group) = (world.communicator(rank), &layout, &group);
                    s.spawn(move || {
                        let stage = StageModel::from_reference(m, StageKind::Block(0), layout).unwrap();
                        let mut rng = Rng::seed_from(rank as u64);
                        let x = Tensor::randn(&[layout.rows_per_rank(), m.cfg.dim], &mut rng);
                        stage.forward_block(x, 0.4, &mut comm, group).unwrap().tape.len()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// The block stage records a fixed number of nodes whatever the number of
    /// windows a rank holds: 54 at sp = 1 (the attention closure's share is
    /// three projections, one `Q | K | V` chunk of 3 slices + 1 concat, stack,
    /// gather, core, gather, slice, concat and Wo) and 7 more at sp = 2 (one
    /// more chunk, its attention slice, and the two received leaves). A
    /// fall-back to per-window nodes grows with the window count and fails
    /// this.
    #[test]
    fn block_tape_length_is_independent_of_windows_per_rank() {
        for (sp, nodes) in [(1, 54), (2, 61)] {
            for (grid_h, grid_w) in [(4, 8), (8, 16)] {
                let m = reference(grid_h, grid_w);
                assert_eq!(
                    block_tape_lens(&m, sp),
                    vec![nodes; sp],
                    "sp={sp}, {} windows per rank",
                    m.geo.grid.count()
                );
            }
        }
    }

    /// At sp = 1, wp = 1×1 the stage is the reference block on window-major
    /// rows: separate Wq/Wk/Wv GEMMs, the core op and the Wo GEMM against the
    /// reference's one fused node, bit for bit, unshifted and shifted.
    #[test]
    fn single_rank_block_stage_equals_reference_block_bitwise() {
        let m = reference(8, 16);
        let t = 0.7;
        let x = Tensor::randn(&[m.cfg.tokens(), m.cfg.dim], &mut Rng::seed_from(3));
        for b in 0..m.blocks.len() {
            let mut tape = Tape::new();
            let mut binding = Binding::new(&m.store);
            let xv = tape.leaf(x.clone());
            let cond = m.time_cond.embed(&mut tape, &mut binding, &m.store, t);
            let out = m.blocks[b].forward(&mut tape, &mut binding, &m.store, xv, cond, &m.geo);

            let layout = layout(&m, b, 1);
            let tokens = layout.tokens_of(0, 0, 0);
            let stage = StageModel::from_reference(&m, StageKind::Block(b), &layout).unwrap();
            let mut comm = World::new(1).communicator(0);
            let run = stage.forward_block(gather(&x, &tokens), t, &mut comm, &[0]).unwrap();

            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(run.tape.value(run.out)),
                bits(&gather(tape.value(out), &tokens)),
                "block {b} (shifted: {})",
                m.blocks[b].shifted
            );
        }
    }
}
