//! The Swin diffusion transformer.

use crate::config::AerisConfig;
use aeris_autodiff::{Tape, Var, WindowAttnPlan};
use aeris_nn::posenc;
use aeris_nn::timecond::AdaLnHead;
use aeris_nn::window::WindowGrid;
use aeris_nn::{
    pos_encoding_2d, Binding, Linear, ParamStore, RmsNorm, RopeTable, SwiGlu, TimeConditioner,
    WindowAttention,
};
use aeris_tensor::attention::{window_core_backward_into, window_core_into, CoreScratch};
use aeris_tensor::dispatch::Kernel;
use aeris_tensor::gemm::gemm;
use aeris_tensor::{sweeps, Rng, Tensor};
use std::convert::Infallible;

mod backward;

pub use backward::{BlockGrads, BlockSaves};

/// Whole windows per row block of the tape-free block pass
/// ([`SwinBlock::pass`]): 4 × 16 tokens, 64 rows, at toy48.
const WINDOWS_PER_PASS: usize = 4;

/// Every buffer the executor uses, owned by its caller for as long as its
/// work runs (a serve lane's batch slot, a `Trainer`, a rollout, a SWiPe
/// block stage) and sized on first use and for each new model shape. The
/// forward's: the attention plan and the core's tiles, the time features `feats`, their projection `time` (before SiLU) and the
/// conditioning vector `cond`, the assembled `input`, the residual stream
/// `x` and its post-attention value `mid` (`[tokens, dim]`, stream order),
/// and per row block, in the order of the block's [`BlockRows`], the normed
/// rows `h`, the projection `qkv`, the context `o`, a branch output `y`, the
/// gate-up `gu` and its SwiGLU `hid`. `inv_rms` receives the norms' `r`.
/// After a forward, `x`, `mid` and `inv_rms` hold the output norm's input,
/// output and `r`. Training adds each block's [`BlockSaves`], the backward's
/// [`BlockGrads`], the prediction `out` and its gradient `dout`, and the
/// gradients of `cond` and of the time projection. A SWiPe block stage
/// keeps its in-flight microbatches' spare saves in `saves`.
#[derive(Default)]
pub struct Workspace {
    plan: Option<WindowAttnPlan>,
    core: CoreScratch,
    pub feats: Vec<f32>,
    pub time: Vec<f32>,
    pub cond: Vec<f32>,
    input: Vec<f32>,
    /// The stream: a block's input before its pass, its output after.
    pub x: Vec<f32>,
    mid: Vec<f32>,
    h: Vec<f32>,
    qkv: Vec<f32>,
    o: Vec<f32>,
    y: Vec<f32>,
    gu: Vec<f32>,
    hid: Vec<f32>,
    inv_rms: Vec<f32>,
    pub saves: Vec<BlockSaves>,
    pub grads: BlockGrads,
    out: Vec<f32>,
    dout: Vec<f32>,
    dcond: Vec<f32>,
    dtime: Vec<f32>,
}

/// Size every buffer of `bufs` to its length. With `debug_assertions` every
/// element is NaN, so an element a pass misses poisons the result, as a
/// `Tensor::for_overwrite` buffer does.
fn size_buffers<const N: usize>(bufs: [(&mut Vec<f32>, usize); N]) {
    for (buf, n) in bufs {
        buf.resize(n, 0.0);
        if cfg!(debug_assertions) {
            buf.fill(f32::NAN);
        }
    }
}

impl Workspace {
    /// Size the forward's buffers for `cfg`'s model over `tokens` stream
    /// rows, taken in row blocks of up to `rows`.
    pub fn prepare(&mut self, cfg: &AerisConfig, tokens: usize, rows: usize) {
        let (dim, ffn) = (cfg.dim, cfg.ffn);
        size_buffers([
            (&mut self.feats, cfg.time_feat_dim),
            (&mut self.time, cfg.cond_dim),
            (&mut self.cond, cfg.cond_dim),
            (&mut self.input, tokens * cfg.input_channels()),
            (&mut self.x, tokens * dim),
            (&mut self.mid, tokens * dim),
            (&mut self.h, rows * dim),
            (&mut self.qkv, rows * 3 * dim),
            (&mut self.o, rows * dim),
            (&mut self.y, rows * dim),
            (&mut self.gu, rows * 2 * ffn),
            (&mut self.hid, rows * ffn),
            (&mut self.inv_rms, tokens),
        ]);
    }
}

/// What [`SwinBlock::pass`] keeps for a backward, in the layouts the tape
/// keeps them in: [`BlockSaves`] for [`SwinBlock::backward`], `()` (keeps
/// nothing) for `velocity`, whose calls compile to nothing.
pub trait Saves {
    /// The block input `x`, `[tokens, dim]` in stream order, before the
    /// pass, and the conditioning vector.
    fn input(&mut self, _x: &[f32], _cond: &[f32]) {}
    /// Where the row block at row `r0` of the block's row order (`n` rows)
    /// puts its attention branch's normed rows, `qkv` and context when they
    /// are kept (row order, so the kernels write them in place); `None`:
    /// the scratch.
    fn window_rows(&mut self, _r0: usize, _n: usize) -> Option<[&mut [f32]; 3]> {
        None
    }
    /// The row block after its attention branch: its stream `rows` and
    /// `[inv_rms, y]`, the norm's `r` and the branch output, one row per
    /// entry of `rows`.
    fn attention(&mut self, _rows: &[usize], _bufs: [&[f32]; 2]) {}
    /// The same row block after its MLP branch: `[h, inv_rms, gu, hid, y]`,
    /// the second norm's rows and `r`, the gate-up, the SwiGLU output and
    /// the branch output.
    fn mlp(&mut self, _rows: &[usize], _bufs: [&[f32]; 5]) {}
    /// The pass is done: the post-attention stream `mid` (which may be
    /// swapped out: the next pass, or the output norm, writes every row
    /// before reading it) and the block's [`BlockConsts`].
    fn done(&mut self, _mid: &mut Vec<f32>, _consts: BlockConsts) {}
}

impl Saves for () {}

/// The attention step of a block's sequence, between the fused
/// `Wq | Wk | Wv` GEMM and `Wo`, and its backward, between `Wo`ᵀ and the
/// fused projection's NT / TN GEMMs. On one process it is the window core
/// ([`WindowAttnPlan`]); a SWiPe block stage puts its Ulysses exchanges
/// around the core, and a failed exchange is its `Error`.
pub trait AttentionStep {
    /// Why the step can fail.
    type Error;
    /// A row block's `Q | K | V` (`[n, 3·dim]`, rows in the block's row
    /// order) into its context `o` (`[n, dim]`, the same rows), the core
    /// working in `core`. The step may leave `qkv` rewritten into the layout
    /// its backward reads.
    fn forward(&mut self, qkv: &mut [f32], o: &mut [f32], core: &mut CoreScratch) -> Result<(), Self::Error>;
    /// The context's gradient `d_o` over every row of the block at once
    /// into `dqkv`, reading `qkv` as the forward left it. The step may
    /// overwrite `d_o`.
    fn backward(&mut self, d_o: &mut [f32], qkv: &[f32], dqkv: &mut [f32], core: &mut CoreScratch) -> Result<(), Self::Error>;
}

/// The single-process step: the window core over the rows' whole windows.
impl AttentionStep for WindowAttnPlan {
    type Error = Infallible;

    fn forward(&mut self, qkv: &mut [f32], o: &mut [f32], core: &mut CoreScratch) -> Result<(), Infallible> {
        self.n_windows = o.len() / (self.window_len * self.dim());
        window_core_into(Kernel::detected(), qkv, self, o, core);
        Ok(())
    }

    fn backward(&mut self, d_o: &mut [f32], qkv: &[f32], dqkv: &mut [f32], core: &mut CoreScratch) -> Result<(), Infallible> {
        self.n_windows = d_o.len() / (self.window_len * self.dim());
        window_core_backward_into(Kernel::detected(), d_o, qkv, self, dqkv, core);
        Ok(())
    }
}

/// The rows a block's sequence visits: `order` lists the stream's rows in
/// the order its attention step reads them, `inv` is the inverse, and the
/// pass takes `block` of them at a time. One process: the window partition
/// and 4 windows a row block. A SWiPe block stage: its rows as they
/// lie (already in window order) and its whole shard in one block.
#[derive(Clone, Copy)]
pub struct BlockRows<'a> {
    pub order: &'a [usize],
    pub inv: &'a [usize],
    pub block: usize,
}

/// What a block pass derives from its parameters and `cond` before its row
/// blocks: the six AdaLN vectors `[shift1, scale1, gate1, shift2, scale2,
/// gate2]` (`[6·dim]`), `1 + scale` of each branch, as the taped norm adds
/// it, and `Wq | Wk | Wv` side by side (`[dim, 3·dim]`), the matrix the
/// taped attention multiplies by.
pub struct BlockConsts {
    mods: Vec<f32>,
    scales: [Vec<f32>; 2],
    w_qkv: Tensor,
}

/// One transformer block: pre-RMSNorm → AdaLN modulate → window attention →
/// gated residual; pre-RMSNorm → AdaLN modulate → SwiGLU → gated residual.
/// `shifted` blocks roll the token grid by half a window first (§V-B).
#[derive(Clone)]
pub struct SwinBlock {
    pub norm1: RmsNorm,
    pub attn: WindowAttention,
    pub norm2: RmsNorm,
    pub mlp: SwiGlu,
    pub adaln: AdaLnHead,
    pub shifted: bool,
}

impl SwinBlock {
    fn new(store: &mut ParamStore, name: &str, cfg: &AerisConfig, shifted: bool, rng: &mut Rng) -> Self {
        SwinBlock {
            norm1: RmsNorm::new(store, &format!("{name}.norm1"), cfg.dim),
            attn: WindowAttention::new(store, &format!("{name}.attn"), cfg.dim, cfg.n_heads, rng),
            norm2: RmsNorm::new(store, &format!("{name}.norm2"), cfg.dim),
            mlp: SwiGlu::new(store, &format!("{name}.mlp"), cfg.dim, cfg.ffn, rng),
            adaln: AdaLnHead::new(store, name, cfg.cond_dim, cfg.dim),
            shifted,
        }
    }

    /// Forward one block over the full `[tokens, dim]` token matrix on a
    /// tape: the recording oracle of [`SwinBlock::pass`] and
    /// [`SwinBlock::backward`].
    pub fn forward(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        store: &ParamStore,
        x: Var,
        cond: Var,
        geo: &BlockGeometry,
    ) -> Var {
        // AdaLN's scale enters as (1 + s) inside the modulated norm, so the
        // zero-initialized head is identity.
        let [shift1, scale1, gate1, shift2, scale2, gate2] =
            self.adaln.forward(tape, binding, store, cond);

        // ---- attention branch: window partition (with cyclic roll when
        // shifted), per-window attention, merge back ----
        let rows = geo.rows(self.shifted);
        let h = self.norm1.forward_modulated(tape, binding, store, x, scale1, shift1);
        let windowed = tape.gather_rows(h, rows.order);
        let merged = self.attn.forward_all_windows(tape, binding, store, windowed, &geo.rope, geo.grid.count());
        let h = tape.gather_rows(merged, rows.inv);
        let x = tape.gated_residual(x, h, gate1);

        // ---- MLP branch ----
        let h = self.norm2.forward_modulated(tape, binding, store, x, scale2, shift2);
        let h = self.mlp.forward(tape, binding, store, h);
        tape.gated_residual(x, h, gate2)
    }

    /// This block's [`BlockConsts`] for the conditioning vector `cond`.
    fn consts(&self, store: &ParamStore, cond: &[f32]) -> BlockConsts {
        let dim = self.norm1.dim;
        let mut mods = vec![0.0; 6 * dim];
        self.adaln.head.apply(store, cond, &mut mods);
        let one_plus = |i: usize| -> Vec<f32> { mods[i * dim..(i + 1) * dim].iter().map(|x| x + 1.0).collect() };
        let scales = [one_plus(1), one_plus(4)];
        let a = &self.attn;
        let w_qkv = Tensor::concat_cols(&[store.get(a.wq.w), store.get(a.wk.w), store.get(a.wv.w)]);
        BlockConsts { mods, scales, w_qkv }
    }

    /// The block without a tape, in place on `ws.x`, conditioned on `ws.cond`:
    /// one pass over `rows` in row blocks of `rows.block`. A row block is
    /// five row-block kernels of `sweeps` around the fused `Wq | Wk | Wv`
    /// GEMM, the attention step `attn` and `Wo`: the modulated norm gathered
    /// straight into the row order; the gated residual scattered back; the
    /// second norm, gathered; the SwiGLU; its gated residual, scattered.
    /// Every element comes from the kernel and expression of the op
    /// [`SwinBlock::forward`] records, so the bits are the same. `saves`
    /// keeps what [`SwinBlock::backward`] reads (`()`: nothing).
    pub fn pass<A: AttentionStep>(
        &self,
        store: &ParamStore,
        rows: BlockRows,
        attn: &mut A,
        ws: &mut Workspace,
        saves: &mut impl Saves,
    ) -> Result<(), A::Error> {
        let (dim, ffn) = (self.norm1.dim, self.mlp.ffn);
        let Workspace { core, cond, x, mid, h, qkv, o, y, gu, hid, inv_rms, .. } = ws;
        let consts = self.consts(store, cond);
        let BlockConsts { mods, scales: [scale1, scale2], w_qkv } = &consts;
        let [shift1, _, gate1, shift2, _, gate2]: [&[f32]; 6] = std::array::from_fn(|i| &mods[i * dim..(i + 1) * dim]);
        let (g1, g2) = (store.get(self.norm1.gamma).data(), store.get(self.norm2.gamma).data());
        let (mods1, mods2) = ([g1, &scale1[..], shift1], [g2, &scale2[..], shift2]);
        saves.input(x, cond);
        let BlockRows { order, block: per, .. } = rows;
        for (i, rows) in order.chunks(per).enumerate() {
            let n = rows.len();
            let (h, y, gu, hid, ir) = (&mut h[..n * dim], &mut y[..n * dim], &mut gu[..n * 2 * ffn], &mut hid[..n * ffn], &mut inv_rms[..n]);
            let scratch = [&mut *h, &mut qkv[..n * 3 * dim], &mut o[..n * dim]];
            let [h1, qkv, o] = saves.window_rows(i * per, n).unwrap_or(scratch);
            sweeps::modulated_rmsnorm_rows(h1, ir, x, rows, mods1, self.norm1.eps);
            gemm(n, 3 * dim, dim, h1, false, w_qkv.data(), false, qkv);
            attn.forward(qkv, o, core)?;
            self.attn.wo.apply(store, o, y);
            sweeps::gated_residual(mid, x, y, rows, gate1);
            saves.attention(rows, [ir, y]);
            sweeps::modulated_rmsnorm_rows(h, ir, mid, rows, mods2, self.norm2.eps);
            self.mlp.w_in.apply(store, h, gu);
            sweeps::swiglu(hid, gu, ffn);
            self.mlp.w_down.apply(store, hid, y);
            sweeps::gated_residual(x, mid, y, rows, gate2);
            saves.mlp(rows, [h, ir, gu, hid, y]);
        }
        saves.done(mid, consts);
        Ok(())
    }
}

/// Precomputed geometry shared by all blocks.
#[derive(Clone)]
pub struct BlockGeometry {
    pub grid: WindowGrid,
    pub rope: RopeTable,
    /// partition permutation for unshifted blocks.
    pub direct_perm: Vec<usize>,
    pub direct_inv: Vec<usize>,
    /// roll-then-partition permutation for shifted blocks.
    pub shifted_perm: Vec<usize>,
    pub shifted_inv: Vec<usize>,
}

impl BlockGeometry {
    /// Build for a config.
    pub fn new(cfg: &AerisConfig) -> Self {
        let grid = WindowGrid::new(cfg.grid_h, cfg.grid_w, cfg.window.0, cfg.window.1);
        let rope = RopeTable::new(cfg.window.0, cfg.window.1, cfg.head_dim(), 0, 0);
        let direct_perm = grid.partition_perm();
        let direct_inv = aeris_nn::window::invert_perm(&direct_perm);
        let (sh, sw) = grid.half_shift();
        let roll = grid.roll_perm(sh, sw);
        // Compose: window-major gather of the rolled image.
        let shifted_perm: Vec<usize> = direct_perm.iter().map(|&p| roll[p]).collect();
        let shifted_inv = aeris_nn::window::invert_perm(&shifted_perm);
        BlockGeometry { grid, rope, direct_perm, direct_inv, shifted_perm, shifted_inv }
    }

    /// A block's rows on one process: the window partition (the gather of
    /// its token rows into window order) and its inverse, taken
    /// [`WINDOWS_PER_PASS`] windows at a time.
    fn rows(&self, shifted: bool) -> BlockRows<'_> {
        let (order, inv) =
            if shifted { (&self.shifted_perm, &self.shifted_inv) } else { (&self.direct_perm, &self.direct_inv) };
        BlockRows { order, inv, block: WINDOWS_PER_PASS * self.grid.window_len() }
    }
}

/// The full AERIS network with its parameter store.
#[derive(Clone)]
pub struct AerisModel {
    pub cfg: AerisConfig,
    pub store: ParamStore,
    pub embed: Linear,
    pub blocks: Vec<SwinBlock>,
    pub out_norm: RmsNorm,
    pub decode: Linear,
    pub time_cond: TimeConditioner,
    pub geo: BlockGeometry,
    /// Positional field `[tokens]` added to each input channel.
    pub pos_field: Tensor,
}

impl AerisModel {
    /// Build with random initialization from `cfg.seed`.
    pub fn new(cfg: AerisConfig) -> Self {
        cfg.validate();
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(cfg.seed ^ 0xA315);
        let embed = Linear::new(&mut store, "embed", cfg.input_channels(), cfg.dim, &mut rng);
        let time_cond =
            TimeConditioner::new(&mut store, "time", cfg.time_feat_dim, cfg.cond_dim, &mut rng);
        let mut blocks = Vec::with_capacity(cfg.total_blocks());
        for b in 0..cfg.total_blocks() {
            blocks.push(SwinBlock::new(
                &mut store,
                &format!("block{b}"),
                &cfg,
                b % 2 == 1, // windows shifted every other block
                &mut rng,
            ));
        }
        let out_norm = RmsNorm::new(&mut store, "out_norm", cfg.dim);
        // Zero-initialized decoder: the raw model starts by predicting v̂ = 0,
        // a stable starting point for diffusion training.
        let decode = Linear::new_zeros(&mut store, "decode", cfg.dim, cfg.channels);
        let geo = BlockGeometry::new(&cfg);
        let pos_field = pos_encoding_2d(cfg.grid_h, cfg.grid_w, cfg.pos_amp);
        AerisModel { cfg, store, embed, blocks, out_norm, decode, time_cond, geo, pos_field }
    }

    /// This model's attention plan: `kept` when it is one (a workspace keeps
    /// the last model's), else a new one.
    fn plan(&self, kept: Option<WindowAttnPlan>) -> WindowAttnPlan {
        let (rope, heads) = (&self.geo.rope, self.cfg.n_heads);
        match kept {
            Some(p) if p.n_heads == heads && p.cos == rope.cos && p.sin == rope.sin => p,
            _ => WindowAttnPlan::new(0, rope.seq_len(), heads, self.cfg.head_dim(), rope.cos.clone(), rope.sin.clone()),
        }
    }

    /// Total scalar parameters.
    pub fn param_count(&self) -> usize {
        self.store.num_scalars()
    }

    /// Assemble the conditioned input `[x_t, x_prev, forcings]` (+PE) in
    /// standardized units: all `[tokens, ·]`.
    pub fn assemble_input(&self, x_t: &Tensor, x_prev: &Tensor, forcings: &Tensor) -> Tensor {
        posenc::assemble(&self.input_parts(x_t, x_prev, forcings), &self.pos_field)
    }

    /// The three input parts, checked against the config.
    fn input_parts<'a>(&self, x_t: &'a Tensor, x_prev: &'a Tensor, forcings: &'a Tensor) -> [&'a Tensor; 3] {
        assert_eq!(x_t.shape(), &[self.cfg.tokens(), self.cfg.channels]);
        assert_eq!(x_prev.shape(), &[self.cfg.tokens(), self.cfg.channels]);
        assert_eq!(forcings.shape(), &[self.cfg.tokens(), self.cfg.forcing_channels]);
        [x_t, x_prev, forcings]
    }

    /// Forward pass on a tape: input `[tokens, input_channels]`, diffusion
    /// time `t` → predicted velocity `[tokens, channels]`, every activation
    /// kept for the backward.
    pub fn forward(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        input: Var,
        t: f32,
    ) -> Var {
        let store = &self.store;
        let cond = self.time_cond.embed(tape, binding, store, t);
        let mut x = self.embed.forward(tape, binding, store, input);
        for block in &self.blocks {
            x = block.forward(tape, binding, store, x, cond, &self.geo);
        }
        let x = self.out_norm.forward(tape, binding, store, x);
        self.decode.forward(tape, binding, store, x)
    }

    /// [`Self::velocity_into`] over a workspace of its own.
    pub fn velocity(&self, x_t: &Tensor, x_prev: &Tensor, forcings: &Tensor, t: f32) -> Tensor {
        self.velocity_into(&mut Workspace::default(), x_t, x_prev, forcings, t)
    }

    /// Inference-only velocity evaluation `σ_d F_θ(x/σ_d, t)` (σ_d = 1 on
    /// standardized data) without a tape, in `ws` (`run`). Bitwise equal to
    /// [`AerisModel::forward`].
    pub fn velocity_into(&self, ws: &mut Workspace, x_t: &Tensor, x_prev: &Tensor, forcings: &Tensor, t: f32) -> Tensor {
        let mut out = Tensor::for_overwrite(&[self.cfg.tokens(), self.cfg.channels]);
        // A `Vec<()>` holds no memory.
        let mut nothing = vec![(); self.blocks.len()];
        self.run(self.input_parts(x_t, x_prev, forcings), t, ws, &mut nothing, out.data_mut());
        out
    }

    /// The tape-free forward into `out` (`[tokens, channels]`): the time
    /// embedding, the embedding, each block's [`SwinBlock::pass`] in `ws`,
    /// the output norm and the decoder, as plain calls of the kernels the
    /// taped ops run. Block `b` keeps its saves in `saves[b]`.
    fn run<S: Saves>(&self, parts: [&Tensor; 3], t: f32, ws: &mut Workspace, saves: &mut [S], out: &mut [f32]) {
        let (store, cfg) = (&self.store, &self.cfg);
        ws.prepare(cfg, cfg.tokens(), WINDOWS_PER_PASS * self.geo.grid.window_len());
        self.time_cond.apply(store, t, &mut ws.feats, &mut ws.time, &mut ws.cond);
        let mut plan = self.plan(ws.plan.take());
        posenc::assemble_into(&parts, &self.pos_field, &mut ws.input);
        self.embed.apply(store, &ws.input, &mut ws.x);
        for (block, saves) in self.blocks.iter().zip(saves) {
            let Ok(()) = block.pass(store, self.geo.rows(block.shifted), &mut plan, ws, saves);
        }
        ws.plan = Some(plan);
        self.out_norm.apply(store, &ws.x, &mut ws.mid, &mut ws.inv_rms);
        self.decode.apply(store, &ws.mid, out);
    }
}

#[cfg(test)]
impl SwinBlock {
    /// Number of scalar parameters.
    pub(crate) fn num_params(&self) -> usize {
        self.norm1.num_params()
            + self.attn.num_params()
            + self.norm2.num_params()
            + self.mlp.num_params()
            + self.adaln.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AerisModel {
        AerisModel::new(AerisConfig::test_tiny())
    }

    /// The toy48-sized model (constants copied from
    /// `benchmark/src/fixture.rs`): four blocks, unshifted and shifted.
    fn toy48() -> AerisConfig {
        AerisConfig {
            grid_h: 16,
            grid_w: 32,
            channels: 20,
            forcing_channels: 3,
            dim: 48,
            n_heads: 4,
            ffn: 96,
            n_layers: 2,
            blocks_per_layer: 2,
            window: (4, 4),
            time_feat_dim: 32,
            cond_dim: 48,
            pos_amp: 0.1,
            seed: 0,
        }
    }

    /// `cfg`'s model with every parameter moved off its initialization (the
    /// zero-initialized decoder and AdaLN heads would make every block an
    /// identity and every output 0), and one random input triple.
    fn nudged(cfg: AerisConfig, seed: u64) -> (AerisModel, [Tensor; 3]) {
        let mut m = AerisModel::new(cfg);
        let mut rng = Rng::seed_from(seed);
        let ids: Vec<_> = m.store.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let shape = m.store.get(id).shape().to_vec();
            m.store.get_mut(id).add_assign(&Tensor::randn(&shape, &mut rng).scale(0.05));
        }
        let (tokens, c) = (m.cfg.tokens(), m.cfg.channels);
        let x_t = Tensor::randn(&[tokens, c], &mut rng);
        let x_prev = Tensor::randn(&[tokens, c], &mut rng);
        let f = Tensor::randn(&[tokens, m.cfg.forcing_channels], &mut rng);
        (m, [x_t, x_prev, f])
    }

    /// Shape and bit pattern: equal bits, not equal values (`-0.0 == 0.0`).
    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (t.shape().to_vec(), t.data().iter().map(|v| v.to_bits()).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// `velocity_into` (each block one pass over row blocks of whole
        /// windows, without a tape) is the recording forward bit for bit, on
        /// `test_tiny` (8 windows: full row blocks), on a 4 × 12 `test_tiny`
        /// (3 windows, a partial last row block) and on the toy48 shape, each
        /// with an unshifted and a shifted block, and again on a second call
        /// over the warm workspace. Three geometries in a row (repeats
        /// allowed) share one workspace, which re-sizes between the models.
        #[test]
        fn velocity_equals_the_recording_forward_bitwise(
            seed in 0u64..1_000_000,
            t in 0.0f32..1.6,
            geometries in proptest::collection::vec(0usize..3, 3),
        ) {
            let mut ws = Workspace::default();
            for geometry_index in geometries {
                let (m, [x_t, x_prev, f]) = nudged(geometry(geometry_index), seed);
                let mut tape = Tape::new();
                let mut binding = Binding::new(&m.store);
                let iv = tape.constant(m.assemble_input(&x_t, &x_prev, &f));
                let out = m.forward(&mut tape, &mut binding, iv, t);
                let recorded = bits(tape.value(out));
                proptest::prop_assert!(tape.value(out).abs_max() > 0.0, "a zero output proves nothing");
                proptest::prop_assert_eq!(bits(&m.velocity_into(&mut ws, &x_t, &x_prev, &f, t)), recorded.clone());
                proptest::prop_assert_eq!(bits(&m.velocity_into(&mut ws, &x_t, &x_prev, &f, t)), recorded);
            }
        }
    }

    /// `cfg` of `velocity_equals_the_recording_forward_bitwise`'s geometry:
    /// `test_tiny` (8 windows: full row blocks), a 4 × 12 `test_tiny` (3
    /// windows, a partial last row block) or toy48.
    fn geometry(i: usize) -> AerisConfig {
        let tiny = AerisConfig::test_tiny();
        match i {
            0 => tiny,
            1 => AerisConfig { grid_h: 4, grid_w: 12, ..tiny },
            _ => toy48(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// `loss_grads` (the block pass with saves and the hand-written
        /// backward) is the recording chain — `forward`, `weighted_mse`,
        /// `backward`, `accumulate_grads` — bit for bit on the loss and on
        /// every gradient, over the three geometries of the forward's
        /// proptest, for two samples summed into one `acc`: the second call
        /// runs on the warm workspace and adds into filled slots. Three
        /// geometries in a row share one workspace.
        #[test]
        fn loss_grads_equals_the_recording_backward_bitwise(
            seed in 0u64..1_000_000,
            t in 0.0f32..1.6,
            geometries in proptest::collection::vec(0usize..3, 3),
        ) {
            let mut ws = Workspace::default();
            for geometry_index in geometries {
                let (m, [x_t, x_prev, f]) = nudged(geometry(geometry_index), seed);
                let mut rng = Rng::seed_from(seed ^ 0x5eed);
                let shape = [m.cfg.tokens(), m.cfg.channels];
                let w = Tensor::rand_uniform(&shape, 0.5, 1.5, &mut rng);
                let (mut acc, mut recorded) = (vec![None; m.store.len()], vec![None; m.store.len()]);
                for (t, x_t) in [(t, x_t.clone()), (1.6 - t, x_t.scale(-0.5))] {
                    let target = Tensor::randn(&shape, &mut rng);
                    let got = m.loss_grads(&mut ws, &x_t, &x_prev, &f, t, &target, &w, &mut acc);
                    let mut tape = Tape::new();
                    let mut binding = Binding::new(&m.store);
                    let iv = tape.constant(m.assemble_input(&x_t, &x_prev, &f));
                    let out = m.forward(&mut tape, &mut binding, iv, t);
                    let loss = tape.weighted_mse(out, &target, &w);
                    proptest::prop_assert_eq!(got.to_bits(), (tape.value(loss).data()[0] as f64).to_bits());
                    let mut grads = tape.backward(loss);
                    binding.accumulate_grads(&mut grads, &mut recorded);
                }
                for ((_, name, _), (a, b)) in m.store.iter().zip(acc.iter().zip(&recorded)) {
                    let (a, b) = (a.as_ref().expect("bound"), b.as_ref().expect("bound"));
                    proptest::prop_assert!(a.abs_max() > 0.0, "a zero gradient of {} proves nothing", name);
                    proptest::prop_assert_eq!(bits(a), bits(b), "gradient of {}", name);
                }
            }
        }
    }

    /// The toy48 backward as a contract: one `loss_grads` on a nudged model
    /// hashes, loss and every parameter gradient in store order, to one
    /// pinned FNV-1a digest (captured before the fused ops' backwards moved
    /// into `tensor::sweeps` and the AVX-512 tile grew a third panel).
    #[test]
    fn toy48_loss_grads_are_pinned_bitwise() {
        let (m, [x_t, x_prev, f]) = nudged(toy48(), 11);
        let mut rng = Rng::seed_from(12);
        let target = Tensor::randn(&[m.cfg.tokens(), m.cfg.channels], &mut rng);
        let w = Tensor::rand_uniform(target.shape(), 0.5, 1.5, &mut rng);
        let mut acc: Vec<Option<Tensor>> = vec![None; m.store.len()];
        let loss = m.loss_grads(&mut Workspace::default(), &x_t, &x_prev, &f, 0.7, &target, &w, &mut acc);
        let mut h = (0xcbf2_9ce4_8422_2325u64 ^ loss.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        for g in &acc {
            for x in g.as_ref().expect("every parameter is bound").data() {
                h = (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x877d_b9ab_8775_ab0e, "got {h:#x}");
    }

    /// The served forward as a contract: a nudged toy48 `velocity` at `t`
    /// near 0, mid-range and near π/2 hashes, every output in order, to one
    /// pinned FNV-1a digest (captured from the taped forward, before
    /// `velocity` ran its own block pass). The equality proptest above cannot
    /// see a change to a row kernel both sequences share; this can.
    #[test]
    fn toy48_velocity_is_pinned_bitwise() {
        let (m, [x_t, x_prev, f]) = nudged(toy48(), 13);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in [0.02f32, 0.8, 1.55] {
            for x in m.velocity(&x_t, &x_prev, &f, t).data() {
                h = (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x5fa3_8a38_762d_a1df, "got {h:#x}");
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let m = tiny();
        let mut rng = Rng::seed_from(1);
        let x_t = Tensor::randn(&[128, 4], &mut rng);
        let x_prev = Tensor::randn(&[128, 4], &mut rng);
        let f = Tensor::randn(&[128, 3], &mut rng);
        let v = m.velocity(&x_t, &x_prev, &f, 0.7);
        assert_eq!(v.shape(), &[128, 4]);
        assert!(v.all_finite());
    }

    #[test]
    fn zero_init_decoder_gives_zero_velocity_at_init() {
        let m = tiny();
        let mut rng = Rng::seed_from(2);
        let x_t = Tensor::randn(&[128, 4], &mut rng);
        let x_prev = Tensor::randn(&[128, 4], &mut rng);
        let f = Tensor::randn(&[128, 3], &mut rng);
        let v = m.velocity(&x_t, &x_prev, &f, 0.3);
        assert_eq!(v.abs_max(), 0.0);
    }

    #[test]
    fn deterministic_construction_and_forward() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.param_count(), b.param_count());
        let mut rng = Rng::seed_from(3);
        let x_t = Tensor::randn(&[128, 4], &mut rng);
        let x_prev = Tensor::randn(&[128, 4], &mut rng);
        let f = Tensor::randn(&[128, 3], &mut rng);
        assert_eq!(a.velocity(&x_t, &x_prev, &f, 0.5), b.velocity(&x_t, &x_prev, &f, 0.5));
    }

    #[test]
    fn output_depends_on_t_and_inputs_after_training_nudge() {
        // Nudge the decoder and one AdaLN head away from zero-init so
        // sensitivity is observable (at init the blocks are exact identities
        // and the time embedding is gated out by design).
        let mut m = tiny();
        let mut rng = Rng::seed_from(4);
        let dw = Tensor::randn(&[16, 4], &mut rng).scale(0.05);
        m.store.get_mut(m.decode.w).add_assign(&dw);
        let head_w = m.blocks[0].adaln.head.w;
        let shape = m.store.get(head_w).shape().to_vec();
        let dh = Tensor::randn(&shape, &mut rng).scale(0.05);
        m.store.get_mut(head_w).add_assign(&dh);
        let x_t = Tensor::randn(&[128, 4], &mut rng);
        let x_prev = Tensor::randn(&[128, 4], &mut rng);
        let f = Tensor::randn(&[128, 3], &mut rng);
        let v1 = m.velocity(&x_t, &x_prev, &f, 0.2);
        let v2 = m.velocity(&x_t, &x_prev, &f, 1.2);
        assert!(v1.max_abs_diff(&v2) > 1e-6, "insensitive to diffusion time");
        let x_t2 = x_t.scale(1.5);
        let v3 = m.velocity(&x_t2, &x_prev, &f, 0.2);
        assert!(v1.max_abs_diff(&v3) > 1e-6, "insensitive to noisy input");
    }

    #[test]
    fn param_count_matches_sum_of_parts() {
        let m = tiny();
        let mut total = m.embed.num_params() + m.time_cond.num_params()
            + m.out_norm.num_params() + m.decode.num_params();
        for b in &m.blocks {
            total += b.num_params();
        }
        assert_eq!(m.param_count(), total);
    }

    #[test]
    fn blocks_alternate_shift() {
        let cfg = AerisConfig { n_layers: 2, blocks_per_layer: 2, ..AerisConfig::test_tiny() };
        let m = AerisModel::new(cfg);
        let shifts: Vec<bool> = m.blocks.iter().map(|b| b.shifted).collect();
        assert_eq!(shifts, vec![false, true, false, true]);
    }

    /// The fused block, as an exact count instead of a noisy millisecond:
    /// one forward of the toy48-sized model (constants copied from
    /// `benchmark/src/fixture.rs`) with every parameter bound records exactly
    /// the 161 nodes and 1,653,284 activation elements of the benchmark's
    /// exact counters. The
    /// unfused chains recorded 9 more nodes and 10 × 24,576 + 96 more
    /// elements per block (197 / 2,636,708 for the four blocks), so
    /// un-fusing any one of them fails this.
    #[test]
    fn toy48_forward_stays_within_the_fused_tape_budget() {
        let m = AerisModel::new(toy48());
        let mut tape = Tape::new();
        let mut binding = Binding::new(&m.store);
        let iv = tape.constant(Tensor::zeros(&[m.cfg.tokens(), m.cfg.input_channels()]));
        let out = m.forward(&mut tape, &mut binding, iv, 0.5);
        assert_eq!(tape.value(out).shape(), &[512, 20]);
        let (nodes, elems) = (tape.len(), tape.activation_elems());
        // Every parameter is already a leaf: binding them all adds nothing.
        for (id, _, _) in m.store.iter() {
            binding.var(&mut tape, &m.store, id);
        }
        assert_eq!(tape.len(), nodes, "forward left a parameter unbound");
        assert_eq!((nodes, elems), (161, 1_653_284));
    }

    /// Gradients flow to every parameter tensor of the model.
    #[test]
    fn all_parameters_receive_gradients() {
        let mut m = tiny();
        // Nudge decode weights so the loss isn't flat at zero output.
        let mut rng = Rng::seed_from(5);
        let dw = Tensor::randn(&[16, 4], &mut rng).scale(0.1);
        m.store.get_mut(m.decode.w).add_assign(&dw);

        let x_t = Tensor::randn(&[128, 4], &mut rng);
        let x_prev = Tensor::randn(&[128, 4], &mut rng);
        let f = Tensor::randn(&[128, 3], &mut rng);
        let input = m.assemble_input(&x_t, &x_prev, &f);
        let mut tape = Tape::new();
        let mut binding = Binding::new(&m.store);
        let iv = tape.constant(input);
        let out = m.forward(&mut tape, &mut binding, iv, 0.8);
        let target = Tensor::randn(&[128, 4], &mut rng);
        let w = Tensor::ones(&[128, 4]);
        let loss = tape.weighted_mse(out, &target, &w);
        let mut grads = tape.backward(loss);
        let collected = binding.collect_grads(&mut grads);
        let missing: Vec<&str> = m
            .store
            .iter()
            .filter(|(id, _, _)| collected[id.0].is_none())
            .map(|(_, n, _)| n)
            .collect();
        assert!(missing.is_empty(), "params without grads: {missing:?}");
    }

    /// `loss_grads` is the hand-built chain (`forward` + `weighted_mse` +
    /// `backward` + `collect_grads`), bit for bit on the loss and on every
    /// gradient, summed over two samples.
    #[test]
    fn loss_grads_is_the_hand_built_chain_bitwise() {
        let mut m = tiny();
        let mut rng = Rng::seed_from(6);
        let dw = Tensor::randn(&[16, 4], &mut rng).scale(0.1);
        m.store.get_mut(m.decode.w).add_assign(&dw);
        let w = Tensor::rand_uniform(&[128, 4], 0.5, 1.5, &mut rng);

        let mut acc: Vec<Option<Tensor>> = vec![None; m.store.len()];
        let mut by_hand: Vec<Option<Tensor>> = vec![None; m.store.len()];
        let mut ws = Workspace::default();
        for t in [0.8f32, 0.3] {
            let x_t = Tensor::randn(&[128, 4], &mut rng);
            let x_prev = Tensor::randn(&[128, 4], &mut rng);
            let f = Tensor::randn(&[128, 3], &mut rng);
            let target = Tensor::randn(&[128, 4], &mut rng);
            let got = m.loss_grads(&mut ws, &x_t, &x_prev, &f, t, &target, &w, &mut acc);

            let mut tape = Tape::new();
            let mut binding = Binding::new(&m.store);
            let iv = tape.constant(m.assemble_input(&x_t, &x_prev, &f));
            let out = m.forward(&mut tape, &mut binding, iv, t);
            let loss = tape.weighted_mse(out, &target, &w);
            assert_eq!(got.to_bits(), (tape.value(loss).data()[0] as f64).to_bits());
            let mut grads = tape.backward(loss);
            for (sum, g) in by_hand.iter_mut().zip(binding.collect_grads(&mut grads)) {
                match (sum.as_mut(), g) {
                    (Some(sum), Some(g)) => sum.add_assign(&g),
                    (None, g) => *sum = g,
                    (Some(_), None) => {}
                }
            }
        }
        for ((id, name, _), (a, b)) in m.store.iter().zip(acc.iter().zip(&by_hand)) {
            let (a, b) = (a.as_ref().expect("bound"), b.as_ref().expect("bound"));
            assert_eq!(a.data(), b.data(), "gradient of {name} ({id:?}) differs");
        }
    }
}
