//! Per-rank pipeline-stage models and their segmented forward/backward.
//!
//! A model instance is split into `n_layers + 2` stages (§VII-A): stage 0
//! holds data loading + the input embedding, stages `1..=L` hold one Swin
//! block each, and the last stage holds the output norm, decoder, target
//! loading, and the loss. Parameters are copied from a reference
//! single-rank [`aeris_core::AerisModel`] so distributed results can be
//! compared against it exactly.
//!
//! Within a block, the forward pass crosses two Ulysses all-to-alls (heads
//! scatter / gather); the tape records the shipped activation vars, and the
//! backward runs as three `backward_from` passes with the transposed
//! exchanges in between.

use crate::comm::{CommError, Communicator};
use crate::layout::ActLayout;
use aeris_autodiff::{Grads, Tape, Var};
use aeris_core::AerisModel;
use aeris_nn::timecond::AdaLnHead;
use aeris_nn::{Binding, Linear, ParamStore, RmsNorm, RopeTable, SwiGlu, TimeConditioner};
use aeris_tensor::Tensor;
use std::collections::HashMap;

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

/// Learnable state of one stage (parameters replicated across DP×WP×SP).
pub struct StageModel {
    pub kind: StageKind,
    pub store: ParamStore,
    embed: Option<Linear>,
    time_cond: Option<TimeConditioner>,
    norm1: Option<RmsNorm>,
    wq: Option<Linear>,
    wk: Option<Linear>,
    wv: Option<Linear>,
    wo: Option<Linear>,
    norm2: Option<RmsNorm>,
    mlp: Option<SwiGlu>,
    adaln: Option<AdaLnHead>,
    out_norm: Option<RmsNorm>,
    decode: Option<Linear>,
    /// Whether this block uses shifted windows.
    pub shifted: bool,
    dim: usize,
    n_heads: usize,
    head_dim: usize,
}

/// Why a stage could not be built from a reference model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageError {
    /// The reference model has no parameter with this name — the stage
    /// partitioning and the model architecture are out of sync.
    MissingParam(String),
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::MissingParam(name) => {
                write!(f, "reference model lacks parameter {name}")
            }
        }
    }
}

impl std::error::Error for StageError {}

fn copy_param(
    map: &HashMap<String, Tensor>,
    store: &mut ParamStore,
    name: &str,
) -> Result<aeris_nn::ParamId, StageError> {
    let v = map.get(name).ok_or_else(|| StageError::MissingParam(name.to_string()))?.clone();
    Ok(store.register(name.to_string(), v))
}

fn copy_linear(
    map: &HashMap<String, Tensor>,
    store: &mut ParamStore,
    lin: &Linear,
    name: &str,
) -> Result<Linear, StageError> {
    let w = copy_param(map, store, &format!("{name}.w"))?;
    let b = match lin.b {
        Some(_) => Some(copy_param(map, store, &format!("{name}.b"))?),
        None => None,
    };
    Ok(Linear { w, b, in_dim: lin.in_dim, out_dim: lin.out_dim })
}

/// `name` is the layer base name; the reference registers the gain under
/// `{name}.gamma`.
fn copy_rms(
    map: &HashMap<String, Tensor>,
    store: &mut ParamStore,
    norm: &RmsNorm,
    name: &str,
) -> Result<RmsNorm, StageError> {
    let gamma = copy_param(map, store, &format!("{name}.gamma"))?;
    Ok(RmsNorm { gamma, dim: norm.dim, eps: norm.eps })
}

impl StageModel {
    /// Build a stage by copying the relevant parameters from a reference
    /// model. The reference must use `blocks_per_layer == 1` (one block per
    /// stage, the configuration the distributed runtime supports). A
    /// reference whose parameter set does not match the expected stage
    /// partitioning yields [`StageError::MissingParam`].
    pub fn from_reference(model: &AerisModel, kind: StageKind) -> Result<Self, StageError> {
        assert_eq!(
            model.cfg.blocks_per_layer, 1,
            "distributed runtime requires one block per Swin layer"
        );
        let map: HashMap<String, Tensor> =
            model.store.iter().map(|(_, n, v)| (n.to_string(), v.clone())).collect();
        let mut store = ParamStore::new();
        let mut sm = StageModel {
            kind,
            store: ParamStore::new(),
            embed: None,
            time_cond: None,
            norm1: None,
            wq: None,
            wk: None,
            wv: None,
            wo: None,
            norm2: None,
            mlp: None,
            adaln: None,
            out_norm: None,
            decode: None,
            shifted: false,
            dim: model.cfg.dim,
            n_heads: model.cfg.n_heads,
            head_dim: model.cfg.head_dim(),
        };
        match kind {
            StageKind::Input => {
                sm.embed = Some(copy_linear(&map, &mut store, &model.embed, "embed")?);
            }
            StageKind::Block(b) => {
                let blk = &model.blocks[b];
                // Shared time conditioner replicated into every block stage.
                let proj = copy_linear(&map, &mut store, &model.time_cond.proj, "time.proj")?;
                sm.time_cond = Some(TimeConditioner {
                    proj,
                    feat_dim: model.time_cond.feat_dim,
                    cond_dim: model.time_cond.cond_dim,
                });
                let p = format!("block{b}");
                sm.norm1 = Some(copy_rms(&map, &mut store, &blk.norm1, &format!("{p}.norm1"))?);
                sm.wq = Some(copy_linear(&map, &mut store, &blk.attn.wq, &format!("{p}.attn.wq"))?);
                sm.wk = Some(copy_linear(&map, &mut store, &blk.attn.wk, &format!("{p}.attn.wk"))?);
                sm.wv = Some(copy_linear(&map, &mut store, &blk.attn.wv, &format!("{p}.attn.wv"))?);
                sm.wo = Some(copy_linear(&map, &mut store, &blk.attn.wo, &format!("{p}.attn.wo"))?);
                sm.norm2 = Some(copy_rms(&map, &mut store, &blk.norm2, &format!("{p}.norm2"))?);
                sm.mlp = Some(SwiGlu {
                    w_in: copy_linear(&map, &mut store, &blk.mlp.w_in, &format!("{p}.mlp.w_in"))?,
                    w_down: copy_linear(
                        &map,
                        &mut store,
                        &blk.mlp.w_down,
                        &format!("{p}.mlp.w_down"),
                    )?,
                    dim: blk.mlp.dim,
                    ffn: blk.mlp.ffn,
                });
                sm.adaln = Some(AdaLnHead {
                    head: copy_linear(&map, &mut store, &blk.adaln.head, &format!("{p}.adaln"))?,
                    dim: blk.adaln.dim,
                });
                sm.shifted = blk.shifted;
            }
            StageKind::Head => {
                sm.out_norm = Some(copy_rms(&map, &mut store, &model.out_norm, "out_norm")?);
                sm.decode = Some(copy_linear(&map, &mut store, &model.decode, "decode")?);
            }
        }
        sm.store = store;
        Ok(sm)
    }

    /// Names of this stage's parameters (reference-model names).
    pub fn param_names(&self) -> Vec<String> {
        self.store.iter().map(|(_, n, _)| n.to_string()).collect()
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

impl StageModel {
    /// Input-stage forward: `input` is the assembled, PE-augmented
    /// `[rows, in_channels]` matrix for this rank's tokens.
    pub fn forward_input(&self, input: Tensor) -> StageRun {
        let embed = self.embed.as_ref().expect("not an input stage");
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
        let out_norm = self.out_norm.as_ref().expect("not a head stage");
        let decode = self.decode.as_ref().unwrap();
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

    /// Block-stage forward with distributed (Ulysses) attention.
    ///
    /// `x_in_val`: `[rows, dim]` for this rank's windows/chunk under the
    /// block's layout; `t`: the shared diffusion time of this microbatch;
    /// `sp_group`: world ranks of this rank's SP group (self included);
    /// `rope`: table for one window.
    pub fn forward_block(
        &self,
        x_in_val: Tensor,
        t: f32,
        layout: &ActLayout,
        rope: &RopeTable,
        comm: &mut Communicator,
        sp_group: &[usize],
    ) -> Result<StageRun, CommError> {
        let (norm1, norm2) = (self.norm1.as_ref().expect("not a block"), self.norm2.as_ref().unwrap());
        let (wq, wk, wv, wo) = (
            self.wq.as_ref().unwrap(),
            self.wk.as_ref().unwrap(),
            self.wv.as_ref().unwrap(),
            self.wo.as_ref().unwrap(),
        );
        let mlp = self.mlp.as_ref().unwrap();
        let adaln = self.adaln.as_ref().unwrap();
        let tc = self.time_cond.as_ref().unwrap();
        let store = &self.store;

        let sp = sp_group.len();
        let me = sp_group.iter().position(|&r| r == comm.rank()).expect("rank in sp group");
        let rows = x_in_val.shape()[0];
        let nw = layout.windows_per_rank();
        let cr = layout.chunk_rows();
        assert_eq!(rows, nw * cr);
        assert_eq!(self.n_heads % sp, 0, "heads must divide over SP");
        let cols = self.dim / sp; // feature columns per peer (local head block)
        let wlen = layout.grid.window_len();

        let mut tape = Tape::new();
        let mut binding = Binding::new(store);
        let x_in = tape.leaf(x_in_val);

        let cond = tc.embed(&mut tape, &mut binding, store, t);
        let mods = adaln.forward(&mut tape, &mut binding, store, cond);
        let [shift1, scale1, gate1, shift2, scale2, gate2] = mods;

        // ---- attention branch ----
        let h = norm1.forward_modulated(&mut tape, &mut binding, store, x_in, scale1, shift1);
        let q = wq.forward(&mut tape, &mut binding, store, h);
        let k = wk.forward(&mut tape, &mut binding, store, h);
        let v = wv.forward(&mut tape, &mut binding, store, h);

        // Ship [q|k|v] column-blocks to each peer: one [3*rows, dim/sp]
        // tensor per peer (the Ulysses scatter; window chunks are batched
        // into a single message, as in the paper's merged communication).
        let mut qkv_sent = Vec::with_capacity(sp);
        for j in 0..sp {
            let (c0, c1) = (j * cols, (j + 1) * cols);
            let qj = tape.slice_cols(q, c0, c1);
            let kj = tape.slice_cols(k, c0, c1);
            let vj = tape.slice_cols(v, c0, c1);
            qkv_sent.push(tape.concat_rows(&[qj, kj, vj]));
        }
        let chunks: Vec<Tensor> = qkv_sent.iter().map(|&var| tape.value(var).clone()).collect();
        let received = comm.alltoall(sp_group, chunks)?;
        let mut qkv_recv: Vec<Option<Var>> = Vec::with_capacity(sp);
        let mut qkv_vars: Vec<Var> = Vec::with_capacity(sp);
        for (i, tens) in received.into_iter().enumerate() {
            if i == me {
                qkv_recv.push(None);
                qkv_vars.push(qkv_sent[me]);
            } else {
                let leaf = tape.leaf(tens);
                qkv_recv.push(Some(leaf));
                qkv_vars.push(leaf);
            }
        }

        // Per window: assemble the full [wlen, cols] Q/K/V for my head
        // block from all peers' chunks, run attention per local head.
        let heads_local = self.n_heads / sp;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut attn_windows = Vec::with_capacity(nw);
        for w in 0..nw {
            let mut qs = Vec::with_capacity(sp);
            let mut ks = Vec::with_capacity(sp);
            let mut vs = Vec::with_capacity(sp);
            for &src in &qkv_vars {
                // Peer tensor layout: rows [0,rows)=q, [rows,2rows)=k, …
                let base_q: Vec<usize> = (w * cr..(w + 1) * cr).collect();
                let base_k: Vec<usize> = (rows + w * cr..rows + (w + 1) * cr).collect();
                let base_v: Vec<usize> = (2 * rows + w * cr..2 * rows + (w + 1) * cr).collect();
                qs.push(tape.gather_rows(src, &base_q));
                ks.push(tape.gather_rows(src, &base_k));
                vs.push(tape.gather_rows(src, &base_v));
            }
            let qw = tape.concat_rows(&qs); // [wlen, cols]
            let kw = tape.concat_rows(&ks);
            let vw = tape.concat_rows(&vs);
            debug_assert_eq!(tape.value(qw).shape(), &[wlen, cols]);
            let mut head_outs = Vec::with_capacity(heads_local);
            for hl in 0..heads_local {
                let (c0, c1) = (hl * self.head_dim, (hl + 1) * self.head_dim);
                let qh = tape.slice_cols(qw, c0, c1);
                let kh = tape.slice_cols(kw, c0, c1);
                let vh = tape.slice_cols(vw, c0, c1);
                let qh = tape.rope_rows(qh, &rope.cos, &rope.sin);
                let kh = tape.rope_rows(kh, &rope.cos, &rope.sin);
                let scores = tape.matmul_nt(qh, kh);
                let scores = tape.scale(scores, scale);
                let probs = tape.softmax_rows(scores);
                head_outs.push(tape.matmul(probs, vh));
            }
            attn_windows.push(tape.concat_cols(&head_outs)); // [wlen, cols]
        }

        // Redistribute: peer j takes rows [j*cr, (j+1)*cr) of each window.
        let mut attn_sent = Vec::with_capacity(sp);
        for j in 0..sp {
            let idx: Vec<usize> = (j * cr..(j + 1) * cr).collect();
            let mut gathered = Vec::with_capacity(nw);
            for w in 0..nw {
                gathered.push(tape.gather_rows(attn_windows[w], &idx));
            }
            attn_sent.push(tape.concat_rows(&gathered)); // [rows, cols]
        }
        let chunks: Vec<Tensor> = attn_sent.iter().map(|&var| tape.value(var).clone()).collect();
        let received = comm.alltoall(sp_group, chunks)?;
        let mut attn_recv: Vec<Option<Var>> = Vec::with_capacity(sp);
        let mut attn_vars: Vec<Var> = Vec::with_capacity(sp);
        for (i, tens) in received.into_iter().enumerate() {
            if i == me {
                attn_recv.push(None);
                attn_vars.push(attn_sent[me]);
            } else {
                let leaf = tape.leaf(tens);
                attn_recv.push(Some(leaf));
                attn_vars.push(leaf);
            }
        }
        // Peer i computed head block i: concat columns in SP order restores
        // the full feature dim for my rows.
        let attn_full = tape.concat_cols(&attn_vars); // [rows, dim]
        let h2 = wo.forward(&mut tape, &mut binding, store, attn_full);
        let x_mid = tape.gated_residual(x_in, h2, gate1);

        // ---- MLP branch ----
        let h3 = norm2.forward_modulated(&mut tape, &mut binding, store, x_mid, scale2, shift2);
        let h3 = mlp.forward(&mut tape, &mut binding, store, h3);
        let out = tape.gated_residual(x_mid, h3, gate2);

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

    /// Block backward: three `backward_from` passes with transposed
    /// all-to-alls. Returns the gradient w.r.t. the block input and
    /// accumulates parameter gradients into `param_grads`.
    pub fn backward_block(
        &self,
        mut run: StageRun,
        g_out: Tensor,
        comm: &mut Communicator,
        sp_group: &[usize],
        param_grads: &mut [Option<Tensor>],
    ) -> Result<Tensor, CommError> {
        let sp = sp_group.len();
        let me = sp_group.iter().position(|&r| r == comm.rank()).unwrap();
        let x_in = run.x_in.unwrap();
        let mut x_in_grad = Tensor::zeros(run.tape.value(x_in).shape());

        let accumulate = |grads: &mut Grads,
                              run_binding: &Binding,
                              x_in_grad: &mut Tensor,
                              param_grads: &mut [Option<Tensor>]| {
            if let Some(g) = grads.take(x_in) {
                x_in_grad.add_assign(&g);
            }
            for (slot, g) in param_grads.iter_mut().zip(run_binding.collect_grads(grads)) {
                match (slot.as_mut(), g) {
                    (Some(a), Some(g)) => a.add_assign(&g),
                    (None, Some(g)) => *slot = Some(g),
                    _ => {}
                }
            }
        };

        // Pass 1: from the block output.
        let mut pass1 = run.tape.backward_from(&[(run.out, g_out)]);
        // Grads for attention outputs computed by peers → alltoall back.
        let mut attn_chunks = Vec::with_capacity(sp);
        let mut pass1_qkv: Vec<Option<Tensor>> = vec![None; sp];
        for j in 0..sp {
            let g = match run.attn_recv[j] {
                Some(leaf) => pass1
                    .take(leaf)
                    .unwrap_or_else(|| Tensor::zeros(run.tape.value(leaf).shape())),
                None => Tensor::zeros(&[0]),
            };
            attn_chunks.push(g);
        }
        for (j, slot) in pass1_qkv.iter_mut().enumerate() {
            if let Some(leaf) = run.qkv_recv[j] {
                *slot = pass1.take(leaf);
            }
        }
        accumulate(&mut pass1, &run.binding, &mut x_in_grad, param_grads);
        let attn_sent_grads = comm.alltoall(sp_group, attn_chunks)?;

        // Pass 2: seed grads of my attention outputs shipped to peers.
        let seeds: Vec<(Var, Tensor)> = (0..sp)
            .filter(|&i| i != me)
            .map(|i| (run.attn_sent[i], attn_sent_grads[i].clone()))
            .collect();
        let mut pass2 = run.tape.backward_from(&seeds);
        let mut qkv_chunks = Vec::with_capacity(sp);
        for j in 0..sp {
            let g = match run.qkv_recv[j] {
                Some(leaf) => {
                    let shape = run.tape.value(leaf).shape().to_vec();
                    let mut g = pass1_qkv[j].take().unwrap_or_else(|| Tensor::zeros(&shape));
                    if let Some(g2) = pass2.take(leaf) {
                        g.add_assign(&g2);
                    }
                    g
                }
                None => Tensor::zeros(&[0]),
            };
            qkv_chunks.push(g);
        }
        accumulate(&mut pass2, &run.binding, &mut x_in_grad, param_grads);
        let qkv_sent_grads = comm.alltoall(sp_group, qkv_chunks)?;

        // Pass 3: seed grads of my QKV chunks shipped to peers.
        let seeds: Vec<(Var, Tensor)> = (0..sp)
            .filter(|&i| i != me)
            .map(|i| (run.qkv_sent[i], qkv_sent_grads[i].clone()))
            .collect();
        let mut pass3 = run.tape.backward_from(&seeds);
        accumulate(&mut pass3, &run.binding, &mut x_in_grad, param_grads);
        Ok(x_in_grad)
    }

    /// Input-stage backward.
    pub fn backward_input(&self, mut run: StageRun, g_out: Tensor, param_grads: &mut [Option<Tensor>]) {
        let mut grads = run.tape.backward_from(&[(run.out, g_out)]);
        for (slot, g) in param_grads.iter_mut().zip(run.binding.collect_grads(&mut grads)) {
            match (slot.as_mut(), g) {
                (Some(a), Some(g)) => a.add_assign(&g),
                (None, Some(g)) => *slot = Some(g),
                _ => {}
            }
        }
    }

    /// Head-stage backward: returns grad w.r.t. the head input rows.
    pub fn backward_head(&self, mut run: StageRun, param_grads: &mut [Option<Tensor>]) -> Tensor {
        let mut grads = run.tape.backward(run.out);
        let x_in = run.x_in.unwrap();
        let g = grads.take(x_in).expect("head input grad");
        for (slot, pg) in param_grads.iter_mut().zip(run.binding.collect_grads(&mut grads)) {
            match (slot.as_mut(), pg) {
                (Some(a), Some(pg)) => a.add_assign(&pg),
                (None, Some(pg)) => *slot = Some(pg),
                _ => {}
            }
        }
        g
    }
}
