//! One rank of a distributed SWiPe run ([`crate::trainer`] runs one per
//! parked thread): the per-rank step loop and the state it runs over — relayout
//! links, ZeRO-1 ownership, per-step replica membership, checkpoint save and
//! the elastic rejoin — and the [`Stash`] of buffers its thread keeps from one
//! call to the next.

use crate::comm::{segments, CommClass, CommError, Communicator, Pool};
use crate::data::gather;
use crate::events::FaultEvent;
use crate::layout::ActLayout;
use crate::schedule::{one_f_one_b, Action};
use crate::stage::{sized, Feed, StageBufs, StageKind, StageModel, StageRun};
use crate::topology::{RankCoords, SwipeTopology};
use crate::trainer::{ckpt_io, shared_t, CheckpointConfig, Run, SwipeConfig, SwipeError};
use aeris_core::AerisModel;
use aeris_diffusion::TrigFlow;
use aeris_nn::checkpoint::{entry_u64, save_entries, u64_entry};
use aeris_nn::window::WindowGrid;
use aeris_nn::{AdamW, ParamId, Slots};
use aeris_obs::{SpanCategory, SpanGuard};
use aeris_tensor::{sweeps, Tensor};
use std::sync::atomic::Ordering;

/// What a parked rank thread keeps from one job to the next, as it keeps
/// its stack and heap: every buffer a rank's steps need, sized by the
/// first step that needs it — the message pool, the stage's buffers and
/// spare runs, the gradient slots and the flat buckets. A call at another
/// topology or model shape re-sizes them. A job that panics drops its
/// stash, and its thread starts the next job with an empty one.
#[derive(Default)]
pub(crate) struct Stash {
    pool: Pool,
    bufs: StageBufs,
    /// Runs of finished microbatches, for the next forwards to reuse, and
    /// the in-flight ones by microbatch.
    spare_runs: Vec<StageRun>,
    runs: Vec<Option<StageRun>>,
    /// The step's gradient slots, one per stage parameter (`None` until
    /// first touched), and the buffers of the previous step's, reused.
    grads: Vec<Option<Tensor>>,
    spare_grads: Vec<Option<Tensor>>,
    /// The flat gradient bucket of each group, reduced and then broadcast
    /// in place.
    flat: [Vec<f32>; 2],
}

/// One side of a stage boundary, resolved once per rank: the peer ranks this
/// rank exchanges rows with across it, in message order, and the local rows
/// that travel to or from each. Round-robin window placement makes the
/// relayout (the unshifted↔shifted exchange included) a fixed pattern, so the
/// table is a function of the rank's coordinates alone. Activations cross a
/// link one way and their gradients retrace the same table the other way —
/// the backward exchange is the transpose of the forward one.
///
/// Peer order is the order `routing_to` / `routing_from` yield: per-channel
/// FIFO tags and the fault plan's nth-message addressing both count on it.
struct Link {
    peers: Vec<(usize, Vec<usize>)>,
}

impl Link {
    /// The `(up, down)` links of the rank at `c`: `up` faces stage − 1 and
    /// `down` stage + 1, `None` where the pipeline ends.
    fn pair(
        topo: &SwipeTopology,
        c: RankCoords,
        layout: impl Fn(usize) -> ActLayout,
    ) -> (Option<Link>, Option<Link>) {
        let mine = layout(c.stage);
        let rank_at = |stage: usize, (wp_row, wp_col, sp): (usize, usize, usize)| {
            topo.rank_of(RankCoords { stage, wp_row, wp_col, sp, ..c })
        };
        let up = (c.stage > 0).then(|| Link {
            peers: ActLayout::routing_from(&layout(c.stage - 1), &mine, c.wp_row, c.wp_col, c.sp)
                .into_iter()
                .map(|(src, msg)| (rank_at(c.stage - 1, src), msg.dst_rows))
                .collect(),
        });
        let down = (c.stage + 1 < topo.pp).then(|| Link {
            peers: mine
                .routing_to(&layout(c.stage + 1), c.wp_row, c.wp_col, c.sp)
                .into_iter()
                .map(|msg| (rank_at(c.stage + 1, msg.dst), msg.src_rows))
                .collect(),
        });
        (up, down)
    }

    /// Ship each peer its rows of `value` (rows of `width`).
    fn send(&self, comm: &mut Communicator, value: &[f32], width: usize) -> Result<(), CommError> {
        for (peer, rows) in &self.peers {
            comm.send_with(*peer, CommClass::P2p, rows.len() * width, |buf| crate::data::gather_rows(buf, value, rows))?;
        }
        Ok(())
    }

    /// Assemble `[rows, width]` into `out` from the rows each peer ships.
    /// Traced as a Bubble: this is the pipeline wait, blocked until the
    /// neighbouring stage's rows arrive.
    fn recv(&self, comm: &mut Communicator, out: &mut Vec<f32>, [rows, width]: [usize; 2]) -> Result<(), CommError> {
        let _bubble = comm.trace_span(SpanCategory::Bubble);
        let out = sized(out, rows * width);
        for (peer, rows) in &self.peers {
            comm.recv_with(*peer, |got| {
                for (&row, src) in rows.iter().zip(got.chunks_exact(width)) {
                    out[row * width..(row + 1) * width].copy_from_slice(src);
                }
            })?;
        }
        Ok(())
    }
}

/// The activation layout of pipeline stage `stage`: a block stage has its
/// block's, the input stage block 0's and the head the last block's (so both
/// edge boundaries are identity relayouts).
fn layout_of(reference: &AerisModel, topo: &SwipeTopology, stage: usize) -> ActLayout {
    let c = &reference.cfg;
    let grid = WindowGrid::new(c.grid_h, c.grid_w, c.window.0, c.window.1);
    let block = &reference.blocks[stage.clamp(1, topo.pp - 2) - 1];
    ActLayout::new(grid, block.shifted, topo.wp_a, topo.wp_b, topo.sp)
}

/// Hybrid ZeRO-1 ownership (ORBIT-style): optimizer moments shard *within*
/// each data-parallel replica and replicate *across* replicas. Every owner
/// sees the same reduced gradient and therefore the same moment history, so
/// parameters evolve bitwise as with global sharding — but the owner groups
/// never change size when replicas retire or rejoin, which keeps moment
/// ownership stable under membership churn and lets any live replica
/// re-shard a rejoining one positionally.
///
/// Parameter `i` belongs to the `i % len`-th member of its group; the
/// optimizer step, the owner broadcast, checkpoint save and both re-shard
/// directions all read the rule from here.
struct Shards {
    rank: usize,
    /// `shared[i]`: parameter `i` is one of the time-conditioner parameters
    /// every block stage replicates.
    shared: Vec<bool>,
    /// Owners of stage-local parameters: this replica's ranks of this stage.
    stage_group: Vec<usize>,
    /// Owners of shared parameters: this replica's block-stage ranks.
    shared_group: Vec<usize>,
}

impl Shards {
    fn new(rank: usize, topo: &SwipeTopology, coords: RankCoords, model: &StageModel) -> Self {
        let shared_ixs = model.shared_param_ixs();
        Shards {
            rank,
            shared: (0..model.store.len()).map(|i| shared_ixs.contains(&i)).collect(),
            stage_group: topo.replica_grad_group(coords),
            shared_group: topo.replica_shared_group(coords.dp),
        }
    }

    /// The within-replica group parameter `i` shards over.
    fn group(&self, i: usize) -> &[usize] {
        if self.shared[i] { &self.shared_group } else { &self.stage_group }
    }

    /// Position of parameter `i`'s owner in [`Shards::group`].
    fn owner_ix(&self, i: usize) -> usize {
        i % self.group(i).len()
    }

    /// Whether this rank holds parameter `i`'s moments.
    fn owns(&self, i: usize) -> bool {
        self.group(i)[self.owner_ix(i)] == self.rank
    }

    /// The parameters, in store order, that shard over the shared group
    /// (`shared`) or over the stage group: one bucket per group, reduced and
    /// broadcast by one collective each.
    fn bucket(&self, shared: bool) -> Vec<usize> {
        (0..self.shared.len()).filter(|&i| self.shared[i] == shared).collect()
    }
}

/// One group's flat gradient bucket, laid out once per call: its
/// parameters in store order, each one segment, then (the head stage's
/// stage-local bucket) the summed local loss as a last 1-element segment.
struct Bucket {
    shared: bool,
    ixs: Vec<usize>,
    lens: Vec<usize>,
    /// Each parameter's owner position in its group (`Shards::owner_ix`).
    owners: Vec<usize>,
    with_loss: bool,
}

impl Bucket {
    /// The parameters this rank owns, with their segments.
    fn owned<'b>(&'b self, shards: &'b Shards) -> impl Iterator<Item = (usize, (usize, usize))> + 'b {
        self.ixs.iter().zip(segments(&self.lens)).filter(|(&i, _)| shards.owns(i)).map(|(&i, seg)| (i, seg))
    }
}

/// The replica sets one step needs. The fault plan is shared knowledge, so
/// every rank derives the same sets for a step without any agreement
/// protocol; a crashed rank takes its whole replica out with it.
struct Membership {
    /// Data-parallel width of the run.
    dp: usize,
    /// Replicas out at this step, sorted.
    dead_dps: Vec<usize>,
    /// Replicas out at the previous step and back at this one.
    rejoining_dps: Vec<usize>,
    /// Every rank of a live replica, in rank order.
    all_live: Vec<usize>,
}

impl Membership {
    /// The replicas out at `step` under `cfg`'s fault plan.
    fn dead_at(cfg: &SwipeConfig, step: usize) -> Vec<usize> {
        cfg.faults.as_ref().map_or_else(Vec::new, |p| cfg.topo.dead_dps(&p.dead_ranks_at(step)))
    }

    /// Membership at `step` of a run whose first executed step is
    /// `start_step` (nobody rejoins at that first boundary: the run has no
    /// earlier step to have been out of). `kept` is the last step's: when
    /// the same replicas are out and none rejoins, it is the answer, and no
    /// list is built.
    fn at(cfg: &SwipeConfig, start_step: usize, step: usize, kept: Option<Membership>) -> Self {
        let dead_dps = Self::dead_at(cfg, step);
        let mut rejoining_dps = Vec::new();
        if step > start_step {
            rejoining_dps = Self::dead_at(cfg, step - 1);
            rejoining_dps.retain(|dp| !dead_dps.contains(dp));
        }
        match kept {
            Some(m) if m.dead_dps == dead_dps && m.rejoining_dps == rejoining_dps => m,
            _ => {
                let all_live = cfg.topo.filter_live(&cfg.topo.all_ranks(), &dead_dps);
                Membership { dp: cfg.topo.dp, dead_dps, rejoining_dps, all_live }
            }
        }
    }

    fn live_dp(&self) -> usize {
        self.dp - self.dead_dps.len()
    }

    /// The replica that speaks for the run (checkpoint contents, final
    /// parameters): the lowest live dp.
    fn canonical_dp(&self) -> usize {
        (0..self.dp).find(|dp| !self.dead_dps.contains(dp)).unwrap_or(0)
    }

    /// The replica that re-shards state to rejoiners at this boundary: the
    /// lowest dp that is live this step and did not itself just rejoin (its
    /// state spans the whole outage). `None` when every live replica is
    /// freshly rejoining — the run's state is unrecoverable in-world and the
    /// supervisor must restore from a checkpoint.
    fn donor_dp(&self) -> Option<usize> {
        (0..self.dp).find(|dp| !self.dead_dps.contains(dp) && !self.rejoining_dps.contains(dp))
    }
}

/// One rank of a run: everything that is a function of (rank, run) alone,
/// built once by [`Rank::new`], plus the state [`Rank::train`] evolves — the
/// stage's parameters and this rank's optimizer shard.
pub(crate) struct Rank<'a> {
    run: &'a Run,
    comm: Communicator,
    coords: RankCoords,
    kind: StageKind,
    model: StageModel,
    opt: AdamW,
    shards: Shards,
    /// This stage's 1F1B slots for one step.
    actions: Vec<Action>,
    /// Boundary with stage − 1 (`None` on the input stage).
    up: Option<Link>,
    /// Boundary with stage + 1 (`None` on the head stage).
    down: Option<Link>,
    /// Shape of the activation block this rank holds at a stage boundary.
    act_shape: [usize; 2],
    sp_group: Vec<usize>,
    /// Gradient reduction spans the full cross-replica groups (filtered to
    /// live replicas each step): the stage's DP×WP×SP group for stage-local
    /// parameters, and — for the shared time-conditioner parameters, which
    /// the edge stages do not hold — the interior stages across all replicas.
    grad_group: Vec<usize>,
    shared_grad_group: Vec<usize>,
    /// Global token ids of this rank's rows, in local row order.
    tokens: Vec<usize>,
    /// The positional field and the loss weights at those tokens.
    pos: Tensor,
    weight_rows: Tensor,
    /// The stage-local and the shared parameters' buckets.
    buckets: [Bucket; 2],
    stash: Stash,
}

impl<'a> Rank<'a> {
    /// Shard `run` onto the rank behind `comm`, over the buffers of `stash`
    /// (its thread's, handed back by [`Rank::into_stash`]).
    pub(crate) fn new(mut comm: Communicator, run: &'a Run, mut stash: Stash) -> Result<Self, SwipeError> {
        let (cfg, reference) = (&run.cfg, &run.reference);
        let topo = cfg.topo;
        let coords = topo.coords_of(comm.rank());
        let kind = match coords.stage {
            0 => StageKind::Input,
            s if s == topo.pp - 1 => StageKind::Head,
            s => StageKind::Block(s - 1),
        };
        let layout = layout_of(reference, &topo, coords.stage);
        let model = StageModel::from_reference(reference, kind, &layout)?;
        let mut opt = AdamW::new(&model.store, cfg.adamw);
        // Checkpoint-restart: rehydrate this rank's optimizer slice. The
        // checkpoint holds every parameter's moments (`load_resume_state`
        // checked presence and shape); loading them everywhere is harmless —
        // non-owners never read their moment slots.
        if let Some(saved) = &run.resume {
            for i in 0..model.store.len() {
                let (m, v) = &saved.moments[model.store.name(ParamId(i))];
                let (m_slot, v_slot) = opt.state_mut(i);
                (*m_slot, *v_slot) = (m.clone(), v.clone());
            }
            opt.set_steps(saved.adamw_steps);
        }
        let actions = one_f_one_b(coords.stage, topo.pp, cfg.gas)?;
        let (up, down) = Link::pair(&topo, coords, |stage| layout_of(reference, &topo, stage));
        let tokens = layout.tokens_of(coords.wp_row, coords.wp_col, coords.sp);
        let mut pos = Tensor::zeros(&[tokens.len()]);
        for (i, &tok) in tokens.iter().enumerate() {
            pos.data_mut()[i] = reference.pos_field.data()[tok];
        }
        let shards = Shards::new(comm.rank(), &topo, coords, &model);
        let buckets = [false, true].map(|shared| {
            let ixs = shards.bucket(shared);
            let mut lens: Vec<usize> = ixs.iter().map(|&i| model.store.get(ParamId(i)).len()).collect();
            let owners = ixs.iter().map(|&i| shards.owner_ix(i)).collect();
            let with_loss = !shared && kind == StageKind::Head;
            if with_loss {
                lens.push(1);
            }
            Bucket { shared, ixs, lens, owners, with_loss }
        });
        std::mem::swap(comm.pool_mut(), &mut stash.pool);
        stash.grads.clear();
        stash.grads.resize_with(model.store.len(), || None);
        stash.spare_grads.resize_with(model.store.len(), || None);
        stash.runs.clear();
        stash.runs.resize_with(cfg.gas, || None);
        Ok(Rank {
            run,
            coords,
            kind,
            shards,
            buckets,
            stash,
            model,
            opt,
            actions,
            up,
            down,
            act_shape: [layout.rows_per_rank(), reference.cfg.dim],
            sp_group: topo.sp_group(coords),
            grad_group: topo.grad_group(coords),
            shared_grad_group: topo.block_stage_ranks(),
            weight_rows: gather(&run.weights, &tokens),
            tokens,
            pos,
            comm,
        })
    }

    /// The step loop: membership → park or rejoin → microbatches → gradient
    /// and loss reduction, optimizer → checkpoint.
    pub(crate) fn train(&mut self) -> Result<(), SwipeError> {
        let (run, cfg) = (self.run, &self.run.cfg);
        let (me, my_dp) = (self.comm.rank(), self.coords.dp);
        let mut prev_live_dp = cfg.topo.dp;
        // Elastic state: `Some(guard)` while this rank is parked waiting out a
        // fault window; the open Outage span closes at rejoin, so balanced
        // Outage pairs prove every parked replica that was due back came back.
        let mut outage: Option<SpanGuard> = None;
        // The last step's membership and live reduction groups: rebuilt
        // only when the fault plan changes who is out.
        let mut kept: Option<Membership> = None;
        let mut live: Option<(Vec<usize>, [Vec<usize>; 2])> = None;

        for step in run.start_step..cfg.n_steps {
            self.comm.set_trace_step(step as u64);
            // ---- step-boundary fault-plan reconfiguration ----
            let crashed_now = self.comm.planned_crash(step);
            let members = Membership::at(cfg, run.start_step, step, kept.take());
            if live.as_ref().is_none_or(|(dead, _)| *dead != members.dead_dps) {
                let filter = |group: &[usize]| cfg.topo.filter_live(group, &members.dead_dps);
                live = Some((members.dead_dps.clone(), [filter(&self.grad_group), filter(&self.shared_grad_group)]));
            }
            let live_dp = members.live_dp();
            if live_dp != prev_live_dp {
                prev_live_dp = live_dp;
                if Some(&me) == members.all_live.first() {
                    let event = FaultEvent::GroupRescaled { step, live_dp };
                    self.comm.world().events().record(me, event);
                }
            }
            if members.dead_dps.contains(&my_dp) {
                if outage.is_none() {
                    // Transition: a member of my replica crashed, and the whole
                    // replica leaves together (the crasher itself already logged
                    // RankCrashed inside `planned_crash`).
                    if !crashed_now {
                        let event = FaultEvent::ReplicaRetired { rank: me, dp: my_dp, step };
                        self.comm.world().events().record(me, event);
                    }
                    if live_dp == 0 {
                        return Err(SwipeError::AllReplicasLost { step });
                    }
                    // Park only if the replica is scheduled to come back inside
                    // this run; otherwise retire for good (the shrink-only path).
                    let rejoins = (step + 1..cfg.n_steps)
                        .any(|s| !Membership::dead_at(cfg, s).contains(&my_dp));
                    if !rejoins {
                        return Ok(());
                    }
                    let span = self.comm.world().tracer().span(SpanCategory::Outage, me);
                    outage = Some(span.step(step as u64));
                }
                // Parked: skip the step without touching the world — peers use
                // groups that exclude this replica until the window closes.
                continue;
            }
            self.rejoin(&members, outage.take(), step)?;

            let my_loss = self.microbatches(step)?;
            let [stage_live, shared_live] = &live.as_ref().expect("set above").1;
            self.reduce_and_update(&members, [stage_live, shared_live], my_loss, step)?;

            // ---- coordinated checkpoint ----
            let due = cfg
                .checkpoint
                .as_ref()
                .filter(|c| c.every > 0 && (step + 1) % c.every == 0);
            if let Some(ck) = due {
                let _ckpt = self.comm.trace_span(SpanCategory::Checkpoint);
                self.save_checkpoint(&members, ck, step)?;
            }
            kept = Some(members);
        }

        // Contribute final params from the canonical replica of the last step.
        let last = Membership::at(cfg, run.start_step, cfg.n_steps.saturating_sub(1), kept);
        if self.speaks_for_stage(&last) {
            let mut fp = run.final_params.lock();
            for (_, name, v) in self.model.store.iter() {
                // Shared params exist on every block stage; one copy suffices
                // (they are kept in sync by construction).
                fp.entry(name.to_string()).or_insert_with(|| v.clone());
            }
        }
        Ok(())
    }

    /// The rank's buffers, back for its thread to keep.
    pub(crate) fn into_stash(mut self) -> Stash {
        std::mem::swap(self.comm.pool_mut(), &mut self.stash.pool);
        self.stash
    }

    /// Whether this rank's copy of its stage's parameters is the one the run
    /// reports: the wp=(0,0)/sp=0 rank of the canonical replica.
    fn speaks_for_stage(&self, members: &Membership) -> bool {
        let c = self.coords;
        c.dp == members.canonical_dp() && (c.wp_row, c.wp_col, c.sp) == (0, 0, 0)
    }

    /// Elastic rejoin preamble of a live rank. `parked` is this rank's open
    /// Outage span if it sat out the previous step.
    ///
    /// Every live rank re-admits the ranks whose fault window ends at this
    /// boundary *before issuing any step traffic*, so nobody can observe a
    /// stale dead flag on a peer it is about to wait on (the revive is
    /// idempotent across ranks).
    fn rejoin(
        &mut self,
        members: &Membership,
        parked: Option<SpanGuard>,
        step: usize,
    ) -> Result<(), SwipeError> {
        let (topo, me, coords) = (self.run.cfg.topo, self.comm.rank(), self.coords);
        for &dp in &members.rejoining_dps {
            for stage in 0..topo.pp {
                for r in topo.stage_ranks(dp, stage) {
                    self.comm.world().revive(r);
                }
            }
        }
        if let Some(outage) = parked {
            // This rank is rejoining: close the outage window and receive a
            // re-sharded copy of a live replica's state.
            drop(outage);
            let plan = self.run.cfg.faults.as_ref();
            let crashed_itself = plan.and_then(|p| p.crash_step(me)).is_some_and(|c| c < step);
            let event = if crashed_itself {
                FaultEvent::RankRejoined { rank: me, step }
            } else {
                FaultEvent::ReplicaRejoined { rank: me, dp: coords.dp, step }
            };
            self.comm.world().events().record(me, event);
            let donor_dp = members.donor_dp().ok_or(SwipeError::AllReplicasLost { step })?;
            let donor = topo.rank_of(RankCoords { dp: donor_dp, ..coords });
            let _reshard = self.comm.trace_span(SpanCategory::Recovery).label("reshard_recv");
            let payload = self.comm.recv(donor)?;
            self.apply_reshard(payload);
        } else if !members.rejoining_dps.is_empty() && members.donor_dp() == Some(coords.dp) {
            // Donor side: the lowest replica that stayed live across the
            // boundary re-shards its state to each rejoining replica's
            // same-coordinates rank.
            let _reshard = self.comm.trace_span(SpanCategory::Recovery).label("reshard_send");
            let payload = self.reshard_payload();
            for &dp in &members.rejoining_dps {
                let dst = topo.rank_of(RankCoords { dp, ..coords });
                self.comm.send(dst, CommClass::AllGather, payload.clone())?;
            }
        }
        Ok(())
    }

    /// The single-message state transfer a donor sends each rejoiner: every
    /// stage parameter in store order, then the (m, v) moment pair of each
    /// parameter this position owns under the within-replica ZeRO-1 sharding,
    /// then the bit-encoded AdamW step counter. The rejoiner's
    /// same-coordinates rank owns exactly the same positions (identical
    /// positions own identical shards in every replica), so no index map is
    /// transferred.
    fn reshard_payload(&self) -> Vec<Tensor> {
        let n = self.model.store.len();
        let mut payload: Vec<Tensor> = self.model.store.iter().map(|(_, _, v)| v.clone()).collect();
        for i in (0..n).filter(|&i| self.shards.owns(i)) {
            let (m, v) = self.opt.state(i);
            payload.extend([m.clone(), v.clone()]);
        }
        payload.push(u64_entry("", self.opt.steps()).1);
        payload
    }

    /// Apply a donor's re-shard payload (inverse of [`Rank::reshard_payload`];
    /// both sides derive the owned set positionally, so layout mismatches are
    /// protocol bugs, not runtime conditions — hence the asserts).
    fn apply_reshard(&mut self, payload: Vec<Tensor>) {
        let n = self.model.store.len();
        let mut it = payload.into_iter();
        for i in 0..n {
            let fresh = it.next().expect("re-shard payload missing a parameter");
            assert_eq!(fresh.shape(), self.model.store.get(ParamId(i)).shape());
            *self.model.store.get_mut(ParamId(i)) = fresh;
        }
        for i in (0..n).filter(|&i| self.shards.owns(i)) {
            let m = it.next().expect("re-shard payload missing a first moment");
            let v = it.next().expect("re-shard payload missing a second moment");
            let (m_slot, v_slot) = self.opt.state_mut(i);
            assert_eq!(m.shape(), m_slot.shape());
            (*m_slot, *v_slot) = (m, v);
        }
        let steps = entry_u64(&it.next().expect("re-shard payload missing the step counter"))
            .expect("malformed step counter in re-shard payload");
        self.opt.set_steps(steps);
        assert!(it.next().is_none(), "re-shard payload has trailing tensors");
    }

    /// Run this stage's 1F1B slots for one step. Every stage kind is the same
    /// sandwich — receive over one link, compute, send over the other — with
    /// the edge stages missing a side. Leaves the accumulated parameter
    /// gradients in the stash's slots and returns the summed local head loss.
    fn microbatches(&mut self, step: usize) -> Result<f64, SwipeError> {
        let (run, dp, kind) = (self.run, self.coords.dp, self.kind);
        let seed = run.cfg.seed;
        let tf = TrigFlow::default();
        let global_tokens = run.reference.cfg.tokens();
        let mut my_loss = 0.0f64;
        let Stash { bufs, spare_runs, runs, grads, spare_grads, .. } = &mut self.stash;

        for action in &self.actions {
            match *action {
                Action::Forward(m) => {
                    self.comm.set_trace_micro(Some(m as u64));
                    let ix = run.schedule[step][dp][m];
                    let t = shared_t(&tf, seed, step, dp, m);
                    let feed = Feed { sample: &run.samples[&ix], ix, seed, tokens: &self.tokens, t };
                    if let Some(up) = &self.up {
                        up.recv(&mut self.comm, &mut bufs.act, self.act_shape)?;
                    }
                    let fwd = self.comm.trace_span(SpanCategory::Forward);
                    let mut stage_run = spare_runs.pop().filter(|r| r.is(kind)).unwrap_or_else(|| StageRun::new(kind));
                    match kind {
                        StageKind::Input => self.model.forward_input(bufs, &mut stage_run, &feed, self.pos.data()),
                        StageKind::Block(_) => {
                            self.model.forward_block(bufs, &mut stage_run, t, &mut self.comm, &self.sp_group)?
                        }
                        StageKind::Head => {
                            let w = self.weight_rows.data();
                            my_loss += self.model.forward_head(bufs, &mut stage_run, &feed, w, global_tokens);
                        }
                    }
                    drop(fwd);
                    if let Some(down) = &self.down {
                        let out = if kind == StageKind::Input { &bufs.act } else { &bufs.ws.x };
                        down.send(&mut self.comm, out, self.act_shape[1])?;
                    }
                    runs[m] = Some(stage_run);
                }
                Action::Backward(m) => {
                    self.comm.set_trace_micro(Some(m as u64));
                    let stage_run = runs[m].take().expect("forward before backward");
                    if let Some(down) = &self.down {
                        down.recv(&mut self.comm, &mut bufs.grad, self.act_shape)?;
                    }
                    let bwd = self.comm.trace_span(SpanCategory::Backward);
                    let mut slots = Slots::reusing(&self.model.store, grads, spare_grads);
                    match kind {
                        StageKind::Head => self.model.backward_head(bufs, &stage_run, self.weight_rows.data(), &mut slots),
                        StageKind::Block(_) => {
                            self.model.backward_block(bufs, &stage_run, &mut self.comm, &self.sp_group, &mut slots)?
                        }
                        StageKind::Input => self.model.backward_input(bufs, &stage_run, &mut slots),
                    }
                    drop(bwd);
                    if let Some(up) = &self.up {
                        let g_in = if kind == StageKind::Head { &bufs.grad } else { &bufs.ws.grads.dx };
                        up.send(&mut self.comm, g_in, self.act_shape[1])?;
                    }
                    spare_runs.push(stage_run);
                }
            }
            // Activation accounting: every in-flight microbatch's saves.
            let live: usize = runs.iter().flatten().map(StageRun::activation_elems).sum();
            run.max_act.fetch_max(live, Ordering::Relaxed);
        }
        Ok(my_loss)
    }

    /// Reduce the step's gradients across the live replicas, apply the
    /// sharded optimizer and, on the head stage, report the step's loss.
    ///
    /// Each group takes one bucketed reduction and one owner broadcast,
    /// both in place over the group's flat bucket. The head stage's bucket
    /// ends with its summed local losses: a 1-element segment is owned, and
    /// summed in group order, by the group's last member. Those are the
    /// additions, in order, of a sum over every live rank (the last live
    /// rank is a head rank, and the others add 0), so the loss is the same
    /// at any topology.
    fn reduce_and_update(
        &mut self,
        members: &Membership,
        [stage_live, shared_live]: [&[usize]; 2],
        my_loss: f64,
        step: usize,
    ) -> Result<(), SwipeError> {
        let cfg = &self.run.cfg;
        let Stash { grads, spare_grads, flat, .. } = &mut self.stash;
        let store = &mut self.model.store;
        // ---- gradient reduction (rescaled to the surviving global batch) ----
        self.comm.set_trace_micro(None);
        let gbs = members.live_dp() * cfg.gas;
        for (b, bucket) in self.buckets.iter().zip(flat.iter_mut()) {
            if b.lens.is_empty() {
                continue;
            }
            let bucket = sized(bucket, b.lens.iter().sum());
            let mut segs = bucket.iter_mut();
            for &i in &b.ixs {
                let seg = segs.by_ref().take(store.get(ParamId(i)).len());
                // The step's gradient leaves its slot for the next step to reuse.
                match grads[i].take() {
                    Some(g) => {
                        seg.zip(g.data()).for_each(|(s, &v)| *s = v);
                        spare_grads[i] = Some(g);
                    }
                    None => seg.for_each(|s| *s = 0.0),
                }
            }
            if b.with_loss {
                *segs.next().expect("the loss ends the bucket") = my_loss as f32;
            }
            let group = if b.shared { shared_live } else { stage_live };
            self.comm.allreduce_flat(group, bucket, &b.lens)?;
            if b.with_loss {
                let loss_sum = bucket[bucket.len() - 1] as f64;
                if self.comm.rank() == group[0] {
                    self.run.losses.lock()[step] = loss_sum / gbs as f64;
                }
            }
        }

        // ---- ZeRO-1 sharded optimizer (hybrid, within-replica) ----
        // Each parameter's within-replica owner updates it with AdamW state
        // from the mean of its reduced gradient, then every owner sends the
        // parameters it owns to the rest of the replica's group in one
        // message. Owner groups never shrink (live replicas are always
        // whole), and every replica's owners compute bitwise-identical
        // updates from the shared reduced gradient.
        let _opt_span = self.comm.trace_span(SpanCategory::OptimizerStep);
        let shards = &self.shards;
        for (b, bucket) in self.buckets.iter().zip(flat.iter_mut()) {
            for (_, (off, len)) in b.owned(shards) {
                sweeps::scale(&mut bucket[off..off + len], 1.0 / gbs as f32);
            }
        }
        let means = self.buckets.iter().zip(flat.iter());
        let means = means.flat_map(|(b, bucket)| b.owned(shards).map(move |(i, (off, len))| (i, &bucket[off..off + len])));
        self.opt.step_slices(store, means, cfg.lr);
        for (b, bucket) in self.buckets.iter().zip(flat.iter_mut()) {
            if b.ixs.is_empty() {
                continue;
            }
            let lens = &b.lens[..b.ixs.len()];
            let bucket = &mut bucket[..lens.iter().sum()];
            for (i, (off, len)) in b.owned(shards) {
                bucket[off..off + len].copy_from_slice(store.get(ParamId(i)).data());
            }
            let group = if b.shared { &shards.shared_group } else { &shards.stage_group };
            self.comm.broadcast_flat(group, &b.owners, bucket, lens)?;
            for (&i, (off, len)) in b.ixs.iter().zip(segments(lens)) {
                store.get_mut(ParamId(i)).data_mut().copy_from_slice(&bucket[off..off + len]);
            }
        }
        Ok(())
    }

    /// Coordinated checkpoint save: each rank contributes its slice into the
    /// shared buffer, everyone synchronizes, and the lowest live rank writes
    /// the file. The canonical (lowest surviving dp) replica covers
    /// everything: its wp=(0,0)/sp=0 ranks cover parameters, and its
    /// within-replica ZeRO-1 owners cover the AdamW moments (moments are
    /// replicated across replicas under hybrid sharding, so one replica's copy
    /// is the global truth). The result is world-size independent along the
    /// data-parallel axis — any DP width restores it by re-deriving positional
    /// ownership.
    fn save_checkpoint(
        &mut self,
        members: &Membership,
        ck: &CheckpointConfig,
        step: usize,
    ) -> Result<(), SwipeError> {
        let (run, cfg) = (self.run, &self.run.cfg);
        let (topo, me) = (cfg.topo, self.comm.rank());
        let covers_params = self.speaks_for_stage(members);
        let covers_moments = self.coords.dp == members.canonical_dp();
        {
            let mut buf = run.ckpt_buf.lock();
            for (id, name, value) in self.model.store.iter() {
                if covers_params {
                    buf.insert(format!("param/{name}"), value.clone());
                }
                if covers_moments && self.shards.owns(id.0) {
                    let (m, v) = self.opt.state(id.0);
                    buf.insert(format!("opt.m/{name}"), m.clone());
                    buf.insert(format!("opt.v/{name}"), v.clone());
                }
            }
        }
        // All contributions in before the writer drains the buffer.
        self.comm.barrier(&members.all_live)?;
        if me == members.all_live[0] {
            let mut entries: Vec<(String, Tensor)> =
                std::mem::take(&mut *run.ckpt_buf.lock()).into_iter().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.push(u64_entry("meta/step", (step + 1) as u64));
            entries.push(u64_entry("meta/adamw_steps", self.opt.steps()));
            entries.push(u64_entry("meta/world", topo.world_size() as u64));
            entries.push(u64_entry("meta/seed", cfg.seed));
            entries.push(u64_entry("meta/topo_dp", topo.dp as u64));
            entries.push(u64_entry("meta/topo_pp", topo.pp as u64));
            entries.push(u64_entry("meta/topo_wp_a", topo.wp_a as u64));
            entries.push(u64_entry("meta/topo_wp_b", topo.wp_b as u64));
            entries.push(u64_entry("meta/topo_sp", topo.sp as u64));
            let path = ck.dir.join(format!("step_{:06}.ckpt", step + 1));
            std::fs::create_dir_all(&ck.dir).map_err(ckpt_io)?;
            save_entries(&entries, &path).map_err(ckpt_io)?;
            self.comm.world().events().record(
                me,
                FaultEvent::CheckpointSaved { next_step: step + 1, path: path.display().to_string() },
            );
        }
        // Nobody races into the next checkpoint's contributions while the
        // writer is still draining this one.
        self.comm.barrier(&members.all_live)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_core::AerisConfig;

    /// "Gradients retrace the link", for whole boundaries: on a pp = 4
    /// pipeline whose two blocks alternate unshifted / shifted, rank r's
    /// `down` names peer q with k rows exactly when q's `up` names r with k
    /// rows, each side's local rows appear exactly once, and the pipeline's
    /// ends have no outward link.
    #[test]
    fn links_mirror_across_every_stage_boundary() {
        let reference = AerisModel::new(AerisConfig::test_tiny());
        let shifts: Vec<bool> = reference.blocks.iter().map(|b| b.shifted).collect();
        assert_eq!(shifts, [false, true]);
        let topo = SwipeTopology::new(1, 4, 2, 2, 2);
        let layout = |stage: usize| layout_of(&reference, &topo, stage);
        let links: Vec<(Option<Link>, Option<Link>)> =
            (0..topo.world_size()).map(|r| Link::pair(&topo, topo.coords_of(r), layout)).collect();
        let tokens: Vec<Vec<usize>> = (0..topo.world_size())
            .map(|r| {
                let c = topo.coords_of(r);
                layout(c.stage).tokens_of(c.wp_row, c.wp_col, c.sp)
            })
            .collect();
        // The global tokens rank `r` exchanges with `peer` over `link`, in
        // message row order (`None`: the link does not name that peer).
        let exchanged = |r: usize, link: &Link, peer: usize| -> Option<Vec<usize>> {
            let (_, rows) = link.peers.iter().find(|(p, _)| *p == peer)?;
            Some(rows.iter().map(|&row| tokens[r][row]).collect())
        };
        for (r, (up, down)) in links.iter().enumerate() {
            let stage = topo.coords_of(r).stage;
            assert_eq!(up.is_none(), stage == 0, "rank {r} up");
            assert_eq!(down.is_none(), stage == topo.pp - 1, "rank {r} down");
            for link in [up, down].into_iter().flatten() {
                let mut rows: Vec<usize> =
                    link.peers.iter().flat_map(|(_, rows)| rows.iter().copied()).collect();
                rows.sort_unstable();
                assert_eq!(rows, (0..tokens[r].len()).collect::<Vec<_>>(), "rank {r} local rows");
            }
            // Both directions: what r ships q over `down` is what q's `up`
            // expects from r, token for token, and the other way round.
            for (q, _) in down.iter().flat_map(|l| &l.peers) {
                let facing = links[*q].0.as_ref().expect("a down peer has an up link");
                assert_eq!(exchanged(*q, facing, r), exchanged(r, down.as_ref().unwrap(), *q));
            }
            for (q, _) in up.iter().flat_map(|l| &l.peers) {
                let facing = links[*q].1.as_ref().expect("an up peer has a down link");
                assert_eq!(exchanged(*q, facing, r), exchanged(r, up.as_ref().unwrap(), *q));
            }
        }
    }
}
