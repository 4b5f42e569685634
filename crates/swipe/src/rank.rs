//! One rank of a distributed SWiPe run ([`crate::trainer`] runs one per
//! parked thread): the per-rank step loop and the state it runs over — relayout
//! links, ZeRO-1 ownership, per-step replica membership, checkpoint save and
//! the elastic rejoin.

use crate::comm::{CommClass, CommError, Communicator};
use crate::data::gather;
use crate::events::FaultEvent;
use crate::layout::ActLayout;
use crate::schedule::{one_f_one_b, Action};
use crate::stage::{StageKind, StageModel, StageRun};
use crate::topology::{RankCoords, SwipeTopology};
use crate::trainer::{ckpt_io, noise_rows, shared_t, CheckpointConfig, Run, SwipeConfig, SwipeError};
use aeris_core::AerisModel;
use aeris_diffusion::TrigFlow;
use aeris_nn::checkpoint::{entry_u64, save_entries, u64_entry};
use aeris_nn::window::WindowGrid;
use aeris_nn::{AdamW, ParamId};
use aeris_obs::{SpanCategory, SpanGuard};
use aeris_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

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

    /// Ship each peer its rows of `value`.
    fn send(&self, comm: &mut Communicator, value: &Tensor) -> Result<(), CommError> {
        for (peer, rows) in &self.peers {
            comm.send(*peer, CommClass::P2p, vec![gather(value, rows)])?;
        }
        Ok(())
    }

    /// Assemble a `shape` matrix from the rows each peer ships. Traced as a
    /// Bubble: this is the pipeline wait, blocked until the neighbouring
    /// stage's rows arrive.
    fn recv(&self, comm: &mut Communicator, shape: [usize; 2]) -> Result<Tensor, CommError> {
        let _bubble = comm.trace_span(SpanCategory::Bubble);
        let mut out = Tensor::zeros(&shape);
        for (peer, rows) in &self.peers {
            let payload = comm.recv(*peer)?.pop().expect("a relayout message carries one tensor");
            for (i, &row) in rows.iter().enumerate() {
                out.row_mut(row).copy_from_slice(payload.row(i));
            }
        }
        Ok(out)
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
    /// earlier step to have been out of).
    fn at(cfg: &SwipeConfig, start_step: usize, step: usize) -> Self {
        let dead_dps = Self::dead_at(cfg, step);
        let mut rejoining_dps = Vec::new();
        if step > start_step {
            rejoining_dps = Self::dead_at(cfg, step - 1);
            rejoining_dps.retain(|dp| !dead_dps.contains(dp));
        }
        let all_live = cfg.topo.filter_live(&cfg.topo.all_ranks(), &dead_dps);
        Membership { dp: cfg.topo.dp, dead_dps, rejoining_dps, all_live }
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
}

impl<'a> Rank<'a> {
    /// Shard `run` onto the rank behind `comm`.
    pub(crate) fn new(comm: Communicator, run: &'a Run) -> Result<Self, SwipeError> {
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
        Ok(Rank {
            run,
            coords,
            kind,
            shards: Shards::new(comm.rank(), &topo, coords, &model),
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

        for step in run.start_step..cfg.n_steps {
            self.comm.set_trace_step(step as u64);
            // ---- step-boundary fault-plan reconfiguration ----
            let crashed_now = self.comm.planned_crash(step);
            let members = Membership::at(cfg, run.start_step, step);
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

            let (grads, my_loss) = self.microbatches(step)?;
            self.reduce_and_update(&members, grads, my_loss, step)?;

            // ---- coordinated checkpoint ----
            let due = cfg
                .checkpoint
                .as_ref()
                .filter(|c| c.every > 0 && (step + 1) % c.every == 0);
            if let Some(ck) = due {
                let _ckpt = self.comm.trace_span(SpanCategory::Checkpoint);
                self.save_checkpoint(&members, ck, step)?;
            }
        }

        // Contribute final params from the canonical replica of the last step.
        let last = Membership::at(cfg, run.start_step, cfg.n_steps.saturating_sub(1));
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
    /// the edge stages missing a side. Returns the accumulated parameter
    /// gradients and the summed local head loss.
    fn microbatches(&mut self, step: usize) -> Result<(Vec<Option<Tensor>>, f64), SwipeError> {
        let (run, dp) = (self.run, self.coords.dp);
        let (seed, channels) = (run.cfg.seed, run.reference.cfg.channels);
        let tf = TrigFlow::default();
        let mut runs: HashMap<usize, StageRun> = HashMap::new();
        let mut grads: Vec<Option<Tensor>> = vec![None; self.model.store.len()];
        let mut my_loss = 0.0f64;

        for action in &self.actions {
            match *action {
                Action::Forward(m) => {
                    self.comm.set_trace_micro(Some(m as u64));
                    let sample = run.schedule[step][dp][m];
                    let t = shared_t(&tf, seed, step, dp, m);
                    let (comm, shape) = (&mut self.comm, self.act_shape);
                    let x_in = self.up.as_ref().map(|up| up.recv(comm, shape)).transpose()?;
                    let fwd = self.comm.trace_span(SpanCategory::Forward);
                    let (stage_run, out) = match (self.kind, x_in) {
                        (StageKind::Input, _) => {
                            let s = &run.samples[&sample];
                            let x0 = gather(&s.residual, &self.tokens);
                            let prev = gather(&s.x_prev, &self.tokens);
                            let forc = gather(&s.forcings, &self.tokens);
                            let z = noise_rows(seed, sample, &self.tokens, channels);
                            let x_t = tf.interpolate(&x0, &z, t);
                            let input = aeris_nn::posenc::assemble(&[&x_t, &prev, &forc], &self.pos);
                            let (stage_run, out) = self.model.forward_input(input);
                            (stage_run, Some(out))
                        }
                        (StageKind::Block(_), Some(x_in)) => {
                            let (stage_run, out) =
                                self.model.forward_block(x_in, t, &mut self.comm, &self.sp_group)?;
                            (stage_run, Some(out))
                        }
                        (StageKind::Head, Some(x_in)) => {
                            let x0 = gather(&run.samples[&sample].residual, &self.tokens);
                            let z = noise_rows(seed, sample, &self.tokens, channels);
                            let v_target = tf.velocity_target(&x0, &z, t);
                            let global_tokens = run.reference.cfg.tokens();
                            let (stage_run, loss) =
                                self.model.forward_head(x_in, v_target, &self.weight_rows, global_tokens);
                            my_loss += loss;
                            (stage_run, None)
                        }
                        _ => unreachable!("block and head stages have an up link"),
                    };
                    drop(fwd);
                    if let (Some(down), Some(out)) = (&self.down, &out) {
                        down.send(&mut self.comm, out)?;
                    }
                    runs.insert(m, stage_run);
                }
                Action::Backward(m) => {
                    self.comm.set_trace_micro(Some(m as u64));
                    let stage_run = runs.remove(&m).expect("forward before backward");
                    let (comm, shape) = (&mut self.comm, self.act_shape);
                    let g_out = self.down.as_ref().map(|down| down.recv(comm, shape)).transpose()?;
                    let bwd = self.comm.trace_span(SpanCategory::Backward);
                    let g_in = match (self.kind, g_out) {
                        (StageKind::Head, _) => {
                            Some(self.model.backward_head(stage_run, &self.weight_rows, &mut grads))
                        }
                        (StageKind::Block(_), Some(g_out)) => Some(self.model.backward_block(
                            stage_run, g_out, &mut self.comm, &self.sp_group, &mut grads,
                        )?),
                        (StageKind::Input, Some(g_out)) => {
                            self.model.backward_input(stage_run, g_out, &mut grads);
                            None
                        }
                        _ => unreachable!("input and block stages have a down link"),
                    };
                    drop(bwd);
                    if let (Some(up), Some(g_in)) = (&self.up, &g_in) {
                        up.send(&mut self.comm, g_in)?;
                    }
                }
            }
            // Activation accounting: every in-flight microbatch's saves.
            let live: usize = runs.values().map(|r| r.activation_elems()).sum();
            run.max_act.fetch_max(live, Ordering::Relaxed);
        }
        Ok((grads, my_loss))
    }

    /// Reduce the step's gradients across the live replicas, apply the
    /// sharded optimizer and, on the head stage, report the step's loss.
    ///
    /// Each group takes one bucketed reduction and one owner broadcast. The
    /// head stage's bucket ends with its summed local losses: a 1-element
    /// tensor is owned, and summed in group order, by the group's last
    /// member. Those are the additions, in order, of a sum over every live
    /// rank (the last live rank is a head rank, and the others add 0), so
    /// the loss is the same at any topology.
    fn reduce_and_update(
        &mut self,
        members: &Membership,
        mut grads: Vec<Option<Tensor>>,
        my_loss: f64,
        step: usize,
    ) -> Result<(), SwipeError> {
        let cfg = &self.run.cfg;
        // ---- gradient reduction (rescaled to the surviving global batch) ----
        self.comm.set_trace_micro(None);
        let stage_live = cfg.topo.filter_live(&self.grad_group, &members.dead_dps);
        let shared_live = cfg.topo.filter_live(&self.shared_grad_group, &members.dead_dps);
        let gbs = members.live_dp() * cfg.gas;
        for shared in [false, true] {
            let ixs = self.shards.bucket(shared);
            let mut bucket: Vec<Tensor> = ixs
                .iter()
                .map(|&i| {
                    let zeros = || Tensor::zeros(self.model.store.get(ParamId(i)).shape());
                    grads[i].take().unwrap_or_else(zeros)
                })
                .collect();
            let with_loss = !shared && self.kind == StageKind::Head;
            if with_loss {
                bucket.push(Tensor::from_slice(&[my_loss as f32]));
            }
            if bucket.is_empty() {
                continue;
            }
            let group = if shared { &shared_live } else { &stage_live };
            let mut reduced = self.comm.allreduce_sum_many(group, &bucket)?;
            if with_loss {
                let loss_sum = reduced.pop().expect("the loss ends the bucket").data()[0] as f64;
                if self.comm.rank() == group[0] {
                    self.run.losses.lock()[step] = loss_sum / gbs as f64;
                }
            }
            // Only the owner steps the parameter, so only it keeps the mean.
            for (&i, mut g) in ixs.iter().zip(reduced) {
                grads[i] = self.shards.owns(i).then(|| {
                    g.scale_inplace(1.0 / gbs as f32);
                    g
                });
            }
        }

        // ---- ZeRO-1 sharded optimizer (hybrid, within-replica) ----
        // Each parameter's within-replica owner updates it with AdamW state,
        // then every owner sends the parameters it owns to the rest of the
        // replica's group in one message. Owner groups never shrink (live
        // replicas are always whole), and every replica's owners compute
        // bitwise-identical updates from the shared reduced gradient.
        let _opt_span = self.comm.trace_span(SpanCategory::OptimizerStep);
        self.opt.step(&mut self.model.store, &grads, cfg.lr);
        for shared in [false, true] {
            let ixs = self.shards.bucket(shared);
            if ixs.is_empty() {
                continue;
            }
            let owners: Vec<usize> = ixs.iter().map(|&i| self.shards.owner_ix(i)).collect();
            let owned = ixs
                .iter()
                .filter(|&&i| self.shards.owns(i))
                .map(|&i| self.model.store.get(ParamId(i)).clone())
                .collect();
            let group = if shared { &self.shards.shared_group } else { &self.shards.stage_group };
            let fresh = self.comm.broadcast_owned(group, &owners, owned)?;
            for (&i, value) in ixs.iter().zip(fresh) {
                *self.model.store.get_mut(ParamId(i)) = value;
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
