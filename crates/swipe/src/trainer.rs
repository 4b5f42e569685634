//! End-to-end distributed SWiPe training.
//!
//! Each rank runs the 1F1B schedule over its stage, with window/sequence
//! parallel activations inside each block, shared-seed diffusion times across
//! model-parallel ranks (§VI-B), gradient reduction over DP×WP×SP, and a
//! ZeRO-1-style sharded optimizer (owner-updates + parameter broadcast).
//!
//! [`reference_grads`] computes the *same* objective on a single rank with
//! the same noise realizations, enabling the distributed ≡ single-rank
//! equivalence tests in `tests/`.
//!
//! Fault tolerance:
//! - every communication failure surfaces as a typed [`SwipeError`] through
//!   [`DistributedTrainer::train`]'s `Result` — a lost message or dead peer
//!   ends the run with an error within the comm deadline, never a deadlock;
//! - a planned step-boundary crash ([`FaultPlan::crash_rank`]) degrades
//!   gracefully: the dead rank's entire data-parallel replica retires, the
//!   surviving groups shrink (in group order, keeping reductions
//!   deterministic), and gradient averaging rescales to the surviving global
//!   batch;
//! - a planned restart ([`FaultPlan::restart_rank`]) re-admits a crashed
//!   rank at a later step boundary: its replica parks through the outage,
//!   the data-parallel groups regrow in group order, and a live donor
//!   replica re-shards parameters plus its positionally-owned ZeRO-1
//!   moments onto the rejoiner, after which the run proceeds bitwise as if
//!   resumed from a checkpoint taken at the rejoin boundary;
//! - coordinated checkpoints ([`CheckpointConfig`]) serialize the canonical
//!   replica's parameters, each ZeRO-1 owner's AdamW moments, and the step
//!   counters; [`SwipeConfig::resume_from`] restores them — into *any*
//!   data-parallel width, since moments shard within a replica — and,
//!   because diffusion times and noise are stateless functions of
//!   `(seed, step)`, reproduces the uninterrupted run bitwise from the
//!   checkpointed step on.

use crate::comm::{CommClass, CommConfig, CommError, Communicator, TrafficReport, World};
use crate::data::{gather, Field, WindowSource};
use crate::events::{EventRecord, FaultEvent};
use crate::fault::FaultPlan;
use crate::layout::ActLayout;
use crate::schedule::{try_one_f_one_b, Action, ScheduleError};
use crate::stage::{StageError, StageKind, StageModel, StageRun};
use crate::topology::{RankCoords, SwipeTopology};
use aeris_core::AerisModel;
use aeris_diffusion::TrigFlow;
use aeris_nn::checkpoint::{entry_u64, load_entries, save_entries, u64_entry};
use aeris_nn::window::WindowGrid;
use aeris_nn::{AdamW, AdamWConfig, ParamId};
use aeris_obs::{SpanCategory, Tracer};
use aeris_tensor::{Rng, Tensor};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Coordinated checkpointing policy.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory for checkpoint files (`step_NNNNNN.ckpt`).
    pub dir: PathBuf,
    /// Save after every `every` completed steps.
    pub every: usize,
}

/// Distributed training configuration.
#[derive(Clone, Debug)]
pub struct SwipeConfig {
    pub topo: SwipeTopology,
    /// Gradient accumulation steps = microbatches per model replica per step.
    pub gas: usize,
    /// Training steps to run.
    pub n_steps: usize,
    /// Learning rate (constant for these short equivalence runs).
    pub lr: f32,
    /// Base seed for diffusion times and noise fields.
    pub seed: u64,
    pub adamw: AdamWConfig,
    /// Communication timeout / retry policy.
    pub comm: CommConfig,
    /// Injected faults (None = fault-free; hooks stay dormant).
    pub faults: Option<FaultPlan>,
    /// Coordinated checkpointing (None = no checkpoints).
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from a checkpoint file written by a previous run.
    pub resume_from: Option<PathBuf>,
    /// Span tracer shared into every rank thread. Disabled by default: each
    /// span site then costs one atomic load. Pass `Tracer::enabled()` to
    /// record the full per-rank pipeline timeline (schedule slots, comm ops,
    /// bubbles, optimizer, checkpoints), exportable via
    /// `tracer.chrome_trace()` / the `aeris-obs` MFU report.
    pub tracer: Tracer,
}

impl SwipeConfig {
    /// A minimal configuration for `topo`; override fields with struct-update
    /// syntax (`SwipeConfig { gas: 2, ..SwipeConfig::new(topo) }`).
    pub fn new(topo: SwipeTopology) -> Self {
        SwipeConfig {
            topo,
            gas: 1,
            n_steps: 1,
            lr: 1e-3,
            seed: 0,
            adamw: AdamWConfig::default(),
            comm: CommConfig::default(),
            faults: None,
            checkpoint: None,
            resume_from: None,
            tracer: Tracer::default(),
        }
    }
}

/// Why a checkpoint could not be written or restored.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// Filesystem or decode failure (message carries the cause).
    Io(String),
    /// A required entry is absent from the checkpoint file.
    MissingEntry(String),
    /// The checkpoint's model-parallel grid differs from this run's. The
    /// elastic re-shard path accepts any data-parallel width, but pp/wp/sp
    /// shape the parameters themselves and must match exactly.
    TopologyMismatch { checkpoint: SwipeTopology, run: SwipeTopology },
    /// The checkpoint was written under a different base seed; resuming
    /// would silently change every noise and diffusion-time realization.
    SeedMismatch { checkpoint: u64, run: u64 },
    /// A saved tensor's shape does not match the model's.
    ShapeMismatch { name: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "I/O failure: {msg}"),
            CheckpointError::MissingEntry(key) => write!(f, "missing entry {key}"),
            CheckpointError::TopologyMismatch { checkpoint: c, run: r } => write!(
                f,
                "model-parallel topology mismatch: checkpoint written at \
                 pp={} wp={}x{} sp={} (dp={}), this run is pp={} wp={}x{} sp={} (dp={}); \
                 only the data-parallel width may differ on restore — relaunch with a \
                 matching pp/wp/sp grid",
                c.pp, c.wp_a, c.wp_b, c.sp, c.dp, r.pp, r.wp_a, r.wp_b, r.sp, r.dp
            ),
            CheckpointError::SeedMismatch { checkpoint, run } => write!(
                f,
                "seed mismatch: checkpoint written with seed {checkpoint}, this run uses \
                 {run}; resume with the checkpoint's seed to reproduce its noise stream"
            ),
            CheckpointError::ShapeMismatch { name } => {
                write!(f, "shape mismatch for {name}")
            }
        }
    }
}

/// A typed distributed-training failure.
#[derive(Clone, Debug, PartialEq)]
pub enum SwipeError {
    /// A communication operation failed (timeout, dead peer, own crash).
    Comm(CommError),
    /// Stage construction failed (the reference model's shape does not fit
    /// the runtime or the SP degree).
    Stage(StageError),
    /// The pipeline schedule could not be built.
    Schedule(ScheduleError),
    /// Checkpoint I/O or validation failed.
    Checkpoint(CheckpointError),
    /// Every data-parallel replica was lost to planned crashes.
    AllReplicasLost { step: usize },
}

impl std::fmt::Display for SwipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwipeError::Comm(e) => write!(f, "communication failure: {e}"),
            SwipeError::Stage(e) => write!(f, "stage construction failure: {e}"),
            SwipeError::Schedule(e) => write!(f, "schedule failure: {e}"),
            SwipeError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            SwipeError::AllReplicasLost { step } => {
                write!(f, "all data-parallel replicas lost by step {step}")
            }
        }
    }
}

impl std::error::Error for SwipeError {}

impl From<CheckpointError> for SwipeError {
    fn from(e: CheckpointError) -> Self {
        SwipeError::Checkpoint(e)
    }
}

impl From<CommError> for SwipeError {
    fn from(e: CommError) -> Self {
        SwipeError::Comm(e)
    }
}

impl From<StageError> for SwipeError {
    fn from(e: StageError) -> Self {
        SwipeError::Stage(e)
    }
}

impl From<ScheduleError> for SwipeError {
    fn from(e: ScheduleError) -> Self {
        SwipeError::Schedule(e)
    }
}

/// A failed run: the first error plus the fault log up to the failure, so
/// callers can still see which faults were injected and recovered before the
/// fatal one.
#[derive(Clone, Debug)]
pub struct TrainFailure {
    pub error: SwipeError,
    pub events: Vec<EventRecord>,
}

impl std::fmt::Display for TrainFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} fault events logged)", self.error, self.events.len())
    }
}

impl std::error::Error for TrainFailure {}

/// What a training run reports back.
pub struct TrainReport {
    /// Global objective per step (absolute step index; entries before
    /// `start_step` of a resumed run are 0, and entries for steps after all
    /// replicas retired are 0).
    pub losses: Vec<f64>,
    /// First step this run actually executed (>0 when resumed).
    pub start_step: usize,
    /// Communication traffic by class.
    pub traffic: TrafficReport,
    /// Maximum concurrently-live activation elements on any rank.
    pub max_activation_elems: usize,
    /// Final parameters (reference-model names), from the lowest surviving
    /// dp / wp=(0,0) / sp=0 replica of each stage.
    pub final_params: HashMap<String, Tensor>,
    /// The fault log (empty for fault-free runs without checkpoints).
    pub events: Vec<EventRecord>,
    /// Communication operations performed, per rank.
    pub comm_ops: Vec<u64>,
}

/// The shared diffusion time for (step, dp, microbatch): identical on every
/// model-parallel rank, independent across data-parallel replicas.
pub fn shared_t(tf: &TrigFlow, seed: u64, step: usize, dp: usize, m: usize) -> f32 {
    let key = (step as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((dp as u64) << 32)
        .wrapping_add(m as u64);
    let mut rng = Rng::seed_from(seed ^ 0x7117).stream(key);
    tf.sample_t(&mut rng)
}

/// Deterministic per-token Gaussian noise rows: spatially uncorrelated and
/// independent per sample, but reproducible by any rank that knows the token
/// ids (the first and last pipeline stages need the same `z`).
pub fn noise_rows(seed: u64, sample: usize, tokens: &[usize], channels: usize) -> Tensor {
    let base = Rng::seed_from(seed ^ 0x2077).stream(sample as u64);
    let mut out = Tensor::zeros(&[tokens.len(), channels]);
    for (r, &tok) in tokens.iter().enumerate() {
        let mut rng = base.stream(tok as u64 + 1);
        for c in 0..channels {
            *out.at_mut(&[r, c]) = rng.normal();
        }
    }
    out
}

/// Single-rank reference: the identical objective, noise, and gradient
/// averaging as one distributed step, computed on the full model. Returns
/// (mean loss, per-parameter-name gradients).
pub fn reference_grads(
    model: &AerisModel,
    source: &dyn WindowSource,
    step_schedule: &[Vec<usize>],
    weights: &Tensor,
    seed: u64,
    step: usize,
) -> (f64, HashMap<String, Tensor>) {
    let tf = TrigFlow::default();
    let tokens: Vec<usize> = (0..model.cfg.tokens()).collect();
    let mut acc: Vec<Option<Tensor>> = vec![None; model.store.len()];
    let mut total_loss = 0.0;
    let mut count = 0usize;
    for (dp, micro) in step_schedule.iter().enumerate() {
        for (m, &sample) in micro.iter().enumerate() {
            let t = shared_t(&tf, seed, step, dp, m);
            let x0 = source.load_rows(sample, Field::Residual, &tokens);
            let prev = source.load_rows(sample, Field::Prev, &tokens);
            let forc = source.load_rows(sample, Field::Forcing, &tokens);
            let z = noise_rows(seed, sample, &tokens, model.cfg.channels);
            let x_t = tf.interpolate(&x0, &z, t);
            let v_target = tf.velocity_target(&x0, &z, t);
            let input = model.assemble_input(&x_t, &prev, &forc);
            let mut tape = aeris_autodiff::Tape::new();
            let mut binding = aeris_nn::Binding::new(&model.store);
            let iv = tape.constant(input);
            let out = model.forward(&mut tape, &mut binding, iv, t);
            let loss = tape.weighted_mse(out, &v_target, weights);
            total_loss += tape.value(loss).data()[0] as f64;
            let mut grads = tape.backward(loss);
            binding.accumulate_grads(&mut grads, &mut acc);
            count += 1;
        }
    }
    let inv = 1.0 / count as f32;
    let mut by_name = HashMap::new();
    for (i, slot) in acc.into_iter().enumerate() {
        if let Some(mut g) = slot {
            g.scale_inplace(inv);
            by_name.insert(model.store.name(ParamId(i)).to_string(), g);
        }
    }
    (total_loss / count as f64, by_name)
}

/// State recovered from a checkpoint file before ranks spawn.
struct ResumeState {
    /// First step the resumed run executes.
    start_step: usize,
    /// AdamW step counter at the checkpoint.
    adamw_steps: u64,
    /// Reference model with checkpointed parameters.
    model: AerisModel,
    /// `opt.m/<name>` / `opt.v/<name>` entries for optimizer rehydration.
    moments: HashMap<String, Tensor>,
}

fn ckpt_io(msg: impl std::fmt::Display) -> SwipeError {
    SwipeError::Checkpoint(CheckpointError::Io(msg.to_string()))
}

/// Load and validate a checkpoint written by [`run_rank`]'s save protocol.
///
/// Restore is world-size independent across the data-parallel axis: the file
/// holds the full (replicated) parameter set and the full moment tensor of
/// every parameter, so any DP width can re-derive its within-replica ZeRO-1
/// ownership positionally. Only the model-parallel grid (pp/wp/sp), which
/// shapes the stage shards themselves, and the seed, which drives the noise
/// stream, are required to match.
fn load_resume_state(
    reference: &AerisModel,
    cfg: &SwipeConfig,
    path: &Path,
) -> Result<ResumeState, SwipeError> {
    let entries = load_entries(path).map_err(ckpt_io)?;
    let map: HashMap<String, Tensor> = entries.into_iter().collect();
    let get_u64 = |key: &str| -> Result<u64, SwipeError> {
        entry_u64(
            map.get(key)
                .ok_or_else(|| CheckpointError::MissingEntry(key.to_string()))?,
        )
        .map_err(ckpt_io)
    };
    let start_step = get_u64("meta/step")? as usize;
    let adamw_steps = get_u64("meta/adamw_steps")?;
    let ckpt_topo = SwipeTopology {
        dp: get_u64("meta/topo_dp")? as usize,
        pp: get_u64("meta/topo_pp")? as usize,
        wp_a: get_u64("meta/topo_wp_a")? as usize,
        wp_b: get_u64("meta/topo_wp_b")? as usize,
        sp: get_u64("meta/topo_sp")? as usize,
    };
    let run = cfg.topo;
    if (ckpt_topo.pp, ckpt_topo.wp_a, ckpt_topo.wp_b, ckpt_topo.sp)
        != (run.pp, run.wp_a, run.wp_b, run.sp)
    {
        return Err(CheckpointError::TopologyMismatch { checkpoint: ckpt_topo, run }.into());
    }
    let saved_seed = get_u64("meta/seed")?;
    if saved_seed != cfg.seed {
        return Err(CheckpointError::SeedMismatch { checkpoint: saved_seed, run: cfg.seed }.into());
    }
    let mut model = AerisModel::new(reference.cfg.clone());
    let ids: Vec<(ParamId, String)> =
        model.store.iter().map(|(id, n, _)| (id, n.to_string())).collect();
    for (id, name) in ids {
        let saved = map
            .get(&format!("param/{name}"))
            .ok_or_else(|| CheckpointError::MissingEntry(format!("param/{name}")))?;
        if saved.shape() != model.store.get(id).shape() {
            return Err(CheckpointError::ShapeMismatch { name }.into());
        }
        *model.store.get_mut(id) = saved.clone();
    }
    let moments = map.into_iter().filter(|(k, _)| k.starts_with("opt.")).collect();
    Ok(ResumeState { start_step, adamw_steps, model, moments })
}

/// Read just the resume step (`meta/step`) of a checkpoint file.
pub fn checkpoint_step(path: &Path) -> Result<usize, SwipeError> {
    let entries = load_entries(path).map_err(ckpt_io)?;
    let t = entries
        .iter()
        .find(|(k, _)| k == "meta/step")
        .map(|(_, t)| t)
        .ok_or_else(|| CheckpointError::MissingEntry("meta/step".to_string()))?;
    Ok(entry_u64(t).map_err(ckpt_io)? as usize)
}

/// The distributed trainer entry point.
pub struct DistributedTrainer;

impl DistributedTrainer {
    /// Run `cfg.n_steps` of SWiPe training starting from `reference`'s
    /// parameters (or from `cfg.resume_from`'s checkpoint). `schedule[step]
    /// [dp]` lists the GAS sample indices each data-parallel replica consumes
    /// at that step.
    ///
    /// Fails with a typed [`TrainFailure`] — carrying the fault log — if a
    /// rank dies mid-step or a communication deadline expires; completes with
    /// a degraded (DP-shrunk) run when crashes are planned at step
    /// boundaries.
    pub fn train(
        reference: &AerisModel,
        cfg: &SwipeConfig,
        source: &(dyn WindowSource + Sync),
        schedule: &[Vec<Vec<usize>>],
        weights: &Tensor,
    ) -> Result<TrainReport, TrainFailure> {
        let topo = cfg.topo;
        assert_eq!(
            topo.pp,
            reference.cfg.n_layers * reference.cfg.blocks_per_layer + 2,
            "pipeline stages must equal blocks + 2 (separated I/O/embedding stages)"
        );
        assert_eq!(schedule.len(), cfg.n_steps);
        for s in schedule {
            assert_eq!(s.len(), topo.dp);
            for micro in s {
                assert_eq!(micro.len(), cfg.gas);
            }
        }
        let world =
            World::with_tracer(topo.world_size(), cfg.comm, cfg.faults.clone(), cfg.tracer.clone());
        let fail = |error: SwipeError, world: &World| TrainFailure {
            error,
            events: world.events().snapshot(),
        };

        let resume = match &cfg.resume_from {
            Some(path) => match load_resume_state(reference, cfg, path) {
                Ok(r) => Some(r),
                Err(e) => return Err(fail(e, &world)),
            },
            None => None,
        };
        let start_step = resume.as_ref().map_or(0, |r| r.start_step);
        let reference = resume.as_ref().map_or(reference, |r| &r.model);
        let resume_opt = resume.as_ref().map(|r| (&r.moments, r.adamw_steps));

        let losses: Mutex<Vec<f64>> = Mutex::new(vec![0.0; cfg.n_steps]);
        let final_params: Mutex<HashMap<String, Tensor>> = Mutex::new(HashMap::new());
        let ckpt_buf: Mutex<HashMap<String, Tensor>> = Mutex::new(HashMap::new());
        let max_act = AtomicUsize::new(0);
        let errors: Mutex<Vec<SwipeError>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for rank in 0..topo.world_size() {
                let comm = world.communicator(rank);
                let world = world.clone();
                let losses = &losses;
                let final_params = &final_params;
                let ckpt_buf = &ckpt_buf;
                let max_act = &max_act;
                let errors = &errors;
                scope.spawn(move || {
                    let result = run_rank(
                        comm, topo, cfg, reference, source, schedule, weights, losses,
                        final_params, ckpt_buf, max_act, start_step, resume_opt,
                    );
                    if let Err(e) = result {
                        // A failed rank can no longer feed its peers: mark it
                        // dead so their waits collapse into fast PeerDead
                        // errors instead of sleeping out the full deadline.
                        world.mark_dead(rank);
                        errors.lock().push(e);
                    }
                });
            }
        });

        if let Some(e) = errors.into_inner().into_iter().next() {
            return Err(fail(e, &world));
        }
        Ok(TrainReport {
            losses: losses.into_inner(),
            start_step,
            traffic: world.traffic(),
            max_activation_elems: max_act.load(Ordering::Relaxed),
            final_params: final_params.into_inner(),
            events: world.events().snapshot(),
            comm_ops: world.op_counts(),
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    mut comm: Communicator,
    topo: SwipeTopology,
    cfg: &SwipeConfig,
    reference: &AerisModel,
    source: &(dyn WindowSource + Sync),
    schedule: &[Vec<Vec<usize>>],
    weights: &Tensor,
    losses: &Mutex<Vec<f64>>,
    final_params: &Mutex<HashMap<String, Tensor>>,
    ckpt_buf: &Mutex<HashMap<String, Tensor>>,
    max_act: &AtomicUsize,
    start_step: usize,
    resume_opt: Option<(&HashMap<String, Tensor>, u64)>,
) -> Result<(), SwipeError> {
    let coords = topo.coords_of(comm.rank());
    let mcfg = &reference.cfg;
    let grid = WindowGrid::new(mcfg.grid_h, mcfg.grid_w, mcfg.window.0, mcfg.window.1);
    let n_blocks = topo.pp - 2;
    let tf = TrigFlow::default();

    let kind = match coords.stage {
        0 => StageKind::Input,
        s if s == topo.pp - 1 => StageKind::Head,
        s => StageKind::Block(s - 1),
    };
    // Layouts: stage 0 uses block 0's layout; block b its own; head uses the
    // last block's.
    let block_layout = |b: usize| {
        ActLayout::new(grid, reference.blocks[b].shifted, topo.wp_a, topo.wp_b, topo.sp)
    };
    let my_layout = match kind {
        StageKind::Input => block_layout(0),
        StageKind::Block(b) => block_layout(b),
        StageKind::Head => block_layout(n_blocks - 1),
    };
    let next_layout = match kind {
        StageKind::Input => Some(block_layout(0)),
        StageKind::Block(b) if b + 1 < n_blocks => Some(block_layout(b + 1)),
        StageKind::Block(b) => {
            debug_assert_eq!(b, n_blocks - 1);
            Some(block_layout(n_blocks - 1))
        }
        StageKind::Head => None,
    };
    let prev_layout = match kind {
        StageKind::Input => None,
        StageKind::Block(0) => Some(block_layout(0)),
        StageKind::Block(b) => Some(block_layout(b - 1)),
        StageKind::Head => Some(block_layout(n_blocks - 1)),
    };

    let stage_model = StageModel::from_reference(reference, kind, &my_layout)?;
    let sp_group = topo.sp_group(coords);
    let my_tokens = my_layout.tokens_of(coords.wp_row, coords.wp_col, coords.sp);
    let my_pos: Tensor = {
        let mut t = Tensor::zeros(&[my_tokens.len()]);
        for (i, &tok) in my_tokens.iter().enumerate() {
            t.data_mut()[i] = reference.pos_field.data()[tok];
        }
        t
    };
    let my_weight_rows = gather(weights, &my_tokens);

    // Gradient reduction still spans the full cross-replica groups: the
    // stage's DP×WP×SP group for stage-local params, and (for the shared
    // time-conditioner params, which the edge stages do not hold) the
    // interior stages across all replicas.
    let grad_group = topo.grad_group(coords);
    let all_ranks = topo.all_ranks();
    let shared_group = topo.block_stage_ranks();
    let shared_ixs: Vec<usize> = stage_model.shared_param_ixs();
    // Hybrid ZeRO-1 ownership (ORBIT-style): optimizer moments shard
    // *within* each data-parallel replica and replicate *across* replicas.
    // Every owner sees the same reduced gradient and therefore the same
    // moment history, so parameters evolve bitwise as with global sharding —
    // but the owner groups never change size when replicas retire or rejoin,
    // which keeps moment ownership stable under membership churn and lets
    // any live replica re-shard a rejoining one positionally.
    let replica_group = topo.replica_grad_group(coords);
    let replica_shared = topo.replica_shared_group(coords.dp);
    let mut opt = AdamW::new(&stage_model.store, cfg.adamw);
    let mut stage_model = stage_model;

    // Checkpoint-restart: rehydrate this rank's optimizer slice. Every
    // parameter's moments are in the checkpoint (saved by its owner at save
    // time); loading them everywhere is harmless — non-owners never read
    // their moment slots.
    if let Some((moments, adamw_steps)) = resume_opt {
        for i in 0..stage_model.store.len() {
            let name = stage_model.store.name(ParamId(i)).to_string();
            for (prefix, slot) in [("opt.m/", 0usize), ("opt.v/", 1usize)] {
                if let Some(saved) = moments.get(&format!("{prefix}{name}")) {
                    let state = opt.state_mut(i);
                    let target = if slot == 0 { state.0 } else { state.1 };
                    if saved.shape() != target.shape() {
                        return Err(CheckpointError::ShapeMismatch {
                            name: format!("{prefix}{name}"),
                        }
                        .into());
                    }
                    *target = saved.clone();
                }
            }
        }
        opt.set_steps(adamw_steps);
    }

    let actions = try_one_f_one_b(coords.stage, topo.pp, cfg.gas)?;
    let dim = mcfg.dim;
    let tracer = comm.world().tracer().clone();
    let mut prev_live_dp = topo.dp;
    // Elastic state: `Some(guard)` while this rank is parked waiting out a
    // fault window; the open Outage span closes at rejoin, so balanced
    // Outage pairs prove every parked replica that was due back came back.
    let mut outage: Option<aeris_obs::SpanGuard> = None;
    let mut was_out = false;

    for step in start_step..cfg.n_steps {
        comm.set_trace_step(step as u64);
        let plan = cfg.faults.as_ref();
        // ---- step-boundary fault-plan reconfiguration ----
        // The plan is shared knowledge: every rank derives the same dead set
        // for this step without any agreement protocol.
        let crashed_now = comm.planned_crash(step);
        let dead_dps = match plan {
            Some(p) => topo.dead_dps(&p.dead_ranks_at(step)),
            None => Vec::new(),
        };
        let live_dp = topo.dp - dead_dps.len();
        let all_live = topo.filter_live(&all_ranks, &dead_dps);
        if live_dp != prev_live_dp {
            prev_live_dp = live_dp;
            if Some(&comm.rank()) == all_live.first() {
                comm.world()
                    .events()
                    .record(comm.rank(), FaultEvent::GroupRescaled { step, live_dp });
            }
        }
        if dead_dps.contains(&coords.dp) {
            if !was_out {
                // Transition: a member of my replica crashed, and the whole
                // replica leaves together (the crasher itself already logged
                // RankCrashed inside `planned_crash`).
                if !crashed_now {
                    comm.world().events().record(
                        comm.rank(),
                        FaultEvent::ReplicaRetired { rank: comm.rank(), dp: coords.dp, step },
                    );
                }
                if dead_dps.len() == topo.dp {
                    return Err(SwipeError::AllReplicasLost { step });
                }
                // Park only if the replica is scheduled to come back inside
                // this run; otherwise retire for good (the shrink-only path).
                let rejoins = plan.is_some_and(|p| {
                    (step + 1..cfg.n_steps)
                        .any(|s| !topo.dead_dps(&p.dead_ranks_at(s)).contains(&coords.dp))
                });
                if !rejoins {
                    return Ok(());
                }
                was_out = true;
                outage = Some(tracer.span(SpanCategory::Outage, comm.rank()).step(step as u64));
            }
            // Parked: skip the step without touching the world — peers use
            // groups that exclude this replica until the window closes.
            continue;
        }

        // ---- elastic rejoin preamble ----
        // Every live rank re-admits the ranks whose fault window ends at
        // this boundary *before issuing any step traffic*, so nobody can
        // observe a stale dead flag on a peer it is about to wait on (the
        // revive is idempotent across ranks).
        let rejoining_dps: Vec<usize> = match plan {
            Some(p) if step > start_step => topo
                .dead_dps(&p.dead_ranks_at(step - 1))
                .into_iter()
                .filter(|dp| !dead_dps.contains(dp))
                .collect(),
            _ => Vec::new(),
        };
        for &dp in &rejoining_dps {
            for stage in 0..topo.pp {
                for r in topo.stage_ranks(dp, stage) {
                    comm.world().revive(r);
                }
            }
        }
        if was_out {
            // This rank is rejoining: close the outage window and receive a
            // re-sharded copy of a live replica's state.
            was_out = false;
            drop(outage.take());
            let event = if plan
                .and_then(|p| p.crash_step(comm.rank()))
                .is_some_and(|c| c < step)
            {
                FaultEvent::RankRejoined { rank: comm.rank(), step }
            } else {
                FaultEvent::ReplicaRejoined { rank: comm.rank(), dp: coords.dp, step }
            };
            comm.world().events().record(comm.rank(), event);
            let donor_dp = donor_dp(&topo, &dead_dps, &rejoining_dps)
                .ok_or(SwipeError::AllReplicasLost { step })?;
            let donor = topo.rank_of(RankCoords { dp: donor_dp, ..coords });
            let _reshard = comm.trace_span(SpanCategory::Recovery).label("reshard_recv");
            let payload = comm.recv(donor)?;
            apply_rejoin_state(
                &mut stage_model, &mut opt, &shared_ixs, &replica_group, &replica_shared,
                comm.rank(), payload,
            );
        } else if !rejoining_dps.is_empty() && donor_dp(&topo, &dead_dps, &rejoining_dps) == Some(coords.dp)
        {
            // Donor side: the lowest replica that stayed live across the
            // boundary re-shards its state to each rejoining replica's
            // same-coordinates rank. One message carries the full parameter
            // set (store order), the moment pairs this position owns under
            // the within-replica sharding (identical positions own identical
            // shards in every replica), and the AdamW step counter.
            let _reshard = comm.trace_span(SpanCategory::Recovery).label("reshard_send");
            let payload = rejoin_state_payload(
                &stage_model, &opt, &shared_ixs, &replica_group, &replica_shared, comm.rank(),
            );
            for &dp in &rejoining_dps {
                let dst = topo.rank_of(RankCoords { dp, ..coords });
                comm.send(dst, CommClass::AllGather, payload.clone())?;
            }
        }
        let grad_group_live = topo.filter_live(&grad_group, &dead_dps);
        let shared_group_live = topo.filter_live(&shared_group, &dead_dps);

        let mut runs: HashMap<usize, StageRun> = HashMap::new();
        let mut grads: Vec<Option<Tensor>> = vec![None; stage_model.store.len()];
        let mut my_loss = 0.0f64;

        for action in &actions {
            match *action {
                Action::Forward(m) => {
                    comm.set_trace_micro(Some(m as u64));
                    let sample = schedule[step][coords.dp][m];
                    let t = shared_t(&tf, cfg.seed, step, coords.dp, m);
                    match kind {
                        StageKind::Input => {
                            let run = {
                                let _fwd = comm.trace_span(SpanCategory::Forward);
                                let x0 = source.load_rows(sample, Field::Residual, &my_tokens);
                                let prev = source.load_rows(sample, Field::Prev, &my_tokens);
                                let forc = source.load_rows(sample, Field::Forcing, &my_tokens);
                                let z = noise_rows(cfg.seed, sample, &my_tokens, mcfg.channels);
                                let x_t = tf.interpolate(&x0, &z, t);
                                let cat = Tensor::concat_cols(&[&x_t, &prev, &forc]);
                                let input = aeris_nn::posenc::add_pos_encoding(&cat, &my_pos);
                                stage_model.forward_input(input)
                            };
                            send_relayout(
                                &mut comm, &topo, coords, &my_layout,
                                next_layout.as_ref().unwrap(),
                                run.tape.value(run.out),
                            )?;
                            runs.insert(m, run);
                        }
                        StageKind::Block(_) => {
                            let x_in = {
                                // Pipeline wait: blocked until the previous
                                // stage's activations arrive.
                                let _bubble = comm.trace_span(SpanCategory::Bubble);
                                recv_relayout(
                                    &mut comm, &topo, coords, prev_layout.as_ref().unwrap(),
                                    &my_layout, my_layout.rows_per_rank(), dim,
                                )?
                            };
                            let run = {
                                let _fwd = comm.trace_span(SpanCategory::Forward);
                                stage_model.forward_block(x_in, t, &mut comm, &sp_group)?
                            };
                            send_relayout(
                                &mut comm, &topo, coords, &my_layout,
                                next_layout.as_ref().unwrap(),
                                run.tape.value(run.out),
                            )?;
                            runs.insert(m, run);
                        }
                        StageKind::Head => {
                            let x_in = {
                                let _bubble = comm.trace_span(SpanCategory::Bubble);
                                recv_relayout(
                                    &mut comm, &topo, coords, prev_layout.as_ref().unwrap(),
                                    &my_layout, my_layout.rows_per_rank(), dim,
                                )?
                            };
                            let _fwd = comm.trace_span(SpanCategory::Forward);
                            let x0 = source.load_rows(sample, Field::Residual, &my_tokens);
                            let z = noise_rows(cfg.seed, sample, &my_tokens, mcfg.channels);
                            let v_target = tf.velocity_target(&x0, &z, t);
                            let run = stage_model.forward_head(
                                x_in, &v_target, &my_weight_rows, mcfg.tokens(),
                            );
                            my_loss += run.loss;
                            runs.insert(m, run);
                        }
                    }
                }
                Action::Backward(m) => {
                    comm.set_trace_micro(Some(m as u64));
                    let run = runs.remove(&m).expect("forward before backward");
                    match kind {
                        StageKind::Head => {
                            let g_in = {
                                let _bwd = comm.trace_span(SpanCategory::Backward);
                                stage_model.backward_head(run, &mut grads)
                            };
                            send_grads_back(
                                &mut comm, &topo, coords, prev_layout.as_ref().unwrap(),
                                &my_layout, &g_in,
                            )?;
                        }
                        StageKind::Block(_) => {
                            let g_out = {
                                let _bubble = comm.trace_span(SpanCategory::Bubble);
                                recv_grads_back(
                                    &mut comm, &topo, coords, &my_layout,
                                    next_layout.as_ref().unwrap(),
                                    my_layout.rows_per_rank(), dim,
                                )?
                            };
                            let g_in = {
                                let _bwd = comm.trace_span(SpanCategory::Backward);
                                stage_model.backward_block(
                                    run, g_out, &mut comm, &sp_group, &mut grads,
                                )?
                            };
                            send_grads_back(
                                &mut comm, &topo, coords, prev_layout.as_ref().unwrap(),
                                &my_layout, &g_in,
                            )?;
                        }
                        StageKind::Input => {
                            let g_out = {
                                let _bubble = comm.trace_span(SpanCategory::Bubble);
                                recv_grads_back(
                                    &mut comm, &topo, coords, &my_layout,
                                    next_layout.as_ref().unwrap(),
                                    my_layout.rows_per_rank(), dim,
                                )?
                            };
                            let _bwd = comm.trace_span(SpanCategory::Backward);
                            stage_model.backward_input(run, g_out, &mut grads);
                        }
                    }
                }
            }
            // Activation accounting: all in-flight microbatch tapes.
            let live: usize = runs.values().map(|r| r.activation_elems()).sum();
            max_act.fetch_max(live, Ordering::Relaxed);
        }

        // ---- gradient reduction (rescaled to the surviving global batch) ----
        comm.set_trace_micro(None);
        let gbs = (live_dp * cfg.gas) as f32;
        for i in 0..stage_model.store.len() {
            let shape = stage_model.store.get(ParamId(i)).shape().to_vec();
            let local = grads[i].take().unwrap_or_else(|| Tensor::zeros(&shape));
            let group: &[usize] =
                if shared_ixs.contains(&i) { &shared_group_live } else { &grad_group_live };
            let mut reduced = comm.allreduce_sum(group, &local)?;
            reduced.scale_inplace(1.0 / gbs);
            grads[i] = Some(reduced);
        }

        // ---- ZeRO-1 sharded optimizer (hybrid, within-replica) ----
        // Each parameter's within-replica owner updates it with AdamW state,
        // then broadcasts the fresh value inside the replica. Owner groups
        // never shrink (live replicas are always whole), and every replica's
        // owners compute bitwise-identical updates from the shared reduced
        // gradient.
        let _opt_span = comm.trace_span(SpanCategory::OptimizerStep);
        let mut own_grads: Vec<Option<Tensor>> = vec![None; stage_model.store.len()];
        for i in 0..stage_model.store.len() {
            let group: &[usize] =
                if shared_ixs.contains(&i) { &replica_shared } else { &replica_group };
            let owner = group[i % group.len()];
            if owner == comm.rank() {
                own_grads[i] = grads[i].take();
            }
        }
        opt.step(&mut stage_model.store, &own_grads, cfg.lr);
        for i in 0..stage_model.store.len() {
            let group: &[usize] =
                if shared_ixs.contains(&i) { &replica_shared } else { &replica_group };
            let owner_ix = i % group.len();
            let value = if group[owner_ix] == comm.rank() {
                Some(stage_model.store.get(ParamId(i)).clone())
            } else {
                None
            };
            let fresh = comm.broadcast(group, owner_ix, value)?;
            *stage_model.store.get_mut(ParamId(i)) = fresh;
        }
        drop(_opt_span);

        // ---- loss reporting: sum local head losses over live ranks ----
        let loss_sum = comm
            .allreduce_sum(&all_live, &Tensor::from_slice(&[my_loss as f32]))?
            .data()[0] as f64;
        if comm.rank() == all_live[0] {
            losses.lock()[step] = loss_sum / (live_dp * cfg.gas) as f64;
        }

        // ---- coordinated checkpoint ----
        let due = cfg
            .checkpoint
            .as_ref()
            .filter(|c| c.every > 0 && (step + 1) % c.every == 0);
        if let Some(ck) = due {
            let _ckpt = comm.trace_span(SpanCategory::Checkpoint);
            save_checkpoint(
                &mut comm, &topo, cfg, coords, &stage_model, &opt, &shared_ixs,
                &replica_group, &replica_shared, &all_live, &dead_dps, ckpt_buf, ck, step,
            )?;
        }
    }

    // Contribute final params from the canonical (lowest surviving dp)
    // replica.
    let final_dead = match cfg.faults.as_ref() {
        Some(plan) => topo.dead_dps(&plan.dead_ranks_at(cfg.n_steps.saturating_sub(1))),
        None => Vec::new(),
    };
    let canonical_dp = (0..topo.dp).find(|dp| !final_dead.contains(dp)).unwrap_or(0);
    if coords.dp == canonical_dp && coords.wp_row == 0 && coords.wp_col == 0 && coords.sp == 0 {
        let mut fp = final_params.lock();
        for (_, name, v) in stage_model.store.iter() {
            // Shared params exist on every block stage; one copy suffices
            // (they are kept in sync by construction).
            fp.entry(name.to_string()).or_insert_with(|| v.clone());
        }
    }
    Ok(())
}

/// Coordinated checkpoint save: each rank contributes its slice into the
/// shared buffer, everyone synchronizes, and the lowest live rank writes the
/// file. The canonical (lowest surviving dp) replica covers everything: its
/// wp=(0,0)/sp=0 ranks cover parameters, and its within-replica ZeRO-1
/// owners cover the AdamW moments (moments are replicated across replicas
/// under hybrid sharding, so one replica's copy is the global truth). The
/// result is world-size independent along the data-parallel axis — any DP
/// width restores it by re-deriving positional ownership.
#[allow(clippy::too_many_arguments)]
fn save_checkpoint(
    comm: &mut Communicator,
    topo: &SwipeTopology,
    cfg: &SwipeConfig,
    coords: RankCoords,
    stage_model: &StageModel,
    opt: &AdamW,
    shared_ixs: &[usize],
    replica_group: &[usize],
    replica_shared: &[usize],
    all_live: &[usize],
    dead_dps: &[usize],
    ckpt_buf: &Mutex<HashMap<String, Tensor>>,
    ck: &CheckpointConfig,
    step: usize,
) -> Result<(), SwipeError> {
    let canonical_dp = (0..topo.dp).find(|dp| !dead_dps.contains(dp)).unwrap_or(0);
    let canonical =
        coords.dp == canonical_dp && coords.wp_row == 0 && coords.wp_col == 0 && coords.sp == 0;
    {
        let mut buf = ckpt_buf.lock();
        for i in 0..stage_model.store.len() {
            let name = stage_model.store.name(ParamId(i)).to_string();
            if canonical {
                buf.insert(format!("param/{name}"), stage_model.store.get(ParamId(i)).clone());
            }
            let group: &[usize] =
                if shared_ixs.contains(&i) { replica_shared } else { replica_group };
            if coords.dp == canonical_dp && group[i % group.len()] == comm.rank() {
                let (m, v) = opt.state(i);
                buf.insert(format!("opt.m/{name}"), m.clone());
                buf.insert(format!("opt.v/{name}"), v.clone());
            }
        }
    }
    // All contributions in before the writer drains the buffer.
    comm.barrier(all_live)?;
    if comm.rank() == all_live[0] {
        let mut entries: Vec<(String, Tensor)> = {
            let mut buf = ckpt_buf.lock();
            std::mem::take(&mut *buf).into_iter().collect()
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.push(u64_entry("meta/step", (step + 1) as u64));
        entries.push(u64_entry("meta/adamw_steps", opt.steps()));
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
        comm.world().events().record(
            comm.rank(),
            FaultEvent::CheckpointSaved { next_step: step + 1, path: path.display().to_string() },
        );
    }
    // Nobody races into the next checkpoint's contributions while the writer
    // is still draining this one.
    comm.barrier(all_live)?;
    Ok(())
}

/// The replica that re-shards state to rejoiners at a boundary: the lowest
/// dp that is live this step and did not itself just rejoin (its state spans
/// the whole outage). `None` when every live replica is freshly rejoining —
/// the run's state is unrecoverable in-world and the supervisor must restore
/// from a checkpoint.
fn donor_dp(topo: &SwipeTopology, dead_dps: &[usize], rejoining_dps: &[usize]) -> Option<usize> {
    (0..topo.dp).find(|dp| !dead_dps.contains(dp) && !rejoining_dps.contains(dp))
}

/// The single-message state transfer a donor sends each rejoiner: every
/// stage parameter in store order, then the (m, v) moment pair of each
/// parameter this position owns under the within-replica ZeRO-1 sharding,
/// then the bit-encoded AdamW step counter. The rejoiner's same-coordinates
/// rank owns exactly the same positions, so no index map is transferred.
fn rejoin_state_payload(
    stage_model: &StageModel,
    opt: &AdamW,
    shared_ixs: &[usize],
    replica_group: &[usize],
    replica_shared: &[usize],
    rank: usize,
) -> Vec<Tensor> {
    let n = stage_model.store.len();
    let mut payload = Vec::with_capacity(n + 1);
    for i in 0..n {
        payload.push(stage_model.store.get(ParamId(i)).clone());
    }
    for i in 0..n {
        let group: &[usize] = if shared_ixs.contains(&i) { replica_shared } else { replica_group };
        if group[i % group.len()] == rank {
            let (m, v) = opt.state(i);
            payload.push(m.clone());
            payload.push(v.clone());
        }
    }
    payload.push(u64_entry("", opt.steps()).1);
    payload
}

/// Apply a donor's re-shard payload (inverse of [`rejoin_state_payload`];
/// both sides derive the owned set positionally, so layout mismatches are
/// protocol bugs, not runtime conditions — hence the asserts).
fn apply_rejoin_state(
    stage_model: &mut StageModel,
    opt: &mut AdamW,
    shared_ixs: &[usize],
    replica_group: &[usize],
    replica_shared: &[usize],
    rank: usize,
    payload: Vec<Tensor>,
) {
    let n = stage_model.store.len();
    let mut it = payload.into_iter();
    for i in 0..n {
        let fresh = it.next().expect("re-shard payload missing a parameter");
        assert_eq!(fresh.shape(), stage_model.store.get(ParamId(i)).shape());
        *stage_model.store.get_mut(ParamId(i)) = fresh;
    }
    for i in 0..n {
        let group: &[usize] = if shared_ixs.contains(&i) { replica_shared } else { replica_group };
        if group[i % group.len()] == rank {
            let m = it.next().expect("re-shard payload missing a first moment");
            let v = it.next().expect("re-shard payload missing a second moment");
            let (m_slot, v_slot) = opt.state_mut(i);
            assert_eq!(m.shape(), m_slot.shape());
            *m_slot = m;
            *v_slot = v;
        }
    }
    let steps = entry_u64(&it.next().expect("re-shard payload missing the step counter"))
        .expect("malformed step counter in re-shard payload");
    opt.set_steps(steps);
    assert!(it.next().is_none(), "re-shard payload has trailing tensors");
}

/// Send a relayouted activation to the next stage.
fn send_relayout(
    comm: &mut Communicator,
    topo: &SwipeTopology,
    coords: RankCoords,
    src_layout: &ActLayout,
    dst_layout: &ActLayout,
    value: &Tensor,
) -> Result<(), CommError> {
    for msg in src_layout.routing_to(dst_layout, coords.wp_row, coords.wp_col, coords.sp) {
        let dst_rank = topo.rank_of(RankCoords {
            dp: coords.dp,
            stage: coords.stage + 1,
            wp_row: msg.dst.0,
            wp_col: msg.dst.1,
            sp: msg.dst.2,
        });
        let payload = gather(value, &msg.src_rows);
        comm.send(dst_rank, CommClass::P2p, vec![payload])?;
    }
    Ok(())
}

/// Receive a relayouted activation from the previous stage.
fn recv_relayout(
    comm: &mut Communicator,
    topo: &SwipeTopology,
    coords: RankCoords,
    src_layout: &ActLayout,
    dst_layout: &ActLayout,
    rows: usize,
    dim: usize,
) -> Result<Tensor, CommError> {
    let mut out = Tensor::zeros(&[rows, dim]);
    for ((ra, rb, sp), msg) in
        ActLayout::routing_from(src_layout, dst_layout, coords.wp_row, coords.wp_col, coords.sp)
    {
        let src_rank = topo.rank_of(RankCoords {
            dp: coords.dp,
            stage: coords.stage - 1,
            wp_row: ra,
            wp_col: rb,
            sp,
        });
        let payload = comm.recv(src_rank)?.pop().unwrap();
        for (i, &drow) in msg.dst_rows.iter().enumerate() {
            out.row_mut(drow).copy_from_slice(payload.row(i));
        }
    }
    Ok(out)
}

/// Send input-gradients back to the previous stage (transpose of
/// [`recv_relayout`]).
fn send_grads_back(
    comm: &mut Communicator,
    topo: &SwipeTopology,
    coords: RankCoords,
    src_layout: &ActLayout,
    dst_layout: &ActLayout,
    g_in: &Tensor,
) -> Result<(), CommError> {
    for ((ra, rb, sp), msg) in
        ActLayout::routing_from(src_layout, dst_layout, coords.wp_row, coords.wp_col, coords.sp)
    {
        let src_rank = topo.rank_of(RankCoords {
            dp: coords.dp,
            stage: coords.stage - 1,
            wp_row: ra,
            wp_col: rb,
            sp,
        });
        let payload = gather(g_in, &msg.dst_rows);
        comm.send(src_rank, CommClass::P2p, vec![payload])?;
    }
    Ok(())
}

/// Receive output-gradients from the next stage (transpose of
/// [`send_relayout`]).
fn recv_grads_back(
    comm: &mut Communicator,
    topo: &SwipeTopology,
    coords: RankCoords,
    src_layout: &ActLayout,
    dst_layout: &ActLayout,
    rows: usize,
    dim: usize,
) -> Result<Tensor, CommError> {
    let mut out = Tensor::zeros(&[rows, dim]);
    for msg in src_layout.routing_to(dst_layout, coords.wp_row, coords.wp_col, coords.sp) {
        let dst_rank = topo.rank_of(RankCoords {
            dp: coords.dp,
            stage: coords.stage + 1,
            wp_row: msg.dst.0,
            wp_col: msg.dst.1,
            sp: msg.dst.2,
        });
        let payload = comm.recv(dst_rank)?.pop().unwrap();
        for (i, &srow) in msg.src_rows.iter().enumerate() {
            out.row_mut(srow).copy_from_slice(payload.row(i));
        }
    }
    Ok(out)
}
