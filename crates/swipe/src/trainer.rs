//! End-to-end distributed SWiPe training.
//!
//! Each rank runs the 1F1B schedule over its stage, with window/sequence
//! parallel activations inside each block, shared-seed diffusion times across
//! model-parallel ranks (§VI-B), gradient reduction over DP×WP×SP, and a
//! ZeRO-1-style sharded optimizer (owner-updates + owner broadcast): one
//! bucketed reduction and one owner broadcast per group per step.
//!
//! One [`DistributedTrainer::train`] call is an `Arc`'d `Run` — what every
//! rank shares — and one `Rank` value per rank. The `Run` owns the call's
//! inputs: the configuration, the schedule, the loss weights, a copy of the
//! reference model, and a copy of each sample the schedule names, made on
//! the calling thread from the caller's [`InMemorySource`]. Each rank's
//! job then runs on a parked thread of the process (`parked`): rank threads
//! outlive the call, so a later call spawns none, and nothing a rank holds
//! may borrow from the caller. `Rank::new` resolves, once, everything that
//! is a function of (rank, run) alone: the stage shard, the optimizer slice,
//! the relayout `Link` to each neighbouring stage, ZeRO-1 ownership
//! (`Shards`), the groups and this rank's data rows; `Rank::train` is the
//! step loop over that state. The `World`, its mailboxes and fault plan, the
//! `Run` and the `Rank`s are per call: a parked thread carries no state from
//! one call to the next that decides a bit.
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

use crate::comm::{CommConfig, CommError, TrafficReport, World};
use crate::data::InMemorySource;
use crate::events::EventRecord;
use crate::fault::FaultPlan;
use crate::parked::{self, Job};
use crate::rank::Rank;
use crate::schedule::ScheduleError;
use crate::stage::StageError;
use crate::topology::SwipeTopology;
use aeris_core::{AerisModel, TrainSample, Workspace};
use aeris_diffusion::TrigFlow;
use aeris_nn::checkpoint::{entry_u64, Entries, EntryError};
use aeris_nn::window::WindowGrid;
use aeris_nn::{batch_mean, AdamWConfig, ParamId};
use aeris_obs::Tracer;
use aeris_tensor::{Rng, Tensor};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
    /// A degree of the topology is 0.
    ZeroDegree { topo: SwipeTopology },
    /// The WP grid does not tile the model's window grid: `wp_a` must divide
    /// its `rows` of windows and `wp_b` its `cols`.
    WindowsNotDivisible { rows: usize, cols: usize, wp_a: usize, wp_b: usize },
    /// `sp` does not divide the `window_len` tokens of a window.
    WindowLenNotDivisible { window_len: usize, sp: usize },
    /// Every data-parallel replica was lost to planned crashes.
    AllReplicasLost { step: usize },
    /// `schedule[step][dp]` names a sample the source does not hold.
    SampleOutOfRange { step: usize, dp: usize, sample: usize, len: usize },
    /// The topology's pipeline is not one stage per Swin block plus the
    /// input and head stages.
    StageCount { pp: usize, blocks: usize },
    /// The schedule does not have one entry per training step.
    ScheduleSteps { steps: usize, n_steps: usize },
    /// `schedule[step]` does not list one sample set per replica.
    ScheduleReplicas { step: usize, replicas: usize, dp: usize },
    /// `schedule[step][dp]` does not list `gas` samples.
    ScheduleSamples { step: usize, dp: usize, samples: usize, gas: usize },
}

impl std::fmt::Display for SwipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwipeError::Comm(e) => write!(f, "communication failure: {e}"),
            SwipeError::Stage(e) => write!(f, "stage construction failure: {e}"),
            SwipeError::Schedule(e) => write!(f, "schedule failure: {e}"),
            SwipeError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            SwipeError::ZeroDegree { topo: t } => write!(
                f,
                "topology dp={} pp={} wp={}x{} sp={} has a zero degree: every degree must be \
                 at least 1",
                t.dp, t.pp, t.wp_a, t.wp_b, t.sp
            ),
            SwipeError::WindowsNotDivisible { rows, cols, wp_a, wp_b } => write!(
                f,
                "a {rows}x{cols} grid of windows does not divide over a {wp_a}x{wp_b} WP grid"
            ),
            SwipeError::WindowLenNotDivisible { window_len, sp } => {
                write!(f, "{window_len}-token windows do not divide over sp={sp}")
            }
            SwipeError::AllReplicasLost { step } => {
                write!(f, "all data-parallel replicas lost by step {step}")
            }
            SwipeError::SampleOutOfRange { step, dp, sample, len } => write!(
                f,
                "step {step}, replica dp={dp}: sample {sample} is out of range for a source \
                 of {len} samples"
            ),
            SwipeError::StageCount { pp, blocks } => write!(
                f,
                "{pp} pipeline stages for {blocks} Swin blocks: the pipeline needs blocks + 2 \
                 stages (separate input and head stages)"
            ),
            SwipeError::ScheduleSteps { steps, n_steps } => {
                write!(f, "the schedule lists {steps} steps for a run of {n_steps}")
            }
            SwipeError::ScheduleReplicas { step, replicas, dp } => {
                write!(f, "step {step} lists {replicas} replicas' samples for dp={dp}")
            }
            SwipeError::ScheduleSamples { step, dp, samples, gas } => write!(
                f,
                "step {step}, replica dp={dp}: {samples} samples for gas={gas} microbatches"
            ),
        }
    }
}

impl std::error::Error for SwipeError {}

impl From<CheckpointError> for SwipeError {
    fn from(e: CheckpointError) -> Self {
        SwipeError::Checkpoint(e)
    }
}

/// The checkpoint reader's two lookup failures, under this crate's names.
impl From<EntryError> for SwipeError {
    fn from(e: EntryError) -> Self {
        SwipeError::Checkpoint(match e {
            EntryError::Missing(key) => CheckpointError::MissingEntry(key),
            EntryError::Shape(name) => CheckpointError::ShapeMismatch { name },
        })
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
    /// Maximum activation elements any rank held at once for its in-flight
    /// microbatches' backwards (their saves).
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
    for (row, &tok) in out.data_mut().chunks_exact_mut(channels.max(1)).zip(tokens) {
        base.stream(tok as u64 + 1).fill_normal(row);
    }
    out
}

/// Single-rank reference: the identical objective, noise, and gradient
/// averaging as one distributed step, computed on the full model. Returns
/// (mean loss, per-parameter-name gradients).
pub fn reference_grads(
    model: &AerisModel,
    source: &InMemorySource,
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
    let mut ws = Workspace::default();
    for (dp, micro) in step_schedule.iter().enumerate() {
        for (m, &sample) in micro.iter().enumerate() {
            let t = shared_t(&tf, seed, step, dp, m);
            let s = &source.samples[sample];
            let z = noise_rows(seed, sample, &tokens, model.cfg.channels);
            let x_t = tf.interpolate(&s.residual, &z, t);
            let v_target = tf.velocity_target(&s.residual, &z, t);
            total_loss +=
                model.loss_grads(&mut ws, &x_t, &s.x_prev, &s.forcings, t, &v_target, weights, &mut acc);
            count += 1;
        }
    }
    let loss = batch_mean(&mut acc, total_loss, count);
    let by_name = acc
        .into_iter()
        .enumerate()
        .filter_map(|(i, g)| Some((model.store.name(ParamId(i)).to_string(), g?)))
        .collect();
    (loss, by_name)
}


/// Optimizer state recovered from a checkpoint file before the ranks start.
pub(crate) struct ResumeState {
    /// First step the resumed run executes.
    start_step: usize,
    /// AdamW step counter at the checkpoint.
    pub(crate) adamw_steps: u64,
    /// Every parameter's `(opt.m, opt.v)` moments, by reference name.
    pub(crate) moments: HashMap<String, (Tensor, Tensor)>,
}

pub(crate) fn ckpt_io(msg: impl std::fmt::Display) -> SwipeError {
    SwipeError::Checkpoint(CheckpointError::Io(msg.to_string()))
}

/// Load and validate a checkpoint written by `Rank::save_checkpoint`: the
/// reference model with the checkpointed parameters, and the optimizer state.
///
/// Restore is world-size independent across the data-parallel axis: the file
/// holds the full (replicated) parameter set and the full moment tensor of
/// every parameter, so any DP width can re-derive its within-replica ZeRO-1
/// ownership positionally. Only the model-parallel grid (pp/wp/sp), which
/// shapes the stage shards themselves, and the seed, which drives the noise
/// stream, are required to match.
///
/// Validation ends here, before any rank starts: every model parameter must
/// bring its `param/`, `opt.m/` and `opt.v/` entries, each in the parameter's
/// shape. Ranks then rehydrate infallibly, and a checkpoint that lost
/// optimizer state is a typed error instead of a run whose moments silently
/// restart from zero.
fn load_resume_state(
    reference: &AerisModel,
    cfg: &SwipeConfig,
    path: &Path,
) -> Result<(AerisModel, ResumeState), SwipeError> {
    let mut entries = Entries::load(path).map_err(ckpt_io)?;
    let mut get_u64 = |key: &str| entry_u64(&entries.take(key)?).map_err(ckpt_io);
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
    let params = entries.take_params("param/", &model.store)?;
    let m = entries.take_params("opt.m/", &model.store)?;
    let v = entries.take_params("opt.v/", &model.store)?;
    model.store.restore(&params);
    let names = model.store.iter().map(|(_, name, _)| name.to_string());
    let moments = names.zip(m.into_iter().zip(v)).collect();
    Ok((model, ResumeState { start_step, adamw_steps, moments }))
}

/// Read just the resume step (`meta/step`) of a checkpoint file.
pub fn checkpoint_step(path: &Path) -> Result<usize, SwipeError> {
    let step = Entries::load(path).map_err(ckpt_io)?.take("meta/step")?;
    Ok(entry_u64(&step).map_err(ckpt_io)? as usize)
}

/// What every rank of one [`DistributedTrainer::train`] call shares: the
/// call's inputs, owned, and the slots ranks report results into. The ranks
/// run on parked threads that outlive the call, so they hold the `Run` by
/// `Arc` and borrow nothing of the caller's.
pub(crate) struct Run {
    pub(crate) cfg: SwipeConfig,
    /// The model the ranks shard: a copy of the caller's, or the
    /// checkpoint's on resume.
    pub(crate) reference: AerisModel,
    /// A copy of every sample the executed steps schedule, by index.
    pub(crate) samples: HashMap<usize, TrainSample>,
    pub(crate) schedule: Vec<Vec<Vec<usize>>>,
    pub(crate) weights: Tensor,
    /// First step this run executes (> 0 when resumed).
    pub(crate) start_step: usize,
    /// The checkpointed optimizer state, when resuming.
    pub(crate) resume: Option<ResumeState>,
    /// Global objective per step, written by the lowest live rank.
    pub(crate) losses: Mutex<Vec<f64>>,
    pub(crate) final_params: Mutex<HashMap<String, Tensor>>,
    /// Staging area of the coordinated checkpoint save.
    pub(crate) ckpt_buf: Mutex<HashMap<String, Tensor>>,
    pub(crate) max_act: AtomicUsize,
    /// Each failed rank's error, in the order they failed.
    errors: Mutex<Vec<SwipeError>>,
}

/// Check a [`DistributedTrainer::train`] call's shape before any rank
/// starts: a topology of nonzero degrees that tiles the model (a pipeline
/// of blocks + 2 stages, a WP grid dividing the window grid, an SP degree
/// dividing a window's tokens and the heads), and a schedule of `n_steps`
/// steps × `dp` replicas × `gas` samples, each held by `source`.
fn validate_call(
    reference: &AerisModel,
    cfg: &SwipeConfig,
    source: &InMemorySource,
    schedule: &[Vec<Vec<usize>>],
) -> Result<(), SwipeError> {
    let (topo, model) = (cfg.topo, &reference.cfg);
    if [topo.dp, topo.pp, topo.wp_a, topo.wp_b, topo.sp].contains(&0) {
        return Err(SwipeError::ZeroDegree { topo });
    }
    let blocks = model.total_blocks();
    if topo.pp != blocks + 2 {
        return Err(SwipeError::StageCount { pp: topo.pp, blocks });
    }
    let grid = WindowGrid::new(model.grid_h, model.grid_w, model.window.0, model.window.1);
    let (rows, cols) = (grid.rows(), grid.cols());
    if !rows.is_multiple_of(topo.wp_a) || !cols.is_multiple_of(topo.wp_b) {
        return Err(SwipeError::WindowsNotDivisible { rows, cols, wp_a: topo.wp_a, wp_b: topo.wp_b });
    }
    if !grid.window_len().is_multiple_of(topo.sp) {
        let window_len = grid.window_len();
        return Err(SwipeError::WindowLenNotDivisible { window_len, sp: topo.sp });
    }
    if !model.n_heads.is_multiple_of(topo.sp) {
        return Err(StageError::HeadsNotDivisible { n_heads: model.n_heads, sp: topo.sp }.into());
    }
    if schedule.len() != cfg.n_steps {
        return Err(SwipeError::ScheduleSteps { steps: schedule.len(), n_steps: cfg.n_steps });
    }
    let len = source.samples.len();
    for (step, replicas) in schedule.iter().enumerate() {
        if replicas.len() != topo.dp {
            let replicas = replicas.len();
            return Err(SwipeError::ScheduleReplicas { step, replicas, dp: topo.dp });
        }
        for (dp, micro) in replicas.iter().enumerate() {
            if micro.len() != cfg.gas {
                let samples = micro.len();
                return Err(SwipeError::ScheduleSamples { step, dp, samples, gas: cfg.gas });
            }
            if let Some(&sample) = micro.iter().find(|&&s| s >= len) {
                return Err(SwipeError::SampleOutOfRange { step, dp, sample, len });
            }
        }
    }
    Ok(())
}

/// Marks its rank dead if dropped during a panic.
struct DeadOnUnwind {
    world: World,
    rank: usize,
}

impl Drop for DeadOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.world.mark_dead(self.rank);
        }
    }
}

/// The distributed trainer entry point.
pub struct DistributedTrainer;

impl DistributedTrainer {
    /// Run `cfg.n_steps` of SWiPe training starting from `reference`'s
    /// parameters (or from `cfg.resume_from`'s checkpoint). `schedule[step]
    /// [dp]` lists the GAS sample indices each data-parallel replica consumes
    /// at that step.
    ///
    /// Fails with a typed [`TrainFailure`] — carrying the fault log — if the
    /// call is malformed (a topology with a zero degree or one that does not
    /// tile the model, a schedule that is not `n_steps` × `dp` × `gas`
    /// samples `source` holds; checked before any rank starts, with an empty
    /// log), a rank dies mid-step or a communication deadline expires;
    /// completes with a degraded (DP-shrunk) run when crashes are planned at
    /// step boundaries. A panicking rank is marked dead as it unwinds, so its
    /// peers fail fast, and the panic reaches the caller once every rank has
    /// returned, without waiting out the comm deadline.
    ///
    /// Each sample the executed steps schedule is copied here, on the
    /// calling thread, once. The ranks run on the process's parked rank
    /// threads, and a call spawns a thread only when none is idle.
    pub fn train(
        reference: &AerisModel,
        cfg: &SwipeConfig,
        source: &InMemorySource,
        schedule: &[Vec<Vec<usize>>],
        weights: &Tensor,
    ) -> Result<TrainReport, TrainFailure> {
        validate_call(reference, cfg, source, schedule)
            .map_err(|error| TrainFailure { error, events: Vec::new() })?;
        let topo = cfg.topo;
        let world =
            World::with_tracer(topo.world_size(), cfg.comm, cfg.faults.clone(), cfg.tracer.clone());
        let fail = |error: SwipeError, world: &World| TrainFailure {
            error,
            events: world.events().snapshot(),
        };
        let (reference, resume) = match &cfg.resume_from {
            Some(path) => match load_resume_state(reference, cfg, path) {
                Ok((model, state)) => (model, Some(state)),
                Err(e) => return Err(fail(e, &world)),
            },
            None => (reference.clone(), None),
        };
        let start_step = resume.as_ref().map_or(0, |r| r.start_step);
        let mut samples = HashMap::new();
        for &ix in schedule.iter().skip(start_step).flatten().flatten() {
            samples.entry(ix).or_insert_with(|| source.samples[ix].clone());
        }
        let run = Arc::new(Run {
            cfg: cfg.clone(),
            samples,
            reference,
            schedule: schedule.to_vec(),
            weights: weights.clone(),
            start_step,
            resume,
            losses: Mutex::new(vec![0.0; cfg.n_steps]),
            final_params: Mutex::new(HashMap::new()),
            ckpt_buf: Mutex::new(HashMap::new()),
            max_act: AtomicUsize::new(0),
            errors: Mutex::new(Vec::new()),
        });

        let jobs = (0..topo.world_size())
            .map(|rank| {
                let (comm, world, run) = (world.communicator(rank), world.clone(), run.clone());
                Box::new(move || {
                    // A failed or panicking rank can no longer feed its peers:
                    // mark it dead so their waits collapse into fast PeerDead
                    // errors instead of sleeping out the full deadline.
                    let guard = DeadOnUnwind { world, rank };
                    if let Err(e) = Rank::new(comm, &run).and_then(|mut r| r.train()) {
                        guard.world.mark_dead(rank);
                        run.errors.lock().push(e);
                    }
                }) as Job
            })
            .collect();
        parked::run_all(jobs);

        // Each job dropped its handle before reporting back.
        let run = Arc::into_inner(run).expect("every rank has let go of the run");
        if let Some(e) = run.errors.into_inner().into_iter().next() {
            return Err(fail(e, &world));
        }
        Ok(TrainReport {
            losses: run.losses.into_inner(),
            start_step,
            traffic: world.traffic(),
            max_activation_elems: run.max_act.load(Ordering::Relaxed),
            // Copied on the calling thread: the ranks' copies sit in the
            // heaps of threads that later calls reuse, and a report the
            // caller keeps would pin them there.
            final_params: run
                .final_params
                .into_inner()
                .iter()
                .map(|(name, value)| (name.clone(), value.clone()))
                .collect(),
            events: world.events().snapshot(),
            comm_ops: world.op_counts(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_core::AerisConfig;
    use std::time::{Duration, Instant};

    /// A tiny reference model, four random samples and the loss weights.
    fn tiny_run() -> (AerisModel, InMemorySource, Tensor) {
        let reference = AerisModel::new(AerisConfig::test_tiny());
        let cfg = &reference.cfg;
        let mut rng = Rng::seed_from(3);
        let samples = (0..4)
            .map(|_| TrainSample {
                x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
                residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
                forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
            })
            .collect();
        let grid = aeris_earthsim::Grid::new(cfg.grid_h, cfg.grid_w);
        let weights =
            aeris_diffusion::loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
        (reference, InMemorySource { samples }, weights)
    }

    fn two_step_config() -> SwipeConfig {
        SwipeConfig { gas: 2, n_steps: 2, ..SwipeConfig::new(SwipeTopology::new(1, 4, 1, 1, 2)) }
    }

    /// A `Duration::MAX` deadline means "never time out", not an `Instant`
    /// overflow in every rank's first blocking receive: the run completes
    /// with the default configuration's losses, bit for bit.
    #[test]
    fn an_unbounded_deadline_trains_like_the_default() {
        let (reference, source, weights) = tiny_run();
        let schedule = vec![vec![vec![0, 1]], vec![vec![2, 3]]];
        let base = two_step_config();
        let unbounded = SwipeConfig {
            comm: CommConfig { deadline: Duration::MAX, ..CommConfig::default() },
            ..base.clone()
        };
        let run = |cfg: &SwipeConfig| {
            let report = DistributedTrainer::train(&reference, cfg, &source, &schedule, &weights)
                .expect("fault-free run");
            report.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(&unbounded), run(&base));
    }

    /// `tiny_run`'s samples, but sample `bad`'s residual one channel too
    /// wide, as a loader might return a corrupt record: the ranks that use it
    /// panic on the shape.
    fn too_wide(bad: usize) -> InMemorySource {
        let mut source = tiny_run().1;
        let residual = &mut source.samples[bad].residual;
        let (tokens, width) = (residual.shape()[0], residual.shape()[1]);
        *residual = Tensor::zeros(&[tokens, width + 1]);
        source
    }

    /// The ranks that use the bad sample panic in step 1. Marked dead as
    /// they unwind, they end their peers' waits at once: the panic reaches
    /// the caller in well under the 30-s comm deadline it would otherwise
    /// take.
    #[test]
    fn a_panicking_rank_does_not_stall_its_peers() {
        let (reference, _, weights) = tiny_run();
        let source = too_wide(2);
        let schedule = vec![vec![vec![0, 1]], vec![vec![2, 3]]];
        let cfg = SwipeConfig {
            comm: CommConfig { deadline: Duration::from_secs(30), ..CommConfig::default() },
            ..two_step_config()
        };
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            DistributedTrainer::train(&reference, &cfg, &source, &schedule, &weights)
        }));
        let elapsed = start.elapsed();
        assert!(outcome.is_err(), "the rank's panic reaches the caller");
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    }

    /// What a call returned, bit for bit.
    #[derive(Debug, PartialEq)]
    struct Bits {
        losses: Vec<u64>,
        traffic: TrafficReport,
        comm_ops: Vec<u64>,
        params: Vec<(String, Vec<u32>)>,
    }

    fn bits(report: &TrainReport) -> Bits {
        let mut params: Vec<(String, Vec<u32>)> = report
            .final_params
            .iter()
            .map(|(name, v)| (name.clone(), v.data().iter().map(|x| x.to_bits()).collect()))
            .collect();
        params.sort();
        Bits {
            losses: report.losses.iter().map(|l| l.to_bits()).collect(),
            traffic: report.traffic.clone(),
            comm_ops: report.comm_ops.clone(),
            params,
        }
    }

    /// A panic does not poison the parked rank threads. After the ranks'
    /// panics on their parked threads (`too_wide`: marked dead as they
    /// unwind, they end their peers' waits at once) reach the caller, the
    /// next fault-free call returns what the call before them did, bit for
    /// bit.
    #[test]
    fn a_panicked_rank_does_not_poison_the_parked_ranks() {
        let (reference, source, weights) = tiny_run();
        let schedule = vec![vec![vec![0, 1]], vec![vec![2, 3]]];
        let cfg = SwipeConfig {
            comm: CommConfig { deadline: Duration::from_secs(30), ..CommConfig::default() },
            ..two_step_config()
        };
        let call = |source: &InMemorySource| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                DistributedTrainer::train(&reference, &cfg, source, &schedule, &weights)
            }))
        };
        let fault_free = |source| bits(&call(source).expect("no panic").expect("fault-free run"));
        let before = fault_free(&source);
        let start = Instant::now();
        assert!(call(&too_wide(2)).is_err(), "the ranks' panic reaches the caller");
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
        assert_eq!(fault_free(&source), before);
    }

    /// A schedule naming a sample past the source's end is refused before
    /// any rank spawns, with the step, replica, sample and source length.
    #[test]
    fn an_out_of_range_sample_is_a_typed_error() {
        let (reference, source, weights) = tiny_run();
        let schedule = vec![vec![vec![0, 1]], vec![vec![4, 3]]];
        let failure = DistributedTrainer::train(&reference, &two_step_config(), &source, &schedule, &weights)
            .err()
            .expect("sample 4 of 4 is out of range");
        assert_eq!(failure.error, SwipeError::SampleOutOfRange { step: 1, dp: 0, sample: 4, len: 4 });
        assert!(failure.events.is_empty());
    }

    /// Every malformed call shape is a typed error before any rank starts:
    /// a topology with a zero degree, a pipeline that is not blocks + 2
    /// stages, a WP grid that does not tile the 2 × 4 windows, an SP degree
    /// that does not divide a window's 16 tokens, a schedule with the wrong
    /// number of steps, of replicas in a step, or of samples in a replica.
    #[test]
    fn a_malformed_call_is_a_typed_error() {
        let (reference, source, weights) = tiny_run();
        let base = two_step_config();
        let good = vec![vec![vec![0, 1]], vec![vec![2, 3]]];
        let with_topo = |topo| SwipeConfig { topo, ..base.clone() };
        let five_stages = with_topo(SwipeTopology::new(1, 5, 1, 1, 2));
        let no_replicas = with_topo(SwipeTopology { dp: 0, ..base.topo });
        let three_wp_rows = with_topo(SwipeTopology::new(1, 4, 3, 1, 2));
        let three_wp_cols = with_topo(SwipeTopology::new(1, 4, 1, 3, 2));
        let sp_three = with_topo(SwipeTopology::new(1, 4, 1, 1, 3));
        let cases = [
            (&no_replicas, vec![vec![], vec![]], SwipeError::ZeroDegree { topo: no_replicas.topo }),
            (&five_stages, good.clone(), SwipeError::StageCount { pp: 5, blocks: 2 }),
            (
                &three_wp_rows,
                good.clone(),
                SwipeError::WindowsNotDivisible { rows: 2, cols: 4, wp_a: 3, wp_b: 1 },
            ),
            (
                &three_wp_cols,
                good.clone(),
                SwipeError::WindowsNotDivisible { rows: 2, cols: 4, wp_a: 1, wp_b: 3 },
            ),
            (&sp_three, good.clone(), SwipeError::WindowLenNotDivisible { window_len: 16, sp: 3 }),
            (&base, vec![vec![vec![0, 1]]], SwipeError::ScheduleSteps { steps: 1, n_steps: 2 }),
            (
                &base,
                vec![vec![vec![0, 1]], vec![vec![2, 3], vec![0, 1]]],
                SwipeError::ScheduleReplicas { step: 1, replicas: 2, dp: 1 },
            ),
            (
                &base,
                vec![vec![vec![0, 1, 2]], vec![vec![2, 3]]],
                SwipeError::ScheduleSamples { step: 0, dp: 0, samples: 3, gas: 2 },
            ),
        ];
        for (cfg, schedule, expected) in cases {
            let failure = DistributedTrainer::train(&reference, cfg, &source, &schedule, &weights)
                .err()
                .unwrap_or_else(|| panic!("{expected} must be refused"));
            assert_eq!(failure.error, expected);
            assert!(failure.events.is_empty());
        }
    }
}
