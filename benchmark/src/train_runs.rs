//! The two training workloads: `train_single` (one process, the same
//! nn/autodiff/tensor layers as serving but recording: tape + backward +
//! AdamW) and `train_swipe` (16 thread-ranks of SWiPe: 1F1B pipeline, window
//! exchange, Ulysses all-to-all, within-replica ZeRO-1).

use crate::fixture::{self, fnv_bytes, FNV_INIT};
use crate::hostclock::HostClock;
use crate::metrics::RunResult;
use crate::replay::TrainReplica;
use crate::serve_load::Models;
use crate::spans::{self, Recorder};
use crate::{probes, Ctx};
use aeris_core::{AerisModel, TrainSample, Trainer, TrainerConfig};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_obs::{MessageLaw, SpanCategory, SpanRecord, Tracer};
use aeris_swipe::data::InMemorySource;
use aeris_swipe::{CommClass, DistributedTrainer, SwipeConfig, SwipeTopology, TrainReport};
use aeris_tensor::Tensor;
use std::time::{Duration, Instant};

const BATCH: usize = 2;
const N_SAMPLES: usize = 16;
/// Untimed steps before the window (first-touch allocation, LR warm-up).
const WARMUP_STEPS: usize = 20;
/// The LR schedule's horizon in images: far enough that no run reaches the
/// final decay, near enough that warm-up (1/60 of it) ends inside warm-up.
const SCHEDULE_IMAGES: u64 = 8192;
/// Losses covered by the printed trajectory digest.
const DIGEST_STEPS: usize = 64;

/// What a timed training loop observed: the `(start, end)` of every timed
/// operation (a `train_step`, or a `train` call), and the window they fill.
struct Timed {
    ops: Vec<(Instant, Instant)>,
    window: (Instant, Instant),
}

impl Timed {
    /// Time `op` repeatedly until `window` has passed.
    fn run(window: Duration, mut op: impl FnMut()) -> Timed {
        let t0 = Instant::now();
        let mut ops = Vec::new();
        while t0.elapsed() < window {
            let t = Instant::now();
            op();
            ops.push((t, Instant::now()));
        }
        Timed {
            ops,
            window: (t0, Instant::now()),
        }
    }

    /// Operations per quiet second.
    fn rate(&self, clock: &HostClock) -> f64 {
        self.ops.len() as f64 / clock.quiet_secs(self.window.0, self.window.1)
    }

    /// End-to-end metrics where one operation is `steps` optimizer steps of
    /// `samples` samples each: latency is per step.
    fn set_metrics(&self, r: &mut RunResult, clock: &HostClock, steps: usize, samples: usize) {
        r.set_ops(
            clock,
            &self.ops,
            self.window,
            self.ops.len() * steps * samples,
            steps,
        );
    }
}

fn loss_digest(losses: &[f64]) -> String {
    let mut h = FNV_INIT;
    for l in losses.iter().take(DIGEST_STEPS) {
        fnv_bytes(&mut h, &l.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------------
// train_single
// ---------------------------------------------------------------------------

struct Single {
    model: AerisModel,
    trainer: Trainer,
    samples: Vec<TrainSample>,
    weights: Tensor,
    cfg: TrainerConfig,
    /// Loss of every step taken so far (set-up takes the first).
    losses: Vec<f64>,
}

fn single_setup(ctx: &Ctx, cfg: aeris_core::AerisConfig) -> Single {
    let model = fixture::model(cfg);
    let grid = Grid::new(model.cfg.grid_h, model.cfg.grid_w);
    let kappa = vec![1.0; model.cfg.channels];
    let cfg = TrainerConfig::paper_scaled(SCHEDULE_IMAGES, BATCH);
    let weights = loss_weights(&grid.token_lat_weights(), &kappa);
    let trainer = Trainer::new(&model, grid, &kappa, cfg);
    let samples = fixture::train_samples(&model.cfg, ctx.seed, N_SAMPLES);
    Single {
        model,
        trainer,
        samples,
        weights,
        cfg,
        losses: Vec::new(),
    }
}

/// Set-up is everything up to the first result: model, optimizer, samples
/// and the first optimizer step (see `serve_runs::quality_setup`).
fn single_setup_first_step(ctx: &Ctx) -> Single {
    let mut s = single_setup(ctx, fixture::toy48());
    s.step();
    s
}

impl Single {
    /// One `Trainer::train_step` on the next batch of the stream.
    fn step(&mut self) {
        let batch = batch_at(&self.samples, self.losses.len(), BATCH);
        self.losses
            .push(self.trainer.train_step(&mut self.model, &batch));
    }
}

fn batch_at(samples: &[TrainSample], step: usize, size: usize) -> Vec<&TrainSample> {
    (0..size)
        .map(|j| &samples[(step * size + j) % samples.len()])
        .collect()
}

/// Run `Trainer::train_step` untimed up to step `warmup`, then timed until
/// `window` has passed.
fn run_trainer(s: &mut Single, warmup: usize, window: Duration) -> Timed {
    while s.losses.len() < warmup {
        s.step();
    }
    Timed::run(window, || s.step())
}

/// Steps a run needs before "decreasing" is a fair demand: the LR warm-up
/// alone takes 68 steps, and single steps draw their own diffusion time.
const DECREASING_AFTER: usize = 200;

/// Finite everywhere, and — in a run long enough to tell — lower over the
/// last quarter of the steps than over the first.
fn gate_losses(r: &mut RunResult, losses: &[f64]) {
    r.attempted += losses.len() as u64;
    let bad = losses.iter().filter(|l| !l.is_finite()).count();
    r.failed += bad as u64;
    let q = (losses.len() / 4).max(1);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (head, tail) = (mean(&losses[..q]), mean(&losses[losses.len() - q..]));
    r.note("loss_first_quarter", head);
    r.note("loss_last_quarter", tail);
    r.note("loss_digest", loss_digest(losses));
    if losses.len() >= DECREASING_AFTER {
        r.gate("training loss decreases", tail < head);
    }
}

pub fn single_untraced(ctx: &Ctx, r: &mut RunResult) {
    rayon::set_thread_override(Some(1));
    let (timer, mut s) = ctx.first_setup(|| single_setup_first_step(ctx));
    let timed = run_trainer(&mut s, WARMUP_STEPS, Duration::from_secs_f64(ctx.seconds));
    r.set("peak_rss_mb", crate::peak_rss_mb(), 0);
    timed.set_metrics(r, &ctx.clock(), 1, BATCH);
    gate_losses(r, &s.losses);
    drop(s);
    let setup_s = ctx.finish_setup(timer, || single_setup_first_step(ctx));
    r.set("setup_s", setup_s, crate::SETUP_REPEATS);
}

pub fn single_traced(ctx: &Ctx, r: &mut RunResult) -> String {
    rayon::set_thread_override(Some(1));
    let seg = Duration::from_secs_f64(ctx.seconds * 0.3);
    // Tracing off: the program's Trainer.
    let mut plain = single_setup(ctx, fixture::toy48());
    let plain_timed = run_trainer(&mut plain, WARMUP_STEPS, seg);
    let plain_losses = std::mem::take(&mut plain.losses);
    gate_losses(r, &plain_losses);
    // Tracing on: the spanned replica over the same seeded stream.
    let mut s = single_setup(ctx, fixture::toy48());
    let mut replica = TrainReplica::new(&s.model, s.weights.clone(), s.cfg);
    let mut rec = Recorder::new();
    let mut losses = Vec::new();
    let mut replay_step = |rec: &mut Recorder, losses: &mut Vec<f64>| {
        rec.set_request(losses.len() as u64);
        let batch = batch_at(&s.samples, losses.len(), BATCH);
        losses.push(replica.train_step(rec, &mut s.model, &batch));
    };
    while losses.len() < WARMUP_STEPS {
        replay_step(&mut rec, &mut losses);
    }
    rec.spans.clear();
    let timed = Timed::run(seg, || replay_step(&mut rec, &mut losses));
    // Same seed, same arithmetic: the replica's losses are the Trainer's.
    let n = losses.len().min(plain_losses.len());
    r.gate(
        "replayed train_step reproduces Trainer::train_step's losses bitwise",
        losses[..n]
            .iter()
            .zip(&plain_losses[..n])
            .all(|(a, b)| a.to_bits() == b.to_bits()),
    );
    let verified = spans::verify(&rec.spans, 0.05);
    r.gate(
        "layer self times sum to their root span within 5 %",
        verified.is_ok(),
    );
    let clock = ctx.clock();
    r.set(
        "bench.traced_throughput_per_s",
        timed.rate(&clock) * BATCH as f64,
        timed.ops.len(),
    );
    r.set(
        "obs.trace_overhead_share",
        1.0 - timed.rate(&clock) / plain_timed.rate(&clock),
        0,
    );
    r.set("bench.replay_items", timed.ops.len() as f64, 0);
    timed.set_metrics(r, &clock, 1, BATCH);
    r.set(
        "core.assemble_input_ms",
        spans::mean_ms(&rec.spans, "assemble_input"),
        0,
    );
    r.set(
        "core.forward_taped_ms",
        spans::mean_ms(&rec.spans, "forward_taped"),
        0,
    );
    let models = Models::new();
    probes::run_all(r, &models, Some(1), ctx.nproc);
    // The whole-step spans overwrite the isolated probes: these are the
    // costs as the train step pays them.
    r.set(
        "autodiff.backward_ms",
        spans::mean_ms(&rec.spans, "backward"),
        0,
    );
    r.set(
        "autodiff.bind_params_ms",
        spans::mean_ms(&rec.spans, "bind_params"),
        0,
    );
    r.set("nn.adamw_step_ms", spans::mean_ms(&rec.spans, "adamw"), 0);
    // A few hundred steps of spans is plenty for a viewer.
    rec.spans.truncate(20_000);
    spans::chrome_trace(&rec.spans, &[])
}

// ---------------------------------------------------------------------------
// train_swipe
// ---------------------------------------------------------------------------

/// `(dp, pp, wp_a, wp_b, sp)`: 16 thread-ranks.
const TOPOLOGY: (usize, usize, usize, usize, usize) = (1, 4, 1, 2, 2);
const GAS: usize = 4;
/// Optimizer steps per `DistributedTrainer::train` call. Short calls give
/// the step-time percentiles enough samples in a 20 s window (about 140);
/// the price is that each call's fixed cost — spawning 16 rank threads,
/// sharding the model, building ZeRO state, about 13 ms here — is spread
/// over 2 steps instead of 20 (about 8 % of a step instead of 1 %).
const STEPS_PER_CALL: usize = 2;

struct Swipe {
    model: AerisModel,
    source: InMemorySource,
    weights: Tensor,
    schedule: Vec<Vec<Vec<usize>>>,
    topo: SwipeTopology,
}

/// What the first `train` call (made by set-up) returned: the reference
/// every later call must reproduce.
type FirstCall = Result<TrainReport, String>;

/// Set-up is everything up to the first result (see
/// `serve_runs::quality_setup`): here, the first `train` call.
fn swipe_setup(ctx: &Ctx) -> (Swipe, FirstCall) {
    let model = fixture::model(fixture::toy48_swipe());
    let grid = Grid::new(model.cfg.grid_h, model.cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; model.cfg.channels]);
    let source = InMemorySource {
        samples: fixture::train_samples(&model.cfg, ctx.seed, N_SAMPLES),
    };
    let (dp, pp, wp_a, wp_b, sp) = TOPOLOGY;
    let schedule = (0..STEPS_PER_CALL)
        .map(|s| vec![(0..GAS).map(|j| (s * GAS + j) % N_SAMPLES).collect()])
        .collect();
    let s = Swipe {
        model,
        source,
        weights,
        schedule,
        topo: SwipeTopology::new(dp, pp, wp_a, wp_b, sp),
    };
    let first = swipe_call(&s, ctx.seed, Tracer::disabled());
    (s, first)
}

fn swipe_call(s: &Swipe, seed: u64, tracer: Tracer) -> Result<TrainReport, String> {
    let cfg = SwipeConfig {
        gas: GAS,
        n_steps: STEPS_PER_CALL,
        seed,
        tracer,
        ..SwipeConfig::new(s.topo)
    };
    DistributedTrainer::train(&s.model, &cfg, &s.source, &s.schedule, &s.weights)
        .map_err(|e| e.to_string())
}

/// Repeat `train` calls until `window` has passed. Every call starts from
/// the same parameters with the same seed, so every call must return the
/// same losses, bytes and op counts.
fn run_swipe(
    r: &mut RunResult,
    (s, first): &(Swipe, FirstCall),
    seed: u64,
    tracer: &Tracer,
    window: Duration,
) -> Timed {
    r.gate("the first train call succeeds", first.is_ok());
    let Ok(first) = first else {
        return Timed::run(Duration::ZERO, || ());
    };
    let mut reports = Vec::new();
    let timed = Timed::run(window, || reports.push(swipe_call(s, seed, tracer.clone())));
    let mut identical = true;
    for report in &reports {
        r.attempted += 1;
        match report {
            Ok(rep) => {
                identical &= rep
                    .losses
                    .iter()
                    .zip(&first.losses)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && rep.traffic == first.traffic
                    && rep.comm_ops == first.comm_ops;
            }
            Err(e) => {
                eprintln!("train call failed: {e}");
                r.failed += 1;
            }
        }
    }
    r.gate(
        "every train call returns identical losses, bytes and op counts",
        identical,
    );
    r.gate(
        "swipe losses are finite",
        first.losses.iter().all(|l| l.is_finite()),
    );
    let c = &s.model.cfg;
    let law = MessageLaw {
        tokens: c.tokens() as u64,
        dim: c.dim as u64,
        sp: s.topo.sp as u64,
        wp: s.topo.wp() as u64,
        dp: s.topo.dp as u64,
        gas: GAS as u64,
        blocks: c.total_blocks() as u64,
        steps: STEPS_PER_CALL as u64,
    };
    r.gate(
        "measured all-to-all bytes equal MessageLaw exactly",
        law.check(first.traffic.total(CommClass::AllToAll)).exact,
    );
    r.note("loss_digest", loss_digest(&first.losses));
    timed
}

pub fn swipe_untraced(ctx: &Ctx, r: &mut RunResult) {
    rayon::set_thread_override(Some(1));
    let (timer, s) = ctx.first_setup(|| swipe_setup(ctx));
    let timed = run_swipe(
        r,
        &s,
        ctx.seed,
        &Tracer::disabled(),
        Duration::from_secs_f64(ctx.seconds),
    );
    r.set("peak_rss_mb", crate::peak_rss_mb(), 0);
    timed.set_metrics(r, &ctx.clock(), STEPS_PER_CALL, GAS);
    drop(s);
    let setup_s = ctx.finish_setup(timer, || swipe_setup(ctx));
    r.set("setup_s", setup_s, crate::SETUP_REPEATS);
}

/// Bubble span time over `ranks × wall` of the traced calls.
fn bubble_share(spans: &[SpanRecord], ranks: usize) -> f64 {
    let begin = spans.iter().map(|s| s.begin_ns).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let bubble: u64 = spans
        .iter()
        .filter(|s| s.category == SpanCategory::Bubble)
        .map(SpanRecord::dur_ns)
        .sum();
    bubble as f64 / ((end - begin).max(1) as f64 * ranks as f64)
}

pub fn swipe_traced(ctx: &Ctx, r: &mut RunResult) -> String {
    rayon::set_thread_override(Some(1));
    let s = swipe_setup(ctx);
    let seg = Duration::from_secs_f64(ctx.seconds * 0.3);
    let plain = run_swipe(r, &s, ctx.seed, &Tracer::disabled(), seg);
    let tracer = Tracer::enabled();
    let traced = run_swipe(r, &s, ctx.seed, &tracer, seg);
    let clock = ctx.clock();
    let samples_per_call = (STEPS_PER_CALL * GAS) as f64;
    r.set(
        "bench.traced_throughput_per_s",
        traced.rate(&clock) * samples_per_call,
        traced.ops.len(),
    );
    traced.set_metrics(r, &clock, STEPS_PER_CALL, GAS);
    r.set(
        "obs.trace_overhead_share",
        1.0 - traced.rate(&clock) / plain.rate(&clock),
        0,
    );
    let traced_spans = tracer.take_spans();
    r.set(
        "swipe.bubble_share",
        bubble_share(&traced_spans, s.0.topo.world_size()),
        traced_spans.len(),
    );
    if let Ok(rep) = &s.1 {
        let per_step = |bytes: u64| bytes as f64 / STEPS_PER_CALL as f64;
        let t = &rep.traffic;
        r.set(
            "swipe.comm_bytes_per_step",
            per_step(t.comm_bytes().total()),
            0,
        );
        r.set(
            "swipe.p2p_bytes_per_step",
            per_step(t.total(CommClass::P2p)),
            0,
        );
        r.set(
            "swipe.alltoall_bytes_per_step",
            per_step(t.total(CommClass::AllToAll)),
            0,
        );
        r.set(
            "swipe.allreduce_bytes_per_step",
            per_step(t.total(CommClass::AllReduce)),
            0,
        );
        r.set(
            "swipe.comm_ops_per_step",
            per_step(rep.comm_ops.iter().sum()),
            0,
        );
        r.set(
            "swipe.max_activation_elems",
            rep.max_activation_elems as f64,
            0,
        );
    }
    // The plain single-worker baseline on the same model and micro-batches
    // (one thread, as `train_single` runs it; the pool stays at one).
    let mut single = single_setup(ctx, fixture::toy48_swipe());
    let mut single_ops = Vec::new();
    for step in 0..12 {
        let batch = batch_at(&single.samples, step, GAS);
        let t = Instant::now();
        single.trainer.train_step(&mut single.model, &batch);
        if step >= 2 {
            single_ops.push((t, Instant::now()));
        }
    }
    let clock = ctx.clock();
    let median_ms = |ops: &[(Instant, Instant)], per: usize| {
        let ms: Vec<f64> = ops
            .iter()
            .map(|(a, b)| clock.quiet_ms(*a, *b) / per as f64)
            .collect();
        crate::stats::median(&ms).unwrap_or(f64::NAN)
    };
    r.set(
        "swipe.over_single_ratio",
        median_ms(&plain.ops, STEPS_PER_CALL) / median_ms(&single_ops, 1),
        single_ops.len(),
    );
    let models = Models::new();
    probes::run_all(r, &models, Some(1), ctx.nproc);
    // One call's worth of spans is what a viewer can show.
    let mut spans = traced_spans;
    spans.truncate(20_000);
    spans::chrome_trace(&[], &spans)
}
