//! The two serving workloads: `serve_quality_distinct` (closed loop,
//! model-forward-bound, cache write-only) and `serve_mixed_open` (open loop,
//! cache read-heavy, every scheduling policy firing).

use crate::fixture::{self, Class, MixedPool, Req};
use crate::hostclock::HostClock;
use crate::metrics::RunResult;
use crate::replay::{self, TapeStats};
use crate::serve_load::{self, ClosedResult, Models, OpenResult, Outcome, Phase};
use crate::spans::{self, Recorder};
use crate::stats::{percentile, sorted};
use crate::{probes, Ctx};
use aeris_assim::relax_toward_observations;
use aeris_obs::{SpanRecord, Tracer};
use aeris_sched::Tier;
use aeris_serve::{ForecastRequest, ServeEngine, ServeError, ServeReport};
use aeris_tensor::{Rng, Tensor};
use std::time::{Duration, Instant};

/// Open-loop arrival rates, requests per second, sized on the 2-core box
/// this was built on (`forecast_step` ≈ 75 ms, student step ≈ 6 ms, mean
/// request ≈ 14 ms of CPU): `STEADY` is about half of capacity, `SURGE` is
/// at or over it.
pub const STEADY_RATE: f64 = 40.0;
pub const SURGE_RATE: f64 = 150.0;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The accounting gate every serve run ends with.
fn gate_report(r: &mut RunResult, report: &ServeReport) {
    let accounting = report.verify_accounting();
    if let Err(e) = &accounting {
        eprintln!("accounting: {e}");
    }
    r.gate("ServeReport::verify_accounting", accounting.is_ok());
}

// ---------------------------------------------------------------------------
// serve_quality_distinct
// ---------------------------------------------------------------------------

/// Stream index of the request each set-up serves: far outside any run, so
/// it can never pre-fill the cache for a measured request.
const FIRST_RESULT: u64 = 1 << 40;

/// Set-up is everything up to the first result: models, engine, the head of
/// the input stream, and one request served (whatever is built lazily on
/// first use is paid here and shows in `setup_s`).
fn quality_setup(ctx: &Ctx) -> (Models, ServeEngine) {
    let models = Models::new();
    let engine = serve_load::start(&models, serve_load::base_config(ctx.thread_budget()), None);
    for i in 0..8 {
        std::hint::black_box(fixture::quality_request(models.cfg(), ctx.seed, i));
    }
    let first = fixture::quality_request(models.cfg(), ctx.seed, FIRST_RESULT);
    engine
        .submit(first)
        .and_then(|t| t.wait())
        .expect("an idle engine serves its first request");
    (models, engine)
}

/// Count the closed loop's requests and run the bitwise gate on its samples.
fn gate_closed(r: &mut RunResult, models: &Models, seed: u64, res: &ClosedResult) {
    r.attempted += res.attempted;
    r.failed += res.failed;
    // The direct recomputation may use every core; the engine is drained.
    rayon::set_thread_override(None);
    for (i, resp) in &res.samples {
        let req = Req::Forecast(fixture::quality_request(models.cfg(), seed, *i));
        r.gate(
            &format!("request {i} equals Forecaster::ensemble bitwise"),
            serve_load::response_matches(models, &req, resp),
        );
    }
    rayon::set_thread_override(Some(1));
}

pub fn quality_untraced(ctx: &Ctx, r: &mut RunResult) {
    rayon::set_thread_override(Some(1));
    let (timer, (models, engine)) = ctx.first_setup(|| quality_setup(ctx));
    let res = serve_load::closed_loop(
        &engine,
        models.cfg(),
        ctx.seed,
        ctx.thread_budget(),
        ctx.warmup(),
        secs(ctx.seconds),
    );
    r.set("peak_rss_mb", crate::peak_rss_mb(), 0);
    r.set_ops(&ctx.clock(), &res.ops, res.window, res.ops.len(), 1);
    gate_report(r, &engine.shutdown());
    gate_closed(r, &models, ctx.seed, &res);
    let setup_s = ctx.finish_setup(timer, || quality_setup(ctx));
    r.set("setup_s", setup_s, crate::SETUP_REPEATS);
}

/// Replay the first requests of the stream directly: `request →
/// member_rollout → forecast_step → …`, each replayed step checked bitwise
/// against `Forecaster::forecast_step`.
fn replay_quality(
    ctx: &Ctx,
    r: &mut RunResult,
    models: &Models,
    rec: &mut Recorder,
    budget: Duration,
) -> TapeStats {
    let fc = &models.fc;
    let tokens = models.cfg().tokens();
    let mut stats = TapeStats::default();
    let t0 = Instant::now();
    let mut items = 0;
    while items < 32 && (items < 1 || t0.elapsed() < budget) {
        let req = fixture::quality_request(models.cfg(), ctx.seed, items as u64);
        rec.set_request(items as u64);
        let rid = rec.open("request", "serve");
        for m in 0..req.n_members {
            let mid = rec.open("member_rollout", "core");
            let mut rng = Rng::seed_from(req.seed).stream(m as u64 + 1);
            let mut x = req.init.clone();
            for k in 0..req.steps {
                let forcings = req.forcings.at(tokens, k);
                let mut check_rng = Rng::restore(rng.snapshot());
                let next = replay::forecast_step(rec, fc, &x, &forcings, &mut rng, &mut stats);
                // Only the first item pays for the comparison call.
                if items == 0 {
                    let direct = fc.forecast_step(&x, &forcings, &mut check_rng);
                    r.gate(
                        "replayed forecast_step equals Forecaster::forecast_step bitwise",
                        fixture::bits_equal(&next, &direct),
                    );
                }
                x = next;
            }
            rec.close(mid);
        }
        rec.close(rid);
        items += 1;
    }
    r.set("bench.replay_items", items as f64, 0);
    stats
}

/// Per-layer metrics read off the replay spans.
fn set_replay_metrics(r: &mut RunResult, rec: &Recorder, stats: TapeStats) {
    let verified = spans::verify(&rec.spans, 0.05);
    if let Err(e) = &verified {
        eprintln!("trace arithmetic: {e}");
    }
    r.gate(
        "layer self times sum to their root span within 5 %",
        verified.is_ok(),
    );
    let s = &rec.spans;
    r.set(
        "diffusion.sampler_self_ms",
        spans::mean_self_ms(s, "sample_guided"),
        0,
    );
    r.set(
        "core.assemble_input_ms",
        spans::mean_ms(s, "assemble_input"),
        0,
    );
    r.set(
        "core.forward_taped_ms",
        spans::mean_ms(s, "forward_taped"),
        0,
    );
    r.set(
        "core.unstandardize_ms",
        spans::mean_ms(s, "unstandardize"),
        0,
    );
    r.set("autodiff.tape_nodes_per_eval", stats.nodes as f64, 0);
    r.set(
        "autodiff.activation_elems_per_eval",
        stats.activation_elems as f64,
        0,
    );
}

/// Engine-level probes on an otherwise idle engine.
fn engine_probes(ctx: &Ctx, r: &mut RunResult, models: &Models) {
    let t0 = Instant::now();
    let engine = serve_load::start(models, serve_load::base_config(ctx.thread_budget()), None);
    r.set("serve.start_ms", t0.elapsed().as_secs_f64() * 1e3, 1);

    // One request through the idle engine against the same request direct.
    let probe = |i: u64| ForecastRequest {
        n_members: 1,
        steps: 1,
        ..fixture::quality_request(models.cfg(), ctx.seed ^ 0xD1EC7, i)
    };
    let tokens = models.cfg().tokens();
    let mut ratios = Vec::new();
    for i in 0..3 {
        let req = probe(i);
        let t = Instant::now();
        let forcings = |k: usize| req.forcings.at(tokens, k);
        std::hint::black_box(models.fc.ensemble(&req.init, &forcings, 1, 1, req.seed));
        let direct = t.elapsed().as_secs_f64();
        let t = Instant::now();
        engine
            .submit(req)
            .and_then(|t| t.wait())
            .expect("idle engine serves");
        ratios.push(t.elapsed().as_secs_f64() / direct);
    }
    r.set(
        "serve.idle_latency_over_direct",
        crate::stats::median(&ratios).expect("three ratios"),
        3,
    );

    // Admission cost alone: dispatch held, so submit only validates,
    // hashes, looks the cache up and enqueues.
    engine.hold_dispatch();
    let mut walls = Vec::new();
    for i in 0..64 {
        let req = probe(100 + i);
        let t = Instant::now();
        let ticket = engine.submit(req);
        walls.push(t.elapsed().as_secs_f64() * 1e6);
        drop(ticket);
    }
    r.set(
        "serve.submit_us",
        crate::stats::median(&walls).expect("64 submits"),
        walls.len(),
    );
    engine.release_dispatch();
    engine.drain();
    let t0 = Instant::now();
    gate_report(r, &engine.shutdown());
    r.set("serve.shutdown_ms", t0.elapsed().as_secs_f64() * 1e3, 1);
}

/// Per-layer metrics the engine's own report carries.
fn set_report_metrics(r: &mut RunResult, report: &ServeReport, cached: u64, computed: u64) {
    let m = &report.metrics;
    r.set("serve.cached_steps", cached as f64, 0);
    r.set("serve.computed_steps", computed as f64, 0);
    r.set(
        "serve.cache_hit_share",
        cached as f64 / (cached + computed).max(1) as f64,
        0,
    );
    r.set(
        "serve.batch_size_mean",
        m.batch_size.mean().unwrap_or(0.0),
        m.batch_size.count(),
    );
    let n = m.queue_wait_ms.count();
    r.set(
        "serve.queue_wait_p50_ms",
        m.queue_wait_ms.percentile(50.0).unwrap_or(0.0),
        n,
    );
    r.set(
        "serve.queue_wait_p90_ms",
        m.queue_wait_ms.percentile(90.0).unwrap_or(0.0),
        n,
    );
    r.set(
        "sched.queue_wait_fast_p90_ms",
        m.fast_queue_wait_ms.percentile(90.0).unwrap_or(0.0),
        m.fast_queue_wait_ms.count(),
    );
}

/// `sched.estimator_rel_error`: the engine's own service estimate against
/// the benchmark's direct measurement of the same step.
fn set_estimator_error(r: &mut RunResult, per_unit_s: Option<f64>) {
    if let (Some(est), Some(step_ms)) = (per_unit_s, r.get("core.forecast_step_ms")) {
        r.set(
            "sched.estimator_rel_error",
            (est * 1e3 - step_ms).abs() / step_ms,
            0,
        );
    }
}

pub fn quality_traced(ctx: &Ctx, r: &mut RunResult) -> String {
    rayon::set_thread_override(Some(1));
    let models = Models::new();
    let seg = secs(ctx.seconds * 0.25);
    let run = |tracer: Option<Tracer>| {
        let engine = serve_load::start(
            &models,
            serve_load::base_config(ctx.thread_budget()),
            tracer,
        );
        let res = serve_load::closed_loop(
            &engine,
            models.cfg(),
            ctx.seed,
            ctx.thread_budget(),
            ctx.warmup(),
            seg,
        );
        let est = engine.estimator().per_unit(Tier::Quality);
        (res, est, engine.shutdown())
    };
    let (plain, _, plain_report) = run(None);
    let tracer = Tracer::enabled();
    let (traced, est, report) = run(Some(tracer.clone()));
    gate_report(r, &plain_report);
    gate_report(r, &report);
    let clock = ctx.clock();
    let thr =
        |res: &ClosedResult| res.ops.len() as f64 / clock.quiet_secs(res.window.0, res.window.1);
    r.set(
        "bench.traced_throughput_per_s",
        thr(&traced),
        traced.ops.len(),
    );
    r.set(
        "obs.trace_overhead_share",
        1.0 - thr(&traced) / thr(&plain),
        0,
    );
    set_report_metrics(r, &report, traced.cached_steps, traced.computed_steps);
    let lat = sorted(
        traced
            .ops
            .iter()
            .map(|(a, b)| clock.quiet_ms(*a, *b))
            .collect(),
    );
    r.set_latency(&lat);
    r.set(
        "serve.latency_p99_ms",
        percentile(&lat, 99.0).unwrap_or(0.0),
        lat.len(),
    );
    r.set(
        "sched.shed_share",
        report.shed as f64 / traced.attempted.max(1) as f64,
        0,
    );
    r.set(
        "sched.quota_denied_share",
        report.quota_denied as f64 / traced.attempted.max(1) as f64,
        0,
    );
    // The untraced engine's responses are gated by the `--trace 0` runs.
    r.attempted += plain.attempted;
    r.failed += plain.failed;
    gate_closed(r, &models, ctx.seed, &traced);

    let mut rec = Recorder::new();
    let stats = replay_quality(ctx, r, &models, &mut rec, secs(ctx.seconds * 0.1));
    set_replay_metrics(r, &rec, stats);
    engine_probes(ctx, r, &models);
    probes::run_all(r, &models, Some(1), ctx.nproc);
    set_estimator_error(r, est);
    spans::chrome_trace(&rec.spans, &cap_spans(tracer.take_spans()))
}

/// The program tracer can record far more spans than a trace viewer needs.
fn cap_spans(mut spans: Vec<SpanRecord>) -> Vec<SpanRecord> {
    spans.truncate(20_000);
    spans
}

// ---------------------------------------------------------------------------
// serve_mixed_open
// ---------------------------------------------------------------------------

/// The open-loop timeline: `(warm-up, steady, surge)` lengths.
fn phases(ctx: &Ctx, measured: f64) -> (Duration, Duration, Duration) {
    (
        ctx.warmup(),
        secs(measured * 2.0 / 3.0),
        secs(measured / 3.0),
    )
}

struct MixedRun {
    /// When the timeline started.
    start: Instant,
    open: OpenResult,
    report: ServeReport,
    est_quality: Option<f64>,
    /// `(warm-up, steady, surge)` of the timeline that was run.
    phases: (Duration, Duration, Duration),
}

fn mixed_setup(
    ctx: &Ctx,
    measured: f64,
    tracer: Option<Tracer>,
) -> (Models, ServeEngine, Vec<fixture::Arrival>) {
    let models = Models::new();
    let engine = serve_load::start(
        &models,
        serve_load::mixed_config(ctx.thread_budget()),
        tracer,
    );
    let pool = MixedPool::new(models.cfg(), ctx.seed);
    let (warm, steady, surge) = phases(ctx, measured);
    let timeline = [
        (warm, STEADY_RATE),
        (steady, STEADY_RATE),
        (surge, SURGE_RATE),
    ];
    let arrivals = fixture::mixed_stream(&pool, ctx.seed, &timeline);
    // First results, one per tier (see `quality_setup`).
    for tier in [Tier::Quality, Tier::Fast] {
        let first = ForecastRequest {
            steps: 1,
            n_members: 1,
            tier: Some(tier),
            ..fixture::quality_request(models.cfg(), ctx.seed, FIRST_RESULT)
        };
        engine
            .submit(first)
            .and_then(|t| t.wait())
            .expect("an idle engine serves its first request");
    }
    (models, engine, arrivals)
}

fn mixed_run(
    ctx: &Ctx,
    measured: f64,
    engine: ServeEngine,
    arrivals: Vec<fixture::Arrival>,
) -> MixedRun {
    let (warm, steady, surge) = phases(ctx, measured);
    let phase_of = |due: Duration| {
        if due < warm {
            Phase::Warmup
        } else if due < warm + steady {
            Phase::Steady
        } else {
            Phase::Surge
        }
    };
    let start = Instant::now();
    let open = serve_load::open_loop(
        arrivals,
        phase_of,
        ctx.seed % serve_load::CHECK_EVERY,
        |req| serve_load::submit(&engine, req),
        |ticket: aeris_serve::Ticket| ticket.wait(),
    );
    let est_quality = engine.estimator().per_unit(Tier::Quality);
    MixedRun {
        start,
        open,
        report: engine.shutdown(),
        est_quality,
        phases: (warm, steady, surge),
    }
}

fn latencies_ms<'a>(clock: &HostClock, outcomes: impl Iterator<Item = &'a Outcome>) -> Vec<f64> {
    outcomes.filter_map(|o| o.latency_ms(clock)).collect()
}

fn met_share<'a>(clock: &HostClock, outcomes: impl Iterator<Item = &'a Outcome>) -> f64 {
    let (mut met, mut sent) = (0usize, 0usize);
    for o in outcomes {
        sent += 1;
        met += o.met_limit(clock) as usize;
    }
    met as f64 / sent.max(1) as f64
}

/// Requests of the measured phases completed per *wall* second, up to the
/// moment the last of them finished (the surge backlog drains past the
/// window). An open loop's rate is set by its arrival schedule, which a
/// disturbed host does not stretch, so the adjusted clock does not apply.
fn mixed_throughput(run: &MixedRun) -> (f64, usize) {
    let (_, steady, surge) = run.phases;
    let measured: Vec<&Outcome> = run
        .open
        .outcomes
        .iter()
        .filter(|o| o.phase != Phase::Warmup)
        .collect();
    let done = measured.iter().filter(|o| o.result.is_ok()).count();
    let Some(start) = measured.iter().map(|o| o.due).min() else {
        return (0.0, 0);
    };
    let last = measured.iter().map(|o| o.finished).max().unwrap_or(start);
    let span = last.max(start + steady + surge) - start;
    (done as f64 / span.as_secs_f64(), done)
}

/// Count the run's requests — a designed shed, quota denial is not a
/// failure; any other error is — and run the bitwise gate on its samples.
fn gate_mixed(r: &mut RunResult, models: &Models, run: &MixedRun) {
    for o in &run.open.outcomes {
        r.attempted += 1;
        match &o.result {
            Ok(_) | Err(ServeError::DeadlineExceeded { .. } | ServeError::QuotaExceeded { .. }) => {
            }
            Err(e) => {
                eprintln!("unexpected serve error: {e}");
                r.failed += 1;
            }
        }
    }
    gate_report(r, &run.report);
    rayon::set_thread_override(None);
    for (req, resp) in &run.open.samples {
        r.gate(
            "sampled response equals the direct ensemble / nowcast bitwise",
            serve_load::response_matches(models, req, resp),
        );
    }
    rayon::set_thread_override(Some(1));
}

pub fn mixed_untraced(ctx: &Ctx, r: &mut RunResult) {
    rayon::set_thread_override(Some(1));
    let (timer, (models, engine, arrivals)) =
        ctx.first_setup(|| mixed_setup(ctx, ctx.seconds, None));
    let run = mixed_run(ctx, ctx.seconds, engine, arrivals);
    r.set("peak_rss_mb", crate::peak_rss_mb(), 0);
    let (thr, done) = mixed_throughput(&run);
    r.set("throughput_per_s", thr, done);
    let clock = ctx.clock();
    r.set_latency(&latencies_ms(
        &clock,
        run.open
            .outcomes
            .iter()
            .filter(|o| o.phase == Phase::Steady),
    ));
    r.note(
        "host_slowdown_in_window",
        format!(
            "{:.4}",
            clock.slowdown_between(run.start, std::time::Instant::now())
        ),
    );
    gate_mixed(r, &models, &run);
    drop(run);
    let setup_s = ctx.finish_setup(timer, || mixed_setup(ctx, ctx.seconds, None));
    r.set("setup_s", setup_s, crate::SETUP_REPEATS);
}

/// Replay the first arrivals directly, each class through the pieces its
/// tier runs, checking the composed result against the public function.
fn replay_mixed(
    ctx: &Ctx,
    r: &mut RunResult,
    models: &Models,
    rec: &mut Recorder,
    budget: Duration,
) -> TapeStats {
    let pool = MixedPool::new(models.cfg(), ctx.seed);
    let arrivals = fixture::mixed_stream(&pool, ctx.seed, &[(secs(4.0), STEADY_RATE)]);
    let tokens = models.cfg().tokens();
    let mut stats = TapeStats::default();
    let t0 = Instant::now();
    let mut items = 0;
    for (i, a) in arrivals.iter().take(32).enumerate() {
        if i > 0 && t0.elapsed() >= budget {
            break;
        }
        rec.set_request(i as u64);
        let rid = rec.open("request", "serve");
        let mid = rec.open("member_rollout", "core");
        match &a.req {
            Req::Forecast(req) => {
                // Pinned fast, or a deadline under the router's slack floor
                // → student; otherwise the quality sampler.
                let floor = aeris_sched::RouterConfig::default().slack_floor;
                let fast = req.tier == Some(Tier::Fast)
                    || (req.tier.is_none() && req.deadline.is_some_and(|d| d <= floor));
                let mut rng = Rng::seed_from(req.seed).stream(1);
                let mut x = req.init.clone();
                for k in 0..req.steps {
                    let forcings = req.forcings.at(tokens, k);
                    let mut check_rng = Rng::restore(rng.snapshot());
                    let (next, direct): (Tensor, Tensor) = if fast {
                        (
                            replay::student_step(
                                rec,
                                &models.student,
                                &x,
                                &forcings,
                                &mut rng,
                                &mut stats,
                            ),
                            models.student.forecast_step(&x, &forcings, &mut check_rng),
                        )
                    } else {
                        (
                            replay::forecast_step(
                                rec, &models.fc, &x, &forcings, &mut rng, &mut stats,
                            ),
                            models.fc.forecast_step(&x, &forcings, &mut check_rng),
                        )
                    };
                    r.gate(
                        "replayed step equals the program's step bitwise",
                        fixture::bits_equal(&next, &direct),
                    );
                    x = next;
                }
            }
            Req::Nowcast(req) => {
                let forcings = req.forcings.at(tokens, 0);
                let mut rng = Rng::seed_from(req.seed).stream(1);
                let mut x = replay::student_step(
                    rec,
                    &models.student,
                    &req.background,
                    &forcings,
                    &mut rng,
                    &mut stats,
                );
                rec.leaf("relax_toward_observations", "assim", || {
                    relax_toward_observations(&mut x, &req.observations, req.schedule.weight(0, 1))
                });
                let direct = aeris_assim::nowcast_member_fast(
                    &models.student,
                    &std::sync::Arc::new(req.background.clone()),
                    &forcings,
                    &req.observations,
                    req.schedule,
                    req.seed,
                    0,
                );
                r.gate(
                    "replayed nowcast equals nowcast_member_fast bitwise",
                    fixture::bits_equal(&x, &direct),
                );
            }
        }
        rec.close(mid);
        rec.close(rid);
        items += 1;
    }
    r.set("bench.replay_items", items as f64, 0);
    stats
}

pub fn mixed_traced(ctx: &Ctx, r: &mut RunResult) -> String {
    rayon::set_thread_override(Some(1));
    // Two timelines of the same seeded stream: tracing off, then on.
    let measured = ctx.seconds * 0.3;
    let (_, engine, arrivals) = mixed_setup(ctx, measured, None);
    let plain = mixed_run(ctx, measured, engine, arrivals);
    let tracer = Tracer::enabled();
    let (models, engine, arrivals) = mixed_setup(ctx, measured, Some(tracer.clone()));
    let run = mixed_run(ctx, measured, engine, arrivals);
    gate_mixed(r, &models, &plain);
    gate_mixed(r, &models, &run);

    let (thr_plain, _) = mixed_throughput(&plain);
    let (thr, done) = mixed_throughput(&run);
    r.set("bench.traced_throughput_per_s", thr, done);
    r.set("obs.trace_overhead_share", 1.0 - thr / thr_plain, 0);

    let out = &run.open.outcomes;
    let measured_out = || out.iter().filter(|o| o.phase != Phase::Warmup);
    let in_phase = |p: Phase| out.iter().filter(move |o| o.phase == p);
    let (mut cached, mut computed) = (0u64, 0u64);
    for served in measured_out().filter_map(|o| o.result.as_ref().ok()) {
        cached += served.cached_steps as u64;
        computed += served.computed_steps as u64;
    }
    set_report_metrics(r, &run.report, cached, computed);
    let sent = measured_out().count().max(1) as f64;
    let count = |f: &dyn Fn(&Outcome) -> bool| measured_out().filter(|o| f(o)).count() as f64;
    r.set(
        "sched.shed_share",
        count(&|o| matches!(o.result, Err(ServeError::DeadlineExceeded { .. }))) / sent,
        0,
    );
    r.set(
        "sched.quota_denied_share",
        count(&|o| matches!(o.result, Err(ServeError::QuotaExceeded { .. }))) / sent,
        0,
    );
    let routed = count(&|o| o.class == Class::Routed && o.result.is_ok()).max(1.0);
    r.set(
        "sched.fast_routed_share",
        count(&|o| {
            o.class == Class::Routed && o.result.as_ref().is_ok_and(|s| s.tier == Tier::Fast)
        }) / routed,
        0,
    );
    let clock = ctx.clock();
    r.set(
        "sched.slo_met_share",
        met_share(&clock, in_phase(Phase::Steady)),
        in_phase(Phase::Steady).count(),
    );
    let steady = sorted(latencies_ms(&clock, in_phase(Phase::Steady)));
    r.set_latency(&steady);
    r.set(
        "serve.latency_p99_ms",
        percentile(&steady, 99.0).unwrap_or(0.0),
        steady.len(),
    );
    let nowcasts = sorted(latencies_ms(
        &clock,
        in_phase(Phase::Steady).filter(|o| o.class == Class::FastNowcast),
    ));
    r.set(
        "serve.nowcast_latency_p50_ms",
        percentile(&nowcasts, 50.0).unwrap_or(0.0),
        nowcasts.len(),
    );
    let surge = sorted(latencies_ms(&clock, in_phase(Phase::Surge)));
    r.set(
        "sched.surge.latency_p90_ms",
        percentile(&surge, 90.0).unwrap_or(0.0),
        surge.len(),
    );
    r.set(
        "sched.surge.slo_met_share",
        met_share(&clock, in_phase(Phase::Surge)),
        in_phase(Phase::Surge).count(),
    );
    let (warm, steady_len, surge_len) = run.phases;
    let surge_start = run.start + warm + steady_len;
    let surge_end = in_phase(Phase::Surge)
        .map(|o| o.finished)
        .max()
        .unwrap_or(surge_start)
        .max(surge_start + surge_len);
    r.set(
        "sched.surge.req_per_s",
        surge.len() as f64 / (surge_end - surge_start).as_secs_f64(),
        surge.len(),
    );
    let lags = sorted(measured_out().map(Outcome::lag_ms).collect());
    r.set(
        "bench.generator_lag_p90_ms",
        percentile(&lags, 90.0).unwrap_or(0.0),
        lags.len(),
    );

    let mut rec = Recorder::new();
    let stats = replay_mixed(ctx, r, &models, &mut rec, secs(ctx.seconds * 0.1));
    set_replay_metrics(r, &rec, stats);
    engine_probes(ctx, r, &models);
    probes::run_all(r, &models, Some(1), ctx.nproc);
    set_estimator_error(r, run.est_quality);
    spans::chrome_trace(&rec.spans, &cap_spans(tracer.take_spans()))
}
