//! Forecast serving: stand up the `aeris-serve` engine over a trained
//! forecaster and drive it with concurrent clients — repeated initial
//! conditions (cache reuse), mixed ensemble sizes (micro-batching), and a
//! tight latency deadline (load shedding) — then print the live status as a
//! Prometheus scrape (`aeris_status_*` gauges) and the ops report.
//!
//! ```bash
//! cargo run --release --example serve_forecasts
//! ```

use aeris::core::{prepare_samples, AerisConfig, AerisModel, Forecaster, Trainer, TrainerConfig};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::{Dataset, Scenario, ToyParams, VariableSet};
use aeris::nn::LrSchedule;
use aeris::obs::Tracer;
use aeris::serve::{ForecastRequest, Forcings, ServeConfig, ServeEngine, ServeError};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Which GEMM build ran: a speed choice only, every kernel computes the
    // same bits, so digests and checkpoints compare across hosts.
    println!("GEMM kernel: {}", aeris::tensor::dispatch::Kernel::detected().name());
    // Small trained forecaster (same recipe as the quickstart, fewer images).
    let vars = VariableSet::with_levels(&[850]);
    let params =
        ToyParams { nlat: 8, nlon: 16, seed: 77, scenario: Scenario::quiet(), ..Default::default() };
    println!("generating dataset…");
    let ds = Dataset::generate(params, &vars, 120, 30, 0.8, 0.1);
    let cfg = AerisConfig {
        grid_h: 8,
        grid_w: 16,
        channels: vars.len(),
        forcing_channels: 3,
        dim: 16,
        n_heads: 2,
        ffn: 32,
        n_layers: 2,
        blocks_per_layer: 1,
        window: (4, 4),
        time_feat_dim: 16,
        cond_dim: 24,
        pos_amp: 0.1,
        seed: 5,
    };
    let mut model = AerisModel::new(cfg);
    let images = 400u64;
    let tcfg = TrainerConfig {
        schedule: LrSchedule { peak: 2e-3, warmup: 40, decay: 80, total: images },
        batch: 2,
        ema_halflife: 50.0,
        ..TrainerConfig::paper_scaled(images, 2)
    };
    let mut trainer = Trainer::new(&model, ds.grid, &vars.kappa(), tcfg);
    let samples = prepare_samples(&ds, ds.split_ranges().0);
    println!("training ({} params, {images} images)…", model.param_count());
    trainer.fit(&mut model, &samples, images);
    let forecaster = Arc::new(Forecaster {
        model: trainer.ema_model(&model),
        stats: ds.stats.clone(),
        res_stats: ds.res_stats.clone(),
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 4, churn: 0.1, second_order: true },
        ),
    });

    // Serve it: 2 workers, micro-batches of up to 8 member-steps, 16 MiB
    // rollout cache. The tracer stays disabled (no spans); it is the
    // registry the engine's counters, series and status gauges export through.
    let tracer = Tracer::default();
    let engine = Arc::new(ServeEngine::start_traced(
        forecaster,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            cache_bytes: 16 << 20,
            ..ServeConfig::default()
        },
        tracer.clone(),
    ));

    // Three concurrent tenants over two forecast cycles (initial conditions).
    // Tenants 0 and 1 ask for the same cycle-0 ensemble — the second to
    // arrive is answered (partly or fully) from the rollout cache.
    println!("serving 3 concurrent tenants…");
    let clients: Vec<_> = (0..3u64)
        .map(|tenant| {
            let engine = Arc::clone(&engine);
            let init = ds.state(60 + 10 * (tenant as usize % 2)).clone();
            std::thread::spawn(move || {
                let ticket = engine
                    .submit(ForecastRequest {
                        init,
                        forcings: Forcings::Zeros { channels: 3 },
                        steps: 8,
                        n_members: 4,
                        seed: 42 + (tenant % 2),
                        deadline: Some(Duration::from_secs(120)),
                        tenant: Some(Arc::from(format!("tenant-{tenant}").as_str())),
                        tier: None,
                    })
                    .expect("admitted");
                (tenant, ticket.wait())
            })
        })
        .collect();
    for c in clients {
        let (tenant, result) = c.join().expect("client panicked");
        match result {
            Ok(resp) => println!(
                "tenant {tenant}: request {} served in {:>6.1} ms ({} steps computed, {} from cache)",
                resp.id,
                resp.latency.as_secs_f64() * 1e3,
                resp.computed_steps,
                resp.cache_hits
            ),
            Err(e) => println!("tenant {tenant}: failed: {e}"),
        }
    }

    // Replay tenant 0's forecast: the whole rollout is already resident in
    // the content-addressed cache, so this request costs no model work and
    // returns the bitwise-identical ensemble.
    let replay = engine
        .submit(ForecastRequest {
            init: ds.state(60).clone(),
            forcings: Forcings::Zeros { channels: 3 },
            steps: 8,
            n_members: 4,
            seed: 42,
            deadline: None,
            tenant: None,
            tier: None,
        })
        .expect("admitted");
    let resp = replay.wait().expect("served");
    println!(
        "replay: request {} served in {:>6.1} ms ({} steps computed, {} from cache)",
        resp.id,
        resp.latency.as_secs_f64() * 1e3,
        resp.computed_steps,
        resp.cache_hits
    );

    // A request with an impossible latency budget is shed at admission —
    // the engine refuses to queue work whose deadline can't be met.
    match engine.submit(ForecastRequest {
        init: ds.state(80).clone(),
        forcings: Forcings::Zeros { channels: 3 },
        steps: 8,
        n_members: 4,
        seed: 99,
        deadline: Some(Duration::ZERO),
        tenant: None,
        tier: None,
    }) {
        Err(ServeError::DeadlineExceeded { req }) => {
            println!("request {req}: shed at admission (deadline exceeded), as intended")
        }
        Ok(ticket) => println!("unexpected: doomed request {} was admitted", ticket.id()),
        Err(other) => println!("unexpected admission failure: {other:?}"),
    }

    // What a scrape of the live engine reads: the status snapshot pushed into
    // the tracer's gauge registry, rendered next to the engine's counters and
    // series (only the gauge lines are printed here; the series are long).
    engine.drain();
    engine.status().export_gauges(&tracer);
    println!("\nmetrics scrape, status gauges:");
    for line in tracer.prometheus_text().lines().filter(|l| l.starts_with("aeris_status_")) {
        println!("  {line}");
    }

    // Graceful drain + ops report.
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("clients done"));
    let report = engine.shutdown();
    println!("\nops report:");
    println!(
        "  outcomes             {} completed ({} nowcasts), {} shed, {} quota-denied",
        report.completed, report.nowcasts, report.shed, report.quota_denied
    );
    println!(
        "  latency p50 / p99    {:.1} / {:.1} ms",
        report.metrics.latency_ms.percentile(50.0).unwrap_or(f64::NAN),
        report.metrics.latency_ms.percentile(99.0).unwrap_or(f64::NAN)
    );
    println!(
        "  mean batch size      {:.2}",
        report.metrics.batch_size.mean().unwrap_or(f64::NAN)
    );
    println!(
        "  cache                {} hits / {} misses ({:.0}% hit rate), {} entries, {} KiB",
        report.cache.hits,
        report.cache.misses,
        100.0 * report.cache.hit_rate(),
        report.cache.entries,
        report.cache.bytes / 1024
    );
}
