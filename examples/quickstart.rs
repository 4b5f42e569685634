//! Quickstart: generate a toy-ERA5 dataset, train a small AERIS diffusion
//! model, and make an ensemble forecast.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use aeris::core::{prepare_samples, AerisConfig, AerisModel, Forecaster, Trainer, TrainerConfig};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::{forcings_at, Climate, Dataset, Grid, Scenario, ToyParams, VariableSet};
use aeris::evaluation::{crps, ensemble_mean, rmse};
use aeris::nn::LrSchedule;

fn main() {
    // Which GEMM build ran: a speed choice only, every kernel computes the
    // same bits, so digests and checkpoints compare across hosts.
    println!("GEMM kernel: {}", aeris::tensor::dispatch::Kernel::detected().name());
    // 1. A toy global atmosphere stands in for ERA5 (see DESIGN.md): generate
    //    a 6-hourly trajectory with train/val/test splits.
    let vars = VariableSet::with_levels(&[850, 500]);
    let params = ToyParams { nlat: 16, nlon: 32, seed: 42, scenario: Scenario::quiet(), ..Default::default() };
    println!("generating dataset…");
    let ds = Dataset::generate(params, &vars, 240, 60, 0.8, 0.1);
    println!("  {} samples, {} channels, grid {}x{}", ds.len_pairs(), vars.len(), 16, 32);

    // 2. A pixel-level Swin diffusion transformer (the AERIS architecture at
    //    laptop scale).
    let cfg = AerisConfig {
        grid_h: 16,
        grid_w: 32,
        channels: vars.len(),
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
    };
    let mut model = AerisModel::new(cfg);
    println!("model: {} parameters", model.param_count());

    // 3. Train under TrigFlow with the physically weighted loss; keep an EMA.
    let images = 600u64;
    let tcfg = TrainerConfig {
        schedule: LrSchedule { peak: 2e-3, warmup: 60, decay: 120, total: images },
        batch: 2,
        ema_halflife: 80.0,
        ..TrainerConfig::paper_scaled(images, 2)
    };
    let mut trainer = Trainer::new(&model, ds.grid, &vars.kappa(), tcfg);
    let samples = prepare_samples(&ds, ds.split_ranges().0);
    println!("training for {images} images…");
    let losses = trainer.fit(&mut model, &samples, images);
    println!("  loss: {:.4} -> {:.4}", losses[0], losses.last().unwrap());

    // 4. Forecast: 3-day (12-step) ensemble from a held-out initial condition.
    let forecaster = Forecaster {
        model: trainer.ema_model(&model),
        stats: ds.stats.clone(),
        res_stats: ds.res_stats.clone(),
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 6, churn: 0.1, second_order: true },
        ),
    };
    let (_, _, test) = ds.split_ranges();
    let i0 = test.start;
    let clim = Climate::new(Grid::new(16, 32), 42 ^ 0xEA57);
    let t0 = ds.time(i0);
    let forc = move |k: usize| forcings_at(&clim, (t0 + 6.0 * k as f64) / 24.0);
    println!("forecasting: 8-member, 3-day ensemble…");
    let ens = forecaster.ensemble(ds.state(i0), &forc, 12, 8, 7);

    // 5. Score against the held-out truth.
    let lat_w = ds.grid.token_lat_weights();
    let t2m = vars.index_of("t2m").unwrap();
    for day in 1..=3usize {
        let k = day * 4 - 1;
        let truth = ds.state(i0 + k + 1);
        let members = ens.at_step(k).expect("step within forecast horizon");
        let r = rmse(&ensemble_mean(&members), truth, &lat_w, t2m);
        let c = crps(&members, truth, &lat_w, t2m);
        println!("  day {day}: T2m ensemble-mean RMSE {r:.2} K, CRPS {c:.2} K");
    }
    // 6. Observability: replay one forecast through the traced serving
    //    engine and dump the span timeline as Chrome-trace JSON — load
    //    trace.json in Perfetto or chrome://tracing to see admission, cache
    //    lookups, batch assembly, and the batched model steps.
    use aeris::obs::Tracer;
    use aeris::serve::{ForecastRequest, Forcings, ServeConfig, ServeEngine};
    let tracer = Tracer::enabled();
    let engine = ServeEngine::start_traced(
        std::sync::Arc::new(forecaster),
        ServeConfig::default(),
        tracer.clone(),
    );
    let ticket = engine
        .submit(ForecastRequest {
            init: ds.state(i0).clone(),
            forcings: Forcings::Table(std::sync::Arc::new((0..12).map(&forc).collect())),
            steps: 12,
            n_members: 2,
            seed: 7,
            deadline: None,
            tenant: None,
            tier: None,
        })
        .expect("admitted");
    ticket.wait().expect("served");
    engine.shutdown();
    std::fs::write("trace.json", tracer.chrome_trace()).expect("write trace.json");
    println!("wrote trace.json ({} spans) — open it in Perfetto or chrome://tracing", tracer.span_count());
    println!("done — see examples/ensemble_weather.rs and examples/swipe_scaling.rs for more.");
}
