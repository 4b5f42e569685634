//! Data-assimilation experiment: what does observation guidance buy?
//!
//! The `aeris_evaluation::analysis_quality` sweep: guided vs unguided
//! ensemble-mean analysis RMSE as the station network densifies, at a fixed
//! noise level. What guidance *costs* is a `benchmark/` metric
//! (`assim.guided_step_ms`, `assim.guidance_overhead_share`), not measured
//! here.
//!
//! ```bash
//! cargo run --release -p aeris-bench --bin assim
//! ```

use aeris_assim::GuidanceSchedule;
use aeris_bench::{header, toy_model_config, toy_vars};
use aeris_core::{AerisModel, Forecaster};
use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::{Grid, NormStats};
use aeris_evaluation::{analysis_quality, AssimEvalConfig};
use aeris_tensor::{Rng, Tensor};
use std::sync::Arc;

fn forecaster() -> Forecaster {
    let cfg = toy_model_config(&toy_vars());
    let channels = cfg.channels;
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    Forecaster {
        model: AerisModel::new(cfg),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 4, churn: 0.0, second_order: true },
        ),
    }
}

fn main() {
    let full = std::env::var("AERIS_FULL").map(|v| v == "1").unwrap_or(false);
    let fc = forecaster();
    let cfg = &fc.model.cfg;
    let (tokens, channels) = (cfg.tokens(), cfg.channels);
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let mut rng = Rng::seed_from(41);
    let background = Arc::new(Tensor::randn(&[tokens, channels], &mut rng));
    let truth = background.add(&Tensor::randn(&[tokens, channels], &mut rng).scale(0.5));
    let forc = Tensor::zeros(&[tokens, 3]);

    header("Analysis RMSE vs observation density");
    let sweep = AssimEvalConfig {
        densities: vec![8, 32, tokens / 2, tokens],
        noise_levels: vec![0.3],
        channels_obs: vec![0, 1],
        schedule: GuidanceSchedule::Constant(0.05),
        n_members: if full { 4 } else { 2 },
        seed: 23,
    };
    let pts = analysis_quality(&fc, &grid, &background, &truth, &forc, &sweep);
    println!(
        "{:<16}{:>14}{:>14}{:>12}",
        "stations", "guided RMSE", "unguided RMSE", "ratio"
    );
    for p in &pts {
        println!(
            "{:<16}{:>14.4}{:>14.4}{:>12.3}",
            p.n_stations,
            p.guided_rmse,
            p.unguided_rmse,
            p.skill_ratio()
        );
    }
}
