//! Data assimilation: what does observation guidance buy?
//!
//! The `aeris_evaluation::analysis_quality` sweep: guided vs unguided
//! ensemble-mean analysis RMSE as the station network densifies, at a fixed
//! noise level, on the untrained toy model. What guidance *costs* is a
//! `benchmark/` metric (`assim.guided_step_ms`,
//! `assim.guidance_overhead_share`), not measured here.

use crate::{cells, toy_model_config, toy_vars, Report, RunScale, Table};
use aeris_assim::GuidanceSchedule;
use aeris_core::{AerisModel, Forecaster};
use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::{Grid, NormStats};
use aeris_evaluation::{analysis_quality, AssimEvalConfig};
use aeris_tensor::{Rng, Tensor};
use std::sync::Arc;

pub fn run(scale: &RunScale) -> Report {
    let cfg = toy_model_config(&toy_vars());
    let (tokens, channels) = (cfg.tokens(), cfg.channels);
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    let fc = Forecaster {
        model: AerisModel::new(cfg),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 4, churn: 0.0, second_order: true },
        ),
    };
    let mut rng = Rng::seed_from(41);
    let background = Arc::new(Tensor::randn(&[tokens, channels], &mut rng));
    let truth = background.add(&Tensor::randn(&[tokens, channels], &mut rng).scale(0.5));
    let forc = Tensor::zeros(&[tokens, 3]);

    let sweep = AssimEvalConfig {
        densities: vec![8, 32, tokens / 2, tokens],
        noise_levels: vec![0.3],
        channels_obs: vec![0, 1],
        schedule: GuidanceSchedule::Constant(0.05),
        n_members: scale.assim_members,
        seed: 23,
    };
    let mut r = Report::new("Analysis RMSE vs observation density");
    let mut t = Table::new(&[
        ("stations", 16, 0), ("guided RMSE", 14, 4), ("unguided RMSE", 14, 4), ("ratio", 12, 3),
    ]);
    for p in analysis_quality(&fc, &grid, &background, &truth, &forc, &sweep) {
        t.row(cells![p.n_stations, p.guided_rmse, p.unguided_rmse, p.skill_ratio()]);
    }
    r.table(t);
    r
}
