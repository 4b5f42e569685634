//! Shared harness for the experiment binaries that regenerate the paper's
//! tables and figures (see DESIGN.md for the experiment index).
//!
//! Every binary honors `AERIS_FULL=1` for a longer, higher-fidelity run;
//! the default "quick" settings finish in minutes on a laptop while
//! preserving the qualitative shapes (who wins, where crossovers fall).
//!
//! These binaries report science (skill, scaling shapes, modeled
//! throughput), not wall-clock timings: every measured latency or
//! throughput lives in `benchmark/` under the names `BENCHMARK.json` lists.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

use aeris_core::{
    prepare_samples, AerisConfig, AerisModel, Forecaster, Trainer, TrainerConfig,
};
use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::{Dataset, Scenario, ToyParams, VariableSet};
use aeris_nn::LrSchedule;

/// Scale knobs for an experiment run.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// Training images for learned models.
    pub train_images: u64,
    /// Ensemble members.
    pub members: usize,
    /// Initial conditions for skill curves.
    pub initial_conditions: usize,
    /// Sampler solver steps.
    pub sampler_steps: usize,
}

impl RunScale {
    /// Read from the environment: quick by default, `AERIS_FULL=1` for the
    /// full-fidelity run.
    pub fn from_env() -> Self {
        if std::env::var("AERIS_FULL").map(|v| v == "1").unwrap_or(false) {
            RunScale { train_images: 6000, members: 16, initial_conditions: 6, sampler_steps: 10 }
        } else {
            RunScale { train_images: 1600, members: 5, initial_conditions: 2, sampler_steps: 6 }
        }
    }
}

/// The standard toy experiment setup: 16×32 grid, Z/T/U/V/Q on
/// {850, 700, 500} hPa (20 channels), 4-block pixel-level Swin.
pub fn toy_vars() -> VariableSet {
    VariableSet::with_levels(&[850, 700, 500])
}

/// Simulator parameters for the experiment grid.
pub fn toy_sim_params(seed: u64, scenario: Scenario) -> ToyParams {
    ToyParams { nlat: 16, nlon: 32, seed, scenario, ..Default::default() }
}

/// Model config matched to the toy grid.
pub fn toy_model_config(vars: &VariableSet) -> AerisConfig {
    AerisConfig {
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
    }
}

/// Generate the standard train/val/test dataset (chronological splits,
/// §VI-B protocol in miniature).
pub fn build_dataset(seed: u64, scenario: Scenario, n_steps: usize) -> Dataset {
    Dataset::generate(toy_sim_params(seed, scenario), &toy_vars(), n_steps, 60, 0.8, 0.1)
}

/// Train an AERIS forecaster on the dataset's training split and return the
/// EMA inference model.
pub fn train_aeris(ds: &Dataset, scale: &RunScale, seed: u64) -> Forecaster {
    let vars = &ds.vars;
    let cfg = AerisConfig { seed, ..toy_model_config(vars) };
    let mut model = AerisModel::new(cfg);
    let tcfg = TrainerConfig {
        schedule: LrSchedule {
            peak: 2e-3,
            warmup: scale.train_images / 10,
            decay: scale.train_images / 5,
            total: scale.train_images,
        },
        batch: 2,
        ema_halflife: scale.train_images as f64 / 8.0,
        ..TrainerConfig::paper_scaled(scale.train_images, 2)
    };
    let mut trainer = Trainer::new(&model, ds.grid, &vars.kappa(), tcfg);
    let samples = prepare_samples(ds, ds.split_ranges().0);
    trainer.fit(&mut model, &samples, scale.train_images);
    let ema = trainer.ema_model(&model);
    Forecaster {
        model: ema,
        stats: ds.stats.clone(),
        res_stats: ds.res_stats.clone(),
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: scale.sampler_steps, churn: 0.1, second_order: true },
        ),
    }
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

use aeris_earthsim::{CycloneSeed, HeatwaveSeed, ToyAtmosphere};

/// The standard experiment scenario: events in the training window (so the
/// learned models see examples) and a held-out cyclone + heatwave in the test
/// window, under a decaying warm ENSO (the 2020-like setting of the paper's
/// case studies).
pub fn standard_scenario() -> Scenario {
    // Storm genesis points sit in open tropical ocean for this seed's
    // procedural continents (central Pacific; the 300E Atlantic analog is
    // land at 16x32 for seed 2020).
    Scenario {
        cyclones: vec![
            CycloneSeed { lat: 16.0, lon: 190.0, ..CycloneSeed::laura_like(10.0 * 24.0) },
            CycloneSeed { lat: 16.0, lon: 190.0, ..CycloneSeed::laura_like(40.0 * 24.0) },
            CycloneSeed { lat: -14.0, lon: 80.0, ..CycloneSeed::laura_like(60.0 * 24.0) },
            // Held-out test cyclone.
            CycloneSeed { lat: 16.0, lon: 190.0, ..CycloneSeed::laura_like(95.0 * 24.0) },
        ],
        heatwaves: vec![
            HeatwaveSeed::europe_like(25.0 * 24.0),
            HeatwaveSeed::europe_like(70.0 * 24.0),
            // Held-out test heatwave.
            HeatwaveSeed::europe_like(100.0 * 24.0),
        ],
        enso_init: Some((0.9, 1.1)),
    }
}

/// Recreate the truth simulator at dataset step `i` (dataset generation spins
/// up 60 steps and then records; this replays the identical trajectory).
pub fn sim_at(seed: u64, scenario: Scenario, step: usize) -> ToyAtmosphere {
    let mut sim = ToyAtmosphere::new(toy_sim_params(seed, scenario));
    sim.spinup(60);
    for _ in 0..step {
        sim.step();
    }
    sim
}

/// Forcing provider closure for rollouts starting at dataset step `i0`.
pub fn forcing_provider(
    seed: u64,
    i0_hours: f64,
) -> impl Fn(usize) -> aeris_tensor::Tensor + Sync {
    let grid = aeris_earthsim::Grid::new(16, 32);
    let clim = aeris_earthsim::Climate::new(grid, seed ^ 0xEA57);
    move |k: usize| {
        aeris_earthsim::forcings_at(&clim, (i0_hours + k as f64 * 6.0) / 24.0)
    }
}

/// The Climate matching `toy_sim_params(seed, ..)`.
pub fn toy_climate(seed: u64) -> aeris_earthsim::Climate {
    aeris_earthsim::Climate::new(aeris_earthsim::Grid::new(16, 32), seed ^ 0xEA57)
}

/// Train the deterministic (GraphCast-class) baseline.
pub fn train_deterministic(
    ds: &Dataset,
    scale: &RunScale,
    seed: u64,
) -> aeris_baselines::DeterministicForecaster {
    let cfg = AerisConfig { seed: seed ^ 0xD, ..toy_model_config(&ds.vars) };
    let mut f = aeris_baselines::DeterministicForecaster::new(
        AerisModel::new(cfg),
        ds.stats.clone(),
        ds.res_stats.clone(),
    );
    let samples = prepare_samples(ds, ds.split_ranges().0);
    let weights =
        aeris_diffusion::loss_weights(&ds.grid.token_lat_weights(), &ds.vars.kappa());
    let epochs = (scale.train_images as usize / samples.len()).max(1);
    f.fit(&samples, &weights, 2, epochs, 2e-3, seed);
    f
}

/// Train the GenCast-analog (EDM) baseline.
pub fn train_gencast(ds: &Dataset, scale: &RunScale, seed: u64) -> aeris_baselines::GenCastAnalog {
    let cfg = AerisConfig { seed: seed ^ 0xE, ..toy_model_config(&ds.vars) };
    let mut g = aeris_baselines::GenCastAnalog::new(
        AerisModel::new(cfg),
        ds.stats.clone(),
        ds.res_stats.clone(),
    );
    g.n_sample_steps = scale.sampler_steps;
    let samples = prepare_samples(ds, ds.split_ranges().0);
    let weights =
        aeris_diffusion::loss_weights(&ds.grid.token_lat_weights(), &ds.vars.kappa());
    let epochs = (scale.train_images as usize / samples.len()).max(1);
    g.fit(&samples, &weights, 2, epochs, 2e-3, seed);
    g
}
