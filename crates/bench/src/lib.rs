//! The paper's tables and figures as functions: `figs::<name>::run(&RunScale)`
//! returns a typed [`Report`], and each binary in `src/bin` prints one (see
//! DESIGN.md for the experiment index, EXPERIMENTS.md for the results).
//!
//! `AERIS_FULL=1` selects the longer, higher-fidelity [`RunScale`]; the
//! default "quick" scale finishes in minutes on a laptop while preserving
//! the qualitative shapes (who wins, where crossovers fall).
//!
//! Reports hold science (skill, scaling shapes, modeled throughput, exact
//! counts), not wall-clock timings: every measured latency or throughput
//! lives in `benchmark/` under the names `BENCHMARK.json` lists.

#![forbid(unsafe_code)]

// Numerical kernels here frequently walk several arrays with one shared
// index; explicit indexed loops are clearer than zipped iterator chains in
// that style, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod figs;
mod report;

pub use report::{Cell, Item, Report, Table};

use aeris_baselines::{DeterministicForecaster, GenCastAnalog};
use aeris_core::{prepare_samples, AerisConfig, AerisModel, Forecaster, TrainSample, Trainer, TrainerConfig};
use aeris_diffusion::{loss_weights, SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::{
    forcings_at, Climate, CycloneSeed, Dataset, Grid, HeatwaveSeed, Scenario, ToyAtmosphere, ToyParams,
    VariableSet,
};
use aeris_nn::LrSchedule;
use aeris_tensor::Tensor;

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
    /// Fig 7's rollout horizon in days.
    pub seasonal_days: usize,
    /// Nowcast members of the assimilation sweep.
    pub assim_members: usize,
}

impl RunScale {
    /// Read from the environment: quick by default, `AERIS_FULL=1` for the
    /// full-fidelity run. The one place `AERIS_FULL` is read.
    pub fn from_env() -> Self {
        if std::env::var("AERIS_FULL").is_ok_and(|v| v == "1") {
            RunScale {
                train_images: 6000,
                members: 16,
                initial_conditions: 6,
                sampler_steps: 10,
                seasonal_days: 90,
                assim_members: 4,
            }
        } else {
            RunScale {
                train_images: 1600,
                members: 5,
                initial_conditions: 2,
                sampler_steps: 6,
                seasonal_days: 30,
                assim_members: 2,
            }
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

/// The toy model for `ds` with parameters drawn from `seed`.
fn toy_model(ds: &Dataset, seed: u64) -> AerisModel {
    AerisModel::new(AerisConfig { seed, ..toy_model_config(&ds.vars) })
}

/// Generate the standard train/val/test dataset (chronological splits,
/// §VI-B protocol in miniature).
pub fn build_dataset(seed: u64, scenario: Scenario, n_steps: usize) -> Dataset {
    Dataset::generate(toy_sim_params(seed, scenario), &toy_vars(), n_steps, 60, 0.8, 0.1)
}

/// Train an AERIS forecaster on the dataset's training split and return the
/// EMA inference model.
pub fn train_aeris(ds: &Dataset, scale: &RunScale, seed: u64) -> Forecaster {
    fit_aeris(ds, scale, seed, &prepare_samples(ds, ds.split_ranges().0), TrigFlow::default())
}

/// The one AERIS training run: a toy model drawn from `seed`, trained on
/// `samples` for `scale.train_images` images with diffusion times drawn
/// from `prior`, returned as the EMA model behind the paper's sampler.
pub fn fit_aeris(
    ds: &Dataset,
    scale: &RunScale,
    seed: u64,
    samples: &[TrainSample],
    prior: TrigFlow,
) -> Forecaster {
    let mut model = toy_model(ds, seed);
    let n = scale.train_images;
    let tcfg = TrainerConfig {
        schedule: LrSchedule { peak: 2e-3, warmup: n / 10, decay: n / 5, total: n },
        batch: 2,
        ema_halflife: n as f64 / 8.0,
        ..TrainerConfig::paper_scaled(n, 2)
    };
    let mut trainer = Trainer::new(&model, ds.grid, &ds.vars.kappa(), tcfg);
    trainer.tf = prior;
    trainer.fit(&mut model, samples, n);
    Forecaster {
        model: trainer.ema_model(&model),
        stats: ds.stats.clone(),
        res_stats: ds.res_stats.clone(),
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: scale.sampler_steps, churn: 0.1, second_order: true },
        ),
    }
}

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

/// Forcing provider closure for rollouts starting `i0_hours` into the
/// dataset.
pub fn forcing_provider(seed: u64, i0_hours: f64) -> impl Fn(usize) -> Tensor + Sync {
    let clim = toy_climate(seed);
    move |k: usize| forcings_at(&clim, (i0_hours + k as f64 * 6.0) / 24.0)
}

/// The Climate matching `toy_sim_params(seed, ..)`.
pub fn toy_climate(seed: u64) -> Climate {
    Climate::new(Grid::new(16, 32), seed ^ 0xEA57)
}

/// `[min, mean, max]` of an ensemble's values, in f32.
fn envelope(vals: impl Iterator<Item = f32>) -> [f32; 3] {
    let vals: Vec<f32> = vals.collect();
    let mean = vals.iter().sum::<f32>() / vals.len() as f32;
    let min = vals.iter().copied().fold(f32::INFINITY, f32::min);
    let max = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    [min, mean, max]
}

/// Train the deterministic (GraphCast-class) baseline.
pub fn train_deterministic(ds: &Dataset, scale: &RunScale, seed: u64) -> DeterministicForecaster {
    let mut f = DeterministicForecaster::new(toy_model(ds, seed ^ 0xD), ds.stats.clone(), ds.res_stats.clone());
    fit_baseline(ds, scale, |samples, weights, epochs| f.fit(samples, weights, 2, epochs, 2e-3, seed));
    f
}

/// Train the GenCast-analog (EDM) baseline.
pub fn train_gencast(ds: &Dataset, scale: &RunScale, seed: u64) -> GenCastAnalog {
    let mut g = GenCastAnalog::new(toy_model(ds, seed ^ 0xE), ds.stats.clone(), ds.res_stats.clone());
    g.n_sample_steps = scale.sampler_steps;
    fit_baseline(ds, scale, |samples, weights, epochs| g.fit(samples, weights, 2, epochs, 2e-3, seed));
    g
}

/// The learned baselines' one fit path: `fit(samples, weights, epochs)` over
/// the training split for `scale.train_images` images in whole epochs, at
/// least one. A budget below one epoch fits on its first `train_images`
/// samples instead.
fn fit_baseline(ds: &Dataset, scale: &RunScale, fit: impl FnOnce(&[TrainSample], &Tensor, usize) -> Vec<f64>) {
    let mut samples = prepare_samples(ds, ds.split_ranges().0);
    samples.truncate(scale.train_images as usize);
    let weights = loss_weights(&ds.grid.token_lat_weights(), &ds.vars.kappa());
    fit(&samples, &weights, scale.train_images as usize / samples.len());
}

#[cfg(test)]
mod smoke_digests {
    //! Every report at [`RunScale::smoke`], pinned by one FNV-1a digest of
    //! its labels and `f64` bits (notes excluded). Every host and both
    //! profiles compute the same bits, so the digests are portable; a change
    //! to a figure's arithmetic, its seeds or its scale moves its digest.

    use super::*;
    use aeris_tensor::{fnv_u64, FNV_INIT};

    impl RunScale {
        /// The pinned-digest scale: a handful of images, two members,
        /// short horizons.
        fn smoke() -> Self {
            RunScale {
                train_images: 16,
                members: 2,
                initial_conditions: 1,
                sampler_steps: 2,
                seasonal_days: 10,
                assim_members: 2,
            }
        }
    }

    fn digest(report: &Report) -> u64 {
        let mut h = FNV_INIT;
        let text = |h: &mut u64, s: &str| s.bytes().for_each(|b| fnv_u64(h, b as u64));
        text(&mut h, &report.title);
        for item in &report.items {
            match item {
                Item::Section(title) => text(&mut h, title),
                Item::Table(t) => {
                    t.columns.iter().for_each(|(name, ..)| text(&mut h, name));
                    for cell in t.rows.iter().flatten() {
                        match cell {
                            Cell::Text(s) => text(&mut h, s),
                            Cell::Num(v) => fnv_u64(&mut h, v.to_bits()),
                        }
                    }
                }
                Item::Value { label, value, .. } => {
                    text(&mut h, label);
                    fnv_u64(&mut h, value.to_bits());
                }
                Item::Note(_) => {}
            }
        }
        h
    }

    fn pinned(run: fn(&RunScale) -> Report, want: u64) {
        let report = run(&RunScale::smoke());
        let got = digest(&report);
        assert_eq!(got, want, "digest {got:#018x} of\n{report}");
    }

    macro_rules! pin {
        ($($name:ident: $digest:expr,)*) => {$(
            #[test]
            fn $name() {
                pinned(figs::$name::run, $digest);
            }
        )*};
    }

    pin! {
        table1_systems: 0xc807_3a8a_ed5d_19dc,
        table2_configs: 0x78d3_5750_2945_3fe8,
        table3_throughput: 0x7c32_af55_f899_7004,
        fig2_swipe_comm: 0xc6af_65a0_3761_a222,
        fig4_strong_scaling: 0x29b9_2d89_656d_8770,
        fig4_weak_scaling: 0x8040_2ff2_72fe_f8f9,
        fig5_medium_range: 0x0099_c3cc_f7c2_c796,
        fig5_heatwave: 0xb907_356d_371d_7503,
        fig6_hurricane: 0x8b7d_2539_f5ff_0751,
        fig7_seasonal: 0x7b5f_d171_6de4_de29,
        ablations: 0x3af8_52e7_2557_a5ee,
        assim: 0x113a_a8ad_fe1f_9749,
    }
}
