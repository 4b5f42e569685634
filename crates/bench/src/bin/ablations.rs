//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. residual (Δx) vs full-field prediction — rollout stability,
//! 2. log-uniform vs uniform diffusion-time prior — tail coverage / val loss,
//! 3. churn on vs off — ensemble spread,
//! 4. 1st- vs 2nd-order solver — cost of one sampler solve at equal steps,
//! 5. window shift on vs off — cost of the gather permutations.

use aeris_bench::*;
use aeris_core::{prepare_samples, AerisConfig, AerisModel, Forecaster, TrainSample, Trainer, TrainerConfig, Workspace};
use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::NormStats;
use aeris_nn::LrSchedule;
use aeris_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let scale = RunScale::from_env();
    let seed = 303;
    header("Ablations");
    let ds = build_dataset(seed, standard_scenario(), 360);
    let vars = ds.vars.clone();

    // ---- 1. residual vs full-field targets ----
    header("1. residual vs full-field prediction (rollout drift)");
    // Residual model: the standard pipeline.
    let aeris = train_aeris(&ds, &scale, seed);
    // Full-field model: targets are the standardized *next state* itself; at
    // inference the sampled field replaces (not increments) the state.
    let full = train_full_field(&ds, &scale, seed);
    let (_, _, test) = ds.split_ranges();
    let i0 = test.start + 1;
    let forc = forcing_provider(seed, ds.time(i0));
    let steps = 28usize; // 7 days
    let mut rng = Rng::seed_from(1);
    let res_states = aeris.rollout(ds.state(i0), &forc, steps, &mut rng);
    let mut rng = Rng::seed_from(1);
    let full_states = full_field_rollout(&full, &ds.stats, ds.state(i0), &forc, steps, &mut rng);
    let lat_w = ds.grid.token_lat_weights();
    let t2m = vars.index_of("t2m").unwrap();
    println!("{:>6}{:>16}{:>16}", "day", "residual RMSE", "full-field RMSE");
    for day in [1usize, 3, 5, 7] {
        let k = day * 4 - 1;
        let truth = ds.state(i0 + k + 1);
        let r1 = aeris_evaluation::rmse(&res_states[k], truth, &lat_w, t2m);
        let r2 = aeris_evaluation::rmse(&full_states[k], truth, &lat_w, t2m);
        println!("{day:>6}{r1:>16.2}{r2:>16.2}");
    }
    println!("Expected: full-field prediction loses the autoregressive anchor and");
    println!("drifts/blurs faster — the reason the paper predicts residuals.");

    // ---- 2. noise prior ----
    header("2. log-uniform vs uniform diffusion-time prior (val diffusion loss)");
    for (label, uniform) in [("log-uniform (paper)", false), ("uniform t", true)] {
        let f = train_with_prior(&ds, &scale, seed ^ 0xF00, uniform);
        let loss = val_diffusion_loss(&ds, &f);
        println!("  {label:<22} val loss {loss:.4}");
    }
    println!("Expected: the log-uniform prior covers the heavy-tailed noise range");
    println!("the solver actually visits, giving a lower matched-schedule loss.");

    // ---- 3. churn on/off ----
    header("3. churn on vs off (ensemble spread at day 3)");
    for churn in [0.1f32, 0.0] {
        let mut f = train_aeris(&ds, &scale, seed ^ 0xC0);
        f.sampler.cfg.churn = churn;
        let ens = f.ensemble(ds.state(i0), &forc, 12, scale.members, 5);
        let members: Vec<&Tensor> = ens.at_step(11).expect("step within forecast horizon");
        let spread = aeris_evaluation::spread(&members, &lat_w, t2m);
        println!("  churn {churn:>4.1}: T2m ensemble spread {spread:.3} K");
    }
    println!("Expected: churn adds calibrated stochasticity → larger spread.");

    // ---- 4. solver order ----
    header("4. 1st- vs 2nd-order solver (one 10-step solve, tiny model)");
    let (m, mut ws) = (AerisModel::new(AerisConfig::test_tiny()), Workspace::default());
    let mut rng = Rng::seed_from(3);
    let prev = Tensor::randn(&[128, 4], &mut rng);
    let forc = Tensor::randn(&[128, 3], &mut rng);
    for (label, second_order) in [("first order", false), ("second order", true)] {
        let sampler = TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 10, churn: 0.1, second_order },
        );
        let ms = best_ms(|| {
            let mut vel = |x: &Tensor, t: f32| m.velocity_into(&mut ws, x, &prev, &forc, t);
            black_box(sampler.sample(&[128, 4], &mut vel, &mut Rng::seed_from(4)));
        });
        println!("  {label:<14} {ms:>8.2} ms/solve");
    }
    println!("Expected: 2S costs up to 2 network evals per step (up to 2× the time) but needs");
    println!("half the steps for the same accuracy (see the sampler unit tests).");

    // ---- 5. window shift ----
    header("5. window shift cost (one velocity evaluation, tiny model)");
    // Blocks alternate unshifted / shifted, so the 2-block model adds exactly
    // one shifted block to the 1-block model.
    let ms = [1usize, 2].map(|n_blocks| {
        let cfg =
            AerisConfig { n_layers: n_blocks, blocks_per_layer: 1, ..AerisConfig::test_tiny() };
        let m = AerisModel::new(cfg);
        let mut rng = Rng::seed_from(5);
        let x_t = Tensor::randn(&[128, 4], &mut rng);
        let prev = Tensor::randn(&[128, 4], &mut rng);
        let forc = Tensor::randn(&[128, 3], &mut rng);
        let mut ws = Workspace::default();
        best_ms(|| drop(black_box(m.velocity_into(&mut ws, black_box(&x_t), &prev, &forc, 0.5))))
    });
    println!("  1 block  (unshifted)           {:>8.3} ms", ms[0]);
    println!("  2 blocks (unshifted + shifted) {:>8.3} ms", ms[1]);
    println!("  the shifted block adds         {:>8.3} ms", ms[1] - ms[0]);
    println!("Expected: the shift is a gather permutation only, so the shifted block");
    println!("adds no more than the unshifted block (plus embed/decode) costs — the");
    println!("argument for shifted windows over global attention.");
}

/// Best-of-20 milliseconds per call of `f`, after one warmup call.
fn best_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Train a model whose diffusion target is the standardized next state.
fn train_full_field(ds: &aeris_earthsim::Dataset, scale: &RunScale, seed: u64) -> Forecaster {
    let cfg = AerisConfig { seed: seed ^ 0xFF, ..toy_model_config(&ds.vars) };
    let mut model = AerisModel::new(cfg);
    let tcfg = trainer_cfg(scale);
    let mut trainer = Trainer::new(&model, ds.grid, &ds.vars.kappa(), tcfg);
    let samples: Vec<TrainSample> = ds
        .split_ranges()
        .0
        .map(|i| {
            let pair = ds.pair(i);
            TrainSample {
                x_prev: ds.stats.standardize(&pair.prev),
                // Full-field target (standardized next state).
                residual: ds.stats.standardize(&pair.next),
                forcings: pair.forcings,
            }
        })
        .collect();
    trainer.fit(&mut model, &samples, scale.train_images);
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

/// Rollout for the full-field model: the sample *is* the next standardized
/// state.
fn full_field_rollout(
    f: &Forecaster,
    stats: &NormStats,
    x0: &Tensor,
    forc: &dyn Fn(usize) -> Tensor,
    steps: usize,
    rng: &mut Rng,
) -> Vec<Tensor> {
    let mut states = Vec::with_capacity(steps);
    let mut x = x0.clone();
    for k in 0..steps {
        let prev_std = stats.standardize(&x);
        let shape = prev_std.shape().to_vec();
        let fo = forc(k);
        let mut velocity = |x_t: &Tensor, t: f32| f.model.velocity(x_t, &prev_std, &fo, t);
        let next_std = f.sampler.sample(&shape, &mut velocity, rng);
        x = stats.unstandardize(&next_std);
        states.push(x.clone());
    }
    states
}

fn trainer_cfg(scale: &RunScale) -> TrainerConfig {
    TrainerConfig {
        schedule: LrSchedule {
            peak: 2e-3,
            warmup: scale.train_images / 10,
            decay: scale.train_images / 5,
            total: scale.train_images,
        },
        batch: 2,
        ema_halflife: scale.train_images as f64 / 8.0,
        ..TrainerConfig::paper_scaled(scale.train_images, 2)
    }
}

/// Train with either the paper's log-uniform prior or a uniform-t prior.
fn train_with_prior(
    ds: &aeris_earthsim::Dataset,
    scale: &RunScale,
    seed: u64,
    uniform: bool,
) -> Forecaster {
    let cfg = AerisConfig { seed, ..toy_model_config(&ds.vars) };
    let mut model = AerisModel::new(cfg);
    let mut trainer = Trainer::new(&model, ds.grid, &ds.vars.kappa(), trainer_cfg(scale));
    if uniform {
        // A degenerate prior: σ_min ≈ σ_max in log space would collapse the
        // range; instead emulate "uniform in t" by widening to a prior whose
        // pushforward is ~uniform: sample t directly. TrigFlow sample_t is
        // driven by (σ_min, σ_max); setting them to tan of the endpoints and
        // using a linear map gives uniform t.
        trainer.tf = TrigFlow { sigma_d: 1.0, sigma_min: (0.05f32).tan(), sigma_max: (1.52f32).tan() };
        // NOTE: log-uniform in σ over this range is close to uniform in t at
        // mid-range but undersamples the extremes vs the paper's prior.
    }
    let samples = prepare_samples(ds, ds.split_ranges().0);
    trainer.fit(&mut model, &samples, scale.train_images);
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

/// Validation diffusion loss at fixed (t, z), using the paper's schedule.
fn val_diffusion_loss(ds: &aeris_earthsim::Dataset, f: &Forecaster) -> f64 {
    let tf = TrigFlow::default();
    let sampler = TrigFlowSampler::new(tf, SamplerConfig { n_steps: 6, churn: 0.0, second_order: true });
    let ts = sampler.schedule();
    let mut rng = Rng::seed_from(4242);
    let (_, val, _) = ds.split_ranges();
    let mut total = 0.0f64;
    let mut n = 0usize;
    for i in val.clone().take(4) {
        let pair = ds.pair(i);
        let prev = ds.stats.standardize(&pair.prev);
        let x0 = ds.res_stats.standardize(&pair.next.sub(&pair.prev));
        for &t in ts.iter().take(ts.len() - 1) {
            let z = Tensor::randn(x0.shape(), &mut rng);
            let x_t = tf.interpolate(&x0, &z, t);
            let target = tf.velocity_target(&x0, &z, t);
            let v = f.model.velocity(&x_t, &prev, &pair.forcings, t);
            let d = v.sub(&target);
            total += d.dot(&d) / d.len() as f64;
            n += 1;
        }
    }
    total / n as f64
}
