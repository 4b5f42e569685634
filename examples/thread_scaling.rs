//! Does a wider pool pay? p50 wall time of one train step, one network
//! evaluation and one small ensemble on the `toy48` model, at pool width 1
//! and 2 interleaved in one process — the table DESIGN.md "Where threads
//! live" quotes. Kernels are single-threaded, so the first two rows are flat
//! by construction; the third is the scaling of the member fan-out.
//!
//! ```bash
//! cargo run --release --example thread_scaling [rounds]
//! ```

use aeris::core::{AerisConfig, AerisModel, Forecaster, TrainSample, Trainer, TrainerConfig, Workspace};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::{Grid, NormStats};
use aeris::tensor::{Rng, Tensor};
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn p50_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[reps / 2]
}

fn main() {
    let rounds: usize = std::env::args().nth(1).map_or(4, |a| a.parse().expect("rounds: a count"));
    // `toy48`: the model of every `benchmark/` workload.
    let cfg = AerisConfig {
        grid_h: 16,
        grid_w: 32,
        channels: 20,
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
    let (tokens, channels, forcing_channels) = (cfg.tokens(), cfg.channels, cfg.forcing_channels);
    let mut model = AerisModel::new(cfg);
    let mut rng = Rng::seed_from(2025);
    let mut state = || Tensor::randn(&[tokens, channels], &mut rng);
    let (x_t, x_prev) = (state(), state());
    let (forc, mut ws) = (Tensor::zeros(&[tokens, forcing_channels]), Workspace::default());
    let samples: Vec<TrainSample> =
        (0..2).map(|_| TrainSample { x_prev: state(), residual: state().scale(0.3), forcings: forc.clone() }).collect();
    let batch: Vec<&TrainSample> = samples.iter().collect();
    let kappa = vec![1.0; channels];
    let mut trainer = Trainer::new(&model, Grid::new(16, 32), &kappa, TrainerConfig::paper_scaled(4096, 2));
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    let sampler = SamplerConfig { n_steps: 6, churn: 0.1, second_order: true };
    let forecaster = Forecaster {
        model: AerisModel::new(model.cfg.clone()),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(TrigFlow::default(), sampler),
    };

    println!(
        "cores {}, GEMM kernel {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        aeris::tensor::dispatch::Kernel::detected().name()
    );
    println!("round  pool  train_step(batch 2) ms  velocity ms  ensemble(4 x 1) ms");
    for round in 0..rounds {
        for pool in [1, 2] {
            rayon::set_thread_override(Some(pool));
            let train = p50_ms(7, || trainer.train_step(&mut model, &batch));
            let velocity = p50_ms(21, || model.velocity_into(&mut ws, &x_t, &x_prev, &forc, 0.8));
            let ensemble = p50_ms(3, || forecaster.ensemble(&x_prev, &|_| forc.clone(), 1, 4, 11));
            println!("{round:>5}  {pool:>4}  {train:>22.1}  {velocity:>11.1}  {ensemble:>18.1}");
        }
    }
}
