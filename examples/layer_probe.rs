//! One toy48 layer at a time, each timed alone on the calling thread: the
//! minimum and the median of one call over N calls.
//!
//! - **GEMMs.** Every GEMM shape of one `toy48` training step — the six
//!   token projections (QKV, attention out, SwiGLU up / down, embed,
//!   decode) over one sample's 512 tokens and the one-row time conditioner
//!   `[32, 48]` and AdaLN head `[48, 288]` — in its three layouts (NN
//!   `X·W`, NT `dY·Wᵀ`, TN `Xᵀ·dY`) through `gemm_on` on every build the CPU
//!   supports (the portable one over N / 100 calls: its `mul_add` is a libm
//!   `fmaf` call on x86-64), with GFLOP/s and the summed minimum per layout
//!   and build, the table DESIGN.md "Tensor backend" quotes.
//! - **Attention core.** `window_core_into` and `window_core_backward_into`
//!   at toy48's geometry (32 windows × 16 tokens, 4 heads × 12), one scratch kept.
//! - **Sweeps.** Every `dispatched!` loop of `aeris_tensor::sweeps` over one
//!   sample's rows at their toy48 width (the gathers and scatters through
//!   the window partition), on every build; `exp`'s row copies its input in.
//! - **Gaussian draws.** One sample's `[512, 20]` state by `Rng::normal`,
//!   one libm draw at a time, then by `Rng::fill_normal` on every build.
//! - **Model.** In one warm `Workspace`: `AerisModel::velocity_into`,
//!   `AerisModel::loss_grads` and the recording chain it equals (tape
//!   forward, `weighted_mse`, backward; each N / 4 calls), the step's closing
//!   `forecast::add_residual`, one `TrigFlow::churn`, a quality-tier forecast
//!   step (12 velocity evaluations, 5 churns; N / 20 calls), and the
//!   sampler's own time: the step's minimum minus 12 × `velocity`'s.
//!
//! A row's level carries a ±25 % term from the binary's code layout: one
//! change to an unrelated fn can move a row it does not touch by that much.
//! So compare a changed row with an unchanged row of the same binary, not
//! with the same row of another binary alone.
//!
//! ```bash
//! cargo run --release --example layer_probe [calls]   # N, default 1500
//! ```

use aeris::autodiff::Tape;
use aeris::core::forecast::add_residual;
use aeris::core::{AerisConfig, AerisModel, Forecaster, Workspace};
use aeris::diffusion::{NoGuidance, SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::NormStats;
use aeris::nn::window::WindowGrid;
use aeris::nn::Binding;
use aeris::tensor::attention::{window_core_backward_into, window_core_into, CoreScratch, WindowAttnPlan};
use aeris::tensor::dispatch::Kernel;
use aeris::tensor::gemm::gemm_on;
use aeris::tensor::{sweeps, Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Tokens per sample of `toy48` (a 16 × 32 grid).
const TOKENS: usize = 512;
/// toy48's model width.
const DIM: usize = 48;
/// toy48's SwiGLU hidden width.
const FFN: usize = 96;
/// toy48's state channels.
const CHANNELS: usize = 20;

/// `(name, rows, in, out)` of every projection `X: [rows, in]` times
/// `W: [in, out]`.
const PROJECTIONS: [(&str, usize, usize, usize); 8] = [
    ("qkv", TOKENS, 48, 144),
    ("attn out", TOKENS, 48, 48),
    ("swiglu up", TOKENS, 48, 192),
    ("swiglu down", TOKENS, 96, 48),
    ("embed", TOKENS, 43, 48),
    ("decode", TOKENS, 48, 20),
    ("time cond", 1, 32, 48),
    ("adaln head", 1, 48, 288),
];

/// Minimum and median wall time of one call of `f` over `calls` calls, in µs.
fn min_median_us<R>(calls: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    let mut t: Vec<f64> = (0..calls.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    t.sort_by(f64::total_cmp);
    (t[0], t[t.len() / 2])
}

/// The toy48 model of the benchmark: untrained, with the decoder and the
/// AdaLN heads nudged off zero so every block computes something.
fn toy48_model() -> AerisModel {
    let cfg = AerisConfig {
        grid_h: 16,
        grid_w: 32,
        channels: 20,
        forcing_channels: 3,
        dim: DIM,
        n_heads: 4,
        ffn: FFN,
        n_layers: 2,
        blocks_per_layer: 2,
        window: (4, 4),
        time_feat_dim: 32,
        cond_dim: 48,
        pos_amp: 0.1,
        seed: 0,
    };
    let mut model = AerisModel::new(cfg);
    let mut rng = Rng::seed_from(0x70_7948);
    let mut ids = vec![model.decode.w];
    ids.extend(model.blocks.iter().map(|b| b.adaln.head.w));
    for id in ids {
        let shape = model.store.get(id).shape().to_vec();
        model.store.get_mut(id).add_assign(&Tensor::randn(&shape, &mut rng).scale(0.02));
    }
    model
}

fn main() {
    let calls: usize = std::env::args().nth(1).map_or(1500, |a| a.parse().expect("calls: a count"));
    let (kernels, detected) = (Kernel::supported(), Kernel::detected().name());
    println!("kernel: {detected}; minimum and median of {calls} calls per row");
    println!("{:<6} {:<12} {:>13} {:>8} {:>9} {:>9} {:>8}", "layout", "projection", "(m, n, k)", "GFLOP/s", "min µs", "med µs", "build");
    let mut rng = Rng::seed_from(2025);
    let mut totals = Vec::new();
    for layout in ["NN", "NT", "TN"] {
        let mut total = vec![0.0; kernels.len()];
        for (name, rows, d_in, d_out) in PROJECTIONS {
            let x = Tensor::randn(&[rows, d_in], &mut rng);
            let w = Tensor::randn(&[d_in, d_out], &mut rng);
            let dy = Tensor::randn(&[rows, d_out], &mut rng);
            // (m, n, k), A and whether it is read transposed, B likewise.
            let (mnk, a, a_t, b, b_t) = match layout {
                "NN" => ((rows, d_out, d_in), &x, false, &w, false),
                "NT" => ((rows, d_in, d_out), &dy, false, &w, true),
                _ => ((d_in, d_out, rows), &x, true, &dy, false),
            };
            let (m, n, k) = mnk;
            let mut c = vec![0.0; m * n];
            for (&kernel, total) in kernels.iter().zip(&mut total) {
                let reps = if kernel == Kernel::Portable { (calls / 100).max(3) } else { calls };
                let (us, med) = min_median_us(reps, || gemm_on(kernel, m, n, k, a.data(), a_t, b.data(), b_t, &mut c));
                *total += us;
                let gflops = 2.0 * (m * n * k) as f64 / us / 1e3;
                println!("{layout:<6} {name:<12} {:>13} {gflops:>8.1} {us:>9.1} {med:>9.1} {:>8}", format!("({m}, {n}, {k})"), kernel.name());
            }
        }
        totals.push((layout, total));
    }
    for (i, kernel) in kernels.iter().enumerate() {
        for (layout, total) in &totals {
            println!("{layout:<6} {:<26} {:>9.1} {:>9} {:>8}", "total", total[i], "-", kernel.name());
        }
        println!("{:<6} {:<26} {:>9.1} {:>9} {:>8}", "all", "total", totals.iter().map(|(_, t)| t[i]).sum::<f64>(), "-", kernel.name());
    }

    // toy48's window-attention geometry: 32 windows × 16 tokens, 4 heads × 12.
    let (n_windows, wlen, n_heads, head_dim) = (32, 16, 4, 12);
    let pairs = head_dim / 2;
    let angles: Vec<f32> = (0..wlen * pairs).map(|i| 0.37 * i as f32).collect();
    let cos = Tensor::from_vec(&[wlen, pairs], angles.iter().map(|a| a.cos()).collect());
    let sin = Tensor::from_vec(&[wlen, pairs], angles.iter().map(|a| a.sin()).collect());
    let plan = WindowAttnPlan::new(n_windows, wlen, n_heads, head_dim, cos, sin);
    let qkv = Tensor::randn(&[plan.tokens(), 3 * plan.dim()], &mut rng);
    let d_o = Tensor::randn(&[plan.tokens(), plan.dim()], &mut rng);
    let (shape, mut core, mut o, mut dqkv) = (format!("({n_windows}, {wlen}, {n_heads}, {head_dim})"), CoreScratch::default(), vec![0.0; d_o.len()], vec![0.0; qkv.len()]);
    println!("{:<26} {:>16} {:>9} {:>9} {:>8}", "attention core", "(win, len, h, d)", "min µs", "med µs", "build");
    for &k in kernels {
        let (us, med) = min_median_us(calls, || window_core_into(k, qkv.data(), &plan, &mut o, &mut core));
        println!("{:<26} {shape:>16} {us:>9.1} {med:>9.1} {:>8}", "window_core", k.name());
        let (us, med) = min_median_us(calls, || window_core_backward_into(k, d_o.data(), qkv.data(), &plan, &mut dqkv, &mut core));
        println!("{:<26} {shape:>16} {us:>9.1} {med:>9.1} {:>8}", "window_core_backward", k.name());
    }

    // One sample's rows of each sweep, at the width toy48 runs it.
    let mut randn = |n: usize| Tensor::randn(&[n], &mut rng).data().to_vec();
    let (x, h, g, gate, hid) = (randn(TOKENS * DIM), randn(TOKENS * DIM), randn(DIM), randn(DIM), randn(TOKENS * FFN));
    let (s1, shift, gu) = (randn(DIM), randn(DIM), randn(TOKENS * 2 * FFN));
    let inv_rms: Vec<f32> = vec![0.5; TOKENS];
    let rows = WindowGrid::new(16, 32, 4, 4).partition_perm();
    let mods = [&g[..], &s1, &shift];
    let (mut out, mut mid, mut ir) = (vec![0.0; TOKENS * DIM], vec![0.0; TOKENS * DIM], vec![0.0; TOKENS]);
    let (mut act, mut dgu) = (vec![0.0; TOKENS * FFN], vec![0.0; TOKENS * 2 * FFN]);
    let (mut dvecs, mut dgate) = ([(); 3].map(|_| vec![0.0; DIM]), vec![0.0; DIM]);
    let (dim_rows, ffn_rows, gu_rows) = (format!("[{TOKENS}, {DIM}]"), format!("[{TOKENS}, {FFN}]"), format!("[{TOKENS}, {}]", 2 * FFN));
    println!("{:<26} {:>16} {:>9} {:>9} {:>8}", "sweep", "rows", "min µs", "med µs", "build");
    let sweep = |name: &str, shape: &str, f: &mut dyn FnMut(Kernel)| {
        for &k in kernels {
            let (us, med) = min_median_us(calls, || f(k));
            println!("{name:<26} {shape:>16} {us:>9.1} {med:>9.1} {:>8}", k.name());
        }
    };
    sweep("exp (copy in, in place)", &ffn_rows, &mut |k| {
        act.copy_from_slice(&hid);
        sweeps::exp_on(k, &mut act);
    });
    sweep("sigmoid", &ffn_rows, &mut |k| sweeps::sigmoid_on(k, &mut act, &hid));
    sweep("silu", &ffn_rows, &mut |k| sweeps::silu_on(k, &mut act, &hid));
    sweep("swiglu", &gu_rows, &mut |k| sweeps::swiglu_on(k, &mut act, &gu, FFN));
    sweep("swiglu_backward", &gu_rows, &mut |k| sweeps::swiglu_backward_on(k, &mut dgu, &gu, &hid, FFN));
    sweep("rmsnorm_rows", &dim_rows, &mut |k| sweeps::rmsnorm_rows_on(k, &mut out, &mut ir, &x, &g, 1e-6));
    sweep("modulated_rmsnorm_rows", &dim_rows, &mut |k| {
        sweeps::modulated_rmsnorm_rows_on(k, &mut out, &mut ir, &x, &rows, mods, 1e-6)
    });
    sweep("gated_residual", &dim_rows, &mut |k| sweeps::gated_residual_on(k, &mut mid, &x, &h, &rows, &gate));
    sweep("add_rows", &dim_rows, &mut |k| sweeps::add_rows_on(k, &mut mid, &g));
    sweep("modulated_rmsnorm_backward", &dim_rows, &mut |k| {
        let [dg, ds, db] = &mut dvecs;
        sweeps::modulated_rmsnorm_backward_on(k, &mut out, [dg, ds, db], &x, &h, &g, &s1, &inv_rms)
    });
    sweep("gated_residual_backward", &dim_rows, &mut |k| {
        sweeps::gated_residual_backward_on(k, &mut out, &mut dgate, &h, &x, &gate)
    });
    // One sample's Gaussian state, one `normal()` a draw, then in lanes.
    let mut z = vec![0.0; TOKENS * CHANNELS];
    let (us, med) = min_median_us(calls, || z.iter_mut().for_each(|v| *v = rng.normal()));
    println!("{:<26} {:>16} {us:>9.1} {med:>9.1} {:>8}", format!("normal × {}", z.len()), "", "scalar");
    sweep("fill_normal", &format!("[{TOKENS}, {CHANNELS}]"), &mut |k| rng.fill_normal_on(k, &mut z));

    // The model: one velocity evaluation and one quality-tier forecast step.
    let model = toy48_model();
    let (tokens, channels) = (model.cfg.tokens(), model.cfg.channels);
    let x_t = Tensor::randn(&[tokens, channels], &mut rng);
    let x_prev = Tensor::randn(&[tokens, channels], &mut rng);
    let forcings = Tensor::randn(&[tokens, model.cfg.forcing_channels], &mut rng);
    println!("{:<26} {:>16} {:>9} {:>9} {:>8}", "model", "calls", "min µs", "med µs", "build");
    let (n, mut ws) = (calls / 4, Workspace::default());
    let velocity = min_median_us(n, || model.velocity_into(&mut ws, &x_t, &x_prev, &forcings, 0.7));
    println!("{:<26} {n:>16} {:>9.1} {:>9.1} {:>8}", "velocity", velocity.0, velocity.1, detected);
    // One sample's gradients: `loss_grads`, then the recording chain it equals.
    let (target, w, mut acc) = (Tensor::randn(&[tokens, channels], &mut rng), Tensor::ones(&[tokens, channels]), vec![None; model.store.len()]);
    let (us, med) = min_median_us(n, || model.loss_grads(&mut ws, &x_t, &x_prev, &forcings, 0.7, &target, &w, &mut acc));
    println!("{:<26} {n:>16} {us:>9.1} {med:>9.1} {:>8}", "loss_grads", detected);
    let (us, med) = min_median_us(n, || {
        let (mut tape, mut binding) = (Tape::new(), Binding::new(&model.store));
        let iv = tape.constant(model.assemble_input(&x_t, &x_prev, &forcings));
        let out = model.forward(&mut tape, &mut binding, iv, 0.7);
        let loss = tape.weighted_mse(out, &target, &w);
        binding.accumulate_grads(&mut tape.backward(loss), &mut acc);
    });
    println!("{:<26} {n:>16} {us:>9.1} {med:>9.1} {:>8}", "recording chain", detected);
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    let (us, med) = min_median_us(calls, || add_residual(&x_prev, &x_t, &stats));
    println!("{:<26} {calls:>16} {us:>9.1} {med:>9.1} {:>8}", "add_residual", "plain");
    let mut x_churn = x_t.clone();
    let (us, med) = min_median_us(calls, || TrigFlow::default().churn(&mut x_churn, 0.4, 0.9, &mut rng));
    println!("{:<26} {calls:>16} {us:>9.1} {med:>9.1} {:>8}", format!("churn [{tokens}, {channels}]"), detected);
    let sampler = SamplerConfig { n_steps: 6, churn: 0.1, second_order: true };
    let fc = Forecaster { model, res_stats: stats.clone(), stats, sampler: TrigFlowSampler::new(TrigFlow::default(), sampler) };
    let n = (calls / 20).max(3);
    let (us, med) = min_median_us(n, || fc.forecast_step_guided(&mut ws, &x_prev, &forcings, &mut rng, &mut NoGuidance));
    println!("{:<26} {n:>16} {us:>9.1} {med:>9.1} {:>8}", "forecast_step (12 evals)", detected);
    // Minima only: a difference of medians mixes two runs' noise.
    println!("{:<26} {:>16} {:>9.1} {:>9} {:>8}", "sampler self", "step − 12 × vel", us - 12.0 * velocity.0, "-", detected);
}
