//! Every GEMM shape of one `toy48` training step, timed alone: the six
//! token projections (QKV, attention out, SwiGLU up / down, embed, decode)
//! over the 512 tokens of one sample, and the two one-row projections of the
//! conditioning vector (the time conditioner `[32, 48]` and a block's AdaLN
//! head `[48, 288]`), each in its three layouts — NN forward `X·W`, NT input
//! gradient `dY·Wᵀ`, TN weight gradient `Xᵀ·dY` (k = 1 for the one-row
//! projections). Prints the minimum single-call wall time and its GFLOP/s
//! per shape and the summed minimum per layout, the table DESIGN.md
//! "Tensor backend" quotes, with the micro-kernel that ran. Two rows after
//! the totals time the window-attention core that runs between a block's
//! QKV and output projections, `window_core` and `window_core_backward` at
//! toy48's geometry (32 windows of 16 tokens, 4 heads of 12), with the
//! build that ran (the same kernel name).
//!
//! ```bash
//! cargo run --release --example gemm_shapes [calls]
//! ```

use aeris::tensor::attention::{window_core, window_core_backward, WindowAttnPlan};
use aeris::tensor::gemm::kernel_name;
use aeris::tensor::{matmul, matmul_nt, matmul_tn, Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Tokens per sample of `toy48` (a 16 × 32 grid).
const TOKENS: usize = 512;

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

/// Minimum wall time of one call of `f` over `calls` calls, in µs.
fn min_us<R>(calls: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let calls: usize = std::env::args().nth(1).map_or(1500, |a| a.parse().expect("calls: a count"));
    println!("GEMM kernel: {}; minimum of {calls} calls per shape", kernel_name());
    println!("{:<6} {:<12} {:>13} {:>9} {:>8}", "layout", "projection", "(m, n, k)", "µs", "GFLOP/s");
    let mut rng = Rng::seed_from(2025);
    let mut totals = Vec::new();
    for layout in ["NN", "NT", "TN"] {
        let mut total = 0.0;
        for (name, rows, d_in, d_out) in PROJECTIONS {
            let x = Tensor::randn(&[rows, d_in], &mut rng);
            let w = Tensor::randn(&[d_in, d_out], &mut rng);
            let dy = Tensor::randn(&[rows, d_out], &mut rng);
            let ((m, n, k), us) = match layout {
                "NN" => ((rows, d_out, d_in), min_us(calls, || matmul(&x, &w))),
                "NT" => ((rows, d_in, d_out), min_us(calls, || matmul_nt(&dy, &w))),
                _ => ((d_in, d_out, rows), min_us(calls, || matmul_tn(&x, &dy))),
            };
            total += us;
            let gflops = 2.0 * (m * n * k) as f64 / us / 1e3;
            println!("{layout:<6} {name:<12} {:>13} {us:>9.1} {gflops:>8.1}", format!("({m}, {n}, {k})"));
        }
        totals.push((layout, total));
    }
    for (layout, total) in &totals {
        println!("{layout:<6} {:<26} {total:>9.1}", "total");
    }
    println!("{:<6} {:<26} {:>9.1}", "all", "total", totals.iter().map(|(_, t)| t).sum::<f64>());

    // toy48's window-attention geometry: 32 windows × 16 tokens, 4 heads × 12.
    let (n_windows, wlen, n_heads, head_dim) = (32, 16, 4, 12);
    let pairs = head_dim / 2;
    let angles: Vec<f32> = (0..wlen * pairs).map(|i| 0.37 * i as f32).collect();
    let cos = Tensor::from_vec(&[wlen, pairs], angles.iter().map(|a| a.cos()).collect());
    let sin = Tensor::from_vec(&[wlen, pairs], angles.iter().map(|a| a.sin()).collect());
    let plan = WindowAttnPlan::new(n_windows, wlen, n_heads, head_dim, cos, sin);
    let qkv = Tensor::randn(&[plan.tokens(), 3 * plan.dim()], &mut rng);
    let d_o = Tensor::randn(&[plan.tokens(), plan.dim()], &mut rng);
    let shape = format!("({n_windows}, {wlen}, {n_heads}, {head_dim})");
    println!("{:<22} {:>16} {:>9} {:>8}", "attention core", "(win, len, h, d)", "µs", "build");
    let fwd = min_us(calls, || window_core(&qkv, &plan));
    println!("{:<22} {shape:>16} {fwd:>9.1} {:>8}", "window_core", kernel_name());
    let bwd = min_us(calls, || window_core_backward(&d_o, &qkv, &plan));
    println!("{:<22} {shape:>16} {bwd:>9.1} {:>8}", "window_core_backward", kernel_name());
}
