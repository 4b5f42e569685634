//! Determinism where threads remain, and the fused-op pins.
//!
//! Kernels (the packed GEMM, the window loops of the attention core) run on
//! the calling thread, so their bits depend on their operands alone and there
//! is no worker count to vary. The pool fans out over ensemble members and
//! serve-batch jobs only (`core::forecast::{ensemble, step_batch}`); this file
//! checks the member fan-out through the `AERIS_THREADS` environment override
//! production runs use (the shim re-reads it at every parallel region), next
//! to `core::forecast`'s `step_batch` test and the 1-vs-8 fan-outs in
//! `tests/assim.rs`, which vary the width via `rayon::set_thread_override`.
//!
//! Also here: the fused windowed-attention op must agree with the unfused
//! per-window path, and `AerisModel::forward` must record the fused block ops
//! (`modulated_rmsnorm`, `swiglu`, `gated_residual`, one `window_attention`
//! with its single QKV GEMM) — pinned by a node count so a silent fall-back
//! to the unfused chains cannot pass.

use aeris::autodiff::Tape;
use aeris::core::{AerisConfig, AerisModel, Forecaster};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::NormStats;
use aeris::nn::{Binding, RopeTable, WindowAttention};
use aeris::tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Nodes one `test_tiny` forward records (input constant included).
const FUSED_TINY_FORWARD_NODES: usize = 89;

/// `test_tiny` has two blocks; with the fused block ops its forward records
/// exactly [`FUSED_TINY_FORWARD_NODES`] nodes. A fall-back to the unfused
/// chains (+9 nodes per block) would leave every numeric check green but fail
/// here.
#[test]
fn tiny_forward_records_the_fused_block_ops() {
    let model = AerisModel::new(AerisConfig::test_tiny());
    let mut rng = Rng::seed_from(7);
    let tokens = model.cfg.tokens();
    let x_t = Tensor::randn(&[tokens, model.cfg.channels], &mut rng);
    let x_prev = Tensor::randn(&[tokens, model.cfg.channels], &mut rng);
    let forcings = Tensor::randn(&[tokens, model.cfg.forcing_channels], &mut rng);

    let mut tape = Tape::new();
    let mut binding = Binding::new(&model.store);
    let iv = tape.constant(model.assemble_input(&x_t, &x_prev, &forcings));
    model.forward(&mut tape, &mut binding, iv, 0.8);
    assert_eq!(tape.len(), FUSED_TINY_FORWARD_NODES, "forward no longer records the fused block ops");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fused `window_attention` agrees with the unfused per-window op chain
    /// within 1e-5 in forward value, input gradient, and weight gradients.
    #[test]
    fn fused_attention_matches_unfused(seed in 0u64..1000) {
        let mut store = aeris::nn::ParamStore::new();
        let mut rng = Rng::seed_from(seed);
        let attn = WindowAttention::new(&mut store, "attn", 8, 2, &mut rng);
        let rope = RopeTable::new(2, 2, 4, 0, 0);
        let (n_windows, wlen) = (4, rope.seq_len());
        let x = Tensor::randn(&[n_windows * wlen, 8], &mut rng);

        let run = |fused: bool| -> (Tensor, Tensor, Vec<Option<Tensor>>) {
            let mut tape = Tape::new();
            let mut binding = Binding::new(&store);
            let xv = tape.leaf(x.clone());
            // All windows as one output, or one output per window; the loss
            // is the sum of squares over every output either way.
            let outs: Vec<_> = if fused {
                vec![attn.forward_all_windows(&mut tape, &mut binding, &store, xv, &rope, n_windows)]
            } else {
                (0..n_windows)
                    .map(|w| {
                        let win = tape.gather_rows(xv, &(w * wlen..(w + 1) * wlen).collect::<Vec<_>>());
                        attn.forward(&mut tape, &mut binding, &store, win, &rope)
                    })
                    .collect()
            };
            let y_val = Tensor::concat_rows(&outs.iter().map(|&y| tape.value(y)).collect::<Vec<_>>());
            let sums: Vec<_> = outs.iter().map(|&y| { let sq = tape.mul(y, y); tape.sum(sq) }).collect();
            let loss = sums[1..].iter().fold(sums[0], |acc, &s| tape.add(acc, s));
            let mut grads = tape.backward(loss);
            let gx = grads.take(xv).unwrap();
            (y_val, gx, binding.collect_grads(&mut grads))
        };

        let (y_f, gx_f, gw_f) = run(true);
        let (y_u, gx_u, gw_u) = run(false);
        prop_assert!(y_f.max_abs_diff(&y_u) < 1e-5, "forward diff {}", y_f.max_abs_diff(&y_u));
        prop_assert!(gx_f.max_abs_diff(&gx_u) < 1e-5, "input grad diff {}", gx_f.max_abs_diff(&gx_u));
        for lin in [attn.wq, attn.wk, attn.wv, attn.wo] {
            let (a, b) = (gw_f[lin.w.0].as_ref().unwrap(), gw_u[lin.w.0].as_ref().unwrap());
            prop_assert!(a.max_abs_diff(b) < 1e-5, "weight grad diff {}", a.max_abs_diff(b));
        }
    }
}

/// The `AERIS_THREADS` env override (read at every parallel region) changes
/// only wall-clock, never bits: every state of every member of
/// `Forecaster::ensemble` is the same at 1 worker and at 8.
#[test]
fn aeris_threads_env_does_not_change_results() {
    let cfg = AerisConfig::test_tiny();
    let (tokens, channels, forcing_channels) = (cfg.tokens(), cfg.channels, cfg.forcing_channels);
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    let forecaster = Forecaster {
        model: AerisModel::new(cfg),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 3, churn: 0.1, second_order: true },
        ),
    };
    let x0 = Tensor::randn(&[tokens, channels], &mut Rng::seed_from(7));
    let forc = |_k: usize| Tensor::zeros(&[tokens, forcing_channels]);
    // Determinism is thread-count independence: concurrently running tests
    // that see this env flip mid-run still compute identical results, which is
    // exactly the property under test.
    let run = |threads: &str| -> Vec<Vec<Vec<u32>>> {
        std::env::set_var("AERIS_THREADS", threads);
        let ens = forecaster.ensemble(&x0, &forc, 2, 5, 11);
        std::env::remove_var("AERIS_THREADS");
        let bits = |state: &Tensor| state.data().iter().map(|v| v.to_bits()).collect();
        ens.members.iter().map(|member| member.iter().map(bits).collect()).collect()
    };
    let (narrow, wide) = (run("1"), run("8"));
    assert_eq!((narrow.len(), narrow[0].len()), (5, 2));
    assert_eq!(narrow, wide, "member states diverged between AERIS_THREADS=1 and 8");
}
