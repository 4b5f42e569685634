//! Determinism of the parallel backend: losses and gradients must be bitwise
//! identical no matter how many worker threads execute the kernels, and the
//! fused windowed-attention op must agree with the unfused per-window path.
//! The model-level checks run `AerisModel::forward`, i.e. the fused block ops
//! (`modulated_rmsnorm`, `swiglu`, `gated_residual`) and the head-major
//! `window_attention` with its single QKV GEMM, forward and backward — pinned
//! by a node count so a silent fall-back to the unfused chains cannot pass.
//!
//! The thread count is varied two ways: in-process via
//! `rayon::set_thread_override` (the test hook the shim exposes) and through
//! the `AERIS_THREADS` environment override that production runs use — the
//! shim re-reads it at every parallel region.

use aeris::autodiff::Tape;
use aeris::core::{AerisConfig, AerisModel};
use aeris::nn::{Binding, RopeTable, WindowAttention};
use aeris::tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Nodes one `test_tiny` forward records (input constant included).
const FUSED_TINY_FORWARD_NODES: usize = 89;

/// Forward + backward of the tiny model on seeded data; returns the loss and
/// every parameter gradient as exact bit patterns.
fn model_loss_and_grad_bits(seed: u64) -> (u64, Vec<Vec<u32>>) {
    let model = AerisModel::new(AerisConfig::test_tiny());
    let mut rng = Rng::seed_from(seed);
    let tokens = model.cfg.tokens();
    let x_t = Tensor::randn(&[tokens, model.cfg.channels], &mut rng);
    let x_prev = Tensor::randn(&[tokens, model.cfg.channels], &mut rng);
    let forcings = Tensor::randn(&[tokens, model.cfg.forcing_channels], &mut rng);
    let target = Tensor::randn(&[tokens, model.cfg.channels], &mut rng);
    let weights = Tensor::ones(&[tokens, model.cfg.channels]);

    let input = model.assemble_input(&x_t, &x_prev, &forcings);
    let mut tape = Tape::new();
    let mut binding = Binding::new(&model.store);
    let iv = tape.constant(input);
    let out = model.forward(&mut tape, &mut binding, iv, 0.8);
    // `test_tiny` has two blocks; with the fused block ops (`modulated_rmsnorm`,
    // `swiglu`, `gated_residual`, one `window_attention`) its forward records
    // exactly this many nodes. A fall-back to the unfused chains (+9 nodes per
    // block) would leave the bitwise check below green but fail here.
    assert_eq!(tape.len(), FUSED_TINY_FORWARD_NODES, "forward no longer records the fused block ops");
    let loss = tape.weighted_mse(out, &target, &weights);
    let loss_bits = (tape.value(loss).data()[0] as f64).to_bits();
    let mut grads = tape.backward(loss);
    let grad_bits = binding
        .collect_grads(&mut grads)
        .into_iter()
        .map(|g| g.map(|t| t.data().iter().map(|v| v.to_bits()).collect()).unwrap_or_default())
        .collect();
    (loss_bits, grad_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full-model loss and every parameter gradient are bitwise identical
    /// whether the pool runs 1 worker or 8.
    #[test]
    fn model_grads_bitwise_identical_across_thread_counts(seed in 0u64..1000) {
        rayon::set_thread_override(Some(1));
        let narrow = model_loss_and_grad_bits(seed);
        rayon::set_thread_override(Some(8));
        let wide = model_loss_and_grad_bits(seed);
        rayon::set_thread_override(None);
        prop_assert_eq!(narrow.0, wide.0, "loss bits diverged");
        prop_assert_eq!(narrow.1, wide.1, "gradient bits diverged");
    }
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
            let y = if fused {
                attn.forward_all_windows(&mut tape, &mut binding, &store, xv, &rope, n_windows)
            } else {
                let mut outs = Vec::new();
                for w in 0..n_windows {
                    let win = tape.slice_rows(xv, w * wlen, (w + 1) * wlen);
                    outs.push(attn.forward(&mut tape, &mut binding, &store, win, &rope));
                }
                tape.concat_rows(&outs)
            };
            let sq = tape.mul(y, y);
            let loss = tape.sum(sq);
            let y_val = tape.value(y).clone();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The packed GEMM core parallelizes over fixed disjoint row blocks of C,
    /// so every layout variant — f32 and bf16 storage alike — must produce
    /// bitwise identical output at 1 worker and 8, including on shapes that
    /// are not multiples of the register tile or row blocking.
    #[test]
    fn gemm_bitwise_identical_across_thread_counts(
        m in 1usize..70,
        n in 1usize..70,
        k in 1usize..70,
        seed in 0u64..1000,
    ) {
        use aeris::tensor::{matmul, matmul_bf16, matmul_nt, matmul_nt_bf16, matmul_tn, matmul_tn_bf16};
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let (ah, bh) = (a.to_bf16(), b.to_bf16());

        let run = |threads: usize| -> Vec<Vec<u32>> {
            rayon::set_thread_override(Some(threads));
            let outs = [
                matmul(&a, &b),
                matmul_tn(&a.t(), &b),
                matmul_nt(&a, &b.t()),
                matmul_bf16(&ah, &bh),
                matmul_tn_bf16(&ah.transpose_2d(), &bh),
                matmul_nt_bf16(&ah, &bh.transpose_2d()),
            ];
            rayon::set_thread_override(None);
            outs.iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };

        prop_assert_eq!(run(1), run(8), "GEMM bits diverged at ({},{},{})", m, n, k);
    }
}

/// The `AERIS_THREADS` env override (read at every parallel region) changes
/// only wall-clock, never bits. Serial narrow/wide runs within one process.
#[test]
fn aeris_threads_env_does_not_change_results() {
    // Determinism is thread-count independence: concurrently running tests
    // that see this env flip mid-run still compute identical results, which is
    // exactly the property under test.
    std::env::set_var("AERIS_THREADS", "1");
    let narrow = model_loss_and_grad_bits(7);
    std::env::set_var("AERIS_THREADS", "8");
    let wide = model_loss_and_grad_bits(7);
    std::env::remove_var("AERIS_THREADS");
    assert_eq!(narrow.0, wide.0, "loss bits diverged between AERIS_THREADS=1 and 8");
    assert_eq!(narrow.1, wide.1, "gradient bits diverged between AERIS_THREADS=1 and 8");
}
