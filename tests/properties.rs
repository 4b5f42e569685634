//! Property-based tests (proptest) on the core numerical invariants the
//! system depends on, spanning tensor, diffusion, window geometry, and
//! normalization.

use aeris::diffusion::TrigFlow;
use aeris::earthsim::NormStats;
use aeris::nn::window::{invert_perm, WindowGrid};
use aeris::tensor::{matmul, matmul_nt, matmul_tn, Rng, Tensor};
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(&[rows, cols], v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(
        a in tensor_strategy(4, 5),
        b in tensor_strategy(5, 3),
        c in tensor_strategy(5, 3),
    ) {
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    /// Fused transpose kernels agree with explicit transposition.
    #[test]
    fn transpose_kernels_consistent(
        a in tensor_strategy(6, 4),
        b in tensor_strategy(6, 3),
        c in tensor_strategy(5, 4),
    ) {
        prop_assert!(matmul_tn(&a, &b).max_abs_diff(&matmul(&a.t(), &b)) < 1e-3);
        prop_assert!(matmul_nt(&a, &c).max_abs_diff(&matmul(&a, &c.t())) < 1e-3);
    }

    /// TrigFlow: the exact ODE step with the true conditional velocity lands
    /// on the interpolant at any pair of times.
    #[test]
    fn trigflow_rotation_is_exact(
        seed in 0u64..1000,
        t1 in 0.05f32..1.5,
        t2 in 0.05f32..1.5,
    ) {
        let tf = TrigFlow::default();
        let mut rng = Rng::seed_from(seed);
        let x0 = Tensor::randn(&[32], &mut rng);
        let z = Tensor::randn(&[32], &mut rng);
        let (hi, lo) = if t1 >= t2 { (t1, t2) } else { (t2, t1) };
        let xt = tf.interpolate(&x0, &z, hi);
        let v = tf.velocity_target(&x0, &z, hi);
        let stepped = tf.ode_step(&xt, &v, hi, lo);
        prop_assert!(stepped.max_abs_diff(&tf.interpolate(&x0, &z, lo)) < 1e-4);
    }

    /// Denoise inverts interpolation under the true velocity at any t.
    #[test]
    fn trigflow_denoise_recovers(seed in 0u64..1000, t in 0.01f32..1.55) {
        let tf = TrigFlow::default();
        let mut rng = Rng::seed_from(seed);
        let x0 = Tensor::randn(&[16], &mut rng);
        let z = Tensor::randn(&[16], &mut rng);
        let xt = tf.interpolate(&x0, &z, t);
        let v = tf.velocity_target(&x0, &z, t);
        prop_assert!(tf.denoise(&xt, &v, t).max_abs_diff(&x0) < 1e-4);
    }

    /// Window partitioning is always a permutation, and roll/unroll are
    /// inverse, for any valid geometry.
    #[test]
    fn window_geometry_invariants(
        hw in 1usize..4,
        ww in 1usize..4,
        mh in 1usize..4,
        mw in 1usize..4,
    ) {
        let (wh, wwid) = (2 * hw, 2 * ww);
        let grid = WindowGrid::new(wh * mh, wwid * mw, wh, wwid);
        let p = grid.partition_perm();
        let inv = invert_perm(&p);
        for i in 0..p.len() {
            prop_assert_eq!(inv[p[i]], i);
        }
        let (sh, sw) = grid.half_shift();
        let roll = grid.roll_perm(sh, sw);
        let unroll = grid.roll_perm(wh * mh - sh, wwid * mw - sw);
        for i in 0..roll.len() {
            prop_assert_eq!(roll[unroll[i]], i);
        }
    }

    /// Standardize/unstandardize round-trip for any positive scales.
    #[test]
    fn normstats_roundtrip(
        means in proptest::collection::vec(-100.0f32..100.0, 3),
        stds in proptest::collection::vec(0.1f32..50.0, 3),
        seed in 0u64..1000,
    ) {
        let stats = NormStats { mean: means, std: stds };
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[10, 3], &mut rng).scale(30.0);
        let back = stats.unstandardize(&stats.standardize(&x));
        prop_assert!(back.max_abs_diff(&x) < 1e-2);
    }

    /// Softmax rows always sum to 1 and are within (0, 1].
    #[test]
    fn softmax_is_a_distribution(x in tensor_strategy(3, 8)) {
        let s = x.softmax_rows();
        for r in 0..3 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| v > 0.0 && v <= 1.0));
        }
    }

    /// The fair CRPS of a single-point "truth-matching" ensemble is 0 and is
    /// nonnegative in general.
    #[test]
    fn crps_nonnegative(seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let truth = Tensor::randn(&[20, 1], &mut rng);
        let members: Vec<Tensor> = (0..4).map(|_| Tensor::randn(&[20, 1], &mut rng)).collect();
        let refs: Vec<&Tensor> = members.iter().collect();
        let w = vec![1.0f32; 20];
        let c = aeris::evaluation::crps(&refs, &truth, &w, 0);
        prop_assert!(c >= -1e-9, "CRPS {c} negative");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SWiPe activation layouts partition tokens exactly once for any valid
    /// (WP grid, SP, shift) combination.
    #[test]
    fn swipe_layout_partitions_exactly_once(
        wp_a in 1usize..3,
        wp_b in 1usize..3,
        sp in 1usize..3,
        shifted in proptest::bool::ANY,
    ) {
        let grid = WindowGrid::new(8, 16, 4, 4);
        // window_len = 16 divides by sp in {1, 2}; window rows 2 and cols 4
        // divide by wp in {1, 2}.
        let layout = aeris::swipe::ActLayout::new(grid, shifted, wp_a, wp_b, sp);
        let mut seen = vec![false; grid.tokens()];
        for ra in 0..wp_a {
            for rb in 0..wp_b {
                for s in 0..sp {
                    for &t in &layout.tokens_of(ra, rb, s) {
                        prop_assert!(!seen[t]);
                        seen[t] = true;
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// BF16 mixed precision: rounding the model's weights perturbs a forward
    /// pass by at most O(bf16 epsilon) relative to the activations — the
    /// property that makes the paper's BF16-compute/FP32-master policy safe.
    #[test]
    fn bf16_weights_give_close_forward(seed in 0u64..50) {
        use aeris::core::{AerisConfig, AerisModel};
        let cfg = AerisConfig::test_tiny();
        let mut model = AerisModel::new(cfg.clone());
        let mut rng = Rng::seed_from(seed);
        // Give the zero-initialized heads some signal.
        for i in 0..model.store.len() {
            let id = aeris::nn::ParamId(i);
            let shape = model.store.get(id).shape().to_vec();
            let noise = Tensor::randn(&shape, &mut rng).scale(0.02);
            model.store.get_mut(id).add_assign(&noise);
        }
        let x_t = Tensor::randn(&[128, 4], &mut rng);
        let prev = Tensor::randn(&[128, 4], &mut rng);
        let forc = Tensor::randn(&[128, 3], &mut rng);
        let full = model.velocity(&x_t, &prev, &forc, 0.6);

        // Round each weight to bf16 precision, nearest-even (finite inputs).
        let bf16_round = |x: f32| {
            let bits = x.to_bits();
            f32::from_bits(bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000)
        };
        let mut bf16_model = AerisModel::new(cfg);
        for i in 0..model.store.len() {
            let id = aeris::nn::ParamId(i);
            *bf16_model.store.get_mut(id) = model.store.get(id).map(bf16_round);
        }
        let rounded = bf16_model.velocity(&x_t, &prev, &forc, 0.6);
        let scale = full.abs_max().max(1e-3);
        prop_assert!(
            full.max_abs_diff(&rounded) / scale < 0.05,
            "bf16 forward deviates {}",
            full.max_abs_diff(&rounded) / scale
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Collectives are deterministic: two worlds running the same reduction
    /// with arbitrary thread interleavings produce identical bytes.
    #[test]
    fn allreduce_is_run_to_run_deterministic(n in 2usize..6, len in 1usize..64) {
        use aeris::swipe::World;
        let run = || {
            let world = World::new(n);
            let group: Vec<usize> = (0..n).collect();
            let results = std::sync::Mutex::new(vec![None; n]);
            std::thread::scope(|s| {
                for r in 0..n {
                    let mut comm = world.communicator(r);
                    let g = group.clone();
                    let results = &results;
                    s.spawn(move || {
                        let mut rng = Rng::seed_from(r as u64);
                        let v = Tensor::randn(&[len], &mut rng);
                        let out = comm.allreduce_sum(&g, &v).unwrap();
                        results.lock().unwrap()[r] = Some(out);
                    });
                }
            });
            results.into_inner().unwrap()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
        // All ranks agree.
        for x in &a[1..] {
            prop_assert_eq!(x.as_ref().unwrap(), a[0].as_ref().unwrap());
        }
    }

    /// Delay-only fault plans perturb timing, never values: collectives under
    /// a random seeded delay schedule are bitwise identical to the fault-free
    /// run.
    #[test]
    fn delay_faults_never_change_collective_results(
        seed in 0u64..1000,
        n in 2usize..5,
        len in 1usize..48,
    ) {
        use aeris::swipe::{CommConfig, FaultPlan, World};
        let run = |world: World| {
            let group: Vec<usize> = (0..n).collect();
            let results = std::sync::Mutex::new(vec![None; n]);
            std::thread::scope(|s| {
                for r in 0..n {
                    let mut comm = world.communicator(r);
                    let g = group.clone();
                    let results = &results;
                    s.spawn(move || {
                        let mut rng = Rng::seed_from(1000 + r as u64);
                        let v = Tensor::randn(&[len], &mut rng);
                        let red = comm.allreduce_sum(&g, &v).unwrap();
                        let gathered = comm
                            .allgather(&g, aeris::swipe::CommClass::AllGather, red.clone())
                            .unwrap();
                        results.lock().unwrap()[r] = Some((red, gathered));
                    });
                }
            });
            results.into_inner().unwrap()
        };
        // Plenty of injected delays (short ones — this runs 8 proptest
        // cases), aimed at the first messages of random channels.
        let plan = FaultPlan::chaos_delays(seed, n, 4, 6, 3);
        let clean = run(World::new(n));
        let delayed = run(World::with_config(n, CommConfig::default(), Some(plan)));
        for (c, d) in clean.iter().zip(&delayed) {
            prop_assert_eq!(c.as_ref().unwrap(), d.as_ref().unwrap());
        }
    }
}
