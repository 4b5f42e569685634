//! The core SWiPe validation: distributed WP×SP×PP×DP training is
//! numerically equivalent to single-rank training, and the communication and
//! memory properties the paper claims are measured, not assumed.

#![allow(clippy::needless_range_loop)]

use aeris_core::{AerisConfig, AerisModel, TrainSample};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_nn::{AdamW, AdamWConfig, ParamId};
use aeris_swipe::data::InMemorySource;
use aeris_swipe::trainer::reference_grads;
use aeris_swipe::{CommClass, DistributedTrainer, SwipeConfig, SwipeTopology};
use aeris_tensor::{Rng, Tensor};

fn tiny_cfg() -> AerisConfig {
    AerisConfig {
        grid_h: 8,
        grid_w: 16,
        channels: 4,
        forcing_channels: 3,
        dim: 16,
        n_heads: 2,
        ffn: 32,
        n_layers: 2,
        blocks_per_layer: 1,
        window: (4, 4),
        time_feat_dim: 16,
        cond_dim: 24,
        pos_amp: 0.1,
        seed: 11,
    }
}

fn random_samples(n: usize, tokens: usize, channels: usize) -> Vec<TrainSample> {
    let mut rng = Rng::seed_from(77);
    (0..n)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[tokens, channels], &mut rng),
            residual: Tensor::randn(&[tokens, channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[tokens, 3], &mut rng),
        })
        .collect()
}

fn weights_for(cfg: &AerisConfig) -> Tensor {
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels])
}

fn schedule(n_steps: usize, dp: usize, gas: usize, n_samples: usize) -> Vec<Vec<Vec<usize>>> {
    let mut ix = 0usize;
    (0..n_steps)
        .map(|_| {
            (0..dp)
                .map(|_| {
                    (0..gas)
                        .map(|_| {
                            let s = ix % n_samples;
                            ix += 1;
                            s
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Apply the reference AdamW step using named grads.
fn reference_opt_step(model: &mut AerisModel, opt: &mut AdamW, named: &std::collections::HashMap<String, Tensor>, lr: f32) {
    let grads: Vec<Option<Tensor>> = (0..model.store.len())
        .map(|i| named.get(model.store.name(ParamId(i))).cloned())
        .collect();
    opt.step(&mut model.store, &grads, lr);
}

#[test]
fn distributed_training_equals_single_rank() {
    let cfg = tiny_cfg();
    let samples = random_samples(8, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);

    let topo = SwipeTopology::new(2, 4, 1, 2, 2); // DP=2, PP=4, WP=1x2, SP=2 → 32 ranks
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 2,
        n_steps: 2,
        lr: 1e-3,
        seed: 5,
        adamw: AdamWConfig::default(),
        ..SwipeConfig::new(topo)
    };
    let sched = schedule(2, 2, 2, 8);

    // Distributed run.
    let reference = AerisModel::new(cfg.clone());
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");

    // Single-rank reference with identical noise/time realizations.
    let mut ref_model = AerisModel::new(cfg.clone());
    let mut opt = AdamW::new(&ref_model.store, AdamWConfig::default());
    let mut ref_losses = Vec::new();
    for step in 0..2 {
        let (loss, grads) = reference_grads(&ref_model, &source, &sched[step], &weights, 5, step);
        ref_losses.push(loss);
        reference_opt_step(&mut ref_model, &mut opt, &grads, 1e-3);
    }

    // Loss equivalence (step 0 is exact pre-update; step 1 inherits step-0
    // param updates, so it also checks the optimizer path).
    for step in 0..2 {
        let rel = (report.losses[step] - ref_losses[step]).abs() / ref_losses[step].abs();
        assert!(
            rel < 1e-3,
            "step {step}: distributed loss {} vs reference {}",
            report.losses[step],
            ref_losses[step]
        );
    }

    // Parameter equivalence after 2 steps.
    let mut checked = 0;
    for (_, name, v) in ref_model.store.iter() {
        let dist = report
            .final_params
            .get(name)
            .unwrap_or_else(|| panic!("missing distributed param {name}"));
        let scale = v.abs_max().max(1e-3);
        let diff = dist.max_abs_diff(v);
        assert!(
            diff / scale < 5e-3,
            "param {name} diverged: max abs diff {diff} (scale {scale})"
        );
        checked += 1;
    }
    assert!(checked > 10, "expected to check many parameter tensors");
}

#[test]
fn wp_reduces_alltoall_and_p2p_but_not_allreduce() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);

    let run = |wp_b: usize| {
        let topo = SwipeTopology::new(1, 4, 1, wp_b, 2);
        let swipe_cfg = SwipeConfig {
            topo,
            gas: 2,
            n_steps: 1,
            lr: 1e-3,
            seed: 9,
            adamw: AdamWConfig::default(),
            ..SwipeConfig::new(topo)
        };
        let sched = schedule(1, 1, 2, 4);
        let reference = AerisModel::new(cfg.clone());
        let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");
        // Per-rank averages for a block-stage rank (stage 1, wp 0/0, sp 0).
        let block_rank = topo.rank_of(aeris_swipe::RankCoords {
            dp: 0,
            stage: 1,
            wp_row: 0,
            wp_col: 0,
            sp: 0,
        });
        (
            report.traffic.rank_total(block_rank, CommClass::AllToAll),
            report.traffic.rank_total(block_rank, CommClass::P2p),
            report.traffic.rank_total(block_rank, CommClass::AllReduce),
        )
    };

    let (a2a_2, p2p_2, ar_2) = run(2);
    let (a2a_4, p2p_4, ar_4) = run(4);

    // Message size M = b·s·h/SP/WP: doubling WP halves per-rank all-to-all
    // and pipeline traffic.
    assert!(
        (a2a_4 as f64) < 0.6 * a2a_2 as f64,
        "alltoall per rank did not halve: {a2a_2} -> {a2a_4}"
    );
    assert!(
        (p2p_4 as f64) < 0.6 * p2p_2 as f64,
        "p2p per rank did not halve: {p2p_2} -> {p2p_4}"
    );
    // Gradient allreduce volume per rank is unchanged: reduce-scatter +
    // allgather moves 2·P·(n−1)/n per rank, which is insensitive to the
    // group growth caused by WP (ratio (7/8)/(3/4) ≈ 1.17 here).
    let ratio = ar_4 as f64 / ar_2 as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "allreduce volume changed with WP: {ar_2} -> {ar_4} (ratio {ratio})"
    );
}

#[test]
fn wp_reduces_activation_memory() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);

    let run = |wp_b: usize| {
        let topo = SwipeTopology::new(1, 4, 1, wp_b, 1);
        let swipe_cfg = SwipeConfig {
            topo,
            gas: 2,
            n_steps: 1,
            lr: 1e-3,
            seed: 13,
            adamw: AdamWConfig::default(),
            ..SwipeConfig::new(topo)
        };
        let sched = schedule(1, 1, 2, 4);
        let reference = AerisModel::new(cfg.clone());
        DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run")
            .max_activation_elems
    };
    let act_1 = run(1);
    let act_2 = run(2);
    assert!(
        (act_2 as f64) < 0.7 * act_1 as f64,
        "activation memory did not shrink with WP: {act_1} -> {act_2}"
    );
}

#[test]
fn distributed_loss_decreases_over_steps() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);
    let topo = SwipeTopology::new(1, 4, 2, 1, 1);
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 4,
        n_steps: 6,
        lr: 3e-3,
        seed: 21,
        adamw: AdamWConfig::default(),
        ..SwipeConfig::new(topo)
    };
    let sched = schedule(6, 1, 4, 4);
    let reference = AerisModel::new(cfg);
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");
    assert!(report.losses.iter().all(|l| l.is_finite()));
    assert!(
        report.losses[5] < report.losses[0],
        "loss did not decrease: {:?}",
        report.losses
    );
}

/// A second topology exercising the full 2-D round-robin window grid
/// (WP = 2×2) with shift relayouts crossing both axes, without SP.
#[test]
fn equivalence_holds_on_2d_window_grid() {
    let cfg = tiny_cfg();
    let samples = random_samples(4, cfg.tokens(), cfg.channels);
    let source = InMemorySource { samples };
    let weights = weights_for(&cfg);

    let topo = SwipeTopology::new(1, 4, 2, 2, 1); // 16 ranks
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 2,
        n_steps: 1,
        lr: 1e-3,
        seed: 23,
        adamw: AdamWConfig::default(),
        ..SwipeConfig::new(topo)
    };
    let sched = schedule(1, 1, 2, 4);
    let reference = AerisModel::new(cfg.clone());
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights).expect("fault-free run");

    let mut ref_model = AerisModel::new(cfg);
    let mut opt = AdamW::new(&ref_model.store, AdamWConfig::default());
    let (loss, grads) = reference_grads(&ref_model, &source, &sched[0], &weights, 23, 0);
    reference_opt_step(&mut ref_model, &mut opt, &grads, 1e-3);

    let rel = (report.losses[0] - loss).abs() / loss.abs();
    assert!(rel < 1e-3, "loss mismatch: {} vs {}", report.losses[0], loss);
    for (_, name, v) in ref_model.store.iter() {
        let dist = &report.final_params[name];
        let scale = v.abs_max().max(1e-3);
        assert!(
            dist.max_abs_diff(v) / scale < 5e-3,
            "param {name} diverged on 2D WP grid"
        );
    }
}

/// The distributed gradients themselves, not AdamW's reaction to them: the
/// tests above compare parameters after AdamW steps, whose first update is
/// almost `lr·sign(g)` and so hides even a gradient that is wrong by 100 %.
///
/// With `weight_decay` 0 the first AdamW step moves each parameter by exactly
/// `lr·g / (|g| + eps)` (the bias corrections cancel), so `d = (p0 − p1)/lr`
/// recovers `g = eps·d / (1 − |d|)`. `eps` ≫ |g| keeps that map near-linear,
/// and `lr` = 1000·eps makes the update large next to `p0`, so the f32
/// subtraction loses little. The recovered gradients of one step at sp = 2
/// match [`reference_grads`] per tensor, relative to the tensor's abs max.
/// Measured worst case: 5e-7 (dp 1) and 7e-7 (dp 2), under the three-pass
/// backward and the one-sweep backward alike; dropping the cotangents that
/// either all-to-all returns to the block backward reads ≈ 0.9.
#[test]
fn distributed_gradients_equal_reference_grads() {
    let cfg = tiny_cfg();
    let source = InMemorySource { samples: random_samples(8, cfg.tokens(), cfg.channels) };
    let weights = weights_for(&cfg);
    // Nudge the zero-initialized AdaLN heads and decoder: otherwise every
    // block is an identity and no gradient reaches the attention.
    let mut reference = AerisModel::new(cfg.clone());
    let mut rng = Rng::seed_from(9);
    let heads = reference.blocks.iter().map(|b| b.adaln.head).chain([reference.decode]);
    for id in heads.flat_map(|lin| [lin.w, lin.b.expect("bias")]).collect::<Vec<_>>() {
        let nudge = Tensor::randn(reference.store.get(id).shape(), &mut rng).scale(0.05);
        reference.store.get_mut(id).add_assign(&nudge);
    }
    let (eps, lr) = (1.0f32, 1000.0f32);
    let adamw = AdamWConfig { eps, weight_decay: 0.0, ..AdamWConfig::default() };

    for dp in [1, 2] {
        let topo = SwipeTopology::new(dp, 4, 1, 2, 2);
        let swipe_cfg = SwipeConfig { gas: 2, n_steps: 1, lr, seed: 31, adamw, ..SwipeConfig::new(topo) };
        let sched = schedule(1, dp, 2, 8);
        let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights)
            .expect("fault-free run");
        let (_, want) = reference_grads(&reference, &source, &sched[0], &weights, 31, 0);

        let mut worst = (0.0f32, String::new());
        for (_, name, p0) in reference.store.iter() {
            let got = p0.zip_map(&report.final_params[name], |a, b| {
                let d = (a - b) / lr;
                eps * d / (1.0 - d.abs())
            });
            let g = &want[name];
            let err = got.max_abs_diff(g) / g.abs_max().max(f32::MIN_POSITIVE);
            if err >= worst.0 {
                worst = (err, name.to_string());
            }
        }
        eprintln!("dp={dp}: worst gradient deviation {:.2e} ({})", worst.0, worst.1);
        let (err, name) = worst;
        assert!(err < 1e-4, "dp={dp}: gradient of {name} deviates by {err:.2e} of its abs max");
    }
}

/// The distributed step as a contract: one `DistributedTrainer::train` call
/// at DP 2, WP 1×2, SP 2 (Ulysses, the window exchange, the allreduce and
/// ZeRO-1 all run), gas 2, two steps, on a reference whose AdaLN heads and
/// decoder are nudged off zero (so every block's attention gets a gradient
/// from the first step), hashes the losses and every final parameter (names
/// sorted) to one pinned FNV-1a digest. The equivalence tests above compare
/// within tolerances and the benchmark's `loss_digest` sees only losses;
/// this sees a single gradient bit that moves a parameter.
#[test]
fn distributed_step_is_pinned_bitwise() {
    let cfg = tiny_cfg();
    let source = InMemorySource { samples: random_samples(8, cfg.tokens(), cfg.channels) };
    let weights = weights_for(&cfg);
    let mut reference = AerisModel::new(cfg.clone());
    let mut rng = Rng::seed_from(21);
    let heads = reference.blocks.iter().map(|b| b.adaln.head).chain([reference.decode]);
    for id in heads.flat_map(|lin| [lin.w, lin.b.expect("bias")]).collect::<Vec<_>>() {
        let nudge = Tensor::randn(reference.store.get(id).shape(), &mut rng).scale(0.05);
        reference.store.get_mut(id).add_assign(&nudge);
    }
    let topo = SwipeTopology::new(2, 4, 1, 2, 2);
    let swipe_cfg = SwipeConfig { gas: 2, n_steps: 2, lr: 1e-3, seed: 5, ..SwipeConfig::new(topo) };
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &schedule(2, 2, 2, 8), &weights)
        .expect("fault-free run");

    let fnv = |h: u64, bits: u64| (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
    let mut h = report.losses.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, l| fnv(h, l.to_bits()));
    let mut names: Vec<&String> = report.final_params.keys().collect();
    names.sort();
    assert_eq!(names.len(), reference.store.len(), "every parameter comes back");
    for name in names {
        h = name.bytes().fold(h, |h, b| fnv(h, b as u64));
        h = report.final_params[name].data().iter().fold(h, |h, x| fnv(h, x.to_bits() as u64));
    }
    assert_eq!(h, 0x22cb_6a7d_b780_7f4d, "got {h:#x}");
}
