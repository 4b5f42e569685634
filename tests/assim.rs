//! Tier-1 data-assimilation integration: the observation → guidance →
//! analysis chain end to end, plus its serving tier.
//!
//! Verifies the subsystem's load-bearing contracts:
//! - a dense station network with observation-consistency guidance yields
//!   strictly lower analysis RMSE than the unguided baseline (and than a
//!   sparse network) on the toy model;
//! - zero-weight guidance reproduces the plain `forecast_step` trajectory
//!   bitwise, for both solver orders;
//! - the observation operator and its adjoint satisfy ⟨Hx, y⟩ = ⟨x, Hᵀy⟩;
//! - observation sampling and every ensemble fan-out (analysis, GenCast
//!   analog, numerical) equal the direct per-member calls bitwise at 1 and 8
//!   worker threads;
//! - a `NowcastRequest` served through `aeris-serve` matches a direct
//!   `nowcast_member` call bitwise, and replaying it hits the rollout cache.

use aeris::assim::{
    nowcast_ensemble, nowcast_member, nowcast_step, GuidanceSchedule, ObsOperator,
};
use aeris::baselines::{numerical_ensemble, GenCastAnalog};
use aeris::core::{member_rng, AerisConfig, AerisModel, Forecaster, Workspace};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::{Grid, NormStats, ToyAtmosphere, ToyParams, VariableSet};
use aeris::evaluation::{analysis_quality, AssimEvalConfig};
use aeris::serve::{Forcings, NowcastRequest, ServeConfig, ServeEngine};
use aeris::tensor::{Rng, Tensor};
use proptest::prelude::*;
use std::sync::Arc;

fn forecaster(second_order: bool) -> Arc<Forecaster> {
    let cfg = AerisConfig::test_tiny();
    let channels = cfg.channels;
    let model = AerisModel::new(cfg);
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    Arc::new(Forecaster {
        model,
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 4, churn: 0.0, second_order },
        ),
    })
}

/// Background/truth pair: truth is the background plus a smooth-ish
/// perturbation, the regime a nowcast corrects.
fn scene(seed: u64) -> (Arc<Tensor>, Tensor) {
    let mut rng = Rng::seed_from(seed);
    let background = Arc::new(Tensor::randn(&[128, 4], &mut rng));
    let truth = background.add(&Tensor::randn(&[128, 4], &mut rng).scale(0.5));
    (background, truth)
}

/// Acceptance criterion: guided analysis with a dense network beats the
/// unguided baseline, and densifying the network helps monotonically at the
/// endpoints of the sweep.
#[test]
fn dense_guidance_strictly_beats_unguided_analysis() {
    let fc = forecaster(true);
    let grid = Grid::new(8, 16);
    let (background, truth) = scene(301);
    let forc = Tensor::zeros(&[128, 3]);
    let cfg = AssimEvalConfig {
        densities: vec![8, 120],
        noise_levels: vec![0.1],
        channels_obs: vec![0, 1, 2, 3],
        schedule: GuidanceSchedule::Constant(0.02),
        n_members: 2,
        seed: 91,
    };
    let pts = analysis_quality(&fc, &grid, &background, &truth, &forc, &cfg);
    let (sparse, dense) = (&pts[0], &pts[1]);
    assert!(
        dense.guided_rmse < dense.unguided_rmse,
        "dense guided RMSE {} must be strictly below unguided {}",
        dense.guided_rmse,
        dense.unguided_rmse
    );
    assert!(
        dense.guided_rmse < sparse.guided_rmse,
        "densifying the network must help: dense {} vs sparse {}",
        dense.guided_rmse,
        sparse.guided_rmse
    );
}

/// Acceptance criterion: guidance with zero scheduled weight is bitwise
/// invisible — the guided entry point reproduces `forecast_step` exactly,
/// under both the first- and second-order solvers.
#[test]
fn zero_weight_guidance_reproduces_forecast_step_bitwise() {
    for second_order in [false, true] {
        let fc = forecaster(second_order);
        let grid = Grid::new(8, 16);
        let (background, truth) = scene(302);
        let forc = Tensor::zeros(&[128, 3]);
        let op = ObsOperator::stations(&grid, 48, &[0, 2], &[0.4; 4], 11);
        let obs = Arc::new(op.observe(&truth, 0.1, 12));
        for sched in [GuidanceSchedule::off(), GuidanceSchedule::Ramp { start: 0.0, end: 0.0 }] {
            let analysis = nowcast_member(&fc, &background, &forc, &obs, sched, 77, 3);
            let mut rng = Rng::seed_from(77).stream(4);
            let plain = fc.forecast_step(&background, &forc, &mut rng);
            assert_eq!(
                analysis.data(),
                plain.data(),
                "zero-weight guidance changed bits (second_order={second_order})"
            );
        }
    }
}

/// Observation sampling and every ensemble fan-out — analysis, GenCast
/// analog, numerical — must not depend on the worker-pool width: member `m`
/// is the same call made directly on `member_rng(seed, m)`, at 1 and 8
/// threads.
#[test]
fn observations_and_analyses_are_bitwise_identical_across_thread_counts() {
    let fc = forecaster(true);
    let grid = Grid::new(8, 16);
    let (background, truth) = scene(303);
    let forc = Tensor::zeros(&[128, 3]);
    let forc_at = |_k: usize| Tensor::zeros(&[128, 3]);
    let sched = GuidanceSchedule::Constant(0.03);
    let observe = || {
        let op = ObsOperator::satellite_track(&grid, 96, 3, 70.0, &[0, 1], &[0.5; 4], 21);
        Arc::new(op.observe(&truth, 0.15, 22))
    };
    let stats = NormStats { mean: vec![0.0; 4], std: vec![1.0; 4] };
    let gencast = GenCastAnalog {
        n_sample_steps: 3,
        ..GenCastAnalog::new(AerisModel::new(AerisConfig::test_tiny()), stats.clone(), stats)
    };
    let mut sim = ToyAtmosphere::new(ToyParams { nlat: 8, nlon: 16, seed: 5, ..Default::default() });
    sim.spinup(5);
    let vars = VariableSet::default_toy();

    // The pool-free references: one direct call per member.
    let obs = observe();
    let direct_analyses: Vec<Tensor> = (0..3)
        .map(|m| nowcast_step(&fc, &mut Workspace::default(), &background, &forc, &obs, sched, &mut member_rng(55, m)))
        .collect();
    let direct_gencast: Vec<Vec<Tensor>> =
        (0..3).map(|m| gencast.rollout(&background, &forc_at, 2, &mut member_rng(56, m))).collect();
    let direct_numerical: Vec<Vec<Tensor>> = (0..3usize)
        .map(|m| {
            let mut member = sim.clone();
            member.perturb(0.5, &mut member_rng(57, m));
            member.reseed_stochastic(57 ^ (m as u64).wrapping_mul(0x9E3779B97F4A7C15));
            (0..2)
                .map(|_| {
                    member.step();
                    member.render(&vars)
                })
                .collect()
        })
        .collect();

    for width in [1, 8] {
        rayon::set_thread_override(Some(width));
        let obs_at_width = observe();
        let analyses = nowcast_ensemble(&fc, &background, &forc, &obs_at_width, sched, 3, 55);
        let gencast_members = gencast.ensemble(&background, &forc_at, 2, 3, 56);
        let numerical_members = numerical_ensemble(&sim, &vars, 2, 3, 0.5, 57);
        rayon::set_thread_override(None);
        assert_eq!(*obs_at_width, *obs, "observation sampling must be thread-count pure");
        assert_eq!(analyses.members, direct_analyses, "analysis members at {width} threads");
        assert_eq!(gencast_members, direct_gencast, "GenCast members at {width} threads");
        assert_eq!(numerical_members, direct_numerical, "numerical members at {width} threads");
    }
}

/// Acceptance criterion: the serving tier is transparent — a
/// `NowcastRequest` answered by the engine matches direct `nowcast_member`
/// calls bitwise, and an exact replay is answered from the rollout cache.
#[test]
fn served_nowcast_is_bitwise_and_replay_hits_cache() {
    let fc = forecaster(true);
    let engine = ServeEngine::start(Arc::clone(&fc), ServeConfig::default());
    let grid = Grid::new(8, 16);
    let (background, truth) = scene(304);
    let op = ObsOperator::stations(&grid, 64, &[0, 1], &[0.3; 4], 31);
    let obs = Arc::new(op.observe(&truth, 0.05, 32));
    let sched = GuidanceSchedule::Ramp { start: 0.01, end: 0.05 };
    let request = || NowcastRequest {
        background: (*background).clone(),
        forcings: Forcings::Zeros { channels: 3 },
        observations: Arc::clone(&obs),
        schedule: sched,
        n_members: 3,
        seed: 99,
        deadline: None,
        tenant: None,
        tier: None,
    };
    let served = engine.submit_nowcast(request()).expect("admitted").wait().expect("served");
    assert_eq!(served.forecast.members.len(), 3);
    let forc = Tensor::zeros(&[128, 3]);
    for (m, member) in served.forecast.members.iter().enumerate() {
        let direct = nowcast_member(&fc, &background, &forc, &obs, sched, 99, m);
        assert_eq!(member[0].data(), direct.data(), "served member {m} ≠ direct call");
    }
    let replay = engine.submit_nowcast(request()).expect("admitted").wait().expect("served");
    assert_eq!(replay.computed_steps, 0, "replay must be fully cached");
    assert_eq!(replay.cache_hits, 3);
    for (a, b) in replay.forecast.members.iter().zip(&served.forecast.members) {
        assert_eq!(a[0].data(), b[0].data(), "cached replay changed bits");
    }
    let report = engine.shutdown();
    assert_eq!(report.nowcasts, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Adjoint consistency: ⟨Hx, y⟩ = ⟨x, Hᵀy⟩ for random fields, random
    /// observation vectors, and random station networks.
    #[test]
    fn operator_and_adjoint_are_consistent(
        seed in 0u64..1000,
        n_stations in 1usize..100,
    ) {
        let grid = Grid::new(8, 16);
        let op = ObsOperator::stations(&grid, n_stations, &[0, 1, 3], &[0.5; 4], seed);
        let mut rng = Rng::seed_from(seed ^ 0xAD70);
        let x = Tensor::randn(&[128, 4], &mut rng);
        let y = Tensor::randn(&[op.n_obs()], &mut rng);
        let hx = op.forward(&x);
        let hty = op.adjoint(&y);
        let lhs: f64 = hx.data().iter().zip(y.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 =
            x.data().iter().zip(hty.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!(
            ((lhs - rhs) / scale).abs() < 1e-6,
            "⟨Hx,y⟩ = {lhs} vs ⟨x,Hᵀy⟩ = {rhs}"
        );
    }

    /// Zero scheduled weight is bitwise invisible for any member seed and
    /// either solver order: `Guidance::nudge` returning `None` keeps the
    /// original solver arithmetic, down to the last ULP.
    #[test]
    fn zero_weight_guidance_is_bitwise_off_for_any_seed(
        seed in 0u64..1000,
        member in 0usize..4,
        second_order in proptest::bool::ANY,
    ) {
        let fc = forecaster(second_order);
        let grid = Grid::new(8, 16);
        let (background, truth) = scene(seed ^ 0x5CE);
        let forc = Tensor::zeros(&[128, 3]);
        let op = ObsOperator::stations(&grid, 24, &[0, 1], &[0.5; 4], seed);
        let obs = Arc::new(op.observe(&truth, 0.1, seed ^ 0x7));
        let analysis =
            nowcast_member(&fc, &background, &forc, &obs, GuidanceSchedule::off(), seed, member);
        let mut rng = Rng::seed_from(seed).stream(member as u64 + 1);
        let plain = fc.forecast_step(&background, &forc, &mut rng);
        prop_assert_eq!(analysis.data(), plain.data(), "bits diverged");
    }

    /// Observation sets are seed-pure: the same (network, truth, seed)
    /// triple always produces identical values and masks, and different
    /// seeds produce different noise.
    #[test]
    fn observation_sampling_is_seed_deterministic(seed in 0u64..1000) {
        let grid = Grid::new(8, 16);
        let op = ObsOperator::stations(&grid, 24, &[0, 1], &[0.5; 4], seed);
        let mut rng = Rng::seed_from(seed ^ 0x0B5);
        let truth = Tensor::randn(&[128, 4], &mut rng);
        let a = op.observe(&truth, 0.2, seed);
        let b = op.observe(&truth, 0.2, seed);
        prop_assert_eq!(&a, &b, "same seed must reproduce the observation set");
        let c = op.observe(&truth, 0.2, seed ^ 0x5EED);
        prop_assert_ne!(&a.values, &c.values, "different seeds must draw different noise");
    }
}
