use super::*;
use crate::api::{ForecastRequest, NowcastRequest};
use aeris_core::AerisConfig;
use aeris_obs::{SloConfig, SloVerdict};
use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::NormStats;

fn tiny_forecaster() -> Arc<Forecaster> {
    let cfg = AerisConfig::test_tiny();
    let channels = cfg.channels;
    let model = aeris_core::AerisModel::new(cfg);
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    Arc::new(Forecaster {
        model,
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 2, churn: 0.1, second_order: false },
        ),
    })
}

fn tiny_student(fc: &Forecaster) -> Arc<ConsistencyStudent> {
    // A teacher-copy student (zero distillation steps) keeps the tests
    // fast; the serving engine only cares that it is *a* one-step model.
    Arc::new(ConsistencyStudent {
        model: fc.replicate().model,
        stats: fc.stats.clone(),
        res_stats: fc.res_stats.clone(),
        tf: fc.sampler.tf,
    })
}

fn request(seed: u64, steps: usize, n_members: usize) -> ForecastRequest {
    let mut rng = Rng::seed_from(seed ^ 0xDECAF);
    ForecastRequest {
        init: Tensor::randn(&[128, 4], &mut rng),
        forcings: Forcings::Zeros { channels: 3 },
        steps,
        n_members,
        seed,
        deadline: None,
        tenant: None,
        tier: None,
    }
}

#[test]
fn served_forecast_matches_direct_ensemble_bitwise() {
    let fc = tiny_forecaster();
    let engine = ServeEngine::start(Arc::clone(&fc), ServeConfig::default());
    let req = request(40, 3, 2);
    let direct = fc.ensemble(&req.init, &|_k| Tensor::zeros(&[128, 3]), 3, 2, 40);
    let resp = engine.submit(req).expect("admitted").wait().expect("served");
    assert_eq!(resp.forecast.members, direct.members, "served ≠ direct ensemble");
    assert_eq!(resp.computed_steps, 6);
    assert_eq!(resp.cache_hits, 0);
    assert_eq!(resp.tier, Tier::Quality, "no deadline, no explicit tier ⇒ quality");
}

#[test]
fn identical_requests_reuse_the_cache_bitwise() {
    let fc = tiny_forecaster();
    let engine = ServeEngine::start(fc, ServeConfig::default());
    let first = engine.submit(request(41, 4, 2)).expect("admitted").wait().expect("served");
    // Bitwise-equal replay, zero model evaluations.
    let second = engine.submit(request(41, 4, 2)).expect("admitted").wait().expect("served");
    assert_eq!(second.forecast.members, first.forecast.members);
    assert_eq!(second.cache_hits, 8, "full prefix reuse");
    assert_eq!(second.computed_steps, 0);
    // An extended horizon reuses the prefix and computes only the tail.
    let longer = engine.submit(request(41, 6, 2)).expect("admitted").wait().expect("served");
    assert_eq!(longer.cache_hits, 8);
    assert_eq!(longer.computed_steps, 4);
    for (m, member) in first.forecast.members.iter().enumerate() {
        assert_eq!(&longer.forecast.members[m][..4], &member[..], "prefix diverged");
    }
    let stats = engine.status().cache.expect("cache always reported");
    assert!(stats.hits >= 8, "cache hits {stats:?}");
}

#[test]
fn fast_tier_matches_direct_student_ensemble_bitwise() {
    let fc = tiny_forecaster();
    let student = tiny_student(&fc);
    // Engines with different worker counts and batch bounds must produce
    // the same bits, for forecasts and for one nowcast per tier riding in
    // the same batches: scheduling moves time, not numbers.
    let mut req = request(42, 3, 2);
    req.tier = Some(Tier::Fast);
    let direct = student.ensemble(&req.init, &|_k| Tensor::zeros(&[128, 3]), 3, 2, 42);
    let sched = GuidanceSchedule::Constant(0.4);
    let mut fast_now = nowcast_request(43, sched);
    fast_now.tier = Some(Tier::Fast);
    let quality_now = nowcast_request(44, sched);
    let forc = Tensor::zeros(&[128, 3]);
    let direct_now = |r: &NowcastRequest, m: usize| {
        let bg = Arc::new(r.background.clone());
        match r.tier {
            Some(Tier::Fast) => aeris_assim::nowcast_member_fast(
                &student, &bg, &forc, &r.observations, sched, r.seed, m,
            ),
            _ => aeris_assim::nowcast_member(&fc, &bg, &forc, &r.observations, sched, r.seed, m),
        }
    };
    for (workers, max_batch) in [(1usize, 1usize), (3, 2), (2, 8)] {
        let engine = ServeEngine::start_two_tier(
            Arc::clone(&fc),
            Arc::clone(&student),
            ServeConfig { workers, fast_workers: workers, max_batch, ..ServeConfig::default() },
        );
        // Build the whole backlog before any worker pulls, so batches mix
        // forecast and nowcast member-steps up to `max_batch`.
        engine.hold_dispatch();
        let forecast = engine.submit(req.clone()).expect("admitted");
        let nowcasts = [&fast_now, &quality_now]
            .map(|r| (r, engine.submit_nowcast(r.clone()).expect("admitted")));
        engine.release_dispatch();
        let resp = forecast.wait().expect("served");
        assert_eq!(resp.tier, Tier::Fast);
        assert_eq!(
            resp.forecast.members, direct,
            "fast tier ≠ direct student ensemble ({workers} workers, max_batch {max_batch})"
        );
        for (r, ticket) in nowcasts {
            let resp = ticket.wait().expect("served");
            for (m, member) in resp.forecast.members.iter().enumerate() {
                assert_eq!(
                    member[0],
                    direct_now(r, m),
                    "{:?} nowcast member {m} ≠ direct call ({workers} workers, max_batch {max_batch})",
                    resp.tier
                );
            }
        }
    }
}

#[test]
fn fast_and_quality_cache_namespaces_never_alias() {
    let fc = tiny_forecaster();
    let student = tiny_student(&fc);
    let engine = ServeEngine::start_two_tier(fc, student, ServeConfig::default());
    let quality = engine.submit(request(43, 2, 2)).expect("admitted").wait().unwrap();
    let mut fast_req = request(43, 2, 2);
    fast_req.tier = Some(Tier::Fast);
    let fast = engine.submit(fast_req).expect("admitted").wait().unwrap();
    // Same init/seed/steps, different tier: the fast response must be
    // computed (not cache-aliased) and numerically different.
    assert_eq!(fast.cache_hits, 0, "fast tier must not read quality entries");
    assert_ne!(fast.forecast.members, quality.forecast.members);
}

#[test]
fn explicit_fast_without_student_is_a_typed_error() {
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
    let mut req = request(44, 1, 1);
    req.tier = Some(Tier::Fast);
    assert!(matches!(engine.submit(req), Err(ServeError::BadRequest(_))));
    // Routing never picks fast on a quality-only engine either.
    let mut tight = request(45, 1, 1);
    tight.deadline = Some(Duration::from_secs(3600));
    let resp = engine.submit(tight).expect("admitted").wait().expect("served");
    assert_eq!(resp.tier, Tier::Quality);
}

#[test]
fn tight_slack_routes_fast_loose_routes_quality() {
    let fc = tiny_forecaster();
    let student = tiny_student(&fc);
    let engine = ServeEngine::start_two_tier(fc, student, ServeConfig::default());
    // Default router floor is 250 ms; a 10 s budget on a cold estimator
    // stays on quality, a 200 ms budget must go fast.
    let mut tight = request(46, 1, 1);
    tight.deadline = Some(Duration::from_millis(200));
    let t = engine.submit(tight).expect("admitted");
    assert_eq!(t.tier(), Tier::Fast);
    assert_eq!(t.wait().expect("served").tier, Tier::Fast);
    let mut loose = request(47, 1, 1);
    loose.deadline = Some(Duration::from_secs(10));
    assert_eq!(engine.submit(loose).expect("admitted").tier(), Tier::Quality);
    let report = engine.shutdown();
    assert_eq!(report.tier(Tier::Fast).completed, 1);
    assert_eq!(report.tier(Tier::Quality).completed, 1);
}

#[test]
fn wait_for_times_out_then_succeeds() {
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
    engine.hold_dispatch();
    let ticket = engine.submit(request(48, 2, 1)).expect("admitted");
    let err = ticket.wait_for(Duration::from_millis(20)).err().expect("must time out");
    assert_eq!(err, ServeError::WaitTimeout { req: ticket.id() });
    engine.release_dispatch();
    // The request was not cancelled: a later bounded wait succeeds.
    let resp = ticket.wait_for(Duration::from_secs(30)).expect("served after release");
    assert_eq!(resp.forecast.members.len(), 1);
}

#[test]
fn quotas_deny_over_budget_tenants_with_typed_errors() {
    use aeris_sched::{QuotaConfig, TenantPolicy};
    let engine = ServeEngine::start(
        tiny_forecaster(),
        ServeConfig {
            quota: Some(QuotaConfig {
                // 4 member-steps of burst, no refill to speak of.
                default: TenantPolicy { weight: 1.0, rate: 1e-9, burst: 4.0 },
                overrides: vec![(
                    Arc::from("vip"),
                    TenantPolicy { weight: 4.0, rate: 0.0, burst: 0.0 },
                )],
            }),
            ..ServeConfig::default()
        },
    );
    // 2 steps × 2 members = 4 units: first request drains the bucket.
    let mut first = request(49, 2, 2);
    first.tenant = Some(Arc::from("acme"));
    engine.submit(first).expect("admitted").wait().expect("served");
    let mut second = request(50, 2, 2);
    second.tenant = Some(Arc::from("acme"));
    let err = engine.submit(second).err().expect("bucket empty");
    assert_eq!(err, ServeError::QuotaExceeded { tenant: "acme".into() });
    // The vip override is unlimited (rate ≤ 0).
    let mut vip = request(51, 2, 2);
    vip.tenant = Some(Arc::from("vip"));
    engine.submit(vip).expect("admitted").wait().expect("served");
    let report = engine.shutdown();
    assert_eq!(report.quota_denied, 1);
    assert_eq!(report.tenant("acme").quota_denied, 1);
    assert_eq!(report.tenant("acme").completed, 1);
    assert_eq!(report.tenant("vip").completed, 1);
}

#[test]
fn zero_capacity_rejects_with_queue_full() {
    let engine = ServeEngine::start(
        tiny_forecaster(),
        ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
    );
    let err = engine.submit(request(1, 1, 1)).err().expect("must reject");
    assert_eq!(err, ServeError::QueueFull { capacity: 0 });
    assert_eq!(engine.shutdown().tenant("public").rejected, 1);
}

#[test]
fn stop_accepting_rejects_with_shutdown() {
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
    engine.stop_accepting();
    assert_eq!(engine.submit(request(1, 1, 1)).err(), Some(ServeError::Shutdown));
}

#[test]
fn malformed_requests_fail_typed() {
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
    let mut bad_shape = request(1, 1, 1);
    bad_shape.init = Tensor::zeros(&[64, 4]);
    assert!(matches!(engine.submit(bad_shape), Err(ServeError::BadRequest(_))));
    let mut zero_steps = request(1, 1, 1);
    zero_steps.steps = 0;
    assert!(matches!(engine.submit(zero_steps), Err(ServeError::BadRequest(_))));
    let mut short_table = request(1, 3, 1);
    short_table.forcings = Forcings::Table(Arc::new(vec![Tensor::zeros(&[128, 3]); 2]));
    assert!(matches!(engine.submit(short_table), Err(ServeError::BadRequest(_))));
    let mut bad_channels = request(1, 1, 1);
    bad_channels.forcings = Forcings::Zeros { channels: 5 };
    assert!(matches!(engine.submit(bad_channels), Err(ServeError::BadRequest(_))));
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut non_finite = request(1, 1, 1);
        non_finite.init.data_mut()[7] = poison;
        assert!(matches!(engine.submit(non_finite), Err(ServeError::BadRequest(_))));
    }
    // Nothing malformed was admitted, cached, or counted against a tenant.
    assert_eq!(engine.status().cache.expect("cache always reported").entries, 0);
    let report = engine.shutdown();
    report.verify_accounting().expect("conservation");
    assert_eq!(report.tenant("public").submitted, 0);
}

#[test]
fn zero_deadline_requests_are_shed_at_admission() {
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
    let mut req = request(50, 4, 2);
    req.deadline = Some(Duration::ZERO);
    let err = engine.submit(req).err().expect("must shed at admission");
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
    // The engine still drains cleanly afterwards.
    let report = engine.shutdown();
    assert_eq!(report.completed, 0);
    assert_eq!(report.shed, 1);
}

#[test]
fn fully_cached_requests_survive_expired_deadlines() {
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
    engine.submit(request(51, 3, 2)).expect("admitted").wait().expect("served");
    // Same request with a spent budget: answered entirely from cache, so
    // it is not shed — it costs no model evaluations.
    let mut warm = request(51, 3, 2);
    warm.deadline = Some(Duration::ZERO);
    let resp = engine.submit(warm).expect("admitted").wait().expect("served from cache");
    assert_eq!(resp.computed_steps, 0);
    assert_eq!(resp.cache_hits, 6);
    // An uncached request with the same spent budget is shed up front.
    let mut cold = request(52, 3, 2);
    cold.deadline = Some(Duration::ZERO);
    assert!(matches!(engine.submit(cold), Err(ServeError::DeadlineExceeded { .. })));
    let report = engine.shutdown();
    assert_eq!(report.completed, 2);
    assert_eq!(report.shed, 1);
}

fn nowcast_request(seed: u64, schedule: GuidanceSchedule) -> NowcastRequest {
    let grid = aeris_earthsim::Grid::new(8, 16);
    let mut rng = Rng::seed_from(seed ^ 0x0B5);
    let background = Tensor::randn(&[128, 4], &mut rng);
    let truth = Tensor::randn(&[128, 4], &mut rng);
    let op = aeris_assim::ObsOperator::stations(&grid, 24, &[0, 1], &[0.5; 4], seed);
    NowcastRequest {
        background,
        forcings: Forcings::Zeros { channels: 3 },
        observations: Arc::new(op.observe(&truth, 0.1, seed ^ 0x7)),
        schedule,
        n_members: 2,
        seed,
        deadline: None,
        tenant: None,
        tier: None,
    }
}

#[test]
fn served_nowcast_matches_direct_guided_call_bitwise() {
    let fc = tiny_forecaster();
    let engine = ServeEngine::start(Arc::clone(&fc), ServeConfig::default());
    let sched = GuidanceSchedule::Ramp { start: 0.0, end: 0.4 };
    let req = nowcast_request(70, sched);
    let bg = Arc::new(req.background.clone());
    let forc = Tensor::zeros(&[128, 3]);
    let resp = engine.submit_nowcast(req.clone()).expect("admitted").wait().expect("served");
    assert_eq!(resp.forecast.members.len(), 2);
    for (m, member) in resp.forecast.members.iter().enumerate() {
        assert_eq!(member.len(), 1, "nowcasts are one analysis step");
        let direct = aeris_assim::nowcast_member(
            &fc, &bg, &forc, &req.observations, sched, 70, m,
        );
        assert_eq!(member[0], direct, "served nowcast member {m} ≠ direct guided call");
    }
    let report = engine.shutdown();
    assert_eq!(report.nowcasts, 1);
    assert_eq!(report.metrics.nowcast_latency_ms.count(), 1);
    assert_eq!(report.metrics.latency_ms.count(), 0, "forecast series untouched");
}

#[test]
fn served_fast_nowcast_matches_direct_fast_call_bitwise() {
    let fc = tiny_forecaster();
    let student = tiny_student(&fc);
    let engine =
        ServeEngine::start_two_tier(fc, Arc::clone(&student), ServeConfig::default());
    let sched = GuidanceSchedule::Constant(0.5);
    let mut req = nowcast_request(74, sched);
    req.tier = Some(Tier::Fast);
    let bg = Arc::new(req.background.clone());
    let forc = Tensor::zeros(&[128, 3]);
    let resp = engine.submit_nowcast(req.clone()).expect("admitted").wait().expect("served");
    assert_eq!(resp.tier, Tier::Fast);
    for (m, member) in resp.forecast.members.iter().enumerate() {
        let direct = aeris_assim::nowcast_member_fast(
            &student, &bg, &forc, &req.observations, sched, 74, m,
        );
        assert_eq!(member[0], direct, "served fast nowcast member {m} ≠ direct call");
    }
    let report = engine.shutdown();
    assert_eq!(report.tier(Tier::Fast).nowcasts, 1);
    assert_eq!(report.metrics.fast_nowcast_latency_ms.count(), 1);
}

#[test]
fn nowcast_replay_is_served_from_cache_keyed_on_obs_digest() {
    let fc = tiny_forecaster();
    let engine = ServeEngine::start(fc, ServeConfig::default());
    let sched = GuidanceSchedule::Constant(0.3);
    let first =
        engine.submit_nowcast(nowcast_request(71, sched)).expect("admitted").wait().unwrap();
    assert_eq!(first.computed_steps, 2);
    // Exact replay: fully cached.
    let replay =
        engine.submit_nowcast(nowcast_request(71, sched)).expect("admitted").wait().unwrap();
    assert_eq!(replay.computed_steps, 0);
    assert_eq!(replay.cache_hits, 2);
    assert_eq!(replay.forecast.members, first.forecast.members);
    // Different observations (different seed → different values/digest)
    // must NOT alias, despite the same background/seed/schedule.
    let mut other = nowcast_request(71, sched);
    other.observations =
        Arc::new((*nowcast_request(72, sched).observations).clone());
    let cold = engine.submit_nowcast(other).expect("admitted").wait().unwrap();
    assert_eq!(cold.cache_hits, 0, "obs digest must separate cache entries");
    assert_ne!(cold.forecast.members, first.forecast.members);
}

#[test]
fn off_schedule_nowcast_shares_cache_with_a_forecast() {
    let fc = tiny_forecaster();
    let engine = ServeEngine::start(Arc::clone(&fc), ServeConfig::default());
    let now = nowcast_request(73, GuidanceSchedule::off());
    // A 1-step forecast with the same init/seed is the same trajectory.
    let fr = ForecastRequest {
        init: now.background.clone(),
        forcings: Forcings::Zeros { channels: 3 },
        steps: 1,
        n_members: 2,
        seed: 73,
        deadline: None,
        tenant: None,
        tier: None,
    };
    let served = engine.submit(fr).expect("admitted").wait().unwrap();
    let cached = engine.submit_nowcast(now).expect("admitted").wait().unwrap();
    assert_eq!(cached.cache_hits, 2, "off-schedule nowcast reuses the forecast's entries");
    assert_eq!(cached.forecast.members, served.forecast.members);
}

#[test]
fn malformed_nowcasts_fail_typed() {
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
    let sched = GuidanceSchedule::Constant(0.2);
    let mut bad_shape = nowcast_request(1, sched);
    bad_shape.background = Tensor::zeros(&[64, 4]);
    assert!(matches!(engine.submit_nowcast(bad_shape), Err(ServeError::BadRequest(_))));
    let mut bad_geom = nowcast_request(1, sched);
    let mut obs = (*bad_geom.observations).clone();
    obs.tokens = 64;
    bad_geom.observations = Arc::new(obs);
    assert!(matches!(engine.submit_nowcast(bad_geom), Err(ServeError::BadRequest(_))));
    let mut bad_site = nowcast_request(1, sched);
    let mut obs = (*bad_site.observations).clone();
    obs.sites[0].token = obs.tokens + 1;
    bad_site.observations = Arc::new(obs);
    assert!(matches!(engine.submit_nowcast(bad_site), Err(ServeError::BadRequest(_))));
    let mut bad_noise = nowcast_request(1, sched);
    let mut obs = (*bad_noise.observations).clone();
    obs.noise_std[0] = 0.0;
    bad_noise.observations = Arc::new(obs);
    assert!(matches!(engine.submit_nowcast(bad_noise), Err(ServeError::BadRequest(_))));
    let mut zero_members = nowcast_request(1, sched);
    zero_members.n_members = 0;
    assert!(matches!(engine.submit_nowcast(zero_members), Err(ServeError::BadRequest(_))));
    let mut nan_background = nowcast_request(1, sched);
    nan_background.background.data_mut()[3] = f32::NAN;
    assert!(matches!(engine.submit_nowcast(nan_background), Err(ServeError::BadRequest(_))));
    let mut inf_obs = nowcast_request(1, sched);
    let mut obs = (*inf_obs.observations).clone();
    let present = obs.mask.iter().position(|&p| p).expect("a present observation");
    obs.values[present] = f32::INFINITY;
    inf_obs.observations = Arc::new(obs);
    assert!(matches!(engine.submit_nowcast(inf_obs), Err(ServeError::BadRequest(_))));
    // A non-finite value under the missing-data mask is never read: admitted.
    let mut masked_nan = nowcast_request(1, sched);
    let mut obs = (*masked_nan.observations).clone();
    obs.mask[present] = false;
    obs.values[present] = f32::NAN;
    masked_nan.observations = Arc::new(obs);
    let resp = engine.submit_nowcast(masked_nan).expect("admitted").wait().expect("served");
    assert!(resp.forecast.members.iter().all(|m| m[0].all_finite()));
    let report = engine.shutdown();
    report.verify_accounting().expect("conservation");
    assert_eq!((report.tenant("public").submitted, report.completed), (1, 1));
}

#[test]
fn shutdown_drains_and_reports() {
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig::default());
    let tickets: Vec<Ticket> =
        (0..3).map(|i| engine.submit(request(60 + i, 2, 1)).expect("admitted")).collect();
    let report = engine.shutdown();
    // Every admitted ticket resolved (shutdown drained them first).
    for t in &tickets {
        assert!(t.wait().is_ok());
    }
    assert_eq!(report.completed, 3);
    assert_eq!(report.tier(Tier::Quality).completed, 3);
    assert_eq!(report.tenant("public").completed, 3);
    assert_eq!(report.metrics.latency_ms.count(), 3);
    assert!(report.metrics.batch_size.count() > 0);
    report.verify_accounting().expect("conservation");
    assert_eq!(report.tier(Tier::Quality).admitted, 3);
    assert_eq!(report.tenant("public").submitted, 3);
    assert_eq!(report.tenant("public").admitted, 3);
    assert!(report.slo.is_none(), "no objective configured");
}

/// A permissive objective for tests: sample-count windows small enough
/// to flip deterministically, every completion good (huge latency bound).
fn test_slo() -> SloConfig {
    SloConfig {
        latency_ms: 1e9,
        target: 0.5,
        short_window: 2,
        long_window: 8,
        warn_burn: 1.0,
        page_burn: 1.9,
    }
}

#[test]
fn slo_verdicts_flip_deterministically_and_surface_in_the_report() {
    let engine = ServeEngine::start(
        tiny_forecaster(),
        ServeConfig { slo: Some(test_slo()), ..ServeConfig::default() },
    );
    // 8 synchronous good completions fill the long window: Ok.
    for i in 0..8u64 {
        engine.submit(request(200 + i, 1, 1)).expect("admitted").wait().expect("served");
        assert_eq!(engine.status().tiers[0].slo.unwrap().verdict, SloVerdict::Ok);
    }
    // `wait` can return a beat before the worker records the outcome;
    // drain so all 8 good observations precede the first bad one.
    engine.drain();
    // Zero-deadline submissions shed synchronously at admission (fresh
    // seeds keep them out of the cache), each one a bad outcome observed
    // on the client thread — so the flip points are exact:
    //   after k bad: short burn = min(k,2)/2 / 0.5, long = k/8 / 0.5.
    //   Warn needs both >= 1.0 => k >= 4; Page both >= 1.9 => k >= 8.
    for k in 1..=8u64 {
        let mut doomed = request(300 + k, 1, 1);
        doomed.deadline = Some(Duration::ZERO);
        assert!(matches!(
            engine.submit(doomed),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        let state = engine.status().tiers[0].slo.unwrap();
        let expect = if k >= 8 {
            SloVerdict::Page
        } else if k >= 4 {
            SloVerdict::Warn
        } else {
            SloVerdict::Ok
        };
        assert_eq!(state.verdict, expect, "after {k} sheds: {state}");
    }
    let report = engine.shutdown();
    report.verify_accounting().expect("conservation");
    let slo = report.slo.as_ref().expect("objective configured");
    assert_eq!(slo.tier(Tier::Quality).verdict, SloVerdict::Page);
    assert_eq!(slo.tier(Tier::Quality).good_total, 8);
    assert_eq!(slo.tier(Tier::Quality).total, 16);
    assert_eq!(slo.tier(Tier::Fast).total, 0, "fast tier saw no traffic");
    assert_eq!(slo.tenant("public").expect("tenant tracked").verdict, SloVerdict::Page);
    assert_eq!(report.tier(Tier::Quality).admitted, 16);
    assert_eq!(report.tier(Tier::Quality).shed, 8);
}

#[test]
fn slo_tracking_never_changes_served_bits() {
    let fc = tiny_forecaster();
    let engine = ServeEngine::start(
        Arc::clone(&fc),
        ServeConfig { slo: Some(test_slo()), ..ServeConfig::default() },
    );
    let req = request(90, 3, 2);
    let direct = fc.ensemble(&req.init, &|_k| Tensor::zeros(&[128, 3]), 3, 2, 90);
    let resp = engine.submit(req).expect("admitted").wait().expect("served");
    assert_eq!(resp.forecast.members, direct.members, "SLO wiring must be time-only");
}

#[test]
fn accounting_balances_across_every_rejection_path() {
    use aeris_sched::{QuotaConfig, TenantPolicy};
    let engine = ServeEngine::start(
        tiny_forecaster(),
        ServeConfig {
            queue_capacity: 1,
            quota: Some(QuotaConfig {
                default: TenantPolicy { weight: 1.0, rate: 1e-9, burst: 4.0 },
                overrides: ["vip", "vip-now"]
                    .map(|t| (Arc::from(t), TenantPolicy { weight: 1.0, rate: 0.0, burst: 0.0 }))
                    .to_vec(),
            }),
            ..ServeConfig::default()
        },
    );
    // Completed (drains acme's 4-token bucket)...
    let mut ok = request(80, 2, 2);
    ok.tenant = Some(Arc::from("acme"));
    engine.submit(ok).expect("admitted").wait().expect("served");
    // Free the single outstanding slot before the next submission (the
    // worker releases it a beat after `wait` returns).
    engine.drain();
    // ...quota-denied...
    let mut denied = request(81, 2, 2);
    denied.tenant = Some(Arc::from("acme"));
    assert!(matches!(engine.submit(denied), Err(ServeError::QuotaExceeded { .. })));
    // ...shed at admission (zero deadline, uncached)...
    let mut doomed = request(82, 2, 2);
    doomed.tenant = Some(Arc::from("vip"));
    doomed.deadline = Some(Duration::ZERO);
    assert!(matches!(engine.submit(doomed), Err(ServeError::DeadlineExceeded { .. })));
    // ...rejected on routing (explicit fast tier, no student)...
    let mut no_student = request(83, 1, 1);
    no_student.tenant = Some(Arc::from("vip"));
    no_student.tier = Some(Tier::Fast);
    assert!(matches!(engine.submit(no_student), Err(ServeError::BadRequest(_))));
    // ...rejected on a response size that overflows, before anything is
    // counted...
    for n_members in [1, 2] {
        let mut huge = request(86, 1, n_members);
        huge.steps = usize::MAX;
        huge.tenant = Some(Arc::from("vip"));
        assert!(matches!(engine.submit(huge), Err(ServeError::BadRequest(_))));
    }
    // ...rejected on a NaN / ±∞ in a forcing table entry it would read,
    // again before anything is counted...
    let poisoned = |k: usize, v: f32| {
        let mut table = vec![Tensor::zeros(&[128, 3]); 2];
        table[k].data_mut()[5] = v;
        Forcings::Table(Arc::new(table))
    };
    for (k, v) in [(1, f32::NAN), (0, f32::INFINITY), (1, f32::NEG_INFINITY)] {
        let mut bad = request(87, 2, 1);
        bad.forcings = poisoned(k, v);
        bad.tenant = Some(Arc::from("vip"));
        assert!(matches!(engine.submit(bad), Err(ServeError::BadRequest(_))), "forcing {v} at {k}");
    }
    // ...and rejected on a full queue (hold dispatch so a request pins
    // the single outstanding slot).
    engine.hold_dispatch();
    let held = engine.submit(request(84, 1, 1)).expect("admitted");
    let mut overflow = request(85, 1, 1);
    overflow.tenant = Some(Arc::from("vip"));
    assert!(matches!(engine.submit(overflow), Err(ServeError::QueueFull { .. })));
    engine.release_dispatch();
    held.wait().expect("served after release");
    engine.drain();
    // The same five outcomes again as nowcasts, billed to fresh tenants: one
    // admission path means the ledgers cannot tell the two kinds apart.
    let nowcast = |seed: u64, tenant: &str| {
        let mut r = nowcast_request(seed, GuidanceSchedule::Constant(0.3));
        r.tenant = Some(Arc::from(tenant));
        r
    };
    let mut ok = nowcast(180, "acme-now");
    ok.n_members = 4; // 1 step × 4 members drains the 4-token bucket
    engine.submit_nowcast(ok).expect("admitted").wait().expect("served");
    engine.drain();
    let denied = nowcast(181, "acme-now");
    assert!(matches!(engine.submit_nowcast(denied), Err(ServeError::QuotaExceeded { .. })));
    let mut doomed = nowcast(182, "vip-now");
    doomed.deadline = Some(Duration::ZERO);
    assert!(matches!(engine.submit_nowcast(doomed), Err(ServeError::DeadlineExceeded { .. })));
    let mut no_student = nowcast(183, "vip-now");
    no_student.tier = Some(Tier::Fast);
    assert!(matches!(engine.submit_nowcast(no_student), Err(ServeError::BadRequest(_))));
    let mut huge = nowcast(186, "vip-now");
    huge.n_members = usize::MAX;
    assert!(matches!(engine.submit_nowcast(huge), Err(ServeError::BadRequest(_))));
    for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut bad = nowcast(187, "vip-now");
        bad.forcings = poisoned(0, v);
        assert!(matches!(engine.submit_nowcast(bad), Err(ServeError::BadRequest(_))), "forcing {v}");
    }
    // A non-finite guidance weight is a nowcast-only validation error, counted
    // nowhere like the ones above, on the quality tier and on an explicit
    // fast one (which would otherwise be a counted routing rejection).
    let non_finite = [
        GuidanceSchedule::Constant(f32::NAN),
        GuidanceSchedule::Ramp { start: 0.0, end: f32::INFINITY },
    ];
    for (schedule, tier) in non_finite.into_iter().flat_map(|s| [(s, None), (s, Some(Tier::Fast))]) {
        let mut bad = nowcast_request(188, schedule);
        bad.tenant = Some(Arc::from("vip-now"));
        bad.tier = tier;
        let rejected = matches!(engine.submit_nowcast(bad), Err(ServeError::BadRequest(_)));
        assert!(rejected, "{schedule:?} on {tier:?}");
    }
    engine.hold_dispatch();
    let held = engine.submit_nowcast(nowcast(184, "holder-now")).expect("admitted");
    let overflow = nowcast(185, "vip-now");
    assert!(matches!(engine.submit_nowcast(overflow), Err(ServeError::QueueFull { .. })));
    engine.release_dispatch();
    held.wait().expect("served after release");
    let report = engine.shutdown();
    report.verify_accounting().expect("conservation");
    assert_eq!(report.tenant("acme-now"), report.tenant("acme"), "nowcast ≠ forecast ledger");
    assert_eq!(report.tenant("vip-now"), report.tenant("vip"), "nowcast ≠ forecast ledger");
    assert_eq!(report.nowcasts, 2);
    let acme = report.tenant("acme");
    assert_eq!((acme.submitted, acme.admitted, acme.quota_denied), (2, 1, 1));
    let vip = report.tenant("vip");
    assert_eq!(
        (vip.submitted, vip.admitted, vip.shed, vip.rejected),
        (3, 1, 1, 2),
        "{vip:?}"
    );
    assert_eq!(report.tenant("public").completed, 1);
}

#[test]
fn status_snapshot_reflects_live_engine_state() {
    let engine = ServeEngine::start(
        tiny_forecaster(),
        ServeConfig { slo: Some(test_slo()), ..ServeConfig::default() },
    );
    engine.submit(request(95, 2, 2)).expect("admitted").wait().expect("served");
    // `wait` can return a beat before the worker releases the
    // outstanding slot; drain blocks on the slot count itself.
    engine.drain();
    assert_eq!(engine.status().in_flight, 0);
    let status = engine.status();
    assert_eq!(status.in_flight, 0);
    assert_eq!(status.tiers.len(), 1, "quality-only engine");
    let q = &status.tiers[0];
    assert_eq!(q.name, "quality");
    assert_eq!((q.admitted, q.completed, q.shed), (1, 1, 0));
    assert!(q.est_samples > 0, "workers fed the estimator");
    assert!(q.queue_wait_ms.as_ref().is_some_and(|s| s.count >= 4), "4 member-steps waited");
    assert_eq!(q.slo.as_ref().unwrap().verdict, SloVerdict::Ok);
    assert_eq!(status.tenants.len(), 1);
    assert_eq!(status.tenants[0].name, "public");
    assert_eq!(status.tenants[0].quota_tokens, None, "no quota table");
    let cache = status.cache.expect("cache always reported");
    assert!(cache.entries > 0 && cache.bytes > 0);
    // The dashboard renders and mentions the tier and tenant.
    let text = status.to_string();
    assert!(text.contains("tier quality") && text.contains("tenant public"), "{text}");
}

#[test]
fn status_and_report_read_the_same_ledger() {
    use aeris_sched::{QuotaConfig, TenantPolicy};
    let fc = tiny_forecaster();
    let student = tiny_student(&fc);
    let engine = ServeEngine::start_two_tier(
        fc,
        student,
        ServeConfig {
            slo: Some(test_slo()),
            quota: Some(QuotaConfig {
                default: TenantPolicy { weight: 1.0, rate: 0.0, burst: 0.0 },
                overrides: vec![(
                    Arc::from("capped"),
                    TenantPolicy { weight: 1.0, rate: 1e-9, burst: 2.0 },
                )],
            }),
            ..ServeConfig::default()
        },
    );
    // A mixed load: forecasts and nowcasts on both tiers for three tenants,
    // one shed at admission and one quota denial.
    let sched = GuidanceSchedule::Constant(0.3);
    let mut tickets = Vec::new();
    for (i, tier) in [Tier::Quality, Tier::Fast, Tier::Fast].into_iter().enumerate() {
        let mut f = request(400 + i as u64, 2, 2);
        f.tier = Some(tier);
        f.tenant = Some(Arc::from("ops"));
        tickets.push(engine.submit(f).expect("admitted"));
        let mut n = nowcast_request(410 + i as u64, sched);
        n.tier = Some(tier);
        tickets.push(engine.submit_nowcast(n).expect("admitted"));
    }
    let mut doomed = request(420, 2, 1);
    doomed.deadline = Some(Duration::ZERO);
    doomed.tier = Some(Tier::Quality);
    assert!(matches!(engine.submit(doomed), Err(ServeError::DeadlineExceeded { .. })));
    let mut capped = nowcast_request(421, sched); // 2 member-steps: the whole bucket
    capped.tenant = Some(Arc::from("capped"));
    tickets.push(engine.submit_nowcast(capped.clone()).expect("admitted"));
    assert!(matches!(engine.submit_nowcast(capped), Err(ServeError::QuotaExceeded { .. })));
    for t in &tickets {
        t.wait().expect("served");
    }
    // `wait` returns a beat before the outcome is counted; drain does not.
    engine.drain();
    let status = engine.status();
    let report = engine.shutdown();
    report.verify_accounting().expect("conservation");
    let slo = report.slo.as_ref().expect("objective configured");

    assert_eq!(status.tiers.len(), 2);
    for tier in Tier::ALL {
        let live = status.tiers.iter().find(|t| t.name == tier.name()).expect("tier shown");
        let fin = report.tier(tier);
        assert_eq!(
            (live.admitted, live.completed, live.shed),
            (fin.admitted, fin.completed, fin.shed),
            "{} counters",
            tier.name()
        );
        assert_eq!(live.slo.as_ref(), Some(slo.tier(tier)), "{} slo", tier.name());
        assert!(fin.completed >= 2 && fin.nowcasts >= 1, "{}: {fin:?}", tier.name());
    }
    assert_eq!(report.tier(Tier::Quality).shed, 1);

    let names: Vec<&str> = status.tenants.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["capped", "ops", "public"]);
    assert_eq!(names, report.tenants.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>());
    for live in &status.tenants {
        let fin = report.tenant(&live.name);
        assert_eq!(
            (live.submitted, live.completed, live.shed, live.quota_denied, live.rejected),
            (fin.submitted, fin.completed, fin.shed, fin.quota_denied, fin.rejected),
            "tenant {}",
            live.name
        );
        assert_eq!(live.slo.as_ref(), slo.tenant(&live.name), "tenant {} slo", live.name);
    }
    assert_eq!(report.tenant("capped").quota_denied, 1);
    assert_eq!(report.tenant("public").shed, 1);
}
