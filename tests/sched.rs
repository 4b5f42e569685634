//! Tier-1 scheduling integration: earliest-deadline-first dispatch, the
//! deadline-slack tier router, and the tight-deadline nowcast QoS contract
//! (ROADMAP item 4's serving bullet), all asserted end to end on the serve
//! engine's own report.
//!
//! - EDF: with one worker and singleton batches, a late-submitted
//!   tight-deadline request overtakes an earlier loose-deadline one;
//! - QoS: under a mixed load, tight-deadline nowcasts are routed to the
//!   distilled fast tier and every one of them completes inside its
//!   deadline while the quality tier grinds through full-sampler forecasts;
//! - determinism: both tiers return the same bits whatever the worker count
//!   and batch bound, so scheduling policy never leaks into forecasts.

use aeris::core::{AerisConfig, AerisModel, ConsistencyStudent, Forecaster};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::{Grid, NormStats};
use aeris::serve::{
    ForecastRequest, Forcings, NowcastRequest, RouterConfig, ServeConfig, ServeEngine, Tier,
};
use aeris::tensor::{Rng, Tensor};
use std::sync::Arc;
use std::time::Duration;

fn tiny_forecaster() -> Arc<Forecaster> {
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
            SamplerConfig { n_steps: 2, churn: 0.1, second_order: false },
        ),
    })
}

fn tiny_student(fc: &Forecaster) -> Arc<ConsistencyStudent> {
    Arc::new(ConsistencyStudent {
        model: fc.replicate().model,
        stats: fc.stats.clone(),
        res_stats: fc.res_stats.clone(),
        tf: fc.sampler.tf,
    })
}

fn request(seed: u64, steps: usize, deadline: Option<Duration>) -> ForecastRequest {
    ForecastRequest {
        init: Tensor::randn(&[128, 4], &mut Rng::seed_from(seed ^ 0xA15)),
        forcings: Forcings::Zeros { channels: 3 },
        steps,
        n_members: 1,
        seed,
        deadline,
        tenant: None,
        tier: None,
    }
}

/// A tight-deadline request submitted *after* a loose-deadline one must be
/// dispatched (and therefore completed) first: the dispatch queue is
/// earliest-deadline-first, not FIFO.
#[test]
fn tight_deadline_overtakes_earlier_loose_deadline() {
    let engine = ServeEngine::start(
        tiny_forecaster(),
        // One worker and singleton batches so completion order equals
        // dispatch order; the hold builds the backlog deterministically.
        ServeConfig { workers: 1, max_batch: 1, ..ServeConfig::default() },
    );
    engine.hold_dispatch();
    let loose = engine
        .submit(request(1, 2, Some(Duration::from_secs(600))))
        .expect("loose admitted");
    let tight = engine
        .submit(request(2, 2, Some(Duration::from_secs(60))))
        .expect("tight admitted");
    engine.release_dispatch();
    let loose = loose.wait().expect("loose served");
    let tight = tight.wait().expect("tight served");
    let report = engine.shutdown();
    // The tight request was submitted later, so it completed first iff its
    // submission-to-completion latency is the shorter one (up to the
    // submission gap, far below one model step).
    assert!(
        tight.latency < loose.latency,
        "EDF violated: the tight-deadline request completed after the loose one"
    );
    assert_eq!(report.completed, 2);
    assert_eq!(report.shed, 0);
    report.verify_accounting().expect("request accounting must balance");
}

/// ROADMAP item 4, "tight-deadline nowcast QoS": under a mixed load, every
/// tight-deadline nowcast is routed to the distilled fast tier and finishes
/// inside its deadline — none shed, none stuck behind the quality tier's
/// full-sampler forecasts — asserted on the report's per-tier counters.
#[test]
fn tight_deadline_nowcasts_meet_qos_on_the_fast_tier() {
    let fc = tiny_forecaster();
    let student = tiny_student(&fc);
    let engine = ServeEngine::start_two_tier(
        Arc::clone(&fc),
        student,
        ServeConfig {
            workers: 2,
            fast_workers: 2,
            // A 5 s slack floor: any request with ≤ 5 s of headroom goes
            // fast without waiting for the service estimator to warm up.
            router: RouterConfig { slack_floor: Duration::from_secs(5), ..RouterConfig::default() },
            ..ServeConfig::default()
        },
    );

    let grid = Grid::new(8, 16);
    let op = aeris::assim::ObsOperator::stations(&grid, 32, &[0, 1], &[0.5; 4], 9);
    let deadline = Duration::from_secs(2);
    let mut quality_tickets = Vec::new();
    let mut nowcast_tickets = Vec::new();
    for i in 0..4u64 {
        // Background quality traffic: undeadlined full-sampler forecasts.
        quality_tickets.push(engine.submit(request(100 + i, 2, None)).expect("admitted"));
        // The nowcast desk: 2 s deadline, tier left to the router.
        let truth = Tensor::randn(&[128, 4], &mut Rng::seed_from(0xBE5 + i));
        let ticket = engine
            .submit_nowcast(NowcastRequest {
                background: Tensor::randn(&[128, 4], &mut Rng::seed_from(0xA15 + i)),
                forcings: Forcings::Zeros { channels: 3 },
                observations: Arc::new(op.observe(&truth, 0.1, 0x0B5 + i)),
                schedule: aeris::assim::GuidanceSchedule::Constant(0.3),
                n_members: 2,
                seed: 200 + i,
                deadline: Some(deadline),
                tenant: Some(Arc::from("nowcast-desk")),
                tier: None,
            })
            .expect("admitted");
        assert_eq!(ticket.tier(), Tier::Fast, "2 s slack under a 5 s floor must route fast");
        nowcast_tickets.push(ticket);
    }

    for t in &nowcast_tickets {
        let resp = t.wait().expect("tight-deadline nowcast must be served, not shed");
        assert_eq!(resp.tier, Tier::Fast);
        assert!(
            resp.latency < deadline,
            "nowcast {} blew its deadline: {:?} ≥ {deadline:?}",
            resp.id,
            resp.latency
        );
    }
    for t in &quality_tickets {
        assert_eq!(t.wait().expect("forecast served").tier, Tier::Quality);
    }

    let report = engine.shutdown();
    // The QoS contract, read off the per-tier counters: all 4 nowcasts
    // completed on the fast tier, zero shed anywhere, and the quality tier
    // completed its 4 forecasts independently.
    assert_eq!(report.tier(Tier::Fast).completed, 4);
    assert_eq!(report.tier(Tier::Fast).nowcasts, 4);
    assert_eq!(report.tier(Tier::Fast).shed, 0);
    assert_eq!(report.tier(Tier::Quality).completed, 4);
    assert_eq!(report.tier(Tier::Quality).nowcasts, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(report.tenant("nowcast-desk").completed, 4);
    assert_eq!(report.metrics.fast_nowcast_latency_ms.count(), 4);
    // Conservation across both tiers and both tenants: admitted ==
    // completed + shed everywhere, submitted == admitted (nothing was
    // denied or rejected in this run).
    report.verify_accounting().expect("request accounting must balance");
    assert_eq!(report.tier(Tier::Fast).admitted, 4);
    assert_eq!(report.tier(Tier::Quality).admitted, 4);
    let desk = report.tenant("nowcast-desk");
    assert_eq!((desk.submitted, desk.admitted, desk.rejected), (4, 4, 0));
    // The instrumented dispatch queues recorded a wait for every
    // member-step they released (4 nowcasts × 2 members on fast; the
    // quality tier re-enqueues each member once per remaining step).
    assert!(report.metrics.fast_queue_wait_ms.count() >= 8);
    assert!(report.metrics.queue_wait_ms.count() >= 8);
}

/// Scheduling policy must never leak into forecast numbers: whatever the
/// worker count and batch bound, a fast-tier forecast equals a direct
/// student ensemble call, and one nowcast per tier riding in the same
/// backlog equals its direct `nowcast_member[_fast]` call.
#[test]
fn fast_tier_bits_are_invariant_under_scheduling_configuration() {
    let fc = tiny_forecaster();
    let student = tiny_student(&fc);
    let mut req = request(77, 3, None);
    req.n_members = 2;
    req.tier = Some(Tier::Fast);
    let forc = Tensor::zeros(&[128, 3]);
    let direct = student.ensemble(&req.init, &|_k| forc.clone(), 3, 2, 77);
    let schedule = aeris::assim::GuidanceSchedule::Constant(0.3);
    let op = aeris::assim::ObsOperator::stations(&Grid::new(8, 16), 32, &[0, 1], &[0.5; 4], 9);
    let nowcast = |tier: Tier| NowcastRequest {
        background: Tensor::randn(&[128, 4], &mut Rng::seed_from(0xA15)),
        forcings: Forcings::Zeros { channels: 3 },
        observations: Arc::new(op.observe(&req.init, 0.1, 0x0B5)),
        schedule,
        n_members: 2,
        seed: 78,
        deadline: None,
        tenant: None,
        tier: Some(tier),
    };
    for (workers, max_batch) in [(1usize, 1usize), (2, 3), (4, 8)] {
        let engine = ServeEngine::start_two_tier(
            Arc::clone(&fc),
            Arc::clone(&student),
            ServeConfig { workers, fast_workers: workers, max_batch, ..ServeConfig::default() },
        );
        // Hold dispatch so the backlog (and therefore batch composition) is
        // complete before any worker pulls.
        engine.hold_dispatch();
        let forecast = engine.submit(req.clone()).expect("admitted");
        let nowcasts = [Tier::Fast, Tier::Quality]
            .map(|tier| (nowcast(tier), engine.submit_nowcast(nowcast(tier)).expect("admitted")));
        engine.release_dispatch();
        let resp = forecast.wait().expect("served");
        assert_eq!(resp.tier, Tier::Fast);
        assert_eq!(
            resp.forecast.members, direct,
            "fast tier diverged at {workers} workers / max_batch {max_batch}"
        );
        for (r, ticket) in nowcasts {
            let resp = ticket.wait().expect("served");
            let bg = Arc::new(r.background.clone());
            for (m, member) in resp.forecast.members.iter().enumerate() {
                let expect = match resp.tier {
                    Tier::Fast => aeris::assim::nowcast_member_fast(
                        &student, &bg, &forc, &r.observations, schedule, r.seed, m,
                    ),
                    Tier::Quality => aeris::assim::nowcast_member(
                        &fc, &bg, &forc, &r.observations, schedule, r.seed, m,
                    ),
                };
                assert_eq!(
                    member[0], expect,
                    "{:?} nowcast member {m} diverged at {workers} workers / max_batch {max_batch}",
                    resp.tier
                );
            }
        }
    }
}
