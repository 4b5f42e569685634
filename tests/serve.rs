//! Tier-1 serving integration: a deterministic load generator driving the
//! `aeris-serve` engine with concurrent clients and mixed deadlines.
//!
//! Verifies the engine's core contracts end to end:
//! - no request is lost or answered twice (every ticket resolves exactly
//!   once, ids are unique);
//! - every successful response is bitwise identical to a direct
//!   `Forecaster::ensemble` call with the same inputs — i.e. serving is
//!   invariant under worker count, batch composition, scheduling order, and
//!   cache hits;
//! - at least one model evaluation batches member-steps from multiple
//!   requests, and at least one request is served from the rollout cache;
//! - zero-deadline requests deterministically fail with `DeadlineExceeded`
//!   and never corrupt other requests.

use aeris::core::{AerisConfig, AerisModel, Forecaster};
use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::NormStats;
use aeris::serve::{
    ForecastRequest, Forcings, ServeConfig, ServeEngine, ServeError, Tier,
};
use aeris::tensor::{Rng, Tensor};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

const STEPS: usize = 2;
const MEMBERS: usize = 2;

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

/// Each seed gets its own initial condition, so distinct seeds can never
/// collide in the rollout cache.
fn init_for(seed: u64) -> Tensor {
    Tensor::randn(&[128, 4], &mut Rng::seed_from(seed ^ 0xA15))
}

fn request(seed: u64, deadline: Option<Duration>) -> ForecastRequest {
    ForecastRequest {
        init: init_for(seed),
        forcings: Forcings::Zeros { channels: 3 },
        steps: STEPS,
        n_members: MEMBERS,
        seed,
        deadline,
        tenant: None,
        tier: None,
    }
}

#[test]
fn concurrent_load_is_deterministic_batched_and_cached() {
    let fc = tiny_forecaster();

    // Ground truth: what a direct (unserved) ensemble call produces.
    let seeds: Vec<u64> = (0..6).collect();
    let reference: HashMap<u64, Vec<Vec<Tensor>>> = seeds
        .iter()
        .map(|&s| {
            let direct = fc.ensemble(
                &init_for(s),
                &|_k| Tensor::zeros(&[128, 3]),
                STEPS,
                MEMBERS,
                s,
            );
            (s, direct.members)
        })
        .collect();

    let engine = Arc::new(ServeEngine::start(
        Arc::clone(&fc),
        ServeConfig {
            workers: 3,
            queue_capacity: 256,
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    ));

    // Load generator: 6 concurrent clients, 3 requests each. Each client
    // mixes an unbounded request, one with a generous deadline (never
    // expires), and a zero-deadline request on a private seed (always shed:
    // nothing of it is ever cached, so its spent budget fails it at
    // admission).
    let handles: Vec<_> = (0..6u64)
        .map(|client| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let doomed_seed = 1000 + client; // disjoint from `seeds`
                let mix = [
                    (client, None),
                    (client, Some(Duration::from_secs(60))),
                    (doomed_seed, Some(Duration::ZERO)),
                ];
                mix.iter()
                    .map(|&(seed, deadline)| match engine.submit(request(seed, deadline)) {
                        Ok(ticket) => (seed, deadline, ticket.id(), ticket.wait()),
                        // Admission-time shed: the engine resolved the
                        // request before queuing it; the typed error still
                        // carries the allocated request id.
                        Err(err @ ServeError::DeadlineExceeded { req }) => {
                            (seed, deadline, req, Err(err))
                        }
                        Err(err) => panic!("unexpected admission failure: {err:?}"),
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let outcomes: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();

    // No request lost or duplicated: 18 submissions, 18 resolutions, all ids
    // distinct.
    assert_eq!(outcomes.len(), 18);
    let ids: HashSet<u64> = outcomes.iter().map(|(_, _, id, _)| *id).collect();
    assert_eq!(ids.len(), 18, "duplicate request ids");

    for (seed, deadline, id, result) in &outcomes {
        if *deadline == Some(Duration::ZERO) {
            let err = result.as_ref().err().expect("zero-deadline request must expire");
            assert_eq!(err, &ServeError::DeadlineExceeded { req: *id });
        } else {
            let resp = result.as_ref().expect("live request must be served");
            // Bitwise determinism: regardless of which worker ran it, how it
            // was batched, and whether the cache answered part of it, the
            // served forecast equals the direct ensemble call.
            assert_eq!(
                &resp.forecast.members, &reference[seed],
                "served forecast for seed {seed} diverged from direct ensemble"
            );
            assert_eq!(resp.cache_hits + resp.computed_steps, STEPS * MEMBERS);
        }
    }

    // Each live seed was requested twice (deadline None + 60s) with identical
    // content, so across the run the cache must have answered something.
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("clients still hold engine"));
    let report = engine.shutdown();
    assert!(report.cache.hits > 0, "expected rollout-cache hits, got {:?}", report.cache);
    assert!(
        outcomes.iter().any(|(_, _, _, r)| r.as_ref().is_ok_and(|resp| resp.cache_hits > 0)),
        "expected at least one cached prefix reuse"
    );
    assert!(
        report.metrics.batch_size.max() >= Some(2.0),
        "expected at least one multi-task batch"
    );
    assert_eq!(report.completed, 12, "6 clients x 2 live requests each");
    assert_eq!(report.shed, 6, "each client's zero-deadline request was shed");
    assert_eq!(report.metrics.latency_ms.count(), 12);

    // Conservation: every submission is accounted for exactly once, per
    // tier and per tenant (completed + shed + quota_denied + rejected +
    // in_flight == submitted, with in_flight == 0 after the drain).
    report.verify_accounting().expect("request accounting must balance");
    assert_eq!(report.tier(Tier::Quality).admitted, 18);
    let public = report.tenant("public");
    assert_eq!((public.submitted, public.admitted), (18, 18));
    assert_eq!((public.completed, public.shed), (12, 6));
}

#[test]
fn single_worker_batches_across_requests() {
    // One worker with a generous coalescing window: it pops the first
    // request's tasks, finds the pool empty, and waits — so the second
    // request (submitted immediately after) deterministically lands in the
    // same batched model evaluation.
    let engine = ServeEngine::start(
        tiny_forecaster(),
        ServeConfig {
            workers: 1,
            max_batch: 16,
            max_wait: Duration::from_secs(2),
            ..ServeConfig::default()
        },
    );
    let solo = |seed: u64| ForecastRequest { n_members: 1, steps: 3, ..request(seed, None) };
    let t1 = engine.submit(solo(7)).expect("admitted");
    let t2 = engine.submit(solo(8)).expect("admitted");
    assert!(t1.wait().is_ok() && t2.wait().is_ok());
    let report = engine.shutdown();
    // Each request has one member, so a batch of two spans both requests.
    assert!(
        report.metrics.batch_size.max() >= Some(2.0),
        "expected one evaluation to batch member-steps from two requests"
    );
    report.verify_accounting().expect("request accounting must balance");
}

#[test]
fn a_deadline_beyond_instants_range_is_no_deadline() {
    // `Instant + Duration::MAX` overflows, and admission stamps the deadline
    // after the request has taken its outstanding slot: a panic there would
    // wedge `shutdown()` for good. Cache off, so both responses are computed.
    let engine = ServeEngine::start(tiny_forecaster(), ServeConfig { cache_bytes: 0, ..ServeConfig::default() });
    let plain = engine.submit(request(3, None)).expect("admitted").wait().expect("served");
    let ticket = engine.submit(request(3, Some(Duration::MAX))).expect("admitted");
    let unbounded = ticket.wait_for(Duration::MAX).expect("an unbounded wait returns the response");
    assert_eq!(plain.computed_steps, STEPS * MEMBERS);
    assert_eq!(unbounded.computed_steps, STEPS * MEMBERS);
    let bits = |members: &[Vec<Tensor>]| -> Vec<u32> {
        members.iter().flatten().flat_map(|s| s.data().iter().map(|v| v.to_bits())).collect()
    };
    assert_eq!(bits(&unbounded.forecast.members), bits(&plain.forecast.members));
    let report = engine.shutdown();
    assert_eq!((report.completed, report.shed), (2, 0));
    report.verify_accounting().expect("request accounting must balance");
}
