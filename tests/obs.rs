//! End-to-end observability tests: the SWiPe trainer and the serving engine
//! traced through `aeris-obs`, the exported Chrome trace validated as JSON,
//! span nesting verified per actor, and the paper's message-size law
//! `M = b·s·h/SP/WP` checked *exactly* against the runtime's byte counters.

use aeris::core::{AerisConfig, AerisModel, TrainSample};
use aeris::diffusion::loss_weights;
use aeris::earthsim::Grid;
use aeris::obs::{
    mfu_report, validate_chrome_trace, verify_balanced, MessageLaw, MfuInputs, SpanCategory,
    SpanRecord, Tracer,
};
use aeris::swipe::data::InMemorySource;
use aeris::swipe::{
    CommClass, DistributedTrainer, FaultPlan, SwipeConfig, SwipeTopology, TrainReport,
};
use aeris::tensor::{Rng, Tensor};
use proptest::prelude::*;

fn model_cfg(n_layers: usize) -> AerisConfig {
    AerisConfig {
        grid_h: 8,
        grid_w: 16,
        channels: 4,
        forcing_channels: 3,
        dim: 16,
        n_heads: 2,
        ffn: 32,
        n_layers,
        blocks_per_layer: 1,
        window: (4, 4),
        time_feat_dim: 16,
        cond_dim: 24,
        pos_amp: 0.1,
        seed: 3,
    }
}

fn samples_for(cfg: &AerisConfig, n: usize) -> Vec<TrainSample> {
    let mut rng = Rng::seed_from(77);
    (0..n)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), 3], &mut rng),
        })
        .collect()
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

/// Run the trainer with an enabled tracer; returns `(report, spans, tracer)`.
fn traced_train(
    cfg: &AerisConfig,
    topo: SwipeTopology,
    gas: usize,
    n_steps: usize,
    faults: Option<FaultPlan>,
) -> (TrainReport, Vec<SpanRecord>, Tracer) {
    let samples = samples_for(cfg, 8);
    let source = InMemorySource { samples };
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
    let tracer = Tracer::enabled();
    let swipe_cfg = SwipeConfig {
        topo,
        gas,
        n_steps,
        faults,
        tracer: tracer.clone(),
        ..SwipeConfig::new(topo)
    };
    let sched = schedule(n_steps, topo.dp, gas, 8);
    let reference = AerisModel::new(cfg.clone());
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &sched, &weights)
        .expect("traced run must succeed");
    let spans = tracer.snapshot_spans();
    (report, spans, tracer)
}

fn count(spans: &[SpanRecord], actor: usize, cat: SpanCategory) -> usize {
    spans.iter().filter(|s| s.actor == actor && s.category == cat).count()
}

/// Golden 1F1B trace: linear 3-stage pipeline (input, one Swin block, head)
/// × 2 microbatches × 1 step. Every trainer-level span count is derived from
/// the schedule, the export is valid Chrome-trace JSON with one event per
/// span, and per-actor nesting is strictly balanced.
#[test]
fn golden_1f1b_trace_counts_and_chrome_export() {
    let cfg = model_cfg(1); // 1 block → PP = 3
    let topo = SwipeTopology::new(1, 3, 1, 1, 1);
    let (gas, n_steps) = (2usize, 1usize);
    let (_report, spans, tracer) = traced_train(&cfg, topo, gas, n_steps, None);

    // Stage role per rank from the topology (stage 0 = input, last = head).
    for rank in 0..topo.world_size() {
        let stage = topo.coords_of(rank).stage;
        let per_micro = gas * n_steps;
        assert_eq!(count(&spans, rank, SpanCategory::Forward), per_micro, "rank {rank} fwd");
        assert_eq!(count(&spans, rank, SpanCategory::Backward), per_micro, "rank {rank} bwd");
        // Bubble spans wrap the blocking pipeline receives: forward receive
        // on block/head stages, backward receive on input/block stages.
        let expected_bubbles = match stage {
            0 => per_micro,                      // recv_grads_back only
            s if s == topo.pp - 1 => per_micro,  // recv_relayout only
            _ => 2 * per_micro,                  // both directions
        };
        assert_eq!(count(&spans, rank, SpanCategory::Bubble), expected_bubbles, "rank {rank}");
        assert_eq!(count(&spans, rank, SpanCategory::OptimizerStep), n_steps, "rank {rank}");
        assert_eq!(count(&spans, rank, SpanCategory::Checkpoint), 0, "rank {rank}");
    }

    // Every span is tagged with its step; microbatch tags cover 0..gas.
    assert!(spans.iter().all(|s| s.step == Some(0)));
    let micros: std::collections::BTreeSet<u64> =
        spans.iter().filter_map(|s| s.micro).collect();
    assert_eq!(micros, (0..gas as u64).collect());

    // Per-actor span nesting is stack-disciplined.
    verify_balanced(&spans).expect("balanced trace");

    // The Chrome-trace export parses as JSON and has one "X" event per span.
    let trace = tracer.chrome_trace();
    let events = validate_chrome_trace(&trace).expect("valid Chrome trace");
    assert_eq!(events, spans.len());
    assert!(trace.contains("\"forward\"") && trace.contains("\"bubble\""));
}

/// Full topology (DP=2 × PP=4 × WP=2 × SP=2 = 32 ranks): every rank emits
/// Forward/Backward spans, block-stage ranks emit Ulysses all-to-all spans,
/// the measured all-to-all bytes match the paper's message-size law exactly,
/// and the MFU report renders measured vs modeled with the law PASSing.
#[test]
fn full_topology_trace_matches_message_law() {
    let cfg = model_cfg(2); // 2 blocks → PP = 4
    let topo = SwipeTopology::new(2, 4, 1, 2, 2);
    let (gas, n_steps) = (2usize, 2usize);
    let (report, spans, tracer) = traced_train(&cfg, topo, gas, n_steps, None);

    let block_ranks: std::collections::BTreeSet<usize> =
        topo.block_stage_ranks().into_iter().collect();
    for rank in 0..topo.world_size() {
        assert!(count(&spans, rank, SpanCategory::Forward) > 0, "rank {rank} has no fwd");
        assert!(count(&spans, rank, SpanCategory::Backward) > 0, "rank {rank} has no bwd");
        assert_eq!(count(&spans, rank, SpanCategory::OptimizerStep), n_steps);
        let a2a = count(&spans, rank, SpanCategory::AllToAll);
        if block_ranks.contains(&rank) {
            // 2 exchanges fwd + 2 bwd, per microbatch per step.
            assert_eq!(a2a, 4 * gas * n_steps, "rank {rank} alltoall");
        } else {
            assert_eq!(a2a, 0, "non-block rank {rank} ran alltoall");
        }
    }
    verify_balanced(&spans).expect("balanced trace");

    // M = b·s·h/SP/WP, checked exactly (integer bytes) against Traffic.
    let law = MessageLaw {
        tokens: cfg.tokens() as u64,
        dim: cfg.dim as u64,
        sp: topo.sp as u64,
        wp: (topo.wp_a * topo.wp_b) as u64,
        dp: topo.dp as u64,
        gas: gas as u64,
        blocks: (cfg.n_layers * cfg.blocks_per_layer) as u64,
        steps: n_steps as u64,
    };
    let measured = report.traffic.total(CommClass::AllToAll);
    let check = law.check(measured);
    assert!(
        check.exact,
        "law: expected {} B, measured {} B",
        check.expected_alltoall_bytes, check.measured_alltoall_bytes
    );

    // The measured-vs-modeled report renders and carries the PASS verdict.
    let mfu = mfu_report(&MfuInputs {
        spans: &spans,
        comm: report.traffic.comm_bytes(),
        law: Some(law),
        flops_per_step: 1e9,
        ranks: topo.world_size(),
        peak_flops_per_rank: 1e12,
        predicted: None,
    });
    assert_eq!(mfu.steps.len(), n_steps);
    assert!(mfu.measured_step_s > 0.0);
    let text = format!("{mfu}");
    assert!(text.contains("exact match") && text.contains("PASS"), "{text}");

    // The Prometheus export covers every traced category.
    let prom = tracer.prometheus_text();
    for cat in ["forward", "backward", "alltoall", "bubble", "optimizer_step"] {
        assert!(
            prom.contains(&format!("category=\"{cat}\"")),
            "missing {cat} in prometheus export"
        );
    }

    // The pretty traffic table lists every rank plus the totals row.
    let table = report.traffic.report();
    assert!(table.contains("all"), "{table}");
    assert_eq!(table.lines().count(), topo.world_size() + 2, "{table}");
}

/// The serving engine traced through the same tracer type: admission and
/// per-member cache lookups appear as client-side spans tagged with the
/// request id, workers emit batch-assembly and forecast spans, cache
/// hit/miss counters accumulate, and the latency/batch/queue series flow
/// into the shared Prometheus export.
#[test]
fn serve_engine_emits_spans_counters_and_series() {
    use aeris::core::{AerisConfig, AerisModel, Forecaster};
    use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
    use aeris::earthsim::NormStats;
    use aeris::serve::{ForecastRequest, Forcings, ServeConfig, ServeEngine};
    use std::sync::Arc;

    let mcfg = AerisConfig::test_tiny();
    let channels = mcfg.channels;
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    let fc = Arc::new(Forecaster {
        model: AerisModel::new(mcfg),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 2, churn: 0.1, second_order: false },
        ),
    });

    let tracer = Tracer::enabled();
    let engine = ServeEngine::start_traced(
        Arc::clone(&fc),
        ServeConfig { workers: 2, max_batch: 4, ..ServeConfig::default() },
        tracer.clone(),
    );
    let (n_reqs, members) = (3u64, 2usize);
    // Same seed twice: the second submission replays the first's rollout
    // from the cache, so at least one lookup hits.
    for seed in [7u64, 9, 7] {
        let ticket = engine
            .submit(ForecastRequest {
                init: Tensor::randn(&[128, channels], &mut Rng::seed_from(seed ^ 0xA15)),
                forcings: Forcings::Zeros { channels: 3 },
                steps: 2,
                n_members: members,
                seed,
                deadline: None,
                tenant: None,
                tier: None,
            })
            .expect("admitted");
        ticket.wait().expect("served");
    }
    let report = engine.shutdown();

    let spans = tracer.snapshot_spans();
    let client = usize::MAX; // CLIENT_ACTOR: submit-side spans
    assert_eq!(count(&spans, client, SpanCategory::Admission), n_reqs as usize);
    let lookups: usize =
        spans.iter().filter(|s| s.category == SpanCategory::CacheLookup).count();
    assert_eq!(lookups, n_reqs as usize * members);
    // Admission spans carry the request id; lookups additionally the member.
    assert!(spans
        .iter()
        .filter(|s| s.category == SpanCategory::Admission)
        .all(|s| s.step.is_some()));
    assert!(spans
        .iter()
        .filter(|s| s.category == SpanCategory::CacheLookup)
        .all(|s| s.step.is_some() && s.micro.is_some()));
    // Workers assembled batches and ran the model.
    assert!(spans.iter().any(|s| s.category == SpanCategory::BatchAssembly));
    assert!(spans
        .iter()
        .any(|s| s.category == SpanCategory::Forward && s.label == "forecast_step_batch"));
    verify_balanced(&spans).expect("balanced serve trace");

    // Counters: the replayed request hits, the fresh ones miss.
    let counters = tracer.counters();
    let counter = |name: &str| {
        counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    };
    assert!(counter("serve_cache_hits") > 0, "{counters:?}");
    assert!(counter("serve_cache_misses") > 0, "{counters:?}");

    // The engine's metric series are registered on the tracer, so the one
    // Prometheus exporter covers them (and the report still carries them).
    assert_eq!(report.metrics.latency_ms.count(), n_reqs as usize);
    let prom = tracer.prometheus_text();
    for series in ["serve_latency_ms", "serve_batch_size", "serve_queue_depth"] {
        assert!(prom.contains(series), "missing {series} in:\n{prom}");
    }
    assert!(prom.contains("category=\"admission\""), "{prom}");
}

/// The online SLO engine end to end: a deterministic outcome stream flips
/// the engine's verdict Ok → Warn → Page at exact sample indices (windows
/// are sample-count, not wall-clock), the final report carries the SLO
/// states, SLO tracking never perturbs served bits, and the live status
/// snapshot round-trips through the Prometheus exporter and the in-repo
/// parser.
#[test]
fn serve_engine_slo_flips_deterministically_and_status_exports() {
    use aeris::core::{AerisConfig, AerisModel, Forecaster};
    use aeris::diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
    use aeris::earthsim::NormStats;
    use aeris::obs::parse_text;
    use aeris::serve::{
        ForecastRequest, Forcings, ServeConfig, ServeEngine, ServeError, SloConfig, SloVerdict,
        Tier,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let mcfg = AerisConfig::test_tiny();
    let channels = mcfg.channels;
    let stats = NormStats { mean: vec![0.0; channels], std: vec![1.0; channels] };
    let fc = Arc::new(Forecaster {
        model: AerisModel::new(mcfg),
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 2, churn: 0.1, second_order: false },
        ),
    });
    let request = |seed: u64, deadline: Option<Duration>| ForecastRequest {
        init: Tensor::randn(&[128, channels], &mut Rng::seed_from(seed ^ 0xA15)),
        forcings: Forcings::Zeros { channels: 3 },
        steps: 2,
        n_members: 2,
        seed,
        deadline,
        tenant: None,
        tier: None,
    };

    let tracer = Tracer::enabled();
    let engine = ServeEngine::start_traced(
        Arc::clone(&fc),
        ServeConfig {
            // Budget 50%, short window 2, long window 8: after k bad
            // outcomes on a full-good window, short burn = min(k,2)/2/0.5
            // and long burn = k/8/0.5, so Warn (both ≥ 1.0) lands exactly
            // at k = 4 and Page (both ≥ 1.9) exactly at k = 8.
            slo: Some(SloConfig {
                latency_ms: 1e9,
                target: 0.5,
                short_window: 2,
                long_window: 8,
                warn_burn: 1.0,
                page_burn: 1.9,
            }),
            ..ServeConfig::default()
        },
        tracer.clone(),
    );

    // 8 good completions (one checked bitwise against the direct ensemble:
    // SLO tracking is a time-only policy and must not move numbers).
    let direct = fc.ensemble(
        &request(500, None).init,
        &|_k| Tensor::zeros(&[128, 3]),
        2,
        2,
        500,
    );
    for i in 0..8u64 {
        let resp = engine.submit(request(500 + i, None)).expect("admitted").wait().expect("served");
        if i == 0 {
            assert_eq!(resp.forecast.members, direct.members, "SLO wiring moved bits");
        }
        assert_eq!(engine.status().tiers[0].slo.unwrap().verdict, SloVerdict::Ok);
    }
    // `wait()` wakes a beat before the worker records the SLO observation;
    // drain blocks on the slot release that happens after it, so all 8 good
    // outcomes are in the windows before the bad stream starts.
    engine.drain();
    assert_eq!(engine.status().tiers[0].slo.unwrap().good_total, 8);
    // Zero-deadline submissions on fresh seeds shed synchronously at
    // admission — a deterministic bad-outcome stream.
    for k in 1..=8u64 {
        let r = engine.submit(request(600 + k, Some(Duration::ZERO)));
        assert!(matches!(r, Err(ServeError::DeadlineExceeded { .. })));
        let state = engine.status().tiers[0].slo.unwrap();
        let expect = if k >= 8 {
            SloVerdict::Page
        } else if k >= 4 {
            SloVerdict::Warn
        } else {
            SloVerdict::Ok
        };
        assert_eq!(state.verdict, expect, "after {k} bad outcomes: {state}");
    }

    // The live status snapshot renders and exports through Prometheus.
    engine.drain();
    let status = engine.status();
    assert_eq!(status.in_flight, 0);
    let text = status.to_string();
    assert!(text.contains("tier quality") && text.contains("slo: page"), "{text}");
    status.export_gauges(&tracer);
    let prom = tracer.prometheus_text();
    let samples = parse_text(&prom).expect("exporter output must parse");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name} in:\n{prom}"))
    };
    assert_eq!(find("aeris_status_quality_slo_severity").value, 2.0);
    assert_eq!(find("aeris_status_quality_shed").value, 8.0);
    assert_eq!(find("aeris_status_in_flight").value, 0.0);
    // The bounded-histogram export rides along for every series: cumulative
    // buckets sum to the count and the +Inf bucket equals it.
    let count = find("aeris_serve_latency_ms_hist_count").value;
    assert_eq!(count, 8.0);
    let inf_bucket = samples
        .iter()
        .find(|s| {
            s.name == "aeris_serve_latency_ms_hist_bucket"
                && s.label("le").is_some_and(|v| v == "+Inf")
        })
        .expect("+Inf bucket");
    assert_eq!(inf_bucket.value, count);

    // The final report agrees with the live view and balances.
    let report = engine.shutdown();
    report.verify_accounting().expect("request accounting must balance");
    let slo = report.slo.as_ref().expect("objective configured");
    assert_eq!(slo.tier(Tier::Quality).verdict, SloVerdict::Page);
    assert_eq!(slo.tier(Tier::Quality).total, 16);
    assert_eq!(slo.tenant("public").expect("tenant tracked").verdict, SloVerdict::Page);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Span balance survives injected faults: the first forward relayout
    /// 0→1 is dropped (once or twice — recovered by the receiver's
    /// retransmit timer) while an arbitrary 1→2 message is delayed, and
    /// every actor's spans still nest stack-wise with the trainer-level
    /// structure intact.
    #[test]
    fn span_balance_under_induced_faults(
        times in 1u32..3,
        delay_nth in 0u64..4,
        delay_ms in 1u64..8,
    ) {
        let cfg = model_cfg(1);
        let topo = SwipeTopology::new(1, 3, 1, 1, 1);
        let plan = FaultPlan::new()
            .drop_message(0, 1, 0, times)
            .delay_message(1, 2, delay_nth, delay_ms);
        let (_report, spans, _tracer) = traced_train(&cfg, topo, 2, 1, Some(plan));
        prop_assert!(verify_balanced(&spans).is_ok());
        for rank in 0..topo.world_size() {
            prop_assert_eq!(count(&spans, rank, SpanCategory::Forward), 2);
            prop_assert_eq!(count(&spans, rank, SpanCategory::Backward), 2);
        }
    }
}
