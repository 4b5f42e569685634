//! The metric catalogue — every name the benchmark prints, with its unit,
//! direction and meaning — and the per-run result that serialises them.

use crate::hostclock::HostClock;
use std::time::Instant;

/// Which of the two lists in `BENCHMARK.json` a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Measured with tracing off; carries a regression bound.
    EndToEnd,
    /// Measured by the traced run; attributes, no bound.
    PerLayer,
}

impl Kind {
    /// The list a run of `--trace <trace>` reports.
    pub fn of(trace: bool) -> Kind {
        if trace {
            Kind::PerLayer
        } else {
            Kind::EndToEnd
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    pub kind: Kind,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        what,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "serve_quality_distinct",
    "serve_mixed_open",
    "train_single",
    "train_swipe",
];

/// Every metric, in print order. `BENCHMARK.json` lists the same names (a
/// unit test holds the two together).
pub const CATALOG: &[Def] = &[
    e2e("setup_s", "s", "lower", "construction + input generation + first result, median of repeated set-ups, quiet seconds"),
    e2e("throughput_per_s", "1/s", "higher", "requests (serve_*) or samples (train_*) completed per quiet second of the measured window (open loop: per wall second, its rate is set by the arrival schedule)"),
    e2e("latency_p50_ms", "ms", "lower", "median request latency (serve_*: from due time in the open loop, steady phase) or optimizer-step time (train_*), quiet ms"),
    e2e("peak_rss_mb", "MB", "lower", "VmHWM of the workload's process at the end of the measured window"),
    // tensor
    layer("tensor.gemm_256_gflops", "GFLOP/s", "higher", "matmul 256x256x256: the same-run peak reference"),
    layer("tensor.gemm_attn_proj_gflops", "GFLOP/s", "higher", "matmul [512,48]x[48,48] (QKV/O projection shape)"),
    layer("tensor.gemm_mlp_up_gflops", "GFLOP/s", "higher", "matmul [512,48]x[48,96] (SwiGLU up/gate shape)"),
    layer("tensor.gemm_mlp_down_gflops", "GFLOP/s", "higher", "matmul [512,96]x[96,48] (SwiGLU down shape)"),
    layer("tensor.gemm_attn_scores_nt_gflops", "GFLOP/s", "higher", "matmul_nt [16,12]x[16,12]^T (one head's window scores)"),
    layer("tensor.gemm_tn_wgrad_gflops", "GFLOP/s", "higher", "matmul_tn [512,48]^T x [512,96] (weight-gradient shape)"),
    // autodiff
    layer("autodiff.window_attention_fwd_ms", "ms", "lower", "Tape::window_attention forward, 32 windows x 16 tokens x 4 heads x 12"),
    layer("autodiff.window_attention_fwd_gflops", "GFLOP/s", "higher", "the same call against its computed FLOPs"),
    layer("autodiff.window_attention_bwd_ms", "ms", "lower", "Tape::backward through one window_attention node"),
    layer("autodiff.tape_nodes_per_eval", "count", "lower", "Tape::len after one model forward (exact)"),
    layer("autodiff.activation_elems_per_eval", "count", "lower", "Tape::activation_elems after one model forward (exact)"),
    layer("autodiff.bind_params_ms", "ms", "lower", "Binding::var over every ParamId: the per-evaluation parameter clone"),
    layer("autodiff.backward_ms", "ms", "lower", "Tape::backward on one model forward + weighted_mse"),
    // nn
    layer("nn.linear_fwd_ms", "ms", "lower", "Linear::forward on [512,48]"),
    layer("nn.rmsnorm_fwd_ms", "ms", "lower", "RmsNorm::forward on [512,48]"),
    layer("nn.swiglu_fwd_ms", "ms", "lower", "SwiGlu::forward on [512,48]"),
    layer("nn.window_attn_fwd_ms", "ms", "lower", "WindowAttention::forward_all_windows on [512,48]"),
    layer("nn.adaln_fwd_ms", "ms", "lower", "AdaLnHead::forward"),
    layer("nn.time_cond_ms", "ms", "lower", "TimeConditioner::embed"),
    layer("nn.adamw_step_ms", "ms", "lower", "AdamW::step over the whole toy48 store"),
    // diffusion
    layer("diffusion.sampler_self_ms", "ms", "lower", "sample_guided span minus its velocity children, per forecast step (replay)"),
    layer("diffusion.nfe_per_step", "count", "lower", "network evaluations per quality member-step (exact)"),
    // core
    layer("core.velocity_ms", "ms", "lower", "AerisModel::velocity, one evaluation"),
    layer("core.velocity_flops", "FLOP", "lower", "computed from perfmodel::flops::forward_flops_per_sample"),
    layer("core.velocity_gflops", "GFLOP/s", "higher", "velocity_flops / velocity_ms"),
    layer("core.assemble_input_ms", "ms", "lower", "AerisModel::assemble_input (replay span)"),
    layer("core.forward_taped_ms", "ms", "lower", "AerisModel::forward on a pre-bound tape (replay span)"),
    layer("core.velocity_unattributed_share", "share", "lower", "1 - (sum of nn/autodiff probe times for one evaluation) / velocity_ms: tape, allocation and clone overhead"),
    layer("core.forecast_step_ms", "ms", "lower", "Forecaster::forecast_step"),
    layer("core.student_step_ms", "ms", "lower", "ConsistencyStudent::forecast_step"),
    layer("core.unstandardize_ms", "ms", "lower", "residual un-standardize + add (replay span)"),
    // assim
    layer("assim.guided_step_ms", "ms", "lower", "nowcast_member: one guided forecast step"),
    layer("assim.guidance_overhead_share", "share", "lower", "guided_step_ms / forecast_step_ms - 1"),
    layer("assim.relax_ms", "ms", "lower", "relax_toward_observations"),
    // serve
    layer("serve.submit_us", "us", "lower", "wall of ServeEngine::submit on an idle engine with dispatch held"),
    layer("serve.content_hash_us", "us", "lower", "content_hash of one 40 KB state"),
    layer("serve.cache_get_ns", "ns", "lower", "RolloutCache::get hit, 40 KB states, under budget"),
    layer("serve.cache_insert_ns", "ns", "lower", "RolloutCache::insert under budget"),
    layer("serve.cache_insert_evict_ns", "ns", "lower", "RolloutCache::insert over budget (each insert evicts)"),
    layer("serve.cache_hit_share", "share", "higher", "member-steps answered from cache / all member-steps, summed from responses"),
    layer("serve.computed_steps", "count", "lower", "member-steps evaluated by the model, summed from responses"),
    layer("serve.cached_steps", "count", "higher", "member-steps replayed from cache, summed from responses"),
    layer("serve.batch_size_mean", "count", "higher", "ServeMetrics::batch_size mean"),
    layer("serve.queue_wait_p50_ms", "ms", "lower", "quality-tier enqueue-to-dispatch wait"),
    layer("serve.queue_wait_p90_ms", "ms", "lower", "quality-tier enqueue-to-dispatch wait"),
    layer("serve.idle_latency_over_direct", "ratio", "lower", "one request through an idle engine / the same request via ensemble()"),
    layer("serve.latency_p99_ms", "ms", "lower", "p99 of the end-to-end latency distribution (too few samples to bound)"),
    layer("serve.nowcast_latency_p50_ms", "ms", "lower", "median latency of the nowcast slice"),
    layer("serve.start_ms", "ms", "lower", "ServeEngine::start_two_tier"),
    layer("serve.shutdown_ms", "ms", "lower", "ServeEngine::shutdown of a drained engine"),
    // sched
    layer("sched.dispatch_push_ns", "ns", "lower", "DispatchQueue::push, 1024 mixed EDF/WFQ tasks"),
    layer("sched.dispatch_next_batch_ns", "ns", "lower", "DispatchQueue::next_batch per task, same queue"),
    layer("sched.quota_admit_ns", "ns", "lower", "QuotaTable::admit"),
    layer("sched.route_ns", "ns", "lower", "TierRouter::route with a warm estimator"),
    layer("sched.estimator_observe_ns", "ns", "lower", "ServiceEstimator::observe"),
    layer("sched.estimator_rel_error", "share", "lower", "|engine estimator per_unit(quality) - benchmark's own forecast_step_ms| / forecast_step_ms"),
    layer("sched.fast_routed_share", "share", "higher", "untiered requests the router served fast"),
    layer("sched.shed_share", "share", "lower", "requests shed for deadline reasons / sent"),
    layer("sched.quota_denied_share", "share", "lower", "requests refused by a token bucket / sent"),
    layer("sched.slo_met_share", "share", "higher", "steady-phase requests sent that completed within their limit (shed, refused, failed = miss)"),
    layer("sched.queue_wait_fast_p90_ms", "ms", "lower", "fast-tier enqueue-to-dispatch wait"),
    layer("sched.surge.latency_p90_ms", "ms", "lower", "latency from due time, surge phase"),
    layer("sched.surge.slo_met_share", "share", "higher", "slo_met_share of the surge phase"),
    layer("sched.surge.req_per_s", "1/s", "higher", "surge-phase requests completed / time until they drained"),
    // swipe
    layer("swipe.comm_bytes_per_step", "B", "lower", "all classes, from TrainReport (exact)"),
    layer("swipe.p2p_bytes_per_step", "B", "lower", "pipeline P2P bytes (exact)"),
    layer("swipe.alltoall_bytes_per_step", "B", "lower", "Ulysses all-to-all bytes (exact; checked against MessageLaw)"),
    layer("swipe.allreduce_bytes_per_step", "B", "lower", "gradient allreduce bytes (exact)"),
    layer("swipe.comm_ops_per_step", "count", "lower", "communication operations over all ranks (exact)"),
    layer("swipe.max_activation_elems", "count", "lower", "peak live activation elements on any rank (exact)"),
    layer("swipe.allreduce_us", "us", "lower", "Communicator::allreduce_sum, nproc ranks, 4K elements"),
    layer("swipe.alltoall_us", "us", "lower", "Communicator::alltoall, nproc ranks, 4K elements"),
    layer("swipe.p2p_roundtrip_us", "us", "lower", "send + recv there and back, 4K elements"),
    layer("swipe.bubble_share", "share", "lower", "Bubble span time / (ranks x traced wall)"),
    layer("swipe.over_single_ratio", "ratio", "lower", "ms per sample / a single-process Trainer's on the same model"),
    // obs
    layer("obs.span_disabled_ns", "ns", "lower", "Tracer::span on a disabled tracer"),
    layer("obs.span_enabled_ns", "ns", "lower", "Tracer::span on an enabled tracer"),
    layer("obs.histogram_record_ns", "ns", "lower", "MetricSeries::record"),
    layer("obs.trace_overhead_share", "share", "lower", "1 - traced / untraced throughput, same process, same stream"),
    // the benchmark itself
    layer("bench.host_slowdown", "ratio", "lower", "median of the host probe's reference-kernel time over its nominal time during the run (1 = undisturbed)"),
    layer("bench.latency_p90_ms", "ms", "lower", "90th percentile of the latency_p50_ms distribution, traced segment, quiet ms (also noted by every untraced run); not an end-to-end metric because host interference stretches tails more than medians, see README"),
    layer("bench.traced_throughput_per_s", "1/s", "higher", "throughput of the traced segment (base of trace_overhead_share)"),
    layer("bench.generator_lag_p90_ms", "ms", "lower", "open loop: how late the generator sent"),
    layer("bench.spin_mops_before", "1/us", "higher", "spin-loop probe before the workload"),
    layer("bench.spin_mops_after", "1/us", "higher", "spin-loop probe after the workload (> 5 % apart = disturbed)"),
    layer("bench.failed_share", "share", "lower", "operations failed / attempted"),
    layer("bench.replay_items", "count", "higher", "items of the seeded stream replayed under benchmark-owned spans"),
];

/// The glossary as a markdown table (`--list-metrics`; the README's copy is
/// generated from it).
pub fn glossary() -> String {
    let mut out =
        String::from("| metric | unit | better | what it measures |\n|---|---|---|---|\n");
    for d in CATALOG {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            d.name, d.unit, d.better, d.what
        ));
    }
    out
}

pub fn def(name: &str) -> &'static Def {
    CATALOG
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind a timing (0 for exact counts and ratios).
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct RunResult {
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form facts printed with the result (digests, thread budget).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let d = def(name);
        self.values.retain(|v| v.name != d.name);
        self.values.push(Value {
            name: d.name,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Throughput and latency of a capacity-limited loop, on the
    /// host-adjusted clock: `ops` are the `(start, end)` of every operation
    /// that ended inside `window`, `units` what they completed (requests,
    /// samples), `steps` the latency units per operation (a `train` call is
    /// several optimizer steps). The wall-clock values go into the notes.
    pub fn set_ops(
        &mut self,
        clock: &HostClock,
        ops: &[(Instant, Instant)],
        window: (Instant, Instant),
        units: usize,
        steps: usize,
    ) {
        let quiet = clock.quiet_secs(window.0, window.1);
        self.set("throughput_per_s", units as f64 / quiet, ops.len());
        let times: Vec<f64> = ops
            .iter()
            .map(|(a, b)| clock.quiet_ms(*a, *b) / steps as f64)
            .collect();
        self.set_latency(&times);
        let wall = (window.1 - window.0).as_secs_f64();
        let raw = crate::stats::sorted(
            ops.iter()
                .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3 / steps as f64)
                .collect(),
        );
        self.note(
            "wall_throughput_per_s",
            format!("{:.4}", units as f64 / wall),
        );
        self.note(
            "wall_latency_p50_ms",
            format!(
                "{:.4}",
                crate::stats::percentile(&raw, 50.0).unwrap_or(f64::NAN)
            ),
        );
        self.note(
            "wall_latency_p90_ms",
            format!(
                "{:.4}",
                crate::stats::percentile(&raw, 90.0).unwrap_or(f64::NAN)
            ),
        );
        self.note(
            "host_slowdown_in_window",
            format!("{:.4}", clock.slowdown_between(window.0, window.1)),
        );
    }

    /// The latency metrics of a distribution of per-operation times: the
    /// median (end to end), the 90th percentile (per layer, and noted), the
    /// sample count, and the highest percentile that count supports (ten
    /// samples beyond it), so a p90 read off fewer than 100 samples is
    /// flagged, not hidden.
    pub fn set_latency(&mut self, times_ms: &[f64]) {
        let v = crate::stats::sorted(times_ms.to_vec());
        let p = |q| crate::stats::percentile(&v, q).unwrap_or(f64::NAN);
        self.set("latency_p50_ms", p(50.0), v.len());
        self.set("bench.latency_p90_ms", p(90.0), v.len());
        self.note("latency_p90_ms", format!("{:.4}", p(90.0)));
        self.note("latency_samples", v.len());
        self.note(
            "highest_supported_percentile",
            crate::stats::highest_supported_percentile(v.len()),
        );
    }

    /// Count one correctness gate: `ok == false` is a failed operation.
    pub fn gate(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// The contract's result line: exactly the metrics of `kind`, in
    /// catalogue order; a per-layer metric the workload does not exercise
    /// reads 0.
    pub fn contract_json(&self, kind: Kind) -> String {
        let metrics: Vec<String> = CATALOG
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| {
                let v = self.get(d.name).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_num(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human table: name, unit, value, sample count.
    pub fn table(&self, kind: Kind) -> String {
        let mut out = String::new();
        for d in CATALOG.iter().filter(|d| d.kind == kind) {
            if let Some(v) = self.values.iter().find(|v| v.name == d.name) {
                let n = if v.samples > 0 {
                    format!("n={}", v.samples)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "  {:<40} {:>16} {:<8} {}\n",
                    d.name,
                    fmt_value(v.value),
                    d.unit,
                    n
                ));
            }
        }
        out
    }
}

/// A finite JSON number with all its digits (non-finite values become 0 and
/// are reported as failures by the caller).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, d) in CATALOG.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
            assert!(
                CATALOG[..i].iter().all(|e| e.name != d.name),
                "duplicate {}",
                d.name
            );
        }
        assert!(CATALOG.iter().filter(|d| d.kind == Kind::PerLayer).count() <= 128);
    }

    #[test]
    fn contract_line_has_every_metric_of_its_kind() {
        let mut r = RunResult::default();
        r.set("setup_s", 0.25, 5);
        r.gate("ok", true);
        let line = r.contract_json(Kind::EndToEnd);
        let v = aeris_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let metrics = v.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(
            metrics.len(),
            CATALOG.iter().filter(|d| d.kind == Kind::EndToEnd).count()
        );
        assert_eq!(
            v.at(&["metrics", "setup_s", "value"])
                .and_then(|x| x.as_f64()),
            Some(0.25)
        );
    }
}
