//! Per-layer micro-probes: each times one public function of one crate in
//! isolation, on the shapes the `toy48` model actually uses. They do not
//! depend on the workload and run in every traced run.

use crate::fixture;
use crate::metrics::RunResult;
use crate::serve_load::Models;
use crate::stats;
use aeris_assim::{nowcast_member, relax_toward_observations, GuidanceSchedule, ObsOperator};
use aeris_autodiff::{Tape, WindowAttnPlan};
use aeris_core::AerisModel;
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_nn::{AdamW, AdamWConfig, Binding, ParamId};
use aeris_obs::{MetricSeries, SpanCategory, Tracer};
use aeris_perfmodel::flops::forward_flops_per_sample;
use aeris_perfmodel::AerisPerfConfig;
use aeris_sched::{
    DispatchQueue, QuotaConfig, QuotaTable, RouterConfig, ServiceEstimator, TaskMeta, TenantPolicy,
    Tier, TierRouter,
};
use aeris_serve::{content_hash, CacheKey, RolloutCache};
use aeris_swipe::{CommClass, World};
use aeris_tensor::{matmul, matmul_nt, matmul_tn, Rng, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time budget of one probe. ~45 probes fit in about four seconds.
const BUDGET: Duration = Duration::from_millis(70);

/// Median seconds per call of `f` and the calls made: one call sizes a
/// batch of about 2 ms, batches repeat until the budget is spent, and the
/// median batch is reported (robust to a preempted batch).
pub fn time_it(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((2e-3 / first) as usize).clamp(1, 1 << 20);
    let mut batches = Vec::new();
    let mut calls = 1;
    while t0.elapsed() < budget || batches.len() < 3 {
        let b0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(b0.elapsed().as_secs_f64() / per_batch as f64);
        calls += per_batch;
    }
    (
        stats::median(&batches).expect("at least three batches"),
        calls,
    )
}

/// Time `f` and record `value(seconds per call)` under `name`.
fn measure(r: &mut RunResult, name: &str, value: impl Fn(f64) -> f64, f: impl FnMut()) -> f64 {
    let (s, n) = time_it(BUDGET, f);
    r.set(name, value(s), n);
    value(s)
}

fn set_ms(r: &mut RunResult, name: &str, f: impl FnMut()) -> f64 {
    measure(r, name, |s| s * 1e3, f)
}

fn set_scaled(r: &mut RunResult, name: &str, scale: f64, f: impl FnMut()) {
    measure(r, name, |s| s * scale, f);
}

fn gemm_gflops(r: &mut RunResult, name: &str, flops: f64, f: impl FnMut()) {
    measure(r, name, |s| flops / s / 1e9, f);
}

/// `perfmodel`'s description of `toy48` (FLOP counts only).
fn perf_config(model: &AerisModel) -> AerisPerfConfig {
    let c = &model.cfg;
    AerisPerfConfig {
        name: "toy48",
        params_label_b: 0.0,
        wp_base: (1, 1),
        wp_large: (1, 1),
        pp: c.total_blocks() + 2,
        gas: 1,
        dim: c.dim,
        heads: c.n_heads,
        ffn: c.ffn,
        blocks: c.total_blocks(),
        window: c.window.0,
        nodes: 1,
        dp: 1,
        seq_tokens: c.tokens(),
        channels: c.channels,
    }
}

fn tensor_probes(r: &mut RunResult, rng: &mut Rng) {
    let mut gemm = |r: &mut RunResult, name: &str, m: usize, k: usize, n: usize| {
        let (a, b) = (Tensor::randn(&[m, k], rng), Tensor::randn(&[k, n], rng));
        gemm_gflops(r, name, 2.0 * (m * k * n) as f64, || {
            black_box(matmul(black_box(&a), black_box(&b)));
        });
    };
    gemm(r, "tensor.gemm_256_gflops", 256, 256, 256);
    gemm(r, "tensor.gemm_attn_proj_gflops", 512, 48, 48);
    gemm(r, "tensor.gemm_mlp_up_gflops", 512, 48, 96);
    gemm(r, "tensor.gemm_mlp_down_gflops", 512, 96, 48);
    let (q, k) = (Tensor::randn(&[16, 12], rng), Tensor::randn(&[16, 12], rng));
    gemm_gflops(
        r,
        "tensor.gemm_attn_scores_nt_gflops",
        2.0 * (16 * 16 * 12) as f64,
        || {
            black_box(matmul_nt(black_box(&q), black_box(&k)));
        },
    );
    let (x, dy) = (
        Tensor::randn(&[512, 48], rng),
        Tensor::randn(&[512, 96], rng),
    );
    gemm_gflops(
        r,
        "tensor.gemm_tn_wgrad_gflops",
        2.0 * (512 * 48 * 96) as f64,
        || {
            black_box(matmul_tn(black_box(&x), black_box(&dy)));
        },
    );
}

/// One public layer forward on `[512, 48]`, on a fresh tape per call (as
/// every model evaluation does).
fn layer_ms(
    r: &mut RunResult,
    name: &str,
    model: &AerisModel,
    x: &Tensor,
    f: impl Fn(&mut Tape, &mut Binding, aeris_autodiff::Var),
) -> f64 {
    set_ms(r, name, || {
        let mut tape = Tape::new();
        let mut binding = Binding::new(&model.store);
        let xv = tape.constant(x.clone());
        f(&mut tape, &mut binding, xv);
        black_box(tape.len());
    })
}

/// nn + autodiff probes. Returns the summed layer time of one model
/// evaluation, for `core.velocity_unattributed_share`.
fn nn_autodiff_probes(r: &mut RunResult, model: &AerisModel, rng: &mut Rng) -> f64 {
    let (c, store, block) = (&model.cfg, &model.store, &model.blocks[0]);
    let x = Tensor::randn(&[c.tokens(), c.dim], rng);
    let n_windows = model.geo.grid.count();

    let linear = layer_ms(r, "nn.linear_fwd_ms", model, &x, |t, b, xv| {
        block.attn.wq.forward(t, b, store, xv);
    });
    let norm = layer_ms(r, "nn.rmsnorm_fwd_ms", model, &x, |t, b, xv| {
        block.norm1.forward(t, b, store, xv);
    });
    let mlp = layer_ms(r, "nn.swiglu_fwd_ms", model, &x, |t, b, xv| {
        block.mlp.forward(t, b, store, xv);
    });
    let attn = layer_ms(r, "nn.window_attn_fwd_ms", model, &x, |t, b, xv| {
        block
            .attn
            .forward_all_windows(t, b, store, xv, &model.geo.rope, n_windows);
    });
    let time_cond = set_ms(r, "nn.time_cond_ms", || {
        let mut tape = Tape::new();
        let mut binding = Binding::new(store);
        black_box(model.time_cond.embed(&mut tape, &mut binding, store, 0.7));
    });
    let adaln = set_ms(r, "nn.adaln_fwd_ms", || {
        let mut tape = Tape::new();
        let mut binding = Binding::new(store);
        let cond = tape.constant(Tensor::zeros(&[1, c.cond_dim]));
        black_box(block.adaln.forward(&mut tape, &mut binding, store, cond));
    });

    // The fused attention node alone, forward and backward.
    let plan = WindowAttnPlan::new(
        n_windows,
        c.window.0 * c.window.1,
        c.n_heads,
        c.head_dim(),
        model.geo.rope.cos.clone(),
        model.geo.rope.sin.clone(),
    );
    let w: Vec<Tensor> = (0..4)
        .map(|_| Tensor::randn(&[c.dim, c.dim], rng).scale(0.1))
        .collect();
    let attention = |tape: &mut Tape| {
        let xv = tape.leaf(x.clone());
        let wv: Vec<_> = w.iter().map(|t| tape.leaf(t.clone())).collect();
        tape.window_attention(xv, wv[0], wv[1], wv[2], wv[3], &plan)
    };
    let fwd = set_ms(r, "autodiff.window_attention_fwd_ms", || {
        let mut tape = Tape::new();
        black_box(attention(&mut tape));
    });
    // QKVO projections 8·s·d² plus scores and AV 4·s·w·d.
    let (s, d, wl) = (
        c.tokens() as f64,
        c.dim as f64,
        (c.window.0 * c.window.1) as f64,
    );
    r.set(
        "autodiff.window_attention_fwd_gflops",
        s * (8.0 * d * d + 4.0 * wl * d) / (fwd * 1e-3) / 1e9,
        0,
    );
    let both = time_it(BUDGET, || {
        let mut tape = Tape::new();
        let y = attention(&mut tape);
        let loss = tape.sum(y);
        black_box(tape.backward(loss));
    });
    r.set(
        "autodiff.window_attention_bwd_ms",
        (both.0 * 1e3 - fwd).max(0.0),
        both.1,
    );

    set_ms(r, "autodiff.bind_params_ms", || {
        let mut tape = Tape::new();
        let mut binding = Binding::new(store);
        for i in 0..store.len() {
            binding.var(&mut tape, store, ParamId(i));
        }
        black_box(tape.len());
    });

    // One whole forward + loss, then backward alone (forward time removed).
    let x_t = Tensor::randn(&[c.tokens(), c.channels], rng);
    let x_prev = Tensor::randn(&[c.tokens(), c.channels], rng);
    let forcings = Tensor::zeros(&[c.tokens(), c.forcing_channels]);
    let target = Tensor::randn(&[c.tokens(), c.channels], rng);
    let grid = Grid::new(c.grid_h, c.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; c.channels]);
    let forward = |tape: &mut Tape| {
        let input = model.assemble_input(&x_t, &x_prev, &forcings);
        let mut binding = Binding::new(store);
        let iv = tape.constant(input);
        let out = model.forward(tape, &mut binding, iv, 0.7);
        tape.weighted_mse(out, &target, &weights)
    };
    let (fwd_s, _) = time_it(BUDGET, || {
        let mut tape = Tape::new();
        black_box(forward(&mut tape));
    });
    let (both_s, n) = time_it(BUDGET, || {
        let mut tape = Tape::new();
        let loss = forward(&mut tape);
        black_box(tape.backward(loss));
    });
    r.set("autodiff.backward_ms", ((both_s - fwd_s) * 1e3).max(0.0), n);

    let grads: Vec<Option<Tensor>> = store
        .iter()
        .map(|(_, _, t)| Some(Tensor::randn(t.shape(), rng).scale(1e-3)))
        .collect();
    let mut scratch = AerisModel::new(c.clone());
    let mut opt = AdamW::new(&scratch.store, AdamWConfig::default());
    set_ms(r, "nn.adamw_step_ms", || {
        opt.step(&mut scratch.store, &grads, 1e-4)
    });

    // One evaluation = embed + decode (2 linears), and per block: 1 AdaLN
    // head, 2 norms, 1 attention, 1 MLP; plus the final norm and the time
    // embedding. Gathers, affine rows and residual adds are left to the
    // unattributed share on purpose.
    let blocks = c.total_blocks() as f64;
    2.0 * linear + time_cond + norm + blocks * (adaln + 2.0 * norm + attn + mlp)
}

fn core_assim_probes(r: &mut RunResult, models: &Models, rng: &mut Rng, layer_sum_ms: f64) {
    let (fc, student) = (&models.fc, &models.student);
    let c = models.cfg();
    let x_t = Tensor::randn(&[c.tokens(), c.channels], rng);
    let x_prev = Tensor::randn(&[c.tokens(), c.channels], rng);
    let forcings = Tensor::zeros(&[c.tokens(), c.forcing_channels]);

    let velocity = set_ms(r, "core.velocity_ms", || {
        black_box(fc.model.velocity(&x_t, &x_prev, &forcings, 0.7));
    });
    let flops = forward_flops_per_sample(&perf_config(&fc.model));
    r.set("core.velocity_flops", flops, 0);
    r.set("core.velocity_gflops", flops / (velocity * 1e-3) / 1e9, 0);
    r.set(
        "core.velocity_unattributed_share",
        1.0 - layer_sum_ms / velocity,
        0,
    );
    r.set(
        "diffusion.nfe_per_step",
        {
            let mut nfe = 0usize;
            let mut count = |x: &Tensor, _t: f32| {
                nfe += 1;
                Tensor::zeros(x.shape())
            };
            fc.sampler
                .sample(&[4, 4], &mut count, &mut Rng::seed_from(0));
            nfe as f64
        },
        0,
    );

    let mut step_rng = Rng::seed_from(11);
    set_ms(r, "core.student_step_ms", || {
        black_box(student.forecast_step(&x_prev, &forcings, &mut step_rng));
    });

    // Plain and guided quality steps in alternation, so the overhead share
    // is a ratio of neighbours in time and not of two separate probes.
    let grid = Grid::new(c.grid_h, c.grid_w);
    let op = ObsOperator::stations(&grid, c.tokens() / 4, &[0, 1], &vec![0.5; c.channels], 17);
    let obs = Arc::new(op.observe(&x_t, 0.05, 3));
    let background = Arc::new(x_prev.clone());
    let (mut plain, mut guided) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        black_box(fc.forecast_step(&x_prev, &forcings, &mut step_rng));
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(nowcast_member(
            fc,
            &background,
            &forcings,
            &obs,
            GuidanceSchedule::Constant(0.05),
            5,
            0,
        ));
        guided.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let ratios: Vec<f64> = plain
        .iter()
        .zip(&guided)
        .map(|(p, g)| g / p - 1.0)
        .collect();
    let median = |v: &[f64]| stats::median(v).expect("five pairs");
    r.set("core.forecast_step_ms", median(&plain), plain.len());
    r.set("assim.guided_step_ms", median(&guided), guided.len());
    r.set(
        "assim.guidance_overhead_share",
        median(&ratios),
        ratios.len(),
    );
    let mut state = x_prev.clone();
    set_ms(r, "assim.relax_ms", || {
        relax_toward_observations(&mut state, &obs, 0.05)
    });
}

fn cache_key(i: u64) -> CacheKey {
    CacheKey {
        init: i,
        forcings: 1,
        seed: i,
        member: 0,
        step: 1,
        aux: 0,
    }
}

fn serve_sched_probes(r: &mut RunResult, rng: &mut Rng) {
    let c = fixture::toy48();
    let state = Arc::new(Tensor::randn(&[c.tokens(), c.channels], rng));
    let bytes = 4 * state.len();
    set_scaled(r, "serve.content_hash_us", 1e6, || {
        black_box(content_hash(black_box(&state)));
    });
    let snap = Rng::seed_from(1).snapshot();
    // Under budget: 256 resident entries, hits and overwrites only.
    let cache = RolloutCache::new(1024 * bytes);
    for i in 0..256 {
        cache.insert(cache_key(i), Arc::clone(&state), snap);
    }
    let mut i = 0u64;
    set_scaled(r, "serve.cache_get_ns", 1e9, || {
        i = (i + 1) % 256;
        black_box(cache.get(&cache_key(i)));
    });
    set_scaled(r, "serve.cache_insert_ns", 1e9, || {
        i = (i + 1) % 256;
        cache.insert(cache_key(i), Arc::clone(&state), snap);
    });
    // Over budget: room for 64 entries, every fresh key evicts one.
    let small = RolloutCache::new(64 * bytes);
    set_scaled(r, "serve.cache_insert_evict_ns", 1e9, || {
        i += 1;
        small.insert(cache_key(1 << 32 | i), Arc::clone(&state), snap);
    });

    // A queue holding 1024 tasks, a quarter of them deadlined (EDF), the
    // rest spread over four weighted tenants (WFQ).
    let tenants: Vec<Arc<str>> = ["ops", "research", "a", "b"].map(Arc::from).to_vec();
    let base = Instant::now() + Duration::from_secs(3600);
    let meta = |k: usize| TaskMeta {
        deadline: k
            .is_multiple_of(4)
            .then(|| base + Duration::from_millis((k * 37 % 1000) as u64)),
        tenant: Arc::clone(&tenants[k % 4]),
        weight: 1.0 + (k % 4) as f64,
        cost: 1.0 + (k % 3) as f64,
        shape: 1,
    };
    // Fill to 1024, then drain one task at a time: per-task cost averaged
    // over every depth the queue passes through.
    let (mut fills, mut drains) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let queue: DispatchQueue<usize> = DispatchQueue::new();
        let t = Instant::now();
        for k in 0..1024 {
            queue.push(k, meta(k));
        }
        fills.push(t.elapsed().as_secs_f64() / 1024.0 * 1e9);
        let t = Instant::now();
        while queue.depth() > 0 {
            black_box(queue.next_batch(1, Duration::ZERO));
        }
        drains.push(t.elapsed().as_secs_f64() / 1024.0 * 1e9);
    }
    r.set(
        "sched.dispatch_push_ns",
        stats::median(&fills).expect("five rounds"),
        5 * 1024,
    );
    r.set(
        "sched.dispatch_next_batch_ns",
        stats::median(&drains).expect("five rounds"),
        5 * 1024,
    );

    let quotas = QuotaTable::new(QuotaConfig {
        default: TenantPolicy {
            weight: 1.0,
            rate: 0.0,
            burst: 0.0,
        },
        overrides: vec![(
            Arc::clone(&tenants[1]),
            TenantPolicy {
                weight: 1.0,
                rate: 1e9,
                burst: 1e9,
            },
        )],
    });
    set_scaled(r, "sched.quota_admit_ns", 1e9, || {
        black_box(quotas.admit(&tenants[1], 1.0));
    });
    let estimator = ServiceEstimator::new();
    set_scaled(r, "sched.estimator_observe_ns", 1e9, || {
        estimator.observe(Tier::Quality, 0.1)
    });
    let router = TierRouter::new(RouterConfig::default());
    set_scaled(r, "sched.route_ns", 1e9, || {
        black_box(router.route(None, Some(Duration::from_millis(400)), 1, true, &estimator));
    });
}

/// Collectives over `ranks` thread-ranks on 4K-element tensors. Every rank
/// runs the same op `iters` times; rank 0's wall over the loop is reported.
fn swipe_probes(r: &mut RunResult, ranks: usize) {
    let ranks = ranks.max(2);
    let iters = 200;
    let group: Vec<usize> = (0..ranks).collect();
    let timed = |op: &(dyn Fn(&mut aeris_swipe::Communicator) + Sync)| -> f64 {
        let world = World::new(ranks);
        let walls: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..ranks)
                .map(|rank| {
                    let mut comm = world.communicator(rank);
                    s.spawn(move || {
                        let t0 = Instant::now();
                        for _ in 0..iters {
                            op(&mut comm);
                        }
                        t0.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        });
        walls[0] / iters as f64 * 1e6
    };
    let value = Tensor::ones(&[4096]);
    let g = &group;
    r.set(
        "swipe.allreduce_us",
        timed(&|c| drop(c.allreduce_sum(g, &value).expect("fault-free"))),
        iters,
    );
    r.set(
        "swipe.alltoall_us",
        timed(&|c| {
            let chunks = vec![Tensor::ones(&[4096 / g.len()]); g.len()];
            drop(c.alltoall(g, chunks).expect("fault-free"));
        }),
        iters,
    );
    r.set(
        "swipe.p2p_roundtrip_us",
        timed(&|c| match c.rank() {
            0 => {
                c.send(1, CommClass::P2p, vec![value.clone()])
                    .expect("fault-free");
                drop(c.recv(1).expect("fault-free"));
            }
            1 => {
                let got = c.recv(0).expect("fault-free");
                c.send(0, CommClass::P2p, got).expect("fault-free");
            }
            _ => {}
        }),
        iters,
    );
}

fn obs_probes(r: &mut RunResult) {
    let off = Tracer::disabled();
    set_scaled(r, "obs.span_disabled_ns", 1e9, || {
        drop(black_box(off.span(SpanCategory::Forward, 0)));
    });
    let on = Tracer::enabled();
    set_scaled(r, "obs.span_enabled_ns", 1e9, || {
        drop(black_box(on.span(SpanCategory::Forward, 0)));
        if on.span_count() > 1 << 16 {
            on.take_spans();
        }
    });
    let series = MetricSeries::new();
    let mut v = 0.0;
    set_scaled(r, "obs.histogram_record_ns", 1e9, || {
        v += 0.37;
        series.record(v);
    });
}

/// Run every workload-independent probe. `threads` is the rayon pool width
/// the workload itself runs with, so layer times are comparable with it.
pub fn run_all(r: &mut RunResult, models: &Models, threads: Option<usize>, nproc: usize) {
    rayon::set_thread_override(threads);
    let mut rng = Rng::seed_from(0x9B0BE);
    tensor_probes(r, &mut rng);
    let layer_sum_ms = nn_autodiff_probes(r, &models.fc.model, &mut rng);
    core_assim_probes(r, models, &mut rng, layer_sum_ms);
    serve_sched_probes(r, &mut rng);
    swipe_probes(r, nproc);
    obs_probes(r);
}
