//! SWiPe in action: train the same model single-rank and distributed
//! (WP × SP × PP × DP thread ranks), verify the results agree, and show the
//! measured communication profile — the paper's §V-A, live on your laptop.
//!
//! ```bash
//! cargo run --release --example swipe_scaling
//! ```

#![allow(clippy::needless_range_loop)]


use aeris::core::{AerisConfig, AerisModel, TrainSample};
use aeris::diffusion::loss_weights;
use aeris::earthsim::Grid;
use aeris::nn::{AdamW, AdamWConfig, ParamId};
use aeris::obs::{mfu_report, MessageLaw, MfuInputs, SpanCategory, Tracer};
use aeris::perfmodel::{predict, train_flops_per_sample, AerisPerfConfig, EffModel, MachineSpec};
use aeris::swipe::data::InMemorySource;
use aeris::swipe::schedule::bubble_fraction;
use aeris::swipe::trainer::reference_grads;
use aeris::swipe::{DistributedTrainer, SwipeConfig, SwipeTopology};
use aeris::tensor::{Rng, Tensor};

fn main() {
    let cfg = AerisConfig {
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
        seed: 3,
    };
    let mut rng = Rng::seed_from(9);
    let samples: Vec<TrainSample> = (0..8)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), 3], &mut rng),
        })
        .collect();
    let source = InMemorySource { samples };
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);

    // WP 1×2, SP 2, PP 4 (= 2 Swin blocks + I/O and head stages), DP 2.
    let topo = SwipeTopology::new(2, 4, 1, 2, 2);
    println!(
        "topology: DP={} × PP={} × WP={}x{} × SP={} = {} thread ranks",
        topo.dp, topo.pp, topo.wp_a, topo.wp_b, topo.sp, topo.world_size()
    );
    let tracer = Tracer::enabled();
    let swipe_cfg = SwipeConfig {
        topo,
        gas: 2,
        n_steps: 2,
        lr: 1e-3,
        seed: 5,
        adamw: AdamWConfig::default(),
        tracer: tracer.clone(),
        ..SwipeConfig::new(topo)
    };
    let schedule: Vec<Vec<Vec<usize>>> =
        (0..2).map(|s| (0..2).map(|d| vec![2 * s + d, (2 * s + d + 3) % 8]).collect()).collect();

    let reference = AerisModel::new(cfg.clone());
    println!("running distributed SWiPe training (2 steps, GAS=2)…");
    let cpu_before = process_cpu_ticks();
    let switches_before = process_voluntary_switches();
    let report = DistributedTrainer::train(&reference, &swipe_cfg, &source, &schedule, &weights).expect("fault-free run");
    println!("  losses: {:?}", report.losses);
    // The ranks' own work (user CPU: a block-stage backward that runs each
    // tape node once keeps it low) and how much of the run the kernel spent
    // waking ranks (system CPU and voluntary context switches: a send that
    // wakes only the receiver waiting on it keeps both low).
    if let (Some((u0, s0)), Some((u1, s1))) = (cpu_before, process_cpu_ticks()) {
        let (user, sys) = (u1 - u0, s1 - s0);
        let per_step = |ticks: u64| ticks as f64 * 10.0 / swipe_cfg.n_steps as f64;
        println!("  user CPU per distributed step: {:.0} ms", per_step(user));
        println!(
            "  system CPU per distributed step: {:.0} ms ({:.0} % of the run's CPU time)",
            per_step(sys),
            100.0 * sys as f64 / (user + sys).max(1) as f64
        );
    }
    if let (Some(before), Some(after)) = (switches_before, process_voluntary_switches()) {
        println!(
            "  voluntary context switches per distributed step: {:.0}",
            (after - before) as f64 / swipe_cfg.n_steps as f64
        );
    }

    // The same two steps on a single rank with identical noise realizations.
    println!("running single-rank reference…");
    let mut ref_model = AerisModel::new(cfg);
    let mut opt = AdamW::new(&ref_model.store, AdamWConfig::default());
    for step in 0..2 {
        let (loss, grads) =
            reference_grads(&ref_model, &source, &schedule[step], &weights, 5, step);
        println!("  step {step}: loss {loss:.6} (distributed: {:.6})", report.losses[step]);
        let g: Vec<Option<Tensor>> = (0..ref_model.store.len())
            .map(|i| grads.get(ref_model.store.name(ParamId(i))).cloned())
            .collect();
        opt.step(&mut ref_model.store, &g, 1e-3);
    }

    let mut worst = 0.0f32;
    for (_, name, v) in ref_model.store.iter() {
        let d = report.final_params[name].max_abs_diff(v) / v.abs_max().max(1e-3);
        worst = worst.max(d);
    }
    println!("max relative parameter deviation distributed vs single-rank: {worst:.2e}");

    println!("\nmeasured traffic (bytes sent per rank, by class):");
    println!("{}", report.traffic.report());
    println!("peak activation elements on any rank: {}", report.max_activation_elems);

    // The step report: the recorded trace aggregated per step and checked
    // against the paper's message-size law M = b·s·h/SP/WP — an *exact*
    // integer comparison against the byte counters above.
    // The same analytical model that reproduces Table III, pointed at this
    // toy run: a "machine" whose tile is one laptop thread (a few scalar-f32
    // GFLOP/s), the model geometry above, and the run's WP/DP/GAS.
    let peak_per_rank = 5e9;
    let toy_perf = AerisPerfConfig {
        name: "toy",
        params_label_b: 0.0,
        wp_base: (topo.wp_a, topo.wp_b),
        wp_large: (topo.wp_a, topo.wp_b),
        pp: topo.pp,
        gas: 2,
        dim: 16,
        heads: 2,
        ffn: 32,
        blocks: 2,
        window: 4,
        nodes: topo.dp * topo.wp_a * topo.wp_b * topo.pp,
        dp: topo.dp,
        seq_tokens: 8 * 16,
        channels: 4,
    };
    let toy_machine = MachineSpec {
        name: "laptop",
        gpu: "cpu-thread",
        gpus_per_node: 1,
        tiles_per_node: topo.sp, // SP degree = tiles per "node"
        gpu_memory_gb: 1.0,
        gpu_mem_bw_tbs: 0.05,
        nics_per_node: 1,
        network_bw_gbs: 10.0,
        scaleup_bw_gbs: 10.0,
        peak_bf16_tflops_per_tile: peak_per_rank / 1e12,
        peak_fp32_tflops_per_tile: peak_per_rank / 1e12,
        ccl: "threads",
        max_nodes: 64,
    };
    let predicted = predict(
        &toy_perf,
        &toy_machine,
        topo.wp_a * topo.wp_b,
        topo.dp,
        2,
        &EffModel::default(),
    );

    let spans = tracer.snapshot_spans();
    let mfu = mfu_report(&MfuInputs {
        spans: &spans,
        comm: report.traffic.comm_bytes(),
        law: Some(MessageLaw {
            tokens: 8 * 16,
            dim: 16,
            sp: topo.sp as u64,
            wp: (topo.wp_a * topo.wp_b) as u64,
            dp: topo.dp as u64,
            gas: 2,
            blocks: 2,
            steps: 2,
        }),
        flops_per_step: train_flops_per_sample(&toy_perf) * (topo.dp * 2) as f64,
        ranks: topo.world_size(),
        peak_flops_per_rank: peak_per_rank,
        predicted: Some(predicted),
    });
    println!("\n{mfu}");

    // Is it the schedule or the scheduler? Each step's measured bubble share
    // (seconds ranks spent blocked on a pipeline neighbour, over ranks × wall)
    // beside the share the 1F1B schedule itself implies.
    let ideal = bubble_fraction(topo.pp, swipe_cfg.gas);
    for s in &mfu.steps {
        let measured = s.seconds(SpanCategory::Bubble) / (topo.world_size() as f64 * s.wall_s);
        println!(
            "step {}: bubble share measured {measured:.3} | 1F1B closed form (pp={}, gas={}) {ideal:.3}",
            s.step, topo.pp, swipe_cfg.gas
        );
    }

    // AERIS_TRACE=<path>: dump the full span timeline as Chrome-trace JSON
    // (load it in Perfetto or chrome://tracing to see the 1F1B schedule).
    if let Ok(path) = std::env::var("AERIS_TRACE") {
        std::fs::write(&path, tracer.chrome_trace()).expect("write trace");
        println!("wrote {} spans to {path}", spans.len());
    }
}

/// `(user, system)` CPU time of the whole process in clock ticks (10 ms:
/// `USER_HZ` is 100 on x86-64 and aarch64 Linux), fields 14–15 of
/// `/proc/self/stat`. Unlike the per-thread counters of `/proc/self/status`,
/// these include threads that have exited, as every rank thread has once
/// `train` returns. `None` where the file is unreadable.
fn process_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces: count fields from its `)`.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// Voluntary context switches of the whole process, exited threads included:
/// `ru_nvcsw` of `getrusage(RUSAGE_SELF)`. `/proc/self/status` counts the
/// calling thread's switches only, and every rank thread has exited once
/// `train` returns. `None` where the call fails, and off Linux.
#[cfg(target_os = "linux")]
fn process_voluntary_switches() -> Option<u64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`
    /// counters, of which `ru_nvcsw` is the 13th.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage { times: [0; 4], counters: [0; 14] };
    // SAFETY: `usage` is a live, writable value of the C layout `getrusage`
    // fills in, and the call keeps no pointer to it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0).then(|| usage.counters[12] as u64)
}

#[cfg(not(target_os = "linux"))]
fn process_voluntary_switches() -> Option<u64> {
    None
}
