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
    let train = |cfg: &SwipeConfig| {
        let before = process_usage();
        let report =
            DistributedTrainer::train(&reference, cfg, &source, &schedule, &weights).expect("fault-free run");
        let used = before.zip(process_usage()).map(|(b, a)| a.since(&b));
        (report, used)
    };
    let (report, cold) = train(&swipe_cfg);
    println!("  losses: {:?}", report.losses);
    // The ranks' own work (user CPU: a block-stage backward that runs each
    // tape node once keeps it low) and how much of the run the kernel spent
    // waking ranks (system CPU and voluntary context switches: a send that
    // wakes only the receiver waiting on it keeps both low).
    let steps = swipe_cfg.n_steps as f64;
    if let Some(cold) = &cold {
        println!("  user CPU per distributed step: {:.0} ms", cold.user_ms / steps);
        println!(
            "  system CPU per distributed step: {:.0} ms ({:.0} % of the run's CPU time)",
            cold.system_ms / steps,
            100.0 * cold.system_ms / (cold.user_ms + cold.system_ms).max(1e-9)
        );
        println!(
            "  voluntary context switches per distributed step: {:.0}",
            cold.voluntary_switches as f64 / steps
        );
    }
    // The same call again, on the rank threads the first call left parked
    // (traced into a tracer of its own: the step report below reads the
    // first call's spans). It spawns no thread, and each rank thread's stack
    // and malloc arena are already faulted in.
    let (warm, warm_used) = train(&SwipeConfig { tracer: Tracer::enabled(), ..swipe_cfg.clone() });
    assert_eq!(warm.losses, report.losses, "a warm call repeats the first call's losses");
    if let (Some(cold), Some(warm)) = (&cold, &warm_used) {
        println!(
            "  warm call (parked rank threads): system CPU per call {:.0} ms, minor faults per \
             call {} (first call: {:.0} ms, {})",
            warm.system_ms, warm.minor_faults, cold.system_ms, cold.minor_faults
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

/// What the whole process has used, exited threads included: the
/// `getrusage(RUSAGE_SELF)` counters. `/proc/self/status` counts the calling
/// thread only.
struct Usage {
    user_ms: f64,
    system_ms: f64,
    minor_faults: u64,
    voluntary_switches: u64,
}

impl Usage {
    /// What was used between `before` and `self`.
    fn since(&self, before: &Usage) -> Usage {
        Usage {
            user_ms: self.user_ms - before.user_ms,
            system_ms: self.system_ms - before.system_ms,
            minor_faults: self.minor_faults - before.minor_faults,
            voluntary_switches: self.voluntary_switches - before.voluntary_switches,
        }
    }
}

/// The process's [`Usage`] so far. `None` where `getrusage` fails, and off
/// Linux.
#[cfg(target_os = "linux")]
fn process_usage() -> Option<Usage> {
    /// `struct rusage` on 64-bit Linux: the user and system `timeval`s
    /// (seconds, microseconds), then 14 `long` counters, of which
    /// `ru_minflt` is the 5th and `ru_nvcsw` the 13th.
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
    let ms = |sec: i64, usec: i64| sec as f64 * 1e3 + usec as f64 / 1e3;
    (rc == 0).then(|| Usage {
        user_ms: ms(usage.times[0], usage.times[1]),
        system_ms: ms(usage.times[2], usage.times[3]),
        minor_faults: usage.counters[4] as u64,
        voluntary_switches: usage.counters[12] as u64,
    })
}

#[cfg(not(target_os = "linux"))]
fn process_usage() -> Option<Usage> {
    None
}
