//! The repo benchmark. One process runs one workload, untraced (end-to-end
//! metrics) or traced (per-layer metrics + a layer trace); with no
//! `--trace` it runs every workload both ways in fresh processes and merges
//! the results. See `benchmark/README.md`.

mod agreement;
mod fixture;
mod hostclock;
mod metrics;
mod probes;
mod replay;
mod serve_load;
mod serve_runs;
mod spans;
mod stats;
mod train_runs;

use hostclock::{HostClock, HostProbe};
use metrics::{Kind, RunResult, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub nproc: usize,
    /// Samples the host's slowdown for the whole run (see `hostclock`).
    pub probe: HostProbe,
}

impl Ctx {
    /// `min(nproc, 4)`: the closed loop's client threads, and the serve
    /// workers per tier (with the rayon pool pinned to one thread, workers ×
    /// pool threads ≤ cores).
    pub fn thread_budget(&self) -> usize {
        self.nproc.min(4)
    }

    /// Unmeasured lead-in: a tenth of the window, at least half a second.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).clamp(0.5, 5.0))
    }

    /// The host-adjusted clock over everything sampled so far.
    pub fn clock(&self) -> HostClock {
        self.probe.clock()
    }

    /// Build the fixture once, timed; the run uses this build.
    pub fn first_setup<T>(&self, build: impl FnOnce() -> T) -> (SetupTimer, T) {
        let t0 = Instant::now();
        let built = build();
        (
            SetupTimer {
                spans: vec![(t0, Instant::now())],
            },
            built,
        )
    }

    /// After the measured window: build the fixture `SETUP_REPEATS - 1` more
    /// times, dropping each, and return the median build time in quiet
    /// seconds. The repeats come last so that `peak_rss_mb` is the peak of a
    /// process that set up once, as a user's does (memory the repeats leave
    /// in the allocator's arenas made it bimodal).
    pub fn finish_setup<T>(&self, mut timer: SetupTimer, mut build: impl FnMut() -> T) -> f64 {
        while timer.spans.len() < SETUP_REPEATS {
            let t0 = Instant::now();
            drop(build());
            timer.spans.push((t0, Instant::now()));
        }
        let clock = self.clock();
        let quiet: Vec<f64> = timer
            .spans
            .iter()
            .map(|(a, b)| clock.quiet_secs(*a, *b))
            .collect();
        stats::median(&quiet).expect("SETUP_REPEATS > 0")
    }
}

/// The `(start, end)` of the set-ups timed so far in this run.
pub struct SetupTimer {
    spans: Vec<(Instant, Instant)>,
}

/// `VmHWM` of this process in MB (0 where /proc is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    bench_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    list_metrics: bool,
    calibrate: Option<usize>,
    check_agreement: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    format!(
        "usage: aeris-benchmark [--bench-dir DIR] [--workload NAME] [--seed N] [--seconds S]\n\
         \x20      [--trace 0|1] [--smoke] [--list-metrics] [--calibrate N] [--check-agreement A.json B.json]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        bench_dir: PathBuf::from("benchmark"),
        workload: None,
        seed: 2025,
        seconds: None,
        trace: None,
        smoke: false,
        list_metrics: false,
        calibrate: None,
        check_agreement: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--bench-dir" => a.bench_dir = PathBuf::from(value("a directory")?),
            "--workload" => {
                let w = value("a name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => a.smoke = true,
            "--list-metrics" => a.list_metrics = true,
            "--calibrate" => {
                a.calibrate = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--calibrate: {e}"))?,
                )
            }
            "--check-agreement" => {
                a.check_agreement = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(a)
}

/// Run one workload in this process.
fn run_workload(workload: &str, ctx: &Ctx, trace: bool) -> (RunResult, Option<String>) {
    let mut r = RunResult::default();
    let spin = Duration::from_millis(100);
    let before = stats::spin_mops(spin);
    type Untraced = fn(&Ctx, &mut RunResult);
    type Traced = fn(&Ctx, &mut RunResult) -> String;
    let (untraced, traced): (Untraced, Traced) = match workload {
        "serve_quality_distinct" => (serve_runs::quality_untraced, serve_runs::quality_traced),
        "serve_mixed_open" => (serve_runs::mixed_untraced, serve_runs::mixed_traced),
        "train_single" => (train_runs::single_untraced, train_runs::single_traced),
        "train_swipe" => (train_runs::swipe_untraced, train_runs::swipe_traced),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    let doc = if trace {
        Some(traced(ctx, &mut r))
    } else {
        untraced(ctx, &mut r);
        None
    };
    rayon::set_thread_override(None);
    let run_start = ctx.probe.started();
    r.set(
        "bench.host_slowdown",
        ctx.clock().slowdown_between(run_start, Instant::now()),
        0,
    );
    let after = stats::spin_mops(spin);
    r.set("bench.spin_mops_before", before, 0);
    r.set("bench.spin_mops_after", after, 0);
    r.set(
        "bench.failed_share",
        r.failed as f64 / r.attempted.max(1) as f64,
        0,
    );
    r.note("spin_mops_before_after", format!("{before:.1} {after:.1}"));
    r.note("disturbed", (before - after).abs() / before > 0.05);
    r.note("nproc", ctx.nproc);
    r.note("clients_and_workers_per_tier", ctx.thread_budget());
    r.note(
        "request_stream_digest",
        format!("{:016x}", fixture::stream_digest(workload, ctx.seed, 16)),
    );
    // A value that is not a finite number is a failed measurement.
    let kind = Kind::of(trace);
    let not_finite: Vec<&str> = r
        .values
        .iter()
        .filter(|v| metrics::def(v.name).kind == kind && !v.value.is_finite())
        .map(|v| v.name)
        .collect();
    for name in not_finite {
        r.gate(&format!("{name} is finite"), false);
    }
    if !trace {
        for d in metrics::CATALOG.iter().filter(|d| d.kind == Kind::EndToEnd) {
            if r.get(d.name).is_none() {
                r.gate(&format!("{} was measured", d.name), false);
            }
        }
    }
    (r, doc)
}

fn write_file(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The contract's single run: table on stderr, result line last on stdout.
fn single_run(args: &Args, workload: &str, trace: bool) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seconds = args.seconds.unwrap_or(if args.smoke {
        2.0
    } else {
        agreement::RUN_SECONDS
    });
    // `train_single` computes on one thread. It shares one CPU with the
    // probe (spawned next, inheriting the mask), so that the probe reads the
    // core the workload runs on and not an idle one (see `hostclock`).
    let pinned_cpu = (workload == "train_single")
        .then(hostclock::pin_to_one_cpu)
        .flatten();
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        nproc,
        probe: HostProbe::start(),
    };
    let (mut r, doc) = run_workload(workload, &ctx, trace);
    if let Some(cpu) = pinned_cpu {
        r.note("pinned_to_cpu", cpu);
    }
    let kind = Kind::of(trace);
    eprintln!(
        "== {workload} seed {} seconds {seconds} trace {}",
        args.seed, trace as u8
    );
    eprint!("{}", r.table(kind));
    for (k, v) in &r.notes {
        eprintln!("  {k}: {v}");
    }
    let out = args.bench_dir.join("out");
    if let Some(doc) = doc {
        write_file(&out.join(format!("{workload}.trace.json")), &doc);
    }
    write_file(
        &out.join(format!("{workload}.trace{}.json", trace as u8)),
        &agreement::run_json(workload, &ctx, trace, &r),
    );
    ctx.probe.stop();
    println!("{}", r.contract_json(kind));
    if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} operations failed", r.failed, r.attempted);
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.list_metrics {
        print!("{}", metrics::glossary());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.check_agreement {
        return agreement::check_files(&args.bench_dir, a, b);
    }
    if let Some(n) = args.calibrate {
        return agreement::calibrate(&args, n);
    }
    match (&args.workload, args.trace) {
        (Some(w), Some(trace)) => single_run(&args, w, trace),
        _ => agreement::run_set(&args),
    }
}

impl Args {
    /// Arguments that select what a child process runs.
    fn child_args(&self, workload: &str, seed: u64, trace: bool) -> Vec<String> {
        let mut v = vec![
            "--bench-dir".to_string(),
            self.bench_dir.display().to_string(),
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--trace".to_string(),
            (trace as u8).to_string(),
        ];
        if let Some(s) = self.seconds {
            v.extend(["--seconds".to_string(), s.to_string()]);
        }
        if self.smoke {
            v.push("--smoke".to_string());
        }
        v
    }
}
