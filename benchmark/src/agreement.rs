//! Sets of runs and the agreement tooling: run every workload in fresh
//! processes and merge the results (`run_sets`), print the per-metric
//! spread that backs the committed bounds (`--calibrate`), and hold two
//! result files against the bounds in `BENCHMARK.json`
//! (`--check-agreement`).

use crate::metrics::{self, fmt_value, json_num, Kind, RunResult, CATALOG, WORKLOADS};
use crate::stats;
use crate::{Args, Ctx};
use aeris_obs::json::{self, JsonValue};
use std::path::Path;
use std::process::{Command, ExitCode};

/// The measured window of a contract run; equals `run_seconds` in
/// `BENCHMARK.json` (a unit test holds the two together).
pub const RUN_SECONDS: f64 = 20.0;

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The detailed record of one run (the contract line carries no sample
/// counts or notes).
pub fn run_json(workload: &str, ctx: &Ctx, trace: bool, r: &RunResult) -> String {
    let kind = Kind::of(trace);
    let values: Vec<String> = r
        .values
        .iter()
        .filter(|v| metrics::def(v.name).kind == kind)
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                quote(v.name),
                json_num(v.value),
                quote(metrics::def(v.name).unit),
                v.samples
            )
        })
        .collect();
    let notes: Vec<String> = r
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"notes\": {{{}}}}}\n",
        quote(workload),
        ctx.seed,
        json_num(ctx.seconds),
        trace as u8,
        ctx.nproc,
        r.attempted,
        r.failed,
        values.join(", "),
        notes.join(", ")
    )
}

fn tool_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// One child process = one workload, one mode. Returns the parsed contract
/// line, or `None` when the child failed.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Option<JsonValue> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out = Command::new(exe)
        .args(args.child_args(workload, seed, trace))
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn a child run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let parsed = json::parse(line).ok();
    if !out.status.success() {
        eprintln!(
            "{workload} trace {} seed {seed}: exit {}",
            trace as u8, out.status
        );
    }
    parsed
}

/// `values[workload][metric]` over the sets run, in run order.
type Table = Vec<(String, Vec<(String, Vec<f64>)>)>;

fn push_values(table: &mut Table, workload: &str, line: &JsonValue) {
    let Some(metrics) = line.get("metrics").and_then(JsonValue::as_object) else {
        return;
    };
    let pos = table
        .iter()
        .position(|(w, _)| w == workload)
        .unwrap_or_else(|| {
            table.push((workload.to_string(), Vec::new()));
            table.len() - 1
        });
    let row = &mut table[pos].1;
    for (name, m) in metrics {
        let Some(v) = m.get("value").and_then(JsonValue::as_f64) else {
            continue;
        };
        match row.iter_mut().find(|(n, _)| n == name) {
            Some((_, vs)) => vs.push(v),
            None => row.push((name.clone(), vec![v])),
        }
    }
}

fn table_json(table: &Table) -> String {
    let workloads: Vec<String> = table
        .iter()
        .map(|(w, row)| {
            let metrics: Vec<String> = row
                .iter()
                .map(|(name, vs)| {
                    let values: Vec<String> = vs.iter().map(|v| json_num(*v)).collect();
                    format!(
                        "{}: {{\"unit\": {}, \"values\": [{}]}}",
                        quote(name),
                        quote(metrics::def(name).unit),
                        values.join(", ")
                    )
                })
                .collect();
            format!(
                "    {}: {{\n      {}\n    }}",
                quote(w),
                metrics.join(",\n      ")
            )
        })
        .collect();
    workloads.join(",\n")
}

/// Run `n_sets` sets (seed, seed+1, …) of the selected workloads, each run
/// in a fresh process (clean `peak_rss_mb` and `setup_s`), untraced then —
/// when `traced` — traced; write the merged file; print the table.
fn run_sets(args: &Args, n_sets: usize, traced: bool, file: &str) -> (Table, u64, u64) {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut table = Table::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for set in 0..n_sets {
        let seed = args.seed + set as u64;
        for w in &workloads {
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                match run_child(args, w, seed, trace) {
                    Some(line) => {
                        let n =
                            |k: &str| line.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
                        attempted += n("attempted");
                        failed += n("failed");
                        push_values(&mut table, w, &line);
                    }
                    None => {
                        attempted += 1;
                        failed += 1;
                    }
                }
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = format!(
        "{{\n  \"meta\": {{\"seed\": {}, \"sets\": {n_sets}, \"nproc\": {nproc}, \
         \"clients_and_workers_per_tier\": {}, \"rustc\": {}, \"git_sha\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        nproc.min(4),
        quote(&tool_line("rustc", &["-V"], &args.bench_dir)),
        quote(&tool_line("git", &["rev-parse", "HEAD"], &args.bench_dir)),
        table_json(&table)
    );
    crate::write_file(&args.bench_dir.join("out").join(file), &doc);
    (table, attempted, failed)
}

fn exit_for(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The one command: every workload, untraced then traced, merged into
/// `out/results.json`, every metric printed by name with its unit.
pub fn run_set(args: &Args) -> ExitCode {
    let (table, attempted, failed) = run_sets(args, 1, true, "results.json");
    for (w, row) in &table {
        println!("== {w}");
        for d in CATALOG {
            if let Some((_, vs)) = row.iter().find(|(n, _)| n == d.name) {
                println!("  {:<40} {:>16} {}", d.name, fmt_value(vs[0]), d.unit);
            }
        }
    }
    println!(
        "attempted {attempted}, failed {failed}; wrote {}/out/results.json",
        args.bench_dir.display()
    );
    exit_for(failed)
}

/// `--calibrate N`: N untraced sets; per end-to-end metric the median, the
/// quartiles and the spread (interquartile distance over the median) — the
/// evidence for the bounds in `BENCHMARK.json`.
pub fn calibrate(args: &Args, n: usize) -> ExitCode {
    let (table, _, failed) = run_sets(args, n.max(2), false, "calibration.json");
    println!("| workload | metric | unit | median | q1 | q3 | spread |");
    println!("|---|---|---|---|---|---|---|");
    for (w, row) in &table {
        for (name, vs) in row {
            if let (Some([q1, q2, q3]), Some(spread)) = (stats::quartiles(vs), stats::spread(vs)) {
                println!(
                    "| {w} | {name} | {} | {} | {} | {} | {:.2} % |",
                    metrics::def(name).unit,
                    fmt_value(q2),
                    fmt_value(q1),
                    fmt_value(q3),
                    spread * 100.0
                );
            }
        }
    }
    exit_for(failed)
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn load_bounds(bench_dir: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let path = bench_dir.join("..").join("BENCHMARK.json");
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&doc)?;
    let list = v
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
            Ok((
                s("name").ok_or("metric without a name")?,
                s("better").ok_or("metric without a direction")?,
                m.get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("metric without a bound")?,
            ))
        })
        .collect()
}

fn load_table(path: &Path) -> Result<Table, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&doc)?;
    let workloads = v
        .get("workloads")
        .and_then(JsonValue::as_object)
        .ok_or("no workloads object")?;
    Ok(workloads
        .iter()
        .map(|(w, row)| {
            let metrics = row
                .as_object()
                .unwrap_or(&[])
                .iter()
                .map(|(name, m)| {
                    let values = m
                        .get("values")
                        .and_then(JsonValue::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(JsonValue::as_f64)
                        .collect();
                    (name.clone(), values)
                })
                .collect();
            (w.clone(), metrics)
        })
        .collect())
}

/// How one metric of one workload compares between two result sets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Agree,
    /// B's median is worse than A's by more than the bound.
    Outside,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// comparison cannot tell a change from noise.
    Unresolved,
}

/// Share by which `b` is worse than `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let rel = (b - a) / a.abs();
    if better == "higher" {
        -rel
    } else {
        rel
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> Option<(Verdict, f64)> {
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let worse = worsening(ma, mb, better);
    // Quartiles of fewer than four values say nothing about spread.
    let wide = [a, b]
        .iter()
        .any(|v| v.len() >= 4 && stats::spread(v).is_some_and(|s| s > bound));
    let v = if worse > bound {
        Verdict::Outside
    } else if wide {
        Verdict::Unresolved
    } else {
        Verdict::Agree
    };
    Some((v, worse))
}

/// `--check-agreement A.json B.json`: exit ≠ 0 when any end-to-end metric of
/// any workload is worse in B than in A by more than its bound.
pub fn check_files(bench_dir: &Path, a: &Path, b: &Path) -> ExitCode {
    let loaded =
        load_bounds(bench_dir).and_then(|bounds| Ok((bounds, load_table(a)?, load_table(b)?)));
    let (bounds, ta, tb) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut outside = 0;
    println!(
        "{:<24} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for (w, row_a) in &ta {
        let Some((_, row_b)) = tb.iter().find(|(wb, _)| wb == w) else {
            continue;
        };
        for (name, better, bound) in &bounds {
            let find = |row: &[(String, Vec<f64>)]| {
                row.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone())
            };
            let (Some(va), Some(vb)) = (find(row_a), find(row_b)) else {
                continue;
            };
            let Some((v, worse)) = verdict(&va, &vb, better, *bound) else {
                continue;
            };
            outside += (v == Verdict::Outside) as usize;
            println!(
                "{w:<24} {name:<20} {:>14} {:>14} {:>8.2}% {:>6.0}%  {}",
                fmt_value(stats::median(&va).unwrap_or(f64::NAN)),
                fmt_value(stats::median(&vb).unwrap_or(f64::NAN)),
                worse * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Agree => "agree",
                    Verdict::Outside => "OUTSIDE BOUND",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                }
            );
        }
    }
    if outside == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{outside} metric(s) outside their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Throughput (higher is better) dropping 10 % against a 5 % bound.
        assert_eq!(
            verdict(&[100.0], &[90.0], "higher", 0.05).unwrap().0,
            Verdict::Outside
        );
        assert_eq!(
            verdict(&[100.0], &[110.0], "higher", 0.05).unwrap().0,
            Verdict::Agree
        );
        // Latency (lower is better) rising 3 % against a 5 % bound.
        assert_eq!(
            verdict(&[100.0], &[103.0], "lower", 0.05).unwrap().0,
            Verdict::Agree
        );
        assert_eq!(
            verdict(&[100.0], &[106.0], "lower", 0.05).unwrap().0,
            Verdict::Outside
        );
        // Same medians, but A's own runs spread wider than the bound.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            verdict(&noisy, &[100.0], "lower", 0.05).unwrap().0,
            Verdict::Unresolved
        );
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics, units,
    /// directions and workloads, and the run length the binary defaults to.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let doc = std::fs::read_to_string(dir.join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
        let v = json::parse(&doc).unwrap();
        assert_eq!(
            v.get("run_seconds").and_then(JsonValue::as_f64),
            Some(RUN_SECONDS)
        );
        let names = |key: &str| -> Vec<(String, String, String)> {
            v.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let catalogue = |kind: Kind| -> Vec<(String, String, String)> {
            CATALOG
                .iter()
                .filter(|d| d.kind == kind)
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), catalogue(Kind::EndToEnd));
        assert_eq!(names("per_layer"), catalogue(Kind::PerLayer));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (_, _, bound) in load_bounds(dir).unwrap() {
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
