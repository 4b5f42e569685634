//! A clock that runs slower while the host is disturbed.
//!
//! The boxes this benchmark runs on share their cores, caches and memory
//! bandwidth with other tenants. Measured while sizing: for stretches of a
//! few seconds to several minutes, about a fifth of the time, the same code
//! runs 1.2–1.9× slower (`AerisModel::velocity` 6.0 → 9–11 ms) while a
//! dependent integer chain does not slow at all — throughput and memory
//! interference, not descheduling. No wall-clock metric can hold a 25 %
//! bound across runs under that, whatever is averaged inside one run.
//!
//! So every end-to-end time is measured in *quiet seconds*. A probe thread
//! runs a fixed, benchmark-owned reference kernel four times a second and
//! takes its thread CPU time (waiting for a core does not count; a slower
//! core or memory system does). The kernel's time over its nominal time on
//! an undisturbed box is how much slower the host computes at that moment.
//! The second kind of disturbance is the hypervisor taking the virtual CPUs
//! away (one stretch seen here stole 43 % of four and a half minutes and
//! stretched a 38 ms train step to 60–330 ms): CPU time does not see it, so
//! with every sample the probe also reads the steal and busy jiffies of
//! `/proc/stat`, and `(busy + steal) / busy` is how much longer the guest's
//! work took than it ran. The product of the two is the host's slowdown, and
//! a wall interval `[a, b]` lasts `∫ dt / slowdown(t)` quiet seconds. On a
//! quiet host quiet seconds are seconds; on another machine they differ from
//! seconds by a constant factor, which no parent-versus-change comparison
//! sees. The raw wall-clock values are printed beside the adjusted ones,
//! and `bench.host_slowdown` reports the factor.
//!
//! The kernel is a fixed blend — streaming over 8 MB, a naive 96³ matmul,
//! an L1-resident FMA loop — weighted so that its sensitivity to the
//! interference seen here matches the model forward's, which every workload
//! spends most of its time in. It calls nothing in the program.
//!
//! The probe's reading is about the workload only while the two share cores.
//! Beside a workload that keeps every core busy it reads 0.97–1.02 on a quiet
//! host; alone on a core the workload leaves idle it reads anything from 1.0
//! to 1.8 (a core woken four times a second is cold and slow), which bent the
//! clock more than it straightened it. A workload of one thread is therefore
//! pinned, with the probe, to one CPU (`pin_to_one_cpu`).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Thread CPU time of the reference kernel, in ms, on an undisturbed box of
/// the class this benchmark was sized on (2 vCPU Xeon @ 2.1 GHz) while a
/// workload keeps both cores busy (5.0 alone; 5.2–5.5 beside a workload,
/// which evicts its cache lines).
pub const NOMINAL_MS: f64 = 5.3;

/// How often the probe samples.
const PERIOD: Duration = Duration::from_millis(250);

/// Samples `HostProbe::start` waits for before it returns.
const WARM_SAMPLES: usize = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, ns. `std` has no portable
/// accessor; this is the one foreign call of the benchmark.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` (two i64 on
    // every 64-bit Linux target) and the clock id is a constant the kernel
    // knows; the call writes `ts` and has no other effect.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread — and every thread it spawns afterwards,
/// which inherit the mask — to the highest-numbered CPU it may run on.
/// Returns that CPU, or `None` where the calls fail (the run goes on
/// unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is 128 writable bytes and the size passed says so; pid 0
    // names the calling thread; the call writes the mask and nothing else.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is 128 readable bytes and the size passed says so; the
    // call reads the mask and changes only the calling thread's affinity.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0)
        .then_some(word * 64 + bit)
}

/// Cumulative `(busy, steal)` jiffies over all CPUs, from the first line of
/// `/proc/stat` (zeros where it is missing: the clock then sees no steal).
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map_while(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    match f[..] {
        [user, nice, system, _, _, irq, softirq, steal, ..] => {
            (user + nice + system + irq + softirq, steal)
        }
        _ => (0, 0),
    }
}

const N: usize = 96;

/// The reference kernel's working set.
struct Reference {
    lanes: [f32; 1024],
    stream: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            lanes: [0.25; 1024],
            stream: vec![1.0; 2 << 20],
            a: vec![0.5; N * N],
            b: vec![0.25; N * N],
            c: vec![0.0; N * N],
        }
    }

    /// One pass of the blend; returns its thread CPU time in ms.
    fn run(&mut self) -> f64 {
        let t0 = thread_cpu_ns();
        // L1-resident FMA throughput (barely slows under interference).
        for _ in 0..3 {
            let mut acc = [0.5f32; 64];
            for _ in 0..64 {
                for (i, x) in self.lanes.iter().enumerate() {
                    acc[i & 63] = acc[i & 63].mul_add(0.999, *x);
                }
            }
            black_box(acc);
        }
        // Streaming read-modify-write over 8 MB (memory bandwidth).
        let mut sum = 0.0f32;
        for x in self.stream.iter_mut() {
            *x = *x * 0.5 + 1.0;
            sum += *x;
        }
        black_box(sum);
        // Naive L2-resident matmul (core throughput, shared execution units).
        for _ in 0..30 {
            for i in 0..N {
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    let (brow, crow) =
                        (&self.b[k * N..(k + 1) * N], &mut self.c[i * N..(i + 1) * N]);
                    for j in 0..N {
                        crow[j] += aik * brow[j];
                    }
                }
            }
            // Keep the accumulator bounded over a long run.
            for v in self.c.iter_mut() {
                *v *= 0.5;
            }
        }
        black_box(&self.c);
        (thread_cpu_ns() - t0) as f64 / 1e6
    }
}

/// One reading of the probe.
#[derive(Clone, Copy)]
pub struct Sample {
    at: Instant,
    /// Thread CPU time of one pass of the reference kernel, ms.
    reference_ms: f64,
    /// Cumulative jiffies the guest's CPUs ran, and were kept from running.
    busy: u64,
    steal: u64,
}

/// The running probe thread.
pub struct HostProbe {
    started: Instant,
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<Sample>>>,
    handle: std::thread::JoinHandle<()>,
}

impl HostProbe {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let (stop2, samples2) = (Arc::clone(&stop), Arc::clone(&samples));
        let handle = std::thread::Builder::new()
            .name("host-probe".into())
            .spawn(move || {
                let mut reference = Reference::new();
                reference.run(); // first touch of the working set
                let mut taken = 0;
                while !stop2.load(Ordering::SeqCst) {
                    let reference_ms = reference.run();
                    let (busy, steal) = cpu_jiffies();
                    samples2
                        .lock()
                        .expect("the probe never panics holding its samples")
                        .push(Sample {
                            at: Instant::now(),
                            reference_ms,
                            busy,
                            steal,
                        });
                    taken += 1;
                    // The first samples come quickly: `start` waits for them.
                    std::thread::sleep(if taken < WARM_SAMPLES {
                        PERIOD / 10
                    } else {
                        PERIOD
                    });
                }
            })
            .expect("spawn the host probe");
        // A clock built on one or two samples is at the mercy of each; the
        // run starts once the median smoothing has three to work with.
        while samples
            .lock()
            .expect("the probe never panics holding its samples")
            .len()
            < WARM_SAMPLES
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        HostProbe {
            started: Instant::now(),
            stop,
            samples,
            handle,
        }
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// The adjusted clock over everything sampled so far.
    pub fn clock(&self) -> HostClock {
        HostClock::from_samples(
            &self
                .samples
                .lock()
                .expect("the probe never panics holding its samples"),
        )
    }

    /// Stop the probe thread and wait for it.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("host probe panicked");
    }
}

/// The frozen record of a run's host slowdown, and the adjusted clock.
pub struct HostClock {
    /// Sample times; `slowdown[i]` holds on `[at[i], at[i + 1])`.
    at: Vec<Instant>,
    slowdown: Vec<f64>,
}

impl HostClock {
    /// Each sample's slowdown is the product of two factors taken over
    /// itself and its two neighbours, clamped to a sane range: the median of
    /// the reference kernel's time over its nominal time (one preempted pass
    /// must not bend the clock), and `(busy + steal) / busy` over the jiffies
    /// between the neighbours (a jiffy is 10 ms: one interval alone holds
    /// too few).
    pub fn from_samples(samples: &[Sample]) -> Self {
        let slowdown = (0..samples.len())
            .map(|i| {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(samples.len() - 1);
                let mut w: Vec<f64> = samples[lo..=hi]
                    .iter()
                    .map(|s| s.reference_ms / NOMINAL_MS)
                    .collect();
                w.sort_by(f64::total_cmp);
                let compute = w[w.len() / 2];
                // Three intervals around segment `[at[i], at[i + 1])`.
                let end = (i + 2).min(samples.len() - 1);
                let busy = samples[end].busy.saturating_sub(samples[lo].busy) as f64;
                let steal = samples[end].steal.saturating_sub(samples[lo].steal) as f64;
                let stolen = if busy > 0.0 {
                    (busy + steal) / busy
                } else {
                    1.0
                };
                (compute * stolen).clamp(0.25, 16.0)
            })
            .collect();
        HostClock {
            at: samples.iter().map(|s| s.at).collect(),
            slowdown,
        }
    }

    /// A clock for a host that is never disturbed (tests).
    #[cfg(test)]
    pub fn quiet() -> Self {
        HostClock {
            at: Vec::new(),
            slowdown: Vec::new(),
        }
    }

    /// Quiet seconds between `a` and `b`: `∫ dt / slowdown(t)`. Before the
    /// first sample and after the last, the nearest sample holds; with no
    /// samples at all the clock is the wall clock.
    pub fn quiet_secs(&self, a: Instant, b: Instant) -> f64 {
        if b <= a {
            return 0.0;
        }
        if self.at.is_empty() {
            return (b - a).as_secs_f64();
        }
        let mut total = 0.0;
        // Segment i covers [start_i, end_i): the first reaches back to `a`,
        // the last forward to `b`.
        let first = self.at.partition_point(|t| *t <= a).saturating_sub(1);
        for i in first..self.at.len() {
            let start = if i == first { a } else { self.at[i].max(a) };
            let end = if i + 1 < self.at.len() {
                self.at[i + 1].min(b)
            } else {
                b
            };
            if end > start {
                total += (end - start).as_secs_f64() / self.slowdown[i];
            }
            if i + 1 < self.at.len() && self.at[i + 1] >= b {
                break;
            }
        }
        total
    }

    pub fn quiet_ms(&self, a: Instant, b: Instant) -> f64 {
        self.quiet_secs(a, b) * 1e3
    }

    /// Median slowdown over the samples in `[a, b]` (1 when there are none).
    pub fn slowdown_between(&self, a: Instant, b: Instant) -> f64 {
        let inside: Vec<f64> = self
            .at
            .iter()
            .zip(&self.slowdown)
            .filter(|(t, _)| **t >= a && **t <= b)
            .map(|(_, s)| *s)
            .collect();
        crate::stats::median(&inside).unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples every 250 ms from `t0 + 10 s`, 25 busy jiffies apart, with
    /// the reference time and the steal per interval that `f(seconds)` gives.
    fn samples(t0: Instant, f: impl Fn(f64) -> (f64, u64)) -> Vec<Sample> {
        let mut steal = 0;
        (0..24)
            .map(|i| {
                let s = i as f64 * 0.25;
                let (reference_ms, stolen) = f(s);
                steal += stolen;
                Sample {
                    at: t0 + Duration::from_secs_f64(s + 10.0),
                    reference_ms,
                    busy: 25 * i,
                    steal,
                }
            })
            .collect()
    }

    #[test]
    fn quiet_seconds_shrink_by_the_slowdown() {
        let t0 = Instant::now();
        let at = |s: f64| t0 + Duration::from_secs_f64(s + 10.0);
        // Quiet for 2 s, then 2× slow for 2 s, then quiet again.
        let slow = |s: f64| {
            if (2.0..4.0).contains(&s) {
                (2.0 * NOMINAL_MS, 0)
            } else {
                (NOMINAL_MS, 0)
            }
        };
        let clock = HostClock::from_samples(&samples(t0, slow));
        let close = |x: f64, y: f64| (x - y).abs() < 1e-9;
        assert!(close(clock.quiet_secs(at(0.0), at(2.0)), 2.0));
        assert!(close(clock.quiet_secs(at(2.0), at(4.0)), 1.0));
        assert!(close(clock.quiet_secs(at(0.0), at(6.0)), 5.0));
        assert!(close(clock.quiet_secs(at(1.5), at(2.5)), 0.75));
        // Outside the sampled span the nearest sample holds.
        assert!(close(clock.quiet_secs(at(-1.0), at(0.0)), 1.0));
        assert!(close(clock.quiet_secs(at(5.75), at(7.0)), 1.25));
        assert_eq!(clock.quiet_secs(at(3.0), at(3.0)), 0.0);
        assert!(close(clock.slowdown_between(at(2.1), at(3.9)), 2.0));
        // One wild sample does not bend the clock.
        let mut spiky = samples(t0, slow);
        spiky[2].reference_ms = 10.0 * NOMINAL_MS;
        assert!(close(
            HostClock::from_samples(&spiky).quiet_secs(at(0.0), at(2.0)),
            2.0
        ));
        // No samples: the wall clock.
        assert!(close(HostClock::quiet().quiet_secs(at(0.0), at(3.0)), 3.0));
    }

    #[test]
    fn stolen_time_slows_the_clock() {
        let t0 = Instant::now();
        let at = |s: f64| t0 + Duration::from_secs_f64(s + 10.0);
        // From 2 s to 4 s the hypervisor takes as many jiffies as the guest
        // runs: work takes twice as long as it computes.
        let stolen = |s: f64| (NOMINAL_MS, if s > 2.0 && s <= 4.0 { 25 } else { 0 });
        let clock = HostClock::from_samples(&samples(t0, stolen));
        let close = |x: f64, y: f64| (x - y).abs() < 1e-9;
        assert!(close(clock.quiet_secs(at(0.0), at(1.5)), 1.5));
        assert!(close(clock.slowdown_between(at(2.5), at(3.5)), 2.0));
        assert!(close(clock.quiet_secs(at(2.5), at(3.5)), 0.5));
        // The jiffies are taken over three intervals, so the edges blur,
        // but all of the stolen time is taken out somewhere.
        let whole = clock.quiet_secs(at(0.0), at(5.75));
        assert!((whole - 4.75).abs() < 0.1, "{whole}");
        // A reference pass twice as slow on top: the factors multiply.
        let both = |s: f64| (2.0 * NOMINAL_MS, stolen(s).1);
        let clock = HostClock::from_samples(&samples(t0, both));
        assert!(close(clock.slowdown_between(at(2.5), at(3.5)), 4.0));
    }

    #[test]
    fn probe_samples_and_stops() {
        let probe = HostProbe::start();
        let t = Instant::now();
        let clock = probe.clock();
        probe.stop();
        assert!(
            clock.at.len() >= WARM_SAMPLES,
            "start waits for the first samples"
        );
        let q = clock.quiet_secs(t - Duration::from_millis(500), t);
        assert!(q > 0.0 && q.is_finite(), "quiet seconds {q}");
    }
}
