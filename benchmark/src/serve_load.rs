//! Load generators for the two serving workloads — a closed loop of waiting
//! clients and an open loop of seeded Poisson arrivals — plus the bitwise
//! correctness gate on sampled responses.

use crate::fixture::{self, Arrival, Class, Req, DEFAULT_LIMIT};
use crate::hostclock::HostClock;
use aeris_assim::{nowcast_member, nowcast_member_fast};
use aeris_core::{AerisConfig, ConsistencyStudent, EnsembleForecast, Forecaster};
use aeris_obs::{SloConfig, Tracer};
use aeris_serve::{
    ForecastResponse, QuotaConfig, ServeConfig, ServeEngine, ServeError, TenantPolicy, Ticket, Tier,
};
use aeris_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One response in every `CHECK_EVERY` is recomputed directly and compared
/// bitwise, up to `MAX_CHECKS` per run (the recomputation costs as much as
/// serving did).
pub const CHECK_EVERY: u64 = 8;
pub const MAX_CHECKS: usize = 12;

/// The two tiers' models, shared with the engine.
#[derive(Clone)]
pub struct Models {
    pub fc: Arc<Forecaster>,
    pub student: Arc<ConsistencyStudent>,
}

impl Models {
    pub fn new() -> Self {
        let fc = fixture::forecaster();
        let student = fixture::student_of(&fc);
        Models {
            fc: Arc::new(fc),
            student: Arc::new(student),
        }
    }

    pub fn cfg(&self) -> &AerisConfig {
        &self.fc.model.cfg
    }
}

/// Engine sizing shared by both serve workloads: one worker per core on
/// each tier (the rayon pool is pinned to 1 thread, so workers × pool
/// threads ≤ cores) and a queue no workload can fill.
pub fn base_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        fast_workers: workers,
        queue_capacity: 1 << 14,
        ..ServeConfig::default()
    }
}

/// `serve_mixed_open` adds two tenants — `ops` (weight 4, unmetered) and
/// `research` (weight 1, a token bucket slightly above its steady demand of
/// 4 member-steps/s, so Poisson bursts and the surge are refused) — and a
/// latency objective, which arms burn-rate-aware doom shedding.
pub fn mixed_config(workers: usize) -> ServeConfig {
    ServeConfig {
        quota: Some(QuotaConfig {
            default: TenantPolicy {
                weight: 1.0,
                rate: 0.0,
                burst: 0.0,
            },
            overrides: vec![
                (
                    Arc::from("ops"),
                    TenantPolicy {
                        weight: 4.0,
                        rate: 0.0,
                        burst: 0.0,
                    },
                ),
                (
                    Arc::from("research"),
                    TenantPolicy {
                        weight: 1.0,
                        rate: 4.5,
                        burst: 4.0,
                    },
                ),
            ],
        }),
        slo: Some(SloConfig {
            latency_ms: DEFAULT_LIMIT.as_secs_f64() * 1e3,
            target: 0.9,
            ..SloConfig::default()
        }),
        ..base_config(workers)
    }
}

pub fn start(models: &Models, cfg: ServeConfig, tracer: Option<Tracer>) -> ServeEngine {
    let (fc, student) = (Arc::clone(&models.fc), Arc::clone(&models.student));
    match tracer {
        Some(t) => ServeEngine::start_two_tier_traced(fc, student, cfg, t),
        None => ServeEngine::start_two_tier(fc, student, cfg),
    }
}

pub fn submit(engine: &ServeEngine, req: Req) -> Result<Ticket, ServeError> {
    match req {
        Req::Forecast(r) => engine.submit(r),
        Req::Nowcast(r) => engine.submit_nowcast(r),
    }
}

/// Recompute `req` directly through the public model API and compare with
/// what the engine served, bit for bit.
pub fn response_matches(models: &Models, req: &Req, served: &ForecastResponse) -> bool {
    let tokens = models.cfg().tokens();
    let direct: Vec<Vec<Tensor>> = match req {
        Req::Forecast(r) => {
            let forcings = |k: usize| r.forcings.at(tokens, k);
            match served.tier {
                Tier::Quality => {
                    models
                        .fc
                        .ensemble(&r.init, &forcings, r.steps, r.n_members, r.seed)
                        .members
                }
                Tier::Fast => {
                    models
                        .student
                        .ensemble(&r.init, &forcings, r.steps, r.n_members, r.seed)
                }
            }
        }
        Req::Nowcast(r) => {
            let background = Arc::new(r.background.clone());
            let forcings = r.forcings.at(tokens, 0);
            (0..r.n_members)
                .map(|m| {
                    vec![match served.tier {
                        Tier::Quality => nowcast_member(
                            &models.fc,
                            &background,
                            &forcings,
                            &r.observations,
                            r.schedule,
                            r.seed,
                            m,
                        ),
                        Tier::Fast => nowcast_member_fast(
                            &models.student,
                            &background,
                            &forcings,
                            &r.observations,
                            r.schedule,
                            r.seed,
                            m,
                        ),
                    }]
                })
                .collect()
        }
    };
    ensembles_equal(&direct, &served.forecast)
}

fn ensembles_equal(direct: &[Vec<Tensor>], served: &EnsembleForecast) -> bool {
    direct.len() == served.members.len()
        && direct.iter().zip(&served.members).all(|(d, s)| {
            d.len() == s.len() && d.iter().zip(s).all(|(a, b)| fixture::bits_equal(a, b))
        })
}

/// What one closed-loop run observed inside its measured window.
pub struct ClosedResult {
    /// `(sent, answered)` of every request answered inside the window.
    pub ops: Vec<(Instant, Instant)>,
    /// The measured window.
    pub window: (Instant, Instant),
    /// Requests sent / failed over the whole run (warm-up included).
    pub attempted: u64,
    pub failed: u64,
    pub cached_steps: u64,
    pub computed_steps: u64,
    /// Sampled `(stream index, response)` pairs for the bitwise gate.
    pub samples: Vec<(u64, ForecastResponse)>,
}

/// Closed loop: `clients` threads each send the next request of the seeded
/// `serve_quality_distinct` stream as soon as their previous one returns.
/// Requests completing during `warmup` are not measured.
pub fn closed_loop(
    engine: &ServeEngine,
    cfg: &AerisConfig,
    seed: u64,
    clients: usize,
    warmup: Duration,
    window: Duration,
) -> ClosedResult {
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let (w0, w1) = (t0 + warmup, t0 + warmup + window);
    let check_phase = seed % CHECK_EVERY;
    let out = Mutex::new(ClosedResult {
        ops: Vec::new(),
        window: (w0, w1),
        attempted: 0,
        failed: 0,
        cached_steps: 0,
        computed_steps: 0,
        samples: Vec::new(),
    });
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                if Instant::now() >= w1 {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let req = fixture::quality_request(cfg, seed, i);
                let sent = Instant::now();
                let result = engine.submit(req).and_then(|t| t.wait());
                let done = Instant::now();
                let mut o = out.lock().expect("client panicked holding the result lock");
                o.attempted += 1;
                match result {
                    Ok(resp) => {
                        if done >= w0 && done <= w1 {
                            o.ops.push((sent, done));
                            o.cached_steps += resp.cache_hits as u64;
                            o.computed_steps += resp.computed_steps as u64;
                        }
                        if i % CHECK_EVERY == check_phase && o.samples.len() < MAX_CHECKS {
                            o.samples.push((i, resp));
                        }
                    }
                    Err(e) => {
                        eprintln!("request {i} failed: {e}");
                        o.failed += 1;
                    }
                }
            });
        }
    });
    out.into_inner()
        .expect("client panicked holding the result lock")
}

/// Phase of the open-loop timeline a request was due in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Steady,
    Surge,
}

/// What a served open-loop request came back with.
#[derive(Clone, Debug, PartialEq)]
pub struct Served {
    /// Generator lateness plus the engine's submission → completion time,
    /// as an instant: when the request was answered.
    pub answered: Instant,
    pub tier: Tier,
    pub cached_steps: usize,
    pub computed_steps: usize,
}

/// How one open-loop request ended.
pub struct Outcome {
    pub class: Class,
    pub phase: Phase,
    /// When it was due, and when the generator actually sent it.
    pub due: Instant,
    pub sent: Instant,
    /// The latency limit it is held to: its own deadline, else the default.
    pub limit: Duration,
    /// What came back, or the typed refusal.
    pub result: Result<Served, ServeError>,
    /// When it was answered or refused.
    pub finished: Instant,
}

impl Outcome {
    /// Latency from the *due* time on the host-adjusted clock, ms.
    pub fn latency_ms(&self, clock: &HostClock) -> Option<f64> {
        self.result
            .as_ref()
            .ok()
            .map(|s| clock.quiet_ms(self.due, s.answered))
    }

    /// Answered within its limit; shed, refused or failed is a miss.
    pub fn met_limit(&self, clock: &HostClock) -> bool {
        self.latency_ms(clock)
            .is_some_and(|ms| ms <= self.limit.as_secs_f64() * 1e3)
    }

    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

pub struct OpenResult {
    pub outcomes: Vec<Outcome>,
    /// Sampled `(request, response)` pairs for the bitwise gate.
    pub samples: Vec<(Req, ForecastResponse)>,
}

/// Sleep until `when`, finishing with a short spin so the send is on time.
fn sleep_until(when: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= when {
            return;
        }
        let left = when - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: one generator thread sends each arrival at its due time
/// whatever the engine's state; one collector thread waits on the tickets.
/// Latency counts from the *due* time: generator lateness plus the engine's
/// own submission → completion time, so a stall that delays later sends is
/// charged to the requests it delayed. `phase_of` labels a due offset;
/// `send`/`wait` are the engine's `submit`/`Ticket::wait` (tests pass fakes).
pub fn open_loop<T: Send>(
    arrivals: Vec<Arrival>,
    phase_of: impl Fn(Duration) -> Phase + Sync,
    check_phase: u64,
    send: impl Fn(Req) -> Result<T, ServeError> + Sync,
    wait: impl Fn(T) -> Result<ForecastResponse, ServeError> + Sync,
) -> OpenResult {
    struct Pending<T> {
        idx: usize,
        sent: Instant,
        ticket: T,
    }
    let n = arrivals.len();
    let (tx, rx) = mpsc::channel::<Pending<T>>();
    let t0 = Instant::now();
    let (send, wait, phase_of) = (&send, &wait, &phase_of);
    let (mut outcomes, kept, responses) = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(n);
            let mut kept: Vec<(usize, Req)> = Vec::new();
            for (idx, a) in arrivals.into_iter().enumerate() {
                let due = t0 + a.due;
                sleep_until(due);
                let sent = Instant::now();
                if idx as u64 % CHECK_EVERY == check_phase && kept.len() < MAX_CHECKS {
                    kept.push((idx, a.req.clone()));
                }
                let limit = match &a.req {
                    Req::Forecast(r) => r.deadline,
                    Req::Nowcast(r) => r.deadline,
                }
                .unwrap_or(DEFAULT_LIMIT);
                // Overwritten by the collector for every admitted request.
                let mut outcome = Outcome {
                    class: a.class,
                    phase: phase_of(a.due),
                    due,
                    sent,
                    limit,
                    result: Err(ServeError::Shutdown),
                    finished: sent,
                };
                match send(a.req) {
                    Ok(ticket) => tx
                        .send(Pending { idx, sent, ticket })
                        .expect("collector outlives the generator"),
                    Err(e) => {
                        outcome.result = Err(e);
                        outcome.finished = Instant::now();
                    }
                }
                outcomes.push((idx, outcome));
            }
            (outcomes, kept)
        });
        let collector = s.spawn(move || {
            let mut responses = Vec::with_capacity(n);
            for p in rx {
                responses.push((p.idx, p.sent, wait(p.ticket), Instant::now()));
            }
            responses
        });
        let (outcomes, kept) = generator.join().expect("generator panicked");
        (
            outcomes,
            kept,
            collector.join().expect("collector panicked"),
        )
    });
    let mut samples = Vec::new();
    let mut kept = kept;
    for (idx, sent, result, seen) in responses {
        let outcome = &mut outcomes[idx].1;
        match result {
            Ok(resp) => {
                // The engine stamps its own submission → completion time;
                // the collector may have been waiting on an earlier ticket.
                let answered = sent + resp.latency;
                outcome.result = Ok(Served {
                    answered,
                    tier: resp.tier,
                    cached_steps: resp.cache_hits,
                    computed_steps: resp.computed_steps,
                });
                outcome.finished = answered;
                if let Some(pos) = kept.iter().position(|(i, _)| *i == idx) {
                    samples.push((kept.swap_remove(pos).1, resp));
                }
            }
            Err(e) => {
                outcome.result = Err(e);
                outcome.finished = seen;
            }
        }
    }
    OpenResult {
        outcomes: outcomes.into_iter().map(|(_, o)| o).collect(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_core::EnsembleForecast;

    fn response(latency: Duration) -> ForecastResponse {
        ForecastResponse {
            id: 0,
            forecast: EnsembleForecast {
                members: Vec::new(),
            },
            cache_hits: 0,
            computed_steps: 1,
            latency,
            tier: Tier::Fast,
        }
    }

    /// Ten arrivals 10 ms apart against a fake engine that answers in 5 ms;
    /// sending request 3 stalls the generator for 60 ms. The stall must be
    /// charged to the requests it delayed (latency from due time), show in
    /// the generator lag, and cost the delayed requests their 20 ms limit.
    #[test]
    fn injected_stall_is_charged_to_delayed_requests() {
        let pool = fixture::MixedPool::new(&AerisConfig::test_tiny(), 1);
        let mut rng = aeris_tensor::Rng::seed_from(1);
        let mut deck = fixture::Deck::default();
        let arrivals: Vec<Arrival> = (0..10u64)
            .map(|i| {
                let (class, mut req) = pool.draw(&mut rng, &mut deck);
                match &mut req {
                    Req::Forecast(r) => r.deadline = Some(Duration::from_millis(20)),
                    Req::Nowcast(r) => r.deadline = Some(Duration::from_millis(20)),
                }
                Arrival {
                    due: Duration::from_millis(10 * (i + 1)),
                    class,
                    req,
                }
            })
            .collect();
        let sends = AtomicU64::new(0);
        let served = Duration::from_millis(5);
        let out = open_loop(
            arrivals,
            |_| Phase::Steady,
            0,
            |_req| {
                if sends.fetch_add(1, Ordering::Relaxed) == 3 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                Ok(())
            },
            |()| Ok(response(served)),
        );
        assert_eq!(out.outcomes.len(), 10);
        let clock = HostClock::quiet();
        let lag_ms = |i: usize| out.outcomes[i].lag_ms();
        // Before and at the stall the generator is on time (the stall is
        // inside request 3's send, after its lag was taken).
        for i in 0..=3 {
            assert!(lag_ms(i) < 8.0, "request {i} sent {} ms late", lag_ms(i));
            assert!(out.outcomes[i].met_limit(&clock));
        }
        // Request 4 was due 10 ms after request 3 but could not be sent
        // until the 60 ms stall ended: about 50 ms late, and so on down.
        assert!(lag_ms(4) > 40.0 && lag_ms(4) < 60.0, "lag {}", lag_ms(4));
        assert!(lag_ms(5) > 30.0 && lag_ms(6) > 20.0);
        for i in 4..=6 {
            let lat = out.outcomes[i].latency_ms(&clock).unwrap();
            let want = lag_ms(i) + served.as_secs_f64() * 1e3;
            assert!(
                (lat - want).abs() < 1e-6,
                "latency counts from the due time"
            );
            assert!(
                !out.outcomes[i].met_limit(&clock),
                "request {i} was delayed past its limit"
            );
        }
        // The backlog clears and the tail is on time again.
        assert!(lag_ms(9) < 8.0 && out.outcomes[9].met_limit(&clock));
        // Every 8th request from phase 0 was kept for the bitwise gate.
        assert_eq!(out.samples.len(), 2);
    }

    #[test]
    fn refused_request_misses_any_limit() {
        let now = Instant::now();
        let refused = Outcome {
            class: Class::Research,
            phase: Phase::Steady,
            due: now,
            sent: now,
            limit: Duration::from_secs(10),
            result: Err(ServeError::QuotaExceeded {
                tenant: "research".into(),
            }),
            finished: now,
        };
        assert!(!refused.met_limit(&HostClock::quiet()));
    }
}
