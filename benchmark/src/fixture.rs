//! The shared fixture: the `toy48` model, both serving tiers, and the seeded
//! input generators. Everything the program receives is built here from
//! `--seed`; the program never sees the seed itself.

use aeris_assim::{GuidanceSchedule, ObsOperator, ObservationSet};
use aeris_core::{AerisConfig, AerisModel, ConsistencyStudent, Forecaster, TrainSample};
use aeris_diffusion::{SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris_earthsim::{Grid, NormStats};
use aeris_serve::{Forcings, ForecastRequest, NowcastRequest, Tier};
use aeris_tensor::{Rng, Tensor};
use std::sync::Arc;
use std::time::Duration;

/// `aeris_bench::toy_model_config` copied as a constant, so the benchmark
/// does not move when the legacy bench crate is deleted (ROADMAP 1a).
pub fn toy48() -> AerisConfig {
    AerisConfig {
        grid_h: 16,
        grid_w: 32,
        channels: 20,
        forcing_channels: 3,
        dim: 48,
        n_heads: 4,
        ffn: 96,
        n_layers: 2,
        blocks_per_layer: 2,
        window: (4, 4),
        time_feat_dim: 32,
        cond_dim: 48,
        pos_amp: 0.1,
        seed: 0,
    }
}

/// `toy48` with one block per Swin layer: SWiPe needs `pp = blocks + 2`, and
/// the fixed topology has `pp = 4`.
pub fn toy48_swipe() -> AerisConfig {
    AerisConfig {
        blocks_per_layer: 1,
        ..toy48()
    }
}

/// Quality-tier sampler: 6 solver steps, second order = 12 network
/// evaluations per member-step.
pub const SAMPLER: SamplerConfig = SamplerConfig {
    n_steps: 6,
    churn: 0.1,
    second_order: true,
};

/// Untrained model (cost depends on the architecture only). The decoder and
/// the AdaLN heads are zero-initialised, which would make every velocity
/// exactly 0 and every block an identity; a small fixed perturbation makes
/// the outputs depend on every layer, so the bitwise checks can fail.
pub fn model(cfg: AerisConfig) -> AerisModel {
    let mut model = AerisModel::new(cfg);
    let mut rng = Rng::seed_from(0x70_7948);
    let mut ids = vec![model.decode.w];
    ids.extend(model.blocks.iter().map(|b| b.adaln.head.w));
    for id in ids {
        let shape = model.store.get(id).shape().to_vec();
        let nudge = Tensor::randn(&shape, &mut rng).scale(0.02);
        model.store.get_mut(id).add_assign(&nudge);
    }
    model
}

pub fn unit_stats(channels: usize) -> NormStats {
    NormStats {
        mean: vec![0.0; channels],
        std: vec![1.0; channels],
    }
}

pub fn forecaster() -> Forecaster {
    let model = model(toy48());
    let stats = unit_stats(model.cfg.channels);
    Forecaster {
        model,
        res_stats: stats.clone(),
        stats,
        sampler: TrigFlowSampler::new(TrigFlow::default(), SAMPLER),
    }
}

/// Fast tier: a teacher-copy student (zero distillation steps). Its cost is
/// one network evaluation per member-step whatever its weights are.
pub fn student_of(fc: &Forecaster) -> ConsistencyStudent {
    ConsistencyStudent {
        model: fc.replicate().model,
        stats: fc.stats.clone(),
        res_stats: fc.res_stats.clone(),
        tf: fc.sampler.tf,
    }
}

pub const FORCINGS: Forcings = Forcings::Zeros { channels: 3 };

/// One generated request.
#[derive(Clone)]
pub enum Req {
    Forecast(ForecastRequest),
    Nowcast(NowcastRequest),
}

/// Which slice of the mixed traffic a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Fast-pinned forecast drawn Zipf from the shared pool (cache reads).
    FastPool,
    /// Fast-pinned nowcast over the shared station network.
    FastNowcast,
    /// Untiered forecast with a deadline: the router picks the tier.
    Routed,
    /// Quality-pinned forecast from the quota-capped tenant.
    Research,
}

fn state(seed: u64, tokens: usize, channels: usize) -> Tensor {
    Tensor::randn(&[tokens, channels], &mut Rng::seed_from(seed))
}

/// Request `i` of the `serve_quality_distinct` stream: a pure function of
/// `(seed, i)`, so clients can generate it on demand and no two requests
/// share an `init` or a `seed` (the cache can only be written).
pub fn quality_request(cfg: &AerisConfig, seed: u64, i: u64) -> ForecastRequest {
    let key = Rng::seed_from(seed).stream(i + 1).next_u64();
    ForecastRequest {
        init: state(key, cfg.tokens(), cfg.channels),
        forcings: FORCINGS,
        steps: 2,
        n_members: 2,
        seed: key,
        deadline: None,
        tenant: None,
        tier: Some(Tier::Quality),
    }
}

/// Traffic mix of `serve_mixed_open` as a deck of tickets: 50 % pool
/// requests (0), 20 % nowcasts (1), 20 % untiered — half with the tight
/// deadline (2), half with the loose one (3) — and 10 % research (4).
///
/// The deck is dealt in a seeded shuffle and reshuffled when empty, so every
/// 20 consecutive arrivals hold exactly these shares. Drawing each class
/// independently let the shares wander by ± 2 % over a run's ≈ 530 steady
/// requests; the median latency sits just past the edge of the cache-hit
/// population (≈ 40 % of requests answer in 0.1 ms, the next in 9 ms), so
/// that alone moved `latency_p50_ms` by ± 8 % from seed to seed.
const DECK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4];
pub const POOL_SIZE: usize = 64;
/// Untiered requests carry one of two deadlines: the tight one is under the
/// router's slack floor (always served fast), the loose one goes to the
/// quality tier unless its measured step time has more than doubled.
pub const ROUTED_DEADLINES: [Duration; 2] =
    [Duration::from_millis(150), Duration::from_millis(400)];

/// The tickets of [`DECK`] not yet dealt.
#[derive(Default)]
pub struct Deck(Vec<u8>);

impl Deck {
    fn deal(&mut self, rng: &mut Rng) -> u8 {
        if self.0.is_empty() {
            self.0 = DECK.to_vec();
            // Fisher–Yates.
            for i in (1..self.0.len()).rev() {
                self.0.swap(i, rng.below(i + 1));
            }
        }
        self.0.pop().expect("just refilled")
    }
}
/// Latency limit for requests that carry no deadline of their own.
pub const DEFAULT_LIMIT: Duration = Duration::from_millis(400);

/// The shared, seed-dependent parts of the mixed stream.
pub struct MixedPool {
    cfg: AerisConfig,
    pool: Vec<(Tensor, u64)>,
    zipf_cdf: Vec<f32>,
    observations: Vec<Arc<ObservationSet>>,
    ops: Arc<str>,
    research: Arc<str>,
}

impl MixedPool {
    pub fn new(cfg: &AerisConfig, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed ^ 0x9001);
        let pool = (0..POOL_SIZE)
            .map(|_| {
                let key = rng.next_u64();
                (state(key, cfg.tokens(), cfg.channels), key)
            })
            .collect();
        // Zipf(1.0): weight of rank r is 1/r.
        let weights: Vec<f32> = (1..=POOL_SIZE).map(|r| 1.0 / r as f32).collect();
        let total: f32 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // One station network observed at four analysis times.
        let grid = Grid::new(cfg.grid_h, cfg.grid_w);
        let op = ObsOperator::stations(
            &grid,
            cfg.tokens() / 4,
            &[0, 1],
            &vec![0.5; cfg.channels],
            17,
        );
        let observations = (0..4)
            .map(|_| {
                let truth = state(rng.next_u64(), cfg.tokens(), cfg.channels);
                Arc::new(op.observe(&truth, 0.05, rng.next_u64()))
            })
            .collect();
        MixedPool {
            cfg: cfg.clone(),
            pool,
            zipf_cdf,
            observations,
            ops: Arc::from("ops"),
            research: Arc::from("research"),
        }
    }

    /// Draw the next request of the mix: its class from `deck`, the rest
    /// from `rng`.
    pub fn draw(&self, rng: &mut Rng, deck: &mut Deck) -> (Class, Req) {
        let (tokens, channels) = (self.cfg.tokens(), self.cfg.channels);
        let ticket = deck.deal(rng);
        let forecast = |init, seed, steps, deadline, tenant: &Arc<str>, tier| {
            Req::Forecast(ForecastRequest {
                init,
                forcings: FORCINGS,
                steps,
                n_members: 1,
                seed,
                deadline,
                tenant: Some(Arc::clone(tenant)),
                tier,
            })
        };
        if ticket == 0 {
            let z = rng.next_f32();
            let rank = self.zipf_cdf.partition_point(|&c| c < z).min(POOL_SIZE - 1);
            let (init, seed) = &self.pool[rank];
            (
                Class::FastPool,
                forecast(init.clone(), *seed, 2, None, &self.ops, Some(Tier::Fast)),
            )
        } else if ticket == 1 {
            let key = rng.next_u64();
            let req = NowcastRequest {
                background: state(key, tokens, channels),
                forcings: FORCINGS,
                observations: Arc::clone(&self.observations[rng.below(4)]),
                schedule: GuidanceSchedule::Constant(0.05),
                n_members: 1,
                seed: key,
                deadline: None,
                tenant: Some(Arc::clone(&self.ops)),
                tier: Some(Tier::Fast),
            };
            (Class::FastNowcast, Req::Nowcast(req))
        } else if ticket == 2 || ticket == 3 {
            let key = rng.next_u64();
            let init = state(key, tokens, channels);
            let deadline = ROUTED_DEADLINES[ticket as usize - 2];
            (
                Class::Routed,
                forecast(init, key, 1, Some(deadline), &self.ops, None),
            )
        } else {
            let key = rng.next_u64();
            let init = state(key, tokens, channels);
            (
                Class::Research,
                forecast(init, key, 1, None, &self.research, Some(Tier::Quality)),
            )
        }
    }
}

/// One scheduled arrival of the open loop.
pub struct Arrival {
    /// Offset of the due time from the start of the timeline.
    pub due: Duration,
    pub class: Class,
    pub req: Req,
}

/// Seeded Poisson arrivals: `phases` is a list of `(duration, rate per s)`.
pub fn mixed_stream(pool: &MixedPool, seed: u64, phases: &[(Duration, f64)]) -> Vec<Arrival> {
    let mut rng = Rng::seed_from(seed ^ 0xA221);
    let mut deck = Deck::default();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut phase_start = 0.0f64;
    for &(len, rate) in phases {
        let phase_end = phase_start + len.as_secs_f64();
        t = t.max(phase_start);
        loop {
            // Exponential inter-arrival; 1 - u is in (0, 1].
            t += -(1.0 - rng.next_f64()).ln() / rate;
            if t >= phase_end {
                break;
            }
            let (class, req) = pool.draw(&mut rng, &mut deck);
            out.push(Arrival {
                due: Duration::from_secs_f64(t),
                class,
                req,
            });
        }
        phase_start = phase_end;
    }
    out
}

/// Seeded training samples in standardized units (as the legacy swipe bins
/// build them: random states, residuals at 0.3).
pub fn train_samples(cfg: &AerisConfig, seed: u64, n: usize) -> Vec<TrainSample> {
    let mut rng = Rng::seed_from(seed ^ 0x7EA1);
    let shape = [cfg.tokens(), cfg.channels];
    (0..n)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&shape, &mut rng),
            residual: Tensor::randn(&shape, &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
        })
        .collect()
}

pub fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_tensor(h: &mut u64, t: &Tensor) {
    for v in t.data() {
        fnv_bytes(h, &v.to_bits().to_le_bytes());
    }
}

/// FNV-1a digest of a request: everything that determines its result.
pub fn digest_req(h: &mut u64, req: &Req) {
    let tensor = digest_tensor;
    let tier = |t: Option<Tier>| t.map_or(0u8, |t| 1 + t.index() as u8);
    match req {
        Req::Forecast(r) => {
            tensor(h, &r.init);
            fnv_bytes(h, &r.seed.to_le_bytes());
            fnv_bytes(h, &[r.steps as u8, r.n_members as u8, tier(r.tier)]);
            fnv_bytes(
                h,
                &r.deadline.map_or(0, |d| d.as_micros() as u64).to_le_bytes(),
            );
            fnv_bytes(h, r.tenant.as_deref().unwrap_or("").as_bytes());
        }
        Req::Nowcast(r) => {
            tensor(h, &r.background);
            fnv_bytes(h, &r.seed.to_le_bytes());
            fnv_bytes(h, &r.observations.digest().to_le_bytes());
            fnv_bytes(h, &[r.n_members as u8, tier(r.tier)]);
        }
    }
}

/// Digest of the first `n` requests of a workload's seeded stream (the
/// identity the determinism tests pin).
pub fn stream_digest(workload: &str, seed: u64, n: usize) -> u64 {
    let mut h = FNV_INIT;
    match workload {
        "serve_quality_distinct" => {
            let cfg = toy48();
            for i in 0..n as u64 {
                digest_req(&mut h, &Req::Forecast(quality_request(&cfg, seed, i)));
            }
        }
        "serve_mixed_open" => {
            let pool = MixedPool::new(&toy48(), seed);
            let secs = Duration::from_secs_f64(n as f64 / 10.0 + 1.0);
            for a in mixed_stream(&pool, seed, &[(secs, 25.0)]).iter().take(n) {
                fnv_bytes(&mut h, &(a.due.as_nanos() as u64).to_le_bytes());
                digest_req(&mut h, &a.req);
            }
        }
        "train_single" | "train_swipe" => {
            for s in train_samples(&toy48(), seed, n) {
                for t in [&s.x_prev, &s.residual, &s.forcings] {
                    digest_tensor(&mut h, t);
                }
            }
        }
        other => panic!("unknown workload {other}"),
    }
    h
}

/// Bitwise tensor equality (`PartialEq` on f32 equates ±0 and rejects NaN).
pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        for w in WORKLOADS {
            assert_eq!(stream_digest(w, 2025, 6), stream_digest(w, 2025, 6), "{w}");
            assert_ne!(stream_digest(w, 2025, 6), stream_digest(w, 2026, 6), "{w}");
        }
    }

    #[test]
    fn quality_stream_never_repeats_a_key() {
        let cfg = AerisConfig::test_tiny();
        let seeds: Vec<u64> = (0..64).map(|i| quality_request(&cfg, 7, i).seed).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn mixed_stream_follows_the_declared_mix_and_rates() {
        let pool = MixedPool::new(&AerisConfig::test_tiny(), 3);
        let phases = [
            (Duration::from_secs(20), 40.0),
            (Duration::from_secs(10), 150.0),
        ];
        let arrivals = mixed_stream(&pool, 3, &phases);
        assert!(
            arrivals.windows(2).all(|w| w[0].due <= w[1].due),
            "due times ascend"
        );
        let steady = arrivals.iter().filter(|a| a.due < phases[0].0).count() as f64;
        let surge = arrivals.len() as f64 - steady;
        assert!(
            (steady / 800.0 - 1.0).abs() < 0.15,
            "steady arrivals {steady}"
        );
        assert!(
            (surge / 1500.0 - 1.0).abs() < 0.15,
            "surge arrivals {surge}"
        );
        let share = |c: Class| {
            arrivals.iter().filter(|a| a.class == c).count() as f64 / arrivals.len() as f64
        };
        // The deck holds the shares exactly, up to one unfinished deck.
        let slack = DECK.len() as f64 / arrivals.len() as f64;
        assert!((share(Class::FastPool) - 0.5).abs() < slack);
        assert!((share(Class::FastNowcast) - 0.2).abs() < slack);
        assert!((share(Class::Routed) - 0.2).abs() < slack);
        assert!((share(Class::Research) - 0.1).abs() < slack);
    }
}
