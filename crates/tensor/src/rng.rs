//! Deterministic random number generation.
//!
//! The entire workspace routes randomness through this module so that every
//! experiment is reproducible from a single `u64` seed. The paper requires a
//! subtle seeding discipline for distributed diffusion training (§VI-B): the
//! diffusion time `t` must share a seed across all model-parallel ranks
//! (SP/PP/WP) while the Gaussian field `z` is independent per rank.
//! [`Rng::stream`] provides cheap, independent derived streams for exactly
//! this purpose.

use crate::dispatch::Kernel;
use crate::sweeps;

/// SplitMix64's increment γ (the golden ratio's 64-bit fraction).
pub(crate) const GAMMA: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64's output finalizer of one state, inlined so that
/// [`sweeps::box_muller`]'s builds run it at their width.
#[inline(always)]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX[0]);
    z = (z ^ (z >> 27)).wrapping_mul(MIX[1]);
    z ^ (z >> 31)
}

/// The finalizer's two multipliers.
const MIX: [u64; 2] = [0xBF58476D1CE4E5B9, 0x94D049BB133111EB];

/// The state whose next SplitMix64 output is `word`: the finalizer run
/// backwards, to make a generator draw chosen uniforms.
#[cfg(test)]
pub(crate) fn state_before(word: u64) -> u64 {
    // `y = x ^ (x >> s)` is undone a further `s` top bits per round.
    let unshift = |y: u64, s: u32| (0..64 / s).fold(y, |x, _| y ^ (x >> s));
    // Newton's iteration for the inverse of an odd multiplier mod 2⁶⁴.
    let inverse = |c: u64| (0..6).fold(c, |x: u64, _| x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x))));
    let z = unshift(word, 31).wrapping_mul(inverse(MIX[1]));
    let z = unshift(z, 27).wrapping_mul(inverse(MIX[0]));
    unshift(z, 30).wrapping_sub(GAMMA)
}

/// SplitMix64 core step. Passes BigCrush; ideal for seed expansion.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// Ziv's rounding test at `ε = 2⁻⁴⁰`. [`sweeps::box_muller`] is within
/// 2⁻⁴⁶ of libm's f64, relative, so libm's value lies in
/// `[y·(1 − ε), y·(1 + ε)]`; when both ends round to one f32, so does libm's
/// value, and `y as f32` is its bits. False for NaN.
#[inline]
fn settled(y: f64) -> bool {
    const EPS: f64 = 1.0 / (1u64 << 40) as f64;
    (y * (1.0 - EPS)) as f32 == (y * (1.0 + EPS)) as f32
}

/// A small, fast, deterministic RNG (SplitMix64) with Gaussian sampling.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
    /// Cached second Box–Muller variate.
    gauss_cache: Option<f32>,
}

/// A serializable copy of an [`Rng`]'s state, for checkpoint-restart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RngSnapshot {
    pub state: u64,
    pub gauss_cache: Option<f32>,
}

impl Rng {
    /// Construct from a seed. Equal seeds yield identical streams.
    pub fn seed_from(seed: u64) -> Self {
        // One warm-up mix so that small consecutive seeds decorrelate.
        let mut state = seed;
        let _ = splitmix64(&mut state);
        Rng { state, gauss_cache: None }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform f32 in `[0, 1)` with 24 bits of mantissa.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of mantissa.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform f32 in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Standard normal variate via Box–Muller (cached pair).
    pub fn normal(&mut self) -> f32 {
        if let Some(v) = self.gauss_cache.take() {
            return v;
        }
        // Avoid u == 0 for the log.
        let u = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        let v = self.next_f64();
        let r = (-2.0 * u.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * v).sin_cos();
        self.gauss_cache = Some((r * s) as f32);
        (r * c) as f32
    }

    /// Fill `out` with exactly what `out.len()` calls of [`Rng::normal`]
    /// return, in order, leaving the same state and cached half behind.
    ///
    /// The pairs run in lanes: SplitMix64's outputs are counter-based (the
    /// `i`-th word after `state` is a function of `state + i·γ`), so
    /// [`sweeps::box_muller`] draws and transforms a block of pairs at once
    /// in f64 without libm, within 2⁻⁴⁶ of libm's results. A result `y` is
    /// rounded to f32 when `y·(1 − 2⁻⁴⁰)` and `y·(1 + 2⁻⁴⁰)` round to the
    /// same f32, which libm's value, between them, then rounds to too (Ziv's
    /// rounding test). A pair with a result that fails it (≈ 4.4 × 10⁻⁵ of
    /// pairs), or with a `u` that `normal` would reject, is drawn by
    /// `normal` itself.
    pub fn fill_normal(&mut self, out: &mut [f32]) {
        self.fill_normal_on(Kernel::detected(), out);
    }

    /// [`Rng::fill_normal`] with the lanes on `kernel`'s build of
    /// [`sweeps::box_muller_on`] (the same bits on each); panics when this
    /// CPU does not support it.
    pub fn fill_normal_on(&mut self, kernel: Kernel, out: &mut [f32]) {
        let _ = self.fill_normal_counted(kernel, out);
    }

    /// [`Rng::fill_normal_on`], returning how many pairs took the libm path.
    fn fill_normal_counted(&mut self, kernel: Kernel, mut out: &mut [f32]) -> usize {
        if out.is_empty() {
            return 0;
        }
        if let Some(v) = self.gauss_cache.take() {
            out[0] = v;
            out = &mut out[1..];
        }
        const PAIRS: usize = 128;
        let (mut rc, mut rs) = ([0f64; PAIRS], [0f64; PAIRS]);
        let mut slow = 0;
        while out.len() >= 2 {
            let n = (out.len() / 2).min(PAIRS);
            let start = self.state;
            sweeps::box_muller_on(kernel, &mut rc[..n], &mut rs[..n], start);
            self.state = start.wrapping_add(GAMMA.wrapping_mul(2 * n as u64));
            let mut done = n;
            for (i, pair) in out[..2 * n].chunks_exact_mut(2).enumerate() {
                if settled(rc[i]) && settled(rs[i]) {
                    pair[0] = rc[i] as f32;
                    pair[1] = rs[i] as f32;
                    continue;
                }
                slow += 1;
                let at = start.wrapping_add(GAMMA.wrapping_mul(2 * i as u64));
                let mut libm = Rng { state: at, gauss_cache: None };
                pair[0] = libm.normal();
                pair[1] = libm.normal();
                if libm.state != at.wrapping_add(GAMMA.wrapping_mul(2)) {
                    // `normal` rejected this `u` and drew a word more: the
                    // lanes' later pairs are void.
                    self.state = libm.state;
                    done = i + 1;
                    break;
                }
            }
            out = &mut out[2 * done..];
        }
        if let [last] = out {
            *last = self.normal();
        }
        slow
    }

    /// Derive an independent stream keyed by `key`. Streams with distinct keys
    /// (or from distinct parent states) are statistically independent; deriving
    /// does not advance `self`.
    pub fn stream(&self, key: u64) -> Rng {
        let mut s = self.state ^ key.wrapping_mul(0xD1342543DE82EF95).wrapping_add(0x2545F4914F6CDD1D);
        let _ = splitmix64(&mut s);
        Rng { state: s, gauss_cache: None }
    }

    /// Capture the full generator state (checkpoint-restart: restoring a
    /// snapshot continues the stream bitwise-identically, including a cached
    /// Box–Muller variate).
    pub fn snapshot(&self) -> RngSnapshot {
        RngSnapshot { state: self.state, gauss_cache: self.gauss_cache }
    }

    /// Rebuild a generator from a [`snapshot`](Rng::snapshot).
    pub fn restore(snap: RngSnapshot) -> Rng {
        Rng { state: snap.state, gauss_cache: snap.gauss_cache }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k <= n).
    pub fn choose_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n);
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Rng::seed_from(9);
        for _ in 0..1000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
            let y = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&y));
        }
    }

    #[test]
    fn streams_are_independent_and_stable() {
        let root = Rng::seed_from(7);
        let mut s1 = root.stream(0);
        let mut s1b = root.stream(0);
        let mut s2 = root.stream(1);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from(13);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(21);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_restore_resumes_bitwise() {
        let mut r = Rng::seed_from(77);
        let _ = r.normal(); // leave a cached Box–Muller variate in flight
        let snap = r.snapshot();
        let expect: Vec<f32> = (0..32).map(|_| r.normal()).collect();
        let mut resumed = Rng::restore(snap);
        let got: Vec<f32> = (0..32).map(|_| resumed.normal()).collect();
        assert_eq!(expect.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                   got.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
    }

    /// A state whose next Box–Muller pair has a sine half (≈ 0.998225) that
    /// an f64 result one ulp off libm's rounds to a different f32.
    const HARD_STATE: u64 = 0x6d2b_5c72_24f3_ef5d;

    /// The Gaussian stream as a contract: `Tensor::randn` at lengths that
    /// start and end on either half of a pair, over several seeds with and
    /// without a cached half in flight, plus [`HARD_STATE`], hashes, every
    /// draw and every `snapshot()` after it, to one pinned FNV-1a digest
    /// (captured from scalar libm Box–Muller, one `normal()` a draw).
    #[test]
    fn gaussian_draws_are_pinned_bitwise() {
        use crate::{fnv_u64, Tensor, FNV_INIT};
        let mut h = FNV_INIT;
        let mut draw = |rng: &mut Rng, n: usize| {
            for x in Tensor::randn(&[n], rng).data() {
                fnv_u64(&mut h, x.to_bits() as u64);
            }
            let snap = rng.snapshot();
            fnv_u64(&mut h, snap.state);
            fnv_u64(&mut h, snap.gauss_cache.map_or(u64::MAX, |g| g.to_bits() as u64));
        };
        for seed in [0, 1, 2025, 0xdead_beef] {
            for cached in [false, true] {
                let mut rng = Rng::seed_from(seed);
                if cached {
                    let _ = rng.normal();
                }
                for n in [0, 1, 2, 3, 19, 20, 255, 256, 257, 10_240] {
                    draw(&mut rng, n);
                }
            }
        }
        for gauss_cache in [None, Some(0.5)] {
            draw(&mut Rng::restore(RngSnapshot { state: HARD_STATE, gauss_cache }), 16);
        }
        assert_eq!(h, 0xade6_74b4_a2f6_e3a5, "got {h:#x}");
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The reference: `n` sequential `normal()` calls.
    fn normals(rng: &mut Rng, n: usize) -> Vec<u32> {
        (0..n).map(|_| rng.normal().to_bits()).collect()
    }

    #[test]
    fn state_before_inverts_the_finalizer() {
        let mut rng = Rng::seed_from(3);
        for word in [0, 1, 0x7FF, u64::MAX].into_iter().chain((0..1000).map(|_| rng.next_u64())) {
            assert_eq!(Rng::restore(RngSnapshot { state: state_before(word), gauss_cache: None }).next_u64(), word);
        }
    }

    proptest::proptest! {
        /// `fill_normal` is `normal()` called once per element: for any
        /// length, cut into consecutive fills anywhere, with or without a
        /// cached half in flight, on any build the host supports, the same
        /// bits and the same `snapshot()` after every fill.
        #[test]
        fn fill_normal_is_sequential_normal_calls(
            kernel in 0usize..3,
            seed in 0u64..u64::MAX,
            cached in proptest::bool::ANY,
            len in 0usize..600,
            cuts in proptest::collection::vec(0usize..600, 3)
        ) {
            let mut fast = Rng::seed_from(seed);
            if cached {
                let _ = fast.normal();
            }
            let mut slow = fast.clone();
            let mut at: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).chain([0, len]).collect();
            at.sort_unstable();
            let mut out = vec![f32::NAN; len];
            let supported = Kernel::supported();
            let kernel = supported[kernel.min(supported.len() - 1)];
            for w in at.windows(2) {
                fast.fill_normal_on(kernel, &mut out[w[0]..w[1]]);
                proptest::prop_assert_eq!(bits(&out[w[0]..w[1]]), normals(&mut slow, w[1] - w[0]));
                proptest::prop_assert_eq!(fast.snapshot(), slow.snapshot());
            }
        }
    }

    /// A `u` that `normal` rejects (`u = 0`, from a word below 2¹¹), as the
    /// first, a middle, the last or the next block's first pair of a fill:
    /// the fill takes `normal`'s path, draws one word more and keeps the
    /// bits, the cached half and the state.
    #[test]
    fn a_rejected_u_takes_the_scalar_path() {
        let zero = state_before(0x7FF);
        assert_eq!(Rng::restore(RngSnapshot { state: zero, gauss_cache: None }).next_f64(), 0.0);
        for pair in [0u64, 1, 5, 127, 128, 200] {
            for gauss_cache in [None, Some(0.25)] {
                let start = zero.wrapping_sub(GAMMA.wrapping_mul(2 * pair));
                let mut fast = Rng::restore(RngSnapshot { state: start, gauss_cache });
                let mut slow = fast.clone();
                let n = 2 * pair as usize + 301 + usize::from(gauss_cache.is_some());
                let mut out = vec![f32::NAN; n];
                fast.fill_normal(&mut out);
                assert_eq!(bits(&out), normals(&mut slow, n), "rejected u in pair {pair}");
                assert_eq!(fast.snapshot(), slow.snapshot());
                let words = 2 * (pair + 151) + 1;
                assert_eq!(fast.snapshot().state, start.wrapping_add(GAMMA.wrapping_mul(words)), "one word more");
            }
        }
    }

    /// The libm fallback fires, and keeps the bits: at [`HARD_STATE`] the
    /// lanes' own f64 sine half rounds to another f32 than libm's, and over
    /// a seeded stream of 400,000 draws some pairs take it.
    #[test]
    fn the_libm_fallback_fires_and_keeps_the_bits() {
        let hard = RngSnapshot { state: HARD_STATE, gauss_cache: None };
        let (mut rc, mut rs) = ([0.0], [0.0]);
        sweeps::box_muller(&mut rc, &mut rs, HARD_STATE);
        let mut out = [f32::NAN; 2];
        assert_eq!(Rng::restore(hard).fill_normal_counted(Kernel::detected(), &mut out), 1);
        assert_eq!(bits(&out), normals(&mut Rng::restore(hard), 2));
        assert_ne!((rs[0] as f32).to_bits(), out[1].to_bits(), "the lanes alone round the sine half elsewhere");

        let mut fast = Rng::seed_from(47);
        let mut slow = fast.clone();
        let mut out = vec![f32::NAN; 400_000];
        let fallbacks = fast.fill_normal_counted(Kernel::detected(), &mut out);
        assert!(fallbacks >= 1, "no pair took the libm path");
        assert_eq!(bits(&out), normals(&mut slow, out.len()));
        assert_eq!(fast.snapshot(), slow.snapshot());
    }

    #[test]
    fn choose_indices_distinct() {
        let mut r = Rng::seed_from(5);
        let ix = r.choose_indices(20, 10);
        let mut s = ix.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }
}
