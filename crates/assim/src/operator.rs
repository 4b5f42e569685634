//! Observation operators: sparse, typed forward maps from gridded states to
//! point observations, and the containers that carry the observed values.
//!
//! An operator is a list of (token, channel) sites plus per-channel
//! observation-error standard deviations. `H(x)` gathers the state at the
//! sites; the adjoint `Hᵀ y` scatters observation-space values back onto the
//! grid. Two synthetic network generators cover the paper-adjacent cases: a
//! seeded station network (uniform random distinct grid cells, the in-situ
//! analog) and a satellite ground track (a sinusoidal sweep in latitude while
//! the longitude precesses, the polar-orbiter analog).

use aeris_earthsim::Grid;
use aeris_tensor::{fnv_u64, Rng, Tensor, FNV_INIT};

/// One observed scalar: channel `channel` of grid cell `token`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObsSite {
    pub token: usize,
    pub channel: usize,
}

/// A sparse observation operator `H`: site list + per-channel observation
/// error. Sites are unique (token, channel) pairs, so `Hᵀ` is a plain
/// scatter.
#[derive(Clone, Debug)]
pub struct ObsOperator {
    /// Observed (token, channel) sites, in generation order.
    pub sites: Vec<ObsSite>,
    /// Observation-error standard deviation per *state channel* (R is
    /// diagonal with `noise_std[channel]²` at each site).
    pub noise_std: Vec<f32>,
    /// Grid size the operator is defined over (state rows).
    pub tokens: usize,
    /// State channels (state columns).
    pub channels: usize,
}

impl ObsOperator {
    /// A random station network: `n_stations` distinct grid cells (seeded
    /// Fisher–Yates draw), each reporting every channel in `channels_obs`.
    ///
    /// Panics if `channels_obs` names a channel outside the state, if any
    /// `noise_std` entry is not strictly positive, or if `n_stations`
    /// exceeds the number of grid cells.
    pub fn stations(
        grid: &Grid,
        n_stations: usize,
        channels_obs: &[usize],
        noise_std: &[f32],
        seed: u64,
    ) -> Self {
        let channels = noise_std.len();
        validate_channels(channels_obs, noise_std, channels);
        assert!(
            n_stations <= grid.tokens(),
            "{n_stations} stations exceed {} grid cells",
            grid.tokens()
        );
        let mut rng = Rng::seed_from(seed).stream(0x57A7_1045);
        let toks = rng.choose_indices(grid.tokens(), n_stations);
        let mut sites = Vec::with_capacity(n_stations * channels_obs.len());
        for &tok in &toks {
            for &ch in channels_obs {
                sites.push(ObsSite { token: tok, channel: ch });
            }
        }
        ObsOperator { sites, noise_std: noise_std.to_vec(), tokens: grid.tokens(), channels }
    }

    /// A satellite ground track: `n_samples` along-track footprints whose
    /// latitude sweeps sinusoidally up to ±`max_lat_deg` while the longitude
    /// precesses through `n_orbits` revolutions, with a seeded phase offset.
    /// Footprints that land in an already-observed cell are dropped, so sites
    /// stay unique.
    pub fn satellite_track(
        grid: &Grid,
        n_samples: usize,
        n_orbits: usize,
        max_lat_deg: f32,
        channels_obs: &[usize],
        noise_std: &[f32],
        seed: u64,
    ) -> Self {
        let channels = noise_std.len();
        validate_channels(channels_obs, noise_std, channels);
        assert!(n_orbits >= 1, "need at least one orbit");
        let mut rng = Rng::seed_from(seed).stream(0x5A7E_1117);
        let phase0 = rng.uniform(0.0, std::f32::consts::TAU);
        let lon0 = rng.uniform(0.0, 360.0);
        let mut seen = std::collections::HashSet::new();
        let mut sites = Vec::new();
        for i in 0..n_samples {
            let frac = i as f32 / n_samples.max(1) as f32;
            // One sinusoidal latitude oscillation per orbit; the longitude
            // precesses uniformly so successive orbits interleave.
            let phase = phase0 + std::f32::consts::TAU * frac * n_orbits as f32;
            let lat = max_lat_deg * phase.sin();
            let lon = lon0 + 360.0 * frac * n_orbits as f32 + 180.0 * frac;
            let tok = grid.token_of(lat, lon);
            for &ch in channels_obs {
                if seen.insert((tok, ch)) {
                    sites.push(ObsSite { token: tok, channel: ch });
                }
            }
        }
        ObsOperator { sites, noise_std: noise_std.to_vec(), tokens: grid.tokens(), channels }
    }

    /// Number of observed scalars.
    pub fn n_obs(&self) -> usize {
        self.sites.len()
    }

    /// Forward map `H(x)`: gather the state at each site into an
    /// observation-space vector `[n_obs]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape(), [self.tokens, self.channels], "state shape mismatch");
        let data = x.data();
        let y: Vec<f32> =
            self.sites.iter().map(|s| data[s.token * self.channels + s.channel]).collect();
        Tensor::from_vec(&[self.n_obs()], y)
    }

    /// Adjoint `Hᵀ y`: scatter an observation-space vector back onto the
    /// grid, `[tokens, channels]`. Satisfies `⟨Hx, y⟩ = ⟨x, Hᵀy⟩` exactly
    /// (sites are unique, so no accumulation-order ambiguity).
    pub fn adjoint(&self, y: &Tensor) -> Tensor {
        assert_eq!(y.shape(), [self.n_obs()], "observation vector length mismatch");
        let mut out = Tensor::zeros(&[self.tokens, self.channels]);
        let data = out.data_mut();
        for (s, &v) in self.sites.iter().zip(y.data()) {
            data[s.token * self.channels + s.channel] += v;
        }
        out
    }

    /// Simulate observing a truth state: `y = H(truth) + ε` with
    /// `ε ~ N(0, noise_std[channel]²)` per site, plus a missing-data mask
    /// dropping each observation independently with probability
    /// `missing_frac`. Deterministic given `seed`.
    pub fn observe(&self, truth: &Tensor, missing_frac: f32, seed: u64) -> ObservationSet {
        assert!((0.0..=1.0).contains(&missing_frac), "missing_frac {missing_frac} not in [0,1]");
        let clean = self.forward(truth);
        let mut rng = Rng::seed_from(seed).stream(0x0B5E_4ED1);
        let values: Vec<f32> = self
            .sites
            .iter()
            .zip(clean.data())
            .map(|(s, &v)| v + self.noise_std[s.channel] * rng.normal())
            .collect();
        let mask: Vec<bool> =
            (0..self.n_obs()).map(|_| rng.uniform(0.0, 1.0) >= missing_frac).collect();
        ObservationSet {
            sites: self.sites.clone(),
            values,
            noise_std: self.noise_std.clone(),
            mask,
            tokens: self.tokens,
            channels: self.channels,
        }
    }
}

fn validate_channels(channels_obs: &[usize], noise_std: &[f32], channels: usize) {
    assert!(!channels_obs.is_empty(), "must observe at least one channel");
    for &ch in channels_obs {
        assert!(ch < channels, "observed channel {ch} outside {channels} state channels");
    }
    for (ch, &s) in noise_std.iter().enumerate() {
        assert!(s > 0.0, "noise_std[{ch}] = {s} must be strictly positive");
    }
}

/// A concrete set of observations: the operator geometry plus observed
/// values and the availability mask. This is the payload a `NowcastRequest`
/// carries.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservationSet {
    pub sites: Vec<ObsSite>,
    /// Observed value per site (noise already applied).
    pub values: Vec<f32>,
    /// Observation-error std per state channel.
    pub noise_std: Vec<f32>,
    /// `true` = observation present; masked-out sites are skipped by
    /// guidance and evaluation.
    pub mask: Vec<bool>,
    pub tokens: usize,
    pub channels: usize,
}

impl ObservationSet {
    /// Number of observed scalars (present or not).
    pub fn n_obs(&self) -> usize {
        self.sites.len()
    }

    /// Number of observations actually available (mask = true).
    pub fn n_present(&self) -> usize {
        self.mask.iter().filter(|&&m| m).count()
    }

    /// The one statement of a well-formed set, checked where a set crosses a
    /// trust boundary (serve admission): a
    /// non-degenerate grid, one value and one mask bit per site, one
    /// strictly positive (and not NaN) error std per channel — guidance
    /// divides by its square —, every site inside the grid, and every
    /// *present* value finite (a masked-out value is never read).
    pub fn validate(&self) -> Result<(), String> {
        let (tokens, channels, n) = (self.tokens, self.channels, self.sites.len());
        if tokens == 0 || channels == 0 {
            return Err(format!("degenerate grid {tokens}x{channels}"));
        }
        if self.values.len() != n || self.mask.len() != n {
            return Err(format!(
                "inconsistent observation lengths: {n} sites, {} values, {} mask bits",
                self.values.len(),
                self.mask.len()
            ));
        }
        if self.noise_std.len() != channels {
            return Err(format!(
                "noise_std has {} entries for {channels} channels",
                self.noise_std.len()
            ));
        }
        if let Some((ch, s)) =
            self.noise_std.iter().enumerate().find(|(_, &s)| s <= 0.0 || s.is_nan())
        {
            return Err(format!("noise_std[{ch}] = {s} must be strictly positive"));
        }
        if let Some(bad) = self.sites.iter().find(|s| s.token >= tokens || s.channel >= channels) {
            return Err(format!(
                "observation site ({}, {}) outside the {tokens}x{channels} grid",
                bad.token, bad.channel
            ));
        }
        if let Some(i) = (0..n).find(|&i| self.mask[i] && !self.values[i].is_finite()) {
            return Err(format!(
                "observation {i} is present but not finite ({})",
                self.values[i]
            ));
        }
        Ok(())
    }

    /// Content digest over geometry, values, noise model, and mask — the
    /// rollout-cache key component for nowcasts. Any bit of any observed
    /// value changes the digest.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_INIT;
        fnv_u64(&mut h, self.tokens as u64);
        fnv_u64(&mut h, self.channels as u64);
        for s in &self.sites {
            fnv_u64(&mut h, ((s.token as u64) << 32) | s.channel as u64);
        }
        for &v in &self.values {
            fnv_u64(&mut h, v.to_bits() as u64);
        }
        for &s in &self.noise_std {
            fnv_u64(&mut h, s.to_bits() as u64);
        }
        for &m in &self.mask {
            fnv_u64(&mut h, m as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(8, 16)
    }

    fn operator() -> ObsOperator {
        ObsOperator::stations(&grid(), 20, &[0, 2], &[0.5, 1.0, 0.25, 2.0], 7)
    }

    #[test]
    fn stations_are_distinct_and_in_bounds() {
        let op = operator();
        assert_eq!(op.n_obs(), 40, "20 stations x 2 channels");
        let uniq: std::collections::HashSet<_> = op.sites.iter().collect();
        assert_eq!(uniq.len(), op.n_obs(), "sites must be unique");
        for s in &op.sites {
            assert!(s.token < op.tokens && s.channel < op.channels);
        }
        // Deterministic in the seed; distinct across seeds.
        let again = ObsOperator::stations(&grid(), 20, &[0, 2], &[0.5, 1.0, 0.25, 2.0], 7);
        assert_eq!(op.sites, again.sites);
        let other = ObsOperator::stations(&grid(), 20, &[0, 2], &[0.5, 1.0, 0.25, 2.0], 8);
        assert_ne!(op.sites, other.sites);
    }

    #[test]
    fn satellite_track_covers_both_hemispheres() {
        let g = Grid::new(16, 32);
        let op = ObsOperator::satellite_track(&g, 200, 3, 70.0, &[1], &[1.0; 4], 11);
        assert!(op.n_obs() > 20, "track should hit many distinct cells, got {}", op.n_obs());
        let uniq: std::collections::HashSet<_> = op.sites.iter().collect();
        assert_eq!(uniq.len(), op.n_obs());
        let (mut north, mut south) = (false, false);
        for s in &op.sites {
            let (r, _) = g.coords(s.token);
            if g.lat_deg(r) > 20.0 {
                north = true;
            }
            if g.lat_deg(r) < -20.0 {
                south = true;
            }
        }
        assert!(north && south, "sinusoidal track must visit both hemispheres");
    }

    #[test]
    fn forward_gathers_and_adjoint_scatters() {
        let op = operator();
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[op.tokens, op.channels], &mut rng);
        let y = op.forward(&x);
        assert_eq!(y.shape(), &[op.n_obs()]);
        for (i, s) in op.sites.iter().enumerate() {
            assert_eq!(y.data()[i], x.at(&[s.token, s.channel]));
        }
        let back = op.adjoint(&y);
        assert_eq!(back.shape(), x.shape());
        // Unobserved cells stay zero; observed cells carry the value back.
        let observed: std::collections::HashSet<_> =
            op.sites.iter().map(|s| (s.token, s.channel)).collect();
        for t in 0..op.tokens {
            for c in 0..op.channels {
                if observed.contains(&(t, c)) {
                    assert_eq!(back.at(&[t, c]), x.at(&[t, c]));
                } else {
                    assert_eq!(back.at(&[t, c]), 0.0);
                }
            }
        }
    }

    #[test]
    fn observe_is_seeded_noisy_and_masked() {
        let op = operator();
        let mut rng = Rng::seed_from(5);
        let truth = Tensor::randn(&[op.tokens, op.channels], &mut rng);
        let a = op.observe(&truth, 0.3, 42);
        let b = op.observe(&truth, 0.3, 42);
        assert_eq!(a, b, "observation draw must be deterministic in the seed");
        let c = op.observe(&truth, 0.3, 43);
        assert_ne!(a.values, c.values);
        // Noise actually perturbs the values.
        let clean = op.forward(&truth);
        assert!(a.values.iter().zip(clean.data()).any(|(v, c)| v != c));
        // Mask drops roughly the requested fraction.
        let present = a.n_present();
        assert!(present < a.n_obs() && present > 0, "present {present} of {}", a.n_obs());
        let full = op.observe(&truth, 0.0, 42);
        assert_eq!(full.n_present(), full.n_obs());
    }

    #[test]
    fn digest_tracks_content() {
        let op = operator();
        let mut rng = Rng::seed_from(8);
        let truth = Tensor::randn(&[op.tokens, op.channels], &mut rng);
        let a = op.observe(&truth, 0.0, 1);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.values[3] += 1e-6;
        assert_ne!(a.digest(), b.digest(), "any value bit must change the digest");
        let mut c = a.clone();
        c.mask[0] = !c.mask[0];
        assert_ne!(a.digest(), c.digest(), "mask must be part of the digest");
    }

    #[test]
    fn validate_rejects_malformed_sets() {
        let op = operator();
        let truth = Tensor::zeros(&[op.tokens, op.channels]);
        let obs = op.observe(&truth, 0.0, 1);
        assert_eq!(obs.validate(), Ok(()));
        let rejected = |bad: ObservationSet, what: &str| {
            assert!(bad.validate().is_err(), "{what} must not validate");
        };
        rejected(ObservationSet { tokens: 0, ..obs.clone() }, "a degenerate grid");
        let mut bad = obs.clone();
        bad.values.pop();
        rejected(bad, "a missing value");
        let mut bad = obs.clone();
        bad.mask.push(true);
        rejected(bad, "an extra mask bit");
        let mut bad = obs.clone();
        bad.noise_std.pop();
        rejected(bad, "a missing error std");
        let mut bad = obs.clone();
        bad.sites[0].token = bad.tokens + 5;
        rejected(bad, "an out-of-range site");
        // An error std guidance cannot divide by, and a present value that
        // is not a number.
        for poison in [0.0, -0.5, f32::NAN] {
            let mut bad = obs.clone();
            bad.noise_std[1] = poison;
            rejected(bad, &format!("noise_std {poison}"));
        }
        for poison in [f32::NAN, f32::INFINITY] {
            let mut bad = obs.clone();
            bad.values[2] = poison;
            rejected(bad.clone(), &format!("value {poison}"));
            // Under the missing-data mask the same value is never read.
            bad.mask[2] = false;
            assert_eq!(bad.validate(), Ok(()), "masked value {poison}");
        }
    }
}
