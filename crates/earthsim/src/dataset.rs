//! Trajectory sampling, normalization, and data access.
//!
//! Mirrors the paper's data protocol (§VI-B): 6-hourly global states, z-score
//! standardization with per-variable statistics computed on the *training*
//! portion, chronological train/validation/test splits, and the forcing
//! channels (solar, orography, land-sea mask) concatenated as inputs.

use crate::dynamics::{ToyAtmosphere, ToyParams};
use crate::grid::Grid;
use crate::variables::VariableSet;
use aeris_tensor::Tensor;

/// Per-channel z-score statistics.
#[derive(Clone, Debug)]
pub struct NormStats {
    pub mean: Vec<f32>,
    pub std: Vec<f32>,
}

impl NormStats {
    /// Compute from a set of `[tokens, C]` states.
    pub fn compute(states: &[Tensor]) -> Self {
        assert!(!states.is_empty());
        let c = states[0].shape()[1];
        let mut mean = vec![0.0f64; c];
        let mut m2 = vec![0.0f64; c];
        let mut count = 0u64;
        for s in states {
            assert_eq!(s.shape()[1], c);
            for r in 0..s.shape()[0] {
                let row = s.row(r);
                for (j, &v) in row.iter().enumerate() {
                    mean[j] += v as f64;
                    m2[j] += (v as f64) * (v as f64);
                }
            }
            count += s.shape()[0] as u64;
        }
        let mut out_mean = Vec::with_capacity(c);
        let mut out_std = Vec::with_capacity(c);
        for j in 0..c {
            let m = mean[j] / count as f64;
            let var = (m2[j] / count as f64 - m * m).max(1e-12);
            out_mean.push(m as f32);
            out_std.push(var.sqrt() as f32);
        }
        NormStats { mean: out_mean, std: out_std }
    }

    /// Standardize a `[tokens, C]` state.
    pub fn standardize(&self, x: &Tensor) -> Tensor {
        let c = x.shape()[1];
        assert_eq!(c, self.mean.len());
        let mut out = x.clone();
        for r in 0..x.shape()[0] {
            let row = out.row_mut(r);
            for j in 0..c {
                row[j] = (row[j] - self.mean[j]) / self.std[j];
            }
        }
        out
    }

    /// Invert [`NormStats::standardize`].
    pub fn unstandardize(&self, x: &Tensor) -> Tensor {
        let c = x.shape()[1];
        assert_eq!(c, self.mean.len());
        let mut out = x.clone();
        for r in 0..x.shape()[0] {
            let row = out.row_mut(r);
            for j in 0..c {
                row[j] = row[j] * self.std[j] + self.mean[j];
            }
        }
        out
    }
}

/// One training sample: consecutive standardized-unit states plus forcings.
#[derive(Clone, Debug)]
pub struct SamplePair {
    /// State at time i−1 (physical units), `[tokens, C]`.
    pub prev: Tensor,
    /// State at time i (physical units), `[tokens, C]`.
    pub next: Tensor,
    /// Forcings at time i−1, `[tokens, 3]`.
    pub forcings: Tensor,
    /// Hours since simulation start of `prev`.
    pub time_hours: f64,
}

/// An in-memory trajectory of rendered global states.
#[derive(Clone)]
pub struct Dataset {
    pub vars: VariableSet,
    pub grid: Grid,
    states: Vec<Tensor>,
    forcings: Vec<Tensor>,
    times: Vec<f64>,
    /// Statistics computed on the training split.
    pub stats: NormStats,
    /// Statistics of the one-step residuals (x_{i+1} − x_i) on the training
    /// split. Diffusion targets are standardized by these, so the clean data
    /// really has σ_d ≈ 1 as TrigFlow assumes (§VI-B: the model estimates the
    /// residual in standardized units).
    pub res_stats: NormStats,
    /// Number of *pairs* in the training split.
    pub train_pairs: usize,
    /// Number of pairs in the validation split.
    pub val_pairs: usize,
}

impl Dataset {
    /// Generate a trajectory: spin up (discarded), then record `n_steps + 1`
    /// states at the simulator cadence. Splits chronologically:
    /// `train_frac` then `val_frac` of pairs, remainder test — matching the
    /// paper's 1979–2018 / 2019 / 2020 protocol in miniature.
    pub fn generate(
        params: ToyParams,
        vars: &VariableSet,
        n_steps: usize,
        spinup_steps: usize,
        train_frac: f64,
        val_frac: f64,
    ) -> Dataset {
        let mut sim = ToyAtmosphere::new(params);
        sim.spinup(spinup_steps);
        let mut states = Vec::with_capacity(n_steps + 1);
        let mut forcings = Vec::with_capacity(n_steps + 1);
        let mut times = Vec::with_capacity(n_steps + 1);
        for _ in 0..=n_steps {
            states.push(sim.render(vars));
            forcings.push(sim.forcings());
            times.push(sim.time_hours());
            sim.step();
        }
        let n_pairs = n_steps;
        assert!(n_pairs >= 3, "need at least 3 pairs for meaningful residual statistics");
        let train_pairs = ((n_pairs as f64 * train_frac).round() as usize).clamp(2, n_pairs);
        let val_pairs =
            ((n_pairs as f64 * val_frac).round() as usize).min(n_pairs - train_pairs);
        let stats = NormStats::compute(&states[..=train_pairs]);
        let residuals: Vec<Tensor> = (0..train_pairs)
            .map(|i| states[i + 1].sub(&states[i]))
            .collect();
        let res_stats = NormStats::compute(&residuals);
        Dataset {
            vars: vars.clone(),
            grid: sim.grid(),
            states,
            forcings,
            times,
            stats,
            res_stats,
            train_pairs,
            val_pairs,
        }
    }

    /// Number of consecutive-state pairs.
    pub fn len_pairs(&self) -> usize {
        self.states.len().saturating_sub(1)
    }

    /// The `i`-th state (physical units).
    pub fn state(&self, i: usize) -> &Tensor {
        &self.states[i]
    }

    /// Time (hours) of state `i`.
    pub fn time(&self, i: usize) -> f64 {
        self.times[i]
    }

    /// Pair `(x_{i}, x_{i+1})` in physical units.
    pub fn pair(&self, i: usize) -> SamplePair {
        assert!(i + 1 < self.states.len());
        SamplePair {
            prev: self.states[i].clone(),
            next: self.states[i + 1].clone(),
            forcings: self.forcings[i].clone(),
            time_hours: self.times[i],
        }
    }

    /// Index ranges of the chronological splits (pair indices).
    pub fn split_ranges(&self) -> (std::ops::Range<usize>, std::ops::Range<usize>, std::ops::Range<usize>) {
        let t = self.train_pairs;
        let v = self.val_pairs;
        (0..t, t..t + v, t + v..self.len_pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let params = ToyParams { nlat: 16, nlon: 32, seed: 5, ..Default::default() };
        Dataset::generate(params, &VariableSet::default_toy(), 40, 10, 0.7, 0.15)
    }

    /// Standardize a residual (difference of two states): only the scale
    /// applies, the mean cancels.
    fn standardize_residual(stats: &NormStats, dx: &Tensor) -> Tensor {
        let c = dx.shape()[1];
        let mut out = dx.clone();
        for r in 0..dx.shape()[0] {
            let row = out.row_mut(r);
            for j in 0..c {
                row[j] /= stats.std[j];
            }
        }
        out
    }

    #[test]
    fn generation_counts_and_splits() {
        let ds = tiny();
        assert_eq!(ds.len_pairs(), 40);
        let (tr, va, te) = ds.split_ranges();
        assert_eq!(tr.len(), 28);
        assert_eq!(va.len(), 6);
        assert_eq!(te.len(), 6);
        assert_eq!(tr.end, va.start);
        assert_eq!(va.end, te.start);
    }

    #[test]
    fn standardized_training_data_has_unit_moments() {
        let ds = tiny();
        // Standardize the training states and check pooled moments.
        let mut all = Vec::new();
        for i in 0..=ds.train_pairs {
            all.push(ds.stats.standardize(ds.state(i)));
        }
        let c = ds.vars.len();
        for j in 0..c {
            let mut vals = Vec::new();
            for s in &all {
                for r in 0..s.shape()[0] {
                    vals.push(s.at(&[r, j]));
                }
            }
            let mean: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
            let var: f64 = vals.iter().map(|&v| (v as f64 - mean) * (v as f64 - mean)).sum::<f64>()
                / vals.len() as f64;
            assert!(mean.abs() < 0.05, "channel {j} mean {mean}");
            assert!((var - 1.0).abs() < 0.1, "channel {j} var {var}");
        }
    }

    #[test]
    fn standardize_roundtrip() {
        let ds = tiny();
        let x = ds.state(3);
        let back = ds.stats.unstandardize(&ds.stats.standardize(x));
        assert!(back.max_abs_diff(x) < 1e-2, "{}", back.max_abs_diff(x));
    }

    #[test]
    fn residual_standardization_uses_scale_only() {
        let ds = tiny();
        let dx = ds.state(4).sub(ds.state(3));
        let r = standardize_residual(&ds.stats, &dx);
        // r * std == dx
        for row in 0..4 {
            for j in 0..ds.vars.len() {
                let got = r.at(&[row, j]) * ds.stats.std[j];
                assert!((got - dx.at(&[row, j])).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn pairs_are_consecutive() {
        let ds = tiny();
        let p = ds.pair(7);
        assert_eq!(&p.prev, ds.state(7));
        assert_eq!(&p.next, ds.state(8));
        assert_eq!(p.time_hours, ds.time(7));
        assert!((ds.time(8) - ds.time(7) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn residual_stats_give_unit_scale_targets() {
        let ds = tiny();
        // Standardizing training residuals by res_stats yields ~unit variance.
        let mut vals = Vec::new();
        for i in 0..ds.train_pairs {
            let d = ds.res_stats.standardize(&ds.state(i + 1).sub(ds.state(i)));
            vals.extend_from_slice(d.data());
        }
        let mean: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
        let var: f64 = vals.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>()
            / vals.len() as f64;
        assert!((var - 1.0).abs() < 0.15, "residual target var {var}");
    }

    #[test]
    fn consecutive_states_differ_but_not_wildly() {
        let ds = tiny();
        let p = ds.pair(10);
        let d = p.next.sub(&p.prev);
        assert!(d.abs_max() > 1e-3, "no evolution");
        // The standardized residual should be small compared to the field
        // variance — the basis for residual prediction in the paper.
        let rstd = standardize_residual(&ds.stats, &d);
        let full = ds.stats.standardize(&p.next);
        assert!(rstd.norm() < full.norm(), "residual not smaller than state");
    }
}
