//! The paper's inference solver: DPMSolver++ 2S in TrigFlow's angular domain,
//! with a log-uniform time schedule matched to the training prior and a
//! trigonometric Langevin-like churn for sample quality and ensemble spread
//! (§VI-B "Inference").
//!
//! In TrigFlow the PFODE is a rotation: an Euler step with the predicted
//! velocity is replaced by the exact angular rotation
//! `x_{t'} = cos(t−t')·x_t − sin(t−t')·v̂`, and the second-order (2S) variant
//! re-evaluates the velocity at the angular midpoint. Ten steps are the
//! paper's default.

use crate::trigflow::TrigFlow;
use aeris_tensor::{Rng, Tensor};

/// Typed sampler-configuration error. Returned by [`SamplerConfig::validate`]
/// so malformed schedules are rejected at request admission instead of
/// panicking mid-rollout.
#[derive(Clone, Debug, PartialEq)]
pub enum SamplerError {
    /// `n_steps == 0`: the σ schedule would be empty.
    EmptySchedule,
    /// The σ prior bounds do not satisfy `0 < σ_min < σ_max` (this includes
    /// NaN bounds), so the log-uniform time grid would not be monotone.
    NonMonotoneSigma { sigma_min: f32, sigma_max: f32 },
    /// Churn fraction outside `[0, 1)` (or NaN).
    BadChurn { churn: f32 },
}

impl std::fmt::Display for SamplerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplerError::EmptySchedule => write!(f, "sampler schedule is empty (n_steps = 0)"),
            SamplerError::NonMonotoneSigma { sigma_min, sigma_max } => write!(
                f,
                "sigma schedule is not monotone: need 0 < sigma_min < sigma_max, \
                 got [{sigma_min}, {sigma_max}]"
            ),
            SamplerError::BadChurn { churn } => {
                write!(f, "churn fraction {churn} outside [0, 1)")
            }
        }
    }
}

impl std::error::Error for SamplerError {}

/// Sampler hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Number of solver steps (paper: 10).
    pub n_steps: usize,
    /// Churn fraction γ ∈ [0, 1): each step first re-noises from `t_i` back
    /// toward `t_{i-1}` by `γ·(t_{i-1} − t_i)`. 0 disables churn.
    pub churn: f32,
    /// Use the second-order midpoint correction (2S); `false` gives the
    /// first-order angular-DDIM solver (ablation).
    pub second_order: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig { n_steps: 10, churn: 0.1, second_order: true }
    }
}

impl SamplerConfig {
    /// Check that this config yields a well-formed, strictly decreasing time
    /// grid under the parameterization `tf`.
    pub fn validate(&self, tf: &TrigFlow) -> Result<(), SamplerError> {
        if self.n_steps == 0 {
            return Err(SamplerError::EmptySchedule);
        }
        // Explicit NaN checks: NaN bounds must fail, not slip through.
        if tf.sigma_min <= 0.0
            || tf.sigma_max <= tf.sigma_min
            || tf.sigma_min.is_nan()
            || tf.sigma_max.is_nan()
        {
            return Err(SamplerError::NonMonotoneSigma {
                sigma_min: tf.sigma_min,
                sigma_max: tf.sigma_max,
            });
        }
        if !(0.0..1.0).contains(&self.churn) {
            return Err(SamplerError::BadChurn { churn: self.churn });
        }
        Ok(())
    }
}

/// Inference-time guidance: a hook called with each denoised / data-prediction
/// estimate of the solver, returning an additive correction (or `None` for
/// "leave the estimate untouched").
///
/// The contract that keeps the determinism suites biting: an implementation
/// whose scheduled weight is exactly zero at `step` MUST return `None`, and
/// the sampler then executes a code path bitwise identical to the unguided
/// solver. Returning `Some(zeros)` is NOT equivalent — adding a zero tensor
/// can still flip `-0.0` to `+0.0` and, on the first-order path, swaps the
/// exact angular rotation for the algebraically-equal-but-differently-rounded
/// data-prediction update.
pub trait Guidance {
    /// Correction to the denoised estimate `x_hat` at solver step `step`
    /// (0-based over [`SamplerConfig::n_steps`]) and diffusion time `t`.
    /// For the 2S solver this is called twice per step — once for the
    /// half-step estimate, once for the midpoint estimate — with the same
    /// `step` index.
    fn nudge(&mut self, x_hat: &Tensor, step: usize, t: f32) -> Option<Tensor>;
}

/// The always-off guidance; [`TrigFlowSampler::sample`] routes through the
/// guided loop with this, so there is exactly one solver implementation.
pub struct NoGuidance;

impl Guidance for NoGuidance {
    fn nudge(&mut self, _x_hat: &Tensor, _step: usize, _t: f32) -> Option<Tensor> {
        None
    }
}

/// The TrigFlow sampler.
#[derive(Clone, Copy, Debug)]
pub struct TrigFlowSampler {
    pub tf: TrigFlow,
    pub cfg: SamplerConfig,
}

impl TrigFlowSampler {
    /// Construct with a parameterization and config.
    pub fn new(tf: TrigFlow, cfg: SamplerConfig) -> Self {
        TrigFlowSampler { tf, cfg }
    }

    /// The time grid: σ log-uniform from σ_max down to σ_min (matching the
    /// training prior), mapped through `t = arctan(σ/σ_d)`, with a final 0.
    pub fn schedule(&self) -> Vec<f32> {
        let n = self.cfg.n_steps;
        assert!(n >= 1);
        let lmin = self.tf.sigma_min.ln();
        let lmax = self.tf.sigma_max.ln();
        let mut ts = Vec::with_capacity(n + 1);
        for i in 0..n {
            let frac = if n == 1 { 0.0 } else { i as f32 / (n - 1) as f32 };
            let sigma = (lmax + frac * (lmin - lmax)).exp();
            ts.push(self.tf.t_of_sigma(sigma));
        }
        ts.push(0.0);
        ts
    }

    /// Draw the pure-noise initial state at `t = π/2` (scaled by σ_d).
    pub fn initial_noise(&self, shape: &[usize], rng: &mut Rng) -> Tensor {
        let mut x = Tensor::randn(shape, rng);
        x.scale_inplace(self.tf.sigma_d);
        x
    }

    /// Generate one sample. `velocity(x, t)` evaluates the trained network
    /// `σ_d · F_θ(x/σ_d, t)`; `rng` drives the churn noise.
    pub fn sample(
        &self,
        shape: &[usize],
        velocity: &mut dyn FnMut(&Tensor, f32) -> Tensor,
        rng: &mut Rng,
    ) -> Tensor {
        self.sample_guided(shape, velocity, rng, &mut NoGuidance)
    }

    /// [`Self::sample`] with an observation-consistency [`Guidance`] term:
    /// the one solver loop, from [`Self::initial_noise`] at
    /// `schedule()[0]` (within 2e-3 rad of π/2 for the default
    /// σ_max = 500). Each step forms the data-prediction estimate `D̂`, asks
    /// `guidance` for a nudge toward the observations, and — only when a
    /// nudge is present — continues the step from `D̂ + g` via the
    /// data-prediction update. With no nudge the step is the unguided solver,
    /// bit for bit: the first-order branch keeps the exact angular rotation
    /// (`ode_step`), which rounds differently from the algebraically equal
    /// `exp_step` form.
    pub fn sample_guided(
        &self,
        shape: &[usize],
        velocity: &mut dyn FnMut(&Tensor, f32) -> Tensor,
        rng: &mut Rng,
        guidance: &mut dyn Guidance,
    ) -> Tensor {
        let mut x = self.initial_noise(shape, rng);
        let ts = self.schedule();
        for i in 0..ts.len() - 1 {
            let mut t = ts[i];
            let t_next = ts[i + 1];
            // Churn: re-noise toward the previous (noisier) time.
            if self.cfg.churn > 0.0 && i > 0 {
                let t_hat = (t + self.cfg.churn * (ts[i - 1] - t)).min(std::f32::consts::FRAC_PI_2);
                self.tf.churn(&mut x, t, t_hat, rng);
                t = t_hat;
            }
            if self.cfg.second_order {
                x = self.step_2s(&x, t, t_next, velocity, i, guidance);
            } else {
                let v = velocity(&x, t);
                let d = self.tf.denoise(&x, &v, t);
                x = match guidance.nudge(&d, i, t) {
                    Some(g) => exp_step(&x, &d.add(&g), t, t_next),
                    None => self.tf.ode_step(&x, &v, t, t_next),
                };
            }
        }
        x
    }

    /// Exponential-integrator step in data-prediction form. In TrigFlow
    /// variables (α = cos t, σ = sin t) the PFODE becomes `d(x/sin t)/dτ = D`
    /// with `τ = cot t` and denoised estimate `D = cos(t)x − sin(t)v`, giving
    /// the exact update
    /// `x(t') = (sin t'/sin t)·x + (sin(t − t')/sin t)·D̄`,
    /// where `D̄` is the data prediction held over the step. First order
    /// (DDIM) uses `D̄ = D(x_t, t)`; DPMSolver++ 2S evaluates `D̄` at the
    /// λ-space midpoint `cot t_mid = √(cot t · cot t')` (geometric mean).
    fn step_2s(
        &self,
        x: &Tensor,
        t: f32,
        t_next: f32,
        velocity: &mut dyn FnMut(&Tensor, f32) -> Tensor,
        step: usize,
        guidance: &mut dyn Guidance,
    ) -> Tensor {
        let v_s = velocity(x, t);
        let mut d_s = self.tf.denoise(x, &v_s, t);
        if let Some(g) = guidance.nudge(&d_s, step, t) {
            d_s = d_s.add(&g);
        }
        // λ-space midpoint; for the final step to t' = 0 (λ → ∞) fall back to
        // the t-space midpoint.
        let t_mid = if t_next > 0.0 {
            let cot_mid = ((t.tan().recip()) * (t_next.tan().recip())).sqrt();
            cot_mid.recip().atan()
        } else {
            0.5 * t
        };
        // First-order hop to the midpoint.
        let u = exp_step(x, &d_s, t, t_mid);
        let v_mid = velocity(&u, t_mid);
        let mut d_mid = self.tf.denoise(&u, &v_mid, t_mid);
        if let Some(g) = guidance.nudge(&d_mid, step, t_mid) {
            d_mid = d_mid.add(&g);
        }
        exp_step(x, &d_mid, t, t_next)
    }
}

/// The exact data-prediction update
/// `x(t') = (sin t'/sin t)·x + (sin(t−t')/sin t)·D` (see [`TrigFlowSampler::step_2s`]).
/// At `t' = 0` this returns `D` itself.
fn exp_step(x: &Tensor, d: &Tensor, t: f32, t_next: f32) -> Tensor {
    let s = t.sin();
    let a = t_next.sin() / s;
    let b = (t - t_next).sin() / s;
    x.zip_map(d, |xv, dv| a * xv + b * dv)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For a Gaussian data distribution N(μ, s²I) the exact TrigFlow velocity
    /// field is available in closed form, so the solver can be validated
    /// end-to-end against known statistics. With x_t = cos(t)x0 + sin(t)z:
    /// E[v | x_t] = cos(t)E[z|x_t] − sin(t)E[x0|x_t], where the posterior is
    /// Gaussian with var_t = cos²s² + sin².
    fn gaussian_velocity(mu: f32, s: f32) -> impl FnMut(&Tensor, f32) -> Tensor {
        move |x: &Tensor, t: f32| {
            let (c, si) = (t.cos(), t.sin());
            let var_t = c * c * s * s + si * si;
            x.map(|xt| {
                let e_x0 = (c * s * s * (xt - c * mu) / var_t) + mu;
                let e_z = si * (xt - c * mu) / var_t;
                c * e_z - si * e_x0
            })
        }
    }

    #[test]
    fn schedule_is_monotone_decreasing_ending_at_zero() {
        let s = TrigFlowSampler::new(TrigFlow::default(), SamplerConfig::default());
        let ts = s.schedule();
        assert_eq!(ts.len(), 11);
        for w in ts.windows(2) {
            assert!(w[1] < w[0], "schedule must decrease: {:?}", ts);
        }
        assert_eq!(*ts.last().unwrap(), 0.0);
        assert!(ts[0] > 1.56, "starts near pi/2");
    }

    #[test]
    fn samples_match_gaussian_target_statistics() {
        let (mu, s) = (2.0f32, 0.5f32);
        let sampler = TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 24, churn: 0.0, second_order: true },
        );
        let mut vel = gaussian_velocity(mu, s);
        let mut rng = Rng::seed_from(7);
        let out = sampler.sample(&[8000], &mut vel, &mut rng);
        let mean = out.mean();
        let std = out.variance().sqrt();
        assert!((mean - mu as f64).abs() < 0.05, "mean {mean}");
        assert!((std - s as f64).abs() < 0.05, "std {std}");
    }

    #[test]
    fn second_order_beats_first_order_at_few_steps() {
        let (mu, s) = (-1.0f32, 0.3f32);
        let run = |second_order: bool, n_steps: usize| {
            let sampler = TrigFlowSampler::new(
                TrigFlow::default(),
                SamplerConfig { n_steps, churn: 0.0, second_order },
            );
            let mut vel = gaussian_velocity(mu, s);
            let mut rng = Rng::seed_from(8);
            let out = sampler.sample(&[4000], &mut vel, &mut rng);
            (out.mean() - mu as f64).abs()
        };
        let err2 = run(true, 6);
        let err1 = run(false, 6);
        assert!(err2 < err1 + 0.02, "2S err {err2} vs 1S err {err1}");
    }

    #[test]
    fn churn_increases_ensemble_spread_without_breaking_stats() {
        let (mu, s) = (0.0f32, 1.0f32);
        let run = |churn: f32, seed: u64| {
            let sampler = TrigFlowSampler::new(
                TrigFlow::default(),
                SamplerConfig { n_steps: 12, churn, second_order: true },
            );
            let mut vel = gaussian_velocity(mu, s);
            let mut rng = Rng::seed_from(seed);
            sampler.sample(&[4000], &mut vel, &mut rng)
        };
        let a = run(0.3, 9);
        assert!((a.mean()).abs() < 0.08);
        // Few-step solvers slightly contract variance (the same effect that
        // makes the paper's ensembles under-dispersive, SSR < 1).
        assert!((0.75..1.1).contains(&a.variance()), "var {}", a.variance());
        // Distinct seeds produce distinct members.
        let b = run(0.3, 10);
        assert!(a.max_abs_diff(&b) > 0.1);
    }

    #[test]
    fn deterministic_given_seed_without_churn_noise_dependence() {
        let sampler = TrigFlowSampler::new(TrigFlow::default(), SamplerConfig::default());
        let mut vel_a = gaussian_velocity(1.0, 0.4);
        let mut vel_b = gaussian_velocity(1.0, 0.4);
        let mut r1 = Rng::seed_from(11);
        let mut r2 = Rng::seed_from(11);
        let a = sampler.sample(&[100], &mut vel_a, &mut r1);
        let b = sampler.sample(&[100], &mut vel_b, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        let ok = SamplerConfig::default();
        assert_eq!(ok.validate(&TrigFlow::default()), Ok(()));

        let empty = SamplerConfig { n_steps: 0, ..ok };
        assert_eq!(empty.validate(&TrigFlow::default()), Err(SamplerError::EmptySchedule));

        let inverted = TrigFlow { sigma_min: 10.0, sigma_max: 0.5, ..TrigFlow::default() };
        assert!(matches!(
            ok.validate(&inverted),
            Err(SamplerError::NonMonotoneSigma { .. })
        ));
        let degenerate = TrigFlow { sigma_min: 2.0, sigma_max: 2.0, ..TrigFlow::default() };
        assert!(ok.validate(&degenerate).is_err(), "equal bounds give an empty log range");
        let nan = TrigFlow { sigma_min: f32::NAN, ..TrigFlow::default() };
        assert!(ok.validate(&nan).is_err(), "NaN bounds must not pass");
        let nonpos = TrigFlow { sigma_min: 0.0, ..TrigFlow::default() };
        assert!(ok.validate(&nonpos).is_err(), "sigma_min = 0 breaks ln()");

        for churn in [-0.1f32, 1.0, 1.5, f32::NAN] {
            let bad = SamplerConfig { churn, ..ok };
            assert!(
                matches!(bad.validate(&TrigFlow::default()), Err(SamplerError::BadChurn { .. })),
                "churn {churn} accepted"
            );
        }

        // Errors format without panicking and carry the offending values.
        let msg = SamplerError::NonMonotoneSigma { sigma_min: 3.0, sigma_max: 1.0 }.to_string();
        assert!(msg.contains('3') && msg.contains('1'), "{msg}");
    }

    /// A guidance that never fires must leave both solver branches bitwise
    /// unchanged — the core contract the assimilation stack builds on.
    struct NeverFires {
        calls: usize,
    }
    impl Guidance for NeverFires {
        fn nudge(&mut self, _x_hat: &Tensor, _step: usize, _t: f32) -> Option<Tensor> {
            self.calls += 1;
            None
        }
    }

    #[test]
    fn inactive_guidance_is_bitwise_identical_to_plain_sampler() {
        for second_order in [false, true] {
            let sampler = TrigFlowSampler::new(
                TrigFlow::default(),
                SamplerConfig { n_steps: 6, churn: 0.2, second_order },
            );
            let mut vel_a = gaussian_velocity(0.5, 0.7);
            let mut vel_b = gaussian_velocity(0.5, 0.7);
            let plain = sampler.sample(&[64], &mut vel_a, &mut Rng::seed_from(21));
            let mut never = NeverFires { calls: 0 };
            let guided =
                sampler.sample_guided(&[64], &mut vel_b, &mut Rng::seed_from(21), &mut never);
            assert_eq!(plain, guided, "second_order={second_order}");
            // The hook was consulted at every data-prediction estimate.
            let expected = if second_order { 12 } else { 6 };
            assert_eq!(never.calls, expected);
        }
    }

    /// A constant pull toward a target value moves the sample mean toward it.
    struct PullToward {
        target: f32,
        weight: f32,
    }
    impl Guidance for PullToward {
        fn nudge(&mut self, x_hat: &Tensor, _step: usize, _t: f32) -> Option<Tensor> {
            Some(x_hat.map(|v| self.weight * (self.target - v)))
        }
    }

    #[test]
    fn active_guidance_pulls_samples_toward_target() {
        let (mu, s) = (0.0f32, 0.5f32);
        let sampler = TrigFlowSampler::new(
            TrigFlow::default(),
            SamplerConfig { n_steps: 12, churn: 0.0, second_order: true },
        );
        let mut vel = gaussian_velocity(mu, s);
        let mut pull = PullToward { target: 3.0, weight: 0.3 };
        let out =
            sampler.sample_guided(&[4000], &mut vel, &mut Rng::seed_from(31), &mut pull);
        let mean = out.mean();
        assert!(mean > 1.0, "guidance should drag mean toward 3.0, got {mean}");
    }
}
