//! TrigFlow parameterization (§VI-B, after Lu & Song 2024).
//!
//! Clean data `x₀ ~ p_d` (standardized, σ_d = 1) is spherically interpolated
//! with Gaussian noise: `x_t = cos(t)·x₀ + sin(t)·z`, `z ~ N(0, σ_d² I)`,
//! with diffusion time `t = arctan(e^τ / σ_d) ∈ [0, π/2]` and τ drawn
//! log-uniformly from `[ln σ_min, ln σ_max]` (the paper's heavy-tail-covering
//! prior, with σ_min = 0.2 and σ_max = 500). The network learns the velocity
//! `v_t = cos(t)·z − sin(t)·x₀` with an L2 objective (Eq. 1), and the learned
//! dynamics follow the PFODE `dx/dt = σ_d · F_θ(x/σ_d, t)`.

use aeris_tensor::{Rng, Tensor};

/// TrigFlow hyperparameters. Defaults follow the paper.
#[derive(Clone, Copy, Debug)]
pub struct TrigFlow {
    /// Data standard deviation σ_d (inputs are z-scored, so 1).
    pub sigma_d: f32,
    /// Lower bound of the log-uniform σ prior.
    pub sigma_min: f32,
    /// Upper bound of the log-uniform σ prior.
    pub sigma_max: f32,
}

impl Default for TrigFlow {
    fn default() -> Self {
        TrigFlow { sigma_d: 1.0, sigma_min: 0.2, sigma_max: 500.0 }
    }
}

impl TrigFlow {
    /// Diffusion time for a noise scale σ: `t = arctan(σ / σ_d)`.
    pub fn t_of_sigma(&self, sigma: f32) -> f32 {
        (sigma / self.sigma_d).atan()
    }

    /// Draw a diffusion time from the training prior:
    /// `τ = (1−u)·ln σ_min + u·ln σ_max`, `u ~ U(0,1)`, `t = arctan(e^τ/σ_d)`.
    pub fn sample_t(&self, rng: &mut Rng) -> f32 {
        let u = rng.next_f32();
        let tau = (1.0 - u) * self.sigma_min.ln() + u * self.sigma_max.ln();
        (tau.exp() / self.sigma_d).atan()
    }

    /// Spherical interpolation `x_t = cos(t)·x₀ + sin(t)·z`.
    pub fn interpolate(&self, x0: &Tensor, z: &Tensor, t: f32) -> Tensor {
        assert_eq!(x0.shape(), z.shape());
        let (c, s) = (t.cos(), t.sin());
        x0.zip_map(z, |x, n| c * x + s * n)
    }

    /// The velocity target `v_t = cos(t)·z − sin(t)·x₀`.
    pub fn velocity_target(&self, x0: &Tensor, z: &Tensor, t: f32) -> Tensor {
        assert_eq!(x0.shape(), z.shape());
        let (c, s) = (t.cos(), t.sin());
        z.zip_map(x0, |n, x| c * n - s * x)
    }

    /// Recover the denoised estimate from a velocity prediction:
    /// since `dx/dt = v`, `x₀ ≈ cos(t)·x_t − sin(t)·v̂` (exact when v̂ = v).
    pub fn denoise(&self, x_t: &Tensor, v_hat: &Tensor, t: f32) -> Tensor {
        let (c, s) = (t.cos(), t.sin());
        x_t.zip_map(v_hat, |x, v| c * x - s * v)
    }

    /// Exact angular-rotation ODE step (first order / "TrigFlow DDIM"): with
    /// constant velocity field, `x_{t'} = cos(t−t')·x_t − sin(t−t')·v̂`.
    pub fn ode_step(&self, x_t: &Tensor, v_hat: &Tensor, t: f32, t_next: f32) -> Tensor {
        let d = t - t_next;
        let (c, s) = (d.cos(), d.sin());
        x_t.zip_map(v_hat, |x, v| c * x - s * v)
    }

    /// Re-noise a sample in place from time `t` up to `t_hat ≥ t` (the
    /// trigonometric Langevin-like churn). This is the exact forward
    /// renoising of the spherical interpolant: scaling the signal by
    /// `cos t̂ / cos t` and topping the noise back up to `sin t̂`,
    /// `x̂ = (cos t̂/cos t)·x_t + σ_d·√(sin² t̂ − (cos t̂/cos t)²·sin² t)·z`,
    /// which maps the marginal at `t` exactly onto the marginal at `t̂`. `z`
    /// is drawn a stack block at a time by [`Rng::fill_normal`], one draw per
    /// element in order.
    pub fn churn(&self, x: &mut Tensor, t: f32, t_hat: f32, rng: &mut Rng) {
        assert!(t_hat >= t);
        let scale = t_hat.cos() / t.cos();
        let add = (t_hat.sin() * t_hat.sin() - scale * scale * t.sin() * t.sin()).max(0.0).sqrt();
        let sd = self.sigma_d;
        let mut block = [0.0f32; 1024];
        for xs in x.data_mut().chunks_mut(block.len()) {
            let z = &mut block[..xs.len()];
            rng.fill_normal(z);
            for (v, &n) in xs.iter_mut().zip(z.iter()) {
                *v = scale * *v + add * sd * n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_sigma_roundtrip_and_range() {
        let tf = TrigFlow::default();
        for &sigma in &[0.2f32, 1.0, 10.0, 500.0] {
            let t = tf.t_of_sigma(sigma);
            assert!((0.0..std::f32::consts::FRAC_PI_2).contains(&t));
            assert!((tf.sigma_d * t.tan() - sigma).abs() / sigma < 1e-4);
        }
    }

    #[test]
    fn sampled_times_cover_prior_support() {
        let tf = TrigFlow::default();
        let mut rng = Rng::seed_from(1);
        let t_min = tf.t_of_sigma(tf.sigma_min);
        let t_max = tf.t_of_sigma(tf.sigma_max);
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for _ in 0..5000 {
            let t = tf.sample_t(&mut rng);
            assert!(t >= t_min - 1e-6 && t <= t_max + 1e-6);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        assert!(lo < t_min + 0.1, "lower support unexplored");
        assert!(hi > t_max - 0.01, "upper support unexplored");
    }

    #[test]
    fn interpolation_preserves_marginal_variance() {
        // var(x_t) = cos² var(x0) + sin² σ_d² = σ_d² when var(x0)=σ_d².
        let tf = TrigFlow::default();
        let mut rng = Rng::seed_from(2);
        let x0 = Tensor::randn(&[20_000], &mut rng);
        let z = Tensor::randn(&[20_000], &mut rng);
        for &t in &[0.3f32, 0.8, 1.3] {
            let xt = tf.interpolate(&x0, &z, t);
            let var = xt.variance();
            assert!((var - 1.0).abs() < 0.05, "t={t} var={var}");
        }
    }

    #[test]
    fn denoise_recovers_x0_with_true_velocity() {
        let tf = TrigFlow::default();
        let mut rng = Rng::seed_from(3);
        let x0 = Tensor::randn(&[64], &mut rng);
        let z = Tensor::randn(&[64], &mut rng);
        let t = 0.9;
        let xt = tf.interpolate(&x0, &z, t);
        let v = tf.velocity_target(&x0, &z, t);
        assert!(tf.denoise(&xt, &v, t).max_abs_diff(&x0) < 1e-5);
    }

    #[test]
    fn ode_step_with_true_velocity_is_exact() {
        // Rotating (x0, z) by the angular step must land exactly on the
        // interpolant at the new time.
        let tf = TrigFlow::default();
        let mut rng = Rng::seed_from(4);
        let x0 = Tensor::randn(&[64], &mut rng);
        let z = Tensor::randn(&[64], &mut rng);
        let (t, t_next) = (1.2f32, 0.5f32);
        let xt = tf.interpolate(&x0, &z, t);
        let v = tf.velocity_target(&x0, &z, t);
        let stepped = tf.ode_step(&xt, &v, t, t_next);
        let expected = tf.interpolate(&x0, &z, t_next);
        assert!(stepped.max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn ode_step_to_zero_is_denoise() {
        let tf = TrigFlow::default();
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[16], &mut rng);
        let v = Tensor::randn(&[16], &mut rng);
        assert!(tf.ode_step(&x, &v, 0.7, 0.0).max_abs_diff(&tf.denoise(&x, &v, 0.7)) < 1e-6);
    }

    #[test]
    fn churn_preserves_marginal_variance_and_t_identity() {
        let tf = TrigFlow::default();
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[20_000], &mut rng);
        // Δ = 0: identity.
        let mut same = x.clone();
        tf.churn(&mut same, 0.4, 0.4, &mut rng);
        assert_eq!(same, x);
        // Renoising keeps unit marginal variance.
        let mut churned = x.clone();
        tf.churn(&mut churned, 0.4, 0.9, &mut rng);
        assert!((churned.variance() - 1.0).abs() < 0.05);
    }
}
