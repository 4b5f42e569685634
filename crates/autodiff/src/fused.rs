//! The Swin block's elementwise chains as single tape ops.
//!
//! AERIS §V-B wraps both branches of a block the same way: pre-RMSNorm →
//! AdaLN modulate → (attention | SwiGLU) → gated residual. Written with the
//! primitive ops that is `rmsnorm_rows → add_scalar → affine_rows`,
//! `slice_cols ×2 → silu → mul` and `mul_rows → add` — nine nodes per block
//! that each sweep a `[tokens, ·]` activation and retain a fresh copy of it.
//! The three ops here are those chains as one node each.
//!
//! **Forward bits.** Every op evaluates, per element, exactly the expression
//! its chain evaluates, in the same association order and without contracting
//! a multiply-add, so the fused forward is bitwise the chain's (property
//! tested below). Each forward is a row kernel of [`aeris_tensor::sweeps`]
//! (`modulated_rmsnorm_row`, `swiglu`, `gated_residual`), the one definition
//! the model's tape-free block pass (`AerisModel::velocity`) runs too. The
//! backward recomputes the intermediates the chain would have stored (the
//! normalized row, `silu(gate)`) from the op's inputs — the same arithmetic,
//! so the recomputed values are the stored ones. Each
//! backward is one row sweep of [`aeris_tensor::sweeps`]
//! (`modulated_rmsnorm_backward`, `swiglu_backward`,
//! `gated_residual_backward`), built portable and AVX2 and picked at run
//! time like the `exp` family: the same expressions either way, so the same
//! bits.
//!
//! **Backward.** With `d` the upstream gradient:
//!
//! - `modulated_rmsnorm`: `y = n·(1+scale) + shift`, `n = x·r·γ`,
//!   `r = 1/√(mean(x²)+ε)`. Then `dshift = Σ_rows d`, `dscale = Σ_rows d·n`,
//!   and with `dn = d·(1+scale)` the RMSNorm backward
//!   `dx = γ·dn·r − x·(Σ_j γ_j dn_j x_j)·r³/dim`, `dγ = Σ_rows dn·x·r`.
//! - `swiglu`: `y = silu(g)·u`, `silu(g) = g·σ(g)`. Then `du = d·silu(g)` and
//!   `dg = d·u·σ(g)·(1 + g·(1−σ(g)))`.
//! - `gated_residual`: `y = x + h·gate`. Then `dx = d`, `dh = d·gate`,
//!   `dgate = Σ_rows d·h`.

use crate::tape::{Tape, Var};
use aeris_tensor::{sweeps, Tensor};

impl Tape {
    /// Pre-norm + AdaLN modulation: `y = (x·inv_rms(x)·γ)·(scale+1) + shift`
    /// with `x: [rows, dim]` and `gamma`, `scale`, `shift: [dim]`. `scale`
    /// enters as `1 + scale` so a zero-initialized AdaLN head is the identity.
    /// One node for `rmsnorm_rows → add_scalar(1) → affine_rows`.
    pub fn modulated_rmsnorm(&mut self, x: Var, gamma: Var, scale: Var, shift: Var, eps: f32) -> Var {
        let (xv, gv) = (self.value(x), self.value(gamma));
        let (sv, bv) = (self.value(scale), self.value(shift));
        assert_eq!(xv.ndim(), 2);
        let dim = xv.shape()[1];
        for v in [gv, sv, bv] {
            assert_eq!(v.shape(), &[dim], "modulated_rmsnorm vector shape");
        }
        let scale1 = sv.add_scalar(1.0);
        let mut value = Tensor::for_overwrite(xv.shape());
        let rows: Vec<usize> = (0..xv.shape()[0]).collect();
        let mut inv_rms = vec![0.0; rows.len()];
        let mods = [gv.data(), scale1.data(), bv.data()];
        sweeps::modulated_rmsnorm_rows(value.data_mut(), &mut inv_rms, xv.data(), &rows, mods, eps);
        let (px, pg) = (x.0, gamma.0);
        self.push(
            value,
            vec![px, pg, scale.0, shift.0],
            Some(Box::new(move |d, nodes| {
                let xv = nodes[px].value();
                let (g, s1) = (&nodes[pg].value().data()[..dim], &scale1.data()[..dim]);
                let mut dx = Tensor::for_overwrite(xv.shape());
                let [mut dg, mut dscale, mut dshift] = [(); 3].map(|_| vec![0.0f32; dim]);
                let dvecs = [&mut dg[..], &mut dscale[..], &mut dshift[..]];
                sweeps::modulated_rmsnorm_backward(dx.data_mut(), dvecs, xv.data(), d.data(), g, s1, &inv_rms);
                let [dg, dscale, dshift] = [dg, dscale, dshift].map(|v| Tensor::from_vec(&[dim], v));
                vec![dx, dg, dscale, dshift]
            })),
            true,
        )
    }

    /// SwiGLU gate read straight out of the fused projection:
    /// `y = silu(gu[:, :f]) ⊙ gu[:, f:]` for `gu: [rows, 2f]` → `[rows, f]`.
    /// One node for `slice_cols ×2 → silu → mul`; no zero-skip, so a
    /// non-finite `up` reaches the output even where `silu(gate)` is 0.
    pub fn swiglu(&mut self, gu: Var) -> Var {
        let gv = self.value(gu);
        assert_eq!(gv.ndim(), 2);
        let (rows, two_f) = (gv.shape()[0], gv.shape()[1]);
        assert!(two_f > 0 && two_f % 2 == 0, "swiglu input must be [rows, 2·ffn]");
        let f = two_f / 2;
        let mut value = Tensor::for_overwrite(&[rows, f]);
        sweeps::swiglu(value.data_mut(), gv.data(), f);
        let pgu = gu.0;
        self.push(
            value,
            vec![pgu],
            Some(Box::new(move |d, nodes| {
                let mut dgu = Tensor::for_overwrite(&[rows, two_f]);
                sweeps::swiglu_backward(dgu.data_mut(), nodes[pgu].value().data(), d.data(), f);
                vec![dgu]
            })),
            true,
        )
    }

    /// AdaLN-gated residual: `y = x + h ⊙ gate` with `x, h: [rows, dim]` and
    /// `gate: [dim]` broadcast over rows. One node for `mul_rows → add`.
    pub fn gated_residual(&mut self, x: Var, h: Var, gate: Var) -> Var {
        let (xv, hv, gv) = (self.value(x), self.value(h), self.value(gate));
        assert_eq!(xv.ndim(), 2);
        assert_eq!(xv.shape(), hv.shape(), "gated_residual branch shape");
        let dim = xv.shape()[1];
        assert_eq!(gv.shape(), &[dim], "gated_residual gate shape");
        let mut value = Tensor::for_overwrite(xv.shape());
        let rows: Vec<usize> = (0..xv.shape()[0]).collect();
        sweeps::gated_residual(value.data_mut(), xv.data(), hv.data(), &rows, gv.data());
        let (ph, pgate) = (h.0, gate.0);
        self.push(
            value,
            vec![x.0, ph, pgate],
            Some(Box::new(move |d, nodes| {
                let hv = nodes[ph].value();
                let mut dh = Tensor::for_overwrite(hv.shape());
                let mut dgate = vec![0.0f32; dim];
                let gate = &nodes[pgate].value().data()[..dim];
                sweeps::gated_residual_backward(dh.data_mut(), &mut dgate, d.data(), hv.data(), gate);
                vec![d, dh, Tensor::from_vec(&[dim], dgate)]
            })),
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_grad_close, numeric_grad};
    use aeris_tensor::Rng;
    use proptest::prelude::*;

    type Build = fn(&mut Tape, &[Var]) -> Var;

    /// Record `build` over leaves holding `inputs`, with the scalar loss
    /// `Σ y ⊙ upstream`; returns `y`, the loss and every input gradient.
    fn run(inputs: &[Tensor], build: Build, upstream: &Tensor) -> (Tensor, f64, Vec<Tensor>) {
        let mut tape = Tape::new();
        let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
        let y = build(&mut tape, &vars);
        let up = tape.constant(upstream.clone());
        let weighted = tape.mul(y, up);
        let loss = tape.sum(weighted);
        let (y_val, loss_val) = (tape.value(y).clone(), tape.value(loss).data()[0] as f64);
        let mut grads = tape.backward(loss);
        let gs = vars.iter().map(|&v| grads.take(v).expect("input grad")).collect();
        (y_val, loss_val, gs)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The fused op is bitwise its chain forward, and every input gradient
    /// agrees with the chain's within 1e-5 relative.
    fn assert_fused_is_chain(inputs: &[Tensor], fused: Build, chain: Build, out_shape: &[usize], rng: &mut Rng) {
        let upstream = Tensor::randn(out_shape, rng);
        let (y_f, _, g_f) = run(inputs, fused, &upstream);
        let (y_c, _, g_c) = run(inputs, chain, &upstream);
        assert_eq!(y_f.shape(), out_shape);
        assert_eq!(bits(&y_f), bits(&y_c), "fused forward bits differ from the op chain");
        for (gf, gc) in g_f.iter().zip(&g_c) {
            assert_grad_close(gf, gc, 1e-5);
        }
    }

    /// Every input gradient against central finite differences.
    fn gradcheck(inputs: &[Tensor], build: Build, out_shape: &[usize], rng: &mut Rng) {
        let upstream = Tensor::randn(out_shape, rng);
        let (_, _, grads) = run(inputs, build, &upstream);
        for (k, g) in grads.iter().enumerate() {
            let mut probe = inputs.to_vec();
            let mut f = |t: &Tensor| {
                probe[k] = t.clone();
                run(&probe, build, &upstream).1
            };
            assert_grad_close(g, &numeric_grad(&mut f, &inputs[k], 1e-3), 2e-2);
        }
    }

    const EPS: f32 = 1e-6;

    fn norm_fused(t: &mut Tape, v: &[Var]) -> Var {
        t.modulated_rmsnorm(v[0], v[1], v[2], v[3], EPS)
    }
    fn norm_chain(t: &mut Tape, v: &[Var]) -> Var {
        let n = t.rmsnorm_rows(v[0], v[1], EPS);
        let scale1 = t.add_scalar(v[2], 1.0);
        t.affine_rows(n, scale1, v[3])
    }
    fn norm_inputs(rows: usize, dim: usize, rng: &mut Rng) -> Vec<Tensor> {
        vec![
            Tensor::randn(&[rows, dim], rng),
            Tensor::rand_uniform(&[dim], 0.5, 1.5, rng),
            Tensor::randn(&[dim], rng).scale(0.3),
            Tensor::randn(&[dim], rng),
        ]
    }

    fn swiglu_fused(t: &mut Tape, v: &[Var]) -> Var {
        t.swiglu(v[0])
    }
    fn swiglu_chain(t: &mut Tape, v: &[Var]) -> Var {
        let f = t.value(v[0]).shape()[1] / 2;
        let gate = t.slice_cols(v[0], 0, f);
        let up = t.slice_cols(v[0], f, 2 * f);
        let act = t.silu(gate);
        t.mul(act, up)
    }

    fn residual_fused(t: &mut Tape, v: &[Var]) -> Var {
        t.gated_residual(v[0], v[1], v[2])
    }
    fn residual_chain(t: &mut Tape, v: &[Var]) -> Var {
        let gated = t.mul_rows(v[1], v[2]);
        t.add(v[0], gated)
    }
    fn residual_inputs(rows: usize, dim: usize, rng: &mut Rng) -> Vec<Tensor> {
        vec![
            Tensor::randn(&[rows, dim], rng),
            Tensor::randn(&[rows, dim], rng),
            Tensor::randn(&[dim], rng),
        ]
    }

    /// Widths that are never a multiple of the 8-lane sweep width.
    fn odd_width(d: usize) -> usize {
        if d.is_multiple_of(8) { d + 1 } else { d }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn modulated_rmsnorm_is_its_chain(rows in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (dim, mut rng) = (odd_width(d), Rng::seed_from(seed));
            let inputs = norm_inputs(rows, dim, &mut rng);
            assert_fused_is_chain(&inputs, norm_fused, norm_chain, &[rows, dim], &mut rng);
        }

        #[test]
        fn swiglu_is_its_chain(rows in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (ffn, mut rng) = (odd_width(d), Rng::seed_from(seed));
            let inputs = [Tensor::randn(&[rows, 2 * ffn], &mut rng).scale(2.0)];
            assert_fused_is_chain(&inputs, swiglu_fused, swiglu_chain, &[rows, ffn], &mut rng);
        }

        #[test]
        fn gated_residual_is_its_chain(rows in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (dim, mut rng) = (odd_width(d), Rng::seed_from(seed));
            let inputs = residual_inputs(rows, dim, &mut rng);
            assert_fused_is_chain(&inputs, residual_fused, residual_chain, &[rows, dim], &mut rng);
        }
    }

    #[test]
    fn grad_modulated_rmsnorm_all_inputs() {
        let mut rng = Rng::seed_from(51);
        gradcheck(&norm_inputs(3, 6, &mut rng), norm_fused, &[3, 6], &mut rng);
    }

    #[test]
    fn grad_swiglu() {
        let mut rng = Rng::seed_from(52);
        gradcheck(&[Tensor::randn(&[3, 10], &mut rng)], swiglu_fused, &[3, 5], &mut rng);
    }

    #[test]
    fn grad_gated_residual_all_inputs() {
        let mut rng = Rng::seed_from(53);
        gradcheck(&residual_inputs(4, 5, &mut rng), residual_fused, &[4, 5], &mut rng);
    }

    /// No fused op skips a zero multiplicand: `0 · NaN` and `0 · ∞` are NaN
    /// and must reach the output (the contract PR 9 set for the GEMMs).
    #[test]
    fn non_finite_values_propagate_through_zero_multiplicands() {
        for bad in [f32::NAN, f32::INFINITY] {
            let mut tape = Tape::new();

            // swiglu: gate half 0 (silu(0) = 0), up half non-finite.
            let gu = tape.constant(Tensor::from_vec(&[1, 4], vec![0.0, 1.0, bad, 2.0]));
            let y = tape.swiglu(gu);
            assert!(tape.value(y).data()[0].is_nan(), "swiglu dropped {bad}");
            assert!(tape.value(y).data()[1].is_finite());

            // gated_residual: gate 0, branch non-finite.
            let x = tape.constant(Tensor::ones(&[1, 2]));
            let h = tape.constant(Tensor::from_vec(&[1, 2], vec![bad, 3.0]));
            let gate = tape.constant(Tensor::zeros(&[2]));
            let y = tape.gated_residual(x, h, gate);
            assert!(tape.value(y).data()[0].is_nan(), "gated_residual dropped {bad}");
            assert_eq!(tape.value(y).data()[1], 1.0);

            // modulated_rmsnorm: `1 + scale = 0` does not mask a non-finite
            // normalized value (`∞ · inv_rms` is `∞ · 0`), and the other
            // rows stay clean.
            let x = tape.constant(Tensor::from_vec(&[2, 2], vec![bad, 1.0, 1.0, 1.0]));
            let gamma = tape.constant(Tensor::ones(&[2]));
            let scale = tape.constant(Tensor::full(&[2], -1.0));
            let shift = tape.constant(Tensor::zeros(&[2]));
            let y = tape.modulated_rmsnorm(x, gamma, scale, shift, EPS);
            assert!(tape.value(y).data()[0].is_nan(), "modulated_rmsnorm dropped {bad}");
            assert!(tape.value(y).row(1).iter().all(|v| *v == 0.0));
        }

        // swiglu at the ends of the `exp` kernel's range: gates where σ is
        // exactly 0 or 1, where `exp` flushes to 0 or overflows, and ±∞.
        let swiglu = |gate: f32, up: f32| -> (f32, Tensor) {
            let mut tape = Tape::new();
            let gu = tape.leaf(Tensor::from_vec(&[1, 2], vec![gate, up]));
            let y = tape.swiglu(gu);
            let value = tape.value(y).data()[0];
            (value, tape.backward(y).take(gu).expect("swiglu grad"))
        };
        let up = 1.5f32;
        for gate in [80.0f32, -80.0, 104.0, -104.0, 1e30, -1e30] {
            let (y, dgu) = swiglu(gate, up);
            assert!(dgu.data().iter().all(|d| d.is_finite()), "gate {gate}: gradient {:?}", dgu.data());
            // σ(g) is 0 = 1 / (1 + ∞) from −104 down and 1 = 1 / (1 + 0) from
            // 104 up — what the expression gives with a correctly rounded f32
            // `exp` too; between, the f64 value.
            let want = match gate {
                ..=-104.0 => -0.0 * up,
                104.0.. => gate * up,
                _ => (gate as f64 / (1.0 + (-gate as f64).exp()) * up as f64) as f32,
            };
            assert!((y - want).abs() <= 1e-6 * want.abs(), "gate {gate}: {y} vs {want}");
            assert_eq!(y.is_sign_negative(), want.is_sign_negative(), "gate {gate}: {y} vs {want}");
        }
        assert!(swiglu(f32::NEG_INFINITY, up).0.is_nan(), "−∞ · σ(−∞) is −∞ · 0");
        assert_eq!(swiglu(f32::INFINITY, up).0, f32::INFINITY);
        assert_eq!(swiglu(f32::INFINITY, -up).0, f32::NEG_INFINITY);
    }

    /// One node each, and only the output retained.
    #[test]
    fn each_fused_op_is_one_node() {
        let mut rng = Rng::seed_from(54);
        let mut tape = Tape::new();
        let v: Vec<Var> = norm_inputs(4, 6, &mut rng).into_iter().map(|t| tape.leaf(t)).collect();
        let gu = tape.leaf(Tensor::randn(&[4, 12], &mut rng));
        let (nodes, elems) = (tape.len(), tape.activation_elems());
        let n = norm_fused(&mut tape, &v);
        let s = tape.swiglu(gu);
        let _ = tape.gated_residual(n, s, v[1]);
        assert_eq!(tape.len() - nodes, 3);
        assert_eq!(tape.activation_elems() - elems, 3 * 4 * 6);
    }
}
