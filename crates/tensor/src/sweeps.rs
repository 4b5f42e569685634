//! Explicitly unrolled, unit-stride sweep kernels for the elementwise /
//! softmax / un-standardize hot loops.
//!
//! Every function here walks contiguous slices in a shape the autovectorizer
//! lifts to SIMD: fixed-width chunks (`W = 8` lanes) with a scalar tail, or a
//! plain zip where no lane state is carried. *Which* SIMD depends on how the
//! function was built. The workspace compiles for baseline x86-64 (no
//! `-C target-cpu`, no `.cargo/config.toml`), so a plain fn here is 4-lane
//! SSE2, an 8-wide chunk being two registers. Every loop the model runs per
//! element is runtime-dispatched instead, through the `dispatched!` macro
//! of [`crate::dispatch`]: the `exp` family ([`exp`], [`sigmoid`],
//! [`silu`], [`swiglu`], and [`exp_shift_sum`] through `exp`), the Swin
//! block's forward row-block kernels ([`modulated_rmsnorm_rows`],
//! [`gated_residual`], [`rmsnorm_rows`], [`add_rows`]) and the backwards of
//! its three fused tape ops ([`swiglu_backward`], [`modulated_rmsnorm_backward`],
//! [`gated_residual_backward`]), and the Gaussian draws' Box–Muller lanes
//! ([`box_muller`], in f64: 4 lanes to an AVX2 register, 8 to an `avx512f`
//! one). The macro, the crate's one dispatch mechanism (the GEMM's row
//! blocks and the window-attention core are its other instances), builds
//! one `#[inline(always)]` body three times — portable, under
//! `#[target_feature(enable = "avx2,fma")]` (8 lanes to a register) and
//! under `#[target_feature(enable = "avx512f")]` (16) — and picks by the
//! machine-global [`Kernel::detected`](crate::dispatch::Kernel::detected),
//! once per call: a row-block kernel takes a whole block of rows per call,
//! not one row.
//!
//! Three rules keep the crate's determinism contract:
//!
//! - **Maps** (axpy, scale, scale-shift, exp, …) have no cross-element
//!   dependency; element `i` is computed from inputs `i` only, so lane width
//!   is unobservable in the result.
//! - **Reductions** (lane sums, max) accumulate into `W` independent lanes
//!   and combine them in one fixed order at the end. The order is different
//!   from a serial left fold but is *the same* order on every run, every
//!   thread count, and every input length — results stay bitwise reproducible.
//! - **Dispatch may widen lanes; only the GEMM may contract a multiply-add.**
//!   The `exp` lane function is IEEE `+ − × ÷`, compares and integer bit
//!   operations, nothing else — no `mul_add`, no libm — so its three builds
//!   return the same bits for every input, and a host without AVX2 computes
//!   what an `avx512f` host does. (Both vector builds have FMA — the AVX2
//!   one enables it, `avx512f` implies it — but rustc never lets LLVM
//!   contract a multiply and an add it did not write as one.)
//!   The GEMM's three builds all fuse, so they too agree bit for bit. (FMA
//!   inside the polynomial measured 0.33–0.38 against 0.49–0.55 ns per
//!   element, ≈ 1 % of a model evaluation: not worth moving every digest.)
//!   [`box_muller`] keeps the same rule in f64, with `sqrt` as one more IEEE
//!   operation (correctly rounded, like `÷`): fdlibm's polynomials in place
//!   of libm's `ln`, `sin` and `cos`, and integer bit operations in place of
//!   a u64 → f64 convert. Its results are f64 within 2⁻⁴⁶ of libm's, not
//!   libm's bits; the rounding test that turns them into `Rng::normal`'s
//!   f32 bits, and the libm fallback where it fails, live in `rng.rs`,
//!   outside the dispatched body.
//!
//! These are slice-level primitives; `ops.rs`, `forecast.rs`, the autodiff
//! tape, the model's tape-free block pass and the optimizer call them on
//! their own buffers.

use crate::dispatch::dispatched;
use crate::rng::{mix, GAMMA};

/// Lane width for unrolled sweeps: 8 × f32 is one AVX2 register, two SSE2
/// registers in the baseline build.
pub const W: usize = 8;

/// `y[i] += alpha * x[i]`.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    let mut yc = y.chunks_exact_mut(W);
    let mut xc = x.chunks_exact(W);
    for (yw, xw) in (&mut yc).zip(&mut xc) {
        for i in 0..W {
            yw[i] += alpha * xw[i];
        }
    }
    for (a, &b) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *a += alpha * b;
    }
}

/// `y[i] *= alpha`.
pub fn scale(y: &mut [f32], alpha: f32) {
    let mut yc = y.chunks_exact_mut(W);
    for yw in &mut yc {
        for v in yw.iter_mut() {
            *v *= alpha;
        }
    }
    for v in yc.into_remainder() {
        *v *= alpha;
    }
}

/// `y[i] += x[i]`, inlined so that [`add_rows`] runs it at its width.
#[inline(always)]
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign length mismatch");
    let mut yc = y.chunks_exact_mut(W);
    let mut xc = x.chunks_exact(W);
    for (yw, xw) in (&mut yc).zip(&mut xc) {
        for i in 0..W {
            yw[i] += xw[i];
        }
    }
    for (a, &b) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *a += b;
    }
}

/// `out[i] = f(a[i], b[i])` for the four arithmetic combiners, written as
/// concrete loops (a generic closure would defeat the unroll).
macro_rules! binary_into {
    ($name:ident, $op:tt) => {
        #[doc = concat!("`out[i] = a[i] ", stringify!($op), " b[i]`.")]
        pub fn $name(out: &mut [f32], a: &[f32], b: &[f32]) {
            assert_eq!(a.len(), b.len(), "binary sweep length mismatch");
            assert_eq!(out.len(), a.len(), "binary sweep output mismatch");
            let mut oc = out.chunks_exact_mut(W);
            let mut ac = a.chunks_exact(W);
            let mut bc = b.chunks_exact(W);
            for ((ow, aw), bw) in (&mut oc).zip(&mut ac).zip(&mut bc) {
                for i in 0..W {
                    ow[i] = aw[i] $op bw[i];
                }
            }
            for ((o, &x), &y) in oc
                .into_remainder()
                .iter_mut()
                .zip(ac.remainder())
                .zip(bc.remainder())
            {
                *o = x $op y;
            }
        }
    };
}

binary_into!(add_into, +);
binary_into!(sub_into, -);
binary_into!(mul_into, *);

/// Un-standardize sweep: `dst[i] = dst[i] * scale[i] + shift[i]`.
pub fn scale_shift(dst: &mut [f32], scale: &[f32], shift: &[f32]) {
    assert_eq!(dst.len(), scale.len(), "scale_shift length mismatch");
    assert_eq!(dst.len(), shift.len(), "scale_shift length mismatch");
    let mut dc = dst.chunks_exact_mut(W);
    let mut sc = scale.chunks_exact(W);
    let mut hc = shift.chunks_exact(W);
    for ((dw, sw), hw) in (&mut dc).zip(&mut sc).zip(&mut hc) {
        for i in 0..W {
            dw[i] = dw[i] * sw[i] + hw[i];
        }
    }
    for ((d, &s), &h) in dc
        .into_remainder()
        .iter_mut()
        .zip(sc.remainder())
        .zip(hc.remainder())
    {
        *d = *d * s + h;
    }
}

/// Accumulating un-standardize sweep:
/// `dst[i] += src[i] * scale[i] + shift[i]`.
pub fn add_scale_shift(dst: &mut [f32], src: &[f32], scale: &[f32], shift: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_scale_shift length mismatch");
    assert_eq!(dst.len(), scale.len(), "add_scale_shift length mismatch");
    assert_eq!(dst.len(), shift.len(), "add_scale_shift length mismatch");
    let mut dc = dst.chunks_exact_mut(W);
    let mut vc = src.chunks_exact(W);
    let mut sc = scale.chunks_exact(W);
    let mut hc = shift.chunks_exact(W);
    for (((dw, vw), sw), hw) in (&mut dc).zip(&mut vc).zip(&mut sc).zip(&mut hc) {
        for i in 0..W {
            dw[i] += vw[i] * sw[i] + hw[i];
        }
    }
    for (((d, &v), &s), &h) in dc
        .into_remainder()
        .iter_mut()
        .zip(vc.remainder())
        .zip(sc.remainder())
        .zip(hc.remainder())
    {
        *d += v * s + h;
    }
}

/// Maximum of a slice (`-inf` on empty). Lane-split max; `f32::max` ignores
/// NaN in either argument the same way the previous serial fold did.
pub fn max(x: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; W];
    let mut xc = x.chunks_exact(W);
    for xw in &mut xc {
        for i in 0..W {
            lanes[i] = lanes[i].max(xw[i]);
        }
    }
    let mut m = f32::NEG_INFINITY;
    for &v in xc.remainder() {
        m = m.max(v);
    }
    for l in lanes {
        m = m.max(l);
    }
    m
}

// `exp(x) = 2ⁿ · e^r` with `n = round(x · log₂e)` and `r = x − n·ln 2`. `ln 2`
// is subtracted in two parts (Cody–Waite): `LN2_HI` = 0.693359375 has nine
// significant bits, so `n · LN2_HI` and the first subtraction are exact for
// `|n| ≤ 128`.
pub(crate) const LN2_HI: f32 = 355.0 / 512.0;
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding it rounds to the nearest integer and leaves that
/// integer, in two's complement, in the low mantissa bits of the sum.
pub(crate) const ROUND: f32 = 12_582_912.0;
/// Smallest input whose exponential is a normal f32: the least f32 that is
/// `≥ ln 2⁻¹²⁶`. Below it [`exp_lane`] returns exactly 0.
pub(crate) const EXP_LO: f32 = -87.336_54;
/// `ln f32::MAX`: above it the exponential overflows and [`exp_lane`] returns
/// `+∞` (`n = 128` already does from `88.376_27` up; see [`exp`]).
const EXP_HI: f32 = 88.722_84;
/// The Horner coefficients of `(e^r − 1 − r) / r²`, highest degree first.
pub(crate) const EXP_POLY: [f32; 6] =
    [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 0.5];

/// The one `exp` of the model, for one lane (Cephes `expf`: degree-5
/// polynomial for `e^r` on `|r| ≤ ½ ln 2`, exponent inserted as bits). Every
/// operation is a single correctly rounded IEEE operation or an integer one,
/// in the order written: the result is a function of `x` alone on every
/// target, at every lane width.
#[inline(always)]
pub(crate) fn exp_lane(x: f32) -> f32 {
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = EXP_POLY[0];
    for c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = p * (r * r) + r + 1.0;
    // 2ⁿ: the low nine bits of `t` are `n mod 512`, so the shift drops the
    // rest and the add biases the exponent field — 1 at n = −126, 255 (+∞) at
    // n = 128. Outside [EXP_LO, EXP_HI] these bits are meaningless, and so is
    // `y`; the selects below discard both.
    let scale = f32::from_bits((t.to_bits() << 23).wrapping_add(0x3F80_0000));
    if x < EXP_LO {
        0.0
    } else if x > EXP_HI {
        f32::INFINITY
    } else {
        y * scale // NaN arrives here: both compares are false and `y` is NaN
    }
}

/// `σ(x) = 1 / (1 + exp(−x))` for one lane, over [`exp_lane`].
#[inline(always)]
fn sigmoid_lane(x: f32) -> f32 {
    1.0 / (1.0 + exp_lane(-x))
}

dispatched!(
    /// `x[i] = exp(x[i])` — every exponential of the model (softmax
    /// numerators, SiLU gates) is this polynomial, not libm. Deterministic by
    /// construction: an element's result depends on its value alone, not on
    /// its position, the slice length, the build that ran or the thread
    /// count.
    ///
    /// Within 2 ulp of the correctly rounded value on `[−87.3, 88.3]` (1 ulp
    /// measured over every f32 of that range). `exp(±0) = 1` exactly,
    /// `exp(NaN)` is NaN, `exp(−∞) = 0`, `exp(+∞) = +∞`. Unlike libm it
    /// never returns a subnormal: the result is exactly 0 for every
    /// `x < −87.336_54`, where the true value drops below the smallest
    /// normal. It is `+∞` for every `x ≥ 88.376_27`, where the reduction
    /// reaches `n = 128`: that is 0.35 short of the true overflow point
    /// `ln f32::MAX = 88.722_84`, and the last finite result is
    /// `exp(88.376_26) ≈ 2.406e38`. No finite input gives NaN.
    pub fn exp_on => exp, (x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = exp_lane(*v);
        }
    }
);

dispatched!(
    /// Logistic sweep `dst[i] = 1 / (1 + exp(−src[i]))` with the [`exp`] of
    /// this module: `σ(0) = 0.5` exactly, exactly 0 from `−88.376_27` down
    /// (`1 / ∞`), never outside `[0, 1]`.
    pub fn sigmoid_on => sigmoid, (dst: &mut [f32], src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "sigmoid length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = sigmoid_lane(s);
        }
    }
);

dispatched!(
    /// SiLU `dst[i] = σ(src[i]) · src[i]`, the σ of [`sigmoid`].
    pub fn silu_on => silu, (dst: &mut [f32], src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "silu length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = sigmoid_lane(s) * s;
        }
    }
);

dispatched!(
    /// SwiGLU over rows of `out: [rows, f]`: the `silu_gate` of each row of
    /// `gu: [rows, 2f]` (`gate | up`), `out = (gate · σ(gate)) · up` with the
    /// σ of [`sigmoid`]. Panics unless `out` is whole rows of `f`.
    pub fn swiglu_on => swiglu, (out: &mut [f32], gu: &[f32], f: usize) {
        assert!(f > 0 && out.len().is_multiple_of(f), "swiglu row width");
        assert_eq!(gu.len(), 2 * out.len(), "swiglu input length");
        for (gur, o) in gu.chunks_exact(2 * f).zip(out.chunks_exact_mut(f)) {
            let (gate, up) = gur.split_at(f);
            silu_gate(o, gate, up);
        }
    }
);

dispatched!(
    /// SwiGLU backward over `rows` rows: with `gu: [rows, 2f]` the forward's
    /// `gate | up` input and `d: [rows, f]` the upstream gradient, writes
    /// `dgu: [rows, 2f]` as `dgate = d · up · (σ · (1 + g · (1 − σ)))` and
    /// `dup = d · (g · σ)`, `σ = σ(g)` of [`sigmoid`] computed in the same
    /// pass. `f` is `d`'s row width.
    pub fn swiglu_backward_on => swiglu_backward,
    (dgu: &mut [f32], gu: &[f32], d: &[f32], f: usize) {
        assert!(f > 0 && d.len().is_multiple_of(f), "swiglu_backward row width");
        assert_eq!(gu.len(), 2 * d.len(), "swiglu_backward input length");
        assert_eq!(dgu.len(), gu.len(), "swiglu_backward output length");
        let rows = gu.chunks_exact(2 * f).zip(d.chunks_exact(f));
        for ((gur, dr), dgur) in rows.zip(dgu.chunks_exact_mut(2 * f)) {
            let (gate, up) = gur.split_at(f);
            let (dgate, dup) = dgur.split_at_mut(f);
            let lanes = gate.iter().zip(up).zip(dr).zip(dgate.iter_mut().zip(dup));
            for (((&g, &u), &dv), (dg, du)) in lanes {
                let s = sigmoid_lane(g);
                *dg = dv * u * (s * (1.0 + g * (1.0 - s)));
                *du = dv * (g * s);
            }
        }
    }
);

dispatched!(
    /// Backward of the modulated RMSNorm `y = (x·r·γ)·s1 + shift` over rows
    /// of `dim = g.len()`, with `r = inv_rms[row]` and `s1 = 1 + scale`:
    /// writes `dx` and accumulates, row by row in ascending order,
    /// `[dγ, dscale, dshift]` += `[dn·x·r, d·(x·r·γ), d]` with `dn = d·s1`.
    /// `dx = γ·dn·r − x·(Σ γ·dn·x)·r³/dim`, the sum by [`dot3`]; `dn` passes
    /// through the `dx` row on its way.
    pub fn modulated_rmsnorm_backward_on => modulated_rmsnorm_backward,
    (dx: &mut [f32], dvecs: [&mut [f32]; 3], x: &[f32], d: &[f32], g: &[f32], s1: &[f32], inv_rms: &[f32]) {
        let dim = g.len();
        let [dg, dscale, dshift] = dvecs;
        let (dg, dscale, dshift, s1) = (&mut dg[..dim], &mut dscale[..dim], &mut dshift[..dim], &s1[..dim]);
        assert_eq!(x.len(), inv_rms.len() * dim, "modulated_rmsnorm_backward input length");
        assert_eq!(d.len(), x.len(), "modulated_rmsnorm_backward gradient length");
        assert_eq!(dx.len(), x.len(), "modulated_rmsnorm_backward output length");
        let rows = x.chunks_exact(dim).zip(d.chunks_exact(dim));
        for (((xr, dr), dxr), &ir) in rows.zip(dx.chunks_exact_mut(dim)).zip(inv_rms) {
            for j in 0..dim {
                dxr[j] = dr[j] * s1[j];
                dscale[j] += dr[j] * (xr[j] * ir * g[j]);
                dshift[j] += dr[j];
            }
            let s = dot3(g, dxr, xr); // Σ γ_j dn_j x_j
            let coef = s * ir * ir * ir / dim as f32;
            for j in 0..dim {
                let dn = dxr[j];
                dxr[j] = g[j] * dn * ir - xr[j] * coef;
                dg[j] += dn * xr[j] * ir;
            }
        }
    }
);

dispatched!(
    /// Backward of the gated residual `y = x + h ⊙ gate` over rows of
    /// `dim = gate.len()`: writes `dh = d · gate` and accumulates, row by row
    /// in ascending order, `dgate += d · h`.
    pub fn gated_residual_backward_on => gated_residual_backward,
    (dh: &mut [f32], dgate: &mut [f32], d: &[f32], h: &[f32], gate: &[f32]) {
        let dim = gate.len();
        let dgate = &mut dgate[..dim];
        assert_eq!(h.len(), d.len(), "gated_residual_backward input length");
        assert_eq!(dh.len(), d.len(), "gated_residual_backward output length");
        assert!(d.len().is_multiple_of(dim), "gated_residual_backward row width");
        let rows = d.chunks_exact(dim).zip(h.chunks_exact(dim));
        for ((dr, hr), dhr) in rows.zip(dh.chunks_exact_mut(dim)) {
            for j in 0..dim {
                dhr[j] = dr[j] * gate[j];
                dgate[j] += dr[j] * hr[j];
            }
        }
    }
);

// The tape's other backward loops, one definition each: the tape ops of
// `aeris-autodiff` and the model's training backward both call them. An
// accumulator (`+=`) starts from whatever the caller put there; the tape
// starts it from zeros.

/// SiLU backward: `dx = d · (σ · (1 + x · (1 − σ)))`, `σ = σ(x)` of
/// [`sigmoid`], written into `dx` first.
pub fn silu_backward(dx: &mut [f32], x: &[f32], d: &[f32]) {
    assert_eq!(d.len(), x.len(), "silu_backward gradient length");
    sigmoid(dx, x);
    for ((o, &x), &g) in dx.iter_mut().zip(x).zip(d) {
        let s = *o;
        *o = g * (s * (1.0 + x * (1.0 - s)));
    }
}

/// Backward of [`rmsnorm_rows`] over rows of `dim = g.len()`, with
/// `r = inv_rms[row]`: writes `dx = γ·d·r − x·(Σ γ·d·x)·r³/dim`, the sum by
/// [`dot3`], and accumulates, row by row in ascending order, `dg += d·x·r`.
pub fn rmsnorm_rows_backward(dx: &mut [f32], dg: &mut [f32], x: &[f32], d: &[f32], g: &[f32], inv_rms: &[f32]) {
    let dim = g.len();
    let dg = &mut dg[..dim];
    assert_eq!(x.len(), inv_rms.len() * dim, "rmsnorm_rows_backward input length");
    assert!(d.len() == x.len() && dx.len() == x.len(), "rmsnorm_rows_backward gradient length");
    let rows = x.chunks_exact(dim).zip(d.chunks_exact(dim));
    for (((xr, dr), dxr), &ir) in rows.zip(dx.chunks_exact_mut(dim)).zip(inv_rms) {
        let s = dot3(g, dr, xr); // Σ γ_j d_j x_j
        let coef = s * ir * ir * ir / dim as f32;
        for j in 0..dim {
            dxr[j] = g[j] * dr[j] * ir - xr[j] * coef;
            dg[j] += dr[j] * xr[j] * ir;
        }
    }
}

/// Backward of [`add_rows`] for the broadcast vector: adds every row of
/// `d` (rows of `dv.len()`) into `dv`, in ascending row order.
pub fn add_rows_backward(dv: &mut [f32], d: &[f32]) {
    assert!(!dv.is_empty() && d.len().is_multiple_of(dv.len()), "add_rows_backward row width");
    for row in d.chunks_exact(dv.len()) {
        add_assign(dv, row);
    }
}

/// Backward of a row gather `y[i] = x[idx[i]]` over rows of `cols`: adds
/// row `i` of `d` into row `idx[i]` of `dx`, in ascending `i`. Into zeros
/// this turns a `−0.0` of `d` into `+0.0`.
pub fn gather_rows_backward(dx: &mut [f32], d: &[f32], idx: &[usize], cols: usize) {
    assert_eq!(d.len(), idx.len() * cols, "gather_rows_backward gradient length");
    for (dr, &src) in d.chunks_exact(cols.max(1)).zip(idx) {
        add_assign(&mut dx[src * cols..(src + 1) * cols], dr);
    }
}

/// The weighted squared-error loss `Σ w·(p − t)² / n`, `n = pred.len()`:
/// each term rounded in f32, summed in f64 in order.
pub fn weighted_mse_loss(pred: &[f32], target: &[f32], weights: &[f32]) -> f32 {
    assert!(pred.len() == target.len() && pred.len() == weights.len(), "weighted_mse_loss length mismatch");
    let mut acc = 0.0f64;
    for ((&p, &t), &w) in pred.iter().zip(target).zip(weights) {
        let d = p - t;
        acc += (w * d * d) as f64;
    }
    (acc / pred.len() as f32 as f64) as f32
}

/// Backward of [`weighted_mse_loss`] for an upstream gradient `d`:
/// `grad = g0 · w · (p − t)` with `g0 = d · 2 / n`.
pub fn weighted_mse_backward(grad: &mut [f32], pred: &[f32], target: &[f32], weights: &[f32], d: f32) {
    assert!(pred.len() == target.len() && pred.len() == weights.len(), "weighted_mse_backward length mismatch");
    assert_eq!(grad.len(), pred.len(), "weighted_mse_backward output length");
    let g0 = d * 2.0 / pred.len() as f32;
    for (((o, &p), &t), &w) in grad.iter_mut().zip(pred).zip(target).zip(weights) {
        *o = g0 * w * (p - t);
    }
}

/// Softmax numerator sweep: `dst[i] = exp(src[i] - shift)` through [`exp`],
/// returning the sum of all numerators. The sum accumulates into `W` lanes
/// combined in a fixed order (tail first, then lanes 0..W), identical across
/// runs.
pub fn exp_shift_sum(dst: &mut [f32], src: &[f32], shift: f32) -> f32 {
    assert_eq!(dst.len(), src.len(), "exp_shift_sum length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s - shift;
    }
    exp(dst);
    let mut lanes = [0.0f32; W];
    let mut dc = dst.chunks_exact(W);
    for dw in &mut dc {
        for i in 0..W {
            lanes[i] += dw[i];
        }
    }
    let mut z = 0.0f32;
    for &e in dc.remainder() {
        z += e;
    }
    for l in lanes {
        z += l;
    }
    z
}

/// Dot product into `W` lanes with fixed combine order (tail, then lanes).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut lanes = [0.0f32; W];
    let mut ac = a.chunks_exact(W);
    let mut bc = b.chunks_exact(W);
    for (aw, bw) in (&mut ac).zip(&mut bc) {
        for i in 0..W {
            lanes[i] += aw[i] * bw[i];
        }
    }
    let mut s = 0.0f32;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        s += x * y;
    }
    for l in lanes {
        s += l;
    }
    s
}

/// Triple-product reduction `Σ a[i]·b[i]·c[i]` (RMSNorm backward's
/// `Σ γ·d·x`), lane-split with the same fixed combine order as [`dot`].
/// Inlined into its callers so [`modulated_rmsnorm_backward`]'s AVX2 build
/// runs it at that width too.
#[inline(always)]
pub fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot3 length mismatch");
    assert_eq!(a.len(), c.len(), "dot3 length mismatch");
    let mut lanes = [0.0f32; W];
    let mut ac = a.chunks_exact(W);
    let mut bc = b.chunks_exact(W);
    let mut cc = c.chunks_exact(W);
    for ((aw, bw), cw) in (&mut ac).zip(&mut bc).zip(&mut cc) {
        for i in 0..W {
            lanes[i] += aw[i] * bw[i] * cw[i];
        }
    }
    let mut s = 0.0f32;
    for ((&x, &y), &z) in ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(cc.remainder())
    {
        s += x * y * z;
    }
    for l in lanes {
        s += l;
    }
    s
}

/// Sum of squares into `W` lanes with fixed combine order (tail, then lanes).
/// Inlined into its callers so the norms' dispatched builds run it at their
/// width too.
#[inline(always)]
pub fn sum_sq(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; W];
    let mut xc = x.chunks_exact(W);
    for xw in &mut xc {
        for i in 0..W {
            lanes[i] += xw[i] * xw[i];
        }
    }
    let mut s = 0.0f32;
    for &v in xc.remainder() {
        s += v * v;
    }
    for l in lanes {
        s += l;
    }
    s
}

// The forward row kernels of the Swin block: the one definition of each
// element's arithmetic, which the tape ops of `aeris-autodiff` and the model's
// tape-free block pass both run, a block of rows per call. A row-block kernel
// reads or writes the token rows `rows[i]` of a `[tokens, dim]` stream for
// row `i` of its block; a tape op's contiguous rows are the identity list.

/// `1/√(mean(x²) + eps)` of one row, the sum by [`sum_sq`].
#[inline(always)]
fn inv_rms(x: &[f32], eps: f32) -> f32 {
    1.0 / (sum_sq(x) / x.len() as f32 + eps).sqrt()
}

/// RMSNorm of one row `x` of `dim = g.len()`: `out = x · r · γ` with
/// `r = 1/√(mean(x²) + eps)`; returns `r`.
#[inline(always)]
fn rmsnorm_row(out: &mut [f32], x: &[f32], g: &[f32], eps: f32) -> f32 {
    let ir = inv_rms(x, eps);
    for ((o, &xi), &gi) in out.iter_mut().zip(x).zip(g) {
        *o = xi * ir * gi;
    }
    ir
}

/// [`rmsnorm_rows`]' row, then the AdaLN modulation: with
/// `[γ, s1, shift] = mods` (`s1 = 1 + scale`), `out = x · r · γ · s1 + shift`
/// in that association order; returns `r`.
#[inline(always)]
fn modulated_rmsnorm_row(out: &mut [f32], x: &[f32], [g, s1, shift]: [&[f32]; 3], eps: f32) -> f32 {
    let dim = g.len();
    assert_eq!(x.len(), dim, "modulated_rmsnorm row width");
    let ir = inv_rms(x, eps);
    // Every slice is cut to `[..dim]` once, so the loop indexes without
    // bounds checks and vectorizes.
    let (out, s1, b) = (&mut out[..dim], &s1[..dim], &shift[..dim]);
    for j in 0..dim {
        out[j] = x[j] * ir * g[j] * s1[j] + b[j];
    }
    ir
}

/// One row of the gated residual: `out = x + h · gate`.
#[inline(always)]
fn gated_residual_row(out: &mut [f32], x: &[f32], h: &[f32], gate: &[f32]) {
    let dim = gate.len();
    let (out, x, h) = (&mut out[..dim], &x[..dim], &h[..dim]);
    for j in 0..dim {
        out[j] = x[j] + h[j] * gate[j];
    }
}

/// One row of SwiGLU: `dst = (gate · σ(gate)) · up`.
#[inline(always)]
fn silu_gate(dst: &mut [f32], gate: &[f32], up: &[f32]) {
    for ((d, &g), &u) in dst.iter_mut().zip(gate).zip(up) {
        *d = g * sigmoid_lane(g) * u;
    }
}

dispatched!(
    /// RMSNorm over rows of `dim = g.len()`: `out = x · r · γ` with
    /// `r = 1/√(mean(x²) + eps)` of its row, written to `inv_rms[row]`.
    /// Panics unless `x` and `out` are `inv_rms.len()` whole rows.
    pub fn rmsnorm_rows_on => rmsnorm_rows, (out: &mut [f32], inv_rms: &mut [f32], x: &[f32], g: &[f32], eps: f32) {
        let dim = g.len();
        assert!(dim > 0 && x.len() == inv_rms.len() * dim, "rmsnorm_rows input length");
        assert_eq!(out.len(), x.len(), "rmsnorm_rows output length");
        for ((o, xr), ir) in out.chunks_exact_mut(dim).zip(x.chunks_exact(dim)).zip(inv_rms) {
            *ir = rmsnorm_row(o, xr, g, eps);
        }
    }
);

dispatched!(
    /// The modulated RMSNorm of the token rows `rows` of `x`, gathered: with
    /// `[γ, s1, shift] = mods` of `dim = γ.len()` (`s1 = 1 + scale`),
    /// `out[i] = x[rows[i]] · r · γ · s1 + shift` in that association order,
    /// `r = 1/√(mean(x[rows[i]]²) + eps)` written to `inv_rms[i]`. Panics
    /// unless `x` is whole rows and `out` is `rows.len()` of them.
    pub fn modulated_rmsnorm_rows_on => modulated_rmsnorm_rows,
    (out: &mut [f32], inv_rms: &mut [f32], x: &[f32], rows: &[usize], mods: [&[f32]; 3], eps: f32) {
        let dim = mods[0].len();
        assert!(dim > 0 && x.len().is_multiple_of(dim), "modulated_rmsnorm_rows row width");
        assert!(out.len() == rows.len() * dim && inv_rms.len() == rows.len(), "modulated_rmsnorm_rows output length");
        for ((o, ir), &t) in out.chunks_exact_mut(dim).zip(inv_rms).zip(rows) {
            *ir = modulated_rmsnorm_row(o, &x[t * dim..(t + 1) * dim], mods, eps);
        }
    }
);

dispatched!(
    /// Gated residual over rows of `dim = gate.len()`, scattered: row `i` of
    /// `h` is added to token row `t = rows[i]`, `out[t] = x[t] + h[i] · gate`.
    /// Panics unless `x` and `out` are whole rows and `h` is `rows.len()`
    /// of them.
    pub fn gated_residual_on => gated_residual, (out: &mut [f32], x: &[f32], h: &[f32], rows: &[usize], gate: &[f32]) {
        let dim = gate.len();
        assert!(dim > 0 && x.len() == out.len() && x.len().is_multiple_of(dim), "gated_residual row width");
        assert_eq!(h.len(), rows.len() * dim, "gated_residual branch length");
        for (hr, &t) in h.chunks_exact(dim).zip(rows) {
            let at = t * dim..(t + 1) * dim;
            gated_residual_row(&mut out[at.clone()], &x[at], hr, gate);
        }
    }
);

dispatched!(
    /// Row-broadcast sum over rows of `v.len()`: `x[r] += v` (a bias).
    /// Panics unless `x` is whole rows.
    pub fn add_rows_on => add_rows, (x: &mut [f32], v: &[f32]) {
        assert!(x.len().is_multiple_of(v.len()), "add_rows row width");
        for row in x.chunks_exact_mut(v.len()) {
            add_assign(row, v);
        }
    }
);

dispatched!(
    /// One AdamW update over a parameter's flat buffers, elementwise: with
    /// `[β₁, β₂, ε, λ, lr, bc₁, bc₂] = hp`, `m = β₁·m + (1 − β₁)·g`,
    /// `v = β₂·v + (1 − β₂)·g·g`, `p −= lr·((m / bc₁) / (√(v / bc₂) + ε) + λ·p)`,
    /// in that association order. Element `j` reads inputs `j` only.
    pub fn adamw_on => adamw, (p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], hp: [f32; 7]) {
        let [b1, b2, eps, wd, lr, bc1, bc2] = hp;
        assert!(g.len() == p.len() && m.len() == p.len() && v.len() == p.len(), "adamw length mismatch");
        for (((pj, &gj), mj), vj) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
            *mj = b1 * *mj + (1.0 - b1) * gj;
            *vj = b2 * *vj + (1.0 - b2) * gj * gj;
            let mhat = *mj / bc1;
            let vhat = *vj / bc2;
            *pj -= lr * (mhat / (vhat.sqrt() + eps) + wd * *pj);
        }
    }
);

dispatched!(
    /// The EMA fold `s = s·decay + (1 − decay)·p`, one pass: the bits of
    /// [`scale`] by `decay` then [`axpy`] of `1 − decay`.
    pub fn ema_on => ema, (s: &mut [f32], p: &[f32], decay: f32) {
        assert_eq!(s.len(), p.len(), "ema length mismatch");
        let a = 1.0 - decay;
        for (sj, &pj) in s.iter_mut().zip(p) {
            *sj = *sj * decay + a * pj;
        }
    }
);

// Box–Muller in f64 lanes: the same `r = √(−2 ln u)`, `θ = 2π·v` and
// `r·cos θ`, `r·sin θ` as `Rng::normal`'s libm path, with `ln`, `sin` and
// `cos` as fdlibm's polynomials (Sun's `e_log.c`, `k_sin.c`, `k_cos.c`), so
// every step is an IEEE `+ − × ÷`, a `sqrt`, a compare or an integer bit
// operation. Within 2⁻⁴⁶ of libm's result, relative (≈ 2⁻⁵⁰·⁴ measured).

/// `2⁵²`: the f64 whose mantissa field holds an integer `< 2⁵²` exactly.
const TWO52: f64 = 4_503_599_627_370_496.0;
/// The mantissa field of an f64.
const MANTISSA: u64 = (1 << 52) - 1;
/// `1.5 · 2⁵²`: adding it rounds to the nearest integer and leaves that
/// integer in the low mantissa bits of the sum (the f64 [`ROUND`]).
const ROUND64: f64 = 6_755_399_441_055_744.0;
/// `ln 2` in two parts: `LN2_HI64` has 32 significant bits, so `k · LN2_HI64`
/// is exact for the `|k| ≤ 53` a uniform draw reaches.
const LN2_HI64: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO64: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// `ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²))` with `s = f/(2 + f)`: the
/// coefficients of `R(z) = z·(LG[0] + z·(LG[1] + …))`.
const LG: [f64; 7] = [
    6.666_666_666_666_735e-1,
    3.999_999_999_940_942e-1,
    2.857_142_874_366_239e-1,
    2.222_219_843_214_978_4e-1,
    1.818_357_216_161_805e-1,
    1.531_383_769_920_937_3e-1,
    1.479_819_860_511_658_6e-1,
];
/// `π/2` in three parts (Cody–Waite): the first two have 33 significant
/// bits, so `k · PIO2[0]` and `k · PIO2[1]` are exact for `k ≤ 4`, and
/// their sum with the third is `π/2` to ≈ 2⁻¹²².
const PIO2: [f64; 3] =
    [f64::from_bits(0x3FF9_21FB_5440_0000), f64::from_bits(0x3DD0_B461_1A60_0000), f64::from_bits(0x3BA3_198A_2E03_7073)];
/// `sin x = x + x³·(S[0] + x²·(S[1] + …))` on `|x| ≤ π/4`.
const SIN: [f64; 6] = [
    -1.666_666_666_666_663_2e-1,
    8.333_333_333_322_49e-3,
    -1.984_126_982_985_795e-4,
    2.755_731_370_707_006_8e-6,
    -2.505_076_025_340_686_3e-8,
    1.589_690_995_211_55e-10,
];
/// `cos x = 1 − x²/2 + x⁴·(COS[0] + x²·(COS[1] + …))` on `|x| ≤ π/4`.
const COS: [f64; 6] = [
    4.166_666_666_666_66e-2,
    -1.388_888_888_887_411e-3,
    2.480_158_728_947_673e-5,
    -2.755_731_435_139_066_3e-7,
    2.087_572_321_298_175e-9,
    -1.135_964_755_778_819_5e-11,
];

/// `(w >> 11) · 2⁻⁵³`, `Rng::next_f64`'s uniform, exactly and without a
/// u64 → f64 convert (plain `avx512f` has none): the 53-bit integer `x`
/// is `2⁵² + (x mod 2⁵²)` when its top bit is set, which is the f64 with
/// that mantissa field and the exponent of `2⁵²`; otherwise it is that
/// f64 minus `2⁵²`.
#[inline(always)]
fn unit_lane(w: u64) -> f64 {
    let x = w >> 11;
    let m = f64::from_bits(TWO52.to_bits() | (x & MANTISSA));
    (m - if x >> 52 == 0 { TWO52 } else { 0.0 }) * (0.5 / TWO52)
}

/// `ln u` for a normal, positive `u`: `u = 2ᵏ·m` with `m ∈ [√½, √2)`,
/// `f = m − 1` exact, and fdlibm's `s = f/(2 + f)` series.
#[inline(always)]
fn ln_lane(u: f64) -> f64 {
    let bits = u.to_bits();
    let m = f64::from_bits((bits & MANTISSA) | 1f64.to_bits());
    let big = m > std::f64::consts::SQRT_2;
    let f = if big { 0.5 * m - 1.0 } else { m - 1.0 };
    // The biased exponent field as an f64, exactly, as in `unit_lane`.
    let e = f64::from_bits(TWO52.to_bits() | bits >> 52) - TWO52;
    let k = e - if big { 1022.0 } else { 1023.0 };
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6]))) + w * (LG[1] + w * (LG[3] + w * LG[5]));
    let hfsq = 0.5 * f * f;
    k * LN2_HI64 - ((hfsq - (s * (hfsq + r) + k * LN2_LO64)) - f)
}

/// `(sin θ, cos θ)` for `0 ≤ θ < 2π`: `x = θ − k·π/2` by [`PIO2`] with
/// `k = round(θ·2/π)`, the two polynomials on `x`, and the quadrant `k mod 4`
/// picking and negating them.
#[inline(always)]
fn sin_cos_lane(theta: f64) -> (f64, f64) {
    let t = theta * std::f64::consts::FRAC_2_PI + ROUND64;
    let k = t - ROUND64;
    let q = t.to_bits();
    let x = ((theta - k * PIO2[0]) - k * PIO2[1]) - k * PIO2[2];
    let z = x * x;
    let w = z * z;
    let rs = SIN[1] + z * (SIN[2] + z * SIN[3]) + z * w * (SIN[4] + z * SIN[5]);
    let sin = x + z * x * (SIN[0] + z * rs);
    let rc = z * (COS[0] + z * (COS[1] + z * COS[2])) + w * w * (COS[3] + z * (COS[4] + z * COS[5]));
    let hz = 0.5 * z;
    let one = 1.0 - hz;
    let cos = one + (((1.0 - one) - hz) + z * rc);
    let (a, b) = if q & 1 != 0 { (cos, sin) } else { (sin, cos) };
    (if q & 2 != 0 { -a } else { a }, if q.wrapping_add(1) & 2 != 0 { -b } else { b })
}

dispatched!(
    /// Box–Muller's lane math for the pairs that follow the SplitMix64
    /// state `state`: pair `i` takes the `Rng::next_f64` uniforms `u`, `v`
    /// of the words at `state + (2i + 1)·γ` and `state + (2i + 2)·γ` and
    /// writes `rc[i] = r·cos θ` and `rs[i] = r·sin θ` in f64, with
    /// `r = √(−2 ln u)` and `θ = 2π·v`. libm-free (fdlibm's `ln`, `sin` and
    /// `cos` polynomials, an exact u64 → f64 split and a Cody–Waite
    /// reduction of `θ`): every build returns the same bits, each within
    /// 2⁻⁴⁶ of libm's, relative. A pair whose `u` `Rng::normal`
    /// would reject (`u = 0`) is NaN. `Rng::fill_normal` rounds a pair to f32
    /// where that rounding is settled within the error bound and takes
    /// `normal`'s libm path where it is not.
    pub fn box_muller_on => box_muller, (rc: &mut [f64], rs: &mut [f64], state: u64) {
        assert_eq!(rc.len(), rs.len(), "box_muller length mismatch");
        for (i, (c_out, s_out)) in rc.iter_mut().zip(rs.iter_mut()).enumerate() {
            let at = state.wrapping_add(GAMMA.wrapping_mul(2 * i as u64));
            let (uw, vw) = (mix(at.wrapping_add(GAMMA)), mix(at.wrapping_add(GAMMA.wrapping_mul(2))));
            let r = (-2.0 * ln_lane(unit_lane(uw))).sqrt();
            let r = if uw >> 11 == 0 { f64::NAN } else { r };
            let (s, c) = sin_cos_lane(2.0 * std::f64::consts::PI * unit_lane(vw));
            *c_out = r * c;
            *s_out = r * s;
        }
    }
);

// `Tensor::div`'s sweep: only tests divide tensors.
#[cfg(test)]
binary_into!(div_into, /);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Kernel;
    use proptest::prelude::*;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    #[test]
    fn maps_match_scalar_reference_on_odd_lengths() {
        for n in [0, 1, 7, 8, 9, 31, 64, 65] {
            let a = seq(n);
            let b: Vec<f32> = seq(n).iter().map(|x| x + 0.5).collect();

            let mut y = a.clone();
            axpy(&mut y, 0.25, &b);
            for i in 0..n {
                assert_eq!(y[i], a[i] + 0.25 * b[i]);
            }

            let mut out = vec![0.0; n];
            mul_into(&mut out, &a, &b);
            for i in 0..n {
                assert_eq!(out[i], a[i] * b[i]);
            }

            let mut d = a.clone();
            scale_shift(&mut d, &b, &a);
            for i in 0..n {
                assert_eq!(d[i], a[i] * b[i] + a[i]);
            }
        }
    }

    #[test]
    fn reductions_are_deterministic_and_accurate() {
        for n in [0usize, 1, 7, 9, 63, 64, 1000] {
            let x = seq(n);
            let m = max(&x);
            let m_ref = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(m, m_ref);

            let s = sum_sq(&x);
            let s64: f64 = x.iter().map(|&v| (v as f64) * (v as f64)).sum();
            assert!((s as f64 - s64).abs() <= 1e-4 * s64.abs() + 1e-6);
            // Bitwise repeatable, and dot(x, x) takes the same lane path.
            assert_eq!(s.to_bits(), sum_sq(&x).to_bits());
            assert_eq!(dot(&x, &x).to_bits(), s.to_bits());
            let ones = vec![1.0f32; n];
            assert_eq!(dot3(&x, &x, &ones).to_bits(), s.to_bits());
        }
    }

    #[test]
    fn exp_shift_sum_matches_elementwise() {
        let x = seq(37);
        let shift = max(&x);
        let mut dst = vec![0.0; 37];
        let z = exp_shift_sum(&mut dst, &x, shift);
        for i in 0..37 {
            assert_eq!(dst[i].to_bits(), exp1(x[i] - shift).to_bits());
        }
        let z64: f64 = x.iter().map(|&v| ((v - shift) as f64).exp()).sum();
        assert!((z as f64 - z64).abs() < 1e-4 * z64);
    }

    /// [`exp`] of one element, as a length-1 slice.
    fn exp1(x: f32) -> f32 {
        let mut v = [x];
        exp(&mut v);
        v[0]
    }

    /// First input of the `n = 128` sliver: `+∞` from here up.
    const EXP_INF_FROM: f32 = 88.376_27;

    /// The whole contract of [`exp`] for one non-NaN input: exactly 0 below
    /// `EXP_LO`, exactly `+∞` from `EXP_INF_FROM`, within 2 ulp of the
    /// correctly rounded value between.
    fn assert_exp_contract(x: f32) {
        let y = exp1(x);
        if x < EXP_LO {
            assert_eq!(y.to_bits(), 0, "exp({x:e}) = {y:e}, expected +0");
        } else if x >= EXP_INF_FROM {
            assert_eq!(y, f32::INFINITY, "exp({x:e}) = {y:e}, expected +inf");
        } else {
            let want = (x as f64).exp() as f32;
            let ulps = y.to_bits().abs_diff(want.to_bits());
            assert!(ulps <= 2, "exp({x:e}) = {y:e}, correctly rounded {want:e}: {ulps} ulp");
        }
    }

    /// Inputs that mix ordinary values with every special and both range ends.
    fn awkward(n: usize) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            EXP_LO,
            -87.4,
            -104.0,
            88.3,
            EXP_INF_FROM,
            EXP_HI,
            1e30,
            -1e30,
            f32::MIN_POSITIVE,
        ];
        (0..n)
            .map(|i| if i % 3 == 1 { specials[i / 3 % specials.len()] } else { (i as f32 * 0.37).sin() * 30.0 })
            .collect()
    }

    /// Bit patterns, with every NaN as the one canonical NaN: IEEE leaves
    /// the sign and payload a NaN result inherits to the instruction's
    /// operand order, so "NaN" is all the kernel promises there.
    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    proptest! {
        #[test]
        fn exp_is_within_two_ulp_of_correctly_rounded(xs in proptest::collection::vec(-87.3f32..88.3, 64)) {
            for x in xs {
                assert_exp_contract(x);
            }
        }
    }

    #[test]
    fn exp_dense_sweep_is_within_two_ulp() {
        let n = 400_000;
        for i in 0..=n {
            assert_exp_contract(-87.3 + (88.3 + 87.3) * (i as f32 / n as f32));
        }
    }

    #[test]
    fn exp_specials_and_range_ends_are_exact() {
        assert!(exp1(f32::NAN).is_nan());
        assert_eq!(exp1(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp1(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp1(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp1(-0.0).to_bits(), 1.0f32.to_bits());

        // The lower end: the last normal result, then exactly 0 (libm would
        // return subnormals down to −103.97).
        assert!(exp1(EXP_LO) >= f32::MIN_POSITIVE);
        assert_eq!(exp1(f32::from_bits(EXP_LO.to_bits() + 1)).to_bits(), 0);
        for i in 1..2000 {
            let x = -87.4 - 0.05 * i as f32;
            assert_eq!(exp1(x).to_bits(), 0, "exp({x}) must flush to 0");
        }
        // The upper end, pinned: n = 128 makes the sliver [88.376_27,
        // 88.722_84] overflow early; the float before it is still accurate.
        assert_eq!(EXP_INF_FROM.to_bits(), 88.376_26_f32.to_bits() + 1);
        assert_exp_contract(88.376_26);
        for i in 0..2000 {
            let x = 88.73 + 0.05 * i as f32;
            assert_eq!(exp1(x), f32::INFINITY, "exp({x}) must overflow to +inf");
        }

        // Monotone non-decreasing float by float across every threshold.
        for edge in [EXP_LO, EXP_INF_FROM, EXP_HI] {
            let start = if edge < 0.0 { edge.to_bits() + 2000 } else { edge.to_bits() - 2000 };
            let mut prev = exp1(f32::from_bits(start));
            for step in 1..=4000 {
                let b = if edge < 0.0 { start - step } else { start + step };
                let y = exp1(f32::from_bits(b));
                assert!(y >= prev, "exp not monotone at {:e}: {prev:e} then {y:e}", f32::from_bits(b));
                prev = y;
            }
        }

        // The f32 line at every exponent of both signs (subnormals, ±MAX
        // included): the contract holds, so no finite input gives NaN or a
        // garbage exponent.
        for exponent in 0..255u32 {
            for mantissa in [0, 1, 0x2A_AAAA, 0x40_0000, 0x7F_FFFF] {
                for sign in [0, 1u32 << 31] {
                    assert_exp_contract(f32::from_bits(sign | exponent << 23 | mantissa));
                }
            }
        }
    }

    /// Vector body ≡ scalar tail: a sub-slice at any offset and length gives,
    /// bit for bit, what each element gives alone.
    #[test]
    fn exp_result_is_independent_of_position_and_length() {
        let base = awkward(80);
        let alone = bits(&base.iter().map(|&x| exp1(x)).collect::<Vec<_>>());
        for len in 0..=40 {
            for off in 0..=base.len() - len {
                let mut sub = base[off..off + len].to_vec();
                exp(&mut sub);
                assert_eq!(bits(&sub), alone[off..off + len], "len {len} at offset {off}");
            }
        }
    }

    /// `run` on every build the host supports, each compared bitwise with
    /// the portable one; returns the portable result.
    fn every_build<T: PartialEq + std::fmt::Debug>(what: &str, run: impl Fn(Kernel) -> T) -> T {
        let want = run(Kernel::Portable);
        for &kernel in Kernel::supported() {
            assert_eq!(run(kernel), want, "{what}: the {} build differs from the portable one", kernel.name());
        }
        want
    }

    /// Every build ≡ the portable one for the elementwise loops: each arm
    /// the host supports (portable, AVX2, `avx512f`) is called through the
    /// kernel-taking `*_on` entry. On a host without AVX2 this degenerates to
    /// a self-comparison.
    #[test]
    fn portable_and_dispatched_builds_agree_bitwise() {
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67, 257] {
            let x = awkward(n);
            let gu: Vec<f32> = x.iter().copied().chain(x.iter().rev().map(|v| v * 0.5 + 0.25)).collect();
            let unary = |name, f: fn(Kernel, &mut [f32], &[f32])| {
                every_build(&format!("{name}, n = {n}"), |k| {
                    let mut d = vec![f32::NAN; n];
                    f(k, &mut d, &x);
                    bits(&d)
                })
            };
            every_build(&format!("exp, n = {n}"), |k| {
                let mut d = x.clone();
                exp_on(k, &mut d);
                bits(&d)
            });
            unary("sigmoid", sigmoid_on);
            unary("silu", silu_on);
            every_build(&format!("swiglu, n = {n}"), |k| {
                let mut d = vec![f32::NAN; n];
                swiglu_on(k, &mut d, &gu, n.max(1));
                bits(&d)
            });
        }
    }

    /// Widths that are never a multiple of the 8-lane sweep width.
    fn odd_width(d: usize) -> usize {
        if d.is_multiple_of(8) { d + 1 } else { d }
    }

    /// The gates the backward sweeps must carry through: where `exp` flushes
    /// to 0 or overflows, far outside its range, infinite and NaN.
    const GATES: [f32; 9] = [80.0, -80.0, 104.0, -104.0, 1e30, -1e30, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

    /// `n` normal draws with every `GATES` value planted at a seeded offset.
    fn gated(n: usize, rng: &mut crate::Rng) -> Vec<f32> {
        let mut v: Vec<f32> = (0..n).map(|_| rng.normal() * 3.0).collect();
        let at = rng.below(n);
        for (i, &g) in GATES.iter().enumerate() {
            v[(at + 7 * i) % n] = g;
        }
        v
    }

    /// The first `n` of a seeded permutation of `0..tokens`: a row block
    /// that visits token rows out of order and, for `n < tokens`, only some.
    fn row_list(tokens: usize, n: usize, rng: &mut crate::Rng) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..tokens).collect();
        for i in (1..tokens).rev() {
            rows.swap(i, rng.below(i + 1));
        }
        rows.truncate(n);
        rows
    }

    /// `[γ, 1 + scale, shift]` of width `dim`, specials planted.
    fn modulation(dim: usize, rng: &mut crate::Rng) -> [Vec<f32>; 3] {
        [(); 3].map(|_| gated(dim, rng))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every build ≡ the portable one for the SwiGLU backward (see
        /// `portable_and_dispatched_builds_agree_bitwise`).
        #[test]
        fn swiglu_backward_builds_agree_bitwise(rows in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (f, mut rng) = (odd_width(d), crate::Rng::seed_from(seed));
            let gu = gated(rows * 2 * f, &mut rng);
            let dy = gated(rows * f, &mut rng);
            every_build("swiglu_backward", |k| {
                let mut dgu = vec![f32::NAN; gu.len()];
                swiglu_backward_on(k, &mut dgu, &gu, &dy, f);
                bits(&dgu)
            });
        }

        /// Every build ≡ the portable one for the modulated-RMSNorm backward,
        /// the three row-accumulated vectors included.
        #[test]
        fn modulated_rmsnorm_backward_builds_agree_bitwise(rows in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (dim, mut rng) = (odd_width(d), crate::Rng::seed_from(seed));
            let x = gated(rows * dim, &mut rng);
            let dy = gated(rows * dim, &mut rng);
            let (g, s1) = (gated(dim, &mut rng), gated(dim, &mut rng));
            let inv_rms: Vec<f32> = x.chunks_exact(dim).map(|r| 1.0 / (sum_sq(r) / dim as f32 + 1e-6).sqrt()).collect();
            every_build("modulated_rmsnorm_backward", |k| {
                let mut dx = vec![f32::NAN; x.len()];
                let [mut a, mut b, mut c] = [(); 3].map(|_| vec![0.0; dim]);
                let dvecs = [&mut a[..], &mut b[..], &mut c[..]];
                modulated_rmsnorm_backward_on(k, &mut dx, dvecs, &x, &dy, &g, &s1, &inv_rms);
                [dx, a, b, c].map(|v| bits(&v))
            });
        }

        /// Every build ≡ the portable one for the gated-residual backward.
        #[test]
        fn gated_residual_backward_builds_agree_bitwise(rows in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (dim, mut rng) = (odd_width(d), crate::Rng::seed_from(seed));
            let (dy, h, gate) = (gated(rows * dim, &mut rng), gated(rows * dim, &mut rng), gated(dim, &mut rng));
            every_build("gated_residual_backward", |k| {
                let (mut dh, mut dgate) = (vec![f32::NAN; dy.len()], vec![0.0; dim]);
                gated_residual_backward_on(k, &mut dh, &mut dgate, &dy, &h, &gate);
                (bits(&dh), bits(&dgate))
            });
        }

        /// Every build ≡ the portable one for the gathered modulated norm, on
        /// a permuted, partial row list; and gathering through `rows` is the
        /// identity list over the rows copied out first.
        #[test]
        fn modulated_rmsnorm_rows_builds_agree_bitwise(tokens in 1usize..41, n in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (dim, mut rng) = (odd_width(d), crate::Rng::seed_from(seed));
            let (x, rows) = (gated(tokens * dim, &mut rng), row_list(tokens, n.min(tokens), &mut rng));
            let m = modulation(dim, &mut rng);
            let run = |k, x: &[f32], rows: &[usize]| {
                let (mut out, mut ir) = (vec![f32::NAN; rows.len() * dim], vec![f32::NAN; rows.len()]);
                modulated_rmsnorm_rows_on(k, &mut out, &mut ir, x, rows, [&m[0], &m[1], &m[2]], 1e-6);
                (bits(&out), bits(&ir))
            };
            let got = every_build("modulated_rmsnorm_rows", |k| run(k, &x, &rows));
            let gathered: Vec<f32> = rows.iter().flat_map(|&t| x[t * dim..(t + 1) * dim].iter().copied()).collect();
            let identity: Vec<usize> = (0..rows.len()).collect();
            prop_assert_eq!(got, run(Kernel::Portable, &gathered, &identity));
        }

        /// Every build ≡ the portable one for the scattered gated residual,
        /// on a permuted, partial row list: the rows it names are
        /// `x + h · gate`, the others keep what `out` held.
        #[test]
        fn gated_residual_builds_agree_bitwise(tokens in 1usize..41, n in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (dim, mut rng) = (odd_width(d), crate::Rng::seed_from(seed));
            let (x, rows) = (gated(tokens * dim, &mut rng), row_list(tokens, n.min(tokens), &mut rng));
            let (h, gate) = (gated(rows.len() * dim, &mut rng), gated(dim, &mut rng));
            let got = every_build("gated_residual", |k| {
                let mut out = vec![7.0; x.len()];
                gated_residual_on(k, &mut out, &x, &h, &rows, &gate);
                bits(&out)
            });
            for t in 0..tokens {
                let want: Vec<f32> = match rows.iter().position(|&r| r == t) {
                    Some(i) => (0..dim).map(|j| x[t * dim + j] + h[i * dim + j] * gate[j]).collect(),
                    None => vec![7.0; dim],
                };
                prop_assert_eq!(&got[t * dim..(t + 1) * dim], &bits(&want)[..]);
            }
        }

        /// Every build ≡ the portable one for the plain row norm, the bias
        /// sweep and SwiGLU over whole rows of odd widths.
        #[test]
        fn contiguous_row_kernels_builds_agree_bitwise(rows in 1usize..41, d in 1usize..60, seed in 0u64..1000) {
            let (dim, mut rng) = (odd_width(d), crate::Rng::seed_from(seed));
            let (x, g) = (gated(rows * dim, &mut rng), gated(dim, &mut rng));
            let gu = gated(rows * 2 * dim, &mut rng);
            every_build("rmsnorm_rows", |k| {
                let (mut out, mut ir) = (vec![f32::NAN; x.len()], vec![f32::NAN; rows]);
                rmsnorm_rows_on(k, &mut out, &mut ir, &x, &g, 1e-6);
                (bits(&out), bits(&ir))
            });
            every_build("add_rows", |k| {
                let mut y = x.clone();
                add_rows_on(k, &mut y, &g);
                bits(&y)
            });
            every_build("swiglu", |k| {
                let mut out = vec![f32::NAN; x.len()];
                swiglu_on(k, &mut out, &gu, dim);
                bits(&out)
            });
        }
    }

    proptest! {
        /// Every build of the optimizer loops ≡ the portable one, and the
        /// portable one ≡ the scalar update it replaced (AdamW) and the two
        /// passes it fuses (EMA), bitwise, over odd lengths and moments that
        /// include zeros.
        #[test]
        fn optimizer_loops_builds_agree_bitwise(n in 0usize..70, seed in 0u64..1000, lr in 1e-5f32..1e-1) {
            let mut rng = crate::Rng::seed_from(seed);
            let mut draw = |scale: f32| (0..n).map(|_| rng.normal() * scale).collect::<Vec<f32>>();
            let (p, g, m) = (draw(1.0), draw(1e-2), draw(1e-3));
            let v: Vec<f32> = draw(1e-3).iter().map(|x| x * x).collect();
            let hp = [0.85, 0.9, 1e-8, 0.01, lr, 0.7, 0.3];
            let adamw_bits = every_build("adamw", |k| {
                let (mut p, mut m, mut v) = (p.clone(), m.clone(), v.clone());
                adamw_on(k, &mut p, &g, &mut m, &mut v, hp);
                [bits(&p), bits(&m), bits(&v)]
            });
            let [b1, b2, eps, wd, lr, bc1, bc2] = hp;
            let (mut p0, mut m0, mut v0) = (p.clone(), m.clone(), v.clone());
            for j in 0..n {
                m0[j] = b1 * m0[j] + (1.0 - b1) * g[j];
                v0[j] = b2 * v0[j] + (1.0 - b2) * g[j] * g[j];
                let (mhat, vhat) = (m0[j] / bc1, v0[j] / bc2);
                p0[j] -= lr * (mhat / (vhat.sqrt() + eps) + wd * p0[j]);
            }
            proptest::prop_assert_eq!(adamw_bits, [bits(&p0), bits(&m0), bits(&v0)]);
            let decay = lr.sqrt();
            let ema_bits = every_build("ema", |k| {
                let mut s = m.clone();
                ema_on(k, &mut s, &p, decay);
                bits(&s)
            });
            let mut two_pass = m.clone();
            scale(&mut two_pass, decay);
            axpy(&mut two_pass, 1.0 - decay, &p);
            proptest::prop_assert_eq!(ema_bits, bits(&two_pass));
        }

        /// Every build ≡ the portable one for Box–Muller's lane math, f64
        /// bits, over any state and any number of pairs.
        #[test]
        fn box_muller_builds_agree_bitwise(state in 0u64..u64::MAX, n in 0usize..300) {
            every_build("box_muller", |k| {
                let (mut rc, mut rs) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                box_muller_on(k, &mut rc, &mut rs, state);
                [rc, rs].map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            });
        }
    }

    /// The bound `Rng::fill_normal`'s rounding test rests on: each f64 of
    /// [`box_muller`] is within 2⁻⁴⁶ of libm's, relative, at the ends of
    /// the uniforms' range (`u` = 2⁻⁵³ and 1 − 2⁻⁵³), at every power of two
    /// and both ends of `ln`'s `[√½, √2)` range, where `θ` nears a multiple
    /// of π/2 (`v` near k/4, `cos` or `sin` near 0) or an odd multiple of
    /// π/4 (the polynomials' range ends), and on dense grids of both.
    #[test]
    fn box_muller_is_within_its_error_budget_of_libm() {
        use crate::rng::state_before;
        // The word whose uniform is `x` (a multiple of 2⁻⁵³ in `[0, 1)`).
        let word = |x: f64| ((x * TWO52 * 2.0) as u64) << 11;
        // The eight words whose uniforms are the nearest positive ones to `u`.
        let near = |u: f64| {
            let x = (u * TWO52 * 2.0) as i64;
            (-4..4).map(move |d| ((x + d).clamp(1, (1 << 53) - 1) as u64) << 11)
        };
        let mut us: Vec<u64> = vec![1 << 11, u64::MAX];
        for j in 0..54 {
            us.extend(near((-(j as f64)).exp2()));
            us.extend(near(std::f64::consts::SQRT_2 * (-(j as f64) - 1.0).exp2()));
        }
        us.extend((1..4096).map(|i| word(i as f64 / 4096.0)));
        let mut vs: Vec<u64> = (0..1 << 16).map(|i| word(i as f64 / 65536.0)).collect();
        for eighth in 0..8u64 {
            // `v` within 32 · 2⁻⁵³ of eighth/8, wrapping below 0 to near 1.
            vs.extend((0..64).map(|d| ((eighth << 50) + d).wrapping_sub(32) & ((1 << 53) - 1)).map(|x| x << 11));
        }
        let libm = |uw: u64, vw: u64| {
            let (u, v) = ((uw >> 11) as f64 / (TWO52 * 2.0), (vw >> 11) as f64 / (TWO52 * 2.0));
            let r = (-2.0 * u.ln()).sqrt();
            let (s, c) = (2.0 * std::f64::consts::PI * v).sin_cos();
            [r * c, r * s]
        };
        let budget = (-46f64).exp2();
        // Pair 0 after `state` draws its `u` from the next word and its `v`
        // from the one after.
        let states = us.iter().map(|&w| state_before(w)).chain(vs.iter().map(|&w| state_before(w).wrapping_sub(GAMMA)));
        let mut worst = 0f64;
        for state in states {
            let (mut rc, mut rs) = ([0.0], [0.0]);
            box_muller(&mut rc, &mut rs, state);
            let at = state.wrapping_add(GAMMA);
            let want = libm(mix(at), mix(at.wrapping_add(GAMMA)));
            for (got, want) in [rc[0], rs[0]].into_iter().zip(want) {
                let rel = if want == 0.0 { got.abs() } else { ((got - want) / want).abs() };
                assert!(rel <= budget, "state {state:#x}: {got:e} against libm's {want:e}, relative error {rel:e}");
                worst = worst.max(rel);
            }
        }
        assert!(worst > 0.0, "the grids never reached a result libm rounds differently");
    }

    // A length that is not whole rows would leave the tail of `out`
    // unwritten: every row-block entry refuses it.

    #[test]
    #[should_panic(expected = "gated_residual row width")]
    fn gated_residual_rejects_a_partial_row() {
        gated_residual(&mut [0.0; 5], &[0.0; 5], &[0.0; 2], &[0], &[1.0; 2]);
    }

    #[test]
    #[should_panic(expected = "swiglu row width")]
    fn swiglu_rejects_a_partial_row() {
        swiglu(&mut [0.0; 3], &[0.0; 6], 2);
    }

    #[test]
    #[should_panic(expected = "modulated_rmsnorm_rows row width")]
    fn modulated_rmsnorm_rows_rejects_a_partial_row() {
        let v = [1.0; 2];
        modulated_rmsnorm_rows(&mut [0.0; 2], &mut [0.0], &[1.0; 3], &[0], [&v, &v, &v], 1e-6);
    }

    #[test]
    #[should_panic(expected = "rmsnorm_rows input length")]
    fn rmsnorm_rows_rejects_a_partial_row() {
        rmsnorm_rows(&mut [0.0; 3], &mut [0.0], &[1.0; 3], &[1.0; 2], 1e-6);
    }

    #[test]
    #[should_panic(expected = "add_rows row width")]
    fn add_rows_rejects_a_partial_row() {
        add_rows(&mut [0.0; 3], &[1.0; 2]);
    }

    /// `sigmoid` is `1 / (1 + exp(−x))` over this module's `exp`, `silu` is
    /// `σ(x) · x` and SwiGLU's `silu_gate` is `(g · σ(g)) · u` over that
    /// `sigmoid`, bit for bit.
    #[test]
    fn sigmoid_and_silu_gate_are_the_composition_they_document() {
        let g = awkward(67);
        let u: Vec<f32> = g.iter().rev().map(|v| v * 0.5 + 0.25).collect();
        let mut s = vec![0.0; g.len()];
        sigmoid(&mut s, &g);
        let mut silu_g = vec![0.0; g.len()];
        silu(&mut silu_g, &g);
        let mut y = vec![0.0; g.len()];
        swiglu(&mut y, &[&g[..], &u].concat(), g.len());
        let s_ref: Vec<f32> = g.iter().map(|&g| 1.0 / (1.0 + exp1(-g))).collect();
        let y_ref: Vec<f32> = (0..g.len()).map(|i| g[i] * s_ref[i] * u[i]).collect();
        assert_eq!(bits(&s), bits(&s_ref));
        assert_eq!(bits(&silu_g), bits(&(0..g.len()).map(|i| s_ref[i] * g[i]).collect::<Vec<_>>()));
        assert_eq!(bits(&y), bits(&y_ref));
        for (s, g) in s.iter().zip(&g) {
            assert!(if g.is_nan() { s.is_nan() } else { (0.0..=1.0).contains(s) }, "sigmoid({g}) = {s}");
        }
        assert_eq!(s[g.iter().position(|&v| v == 0.0).expect("awkward has a zero")], 0.5);
    }

    /// A scatter-add into zeros turns `−0.0` into `+0.0`, as the tape's row
    /// gather backward always has; the training backward runs this fn where
    /// the tape gathers.
    #[test]
    fn gather_rows_backward_into_zeros_turns_negative_zero_positive() {
        let mut dx = vec![0.0f32; 6];
        gather_rows_backward(&mut dx, &[-0.0, 1.0, -2.0, -0.0], &[2, 0], 2);
        assert_eq!(bits(&dx), bits(&[-2.0, 0.0, 0.0, 0.0, 0.0, 1.0]));
    }

    #[test]
    fn nan_propagates_through_sweeps() {
        let mut y = vec![1.0f32; 9];
        let mut x = vec![1.0f32; 9];
        x[4] = f32::NAN;
        axpy(&mut y, 1.0, &x);
        assert!(y[4].is_nan());
        assert!(sum_sq(&x).is_nan());
    }
}
