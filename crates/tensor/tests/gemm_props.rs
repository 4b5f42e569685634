//! Property tests for the GEMM core: every layout variant against an f64
//! naive reference over odd, non-block-multiple shapes.
//!
//! The kernel has three distinct code regions — full MR×NR interior tiles,
//! partial edge tiles (a zero-padded packed last panel, re-read last rows),
//! and the k loop — and shapes drawn from `1..50` hit all of them: most draws
//! are not multiples of MR=4, NR=16, or the MC row blocking, so the remainder
//! lanes are exercised constantly rather than only at hand-picked sizes.
//!
//! The kernel-parity tests at the end run each micro-kernel build the host
//! supports (portable, AVX2+FMA, AVX-512) through `gemm_on`, which takes the
//! kernel as a value: the dispatching entry points above only ever reach the
//! widest one. Every kernel fuses its multiply-adds, so all of them must
//! return the same bits — on this host, and (through one pinned digest) on
//! every other.

use aeris_tensor::dispatch::Kernel;
use aeris_tensor::gemm::gemm_on;
use aeris_tensor::{matmul, matmul_nt, matmul_tn, Rng, Tensor};
use proptest::prelude::*;

/// f64 naive `A[m,k] · B[k,n]`, k-ascending like the kernel.
fn reference(a: &Tensor, b: &Tensor) -> Vec<f64> {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for p in 0..k {
            let aik = a.data()[i * k + p] as f64;
            for j in 0..n {
                c[i * n + j] += aik * b.data()[p * n + j] as f64;
            }
        }
    }
    c
}

/// Max |got − want| over the output, scaled by the largest |want| (so the
/// tolerance is relative to the problem's magnitude, not elementwise).
fn scaled_max_err(got: &Tensor, want: &[f64]) -> f64 {
    let scale = want.iter().fold(1e-6f64, |m, &w| m.max(w.abs()));
    got.data()
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (&g, &w)| m.max((g as f64 - w).abs()))
        / scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three f32 layouts agree with the f64 reference to f32 rounding,
    /// and agree with each other bitwise (same accumulation order).
    #[test]
    fn f32_variants_match_f64_reference(
        m in 1usize..50,
        n in 1usize..50,
        k in 1usize..50,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let want = reference(&a, &b);

        let c = matmul(&a, &b);
        let c_tn = matmul_tn(&a.t(), &b);
        let c_nt = matmul_nt(&a, &b.t());

        // f32 rounding grows like sqrt(k) for random-sign sums; 16·eps·sqrt(k)
        // is a comfortable envelope for k < 50.
        let tol = 16.0 * f32::EPSILON as f64 * (k as f64).sqrt();
        prop_assert!(scaled_max_err(&c, &want) <= tol,
            "matmul err {} > {tol} at ({m},{n},{k})", scaled_max_err(&c, &want));

        // Layout variants share the kernel: bitwise equal.
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&c), bits(&c_tn), "tn differs at ({},{},{})", m, n, k);
        prop_assert_eq!(bits(&c), bits(&c_nt), "nt differs at ({},{},{})", m, n, k);
    }
}

/// The kernels this CPU can run — portable always — with one printed note per
/// kernel it cannot.
fn supported_kernels() -> &'static [Kernel] {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let supported = Kernel::supported();
    NOTE.call_once(|| {
        for kernel in &Kernel::ALL[supported.len()..] {
            eprintln!("gemm_props: skipping the {} kernel, this CPU does not support it", kernel.name());
        }
    });
    supported
}

/// The three layouts of `A[m,k] · B[k,n]` on one kernel — `[NN, TN, NT]` —
/// given A, Aᵀ, B, Bᵀ.
fn layouts_on(kernel: Kernel, (m, n, k): (usize, usize, usize), [a, at, b, bt]: [&[f32]; 4]) -> [Tensor; 3] {
    [(a, false, b, false), (at, true, b, false), (a, false, bt, true)].map(|(a, a_trans, b, b_trans)| {
        let mut c = Tensor::full(&[m, n], f32::NAN);
        gemm_on(kernel, m, n, k, a, a_trans, b, b_trans, c.data_mut());
        c
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel parity on shared operands: every kernel the host supports runs
    /// all three layouts over edge shapes (`m` mostly not a multiple of the
    /// 4- or 8-row tile, `n` of the 16-column panel, with every AVX-512
    /// panel schedule up to seven panels drawn — 3, 2 + 2, 3 + 2, 3 + 3,
    /// 3 + 2 + 2 —, `k` short, odd, and up to the 512 tokens the model's
    /// weight gradients sum over).
    /// Within a kernel the layouts are bitwise equal, every kernel stays
    /// inside the f64-reference tolerance, and all supported kernels are
    /// bitwise equal to each other (the portable one is reached by no other
    /// test on an AVX2+FMA host).
    #[test]
    fn kernels_agree_on_all_three_layouts(
        m in 1usize..70,
        n in 1usize..100,
        ki in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let k = [1, 7, 48, 96, 130, 512][ki];
        let mut rng = Rng::seed_from(seed ^ 0x512);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let (at, bt) = (a.t(), b.t());
        let want = reference(&a, &b);
        let tol = 16.0 * f32::EPSILON as f64 * (k as f64).sqrt();

        let mut outputs = Vec::new();
        for &kernel in supported_kernels() {
            let [nn, tn, nt] = layouts_on(kernel, (m, n, k), [a.data(), at.data(), b.data(), bt.data()]);
            let name = kernel.name();
            prop_assert_eq!(bits(&nn), bits(&tn), "{} f32 tn differs at ({},{},{})", name, m, n, k);
            prop_assert_eq!(bits(&nn), bits(&nt), "{} f32 nt differs at ({},{},{})", name, m, n, k);
            prop_assert!(scaled_max_err(&nn, &want) <= tol,
                "{name} f32 err {} > {tol} at ({m},{n},{k})", scaled_max_err(&nn, &want));
            outputs.push((name, bits(&nn)));
        }
        for pair in outputs.windows(2) {
            let ((x, x32), (y, y32)) = (&pair[0], &pair[1]);
            prop_assert_eq!(x32, y32, "{} and {} f32 differ at ({},{},{})", x, y, m, n, k);
        }
    }
}

/// The six weight-gradient GEMMs of a `toy48` training step, `dW = Xᵀ·dY`
/// over 512 tokens (QKV, attention out, SwiGLU up / down, embed, decode):
/// on every supported kernel, the transposed-A layout (`matmul_tn`'s, A read
/// in place) equals the NN layout on the materialised transpose, bitwise.
/// `n = 20` (decode) covers a B whose last panel is partial. Every buffer is
/// exactly `m·k` / `k·n` long, so a read past an operand's end panics.
#[test]
fn weight_gradient_shapes_match_nn_on_the_transpose_bitwise() {
    let mut rng = Rng::seed_from(2025);
    for (m, n, k) in [(48, 144, 512), (48, 48, 512), (48, 192, 512), (96, 48, 512), (43, 48, 512), (48, 20, 512)] {
        let x = Tensor::randn(&[k, m], &mut rng);
        let dy = Tensor::randn(&[k, n], &mut rng);
        let xt = x.t();
        for &kernel in supported_kernels() {
            let [tn, nn] = [(x.data(), true), (xt.data(), false)].map(|(a, a_trans)| {
                let mut c = Tensor::full(&[m, n], f32::NAN);
                gemm_on(kernel, m, n, k, a, a_trans, dy.data(), false, c.data_mut());
                c
            });
            assert_eq!(bits(&tn), bits(&nn), "{} tn differs at ({m},{n},{k})", kernel.name());
        }
    }
}

/// FNV-1a over the output bits of the 18 toy48 GEMMs below, captured on the
/// `avx512f` kernel.
const TOY48_GEMM_DIGEST: u64 = 0x07ea_e00b_5cc4_deac;

/// Every GEMM shape of one `toy48` training step — the six projections
/// `[in, out]` (QKV, attention out, SwiGLU up / down, embed, decode) as NN
/// forward `X·W`, NT input gradient `dY·Wᵀ` and TN weight gradient `Xᵀ·dY`
/// over 512 tokens, operands drawn as `examples/layer_probe.rs` draws them —
/// hashes to one pinned digest on every supported kernel. On a host that
/// runs only the portable kernel, this is the test that compares its bits
/// with every other host's.
#[test]
fn toy48_gemms_hash_to_one_pinned_digest_on_every_kernel() {
    const TOKENS: usize = 512;
    let projections = [(48, 144), (48, 48), (48, 192), (96, 48), (43, 48), (48, 20)];
    for &kernel in supported_kernels() {
        let mut rng = Rng::seed_from(2025);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for layout in ["NN", "NT", "TN"] {
            for (d_in, d_out) in projections {
                let x = Tensor::randn(&[TOKENS, d_in], &mut rng);
                let w = Tensor::randn(&[d_in, d_out], &mut rng);
                let dy = Tensor::randn(&[TOKENS, d_out], &mut rng);
                let (m, n, k, a, a_trans, b, b_trans) = match layout {
                    "NN" => (TOKENS, d_out, d_in, &x, false, &w, false),
                    "NT" => (TOKENS, d_in, d_out, &dy, false, &w, true),
                    _ => (d_in, d_out, TOKENS, &x, true, &dy, false),
                };
                let mut c = vec![f32::NAN; m * n];
                gemm_on(kernel, m, n, k, a.data(), a_trans, b.data(), b_trans, &mut c);
                for x in c {
                    h = (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, TOY48_GEMM_DIGEST, "{} kernel: got {h:#x}", kernel.name());
    }
}

/// FNV-1a over the output bits of the shapes below, captured on the
/// `avx512f` kernel.
const HEAD_AND_256_GEMM_DIGEST: u64 = 0x9f17_cc3b_d880_019a;

/// The GEMMs `toy48_gemms_hash_to_one_pinned_digest_on_every_kernel` leaves
/// out — the AdaLN head of a block (`cond: [1, 48]` times `W: [48, 288]` as
/// NN forward, NT input gradient `[1, 288]·Wᵀ` and TN weight gradient
/// `condᵀ·dY` with k = 1) — and the square 256³ of
/// `tensor.gemm_256_gflops`: one pinned digest on every supported kernel.
#[test]
fn head_and_square_gemms_hash_to_one_pinned_digest_on_every_kernel() {
    // (m, n, k, a_trans, b_trans)
    let shapes = [
        (1, 288, 48, false, false),
        (1, 48, 288, false, true),
        (48, 288, 1, true, false),
        (256, 256, 256, false, false),
    ];
    for &kernel in supported_kernels() {
        let mut rng = Rng::seed_from(2026);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (m, n, k, a_trans, b_trans) in shapes {
            let a = Tensor::randn(&[m * k], &mut rng);
            let b = Tensor::randn(&[k * n], &mut rng);
            let mut c = vec![f32::NAN; m * n];
            gemm_on(kernel, m, n, k, a.data(), a_trans, b.data(), b_trans, &mut c);
            for x in c {
                h = (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, HEAD_AND_256_GEMM_DIGEST, "{} kernel: got {h:#x}", kernel.name());
    }
}

/// On every supported kernel and layout: `k = 0` overwrites C with zeros, and
/// a zero row of A against NaN / Inf in B still yields NaN (`0·NaN`, `0·∞`) —
/// no kernel skips zero multiplicands, edge rows included.
#[test]
fn every_kernel_zero_fills_at_k_0_and_propagates_nan_through_zero_rows() {
    for &kernel in supported_kernels() {
        let empty: [&[f32]; 4] = [&[], &[], &[], &[]];
        for c in layouts_on(kernel, (9, 17, 0), empty) {
            assert!(bits(&c).iter().all(|&x| x == 0), "{}: k = 0 must give +0.0", kernel.name());
        }
        // A: [9, 2], row 8 (a lone edge row of either tile) all zero.
        let (m, n, k) = (9, 2, 2);
        let mut a = Tensor::ones(&[m, k]);
        a.data_mut()[16..].fill(0.0);
        let b = Tensor::from_vec(&[k, n], vec![1.0, f32::NAN, f32::INFINITY, 4.0]);
        let (at, bt) = (a.t(), b.t());
        for c in layouts_on(kernel, (m, n, k), [a.data(), at.data(), b.data(), bt.data()]) {
            let c = c.data();
            assert!(c[16].is_nan() && c[17].is_nan(), "{}: zero row gave {:?}", kernel.name(), &c[16..]);
            assert_eq!(c[0], f32::INFINITY, "{}: row of ones, column [1, inf]", kernel.name());
        }
    }
}
