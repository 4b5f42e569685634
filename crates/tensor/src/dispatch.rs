//! Which build runs: the crate's one CPU detector, [`Kernel`], and its one
//! dispatch mechanism, the `dispatched!` macro.
//!
//! Every hot loop of a model evaluation — the GEMM's row blocks
//! ([`crate::gemm`]), the window-attention core ([`crate::attention`]) and
//! the row sweeps and Gaussian lanes of [`crate::sweeps`] — is a
//! `dispatched!` instance: one body built three times, portable, under
//! `#[target_feature(enable = "avx2,fma")]` and under
//! `#[target_feature(enable = "avx512f")]` (or a hand-written `avx512f`
//! build of the same bits), and picked by [`Kernel::detected`]. The pick
//! is a speed choice only: every build of a loop returns the same bits.

/// The builds of a dispatched loop, ordered by what the CPU must support:
/// each one runs wherever a later one does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// The body for any target: the only build off x86 and on CPUs without
    /// AVX2+FMA (on x86-64 the GEMM's `mul_add` is a libm `fmaf` call: slow).
    Portable,
    /// The body built with AVX2 and fused multiply-add.
    Avx2Fma,
    /// The `avx512f` build: the body at 16 f32 lanes, or a hand-written
    /// build in intrinsics (the GEMM's 8 × 48 tile, the attention core's
    /// register tiles), bit for bit what the body returns.
    Avx512,
}

impl Kernel {
    /// Every kernel, in support order.
    pub const ALL: [Kernel; 3] = [Kernel::Portable, Kernel::Avx2Fma, Kernel::Avx512];

    /// The widest kernel this CPU supports: the workspace's one runtime
    /// feature detector, read once per process. The choice is machine-global,
    /// so it can never differ between threads or between runs on one host.
    pub fn detected() -> Kernel {
        static DETECTED: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
                return if std::arch::is_x86_feature_detected!("avx512f") {
                    Kernel::Avx512
                } else {
                    Kernel::Avx2Fma
                };
            }
            Kernel::Portable
        })
    }

    /// The kernels this CPU supports, ascending from `Portable` to
    /// [`Kernel::detected`]: what the parity tests and the layer probe run.
    pub fn supported() -> &'static [Kernel] {
        &Kernel::ALL[..=Kernel::detected() as usize]
    }

    /// `"portable" | "avx2+fma" | "avx512f"`.
    pub fn name(self) -> &'static str {
        ["portable", "avx2+fma", "avx512f"][self as usize]
    }
}

/// A loop built three times from one body: the `#[inline(always)]` body
/// itself (the portable build) and the body under
/// `#[target_feature(enable = "avx2,fma")]` and under
/// `#[target_feature(enable = "avx512f")]`. `fn $on` is the entry that takes
/// the [`Kernel`] to run as its first argument — `Avx512` runs the 512-bit
/// build, `Avx2Fma` the AVX2 one, `Portable` the body — and panics on a
/// kernel this CPU does not support; `=> $name` adds the entry on
/// [`Kernel::detected`], the one the model calls. Everything the body calls
/// must be `#[inline(always)]` to be built three times too.
///
/// `avx512 = $hand` names a hand-written `#[target_feature(enable =
/// "avx512f")]` fn of the same signature, bit for bit what the body returns,
/// to run as the 512-bit build instead. The GEMM and the window-attention
/// core name one.
///
/// The pick must not change a bit, so a body may contract a multiply-add
/// (`mul_add`, an `_fmadd_` intrinsic) only if it does so in every build:
/// only the GEMM does, and its three builds fuse every multiply-add. Every
/// other body is IEEE `+ − × ÷`, `sqrt`, compares and integer bit operations
/// (no libm), and the builds' FMA is never used on them: rustc never lets
/// LLVM contract a multiply and an add written separately
/// (`scripts/surface_scan.sh` (v) lists every contraction).
macro_rules! dispatched {
    // The 512-bit build's callee: `$hand` when one is named, else the body.
    (@pick [$f:ident $($body:ident)?]) => { $f };
    (@detected [$($doc:tt)*] $vis:vis [] $on:ident ($($arg:ident: $ty:ty),*)) => {};
    (@detected [$($doc:tt)*] $vis:vis [$name:ident] $on:ident ($($arg:ident: $ty:ty),*)) => {
        $($doc)*
        ///
        #[doc = concat!("Runs the build of `Kernel::detected`: [`", stringify!($on), "`] on that kernel.")]
        #[allow(clippy::too_many_arguments)]
        $vis fn $name($($arg: $ty),*) {
            $on(crate::dispatch::Kernel::detected(), $($arg),*)
        }
    };
    ($(#[$doc:meta])* $vis:vis fn $on:ident $(=> $name:ident)? $(, avx512 = $hand:ident)?,
    ($($arg:ident: $ty:ty),*) $code:block) => {
        dispatched!(@detected [$(#[$doc])*] $vis [$($name)?] $on ($($arg: $ty),*));

        $(#[$doc])*
        ///
        /// `kernel` picks the build; panics when this CPU does not support it.
        #[allow(clippy::too_many_arguments)]
        $vis fn $on(kernel: crate::dispatch::Kernel, $($arg: $ty),*) {
            use crate::dispatch::Kernel;
            #[inline(always)]
            fn body($($arg: $ty),*) $code
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            fn avx512($($arg: $ty),*) {
                dispatched!(@pick [$($hand)? body])($($arg),*)
            }
            assert!(kernel <= Kernel::detected(), "this CPU does not support the {} kernel", kernel.name());
            #[cfg(target_arch = "x86_64")]
            match kernel {
                // SAFETY (both arms): `kernel <= Kernel::detected()`, asserted
                // above, so the CPU has the features the callee is built with.
                Kernel::Avx512 => return unsafe { avx512($($arg),*) },
                Kernel::Avx2Fma => return unsafe { avx2($($arg),*) },
                Kernel::Portable => {}
            }
            body($($arg),*)
        }
    };
}
pub(crate) use dispatched;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_kernels_ascend_from_portable_to_the_detected_one() {
        let supported = Kernel::supported();
        assert_eq!(supported.first(), Some(&Kernel::Portable));
        assert_eq!(supported.last(), Some(&Kernel::detected()));
        assert!(supported.windows(2).all(|w| w[0] < w[1]), "{supported:?}");
    }
}
