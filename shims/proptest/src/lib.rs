//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property tests
//! use: the `proptest!` macro, range and collection strategies, `prop_map`,
//! `prop_assert!`/`prop_assert_eq!`, and `ProptestConfig::with_cases`.
//!
//! Inputs are drawn from a SplitMix64 stream seeded by the test's module
//! path, name, and case index, so every run of a given test binary explores
//! the identical input sequence — failures reproduce without a regression
//! file. No shrinking: the failing case prints its index, and re-running
//! deterministically regenerates the same values.

#![forbid(unsafe_code)]

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of test inputs.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values (proptest's `prop_map`).
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always produces a clone of one value (proptest's `Just`).
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    signed_range_strategy!(i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            self.start + rng.next_f64() as f32 * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// `Vec` of exactly `len` draws from `element` (the workspace only uses
    /// fixed sizes; proptest's `SizeRange` generality is not needed).
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform boolean strategy (`proptest::bool::ANY`).
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod test_runner {
    /// Per-test configuration; only `cases` is meaningful here.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// SplitMix64 input stream; seeded from the test identity and case
    /// index so runs are reproducible without persisted state.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_case(test_id: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in test_id.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h ^= (case as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let mut rng = TestRng { state: h };
            let _ = rng.next_u64(); // decorrelate nearby seeds
            rng
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Assertion macros: plain panics (no shrinking pass to feed a `Result` to).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// The `proptest!` test-block macro: each `fn name(arg in strategy, ...)`
/// becomes a `#[test]` that runs `cases` deterministic draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let test_id = concat!(module_path!(), "::", stringify!($name));
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(test_id, case);
                    $(let $arg =
                        $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    let run = || -> () { $body };
                    if let Err(payload) =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                    {
                        eprintln!(
                            "proptest case {case}/{} of {test_id} failed \
                             (deterministic; rerun reproduces it)",
                            config.cases
                        );
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..200 {
            let x = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let f = (-2.0f32..4.5).generate(&mut rng);
            assert!((-2.0..4.5).contains(&f));
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let a: Vec<u64> =
            (0..5).map(|_| TestRng::for_case("t", 7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            TestRng::for_case("t", 7).next_u64(),
            TestRng::for_case("t", 8).next_u64()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_generates_inputs(
            n in 1usize..10,
            xs in crate::collection::vec(0.0f32..1.0, 4),
            flag in crate::bool::ANY,
        ) {
            prop_assert!((1..10).contains(&n));
            prop_assert_eq!(xs.len(), 4);
            prop_assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
            let _ = flag;
        }
    }
}
