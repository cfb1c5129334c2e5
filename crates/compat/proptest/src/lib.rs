//! Offline stand-in for `proptest`.
//!
//! The build environment cannot reach crates.io, so this crate reimplements
//! the slice of the proptest API the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(...)]` support),
//! * [`Strategy`] with `prop_map` / `prop_flat_map`,
//! * range, tuple, [`Just`], regex-string, [`collection::vec`],
//!   [`option::of`], [`any`], and [`prop_oneof!`] strategies,
//! * `prop_assert!` / `prop_assert_eq!`.
//!
//! Failing inputs are **not shrunk** — the macro reports the case number and
//! seed, and the panic message carries the asserted values. Runs are
//! deterministic: case `i` of every test derives its RNG from a fixed base
//! seed, so failures reproduce across runs. Set `PROPTEST_CASES` to override
//! the case count globally.

use std::fmt::Debug;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub mod strategy;

pub use strategy::{Just, Strategy};

/// Configuration accepted by `#![proptest_config(...)]`.
pub mod test_runner {
    /// How many random cases each property runs.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to execute per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Applies the `PROPTEST_CASES` env override, if present.
    pub fn effective_cases(cfg: &ProptestConfig) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(cfg.cases)
    }
}

/// The RNG driving value generation.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic per (test, case) generator.
    pub fn for_case(test_seed: u64, case: u32) -> Self {
        TestRng(StdRng::seed_from_u64(
            test_seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform usize in `[0, n)`; `n` must be positive.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    /// Uniform f64 in `[lo, hi)`.
    #[inline]
    pub fn unit_range(&mut self, lo: f64, hi: f64) -> f64 {
        self.0.gen_range(lo..hi)
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// `any::<T>()` — the full-range strategy for primitives.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    /// The strategy type `any::<Self>()` returns.
    type Strategy: Strategy<Value = Self>;
    /// The full-range strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-range integer strategy backing [`any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrimitive(std::marker::PhantomData)
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyPrimitive<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyPrimitive<bool>;
    fn arbitrary() -> Self::Strategy {
        AnyPrimitive(std::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Vector lengths: a fixed size or a half-open range, as upstream.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty length range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `len`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// `vec(element, len)` — vectors of fixed or random length.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.lo + rng.below(self.len.hi_exclusive - self.len.lo);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::*;

    /// Strategy for `Option<S::Value>`.
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S>(S);

    /// `of(inner)` — `None` a quarter of the time, like upstream's default.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Runs one property over `cases` random cases. Used by [`proptest!`];
/// not public API upstream, but harmless to expose.
pub fn run_property<F: FnMut(&mut TestRng)>(
    name: &str,
    cfg: &test_runner::ProptestConfig,
    mut body: F,
) {
    let cases = test_runner::effective_cases(cfg);
    // Stable per-test seed: hash of the test name.
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x1000_0000_01b3);
    }
    for case in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = TestRng::for_case(seed, case);
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!(
                "proptest: property `{name}` failed at case {case}/{cases} \
                 (seed {seed:#x}; no shrinking in the offline stand-in)"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Defines property tests. Supports the upstream surface this workspace
/// uses: an optional leading `#![proptest_config(...)]`, doc comments, and
/// `fn name(pattern in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`] items.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    // `#[test]` comes through `$(#[$meta])*` — the caller writes it, as
    // upstream proptest expects.
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let __strats = ($($strat,)+);
            $crate::run_property(stringify!($name), &__cfg, |__rng| {
                let ($($pat,)+) =
                    $crate::strategy::Strategy::generate(&__strats, __rng);
                $body
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `prop_assert!` — plain assertion (no shrinking to report).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `prop_assert_eq!` — plain equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `prop_oneof![a, b, c]` — picks one of the listed strategies per case.
/// All arms must be the same strategy type (true for this workspace, which
/// unions `Just` values and one generator called with different ranges).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($strat),+])
    };
}

/// Runtime support for assertions carrying Debug context.
pub fn debug_panic_context<T: Debug>(value: &T) -> String {
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tuple + range + vec + regex strategies produce in-range values.
        #[test]
        fn strategies_compose(
            (n, xs) in (2usize..10).prop_flat_map(|n| {
                (Just(n), crate::collection::vec(0u32..(n as u32), 1..20))
            }),
            s in "[a-z]{2,5}",
            o in crate::option::of(1u8..4),
        ) {
            prop_assert!((2..10).contains(&n));
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            for &x in &xs {
                prop_assert!((x as usize) < n);
            }
            prop_assert!((2..=5).contains(&s.len()));
            prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
            if let Some(v) = o {
                prop_assert!((1..4).contains(&v));
            }
        }

        /// prop_oneof picks among the arms.
        #[test]
        fn oneof_picks_arms(v in prop_oneof![Just(1), Just(2), Just(3)]) {
            prop_assert!((1..=3).contains(&v));
        }

        /// prop_map transforms values.
        #[test]
        fn map_applies(v in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ProptestConfig::with_cases(8);
        let collect = || {
            let mut out = Vec::new();
            crate::run_property("det", &cfg, |rng| out.push(rng.next_u64()));
            out
        };
        assert_eq!(collect(), collect());
    }
}
