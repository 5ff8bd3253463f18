//! A small, dependency-free, offline re-implementation of the subset of
//! the [`proptest`](https://docs.rs/proptest) API used by the membit
//! workspace tests.
//!
//! The build environment has no network access and no crates-io mirror,
//! so the real `proptest` cannot be resolved. This shim keeps the test
//! sources unchanged: the [`proptest!`] macro, range / tuple / collection
//! strategies, `prop_map` / `prop_flat_map` adapters and the
//! `prop_assert*` macros behave like their upstream counterparts, minus
//! shrinking — a failing case panics with the sampled inputs instead of
//! minimizing them.
//!
//! Case generation is fully deterministic: inputs are a pure function of
//! `(test path, case index)`, so failures reproduce across runs and
//! machines without regression files.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Failure raised by the `prop_assert*` macros.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Wraps a failure message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic generator driving strategy sampling (splitmix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator for one `(test path, case index)` pair.
    pub fn deterministic(test_path: &str, case: u32) -> Self {
        // FNV-1a over the test path, mixed with the case index
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A source of random values of one type.
///
/// Strategies are sampled by reference so one strategy expression serves
/// every case of a test run.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and samples
    /// the produced strategy.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// [`Strategy::prop_flat_map`] adapter.
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // full-width u64 range
                    rng.next_u64() as $t
                } else {
                    lo + rng.below(span) as $t
                }
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.next_f64() as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (hi - lo) * rng.next_f64() as $t
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

/// `Just`-style constant strategy, handy for building compound
/// strategies.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, G)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{fmt, Strategy, TestRng};

    /// Inclusive-exclusive element-count range for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy generating `Vec`s of `element` samples.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a fixed or ranged length.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo).max(1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Choice strategies (`prop::sample::select`).
pub mod sample {
    use super::{fmt, Strategy, TestRng};

    /// Strategy picking one of a fixed set of options.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone + fmt::Debug> {
        options: Vec<T>,
    }

    /// Uniformly selects one of `options` per case.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn select<T: Clone + fmt::Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    impl<T: Clone + fmt::Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// Everything the tests import via `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };

    /// Mirror of `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless `lhs == rhs`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Fails the current case unless `lhs != rhs`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(l != r, $($fmt)*);
    }};
}

/// The `proptest!` test-group macro: expands each `fn name(arg in
/// strategy, ...) { body }` item into a `#[test]` running
/// `ProptestConfig::cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $(let $arg = &$strat;)*
            for __case in 0..__config.cases {
                let mut __rng = $crate::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::Strategy::generate($arg, &mut __rng);)*
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, ",)*),
                    $(&$arg,)*
                );
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(__e) = __result {
                    panic!(
                        "proptest `{}` failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        __e,
                        __inputs,
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::deterministic("t", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let f = Strategy::generate(&(-2.0f32..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn determinism_per_case() {
        let mut a = crate::TestRng::deterministic("same", 7);
        let mut b = crate::TestRng::deterministic("same", 7);
        let s = 0u64..1000;
        assert_eq!(Strategy::generate(&s, &mut a), Strategy::generate(&s, &mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_compiles_and_runs(x in 0u32..50, v in prop::collection::vec(0.0f32..1.0, 1..5)) {
            prop_assert!(x < 50);
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x as i64 - 60, x as i64);
        }

        #[test]
        fn select_picks_from_options(k in prop::sample::select(vec!["a", "b", "c"])) {
            prop_assert!(["a", "b", "c"].contains(&k));
        }

        #[test]
        fn adapters_work(t in (1usize..4, 1usize..4).prop_flat_map(|(a, b)| {
            prop::collection::vec(0.0f32..1.0, a * b).prop_map(move |v| (a, b, v))
        })) {
            let (a, b, v) = t;
            prop_assert_eq!(v.len(), a * b);
        }
    }
}
