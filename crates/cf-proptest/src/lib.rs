//! A minimal property-testing harness exposing the subset of the
//! `proptest` API this workspace's test suites use.
//!
//! The build environment has no access to crates.io, so the workspace
//! aliases `proptest = { package = "cf-proptest" }` to this crate. It
//! keeps proptest's *surface* — `proptest!`, strategies with
//! `prop_map`/`prop_flat_map`, `prop::collection::vec`, `any::<T>()`,
//! `Just`, `prop_oneof!`, `prop_assert*!`, `prop_assume!` — but runs
//! plain seeded random sampling: each case derives its generator from
//! the case number, so failures reproduce exactly, and there is no
//! shrinking (the failing inputs are printed instead).
//!
//! Every `pub` item mirrors a `proptest` name that the workspace's test
//! suites (directly or through this crate's macros) use.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use rand::{Rng as _, SeedableRng};

/// Per-test configuration (subset of `proptest::test_runner`'s).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
    /// Maximum rejected (assumption-failed) draws before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Default::default()
        }
    }
}

/// The generator handed to strategies.
pub struct TestRng(pub rand::StdRng);

impl TestRng {
    /// Deterministic generator for one test case.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // Mix the test name in so sibling tests draw different streams.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in test_name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        Self(rand::StdRng::seed_from_u64(
            h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }
}

/// Marker returned by [`prop_assume!`] when a case is rejected.
#[derive(Debug)]
pub struct Rejected;

/// A source of random values of one type.
///
/// Object-safe so heterogeneous strategies can be boxed by
/// [`prop_oneof!`]; combinators live in [`StrategyExt`] (blanket-implemented,
/// and re-exported under the familiar `Strategy` bound via the prelude).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// Combinators over [`Strategy`] (mirrors proptest's inherent methods).
pub trait StrategyExt: Strategy + Sized {
    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Generates a value, then samples the strategy `f` builds from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F> {
        FlatMap { inner: self, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<S: Strategy + Sized> StrategyExt for S {}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

/// See [`StrategyExt::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`StrategyExt::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted union of boxed strategies (built by [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// Builds a union; weights must sum to a positive value.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs positive total weight");
        Self { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.0.gen_range(0..self.total);
        for (w, s) in &self.arms {
            if pick < *w {
                return s.sample(rng);
            }
            pick -= w;
        }
        unreachable!("weights cover the draw")
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Values with a canonical "any" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_std {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.0.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_std!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, bool, f32, f64);

/// Strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The unconstrained strategy for `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Length specification for [`vec()`]: an exact size or a range, as in
    /// real proptest's `SizeRange`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(!r.is_empty(), "empty length range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(!r.is_empty(), "empty length range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// `vec(element, len)` — a vector of `element` draws; `len` is an
    /// exact `usize` or a (half-open or inclusive) range.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.0.gen_range(self.len.lo..self.len.hi);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Namespace alias so `prop::collection::vec` resolves.
pub mod prop {
    pub use crate::collection;
}

/// Everything a test file needs, in one import.
pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume,
        prop_oneof, proptest, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
        StrategyExt as _, TestRng,
    };
}

/// Asserts a condition inside a property (panics with the failing case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*); };
}

/// Rejects the current case when the assumption does not hold; the
/// runner draws a replacement case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::Rejected);
        }
    };
}

/// Weighted choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight, $crate::StrategyExt::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::StrategyExt::boxed($strategy))),+
        ])
    };
}

/// Declares property tests (mirrors `proptest::proptest!`).
///
/// Each declared function becomes a `#[test]` that runs
/// `config.cases` deterministic random cases; assumption failures
/// (`prop_assume!`) draw replacement cases, and assertion failures
/// panic after printing the case inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr)
        $(
            // Callers write `#[test]` themselves (matching real proptest
            // syntax); it is captured here with any other attributes and
            // re-emitted verbatim on the generated zero-arg fn.
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rejects: u32 = 0;
                let mut case: u64 = 0;
                let mut done: u32 = 0;
                while done < config.cases {
                    let mut __rng = $crate::TestRng::for_case(stringify!($name), case);
                    case += 1;
                    // Sample all inputs first so they can be reported.
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut __rng);)*
                    let outcome: ::std::result::Result<(), $crate::Rejected> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        Ok(()) => done += 1,
                        Err($crate::Rejected) => {
                            rejects += 1;
                            assert!(
                                rejects <= config.max_global_rejects,
                                "too many rejected cases ({rejects}) in {}",
                                stringify!($name)
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_sample_in_bounds() {
        let mut rng = TestRng::for_case("unit", 0);
        let s = (0usize..5, -1.0..1.0f64).prop_map(|(a, b)| (a, b));
        for _ in 0..100 {
            let (a, b) = s.sample(&mut rng);
            assert!(a < 5);
            assert!((-1.0..1.0).contains(&b));
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = TestRng::for_case("unit2", 0);
        let s = collection::vec(0u32..10, 2..6);
        for _ in 0..50 {
            let v = s.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::for_case("unit3", 0);
        let s = prop_oneof![
            2 => Just(0u8),
            1 => Just(1u8),
        ];
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn harness_runs_and_assumes(x in 0u32..100, v in collection::vec(0u32..10, 1..4)) {
            prop_assume!(x != 3);
            prop_assert!(x < 100);
            prop_assert_ne!(x, 3);
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
