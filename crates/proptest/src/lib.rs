//! A minimal, dependency-free shim of the [proptest](https://docs.rs/proptest)
//! API surface used by this workspace.
//!
//! The build must resolve fully offline (no registry access), so the real
//! proptest cannot be a dependency. This crate re-implements the subset the
//! property tests actually use — the `proptest!` macro, `Strategy` with
//! `prop_map`, `any::<T>()`, ranges, tuples, `Just`, `prop_oneof!`,
//! `collection::vec`, `sample::Index`, and the `prop_assert*` macros — with
//! deterministic case generation and **no shrinking**: a failing case
//! reports its generated inputs, which are reproducible because the
//! per-case RNG is seeded from the test name and case index.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Why a single generated case did not produce a verdict.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed — the case is discarded, not failed.
    Reject,
    /// `prop_assert*!` failed with this message.
    Fail(String),
}

/// Runner configuration (`cases` = generated inputs per property).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic xoshiro256** generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds via SplitMix64 so any `u64` gives a well-mixed state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform value in `[0, bound)` (Lemire multiply-shift; `bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. Unlike real proptest there is no shrinking: `Value`s
/// are produced directly from a [`TestRng`].
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<T: fmt::Debug> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Boxes a strategy (used by `prop_oneof!` to unify arm types).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Strategy returning a fixed value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    O: fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed alternative strategies (`prop_oneof!`).
/// The alternatives are shared behind an `Rc`, so the strategy itself is
/// cheaply `Clone` (tests reuse one `prop_oneof!` in several tuples).
pub struct OneOf<T> {
    options: std::rc::Rc<Vec<Box<dyn Strategy<Value = T>>>>,
}

impl<T> Clone for OneOf<T> {
    fn clone(&self) -> Self {
        Self {
            options: std::rc::Rc::clone(&self.options),
        }
    }
}

impl<T: fmt::Debug> OneOf<T> {
    /// Builds from the (non-empty) alternatives.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(
            !options.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        Self {
            options: std::rc::Rc::new(options),
        }
    }
}

impl<T: fmt::Debug> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range.
                    rng.next_u64() as $t
                } else {
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        }
    )*};
}

int_range_strategies!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.below(span) as i64) as $t
            }
        }
    )*};
}

signed_range_strategies!(i8, i16, i32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.f64() * (self.end() - self.start())
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: fmt::Debug + Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy for [`Arbitrary`] types (`any::<T>()`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// The strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.f64()
    }
}

pub mod sample {
    //! `prop::sample` subset: [`Index`].

    use super::{Arbitrary, TestRng};

    /// An index into a collection whose size is only known at use time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Maps this draw onto `[0, size)`; `size` must be nonzero.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index on empty collection");
            ((self.0 as u128 * size as u128) >> 64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

pub mod collection {
    //! `proptest::collection` subset: [`vec()`].

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod runner {
    //! The per-property case loop behind the `proptest!` macro.

    use super::{ProptestConfig, TestCaseError, TestRng};

    fn name_seed(name: &str) -> u64 {
        // FNV-1a, so each property gets an independent stream.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Runs `config.cases` generated cases of one property. `f` returns the
    /// rendered inputs plus the case verdict; failures panic with both.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut f: F)
    where
        F: FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
    {
        let seed = name_seed(name);
        let mut accepted: u32 = 0;
        let mut attempts: u64 = 0;
        let max_attempts = config.cases as u64 * 16 + 64;
        while accepted < config.cases {
            attempts += 1;
            assert!(
                attempts <= max_attempts,
                "property `{name}`: too many rejected cases ({attempts} attempts)"
            );
            let mut rng =
                TestRng::seed_from_u64(seed ^ attempts.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (inputs, verdict) = f(&mut rng);
            match verdict {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject) => continue,
                Err(TestCaseError::Fail(msg)) => panic!(
                    "property `{name}` failed at case {accepted} (attempt {attempts}):\n  {msg}\n  inputs: {inputs}"
                ),
            }
        }
    }
}

/// Declares property tests: `proptest! { #[test] fn p(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$attr:meta])*
     fn $name:ident($($param:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            $crate::runner::run(&($config), stringify!($name), |__proptest_rng| {
                $(let $param = $crate::Strategy::generate(&($strategy), __proptest_rng);)+
                let __proptest_inputs = format!(
                    concat!($(stringify!($param), " = {:?}; "),+),
                    $(&$param),+
                );
                let __proptest_verdict: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                (__proptest_inputs, __proptest_verdict)
            });
        }
        $crate::__proptest_fns!(($config) $($rest)*);
    };
}

/// Uniformly picks one of several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::boxed($strategy)),+])
    };
}

/// Asserts inside a property body (fails the case, reporting inputs).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Discards the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    //! Mirror of `proptest::prelude`.

    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Any, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::seed_from_u64(7);
        let mut b = TestRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = TestRng::seed_from_u64(1);
        for bound in [1u64, 2, 3, 17, 1 << 40] {
            for _ in 0..100 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 5u32..17, y in 0usize..=3, f in 0.25f64..=0.75) {
            prop_assert!((5..17).contains(&x));
            prop_assert!(y <= 3);
            prop_assert!((0.25..=0.75).contains(&f));
        }

        #[test]
        fn combinators_compose(
            v in prop::collection::vec(prop_oneof![Just(1u32), Just(2)], 1..8),
            idx in any::<prop::sample::Index>(),
            pair in (1u8..4, any::<bool>()).prop_map(|(n, b)| (n * 2, b))
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&e| e == 1 || e == 2));
            prop_assert!(idx.index(v.len()) < v.len());
            prop_assert!(pair.0 >= 2 && pair.0 <= 6);
        }

        #[test]
        fn assume_rejects_cleanly(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }
}
