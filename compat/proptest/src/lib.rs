//! Vendored std-only subset of the `proptest` API.
//!
//! The build environment has no crates.io access, so this crate provides
//! the slice the property suite uses: [`Strategy`] (ranges, [`Just`],
//! [`prop_map`](Strategy::prop_map), `prop_oneof!`), [`any`],
//! [`collection::vec`], the `proptest!` test-defining macro, and
//! `prop_assert!` / `prop_assert_eq!`. Cases are generated from a
//! deterministic per-test seed (FNV-1a of the test name, XOR
//! `PROPTEST_SEED`); `PROPTEST_CASES` (default 64) controls the case
//! count. There is no shrinking. A failing case panics with the assert's
//! message, and on the way out its [`CaseGuard`] prints the test name, the
//! case index and the `PROPTEST_SEED` / `PROPTEST_CASES` values that
//! replay it.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-test random source handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// Creates the generator for one named test.
    pub fn for_test(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h ^ seed()))
    }
}

/// The run-wide seed mixed into every test's generator (`PROPTEST_SEED`,
/// default 0).
fn seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// Number of cases each property runs (`PROPTEST_CASES`, default 64).
pub fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(64)
}

/// Names one case of a property while it runs. `proptest!` holds one per
/// case; if the case panics, dropping the guard during the unwind prints
/// the test name, the case index and the `PROPTEST_SEED` /
/// `PROPTEST_CASES` that replay it to stderr, and the panic carries on.
pub struct CaseGuard {
    test: &'static str,
    case: usize,
}

impl CaseGuard {
    /// Guards case `case` (0-based) of the property `test`.
    pub fn new(test: &'static str, case: usize) -> CaseGuard {
        CaseGuard { test, case }
    }

    /// The failure report. Cases are drawn in order from one generator,
    /// so the same seed and at least `case + 1` cases reach the same
    /// inputs.
    fn message(&self) -> String {
        format!(
            "proptest: {} failed at case {}; replay with PROPTEST_SEED={} PROPTEST_CASES={}",
            self.test,
            self.case,
            seed(),
            cases()
        )
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.message());
        }
    }
}

/// A generator of values for one property argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> PropMap<Self, F>
    where
        Self: Sized,
    {
        PropMap { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            sample: Box::new(move |rng| self.sample(rng)),
        }
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct PropMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for PropMap<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    sample: Box<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.sample)(rng)
    }
}

/// A uniform choice between boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.0.gen_range(0..self.arms.len());
        self.arms[i].sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.0.gen()
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.0.gen::<u64>() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy produced by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Rng, Strategy, TestRng};

    /// Length bounds for collection strategies (half-open internally).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        start: usize,
        end: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                start: r.start,
                end: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                start: *r.start(),
                end: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                start: n,
                end: n + 1,
            }
        }
    }

    /// Strategy for `Vec<T>` with a length drawn from a [`SizeRange`].
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// `Vec` of values from `element`, length within `len`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.0.gen_range(self.len.start..self.len.end);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, Strategy};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts within a property (no shrinking: panics immediately).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident ( $($p:pat in $s:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut __rng = $crate::TestRng::for_test(stringify!($name));
            for __case in 0..$crate::cases() {
                let __guard = $crate::CaseGuard::new(stringify!($name), __case);
                $(let $p = $crate::Strategy::sample(&($s), &mut __rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn parity() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), (1u32..5).prop_map(|x| x * 2)]
    }

    proptest! {
        #[test]
        fn ranges_and_vecs_behave(
            x in 0.5f64..2.0,
            n in 1usize..10,
            v in crate::collection::vec(0u8..4, 2..6),
            even in parity(),
        ) {
            prop_assert!((0.5..2.0).contains(&x));
            prop_assert!((1..10).contains(&n));
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&b| b < 4));
            prop_assert_eq!(even % 2, 0);
        }
    }

    #[test]
    fn any_bool_draws_both_values() {
        let mut rng = crate::TestRng::for_test("any_bool_draws_both_values");
        let draws: Vec<bool> = (0..64).map(|_| any::<bool>().sample(&mut rng)).collect();
        assert!(draws.contains(&true) && draws.contains(&false), "{draws:?}");
    }

    proptest! {
        fn never_holds(x in 0u32..10) {
            prop_assert!(x > 100, "x = {}", x);
        }
    }

    #[test]
    fn a_failing_case_is_named_and_still_panics() {
        let guard = crate::CaseGuard::new("never_holds", 0);
        assert_eq!(
            guard.message(),
            format!(
                "proptest: never_holds failed at case 0; replay with PROPTEST_SEED={} \
                 PROPTEST_CASES={}",
                crate::seed(),
                crate::cases()
            )
        );
        assert!(std::panic::catch_unwind(never_holds).is_err());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::for_test("t");
        let mut b = crate::TestRng::for_test("t");
        let s = 0u64..1000;
        for _ in 0..50 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }
}
