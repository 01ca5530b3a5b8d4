//! Offline stand-in for the slice of proptest this workspace uses.
//!
//! A strategy is a pure sampler: `Strategy::sample(&mut TestRng) -> Value`.
//! The `proptest!` macro expands each property into an ordinary `#[test]`
//! that draws `cases` inputs from a generator seeded by the test's name, so
//! failures reproduce exactly across runs and machines. There is **no
//! shrinking**: a failing case reports its case index and seed instead of a
//! minimized input. Supported surface: range / tuple / `prop_map` / `Just` /
//! `prop_oneof!` / `collection::vec` / `sample::select` strategies,
//! `any::<T>()`, `num::f64::ANY`, `prop_assert*`, and
//! `#![proptest_config(ProptestConfig::with_cases(n))]`.

use std::marker::PhantomData;
use std::ops::Range;

pub mod test_runner {
    use greenness_faults::{fnv1a64, Rng};

    /// Deterministic per-test generator, seeded from the test's name.
    pub struct TestRng {
        inner: Rng,
        pub seed: u64,
    }

    impl TestRng {
        pub fn from_name(name: &str) -> TestRng {
            // FNV-1a over the test name: stable across runs and platforms.
            let seed = fnv1a64(name.as_bytes());
            TestRng {
                inner: Rng::seeded(seed),
                seed,
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }

    /// Runner configuration; only the case count is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

use test_runner::TestRng;

/// A deterministic value sampler.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// Type-erased strategy, the currency of `prop_oneof!`.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always yields a clone of the given value.
#[allow(non_snake_case)]
pub fn Just<T: Clone>(value: T) -> JustStrategy<T> {
    JustStrategy { value }
}

pub struct JustStrategy<T> {
    value: T,
}

impl<T: Clone> Strategy for JustStrategy<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.value.clone()
    }
}

/// Uniform choice among boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let idx = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[idx].sample(rng)
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + ((rng.next_u64() as u128 * span) >> 64) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize);

macro_rules! impl_range_strategy_signed {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.next_u64() as u128 * span) >> 64) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let v = self.start as f64 + unit * (self.end as f64 - self.start as f64);
                if v as $t >= self.end { self.start } else { v as $t }
            }
        }
    )*};
}
impl_range_strategy_float!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a default "anything" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Raw bit patterns: covers subnormals, infinities, and NaN, like
        // real proptest's f64 ANY.
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

pub struct AnyStrategy<T> {
    _marker: PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: PhantomData,
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    pub struct Select<T> {
        options: Vec<T>,
    }

    /// `prop::sample::select(options)` — uniform pick from a fixed set.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from an empty set");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.options[(rng.next_u64() % self.options.len() as u64) as usize].clone()
        }
    }
}

pub mod num {
    pub mod f64 {
        use crate::{Strategy, TestRng};

        pub struct AnyF64;

        /// `prop::num::f64::ANY` — arbitrary bit patterns.
        pub const ANY: AnyF64 = AnyF64;

        impl Strategy for AnyF64 {
            type Value = f64;
            fn sample(&self, rng: &mut TestRng) -> f64 {
                f64::from_bits(rng.next_u64())
            }
        }
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                let seed = rng.seed;
                for case in 0..config.cases {
                    let ($($arg,)+) =
                        ($($crate::Strategy::sample(&($strat), &mut rng),)+);
                    let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                        move || $body
                    ));
                    if let Err(payload) = outcome {
                        eprintln!(
                            "proptest shim: property '{}' failed at case {}/{} (name-seed {:#x}); \
                             re-run reproduces it deterministically",
                            stringify!($name), case + 1, config.cases, seed,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, Strategy,
    };

    /// The `prop::` module path used by test files (`prop::collection::vec`,
    /// `prop::num::f64::ANY`, `prop::sample::select`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::num;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        let s = crate::collection::vec(0u8..255, 1..20);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..17, y in -2.0..2.0f64, b in any::<bool>()) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            let _ = b;
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u8..4).prop_map(|x| x as u32),
            Just(9u32),
        ]) {
            prop_assert!(v < 4 || v == 9);
        }
    }
}
