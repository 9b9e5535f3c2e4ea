//! A property-testing harness compatible with the `proptest!` macro
//! subset used across the workspace's tests.
//!
//! Each generated test runs `ProptestConfig::cases` iterations with a
//! deterministic per-test seed (hashed from the test name), drawing every
//! argument from its [`Strategy`]. Failures reproduce exactly on re-run;
//! there is no shrinking — cases are small enough to debug directly.

use crate::rand::rngs::StdRng;
use crate::rand::{Rng, SampleUniform, Standard};

/// How many random cases each property runs.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic seed for a named property test.
pub fn seed_for(name: &str) -> u64 {
    // Any stable hash works — it only decouples sibling tests.
    crate::hash::bytes(crate::hash::OFFSET, name.as_bytes())
}

/// A value generator (the `proptest::strategy::Strategy` role).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform + Copy> Strategy for std::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

/// The `any::<T>()` strategy: the type's standard distribution.
pub struct Any<T>(std::marker::PhantomData<T>);

/// Full-domain strategy for `T`.
pub fn any<T: Standard>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Standard> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen()
    }
}

macro_rules! impl_tuple_strategy {
    ( $($s:ident/$v:ident),+ ) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A / a);
impl_tuple_strategy!(A / a, B / b);
impl_tuple_strategy!(A / a, B / b, C / c);
impl_tuple_strategy!(A / a, B / b, C / c, D / d);
impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);

/// Element-count specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { min: n, max: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        SizeRange {
            min: r.start,
            max: r.end,
        }
    }
}

/// Collection strategies (the `proptest::collection` role).
pub mod collection {
    use super::*;

    /// Strategy for `Vec<T>` with element strategy `elem` and a size in
    /// `size` (a fixed `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = if self.size.min + 1 >= self.size.max {
                self.size.min
            } else {
                rng.gen_range(self.size.min..self.size.max)
            };
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Option strategies (the `proptest::option` role).
pub mod option {
    use super::*;

    /// `Some` three times out of four (proptest's default weighting),
    /// `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The result of [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_range(0..4u32) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use super::{any, Just, ProptestConfig, Strategy};
    /// The `prop::collection::vec` / `prop::option::of` path root.
    pub use crate::proptest as prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Defines property tests: a block of `#[test] fn name(arg in strategy,
/// ...) { body }` items, optionally headed by
/// `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_cases! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_cases! { ($crate::proptest::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_cases {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::rand::SeedableRng as _;
                let config: $crate::proptest::ProptestConfig = $cfg;
                let mut rng = $crate::rand::rngs::StdRng::seed_from_u64(
                    $crate::proptest::seed_for(stringify!($name)),
                );
                for __case in 0..config.cases {
                    let ( $($pat,)* ) = (
                        $( $crate::proptest::Strategy::generate(&($strat), &mut rng), )*
                    );
                    $body
                }
            }
        )*
    };
}

/// `assert!` under the name property tests use.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` under the name property tests use.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Ranges respect their bounds.
        #[test]
        fn range_bounds(x in 3i64..12, y in 0.0f64..1.0) {
            prop_assert!((3..12).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        /// Vec strategies respect size ranges; options mix variants.
        #[test]
        fn vec_and_option(
            v in prop::collection::vec(0i64..5, 1..20),
            w in prop::collection::vec(prop::option::of(0i64..5), 8),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert_eq!(w.len(), 8);
            prop_assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }

        /// Tuple + prop_map composition works.
        #[test]
        fn mapped_tuples(pair in (0usize..4, 1usize..5).prop_map(|(a, b)| (a, a + b))) {
            prop_assert!(pair.1 > pair.0);
        }
    }

    proptest! {
        /// Default config applies when no inner attribute is given.
        #[test]
        fn default_config(_x in 0..1i32) {
            // Body runs; nothing to assert beyond not panicking.
        }
    }
}
