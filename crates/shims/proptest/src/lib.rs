//! Minimal in-tree stand-in for `proptest`.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro, [`Strategy`](strategy::Strategy) with `prop_map`,
//! range/tuple strategies, `prop::collection::vec`, `prop::sample::select`,
//! `prop::bits::u8::masked`, the `prop_assert*` macros and
//! [`ProptestConfig::with_cases`](test_runner::ProptestConfig).
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * no shrinking — a failing case reports its inputs (via the assertion
//!   message) but is not minimized;
//! * deterministic seeding — every test function runs the same case
//!   sequence on every run and host, which doubles as replay stability.

#![forbid(unsafe_code)]
// the `proptest!` doc example necessarily contains `#[test]`: the macro
// requires it on every property function
#![allow(clippy::test_attr_in_doctest)]

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use core::ops::Range;
    use rand::RngExt;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.random_range(self.clone())
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, f64);

    impl Strategy for Range<i64> {
        type Value = i64;
        fn generate(&self, rng: &mut TestRng) -> i64 {
            assert!(self.start < self.end, "empty range");
            let span = self.end.wrapping_sub(self.start) as u64;
            self.start
                .wrapping_add((rng.0.random_range(0u64..span)) as i64)
        }
    }

    impl Strategy for Range<i32> {
        type Value = i32;
        fn generate(&self, rng: &mut TestRng) -> i32 {
            assert!(self.start < self.end, "empty range");
            let span = (self.end as i64 - self.start as i64) as u64;
            (self.start as i64 + rng.0.random_range(0u64..span) as i64) as i32
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A: 0);
    tuple_strategy!(A: 0, B: 1);
    tuple_strategy!(A: 0, B: 1, C: 2);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::Range;
    use rand::RngExt;

    /// Length specification for [`vec()`]: a half-open range or an exact
    /// count.
    #[derive(Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    /// Strategy for `Vec`s whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into().0,
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.0.random_range(self.size.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling from explicit collections.

    use super::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngExt;

    /// Uniformly selects one element of a non-empty `Vec`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    /// The strategy returned by [`select`].
    #[derive(Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.0.random_range(0usize..self.options.len());
            self.options[i].clone()
        }
    }
}

pub mod bits {
    //! Bit-pattern strategies.

    /// Strategies over `u8` bit patterns.
    pub mod u8 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use rand::Rng;

        /// Uniform `u8` values restricted to the given mask.
        pub fn masked(mask: u8) -> Masked {
            Masked { mask }
        }

        /// The strategy returned by [`masked`].
        #[derive(Clone, Copy)]
        pub struct Masked {
            mask: u8,
        }

        impl Strategy for Masked {
            type Value = u8;
            fn generate(&self, rng: &mut TestRng) -> u8 {
                (rng.0.next_u64() as u8) & self.mask
            }
        }
    }
}

pub mod test_runner {
    //! Case execution machinery used by the [`proptest!`](crate::proptest)
    //! macro expansion.

    use rand::{rngs::StdRng, SeedableRng};

    /// Runner configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
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
            Self { cases: 256 }
        }
    }

    /// The RNG handed to strategies (newtype so strategy impls don't leak
    /// the underlying generator).
    pub struct TestRng(pub(crate) StdRng);

    /// Why a case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the inputs; try another case.
        Reject,
        /// An assertion failed.
        Fail(String),
    }

    /// Drives the case loop for one property function.
    pub struct TestRunner {
        rng: TestRng,
        config: ProptestConfig,
    }

    impl TestRunner {
        /// A deterministic runner: the case stream depends only on the
        /// property's name (so edits elsewhere never shift a test's cases).
        pub fn new(config: ProptestConfig, test_name: &str) -> Self {
            let mut seed = 0xC0FF_EE00_D15E_A5E5u64;
            for b in test_name.bytes() {
                seed = seed.rotate_left(8) ^ u64::from(b);
                seed = seed.wrapping_mul(0x100_0000_01B3);
            }
            Self {
                rng: TestRng(StdRng::seed_from_u64(seed)),
                config,
            }
        }

        /// Runs `body` until `cases` successes (or too many rejects).
        ///
        /// # Panics
        ///
        /// Panics when a case fails, or when rejection exhausts the
        /// attempt budget.
        pub fn run(&mut self, mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
            let mut passed = 0u32;
            let mut attempts = 0u32;
            let max_attempts = self.config.cases.saturating_mul(10).max(100);
            while passed < self.config.cases {
                attempts += 1;
                assert!(
                    attempts <= max_attempts,
                    "gave up after {attempts} attempts: too many prop_assume rejections \
                     ({passed}/{} cases passed)",
                    self.config.cases
                );
                match body(&mut self.rng) {
                    Ok(()) => passed += 1,
                    Err(TestCaseError::Reject) => {}
                    Err(TestCaseError::Fail(msg)) => {
                        panic!("proptest case {} failed: {msg}", passed + 1)
                    }
                }
            }
        }
    }
}

pub mod prelude {
    //! The glob-imported surface: `use proptest::prelude::*;`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// `prop::collection`, `prop::sample`, `prop::bits` paths.
    pub use crate as prop;
}

/// Defines property test functions.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #[test]
///     fn add_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut runner =
                    $crate::test_runner::TestRunner::new($cfg, stringify!($name));
                runner.run(|__rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)*
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::Fail(
                format!("{:?} != {:?}", left, right),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::Fail(
                format!("{:?} != {:?}: {}", left, right, format!($($fmt)+)),
            ));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "{:?} == {:?}",
                left, right
            )));
        }
    }};
}

/// Filters a case: rejected inputs are retried with fresh draws.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_maps_compose(
            x in 1u64..100,
            y in (0.0..1.0f64).prop_map(|v| v * 10.0),
            v in prop::collection::vec(0u8..4, 1..10),
            pick in prop::sample::select(vec!["a", "b"]),
            bits in prop::bits::u8::masked(0b101),
        ) {
            prop_assert!((1..100).contains(&x));
            prop_assert!((0.0..10.0).contains(&y));
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(pick == "a" || pick == "b");
            prop_assert_eq!(bits & !0b101, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn assume_rejects_without_failing(x in 0u64..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runners() {
        let mut a = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(5), "t");
        let mut b = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(5), "t");
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        a.run(|rng| {
            xs.push(crate::strategy::Strategy::generate(&(0u64..1000), rng));
            Ok(())
        });
        b.run(|rng| {
            ys.push(crate::strategy::Strategy::generate(&(0u64..1000), rng));
            Ok(())
        });
        assert_eq!(xs, ys);
    }
}
