//! Offline stand-in for `proptest`.
//!
//! Randomized property testing with the same surface syntax as proptest
//! 1.x for everything this workspace writes: the `proptest! {}` macro
//! (with optional `#![proptest_config(...)]`), `any::<T>()`, integer
//! range strategies, `Just`, `prop_map`, tuple strategies,
//! `prop_oneof!`, `collection::vec` / `collection::hash_set`, and
//! `option::of`.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case panics immediately; the harness
//!   prints the deterministic seed so the exact case can be replayed.
//! * **Deterministic by default.** Each test derives its RNG seed from
//!   its fully-qualified name, so runs are reproducible without a
//!   failure-persistence file. Set `PROPTEST_SEED=<u64>` to perturb
//!   every test's seed at once (this is what the CI seed matrix does).
//! * `prop_assert!` / `prop_assert_eq!` panic instead of returning
//!   `Err(TestCaseError)` — equivalent abort semantics for tests that
//!   never inspect the error.

#![forbid(unsafe_code)]

pub mod strategy {
    //! The [`Strategy`] trait and the combinators the workspace uses.

    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// Generates values of `Self::Value` from a seeded RNG.
    ///
    /// Unlike real proptest there is no value tree: strategies produce
    /// final values directly and nothing shrinks.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A type-erased strategy (what `prop_oneof!` arms become).
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Box a strategy (used by the `prop_oneof!` expansion, where the
    /// arms have heterogeneous concrete types).
    pub fn boxed<T, S: Strategy<Value = T> + 'static>(s: S) -> BoxedStrategy<T> {
        BoxedStrategy(Box::new(s))
    }

    /// Uniform choice among type-erased arms.
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `arms`; panics if empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    /// Always the same (cloned) value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform draw from any type with a full-range distribution.
    pub struct Any<T>(PhantomData<T>);

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized {
        /// Draw one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The `any::<T>()` entry point.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_via_gen {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t { rng.gen() }
            }
        )*};
    }
    impl_arbitrary_via_gen!(
        u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, bool, f64, f32
    );

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($($S:ident/$idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / 0);
    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7);
}

pub mod collection {
    //! Vec / HashSet strategies with size ranges.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive size band for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_incl: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max_incl: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max_incl: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                min: n,
                max_incl: n,
            }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.min..=self.max_incl)
        }
    }

    /// `Vec<T>` with a length drawn from `size`.
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
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `HashSet<T>` whose size is drawn from `size` (best-effort: if the
    /// element strategy cannot produce enough distinct values the set
    /// may come out smaller, like real proptest).
    pub fn hash_set<S>(elem: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            elem,
            size: size.into(),
        }
    }

    /// The result of [`hash_set`].
    pub struct HashSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let n = self.size.pick(rng);
            let mut out = HashSet::with_capacity(n);
            let mut attempts = 0usize;
            while out.len() < n && attempts < n * 20 + 64 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod option {
    //! The `option::of` strategy.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// `Option<T>`: `Some` with probability 1/2 (real proptest's
    /// default), `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The result of [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.5) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod test_runner {
    //! Per-test configuration and the deterministic RNG.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::hash::{Hash, Hasher};

    /// How many cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            // Real proptest defaults to 256; 64 keeps the offline suite
            // fast while still exercising the generators broadly.
            ProptestConfig { cases: 64 }
        }
    }

    /// The deterministic per-test RNG.
    pub struct TestRng {
        inner: StdRng,
        /// The seed this run started from (printed on failure).
        pub seed: u64,
    }

    impl TestRng {
        /// Seed from the fully-qualified test name, perturbed by the
        /// `PROPTEST_SEED` environment variable when set (the CI seed
        /// matrix sets it to different values per job).
        pub fn for_test(name: &str) -> TestRng {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            name.hash(&mut h);
            let mut seed = h.finish();
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(v) = s.trim().parse::<u64>() {
                    seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v;
                }
            }
            TestRng::from_seed(seed)
        }

        /// Seed directly (used to replay a reported failure).
        pub fn from_seed(seed: u64) -> TestRng {
            TestRng {
                inner: StdRng::seed_from_u64(seed),
                seed,
            }
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
        fn next_u32(&mut self) -> u32 {
            self.inner.next_u32()
        }
    }

    /// Prints the failing seed if the test panics mid-case.
    pub struct SeedReporter {
        /// Seed in use.
        pub seed: u64,
        /// Fully-qualified test name.
        pub test: &'static str,
    }

    impl Drop for SeedReporter {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "proptest (shim): property `{}` failed; deterministic seed was {} \
                     (re-run the same binary, or export PROPTEST_SEED to vary it)",
                    self.test, self.seed
                );
            }
        }
    }
}

pub mod prelude {
    //! `use proptest::prelude::*;` — the names the workspace imports.

    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define `#[test]` functions running a property over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        // Real proptest's convention: the caller writes `#[test]` inside
        // the block, so it arrives through `$meta` — adding another here
        // would register every test twice with the harness.
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let __reporter = $crate::test_runner::SeedReporter {
                seed: __rng.seed,
                test: concat!(module_path!(), "::", stringify!($name)),
            };
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
            drop(__reporter);
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::strategy::boxed($arm)),+])
    };
}

/// Assert within a property (panics; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { ::std::assert!($($tt)*) };
}

/// Assert equality within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { ::std::assert_eq!($($tt)*) };
}

/// Assert inequality within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { ::std::assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_and_maps_compose() {
        let mut rng = TestRng::from_seed(7);
        let s = (0u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v < 20 && v % 2 == 0);
        }
    }

    #[test]
    fn union_covers_all_arms() {
        let mut rng = TestRng::from_seed(11);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    #[test]
    fn collections_respect_bounds() {
        let mut rng = TestRng::from_seed(13);
        let v = crate::collection::vec(any::<u8>(), 3..6);
        let h = crate::collection::hash_set(0u32..1_000_000, 5..=5);
        for _ in 0..50 {
            let len = v.generate(&mut rng).len();
            assert!((3..6).contains(&len));
            assert_eq!(h.generate(&mut rng).len(), 5);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let a: Vec<u64> = {
            let mut r = TestRng::for_test("x::y");
            (0..8).map(|_| any::<u64>().generate(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::for_test("x::y");
            (0..8).map(|_| any::<u64>().generate(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The macro itself: patterns, multiple args, trailing comma.
        #[test]
        fn macro_smoke(mut a in 0u64..100, (b, c) in (any::<bool>(), 1usize..4),) {
            a += 1;
            prop_assert!((1..=100).contains(&a));
            prop_assert!((1..4).contains(&c));
            let not_b = !b;
            prop_assert_eq!(b, !not_b);
        }
    }
}
