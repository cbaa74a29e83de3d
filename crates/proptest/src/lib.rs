//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build container has no network access and no crates.io registry
//! cache, so the real `proptest` cannot be resolved. This workspace-local
//! crate implements the subset of its API that the irs-sched test suites
//! actually use, with the same semantics where it matters:
//!
//! * `proptest! { ... }` with an optional `#![proptest_config(...)]`,
//!   `arg in strategy` parameters, and `prop_assert!`-style assertions
//!   that fail the case without aborting the whole process state;
//! * [`Strategy`](strategy::Strategy) with `prop_map`, integer-range
//!   strategies, tuple strategies, [`Just`](strategy::Just),
//!   `prop_oneof!`, `prop::collection::vec`, and `any::<bool>()`;
//! * deterministic input generation: each test function derives its RNG
//!   stream from its module path and name, so runs are reproducible
//!   across invocations and machines.
//!
//! Differences from real proptest: no shrinking (failures report the raw
//! inputs of the failing case instead of a minimized counterexample), no
//! persistence files, and no `PROPTEST_*` knobs beyond `PROPTEST_CASES`.

#![forbid(unsafe_code)]
#![forbid(dead_code)]

pub mod test_runner {
    /// Run-time configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each test function executes.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(256);
            ProptestConfig { cases }
        }
    }

    /// A failed `prop_assert*` inside a test case.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic SplitMix64 stream used to drive strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream from an arbitrary label (FNV-1a over the bytes),
        /// typically `module_path!() :: test_name`.
        pub fn deterministic(label: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Unbiased draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            loop {
                let x = self.next_u64();
                let m = (x as u128) * (bound as u128);
                if (m as u64) >= bound || (m as u64) >= bound.wrapping_neg() % bound {
                    return (m >> 64) as u64;
                }
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;

    /// Generates random values of an associated type. Unlike real proptest
    /// there is no value tree / shrinking: a strategy is just a seeded
    /// sampler.
    pub trait Strategy {
        type Value: Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!` to mix arms of
        /// different concrete types).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    trait DynStrategy<V> {
        fn dyn_generate(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy; see [`Strategy::boxed`].
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    impl<V: Debug> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.dyn_generate(rng)
        }
    }

    /// Uniform choice among boxed alternatives; built by `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V: Debug> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].0.dyn_generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128 - self.start as u128) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )+};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// `prop::collection::vec(element, len_range)` — a `Vec` whose length is
    /// uniform over `len_range` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
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

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        type Strategy: Strategy<Value = Self>;
        fn arbitrary() -> Self::Strategy;
    }

    /// `any::<T>()` — the canonical strategy for `T`.
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }

    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;
        fn arbitrary() -> AnyBool {
            AnyBool
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty => $any:ident),+) => {$(
            pub struct $any;
            impl Strategy for $any {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
            impl Arbitrary for $t {
                type Strategy = $any;
                fn arbitrary() -> $any { $any }
            }
        )+};
    }

    arbitrary_int!(u8 => AnyU8, u16 => AnyU16, u32 => AnyU32, u64 => AnyU64, usize => AnyUsize);
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Each function runs `config.cases` deterministic random cases; a failed
/// `prop_assert*` aborts that case and panics with the raw inputs (no
/// shrinking in this stand-in).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $config;
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__config.cases {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )+
                    let __inputs = {
                        let mut __s = ::std::string::String::new();
                        $(
                            __s.push_str("  ");
                            __s.push_str(stringify!($arg));
                            __s.push_str(" = ");
                            __s.push_str(&::std::format!("{:?}", &$arg));
                            __s.push('\n');
                        )+
                        __s
                    };
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(__e) = __result {
                        ::std::panic!(
                            "proptest case {}/{} failed: {}\nraw inputs (not shrunk):\n{}",
                            __case + 1,
                            __config.cases,
                            __e,
                            __inputs
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Like `assert!`, but fails only the current proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Like `assert_eq!`, but fails only the current proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                    __l,
                    __r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`\n  {}",
                    __l,
                    __r,
                    ::std::format!($($fmt)*)
                );
            }
        }
    };
}

/// Like `assert_ne!`, but fails only the current proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "assertion failed: `left != right`\n  both: `{:?}`",
                    __l
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "assertion failed: `left != right`\n  both: `{:?}`\n  {}",
                    __l,
                    ::std::format!($($fmt)*)
                );
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_label() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategy_respects_bounds() {
        let mut rng = TestRng::deterministic("range");
        for _ in 0..1000 {
            let v = Strategy::generate(&(10u64..20), &mut rng);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::deterministic("vec");
        for _ in 0..100 {
            let v = Strategy::generate(&prop::collection::vec(0u8..4, 1..9), &mut rng);
            assert!((1..9).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::deterministic("oneof");
        let strat = prop_oneof![Just(0u8), Just(1u8), (2u8..4).prop_map(|x| x)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[Strategy::generate(&strat, &mut rng) as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro machinery itself: params, tuples, asserts.
        #[test]
        fn macro_roundtrip(
            pairs in prop::collection::vec((0u8..4, 1u16..100), 1..20),
            flag in any::<bool>(),
        ) {
            prop_assert!(!pairs.is_empty());
            for (a, b) in &pairs {
                prop_assert!(*a < 4);
                prop_assert_ne!(*b, 0, "b is drawn from 1..100 (flag={flag})");
            }
            let doubled: Vec<u16> = pairs.iter().map(|(_, b)| b * 2).collect();
            prop_assert_eq!(doubled.len(), pairs.len());
        }
    }

    #[test]
    #[should_panic(expected = "raw inputs")]
    fn failing_case_reports_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn inner(x in 0u8..2) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        inner();
    }
}
