//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate vendors the
//! subset of the proptest API the workspace's property tests use:
//!
//! - the [`Strategy`] trait with `prop_map` / `prop_filter` / `prop_flat_map`
//! - [`Just`], [`any`], integer-range strategies, tuple strategies, and a
//!   regex-lite string strategy (`"[a-z]{1,8}"` character-class form)
//! - `prop::collection::{vec, btree_set}`
//! - the `proptest!`, `prop_oneof!`, `prop_assert*!`, and `prop_assume!`
//!   macros, plus [`ProptestConfig`]
//! - replay of `*.proptest-regressions` seed files before novel cases
//!
//! There is no shrinking: a failing case reports its seed so it can be
//! replayed by appending a `cc <seed>` line to the regression file.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

// ------------------------------------------------------------------ errors

/// Why a test case did not pass: a genuine failure or a rejected input.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    Fail(String),
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Generation-time rejection (e.g. a filter that never passed).
#[derive(Debug, Clone)]
pub struct Reject(pub String);

// -------------------------------------------------------------------- rng

/// The RNG handed to strategies while generating one test case.
pub struct TestRng(StdRng);

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.0.gen_range(0..n)
        }
    }
}

// --------------------------------------------------------------- strategy

/// A generator of values of one type. Unlike upstream proptest there is no
/// value tree / shrinking; `generate` either yields a value or rejects.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Reject>;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_filter<R, F>(self, whence: R, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        R: Into<String>,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, whence: whence.into(), pred }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// A heap-allocated, type-erased strategy (what `prop_oneof!` arms become).
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Result<T, Reject> {
        (**self).generate(rng)
    }
}

#[doc(hidden)]
pub fn __boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
    Box::new(s)
}

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

    fn generate(&self, rng: &mut TestRng) -> Result<O, Reject> {
        self.inner.generate(rng).map(&self.f)
    }
}

pub struct Filter<S, F> {
    inner: S,
    whence: String,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Result<S::Value, Reject> {
        for _ in 0..100 {
            let v = self.inner.generate(rng)?;
            if (self.pred)(&v) {
                return Ok(v);
            }
        }
        Err(Reject(format!("filter never satisfied: {}", self.whence)))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> Result<T::Value, Reject> {
        let first = self.inner.generate(rng)?;
        (self.f)(first).generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> Result<T, Reject> {
        Ok(self.0.clone())
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Result<T, Reject> {
        let i = rng.below(self.options.len());
        self.options[i].generate(rng)
    }
}

// ------------------------------------------------------------ `any::<T>()`

/// Types with a canonical full-domain strategy (upstream: `Arbitrary`).
pub trait ArbValue: Sized {
    fn arb(rng: &mut TestRng) -> Self;
}

impl ArbValue for bool {
    fn arb(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arb_int {
    ($($t:ty),*) => {$(
        impl ArbValue for $t {
            fn arb(rng: &mut TestRng) -> Self {
                // Mix edge cases in: zero, extremes, and small values show up
                // far more often than a uniform draw would give them.
                match rng.below(8) {
                    0 => 0 as $t,
                    1 => <$t>::MAX,
                    2 => <$t>::MIN,
                    3 => (rng.next_u64() % 16) as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

impl_arb_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl ArbValue for f64 {
    fn arb(rng: &mut TestRng) -> Self {
        // Like upstream's default `any::<f64>()` domain: zeros, subnormals,
        // and normal values of either sign — no NaN, no infinities.
        match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 2.0,
            3 => {
                let finite = f64::from_bits(rng.next_u64());
                if finite.is_finite() {
                    finite
                } else {
                    f64::MAX
                }
            }
            _ => {
                // A "normal looking" value.
                let m = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let exp = (rng.next_u64() % 40) as i32 - 20;
                let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
                sign * m * 10f64.powi(exp)
            }
        }
    }
}

pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: ArbValue> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Result<T, Reject> {
        Ok(T::arb(rng))
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: ArbValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ----------------------------------------------------------------- ranges

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Result<$t, Reject> {
                if self.start >= self.end {
                    return Err(Reject(format!("empty range {:?}", self)));
                }
                Ok(rng.0.gen_range(self.start..self.end))
            }
        }
    )*};
}

impl_range_strategy!(i64, u64, i32, u32, usize, u16, u8, i8);

// ----------------------------------------------------------------- tuples

macro_rules! impl_tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Reject> {
                let ($($name,)*) = self;
                Ok(($($name.generate(rng)?,)*))
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

// ----------------------------------------------------- regex-lite strings

/// `&str` as a strategy: a regex-lite pattern over character classes.
///
/// Supported syntax — the subset the workspace's tests use, i.e. sequences
/// of atoms with counted repetition:
///
/// - `[abc]`, `[a-z0-9 ]` character classes (no negation)
/// - literal characters
/// - `{n}`, `{m,n}`, `?`, `*`, `+` repetition (unbounded capped at 8)
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> Result<String, Reject> {
        let atoms =
            parse_pattern(self).map_err(|e| Reject(format!("bad pattern {self:?}: {e}")))?;
        let mut out = String::new();
        for (chars, lo, hi) in &atoms {
            let n = if lo == hi { *lo } else { *lo + rng.below(hi - lo + 1) };
            for _ in 0..n {
                out.push(chars[rng.below(chars.len())]);
            }
        }
        Ok(out)
    }
}

type Atom = (Vec<char>, usize, usize);

fn parse_pattern(pat: &str) -> Result<Vec<Atom>, String> {
    let chars: Vec<char> = pat.chars().collect();
    let mut i = 0;
    let mut atoms = Vec::new();
    while i < chars.len() {
        let class = if chars[i] == '[' {
            let close = chars[i..].iter().position(|&c| c == ']').ok_or("unclosed class")? + i;
            let mut set = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                    if lo > hi {
                        return Err("reversed class range".into());
                    }
                    for c in lo..=hi {
                        set.push(char::from_u32(c).ok_or("bad range char")?);
                    }
                    j += 3;
                } else {
                    set.push(chars[j]);
                    j += 1;
                }
            }
            if set.is_empty() {
                return Err("empty class".into());
            }
            i = close + 1;
            set
        } else if chars[i] == '\\' && i + 1 < chars.len() {
            i += 2;
            vec![chars[i - 1]]
        } else {
            i += 1;
            vec![chars[i - 1]]
        };
        // Optional repetition suffix.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..].iter().position(|&c| c == '}').ok_or("unclosed repetition")? + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            if let Some((a, b)) = body.split_once(',') {
                (
                    a.trim().parse().map_err(|_| "bad repeat lower bound")?,
                    b.trim().parse().map_err(|_| "bad repeat upper bound")?,
                )
            } else {
                let n = body.trim().parse().map_err(|_| "bad repeat count")?;
                (n, n)
            }
        } else if i < chars.len() && chars[i] == '?' {
            i += 1;
            (0, 1)
        } else if i < chars.len() && chars[i] == '*' {
            i += 1;
            (0, 8)
        } else if i < chars.len() && chars[i] == '+' {
            i += 1;
            (1, 8)
        } else {
            (1, 1)
        };
        if lo > hi {
            return Err("reversed repetition".into());
        }
        atoms.push((class, lo, hi));
    }
    Ok(atoms)
}

// ------------------------------------------------------------ collections

pub mod collection {
    use super::{Reject, Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Result<Vec<S::Value>, Reject> {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let n = self.size.start + rng.below(span);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `prop::collection::btree_set(element, len_range)`. Best-effort: if the
    /// element domain is too small to reach the sampled size, a smaller set
    /// is produced (matching upstream's behavior under rejection limits).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Result<BTreeSet<S::Value>, Reject> {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let target = self.size.start + rng.below(span);
            let mut out = BTreeSet::new();
            let mut tries = 0;
            while out.len() < target && tries < target * 20 + 20 {
                out.insert(self.element.generate(rng)?);
                tries += 1;
            }
            if out.len() < self.size.start {
                return Err(Reject("btree_set: domain exhausted".into()));
            }
            Ok(out)
        }
    }
}

/// The `prop::` module path used by `prop::collection::vec(...)` call sites.
pub mod prop {
    pub use crate::collection;
}

// ----------------------------------------------------------------- runner

/// Runner configuration; `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases =
            std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256);
        ProptestConfig { cases, max_global_rejects: 65_536 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases, ..Default::default() }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Parse `cc <token>` lines from a `*.proptest-regressions` file into replay
/// seeds. Upstream's tokens are 256-bit hex blobs; we fold whatever we find
/// down to a u64 so recorded failures keep replaying first, forever.
fn regression_seeds(source_file: &str) -> Vec<u64> {
    let path = std::path::Path::new(source_file).with_extension("proptest-regressions");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            let rest = line.strip_prefix("cc ")?;
            let token = rest.split_whitespace().next()?;
            Some(token.parse::<u64>().unwrap_or_else(|_| fnv1a(token.as_bytes())))
        })
        .collect()
}

/// Drive one property: replay regression seeds, then run `config.cases`
/// novel cases. Rejected cases (assume/filter) are retried with fresh seeds
/// up to `max_global_rejects`. Panics (with the seed) on the first failure.
pub fn run_proptest<F>(config: ProptestConfig, source_file: &str, test_name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or_else(|_| fnv1a(s.as_bytes())),
        Err(_) => fnv1a(test_name.as_bytes()),
    };
    let replay = regression_seeds(source_file);
    let mut rejects = 0u32;
    let mut run_one = |seed: u64, label: &str| {
        let mut rng = TestRng::from_seed(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        match outcome {
            Ok(Ok(())) => true,
            Ok(Err(TestCaseError::Reject(_))) => false,
            Ok(Err(TestCaseError::Fail(msg))) => panic!(
                "proptest '{test_name}' failed ({label}, seed={seed}): {msg}\n\
                 replay with: PROPTEST_SEED={seed} PROPTEST_CASES=1 cargo test {test_name}"
            ),
            Err(payload) => {
                eprintln!(
                    "proptest '{test_name}' panicked ({label}, seed={seed}); \
                     replay with: PROPTEST_SEED={seed} PROPTEST_CASES=1 cargo test {test_name}"
                );
                std::panic::resume_unwind(payload);
            }
        }
    };
    for (i, &seed) in replay.iter().enumerate() {
        // Regression replays that reject (e.g. an assume) are simply skipped.
        run_one(seed, &format!("regression #{i}"));
    }
    let mut completed = 0u32;
    let mut next = 0u64;
    while completed < config.cases {
        let seed = base.wrapping_add(next.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        next += 1;
        if run_one(seed, &format!("case #{completed}")) {
            completed += 1;
        } else {
            rejects += 1;
            if rejects > config.max_global_rejects {
                panic!(
                    "proptest '{test_name}': too many rejected inputs \
                     ({rejects} rejects for {completed}/{} cases)",
                    config.cases
                );
            }
        }
    }
}

// ----------------------------------------------------------------- macros

/// Declare property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` driven by [`run_proptest`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $($(#[$meta:meta])+ fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_proptest(config, file!(), stringify!($name), |__rng| {
                    $(
                        let $pat = match $crate::Strategy::generate(&($strat), __rng) {
                            Ok(v) => v,
                            Err(r) => return Err($crate::TestCaseError::Reject(r.0)),
                        };
                    )*
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::__boxed($strat)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {:?} == {:?}: {}", a, b, format!($($fmt)*)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: {:?} != {:?}: {}", a, b, format!($($fmt)*)
        );
    }};
}

/// Discard this case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(concat!(
                "assume failed: ",
                stringify!($cond)
            )));
        }
    };
}

pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume,
        prop_oneof, proptest, Any, ArbValue, BoxedStrategy, Just, OneOf, ProptestConfig, Reject,
        Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn regex_lite_classes() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{1,8}", &mut rng).unwrap();
            assert!((1..=8).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = Strategy::generate(&"[ab%_]{0,8}", &mut rng).unwrap();
            assert!(t.len() <= 8);
            assert!(t.chars().all(|c| "ab%_".contains(c)));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![Just(1), Just(2), Just(3)];
        let mut rng = TestRng::from_seed(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(strat.generate(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn collections_respect_bounds() {
        let mut rng = TestRng::from_seed(5);
        for _ in 0..100 {
            let v = collection::vec(0i64..10, 1..6).generate(&mut rng).unwrap();
            assert!((1..6).contains(&v.len()));
            let s =
                collection::btree_set((0usize..4, 0usize..4), 0..10).generate(&mut rng).unwrap();
            assert!(s.len() <= 16); // domain has only 16 distinct tuples
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_smoke(a in 0i64..100, (x, y) in (0usize..4, 0usize..4)) {
            prop_assume!(a != 13);
            prop_assert!(a < 100);
            prop_assert_eq!(x + y, y + x);
            prop_assert_ne!(a, 13);
        }
    }
}
