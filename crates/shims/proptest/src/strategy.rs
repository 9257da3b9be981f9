//! Strategy combinators for the proptest shim: how test-case values are
//! generated. No shrinking — strategies are plain samplers.

use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use crate::TestRng;

/// A generator of random values of type `Self::Value`.
///
/// Mirrors `proptest::strategy::Strategy` minus shrinking: `generate`
/// replaces the value-tree machinery.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Sample one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Build recursive values: `depth` levels of `branch` applied over
    /// this leaf strategy. The `_max_size` / `_items_per_level` hints of
    /// real proptest are accepted and ignored.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _max_size: u32,
        _items_per_level: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            // each level: mostly leaves, sometimes one more branch level
            cur = OneOf::new(vec![(2, leaf.clone()), (1, branch(cur).boxed())]).boxed();
        }
        cur
    }

    /// Type-erase into a cloneable, heap-allocated strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
    }
}

/// A cloneable type-erased strategy (`Strategy::boxed`).
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` combinator.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Weighted choice among boxed strategies (`prop_oneof!`).
pub struct OneOf<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Clone for OneOf<T> {
    fn clone(&self) -> Self {
        OneOf {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<T> OneOf<T> {
    /// Build from `(weight, strategy)` arms; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
        let total = arms.iter().map(|(w, _)| *w).sum::<u32>().max(1);
        OneOf { arms, total }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(u64::from(self.total)) as u32;
        for (w, s) in &self.arms {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= w;
        }
        self.arms
            .last()
            .expect("OneOf has at least one arm")
            .1
            .generate(rng)
    }
}

// --- primitive strategies ---

/// Full-range integer strategy returned by `any::<int>()`.
#[derive(Debug, Clone, Copy)]
pub struct AnyInt<T>(pub PhantomData<T>);

/// Coin-flip strategy returned by `any::<bool>()`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for AnyInt<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_strategies!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.f64() as f32) * (self.end - self.start)
    }
}

// --- tuples ---

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

// --- string patterns ---

/// String literals act as simplified-regex strategies, like in real
/// proptest. Supported: literal chars, escapes, `[...]` classes with
/// ranges, `\PC` (any printable char), `{n}` / `{n,m}` repetition.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_pattern(self, rng)
    }
}

impl Strategy for String {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_pattern(self, rng)
    }
}

#[derive(Debug, Clone)]
enum Atom {
    /// A fixed character.
    Lit(char),
    /// A character class (explicit alternatives).
    Class(Vec<(char, char)>),
    /// `\PC`: any printable (non-control) character.
    Printable,
}

fn sample_atom(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::Lit(c) => *c,
        Atom::Class(ranges) => {
            let total: u64 = ranges
                .iter()
                .map(|(a, b)| (*b as u64) - (*a as u64) + 1)
                .sum();
            let mut pick = rng.below(total.max(1));
            for (a, b) in ranges {
                let span = (*b as u64) - (*a as u64) + 1;
                if pick < span {
                    return char::from_u32(*a as u32 + pick as u32).unwrap_or(*a);
                }
                pick -= span;
            }
            ranges.first().map(|(a, _)| *a).unwrap_or('?')
        }
        Atom::Printable => {
            // mostly ASCII printable, occasionally a multi-byte char
            if rng.below(8) == 0 {
                ['ä', '€', 'λ', '中', '🙂'][rng.below(5) as usize]
            } else {
                char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap_or(' ')
            }
        }
    }
}

fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let (atom, next) = parse_atom(&chars, i, pattern);
        i = next;
        // optional repetition
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|c| *c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed {{}} in pattern {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse::<usize>().unwrap_or(0),
                    b.trim().parse::<usize>().unwrap_or(0),
                ),
                None => {
                    let n = body.trim().parse::<usize>().unwrap_or(1);
                    (n, n)
                }
            }
        } else if i < chars.len() && (chars[i] == '*' || chars[i] == '+' || chars[i] == '?') {
            let q = chars[i];
            i += 1;
            match q {
                '*' => (0, 8),
                '+' => (1, 8),
                _ => (0, 1),
            }
        } else {
            (1, 1)
        };
        let n = if hi > lo {
            lo + rng.below((hi - lo + 1) as u64) as usize
        } else {
            lo
        };
        for _ in 0..n {
            out.push(sample_atom(&atom, rng));
        }
    }
    out
}

/// Parse one atom starting at `chars[i]`; returns the atom and the index
/// after it.
fn parse_atom(chars: &[char], i: usize, pattern: &str) -> (Atom, usize) {
    match chars[i] {
        '[' => {
            let mut ranges = Vec::new();
            let mut j = i + 1;
            while j < chars.len() && chars[j] != ']' {
                let c = if chars[j] == '\\' {
                    j += 1;
                    unescape(chars.get(j).copied().unwrap_or('\\'))
                } else {
                    chars[j]
                };
                // range `a-z` (a `-` just before `]` is a literal)
                if j + 2 < chars.len() && chars[j + 1] == '-' && chars[j + 2] != ']' {
                    let hi = if chars[j + 2] == '\\' {
                        j += 1;
                        unescape(chars.get(j + 2).copied().unwrap_or('\\'))
                    } else {
                        chars[j + 2]
                    };
                    ranges.push((c, hi));
                    j += 3;
                } else {
                    ranges.push((c, c));
                    j += 1;
                }
            }
            assert!(j < chars.len(), "unclosed [..] in pattern {pattern:?}");
            (Atom::Class(ranges), j + 1)
        }
        '\\' => {
            let next = chars.get(i + 1).copied().unwrap_or('\\');
            if next == 'P' && chars.get(i + 2) == Some(&'C') {
                (Atom::Printable, i + 3)
            } else {
                (Atom::Lit(unescape(next)), i + 2)
            }
        }
        '.' => (Atom::Printable, i + 1),
        c => (Atom::Lit(c), i + 1),
    }
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        other => other,
    }
}

// --- collections ---

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::*;
    use std::collections::BTreeMap;

    /// `vec(element, len_range)` — a vector with length drawn from the
    /// range.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Vector strategy returned by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `btree_map(key, value, len_range)` — a map with size drawn from
    /// the range (duplicate keys are retried a bounded number of times).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        len: Range<usize>,
    ) -> BTreeMapStrategy<K, V> {
        BTreeMapStrategy { key, value, len }
    }

    /// Map strategy returned by [`btree_map`].
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        len: Range<usize>,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.len.clone().generate(rng);
            let mut out = BTreeMap::new();
            let mut attempts = 0;
            while out.len() < n && attempts < n * 10 + 10 {
                out.insert(self.key.generate(rng), self.value.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}
