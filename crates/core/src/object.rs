//! [`Object`]: the payload of [`Value::Object`].
//!
//! A document is read far more often than it is built, and almost always
//! by name: `o.customer`, `o.total`. An `Object` therefore keeps its
//! fields as **one key-sorted, duplicate-free vector of (name, value)
//! pairs** — one allocation per object, 56 bytes per field. A name is the
//! one shared, interned copy of it, or — when it is long, or the interner
//! is full — the object's own string (see [`crate::symbol`]), so the
//! records of a collection do not each carry their own copy of the same
//! names. Lookup by `&str` probes linearly (length first, then bytes) up
//! to eight fields and binary-searches above; lookup by a [`Symbol`]
//! compares pointers instead. Insertion keeps the order, with a push fast
//! path for keys that arrive sorted; bulk construction ([`FromIterator`],
//! [`Extend`]) sorts once and keeps the last value of a repeated key, as
//! inserting one by one would.
//!
//! Everything observable — iteration order, `Eq`, the canonical order and
//! hash [`Value`] defines over objects — is a function of the sorted
//! sequence of name strings and values, so it is exactly what a
//! `BTreeMap<String, Value>` would give.

use std::fmt;

use crate::symbol::Symbol;
use crate::value::Value;

/// Up to this many fields a lookup is a linear probe; above, a binary
/// search. At eight fields the whole probe stays within a few cache lines
/// and mispredicts less than the search does.
const LINEAR_MAX: usize = 8;

/// A key-sorted, duplicate-free field list with a map-like surface.
///
/// ```
/// use udbms_core::{Object, Value};
///
/// // bulk construction sorts once; a repeated key keeps its last value
/// let mut o: Object = [("b", 2), ("a", 1), ("b", 3)]
///     .into_iter()
///     .map(|(k, v)| (k.to_string(), Value::Int(v)))
///     .collect();
/// assert_eq!(o.get("b"), Some(&Value::Int(3)));
/// o.insert("0".into(), Value::Null);
/// *o.entry("n".into()).or_insert(Value::Int(0)) = Value::Int(7);
/// let names: Vec<&str> = o.keys().map(String::as_str).collect();
/// assert_eq!(names, ["0", "a", "b", "n"]);
/// assert_eq!(o.remove("a"), Some(Value::Int(1)));
/// assert_eq!(Value::Object(o).to_string(), r#"{"0":null,"b":3,"n":7}"#);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Object {
    /// Strictly increasing by name.
    fields: Vec<(Symbol, Value)>,
}

impl Object {
    /// Empty object (allocates nothing).
    pub fn new() -> Object {
        Object::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Where `key` is (`Ok`) or would be inserted (`Err`).
    fn search(&self, key: &str) -> Result<usize, usize> {
        self.fields.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Index of `key`, if present — the read-side lookup.
    fn position(&self, key: &str) -> Option<usize> {
        if self.fields.len() <= LINEAR_MAX {
            self.fields.iter().position(|(k, _)| k.as_str() == key)
        } else {
            self.search(key).ok()
        }
    }

    /// The value of field `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).map(|i| &self.fields[i].1)
    }

    /// The value of field `name`: [`Object::get`], but an interned name
    /// is found by pointer compare.
    pub fn get_symbol(&self, name: &Symbol) -> Option<&Value> {
        if self.fields.len() <= LINEAR_MAX {
            self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
        } else {
            self.get(name.as_str())
        }
    }

    /// Mutable access to field `key`.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.position(key).map(|i| &mut self.fields[i].1)
    }

    /// Whether field `key` exists.
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// Where `key` is (`Ok`) or would be inserted (`Err`), with a fast
    /// path for a key past the last.
    fn slot(&self, key: &str) -> Result<usize, usize> {
        match self.fields.last() {
            Some((last, _)) if last.as_str() >= key => self.search(key),
            _ => Err(self.fields.len()),
        }
    }

    /// Set field `key`, returning the value it replaced.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.slot(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.fields[i].1, value)),
            Err(i) => {
                self.fields.insert(i, (Symbol::from(key), value));
                None
            }
        }
    }

    /// Remove field `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.position(key).map(|i| self.fields.remove(i).1)
    }

    /// The slot of `key`, for insert-if-absent.
    pub fn entry(&mut self, key: String) -> Entry<'_> {
        let slot = self.search(&key);
        Entry {
            object: self,
            key,
            slot,
        }
    }

    /// Fields in name order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.fields.iter())
    }

    /// Field names in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &String> + ExactSizeIterator {
        self.fields.iter().map(|(k, _)| k.as_string())
    }

    /// Field values in name order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> + ExactSizeIterator {
        self.fields.iter().map(|(_, v)| v)
    }

    /// Keep only the fields `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&String, &mut Value) -> bool) {
        self.fields.retain_mut(|(k, v)| keep(k.as_string(), v));
    }

    /// Deep-merge `other` into `self`, moving its names (see
    /// [`Value::merge_from`]).
    pub(crate) fn merge_from(&mut self, other: Object) {
        for (name, v) in other.fields {
            match self.slot(name.as_str()) {
                Ok(i) => self.fields[i].1.merge_from(v),
                Err(i) => self.fields.insert(i, (name, v)),
            }
        }
    }

    /// Heap bytes the fields cost beyond their slots (see
    /// [`Value::deep_size`]): a shared name costs nothing.
    pub(crate) fn deep_size(&self) -> usize {
        (self.fields.iter())
            .map(|(k, v)| k.inline_bytes() + v.deep_size())
            .sum()
    }

    /// Restore the invariant after fields were appended from position
    /// `sorted` on: one stable sort, later duplicates win.
    fn normalize(&mut self, sorted: usize) {
        let tail_in_order = self.fields[sorted.saturating_sub(1)..]
            .windows(2)
            .all(|w| w[0].0.as_str() < w[1].0.as_str());
        if tail_in_order {
            return;
        }
        self.fields.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        self.fields.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
    }
}

impl fmt::Debug for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A field that is present or can be inserted in place; see
/// [`Object::entry`].
pub struct Entry<'a> {
    object: &'a mut Object,
    key: String,
    slot: Result<usize, usize>,
}

impl<'a> Entry<'a> {
    /// The field's value, inserting `default` if it was absent.
    pub fn or_insert(self, default: Value) -> &'a mut Value {
        self.or_insert_with(|| default)
    }

    /// The field's value, inserting `default()` if it was absent.
    pub fn or_insert_with(self, default: impl FnOnce() -> Value) -> &'a mut Value {
        let i = match self.slot {
            Ok(i) => i,
            Err(i) => {
                let name = Symbol::from(self.key);
                self.object.fields.insert(i, (name, default()));
                i
            }
        };
        &mut self.object.fields[i].1
    }
}

/// Borrowing iterator over an [`Object`]'s fields in name order.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (Symbol, Value)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a String, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.as_string(), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, v)| (k.as_string(), v))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Object {
    type Item = (&'a String, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Owning iterator over an [`Object`]'s fields in name order; a shared
/// name is copied out.
#[derive(Debug)]
pub struct IntoIter(std::vec::IntoIter<(Symbol, Value)>);

impl Iterator for IntoIter {
    type Item = (String, Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.into_string(), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for IntoIter {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, v)| (k.into_string(), v))
    }
}

impl ExactSizeIterator for IntoIter {}

impl IntoIterator for Object {
    type Item = (String, Value);
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter(self.fields.into_iter())
    }
}

impl FromIterator<(String, Value)> for Object {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Object {
        (iter.into_iter())
            .map(|(k, v)| (Symbol::from(k), v))
            .collect()
    }
}

impl FromIterator<(Symbol, Value)> for Object {
    /// Sorted once, the last of a repeated name kept; a `Vec`'s pairs
    /// become the object's without a copy.
    fn from_iter<I: IntoIterator<Item = (Symbol, Value)>>(iter: I) -> Object {
        let mut object = Object {
            fields: iter.into_iter().collect(),
        };
        object.normalize(0);
        object
    }
}

impl Extend<(String, Value)> for Object {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        let sorted = self.fields.len();
        let named = iter.into_iter().map(|(k, v)| (Symbol::from(k), v));
        self.fields.extend(named);
        self.normalize(sorted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;
    use std::hash::{Hash, Hasher};

    type Model = BTreeMap<String, Value>;

    /// The next layout change is a decision, not an accident.
    #[test]
    fn layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
        assert_eq!(std::mem::size_of::<Symbol>(), 24);
        assert_eq!(std::mem::size_of::<(Symbol, Value)>(), 56);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(String, Value),
        Remove(String),
        GetMut(String, Value),
        EntryOrInsert(String, Value),
        Extend(Vec<(String, Value)>),
        /// `FromIterator` of symbols.
        FromSymbols(Vec<(String, Value)>),
        /// `Value::merge_from` of an object of these fields.
        MergeFrom(Vec<(String, Value)>),
        /// Keep the fields whose value is not a multiple of this.
        Retain(i64),
        FromIter(Vec<(String, Value)>),
    }

    /// A prefix that makes a name too long to intern.
    fn long(name: &str) -> String {
        format!("{}{name}", "L".repeat(70))
    }

    /// Twenty short names and the same twenty made long, so sequences
    /// collide, objects mix shared and inline names, and they grow past
    /// the linear-probe threshold and shrink back under it.
    fn name() -> impl Strategy<Value = String> {
        ("[a-e][xyz]?", 0u8..4).prop_map(|(n, l)| if l == 0 { long(&n) } else { n })
    }

    fn pairs() -> impl Strategy<Value = Vec<(String, Value)>> {
        prop::collection::vec((name(), (0i64..50).prop_map(Value::Int)), 0..24)
    }

    fn op() -> impl Strategy<Value = Op> {
        (0usize..11, name(), 0i64..50, pairs(), 2i64..5).prop_map(|(kind, k, v, pairs, m)| {
            let v = Value::Int(v);
            match kind {
                0..=2 => Op::Insert(k, v),
                3 => Op::Remove(k),
                4 => Op::GetMut(k, v),
                5 => Op::EntryOrInsert(k, v),
                6 => Op::Extend(pairs),
                7 => Op::Retain(m),
                8 => Op::FromSymbols(pairs),
                9 => Op::MergeFrom(pairs),
                _ => Op::FromIter(pairs),
            }
        })
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// What `Value::hash` fed a hasher when objects were `BTreeMap`s.
    fn model_hash(m: &Model) -> u64 {
        let mut h = DefaultHasher::new();
        h.write_u8(6);
        h.write_usize(m.len());
        for (k, v) in m {
            k.hash(&mut h);
            v.hash(&mut h);
        }
        h.finish()
    }

    fn apply(op: Op, object: &mut Object, model: &mut Model) -> TestCaseResult {
        match op {
            Op::Insert(k, v) => {
                prop_assert_eq!(object.insert(k.clone(), v.clone()), model.insert(k, v));
            }
            Op::Remove(k) => prop_assert_eq!(object.remove(&k), model.remove(&k)),
            Op::GetMut(k, v) => {
                prop_assert_eq!(object.get_mut(&k).is_some(), model.contains_key(&k));
                if let (Some(a), Some(b)) = (object.get_mut(&k), model.get_mut(&k)) {
                    *a = v.clone();
                    *b = v;
                }
            }
            Op::EntryOrInsert(k, v) => {
                let a = object.entry(k.clone()).or_insert(v.clone()).clone();
                let b = model.entry(k).or_insert(v).clone();
                prop_assert_eq!(a, b);
            }
            Op::Extend(pairs) => {
                object.extend(pairs.clone());
                model.extend(pairs);
            }
            Op::FromSymbols(pairs) => {
                let symbols = pairs.iter().map(|(k, v)| (Symbol::new(k), v.clone()));
                *object = symbols.collect();
                *model = pairs.into_iter().collect();
            }
            Op::MergeFrom(pairs) => {
                let mut merged = Value::Object(std::mem::take(object));
                merged.merge_from(Value::Object(pairs.iter().cloned().collect()));
                *object = merged.as_object().unwrap().clone();
                model.extend(pairs);
            }
            Op::Retain(m) => {
                let keep = |v: &Value| v.as_int().is_some_and(|i| i % m != 0);
                object.retain(|_, v| keep(v));
                model.retain(|_, v| keep(v));
            }
            Op::FromIter(pairs) => {
                *object = pairs.iter().cloned().collect();
                *model = pairs.into_iter().collect();
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn object_behaves_like_a_btreemap(
            ops in prop::collection::vec(op(), 1..40),
            third in pairs(),
        ) {
            let third_model: Model = third.iter().cloned().collect();
            let third = Value::Object(third.into_iter().collect());
            let (mut object, mut model) = (Object::new(), Model::new());
            for op in ops {
                apply(op.clone(), &mut object, &mut model)?;
                // contents and order
                prop_assert_eq!(object.len(), model.len(), "after {:?}", op);
                prop_assert_eq!(object.is_empty(), model.is_empty());
                prop_assert!(object.iter().eq(model.iter()), "{:?} vs {:?} after {:?}", object, model, op);
                prop_assert!(object.keys().eq(model.keys()));
                prop_assert!(object.values().eq(model.values()));
                prop_assert!(object.iter().rev().eq(model.iter().rev()));
                prop_assert!(object.clone().into_iter().eq(model.clone()));
                prop_assert_eq!(format!("{object:?}"), format!("{model:?}"));
                for first in 'a'..='f' {
                    for tail in ["", "x", "y", "z", "q"] {
                        let short = format!("{first}{tail}");
                        for k in [long(&short), short] {
                            prop_assert_eq!(object.get(&k), model.get(&k), "get {}", k);
                            prop_assert_eq!(object.contains_key(&k), model.contains_key(&k));
                            prop_assert_eq!(object.get_symbol(&Symbol::new(&k)), model.get(&k));
                            if let Some(interned) = Symbol::lookup(&k) {
                                prop_assert_eq!(object.get_symbol(&interned), model.get(&k));
                            }
                        }
                    }
                }
                // as values: equal to the model's, ordered and hashed as it was
                let b = Value::Object(model.clone().into_iter().collect());
                let a = Value::Object(object.clone());
                prop_assert_eq!(a.canonical_cmp(&b), Ordering::Equal);
                prop_assert!(a == b);
                prop_assert_eq!(hash_of(&a), model_hash(&model));
                prop_assert_eq!(hash_of(&a), hash_of(&b));
                prop_assert_eq!(a.canonical_cmp(&third), model.cmp(&third_model));
                prop_assert_eq!(third.canonical_cmp(&a), third_model.cmp(&model));
                prop_assert_eq!(a == third, model == third_model);
            }
        }
    }

    #[test]
    fn bulk_construction_sorts_once_and_last_wins() {
        let pairs = |ks: &[(&str, i64)]| -> Vec<(String, Value)> {
            ks.iter()
                .map(|(k, v)| (k.to_string(), Value::Int(*v)))
                .collect()
        };
        let o: Object = pairs(&[("b", 1), ("a", 2), ("b", 3), ("a", 4), ("c", 5)])
            .into_iter()
            .collect();
        assert_eq!(
            o.into_iter().collect::<Vec<_>>(),
            pairs(&[("a", 4), ("b", 3), ("c", 5)])
        );
        // extending with keys below, equal to and above the existing ones
        let mut o: Object = pairs(&[("m", 1)]).into_iter().collect();
        o.extend(pairs(&[("z", 2), ("a", 3), ("m", 4), ("z", 5)]));
        assert_eq!(
            o.into_iter().collect::<Vec<_>>(),
            pairs(&[("a", 3), ("m", 4), ("z", 5)])
        );
    }
}
