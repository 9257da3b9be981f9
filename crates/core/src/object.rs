//! [`Object`]: the payload of [`Value::Object`].
//!
//! A document is read far more often than it is built, almost always by
//! name (`o.customer`, `o.total`), and the records of a collection mostly
//! share one key set. An `Object` whose names are all interned (see
//! [`crate::symbol`]) is therefore stored as a **shape plus values**: a
//! pointer to the one shared, sorted key list of exactly its fields (see
//! [`crate::shape`]) and a dense slice of their values, 32 bytes per
//! field and one allocation per object. Every other object — one with a
//! name stored inline, more than 32 fields, or a key list the shape
//! interner refused at its cap — keeps a key-sorted, duplicate-free
//! vector of (name, value) pairs behind one box: the loose form, 56 bytes
//! per field. Since names and key lists are both interned always or
//! never, an object's form is a function of its key list.
//!
//! Lookup by a [`Symbol`] in a shaped object compares pointers along the
//! shared key list and reads one value; lookup by `&str` probes linearly
//! (length first, then bytes) up to eight fields and binary-searches
//! above. A write to an existing field replaces the value in place; a
//! write that changes the key set moves the object to the new list's
//! shape, or to the loose form. Bulk construction ([`FromIterator`],
//! [`Extend`]) sorts once and keeps the last value of a repeated key, as
//! inserting one by one would; an iterator of known length of at most 32
//! interned names builds the values' slice directly, with the names kept
//! on the stack until the shape is found.
//!
//! Everything observable — iteration order, `Eq`, the canonical order and
//! hash [`Value`] defines over objects — is a function of the sorted
//! sequence of name strings and values, so it is exactly what a
//! `BTreeMap<String, Value>` would give, whichever form holds the fields.

use std::fmt;

use crate::shape::{self, Shape, MAX_FIELDS, UNNAMED};
use crate::symbol::Symbol;
use crate::value::Value;

/// Up to this many fields a lookup by `&str` is a linear probe; above, a
/// binary search. At eight fields the whole probe stays within a few
/// cache lines and mispredicts less than the search does.
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
#[derive(Clone)]
pub struct Object(Repr);

/// The two forms of an object (see the module docs). Both are in name
/// order; `Shaped` holds exactly when the key list may be shaped.
#[derive(Clone)]
enum Repr {
    /// The shared key list and one value per key.
    Shaped(&'static Shape, Box<[Value]>),
    /// Strictly increasing by name.
    #[expect(
        clippy::box_collection,
        reason = "a bare Vec would make every Object 32 bytes, and every Value 40"
    )]
    Loose(Box<Vec<(Symbol, Value)>>),
}

impl Default for Object {
    /// Empty object (allocates nothing).
    fn default() -> Object {
        Object(Repr::Shaped(&shape::EMPTY, Box::default()))
    }
}

impl Object {
    /// Empty object (allocates nothing).
    pub fn new() -> Object {
        Object::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Shaped(_, values) => values.len(),
            Repr::Loose(fields) => fields.len(),
        }
    }

    /// True when there are no fields.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An object of sorted, distinct `fields`, shaped when it may be.
    fn from_sorted(fields: Vec<(Symbol, Value)>) -> Object {
        match shape::intern_names(fields.iter().map(|(k, _)| k.interned())) {
            Some(shape) => Object(Repr::Shaped(
                shape,
                fields.into_iter().map(|(_, v)| v).collect(),
            )),
            None => Object(Repr::Loose(Box::new(fields))),
        }
    }

    /// An object of `fields` in any order, the last of a repeated name
    /// kept.
    fn from_pairs(mut fields: Vec<(Symbol, Value)>) -> Object {
        normalize(&mut fields, 0);
        Object::from_sorted(fields)
    }

    /// The fields as sorted pairs, leaving `self` empty.
    fn take_sorted(&mut self) -> Vec<(Symbol, Value)> {
        match std::mem::take(self).0 {
            Repr::Shaped(shape, values) => (shape.keys().iter())
                .map(|&k| Symbol::interned_from(k))
                .zip(values.into_vec())
                .collect(),
            Repr::Loose(fields) => *fields,
        }
    }

    /// The name of field `i`.
    fn key(&self, i: usize) -> &String {
        match &self.0 {
            Repr::Shaped(shape, _) => shape.keys()[i],
            Repr::Loose(fields) => fields[i].0.as_string(),
        }
    }

    /// The value of field `i`.
    fn value_mut(&mut self, i: usize) -> &mut Value {
        match &mut self.0 {
            Repr::Shaped(_, values) => &mut values[i],
            Repr::Loose(fields) => &mut fields[i].1,
        }
    }

    /// Where `key` is (`Ok`) or would be inserted (`Err`).
    fn search(&self, key: &str) -> Result<usize, usize> {
        match &self.0 {
            Repr::Shaped(shape, _) => shape.keys().binary_search_by(|k| k.as_str().cmp(key)),
            Repr::Loose(fields) => fields.binary_search_by(|(k, _)| k.as_str().cmp(key)),
        }
    }

    /// Index of `key`, if present — the read-side lookup.
    fn position(&self, key: &str) -> Option<usize> {
        if self.len() > LINEAR_MAX {
            return self.search(key).ok();
        }
        match &self.0 {
            Repr::Shaped(shape, _) => shape.keys().iter().position(|k| k.as_str() == key),
            Repr::Loose(fields) => fields.iter().position(|(k, _)| k.as_str() == key),
        }
    }

    /// The value of field `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let i = self.position(key)?;
        Some(match &self.0 {
            Repr::Shaped(_, values) => &values[i],
            Repr::Loose(fields) => &fields[i].1,
        })
    }

    /// The value of field `name`: [`Object::get`], but an interned name
    /// is found by pointer compare.
    pub fn get_symbol(&self, name: &Symbol) -> Option<&Value> {
        match &self.0 {
            Repr::Shaped(shape, values) => {
                // a shaped object holds interned names only
                let name = name.interned()?;
                let i = shape.keys().iter().position(|k| std::ptr::eq(*k, name))?;
                values.get(i)
            }
            Repr::Loose(fields) if fields.len() <= LINEAR_MAX => {
                fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
            }
            Repr::Loose(_) => self.get(name.as_str()),
        }
    }

    /// Mutable access to field `key`.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.position(key).map(|i| self.value_mut(i))
    }

    /// Whether field `key` exists.
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// Where `key` is (`Ok`) or would be inserted (`Err`), with a fast
    /// path for a key past the last.
    fn slot(&self, key: &str) -> Result<usize, usize> {
        match self.len() {
            n if n > 0 && self.key(n - 1).as_str() >= key => self.search(key),
            n => Err(n),
        }
    }

    /// Add field `name`, which is absent and sorts at `i`: the object
    /// moves to the new key list's shape, or to the loose form. A shaped
    /// object interns the new list from its shape's pointers and moves
    /// its values once, as does [`Object::remove`]; through the general
    /// path, mmbench's `point_rw` (whose puts add a field) read p99 1.14×.
    fn insert_at(&mut self, i: usize, name: Symbol, value: Value) {
        if let (Repr::Shaped(shape, values), Some(new)) = (&mut self.0, name.interned()) {
            let keys = shape.keys();
            let grown = keys[..i].iter().chain([&new]).chain(&keys[i..]);
            if let Some(next) = shape::intern_names(grown.map(|&k| Some(k))) {
                let mut old = std::mem::take(values).into_vec().into_iter();
                let mut moved = Vec::with_capacity(old.len() + 1);
                moved.extend(old.by_ref().take(i));
                moved.push(value);
                moved.extend(old);
                self.0 = Repr::Shaped(next, moved.into_boxed_slice());
                return;
            }
        }
        let mut fields = self.take_sorted();
        fields.insert(i, (name, value));
        *self = Object::from_sorted(fields);
    }

    /// Set field `key`, returning the value it replaced.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.slot(&key) {
            Ok(i) => Some(std::mem::replace(self.value_mut(i), value)),
            Err(i) => {
                self.insert_at(i, Symbol::from(key), value);
                None
            }
        }
    }

    /// Remove field `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.position(key)?;
        if let Repr::Shaped(shape, values) = &mut self.0 {
            let keys = shape.keys();
            let rest = keys[..i].iter().chain(&keys[i + 1..]);
            if let Some(next) = shape::intern_names(rest.map(|&k| Some(k))) {
                let mut kept = std::mem::take(values).into_vec();
                let value = kept.remove(i);
                self.0 = Repr::Shaped(next, kept.into_boxed_slice());
                return Some(value);
            }
        }
        let mut fields = self.take_sorted();
        let (_, value) = fields.remove(i);
        *self = Object::from_sorted(fields);
        Some(value)
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
        Iter(match &self.0 {
            Repr::Shaped(shape, values) => Fields::Shaped(shape.keys().iter().zip(values.iter())),
            Repr::Loose(fields) => Fields::Loose(fields.iter()),
        })
    }

    /// Field names in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &String> + ExactSizeIterator {
        self.iter().map(|(k, _)| k)
    }

    /// Field values in name order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> + ExactSizeIterator {
        self.iter().map(|(_, v)| v)
    }

    /// Keep only the fields `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&String, &mut Value) -> bool) {
        let mut fields = self.take_sorted();
        fields.retain_mut(|(k, v)| keep(k.as_string(), v));
        *self = Object::from_sorted(fields);
    }

    /// Deep-merge `other` into `self`, moving its names (see
    /// [`Value::merge_from`]). A field both have merges in place.
    pub(crate) fn merge_from(&mut self, other: Object) {
        for (name, v) in other.into_symbols() {
            match self.slot(name.as_str()) {
                Ok(i) => self.value_mut(i).merge_from(v),
                Err(i) => self.insert_at(i, name, v),
            }
        }
    }

    /// Whether both objects hold the same shape, hence the same names.
    #[cfg(test)]
    pub(crate) fn same_shape(&self, other: &Object) -> bool {
        matches!((&self.0, &other.0), (Repr::Shaped(a, _), Repr::Shaped(b, _)) if std::ptr::eq(*a, *b))
    }

    /// Heap bytes the fields cost beyond their slots (see
    /// [`Value::deep_size`]): a name in a shape or the interner costs
    /// nothing, an inline one its capacity.
    pub(crate) fn deep_size(&self) -> usize {
        match &self.0 {
            Repr::Shaped(_, values) => values.iter().map(Value::deep_size).sum(),
            Repr::Loose(fields) => (fields.iter())
                .map(|(k, v)| k.inline_bytes() + v.deep_size())
                .sum(),
        }
    }

    /// The fields as owned pairs, names as symbols.
    fn into_symbols(self) -> Pairs {
        match self.0 {
            Repr::Shaped(shape, values) => {
                Pairs::Shaped(shape.keys().iter(), values.into_vec().into_iter())
            }
            Repr::Loose(fields) => Pairs::Loose(fields.into_iter()),
        }
    }
}

/// Restore the pairs' order after fields were appended from position
/// `sorted` on: one stable sort, later duplicates win.
fn normalize(fields: &mut Vec<(Symbol, Value)>, sorted: usize) {
    let tail_in_order = fields[sorted.saturating_sub(1)..]
        .windows(2)
        .all(|w| w[0].0.as_str() < w[1].0.as_str());
    if tail_in_order {
        return;
    }
    fields.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
    fields.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

/// Sort interned `names` and their `values` together — a stable
/// insertion sort, for at most [`MAX_FIELDS`] of them — and drop all but
/// the last of a repeated name; returns how many are left.
fn normalize_columns(names: &mut [&'static String], values: &mut Vec<Value>) -> usize {
    if names.windows(2).all(|w| w[0].as_str() < w[1].as_str()) {
        return names.len();
    }
    for i in 1..names.len() {
        let mut j = i;
        while j > 0 && names[j - 1].as_str() > names[j].as_str() {
            names.swap(j - 1, j);
            values.swap(j - 1, j);
            j -= 1;
        }
    }
    let mut kept = 0;
    for i in 0..names.len() {
        if i + 1 < names.len() && std::ptr::eq(names[i], names[i + 1]) {
            continue;
        }
        names.swap(kept, i);
        values.swap(kept, i);
        kept += 1;
    }
    values.truncate(kept);
    kept
}

impl PartialEq for Object {
    fn eq(&self, other: &Object) -> bool {
        match (&self.0, &other.0) {
            // one shape per key list: another shape, other names
            (Repr::Shaped(a, x), Repr::Shaped(b, y)) => std::ptr::eq(*a, *b) && x == y,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Object {}

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
                self.object.insert_at(i, Symbol::from(self.key), default());
                i
            }
        };
        self.object.value_mut(i)
    }
}

/// The fields of either form, borrowed in name order.
#[derive(Debug, Clone)]
enum Fields<'a> {
    Shaped(std::iter::Zip<std::slice::Iter<'static, &'static String>, std::slice::Iter<'a, Value>>),
    Loose(std::slice::Iter<'a, (Symbol, Value)>),
}

/// Borrowing iterator over an [`Object`]'s fields in name order.
#[derive(Debug, Clone)]
pub struct Iter<'a>(Fields<'a>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a String, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Fields::Shaped(it) => it.next().map(|(k, v)| (*k, v)),
            Fields::Loose(it) => it.next().map(|(k, v)| (k.as_string(), v)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Fields::Shaped(it) => it.size_hint(),
            Fields::Loose(it) => it.size_hint(),
        }
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Fields::Shaped(it) => it.next_back().map(|(k, v)| (*k, v)),
            Fields::Loose(it) => it.next_back().map(|(k, v)| (k.as_string(), v)),
        }
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

/// The fields of either form, owned, in name order.
#[derive(Debug)]
enum Pairs {
    Shaped(
        std::slice::Iter<'static, &'static String>,
        std::vec::IntoIter<Value>,
    ),
    Loose(std::vec::IntoIter<(Symbol, Value)>),
}

impl Iterator for Pairs {
    type Item = (Symbol, Value);

    fn next(&mut self) -> Option<(Symbol, Value)> {
        match self {
            Pairs::Shaped(keys, values) => {
                Some((Symbol::interned_from(keys.next()?), values.next()?))
            }
            Pairs::Loose(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Pairs::Shaped(_, values) => values.size_hint(),
            Pairs::Loose(it) => it.size_hint(),
        }
    }
}

impl DoubleEndedIterator for Pairs {
    fn next_back(&mut self) -> Option<(Symbol, Value)> {
        match self {
            Pairs::Shaped(keys, values) => Some((
                Symbol::interned_from(keys.next_back()?),
                values.next_back()?,
            )),
            Pairs::Loose(it) => it.next_back(),
        }
    }
}

/// Owning iterator over an [`Object`]'s fields in name order; a shared
/// name is copied out.
#[derive(Debug)]
pub struct IntoIter(Pairs);

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
        IntoIter(self.into_symbols())
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
    /// Sorted once, the last of a repeated name kept. While the names are
    /// interned and few, they wait on the stack and the values go
    /// straight into the object's slice, allocated once when the
    /// iterator's length is known; otherwise the pairs are collected and
    /// sorted as the loose form.
    fn from_iter<I: IntoIterator<Item = (Symbol, Value)>>(iter: I) -> Object {
        let mut iter = iter.into_iter();
        let expected = match iter.size_hint() {
            (_, Some(upper)) if upper <= MAX_FIELDS => upper,
            (lower, _) => lower,
        };
        if expected > MAX_FIELDS {
            return Object::from_pairs(iter.collect());
        }
        let mut names = [&UNNAMED; MAX_FIELDS];
        let mut values = Vec::with_capacity(expected);
        while let Some((name, value)) = iter.next() {
            match (name.interned(), names.get_mut(values.len())) {
                (Some(interned), Some(slot)) => {
                    *slot = interned;
                    values.push(value);
                }
                _ => {
                    let n = values.len();
                    let mut fields = Vec::with_capacity(expected.max(n + 1));
                    let known = names[..n].iter().map(|&k| Symbol::interned_from(k));
                    fields.extend(known.zip(values));
                    fields.push((name, value));
                    fields.extend(iter);
                    return Object::from_pairs(fields);
                }
            }
        }
        let n = values.len();
        let n = normalize_columns(&mut names[..n], &mut values);
        match shape::intern(&names[..n]) {
            Some(shape) => Object(Repr::Shaped(shape, values.into_boxed_slice())),
            None => {
                let names = names[..n].iter().map(|&k| Symbol::interned_from(k));
                Object(Repr::Loose(Box::new(names.zip(values).collect())))
            }
        }
    }
}

impl Extend<(String, Value)> for Object {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        let mut fields = self.take_sorted();
        let sorted = fields.len();
        fields.extend(iter.into_iter().map(|(k, v)| (Symbol::from(k), v)));
        normalize(&mut fields, sorted);
        *self = Object::from_sorted(fields);
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
        assert_eq!(std::mem::size_of::<Object>(), 24);
        assert_eq!(std::mem::size_of::<Symbol>(), 24);
        // a loose field
        assert_eq!(std::mem::size_of::<(Symbol, Value)>(), 56);
    }

    fn is_shaped(object: &Object) -> bool {
        matches!(object.0, Repr::Shaped(..))
    }

    /// The same fields in the loose form, whatever their names.
    fn loosened(object: &Object) -> Object {
        Object(Repr::Loose(Box::new(object.clone().take_sorted())))
    }

    /// Whether an object with `object`'s names is shaped, by the
    /// interners' say.
    fn may_be_shaped(object: &Object) -> bool {
        let names = object.keys().map(|k| Symbol::lookup(k)?.interned());
        shape::intern_names(names).is_some()
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
            // the same operations on an object that starts loose
            let (mut twin, mut twin_model) = (loosened(&object), Model::new());
            for op in ops {
                apply(op.clone(), &mut object, &mut model)?;
                apply(op.clone(), &mut twin, &mut twin_model)?;
                prop_assert!(twin.iter().eq(model.iter()), "loose start: {:?} after {:?}", twin, op);
                // the form follows from the names
                prop_assert_eq!(is_shaped(&object), may_be_shaped(&object), "{:?}", object);
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
                // a shaped and a loose object of the same fields are one value
                let loose = Value::Object(loosened(&object));
                prop_assert!(a == loose);
                prop_assert!(loose == a);
                prop_assert_eq!(a.canonical_cmp(&loose), Ordering::Equal);
                prop_assert_eq!(hash_of(&loose), hash_of(&a));
                prop_assert_eq!(loose.canonical_cmp(&third), model.cmp(&third_model));
                prop_assert_eq!(third.canonical_cmp(&loose), third_model.cmp(&model));
                prop_assert_eq!(loose == third, model == third_model);
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

    #[test]
    fn field_count_and_inline_names_decide_the_form() {
        let field = |i: usize| (format!("form_{i:02}"), Value::Int(i as i64));
        // as wide as a shape goes, in reverse order: sorted and shaped
        let mut o: Object = (0..MAX_FIELDS).rev().map(field).collect();
        assert!(is_shaped(&o));
        assert!(o.keys().eq((0..MAX_FIELDS)
            .map(|i| field(i).0)
            .collect::<Vec<_>>()
            .iter()));
        // one more field is loose; taking one away shapes it again
        o.insert(field(MAX_FIELDS).0, Value::Null);
        assert!(!is_shaped(&o));
        assert_eq!(o.remove(&field(0).0), Some(Value::Int(0)));
        assert!(is_shaped(&o));
        // and so does building one past the width from an iterator of
        // unknown length
        let wide: Object = (0..=MAX_FIELDS).map(field).filter(|_| true).collect();
        assert!(!is_shaped(&wide));
        // a name too long to intern makes its object loose until it goes
        let long = "l".repeat(80);
        let mut o = Object::new();
        o.insert("short".into(), Value::Int(1));
        assert!(is_shaped(&o));
        o.insert(long.clone(), Value::Int(2));
        assert!(!is_shaped(&o));
        assert_eq!(o.get_symbol(&Symbol::new(&long)), Some(&Value::Int(2)));
        o.remove(&long);
        assert!(is_shaped(&o));
        // objects with the same names share one shape
        let a: Object = [field(1), field(2)].into_iter().collect();
        let b: Object = [field(2), field(1), field(2)].into_iter().collect();
        assert!(a.same_shape(&b) && a == b);
        assert!(std::ptr::eq(
            a.keys().next().unwrap(),
            b.keys().next().unwrap()
        ));
    }
}
