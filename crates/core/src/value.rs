//! The unified multi-model value.
//!
//! [`Value`] is the single representation every model facade stores into
//! the integrated backend: relational rows are objects keyed by column
//! name, JSON documents map 1:1, key-value payloads are any value, graph
//! vertices/edges carry a property object, and XML trees are bridged
//! through a canonical object encoding (see `udbms-xml`).
//!
//! # Ordering, equality and hashing
//!
//! Multi-model queries compare values of *different* types (e.g. a filter
//! over a schemaless document collection), so `Value` defines a **total
//! canonical order** modelled after multi-model query languages such as
//! AQL:
//!
//! ```text
//! Null < Bool < Number (Int and Float compared numerically) < Str
//!      < Bytes < Array (lexicographic) < Object (sorted key/value pairs)
//! ```
//!
//! An object *is* its sorted key/value pairs: [`Object`] stores them as
//! one key-sorted slice, so two objects built in different insertion
//! orders are the same value, iterate alike and print alike.
//!
//! `Eq`/`Ord`/`Hash` are mutually consistent: `Int(2) == Float(2.0)`, they
//! compare `Equal`, and they hash identically. `NaN` is normalized to a
//! single value that sorts after every other float and equals itself, so
//! the order is total and `Value` can be used as a `BTreeMap`/`HashMap`
//! key.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::object::Object;
use crate::path::{FieldPath, PathStep};

/// A dynamically-typed value in the unified multi-model data model.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Absence of a value. Also what failed path lookups evaluate to.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// IEEE-754 double. `NaN` is admitted but normalized for comparisons.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes (key-value payloads, binary columns).
    Bytes(Vec<u8>),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Key-sorted mapping; the canonical form of documents and rows.
    Object(Object),
}

/// Rank of each type in the canonical total order.
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Bytes(_) => 4,
        Value::Array(_) => 5,
        Value::Object(_) => 6,
    }
}

/// `2^63`: the first float above every `i64` (`i64::MAX as f64` rounds up
/// to it, so range checks must compare against it strictly).
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// The `i64` a float is exactly equal to, if there is one — the single
/// definition of "this `Float` is the same number as an `Int`" that both
/// [`cmp_numeric`] and `Hash` use.
fn float_as_exact_int(f: f64) -> Option<i64> {
    (f.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(&f)).then_some(f as i64)
}

/// Exact comparison of an integer with a float: no rounding of `i` to
/// `f64`, so integers above 2^53 keep their identity. `NaN` is greatest.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() || f >= TWO_POW_63 {
        Ordering::Less
    } else if f < -TWO_POW_63 {
        Ordering::Greater
    } else {
        // the integral part fits an i64 exactly; ties fall to the fraction
        let whole = f.trunc();
        i.cmp(&(whole as i64))
            .then_with(|| 0.0.partial_cmp(&(f - whole)).unwrap_or(Ordering::Equal))
    }
}

/// Compare two numbers (any mix of `Int`/`Float`) numerically and
/// exactly, totalizing `NaN` as the greatest number (and equal to itself).
fn cmp_numeric(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Int(i), Value::Float(f)) => cmp_int_float(*i, *f),
        (Value::Float(f), Value::Int(i)) => cmp_int_float(*i, *f).reverse(),
        // `partial_cmp` declines only when a NaN is involved
        (Value::Float(x), Value::Float(y)) => x
            .partial_cmp(y)
            .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan())),
        _ => unreachable!("cmp_numeric on non-number"),
    }
}

impl Value {
    /// The canonical total order described in the module docs.
    pub fn canonical_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (type_rank(self), type_rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a @ (Value::Int(_) | Value::Float(_)), b @ (Value::Int(_) | Value::Float(_))) => {
                cmp_numeric(a, b)
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.canonical_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Object(a), Value::Object(b)) => {
                let mut ia = a.iter();
                let mut ib = b.iter();
                loop {
                    match (ia.next(), ib.next()) {
                        (None, None) => return Ordering::Equal,
                        (None, Some(_)) => return Ordering::Less,
                        (Some(_), None) => return Ordering::Greater,
                        (Some((ka, va)), Some((kb, vb))) => {
                            let c = ka.cmp(kb);
                            if c != Ordering::Equal {
                                return c;
                            }
                            let c = va.canonical_cmp(vb);
                            if c != Ordering::Equal {
                                return c;
                            }
                        }
                    }
                }
            }
            _ => unreachable!("ranks matched but variants differ"),
        }
    }

    /// Human-readable name of the value's type (used in error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
            Value::Bytes(_) => "Bytes",
            Value::Array(_) => "Array",
            Value::Object(_) => "Object",
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness used by query filters: `Null`, `false`, `0`, `0.0`, `""`,
    /// empty bytes/array/object are falsy; everything else truthy.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0 && !f.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::Array(a) => !a.is_empty(),
            Value::Object(o) => !o.is_empty(),
        }
    }

    /// Borrow as bool if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as i64 if this is an `Int` (or an integral `Float`).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Borrow as f64 if this is numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Borrow as &str if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as bytes if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Borrow as array slice if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable array access.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as object if this is an `Object`.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Mutable object access.
    pub fn as_object_mut(&mut self) -> Option<&mut Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Like [`Value::as_str`] but returns an error mentioning `ctx`.
    pub fn expect_str(&self, ctx: &str) -> Result<&str> {
        self.as_str()
            .ok_or_else(|| Error::type_err(format!("Str ({ctx})"), self.type_name()))
    }

    /// Like [`Value::as_int`] but returns an error mentioning `ctx`.
    pub fn expect_int(&self, ctx: &str) -> Result<i64> {
        self.as_int()
            .ok_or_else(|| Error::type_err(format!("Int ({ctx})"), self.type_name()))
    }

    /// Like [`Value::as_object`] but returns an error mentioning `ctx`.
    pub fn expect_object(&self, ctx: &str) -> Result<&Object> {
        self.as_object()
            .ok_or_else(|| Error::type_err(format!("Object ({ctx})"), self.type_name()))
    }

    /// Field access on objects; `Null` (not an error) when absent or when
    /// `self` is not an object — the schemaless-read semantics documents
    /// expect.
    pub fn get_field(&self, key: &str) -> &Value {
        const NULL: &Value = &Value::Null;
        match self {
            Value::Object(o) => o.get(key).unwrap_or(NULL),
            _ => NULL,
        }
    }

    /// Navigate a parsed [`FieldPath`]; missing steps yield `Null`.
    pub fn get_path(&self, path: &FieldPath) -> &Value {
        const NULL: &Value = &Value::Null;
        let mut cur = self;
        for step in path.steps() {
            cur = match (step, cur) {
                (PathStep::Key(k), Value::Object(o)) => match o.get(k.as_str()) {
                    Some(v) => v,
                    None => return NULL,
                },
                (PathStep::Index(i), Value::Array(a)) => match a.get(*i) {
                    Some(v) => v,
                    None => return NULL,
                },
                _ => return NULL,
            };
        }
        cur
    }

    /// Navigate a dotted-path string (`"a.b[0].c"`); missing steps yield
    /// `Null`. Returns an error only when the path string is malformed.
    pub fn get_dotted(&self, path: &str) -> Result<&Value> {
        let parsed = FieldPath::parse(path)?;
        Ok(self.get_path(&parsed))
    }

    /// Set the value at `path`, creating intermediate objects as needed.
    /// Intermediate array indexes must already exist. Returns the previous
    /// value if one was replaced.
    pub fn set_path(&mut self, path: &FieldPath, value: Value) -> Result<Option<Value>> {
        let steps = path.steps();
        if steps.is_empty() {
            let old = std::mem::replace(self, value);
            return Ok(Some(old));
        }
        let mut cur = self;
        for step in &steps[..steps.len() - 1] {
            cur = match step {
                PathStep::Key(k) => {
                    if !matches!(cur, Value::Object(_)) {
                        if cur.is_null() {
                            *cur = Value::Object(Object::new());
                        } else {
                            return Err(Error::type_err("Object", cur.type_name()));
                        }
                    }
                    match cur {
                        Value::Object(o) => o.entry(k.clone()).or_insert(Value::Null),
                        _ => unreachable!(),
                    }
                }
                PathStep::Index(i) => match cur {
                    Value::Array(a) => a
                        .get_mut(*i)
                        .ok_or_else(|| Error::Invalid(format!("index {i} out of bounds")))?,
                    other => return Err(Error::type_err("Array", other.type_name())),
                },
            };
        }
        match (steps.last().unwrap(), cur) {
            (PathStep::Key(k), v) => {
                if !matches!(v, Value::Object(_)) {
                    if v.is_null() {
                        *v = Value::Object(Object::new());
                    } else {
                        return Err(Error::type_err("Object", v.type_name()));
                    }
                }
                match v {
                    Value::Object(o) => Ok(o.insert(k.clone(), value)),
                    _ => unreachable!(),
                }
            }
            (PathStep::Index(i), Value::Array(a)) => {
                let slot = a
                    .get_mut(*i)
                    .ok_or_else(|| Error::Invalid(format!("index {i} out of bounds")))?;
                Ok(Some(std::mem::replace(slot, value)))
            }
            (PathStep::Index(_), other) => Err(Error::type_err("Array", other.type_name())),
        }
    }

    /// Remove the value at `path`. Returns the removed value, if any.
    pub fn remove_path(&mut self, path: &FieldPath) -> Result<Option<Value>> {
        let steps = path.steps();
        if steps.is_empty() {
            return Err(Error::Invalid("cannot remove the root value".into()));
        }
        let mut cur = self;
        for step in &steps[..steps.len() - 1] {
            cur = match (step, cur) {
                (PathStep::Key(k), Value::Object(o)) => match o.get_mut(k.as_str()) {
                    Some(v) => v,
                    None => return Ok(None),
                },
                (PathStep::Index(i), Value::Array(a)) => match a.get_mut(*i) {
                    Some(v) => v,
                    None => return Ok(None),
                },
                _ => return Ok(None),
            };
        }
        match (steps.last().unwrap(), cur) {
            (PathStep::Key(k), Value::Object(o)) => Ok(o.remove(k.as_str())),
            (PathStep::Index(i), Value::Array(a)) => {
                if *i < a.len() {
                    Ok(Some(a.remove(*i)))
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        }
    }

    /// Deep-merge `other` into `self`: objects merge recursively, all other
    /// values (including arrays) are replaced. Used by document `UPDATE`.
    pub fn merge_from(&mut self, other: Value) {
        match (self, other) {
            (Value::Object(dst), Value::Object(src)) => {
                for (k, v) in src {
                    match dst.get_mut(&k) {
                        Some(slot)
                            if matches!(slot, Value::Object(_))
                                && matches!(v, Value::Object(_)) =>
                        {
                            slot.merge_from(v);
                        }
                        _ => {
                            dst.insert(k, v);
                        }
                    }
                }
            }
            (dst, src) => *dst = src,
        }
    }

    /// Approximate heap footprint in bytes; used by benchmark reports to
    /// size generated datasets.
    pub fn deep_size(&self) -> usize {
        let own = std::mem::size_of::<Value>();
        own + match self {
            Value::Str(s) => s.capacity(),
            Value::Bytes(b) => b.capacity(),
            Value::Array(a) => a.iter().map(Value::deep_size).sum(),
            Value::Object(o) => o
                .iter()
                .map(|(k, v)| k.capacity() + v.deep_size())
                .sum::<usize>(),
            _ => 0,
        }
    }

    /// Total number of scalar leaves (used to report dataset "attribute"
    /// counts in experiment F1).
    pub fn leaf_count(&self) -> usize {
        match self {
            Value::Array(a) => a.iter().map(Value::leaf_count).sum(),
            Value::Object(o) => o.values().map(Value::leaf_count).sum(),
            _ => 1,
        }
    }

    /// Render as a display string without quotes for scalars — how keys and
    /// filter operands print in reports.
    pub fn display_plain(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s.as_str()),
            other => Cow::Owned(other.to_string()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Numbers hash by canonical numeric identity so Int(2) and
            // Float(2.0) (which are Eq) hash identically.
            Value::Int(i) => {
                state.write_u8(2);
                state.write_u8(0);
                i.hash(state);
            }
            Value::Float(f) => {
                state.write_u8(2);
                if f.is_nan() {
                    state.write_u8(2);
                } else if let Some(i) = float_as_exact_int(*f) {
                    state.write_u8(0);
                    i.hash(state);
                } else {
                    state.write_u8(1);
                    // normalize -0.0
                    let bits = if *f == 0.0 {
                        0f64.to_bits()
                    } else {
                        f.to_bits()
                    };
                    bits.hash(state);
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Bytes(b) => {
                state.write_u8(4);
                b.hash(state);
            }
            Value::Array(a) => {
                state.write_u8(5);
                state.write_usize(a.len());
                for v in a {
                    v.hash(state);
                }
            }
            Value::Object(o) => {
                state.write_u8(6);
                state.write_usize(o.len());
                for (k, v) in o {
                    k.hash(state);
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    /// JSON-flavoured rendering (bytes as hex, which plain JSON lacks).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => {
                f.write_str("0x")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
            Value::Array(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(o) => {
                f.write_str("{")?;
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{k:?}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Self {
        Value::Array(a)
    }
}
impl From<Object> for Value {
    fn from(o: Object) -> Self {
        Value::Object(o)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Value::Object(iter.into_iter().collect())
    }
}
impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::Array(iter.into_iter().collect())
    }
}

/// Build a [`Value::Object`] literal: `obj! { "a" => 1, "b" => "x" }`.
#[macro_export]
macro_rules! obj {
    () => { $crate::Value::Object($crate::Object::new()) };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {
        $crate::Value::Object(<$crate::Object as ::std::iter::FromIterator<_>>::from_iter([
            $( (::std::string::String::from($k), $crate::Value::from($v)) ),+
        ]))
    };
}

/// Build a [`Value::Array`] literal: `arr![1, "two", 3.0]`.
#[macro_export]
macro_rules! arr {
    () => { $crate::Value::Array(::std::vec::Vec::new()) };
    ( $( $v:expr ),+ $(,)? ) => {
        $crate::Value::Array(::std::vec![ $( $crate::Value::from($v) ),+ ])
    };
}

/// A scalar [`Value`] restricted to key-safe variants (`Null` excluded,
/// containers excluded) — the type of record keys throughout the engine.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Value);

impl Key {
    /// Validate and wrap a scalar value as a key.
    pub fn new(v: Value) -> Result<Key> {
        match v {
            Value::Bool(_) | Value::Int(_) | Value::Str(_) | Value::Bytes(_) => Ok(Key(v)),
            Value::Float(f) if !f.is_nan() => Ok(Key(Value::Float(f))),
            other => Err(Error::Invalid(format!(
                "{} cannot be used as a key",
                other.type_name()
            ))),
        }
    }

    /// Integer-key shorthand.
    pub fn int(i: i64) -> Key {
        Key(Value::Int(i))
    }

    /// String-key shorthand.
    pub fn str(s: impl Into<String>) -> Key {
        Key(Value::Str(s.into()))
    }

    /// Borrow the underlying value.
    pub fn value(&self) -> &Value {
        &self.0
    }

    /// Consume into the underlying value.
    pub fn into_value(self) -> Value {
        self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.display_plain())
    }
}

impl TryFrom<Value> for Key {
    type Error = Error;
    fn try_from(v: Value) -> Result<Key> {
        Key::new(v)
    }
}
impl From<i64> for Key {
    fn from(i: i64) -> Self {
        Key::int(i)
    }
}
impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::str(s)
    }
}
impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::str(s)
    }
}
impl From<Key> for Value {
    fn from(k: Key) -> Self {
        k.into_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_order_is_total_and_stable() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Int(7),
            Value::Str("a".into()),
            Value::Bytes(vec![1]),
            arr![1],
            obj! {"a" => 1},
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} should sort before {}", w[0], w[1]);
        }
    }

    #[test]
    fn cross_numeric_equality_is_consistent_with_hash() {
        let a = Value::Int(42);
        let b = Value::Float(42.0);
        assert_eq!(a, b);
        assert_eq!(a.canonical_cmp(&b), Ordering::Equal);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(Value::Int(42), Value::Float(42.5));
    }

    #[test]
    fn nan_is_totalized() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert!(nan > Value::Float(f64::INFINITY));
        assert!(nan < Value::Str(String::new()));
        assert_eq!(hash_of(&nan), hash_of(&Value::Float(f64::NAN)));
    }

    #[test]
    fn integers_above_2_pow_53_keep_their_identity() {
        let (a, b) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_ne!(a, b);
        assert!(a < b);
        // 2^53 + 1 is not a float; its neighbours are
        assert_eq!(a, Value::Float(9007199254740992.0));
        assert!(b > Value::Float(9007199254740992.0));
        assert!(b < Value::Float(9007199254740994.0));
        // `i64::MAX as f64` rounds up to 2^63, which no Int equals
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Int(3) > Value::Float(2.5) && Value::Int(-3) < Value::Float(-2.5));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
    }

    /// An `Int` or `Float` at or next to a precision boundary: ±2^53
    /// (where `f64` stops holding every integer) and the `i64` ends.
    fn boundary_number() -> impl Strategy<Value = Value> {
        (0usize..5, -3i64..4, 0u8..3).prop_map(|(anchor, delta, kind)| {
            let anchor = [0, 1 << 53, -(1 << 53), i64::MAX, i64::MIN][anchor];
            let float = anchor as f64;
            match kind {
                0 => Value::Int(anchor.saturating_add(delta)),
                // the delta-th representable float away from the anchor
                1 if float != 0.0 => {
                    Value::Float(f64::from_bits(float.to_bits().wrapping_add_signed(delta)))
                }
                _ => Value::Float(float + delta as f64 / 2.0),
            }
        })
    }

    proptest! {
        #[test]
        fn numeric_order_is_exact_and_agrees_with_hash(
            a in boundary_number(),
            b in boundary_number(),
            c in boundary_number(),
            i in prop_oneof![any::<i64>(), (1i64 << 53) - 4..(1i64 << 53) + 4, i64::MAX - 4..i64::MAX],
        ) {
            if a == b {
                prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?}", a, b);
            }
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse(), "{:?} vs {:?}", a, b);
            if a <= b && b <= c {
                prop_assert!(a <= c, "{:?} <= {:?} <= {:?}", a, b, c);
            }
            if a >= b && b >= c {
                prop_assert!(a >= c, "{:?} >= {:?} >= {:?}", a, b, c);
            }
            let exact = (i as f64) as i128 == i128::from(i);
            prop_assert_eq!(Value::Int(i) == Value::Float(i as f64), exact, "{}", i);
        }
    }

    #[test]
    fn negative_zero_equals_zero_and_hashes_alike() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
        assert_eq!(Value::Float(0.0), Value::Int(0));
    }

    #[test]
    fn truthiness_matches_query_semantics() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Str(String::new()).is_truthy());
        assert!(!arr![].is_truthy());
        assert!(Value::Int(1).is_truthy());
        assert!(obj! {"k" => 1}.is_truthy());
    }

    #[test]
    fn path_get_set_remove_roundtrip() {
        let mut v = obj! {
            "customer" => obj!{ "name" => "Ada", "tags" => arr!["vip", "eu"] },
            "total" => 99.5,
        };
        assert_eq!(v.get_dotted("customer.name").unwrap(), &Value::from("Ada"));
        assert_eq!(
            v.get_dotted("customer.tags[1]").unwrap(),
            &Value::from("eu")
        );
        assert_eq!(v.get_dotted("customer.tags[9]").unwrap(), &Value::Null);
        assert_eq!(v.get_dotted("missing.deep.path").unwrap(), &Value::Null);

        let p = FieldPath::parse("customer.tier").unwrap();
        assert_eq!(v.set_path(&p, Value::from("gold")).unwrap(), None);
        assert_eq!(v.get_dotted("customer.tier").unwrap(), &Value::from("gold"));

        let p2 = FieldPath::parse("customer.tags[0]").unwrap();
        let old = v.set_path(&p2, Value::from("svip")).unwrap();
        assert_eq!(old, Some(Value::from("vip")));

        let removed = v.remove_path(&FieldPath::parse("total").unwrap()).unwrap();
        assert_eq!(removed, Some(Value::Float(99.5)));
        assert_eq!(v.get_dotted("total").unwrap(), &Value::Null);
    }

    #[test]
    fn set_path_creates_intermediate_objects() {
        let mut v = Value::Null;
        let p = FieldPath::parse("a.b.c").unwrap();
        v.set_path(&p, Value::Int(1)).unwrap();
        assert_eq!(v.get_dotted("a.b.c").unwrap(), &Value::Int(1));
        // but refuses to overwrite a scalar with an object implicitly
        let p2 = FieldPath::parse("a.b.c.d").unwrap();
        assert!(v.set_path(&p2, Value::Int(2)).is_err());
    }

    #[test]
    fn merge_is_recursive_for_objects_only() {
        let mut base = obj! {"a" => obj!{"x" => 1, "y" => 2}, "list" => arr![1,2]};
        base.merge_from(obj! {"a" => obj!{"y" => 20, "z" => 30}, "list" => arr![9]});
        assert_eq!(base.get_dotted("a.x").unwrap(), &Value::Int(1));
        assert_eq!(base.get_dotted("a.y").unwrap(), &Value::Int(20));
        assert_eq!(base.get_dotted("a.z").unwrap(), &Value::Int(30));
        assert_eq!(base.get_dotted("list").unwrap(), &arr![9]);
    }

    #[test]
    fn paths_create_overwrite_and_delete_nested_fields_in_order() {
        let path = |p: &str| FieldPath::parse(p).unwrap();
        let mut v = obj! {"m" => obj!{"k" => 1}};
        // create: before, between and after the fields that exist
        for (p, i) in [("m.z", 2), ("m.a", 3), ("m.l", 4), ("a.b.c", 5), ("z", 6)] {
            assert_eq!(v.set_path(&path(p), Value::Int(i)).unwrap(), None);
        }
        assert_eq!(
            v.to_string(),
            r#"{"a":{"b":{"c":5}},"m":{"a":3,"k":1,"l":4,"z":2},"z":6}"#
        );
        // overwrite returns what was there
        let old = v.set_path(&path("m.k"), Value::from("one")).unwrap();
        assert_eq!(old, Some(Value::Int(1)));
        assert_eq!(
            v.set_path(&path("a.b"), Value::Null).unwrap(),
            Some(obj! {"c" => 5})
        );
        // delete: a leaf, a subtree, and something that is not there
        assert_eq!(v.remove_path(&path("m.a")).unwrap(), Some(Value::Int(3)));
        assert_eq!(
            v.remove_path(&path("a")).unwrap(),
            Some(obj! {"b" => Value::Null})
        );
        assert_eq!(v.remove_path(&path("m.nope.deeper")).unwrap(), None);
        assert_eq!(v.to_string(), r#"{"m":{"k":"one","l":4,"z":2},"z":6}"#);
        // merge creates, overwrites and recurses, and keeps the order
        v.merge_from(obj! {"m" => obj!{"b" => 7, "l" => obj!{"x" => 1}}, "b" => arr![1]});
        v.merge_from(obj! {"m" => obj!{"l" => obj!{"w" => 0}}});
        assert_eq!(
            v.to_string(),
            r#"{"b":[1],"m":{"b":7,"k":"one","l":{"w":0,"x":1},"z":2},"z":6}"#
        );
    }

    #[test]
    fn display_is_json_flavoured() {
        let v = obj! {"b" => arr![1, 2.0, "x"], "a" => Value::Null};
        assert_eq!(v.to_string(), r#"{"a":null,"b":[1,2.0,"x"]}"#);
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_string(), "0xdead");
    }

    #[test]
    fn keys_reject_containers_and_nan() {
        assert!(Key::new(Value::Null).is_err());
        assert!(Key::new(arr![1]).is_err());
        assert!(Key::new(obj! {"a"=>1}).is_err());
        assert!(Key::new(Value::Float(f64::NAN)).is_err());
        assert!(Key::new(Value::Int(3)).is_ok());
        assert_eq!(Key::str("k").to_string(), "k");
    }

    #[test]
    fn leaf_count_and_deep_size() {
        let v = obj! {"a" => arr![1, 2, 3], "b" => obj!{"c" => "x"}};
        assert_eq!(v.leaf_count(), 4);
        assert!(v.deep_size() > std::mem::size_of::<Value>());
    }

    #[test]
    fn object_order_independence() {
        // an object is its sorted pairs, however they were inserted
        let mut m1 = Object::new();
        m1.insert("z".to_string(), Value::Int(1));
        m1.insert("a".to_string(), Value::Int(2));
        let mut m2 = Object::new();
        m2.insert("a".to_string(), Value::Int(2));
        m2.insert("z".to_string(), Value::Int(1));
        assert_eq!(Value::Object(m1), Value::Object(m2));
    }
}
