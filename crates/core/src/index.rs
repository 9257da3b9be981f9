//! Secondary indexes: hash (equality) and B-tree (equality + range).
//!
//! An index on a path maps each value rows carry there to the keys of
//! those rows. The **posting rule** is [`Index::post`]: a row posts the
//! value at the path, an array whole, and `Null` — which is also what a
//! missing field reads as — is never posted. What an index may answer is
//! [`Predicate::probe`](crate::Predicate::probe)'s rule, which follows
//! from this one. Each bucket is a key-sorted `Vec<Key>` that holds a
//! key at most once, so a posting is found, added and removed by binary
//! search, not by scanning its bucket.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::predicate::Probe;
use crate::{FieldPath, Key, Value};

/// Which index structure to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map: O(1) equality probes, no range support.
    Hash,
    /// Ordered map: equality + range scans.
    BTree,
}

/// A secondary index over one column/path value.
#[derive(Debug, Clone)]
pub enum Index {
    /// Equality-only index.
    Hash(HashMap<Value, Vec<Key>>),
    /// Ordered index supporting ranges.
    BTree(BTreeMap<Value, Vec<Key>>),
}

impl Index {
    /// Create an empty index.
    pub fn new(kind: IndexKind) -> Index {
        match kind {
            IndexKind::Hash => Index::Hash(HashMap::new()),
            IndexKind::BTree => Index::BTree(BTreeMap::new()),
        }
    }

    /// Post `key` under the value `row` carries at `path`, unless it is
    /// `Null` or the key is posted there already.
    pub fn post(&mut self, path: &FieldPath, row: &Value, key: &Key) {
        let value = row.get_path(path);
        if value.is_null() {
            return;
        }
        let bucket = match self {
            Index::Hash(m) => m.get_mut(value),
            Index::BTree(m) => m.get_mut(value),
        };
        match bucket {
            Some(keys) => {
                if let Err(at) = keys.binary_search(key) {
                    keys.insert(at, key.clone());
                }
            }
            None => {
                let keys = vec![key.clone()];
                match self {
                    Index::Hash(m) => m.insert(value.clone(), keys),
                    Index::BTree(m) => m.insert(value.clone(), keys),
                };
            }
        }
    }

    /// Take `key`'s posting under the value `row` carries at `path` out,
    /// dropping the bucket it empties.
    pub fn unpost(&mut self, path: &FieldPath, row: &Value, key: &Key) {
        let value = row.get_path(path);
        let bucket = match self {
            Index::Hash(m) => m.get_mut(value),
            Index::BTree(m) => m.get_mut(value),
        };
        let Some(keys) = bucket else {
            return;
        };
        if let Ok(at) = keys.binary_search(key) {
            keys.remove(at);
        }
        if keys.is_empty() {
            match self {
                Index::Hash(m) => m.remove(value),
                Index::BTree(m) => m.remove(value),
            };
        }
    }

    /// The keys posted under the values `probe` selects, key-sorted
    /// within each value; `None` when this index cannot answer it (a
    /// range on a hash index). A range whose lower bound lies above its
    /// upper one selects nothing.
    pub fn lookup(&self, probe: Probe<'_>) -> Option<Vec<Key>> {
        match (self, probe) {
            (Index::Hash(m), Probe::Eq(v)) => Some(m.get(v).cloned().unwrap_or_default()),
            (Index::BTree(m), Probe::Eq(v)) => Some(m.get(v).cloned().unwrap_or_default()),
            (Index::Hash(_), Probe::Range(..)) => None,
            (Index::BTree(m), Probe::Range(lo, hi)) => {
                if hi.is_some_and(|hi| lo > hi) {
                    return Some(Vec::new());
                }
                let hi = hi.map_or(Bound::Unbounded, Bound::Included);
                let range = m.range::<Value, _>((Bound::Included(lo), hi));
                Some(range.flat_map(|(_, keys)| keys.iter().cloned()).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arr;

    /// Post `value` itself (the root path) under `key`.
    fn post(idx: &mut Index, value: Value, key: i64) {
        idx.post(&FieldPath::root(), &value, &Key::int(key));
    }

    fn unpost(idx: &mut Index, value: Value, key: i64) {
        idx.unpost(&FieldPath::root(), &value, &Key::int(key));
    }

    fn eq(idx: &Index, value: Value) -> Vec<Key> {
        idx.lookup(Probe::Eq(&value)).unwrap()
    }

    /// The number of `(value, key)` postings.
    fn postings(idx: &Index) -> usize {
        match idx {
            Index::Hash(m) => m.values().map(Vec::len).sum(),
            Index::BTree(m) => m.values().map(Vec::len).sum(),
        }
    }

    /// The number of distinct posted values.
    fn buckets(idx: &Index) -> usize {
        match idx {
            Index::Hash(m) => m.len(),
            Index::BTree(m) => m.len(),
        }
    }

    fn populated(kind: IndexKind) -> Index {
        let mut idx = Index::new(kind);
        post(&mut idx, Value::from("FI"), 1);
        post(&mut idx, Value::from("FI"), 2);
        post(&mut idx, Value::from("SE"), 3);
        post(&mut idx, Value::Int(10), 4);
        idx
    }

    #[test]
    fn equality_lookup_both_kinds() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let idx = populated(kind);
            assert_eq!(eq(&idx, Value::from("FI")), vec![Key::int(1), Key::int(2)]);
            assert_eq!(eq(&idx, Value::from("NO")), Vec::<Key>::new());
            assert_eq!(postings(&idx), 4);
            assert_eq!(buckets(&idx), 3);
        }
    }

    #[test]
    fn range_lookup_btree_only() {
        let idx = populated(IndexKind::BTree);
        // numbers sort before strings in the canonical order
        let (zero, fi) = (Value::Int(0), Value::from("FI"));
        let keys = idx.lookup(Probe::Range(&zero, Some(&fi))).unwrap();
        assert_eq!(keys, vec![Key::int(4), Key::int(1), Key::int(2)]);
        let all = idx.lookup(Probe::Range(&zero, None)).unwrap();
        assert_eq!(all.len(), 4);
        // an inverted range is empty, not a panic
        let (hi, lo) = (Value::Int(250), Value::Int(50));
        assert_eq!(idx.lookup(Probe::Range(&hi, Some(&lo))), Some(Vec::new()));
        assert!(populated(IndexKind::Hash)
            .lookup(Probe::Range(&zero, None))
            .is_none());
    }

    #[test]
    fn remove_cleans_empty_buckets() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut idx = populated(kind);
            unpost(&mut idx, Value::from("SE"), 3);
            assert_eq!(eq(&idx, Value::from("SE")), Vec::<Key>::new());
            assert_eq!(buckets(&idx), 2);
            unpost(&mut idx, Value::from("FI"), 1);
            assert_eq!(eq(&idx, Value::from("FI")), vec![Key::int(2)]);
            // removing a non-existent posting is a no-op
            unpost(&mut idx, Value::from("FI"), 99);
            assert_eq!(postings(&idx), 2);
        }
    }

    #[test]
    fn buckets_stay_key_sorted_whatever_the_insert_order() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut idx = Index::new(kind);
            for k in [5, 1, 9, 3, 7, 3] {
                post(&mut idx, Value::from("v"), k);
            }
            assert_eq!(eq(&idx, Value::from("v")), [1, 3, 5, 7, 9].map(Key::int));
            unpost(&mut idx, Value::from("v"), 5);
            unpost(&mut idx, Value::from("v"), 4); // absent: no-op
            unpost(&mut idx, Value::from("w"), 7); // absent value: no-op
            assert_eq!(eq(&idx, Value::from("v")), [1, 3, 7, 9].map(Key::int));
        }
    }

    #[test]
    fn nulls_are_never_indexed() {
        let mut idx = Index::new(IndexKind::BTree);
        post(&mut idx, Value::Null, 1);
        idx.post(&FieldPath::key("missing"), &Value::Int(1), &Key::int(2));
        assert_eq!(postings(&idx), 0);
        unpost(&mut idx, Value::Null, 1); // no panic
                                          // an array is posted whole, not element by element
        post(&mut idx, arr![1, 2], 3);
        assert_eq!(eq(&idx, arr![1, 2]), vec![Key::int(3)]);
        assert_eq!(eq(&idx, Value::Int(1)), Vec::<Key>::new());
    }

    #[test]
    fn cross_type_values_coexist() {
        let idx = populated(IndexKind::BTree);
        assert_eq!(eq(&idx, Value::Int(10)), vec![Key::int(4)]);
        // Int(10) == Float(10.0) canonically, so a float probe hits too
        assert_eq!(eq(&idx, Value::Float(10.0)), vec![Key::int(4)]);
    }
}
