//! Secondary indexes: hash (equality) and B-tree (equality + range).
//!
//! An index maps an indexed value to the set of primary keys whose rows
//! carry that value. Multi-valued entries use a key-sorted `Vec<Key>`
//! (duplicates are allowed in the indexed column, not in the keys), so a
//! posting is added or removed by binary search, not by scanning its
//! bucket.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use udbms_core::{Key, Value};

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

    /// The kind of this index.
    pub fn kind(&self) -> IndexKind {
        match self {
            Index::Hash(_) => IndexKind::Hash,
            Index::BTree(_) => IndexKind::BTree,
        }
    }

    /// Register `key` under `value`, at its place in the key-sorted
    /// bucket (the caller keeps a key from being registered twice under
    /// one value). `Null` values are not indexed (SQL semantics: NULL
    /// never matches an equality probe).
    pub fn insert(&mut self, value: Value, key: Key) {
        if value.is_null() {
            return;
        }
        let keys = match self {
            Index::Hash(m) => m.entry(value).or_default(),
            Index::BTree(m) => m.entry(value).or_default(),
        };
        let at = keys.partition_point(|k| *k <= key);
        keys.insert(at, key);
    }

    /// Whether `key` is registered under `value` (binary search in the
    /// bucket).
    pub fn contains(&self, value: &Value, key: &Key) -> bool {
        let bucket = match self {
            Index::Hash(m) => m.get(value),
            Index::BTree(m) => m.get(value),
        };
        bucket.is_some_and(|keys| keys.binary_search(key).is_ok())
    }

    /// Remove `key` from under `value`, by binary search in the bucket.
    pub fn remove(&mut self, value: &Value, key: &Key) {
        if value.is_null() {
            return;
        }
        let bucket = match self {
            Index::Hash(m) => m.get_mut(value),
            Index::BTree(m) => m.get_mut(value),
        };
        if let Some(keys) = bucket {
            let (from, to) = (
                keys.partition_point(|k| k < key),
                keys.partition_point(|k| k <= key),
            );
            keys.drain(from..to);
            if keys.is_empty() {
                match self {
                    Index::Hash(m) => {
                        m.remove(value);
                    }
                    Index::BTree(m) => {
                        m.remove(value);
                    }
                }
            }
        }
    }

    /// Keys whose indexed value equals `value`, in key order.
    pub fn lookup_eq(&self, value: &Value) -> Vec<Key> {
        match self {
            Index::Hash(m) => m.get(value).cloned().unwrap_or_default(),
            Index::BTree(m) => m.get(value).cloned().unwrap_or_default(),
        }
    }

    /// Keys whose indexed value lies in the inclusive range; `None` bounds
    /// are open. B-tree only — returns `None` for hash indexes so callers
    /// fall back to scans.
    pub fn lookup_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Option<Vec<Key>> {
        match self {
            Index::Hash(_) => None,
            Index::BTree(m) => {
                let lo_bound = match lo {
                    Some(v) => Bound::Included(v.clone()),
                    None => Bound::Unbounded,
                };
                let hi_bound = match hi {
                    Some(v) => Bound::Included(v.clone()),
                    None => Bound::Unbounded,
                };
                let mut out = Vec::new();
                for (_, keys) in m.range((lo_bound, hi_bound)) {
                    out.extend(keys.iter().cloned());
                }
                Some(out)
            }
        }
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        match self {
            Index::Hash(m) => m.len(),
            Index::BTree(m) => m.len(),
        }
    }

    /// Total number of (value, key) postings.
    pub fn len(&self) -> usize {
        match self {
            Index::Hash(m) => m.values().map(Vec::len).sum(),
            Index::BTree(m) => m.values().map(Vec::len).sum(),
        }
    }

    /// True when the index holds no postings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated(kind: IndexKind) -> Index {
        let mut idx = Index::new(kind);
        idx.insert(Value::from("FI"), Key::int(1));
        idx.insert(Value::from("FI"), Key::int(2));
        idx.insert(Value::from("SE"), Key::int(3));
        idx.insert(Value::Int(10), Key::int(4));
        idx
    }

    #[test]
    fn equality_lookup_both_kinds() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let idx = populated(kind);
            assert_eq!(
                idx.lookup_eq(&Value::from("FI")),
                vec![Key::int(1), Key::int(2)]
            );
            assert_eq!(idx.lookup_eq(&Value::from("NO")), Vec::<Key>::new());
            assert_eq!(idx.len(), 4);
            assert_eq!(idx.distinct_values(), 3);
        }
    }

    #[test]
    fn range_lookup_btree_only() {
        let idx = populated(IndexKind::BTree);
        // numbers sort before strings in the canonical order
        let keys = idx
            .lookup_range(Some(&Value::Int(0)), Some(&Value::from("FI")))
            .unwrap();
        assert_eq!(keys, vec![Key::int(4), Key::int(1), Key::int(2)]);
        let all = idx.lookup_range(None, None).unwrap();
        assert_eq!(all.len(), 4);
        assert!(populated(IndexKind::Hash)
            .lookup_range(None, None)
            .is_none());
    }

    #[test]
    fn remove_cleans_empty_buckets() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut idx = populated(kind);
            idx.remove(&Value::from("SE"), &Key::int(3));
            assert_eq!(idx.lookup_eq(&Value::from("SE")), Vec::<Key>::new());
            assert_eq!(idx.distinct_values(), 2);
            idx.remove(&Value::from("FI"), &Key::int(1));
            assert_eq!(idx.lookup_eq(&Value::from("FI")), vec![Key::int(2)]);
            // removing a non-existent posting is a no-op
            idx.remove(&Value::from("FI"), &Key::int(99));
            assert_eq!(idx.len(), 2);
        }
    }

    #[test]
    fn buckets_stay_key_sorted_whatever_the_insert_order() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut idx = Index::new(kind);
            for k in [5, 1, 9, 3, 7] {
                idx.insert(Value::from("v"), Key::int(k));
            }
            let keys = |idx: &Index| idx.lookup_eq(&Value::from("v"));
            assert_eq!(keys(&idx), [1, 3, 5, 7, 9].map(Key::int));
            idx.remove(&Value::from("v"), &Key::int(5));
            idx.remove(&Value::from("v"), &Key::int(4)); // absent: no-op
            assert_eq!(keys(&idx), [1, 3, 7, 9].map(Key::int));
            assert!(idx.contains(&Value::from("v"), &Key::int(7)));
            assert!(!idx.contains(&Value::from("v"), &Key::int(5)));
            assert!(!idx.contains(&Value::from("w"), &Key::int(7)));
        }
    }

    #[test]
    fn nulls_are_never_indexed() {
        let mut idx = Index::new(IndexKind::BTree);
        idx.insert(Value::Null, Key::int(1));
        assert!(idx.is_empty());
        idx.remove(&Value::Null, &Key::int(1)); // no panic
    }

    #[test]
    fn cross_type_values_coexist() {
        let idx = populated(IndexKind::BTree);
        assert_eq!(idx.lookup_eq(&Value::Int(10)), vec![Key::int(4)]);
        // Int(10) == Float(10.0) canonically, so a float probe hits too
        assert_eq!(idx.lookup_eq(&Value::Float(10.0)), vec![Key::int(4)]);
    }
}
