//! The JSON document store: schemaless collections with automatic ids,
//! path indexes, predicate queries (the shared [`Predicate`] language
//! over dotted paths) and merge updates.
//!
//! In the benchmark's domain this store holds *Orders* and *Products*
//! ("JSON files (Orders, Product)" in the paper's transaction example).

use std::collections::{BTreeMap, HashMap};

use udbms_core::{Error, FieldPath, Index, IndexKind, Key, Predicate, Result, Value};

use crate::table::select;

/// The reserved id field of every document.
const ID_FIELD: &str = "_id";

/// A schemaless collection of JSON documents keyed by `_id`.
#[derive(Debug, Clone)]
pub(crate) struct DocCollection {
    name: String,
    docs: BTreeMap<Key, Value>,
    indexes: HashMap<FieldPath, Index>,
    next_auto_id: i64,
}

impl DocCollection {
    /// Empty collection.
    pub(crate) fn new(name: impl Into<String>) -> DocCollection {
        DocCollection {
            name: name.into(),
            docs: BTreeMap::new(),
            indexes: HashMap::new(),
            next_auto_id: 1,
        }
    }

    /// Insert a document. If it carries `_id` that key is used (and must be
    /// free); otherwise a fresh integer id is assigned and written into the
    /// document. Returns the key.
    pub(crate) fn insert(&mut self, mut doc: Value) -> Result<Key> {
        let obj = doc
            .as_object_mut()
            .ok_or_else(|| Error::type_err("Object (document)", "non-object"))?;
        let key = match obj.get(ID_FIELD) {
            Some(v) if !v.is_null() => Key::new(v.clone())?,
            _ => {
                // skip ids taken by explicit inserts
                while self.docs.contains_key(&Key::int(self.next_auto_id)) {
                    self.next_auto_id += 1;
                }
                let key = Key::int(self.next_auto_id);
                self.next_auto_id += 1;
                obj.insert(ID_FIELD.to_string(), key.value().clone());
                key
            }
        };
        if self.docs.contains_key(&key) {
            return Err(Error::AlreadyExists(format!(
                "document {key} in `{}`",
                self.name
            )));
        }
        for (path, idx) in &mut self.indexes {
            idx.post(path, &doc, &key);
        }
        self.docs.insert(key.clone(), doc);
        Ok(key)
    }

    /// Fetch by id.
    pub(crate) fn get(&self, key: &Key) -> Option<&Value> {
        self.docs.get(key)
    }

    /// Replace a document wholesale (the `_id` must match).
    pub(crate) fn replace(&mut self, key: &Key, mut doc: Value) -> Result<()> {
        if !self.docs.contains_key(key) {
            return Err(Error::NotFound(format!(
                "document {key} in `{}`",
                self.name
            )));
        }
        let obj = doc
            .as_object_mut()
            .ok_or_else(|| Error::type_err("Object (document)", "non-object"))?;
        match obj.get(ID_FIELD) {
            Some(v) if v == key.value() => {}
            Some(_) => {
                return Err(Error::Constraint("replacement may not change `_id`".into()));
            }
            None => {
                obj.insert(ID_FIELD.to_string(), key.value().clone());
            }
        }
        let old = self.docs.get(key).expect("checked").clone();
        for (path, idx) in &mut self.indexes {
            idx.unpost(path, &old, key);
            idx.post(path, &doc, key);
        }
        self.docs.insert(key.clone(), doc);
        Ok(())
    }

    /// Deep-merge `patch` into the document (objects merge, other values
    /// replace).
    pub(crate) fn merge(&mut self, key: &Key, patch: Value) -> Result<()> {
        let mut doc = self
            .docs
            .get(key)
            .ok_or_else(|| Error::NotFound(format!("document {key} in `{}`", self.name)))?
            .clone();
        doc.merge_from(patch);
        self.replace(key, doc)
    }

    /// Iterate all documents in id order.
    pub(crate) fn scan(&self) -> impl Iterator<Item = &Value> {
        self.docs.values()
    }

    /// Create a path index and backfill it.
    pub(crate) fn create_index(&mut self, path: FieldPath, kind: IndexKind) -> Result<()> {
        if self.indexes.contains_key(&path) {
            return Err(Error::AlreadyExists(format!("index on `{path}`")));
        }
        let mut idx = Index::new(kind);
        for (key, doc) in &self.docs {
            idx.post(&path, doc, key);
        }
        self.indexes.insert(path, idx);
        Ok(())
    }

    /// Find documents matching a predicate, using a path index when one
    /// can answer it; candidates are always re-validated.
    pub(crate) fn find(&self, pred: &Predicate) -> Vec<Value> {
        select(&self.docs, &self.indexes, pred)
    }
}

/// A named set of document collections — the standalone document database
/// used by the polyglot baseline.
#[derive(Debug, Clone, Default)]
pub(crate) struct DocumentStore {
    collections: BTreeMap<String, DocCollection>,
}

impl DocumentStore {
    /// Get or create a collection.
    pub(crate) fn collection(&mut self, name: &str) -> &mut DocCollection {
        self.collections
            .entry(name.to_string())
            .or_insert_with(|| DocCollection::new(name))
    }

    /// Borrow an existing collection.
    pub(crate) fn get_collection(&self, name: &str) -> Result<&DocCollection> {
        self.collections
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("collection `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::{arr, obj};

    fn orders() -> DocCollection {
        let mut c = DocCollection::new("orders");
        c.insert(obj! {
            "_id" => "o1", "customer" => 1, "total" => 25.0, "status" => "paid",
            "items" => arr![obj!{"product" => "p1", "qty" => 2}, obj!{"product" => "p2", "qty" => 1}],
        })
        .unwrap();
        c.insert(
            obj! {"_id" => "o2", "customer" => 2, "total" => 5.0, "status" => "open",
            "items" => arr![obj!{"product" => "p1", "qty" => 1}]},
        )
        .unwrap();
        c.insert(
            obj! {"_id" => "o3", "customer" => 1, "total" => 7.5, "status" => "open",
            "items" => arr![]},
        )
        .unwrap();
        c
    }

    #[test]
    fn insert_with_and_without_ids() {
        let mut c = DocCollection::new("c");
        let k1 = c.insert(obj! {"_id" => "explicit", "x" => 1}).unwrap();
        assert_eq!(k1, Key::str("explicit"));
        let k2 = c.insert(obj! {"x" => 2}).unwrap();
        assert_eq!(k2, Key::int(1), "auto ids are dense integers");
        assert_eq!(
            c.get(&k2).unwrap().get_field(ID_FIELD),
            &Value::Int(1),
            "auto id written into doc"
        );
        assert!(
            c.insert(obj! {"_id" => "explicit"}).is_err(),
            "duplicate id"
        );
        assert!(c.insert(Value::Int(3)).is_err(), "non-object document");
    }

    #[test]
    fn auto_id_skips_taken_keys() {
        let mut c = DocCollection::new("c");
        c.insert(obj! {"_id" => 1}).unwrap();
        let k = c.insert(obj! {"x" => 1}).unwrap();
        assert_eq!(k, Key::int(2));
    }

    #[test]
    fn find_with_predicates() {
        let c = orders();
        let open = c.find(&Predicate::eq("status", Value::from("open")));
        assert_eq!(open.len(), 2);
        let rich = c.find(&Predicate::gt("total", Value::Float(6.0)));
        assert_eq!(rich.len(), 2);
        let nested = c.find(&Predicate::Eq(
            FieldPath::parse("items[0].product").unwrap(),
            Value::from("p1"),
        ));
        assert_eq!(nested.len(), 2);
    }

    #[test]
    fn multikey_index_on_array_elements() {
        let mut c = orders();
        c.create_index(
            FieldPath::parse("items[0].product").unwrap(),
            IndexKind::Hash,
        )
        .unwrap();
        let pred = Predicate::Eq(
            FieldPath::parse("items[0].product").unwrap(),
            Value::from("p1"),
        );
        assert_eq!(c.find(&pred).len(), 2);
    }

    #[test]
    fn replace_and_merge() {
        let mut c = orders();
        c.replace(&Key::str("o2"), obj! {"_id" => "o2", "total" => 6.0})
            .unwrap();
        assert_eq!(
            c.get(&Key::str("o2")).unwrap().get_field("status"),
            &Value::Null
        );

        c.merge(&Key::str("o3"), obj! {"status" => "paid", "note" => "rush"})
            .unwrap();
        let o3 = c.get(&Key::str("o3")).unwrap();
        assert_eq!(o3.get_field("status"), &Value::from("paid"));
        assert_eq!(
            o3.get_field("total"),
            &Value::Float(7.5),
            "merge keeps other fields"
        );

        assert!(
            c.replace(&Key::str("o1"), obj! {"_id" => "other"}).is_err(),
            "id change"
        );
        assert!(c.replace(&Key::str("missing"), obj! {}).is_err());
    }

    #[test]
    fn index_updates_on_replace() {
        let mut c = orders();
        c.create_index(FieldPath::key("status"), IndexKind::Hash)
            .unwrap();
        c.merge(&Key::str("o2"), obj! {"status" => "paid"}).unwrap();
        assert_eq!(
            c.find(&Predicate::eq("status", Value::from("paid"))).len(),
            2
        );
        assert_eq!(
            c.find(&Predicate::eq("status", Value::from("open"))).len(),
            1
        );
    }

    #[test]
    fn btree_path_index_range_find() {
        let mut c = orders();
        c.create_index(FieldPath::key("total"), IndexKind::BTree)
            .unwrap();
        let pred = Predicate::between("total", Value::Float(5.0), Value::Float(10.0));
        let got = c.find(&pred);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn null_equality_probe_bypasses_path_index() {
        let mut c = orders();
        c.create_index(FieldPath::key("status"), IndexKind::Hash)
            .unwrap();
        c.insert(obj! {"_id" => "nostatus", "total" => 1.0})
            .unwrap();
        let hits = c.find(&Predicate::eq("status", Value::Null));
        assert_eq!(
            hits.len(),
            1,
            "document without the field matches Null equality"
        );
        assert_eq!(hits[0].get_field("_id"), &Value::from("nostatus"));
    }

    #[test]
    fn store_collections() {
        let mut s = DocumentStore::default();
        s.collection("orders").insert(obj! {"x" => 1}).unwrap();
        s.collection("products").insert(obj! {"y" => 2}).unwrap();
        assert_eq!(
            s.collections.values().map(|c| c.docs.len()).sum::<usize>(),
            2
        );
        assert!(s.get_collection("orders").is_ok());
        assert!(s.get_collection("missing").is_err());
    }

    #[test]
    fn duplicate_index_errors() {
        let mut c = orders();
        let p = FieldPath::key("status");
        c.create_index(p.clone(), IndexKind::Hash).unwrap();
        assert!(c.create_index(p, IndexKind::Hash).is_err());
    }

    proptest! {
        /// Path-index-accelerated find equals full-scan find.
        #[test]
        fn index_find_equals_scan_find(vals in prop::collection::vec((0i64..30, 0i64..10), 1..60)) {
            let mut coll = DocCollection::new("orders");
            coll.create_index(FieldPath::parse("meta.rank").unwrap(), IndexKind::BTree).unwrap();
            for (v, r) in &vals {
                coll.insert(obj! {"v" => *v, "meta" => obj!{"rank" => *r}}).unwrap();
            }
            for probe in 0i64..10 {
                let pred = Predicate::Eq(FieldPath::parse("meta.rank").unwrap(), Value::Int(probe));
                let mut via_index = coll.find(&pred);
                let mut via_scan: Vec<Value> =
                    coll.scan().filter(|d| pred.matches(d)).cloned().collect();
                via_index.sort();
                via_scan.sort();
                prop_assert_eq!(via_index, via_scan);
            }
        }

        /// Auto-assigned ids are unique and dense.
        #[test]
        fn auto_ids_unique(n in 1usize..100) {
            let mut coll = DocCollection::new("c");
            let mut ids = std::collections::HashSet::new();
            for _ in 0..n {
                let key = coll.insert(obj! {"x" => 1}).unwrap();
                prop_assert!(ids.insert(key));
            }
            prop_assert_eq!(coll.docs.len(), n);
        }
    }
}
