//! Schema-first tables with primary keys and secondary indexes.

use std::collections::BTreeMap;
use std::collections::HashMap;

use udbms_core::{CollectionSchema, Error, Key, Result, Value};

use crate::index::{Index, IndexKind};
use crate::predicate::Predicate;
use udbms_core::FieldPath;

/// A relational table: validated rows stored by primary key, with
/// index-accelerated selection.
#[derive(Debug, Clone)]
pub struct Table {
    schema: CollectionSchema,
    pk_field: String,
    rows: BTreeMap<Key, Value>,
    indexes: HashMap<String, Index>,
}

impl Table {
    /// Create an empty table from a relational schema (must declare a
    /// primary key).
    pub fn new(schema: CollectionSchema) -> Table {
        let pk_field = schema
            .primary_key
            .clone()
            .expect("relational schema must declare a primary key");
        Table {
            schema,
            pk_field,
            rows: BTreeMap::new(),
            indexes: HashMap::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &CollectionSchema {
        &self.schema
    }

    /// Replace the schema (used by schema evolution after migrating rows).
    pub fn set_schema(&mut self, schema: CollectionSchema) {
        assert_eq!(
            schema.primary_key.as_deref(),
            Some(self.pk_field.as_str()),
            "evolution may not change the primary key in place"
        );
        self.schema = schema;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Extract and validate the primary key of a row.
    fn key_of(&self, row: &Value) -> Result<Key> {
        let v = row.get_field(&self.pk_field);
        if v.is_null() {
            return Err(Error::Constraint(format!(
                "row lacks primary key `{}`",
                self.pk_field
            )));
        }
        Key::new(v.clone())
    }

    /// Insert a new row. Fails on schema violation or duplicate key.
    pub fn insert(&mut self, mut row: Value) -> Result<Key> {
        self.schema.apply_defaults(&mut row);
        self.schema.validate(&row)?;
        let key = self.key_of(&row)?;
        if self.rows.contains_key(&key) {
            return Err(Error::AlreadyExists(format!(
                "primary key {key} in table `{}`",
                self.schema.name
            )));
        }
        for (field, idx) in &mut self.indexes {
            idx.insert(row.get_field(field).clone(), key.clone());
        }
        self.rows.insert(key.clone(), row);
        Ok(key)
    }

    /// Fetch by primary key.
    pub fn get(&self, key: &Key) -> Option<&Value> {
        self.rows.get(key)
    }

    /// Replace an existing row (validated). The primary key may not change.
    pub fn update(&mut self, key: &Key, mut row: Value) -> Result<()> {
        let old = self
            .rows
            .get(key)
            .ok_or_else(|| Error::NotFound(format!("key {key} in `{}`", self.schema.name)))?
            .clone();
        self.schema.apply_defaults(&mut row);
        self.schema.validate(&row)?;
        let new_key = self.key_of(&row)?;
        if &new_key != key {
            return Err(Error::Constraint(
                "update may not change the primary key".into(),
            ));
        }
        for (field, idx) in &mut self.indexes {
            let old_v = old.get_field(field);
            let new_v = row.get_field(field);
            if old_v != new_v {
                idx.remove(old_v, key);
                idx.insert(new_v.clone(), key.clone());
            }
        }
        self.rows.insert(key.clone(), row);
        Ok(())
    }

    /// Partially update a row by merging `patch` into it.
    pub fn patch(&mut self, key: &Key, patch: Value) -> Result<()> {
        let mut row = self
            .rows
            .get(key)
            .ok_or_else(|| Error::NotFound(format!("key {key} in `{}`", self.schema.name)))?
            .clone();
        row.merge_from(patch);
        self.update(key, row)
    }

    /// Delete by primary key; returns the removed row.
    pub fn delete(&mut self, key: &Key) -> Result<Value> {
        let row = self
            .rows
            .remove(key)
            .ok_or_else(|| Error::NotFound(format!("key {key} in `{}`", self.schema.name)))?;
        for (field, idx) in &mut self.indexes {
            idx.remove(row.get_field(field), key);
        }
        Ok(row)
    }

    /// Iterate all rows in primary-key order.
    pub fn scan(&self) -> impl Iterator<Item = &Value> {
        self.rows.values()
    }

    /// Iterate `(key, row)` pairs in primary-key order.
    pub fn scan_entries(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.rows.iter()
    }

    /// Create a secondary index on a column and backfill it.
    pub fn create_index(&mut self, field: &str, kind: IndexKind) -> Result<()> {
        if self.indexes.contains_key(field) {
            return Err(Error::AlreadyExists(format!("index on `{field}`")));
        }
        let mut idx = Index::new(kind);
        for (key, row) in &self.rows {
            idx.insert(row.get_field(field).clone(), key.clone());
        }
        self.indexes.insert(field.to_string(), idx);
        Ok(())
    }

    /// Drop a secondary index.
    pub fn drop_index(&mut self, field: &str) -> Result<()> {
        self.indexes
            .remove(field)
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("index on `{field}`")))
    }

    /// Names of indexed columns.
    pub fn indexed_fields(&self) -> Vec<&str> {
        self.indexes.keys().map(String::as_str).collect()
    }

    /// Select rows matching a predicate, using an index when one covers an
    /// equality or range conjunct; falls back to a full scan otherwise.
    /// Every candidate is re-checked against the full predicate.
    pub fn select<'a>(&'a self, pred: &'a Predicate) -> Box<dyn Iterator<Item = Value> + 'a> {
        // try each indexed column for an equality probe, then a range.
        // Null probes fall through to the scan: nulls are never indexed,
        // but `Null == Null` holds in the canonical order, so the index
        // would under-approximate.
        for (field, idx) in &self.indexes {
            let path = FieldPath::key(field.clone());
            if let Some(v) = pred.equality_on(&path) {
                if v.is_null() {
                    continue;
                }
                let keys = idx.lookup_eq(v);
                return Box::new(
                    keys.into_iter()
                        .filter_map(move |k| self.rows.get(&k))
                        .filter(move |row| pred.matches(row))
                        .cloned(),
                );
            }
            if let Some((lo, hi)) = pred.range_on(&path) {
                if lo.as_ref().is_some_and(Value::is_null)
                    || hi.as_ref().is_some_and(Value::is_null)
                {
                    continue;
                }
                if let Some(keys) = idx.lookup_range(lo.as_ref(), hi.as_ref()) {
                    return Box::new(
                        keys.into_iter()
                            .filter_map(move |k| self.rows.get(&k))
                            .filter(move |row| pred.matches(row))
                            .cloned(),
                    );
                }
            }
        }
        Box::new(
            self.rows
                .values()
                .filter(move |row| pred.matches(row))
                .cloned(),
        )
    }

    /// Like [`Table::select`] but forces a full scan (the reference an
    /// indexed select must agree with).
    pub fn select_scan<'a>(&'a self, pred: &'a Predicate) -> impl Iterator<Item = Value> + 'a {
        self.rows
            .values()
            .filter(move |row| pred.matches(row))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{obj, CollectionSchema, FieldDef, FieldType};

    fn schema() -> CollectionSchema {
        CollectionSchema::relational(
            "customers",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("name", FieldType::Str),
                FieldDef::optional("country", FieldType::Str),
                FieldDef::optional("score", FieldType::Float).with_default(Value::Float(1.0)),
            ],
        )
    }

    fn table() -> Table {
        let mut t = Table::new(schema());
        t.insert(obj! {"id" => 1, "name" => "Ada", "country" => "FI"})
            .unwrap();
        t.insert(obj! {"id" => 2, "name" => "Bob", "country" => "SE", "score" => 3.0})
            .unwrap();
        t.insert(obj! {"id" => 3, "name" => "Eve", "country" => "FI", "score" => 2.0})
            .unwrap();
        t
    }

    #[test]
    fn insert_get_len() {
        let t = table();
        assert_eq!(t.len(), 3);
        let row = t.get(&Key::int(2)).unwrap();
        assert_eq!(row.get_field("name"), &Value::from("Bob"));
        assert!(t.get(&Key::int(9)).is_none());
    }

    #[test]
    fn defaults_applied_on_insert() {
        let t = table();
        assert_eq!(
            t.get(&Key::int(1)).unwrap().get_field("score"),
            &Value::Float(1.0)
        );
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        let err = t.insert(obj! {"id" => 1, "name" => "Dup"}).unwrap_err();
        assert!(matches!(err, Error::AlreadyExists(_)));
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = table();
        assert!(t.insert(obj! {"id" => 9}).is_err(), "missing name");
        assert!(
            t.insert(obj! {"id" => "str", "name" => "X"}).is_err(),
            "bad pk type"
        );
        assert!(t.insert(obj! {"name" => "NoKey"}).is_err(), "missing pk");
        assert!(
            t.insert(obj! {"id" => 9, "name" => "X", "bogus" => 1})
                .is_err(),
            "closed schema"
        );
    }

    #[test]
    fn update_patch_delete() {
        let mut t = table();
        t.update(
            &Key::int(1),
            obj! {"id" => 1, "name" => "Ada L.", "country" => "FI"},
        )
        .unwrap();
        assert_eq!(
            t.get(&Key::int(1)).unwrap().get_field("name"),
            &Value::from("Ada L.")
        );
        assert!(
            t.update(&Key::int(1), obj! {"id" => 99, "name" => "Ada"})
                .is_err(),
            "pk change forbidden"
        );

        t.patch(&Key::int(2), obj! {"score" => 9.0}).unwrap();
        assert_eq!(
            t.get(&Key::int(2)).unwrap().get_field("score"),
            &Value::Float(9.0)
        );
        assert_eq!(
            t.get(&Key::int(2)).unwrap().get_field("name"),
            &Value::from("Bob")
        );

        let removed = t.delete(&Key::int(3)).unwrap();
        assert_eq!(removed.get_field("name"), &Value::from("Eve"));
        assert_eq!(t.len(), 2);
        assert!(t.delete(&Key::int(3)).is_err(), "double delete");
    }

    #[test]
    fn select_with_hash_index_and_without() {
        let mut t = table();
        let pred = Predicate::eq("country", Value::from("FI"));
        let unindexed: Vec<Value> = t.select(&pred).collect();
        assert_eq!(unindexed.len(), 2);

        t.create_index("country", IndexKind::Hash).unwrap();
        let indexed: Vec<Value> = t.select(&pred).collect();
        assert_eq!(indexed.len(), 2);
        let mut a = unindexed;
        let mut b = indexed;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(t.indexed_fields(), vec!["country"]);
    }

    #[test]
    fn select_with_btree_range() {
        let mut t = table();
        t.create_index("score", IndexKind::BTree).unwrap();
        let pred = Predicate::between("score", Value::Float(1.5), Value::Float(3.5));
        let got: Vec<i64> = t
            .select(&pred)
            .map(|r| r.get_field("id").as_int().unwrap())
            .collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&2) && got.contains(&3));
    }

    #[test]
    fn index_stays_consistent_across_mutations() {
        let mut t = table();
        t.create_index("country", IndexKind::Hash).unwrap();
        t.update(
            &Key::int(1),
            obj! {"id" => 1, "name" => "Ada", "country" => "NO"},
        )
        .unwrap();
        let fi: Vec<Value> = t
            .select(&Predicate::eq("country", Value::from("FI")))
            .collect();
        assert_eq!(fi.len(), 1);
        let no: Vec<Value> = t
            .select(&Predicate::eq("country", Value::from("NO")))
            .collect();
        assert_eq!(no.len(), 1);
        t.delete(&Key::int(1)).unwrap();
        assert_eq!(
            t.select(&Predicate::eq("country", Value::from("NO")))
                .count(),
            0
        );
    }

    #[test]
    fn duplicate_index_rejected_and_drop_works() {
        let mut t = table();
        t.create_index("country", IndexKind::Hash).unwrap();
        assert!(t.create_index("country", IndexKind::BTree).is_err());
        t.drop_index("country").unwrap();
        assert!(t.drop_index("country").is_err());
    }

    #[test]
    fn null_equality_probe_bypasses_index() {
        let mut t = table();
        t.insert(obj! {"id" => 9, "name" => "NoCountry"}).unwrap();
        t.create_index("country", IndexKind::Hash).unwrap();
        // country is absent on row 9 → canonical Null; the index holds no
        // null postings, so select must fall back to scanning
        let hits: Vec<Value> = t.select(&Predicate::eq("country", Value::Null)).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get_field("name"), &Value::from("NoCountry"));
        // and a null range bound likewise scans
        let range: Vec<Value> = t
            .select(&Predicate::Le(FieldPath::key("country"), Value::Null))
            .collect();
        assert_eq!(range.len(), 1, "only Null <= Null");
    }

    #[test]
    fn select_scan_matches_select() {
        let mut t = table();
        t.create_index("country", IndexKind::Hash).unwrap();
        let pred = Predicate::eq("country", Value::from("FI"));
        let mut a: Vec<Value> = t.select(&pred).collect();
        let mut b: Vec<Value> = t.select_scan(&pred).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
