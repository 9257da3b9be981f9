//! Schema-first tables with primary keys and secondary indexes, and the
//! index-or-scan selection the relational and document stores share.

use std::collections::{BTreeMap, HashMap};

use udbms_core::{
    CollectionSchema, Error, FieldPath, Index, IndexKind, Key, Predicate, Result, Value,
};

/// A relational table: validated rows stored by primary key, with
/// index-accelerated selection.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    schema: CollectionSchema,
    pk_field: String,
    rows: BTreeMap<Key, Value>,
    indexes: HashMap<FieldPath, Index>,
}

impl Table {
    /// Create an empty table from a relational schema (must declare a
    /// primary key).
    pub(crate) fn new(schema: CollectionSchema) -> Table {
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

    /// Insert a new row. Fails on schema violation or duplicate key.
    pub(crate) fn insert(&mut self, mut row: Value) -> Result<Key> {
        self.schema.apply_defaults(&mut row);
        self.schema.validate(&row)?;
        let v = row.get_field(&self.pk_field);
        if v.is_null() {
            return Err(Error::Constraint(format!(
                "row lacks primary key `{}`",
                self.pk_field
            )));
        }
        let key = Key::new(v.clone())?;
        if self.rows.contains_key(&key) {
            return Err(Error::AlreadyExists(format!(
                "primary key {key} in table `{}`",
                self.schema.name
            )));
        }
        for (path, idx) in &mut self.indexes {
            idx.post(path, &row, &key);
        }
        self.rows.insert(key.clone(), row);
        Ok(key)
    }

    /// Fetch by primary key.
    pub(crate) fn get(&self, key: &Key) -> Option<&Value> {
        self.rows.get(key)
    }

    /// Create a secondary index on a column and backfill it.
    pub(crate) fn create_index(&mut self, field: &str, kind: IndexKind) -> Result<()> {
        let path = FieldPath::key(field);
        if self.indexes.contains_key(&path) {
            return Err(Error::AlreadyExists(format!("index on `{field}`")));
        }
        let mut idx = Index::new(kind);
        for (key, row) in &self.rows {
            idx.post(&path, row, key);
        }
        self.indexes.insert(path, idx);
        Ok(())
    }

    /// The rows matching a predicate (see [`select`]).
    pub(crate) fn select(&self, pred: &Predicate) -> Vec<Value> {
        select(&self.rows, &self.indexes, pred)
    }

    /// [`Table::select`] by a full scan: the reference an indexed select
    /// must agree with.
    #[cfg(test)]
    fn select_scan(&self, pred: &Predicate) -> Vec<Value> {
        select(&self.rows, &HashMap::new(), pred)
    }
}

/// The rows matching `pred`, through the first index that can answer it
/// ([`Predicate::probe`]), else by a scan in key order. Every candidate
/// an index returns is re-checked against the whole predicate.
pub(crate) fn select(
    rows: &BTreeMap<Key, Value>,
    indexes: &HashMap<FieldPath, Index>,
    pred: &Predicate,
) -> Vec<Value> {
    let matching = |row: &&Value| pred.matches(row);
    let probed = indexes
        .iter()
        .find_map(|(path, idx)| idx.lookup(pred.probe(path)?));
    match probed {
        Some(keys) => keys
            .iter()
            .filter_map(|k| rows.get(k))
            .filter(matching)
            .cloned()
            .collect(),
        None => rows.values().filter(matching).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::{arr, obj, CollectionSchema, FieldDef, FieldType};

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

    fn sorted(mut rows: Vec<Value>) -> Vec<Value> {
        rows.sort();
        rows
    }

    #[test]
    fn insert_get_len() {
        let t = table();
        assert_eq!(t.rows.len(), 3);
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
    fn select_with_hash_index_and_without() {
        let mut t = table();
        let pred = Predicate::eq("country", Value::from("FI"));
        let unindexed = t.select(&pred);
        assert_eq!(unindexed.len(), 2);

        t.create_index("country", IndexKind::Hash).unwrap();
        let indexed = t.select(&pred);
        assert_eq!(sorted(unindexed), sorted(indexed));
    }

    #[test]
    fn select_with_btree_range() {
        let mut t = table();
        t.create_index("score", IndexKind::BTree).unwrap();
        let pred = Predicate::between("score", Value::Float(1.5), Value::Float(3.5));
        let got: Vec<i64> = t
            .select(&pred)
            .iter()
            .map(|r| r.get_field("id").as_int().unwrap())
            .collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&2) && got.contains(&3));
    }

    #[test]
    fn index_stays_consistent_across_mutations() {
        let mut t = table();
        t.create_index("country", IndexKind::Hash).unwrap();
        // rows inserted after the backfill are posted too
        t.insert(obj! {"id" => 4, "name" => "Ann", "country" => "NO"})
            .unwrap();
        t.insert(obj! {"id" => 5, "name" => "Ola", "country" => "FI"})
            .unwrap();
        for (country, n) in [("FI", 3), ("NO", 1), ("SE", 1), ("DK", 0)] {
            let pred = Predicate::eq("country", Value::from(country));
            assert_eq!(t.select(&pred).len(), n, "{country}");
        }
    }

    #[test]
    fn duplicate_index_rejected_and_drop_works() {
        let mut t = table();
        t.create_index("country", IndexKind::Hash).unwrap();
        assert!(t.create_index("country", IndexKind::BTree).is_err());
        // the rejected create leaves the first index serving selects
        let fi = Predicate::eq("country", Value::from("FI"));
        assert_eq!(sorted(t.select(&fi)), sorted(t.select_scan(&fi)));
    }

    #[test]
    fn null_equality_probe_bypasses_index() {
        let mut t = table();
        t.insert(obj! {"id" => 9, "name" => "NoCountry"}).unwrap();
        t.create_index("country", IndexKind::Hash).unwrap();
        // country is absent on row 9 → canonical Null; the index holds no
        // null postings, so select must fall back to scanning
        let hits = t.select(&Predicate::eq("country", Value::Null));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get_field("name"), &Value::from("NoCountry"));
        // and a null range bound likewise scans
        let range = t.select(&Predicate::Le(FieldPath::key("country"), Value::Null));
        assert_eq!(range.len(), 1, "only Null <= Null");
    }

    #[test]
    fn select_scan_matches_select() {
        let mut t = table();
        t.create_index("country", IndexKind::Hash).unwrap();
        let pred = Predicate::eq("country", Value::from("FI"));
        assert_eq!(sorted(t.select(&pred)), sorted(t.select_scan(&pred)));
    }

    /// A schemaless table (only the key is declared) with a B-tree on
    /// `v`, loaded with `vals`: shape 0 is a missing `v`, 1 a `Null`,
    /// 2 a one-element array, 3 a string, anything else the integer.
    fn loaded(vals: &[(u8, i64)]) -> Table {
        let schema =
            CollectionSchema::document("t", "id", vec![FieldDef::required("id", FieldType::Int)]);
        let mut t = Table::new(schema);
        t.create_index("v", IndexKind::BTree).unwrap();
        for (i, (shape, v)) in vals.iter().enumerate() {
            let mut row = obj! {"id" => i as i64};
            let v = match shape {
                0 => None,
                1 => Some(Value::Null),
                2 => Some(arr![*v]),
                3 => Some(Value::from(format!("{v}"))),
                _ => Some(Value::Int(*v)),
            };
            if let (Some(v), Some(fields)) = (v, row.as_object_mut()) {
                fields.insert("v".into(), v);
            }
            t.insert(row).unwrap();
        }
        t
    }

    proptest! {
        /// An index-accelerated select returns exactly what a full scan
        /// returns — the core index-correctness invariant — for
        /// equalities, ranges open below, inverted ranges and `Null`
        /// probes, over rows whose `v` is missing, `Null`, an array, a
        /// string or an integer.
        #[test]
        fn index_scan_equals_full_scan(vals in prop::collection::vec((0u8..8, 0i64..50), 1..80)) {
            let t = loaded(&vals);
            for probe in 0i64..50 {
                let v = Value::Int(probe);
                for pred in [
                    Predicate::eq("v", v.clone()),
                    Predicate::eq("v", arr![probe]),
                    Predicate::lt("v", v.clone()),
                    Predicate::gt("v", v.clone()),
                    Predicate::between("v", v.clone(), Value::Int(probe + 7)),
                    Predicate::between("v", v.clone(), Value::Int(probe - 7)),
                    Predicate::eq("v", Value::Null),
                ] {
                    prop_assert_eq!(sorted(t.select(&pred)), sorted(t.select_scan(&pred)), "{:?}", pred);
                }
            }
        }
    }
}
