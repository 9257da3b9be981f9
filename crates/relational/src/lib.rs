#![warn(missing_docs)]

//! # udbms-relational
//!
//! The relational substrate: schema-first typed tables with primary keys,
//! secondary indexes (hash and B-tree) and a predicate language.
//!
//! Used directly by the polyglot-persistence baseline (as its standalone
//! relational store); the unified engine, MMQL and the data generator
//! reuse the same [`Predicate`], [`Index`]/[`IndexKind`] and
//! [`like_match`] over its own MVCC storage, so both subjects of the
//! benchmark share one meaning of every query.

mod database;
mod index;
mod predicate;
mod table;

pub use database::RelationalDb;
pub use index::{Index, IndexKind};
pub use predicate::{like_match, Predicate};
pub use table::Table;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::{obj, CollectionSchema, FieldDef, FieldType, Key, Value};

    fn table_with_index() -> Table {
        let schema = CollectionSchema::relational(
            "t",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("v", FieldType::Int),
            ],
        );
        let mut t = Table::new(schema);
        t.create_index("v", IndexKind::BTree).unwrap();
        t
    }

    proptest! {
        /// An index-accelerated equality scan returns exactly what a full
        /// scan returns — the core index-correctness invariant.
        #[test]
        fn index_scan_equals_full_scan(vals in prop::collection::vec(0i64..50, 1..80)) {
            let mut t = table_with_index();
            for (i, v) in vals.iter().enumerate() {
                t.insert(obj! {"id" => i as i64, "v" => *v}).unwrap();
            }
            for probe in 0i64..50 {
                let pred = Predicate::eq("v", Value::Int(probe));
                let mut via_index: Vec<Value> = t.select(&pred).collect();
                let mut via_scan: Vec<Value> =
                    t.scan().filter(|r| pred.matches(r)).cloned().collect();
                via_index.sort();
                via_scan.sort();
                prop_assert_eq!(via_index, via_scan);
            }
        }

        /// Insert-then-delete leaves the table and all indexes empty.
        #[test]
        fn delete_cleans_indexes(vals in prop::collection::vec(0i64..20, 1..40)) {
            let mut t = table_with_index();
            for (i, v) in vals.iter().enumerate() {
                t.insert(obj! {"id" => i as i64, "v" => *v}).unwrap();
            }
            for i in 0..vals.len() {
                t.delete(&Key::int(i as i64)).unwrap();
            }
            prop_assert_eq!(t.len(), 0);
            for probe in 0i64..20 {
                prop_assert_eq!(t.select(&Predicate::eq("v", Value::Int(probe))).count(), 0);
            }
        }
    }
}
