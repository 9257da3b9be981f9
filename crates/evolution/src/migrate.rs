//! Applying evolution operations to a live engine: schema swap + forward
//! data migration, transactionally per batch.

use udbms_core::Result;
use udbms_engine::{Engine, Isolation};

use crate::ops::EvolutionOp;

/// Outcome of one applied migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationStats {
    /// Records rewritten.
    pub migrated: usize,
    /// New schema version of the collection.
    pub new_version: u32,
}

/// Apply an operation to a collection: install the new schema, then
/// migrate every record forward. The schema swap goes first, through
/// [`Engine::set_schema`] and outside any transaction, so the write path
/// validates each migrated value against the new schema; the data
/// migration then runs in batched snapshot transactions. Until the last
/// batch commits, a reader sees the new schema over partly migrated
/// data: the swap and the migration share no commit point (ROADMAP
/// item 1, "the catalog is data", owns that).
pub fn apply(engine: &Engine, op: &EvolutionOp) -> Result<MigrationStats> {
    let name = op.collection().to_string();
    let old_schema = engine.schema_of(&name)?;
    let new_schema = op.apply_schema(&old_schema)?;

    // the write path validates against the new schema, so it goes first
    engine.set_schema(&name, new_schema.clone())?;

    const BATCH: usize = 512;
    let keys: Vec<udbms_core::Key> = {
        let mut t = engine.begin(Isolation::Snapshot);
        let out = t.scan_shared(&name)?.into_iter().map(|(k, _)| k).collect();
        t.abort();
        out
    };
    let mut migrated = 0usize;
    for chunk in keys.chunks(BATCH) {
        engine.run(Isolation::Snapshot, |t| {
            for key in chunk {
                if let Some(mut v) = t.get(&name, key)? {
                    let before = v.clone();
                    op.migrate_value(&mut v);
                    if v != before {
                        t.put(&name, key.clone(), v)?;
                    }
                }
            }
            Ok(())
        })?;
        migrated += chunk.len();
    }
    Ok(MigrationStats {
        migrated,
        new_version: new_schema.version,
    })
}

/// Apply a whole chain in order, returning per-step stats.
pub fn apply_chain(engine: &Engine, ops: &[EvolutionOp]) -> Result<Vec<MigrationStats>> {
    ops.iter().map(|op| apply(engine, op)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::EvolutionOp;
    use udbms_core::{obj, CollectionSchema, FieldDef, FieldType, Key, Value};

    fn engine() -> Engine {
        let e = Engine::new();
        e.create_collection(CollectionSchema::document(
            "orders",
            "_id",
            vec![
                FieldDef::required("_id", FieldType::Str),
                FieldDef::optional("status", FieldType::Str),
                FieldDef::optional("city", FieldType::Str),
            ],
        ))
        .unwrap();
        e.run(Isolation::Snapshot, |t| {
            t.insert(
                "orders",
                obj! {"_id" => "o1", "status" => "open", "city" => "Helsinki"},
            )?;
            t.insert("orders", obj! {"_id" => "o2", "status" => "paid"})?;
            Ok(())
        })
        .unwrap();
        e
    }

    #[test]
    fn rename_migrates_data_and_schema() {
        let e = engine();
        let op = EvolutionOp::RenameField {
            collection: "orders".into(),
            from: "status".into(),
            to: "state".into(),
        };
        let stats = apply(&e, &op).unwrap();
        assert_eq!(stats.migrated, 2);
        assert_eq!(stats.new_version, 2);
        assert_eq!(e.schema_of("orders").unwrap().version, 2);
        e.run(Isolation::Snapshot, |t| {
            let o1 = t.get("orders", &Key::str("o1"))?.unwrap();
            assert_eq!(o1.get_field("state"), &Value::from("open"));
            assert!(o1.get_field("status").is_null());
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn chain_applies_in_order() {
        let e = engine();
        let ops = vec![
            EvolutionOp::RenameField {
                collection: "orders".into(),
                from: "status".into(),
                to: "state".into(),
            },
            EvolutionOp::NestFields {
                collection: "orders".into(),
                fields: vec!["city".into()],
                into: "address".into(),
            },
            EvolutionOp::AddField {
                collection: "orders".into(),
                field: FieldDef::optional("channel", FieldType::Str)
                    .with_default(Value::from("web")),
            },
        ];
        let stats = apply_chain(&e, &ops).unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(e.schema_of("orders").unwrap().version, 4);
        e.run(Isolation::Snapshot, |t| {
            let o1 = t.get("orders", &Key::str("o1"))?.unwrap();
            assert_eq!(
                o1.get_dotted("address.city").unwrap(),
                &Value::from("Helsinki")
            );
            assert_eq!(o1.get_field("channel"), &Value::from("web"));
            assert_eq!(o1.get_field("state"), &Value::from("open"));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn failing_op_reports_error() {
        let e = engine();
        let op = EvolutionOp::DropField {
            collection: "orders".into(),
            field: "_id".into(),
        };
        assert!(apply(&e, &op).is_err());
        let op = EvolutionOp::RenameField {
            collection: "missing".into(),
            from: "a".into(),
            to: "b".into(),
        };
        assert!(apply(&e, &op).is_err());
    }
}
