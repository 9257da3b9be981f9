//! The write side of [`Txn`]. Every write takes one path, in this order:
//! **check** the handle is open and not a read-lane one, before anything
//! is read, drawn or buffered; **resolve** the collection, once, under one
//! catalog *read* guard held to the end of the call; assign **keys**
//! (`insert*` only: an auto id is an atomic draw from the collection's
//! counter, never handed out again, even if the call then fails); require
//! **existence** (`insert*`: absent; `update`/`merge`: present; `delete*`:
//! whatever is there), read at the transaction's horizon through its own
//! writes; **validate** every value, then **buffer** them all — a failing
//! batch buffers nothing.

use udbms_core::{CollectionId, CollectionSchema, Error, Key, ModelKind, Result, Value};

use crate::engine::Inner;
use crate::reads::{read_many, read_one, Txn};
use crate::storage::RecordId;
use crate::txn::TxnState;

impl Txn {
    /// [`Txn::parts`] for a write entry point: read-lane transactions
    /// are turned away here.
    pub(crate) fn write_parts(&mut self) -> Result<(&Inner, &mut TxnState)> {
        let (inner, state) = self.parts()?;
        if state.read_only {
            return Err(Error::Unsupported(
                "write on a read-lane transaction (use Engine::begin)".into(),
            ));
        }
        Ok((inner, state))
    }

    /// Upsert a record. Relational collections validate their closed
    /// schema; document collections validate declared fields; XML
    /// collections require a valid bridge encoding.
    pub fn put(&mut self, collection: &str, key: Key, value: Value) -> Result<()> {
        self.put_all(collection, [(key, value)])
    }

    /// Upsert a batch of records in one call: the catalog is consulted
    /// once for the whole batch, and at commit every touched storage
    /// shard is locked once per batch rather than per record.
    pub fn put_many(&mut self, collection: &str, items: Vec<(Key, Value)>) -> Result<()> {
        self.put_all(collection, items)
    }

    fn put_all(
        &mut self,
        collection: &str,
        items: impl AsMut<[(Key, Value)]> + IntoIterator<Item = (Key, Value)>,
    ) -> Result<()> {
        let (inner, state) = self.write_parts()?;
        let catalog = inner.catalog.read();
        let info = catalog.get(collection)?;
        store(info.id, &info.schema, state, items)
    }

    /// Insert a new record; fails if the key already exists (at this
    /// transaction's read horizon). For document collections a missing
    /// `_id` is auto-assigned. Returns the key.
    pub fn insert(&mut self, collection: &str, value: Value) -> Result<Key> {
        let mut keys = self.insert_all(collection, vec![value], ["insert", "put"])?;
        keys.pop()
            .ok_or_else(|| Error::Invalid("insert() assigned no key".into()))
    }

    /// Insert a batch of new records; fails if any key already exists at
    /// this transaction's read horizon (or twice within the batch).
    /// Existence checks lock each touched shard once for the whole
    /// batch. Returns the keys in input order.
    pub fn insert_many(&mut self, collection: &str, values: Vec<Value>) -> Result<Vec<Key>> {
        self.insert_all(collection, values, ["insert_many", "put_many"])
    }

    fn insert_all(
        &mut self,
        collection: &str,
        mut values: Vec<Value>,
        [call, keyless_call]: [&str; 2],
    ) -> Result<Vec<Key>> {
        let (inner, state) = self.write_parts()?;
        let catalog = inner.catalog.read();
        let info = catalog.get(collection)?;
        let pk = info.schema.primary_key.as_deref().ok_or_else(|| {
            Error::Unsupported(format!(
                "{call}() needs a primary-keyed collection; `{collection}` has none (use {keyless_call})"
            ))
        })?;
        // keys, in order: the primary key a value carries, or — documents
        // only — the next auto id, written into it
        let mut keys = Vec::with_capacity(values.len());
        for value in &mut values {
            keys.push(match value.get_field(pk) {
                Value::Null if info.schema.model == ModelKind::Document => {
                    let key = Key::int(info.next_auto_id());
                    if let Some(obj) = value.as_object_mut() {
                        obj.insert(pk.to_string(), key.value().clone());
                    }
                    key
                }
                Value::Null => {
                    return Err(Error::Constraint(format!("row lacks primary key `{pk}`")))
                }
                given => Key::new(given.clone())?,
            });
        }
        // existence: no key may be visible at the read horizon, in the
        // write buffer, or twice in `keys`
        let rids: Vec<RecordId> = keys
            .iter()
            .map(|k| RecordId::new(info.id, k.clone()))
            .collect();
        let current = read_many(inner, state, &rids);
        let mut batch_keys = std::collections::HashSet::new();
        for (key, cur) in keys.iter().zip(&current) {
            if cur.is_some() || !batch_keys.insert(key) {
                return Err(Error::AlreadyExists(format!("key {key} in `{collection}`")));
            }
        }
        let items: Vec<(Key, Value)> = keys.iter().cloned().zip(values).collect();
        store(info.id, &info.schema, state, items)?;
        Ok(keys)
    }

    /// Replace an existing record; fails when absent.
    pub fn update(&mut self, collection: &str, key: &Key, value: Value) -> Result<()> {
        self.rewrite(collection, key, |_| value)
    }

    /// Deep-merge a patch into an existing record.
    pub fn merge(&mut self, collection: &str, key: &Key, patch: Value) -> Result<()> {
        self.rewrite(collection, key, |current| {
            let mut merged = current.clone();
            merged.merge_from(patch);
            merged
        })
    }

    /// The record must exist; what `next` makes of it replaces it.
    fn rewrite(
        &mut self,
        collection: &str,
        key: &Key,
        next: impl FnOnce(&Value) -> Value,
    ) -> Result<()> {
        let (inner, state) = self.write_parts()?;
        let catalog = inner.catalog.read();
        let info = catalog.get(collection)?;
        let current = read_one(inner, state, RecordId::new(info.id, key.clone()))
            .ok_or_else(|| Error::NotFound(format!("key {key} in `{collection}`")))?;
        store(
            info.id,
            &info.schema,
            state,
            [(key.clone(), next(&current))],
        )
    }

    /// Delete a record; returns whether it existed.
    pub fn delete(&mut self, collection: &str, key: &Key) -> Result<bool> {
        Ok(self.delete_many(collection, std::slice::from_ref(key))? == 1)
    }

    /// Delete a batch of records; returns how many existed. Existence
    /// checks lock each touched shard once for the whole batch.
    pub fn delete_many(&mut self, collection: &str, keys: &[Key]) -> Result<usize> {
        let (inner, state) = self.write_parts()?;
        let id = inner.catalog.read().get(collection)?.id;
        let rids: Vec<RecordId> = keys.iter().map(|k| RecordId::new(id, k.clone())).collect();
        let current = read_many(inner, state, &rids);
        let mut deleted = 0usize;
        for (rid, cur) in rids.into_iter().zip(current) {
            // a key given twice is deleted by its first mention
            if cur.is_some() && state.own_write(&rid) != Some(&None) {
                state.buffer_write(rid, None);
                deleted += 1;
            }
        }
        Ok(deleted)
    }
}

/// The one write body: validate every value against the collection's
/// model — defaults applied, XML bridge encoding checked — then buffer
/// them all. One record arrives as an array, a batch as a `Vec`.
pub(crate) fn store(
    id: CollectionId,
    schema: &CollectionSchema,
    state: &mut TxnState,
    mut items: impl AsMut<[(Key, Value)]> + IntoIterator<Item = (Key, Value)>,
) -> Result<()> {
    for (_, value) in items.as_mut() {
        match schema.model {
            ModelKind::Relational | ModelKind::Document => {
                schema.apply_defaults(value);
                schema.validate(value)?;
            }
            ModelKind::Xml => udbms_xml::check_xml_value(value)?,
            ModelKind::KeyValue | ModelKind::Graph => {}
        }
    }
    for (key, value) in items {
        state.buffer_write(RecordId::new(id, key), Some(value));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engine;
    use crate::Isolation;
    use udbms_core::obj;

    #[test]
    fn insert_semantics_per_model() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        // relational: schema enforced
        assert!(
            t.insert("customers", obj! {"id" => 1}).is_err(),
            "missing name"
        );
        assert!(
            t.insert("customers", obj! {"name" => "NoId"}).is_err(),
            "missing pk"
        );
        t.insert("customers", obj! {"id" => 1, "name" => "Ada"})
            .unwrap();
        assert!(
            t.insert("customers", obj! {"id" => 1, "name" => "Dup"})
                .is_err(),
            "duplicate pk inside own writes"
        );
        // document: auto id
        let k = t.insert("orders", obj! {"total" => 1.0}).unwrap();
        assert_eq!(k, Key::int(1));
        let doc = t.get("orders", &k).unwrap().unwrap();
        assert_eq!(doc.get_field("_id"), &Value::Int(1));
        // kv: insert unsupported, put works
        assert!(t.insert("feedback", obj! {"x" => 1}).is_err());
        t.commit().unwrap();
    }

    #[test]
    fn update_merge_delete() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.insert(
                "customers",
                obj! {"id" => 1, "name" => "Ada", "country" => "FI"},
            )?;
            Ok(())
        })
        .unwrap();
        e.run(Isolation::Snapshot, |t| {
            assert!(t
                .update("customers", &Key::int(9), obj! {"id" => 9, "name" => "X"})
                .is_err());
            t.merge("customers", &Key::int(1), obj! {"country" => "SE"})?;
            Ok(())
        })
        .unwrap();
        e.run(Isolation::Snapshot, |t| {
            let c = t.get("customers", &Key::int(1))?.unwrap();
            assert_eq!(c.get_field("country"), &Value::from("SE"));
            assert_eq!(c.get_field("name"), &Value::from("Ada"));
            assert!(t.delete("customers", &Key::int(1))?);
            assert!(!t.delete("customers", &Key::int(1))?);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn batched_writes_roundtrip() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "feedback",
                (0..50).map(|i| (Key::int(i), Value::Int(i * 10))).collect(),
            )
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.scan_shared("feedback").unwrap().len(), 50);
        assert_eq!(
            t.get("feedback", &Key::int(7)).unwrap(),
            Some(Value::Int(70))
        );
        drop(t);

        // delete_many counts only existing keys, once each
        let deleted = e
            .run(Isolation::Snapshot, |t| {
                t.delete_many(
                    "feedback",
                    &[Key::int(1), Key::int(2), Key::int(2), Key::int(999)],
                )
            })
            .unwrap();
        assert_eq!(deleted, 2);
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.scan_shared("feedback").unwrap().len(), 48);
    }

    #[test]
    fn insert_many_assigns_ids_and_rejects_duplicates() {
        let e = engine();
        let keys = e
            .run(Isolation::Snapshot, |t| {
                t.insert_many(
                    "orders",
                    (0..10).map(|i| obj! {"total" => i as f64}).collect(),
                )
            })
            .unwrap();
        assert_eq!(keys.len(), 10);
        let mut t = e.begin(Isolation::Snapshot);
        for k in &keys {
            let doc = t.get("orders", k).unwrap().expect("inserted");
            assert_eq!(doc.get_field("_id"), k.value(), "auto id injected");
        }
        drop(t);

        // duplicate against committed state
        let mut t = e.begin(Isolation::Snapshot);
        let err = t
            .insert_many(
                "customers",
                vec![
                    obj! {"id" => 1, "name" => "Ada"},
                    obj! {"id" => 1, "name" => "Dup"},
                ],
            )
            .unwrap_err();
        assert!(matches!(err, Error::AlreadyExists(_)), "{err}");
        // nothing from the failed batch is buffered
        assert!(t.get("customers", &Key::int(1)).unwrap().is_none());
        t.abort();

        // batched inserts validate schemas like single inserts
        assert!(e
            .run(Isolation::Snapshot, |t| t
                .insert_many("customers", vec![obj! {"id" => 2}])
                .map(|_| ()))
            .is_err());
    }

    #[test]
    fn batched_writes_validate_and_buffer_atomically() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        // one invalid record fails the whole put_many before buffering
        let err = t
            .put_many(
                "customers",
                vec![
                    (Key::int(1), obj! {"id" => 1, "name" => "Ada"}),
                    (Key::int(2), obj! {"id" => 2}), // missing required name
                ],
            )
            .unwrap_err();
        assert!(
            matches!(err, Error::Constraint(_) | Error::Invalid(_)),
            "{err}"
        );
        assert!(
            t.scan_shared("customers").unwrap().is_empty(),
            "nothing buffered"
        );
    }

    #[test]
    fn read_lane_sees_committed_state_and_rejects_writes() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), Value::Int(10))?;
            t.put("feedback", Key::int(2), Value::Int(20))
        })
        .unwrap();
        let mut r = e.begin_read();
        assert_eq!(
            r.get("feedback", &Key::int(1)).unwrap(),
            Some(Value::Int(10))
        );
        assert_eq!(
            r.get_shared("feedback", &Key::int(2))
                .unwrap()
                .as_deref()
                .cloned(),
            Some(Value::Int(20))
        );
        assert_eq!(r.scan_shared("feedback").unwrap().len(), 2);
        // every write entry point is rejected, whether or not the record
        // it names exists (key 1 does, key 9 does not) …
        let refused = |what: &str, r: Result<()>| {
            assert!(matches!(r, Err(Error::Unsupported(_))), "{what}: {r:?}");
        };
        for k in [1i64, 9] {
            let key = Key::int(k);
            let doc = obj! {"_id" => k, "id" => k, "name" => "Ada"};
            refused("put", r.put("feedback", key.clone(), Value::Int(3)));
            refused("update", r.update("feedback", &key, Value::Int(3)));
            refused("merge", r.merge("feedback", &key, obj! {"x" => 1}));
            refused("delete", r.delete("feedback", &key).map(|_| ()));
            let items = vec![(key.clone(), Value::Int(4))];
            refused("put_many", r.put_many("feedback", items));
            let keys = [key.clone()];
            refused("delete_many", r.delete_many("feedback", &keys).map(|_| ()));
            refused("insert", r.insert("customers", doc.clone()).map(|_| ()));
            refused("insert", r.insert("orders", doc.clone()).map(|_| ()));
            let docs = vec![doc.clone()];
            refused("insert_many", r.insert_many("orders", docs).map(|_| ()));
            refused(
                "add_vertex",
                r.add_vertex("social", key.clone(), "c", obj! {}),
            );
            let edge = r.add_edge("social", &key, &key, "knows", Value::Null);
            refused("add_edge", edge.map(|_| ()));
            refused("put_xml", r.put_xml("invoices", key.clone(), "<I/>"));
            refused("put_xml", r.put_xml("invoices", key, "<broken"));
        }
        // … and none of them drew an id: the first auto ids are still there
        refused(
            "insert",
            r.insert("orders", obj! {"total" => 1.0}).map(|_| ()),
        );
        let docs = vec![obj! {"total" => 2.0}];
        refused("insert_many", r.insert_many("orders", docs).map(|_| ()));
        e.run(Isolation::Snapshot, |t| {
            assert_eq!(t.insert("orders", obj! {"total" => 3.0})?, Key::int(1));
            t.add_vertex("social", Key::int(1), "c", obj! {})?;
            let edge = t.add_edge("social", &Key::int(1), &Key::int(1), "self", Value::Null)?;
            assert_eq!(edge, Key::int(1));
            Ok(())
        })
        .unwrap();
        // empty-write commit succeeds and counts as a commit
        r.commit().unwrap();
        assert_eq!(e.stats().read_txns, 1);
    }
}
