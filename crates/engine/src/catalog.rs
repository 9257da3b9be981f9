//! The catalog: collection metadata, auto-id counters and secondary
//! index **definitions** for the unified engine.
//!
//! Engine indexes are **over-approximating**: postings are added at commit
//! time and only reconciled during GC (rebuilt from retained versions), so
//! an index lookup may return keys whose current/visible value no longer
//! matches — readers always re-validate candidates against their snapshot.
//! This is the standard MVCC-secondary-index design and one of the
//! ablation subjects.
//!
//! Since the sharding refactor the catalog records only *which* indexes
//! exist (collection, path, kind); the postings live as per-shard
//! segments inside [`crate::Shard`], guarded by the shard locks, so a
//! commit never takes a catalog write lock on the hot path.
//!
//! The catalog itself is lock-free; the engine guards the one instance
//! with a rank-tracked `RwLock` (`parking_lot::LockRank::Catalog`,
//! after `commit_lock`, before any shard lock — see DESIGN.md,
//! "Invariants & static analysis").

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};

use udbms_core::{CollectionId, CollectionSchema, Error, FieldPath, IndexKind, Result};

/// Metadata of one collection.
#[derive(Debug)]
pub struct CollectionInfo {
    /// Assigned id.
    pub id: CollectionId,
    /// Schema (model kind, fields, primary key…).
    pub schema: CollectionSchema,
    /// Next auto-assigned integer id for inserts without a key.
    next_auto_id: AtomicI64,
}

impl CollectionInfo {
    /// Draw the next auto id — under the catalog *read* guard, so writers
    /// never serialize on the catalog for it. Ids are only required to be
    /// unique: one drawn by a call that then fails is not handed out again.
    pub fn next_auto_id(&self) -> i64 {
        self.next_auto_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// The engine catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    by_name: HashMap<String, CollectionInfo>,
    names_by_id: HashMap<CollectionId, String>,
    indexes: HashMap<(CollectionId, FieldPath), IndexKind>,
    next_collection_id: u32,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a collection.
    pub fn create(&mut self, schema: CollectionSchema) -> Result<CollectionId> {
        let name = schema.name.clone();
        if self.by_name.contains_key(&name) {
            return Err(Error::AlreadyExists(format!("collection `{name}`")));
        }
        let id = CollectionId(self.next_collection_id);
        self.next_collection_id += 1;
        self.by_name.insert(
            name.clone(),
            CollectionInfo {
                id,
                schema,
                next_auto_id: AtomicI64::new(1),
            },
        );
        self.names_by_id.insert(id, name);
        Ok(id)
    }

    /// Remove a collection and its indexes.
    pub fn drop_collection(&mut self, name: &str) -> Result<CollectionId> {
        let info = self
            .by_name
            .remove(name)
            .ok_or_else(|| Error::NotFound(format!("collection `{name}`")))?;
        self.names_by_id.remove(&info.id);
        self.indexes.retain(|(cid, _), _| *cid != info.id);
        Ok(info.id)
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Result<&CollectionInfo> {
        self.by_name
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("collection `{name}`")))
    }

    /// Look up mutably by name.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut CollectionInfo> {
        self.by_name
            .get_mut(name)
            .ok_or_else(|| Error::NotFound(format!("collection `{name}`")))
    }

    /// Name of a collection id.
    pub fn name_of(&self, id: CollectionId) -> Option<&str> {
        self.names_by_id.get(&id).map(String::as_str)
    }

    /// All collection names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.by_name.keys().cloned().collect();
        names.sort();
        names
    }

    /// [`CollectionInfo::next_auto_id`] by collection name.
    pub fn next_auto_id(&self, name: &str) -> Result<i64> {
        Ok(self.get(name)?.next_auto_id())
    }

    /// Replace a collection's schema in place (schema evolution).
    pub fn set_schema(&mut self, name: &str, schema: CollectionSchema) -> Result<()> {
        let info = self.get_mut(name)?;
        info.schema = schema;
        Ok(())
    }

    /// Record a secondary index definition on `path` of collection
    /// `name`; returns the collection id so the caller can create the
    /// per-shard segments.
    pub fn create_index(
        &mut self,
        name: &str,
        path: FieldPath,
        kind: IndexKind,
    ) -> Result<CollectionId> {
        let id = self.get(name)?.id;
        let slot = (id, path);
        if self.indexes.contains_key(&slot) {
            return Err(Error::AlreadyExists(format!(
                "index on `{}`.`{}`",
                name, slot.1
            )));
        }
        self.indexes.insert(slot, kind);
        Ok(id)
    }

    /// Drop a secondary index definition; returns the collection id so
    /// the caller can drop the per-shard segments.
    pub fn drop_index(&mut self, name: &str, path: &FieldPath) -> Result<CollectionId> {
        let id = self.get(name)?.id;
        self.indexes
            .remove(&(id, path.clone()))
            .map(|_| id)
            .ok_or_else(|| Error::NotFound(format!("index on `{name}`.`{path}`")))
    }

    /// Indexed paths of a collection.
    pub fn indexed_paths(&self, id: CollectionId) -> Vec<&FieldPath> {
        self.indexes
            .keys()
            .filter(|(cid, _)| *cid == id)
            .map(|(_, p)| p)
            .collect()
    }

    /// Collection ids currently registered.
    pub fn ids(&self) -> Vec<CollectionId> {
        self.names_by_id.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_drop() {
        let mut c = Catalog::new();
        let id = c.create(CollectionSchema::key_value("feedback")).unwrap();
        assert_eq!(c.get("feedback").unwrap().id, id);
        assert_eq!(c.name_of(id), Some("feedback"));
        assert!(c.create(CollectionSchema::key_value("feedback")).is_err());
        assert_eq!(c.names(), vec!["feedback"]);
        c.drop_collection("feedback").unwrap();
        assert!(c.get("feedback").is_err());
        assert!(c.drop_collection("feedback").is_err());
    }

    #[test]
    fn auto_ids_are_unique() {
        let mut c = Catalog::new();
        c.create(CollectionSchema::document("orders", "_id", vec![]))
            .unwrap();
        assert_eq!(c.next_auto_id("orders").unwrap(), 1);
        assert_eq!(c.next_auto_id("orders").unwrap(), 2);
        assert!(c.next_auto_id("missing").is_err());
    }

    #[test]
    fn index_definition_lifecycle() {
        let mut c = Catalog::new();
        let id = c
            .create(CollectionSchema::document("orders", "_id", vec![]))
            .unwrap();
        let path = FieldPath::key("status");
        assert_eq!(
            c.create_index("orders", path.clone(), IndexKind::Hash)
                .unwrap(),
            id
        );
        assert!(c
            .create_index("orders", path.clone(), IndexKind::Hash)
            .is_err());
        assert_eq!(c.indexed_paths(id).len(), 1);

        assert_eq!(c.drop_index("orders", &path).unwrap(), id);
        assert!(c.indexed_paths(id).is_empty());
        assert!(c.drop_index("orders", &path).is_err());
    }

    #[test]
    fn drop_collection_drops_its_index_definitions() {
        let mut c = Catalog::new();
        let id = c.create(CollectionSchema::key_value("ns")).unwrap();
        c.create_index("ns", FieldPath::key("v"), IndexKind::Hash)
            .unwrap();
        c.drop_collection("ns").unwrap();
        assert!(c.indexed_paths(id).is_empty());
    }
}
