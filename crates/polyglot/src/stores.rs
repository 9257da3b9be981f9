//! The five independent single-model stores and the client-side
//! cross-store transaction coordinator.
//!
//! This is the *polyglot persistence* architecture the paper positions
//! multi-model databases against: one store per model, each with its own
//! lock domain (its own "server"), glued together by application code.
//! Cross-store atomicity requires the coordinator ([`PolyglotDb::transact`]),
//! which takes every store's lock in a fixed order — an idealized,
//! failure-free two-phase commit (real 2PC could only be slower, so the
//! comparison favours the baseline).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use udbms_core::{Key, Result};
use udbms_graph::PropertyGraph;
use udbms_relational::RelationalDb;
use udbms_xml::XmlNode;

use crate::document::DocumentStore;
use crate::kv::KvStore;

/// A simple XML document store (key → tree), standing in for an XML
/// database in the polyglot deployment.
pub type XmlStore = HashMap<Key, XmlNode>;

/// The polyglot deployment: five stores, five lock domains.
#[derive(Clone, Default)]
pub struct PolyglotDb {
    /// Relational store ("the SQL server").
    pub relational: Arc<Mutex<RelationalDb>>,
    /// Document store ("the JSON store").
    pub documents: Arc<Mutex<DocumentStore>>,
    /// Key-value store.
    pub kv: Arc<Mutex<KvStore>>,
    /// Graph store.
    pub graph: Arc<Mutex<PropertyGraph>>,
    /// XML store.
    pub xml: Arc<Mutex<XmlStore>>,
}

/// Exclusive access to every store at once (cross-store transaction).
pub struct AllStores<'a> {
    /// Relational guard.
    pub relational: MutexGuard<'a, RelationalDb>,
    /// Document guard.
    pub documents: MutexGuard<'a, DocumentStore>,
    /// KV guard.
    pub kv: MutexGuard<'a, KvStore>,
    /// Graph guard.
    pub graph: MutexGuard<'a, PropertyGraph>,
    /// XML guard.
    pub xml: MutexGuard<'a, XmlStore>,
}

impl PolyglotDb {
    /// Fresh, empty deployment.
    pub fn new() -> PolyglotDb {
        PolyglotDb::default()
    }

    /// Run a cross-store transaction: all five locks are held for the
    /// duration (fixed acquisition order prevents deadlock). This is the
    /// polyglot application's only way to get cross-model atomicity.
    pub fn transact<T>(&self, body: impl FnOnce(&mut AllStores<'_>) -> Result<T>) -> Result<T> {
        let mut all = AllStores {
            relational: self.relational.lock(),
            documents: self.documents.lock(),
            kv: self.kv.lock(),
            graph: self.graph.lock(),
            xml: self.xml.lock(),
        };
        // No rollback machinery: like most real polyglot glue, a mid-way
        // failure leaves partial state behind — exactly the hazard the
        // atomicity census (E4b) quantifies for the unified engine.
        body(&mut all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::obj;
    use udbms_core::{CollectionSchema, FieldDef, FieldType, Value};

    #[test]
    fn stores_are_independent_lock_domains() {
        let db = PolyglotDb::new();
        // hold the relational lock; the kv store must stay accessible
        let _rel = db.relational.lock();
        db.kv
            .lock()
            .namespace("fb")
            .put(Key::str("k"), Value::Int(1));
        assert_eq!(
            db.kv.lock().namespace("fb").get(&Key::str("k")),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn transact_spans_all_stores() {
        let db = PolyglotDb::new();
        db.relational
            .lock()
            .create_table(CollectionSchema::relational(
                "customers",
                "id",
                vec![FieldDef::required("id", FieldType::Int)],
            ))
            .unwrap();
        db.transact(|s| {
            s.relational.insert("customers", obj! {"id" => 1})?;
            s.documents
                .collection("orders")
                .insert(obj! {"_id" => "o1"})?;
            s.kv.namespace("fb").put(Key::str("f1"), Value::Int(5));
            s.graph.add_vertex(Key::int(1), "customer", Value::Null)?;
            s.xml.insert(Key::str("i1"), XmlNode::element("Invoice"));
            Ok(())
        })
        .unwrap();
        assert_eq!(db.relational.lock().total_rows(), 1);
        assert_eq!(db.documents.lock().total_docs(), 1);
        assert_eq!(db.kv.lock().total_entries(), 1);
        assert_eq!(db.graph.lock().vertex_count(), 1);
        assert_eq!(db.xml.lock().len(), 1);
    }

    #[test]
    fn partial_failure_leaves_partial_state() {
        // the documented polyglot hazard: no rollback
        let db = PolyglotDb::new();
        let result: Result<()> = db.transact(|s| {
            s.kv.namespace("fb").put(Key::str("written"), Value::Int(1));
            Err(udbms_core::Error::Invalid("simulated app crash".into()))
        });
        assert!(result.is_err());
        assert_eq!(
            db.kv.lock().namespace("fb").get(&Key::str("written")),
            Some(&Value::Int(1)),
            "the write before the failure persists — unlike the unified engine"
        );
    }
}
