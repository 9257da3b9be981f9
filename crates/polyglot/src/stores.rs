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
use udbms_xml::XmlNode;

use crate::database::RelationalDb;
use crate::document::DocumentStore;
use crate::graph::PropertyGraph;
use crate::kv::KvStore;

/// A simple XML document store (key → tree), standing in for an XML
/// database in the polyglot deployment.
pub(crate) type XmlStore = HashMap<Key, XmlNode>;

/// The polyglot deployment: five stores, five lock domains.
#[derive(Clone, Default)]
pub struct PolyglotDb {
    /// Relational store ("the SQL server").
    pub(crate) relational: Arc<Mutex<RelationalDb>>,
    /// Document store ("the JSON store").
    pub(crate) documents: Arc<Mutex<DocumentStore>>,
    /// Key-value store.
    pub(crate) kv: Arc<Mutex<KvStore>>,
    /// Graph store.
    pub(crate) graph: Arc<Mutex<PropertyGraph>>,
    /// XML store.
    pub(crate) xml: Arc<Mutex<XmlStore>>,
}

/// Exclusive access to every store at once (cross-store transaction).
pub(crate) struct AllStores<'a> {
    /// Relational guard.
    #[expect(
        dead_code,
        reason = "held, not read: order_update touches no table, but the coordinator locks every store"
    )]
    pub(crate) relational: MutexGuard<'a, RelationalDb>,
    /// Document guard.
    pub(crate) documents: MutexGuard<'a, DocumentStore>,
    /// KV guard.
    pub(crate) kv: MutexGuard<'a, KvStore>,
    /// Graph guard.
    #[expect(
        dead_code,
        reason = "held, not read: order_update touches no graph, but the coordinator locks every store"
    )]
    pub(crate) graph: MutexGuard<'a, PropertyGraph>,
    /// XML guard.
    pub(crate) xml: MutexGuard<'a, XmlStore>,
}

impl PolyglotDb {
    /// Fresh, empty deployment.
    pub fn new() -> PolyglotDb {
        PolyglotDb::default()
    }

    /// Run a cross-store transaction: all five locks are held for the
    /// duration (fixed acquisition order prevents deadlock). This is the
    /// polyglot application's only way to get cross-model atomicity.
    pub(crate) fn transact<T>(
        &self,
        body: impl FnOnce(&mut AllStores<'_>) -> Result<T>,
    ) -> Result<T> {
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
    use udbms_core::{obj, Value};

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
        let (done, waited) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            db.transact(|s| {
                s.documents
                    .collection("orders")
                    .insert(obj! {"_id" => "o1"})?;
                s.kv.namespace("fb").put(Key::str("f1"), Value::Int(5));
                s.xml.insert(Key::str("i1"), XmlNode::element("Invoice"));
                // a client of the relational and graph stores waits for
                // the coordinator to let go of them
                let db = &db;
                scope.spawn(move || {
                    let _rel = db.relational.lock();
                    let _graph = db.graph.lock();
                    done.send(()).unwrap();
                });
                let wait = std::time::Duration::from_millis(50);
                assert!(waited.recv_timeout(wait).is_err(), "stores held");
                Ok(())
            })
            .unwrap();
            waited.recv().unwrap();
        });
        let docs = db.documents.lock();
        assert!(docs
            .get_collection("orders")
            .unwrap()
            .get(&Key::str("o1"))
            .is_some());
        let kv = db.kv.lock();
        assert_eq!(
            kv.get_namespace("fb").unwrap().get(&Key::str("f1")),
            Some(&Value::Int(5))
        );
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
