#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

//! # udbms-engine
//!
//! **The unified multi-model database** — the "single, integrated backend"
//! of the CIDR'17 vision paper. One MVCC storage layer holds records for
//! all five models (relational rows, JSON documents, key-value entries,
//! graph vertices/edges, bridged XML trees); model semantics live in thin
//! facades over that layer, so **one transaction can span any mix of
//! models** with a single snapshot and a single commit point.
//!
//! ## Architecture
//!
//! ```text
//!   Txn API (reads: get / get_shared / scan_shared / rows / for_each_row;
//!        │    writes: put/insert/update/merge/delete, *_many;
//!        │    graph helpers and xpath over both)
//!        │  buffered write-set + read-set
//!        ▼
//!   TransactionManager ── begin/commit protocol, isolation levels:
//!        │                 ReadCommitted / Snapshot / Serializable (OCC)
//!        ▼
//!   ShardedStorage ── key → shard (stable hash) → independently locked
//!        │             Shard: (CollectionId, Key) → version chain (MVCC)
//!        │             + per-shard index segments, GC, one key-ordered walk
//!        ▼
//!   Catalog ── schemas, auto-id counters, index *definitions*
//!        │
//!   GroupLog ── group-commit queue (committer-led; drained in place at
//!        │      Buffered), durability levels (Buffered / Flush / Fsync)
//!        ▼
//!   Wal ── logical redo log in checksummed binary frames (encoded
//!          straight from the committing transaction), torn-tail crash
//!          recovery, fsync'd checkpoint rewrites
//! ```
//!
//! ## Modules
//!
//! One concern per file: `config` (tuning, the counters, the stats
//! views), `engine` (constructors, DDL, `begin`/`begin_read`/`run`, GC),
//! `recovery` (WAL-backed constructors, replay, checkpoint), `registry`
//! (which transactions are open, at which snapshot), `reads`, `writes`,
//! `commit` (validation, install, log — and the one exit every
//! transaction leaves through) and `adapters` (graph + XML) for the
//! [`Txn`] handle; under them `txn` (per-transaction state), `catalog`,
//! `storage`, `group` and `wal`.
//!
//! ## Reading
//!
//! A transaction reads through five methods: [`Txn::get`] (an owned
//! copy of one record), [`Txn::get_shared`] (the same record as an
//! `Arc` handle), [`Txn::scan_shared`] (a whole collection in key
//! order), the general form [`Txn::rows`] — optional predicate,
//! optional limit — which is where the read horizon, index probe vs
//! sharded scan, serializable read-set noting, own-write overlay and
//! limit pushdown are decided, once, and [`Txn::for_each_row`], which
//! visits what `rows` returns and, on a plain scan, runs its visitor
//! inside the storage walk on the stored values. Every scan is that
//! one walk: all shard read guards held, their key-ordered directories
//! merged over borrowed keys.
//!
//! ## Writing
//!
//! Every write entry point — [`Txn::put`], [`Txn::insert`],
//! [`Txn::update`], [`Txn::merge`], [`Txn::delete`], their `_many`
//! forms, [`Txn::add_vertex`], [`Txn::add_edge`], [`Txn::put_xml`] —
//! takes one path: check the handle can write, resolve the collection
//! once, assign keys (drawing an auto id only for a keyless document),
//! check existence at the read horizon, validate every value of the
//! call, then buffer them all. Nothing reaches storage before
//! [`Txn::commit`].
//!
//! ## Isolation levels
//!
//! * **ReadCommitted** — each read sees the latest committed version; no
//!   commit-time validation (permits lost updates — demonstrated by the
//!   E4b anomaly census).
//! * **Snapshot** — reads from a begin-time snapshot; first-committer-wins
//!   write-write validation (prevents lost updates, permits write skew).
//! * **Serializable** — snapshot reads plus OCC read-set validation at
//!   commit (prevents write skew; record-granularity validation, so scan
//!   phantoms remain out of scope, as documented in DESIGN.md).

mod adapters;
mod catalog;
mod commit;
mod config;
mod engine;
mod group;
mod reads;
mod recovery;
mod registry;
mod retry;
mod storage;
mod txn;
mod wal;
mod writes;

pub use catalog::{Catalog, CollectionInfo};
pub use config::{EngineConfig, EngineStats, GcStats, DEFAULT_SHARDS};
pub use engine::Engine;
pub use reads::Txn;
pub use retry::RetryPolicy;
pub use storage::{shard_of, RecordId, Shard, ShardedStorage, Storage, Version};
pub use txn::{Durability, Isolation};
pub use wal::fault::{FaultPlan, SITES as FAULT_SITES};
pub use wal::{PreparedRewrite, Wal, WalRecord, WalRecovery};

// Re-exported so engine users can consume snapshots and attach
// metrics without naming `udbms-obs` themselves.
pub use udbms_obs as obs;
pub use udbms_obs::{HistSnapshot, Obs, ObsSnapshot, SlowQuery};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::{obj, Key, Value};

    fn engine_with(coll: &str) -> Engine {
        let e = Engine::new();
        e.create_collection(udbms_core::CollectionSchema::key_value(coll))
            .unwrap();
        e
    }

    proptest! {
        /// A snapshot transaction never observes commits that start after
        /// it began (snapshot stability).
        #[test]
        fn snapshot_stability(writes in prop::collection::vec((0i64..8, 0i64..100), 1..40)) {
            let e = engine_with("ns");
            // seed all keys with 0
            let mut t = e.begin(Isolation::Snapshot);
            for k in 0..8 {
                t.put("ns", Key::int(k), Value::Int(0)).unwrap();
            }
            t.commit().unwrap();

            let mut reader = e.begin(Isolation::Snapshot);
            let before: Vec<Option<Value>> =
                (0..8).map(|k| reader.get("ns", &Key::int(k)).unwrap()).collect();

            // concurrent writers commit new values
            for (k, v) in writes {
                let mut w = e.begin(Isolation::Snapshot);
                w.put("ns", Key::int(k), Value::Int(v)).unwrap();
                w.commit().unwrap();
            }

            let after: Vec<Option<Value>> =
                (0..8).map(|k| reader.get("ns", &Key::int(k)).unwrap()).collect();
            prop_assert_eq!(before, after, "snapshot reads must be stable");
        }

        /// Committed state equals a sequential model when transactions are
        /// applied one at a time.
        #[test]
        fn sequential_equivalence(ops in prop::collection::vec((0u8..3, 0i64..10, any::<i64>()), 1..60)) {
            let e = engine_with("ns");
            let mut model: std::collections::BTreeMap<i64, i64> = Default::default();
            for (op, k, v) in ops {
                let mut t = e.begin(Isolation::Snapshot);
                match op {
                    0 => {
                        t.put("ns", Key::int(k), Value::Int(v)).unwrap();
                        model.insert(k, v);
                    }
                    1 => {
                        let got = t.get("ns", &Key::int(k)).unwrap();
                        prop_assert_eq!(got, model.get(&k).map(|v| Value::Int(*v)));
                    }
                    _ => {
                        let existed = t.delete("ns", &Key::int(k)).unwrap();
                        prop_assert_eq!(existed, model.remove(&k).is_some());
                    }
                }
                t.commit().unwrap();
            }
            // final scan agrees with the model
            let mut t = e.begin(Isolation::Snapshot);
            let scanned = t.scan_shared("ns").unwrap();
            prop_assert_eq!(scanned.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(
                    t.get("ns", &Key::int(*k)).unwrap(),
                    Some(Value::Int(*v))
                );
            }
        }

        /// GC never changes what the newest snapshot can see.
        #[test]
        fn gc_preserves_latest_visibility(rounds in 1usize..6, keys in 1i64..6) {
            let e = engine_with("ns");
            for r in 0..rounds {
                for k in 0..keys {
                    let mut t = e.begin(Isolation::Snapshot);
                    t.put("ns", Key::int(k), obj!{"round" => r as i64}).unwrap();
                    t.commit().unwrap();
                }
            }
            let mut before = e.begin(Isolation::Snapshot);
            let snap_before = before.scan_shared("ns").unwrap();
            e.gc();
            let mut after = e.begin(Isolation::Snapshot);
            let snap_after = after.scan_shared("ns").unwrap();
            prop_assert_eq!(snap_before, snap_after);
        }
    }
}
