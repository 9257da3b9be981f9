//! The [`Engine`]: construction, DDL, and the entry points that begin
//! transactions (recovery and checkpoint are `recovery.rs`; the [`Txn`]
//! handle is `reads.rs` / `writes.rs` / `commit.rs` / `adapters.rs`).
//!
//! Lock order (DESIGN.md §3 "Lock order", §10): every lock here is a
//! rank-carrying [`TrackedMutex`]/[`TrackedRwLock`] — [`LockRank`]
//! `Checkpoint < Commit < Catalog < Shard(i asc) < GroupQueue < WalFile <
//! ActiveTxns < PlanCache` — whose debug/`lock_audit` builds panic on an
//! inversion, and `udbms-lint` (rule L1) checks the same order over the
//! source.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{LockRank, TrackedAtomicU64, TrackedMutex, TrackedRwLock};

use udbms_core::{CollectionId, CollectionSchema, FieldPath, Result};
use udbms_obs::{Obs, ObsSnapshot};
use udbms_relational::IndexKind;

use crate::catalog::Catalog;
use crate::config::{EngineConfig, EngineStats, GcStats, Metrics};
use crate::group::GroupLog;
use crate::reads::Txn;
use crate::registry::Registry;
use crate::retry::RetryPolicy;
use crate::storage::{Shard, ShardedStorage};
use crate::txn::{Isolation, TxnState};

/// [`Engine::run`]'s conflict-retry budget and back-off. A client that
/// commits one hot record back to back beats every restart of a rival
/// (it always begins first), so the budget has to outlast the winner's
/// burst in *time*: 64 jittered sleeps growing to the cap span ≥ 40 ms,
/// longer than a scheduler timeslice, where 64 immediate retries were
/// over in a few. The cap stays small next to the work a loser waits
/// for, so backing off costs a contended workload no throughput.
const RUN_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 64,
    base: Duration::from_micros(20),
    cap: Duration::from_millis(1),
};

/// Slow-query threshold in milliseconds: executions at or over it are
/// captured in the slow-query log (when obs is on). Tests lower it through
/// `engine.obs().slow().set_threshold_us`.
const SLOW_QUERY_MS: u64 = 100;

pub(crate) struct Inner {
    /// Timestamp of the newest **fully installed** commit, the one
    /// snapshot source, and the commit clock: a committer draws
    /// `published + 1` under `commit_lock`. Stored (with `Release`) after
    /// a commit's versions are in place but before `commit_lock` is
    /// dropped, so a reader that loads it (`Acquire`, in
    /// `Registry::register`) can never observe a half-installed commit
    /// and needs no `commit_lock` at all.
    pub(crate) published: TrackedAtomicU64,
    /// Hash-sharded storage; every shard carries its own lock.
    pub(crate) storage: ShardedStorage,
    pub(crate) catalog: TrackedRwLock<Catalog>,
    pub(crate) commit_lock: TrackedMutex<()>,
    /// WAL endpoint (the group-commit queue), attached
    /// once by [`Engine::with_wal_config`]; absent for in-memory
    /// engines. `OnceLock` keeps the per-commit read lock-free.
    pub(crate) log: OnceLock<GroupLog>,
    /// Serializes checkpoints against each other (commits stay live).
    pub(crate) checkpoint_lock: TrackedMutex<()>,
    /// Every open transaction's snapshot (GC watermark).
    pub(crate) registry: Registry,
    /// Engine-wide observability: the metric registry, trace ring, and
    /// slow-query log shared by storage, the WAL pipeline, and (via
    /// [`Engine::obs`]) the driver's query layer.
    pub(crate) obs: Arc<Obs>,
    pub(crate) metrics: Metrics,
}

/// The unified multi-model database engine. Cheap to clone (`Arc` inside);
/// all methods take `&self` and are thread-safe.
///
/// ```
/// use udbms_core::{obj, CollectionSchema, Key, Value};
/// use udbms_engine::{Engine, Isolation};
///
/// let engine = Engine::new();
/// engine.create_collection(CollectionSchema::document("orders", "_id", vec![]))?;
/// engine.create_collection(CollectionSchema::key_value("feedback"))?;
///
/// // one ACID transaction across two models
/// engine.run(Isolation::Snapshot, |txn| {
///     txn.insert("orders", obj! {"_id" => "O-1", "total" => 9.5})?;
///     txn.put("feedback", Key::str("fb:O-1"), obj! {"rating" => 5})
/// })?;
///
/// let mut txn = engine.begin(Isolation::Snapshot);
/// let order = txn.get("orders", &Key::str("O-1"))?.expect("committed");
/// assert_eq!(order.get_field("total"), &Value::Float(9.5));
/// # udbms_core::Result::Ok(())
/// ```
#[derive(Clone)]
pub struct Engine {
    pub(crate) inner: Arc<Inner>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// A fresh in-memory engine without a WAL, with the default shard
    /// count ([`crate::DEFAULT_SHARDS`]).
    pub fn new() -> Engine {
        Engine::with_config(EngineConfig::default())
    }

    /// A fresh in-memory engine with an explicit shard count.
    pub fn with_shards(shards: usize) -> Engine {
        Engine::with_config(EngineConfig {
            shards,
            ..EngineConfig::default()
        })
    }

    /// A fresh in-memory engine with explicit tuning.
    pub fn with_config(config: EngineConfig) -> Engine {
        let obs = Arc::new(Obs::new(config.obs));
        obs.slow().set_threshold_us(SLOW_QUERY_MS * 1000);
        let metrics = Metrics::new(&obs);
        let storage = ShardedStorage::new(config.shards);
        storage.attach_obs(&obs);
        Engine {
            inner: Arc::new(Inner {
                published: TrackedAtomicU64::named("engine.published", 0),
                storage,
                catalog: TrackedRwLock::new(LockRank::Catalog, Catalog::new()),
                commit_lock: TrackedMutex::new(LockRank::Commit, ()),
                log: OnceLock::new(),
                checkpoint_lock: TrackedMutex::new(LockRank::Checkpoint, ()),
                registry: Registry::new(),
                obs,
                metrics,
            }),
        }
    }

    /// Register a collection.
    pub fn create_collection(&self, schema: CollectionSchema) -> Result<()> {
        self.inner.catalog.write().create(schema).map(|_| ())
    }

    /// Drop a collection and all its data (chains and index segments in
    /// every shard).
    pub fn drop_collection(&self, name: &str) -> Result<()> {
        let id = self.inner.catalog.write().drop_collection(name)?;
        self.inner.storage.drop_collection(id);
        Ok(())
    }

    /// Create a property graph: collections `{name}#v` (vertices) and
    /// `{name}#e` (edges), with hash indexes on the edge endpoints.
    pub fn create_graph(&self, name: &str) -> Result<()> {
        let edges = format!("{name}#e");
        {
            let mut catalog = self.inner.catalog.write();
            catalog.create(CollectionSchema::graph(format!("{name}#v"), vec![]))?;
            catalog.create(CollectionSchema::graph(&edges, vec![]))?;
        }
        ["_src", "_dst"]
            .into_iter()
            .try_for_each(|end| self.create_index(&edges, FieldPath::key(end), IndexKind::Hash))
    }

    /// Create a secondary index on a collection path: records the
    /// definition in the catalog, then creates and backfills one segment
    /// per shard from the shard's retained versions.
    pub fn create_index(&self, collection: &str, path: FieldPath, kind: IndexKind) -> Result<()> {
        self.reindex(
            |catalog| catalog.create_index(collection, path.clone(), kind),
            |shard, id| shard.create_index_segment(id, &path, kind),
        )
    }

    /// Drop a secondary index (definition and every shard segment).
    pub fn drop_index(&self, collection: &str, path: &FieldPath) -> Result<()> {
        self.reindex(
            |catalog| catalog.drop_index(collection, path),
            |shard, id| shard.drop_index_segment(id, path),
        )
    }

    /// Change an index definition, then its segment in every shard. The
    /// catalog write lock is held throughout: a reader that can see a
    /// definition must also see complete segments (equality probes
    /// silently skip absent ones). Catalog → shards is the documented
    /// lock order, so readers cannot deadlock.
    fn reindex(
        &self,
        define: impl FnOnce(&mut Catalog) -> Result<CollectionId>,
        segment: impl Fn(&mut Shard, CollectionId),
    ) -> Result<()> {
        let _commit = self.inner.commit_lock.lock();
        let mut catalog = self.inner.catalog.write();
        let id = define(&mut catalog)?;
        for si in 0..self.inner.storage.shard_count() {
            segment(&mut self.inner.storage.shard(si).write(), id);
        }
        Ok(())
    }

    /// Collection names, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        self.inner.catalog.read().names()
    }

    /// Schema of a collection.
    pub fn schema_of(&self, collection: &str) -> Result<CollectionSchema> {
        Ok(self.inner.catalog.read().get(collection)?.schema.clone())
    }

    /// Replace a collection's schema (schema evolution).
    pub fn set_schema(&self, collection: &str, schema: CollectionSchema) -> Result<()> {
        self.inner.catalog.write().set_schema(collection, schema)
    }

    /// Register a transaction at the newest published commit; its handle.
    fn open(&self, isolation: Isolation, read_only: bool) -> Txn {
        let (id, snapshot) = self.inner.registry.register(&self.inner.published);
        Txn {
            inner: Arc::clone(&self.inner),
            state: Some(TxnState::new(id, snapshot, isolation, read_only)),
        }
    }

    /// Begin a transaction at the given isolation level. Its snapshot is
    /// the `published` watermark, read and registered in one step (no
    /// `commit_lock`): every commit that returned before this call is
    /// visible, and `gc` keeps what the snapshot reads.
    pub fn begin(&self, isolation: Isolation) -> Txn {
        self.open(isolation, false)
    }

    /// Begin a **read-lane** transaction: [`Engine::begin`]'s snapshot,
    /// but no OCC read set is tracked, and the commit path is the
    /// write-free fast exit — no validation, no WAL. Write operations on
    /// the returned handle fail with [`udbms_core::Error::Unsupported`].
    ///
    /// This is the lane the query layer routes statements through once
    /// `explain`/`Statement::is_read_only` proves them read-only.
    pub fn begin_read(&self) -> Txn {
        self.inner.metrics.read_txns.add(1);
        // degraded-mode evidence for E12: reads served while the engine
        // is read-only (one predicted-false atomic probe when healthy)
        let log = self.inner.log.get();
        if log.is_some_and(|log| log.failure() == Some(true)) {
            self.inner.metrics.degraded_reads.add(1);
        }
        self.open(Isolation::Snapshot, true)
    }

    /// Run a closure in a transaction, retrying (with a fresh snapshot) on
    /// conflicts: the begin/body/commit instance of [`RetryPolicy::run`],
    /// bounded and backed off by an internal policy. Non-conflict errors
    /// abort and propagate; a conflict that outlives the budget is
    /// returned as the [`udbms_core::Error::TxnConflict`] it was.
    pub fn run<T>(
        &self,
        isolation: Isolation,
        mut body: impl FnMut(&mut Txn) -> Result<T>,
    ) -> Result<T> {
        let attempt = std::cell::Cell::new(0);
        let (result, retries) = RUN_RETRY.run(
            // the losing attempt's txn id: unique per caller, so colliding
            // clients never share a jitter sequence
            || attempt.get(),
            || {
                let mut txn = self.begin(isolation);
                attempt.set(txn.id().map_or(0, |id| id.0));
                // an early return drops `txn`, which aborts it
                let out = body(&mut txn)?;
                txn.commit().map(|_| out)
            },
        );
        if retries > 0 {
            self.inner.metrics.txn_retries.add(u64::from(retries));
        }
        result
    }

    /// Garbage-collect what commits did not prune — chains written
    /// blind, chains an old snapshot pinned, tombstones — below the
    /// oldest open snapshot, patching each shard's index postings (shard
    /// locks taken one at a time, no `commit_lock`). The watermark is
    /// read under the registry lock, as a snapshot is: one registered
    /// after it reads `published` at or above it.
    pub fn gc(&self) -> GcStats {
        let watermark = self.inner.registry.watermark(&self.inner.published);
        let (versions_removed, chains_removed) = self.inner.storage.gc(watermark);
        GcStats {
            watermark,
            versions_removed,
            chains_removed,
        }
    }

    /// Storage shard count.
    pub fn shard_count(&self) -> usize {
        self.inner.storage.shard_count()
    }

    /// Current counters and storage shape.
    pub fn stats(&self) -> EngineStats {
        let (versions, chains, max_chain_len) = self.inner.storage.shape();
        let m = &self.inner.metrics;
        // declared by the WAL pipeline and an attached plan cache
        let count = |name| self.inner.obs.counter(name).get();
        EngineStats {
            commits: m.commits.get(),
            aborts: m.aborts.get(),
            ww_conflicts: m.ww_conflicts.get(),
            read_conflicts: m.read_conflicts.get(),
            read_txns: m.read_txns.get(),
            shards: self.inner.storage.shard_count(),
            versions,
            chains,
            max_chain_len,
            active_txns: self.inner.registry.len(),
            wal_batches: count("wal_batches"),
            wal_records: count("wal_records"),
            plan_hits: count("plan_cache_hits"),
            plan_misses: count("plan_cache_misses"),
            wal_poisoned: count("wal_poisoned"),
            degraded_reads: m.degraded_reads.get(),
            write_rejected: count("write_rejected"),
            txn_retries: m.txn_retries.get(),
        }
    }

    /// The engine's observability handle. Subsystems that execute on the
    /// engine's behalf (the query layer's plan cache, the driver's
    /// statement executor) attach their metrics here so one snapshot
    /// covers the whole stack.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// Snapshot the full observability state: every counter, gauge, and
    /// stage histogram (commit queue-wait / WAL append / flush / install
    /// among them), the recent-event trace, and the slow-query log.
    /// Storage-shape gauges are refreshed first so the snapshot is
    /// self-contained.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let (versions, chains, max_chain_len) = self.inner.storage.shape();
        let obs = &self.inner.obs;
        obs.gauge("storage_versions").set(versions as i64);
        obs.gauge("storage_chains").set(chains as i64);
        obs.gauge("storage_max_chain_len").set(max_chain_len as i64);
        obs.gauge("active_txns")
            .set(self.inner.registry.len() as i64);
        obs.snapshot()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Isolation;
    use udbms_core::{Error, FieldDef, FieldType, Key, Value};

    /// One collection per model plus a graph: the fixture every engine
    /// unit test starts from.
    pub(crate) fn engine() -> Engine {
        let e = Engine::new();
        e.create_collection(CollectionSchema::relational(
            "customers",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("name", FieldType::Str),
                FieldDef::optional("country", FieldType::Str),
            ],
        ))
        .unwrap();
        e.create_collection(CollectionSchema::document("orders", "_id", vec![]))
            .unwrap();
        e.create_collection(CollectionSchema::key_value("feedback"))
            .unwrap();
        e.create_collection(CollectionSchema::xml("invoices"))
            .unwrap();
        e.create_graph("social").unwrap();
        e
    }

    #[test]
    fn checkpoint_and_commits_interleave_without_deadlock() {
        let mut path = std::env::temp_dir();
        path.push(format!("udbms-engine-ckpt-race-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let e = Engine::with_wal(&path).unwrap();
        e.create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        // lock-order regression guard: a checkpoint that grabbed the wal
        // before commit_lock deadlocks against a committer taking them
        // in the documented commit_lock → wal order
        std::thread::scope(|s| {
            let engine = &e;
            s.spawn(move || {
                for i in 0..200i64 {
                    engine
                        .run(Isolation::Snapshot, |t| {
                            t.put("ns", Key::int(i % 8), Value::Int(i))
                        })
                        .unwrap();
                }
            });
            s.spawn(move || {
                for _ in 0..50 {
                    engine.checkpoint().unwrap();
                }
            });
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wal_recovery_restores_state() {
        let mut path = std::env::temp_dir();
        path.push(format!("udbms-engine-wal-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let e = Engine::with_wal(&path).unwrap();
            e.create_collection(CollectionSchema::key_value("ns"))
                .unwrap();
            e.run(Isolation::Snapshot, |t| {
                t.put("ns", Key::int(1), Value::Int(10))
            })
            .unwrap();
            e.run(Isolation::Snapshot, |t| {
                t.put("ns", Key::int(2), Value::Int(20))
            })
            .unwrap();
            e.run(Isolation::Snapshot, |t| {
                t.delete("ns", &Key::int(1))?;
                Ok(())
            })
            .unwrap();
        }
        let e2 = Engine::with_wal(&path).unwrap();
        let mut t = e2.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("ns", &Key::int(1)).unwrap(),
            None,
            "delete survived recovery"
        );
        assert_eq!(t.get("ns", &Key::int(2)).unwrap(), Some(Value::Int(20)));
        drop(t);
        // checkpoint compacts, state still recoverable
        e2.checkpoint().unwrap();
        let e3 = Engine::with_wal(&path).unwrap();
        let mut t3 = e3.begin(Isolation::Snapshot);
        assert_eq!(t3.get("ns", &Key::int(2)).unwrap(), Some(Value::Int(20)));
        assert_eq!(t3.get("ns", &Key::int(1)).unwrap(), None);
        drop(t3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gc_respects_active_snapshots() {
        let e = engine();
        for i in 0..5 {
            e.run(Isolation::Snapshot, |t| {
                t.put("feedback", Key::str("k"), Value::Int(i))
            })
            .unwrap();
        }
        let mut old = e.begin(Isolation::Snapshot);
        // more writes after the old snapshot
        for i in 5..10 {
            e.run(Isolation::Snapshot, |t| {
                t.put("feedback", Key::str("k"), Value::Int(i))
            })
            .unwrap();
        }
        let stats = e.gc();
        assert!(stats.watermark <= old.snapshot().unwrap());
        assert_eq!(
            old.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(4)),
            "old snapshot still reads its version after GC"
        );
        drop(old);
        let stats2 = e.gc();
        assert!(
            stats2.versions_removed > 0,
            "with no active txns history is pruned"
        );
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(9))
        );
    }

    #[test]
    fn stats_count_events() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), Value::Int(1))
        })
        .unwrap();
        let t = e.begin(Isolation::Snapshot);
        t.abort();
        let s = e.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.versions, 1);
        assert_eq!(s.active_txns, 0);
    }

    #[test]
    fn engines_report_shard_count() {
        assert_eq!(Engine::new().stats().shards, crate::DEFAULT_SHARDS);
        assert_eq!(Engine::with_shards(3).stats().shards, 3);
        assert_eq!(Engine::with_shards(0).stats().shards, 1, "clamped to one");
        assert_eq!(Engine::with_shards(5).shard_count(), 5);
    }

    #[test]
    fn single_shard_engine_behaves_identically() {
        // the whole suite runs at DEFAULT_SHARDS; spot-check 1-shard
        let e = Engine::with_shards(1);
        e.create_collection(CollectionSchema::key_value("kv"))
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "kv",
                (0..20).map(|i| (Key::int(i), Value::Int(i))).collect(),
            )
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.scan_shared("kv").unwrap().len(), 20);
        assert_eq!(t.get("kv", &Key::int(11)).unwrap(), Some(Value::Int(11)));
    }

    #[test]
    fn run_retries_conflicts_to_success() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("ctr"), Value::Int(0))
        })
        .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let e = e.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        e.run(Isolation::Snapshot, |t| {
                            let v = t
                                .get("feedback", &Key::str("ctr"))?
                                .unwrap()
                                .as_int()
                                .unwrap();
                            t.put("feedback", Key::str("ctr"), Value::Int(v + 1))
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("ctr")).unwrap(),
            Some(Value::Int(100)),
            "no increment may be lost under SI with retries"
        );
    }

    #[test]
    fn run_gives_up_with_the_conflict_after_its_budget_and_counts_every_retry() {
        let e = engine();
        let attempts = std::cell::Cell::new(0u64);
        // a body that always loses: an interloper commits the key it
        // wrote before its own commit can
        let r = e.run(Isolation::Snapshot, |t| {
            attempts.set(attempts.get() + 1);
            t.put("feedback", Key::str("hot"), Value::Int(1))?;
            let mut other = e.begin(Isolation::Snapshot);
            other.put("feedback", Key::str("hot"), Value::Int(2))?;
            other.commit().map(|_| ())
        });
        assert!(matches!(r, Err(Error::TxnConflict(_))), "{r:?}");
        let budget = u64::from(RUN_RETRY.max_retries);
        assert_eq!(attempts.get(), budget + 1, "one attempt plus the budget");
        let stats = e.stats();
        assert_eq!(stats.txn_retries, budget, "every retry counted, once");
        // each attempt's interloper committed; each attempt itself aborted
        assert_eq!(stats.ww_conflicts, budget + 1);
    }

    #[test]
    fn read_lane_snapshot_is_as_fresh_as_begin() {
        let e = engine();
        for i in 0..20 {
            e.run(Isolation::Snapshot, |t| {
                t.put("feedback", Key::str("k"), Value::Int(i))
            })
            .unwrap();
            // a read-lane snapshot taken after the commit returned must
            // observe it (published advances before commit_lock drops)
            let mut r = e.begin_read();
            assert_eq!(
                r.get("feedback", &Key::str("k")).unwrap(),
                Some(Value::Int(i))
            );
        }
    }

    #[test]
    fn read_lane_snapshot_is_stable_under_later_commits() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("k"), Value::Int(1))
        })
        .unwrap();
        let mut r = e.begin_read();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("k"), Value::Int(2))
        })
        .unwrap();
        assert_eq!(
            r.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(1)),
            "read lane is snapshot-stable"
        );
        // and GC respects the read-lane snapshot (registered as active)
        e.gc();
        assert_eq!(
            r.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(1))
        );
    }

    /// DDL on a live collection: dropping an index leaves its reads to
    /// the scan, with the same rows and no segment left in any shard;
    /// dropping the collection leaves its name unknown until it is
    /// created again, empty.
    #[test]
    fn drop_index_then_drop_collection() {
        use udbms_core::obj;
        use udbms_relational::Predicate;

        let e = Engine::with_shards(4);
        let schema = || CollectionSchema::document("docs", "_id", vec![]);
        e.create_collection(schema()).unwrap();
        let path = FieldPath::key("tag");
        e.create_index("docs", path.clone(), IndexKind::Hash)
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            (0..20).try_for_each(|i| t.put("docs", Key::int(i), obj! {"tag" => i % 3}))
        })
        .unwrap();
        let id = e.inner.catalog.read().get("docs").unwrap().id;
        let pred = Predicate::eq("tag", Value::Int(1));
        let read = || e.begin_read().rows("docs", Some(&pred), None).unwrap();
        let probed = || (e.inner.storage).index_lookup_eq(id, &path, &Value::Int(1));
        let by_index = read();
        assert_eq!(by_index.len(), 7);
        assert_eq!(probed().len(), 7);

        e.drop_index("docs", &path).unwrap();
        assert_eq!(read(), by_index, "the scan finds what the index did");
        assert!(e.inner.catalog.read().indexed_paths(id).is_empty());
        assert!(probed().is_empty(), "every shard's segment is gone");
        assert!(matches!(
            e.drop_index("docs", &path),
            Err(Error::NotFound(_))
        ));

        e.drop_collection("docs").unwrap();
        let mut r = e.begin_read();
        assert!(matches!(
            r.rows("docs", None, None),
            Err(Error::NotFound(_))
        ));
        assert!(matches!(
            r.get("docs", &Key::int(1)),
            Err(Error::NotFound(_))
        ));
        assert!(matches!(e.drop_collection("docs"), Err(Error::NotFound(_))));
        e.create_collection(schema()).unwrap();
        assert!(e.begin_read().rows("docs", None, None).unwrap().is_empty());
        let id = e.inner.catalog.read().get("docs").unwrap().id;
        assert!(e.inner.catalog.read().indexed_paths(id).is_empty());
    }
}
