//! The [`Engine`] (unified multi-model database) and its [`Txn`] handle.
//!
//! ## Commit protocol
//!
//! ```text
//! begin:   lock(commit) → snapshot = clock → register active → unlock
//! commit:  lock(commit)
//!            group write-set by shard (stable key hash)
//!            validate writes  (SI/SER: first-committer-wins, one shard
//!                              read-lock per touched shard)
//!            validate reads   (SER: OCC — observed versions unchanged)
//!            commit_ts = ++clock
//!            install versions + index postings (one shard write-lock
//!              per touched shard, ascending shard order)
//!            enqueue WAL record on the group-commit queue
//!          unlock(commit) → park until durable (per Durability level)
//!          → unregister active
//! ```
//!
//! Because `begin` reads the clock under the same lock that commits hold
//! while installing, a snapshot can never observe a half-installed commit
//! — per-shard locking does not weaken this: a version installed after a
//! snapshot was taken always carries a larger `commit_ts` and is invisible
//! to it, whichever shard it lands in. (ReadCommitted readers, which read
//! at `Ts::MAX`, may observe a commit's writes shard by shard; that
//! anomaly is within RC's contract and is documented in DESIGN.md.)
//!
//! Lock discipline, in decreasing strength: `commit_lock` is taken
//! first by every multi-domain critical section (commit, DDL, the brief
//! checkpoint snapshot); when `catalog` and shard locks are held
//! together — which readers do without `commit_lock` — it is always
//! catalog before shards; shards lock in ascending index order; the
//! group-commit queue (`state`) and the WAL file mutex come after
//! everything, in that order (see `group.rs` — committers enqueue under
//! `commit_lock` but never touch the file mutex; the log writer and
//! checkpoint never wait for `commit_lock` while holding either); and
//! the `active` registry is only ever locked on its own. Every path
//! fits this partial order, so it is acyclic.
//!
//! Since PR 6 that order is *machine-checked* twice over: every lock
//! here is a rank-carrying [`TrackedMutex`]/[`TrackedRwLock`] (see
//! [`LockRank`] — `Checkpoint < Commit < Catalog < Shard(i asc) <
//! GroupQueue < WalFile < ActiveTxns < PlanCache`) whose debug/
//! `lock_audit` builds panic on any inversion at runtime, and the
//! `udbms-lint` crate enforces the same order statically (rule L1) over
//! the source. See DESIGN.md, "Invariants & static analysis".

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{LockRank, TrackedAtomicU64, TrackedMutex, TrackedRwLock};

use udbms_obs::{Counter, Histogram, Obs, ObsSnapshot};

use udbms_core::{CollectionSchema, Error, FieldPath, Key, ModelKind, Result, Ts, TxnId, Value};
use udbms_graph::Direction;
use udbms_relational::{IndexKind, Predicate};
use udbms_xml::{XPath, XmlDocument};

use crate::catalog::Catalog;
use crate::group::GroupLog;
use crate::retry::RetryPolicy;
use crate::storage::{RecordId, RowFilter, ShardedStorage};
use crate::txn::{Durability, Isolation, TxnState};
use crate::wal::fault::FaultPlan;
use crate::wal::{Wal, WalRecord};

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

/// Default storage shard count (see [`EngineConfig::shards`]).
pub const DEFAULT_SHARDS: usize = 8;

/// Construction-time engine tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Storage shard count: the key space is hash-partitioned into this
    /// many independently locked shards. `1` reproduces the pre-shard
    /// single-lock engine.
    pub shards: usize,
    /// How durable a commit is when it returns, for WAL-backed engines
    /// (see [`Durability`]). Default: [`Durability::Flush`].
    pub durability: Durability,
    /// Whether commits go through the group-commit log writer (default)
    /// or write + flush the WAL synchronously under `commit_lock` — the
    /// engine's historical per-commit path, kept as the E8 comparison
    /// arm.
    pub group_commit: bool,
    /// Whether observability recording (stage histograms, trace events,
    /// slow-query log) is on. Disabled, every timing site reduces to one
    /// branch — the E10 experiment measures the difference.
    pub obs: bool,
    /// Slow-query threshold in milliseconds: executions at or over it
    /// are captured in the slow-query log (when `obs` is on).
    pub slow_query_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            shards: DEFAULT_SHARDS,
            durability: Durability::default(),
            group_commit: true,
            obs: true,
            slow_query_ms: 100,
        }
    }
}

impl EngineConfig {
    /// Override the storage shard count (builder-style, clamped to ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = shards.max(1);
        self
    }

    /// Override the durability level (builder-style).
    pub fn with_durability(mut self, durability: Durability) -> EngineConfig {
        self.durability = durability;
        self
    }

    /// Enable/disable group commit (builder-style).
    pub fn with_group_commit(mut self, group_commit: bool) -> EngineConfig {
        self.group_commit = group_commit;
        self
    }

    /// Enable/disable observability recording (builder-style).
    pub fn with_obs(mut self, obs: bool) -> EngineConfig {
        self.obs = obs;
        self
    }

    /// Override the slow-query threshold (builder-style).
    pub fn with_slow_query_ms(mut self, ms: u64) -> EngineConfig {
        self.slow_query_ms = ms;
        self
    }
}

/// Every engine counter and timing site, declared once: registry handles
/// grabbed at construction so the hot paths never touch the registry
/// (one relaxed add per count, zero allocation, no interning lock) and
/// every count reaches the Prometheus/JSON export. Counters count whether
/// or not obs recording is on; [`EngineStats`] is a typed view of them.
struct Metrics {
    /// Commit validation (write-write + OCC), per writing commit.
    validate_ns: Arc<Histogram>,
    /// Version + index-posting install, per writing commit.
    install_ns: Arc<Histogram>,
    /// Checkpoint end-to-end.
    checkpoint_ns: Arc<Histogram>,
    commits: Arc<Counter>,
    aborts: Arc<Counter>,
    ww_conflicts: Arc<Counter>,
    read_conflicts: Arc<Counter>,
    read_txns: Arc<Counter>,
    /// Read-lane transactions served while the engine was degraded to
    /// read-only (the E12 "reads keep flowing under ENOSPC" evidence).
    degraded_reads: Arc<Counter>,
    /// Conflict retries inside [`Engine::run`] (reported separately
    /// from aborts: a retried transaction eventually commits).
    txn_retries: Arc<Counter>,
    /// Counted by the WAL pipeline (`group.rs`).
    wal_batches: Arc<Counter>,
    wal_records: Arc<Counter>,
    wal_poisoned: Arc<Counter>,
    write_rejected: Arc<Counter>,
    /// Counted by a plan cache attached to this engine's registry
    /// (`PlanCache::attach_obs` in `udbms-query`).
    plan_hits: Arc<Counter>,
    plan_misses: Arc<Counter>,
}

impl Metrics {
    fn new(obs: &Obs) -> Metrics {
        Metrics {
            validate_ns: obs.histogram("commit_validate_ns"),
            install_ns: obs.histogram("commit_install_ns"),
            checkpoint_ns: obs.histogram("checkpoint_ns"),
            commits: obs.counter("commits"),
            aborts: obs.counter("aborts"),
            ww_conflicts: obs.counter("ww_conflicts"),
            read_conflicts: obs.counter("read_conflicts"),
            read_txns: obs.counter("read_txns"),
            degraded_reads: obs.counter("degraded_reads"),
            txn_retries: obs.counter("txn_retries"),
            wal_batches: obs.counter("wal_batches"),
            wal_records: obs.counter("wal_records"),
            wal_poisoned: obs.counter("wal_poisoned"),
            write_rejected: obs.counter("write_rejected"),
            plan_hits: obs.counter("plan_cache_hits"),
            plan_misses: obs.counter("plan_cache_misses"),
        }
    }
}

struct Inner {
    /// Commit-timestamp clock. RMW'd (`AcqRel`) under `commit_lock` by
    /// writing commits; loaded under `commit_lock` everywhere a snapshot
    /// is taken. Tracked so the model checker can interleave it.
    clock: TrackedAtomicU64,
    /// Timestamp of the newest **fully installed** commit. Stored (with
    /// `Release`) after a commit's versions are in place but before
    /// `commit_lock` is dropped, so a reader that loads it (`Acquire`)
    /// can never observe a half-installed commit — which is what lets
    /// [`Engine::begin_read`] take a snapshot without touching
    /// `commit_lock` at all.
    published: TrackedAtomicU64,
    next_txn: TrackedAtomicU64,
    /// Hash-sharded storage; every shard carries its own lock.
    storage: ShardedStorage,
    catalog: TrackedRwLock<Catalog>,
    commit_lock: TrackedMutex<()>,
    /// WAL endpoint (group-commit queue + log-writer thread), attached
    /// once by [`Engine::with_wal_config`]; absent for in-memory
    /// engines. `OnceLock` keeps the per-commit read lock-free.
    log: OnceLock<GroupLog>,
    /// Serializes checkpoints against each other (commits stay live).
    checkpoint_lock: TrackedMutex<()>,
    /// txn id → snapshot ts of every open transaction (GC watermark).
    active: TrackedMutex<HashMap<TxnId, Ts>>,
    /// Engine-wide observability: the metric registry, trace ring, and
    /// slow-query log shared by storage, the WAL pipeline, and (via
    /// [`Engine::obs`]) the driver's query layer.
    obs: Arc<Obs>,
    metrics: Metrics,
}

/// Counters and storage shape, for reports and the E6 ablations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (explicit aborts + validation failures).
    pub aborts: u64,
    /// Commit-time write-write conflicts.
    pub ww_conflicts: u64,
    /// Commit-time read-validation (OCC) conflicts.
    pub read_conflicts: u64,
    /// Read-lane transactions begun via [`Engine::begin_read`].
    pub read_txns: u64,
    /// Storage shard count.
    pub shards: usize,
    /// Stored versions across all chains.
    pub versions: usize,
    /// Record chains.
    pub chains: usize,
    /// Longest chain.
    pub max_chain_len: usize,
    /// Currently open transactions.
    pub active_txns: usize,
    /// WAL batches written (group commit efficiency =
    /// `wal_records / wal_batches`); 0 without a WAL.
    pub wal_batches: u64,
    /// WAL records written; 0 without a WAL.
    pub wal_records: u64,
    /// Plan-cache hits (0 until a plan cache attaches to this engine's
    /// obs registry — see `PlanCache::attach_obs` in `udbms-query`).
    pub plan_hits: u64,
    /// Plan-cache misses (compiled plans); 0 until a cache attaches.
    pub plan_misses: u64,
    /// Times the WAL transitioned to a failed state (0 or 1): a failed
    /// flush/fsync (poison) or ENOSPC (read-only degraded mode).
    pub wal_poisoned: u64,
    /// Read-lane transactions served while the engine was read-only.
    pub degraded_reads: u64,
    /// Writes rejected fast because the WAL had already failed.
    pub write_rejected: u64,
    /// Conflict retries inside [`Engine::run`] (distinct from aborts:
    /// a retried transaction may still commit).
    pub txn_retries: u64,
}

/// Result of a garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Watermark used (oldest snapshot that must stay readable).
    pub watermark: Ts,
    /// Versions pruned.
    pub versions_removed: usize,
    /// Whole chains removed (tombstoned records nobody can see).
    pub chains_removed: usize,
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
    inner: Arc<Inner>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// A fresh in-memory engine without a WAL, with the default shard
    /// count ([`DEFAULT_SHARDS`]).
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
        obs.slow()
            .set_threshold_us(config.slow_query_ms.saturating_mul(1000));
        let metrics = Metrics::new(&obs);
        let storage = ShardedStorage::new(config.shards);
        storage.attach_obs(&obs);
        Engine {
            inner: Arc::new(Inner {
                clock: TrackedAtomicU64::named("engine.clock", 0),
                published: TrackedAtomicU64::named("engine.published", 0),
                next_txn: TrackedAtomicU64::named("engine.next_txn", 1),
                storage,
                catalog: TrackedRwLock::new(LockRank::Catalog, Catalog::new()),
                commit_lock: TrackedMutex::new(LockRank::Commit, ()),
                log: OnceLock::new(),
                checkpoint_lock: TrackedMutex::new(LockRank::Checkpoint, ()),
                active: TrackedMutex::new(LockRank::ActiveTxns, HashMap::new()),
                obs,
                metrics,
            }),
        }
    }

    /// An engine whose commits append to a WAL file. If the file already
    /// holds records they are **replayed first** (collections named in the
    /// log that were not created yet are auto-registered as open
    /// key-value collections; create typed collections before calling
    /// this to preserve validation).
    pub fn with_wal(path: impl AsRef<Path>) -> Result<Engine> {
        Engine::with_wal_config(path, EngineConfig::default())
    }

    /// [`Engine::with_wal`] with explicit tuning. The WAL records no
    /// shard placement — keys re-hash on replay — so a log written by an
    /// engine with any shard count recovers into any other. A torn
    /// final line (crash mid-append) is truncated away and every
    /// complete commit recovers; interior corruption still errors.
    pub fn with_wal_config(path: impl AsRef<Path>, config: EngineConfig) -> Result<Engine> {
        Engine::with_wal_faults(path, config, Arc::new(FaultPlan::none()))
    }

    /// [`Engine::with_wal_config`] with a storage fault-injection plan
    /// threaded under every WAL I/O site (the torture harness and the
    /// E12 fault experiment build engines this way; a
    /// [`FaultPlan::none`] plan costs one relaxed load per site).
    /// Recovery itself runs un-faulted — the plan covers the *running*
    /// engine's I/O; crash images are recovered by opening a fresh
    /// engine on the image.
    pub fn with_wal_faults(
        path: impl AsRef<Path>,
        config: EngineConfig,
        faults: Arc<FaultPlan>,
    ) -> Result<Engine> {
        let engine = Engine::with_config(config);
        let recovery = Wal::recover(path.as_ref())?;
        let replayed = engine.apply_records(recovery.records)?;
        engine
            .inner
            .obs
            .event("recovery", replayed as u64, recovery.truncated_bytes);
        // group commit appends through the mmap'd fast path (no syscall
        // per record); the per-commit comparison arm keeps the seed
        // engine's buffered-write path
        let wal = if config.group_commit {
            Wal::open_mapped_with_faults(path, faults)?
        } else {
            Wal::open_with_faults(path, faults)?
        };
        let log = GroupLog::start(
            wal,
            config.durability,
            config.group_commit,
            Arc::clone(&engine.inner.obs),
        );
        if engine.inner.log.set(log).is_err() {
            // lint:allow(unwrap): the engine was constructed two lines up
            unreachable!("fresh engine cannot already have a log");
        }
        Ok(engine)
    }

    /// Replay a WAL file into this engine (used by [`Engine::with_wal`];
    /// public for recovery tests and tooling). Tolerates a torn final
    /// line without modifying the file. Writes are grouped by shard
    /// across the whole log, so each shard lock is taken once.
    pub fn replay_wal(&self, path: &Path) -> Result<usize> {
        self.apply_records(Wal::scan(path)?.records)
    }

    /// Install already-parsed WAL records (the shared replay body).
    fn apply_records(&self, records: Vec<WalRecord>) -> Result<usize> {
        type ReplayBucket = Vec<(RecordId, Ts, Option<Arc<Value>>)>;
        let n = records.len();
        let mut catalog = self.inner.catalog.write();
        // ORDER: Acquire pairs with the commit path's AcqRel fetch_add;
        // replay runs before concurrent commits but must still observe
        // any clock value a prior engine incarnation published.
        let mut max_ts = self.inner.clock.load(Ordering::Acquire);
        // resolve collections and bucket installs per shard, preserving
        // log order inside each bucket (per-key order is per-shard order)
        let mut buckets: Vec<ReplayBucket> = vec![Vec::new(); self.inner.storage.shard_count()];
        for rec in records {
            for (coll, key, value) in rec.writes {
                let id = match catalog.get(&coll) {
                    Ok(info) => info.id,
                    Err(_) => catalog.create(CollectionSchema::key_value(&coll))?,
                };
                let shard = self.inner.storage.shard_of(&key);
                buckets[shard].push((RecordId::new(id, key), rec.commit_ts, value.map(Arc::new)));
            }
            max_ts = max_ts.max(rec.commit_ts.0);
        }
        for (si, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut shard = self.inner.storage.shard(si).write();
            for (rid, ts, value) in bucket {
                shard.install(rid, ts, value);
            }
        }
        // ORDER: Release — `clock` pairs with the Acquire loads under
        // commit_lock in begin/checkpoint/gc.
        self.inner.clock.store(max_ts, Ordering::Release);
        // ORDER: Release — a reader that Acquire-loads `published`
        // (begin_read) must see every version installed by the shard
        // writes above.
        self.inner.published.store(max_ts, Ordering::Release);
        Ok(n)
    }

    /// Compact the WAL: replace its history with one synthetic record
    /// holding the live state at a snapshot, plus every commit after
    /// that snapshot. No-op (Ok) when the engine has no WAL.
    ///
    /// Commits are **not** stalled for the duration: `commit_lock` is
    /// held only long enough to read the snapshot timestamp (the same
    /// brief hold `begin` uses, so the snapshot can never straddle a
    /// half-installed commit), the collection scan runs against MVCC
    /// shard reads, and only the final swap — drain the commit queue,
    /// filter the tail, fsync + rename — briefly closes the queue
    /// (work proportional to the log tail, not the database).
    pub fn checkpoint(&self) -> Result<()> {
        let Some(log) = self.inner.log.get() else {
            return Ok(());
        };
        let stamp = self.inner.obs.start();
        let _ckpt = self.inner.checkpoint_lock.lock();
        let snapshot = {
            let _commit = self.inner.commit_lock.lock();
            // ORDER: Acquire under commit_lock; the lock already orders
            // this after the last commit's AcqRel fetch_add, Acquire (not
            // SeqCst) states the actual requirement.
            Ts(self.inner.clock.load(Ordering::Acquire))
        };
        // every commit with ts ≤ snapshot is fully installed (it held
        // commit_lock through install + enqueue), so this scan is a
        // consistent image of the log prefix the rewrite replaces
        let mut writes = Vec::new();
        {
            let catalog = self.inner.catalog.read();
            for name in catalog.names() {
                // lint:allow(unwrap): name came from catalog.names() under this read guard
                let id = catalog.get(&name).expect("listed name exists").id;
                for (key, _, value) in self.inner.storage.scan_iter(id, snapshot, None, None) {
                    writes.push((name.clone(), key, Some(value.as_ref().clone())));
                }
            }
        }
        self.inner
            .obs
            .event("checkpoint", snapshot.0, writes.len() as u64);
        let synthetic = WalRecord {
            commit_ts: snapshot,
            txn: TxnId(0),
            writes,
        };
        let out = log.checkpoint(synthetic, snapshot);
        self.inner
            .obs
            .record_ns(&self.inner.metrics.checkpoint_ns, stamp);
        out
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
        {
            let mut catalog = self.inner.catalog.write();
            catalog.create(CollectionSchema::graph(format!("{name}#v"), vec![]))?;
            catalog.create(CollectionSchema::graph(format!("{name}#e"), vec![]))?;
        }
        self.create_index(
            &format!("{name}#e"),
            FieldPath::key("_src"),
            IndexKind::Hash,
        )?;
        self.create_index(
            &format!("{name}#e"),
            FieldPath::key("_dst"),
            IndexKind::Hash,
        )?;
        Ok(())
    }

    /// Create a secondary index on a collection path: records the
    /// definition in the catalog, then creates and backfills one segment
    /// per shard from the shard's retained versions.
    pub fn create_index(&self, collection: &str, path: FieldPath, kind: IndexKind) -> Result<()> {
        let _commit = self.inner.commit_lock.lock();
        // the catalog write lock is held through the backfill: a reader
        // that can see the definition must also see complete segments
        // (equality probes silently skip absent ones). Catalog → shards
        // is the documented lock order, so readers cannot deadlock.
        let mut catalog = self.inner.catalog.write();
        let id = catalog.create_index(collection, path.clone(), kind)?;
        for si in 0..self.inner.storage.shard_count() {
            self.inner
                .storage
                .shard(si)
                .write()
                .create_index_segment(id, &path, kind);
        }
        Ok(())
    }

    /// Drop a secondary index (definition and every shard segment).
    pub fn drop_index(&self, collection: &str, path: &FieldPath) -> Result<()> {
        let _commit = self.inner.commit_lock.lock();
        // held through the segment drops, same reason as create_index
        let mut catalog = self.inner.catalog.write();
        let id = catalog.drop_index(collection, path)?;
        for si in 0..self.inner.storage.shard_count() {
            self.inner
                .storage
                .shard(si)
                .write()
                .drop_index_segment(id, path);
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

    /// Begin a transaction at the given isolation level.
    pub fn begin(&self, isolation: Isolation) -> Txn {
        let snapshot = {
            let _g = self.inner.commit_lock.lock();
            // ORDER: Acquire under commit_lock (see checkpoint): the lock
            // orders this load after the last commit's install.
            Ts(self.inner.clock.load(Ordering::Acquire))
        };
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        self.inner.active.lock().insert(id, snapshot);
        Txn {
            inner: Arc::clone(&self.inner),
            state: Some(TxnState::new(id, snapshot, isolation)),
        }
    }

    /// Begin a **read-lane** transaction: a snapshot read timestamp is
    /// taken from the lock-free `published` watermark (no `commit_lock`
    /// acquisition), no OCC read set is tracked, and the commit path is
    /// the write-free fast exit — no validation, no WAL. Write
    /// operations on the returned handle fail with
    /// [`Error::Unsupported`].
    ///
    /// This is the lane the query layer routes statements through once
    /// `explain`/`Statement::is_read_only` proves them read-only. The
    /// snapshot is exactly as fresh as [`Engine::begin`]'s: `published`
    /// is advanced before the installing commit releases `commit_lock`,
    /// so every commit that returned before this call is visible.
    pub fn begin_read(&self) -> Txn {
        // ORDER: Acquire pairs with the Release publish in commit — the
        // snapshot must see every version install that preceded it.
        let snapshot = Ts(self.inner.published.load(Ordering::Acquire));
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        self.inner.active.lock().insert(id, snapshot);
        self.inner.metrics.read_txns.add(1);
        // degraded-mode evidence for E12: reads served while the engine
        // is read-only (one predicted-false atomic probe when healthy)
        if self
            .inner
            .log
            .get()
            .is_some_and(|log| log.failure() == Some(true))
        {
            self.inner.metrics.degraded_reads.add(1);
        }
        Txn {
            inner: Arc::clone(&self.inner),
            state: Some(TxnState::new_read_only(id, snapshot)),
        }
    }

    /// Run a closure in a transaction, retrying (with a fresh snapshot) on
    /// conflicts: the begin/body/commit instance of [`RetryPolicy::run`],
    /// bounded and backed off by an internal policy. Non-conflict errors
    /// abort and propagate; a conflict that outlives the budget is
    /// returned as the [`Error::TxnConflict`] it was.
    pub fn run<T>(
        &self,
        isolation: Isolation,
        mut body: impl FnMut(&mut Txn) -> Result<T>,
    ) -> Result<T> {
        let (result, retries) = RUN_RETRY.run(
            // a fresh txn id: unique per caller, so colliding clients
            // never share a jitter sequence
            || self.inner.next_txn.fetch_add(1, Ordering::Relaxed),
            || {
                let mut txn = self.begin(isolation);
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

    /// Garbage-collect versions below the oldest active snapshot and
    /// rebuild each shard's over-approximating index segments from its
    /// retained versions (shard locks taken one at a time).
    pub fn gc(&self) -> GcStats {
        let watermark = {
            let active = self.inner.active.lock();
            active
                .values()
                .copied()
                .min()
                // ORDER: Acquire; commit_lock below orders the gc scan
                // itself, the watermark only needs a current-ish clock.
                .unwrap_or(Ts(self.inner.clock.load(Ordering::Acquire)))
        };
        let _commit = self.inner.commit_lock.lock();
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
            active_txns: self.inner.active.lock().len(),
            wal_batches: m.wal_batches.get(),
            wal_records: m.wal_records.get(),
            plan_hits: m.plan_hits.get(),
            plan_misses: m.plan_misses.get(),
            wal_poisoned: m.wal_poisoned.get(),
            degraded_reads: m.degraded_reads.get(),
            write_rejected: m.write_rejected.get(),
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
            .set(self.inner.active.lock().len() as i64);
        obs.snapshot()
    }
}

/// The access path [`Txn::rows`] takes to the committed records.
enum Access {
    /// Primary-key equality: one point read.
    Point(Key),
    /// Index probe: candidate keys, unsorted and over-approximating.
    Candidates(Vec<Key>),
    /// The sharded scan.
    Scan,
}

/// A transaction handle. Obtain with [`Engine::begin`]; finish with
/// [`Txn::commit`] or [`Txn::abort`] (dropping an open handle aborts).
pub struct Txn {
    inner: Arc<Inner>,
    state: Option<TxnState>,
}

impl Txn {
    fn state(&mut self) -> Result<&mut TxnState> {
        self.state
            .as_mut()
            .filter(|s| s.open)
            .ok_or_else(|| Error::TxnClosed("transaction already finished".into()))
    }

    /// This transaction's snapshot timestamp.
    pub fn snapshot(&self) -> Option<Ts> {
        self.state.as_ref().map(|s| s.snapshot)
    }

    /// This transaction's id.
    pub fn id(&self) -> Option<TxnId> {
        self.state.as_ref().map(|s| s.id)
    }

    fn resolve(&self, collection: &str) -> Result<(udbms_core::CollectionId, ModelKind)> {
        let catalog = self.inner.catalog.read();
        let info = catalog.get(collection)?;
        Ok((info.id, info.schema.model))
    }

    /// Like [`Txn::state`] but for write entry points: read-lane
    /// transactions reject writes here, before anything is buffered.
    fn write_state(&mut self) -> Result<&mut TxnState> {
        let state = self.state()?;
        if state.read_only {
            return Err(Error::Unsupported(
                "write on a read-lane transaction (use Engine::begin)".into(),
            ));
        }
        Ok(state)
    }

    /// Snapshot-correct read of a record, honouring buffered writes.
    /// Hands out a shared handle — no deep clone.
    fn read_shared(&mut self, rid: RecordId) -> Result<Option<Arc<Value>>> {
        let inner = Arc::clone(&self.inner);
        let state = self.state()?;
        if let Some(buffered) = state.own_write(&rid) {
            return Ok(buffered.clone());
        }
        let (seen, value) = inner.storage.visible_value_with_ts(&rid, state.read_ts());
        state.note_read(rid, seen);
        Ok(value)
    }

    /// Batched snapshot-correct reads: results in input order, each shard
    /// read-locked at most once for the whole batch.
    fn read_many(&mut self, rids: &[RecordId]) -> Result<Vec<Option<Arc<Value>>>> {
        let inner = Arc::clone(&self.inner);
        let state = self.state()?;
        let read_ts = state.read_ts();
        let mut out: Vec<Option<Arc<Value>>> = vec![None; rids.len()];
        // (shard, position) of every read the write buffer cannot answer
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (pos, rid) in rids.iter().enumerate() {
            match state.own_write(rid) {
                Some(buffered) => out[pos] = buffered.clone(),
                None => pending.push((inner.storage.shard_of(&rid.key), pos)),
            }
        }
        pending.sort_unstable();
        let mut i = 0;
        while i < pending.len() {
            let si = pending[i].0;
            let shard = inner.storage.shard(si).read();
            while i < pending.len() && pending[i].0 == si {
                let pos = pending[i].1;
                let rid = &rids[pos];
                let version = shard.store.visible(rid, read_ts);
                let seen = version.map(|v| v.commit_ts).unwrap_or(Ts::ZERO);
                out[pos] = version.and_then(|v| v.value.clone());
                state.note_read(rid.clone(), seen);
                i += 1;
            }
        }
        Ok(out)
    }

    /// Fetch a record by key as an owned copy (for callers that go on to
    /// modify it; readers should prefer [`Txn::get_shared`]).
    pub fn get(&mut self, collection: &str, key: &Key) -> Result<Option<Value>> {
        Ok(self
            .get_shared(collection, key)?
            .map(|v| v.as_ref().clone()))
    }

    /// Fetch a record by key as a shared handle: the zero-copy point
    /// read (an `Arc` bump instead of a value tree clone).
    pub fn get_shared(&mut self, collection: &str, key: &Key) -> Result<Option<Arc<Value>>> {
        let (id, _) = self.resolve(collection)?;
        self.read_shared(RecordId::new(id, key.clone()))
    }

    /// Upsert a record. Relational collections validate their closed
    /// schema; document collections validate declared fields; XML
    /// collections require a valid bridge encoding.
    pub fn put(&mut self, collection: &str, key: Key, mut value: Value) -> Result<()> {
        let (id, model) = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            match model_validate(&info.schema, &mut value) {
                Ok(()) => {}
                Err(e) => return Err(e),
            }
            (info.id, info.schema.model)
        };
        if model == ModelKind::Xml {
            udbms_xml::value_to_xml(&value)?;
        }
        self.write_state()?
            .buffer_write(RecordId::new(id, key), Some(value));
        Ok(())
    }

    /// Insert a new record; fails if the key already exists (at this
    /// transaction's read horizon). For document collections a missing
    /// `_id` is auto-assigned. Returns the key.
    pub fn insert(&mut self, collection: &str, mut value: Value) -> Result<Key> {
        let (pk_field, model) = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            (info.schema.primary_key.clone(), info.schema.model)
        };
        let pk_field = pk_field.ok_or_else(|| {
            Error::Unsupported(format!(
                "insert() needs a primary-keyed collection; `{collection}` has none (use put)"
            ))
        })?;
        let key = match value.get_field(&pk_field) {
            Value::Null if model == ModelKind::Document => {
                let auto = self.inner.catalog.write().next_auto_id(collection)?;
                let key = Key::int(auto);
                if let Some(obj) = value.as_object_mut() {
                    obj.insert(pk_field.clone(), key.value().clone());
                }
                key
            }
            Value::Null => {
                return Err(Error::Constraint(format!(
                    "row lacks primary key `{pk_field}`"
                )))
            }
            v => Key::new(v.clone())?,
        };
        if self.get_shared(collection, &key)?.is_some() {
            return Err(Error::AlreadyExists(format!("key {key} in `{collection}`")));
        }
        self.put(collection, key.clone(), value)?;
        Ok(key)
    }

    /// Replace an existing record; fails when absent.
    pub fn update(&mut self, collection: &str, key: &Key, value: Value) -> Result<()> {
        if self.get_shared(collection, key)?.is_none() {
            return Err(Error::NotFound(format!("key {key} in `{collection}`")));
        }
        self.put(collection, key.clone(), value)
    }

    /// Deep-merge a patch into an existing record.
    pub fn merge(&mut self, collection: &str, key: &Key, patch: Value) -> Result<()> {
        let mut current = self
            .get(collection, key)?
            .ok_or_else(|| Error::NotFound(format!("key {key} in `{collection}`")))?;
        current.merge_from(patch);
        self.put(collection, key.clone(), current)
    }

    /// Delete a record; returns whether it existed.
    pub fn delete(&mut self, collection: &str, key: &Key) -> Result<bool> {
        let existed = self.get_shared(collection, key)?.is_some();
        if existed {
            let (id, _) = self.resolve(collection)?;
            self.write_state()?
                .buffer_write(RecordId::new(id, key.clone()), None);
        }
        Ok(existed)
    }

    // ------------------------------------------------------------------
    // Batched writes
    // ------------------------------------------------------------------

    /// Upsert a batch of records in one call: the catalog is consulted
    /// once for the whole batch, and at commit every touched storage
    /// shard is locked once per batch rather than per record.
    pub fn put_many(&mut self, collection: &str, items: Vec<(Key, Value)>) -> Result<()> {
        let (id, validated) = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            let mut validated = Vec::with_capacity(items.len());
            for (key, mut value) in items {
                model_validate(&info.schema, &mut value)?;
                if info.schema.model == ModelKind::Xml {
                    udbms_xml::value_to_xml(&value)?;
                }
                validated.push((key, value));
            }
            (info.id, validated)
        };
        let state = self.write_state()?;
        for (key, value) in validated {
            state.buffer_write(RecordId::new(id, key), Some(value));
        }
        Ok(())
    }

    /// Insert a batch of new records; fails if any key already exists at
    /// this transaction's read horizon (or twice within the batch).
    /// Existence checks lock each touched shard once for the whole
    /// batch. Returns the keys in input order.
    pub fn insert_many(&mut self, collection: &str, values: Vec<Value>) -> Result<Vec<Key>> {
        let (pk_field, model) = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            (info.schema.primary_key.clone(), info.schema.model)
        };
        let pk_field = pk_field.ok_or_else(|| {
            Error::Unsupported(format!(
                "insert_many() needs a primary-keyed collection; `{collection}` has none (use put_many)"
            ))
        })?;
        // assign keys, drawing auto ids under one catalog write lock —
        // taken lazily, so fully keyed batches never serialize on it
        let mut keyed: Vec<(Key, Value)> = Vec::with_capacity(values.len());
        {
            let mut catalog = None;
            for mut value in values {
                let key = match value.get_field(&pk_field) {
                    Value::Null if model == ModelKind::Document => {
                        let catalog = catalog.get_or_insert_with(|| self.inner.catalog.write());
                        let auto = catalog.next_auto_id(collection)?;
                        let key = Key::int(auto);
                        if let Some(obj) = value.as_object_mut() {
                            obj.insert(pk_field.clone(), key.value().clone());
                        }
                        key
                    }
                    Value::Null => {
                        return Err(Error::Constraint(format!(
                            "row lacks primary key `{pk_field}`"
                        )))
                    }
                    v => Key::new(v.clone())?,
                };
                keyed.push((key, value));
            }
        }
        let (id, _) = self.resolve(collection)?;
        let rids: Vec<RecordId> = keyed
            .iter()
            .map(|(k, _)| RecordId::new(id, k.clone()))
            .collect();
        let current = self.read_many(&rids)?;
        let mut batch_keys = std::collections::HashSet::new();
        for (rid, cur) in rids.iter().zip(&current) {
            if cur.is_some() || !batch_keys.insert(rid.key.clone()) {
                return Err(Error::AlreadyExists(format!(
                    "key {} in `{collection}`",
                    rid.key
                )));
            }
        }
        let keys: Vec<Key> = keyed.iter().map(|(k, _)| k.clone()).collect();
        self.put_many(collection, keyed)?;
        Ok(keys)
    }

    /// Delete a batch of records; returns how many existed. Existence
    /// checks lock each touched shard once for the whole batch.
    pub fn delete_many(&mut self, collection: &str, keys: &[Key]) -> Result<usize> {
        let (id, _) = self.resolve(collection)?;
        let rids: Vec<RecordId> = keys.iter().map(|k| RecordId::new(id, k.clone())).collect();
        let current = self.read_many(&rids)?;
        let state = self.write_state()?;
        let mut deleted = 0usize;
        let mut seen = std::collections::HashSet::new();
        for (rid, cur) in rids.into_iter().zip(current) {
            if cur.is_some() && seen.insert(rid.key.clone()) {
                state.buffer_write(rid, None);
                deleted += 1;
            }
        }
        Ok(deleted)
    }

    /// All live `(key, value)` pairs of a collection at this transaction's
    /// read horizon, own writes applied, in key order (merged across
    /// shards) — [`Txn::rows`] with no predicate and no limit. Every row
    /// is an `Arc` bump on the stored version, never a value tree clone.
    pub fn scan_shared(&mut self, collection: &str) -> Result<Vec<(Key, Arc<Value>)>> {
        self.rows(collection, None, None)
    }

    /// The general read: the live records of a collection that match
    /// `pred` (all of them when `None`), in key order, at most `limit`.
    ///
    /// This is the one place a transaction's view of a collection is
    /// assembled:
    ///
    /// * **horizon** — latest-committed under `ReadCommitted`, else the
    ///   begin-time snapshot;
    /// * **access** — an equality on the primary key is a point read; a
    ///   non-`Null` equality or range on an indexed path probes the index
    ///   (candidates are re-validated at the horizon); anything else is
    ///   the sharded scan with the predicate pushed into it;
    /// * **read set** — under `Serializable` every record *examined* is
    ///   noted, not just the matches, so the scan filters here rather
    ///   than in storage;
    /// * **own writes** — buffered writes on the collection are laid over
    ///   the committed rows (a matching write replaces or adds its row, a
    ///   delete or a no-longer-matching overwrite removes it);
    /// * **limit** — pushed into the walk only when neither of the last
    ///   two applies (not `Serializable`, nothing buffered on the
    ///   collection); otherwise the result is assembled in full and
    ///   truncated, because rows past the cut could still change the
    ///   prefix or belong in the read set.
    ///
    /// ```
    /// use udbms_core::{obj, CollectionSchema, Key, Value};
    /// use udbms_engine::{Engine, Isolation};
    /// use udbms_relational::Predicate;
    ///
    /// let engine = Engine::new();
    /// engine.create_collection(CollectionSchema::key_value("orders"))?;
    /// let mut txn = engine.begin(Isolation::Snapshot);
    /// for i in 0..10 {
    ///     txn.put("orders", Key::int(i), obj! {"open" => i % 2 == 0})?;
    /// }
    /// let open = Predicate::eq("open", Value::Bool(true));
    /// let first = txn.rows("orders", Some(&open), Some(2))?;
    /// let keys: Vec<&Key> = first.iter().map(|(key, _)| key).collect();
    /// assert_eq!(keys, [&Key::int(0), &Key::int(2)]);
    /// assert_eq!(txn.rows("orders", None, None)?, txn.scan_shared("orders")?);
    /// # udbms_core::Result::Ok(())
    /// ```
    pub fn rows(
        &mut self,
        collection: &str,
        pred: Option<&Predicate>,
        limit: Option<usize>,
    ) -> Result<Vec<(Key, Arc<Value>)>> {
        let (id, access) = self.plan_access(collection, pred)?;
        let matches = |v: &Value| pred.is_none_or(|p| p.matches(v));
        let (read_ts, serializable, overlay) = {
            let state = self.state()?;
            (
                state.read_ts(),
                state.isolation == Isolation::Serializable,
                state.writes.keys().any(|rid| rid.collection == id),
            )
        };
        let pushed = limit.filter(|_| !serializable && !overlay);
        let mut rows: Vec<(Key, Arc<Value>)> = match access {
            Access::Point(key) => {
                // a primary-key equality admits no other key, so own
                // writes elsewhere cannot add matches: no overlay
                let hit = self.read_shared(RecordId::new(id, key.clone()))?;
                let hit = hit.filter(|v| matches(v) && limit != Some(0));
                return Ok(hit.map(|v| (key, v)).into_iter().collect());
            }
            Access::Candidates(mut keys) => {
                // segments concatenate in shard order and over-approximate
                keys.sort();
                keys.dedup();
                let rids: Vec<RecordId> = keys.into_iter().map(|k| RecordId::new(id, k)).collect();
                // batched validation: one lock per touched shard
                let values = self.read_many(&rids)?;
                rids.into_iter()
                    .zip(values)
                    .filter_map(|(rid, v)| Some((rid.key, v.filter(|v| matches(v))?)))
                    .take(pushed.unwrap_or(usize::MAX))
                    .collect()
            }
            Access::Scan => {
                let inner = Arc::clone(&self.inner);
                let state = self.state()?;
                let in_storage: Option<RowFilter<'_>> = match pred {
                    Some(_) if !serializable => Some(&matches),
                    _ => None,
                };
                let scanned = inner.storage.scan_iter(id, read_ts, in_storage, pushed);
                if serializable {
                    let mut rows = Vec::new();
                    for (key, seen, value) in scanned {
                        state.note_read(RecordId::new(id, key.clone()), seen);
                        if matches(&value) {
                            rows.push((key, value));
                        }
                    }
                    rows
                } else {
                    // nothing to note: the merge is already the answer
                    // (every read-lane scan takes this exit)
                    scanned.map(|(k, _, v)| (k, v)).collect()
                }
            }
        };
        if overlay {
            let mut merged: std::collections::BTreeMap<Key, Arc<Value>> =
                rows.into_iter().collect();
            for (rid, w) in &self.state()?.writes {
                if rid.collection != id {
                    continue;
                }
                match w {
                    Some(v) if matches(v) => {
                        merged.insert(rid.key.clone(), Arc::clone(v));
                    }
                    // buffered delete, or an overwrite that no longer matches
                    _ => {
                        merged.remove(&rid.key);
                    }
                }
            }
            rows = merged.into_iter().collect();
        }
        rows.truncate(limit.unwrap_or(usize::MAX));
        Ok(rows)
    }

    /// How [`Txn::rows`] reaches the committed records `pred` can match.
    fn plan_access(
        &self,
        collection: &str,
        pred: Option<&Predicate>,
    ) -> Result<(udbms_core::CollectionId, Access)> {
        let catalog = self.inner.catalog.read();
        let info = catalog.get(collection)?;
        let id = info.id;
        let Some(pred) = pred else {
            return Ok((id, Access::Scan));
        };
        let pk_probe = info.schema.primary_key.as_ref().and_then(|pk| {
            pred.equality_on(&FieldPath::key(pk.clone()))
                .and_then(|v| Key::new(v.clone()).ok())
        });
        if let Some(key) = pk_probe {
            return Ok((id, Access::Point(key)));
        }
        // Null probes must scan: nulls are never indexed, yet
        // `Null == Null` holds in the canonical order, so an index lookup
        // would silently drop matching records. Candidate keys are
        // gathered from every shard's segment of the chosen index
        // (catalog before shards is the documented lock order).
        let storage = &self.inner.storage;
        for path in catalog.indexed_paths(id) {
            if let Some(v) = pred.equality_on(path) {
                if v.is_null() {
                    continue;
                }
                return Ok((id, Access::Candidates(storage.index_lookup_eq(id, path, v))));
            }
            if let Some((lo, hi)) = pred.range_on(path) {
                if lo.as_ref().is_some_and(Value::is_null)
                    || hi.as_ref().is_some_and(Value::is_null)
                {
                    continue;
                }
                if let Some(keys) = storage.index_lookup_range(id, path, lo.as_ref(), hi.as_ref()) {
                    return Ok((id, Access::Candidates(keys)));
                }
            }
        }
        Ok((id, Access::Scan))
    }

    // ------------------------------------------------------------------
    // Graph facade
    // ------------------------------------------------------------------

    /// Add a vertex to a graph created with [`Engine::create_graph`].
    pub fn add_vertex(&mut self, graph: &str, key: Key, label: &str, props: Value) -> Result<()> {
        let mut v = match props {
            Value::Object(_) => props,
            Value::Null => Value::Object(Default::default()),
            other => return Err(Error::type_err("Object (vertex props)", other.type_name())),
        };
        if let Some(obj) = v.as_object_mut() {
            obj.insert("_label".into(), Value::from(label));
        }
        let coll = format!("{graph}#v");
        if self.get_shared(&coll, &key)?.is_some() {
            return Err(Error::AlreadyExists(format!(
                "vertex {key} in graph `{graph}`"
            )));
        }
        self.put(&coll, key, v)
    }

    /// Fetch a vertex's properties (including `_label`).
    pub fn vertex(&mut self, graph: &str, key: &Key) -> Result<Option<Value>> {
        self.get(&format!("{graph}#v"), key)
    }

    /// Add an edge between existing vertices; returns the edge key.
    pub fn add_edge(
        &mut self,
        graph: &str,
        src: &Key,
        dst: &Key,
        label: &str,
        props: Value,
    ) -> Result<Key> {
        let vcoll = format!("{graph}#v");
        if self.get_shared(&vcoll, src)?.is_none() {
            return Err(Error::NotFound(format!(
                "source vertex {src} in graph `{graph}`"
            )));
        }
        if self.get_shared(&vcoll, dst)?.is_none() {
            return Err(Error::NotFound(format!(
                "destination vertex {dst} in graph `{graph}`"
            )));
        }
        let ecoll = format!("{graph}#e");
        let auto = self.inner.catalog.write().next_auto_id(&ecoll)?;
        let ekey = Key::int(auto);
        let edge = udbms_core::obj! {
            "_src" => src.value().clone(),
            "_dst" => dst.value().clone(),
            "_label" => label,
            "props" => props,
        };
        self.put(&ecoll, ekey.clone(), edge)?;
        Ok(ekey)
    }

    /// Neighbor vertex keys along `dir`, optionally filtered by edge
    /// label. Deduplicated, sorted by key.
    pub fn neighbors(
        &mut self,
        graph: &str,
        key: &Key,
        dir: Direction,
        label: Option<&str>,
    ) -> Result<Vec<Key>> {
        let ecoll = format!("{graph}#e");
        let mut out: std::collections::BTreeSet<Key> = Default::default();
        let mut probe = |field: &str, other: &str, me: &mut Self| -> Result<()> {
            let mut pred = Predicate::Eq(FieldPath::key(field), key.value().clone());
            if let Some(l) = label {
                pred = Predicate::And(vec![
                    pred,
                    Predicate::Eq(FieldPath::key("_label"), Value::from(l)),
                ]);
            }
            for (_, edge) in me.rows(&ecoll, Some(&pred), None)? {
                out.insert(Key::new(edge.get_field(other).clone())?);
            }
            Ok(())
        };
        match dir {
            Direction::Out => probe("_src", "_dst", self)?,
            Direction::In => probe("_dst", "_src", self)?,
            Direction::Both => {
                probe("_src", "_dst", self)?;
                probe("_dst", "_src", self)?;
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Vertices at exactly `k` hops from `start` (BFS frontier).
    pub fn k_hop(
        &mut self,
        graph: &str,
        start: &Key,
        k: usize,
        dir: Direction,
        label: Option<&str>,
    ) -> Result<Vec<Key>> {
        let mut frontier = vec![start.clone()];
        let mut seen: std::collections::HashSet<Key> = [start.clone()].into_iter().collect();
        for _ in 0..k {
            let mut next = Vec::new();
            for v in &frontier {
                for n in self.neighbors(graph, v, dir, label)? {
                    if seen.insert(n.clone()) {
                        next.push(n);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        Ok(frontier)
    }

    // ------------------------------------------------------------------
    // XML facade
    // ------------------------------------------------------------------

    /// Parse XML text and store it under `key` (bridge-encoded).
    pub fn put_xml(&mut self, collection: &str, key: Key, xml_text: &str) -> Result<()> {
        let doc = udbms_xml::parse(xml_text)?;
        let value = udbms_xml::xml_to_value(doc.root());
        self.put(collection, key, value)
    }

    /// Fetch a stored XML document.
    pub fn get_xml(&mut self, collection: &str, key: &Key) -> Result<Option<XmlDocument>> {
        match self.get_shared(collection, key)? {
            None => Ok(None),
            Some(v) => Ok(Some(XmlDocument::new(udbms_xml::value_to_xml(&v)?))),
        }
    }

    /// Evaluate an XPath-lite expression against a stored XML document.
    /// Returns `[]` when the document is absent.
    pub fn xpath(&mut self, collection: &str, key: &Key, expr: &str) -> Result<Vec<Value>> {
        let compiled = XPath::parse(expr)?;
        match self.get_xml(collection, key)? {
            None => Ok(Vec::new()),
            Some(doc) => Ok(compiled.values(doc.root())),
        }
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit. Returns the commit timestamp, or a retryable
    /// [`Error::TxnConflict`] when validation fails (the transaction is
    /// then aborted).
    pub fn commit(mut self) -> Result<Ts> {
        let state = match self.state.take() {
            Some(s) if s.open => s,
            _ => return Err(Error::TxnClosed("transaction already finished".into())),
        };
        let inner = Arc::clone(&self.inner);

        // read-only fast path
        if state.writes.is_empty() {
            inner.active.lock().remove(&state.id);
            inner.metrics.commits.add(1);
            return Ok(state.snapshot);
        }

        // fail fast on a degraded/poisoned WAL *before* taking
        // commit_lock: a doomed write must not install versions it can
        // never log, nor serialize behind the healthy commit path
        if let Some(log) = inner.log.get() {
            if let Err(e) = log.check_available() {
                inner.active.lock().remove(&state.id);
                inner.metrics.aborts.add(1);
                return Err(e);
            }
        }

        let (commit_ts, logged) = {
            let _commit = inner.commit_lock.lock();
            // --- validation (one shard read-lock per touched shard) ---
            let validate_stamp = inner.obs.start();
            let write_groups = inner.storage.group_by_shard(state.write_order.iter());
            if state.isolation != Isolation::ReadCommitted {
                // write-write: first committer wins
                let mut conflict: Option<Error> = None;
                'ww: for (si, group) in write_groups.iter().enumerate() {
                    if group.is_empty() {
                        continue;
                    }
                    let shard = inner.storage.shard(si).read();
                    for rid in group {
                        if let Some(latest) = shard.store.latest(rid) {
                            if latest.commit_ts > state.snapshot {
                                conflict = Some(Error::TxnConflict(format!(
                                    "write-write conflict on {}",
                                    rid.key
                                )));
                                break 'ww;
                            }
                        }
                    }
                }
                if let Some(err) = conflict {
                    inner.active.lock().remove(&state.id);
                    inner.metrics.aborts.add(1);
                    inner.metrics.ww_conflicts.add(1);
                    return Err(err);
                }
                if state.isolation == Isolation::Serializable {
                    // OCC: every observed version must still be current
                    let read_groups = inner.storage.group_by_shard(state.reads.keys());
                    let mut conflict: Option<Error> = None;
                    'occ: for (si, group) in read_groups.iter().enumerate() {
                        if group.is_empty() {
                            continue;
                        }
                        let shard = inner.storage.shard(si).read();
                        for rid in group {
                            let current = shard
                                .store
                                .latest(rid)
                                .map(|v| v.commit_ts)
                                .unwrap_or(Ts::ZERO);
                            if current != state.reads[*rid] {
                                conflict = Some(Error::TxnConflict(format!(
                                    "read validation failed on {}",
                                    rid.key
                                )));
                                break 'occ;
                            }
                        }
                    }
                    if let Some(err) = conflict {
                        inner.active.lock().remove(&state.id);
                        inner.metrics.aborts.add(1);
                        inner.metrics.read_conflicts.add(1);
                        return Err(err);
                    }
                }
            }
            inner
                .obs
                .record_ns(&inner.metrics.validate_ns, validate_stamp);
            // --- install (versions + index postings, one shard
            //     write-lock per touched shard, ascending order);
            //     buffered values are Arc-shared, so each install is a
            //     refcount bump, not a value tree copy ---
            let install_stamp = inner.obs.start();
            // ORDER: AcqRel — the new ts must come after every install
            // the previous holder of commit_lock released (Acquire), and
            // the snapshot loads above must not sink below it (Release).
            let commit_ts = Ts(inner.clock.fetch_add(1, Ordering::AcqRel) + 1);
            for (si, group) in write_groups.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let mut shard = inner.storage.shard(si).write();
                for rid in group {
                    let value = state.writes[*rid].clone();
                    shard.install((*rid).clone(), commit_ts, value);
                }
            }
            // every version is in place: publish the timestamp so
            // lock-free read-lane snapshots can observe this commit
            // ORDER: Release pairs with begin_read's Acquire load; every
            // shard install above happens-before a snapshot that sees
            // this watermark.
            inner.published.store(commit_ts.0, Ordering::Release);
            inner
                .obs
                .record_ns(&inner.metrics.install_ns, install_stamp);
            // --- log: enqueue while still holding commit_lock so the
            //     queue order is commit-ts order; the flush/fsync wait
            //     happens after the lock is released ---
            let logged = match inner.log.get() {
                Some(log) => {
                    let catalog = inner.catalog.read();
                    let writes: Vec<(String, Key, Option<Value>)> = state
                        .write_order
                        .iter()
                        .map(|rid| {
                            let name = catalog
                                .name_of(rid.collection)
                                .unwrap_or("<dropped>")
                                .to_string();
                            let value = state.writes[rid].as_ref().map(|v| v.as_ref().clone());
                            (name, rid.key.clone(), value)
                        })
                        .collect();
                    Some(log.commit(WalRecord {
                        commit_ts,
                        txn: state.id,
                        writes,
                    }))
                }
                None => None,
            };
            (commit_ts, logged)
        };
        // park for durability outside commit_lock: other committers can
        // validate, install, and join the same log batch meanwhile
        let durable = match logged {
            Some(Ok(ticket)) => inner
                .log
                .get()
                // lint:allow(unwrap): a ticket is only issued by the log that exists
                .expect("ticket implies log")
                .wait_durable(ticket),
            Some(Err(e)) => Err(e),
            None => Ok(()),
        };
        inner.active.lock().remove(&state.id);
        // the in-memory install already happened; surfacing a WAL
        // failure (rather than acking a commit that may not survive a
        // crash) is the durability contract
        durable?;
        inner.metrics.commits.add(1);
        Ok(commit_ts)
    }

    /// Abort, discarding buffered writes.
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    fn abort_in_place(&mut self) {
        if let Some(state) = self.state.take() {
            if state.open {
                self.inner.active.lock().remove(&state.id);
                self.inner.metrics.aborts.add(1);
            }
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.abort_in_place();
    }
}

/// Per-model write validation; may canonicalize the value (defaults).
fn model_validate(schema: &CollectionSchema, value: &mut Value) -> Result<()> {
    match schema.model {
        ModelKind::Relational | ModelKind::Document => {
            schema.apply_defaults(value);
            schema.validate(value)
        }
        ModelKind::KeyValue | ModelKind::Graph => Ok(()),
        // XML bridge validity is checked by the caller (needs the xml crate)
        ModelKind::Xml => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{arr, obj, FieldDef, FieldType};

    fn engine() -> Engine {
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
    fn cross_model_transaction_commits_atomically() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        t.insert(
            "customers",
            obj! {"id" => 1, "name" => "Ada", "country" => "FI"},
        )
        .unwrap();
        let okey = t
            .insert("orders", obj! {"customer" => 1, "total" => 12.5})
            .unwrap();
        t.put("feedback", Key::str("fb:1"), obj! {"rating" => 5})
            .unwrap();
        t.put_xml(
            "invoices",
            Key::str("inv:1"),
            "<Invoice id=\"inv:1\"><Total>12.50</Total></Invoice>",
        )
        .unwrap();
        t.add_vertex("social", Key::int(1), "customer", obj! {})
            .unwrap();

        // nothing visible before commit
        let mut other = e.begin(Isolation::Snapshot);
        assert!(other.get("customers", &Key::int(1)).unwrap().is_none());
        assert!(other.get("orders", &okey).unwrap().is_none());
        other.abort();

        t.commit().unwrap();

        // everything visible after
        let mut after = e.begin(Isolation::Snapshot);
        assert!(after.get("customers", &Key::int(1)).unwrap().is_some());
        assert!(after.get("orders", &okey).unwrap().is_some());
        assert!(after.get("feedback", &Key::str("fb:1")).unwrap().is_some());
        let totals = after
            .xpath("invoices", &Key::str("inv:1"), "/Invoice/Total/text()")
            .unwrap();
        assert_eq!(totals, vec![Value::from("12.50")]);
    }

    #[test]
    fn read_your_writes_inside_txn() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        t.put("feedback", Key::str("k"), Value::Int(1)).unwrap();
        assert_eq!(
            t.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(1))
        );
        t.delete("feedback", &Key::str("k")).unwrap();
        assert_eq!(t.get("feedback", &Key::str("k")).unwrap(), None);
        t.abort();
        // aborted writes never surface
        let mut t2 = e.begin(Isolation::Snapshot);
        assert_eq!(t2.get("feedback", &Key::str("k")).unwrap(), None);
    }

    #[test]
    fn snapshot_isolation_prevents_lost_updates() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("ctr"), Value::Int(0))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Snapshot);
        let mut t2 = e.begin(Isolation::Snapshot);
        let v1 = t1
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let v2 = t2
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        t1.put("feedback", Key::str("ctr"), Value::Int(v1 + 1))
            .unwrap();
        t2.put("feedback", Key::str("ctr"), Value::Int(v2 + 1))
            .unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(err.is_retryable(), "second committer must conflict: {err}");
        assert_eq!(e.stats().ww_conflicts, 1);
    }

    #[test]
    fn read_committed_permits_lost_updates() {
        let e = engine();
        e.run(Isolation::ReadCommitted, |t| {
            t.put("feedback", Key::str("ctr"), Value::Int(0))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::ReadCommitted);
        let mut t2 = e.begin(Isolation::ReadCommitted);
        let v1 = t1
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let v2 = t2
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        t1.put("feedback", Key::str("ctr"), Value::Int(v1 + 1))
            .unwrap();
        t2.put("feedback", Key::str("ctr"), Value::Int(v2 + 1))
            .unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // no validation: the anomaly the census counts
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("ctr")).unwrap(),
            Some(Value::Int(1)),
            "one increment lost under RC"
        );
    }

    #[test]
    fn serializable_prevents_write_skew() {
        let e = engine();
        // invariant: a + b >= 1; each txn checks the other's record then
        // zeroes its own — classic write skew.
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("a"), Value::Int(1))?;
            t.put("feedback", Key::str("b"), Value::Int(1))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Serializable);
        let mut t2 = e.begin(Isolation::Serializable);
        let b = t1
            .get("feedback", &Key::str("b"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let a = t2
            .get("feedback", &Key::str("a"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!((a, b), (1, 1));
        t1.put("feedback", Key::str("a"), Value::Int(0)).unwrap();
        t2.put("feedback", Key::str("b"), Value::Int(0)).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(err.is_retryable(), "OCC read validation must fire: {err}");
        assert_eq!(e.stats().read_conflicts, 1);
    }

    #[test]
    fn serializable_predicate_scan_prevents_write_skew() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("o1"), obj! {"status" => "paid"})?;
            t.put("feedback", Key::str("o2"), obj! {"status" => "paid"})
        })
        .unwrap();
        // t1 decides from the *absence* of matching rows
        let mut t1 = e.begin(Isolation::Serializable);
        let pred = Predicate::eq("status", Value::from("open"));
        assert!(t1.rows("feedback", Some(&pred), None).unwrap().is_empty());
        // concurrently o1 starts matching the predicate
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("o1"), obj! {"status" => "open"})
        })
        .unwrap();
        t1.put("feedback", Key::str("decision"), Value::Int(1))
            .unwrap();
        let err = t1.commit().unwrap_err();
        assert!(
            err.is_retryable(),
            "the predicate scan examined o1, so its change must abort t1: {err}"
        );
    }

    #[test]
    fn write_skew_allowed_under_snapshot() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("a"), Value::Int(1))?;
            t.put("feedback", Key::str("b"), Value::Int(1))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Snapshot);
        let mut t2 = e.begin(Isolation::Snapshot);
        let _ = t1.get("feedback", &Key::str("b")).unwrap();
        let _ = t2.get("feedback", &Key::str("a")).unwrap();
        t1.put("feedback", Key::str("a"), Value::Int(0)).unwrap();
        t2.put("feedback", Key::str("b"), Value::Int(0)).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // disjoint write sets: SI lets it through
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("a")).unwrap(),
            Some(Value::Int(0))
        );
        assert_eq!(
            t.get("feedback", &Key::str("b")).unwrap(),
            Some(Value::Int(0))
        );
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
    fn select_uses_indexes_and_matches_scan() {
        let e = engine();
        e.create_index("orders", FieldPath::key("status"), IndexKind::Hash)
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            for i in 0..20 {
                t.insert(
                    "orders",
                    obj! {"status" => if i % 3 == 0 { "open" } else { "paid" }, "n" => i},
                )?;
            }
            Ok(())
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let pred = Predicate::eq("status", Value::from("open"));
        let via_index = t.rows("orders", Some(&pred), None).unwrap();
        let mut via_scan = t.scan_shared("orders").unwrap();
        via_scan.retain(|(_, v)| pred.matches(v));
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index.len(), 7);
    }

    #[test]
    fn index_candidates_revalidate_against_snapshot() {
        let e = engine();
        e.create_index("orders", FieldPath::key("status"), IndexKind::Hash)
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            t.put("orders", Key::int(1), obj! {"_id" => 1, "status" => "open"})
        })
        .unwrap();
        let mut old = e.begin(Isolation::Snapshot);
        // concurrent flip to paid
        e.run(Isolation::Snapshot, |t| {
            t.put("orders", Key::int(1), obj! {"_id" => 1, "status" => "paid"})
        })
        .unwrap();
        // the old snapshot still finds the order under "open"…
        let open_old = old
            .rows(
                "orders",
                Some(&Predicate::eq("status", Value::from("open"))),
                None,
            )
            .unwrap();
        assert_eq!(open_old.len(), 1);
        // …and a new snapshot does not, despite the stale index posting.
        let mut new = e.begin(Isolation::Snapshot);
        let open_new = new
            .rows(
                "orders",
                Some(&Predicate::eq("status", Value::from("open"))),
                None,
            )
            .unwrap();
        assert!(open_new.is_empty());
    }

    #[test]
    fn graph_facade_traversals_in_txn() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            for i in 1..=4 {
                t.add_vertex("social", Key::int(i), "customer", obj! {"n" => i})?;
            }
            t.add_edge("social", &Key::int(1), &Key::int(2), "knows", Value::Null)?;
            t.add_edge("social", &Key::int(2), &Key::int(3), "knows", Value::Null)?;
            t.add_edge("social", &Key::int(3), &Key::int(4), "follows", Value::Null)?;
            Ok(())
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.neighbors("social", &Key::int(1), Direction::Out, None)
                .unwrap(),
            vec![Key::int(2)]
        );
        assert_eq!(
            t.neighbors("social", &Key::int(2), Direction::Both, Some("knows"))
                .unwrap(),
            vec![Key::int(1), Key::int(3)]
        );
        assert_eq!(
            t.k_hop("social", &Key::int(1), 2, Direction::Out, Some("knows"))
                .unwrap(),
            vec![Key::int(3)]
        );
        assert_eq!(
            t.k_hop("social", &Key::int(1), 3, Direction::Out, None)
                .unwrap(),
            vec![Key::int(4)]
        );
        assert!(
            t.add_edge("social", &Key::int(1), &Key::int(99), "knows", Value::Null)
                .is_err(),
            "dangling endpoints rejected"
        );
        assert!(t.add_vertex("social", Key::int(1), "dup", obj! {}).is_err());
    }

    #[test]
    fn xml_facade_validates_and_queries() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        assert!(t.put_xml("invoices", Key::int(1), "<broken").is_err());
        assert!(
            t.put("invoices", Key::int(1), obj! {"not" => "xml bridge"})
                .is_err(),
            "raw puts to xml collections must be valid bridge values"
        );
        t.put_xml(
            "invoices",
            Key::int(1),
            r#"<Invoice><Items><Item qty="2"/><Item qty="5"/></Items></Invoice>"#,
        )
        .unwrap();
        let qtys = t.xpath("invoices", &Key::int(1), "//Item/@qty").unwrap();
        assert_eq!(qtys, vec![Value::from("2"), Value::from("5")]);
        assert!(t.xpath("invoices", &Key::int(9), "//x").unwrap().is_empty());
        let doc = t.get_xml("invoices", &Key::int(1)).unwrap().unwrap();
        assert_eq!(doc.root().name(), Some("Invoice"));
        t.commit().unwrap();
    }

    #[test]
    fn scan_merges_own_writes() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), Value::Int(10))?;
            t.put("feedback", Key::int(2), Value::Int(20))
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        t.put("feedback", Key::int(3), Value::Int(30)).unwrap();
        t.delete("feedback", &Key::int(1)).unwrap();
        t.put("feedback", Key::int(2), Value::Int(99)).unwrap();
        let scan = t.scan_shared("feedback").unwrap();
        assert_eq!(
            scan,
            vec![
                (Key::int(2), Arc::new(Value::Int(99))),
                (Key::int(3), Arc::new(Value::Int(30)))
            ]
        );
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
    fn dropped_txn_aborts_implicitly() {
        let e = engine();
        {
            let mut t = e.begin(Isolation::Snapshot);
            t.put("feedback", Key::int(1), Value::Int(1)).unwrap();
            // dropped without commit
        }
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.get("feedback", &Key::int(1)).unwrap(), None);
        drop(t);
        assert_eq!(e.stats().active_txns, 0);
        assert_eq!(e.stats().aborts, 2, "both dropped handles count as aborts");
    }

    #[test]
    fn closed_txn_rejects_operations() {
        let e = engine();
        let t = e.begin(Isolation::Snapshot);
        let ts = t.commit().unwrap();
        assert!(ts >= Ts::ZERO);
        // commit consumed the txn; a new handle that was aborted:
        let mut t2 = e.begin(Isolation::Snapshot);
        t2.abort_in_place();
        assert!(matches!(
            t2.get("feedback", &Key::int(1)),
            Err(Error::TxnClosed(_))
        ));
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
        // every write entry point is rejected
        assert!(matches!(
            r.put("feedback", Key::int(3), Value::Int(3)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            r.delete("feedback", &Key::int(1)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            r.put_many("feedback", vec![(Key::int(4), Value::Int(4))]),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            r.delete_many("feedback", &[Key::int(1)]),
            Err(Error::Unsupported(_))
        ));
        assert!(r.insert("orders", obj! {"total" => 1.0}).is_err());
        // empty-write commit succeeds and counts as a commit
        r.commit().unwrap();
        assert_eq!(e.stats().read_txns, 1);
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

    #[test]
    fn limited_scan_returns_key_order_prefix() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "feedback",
                (0..50).map(|i| (Key::int(i), Value::Int(i * 2))).collect(),
            )
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let full = t.scan_shared("feedback").unwrap();
        for limit in [0usize, 1, 7, 50, 99] {
            let got = t.rows("feedback", None, Some(limit)).unwrap();
            assert_eq!(got, full[..limit.min(full.len())].to_vec(), "limit {limit}");
        }
        // own writes force the fallback path and stay correct
        t.put("feedback", Key::int(-1), Value::Int(-2)).unwrap();
        let got = t.rows("feedback", None, Some(3)).unwrap();
        assert_eq!(got[0].0, Key::int(-1), "buffered row sorts first");
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn limited_predicate_read_matches_unlimited_prefix() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "feedback",
                (0..60)
                    .map(|i| (Key::int(i), obj! {"g" => i % 3, "n" => i}))
                    .collect(),
            )
        })
        .unwrap();
        let pred = Predicate::eq("g", Value::Int(1));
        let mut t = e.begin(Isolation::Snapshot);
        let full = t.rows("feedback", Some(&pred), None).unwrap();
        assert_eq!(full.len(), 20);
        for limit in [0usize, 1, 5, 20, 99] {
            let got = t.rows("feedback", Some(&pred), Some(limit)).unwrap();
            assert_eq!(got, full[..limit.min(full.len())].to_vec(), "limit {limit}");
        }
        // serializable transactions fall back (read set must stay full)
        let mut ser = e.begin(Isolation::Serializable);
        let got = ser.rows("feedback", Some(&pred), Some(5)).unwrap();
        assert_eq!(got, full[..5].to_vec());
        drop(ser);
        // the primary-key fast path honours the limit too
        e.run(Isolation::Snapshot, |t| {
            t.insert("customers", obj! {"id" => 1, "name" => "Ada"})
                .map(|_| ())
        })
        .unwrap();
        let pk_pred = Predicate::eq("id", Value::Int(1));
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.rows("customers", Some(&pk_pred), Some(1)).unwrap().len(),
            1
        );
        assert!(t
            .rows("customers", Some(&pk_pred), Some(0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn shared_reads_hand_out_the_same_allocation() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), obj! {"big" => "payload"})
        })
        .unwrap();
        let mut a = e.begin_read();
        let mut b = e.begin_read();
        let va = a.get_shared("feedback", &Key::int(1)).unwrap().unwrap();
        let vb = b.get_shared("feedback", &Key::int(1)).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&va, &vb),
            "both readers share the stored version"
        );
    }

    #[test]
    fn arrays_and_contains_work_through_engine() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.insert("orders", obj! {"tags" => arr!["rush", "eu"]})?;
            t.insert("orders", obj! {"tags" => arr!["bulk"]})?;
            Ok(())
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let rush = t
            .rows(
                "orders",
                Some(&Predicate::Contains(
                    FieldPath::key("tags"),
                    Value::from("rush"),
                )),
                None,
            )
            .unwrap();
        assert_eq!(rush.len(), 1);
    }
}
