//! Recovery and checkpoint: engines that log to a WAL, replay of a log
//! into the record store, and compaction of the log to a snapshot.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use udbms_core::{CollectionSchema, Result, Ts, TxnId, Value};

use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::group::GroupLog;
use crate::storage::RecordId;
use crate::wal::fault::FaultPlan;
use crate::wal::{Wal, WalRecord};

impl Engine {
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
        // ORDER: Release — `clock` pairs with the Acquire load under
        // commit_lock in checkpoint.
        self.inner.clock.store(max_ts, Ordering::Release);
        // ORDER: Release — a reader that Acquire-loads `published`
        // (Registry::register) must see every version installed by the
        // shard writes above.
        self.inner.published.store(max_ts, Ordering::Release);
        Ok(n)
    }

    /// Compact the WAL: replace its history with one synthetic record
    /// holding the live state at a snapshot, plus every commit after
    /// that snapshot. No-op (Ok) when the engine has no WAL.
    ///
    /// Commits are **not** stalled for the duration: `commit_lock` is
    /// held only long enough to read the snapshot timestamp (so every
    /// commit at or below it is installed *and* enqueued, which
    /// `published` alone does not promise), the collection scan runs
    /// against MVCC shard reads, and only the final swap — drain the
    /// commit queue, filter the tail, fsync + rename — briefly closes
    /// the queue (work proportional to the log tail, not the database).
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
}
