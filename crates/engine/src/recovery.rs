//! Recovery and checkpoint: engines that log to a WAL, replay of a log
//! into the record store, and compaction of the log to a snapshot.

use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use udbms_core::{CollectionSchema, Result, Ts, TxnId, Value};

use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::group::GroupLog;
use crate::storage::RecordId;
use crate::wal::fault::FaultPlan;
use crate::wal::{codec, Wal, WalRecord};

/// Rows per frame of a checkpoint's synthetic state: the state is logged
/// as a run of frames at the snapshot timestamp, none of them near the
/// 4 GiB frame limit.
const SYNTHETIC_FRAME_ROWS: usize = 4096;

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
    /// final frame (crash mid-append) is truncated away and every
    /// complete commit recovers; interior damage, or a file that is not
    /// this engine's log, errors and leaves the file as it was.
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
        let log = GroupLog::start(
            Wal::open_with_faults(path, faults)?,
            config.durability,
            config.group_commit,
            Arc::clone(&engine.inner.obs),
        );
        if engine.inner.log.set(log).is_err() {
            #[expect(
                clippy::unreachable,
                reason = "the engine was constructed two lines up"
            )]
            {
                unreachable!("fresh engine cannot already have a log");
            }
        }
        Ok(engine)
    }

    /// Replay a WAL file into this engine (used by [`Engine::with_wal`];
    /// public for recovery tests and tooling). Tolerates a torn final
    /// frame without modifying the file. Writes are grouped by shard
    /// across the whole log, so each shard lock is taken once.
    pub fn replay_wal(&self, path: &Path) -> Result<usize> {
        self.apply_records(Wal::scan(path)?.records)
    }

    /// Install already-parsed WAL records (the shared replay body).
    fn apply_records(&self, records: Vec<WalRecord>) -> Result<usize> {
        type ReplayBucket = Vec<(RecordId, Ts, Option<Arc<Value>>)>;
        let n = records.len();
        let mut catalog = self.inner.catalog.write();
        // ORDER: Acquire pairs with the commit path's Release publish;
        // replay resumes from the newest commit already installed.
        let mut max_ts = self.inner.published.load(Ordering::Acquire);
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
        // ORDER: Release — a reader that Acquire-loads `published`
        // (Registry::register) must see every version installed by the
        // shard writes above.
        self.inner.published.store(max_ts, Ordering::Release);
        Ok(n)
    }

    /// Compact the WAL: replace its history with synthetic frames
    /// holding the live state at a snapshot, plus every commit after
    /// that snapshot. No-op (Ok) when the engine has no WAL.
    ///
    /// Commits are **not** stalled for the duration: `commit_lock` is
    /// held only long enough to register the snapshot (under the lock
    /// every commit at or below `published` is installed *and* enqueued,
    /// which a lock-free read does not promise), the collection walk
    /// runs against MVCC shard reads at that registered snapshot, which
    /// no pruning goes below, and only the final swap — drain the commit
    /// queue, filter the tail, fsync + rename — briefly closes the queue
    /// (work proportional to the log tail, not the database).
    pub fn checkpoint(&self) -> Result<()> {
        let Some(log) = self.inner.log.get() else {
            return Ok(());
        };
        let stamp = self.inner.obs.start();
        let _ckpt = self.inner.checkpoint_lock.lock();
        let (id, snapshot) = {
            let _commit = self.inner.commit_lock.lock();
            self.inner.registry.register(&self.inner.published)
        };
        let state = self.state_frames(snapshot);
        self.inner.registry.finish(id);
        let (synthetic, rows_logged) = state?;
        self.inner
            .obs
            .event("checkpoint", snapshot.0, rows_logged as u64);
        let out = log.checkpoint(&synthetic, snapshot);
        self.inner
            .obs
            .record_ns(&self.inner.metrics.checkpoint_ns, stamp);
        out
    }

    /// The live state at `snapshot` as synthetic frames, and its row
    /// count. Every commit with ts ≤ snapshot is fully installed (it held
    /// commit_lock through install + enqueue), so the walk is a
    /// consistent image of the log prefix the rewrite replaces; its
    /// values are encoded where they live, behind their `Arc`s.
    fn state_frames(&self, snapshot: Ts) -> Result<(Vec<u8>, usize)> {
        let mut synthetic = Vec::new();
        let mut rows_logged = 0;
        let catalog = self.inner.catalog.read();
        for name in catalog.names() {
            #[expect(
                clippy::expect_used,
                reason = "name came from catalog.names() under this read guard"
            )]
            let id = catalog.get(&name).expect("listed name exists").id;
            let mut rows = Vec::new();
            let _ = self.inner.storage.walk(id, snapshot, |key, _, v| {
                rows.push((key.clone(), Arc::clone(v)));
                ControlFlow::<()>::Continue(())
            });
            for chunk in rows.chunks(SYNTHETIC_FRAME_ROWS) {
                let entries = chunk
                    .iter()
                    .map(|(key, v)| (name.as_str(), key, Some(&**v)));
                codec::push_frame(&mut synthetic, snapshot, TxnId(0), entries)?;
            }
            rows_logged += rows.len();
        }
        if synthetic.is_empty() {
            // an empty state still carries the snapshot's timestamp, so
            // the timestamp a reopened engine resumes from never goes back
            codec::push_frame(&mut synthetic, snapshot, TxnId(0), std::iter::empty())?;
        }
        Ok((synthetic, rows_logged))
    }
}
