//! Group commit: the engine's durability subsystem.
//!
//! Committers do not write the WAL under the global lock. Under
//! `commit_lock` they **enqueue** their record (so queue order is
//! commit-timestamp order) and, after releasing the lock, wait until a
//! batch writer has drained the queue and made their record durable to
//! the engine's [`Durability`] level. The per-commit serialization
//! point shrinks from "encode + write + flush" to a queue push (the
//! committer encoded its frame before taking the lock), and
//! one flush/fsync covers every commit in a batch.
//!
//! ```text
//!   committer                       batch writer (a waiting committer)
//!   ─────────                       ──────────
//!   (commit_lock held)
//!   seq = enqueue(record) ───────►  find the queue unclaimed
//!   (commit_lock released)          take whole queue, writing = true
//!   wait until durable ≥ seq        write the batch's frames
//!        ▲                          flush / fdatasync per Durability
//!        └───────── notify ◄──────  durable += batch, writing = false
//! ```
//!
//! The batch is drained by whoever gets there first: a **waiting
//! committer that finds the queue unclaimed leads the batch itself**
//! (classic leader/follower group commit — no sleep/wake handoff on the
//! hot path, which for cheap flushes would cost more than it saves).
//! One flush/fsync covers the whole batch, `writing` arbitrates so
//! exactly one drainer runs, and the drainer writes with the queue lock
//! released, so the next batch forms behind it.
//!
//! Where nothing waits for the log — at `Buffered`, and with
//! `EngineConfig::group_commit = false` (the engine's historical
//! per-commit path, kept alive as the E8 comparison arm) — a commit
//! drains its own record **in place**: it enqueues and at once runs the
//! same drain, still holding `commit_lock`. The mode decides only who
//! drains, never how, and the log runs no thread of its own.
//!
//! Lock order: `state → wal`. A drainer never holds both (it takes the
//! batch under `state`, releases, then writes under `wal`); checkpoint
//! holds both, which is exactly what makes its rewrite atomic against
//! concurrent enqueues. Neither lock is ever taken while waiting for
//! `commit_lock`, so the engine-wide order `commit_lock → … → state →
//! wal` stays acyclic. Both locks are rank-tracked
//! ([`LockRank::GroupQueue`] and [`LockRank::WalFile`]), so audited
//! builds enforce this order at runtime; the shim [`Condvar`] keeps the
//! rank bookkeeping correct across waits.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::{
    Condvar, LockRank, TrackedAtomicBool, TrackedAtomicU64, TrackedMutex, TrackedMutexGuard,
};

use udbms_obs::{Counter, Histogram, Obs, Stamp};

use udbms_core::{Error, Result, Ts};

use crate::txn::Durability;
use crate::wal::{PreparedRewrite, Wal};

/// Pre-fetched obs handles for the commit pipeline's stage histograms —
/// one registry lookup each at [`GroupLog::start`], then the record
/// path is pure atomics.
struct PipelineMetrics {
    /// Enqueue → batch-taken wait, per record.
    queue_wait_ns: Arc<Histogram>,
    /// WAL append (the frames' bytes written) per batch.
    append_ns: Arc<Histogram>,
    /// Flush / fdatasync per batch (≈0 at `Buffered`).
    flush_ns: Arc<Histogram>,
    /// Records per written batch (group-commit efficiency shape).
    batch_records: Arc<Histogram>,
    /// Batches written (group efficiency = `wal_records / wal_batches`).
    wal_batches: Arc<Counter>,
    /// Records written.
    wal_records: Arc<Counter>,
    /// Times the log transitioned to a failed state (0 or 1 per run).
    wal_poisoned: Arc<Counter>,
    /// Commits rejected because the log had already failed.
    write_rejected: Arc<Counter>,
}

impl PipelineMetrics {
    fn new(obs: &Obs) -> PipelineMetrics {
        PipelineMetrics {
            queue_wait_ns: obs.histogram("commit_queue_wait_ns"),
            append_ns: obs.histogram("wal_append_ns"),
            flush_ns: obs.histogram("wal_flush_ns"),
            batch_records: obs.histogram("wal_batch_records"),
            wal_batches: obs.counter("wal_batches"),
            wal_records: obs.counter("wal_records"),
            wal_poisoned: obs.counter("wal_poisoned"),
            write_rejected: obs.counter("write_rejected"),
        }
    }
}

#[derive(Default)]
struct LogState {
    /// Sealed commit frames awaiting a drain, in commit-ts order, each
    /// carrying its enqueue stamp (empty when obs is off) so the drainer
    /// can attribute queue wait per record.
    queue: Vec<(Vec<u8>, Stamp)>,
    /// Records ever enqueued; a committer's ticket is its value after
    /// its own push.
    enqueued: u64,
    /// Records made durable (to the configured level) so far.
    durable: u64,
    /// Whether a drainer holds a taken batch it has not yet retired.
    writing: bool,
    /// Committers currently parked on `done` (skip the notify syscall
    /// when nobody is waiting — the common single-leader case).
    waiters: u64,
    /// First WAL I/O failure; once set the log is poisoned and every
    /// subsequent commit fails rather than silently losing durability.
    error: Option<String>,
    /// Failure flavor: `true` when the first failure was out-of-space
    /// (`ENOSPC`), which degrades the engine to read-only mode — reads
    /// keep serving, writes fail fast — instead of a device/fsync
    /// failure, which poisons the log outright (the fsyncgate rule: a
    /// failed fsync is never retried, because the kernel may already
    /// have dropped the dirty pages).
    read_only: bool,
}

struct LogShared {
    state: TrackedMutex<LogState>,
    /// Lock-free mirror of `LogState::durable`, published after every
    /// retired batch: followers poll it without touching the state
    /// mutex, which would otherwise be the contention hot spot (every
    /// ack taking the lock serializes exactly the threads group commit
    /// is trying to decouple).
    durable: TrackedAtomicU64,
    /// Lock-free mirror of `LogState::writing` — a cheap "is a drain in
    /// flight" probe deciding whether a waiter should try to lead.
    writing: TrackedAtomicBool,
    /// Lock-free mirror of `LogState::error.is_some()`.
    poisoned: TrackedAtomicBool,
    /// Lock-free mirror of `LogState::read_only` (meaningful only once
    /// `poisoned` is set): lets the engine's read lane classify the
    /// failure without touching the state mutex.
    read_only: TrackedAtomicBool,
    /// Committers wait here for `durable` to reach their ticket.
    done: Condvar,
    /// Checkpoint waits here for `writing` to clear.
    idle: Condvar,
    wal: TrackedMutex<Wal>,
    durability: Durability,
    obs: Arc<Obs>,
    pipe: PipelineMetrics,
}

impl LogShared {
    fn write_batch(&self, wal: &mut Wal, batch: &[Vec<u8>]) -> Result<()> {
        let append_stamp = self.obs.start();
        for frame in batch {
            wal.append_frame(frame)?;
        }
        self.obs.record_ns(&self.pipe.append_ns, append_stamp);
        let flush_stamp = self.obs.start();
        let flushed = match self.durability {
            Durability::Buffered => Ok(()),
            Durability::Flush => wal.flush(),
            Durability::Fsync => {
                wal.flush()?;
                wal.sync_data()
            }
        };
        self.obs.record_ns(&self.pipe.flush_ns, flush_stamp);
        flushed
    }

    /// Take the whole queue, retiring each record's queue-wait stamp
    /// into the stage histogram.
    fn take_batch(&self, st: &mut LogState) -> Vec<Vec<u8>> {
        let taken = std::mem::take(&mut st.queue);
        if self.obs.is_enabled() && !taken.is_empty() {
            self.pipe.batch_records.record(taken.len() as u64);
        }
        taken
            .into_iter()
            .map(|(frame, stamp)| {
                if let Some(ns) = stamp.elapsed_ns() {
                    self.pipe.queue_wait_ns.record(ns);
                }
                frame
            })
            .collect()
    }

    /// Take the queued batch, write + flush/fsync it, retire it. The
    /// caller verified `!writing` and a non-empty queue. The state lock
    /// is released during the I/O — `writing` marks the batch in flight
    /// — so committers keep enqueueing the next batch meanwhile. Returns
    /// the re-acquired state lock.
    fn drain<'a>(
        &'a self,
        mut st: TrackedMutexGuard<'a, LogState>,
    ) -> TrackedMutexGuard<'a, LogState> {
        st.writing = true;
        self.writing.store(true, Ordering::Relaxed);
        let batch = self.take_batch(&mut st);
        drop(st);
        let result = {
            let mut wal = self.wal.lock();
            self.write_batch(&mut wal, &batch)
        };
        let mut st = self.state.lock();
        st.writing = false;
        self.writing.store(false, Ordering::Relaxed);
        self.retire(&mut st, batch.len() as u64, result);
        if st.waiters > 0 {
            self.done.notify_all();
        }
        self.idle.notify_all();
        st
    }

    fn retire(&self, st: &mut LogState, n: u64, result: Result<()>) {
        match result {
            Ok(()) => {
                st.durable += n;
                self.pipe.wal_batches.add(1);
                self.pipe.wal_records.add(n);
                // ORDER: Release pairs with the Acquire poll in
                // wait_durable — a follower that sees this count must
                // also see the batch's WAL writes behind it.
                self.durable.store(st.durable, Ordering::Release);
                self.obs.event("wal_batch", n, st.durable);
            }
            Err(e) => self.poison(st, &e),
        }
    }

    fn poison(&self, st: &mut LogState, e: &Error) {
        if st.error.is_none() {
            st.error = Some(e.to_string());
            st.read_only = is_enospc(e);
            // ORDER: Release pairs with the Acquire in GroupLog::failure
            // (published before `poisoned`, whose Acquire load gates
            // every read of this flag).
            self.read_only.store(st.read_only, Ordering::Release);
            self.pipe.wal_poisoned.add(1);
            self.obs.event("wal_poisoned", u64::from(st.read_only), 0);
        }
        // ORDER: Release pairs with wait_durable's Acquire probe; the
        // probe's lock-free reader must see `st.error` context only via
        // the state lock, but the flag itself must not be reorderable
        // ahead of the failed write it reports.
        self.poisoned.store(true, Ordering::Release);
        // broadcast the failure to every parked thread — followers on
        // `done`, a checkpoint on `idle` — so a leader's failed drain
        // reaches the whole batch immediately: no hang, and no waiter
        // left to infer a false durability ack
        self.done.notify_all();
        self.idle.notify_all();
    }
}

/// Whether an I/O failure is the out-of-space class (`ENOSPC`), which
/// degrades the engine to read-only instead of poisoning it outright.
fn is_enospc(e: &Error) -> bool {
    match e {
        Error::Io(io) => {
            // raw errno when the OS surfaced it; kind covers injected or
            // wrapped errors that preserved only the classification
            io.raw_os_error() == Some(28)
                || io.kind() == std::io::Error::from_raw_os_error(28).kind()
        }
        _ => false,
    }
}

/// The typed error a failed log surfaces on every subsequent write:
/// sticky, non-retryable, with the flavor in the message. Read-only
/// (ENOSPC) keeps the read lane alive; a poisoned log means durability
/// can no longer be attested at all.
fn unavailable(read_only: bool, msg: &str) -> Error {
    if read_only {
        Error::Unavailable(format!("engine is read-only (wal out of space): {msg}"))
    } else {
        Error::Unavailable(format!("wal poisoned: {msg}"))
    }
}

/// The engine's WAL endpoint: a group-commit queue, drained by a waiting
/// committer, or by each commit itself when `in_place` is set.
pub(crate) struct GroupLog {
    shared: LogShared,
    /// Nothing waits for the log (`Buffered`, or group commit off): each
    /// commit drains its own record before it returns. At `Buffered` the
    /// record may stay in the `Wal`'s write buffer, which flushes when
    /// the log drops, so a clean shutdown keeps every commit.
    in_place: bool,
}

impl GroupLog {
    /// Wrap an open WAL. With `grouped` at `Flush`/`Fsync`, commits queue
    /// and a waiting committer drains each batch; otherwise every commit
    /// drains its own record in place. Stage timings land in `obs`'s
    /// histograms.
    pub fn start(wal: Wal, durability: Durability, grouped: bool, obs: Arc<Obs>) -> GroupLog {
        let pipe = PipelineMetrics::new(&obs);
        let shared = LogShared {
            state: TrackedMutex::new(LockRank::GroupQueue, LogState::default()),
            durable: TrackedAtomicU64::named("log.durable", 0),
            writing: TrackedAtomicBool::named("log.writing", false),
            poisoned: TrackedAtomicBool::named("log.poisoned", false),
            read_only: TrackedAtomicBool::named("log.read_only", false),
            done: Condvar::new(),
            idle: Condvar::new(),
            wal: TrackedMutex::new(LockRank::WalFile, wal),
            durability,
            obs,
            pipe,
        };
        GroupLog {
            shared,
            in_place: !grouped || durability == Durability::Buffered,
        }
    }

    /// Log one commit's sealed frame. Called with `commit_lock` held, so
    /// tickets are issued in commit-ts order. The record is enqueued, and
    /// durability is bought later in [`GroupLog::wait_durable`] — unless
    /// the log drains in place, when the commit drains its own record
    /// here, and a failed write fails this commit.
    pub fn commit(&self, frame: Vec<u8>) -> Result<u64> {
        let mut st = self.shared.state.lock();
        if let Some(msg) = &st.error {
            self.shared.pipe.write_rejected.add(1);
            return Err(unavailable(st.read_only, msg));
        }
        st.queue.push((frame, self.shared.obs.start()));
        st.enqueued += 1;
        let seq = st.enqueued;
        if self.in_place {
            // commit_lock serializes in-place drains and no waiter leads
            // a batch on this log, so none is in flight and the queue
            // holds only this record
            let st = self.shared.drain(st);
            if let Some(msg) = &st.error {
                return Err(unavailable(st.read_only, msg));
            }
        }
        Ok(seq)
    }

    /// Wait until ticket `seq` is durable to the configured level.
    /// Returns at once when the log drains in place: `commit` already
    /// wrote the record (at `Buffered`, into the write buffer — the
    /// contract is exactly that the commit does not wait for the file).
    ///
    /// **Committer-assisted drain**: a waiter that finds the queue
    /// unclaimed (no batch in flight) becomes the batch writer itself
    /// after one cooperative yield — the classic leader/follower group
    /// commit, with the yield giving concurrently running committers a
    /// scheduling slot to pile into the batch before the leader pays
    /// one flush/fsync for all of them. Followers poll the lock-free
    /// `durable` mirror between yields (never touching the contended
    /// state mutex) and only fall back to a condvar park after the spin
    /// budget, which on a healthy log is rare.
    pub fn wait_durable(&self, seq: u64) -> Result<()> {
        if self.in_place {
            return Ok(());
        }
        // spin budget before any futex sleep: an in-flight leader's
        // drain is microseconds, so a yield loop almost always beats a
        // sleep/wake round-trip
        const MAX_YIELDS: u32 = 16;
        // at Fsync a batch costs a disk round-trip, so a would-be
        // leader yields once first, letting concurrently running
        // committers pile into the batch (one fdatasync then covers all
        // of them); at Flush the drain is one write() and the yield
        // would cost more than it batches, so lead immediately
        let lead_after = u32::from(self.shared.durability == Durability::Fsync);
        let mut yields = 0u32;
        loop {
            // ORDER: Acquire pairs with the publishing Release in
            // retire/checkpoint — seeing the count implies seeing
            // the durable bytes.
            if self.shared.durable.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            // ORDER: Acquire pairs with poison()'s Release store.
            if self.shared.poisoned.load(Ordering::Acquire) {
                let st = self.shared.state.lock();
                if st.durable >= seq {
                    return Ok(());
                }
                let msg = st.error.as_deref().unwrap_or("unknown wal error");
                return Err(unavailable(st.read_only, msg));
            }
            // lead only once the batch-formation yield (if any) is paid
            // and no drain is in flight
            if yields >= lead_after && !self.shared.writing.load(Ordering::Relaxed) {
                let st = self.shared.state.lock();
                if st.durable >= seq {
                    return Ok(());
                }
                if !st.writing && !st.queue.is_empty() {
                    // drain the whole queue — our record is in it, or
                    // in an already-retired batch (the loop re-checks)
                    drop(self.shared.drain(st));
                    continue;
                }
                drop(st);
            }
            if yields < MAX_YIELDS {
                yields += 1;
                std::thread::yield_now();
                continue;
            }
            // spin budget exhausted (a stalled leader, e.g. a slow
            // fsync): park until the next batch retires
            let mut st = self.shared.state.lock();
            while st.durable < seq && st.error.is_none() {
                if !st.writing && !st.queue.is_empty() {
                    st = self.shared.drain(st);
                    continue;
                }
                st.waiters += 1;
                self.shared.done.wait(&mut st);
                st.waiters -= 1;
            }
            if st.durable >= seq {
                return Ok(());
            }
            let msg = st.error.as_deref().unwrap_or("unknown wal error");
            return Err(unavailable(st.read_only, msg));
        }
    }

    /// Install a checkpoint: replace the log with `synthetic` (frames
    /// holding the engine state at `snapshot`) followed by every record
    /// committed after `snapshot`. The whole-database synthetic frames
    /// are written and fsync'd to the temp file **before** the queue
    /// lock is taken (the collection scan that encoded them already ran
    /// outside any engine-wide lock, too); commits only stall for the
    /// tail work — drain the queue, copy the post-snapshot frames,
    /// rename — which is proportional to the log, not the database.
    pub fn checkpoint(&self, synthetic: &[u8], snapshot: Ts) -> Result<()> {
        // phase 1, no state lock held: the O(database) part
        let (path, faults) = {
            let wal = self.shared.wal.lock();
            (wal.path().to_path_buf(), Arc::clone(wal.faults()))
        };
        // a failed prepare leaves the live log untouched: the
        // checkpoint simply didn't happen, no poisoning
        let prepared = Wal::prepare_rewrite(&path, synthetic, &faults)?;

        // phase 2, queue closed: the O(log tail) part
        let mut st = self.shared.state.lock();
        // wait out an in-flight batch (bounded: one batch — or a failed
        // drain, whose poison broadcast also notifies `idle`), then
        // drain the remaining queue ourselves so the file is complete
        while st.writing {
            self.shared.idle.wait(&mut st);
        }
        if let Some(msg) = &st.error {
            return Err(unavailable(st.read_only, msg));
        }
        let pending = self.shared.take_batch(&mut st);
        let drained = pending.len() as u64;
        let result = {
            let mut wal = self.shared.wal.lock();
            Self::install_rewrite(&mut wal, pending, prepared, snapshot)
        };
        match result {
            Ok(()) => {
                // the rewrite fsyncs everything, so drained records are
                // durable beyond any configured level
                st.durable += drained;
                if drained > 0 {
                    self.shared.pipe.wal_batches.add(1);
                    self.shared.pipe.wal_records.add(drained);
                }
                // ORDER: Release pairs with wait_durable's Acquire poll.
                self.shared.durable.store(st.durable, Ordering::Release);
                self.shared.done.notify_all();
                Ok(())
            }
            Err(e) => {
                // drained records may or may not have reached the file:
                // poison the log rather than guess
                self.shared.poison(&mut st, &e);
                self.shared.done.notify_all();
                Err(e)
            }
        }
    }

    fn install_rewrite(
        wal: &mut Wal,
        pending: Vec<Vec<u8>>,
        prepared: PreparedRewrite,
        snapshot: Ts,
    ) -> Result<()> {
        for frame in &pending {
            wal.append_frame(frame)?;
        }
        wal.flush()?;
        // every commit with ts ≤ snapshot is inside the prepared
        // synthetic frames (it was fully installed before the snapshot
        // was taken under commit_lock); later commits ride along as
        // the tail, their frames copied as they are
        let tail = wal.frames_after(snapshot)?;
        wal.finish_rewrite(prepared, &tail)
    }

    /// How the log has failed, if it has: `None` while healthy,
    /// `Some(true)` for read-only degraded mode (ENOSPC — reads keep
    /// serving), `Some(false)` for a poisoned log. One atomic load on
    /// the healthy path, so callers can probe per-operation.
    pub fn failure(&self) -> Option<bool> {
        // ORDER: Acquire pairs with poison()'s Release store.
        if self.shared.poisoned.load(Ordering::Acquire) {
            // ORDER: Acquire pairs with poison()'s read_only Release
            // store, which happens-before the poisoned store above.
            Some(self.shared.read_only.load(Ordering::Acquire))
        } else {
            None
        }
    }

    /// Fail fast if the log can no longer accept writes, with the same
    /// typed error a commit attempt would surface. The engine calls
    /// this before taking `commit_lock`, so writes against a degraded
    /// engine don't serialize behind healthy-path locking.
    pub fn check_available(&self) -> Result<()> {
        if self.failure().is_none() {
            return Ok(());
        }
        let st = self.shared.state.lock();
        let msg = st.error.as_deref().unwrap_or("unknown wal error");
        self.shared.pipe.write_rejected.add(1);
        Err(unavailable(st.read_only, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::codec;
    use udbms_core::{Key, TxnId, Value};

    fn test_obs() -> Arc<Obs> {
        Arc::new(Obs::new(true))
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "udbms-group-test-{}-{name}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// The sealed frame of a one-write commit at `ts` writing `value`.
    fn frame(ts: u64, value: i64) -> Vec<u8> {
        let key = Key::int(ts as i64);
        let write = ("ns", &key, Some(&Value::Int(value)));
        let mut out = Vec::new();
        codec::push_frame(&mut out, Ts(ts), TxnId(ts), [write].into_iter()).unwrap();
        out
    }

    fn rec(ts: u64) -> Vec<u8> {
        frame(ts, 1)
    }

    /// `(batches, records)` written so far.
    fn counters(log: &GroupLog) -> (u64, u64) {
        let pipe = &log.shared.pipe;
        (pipe.wal_batches.get(), pipe.wal_records.get())
    }

    #[test]
    fn grouped_commits_become_durable_in_order() {
        let path = temp_path("grouped");
        let log = GroupLog::start(
            Wal::open(&path).unwrap(),
            Durability::Flush,
            true,
            test_obs(),
        );
        for ts in 1..=30 {
            let seq = log.commit(rec(ts)).unwrap();
            log.wait_durable(seq).unwrap();
        }
        let (batches, appended) = counters(&log);
        assert_eq!(appended, 30);
        assert!((1..=30).contains(&batches));
        drop(log);
        let tss: Vec<u64> = Wal::read_all(&path)
            .unwrap()
            .iter()
            .map(|r| r.commit_ts.0)
            .collect();
        assert_eq!(tss, (1..=30).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buffered_commits_survive_clean_shutdown() {
        let path = temp_path("buffered");
        let log = GroupLog::start(
            Wal::open(&path).unwrap(),
            Durability::Buffered,
            true,
            test_obs(),
        );
        for ts in 1..=10 {
            let seq = log.commit(rec(ts)).unwrap();
            log.wait_durable(seq).unwrap(); // no-op for Buffered
        }
        // each commit drained its own record in place
        assert_eq!(counters(&log), (10, 10));
        drop(log); // the BufWriter flushes on drop
        assert_eq!(Wal::read_all(&path).unwrap().len(), 10);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_mode_writes_one_batch_per_commit() {
        let path = temp_path("sync");
        let log = GroupLog::start(
            Wal::open(&path).unwrap(),
            Durability::Flush,
            false,
            test_obs(),
        );
        for ts in 1..=5 {
            let seq = log.commit(rec(ts)).unwrap();
            log.wait_durable(seq).unwrap();
        }
        assert_eq!(counters(&log), (5, 5));
        drop(log);
        assert_eq!(Wal::read_all(&path).unwrap().len(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_keeps_records_after_snapshot() {
        let path = temp_path("ckpt");
        let log = GroupLog::start(
            Wal::open(&path).unwrap(),
            Durability::Flush,
            true,
            test_obs(),
        );
        for ts in 1..=6 {
            let seq = log.commit(rec(ts)).unwrap();
            log.wait_durable(seq).unwrap();
        }
        // records 7 and 8 land after the snapshot at ts 6
        log.commit(rec(7)).unwrap();
        log.commit(rec(8)).unwrap();
        log.checkpoint(&frame(6, 6), Ts(6)).unwrap();
        drop(log);
        let tss: Vec<u64> = Wal::read_all(&path)
            .unwrap()
            .iter()
            .map(|r| r.commit_ts.0)
            .collect();
        assert_eq!(tss, vec![6, 7, 8], "synthetic + post-snapshot tail");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stage_histograms_cover_the_pipeline() {
        let path = temp_path("stages");
        let obs = test_obs();
        let log = GroupLog::start(
            Wal::open(&path).unwrap(),
            Durability::Flush,
            true,
            Arc::clone(&obs),
        );
        for ts in 1..=20 {
            let seq = log.commit(rec(ts)).unwrap();
            log.wait_durable(seq).unwrap();
        }
        drop(log);
        let snap = obs.snapshot();
        for stage in [
            "commit_queue_wait_ns",
            "wal_append_ns",
            "wal_flush_ns",
            "wal_batch_records",
        ] {
            let h = snap.histogram(stage).expect(stage);
            assert!(h.count > 0, "{stage} recorded nothing");
        }
        let waits = snap.histogram("commit_queue_wait_ns").unwrap();
        assert_eq!(waits.count, 20, "every record's queue wait measured");
        assert!(
            snap.events.iter().any(|e| e.kind == "wal_batch"),
            "batch events traced"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let path = temp_path("disabled");
        let obs = Obs::disabled();
        let log = GroupLog::start(
            Wal::open(&path).unwrap(),
            Durability::Flush,
            true,
            Arc::clone(&obs),
        );
        for ts in 1..=5 {
            let seq = log.commit(rec(ts)).unwrap();
            log.wait_durable(seq).unwrap();
        }
        drop(log);
        let snap = obs.snapshot();
        assert_eq!(snap.histogram("wal_append_ns").map(|h| h.count), Some(0));
        assert!(snap.events.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_fsync_poisons_the_log() {
        // fsyncgate rule: one failed fsync and the log never acks
        // durability again — every later commit gets
        // Error::Unavailable, not a silent retry
        let path = temp_path("poison");
        let wal = Wal::open(&path).unwrap();
        wal.faults().fail_once("sync");
        let log = GroupLog::start(wal, Durability::Fsync, true, test_obs());
        let seq = log.commit(rec(1)).unwrap();
        let err = log.wait_durable(seq).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "{err}");
        assert!(err.to_string().contains("wal poisoned"), "{err}");
        // the sync fault was one-shot, but the poison is sticky:
        // retrying the fsync is exactly what must never happen
        for _ in 0..3 {
            let err = log.commit(rec(2)).unwrap_err();
            assert!(matches!(err, Error::Unavailable(_)), "{err}");
            assert!(!err.is_retryable());
        }
        assert!(
            matches!(log.failure(), Some(false)),
            "poisoned, not read-only"
        );
        drop(log);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_degrades_to_read_only_flavor() {
        // both in-place modes: the commit whose append failed is itself
        // refused, not acknowledged
        for (durability, grouped) in [(Durability::Flush, false), (Durability::Buffered, true)] {
            let path = temp_path("enospc");
            let wal = Wal::open(&path).unwrap();
            wal.faults().enospc("append.write");
            let log = GroupLog::start(wal, durability, grouped, test_obs());
            let err = log.commit(rec(1)).unwrap_err();
            assert!(matches!(err, Error::Unavailable(_)), "{err}");
            assert!(err.to_string().contains("read-only"), "{err}");
            assert!(
                matches!(log.failure(), Some(true)),
                "ENOSPC classifies as read-only degraded mode"
            );
            assert!(log.check_available().is_err());
            drop(log);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn leader_drain_failure_reaches_every_follower() {
        // a leader whose flush fails must broadcast the error to every
        // follower in the batch: all of them return (no hang), none of
        // them gets a false durability ack
        let path = temp_path("broadcast");
        let wal = Wal::open(&path).unwrap();
        wal.faults().fail_sticky("flush");
        let log = std::sync::Arc::new(GroupLog::start(wal, Durability::Flush, true, test_obs()));
        let outcomes: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=8u64)
                .map(|ts| {
                    let log = std::sync::Arc::clone(&log);
                    scope.spawn(move || {
                        // enqueue may already see the poison from an earlier
                        // thread's drain; either way the outcome is a typed
                        // error, never a hang or an Ok
                        log.commit(rec(ts)).and_then(|seq| log.wait_durable(seq))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes.len(), 8, "every follower returned");
        for res in &outcomes {
            let err = res.as_ref().unwrap_err();
            assert!(matches!(err, Error::Unavailable(_)), "{err}");
        }
        drop(log);
        std::fs::remove_file(&path).unwrap();
    }

    /// Park a follower on `wait_durable` behind a batch marked in flight,
    /// then hand the log to `release` under the state lock; the
    /// follower's outcome.
    fn parked_follower(name: &str, release: impl FnOnce(&LogShared, &mut LogState)) -> Result<()> {
        let path = temp_path(name);
        let log = GroupLog::start(
            Wal::open(&path).unwrap(),
            Durability::Flush,
            true,
            test_obs(),
        );
        let seq = log.commit(rec(1)).unwrap();
        {
            let mut st = log.shared.state.lock();
            st.writing = true;
            log.shared.writing.store(true, Ordering::Relaxed);
        }
        let outcome = std::thread::scope(|scope| {
            let follower = scope.spawn(|| log.wait_durable(seq));
            loop {
                let mut st = log.shared.state.lock();
                if st.waiters == 1 {
                    release(&log.shared, &mut st);
                    break;
                }
                drop(st);
                std::thread::yield_now();
            }
            follower.join().unwrap()
        });
        drop(log);
        std::fs::remove_file(&path).unwrap();
        outcome
    }

    #[test]
    fn a_parked_follower_drains_once_the_batch_retires() {
        let outcome = parked_follower("parked", |shared, st| {
            st.writing = false;
            shared.writing.store(false, Ordering::Relaxed);
            shared.done.notify_all();
        });
        outcome.unwrap();
    }

    #[test]
    fn a_parked_follower_sees_the_poison() {
        let outcome = parked_follower("parked-poison", |shared, st| {
            shared.poison(st, &Error::Io(std::io::Error::other("injected")));
        });
        let err = outcome.unwrap_err();
        assert!(err.to_string().contains("wal poisoned"), "{err}");
    }

    #[test]
    fn concurrent_committers_all_become_durable() {
        let path = temp_path("concurrent");
        let log = std::sync::Arc::new(GroupLog::start(
            Wal::open(&path).unwrap(),
            Durability::Flush,
            true,
            test_obs(),
        ));
        // stands in for commit_lock: timestamps are drawn and enqueued
        // in one step, so queue order is timestamp order
        let last_ts = TrackedMutex::new(LockRank::Commit, 0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let log = std::sync::Arc::clone(&log);
                let last_ts = &last_ts;
                scope.spawn(move || {
                    for _ in 0..25 {
                        let seq = {
                            let mut ts = last_ts.lock();
                            *ts += 1;
                            log.commit(rec(*ts)).unwrap()
                        };
                        log.wait_durable(seq).unwrap();
                    }
                });
            }
        });
        let (batches, appended) = counters(&log);
        assert_eq!(appended, 100);
        assert!(batches <= 100);
        drop(log);
        assert_eq!(Wal::read_all(&path).unwrap().len(), 100);
        std::fs::remove_file(&path).unwrap();
    }
}
