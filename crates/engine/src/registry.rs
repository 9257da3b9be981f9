//! The transaction registry: which transactions are open, and at which
//! snapshot. It is the one snapshot source: [`Registry::register`] reads
//! the snapshot under the lock it inserts it under, so no pruning can
//! take its horizon between a snapshot being read and being registered.
//! The pruning horizon, `min(open snapshots, published)`, is read under
//! the same lock ([`Registry::watermark`]), so a snapshot registered
//! after it reads a `published` at or above it. Every way of ending a
//! transaction finishes it (`commit.rs`), which only removes it; so does
//! the checkpoint, which registers the snapshot it walks. A commit that
//! prunes reads the horizon after its `finish`, in a critical section of
//! its own: that horizon is at or above the one at removal (snapshots
//! only leave, `published` only grows, and a new snapshot reads
//! `published`) and still at or below every open snapshot.
//!
//! The map's lock (`LockRank::ActiveTxns`) is only ever taken on its own.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use parking_lot::{LockRank, TrackedAtomicU64, TrackedMutex};

use udbms_core::{Ts, TxnId};

pub(crate) struct Registry {
    /// txn id → snapshot ts of every open transaction.
    active: TrackedMutex<HashMap<TxnId, Ts>>,
    next_txn: TrackedAtomicU64,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            active: TrackedMutex::new(LockRank::ActiveTxns, HashMap::new()),
            next_txn: TrackedAtomicU64::named("engine.next_txn", 1),
        }
    }

    /// Open a transaction reading at the newest commit in `published`;
    /// its fresh id and that snapshot.
    pub(crate) fn register(&self, published: &TrackedAtomicU64) -> (TxnId, Ts) {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        let mut active = self.active.lock();
        // ORDER: Acquire pairs with the Release publish in commit.rs
        // try_commit (and recovery's replay): every version at or below
        // the snapshot is installed.
        let snapshot = Ts(published.load(Ordering::Acquire));
        active.insert(id, snapshot);
        (id, snapshot)
    }

    /// Close transaction `id`: its snapshot no longer holds back pruning.
    pub(crate) fn finish(&self, id: TxnId) {
        self.active.lock().remove(&id);
    }

    /// The horizon `gc` and a rewriting commit prune below:
    /// `min(open snapshots, published)`, read under the `active` lock.
    pub(crate) fn watermark(&self, published: &TrackedAtomicU64) -> Ts {
        let active = self.active.lock();
        // ORDER: Acquire pairs with try_commit's Release publish, as in `register`.
        let now = Ts(published.load(Ordering::Acquire));
        active.values().copied().fold(now, Ts::min)
    }

    /// Open transactions.
    pub(crate) fn len(&self) -> usize {
        self.active.lock().len()
    }
}
