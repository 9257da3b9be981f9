//! The transaction registry: which transactions are open, and at which
//! snapshot. It is the one snapshot source: [`Registry::register`] reads
//! the snapshot under the lock it inserts it under, so no pruning can
//! take its horizon between a snapshot being read and being registered.
//! The pruning horizon, `min(open snapshots, published)`, is read under
//! the same lock ([`Registry::watermark`], [`Registry::finish`]), so a
//! snapshot registered after it reads a `published` at or above it.
//! Every way of ending a transaction finishes it (`commit.rs`); so does
//! the checkpoint, which registers the snapshot it walks.
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

    /// Close transaction `id` — its snapshot no longer holds back
    /// pruning — and read the horizon in the same critical section.
    pub(crate) fn finish(&self, id: TxnId, published: &TrackedAtomicU64) -> Ts {
        let mut active = self.active.lock();
        active.remove(&id);
        horizon(&active, published)
    }

    /// The horizon `gc` prunes below.
    pub(crate) fn watermark(&self, published: &TrackedAtomicU64) -> Ts {
        horizon(&self.active.lock(), published)
    }

    /// Open transactions.
    pub(crate) fn len(&self) -> usize {
        self.active.lock().len()
    }
}

/// `min(open snapshots, published)`, read under the `active` lock.
fn horizon(active: &HashMap<TxnId, Ts>, published: &TrackedAtomicU64) -> Ts {
    // ORDER: Acquire pairs with try_commit's Release publish, as in `register`.
    let now = Ts(published.load(Ordering::Acquire));
    active.values().copied().fold(now, Ts::min)
}
