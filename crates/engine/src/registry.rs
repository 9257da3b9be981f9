//! The transaction registry: which transactions are open, and at which
//! snapshot. It is the one snapshot source: [`Registry::register`] reads
//! the snapshot under the lock it inserts it under, so no `gc` can take
//! its [`Registry::watermark`] between a snapshot being read and being
//! registered. Every way of ending a transaction finishes it
//! (`commit.rs` — the only caller of [`Registry::finish`]).
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

    /// Close transaction `id`: its snapshot no longer holds back GC.
    pub(crate) fn finish(&self, id: TxnId) {
        self.active.lock().remove(&id);
    }

    /// The oldest snapshot an open transaction reads at, if any is open.
    pub(crate) fn watermark(&self) -> Option<Ts> {
        self.active.lock().values().copied().min()
    }

    /// Open transactions.
    pub(crate) fn len(&self) -> usize {
        self.active.lock().len()
    }
}
