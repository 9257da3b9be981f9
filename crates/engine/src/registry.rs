//! The transaction registry: which transactions are open, and at which
//! snapshot. Beginning a transaction registers its snapshot, every way
//! of ending one finishes it (`commit.rs` — the only caller of
//! [`Registry::finish`]), and garbage collection prunes below the oldest
//! snapshot still registered ([`Registry::watermark`]).
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

    /// Open a transaction reading at `snapshot`; its id is fresh.
    pub(crate) fn register(&self, snapshot: Ts) -> TxnId {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.active.lock().insert(id, snapshot);
        id
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
