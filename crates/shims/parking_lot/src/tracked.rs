//! Rank-aware tracked locks for the engine's lock-order discipline.
//!
//! The engine documents a total order over its long-lived locks
//! (DESIGN.md, "Invariants & static analysis"). [`TrackedMutex`] and
//! [`TrackedRwLock`] make that order *executable*: every lock carries a
//! [`LockRank`] (shards additionally carry their index), and under
//! `debug_assertions` — or with `RUSTFLAGS=--cfg lock_audit` in any
//! profile — each thread keeps a stack of the ranks it currently holds.
//! Acquiring a lock whose `(rank, index)` sorts *below* one already held,
//! or a shard whose index is not strictly above every held shard index,
//! panics immediately with both acquisition backtraces (set
//! `LOCK_AUDIT_BACKTRACE=1`; without it the panic still names both locks
//! but skips the expensive per-acquisition capture).
//!
//! In release builds without `lock_audit` the rank metadata is compiled
//! out entirely: a `TrackedMutex<T>` has exactly the size and alignment
//! of the plain shim [`Mutex<T>`](crate::Mutex) (checked by a
//! compile-time assert below) and `lock()` is a single passthrough call.
//!
//! Equal ranks are deliberately *not* flagged for non-shard locks: two
//! engines in one process may each take their own `commit_lock`, and the
//! discipline orders locks within one engine, not across engines.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// Rank of every long-lived engine lock, in the documented acquisition
/// order. Within one thread, locks must be acquired in non-decreasing
/// rank order; same-rank [`Shard`](LockRank::Shard) locks must be
/// acquired in strictly ascending shard-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockRank {
    /// `Engine::checkpoint`'s serialization lock — outermost of all.
    Checkpoint = 0,
    /// The engine-wide commit lock serializing commit/DDL critical
    /// sections.
    Commit = 1,
    /// The catalog `RwLock` (collection metadata, index definitions).
    Catalog = 2,
    /// A storage shard `RwLock`; carries the shard index, and multiple
    /// shards must be taken in ascending index order.
    Shard = 3,
    /// The group-commit queue state (`LogShared::state`).
    GroupQueue = 4,
    /// The WAL file mutex (`LogShared::wal`).
    WalFile = 5,
    /// The active-transaction registry (`Inner::active`).
    ActiveTxns = 6,
    /// The query-plan cache shelf — standalone, ranked last.
    PlanCache = 7,
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LockRank::Checkpoint => "Checkpoint",
            LockRank::Commit => "Commit",
            LockRank::Catalog => "Catalog",
            LockRank::Shard => "Shard",
            LockRank::GroupQueue => "GroupQueue",
            LockRank::WalFile => "WalFile",
            LockRank::ActiveTxns => "ActiveTxns",
            LockRank::PlanCache => "PlanCache",
        };
        f.write_str(name)
    }
}

/// Thread-local audit machinery, compiled only when tracking is on.
#[cfg(any(debug_assertions, lock_audit))]
pub(crate) mod audit {
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::fmt;
    use std::sync::OnceLock;

    use super::LockRank;

    /// One acquisition: rank plus shard index (0 for non-shard locks).
    /// Ordered lexicographically — exactly the order the discipline
    /// demands.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(crate) struct Acq {
        pub(crate) rank: LockRank,
        pub(crate) index: usize,
    }

    impl fmt::Display for Acq {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.rank == LockRank::Shard {
                write!(f, "Shard#{}", self.index)
            } else {
                write!(f, "{}", self.rank)
            }
        }
    }

    struct Held {
        acq: Acq,
        token: u64,
        trace: Option<Backtrace>,
    }

    struct Stack {
        next_token: u64,
        held: Vec<Held>,
    }

    thread_local! {
        static HELD: RefCell<Stack> = const {
            RefCell::new(Stack { next_token: 0, held: Vec::new() })
        };
    }

    fn capture_enabled() -> bool {
        static ON: OnceLock<bool> = OnceLock::new();
        *ON.get_or_init(|| {
            std::env::var("LOCK_AUDIT_BACKTRACE").is_ok_and(|v| !v.is_empty() && v != "0")
        })
    }

    fn capture() -> Option<Backtrace> {
        capture_enabled().then(Backtrace::force_capture)
    }

    /// Panic if acquiring `acq` now would invert the documented order
    /// with respect to any lock this thread already holds. Called
    /// *before* blocking on the underlying lock, so an inversion is
    /// reported even when it would otherwise deadlock.
    pub(crate) fn check(acq: Acq) {
        let conflict = HELD.with(|stack| {
            let stack = stack.borrow();
            stack.held.iter().rev().find_map(|held| {
                let shard_pair = held.acq.rank == LockRank::Shard && acq.rank == LockRank::Shard;
                let inverted = if shard_pair {
                    // shards must be strictly ascending by index
                    held.acq.index >= acq.index
                } else {
                    held.acq > acq
                };
                inverted.then(|| {
                    let trace = match &held.trace {
                        Some(bt) => format!("{bt}"),
                        None => String::from(
                            "<set LOCK_AUDIT_BACKTRACE=1 to capture acquisition backtraces>",
                        ),
                    };
                    (held.acq, trace)
                })
            })
        });
        if let Some((held, held_trace)) = conflict {
            let here = Backtrace::force_capture();
            panic!(
                "lock-order violation: acquiring {acq} while holding {held}\n\
                 --- held {held} acquired at ---\n{held_trace}\n\
                 --- offending {acq} acquisition at ---\n{here}"
            );
        }
    }

    /// Record `acq` as held by this thread; returns a token for
    /// [`unregister`]. Called after the underlying lock is acquired.
    pub(crate) fn register(acq: Acq) -> u64 {
        HELD.with(|stack| {
            let mut stack = stack.borrow_mut();
            let token = stack.next_token;
            stack.next_token += 1;
            stack.held.push(Held {
                acq,
                token,
                trace: capture(),
            });
            token
        })
    }

    /// Remove the acquisition identified by `token` (guards can drop in
    /// any order, so this searches rather than pops).
    pub(crate) fn unregister(token: u64) {
        HELD.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.held.iter().rposition(|h| h.token == token) {
                stack.held.remove(pos);
            }
        });
    }

    /// Number of tracked locks the current thread holds (test support).
    #[cfg(test)]
    pub(crate) fn held_count() -> usize {
        HELD.with(|stack| stack.borrow().held.len())
    }
}

#[cfg(any(debug_assertions, lock_audit))]
use audit::Acq;

/// A [`Mutex`](crate::Mutex) that participates in lock-order auditing.
///
/// Constructed with a [`LockRank`]; in audited builds every `lock()`
/// checks the thread's held-rank stack first. In plain release builds
/// the rank is compiled out and this is layout-identical to the
/// untracked shim mutex.
pub struct TrackedMutex<T: ?Sized> {
    #[cfg(any(debug_assertions, lock_audit))]
    acq: Acq,
    #[cfg(model_check)]
    model: crate::model::ModelSlot,
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`TrackedMutex::lock`].
///
/// The inner std guard lives in an `Option` so [`Condvar::wait`] can
/// temporarily surrender the lock without consuming the tracked guard.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    #[cfg(any(debug_assertions, lock_audit))]
    acq: Acq,
    #[cfg(any(debug_assertions, lock_audit))]
    token: u64,
    #[cfg(model_check)]
    lock: &'a TrackedMutex<T>,
    #[cfg(model_check)]
    in_model: bool,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> TrackedMutex<T> {
    /// Create a tracked mutex of rank `rank` protecting `value`.
    #[cfg_attr(not(any(debug_assertions, lock_audit)), allow(unused_variables))]
    pub const fn new(rank: LockRank, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            #[cfg(any(debug_assertions, lock_audit))]
            acq: Acq { rank, index: 0 },
            #[cfg(model_check)]
            model: crate::model::ModelSlot::new(),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquire the lock, panicking on a rank inversion in audited
    /// builds. Poisoning is ignored, as with the untracked shim.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        #[cfg(any(debug_assertions, lock_audit))]
        audit::check(self.acq);
        #[cfg(model_check)]
        let in_model = crate::model::in_session();
        #[cfg(model_check)]
        if in_model {
            // Model admission first: the scheduler grants exclusivity,
            // so the real lock below is uncontended by construction.
            crate::model::lock_acquire(&self.model, true, "TrackedMutex");
        }
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedMutexGuard {
            #[cfg(any(debug_assertions, lock_audit))]
            acq: self.acq,
            #[cfg(any(debug_assertions, lock_audit))]
            token: audit::register(self.acq),
            #[cfg(model_check)]
            lock: self,
            #[cfg(model_check)]
            in_model,
            inner: Some(inner),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // raw try_lock: Debug must never trip the order check
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("TrackedMutex").field("data", &&*g).finish(),
            Err(std::sync::TryLockError::Poisoned(p)) => f
                .debug_struct("TrackedMutex")
                .field("data", &&*p.into_inner())
                .finish(),
            Err(std::sync::TryLockError::WouldBlock) => f.write_str("TrackedMutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

#[cfg(any(debug_assertions, lock_audit, model_check))]
impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, lock_audit))]
        audit::unregister(self.token);
        // Model release precedes the real unlock (the `inner` field
        // drops after this body), which is safe: no other virtual
        // thread can be scheduled between here and the field drop.
        #[cfg(model_check)]
        if self.in_model {
            crate::model::lock_release(&self.lock.model, true);
        }
    }
}

/// A condition variable usable with [`TrackedMutexGuard`], mirroring
/// `parking_lot::Condvar`'s `wait(&mut guard)` shape over `std::sync`.
pub struct Condvar {
    inner: std::sync::Condvar,
    #[cfg(model_check)]
    model: crate::model::ModelSlot,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
            #[cfg(model_check)]
            model: crate::model::ModelSlot::new(),
        }
    }

    /// Atomically release the guard's lock, block until notified, and
    /// reacquire. The tracked rank is unregistered for the duration of
    /// the wait and re-checked on reacquisition.
    ///
    /// The reacquisition check alone would leave a hole: a rank
    /// inversion between the guard's rank and a lock still held during
    /// the wait would only be reported *after* the wake — i.e. after the
    /// system already parked inside the inversion and possibly
    /// deadlocked. So the same check also runs at wait *entry*, before
    /// parking, where it fails fast.
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        #[cfg(any(debug_assertions, lock_audit))]
        {
            audit::unregister(guard.token);
            // Wait-entry check: reacquiring this rank on wake must not
            // invert with anything the thread keeps holding.
            audit::check(guard.acq);
        }
        let inner = guard.inner.take().expect("guard holds the lock");
        #[cfg(model_check)]
        if guard.in_model && crate::model::in_session() {
            drop(inner);
            crate::model::condvar_wait(&self.model, &guard.lock.model, "Condvar");
            let reacquired = guard
                .lock
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(reacquired);
        } else {
            let inner = self
                .inner
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(inner);
        }
        #[cfg(not(model_check))]
        {
            let inner = self
                .inner
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(inner);
        }
        #[cfg(any(debug_assertions, lock_audit))]
        {
            audit::check(guard.acq);
            guard.token = audit::register(guard.acq);
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        #[cfg(model_check)]
        if crate::model::in_session() {
            crate::model::condvar_notify(&self.model);
            return;
        }
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

/// A [`std::sync::RwLock`] that participates in lock-order
/// auditing. Shard locks are built with [`TrackedRwLock::with_index`]
/// so same-rank acquisitions can be checked for ascending index order.
pub struct TrackedRwLock<T: ?Sized> {
    #[cfg(any(debug_assertions, lock_audit))]
    acq: Acq,
    #[cfg(model_check)]
    model: crate::model::ModelSlot,
    inner: std::sync::RwLock<T>,
}

/// RAII guard returned by [`TrackedRwLock::read`].
pub struct TrackedRwLockReadGuard<'a, T: ?Sized> {
    #[cfg(any(debug_assertions, lock_audit))]
    token: u64,
    #[cfg(model_check)]
    lock: &'a TrackedRwLock<T>,
    #[cfg(model_check)]
    in_model: bool,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII guard returned by [`TrackedRwLock::write`].
pub struct TrackedRwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(any(debug_assertions, lock_audit))]
    token: u64,
    #[cfg(model_check)]
    lock: &'a TrackedRwLock<T>,
    #[cfg(model_check)]
    in_model: bool,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> TrackedRwLock<T> {
    /// Create a tracked reader-writer lock of rank `rank`.
    pub const fn new(rank: LockRank, value: T) -> TrackedRwLock<T> {
        TrackedRwLock::with_index(rank, 0, value)
    }

    /// Create a tracked lock carrying a same-rank ordering `index`
    /// (shard number). Same-rank [`LockRank::Shard`] acquisitions must
    /// be strictly ascending in this index.
    #[cfg_attr(not(any(debug_assertions, lock_audit)), allow(unused_variables))]
    pub const fn with_index(rank: LockRank, index: usize, value: T) -> TrackedRwLock<T> {
        TrackedRwLock {
            #[cfg(any(debug_assertions, lock_audit))]
            acq: Acq { rank, index },
            #[cfg(model_check)]
            model: crate::model::ModelSlot::new(),
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    /// Acquire shared read access, panicking on a rank inversion in
    /// audited builds. Poisoning is ignored.
    pub fn read(&self) -> TrackedRwLockReadGuard<'_, T> {
        #[cfg(any(debug_assertions, lock_audit))]
        audit::check(self.acq);
        #[cfg(model_check)]
        let in_model = crate::model::in_session();
        #[cfg(model_check)]
        if in_model {
            crate::model::lock_acquire(&self.model, false, "TrackedRwLock");
        }
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        TrackedRwLockReadGuard {
            #[cfg(any(debug_assertions, lock_audit))]
            token: audit::register(self.acq),
            #[cfg(model_check)]
            lock: self,
            #[cfg(model_check)]
            in_model,
            inner,
        }
    }

    /// Acquire exclusive write access, panicking on a rank inversion in
    /// audited builds. Poisoning is ignored.
    pub fn write(&self) -> TrackedRwLockWriteGuard<'_, T> {
        #[cfg(any(debug_assertions, lock_audit))]
        audit::check(self.acq);
        #[cfg(model_check)]
        let in_model = crate::model::in_session();
        #[cfg(model_check)]
        if in_model {
            crate::model::lock_acquire(&self.model, true, "TrackedRwLock");
        }
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        TrackedRwLockWriteGuard {
            #[cfg(any(debug_assertions, lock_audit))]
            token: audit::register(self.acq),
            #[cfg(model_check)]
            lock: self,
            #[cfg(model_check)]
            in_model,
            inner,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TrackedRwLock { .. }")
    }
}

impl<T: ?Sized> Deref for TrackedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(any(debug_assertions, lock_audit, model_check))]
impl<T: ?Sized> Drop for TrackedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, lock_audit))]
        audit::unregister(self.token);
        #[cfg(model_check)]
        if self.in_model {
            crate::model::lock_release(&self.lock.model, false);
        }
    }
}

impl<T: ?Sized> Deref for TrackedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for TrackedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(any(debug_assertions, lock_audit, model_check))]
impl<T: ?Sized> Drop for TrackedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, lock_audit))]
        audit::unregister(self.token);
        #[cfg(model_check)]
        if self.in_model {
            crate::model::lock_release(&self.lock.model, true);
        }
    }
}

/// An `AtomicU64` that participates in the interleaving model checker.
///
/// Outside a model session — always, in builds without
/// `--cfg model_check` — every operation is a direct passthrough to the
/// inner [`std::sync::atomic::AtomicU64`] with the caller's ordering,
/// and the wrapper is layout-identical to the raw atomic (checked
/// below). Inside a session, stores append to a per-atomic history and
/// loads become model choice points that may observe any store not
/// excluded by coherence or happens-before, so an under-synchronized
/// ordering shows up as an observably stale read.
///
/// The engine's sync-carrying atomics (`published`, the group-commit
/// state) live on these wrappers; pure counters stay on the
/// raw std types and are policed by lint rule L6 instead.
pub struct TrackedAtomicU64 {
    inner: std::sync::atomic::AtomicU64,
    #[cfg(model_check)]
    model: crate::model::ModelSlot,
    #[cfg(model_check)]
    name: &'static str,
    #[cfg(model_check)]
    init: u64,
}

impl TrackedAtomicU64 {
    /// Create a new tracked atomic with initial value `v`.
    pub const fn new(v: u64) -> TrackedAtomicU64 {
        TrackedAtomicU64::named("u64", v)
    }

    /// Like [`new`](TrackedAtomicU64::new) with a name for model traces.
    #[cfg_attr(not(model_check), allow(unused_variables))]
    pub const fn named(name: &'static str, v: u64) -> TrackedAtomicU64 {
        TrackedAtomicU64 {
            inner: std::sync::atomic::AtomicU64::new(v),
            #[cfg(model_check)]
            model: crate::model::ModelSlot::new(),
            #[cfg(model_check)]
            name,
            #[cfg(model_check)]
            init: v,
        }
    }

    /// Atomic load with an explicit ordering.
    pub fn load(&self, order: std::sync::atomic::Ordering) -> u64 {
        #[cfg(model_check)]
        if crate::model::in_session() {
            return crate::model::atomic_load(
                &self.model,
                crate::model::MemOrd::from_std(order),
                self.name,
                self.init,
            );
        }
        self.inner.load(order)
    }

    /// Atomic store with an explicit ordering.
    pub fn store(&self, val: u64, order: std::sync::atomic::Ordering) {
        #[cfg(model_check)]
        if crate::model::in_session() {
            crate::model::atomic_store(
                &self.model,
                val,
                crate::model::MemOrd::from_std(order),
                self.name,
                self.init,
            );
            // Keep the real cell in sync for passthrough observers.
            self.inner.store(val, std::sync::atomic::Ordering::SeqCst);
            return;
        }
        self.inner.store(val, order);
    }

    /// Atomic add; returns the previous value. RMWs always observe the
    /// newest store in the model.
    pub fn fetch_add(&self, val: u64, order: std::sync::atomic::Ordering) -> u64 {
        #[cfg(model_check)]
        if crate::model::in_session() {
            let old = crate::model::atomic_rmw(
                &self.model,
                crate::model::MemOrd::from_std(order),
                self.name,
                self.init,
                |x| x.wrapping_add(val),
            );
            self.inner
                .store(old.wrapping_add(val), std::sync::atomic::Ordering::SeqCst);
            return old;
        }
        self.inner.fetch_add(val, order)
    }
}

impl fmt::Debug for TrackedAtomicU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // diagnostic read; deliberately bypasses the model
        write!(
            f,
            "TrackedAtomicU64({})",
            self.inner.load(std::sync::atomic::Ordering::Relaxed)
        )
    }
}

/// Boolean sibling of [`TrackedAtomicU64`]; the model stores 0/1.
pub struct TrackedAtomicBool {
    inner: std::sync::atomic::AtomicBool,
    #[cfg(model_check)]
    model: crate::model::ModelSlot,
    #[cfg(model_check)]
    name: &'static str,
    #[cfg(model_check)]
    init: bool,
}

impl TrackedAtomicBool {
    /// Create a new tracked atomic bool.
    pub const fn new(v: bool) -> TrackedAtomicBool {
        TrackedAtomicBool::named("bool", v)
    }

    /// Like [`new`](TrackedAtomicBool::new) with a model-trace name.
    #[cfg_attr(not(model_check), allow(unused_variables))]
    pub const fn named(name: &'static str, v: bool) -> TrackedAtomicBool {
        TrackedAtomicBool {
            inner: std::sync::atomic::AtomicBool::new(v),
            #[cfg(model_check)]
            model: crate::model::ModelSlot::new(),
            #[cfg(model_check)]
            name,
            #[cfg(model_check)]
            init: v,
        }
    }

    /// Atomic load with an explicit ordering.
    pub fn load(&self, order: std::sync::atomic::Ordering) -> bool {
        #[cfg(model_check)]
        if crate::model::in_session() {
            return crate::model::atomic_load(
                &self.model,
                crate::model::MemOrd::from_std(order),
                self.name,
                u64::from(self.init),
            ) != 0;
        }
        self.inner.load(order)
    }

    /// Atomic store with an explicit ordering.
    pub fn store(&self, val: bool, order: std::sync::atomic::Ordering) {
        #[cfg(model_check)]
        if crate::model::in_session() {
            crate::model::atomic_store(
                &self.model,
                u64::from(val),
                crate::model::MemOrd::from_std(order),
                self.name,
                u64::from(self.init),
            );
            self.inner.store(val, std::sync::atomic::Ordering::SeqCst);
            return;
        }
        self.inner.store(val, order);
    }
}

impl fmt::Debug for TrackedAtomicBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TrackedAtomicBool({})",
            self.inner.load(std::sync::atomic::Ordering::Relaxed)
        )
    }
}

// Zero-cost claim, checked at compile time: without auditing compiled
// in, tracked locks are layout-identical to the untracked std types.
#[cfg(not(any(debug_assertions, lock_audit, model_check)))]
const _: () = {
    use std::mem::{align_of, size_of};
    use std::sync::{Mutex, RwLock};
    assert!(size_of::<TrackedMutex<u64>>() == size_of::<Mutex<u64>>());
    assert!(align_of::<TrackedMutex<u64>>() == align_of::<Mutex<u64>>());
    assert!(size_of::<TrackedRwLock<Vec<u8>>>() == size_of::<RwLock<Vec<u8>>>());
    assert!(align_of::<TrackedRwLock<Vec<u8>>>() == align_of::<RwLock<Vec<u8>>>());
};

// The atomic wrappers carry no audit state, so they are layout-identical
// to the raw std atomics in every build without `--cfg model_check`.
#[cfg(not(model_check))]
const _: () = {
    use std::mem::{align_of, size_of};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    assert!(size_of::<TrackedAtomicU64>() == size_of::<AtomicU64>());
    assert!(align_of::<TrackedAtomicU64>() == align_of::<AtomicU64>());
    assert!(size_of::<TrackedAtomicBool>() == size_of::<AtomicBool>());
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn panics<F: FnOnce() + Send + 'static>(f: F) -> bool {
        thread::spawn(f).join().is_err()
    }

    #[test]
    fn ascending_ranks_are_silent() {
        let a = TrackedMutex::new(LockRank::Commit, ());
        let b = TrackedRwLock::new(LockRank::Catalog, ());
        let c = TrackedMutex::new(LockRank::WalFile, ());
        let _ga = a.lock();
        let _gb = b.read();
        let _gc = c.lock();
    }

    #[test]
    #[cfg(any(debug_assertions, lock_audit))]
    fn rank_inversion_panics() {
        assert!(panics(|| {
            let wal = TrackedMutex::new(LockRank::WalFile, ());
            let commit = TrackedMutex::new(LockRank::Commit, ());
            let _w = wal.lock();
            let _c = commit.lock();
        }));
    }

    #[test]
    #[cfg(any(debug_assertions, lock_audit))]
    fn shard_indexes_must_ascend() {
        assert!(panics(|| {
            let s3 = TrackedRwLock::with_index(LockRank::Shard, 3, ());
            let s1 = TrackedRwLock::with_index(LockRank::Shard, 1, ());
            let _g3 = s3.read();
            let _g1 = s1.read();
        }));
        // same index twice is also an inversion (strictly ascending)
        assert!(panics(|| {
            let a = TrackedRwLock::with_index(LockRank::Shard, 2, ());
            let b = TrackedRwLock::with_index(LockRank::Shard, 2, ());
            let _ga = a.read();
            let _gb = b.read();
        }));
    }

    #[test]
    fn equal_non_shard_ranks_are_allowed() {
        // two engines in one process each have a commit lock
        let a = TrackedMutex::new(LockRank::Commit, ());
        let b = TrackedMutex::new(LockRank::Commit, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    #[cfg(any(debug_assertions, lock_audit))]
    fn released_locks_do_not_linger() {
        let wal = TrackedMutex::new(LockRank::WalFile, ());
        let commit = TrackedMutex::new(LockRank::Commit, ());
        drop(wal.lock());
        let _c = commit.lock(); // fine: wal guard already dropped
        assert_eq!(audit::held_count(), 1);
        drop(_c);
        assert_eq!(audit::held_count(), 0);
    }

    #[test]
    #[cfg(any(debug_assertions, lock_audit))]
    fn out_of_order_guard_drops_unregister_correctly() {
        let a = TrackedMutex::new(LockRank::Commit, 0u32);
        let b = TrackedMutex::new(LockRank::Catalog, 0u32);
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // dropped before gb: remove-by-token must cope
        assert_eq!(audit::held_count(), 1);
        drop(gb);
        assert_eq!(audit::held_count(), 0);
    }

    #[test]
    fn condvar_roundtrip_wakes_and_reacquires() {
        let pair = Arc::new((
            TrackedMutex::new(LockRank::GroupQueue, false),
            Condvar::new(),
        ));
        let pair2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        thread::sleep(std::time::Duration::from_millis(10));
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().expect("waiter thread"));
    }

    #[test]
    #[cfg(any(debug_assertions, lock_audit))]
    fn condvar_wait_releases_the_rank() {
        // While a thread waits on GroupQueue, it must be able to let
        // another thread acquire lower ranks, and on wake the rank is
        // re-registered (acquiring below it afterwards still panics).
        assert!(panics(|| {
            let q = TrackedMutex::new(LockRank::GroupQueue, ());
            let commit = TrackedMutex::new(LockRank::Commit, ());
            let _gq = q.lock();
            let _gc = commit.lock(); // inversion: Commit after GroupQueue
        }));
    }

    #[test]
    #[cfg(any(debug_assertions, lock_audit))]
    fn condvar_wait_entry_reports_hidden_inversion() {
        // Thread holds GroupQueue (guard) then WalFile, and waits on the
        // GroupQueue condvar: the wake-side reacquisition of GroupQueue
        // while still holding WalFile would be a rank inversion. The
        // wait-entry check must report it *before* parking (parking here
        // would hang forever: nobody notifies).
        assert!(panics(|| {
            let q = TrackedMutex::new(LockRank::GroupQueue, ());
            let wal = TrackedMutex::new(LockRank::WalFile, ());
            let cv = Condvar::new();
            let mut gq = q.lock();
            let _gw = wal.lock();
            cv.wait(&mut gq);
        }));
    }

    #[test]
    fn tracked_atomics_pass_through() {
        use std::sync::atomic::Ordering;
        let a = TrackedAtomicU64::new(7);
        assert_eq!(a.load(Ordering::Acquire), 7);
        a.store(9, Ordering::Release);
        assert_eq!(a.fetch_add(1, Ordering::AcqRel), 9);
        assert_eq!(a.load(Ordering::Acquire), 10);
        let b = TrackedAtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));
    }

    #[test]
    #[cfg(not(any(debug_assertions, lock_audit, model_check)))]
    fn release_tracked_locks_are_layout_identical() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<TrackedMutex<[u8; 24]>>(),
            size_of::<std::sync::Mutex<[u8; 24]>>()
        );
        assert_eq!(
            size_of::<TrackedRwLock<[u8; 24]>>(),
            size_of::<std::sync::RwLock<[u8; 24]>>()
        );
    }
}
