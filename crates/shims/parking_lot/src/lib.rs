#![warn(missing_docs)]

//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the `parking_lot` API it actually uses —
//! [`Mutex`] with its guard, and [`Condvar`] — as thin wrappers over
//! `std::sync`. Semantics match `parking_lot` where they
//! differ from std: locking never returns a poison error (a panic while
//! holding a lock simply releases it for the next owner).
//!
//! Beyond the upstream API, the [`tracked`] module adds rank-aware
//! [`TrackedMutex`]/[`TrackedRwLock`] wrappers that audit the engine's
//! documented lock order under `debug_assertions` or
//! `RUSTFLAGS=--cfg lock_audit` (see DESIGN.md, "Invariants & static
//! analysis"), plus `TrackedAtomic{U64,Bool}` wrappers for the
//! engine's sync-carrying atomics. The [`model`] module is a
//! deterministic interleaving model checker: under
//! `RUSTFLAGS=--cfg model_check` every tracked primitive routes through
//! its cooperative scheduler so the engine's lock-free protocols can be
//! exhaustively explored and failing schedules replayed.

use std::ops::{Deref, DerefMut};

pub mod model;
pub mod tracked;

pub use tracked::{
    Condvar, LockRank, TrackedAtomicBool, TrackedAtomicU64, TrackedMutex, TrackedMutexGuard,
    TrackedRwLock, TrackedRwLockReadGuard, TrackedRwLockWriteGuard,
};

/// A mutual-exclusion lock with `parking_lot`'s panic-free API.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available. Unlike
    /// `std::sync::Mutex`, never fails: poisoning is ignored.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn poisoning_is_ignored() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        *m.lock() += 1; // must not panic
        assert_eq!(*m.lock(), 1);
    }
}
