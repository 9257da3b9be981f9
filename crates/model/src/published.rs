//! Model of the engine's `published` snapshot watermark.
//!
//! Mirrors `Txn::commit` (`crates/engine/src/commit.rs`, `try_commit`)
//! and `Engine::begin_read` (`crates/engine/src/engine.rs`): committers
//! serialize on `commit_lock`, draw a timestamp from `clock`, *install*
//! the version
//! (modeled as the `installed` high-water mark, standing in for the
//! version-chain tips), and only then advance `published` with a
//! `Release` store; lock-free readers `Acquire`-load `published` and
//! must find every version `<= published` already installed.
//!
//! Invariants checked by the reader:
//! 1. `published` is never observable ahead of an uninstalled commit
//!    (`installed >= published` from the reader's point of view);
//! 2. `published` never goes backwards across two reads.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::model::{explore, Config, Report};
use parking_lot::{LockRank, TrackedAtomicU64, TrackedMutex};

/// Which flavor of the protocol to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// The engine's actual ordering: install, then `Release`-publish,
    /// all under `commit_lock`.
    Correct,
    /// Seeded bug: the publish store is `Relaxed`. An `Acquire` reader
    /// can then observe the new watermark without the installed version
    /// — the exact failure L6 exists to prevent.
    RelaxedStore,
    /// Seeded bug: publish happens after `commit_lock` is released. Two
    /// committers can publish out of timestamp order, so the watermark
    /// goes backwards.
    StoreAfterUnlock,
}

/// Build the model program for `variant`.
pub fn program(variant: Variant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let clock = Arc::new(TrackedAtomicU64::named("clock", 0));
        let published = Arc::new(TrackedAtomicU64::named("published", 0));
        let installed = Arc::new(TrackedAtomicU64::named("installed", 0));
        let commit_lock = Arc::new(TrackedMutex::new(LockRank::Commit, ()));

        let mut committers = Vec::new();
        for i in 0..2 {
            let clock = Arc::clone(&clock);
            let published = Arc::clone(&published);
            let installed = Arc::clone(&installed);
            let commit_lock = Arc::clone(&commit_lock);
            committers.push(parking_lot::model::spawn(
                &format!("committer{i}"),
                move || {
                    let guard = commit_lock.lock();
                    // ORDER: AcqRel mirrors commit.rs try_commit — the new ts
                    // must see every prior commit's installs.
                    let ts = clock.fetch_add(1, Ordering::AcqRel) + 1;
                    installed.store(ts, Ordering::Release);
                    match variant {
                        Variant::Correct => {
                            published.store(ts, Ordering::Release);
                            drop(guard);
                        }
                        Variant::RelaxedStore => {
                            published.store(ts, Ordering::Relaxed);
                            drop(guard);
                        }
                        Variant::StoreAfterUnlock => {
                            drop(guard);
                            published.store(ts, Ordering::Release);
                        }
                    }
                },
            ));
        }

        // Lock-free read lane: the reader never touches commit_lock.
        let snap = published.load(Ordering::Acquire);
        let tip = installed.load(Ordering::Acquire);
        assert!(
            tip >= snap,
            "published ({snap}) observable ahead of installed tip ({tip})"
        );
        let snap2 = published.load(Ordering::Acquire);
        assert!(
            snap2 >= snap,
            "published went backwards ({snap} -> {snap2})"
        );

        for h in committers {
            h.join();
        }
        // Quiescent check: everything published must be installed.
        let final_pub = published.load(Ordering::Acquire);
        let final_tip = installed.load(Ordering::Acquire);
        assert!(
            final_tip >= final_pub,
            "final published ({final_pub}) ahead of installed ({final_tip})"
        );
    }
}

/// Explore `variant` under `cfg`.
pub fn check(variant: Variant, cfg: Config) -> Report {
    explore(cfg, program(variant))
}
