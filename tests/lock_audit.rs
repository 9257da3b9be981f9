//! End-to-end tests for the PR 6 concurrency-correctness tooling: the
//! same seeded rank inversion is caught *statically* by the `udbms-lint`
//! lock-order rule (L1) and *dynamically* by the tracked-lock runtime
//! audit, and a property test drives randomized concurrent
//! commit/checkpoint/read-lane interleavings through the real engine to
//! show the tracker raises no false positives on legitimate schedules.

#[cfg(any(debug_assertions, lock_audit))]
use parking_lot::TrackedMutex;
use parking_lot::{LockRank, TrackedRwLock};
use proptest::prelude::*;
use std::path::PathBuf;
use udbms::engine::{Engine, EngineConfig, Isolation};
use udbms_core::{CollectionSchema, Key, Value};

fn temp_wal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "udbms-lock-audit-{}-{}.wal",
        std::process::id(),
        name
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The seeded inversion: a function that takes the WAL-file lock and
/// then the commit lock — backwards relative to the rank table. The
/// static linter must flag it without running anything.
#[test]
fn seeded_rank_inversion_is_caught_statically() {
    let src = r#"
impl Inner {
    fn seeded_inversion(&self) {
        let wal = self.wal.lock();
        let commit = self.commit_lock.lock();
        drop(commit);
        drop(wal);
    }
}
"#;
    let findings = udbms_lint::lint_source("crates/engine/src/seeded.rs", src);
    let lock_order: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == udbms_lint::Rule::LockOrder)
        .collect();
    assert_eq!(
        lock_order.len(),
        1,
        "exactly the seeded inversion must fire: {findings:?}"
    );
    assert_eq!(lock_order[0].function.as_deref(), Some("seeded_inversion"));
}

/// The same inversion at runtime: acquiring a Commit-ranked lock while a
/// WalFile-ranked lock is held must panic under the tracker (on in
/// debug builds and in release builds compiled with `--cfg lock_audit`).
#[test]
#[cfg(any(debug_assertions, lock_audit))]
fn seeded_rank_inversion_panics_dynamically() {
    let handle = std::thread::spawn(|| {
        let wal = TrackedMutex::new(LockRank::WalFile, ());
        let commit = TrackedMutex::new(LockRank::Commit, ());
        let _w = wal.lock();
        let _c = commit.lock(); // rank 1 after rank 5: inversion
    });
    assert!(
        handle.join().is_err(),
        "the tracked-lock audit must panic on a rank inversion"
    );
}

/// Shard locks share one rank but carry an index; acquiring shard 1
/// while shard 3 is held violates the ascending-index rule and panics.
#[test]
#[cfg(any(debug_assertions, lock_audit))]
fn out_of_order_shard_acquisition_panics() {
    let handle = std::thread::spawn(|| {
        let s1 = TrackedRwLock::with_index(LockRank::Shard, 1, ());
        let s3 = TrackedRwLock::with_index(LockRank::Shard, 3, ());
        let _a = s3.write();
        let _b = s1.read(); // shard 1 after shard 3: out of order
    });
    assert!(
        handle.join().is_err(),
        "the tracked-lock audit must panic on out-of-order shard locks"
    );
}

/// Ascending shard acquisition — the order every real engine path uses —
/// must pass the tracker silently.
#[test]
fn ascending_shard_acquisition_is_clean() {
    let s0 = TrackedRwLock::with_index(LockRank::Shard, 0, 1i64);
    let s2 = TrackedRwLock::with_index(LockRank::Shard, 2, 2i64);
    let a = s0.write();
    let b = s2.read();
    assert_eq!(*a + *b, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized concurrent interleavings of committers, a
    /// checkpoint/gc thread, and read lanes against a real WAL-backed
    /// engine complete with the tracker enabled: every lock the engine
    /// takes respects the rank table, so no schedule may trip the audit.
    #[test]
    fn concurrent_interleavings_raise_no_false_positives(
        shards in 1usize..5,
        commits_per_writer in 3usize..12,
        reads in 2usize..8,
        case in 0u32..10_000,
    ) {
        let path = temp_wal(&format!("prop-{case}-{shards}"));
        let engine = Engine::with_wal_config(
            &path,
            EngineConfig { shards, ..EngineConfig::default() },
        )
        .unwrap();
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        std::thread::scope(|scope| {
            for writer in 0..2i64 {
                let engine = &engine;
                scope.spawn(move || {
                    for i in 0..commits_per_writer as i64 {
                        engine
                            .run(Isolation::Snapshot, |t| {
                                t.put("ns", Key::int(writer * 1000 + i), Value::Int(i))
                            })
                            .unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..3 {
                    engine.checkpoint().unwrap();
                    engine.gc();
                }
            });
            scope.spawn(|| {
                for _ in 0..reads {
                    let mut lane = engine.begin_read();
                    let _ = lane.scan_shared("ns");
                    lane.commit().unwrap();
                }
            });
        });
        // every commit survived the interleaving
        let mut t = engine.begin(Isolation::Snapshot);
        prop_assert_eq!(t.scan_shared("ns").unwrap().len(), 2 * commits_per_writer);
        drop(t);
        drop(engine);
        let _ = std::fs::remove_file(&path);
    }
}
