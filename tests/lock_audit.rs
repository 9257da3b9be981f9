//! End-to-end tests for the lock-order invariant, which the
//! tracked-lock runtime audit checks on every acquisition (debug builds
//! and release builds with `--cfg lock_audit`): a seeded rank inversion
//! (a WAL-file lock held while the commit lock is taken) panics, and a
//! property test drives randomized concurrent interleavings of writers,
//! DDL, graph/XML adapters, a checkpoint/gc thread and read lanes
//! through the real engine to show the tracker raises no false
//! positives on legitimate schedules. The tracker sees only what runs,
//! so `udbms-lint`'s `every_entry_point_runs_under_the_lock_tracker`
//! fails when a `pub fn` of `Engine` or `Txn` is not called here.

#[cfg(any(debug_assertions, lock_audit))]
use parking_lot::TrackedMutex;
use parking_lot::{LockRank, TrackedRwLock};
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;
use udbms::engine::{Engine, EngineConfig, FaultPlan, Isolation};
use udbms_core::{obj, CollectionSchema, Direction, FieldPath, IndexKind, Key, Predicate, Value};

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

/// The seeded inversion at runtime: acquiring a Commit-ranked lock while
/// a WalFile-ranked lock is held must panic under the tracker (on in
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

    /// Randomized concurrent interleavings of writers, a DDL thread, a
    /// graph/XML adapter thread, a checkpoint/gc thread and read lanes
    /// against a real WAL-backed engine complete with the tracker
    /// enabled, and so do the reopen and replay paths afterwards: every
    /// lock the engine takes respects the rank table, so no schedule
    /// may trip the audit.
    #[test]
    fn concurrent_interleavings_raise_no_false_positives(
        shards in 1usize..5,
        commits_per_writer in 3usize..12,
        reads in 2usize..8,
        case in 0u32..10_000,
    ) {
        let path = temp_wal(&format!("prop-{case}-{shards}"));
        let config = EngineConfig { shards, ..EngineConfig::default() };
        let engine = Engine::with_wal_config(&path, config).unwrap();
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        engine
            .create_collection(CollectionSchema::document("docs", "id", vec![]))
            .unwrap();
        engine.create_collection(CollectionSchema::xml("xml")).unwrap();
        engine.create_graph("g").unwrap();
        std::thread::scope(|scope| {
            for writer in 0..2i64 {
                let engine = &engine;
                scope.spawn(move || {
                    // one record per writer, read and rewritten by every
                    // commit after the first (so each commit prunes it)
                    let own = Key::int(-writer - 1);
                    let doc = obj! {"w" => writer};
                    for i in 0..commits_per_writer as i64 {
                        engine
                            .run(Isolation::Snapshot, |t| {
                                t.put("ns", Key::int(writer * 1000 + i), Value::Int(i))?;
                                let k = t.insert("docs", doc.clone())?;
                                let ks = t.insert_many("docs", vec![doc.clone(); 2])?;
                                t.update("docs", &k, obj! {"w" => writer, "i" => i})?;
                                t.delete("docs", &k)?;
                                t.delete_many("docs", &ks)?;
                                match i {
                                    0 => t.put_many("docs", vec![(own.clone(), doc.clone())]),
                                    _ => t.merge("docs", &own, obj! {"i" => i}),
                                }
                            })
                            .unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for round in 0..3 {
                    let name = format!("ddl{round}");
                    let path = FieldPath::key("w");
                    engine
                        .create_collection(CollectionSchema::document(&name, "id", vec![]))
                        .unwrap();
                    engine.create_index(&name, path.clone(), IndexKind::Hash).unwrap();
                    let schema = engine.schema_of(&name).unwrap();
                    engine.set_schema(&name, schema).unwrap();
                    assert!(engine.collection_names().contains(&name));
                    engine.drop_index(&name, &path).unwrap();
                    engine.drop_collection(&name).unwrap();
                    engine.create_graph(&format!("ddl_graph{round}")).unwrap();
                }
            });
            scope.spawn(|| {
                for i in 0..3i64 {
                    let (a, b) = (Key::int(2 * i), Key::int(2 * i + 1));
                    engine
                        .run(Isolation::Snapshot, |t| {
                            t.add_vertex("g", a.clone(), "person", Value::Null)?;
                            t.add_vertex("g", b.clone(), "person", Value::Null)?;
                            t.add_edge("g", &a, &b, "knows", Value::Null)?;
                            assert!(t.vertex("g", &a)?.is_some());
                            let out = t.neighbors("g", &a, Direction::Out, Some("knows"))?;
                            assert_eq!(out, std::slice::from_ref(&b));
                            t.put_xml("xml", a.clone(), "<a><b>1</b></a>")?;
                            assert!(t.get_xml("xml", &a)?.is_some());
                            t.xpath("xml", &a, "/a/b").map(drop)
                        })
                        .unwrap();
                }
            });
            scope.spawn(|| {
                for _ in 0..3 {
                    engine.checkpoint().unwrap();
                    engine.gc();
                    assert_eq!(engine.stats().shards, engine.shard_count());
                    engine.obs_snapshot();
                    engine.obs().counter("wal_records").get();
                }
            });
            scope.spawn(|| {
                let mine = Predicate::eq("w", Value::Int(0));
                for _ in 0..reads {
                    let mut lane = engine.begin_read();
                    assert!(lane.id().is_some() && lane.snapshot().is_some());
                    let _ = lane.scan_shared("ns");
                    let _ = lane.get("ns", &Key::int(0));
                    let _ = lane.get_shared("ns", &Key::int(1000));
                    let _ = lane.rows("docs", Some(&mine), Some(2));
                    let _ = lane.for_each_row("ns", None, |_| ControlFlow::<()>::Continue(()));
                    lane.commit().unwrap();
                    engine.begin(Isolation::Serializable).abort();
                }
            });
        });
        // every commit survived the interleaving
        let mut t = engine.begin(Isolation::Snapshot);
        prop_assert_eq!(t.scan_shared("ns").unwrap().len(), 2 * commits_per_writer);
        drop(t);
        drop(engine);
        // ... and the log: reopened, reopened with an unarmed fault plan,
        // and replayed into fresh engines
        let rows = |engine: &Engine| engine.begin_read().scan_shared("ns").unwrap().len();
        prop_assert_eq!(rows(&Engine::with_wal(&path).unwrap()), 2 * commits_per_writer);
        let faulted = Engine::with_wal_faults(&path, config, Arc::new(FaultPlan::none())).unwrap();
        prop_assert_eq!(rows(&faulted), 2 * commits_per_writer);
        drop(faulted);
        for fresh in [Engine::with_shards(shards), Engine::with_config(config)] {
            fresh.replay_wal(&path).unwrap();
            prop_assert_eq!(rows(&fresh), 2 * commits_per_writer);
        }
        let _ = std::fs::remove_file(&path);
    }
}
