//! Sharded-storage correctness, end to end through the public engine
//! API: cross-shard transactional atomicity under concurrent scans, WAL
//! replay independence from the shard count, and property-based
//! equivalence between sharded and single-shard engines.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use udbms_core::{obj, CollectionSchema, FieldPath, IndexKind, Key, Predicate, Value};
use udbms_engine::{shard_of, Engine, Isolation};

/// Keys guaranteed to live in different shards of an 8-shard engine.
fn keys_on_distinct_shards(n: usize) -> Vec<Key> {
    let mut picked: Vec<Key> = Vec::new();
    let mut used = std::collections::HashSet::new();
    for i in 0.. {
        let key = Key::int(i);
        if used.insert(shard_of(&key, 8)) {
            picked.push(key);
            if picked.len() == n {
                break;
            }
        }
        assert!(i < 10_000, "could not find {n} distinct shards");
    }
    picked
}

/// A transaction that writes N keys spread across shards must be
/// observed all-or-nothing by concurrent snapshot scans and reads —
/// per-shard locking must not tear the commit.
#[test]
fn concurrent_multi_shard_puts_are_atomic_under_scan() {
    let engine = Engine::with_shards(8);
    engine
        .create_collection(CollectionSchema::key_value("pairs"))
        .unwrap();
    let keys = keys_on_distinct_shards(4);
    // seed round 0
    engine
        .run(Isolation::Snapshot, |t| {
            t.put_many(
                "pairs",
                keys.iter().map(|k| (k.clone(), Value::Int(0))).collect(),
            )
        })
        .unwrap();

    const ROUNDS: i64 = 300;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // one writer bumps every key to the same round in one commit
        let writer_keys = keys.clone();
        let writer_engine = engine.clone();
        let writer_done = &done;
        scope.spawn(move || {
            for round in 1..=ROUNDS {
                writer_engine
                    .run(Isolation::Snapshot, |t| {
                        t.put_many(
                            "pairs",
                            writer_keys
                                .iter()
                                .map(|k| (k.clone(), Value::Int(round)))
                                .collect(),
                        )
                    })
                    .unwrap();
            }
            writer_done.store(true, Ordering::SeqCst);
        });
        // readers: snapshot scans and grouped point reads must always
        // observe one consistent round across all shards
        for reader in 0..3 {
            let engine = engine.clone();
            let keys = keys.clone();
            let done = &done;
            scope.spawn(move || {
                let mut observed = 0i64;
                while !done.load(Ordering::SeqCst) {
                    let mut t = engine.begin(Isolation::Snapshot);
                    let scanned = t.scan_shared("pairs").unwrap();
                    assert_eq!(scanned.len(), keys.len(), "reader {reader}");
                    let rounds: Vec<i64> =
                        scanned.iter().map(|(_, v)| v.as_int().unwrap()).collect();
                    assert!(
                        rounds.windows(2).all(|w| w[0] == w[1]),
                        "torn scan in reader {reader}: {rounds:?}"
                    );
                    // point reads in the same snapshot agree with the scan
                    for k in &keys {
                        assert_eq!(
                            t.get("pairs", k).unwrap().unwrap().as_int().unwrap(),
                            rounds[0],
                            "point read diverged from scan in reader {reader}"
                        );
                    }
                    assert!(
                        rounds[0] >= observed,
                        "rounds went backwards in reader {reader}"
                    );
                    observed = rounds[0];
                }
            });
        }
    });
    // final state is the last round everywhere
    let mut t = engine.begin(Isolation::Snapshot);
    for k in &keys {
        assert_eq!(t.get("pairs", k).unwrap(), Some(Value::Int(ROUNDS)));
    }
}

/// Concurrent writers hitting disjoint keys on every shard: no commit
/// may be lost and the merged scan must see exactly the final state.
#[test]
fn concurrent_disjoint_writers_across_shards_all_land() {
    let engine = Engine::with_shards(8);
    engine
        .create_collection(CollectionSchema::key_value("grid"))
        .unwrap();
    const WRITERS: i64 = 4;
    const PER_WRITER: i64 = 100;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let engine = engine.clone();
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    let k = w * PER_WRITER + i;
                    engine
                        .run(Isolation::Snapshot, |t| {
                            t.put("grid", Key::int(k), Value::Int(k * 2))
                        })
                        .unwrap();
                }
            });
        }
    });
    let mut t = engine.begin(Isolation::Snapshot);
    let rows = t.scan_shared("grid").unwrap();
    assert_eq!(rows.len(), (WRITERS * PER_WRITER) as usize);
    for (k, v) in rows {
        assert_eq!(v.as_int().unwrap(), k.value().as_int().unwrap() * 2);
    }
    assert_eq!(
        engine.stats().ww_conflicts,
        0,
        "disjoint keys never conflict"
    );
}

/// The WAL records no shard placement, so a log written at one shard
/// count must recover bit-identically at any other.
#[test]
fn wal_replay_is_shard_count_independent() {
    let mut path = std::env::temp_dir();
    path.push(format!("udbms-shard-wal-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let expected: BTreeMap<Key, Arc<Value>> = {
        let engine = Engine::with_wal_config(
            &path,
            udbms_engine::EngineConfig {
                shards: 8,
                ..Default::default()
            },
        )
        .unwrap();
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        engine
            .run(Isolation::Snapshot, |t| {
                t.put_many(
                    "ns",
                    (0..200)
                        .map(|i| (Key::int(i), obj! {"n" => i, "g" => i % 7}))
                        .collect(),
                )
            })
            .unwrap();
        engine
            .run(Isolation::Snapshot, |t| {
                t.delete_many("ns", &(0..200).step_by(3).map(Key::int).collect::<Vec<_>>())
                    .map(|_| ())
            })
            .unwrap();
        let mut t = engine.begin(Isolation::Snapshot);
        t.scan_shared("ns").unwrap().into_iter().collect()
    };
    assert!(!expected.is_empty());

    for shards in [1usize, 3, 8, 16] {
        let engine = Engine::with_wal_config(
            &path,
            udbms_engine::EngineConfig {
                shards,
                ..Default::default()
            },
        )
        .unwrap();
        let mut t = engine.begin(Isolation::Snapshot);
        let recovered: BTreeMap<Key, Arc<Value>> =
            t.scan_shared("ns").unwrap().into_iter().collect();
        assert_eq!(recovered, expected, "replay at {shards} shard(s) diverged");
        assert_eq!(engine.stats().shards, shards);
    }

    // checkpoint compacts at one shard count; recovery at another agrees
    {
        let engine = Engine::with_wal_config(
            &path,
            udbms_engine::EngineConfig {
                shards: 5,
                ..Default::default()
            },
        )
        .unwrap();
        engine.checkpoint().unwrap();
    }
    let engine = Engine::with_wal_config(
        &path,
        udbms_engine::EngineConfig {
            shards: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut t = engine.begin(Isolation::Snapshot);
    let recovered: BTreeMap<Key, Arc<Value>> = t.scan_shared("ns").unwrap().into_iter().collect();
    assert_eq!(recovered, expected, "post-checkpoint recovery diverged");
    drop(t);
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    /// A sharded engine and a single-shard engine loaded with the same
    /// random dataset answer every probe identically: the indexed read,
    /// the oracle (a full scan filtered with `Predicate::matches`, which
    /// shares nothing with the engine's predicate path), and the ordered
    /// scan.
    #[test]
    fn sharded_select_equals_single_shard(
        rows in prop::collection::vec((0i64..64, 0i64..8, -100i64..100), 1..80),
        probe_g in 0i64..8,
    ) {
        let engines = [Engine::with_shards(1), Engine::with_shards(7)];
        for engine in &engines {
            engine
                .create_collection(CollectionSchema::key_value("data"))
                .unwrap();
            engine
                .create_index("data", FieldPath::key("g"), IndexKind::Hash)
                .unwrap();
            engine
                .run(Isolation::Snapshot, |t| {
                    // later duplicates overwrite earlier ones, like a real load
                    for (k, g, n) in &rows {
                        t.put("data", Key::int(*k), obj! {"g" => *g, "n" => *n})?;
                    }
                    Ok(())
                })
                .unwrap();
        }
        let pred = Predicate::eq("g", Value::Int(probe_g));
        let mut results = Vec::new();
        for engine in &engines {
            let mut t = engine.begin(Isolation::Snapshot);
            let via_index = t.rows("data", Some(&pred), None).unwrap();
            let ordered = t.scan_shared("data").unwrap();
            let mut via_scan = ordered.clone();
            via_scan.retain(|(_, row)| pred.matches(row));
            prop_assert_eq!(&via_index, &via_scan, "index vs scan diverged");
            prop_assert!(
                ordered.windows(2).all(|w| w[0].0 < w[1].0),
                "scan not key-ordered"
            );
            results.push((via_index, ordered));
        }
        prop_assert_eq!(&results[0], &results[1], "1-shard vs 7-shard diverged");
    }

    /// Batched writes are equivalent to the same singleton writes.
    #[test]
    fn batched_equals_singleton_writes(
        puts in prop::collection::vec((0i64..32, -50i64..50), 1..40),
        deletes in prop::collection::vec(0i64..32, 0..12),
    ) {
        let batched = Engine::with_shards(8);
        let singleton = Engine::with_shards(8);
        for e in [&batched, &singleton] {
            e.create_collection(CollectionSchema::key_value("kv")).unwrap();
        }
        batched
            .run(Isolation::Snapshot, |t| {
                t.put_many(
                    "kv",
                    puts.iter().map(|(k, v)| (Key::int(*k), Value::Int(*v))).collect(),
                )
            })
            .unwrap();
        singleton
            .run(Isolation::Snapshot, |t| {
                for (k, v) in &puts {
                    t.put("kv", Key::int(*k), Value::Int(*v))?;
                }
                Ok(())
            })
            .unwrap();
        let keys: Vec<Key> = deletes.iter().map(|k| Key::int(*k)).collect();
        let n_batched = batched
            .run(Isolation::Snapshot, |t| t.delete_many("kv", &keys))
            .unwrap();
        let n_singleton = singleton
            .run(Isolation::Snapshot, |t| {
                let mut n = 0usize;
                for k in &keys {
                    if t.delete("kv", k)? {
                        n += 1;
                    }
                }
                Ok(n)
            })
            .unwrap();
        prop_assert_eq!(n_batched, n_singleton);
        let mut tb = batched.begin(Isolation::Snapshot);
        let mut ts = singleton.begin(Isolation::Snapshot);
        prop_assert_eq!(tb.scan_shared("kv").unwrap(), ts.scan_shared("kv").unwrap());
    }
}
