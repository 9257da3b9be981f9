//! The interleaving model checker, run over the real engine.
//!
//! Each program drives [`Engine`] and its `Txn` handles through the
//! public API — one shard unless the program needs two, obs off — from
//! virtual threads of `parking_lot::model`, so every tracked lock,
//! condvar and atomic operation inside the engine is a choice point.
//! `explore` enumerates the schedules up to two preemptions, and every
//! program must pass exhaustively. Which engine bug each program
//! catches is the mutation table in DESIGN.md §10.
//!
//! Needs the shim hooks: build with `RUSTFLAGS='--cfg model_check'` (and
//! a separate `CARGO_TARGET_DIR`). Without the cfg this file compiles to
//! nothing, so tier-1 `cargo test` is unaffected.
#![cfg(model_check)]

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::model::{explore, spawn, Config};
use udbms::core::{CollectionSchema, Error, Key, Ts, TxnId, Value};
use udbms::engine::{
    shard_of, Durability, Engine, EngineConfig, FaultPlan, Isolation, Txn, Wal, WalRecord,
};

/// Preemption bound 2, with caps every program stays well inside.
fn suite_config() -> Config {
    Config {
        max_preemptions: 2,
        max_schedules: 40_000,
        max_steps: 20_000,
        prune_states: true,
    }
}

/// Explore `program`; it must pass on every schedule of the bounded space.
fn check(program: impl Fn() + Send + Sync + 'static) {
    let report = explore(suite_config(), program);
    eprintln!("{} schedules, {} pruned", report.schedules, report.pruned);
    report.assert_ok();
    assert!(
        report.exhausted && report.truncated == 0,
        "bounded space not fully enumerated: {report:?}"
    );
}

fn config(durability: Durability) -> EngineConfig {
    EngineConfig::default()
        .with_shards(1)
        .with_obs(false)
        .with_durability(durability)
}

fn with_kv(engine: Engine) -> Engine {
    engine
        .create_collection(CollectionSchema::key_value("kv"))
        .expect("create kv");
    engine
}

fn memory_engine() -> Engine {
    with_kv(Engine::with_config(config(Durability::default())))
}

/// Commit `key = value` in a transaction of its own.
fn put(engine: &Engine, key: i64, value: i64) -> udbms::Result<Ts> {
    let mut txn = engine.begin(Isolation::Snapshot);
    txn.put("kv", Key::int(key), Value::Int(value))?;
    txn.commit()
}

fn get(txn: &mut Txn, key: i64) -> Option<Value> {
    txn.get("kv", &Key::int(key)).expect("read kv")
}

/// Read `key`, then commit `key = value`: a read-modify-write, so the
/// commit prunes the version it read.
fn rewrite(engine: &Engine, key: i64, value: i64) -> udbms::Result<Ts> {
    let mut txn = engine.begin(Isolation::Snapshot);
    get(&mut txn, key);
    txn.put("kv", Key::int(key), Value::Int(value))?;
    txn.commit()
}

/// A WAL file of one schedule's own, removed when the schedule ends —
/// also when it unwinds, perhaps with a checkpoint's `<log>.tmp` beside it.
struct TempWal(PathBuf);

impl TempWal {
    fn new() -> TempWal {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("udbms-model-check-{}-{n}.log", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        TempWal(path)
    }

    fn open(&self, durability: Durability, faults: Arc<FaultPlan>) -> Engine {
        Engine::with_wal_faults(&self.0, config(durability), faults).expect("open the wal")
    }

    /// Commit timestamps of the records in the file, in file order.
    fn records(&self) -> Vec<Ts> {
        let records = Wal::read_all(&self.0).expect("read the wal");
        records.iter().map(|r| r.commit_ts).collect()
    }

    /// A checkpoint's synthetic frames (transaction 0), in file order.
    fn synthetic_frames(&self) -> Vec<WalRecord> {
        let records = Wal::read_all(&self.0).expect("read the wal");
        records.into_iter().filter(|r| r.txn == TxnId(0)).collect()
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

/// Two writers each commit two keys, then read their own key through the
/// read lane; meanwhile a reader opens two read-lane snapshots. No
/// snapshot holds half a commit, none goes backwards, and a commit that
/// returned is visible.
#[test]
fn published_read_lane() {
    check(|| {
        let engine = memory_engine();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let engine = engine.clone();
                spawn(&format!("writer{w}"), move || {
                    let mut txn = engine.begin(Isolation::Snapshot);
                    for key in [w, w + 2] {
                        txn.put("kv", Key::int(key), Value::Int(1)).expect("put");
                    }
                    txn.commit().expect("disjoint writers never conflict");
                    let mut lane = engine.begin_read();
                    assert!(
                        get(&mut lane, w).is_some(),
                        "own commit invisible after it returned"
                    );
                })
            })
            .collect();
        let mut before = [false; 4];
        for _ in 0..2 {
            let mut lane = engine.begin_read();
            let seen = [0, 1, 2, 3].map(|key| get(&mut lane, key).is_some());
            assert!(
                seen[0] == seen[2] && seen[1] == seen[3],
                "half-installed commit visible: {seen:?}"
            );
            assert!(
                before.iter().zip(&seen).all(|(was, is)| !was || *is),
                "snapshot went backwards: {before:?} then {seen:?}"
            );
            before = seen;
        }
        for writer in writers {
            writer.join();
        }
    });
}

/// Two committers at `durability`: each finds its record in the file when
/// `commit` returns, and the file ends with exactly both, in
/// `commit_ts` order.
fn group_commit(durability: Durability) {
    check(move || {
        let wal = Arc::new(TempWal::new());
        let engine = with_kv(wal.open(durability, Arc::new(FaultPlan::none())));
        let committers: Vec<_> = (0..2)
            .map(|i| {
                let (engine, wal) = (engine.clone(), Arc::clone(&wal));
                spawn(&format!("committer{i}"), move || {
                    let ts = put(&engine, i, 1).expect("commit");
                    assert!(
                        wal.records().contains(&ts),
                        "record {ts:?} not in the file when its commit returned"
                    );
                })
            })
            .collect();
        for committer in committers {
            committer.join();
        }
        let records = wal.records();
        assert!(
            records.len() == 2 && records[0] < records[1],
            "log out of commit order: {records:?}"
        );
    });
}

#[test]
fn group_commit_at_flush() {
    group_commit(Durability::Flush);
}

#[test]
fn group_commit_at_fsync() {
    group_commit(Durability::Fsync);
}

/// Two committers at `Buffered`, each draining its own record in place:
/// once both have returned and the engine has dropped (flushing the
/// write buffer), the file holds exactly both records, in `commit_ts`
/// order.
#[test]
fn group_commit_at_buffered() {
    check(|| {
        let wal = TempWal::new();
        let engine = with_kv(wal.open(Durability::Buffered, Arc::new(FaultPlan::none())));
        let committers: Vec<_> = (0..2)
            .map(|i| {
                let engine = engine.clone();
                spawn(&format!("committer{i}"), move || {
                    put(&engine, i, 1).expect("commit");
                })
            })
            .collect();
        for committer in committers {
            committer.join();
        }
        drop(engine);
        let records = wal.records();
        assert!(
            records.len() == 2 && records[0] < records[1],
            "log out of commit order: {records:?}"
        );
    });
}

/// A checkpoint racing a commit at Fsync: reopened afterwards, the log
/// still holds the commit.
#[test]
fn checkpoint_vs_commit() {
    check(|| {
        let wal = TempWal::new();
        let engine = with_kv(wal.open(Durability::Fsync, Arc::new(FaultPlan::none())));
        let committer = {
            let engine = engine.clone();
            spawn("committer", move || {
                put(&engine, 1, 1).expect("commit");
            })
        };
        let checkpointer = {
            let engine = engine.clone();
            spawn("checkpointer", move || {
                engine.checkpoint().expect("checkpoint")
            })
        };
        committer.join();
        checkpointer.join();
        drop(engine);
        let reopened = wal.open(Durability::Fsync, Arc::new(FaultPlan::none()));
        let mut lane = reopened.begin_read();
        assert_eq!(
            get(&mut lane, 1),
            Some(Value::Int(1)),
            "checkpoint lost a commit"
        );
    });
}

/// A checkpointer races a writer that reads key 0 and rewrites it twice,
/// each commit pruning what it read. Key 0 holds `ts` from commit `ts`
/// on, and the synthetic frames hold it at the value live at their
/// snapshot: the walk read at a snapshot no commit pruned below.
#[test]
fn checkpoint_keeps_its_snapshot() {
    check(|| {
        let wal = TempWal::new();
        let engine = with_kv(wal.open(Durability::Flush, Arc::new(FaultPlan::none())));
        assert_eq!(put(&engine, 0, 1).expect("seed"), Ts(1));
        let writer = {
            let engine = engine.clone();
            spawn("writer", move || {
                for value in [2, 3] {
                    let ts = rewrite(&engine, 0, value).expect("no rival writer");
                    assert_eq!(ts, Ts(value as u64));
                }
            })
        };
        let checkpointer = {
            let engine = engine.clone();
            spawn("checkpointer", move || {
                engine.checkpoint().expect("checkpoint")
            })
        };
        writer.join();
        checkpointer.join();
        let frames = wal.synthetic_frames();
        let snapshot = frames
            .first()
            .expect("the checkpoint wrote its state")
            .commit_ts;
        let rows: Vec<_> = frames.iter().flat_map(|r| &r.writes).collect();
        let want = (
            "kv".to_string(),
            Key::int(0),
            Some(Value::Int(snapshot.0 as i64)),
        );
        assert_eq!(
            rows,
            [&want],
            "the checkpoint at {snapshot:?} lost key 0's version"
        );
    });
}

/// Every fsync fails: both committers get `Error::Unavailable` — no
/// durability ack, no hang — whichever of them leads the failed drain.
#[test]
fn poison_reaches_every_committer() {
    check(|| {
        let faults = Arc::new(FaultPlan::none());
        faults.fail_sticky("sync");
        let wal = TempWal::new();
        let engine = with_kv(wal.open(Durability::Fsync, faults));
        let committers: Vec<_> = (0..2)
            .map(|i| {
                let engine = engine.clone();
                spawn(&format!("committer{i}"), move || {
                    let outcome = put(&engine, i, 1);
                    assert!(
                        matches!(outcome, Err(Error::Unavailable(_))),
                        "commit on a failed log answered {outcome:?}"
                    );
                })
            })
            .collect();
        for committer in committers {
            committer.join();
        }
    });
}

/// One writer reads a version and supersedes it — its commit prunes what
/// it read — while `gc` runs and two readers open, one through
/// `begin_read`, one through `begin`. Each reader still finds the
/// version its snapshot needs.
#[test]
fn gc_keeps_what_snapshots_read() {
    check(|| {
        let engine = memory_engine();
        put(&engine, 0, 1).expect("seed");
        let mut threads = Vec::new();
        let writer = engine.clone();
        threads.push(spawn("writer", move || {
            rewrite(&writer, 0, 2).expect("no rival writer");
        }));
        let gc = engine.clone();
        threads.push(spawn("gc", move || {
            gc.gc();
        }));
        for lane in [true, false] {
            let engine = engine.clone();
            let name = if lane { "begin_read" } else { "begin" };
            threads.push(spawn(name, move || {
                let mut txn = if lane {
                    engine.begin_read()
                } else {
                    engine.begin(Isolation::Snapshot)
                };
                assert!(
                    get(&mut txn, 0).is_some(),
                    "snapshot lost its version to gc"
                );
            }));
        }
        for thread in threads {
            thread.join();
        }
    });
}

/// Two writers each read key 0 and rewrite it — one after the other, or
/// racing, when one of them loses the conflict — while a `begin_read`
/// reader opens: however a commit's prune interleaves with the other
/// commit and the reader's registration, the reader finds key 0.
#[test]
fn prunes_keep_what_snapshots_read() {
    check(|| {
        let engine = memory_engine();
        put(&engine, 0, 1).expect("seed");
        let mut threads: Vec<_> = (0..2)
            .map(|w| {
                let engine = engine.clone();
                spawn(&format!("writer{w}"), move || {
                    if let Err(e) = rewrite(&engine, 0, 2 + w) {
                        assert!(e.is_retryable(), "rewrite failed: {e}");
                    }
                })
            })
            .collect();
        threads.push(spawn("reader", move || {
            let mut lane = engine.begin_read();
            assert!(
                get(&mut lane, 0).is_some(),
                "snapshot lost its version to a prune"
            );
        }));
        for thread in threads {
            thread.join();
        }
    });
}

/// A reader walks the collection through `for_each_row` — every shard's
/// guard held at once — while a writer commits two keys that live on
/// different shards of two, taking one shard's guard at a time. Every
/// schedule finishes, and the walk holds both keys or neither.
#[test]
fn scan_vs_commit() {
    // key 0 and the first key on the other shard
    let first = shard_of(&Key::int(0), 2);
    let other = (1..)
        .find(|&k| shard_of(&Key::int(k), 2) != first)
        .expect("both shards own a key");
    let keys = [0, other];
    check(move || {
        let engine = with_kv(Engine::with_config(
            config(Durability::default()).with_shards(2),
        ));
        let writer = {
            let engine = engine.clone();
            spawn("writer", move || {
                let mut txn = engine.begin(Isolation::Snapshot);
                for key in keys {
                    txn.put("kv", Key::int(key), Value::Int(1)).expect("put");
                }
                txn.commit().expect("no rival writer");
            })
        };
        let mut lane = engine.begin_read();
        let mut seen = 0;
        let walked = lane.for_each_row("kv", None, |_| {
            seen += 1;
            ControlFlow::<()>::Continue(())
        });
        assert!(walked.is_ok(), "walk failed: {walked:?}");
        assert!(seen != 1, "the walk holds half of a commit");
        writer.join();
    });
}
