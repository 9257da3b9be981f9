//! Crash-safety of WAL recovery, end to end through the public engine
//! API: a log cut at *any* byte offset (a simulated crash mid-append)
//! must recover every fully-logged commit and nothing after the cut,
//! at any storage shard count, and leave the log appendable; a log with
//! *any* byte flipped recovers a prefix that ends before the damage or
//! fails with the damage located — it never replays a wrong record.

use std::path::PathBuf;

use proptest::prelude::*;
use udbms::core::{CollectionSchema, Key, Ts, TxnId, Value};
use udbms::engine::{Durability, Engine, EngineConfig, Isolation, Wal, WalRecord};

fn temp_wal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("udbms-crash-{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        ..EngineConfig::default()
    }
}

/// Write `commits` single-put commits (key i → i) and return the byte
/// offset at which each commit's record ends in the log file.
fn build_log(path: &PathBuf, commits: usize) -> Vec<u64> {
    let engine = Engine::with_wal(path).expect("fresh wal engine");
    engine
        .create_collection(CollectionSchema::key_value("ns"))
        .unwrap();
    // at the default Flush durability a commit's frame is in the file
    // when `run` returns, so the valid prefix then ends with it
    let ends: Vec<u64> = (0..commits)
        .map(|i| {
            engine
                .run(Isolation::Snapshot, |t| {
                    t.put("ns", Key::int(i as i64), Value::Int(i as i64))
                })
                .unwrap();
            Wal::scan(path).unwrap().valid_bytes
        })
        .collect();
    drop(engine);
    let len = std::fs::metadata(path).unwrap().len();
    assert_eq!(
        ends.last(),
        Some(&len),
        "a clean close leaves just the frames"
    );
    ends
}

/// Open an engine on `path`, or say why it would not open.
fn recovered(path: &PathBuf, shards: usize) -> Result<Engine, String> {
    Engine::with_wal_config(path, config(shards)).map_err(|e| e.to_string())
}

/// How many commits survive a cut at `offset`: the records fully inside
/// the prefix — and, when the file is zero-padded past the cut
/// (`log` given), also a record whose cut-off bytes were all zeros,
/// since the padding restores it exactly.
fn expected_commits(ends: &[u64], offset: u64, log: Option<&[u8]>) -> usize {
    let restored = |end: u64| {
        log.is_some_and(|log| log[offset as usize..end as usize].iter().all(|b| *b == 0))
    };
    ends.iter()
        .take_while(|end| **end <= offset || restored(**end))
        .count()
}

#[test]
fn torn_final_line_recovers_all_complete_commits() {
    let path = temp_wal("torn-final");
    let ends = build_log(&path, 20);
    // cut inside the last record: a crash mid-append
    let cut = ends[19] - 7;
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    let engine = Engine::with_wal(&path).expect("torn log must recover, not error");
    let mut t = engine.begin(Isolation::Snapshot);
    for i in 0..19i64 {
        assert_eq!(t.get("ns", &Key::int(i)).unwrap(), Some(Value::Int(i)));
    }
    assert_eq!(
        t.get("ns", &Key::int(19)).unwrap(),
        None,
        "the torn commit never happened"
    );
    drop(t);
    // the file was truncated to a record boundary, so new commits append
    // cleanly and a second recovery sees exactly 19 + 1 records
    engine
        .run(Isolation::Snapshot, |t| {
            t.put("ns", Key::int(100), Value::Int(100))
        })
        .unwrap();
    drop(engine);
    assert_eq!(Wal::read_all(&path).unwrap().len(), 20);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn interior_corruption_still_fails_recovery() {
    let path = temp_wal("interior");
    build_log(&path, 5);
    let mut bytes = std::fs::read(&path).unwrap();
    // clobber the middle of the file, leaving valid records after it
    let mid = bytes.len() / 2;
    bytes[mid] = b'#';
    bytes[mid + 1] = b'#';
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        Engine::with_wal(&path).is_err(),
        "interior corruption is not a torn tail and must surface"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn flipped_length_with_frames_after_it_is_an_error_not_a_truncation() {
    let path = temp_wal("flipped-len");
    let ends = build_log(&path, 5);
    let pristine = std::fs::read(&path).unwrap();
    // record 2's length field starts where record 1 ends
    let len_at = ends[1] as usize;
    for (byte, bit) in [(0, 0), (0, 5), (1, 3), (3, 7)] {
        let mut bytes = pristine.clone();
        bytes[len_at + byte] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        let err = recovered(&path, 4)
            .err()
            .expect("a damaged interior length must fail");
        assert!(
            err.contains("record index 2") && err.contains(&format!("byte offset {len_at}")),
            "{err}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "refused, not truncated"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// Write `bytes` as the log at `path` and expect the engine to refuse
/// it, naming record `index` at byte `offset` and saying `why`, without
/// touching it.
fn refused_at(path: &PathBuf, bytes: &[u8], index: usize, offset: u64, why: &str) {
    std::fs::write(path, bytes).unwrap();
    let err = recovered(path, 4).err().expect("the log must not open");
    assert!(
        err.contains(&format!("record index {index}"))
            && err.contains(&format!("byte offset {offset}"))
            && err.contains(why),
        "{err}"
    );
    assert_eq!(
        std::fs::read(path).unwrap(),
        bytes,
        "refused, not truncated"
    );
}

#[test]
fn a_duplicated_final_frame_is_refused_and_left_unmodified() {
    let path = temp_wal("dup-frame");
    let ends = build_log(&path, 5);
    let log = std::fs::read(&path).unwrap();
    let last = &log[ends[3] as usize..];
    refused_at(
        &path,
        &[&log[..], last].concat(),
        5,
        ends[4],
        "does not follow",
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn swapped_frames_are_refused_and_left_unmodified() {
    let path = temp_wal("swapped");
    let ends = build_log(&path, 5);
    let log = std::fs::read(&path).unwrap();
    let frame = |i: usize| &log[ends[i - 1] as usize..ends[i] as usize];
    // frames 2 and 3 trade places: the walk meets commit 4, then 3
    let swapped = [
        &log[..ends[1] as usize],
        frame(3),
        frame(2),
        &log[ends[3] as usize..],
    ]
    .concat();
    refused_at(
        &path,
        &swapped,
        3,
        ends[1] + frame(3).len() as u64,
        "does not follow",
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_frame_at_the_last_commit_timestamp_is_refused_and_left_unmodified() {
    let path = temp_wal("max-ts");
    let ends = build_log(&path, 5);
    // intact and checksummed, but no commit could ever follow it
    let mut wal = Wal::open(&path).unwrap();
    wal.append(&WalRecord {
        commit_ts: Ts(u64::MAX),
        txn: TxnId(6),
        writes: vec![("ns".into(), Key::int(5), Some(Value::Int(5)))],
    })
    .unwrap();
    wal.flush().unwrap();
    drop(wal);
    let log = std::fs::read(&path).unwrap();
    refused_at(&path, &log, 5, ends[4], "leaves no room");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_checkpointed_log_reopens_with_its_synthetic_run_and_tail() {
    let path = temp_wal("checkpointed");
    let put_both = |engine: &Engine, i: i64| {
        engine
            .run(Isolation::Snapshot, |t| {
                t.put("a", Key::int(i), Value::Int(i))?;
                t.put("b", Key::int(i), Value::Int(i))
            })
            .unwrap();
    };
    {
        let engine = Engine::with_wal(&path).unwrap();
        for name in ["a", "b"] {
            engine
                .create_collection(CollectionSchema::key_value(name))
                .unwrap();
        }
        (0..10).for_each(|i| put_both(&engine, i));
        engine.checkpoint().unwrap();
        (10..15).for_each(|i| put_both(&engine, i));
    }
    // one synthetic frame per collection, both at the snapshot, then
    // the commits after it
    let records = Wal::read_all(&path).unwrap();
    let stamps: Vec<(u64, u64)> = records.iter().map(|r| (r.commit_ts.0, r.txn.0)).collect();
    assert_eq!(&stamps[..2], &[(10, 0), (10, 0)]);
    let tail: Vec<u64> = stamps[2..].iter().map(|(ts, _)| *ts).collect();
    assert_eq!(tail, (11..=15).collect::<Vec<_>>());
    for round in 0..2 {
        let engine = Engine::with_wal(&path).expect("a checkpointed log reopens");
        let mut t = engine.begin(Isolation::Snapshot);
        for name in ["a", "b"] {
            assert_eq!(t.scan_shared(name).unwrap().len(), 15 + round, "{name}");
        }
        drop(t);
        // and takes new commits after its tail
        put_both(&engine, 100 + round as i64);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_json_lines_log_is_refused_and_left_unmodified() {
    let path = temp_wal("json-lines");
    // what the engine logged before the binary format: one JSON line
    // per commit
    let lines = concat!(
        r#"{"ts":1,"txn":1,"writes":[{"coll":"ns","key":0,"value":0}]}"#,
        "\n",
        r#"{"ts":2,"txn":2,"writes":[{"coll":"ns","key":1,"value":null}]}"#,
        "\n",
    );
    std::fs::write(&path, lines).unwrap();
    let err = recovered(&path, 4)
        .err()
        .expect("a foreign log must not open");
    assert!(err.contains("UDBMSWAL"), "{err}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), lines);
    assert!(!path.with_extension("tmp").exists());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn replay_after_truncation_is_shard_count_independent() {
    let path = temp_wal("shards");
    let ends = build_log(&path, 16);
    // cut mid-way through record 11 (10 complete commits survive)
    let cut = (ends[9] + ends[10]) / 2;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(cut)
        .unwrap();

    let mut scans = Vec::new();
    for shards in [1usize, 3, 8] {
        let engine = Engine::with_wal_config(&path, config(shards)).expect("recover");
        let mut t = engine.begin(Isolation::Snapshot);
        scans.push(t.scan_shared("ns").unwrap());
    }
    assert_eq!(scans[0].len(), 10);
    assert_eq!(scans[0], scans[1], "1 vs 3 shards");
    assert_eq!(scans[0], scans[2], "1 vs 8 shards");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn every_durability_level_survives_clean_restart() {
    for (i, durability) in Durability::ALL.into_iter().enumerate() {
        for group_commit in [true, false] {
            let path = temp_wal(&format!("level-{i}-{group_commit}"));
            {
                let engine = Engine::with_wal_config(
                    &path,
                    EngineConfig {
                        shards: 4,
                        durability,
                        group_commit,
                        ..EngineConfig::default()
                    },
                )
                .unwrap();
                engine
                    .create_collection(CollectionSchema::key_value("ns"))
                    .unwrap();
                for k in 0..50i64 {
                    engine
                        .run(Isolation::Snapshot, |t| {
                            t.put("ns", Key::int(k), Value::Int(k))
                        })
                        .unwrap();
                }
            }
            let engine = Engine::with_wal(&path).unwrap();
            let mut t = engine.begin(Isolation::Snapshot);
            assert_eq!(
                t.scan_shared("ns").unwrap().len(),
                50,
                "{durability} group_commit={group_commit}"
            );
            drop(t);
            drop(engine);
            std::fs::remove_file(&path).unwrap();
        }
    }
}

#[test]
fn concurrent_group_commits_log_in_timestamp_order() {
    let path = temp_wal("ts-order");
    {
        let engine = Engine::with_wal_config(&path, config(8)).unwrap();
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        std::thread::scope(|s| {
            for client in 0..4i64 {
                let engine = engine.clone();
                s.spawn(move || {
                    for i in 0..25i64 {
                        engine
                            .run(Isolation::Snapshot, |t| {
                                t.put("ns", Key::int(client * 100 + i), Value::Int(i))
                            })
                            .unwrap();
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.wal_records, 100);
        assert!(stats.wal_batches <= stats.wal_records);
    }
    let records = Wal::read_all(&path).unwrap();
    assert_eq!(records.len(), 100);
    let tss: Vec<u64> = records.iter().map(|r| r.commit_ts.0).collect();
    let mut sorted = tss.clone();
    sorted.sort_unstable();
    assert_eq!(tss, sorted, "queue order must be commit-ts order");
    // and the log replays into the same 100 records
    let engine = Engine::with_wal(&path).unwrap();
    let mut t = engine.begin(Isolation::Snapshot);
    assert_eq!(t.scan_shared("ns").unwrap().len(), 100);
    drop(t);
    drop(engine);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_under_concurrent_commits_loses_nothing() {
    let path = temp_wal("ckpt-race");
    {
        let engine = Engine::with_wal_config(&path, config(8)).unwrap();
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        std::thread::scope(|s| {
            for client in 0..3i64 {
                let engine = engine.clone();
                s.spawn(move || {
                    for i in 0..40i64 {
                        engine
                            .run(Isolation::Snapshot, |t| {
                                t.put("ns", Key::int(client * 1000 + i), Value::Int(i))
                            })
                            .unwrap();
                    }
                });
            }
            let engine = engine.clone();
            s.spawn(move || {
                for _ in 0..10 {
                    engine.checkpoint().unwrap();
                }
            });
        });
    }
    let engine = Engine::with_wal(&path).unwrap();
    let mut t = engine.begin(Isolation::Snapshot);
    assert_eq!(
        t.scan_shared("ns").unwrap().len(),
        120,
        "no commit may vanish across concurrent checkpoints + recovery"
    );
    drop(t);
    drop(engine);
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    /// The fundamental crash-recovery property: cutting the log at any
    /// byte offset recovers exactly the commits whose records lie fully
    /// inside the prefix — at any shard count — and recovery is
    /// idempotent (a second open changes nothing).
    #[test]
    fn truncation_recovers_exact_prefix(
        commits in 2usize..14,
        cut_permille in 0u32..1000,
        shards in 1usize..9,
        zero_pad in any::<bool>(),
    ) {
        let path = temp_wal(&format!("prop-{commits}-{cut_permille}-{shards}-{zero_pad}"));
        let ends = build_log(&path, commits);
        let log = std::fs::read(&path).unwrap();
        let len = log.len() as u64;
        let cut = (len as u128 * cut_permille as u128 / 1000) as u64;
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap();
        file.set_len(cut).unwrap();
        if zero_pad {
            // power loss after the file size reached the disk but the
            // data did not: the torn tail is NUL bytes after the valid
            // prefix rather than a clean end-of-file (set_len past the
            // cut zero-fills)
            file.set_len(cut + 4096).unwrap();
        }
        drop(file);
        let expected = expected_commits(&ends, cut, zero_pad.then_some(&log[..]));

        let engine = Engine::with_wal_config(&path, config(shards)).expect("recover");
        // a cut before the first commit leaves nothing to auto-register
        let _ = engine.create_collection(CollectionSchema::key_value("ns"));
        let mut t = engine.begin(Isolation::Snapshot);
        for i in 0..commits {
            let got = t.get("ns", &Key::int(i as i64)).unwrap();
            if i < expected {
                prop_assert_eq!(got, Some(Value::Int(i as i64)), "commit {} lost", i);
            } else {
                prop_assert_eq!(got, None, "commit {} is after the cut", i);
            }
        }
        drop(t);
        drop(engine);

        // idempotent: the torn tail was truncated away, so a second
        // recovery sees a clean log with the same records
        let engine = Engine::with_wal_config(&path, config(shards)).expect("re-open");
        let _ = engine.create_collection(CollectionSchema::key_value("ns"));
        let mut t = engine.begin(Isolation::Snapshot);
        prop_assert_eq!(t.scan_shared("ns").unwrap().len(), expected);
        drop(t);
        drop(engine);
        std::fs::remove_file(&path).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flip any bit of any byte of a multi-frame log: `Wal::scan` returns
    /// a strict prefix of the records that ends before the damaged frame,
    /// or an error that names where the damage is — never a wrong record
    /// — and an engine opened on it holds exactly that prefix or refuses
    /// to open.
    #[test]
    fn any_flipped_byte_yields_a_prefix_or_a_located_error(
        commits in 2usize..9,
        at_permille in 0u32..1000,
        bit in 0u32..8,
        shards in 1usize..9,
    ) {
        let path = temp_wal(&format!("flip-{commits}-{at_permille}-{bit}-{shards}"));
        let ends = build_log(&path, commits);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() * at_permille as usize / 1000;
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        // the frame holding the flipped byte (the header is "frame 0")
        let damaged = ends.iter().filter(|end| **end <= at as u64).count();

        match Wal::scan(&path) {
            Ok(recovery) => {
                prop_assert!(
                    recovery.records.len() <= damaged && damaged < commits,
                    "{} records survive a flip in frame {}", recovery.records.len(), damaged
                );
                for (i, rec) in recovery.records.iter().enumerate() {
                    let want = vec![("ns".to_string(), Key::int(i as i64), Some(Value::Int(i as i64)))];
                    prop_assert_eq!(&rec.writes, &want, "record {} changed", i);
                }
                let n = recovery.records.len();
                let engine = recovered(&path, shards).expect("a prefix recovers");
                let _ = engine.create_collection(CollectionSchema::key_value("ns"));
                let mut t = engine.begin(Isolation::Snapshot);
                for i in 0..commits {
                    let want = (i < n).then_some(Value::Int(i as i64));
                    prop_assert_eq!(t.get("ns", &Key::int(i as i64)).unwrap(), want);
                }
            }
            Err(e) => {
                let e = e.to_string();
                // past the header, damage is located by record and offset
                let located = e.contains("record index") && e.contains("byte offset");
                prop_assert!(at < 12 || located, "unlocated error: {}", e);
                prop_assert!(recovered(&path, shards).is_err());
                prop_assert_eq!(std::fs::read(&path).unwrap(), bytes, "refused, not touched");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
