//! CrashMonkey/ALICE-style storage-fault torture: a seeded fault plan
//! fires a crash point at every phase-tagged I/O site of the WAL,
//! snapshots the on-disk state the "dead process" left
//! behind, and recovery of that image must yield an **exact prefix of
//! the complete commits** — never a reordering, never a hole, never a
//! refusal to open. Checkpoint-rewrite crash points additionally pin
//! rename atomicity: the image recovers to either the old log or the
//! new one, nothing in between.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use udbms::core::{CollectionSchema, Key, Ts, TxnId, Value};
use udbms::engine::{
    Durability, Engine, EngineConfig, FaultPlan, Isolation, Wal, WalRecord, FAULT_SITES,
};

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("udbms-torture-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(p.with_extension("tmp"));
    p
}

fn rec(i: usize) -> WalRecord {
    WalRecord {
        commit_ts: Ts(i as u64 + 1),
        txn: TxnId(i as u64 + 1),
        writes: vec![("ns".into(), Key::int(i as i64), Some(Value::Int(i as i64)))],
    }
}

fn open_wal(path: &PathBuf, plan: Arc<FaultPlan>) -> Wal {
    Wal::open_with_faults(path, plan).expect("open wal")
}

/// The sites a plain append+flush+sync cycle drives.
const APPEND_SITES: &[&str] = &["append.write", "flush", "sync"];

const REWRITE_SITES: &[&str] = &[
    "rewrite.prepare.create",
    "rewrite.prepare.write",
    "rewrite.prepare.sync",
    "rewrite.finish.write",
    "rewrite.finish.sync",
    "rewrite.rename",
    "rewrite.dirsync",
    "rewrite.reopen",
];

/// Crash one append-phase `site`, recover the crash image, and assert
/// the exact-complete-prefix property: recovered records are a prefix
/// of the appended sequence and include at least every acked record.
fn torture_append_site(site: &str, warmup: usize, label: &str) {
    let path = temp(&format!("a-{label}.wal"));
    let image = temp(&format!("a-{label}.img"));
    let plan = Arc::new(FaultPlan::seeded(0xC4A5));
    let mut wal = open_wal(&path, Arc::clone(&plan));

    let mut appended: Vec<WalRecord> = Vec::new();
    let mut acked = 0usize;
    let cycle = |wal: &mut Wal, r: &WalRecord| {
        wal.append(r)?;
        wal.flush()?;
        wal.sync_data()
    };
    for i in 0..warmup {
        let r = rec(i);
        appended.push(r.clone());
        cycle(&mut wal, &r).expect("warmup is un-faulted");
        acked += 1;
    }

    plan.crash_at(site, &image);
    let mut crashed = false;
    for i in warmup..warmup + 8 {
        let r = rec(i);
        appended.push(r.clone());
        match cycle(&mut wal, &r) {
            Ok(()) => acked += 1,
            Err(_) => {
                crashed = true;
                break;
            }
        }
    }
    assert!(crashed, "site `{site}` never fired ({label})");
    assert!(plan.hits(site) > 0, "site `{site}` saw no traffic");

    // the "dead process" leaves `image` behind; recover it
    let recovery = Wal::recover(&image).expect("a crash image must always recover");
    let got = recovery.records;
    assert!(
        got.len() >= acked,
        "{label}: recovery lost acked commits ({} < {acked})",
        got.len()
    );
    assert!(
        got.len() <= appended.len(),
        "{label}: recovery invented commits"
    );
    assert_eq!(
        got,
        appended[..got.len()].to_vec(),
        "{label}: recovered records must be an exact prefix of the appended order"
    );

    drop(wal);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&image);
    let _ = std::fs::remove_file(image.with_extension("tmp"));
}

/// Crash one rewrite-phase `site` mid-checkpoint and assert rename
/// atomicity: the image recovers to exactly the pre-rewrite log or
/// exactly the rewritten one.
fn torture_rewrite_site(site: &str, label: &str) {
    let path = temp(&format!("r-{label}.wal"));
    let image = temp(&format!("r-{label}.img"));
    let plan = Arc::new(FaultPlan::seeded(0xC4A6));
    let mut wal = open_wal(&path, Arc::clone(&plan));

    let before: Vec<WalRecord> = (0..6).map(rec).collect();
    for r in &before {
        wal.append(r).unwrap();
        wal.flush().unwrap();
        wal.sync_data().unwrap();
    }

    // the checkpoint collapses the log to one synthetic record
    let rewritten = vec![rec(999)];
    plan.crash_at(site, &image);
    let err = wal.rewrite(&rewritten);
    assert!(err.is_err(), "site `{site}` never fired ({label})");
    assert!(plan.hits(site) > 0, "site `{site}` saw no traffic");

    let got = Wal::recover(&image)
        .expect("a crash image must always recover")
        .records;
    assert!(
        got == before || got == rewritten,
        "{label}: a crashed rewrite must leave the old log or the new one, got {} record(s)",
        got.len()
    );

    // an orphaned `.tmp` sibling next to the image (prepare/rename-side
    // crashes) must be swept on the next open, never replayed
    let opened = open_wal(&image, Arc::new(FaultPlan::none()));
    assert!(
        !image.with_extension("tmp").exists(),
        "{label}: open must clean the orphaned rewrite temp file"
    );
    drop(opened);
    drop(wal);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("tmp"));
    let _ = std::fs::remove_file(&image);
    let _ = std::fs::remove_file(image.with_extension("tmp"));
}

/// Every listed fault site fires and recovers to an exact prefix — the
/// exhaustive sweep the torture harness promises.
#[test]
fn every_fault_site_crashes_and_recovers_exactly() {
    for site in APPEND_SITES {
        torture_append_site(site, 4, site);
    }
    for site in REWRITE_SITES {
        torture_rewrite_site(site, site);
    }
    for site in FAULT_SITES {
        assert!(
            APPEND_SITES.contains(site) || REWRITE_SITES.contains(site),
            "fault site `{site}` is not exercised by the torture sweep"
        );
    }
}

/// End to end through the engine: acked commits survive a crash at the
/// fsync site; the recovered image holds an exact prefix of the commit
/// order (CrashMonkey's check, on our own log).
#[test]
fn engine_crash_image_recovers_a_complete_commit_prefix() {
    let path = temp("engine.wal");
    let image = temp("engine.img");
    let plan = Arc::new(FaultPlan::seeded(0xE4E4));
    let config = EngineConfig {
        shards: 4,
        durability: Durability::Fsync,
        group_commit: true,
        ..EngineConfig::default()
    };
    let engine =
        Engine::with_wal_faults(&path, config, Arc::clone(&plan)).expect("wal-backed engine");
    engine
        .create_collection(CollectionSchema::key_value("ns"))
        .unwrap();
    let mut acked = 0i64;
    for i in 0..10i64 {
        engine
            .run(Isolation::Snapshot, |t| {
                t.put("ns", Key::int(i), Value::Int(i))
            })
            .expect("healthy commit");
        acked = i + 1;
    }
    plan.crash_at("sync", &image);
    let mut crashed = false;
    for i in 10..30i64 {
        match engine.run(Isolation::Snapshot, |t| {
            t.put("ns", Key::int(i), Value::Int(i))
        }) {
            Ok(_) => acked = i + 1,
            Err(_) => {
                crashed = true;
                break;
            }
        }
    }
    assert!(crashed, "the crash point must poison the commit pipeline");
    drop(engine);

    // a fresh engine opens the image: every acked commit is there, and
    // whatever else survived is a contiguous prefix of the commit order
    let recovered = Engine::with_wal(&image).expect("crash image must recover");
    let mut t = recovered.begin(Isolation::Snapshot);
    let rows = t.scan_shared("ns").unwrap();
    let n = rows.len() as i64;
    assert!(n >= acked, "acked commits lost: {n} < {acked}");
    for i in 0..n {
        assert_eq!(
            t.get("ns", &Key::int(i)).unwrap(),
            Some(Value::Int(i)),
            "recovered state must be the contiguous commit prefix"
        );
    }
    drop(t);
    drop(recovered);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&image);
    let _ = std::fs::remove_file(image.with_extension("tmp"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The randomized sweep: any crash site, any warmup depth —
    /// recovery of the image is always an exact prefix (append sites)
    /// or an atomic old/new switch (rewrite sites).
    #[test]
    fn any_crash_point_recovers_an_exact_prefix(
        site_ix in 0..FAULT_SITES.len(),
        warmup in 0usize..6,
        seed in 0u64..1000,
    ) {
        let site = FAULT_SITES[site_ix];
        let label = format!("prop-{site_ix}-{warmup}-{seed}");
        if REWRITE_SITES.contains(&site) {
            torture_rewrite_site(site, &label);
        } else {
            torture_append_site(site, warmup, &label);
        }
    }
}
