//! The ACID verifier — experiment E4b: "UDBMS-benchmark develops
//! consistency metrics of ACID … and accurately determines consistency
//! behavior via experiments with actually deployed systems."
//!
//! Three seeded experiments against the unified engine:
//!
//! * **atomicity census** — cross-model transactions that write one
//!   marker per data model and abort mid-flight with a configurable
//!   probability; afterwards no transaction may be partially visible.
//! * **lost-update census** — concurrent read-modify-write increments;
//!   counts how many increments each isolation level loses.
//! * **write-skew census** — the classic two-record constraint; counts
//!   constraint violations per isolation level.

use udbms_core::{obj, CollectionSchema, Key, Result, SplitMix64, Value};
use udbms_engine::{Engine, Isolation};

/// Result of the atomicity census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicityReport {
    /// Transactions attempted.
    pub attempted: usize,
    /// Transactions that aborted mid-flight (injected failures).
    pub aborted: usize,
    /// Transactions whose writes are fully visible.
    pub complete: usize,
    /// Transactions with *some but not all* model writes visible — must
    /// be 0 for an ACID engine.
    pub partial: usize,
}

/// Run `n` cross-model transactions, each writing a marker into four
/// collections (relational, document, kv, xml); a fraction abort halfway.
/// Verifies all-or-nothing visibility.
pub fn atomicity_census(n: usize, failure_rate: f64, seed: u64) -> Result<AtomicityReport> {
    let engine = Engine::new();
    engine.create_collection(CollectionSchema::relational(
        "rel",
        "id",
        vec![udbms_core::FieldDef::required(
            "id",
            udbms_core::FieldType::Int,
        )],
    ))?;
    engine.create_collection(CollectionSchema::document("doc", "_id", vec![]))?;
    engine.create_collection(CollectionSchema::key_value("kv"))?;
    engine.create_collection(CollectionSchema::xml("xml"))?;

    let mut rng = SplitMix64::new(seed);
    let mut aborted = 0usize;
    for i in 0..n {
        let id = i as i64;
        let mut txn = engine.begin(Isolation::Snapshot);
        txn.insert("rel", obj! {"id" => id})?;
        txn.insert("doc", obj! {"_id" => format!("d{id}"), "n" => id})?;
        if rng.chance(failure_rate) {
            // crash between the models: the classic partial-write hazard
            txn.abort();
            aborted += 1;
            continue;
        }
        txn.put("kv", Key::str(format!("k{id}")), Value::Int(id))?;
        txn.put_xml("xml", Key::int(id), &format!("<M id=\"{id}\"/>"))?;
        txn.commit()?;
    }

    let mut complete = 0usize;
    let mut partial = 0usize;
    engine.run(Isolation::Snapshot, |t| {
        for i in 0..n {
            let id = i as i64;
            let present = [
                t.get("rel", &Key::int(id))?.is_some(),
                t.get("doc", &Key::str(format!("d{id}")))?.is_some(),
                t.get("kv", &Key::str(format!("k{id}")))?.is_some(),
                t.get("xml", &Key::int(id))?.is_some(),
            ];
            let count = present.iter().filter(|&&p| p).count();
            match count {
                0 => {}
                4 => complete += 1,
                _ => partial += 1,
            }
        }
        Ok(())
    })?;
    Ok(AtomicityReport {
        attempted: n,
        aborted,
        complete,
        partial,
    })
}

/// Result of the lost-update census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostUpdateReport {
    /// Isolation level measured.
    pub isolation: Isolation,
    /// Increments attempted (successfully committed).
    pub committed: u64,
    /// Final counter value.
    pub final_value: i64,
    /// Lost updates (`committed - final_value`).
    pub lost: i64,
    /// Conflict aborts (retried) along the way.
    pub conflict_retries: u64,
}

/// Deterministic lost-update census: for each of `pairs` rounds, two
/// transactions concurrently read-modify-write the same counter with a
/// forced overlap (both read before either commits). ReadCommitted loses
/// one increment per pair; Snapshot/Serializable detect the conflict and
/// the loser retries, preserving every increment.
pub fn lost_update_census(isolation: Isolation, pairs: usize) -> Result<LostUpdateReport> {
    let engine = Engine::new();
    engine.create_collection(CollectionSchema::key_value("ctr"))?;
    engine.run(Isolation::Snapshot, |t| {
        t.put("ctr", Key::str("n"), Value::Int(0))
    })?;

    let mut committed = 0u64;
    let mut retries = 0u64;
    for _ in 0..pairs {
        let mut t1 = engine.begin(isolation);
        let mut t2 = engine.begin(isolation);
        let v1 = t1.get("ctr", &Key::str("n"))?.unwrap().as_int().unwrap();
        let v2 = t2.get("ctr", &Key::str("n"))?.unwrap().as_int().unwrap();
        t1.put("ctr", Key::str("n"), Value::Int(v1 + 1))?;
        t2.put("ctr", Key::str("n"), Value::Int(v2 + 1))?;
        t1.commit()?;
        committed += 1;
        match t2.commit() {
            Ok(_) => committed += 1,
            Err(e) if e.is_retryable() => {
                retries += 1;
                // loser retries with a fresh snapshot, as real apps do
                engine.run(isolation, |t| {
                    let v = t.get("ctr", &Key::str("n"))?.unwrap().as_int().unwrap();
                    t.put("ctr", Key::str("n"), Value::Int(v + 1))
                })?;
                committed += 1;
            }
            Err(e) => return Err(e),
        }
    }
    let final_value = engine.run(Isolation::Snapshot, |t| {
        Ok(t.get("ctr", &Key::str("n"))?
            .and_then(|v| v.as_int())
            .expect("counter"))
    })?;
    Ok(LostUpdateReport {
        isolation,
        committed,
        final_value,
        lost: committed as i64 - final_value,
        conflict_retries: retries,
    })
}

/// Result of the write-skew census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSkewReport {
    /// Isolation level measured.
    pub isolation: Isolation,
    /// Constraint pairs driven.
    pub pairs: usize,
    /// Pairs ending with the invariant `a + b >= 1` broken.
    pub violations: usize,
}

/// For each pair: two records `a = b = 1` with invariant `a + b >= 1`.
/// Two concurrent transactions each read both and zero *different*
/// records if the invariant allows. Snapshot isolation admits both
/// (write skew → violation); serializable's read validation kills one.
pub fn write_skew_census(isolation: Isolation, pairs: usize) -> Result<WriteSkewReport> {
    let engine = Engine::new();
    engine.create_collection(CollectionSchema::key_value("duty"))?;
    let mut violations = 0usize;
    for p in 0..pairs {
        let (ka, kb) = (Key::str(format!("a{p}")), Key::str(format!("b{p}")));
        engine.run(Isolation::Snapshot, |t| {
            t.put("duty", ka.clone(), Value::Int(1))?;
            t.put("duty", kb.clone(), Value::Int(1))
        })?;

        // two deliberately interleaved transactions (deterministic
        // interleaving — both read before either commits)
        let mut t1 = engine.begin(isolation);
        let mut t2 = engine.begin(isolation);
        let sum1 = t1.get("duty", &ka)?.unwrap().as_int().unwrap()
            + t1.get("duty", &kb)?.unwrap().as_int().unwrap();
        let sum2 = t2.get("duty", &ka)?.unwrap().as_int().unwrap()
            + t2.get("duty", &kb)?.unwrap().as_int().unwrap();
        if sum1 > 1 {
            t1.put("duty", ka.clone(), Value::Int(0))?;
        }
        if sum2 > 1 {
            t2.put("duty", kb.clone(), Value::Int(0))?;
        }
        let _ = t1.commit(); // first committer always wins
        let _ = t2.commit(); // may conflict under SER
        let broken = engine.run(Isolation::Snapshot, |t| {
            let a = t.get("duty", &ka)?.unwrap().as_int().unwrap();
            let b = t.get("duty", &kb)?.unwrap().as_int().unwrap();
            Ok(a + b < 1)
        })?;
        if broken {
            violations += 1;
        }
    }
    Ok(WriteSkewReport {
        isolation,
        pairs,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomicity_holds_with_failures() {
        let r = atomicity_census(200, 0.3, 7).unwrap();
        assert_eq!(r.partial, 0, "no partial cross-model commits, ever");
        assert_eq!(r.complete + r.aborted, r.attempted);
        assert!(
            r.aborted > 30,
            "~30% of 200 inject failures, got {}",
            r.aborted
        );
    }

    #[test]
    fn atomicity_without_failures_is_all_complete() {
        let r = atomicity_census(50, 0.0, 1).unwrap();
        assert_eq!(r.aborted, 0);
        assert_eq!(r.complete, 50);
        assert_eq!(r.partial, 0);
    }

    #[test]
    fn read_committed_loses_updates_snapshot_does_not() {
        let rc = lost_update_census(Isolation::ReadCommitted, 50).unwrap();
        let si = lost_update_census(Isolation::Snapshot, 50).unwrap();
        let ser = lost_update_census(Isolation::Serializable, 50).unwrap();
        assert_eq!(
            rc.lost, 50,
            "RC loses one increment per overlapped pair: {rc:?}"
        );
        assert_eq!(rc.conflict_retries, 0, "RC never even notices");
        assert_eq!(si.lost, 0, "SI preserves every increment: {si:?}");
        assert_eq!(si.conflict_retries, 50, "SI detects every overlap");
        assert_eq!(si.final_value, 100);
        assert_eq!(ser.lost, 0, "SER preserves every increment: {ser:?}");
    }

    /// Threaded lost-update stress: `threads × rounds` read-modify-write
    /// increments on one hot counter, each retried until it commits.
    /// Real thread timing decides how much overlap (and RC loss) occurs.
    fn concurrent_increment_stress(
        isolation: Isolation,
        threads: usize,
        rounds: usize,
    ) -> Result<LostUpdateReport> {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let engine = Engine::new();
        engine.create_collection(CollectionSchema::key_value("ctr"))?;
        engine.run(Isolation::Snapshot, |t| {
            t.put("ctr", Key::str("n"), Value::Int(0))
        })?;

        let committed = Arc::new(AtomicU64::new(0));
        let retries = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = engine.clone();
                let committed = Arc::clone(&committed);
                let retries = Arc::clone(&retries);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        loop {
                            let mut txn = engine.begin(isolation);
                            let v = txn
                                .get("ctr", &Key::str("n"))
                                .expect("collection exists")
                                .and_then(|v| v.as_int())
                                .expect("counter is an int");
                            txn.put("ctr", Key::str("n"), Value::Int(v + 1))
                                .expect("buffered");
                            match txn.commit() {
                                Ok(_) => {
                                    committed.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                Err(e) if e.is_retryable() => {
                                    retries.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }

        let final_value = engine.run(Isolation::Snapshot, |t| {
            Ok(t.get("ctr", &Key::str("n"))?
                .and_then(|v| v.as_int())
                .expect("counter"))
        })?;
        let committed = committed.load(Ordering::Relaxed);
        Ok(LostUpdateReport {
            isolation,
            committed,
            final_value,
            lost: committed as i64 - final_value,
            conflict_retries: retries.load(Ordering::Relaxed),
        })
    }

    #[test]
    fn threaded_stress_preserves_increments_under_si_and_ser() {
        for iso in [Isolation::Snapshot, Isolation::Serializable] {
            let r = concurrent_increment_stress(iso, 4, 50).unwrap();
            assert_eq!(r.lost, 0, "{iso}: {r:?}");
            assert_eq!(r.final_value, 200);
        }
        // RC stress must never *gain* increments, loss depends on timing
        let rc = concurrent_increment_stress(Isolation::ReadCommitted, 4, 50).unwrap();
        assert!(rc.lost >= 0, "{rc:?}");
    }

    #[test]
    fn write_skew_differentiates_si_from_ser() {
        let si = write_skew_census(Isolation::Snapshot, 50).unwrap();
        assert_eq!(
            si.violations, 50,
            "SI admits write skew every time (deterministic interleave)"
        );
        let ser = write_skew_census(Isolation::Serializable, 50).unwrap();
        assert_eq!(ser.violations, 0, "OCC read validation prevents write skew");
        let rc = write_skew_census(Isolation::ReadCommitted, 10).unwrap();
        assert_eq!(rc.violations, 10, "RC is at least as weak as SI here");
    }
}
