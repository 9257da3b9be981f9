//! How a transaction ends: [`Txn::commit`], [`Txn::abort`], drop. Every
//! way out goes through `finish`, which takes the transaction out of the
//! registry and counts the outcome — once.
//!
//! ```text
//! begin:   lock(active) → snapshot = published → register → unlock
//! commit:  lock(commit)
//!            group write-set by shard (stable key hash)
//!            validate writes  (SI/SER: first-committer-wins, one shard
//!                              read-lock per touched shard)
//!            validate reads   (SER: OCC — observed versions unchanged)
//!            commit_ts = ++clock
//!            install versions + index postings (one shard write-lock
//!              per touched shard, ascending shard order)
//!            published = commit_ts
//!            enqueue WAL record on the group-commit queue
//!          unlock(commit) → park until durable (per Durability level)
//!          → finish
//! ```
//!
//! Because `published` advances only once a commit's versions are all
//! installed, a snapshot can never observe a half-installed commit —
//! per-shard locking does not weaken this: a version installed after a
//! snapshot was taken always carries a larger `commit_ts` and is invisible
//! to it, whichever shard it lands in. (ReadCommitted readers, which read
//! at `Ts::MAX`, may observe a commit's writes shard by shard; that
//! anomaly is within RC's contract and is documented in DESIGN.md.)

use std::sync::atomic::Ordering;

use udbms_core::{Error, Key, Result, Ts, TxnId, Value};

use crate::engine::Inner;
use crate::reads::Txn;
use crate::storage::{RecordId, ShardedStorage};
use crate::txn::{Isolation, TxnState};
use crate::wal::WalRecord;

/// How a transaction ended, as the counters see it.
enum Outcome {
    Committed,
    /// Explicit abort, drop, or a write the failed WAL turned away.
    Aborted,
    WriteConflict,
    ReadConflict,
    /// Installed in memory, but the WAL could not attest it: counted as
    /// neither a commit nor an abort.
    Unlogged,
}

/// The one exit: deregister `id` and count how it ended.
fn finish(inner: &Inner, id: TxnId, outcome: Outcome) {
    inner.registry.finish(id);
    let m = &inner.metrics;
    match outcome {
        Outcome::Committed => m.commits.add(1),
        Outcome::Aborted => m.aborts.add(1),
        Outcome::WriteConflict => {
            m.aborts.add(1);
            m.ww_conflicts.add(1);
        }
        Outcome::ReadConflict => {
            m.aborts.add(1);
            m.read_conflicts.add(1);
        }
        Outcome::Unlogged => {}
    }
}

/// The one commit-time validation walk: one shard read-lock per non-empty
/// group of `groups` (record ids bucketed by shard), and the first record
/// whose newest committed timestamp (`Ts::ZERO` for none) is `stale`.
fn first_stale<'a>(
    storage: &ShardedStorage,
    groups: &[Vec<&'a RecordId>],
    stale: impl Fn(&RecordId, Ts) -> bool,
) -> Option<&'a RecordId> {
    for (si, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let shard = storage.shard(si).read();
        let newest = |rid: &RecordId| shard.store.latest(rid).map_or(Ts::ZERO, |v| v.commit_ts);
        if let Some(rid) = group.iter().copied().find(|rid| stale(rid, newest(rid))) {
            return Some(rid);
        }
    }
    None
}

/// Validate, install, log and wait for durability; what happened, and
/// what `commit` returns.
fn try_commit(inner: &Inner, state: &TxnState) -> (Outcome, Result<Ts>) {
    // read-only fast path
    if state.writes.is_empty() {
        return (Outcome::Committed, Ok(state.snapshot));
    }

    // fail fast on a degraded/poisoned WAL *before* taking
    // commit_lock: a doomed write must not install versions it can
    // never log, nor serialize behind the healthy commit path
    if let Some(Err(e)) = inner.log.get().map(|log| log.check_available()) {
        return (Outcome::Aborted, Err(e));
    }

    let (commit_ts, logged) = {
        let _commit = inner.commit_lock.lock();
        let validate_stamp = inner.obs.start();
        let write_groups = inner.storage.group_by_shard(state.write_order.iter());
        if state.isolation != Isolation::ReadCommitted {
            // write-write: first committer wins
            let lost = |_: &RecordId, newest: Ts| newest > state.snapshot;
            if let Some(rid) = first_stale(&inner.storage, &write_groups, lost) {
                let why = format!("write-write conflict on {}", rid.key);
                return (Outcome::WriteConflict, Err(Error::TxnConflict(why)));
            }
        }
        if state.isolation == Isolation::Serializable {
            // OCC: every observed version must still be current
            let read_groups = inner.storage.group_by_shard(state.reads.keys());
            let moved = |rid: &RecordId, newest: Ts| newest != state.reads[rid];
            if let Some(rid) = first_stale(&inner.storage, &read_groups, moved) {
                let why = format!("read validation failed on {}", rid.key);
                return (Outcome::ReadConflict, Err(Error::TxnConflict(why)));
            }
        }
        inner
            .obs
            .record_ns(&inner.metrics.validate_ns, validate_stamp);
        // buffered values are Arc-shared, so each install is a refcount
        // bump, not a value tree copy
        let install_stamp = inner.obs.start();
        // ORDER: AcqRel — the new ts must come after every install
        // the previous holder of commit_lock released (Acquire), and
        // the snapshot loads above must not sink below it (Release).
        let commit_ts = Ts(inner.clock.fetch_add(1, Ordering::AcqRel) + 1);
        for (si, group) in write_groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut shard = inner.storage.shard(si).write();
            for rid in group {
                let value = state.writes[*rid].clone();
                shard.install((*rid).clone(), commit_ts, value);
            }
        }
        // every version is in place: publish the timestamp so new
        // snapshots can observe this commit
        // ORDER: Release pairs with Registry::register's Acquire load;
        // every shard install above happens-before a snapshot that sees
        // this watermark.
        inner.published.store(commit_ts.0, Ordering::Release);
        inner
            .obs
            .record_ns(&inner.metrics.install_ns, install_stamp);
        // enqueue while still holding commit_lock so the queue order is
        // commit-ts order; the flush/fsync wait happens after its release
        let logged = inner.log.get().map(|log| {
            let catalog = inner.catalog.read();
            let writes: Vec<(String, Key, Option<Value>)> = state
                .write_order
                .iter()
                .map(|rid| {
                    let name = catalog
                        .name_of(rid.collection)
                        .unwrap_or("<dropped>")
                        .to_string();
                    let value = state.writes[rid].as_ref().map(|v| v.as_ref().clone());
                    (name, rid.key.clone(), value)
                })
                .collect();
            let ticket = log.commit(WalRecord {
                commit_ts,
                txn: state.id,
                writes,
            });
            (log, ticket)
        });
        (commit_ts, logged)
    };
    // park for durability outside commit_lock: other committers can
    // validate, install, and join the same log batch meanwhile
    let durable = match logged {
        Some((log, ticket)) => ticket.and_then(|ticket| log.wait_durable(ticket)),
        None => Ok(()),
    };
    // the in-memory install already happened; surfacing a WAL
    // failure (rather than acking a commit that may not survive a
    // crash) is the durability contract
    match durable {
        Ok(()) => (Outcome::Committed, Ok(commit_ts)),
        Err(e) => (Outcome::Unlogged, Err(e)),
    }
}

impl Txn {
    /// Commit. Returns the commit timestamp, or a retryable
    /// [`Error::TxnConflict`] when validation fails (the transaction is
    /// then aborted).
    pub fn commit(mut self) -> Result<Ts> {
        let Some(state) = self.state.take() else {
            return Err(Error::TxnClosed("transaction already finished".into()));
        };
        let (outcome, result) = try_commit(&self.inner, &state);
        finish(&self.inner, state.id, outcome);
        result
    }

    /// Abort, discarding buffered writes.
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    pub(crate) fn abort_in_place(&mut self) {
        if let Some(state) = self.state.take() {
            finish(&self.inner, state.id, Outcome::Aborted);
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.abort_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engine;
    use udbms_core::obj;
    use udbms_relational::Predicate;

    #[test]
    fn cross_model_transaction_commits_atomically() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        t.insert(
            "customers",
            obj! {"id" => 1, "name" => "Ada", "country" => "FI"},
        )
        .unwrap();
        let okey = t
            .insert("orders", obj! {"customer" => 1, "total" => 12.5})
            .unwrap();
        t.put("feedback", Key::str("fb:1"), obj! {"rating" => 5})
            .unwrap();
        t.put_xml(
            "invoices",
            Key::str("inv:1"),
            "<Invoice id=\"inv:1\"><Total>12.50</Total></Invoice>",
        )
        .unwrap();
        t.add_vertex("social", Key::int(1), "customer", obj! {})
            .unwrap();

        // nothing visible before commit
        let mut other = e.begin(Isolation::Snapshot);
        assert!(other.get("customers", &Key::int(1)).unwrap().is_none());
        assert!(other.get("orders", &okey).unwrap().is_none());
        other.abort();

        t.commit().unwrap();

        // everything visible after
        let mut after = e.begin(Isolation::Snapshot);
        assert!(after.get("customers", &Key::int(1)).unwrap().is_some());
        assert!(after.get("orders", &okey).unwrap().is_some());
        assert!(after.get("feedback", &Key::str("fb:1")).unwrap().is_some());
        let totals = after
            .xpath("invoices", &Key::str("inv:1"), "/Invoice/Total/text()")
            .unwrap();
        assert_eq!(totals, vec![Value::from("12.50")]);
    }

    #[test]
    fn snapshot_isolation_prevents_lost_updates() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("ctr"), Value::Int(0))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Snapshot);
        let mut t2 = e.begin(Isolation::Snapshot);
        let v1 = t1
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let v2 = t2
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        t1.put("feedback", Key::str("ctr"), Value::Int(v1 + 1))
            .unwrap();
        t2.put("feedback", Key::str("ctr"), Value::Int(v2 + 1))
            .unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(err.is_retryable(), "second committer must conflict: {err}");
        assert_eq!(e.stats().ww_conflicts, 1);
    }

    #[test]
    fn read_committed_permits_lost_updates() {
        let e = engine();
        e.run(Isolation::ReadCommitted, |t| {
            t.put("feedback", Key::str("ctr"), Value::Int(0))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::ReadCommitted);
        let mut t2 = e.begin(Isolation::ReadCommitted);
        let v1 = t1
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let v2 = t2
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        t1.put("feedback", Key::str("ctr"), Value::Int(v1 + 1))
            .unwrap();
        t2.put("feedback", Key::str("ctr"), Value::Int(v2 + 1))
            .unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // no validation: the anomaly the census counts
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("ctr")).unwrap(),
            Some(Value::Int(1)),
            "one increment lost under RC"
        );
    }

    #[test]
    fn serializable_prevents_write_skew() {
        let e = engine();
        // invariant: a + b >= 1; each txn checks the other's record then
        // zeroes its own — classic write skew.
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("a"), Value::Int(1))?;
            t.put("feedback", Key::str("b"), Value::Int(1))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Serializable);
        let mut t2 = e.begin(Isolation::Serializable);
        let b = t1
            .get("feedback", &Key::str("b"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let a = t2
            .get("feedback", &Key::str("a"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!((a, b), (1, 1));
        t1.put("feedback", Key::str("a"), Value::Int(0)).unwrap();
        t2.put("feedback", Key::str("b"), Value::Int(0)).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(err.is_retryable(), "OCC read validation must fire: {err}");
        assert_eq!(e.stats().read_conflicts, 1);
    }

    #[test]
    fn serializable_predicate_scan_prevents_write_skew() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("o1"), obj! {"status" => "paid"})?;
            t.put("feedback", Key::str("o2"), obj! {"status" => "paid"})
        })
        .unwrap();
        // t1 decides from the *absence* of matching rows
        let mut t1 = e.begin(Isolation::Serializable);
        let pred = Predicate::eq("status", Value::from("open"));
        assert!(t1.rows("feedback", Some(&pred), None).unwrap().is_empty());
        // concurrently o1 starts matching the predicate
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("o1"), obj! {"status" => "open"})
        })
        .unwrap();
        t1.put("feedback", Key::str("decision"), Value::Int(1))
            .unwrap();
        let err = t1.commit().unwrap_err();
        assert!(
            err.is_retryable(),
            "the predicate scan examined o1, so its change must abort t1: {err}"
        );
    }

    #[test]
    fn write_skew_allowed_under_snapshot() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("a"), Value::Int(1))?;
            t.put("feedback", Key::str("b"), Value::Int(1))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Snapshot);
        let mut t2 = e.begin(Isolation::Snapshot);
        let _ = t1.get("feedback", &Key::str("b")).unwrap();
        let _ = t2.get("feedback", &Key::str("a")).unwrap();
        t1.put("feedback", Key::str("a"), Value::Int(0)).unwrap();
        t2.put("feedback", Key::str("b"), Value::Int(0)).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // disjoint write sets: SI lets it through
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("a")).unwrap(),
            Some(Value::Int(0))
        );
        assert_eq!(
            t.get("feedback", &Key::str("b")).unwrap(),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn dropped_txn_aborts_implicitly() {
        let e = engine();
        {
            let mut t = e.begin(Isolation::Snapshot);
            t.put("feedback", Key::int(1), Value::Int(1)).unwrap();
            // dropped without commit
        }
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.get("feedback", &Key::int(1)).unwrap(), None);
        drop(t);
        assert_eq!(e.stats().active_txns, 0);
        assert_eq!(e.stats().aborts, 2, "both dropped handles count as aborts");
    }

    /// Every way a transaction ends leaves the registry empty, counts
    /// what it should and nothing else, and lets `gc` advance to the
    /// clock — at one shard and at eight.
    #[test]
    fn no_exit_leaks_a_registration() {
        use crate::{Engine, EngineConfig, FaultPlan};
        use std::sync::Arc;
        use udbms_core::{CollectionSchema, Key, Value};

        type Case<'a> = (&'a str, [u64; 4], &'a dyn Fn(&Engine, &FaultPlan));
        let put = |t: &mut Txn, k: &str| t.put("kv", Key::str(k), Value::Int(1)).unwrap();
        // name, [commits, aborts, ww_conflicts, read_conflicts] it adds, the exit
        let cases: [Case; 12] = [
            ("read-only commit", [1, 0, 0, 0], &|e, _| {
                let mut t = e.begin(Isolation::Snapshot);
                t.get("kv", &Key::str("a")).unwrap();
                t.commit().unwrap();
            }),
            ("read-lane commit", [1, 0, 0, 0], &|e, _| {
                e.begin_read().commit().unwrap();
            }),
            ("writing commit", [1, 0, 0, 0], &|e, _| {
                let mut t = e.begin(Isolation::Snapshot);
                put(&mut t, "a");
                t.commit().unwrap();
            }),
            ("write-write conflict", [1, 1, 1, 0], &|e, _| {
                let (mut won, mut lost) =
                    (e.begin(Isolation::Snapshot), e.begin(Isolation::Snapshot));
                put(&mut won, "a");
                put(&mut lost, "a");
                won.commit().unwrap();
                assert!(lost.commit().unwrap_err().is_retryable());
            }),
            ("OCC conflict", [1, 1, 0, 1], &|e, _| {
                let mut t = e.begin(Isolation::Serializable);
                t.get("kv", &Key::str("a")).unwrap();
                e.run(Isolation::Snapshot, |w| {
                    w.put("kv", Key::str("a"), Value::Int(2))
                })
                .unwrap();
                put(&mut t, "b");
                assert!(t.commit().unwrap_err().is_retryable());
            }),
            ("abort", [0, 1, 0, 0], &|e, _| {
                let mut t = e.begin(Isolation::Snapshot);
                put(&mut t, "a");
                t.abort();
            }),
            ("drop", [0, 1, 0, 0], &|e, _| {
                let mut t = e.begin(Isolation::Serializable);
                put(&mut t, "a");
            }),
            ("early return inside Engine::run", [0, 1, 0, 0], &|e, _| {
                let r: Result<()> = e.run(Isolation::Snapshot, |t| {
                    put(t, "a");
                    Err(Error::Invalid("stop".into()))
                });
                assert!(matches!(r, Err(Error::Invalid(_))));
            }),
            ("commit on a finished handle", [0, 1, 0, 0], &|e, _| {
                let mut t = e.begin(Isolation::Snapshot);
                put(&mut t, "a");
                t.abort_in_place();
                assert!(matches!(t.commit(), Err(Error::TxnClosed(_))));
            }),
            (
                "WAL failure after the install",
                [0, 0, 0, 0],
                &|e, faults| {
                    faults.fail_sticky("flush");
                    let mut t = e.begin(Isolation::Snapshot);
                    put(&mut t, "c");
                    assert!(matches!(t.commit(), Err(Error::Unavailable(_))));
                },
            ),
            (
                "write turned away by the failed WAL",
                [1, 1, 0, 0],
                &|e, _| {
                    let mut t = e.begin(Isolation::Snapshot);
                    put(&mut t, "d");
                    assert!(matches!(t.commit(), Err(Error::Unavailable(_))));
                    let mut t = e.begin_read();
                    assert_eq!(
                        t.get("kv", &Key::str("d")).unwrap(),
                        None,
                        "nothing installed"
                    );
                    t.commit().unwrap();
                },
            ),
            ("read-only commit on a failed WAL", [1, 0, 0, 0], &|e, _| {
                e.begin(Isolation::Snapshot).commit().unwrap();
            }),
        ];
        for shards in [1usize, 8] {
            let mut path = std::env::temp_dir();
            path.push(format!("udbms-exits-{}-{shards}.log", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let faults = Arc::new(FaultPlan::none());
            let config = EngineConfig::default().with_shards(shards);
            let e = Engine::with_wal_faults(&path, config, Arc::clone(&faults)).unwrap();
            e.create_collection(CollectionSchema::key_value("kv"))
                .unwrap();
            for (name, adds, exit) in &cases {
                let before = e.stats();
                exit(&e, &faults);
                let after = e.stats();
                let name = format!("{name}, {shards} shard(s)");
                assert_eq!(after.active_txns, 0, "{name}");
                let counted = [
                    after.commits - before.commits,
                    after.aborts - before.aborts,
                    after.ww_conflicts - before.ww_conflicts,
                    after.read_conflicts - before.read_conflicts,
                ];
                assert_eq!(counted, *adds, "{name}");
                // ORDER: test-only read of the clock, nothing concurrent.
                let clock = Ts(e.inner.clock.load(Ordering::Acquire));
                assert_eq!(e.gc().watermark, clock, "{name}");
            }
            drop(e);
            let _ = std::fs::remove_file(&path);
        }
    }
}
