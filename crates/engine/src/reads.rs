//! The [`Txn`] handle and its read side: point reads, batched reads and
//! the general read [`Txn::rows`]. Writes are `writes.rs`, the ways a
//! transaction ends `commit.rs`, the graph and XML helpers `adapters.rs`.
//!
//! Every public call resolves its collection name once, under one catalog
//! guard; what runs below that takes the resolved [`CollectionId`].

use std::borrow::Cow;
use std::ops::ControlFlow;
use std::sync::Arc;

use udbms_core::{
    CollectionId, Error, FieldPath, Key, PathStep, Predicate, Probe, Result, Ts, TxnId, Value,
};

use crate::engine::Inner;
use crate::storage::{key_order, order_word, OrderKey, RecordId};
use crate::txn::{Isolation, TxnState};

/// The access path [`Txn::rows`] takes to the committed records.
enum Access {
    /// Primary-key equality: one point read.
    Point(Key),
    /// Index probe: candidate keys, unsorted and over-approximating.
    Candidates(Vec<Key>),
    /// The key-ordered walk over every shard.
    Scan,
}

/// A transaction handle. Obtain with [`crate::Engine::begin`]; finish with
/// [`Txn::commit`] or [`Txn::abort`] (dropping an open handle aborts).
pub struct Txn {
    pub(crate) inner: Arc<Inner>,
    /// `Some` while the transaction is open.
    pub(crate) state: Option<TxnState>,
}

/// Snapshot-correct read of one record: the transaction's own buffered
/// write if it has one, else the committed version at its read horizon,
/// noted in the read set. Hands out a shared handle — no deep clone.
pub(crate) fn read_one(inner: &Inner, state: &mut TxnState, rid: RecordId) -> Option<Arc<Value>> {
    if let Some(buffered) = state.own_write(&rid) {
        return buffered.clone();
    }
    let shard = inner.storage.shard_for(&rid.key).read();
    let version = shard.store.visible(&rid, state.read_ts());
    state.observe(Cow::Owned(rid), version)
}

/// [`read_one`] for a batch: results in input order, each shard
/// read-locked at most once for the whole batch.
pub(crate) fn read_many(
    inner: &Inner,
    state: &mut TxnState,
    rids: &[RecordId],
) -> Vec<Option<Arc<Value>>> {
    let read_ts = state.read_ts();
    let mut out: Vec<Option<Arc<Value>>> = vec![None; rids.len()];
    // (shard, position) of every read the write buffer cannot answer
    let mut pending: Vec<(usize, usize)> = Vec::new();
    for (pos, rid) in rids.iter().enumerate() {
        match state.own_write(rid) {
            Some(buffered) => out[pos] = buffered.clone(),
            None => pending.push((inner.storage.shard_of(&rid.key), pos)),
        }
    }
    pending.sort_unstable();
    let mut i = 0;
    while i < pending.len() {
        let si = pending[i].0;
        let shard = inner.storage.shard(si).read();
        while i < pending.len() && pending[i].0 == si {
            let pos = pending[i].1;
            let version = shard.store.visible(&rids[pos], read_ts);
            out[pos] = state.observe(Cow::Borrowed(&rids[pos]), version);
            i += 1;
        }
    }
    out
}

impl Txn {
    /// The engine and this transaction's state; an error once the handle
    /// has finished.
    pub(crate) fn parts(&mut self) -> Result<(&Inner, &mut TxnState)> {
        match &mut self.state {
            Some(state) => Ok((&self.inner, state)),
            None => Err(Error::TxnClosed("transaction already finished".into())),
        }
    }

    /// This transaction's snapshot timestamp.
    pub fn snapshot(&self) -> Option<Ts> {
        self.state.as_ref().map(|s| s.snapshot)
    }

    /// This transaction's id.
    pub fn id(&self) -> Option<TxnId> {
        self.state.as_ref().map(|s| s.id)
    }

    /// Fetch a record by key as an owned copy (for callers that go on to
    /// modify it; readers should prefer [`Txn::get_shared`]).
    pub fn get(&mut self, collection: &str, key: &Key) -> Result<Option<Value>> {
        Ok(self
            .get_shared(collection, key)?
            .map(|v| v.as_ref().clone()))
    }

    /// Fetch a record by key as a shared handle: the zero-copy point
    /// read (an `Arc` bump instead of a value tree clone).
    pub fn get_shared(&mut self, collection: &str, key: &Key) -> Result<Option<Arc<Value>>> {
        let (inner, state) = self.parts()?;
        let id = inner.catalog.read().get(collection)?.id;
        Ok(read_one(inner, state, RecordId::new(id, key.clone())))
    }

    /// All live `(key, value)` pairs of a collection at this transaction's
    /// read horizon, own writes applied, in key order (merged across
    /// shards) — [`Txn::rows`] with no predicate and no limit. Every row
    /// is an `Arc` bump on the stored version, never a value tree clone.
    pub fn scan_shared(&mut self, collection: &str) -> Result<Vec<(Key, Arc<Value>)>> {
        self.rows(collection, None, None)
    }

    /// The general read: the live records of a collection that match
    /// `pred` (all of them when `None`), in key order, at most `limit`.
    ///
    /// This is the one place a transaction's view of a collection is
    /// assembled:
    ///
    /// * **horizon** — latest-committed under `ReadCommitted`, else the
    ///   begin-time snapshot;
    /// * **access** — an equality on the primary key is a point read; a
    ///   non-`Null` equality or range on an indexed path probes the index
    ///   (candidates are re-validated at the horizon); anything else is
    ///   the key-ordered walk over every shard, which tests the
    ///   predicate on the stored values and clones only the rows it
    ///   returns;
    /// * **read set** — what a point or index read finds is noted; a walk
    ///   notes every record *examined*, not just matches, under `Serializable`;
    /// * **own writes** — buffered writes on the collection are laid over
    ///   the committed rows (a matching write replaces or adds its row, a
    ///   delete or a no-longer-matching overwrite removes it);
    /// * **limit** — pushed into the walk only when neither of the last
    ///   two applies (not `Serializable`, nothing buffered on the
    ///   collection); otherwise the result is assembled in full and
    ///   truncated, because rows past the cut could still change the
    ///   prefix or belong in the read set.
    ///
    /// ```
    /// use udbms_core::{obj, CollectionSchema, Key, Predicate, Value};
    /// use udbms_engine::{Engine, Isolation};
    ///
    /// let engine = Engine::new();
    /// engine.create_collection(CollectionSchema::key_value("orders"))?;
    /// let mut txn = engine.begin(Isolation::Snapshot);
    /// for i in 0..10 {
    ///     txn.put("orders", Key::int(i), obj! {"open" => i % 2 == 0})?;
    /// }
    /// let open = Predicate::eq("open", Value::Bool(true));
    /// let first = txn.rows("orders", Some(&open), Some(2))?;
    /// let keys: Vec<&Key> = first.iter().map(|(key, _)| key).collect();
    /// assert_eq!(keys, [&Key::int(0), &Key::int(2)]);
    /// assert_eq!(txn.rows("orders", None, None)?, txn.scan_shared("orders")?);
    /// # udbms_core::Result::Ok(())
    /// ```
    pub fn rows(
        &mut self,
        collection: &str,
        pred: Option<&Predicate>,
        limit: Option<usize>,
    ) -> Result<Vec<(Key, Arc<Value>)>> {
        let (inner, state) = self.parts()?;
        let (id, access) = plan_access(inner, collection, pred)?;
        Ok(assemble(inner, state, id, access, pred, limit))
    }

    /// [`Txn::rows`] without a limit, as a visit: `f` sees each matching
    /// row in key order until it breaks, and what it breaks with is
    /// returned.
    ///
    /// When `rows` would walk the shards with nothing to note and nothing
    /// to overlay (not `Serializable`, no buffered writes on the
    /// collection), `f` runs inside that walk on the stored value: no key
    /// is cloned, no refcount written, no row collected. The walk holds
    /// every shard's read guard, so `f` must not reach the engine through
    /// another handle (borrowing this `Txn` keeps it off this one). Any
    /// other read is assembled by `rows` first and then visited.
    pub fn for_each_row<B>(
        &mut self,
        collection: &str,
        pred: Option<&Predicate>,
        mut f: impl FnMut(&Arc<Value>) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>> {
        let (inner, state) = self.parts()?;
        let (id, access) = plan_access(inner, collection, pred)?;
        let overlay = state.writes.keys().any(|rid| rid.collection == id);
        if matches!(access, Access::Scan) && state.isolation != Isolation::Serializable && !overlay
        {
            return Ok(inner.storage.walk(id, state.read_ts(), |_, _, v| {
                match pred.is_none_or(|p| p.matches(v)) {
                    true => f(v),
                    false => ControlFlow::Continue(()),
                }
            }));
        }
        for (_, v) in assemble(inner, state, id, access, pred, None) {
            if let ControlFlow::Break(b) = f(&v) {
                return Ok(ControlFlow::Break(b));
            }
        }
        Ok(ControlFlow::Continue(()))
    }
}

/// The body of [`Txn::rows`], once the access path is chosen.
fn assemble(
    inner: &Inner,
    state: &mut TxnState,
    id: CollectionId,
    access: Access,
    pred: Option<&Predicate>,
    limit: Option<usize>,
) -> Vec<(Key, Arc<Value>)> {
    let matches = |v: &Value| pred.is_none_or(|p| p.matches(v));
    let serializable = state.isolation == Isolation::Serializable;
    let overlay = state.writes.keys().any(|rid| rid.collection == id);
    let pushed = limit.filter(|_| !serializable && !overlay);
    let mut rows: Vec<(Key, Arc<Value>)> = match access {
        Access::Point(key) => {
            // a primary-key equality admits no other key, so own
            // writes elsewhere cannot add matches: no overlay
            let hit = read_one(inner, state, RecordId::new(id, key.clone()));
            let hit = hit.filter(|v| matches(v) && limit != Some(0));
            return hit.map(|v| (key, v)).into_iter().collect();
        }
        Access::Candidates(keys) => {
            // segments concatenate in shard order and over-approximate;
            // sorted by the walk's kernel, each key's word taken once
            let mut keys: Vec<(u64, Key)> = keys.into_iter().map(|k| (order_word(&k), k)).collect();
            keys.sort_by(|(wa, a), (wb, b)| {
                key_order(OrderKey::new(a, *wa), OrderKey::new(b, *wb))
            });
            keys.dedup_by(|(_, a), (_, b)| a == b);
            let rids: Vec<RecordId> = keys
                .into_iter()
                .map(|(_, k)| RecordId::new(id, k))
                .collect();
            // batched validation: one lock per touched shard
            let values = read_many(inner, state, &rids);
            rids.into_iter()
                .zip(values)
                .filter_map(|(rid, v)| Some((rid.key, v.filter(|v| matches(v))?)))
                .take(pushed.unwrap_or(usize::MAX))
                .collect()
        }
        Access::Scan => {
            // only the rows returned are cloned out of the walk; with
            // nothing to note, it stops at the pushed limit
            let cap = pushed.unwrap_or(usize::MAX);
            let mut rows = Vec::new();
            let _ = inner.storage.walk(id, state.read_ts(), |key, seen, value| {
                if serializable {
                    state.note_read(RecordId::new(id, key.clone()), seen);
                }
                if matches(value) {
                    rows.push((key.clone(), Arc::clone(value)));
                    if rows.len() >= cap {
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            });
            rows
        }
    };
    if overlay {
        let mut merged: std::collections::BTreeMap<Key, Arc<Value>> = rows.into_iter().collect();
        for (rid, w) in &state.writes {
            if rid.collection != id {
                continue;
            }
            match w {
                Some(v) if matches(v) => {
                    merged.insert(rid.key.clone(), Arc::clone(v));
                }
                // buffered delete, or an overwrite that no longer matches
                _ => {
                    merged.remove(&rid.key);
                }
            }
        }
        rows = merged.into_iter().collect();
    }
    rows.truncate(limit.unwrap_or(usize::MAX));
    rows
}

/// How [`Txn::rows`] reaches the committed records `pred` can match.
fn plan_access(
    inner: &Inner,
    collection: &str,
    pred: Option<&Predicate>,
) -> Result<(CollectionId, Access)> {
    let catalog = inner.catalog.read();
    let info = catalog.get(collection)?;
    let id = info.id;
    let Some(pred) = pred else {
        return Ok((id, Access::Scan));
    };
    let pk_probe = (info.schema.primary_key.as_deref())
        .and_then(|pk| key_path(pred, pk))
        .and_then(|path| match pred.probe(path)? {
            Probe::Eq(v) => Key::new(v.clone()).ok(),
            Probe::Range(..) => None,
        });
    if let Some(key) = pk_probe {
        return Ok((id, Access::Point(key)));
    }
    // the first indexed path whose index can answer the predicate
    // (`Predicate::probe` says when one may); candidate keys are gathered
    // from every shard's segment of it (catalog before shards is the
    // documented lock order)
    let probed = catalog.indexed_paths(id).into_iter().find_map(|path| {
        let probe = pred.probe(path)?;
        inner.storage.index_lookup(id, path, probe)
    });
    if let Some(keys) = probed {
        return Ok((id, Access::Candidates(keys)));
    }
    Ok((id, Access::Scan))
}

/// The path of an equality conjunct of `pred` on the top-level field
/// `name`, borrowed from the predicate: a primary-key probe needs no
/// `FieldPath` of its own.
fn key_path<'p>(pred: &'p Predicate, name: &str) -> Option<&'p FieldPath> {
    match pred {
        Predicate::Eq(path, _) => match path.steps() {
            [PathStep::Key(k)] if k == name => Some(path),
            _ => None,
        },
        Predicate::And(ps) => ps.iter().find_map(|p| key_path(p, name)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engine;
    use udbms_core::{arr, obj, IndexKind};

    #[test]
    fn read_your_writes_inside_txn() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        t.put("feedback", Key::str("k"), Value::Int(1)).unwrap();
        assert_eq!(
            t.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(1))
        );
        t.delete("feedback", &Key::str("k")).unwrap();
        assert_eq!(t.get("feedback", &Key::str("k")).unwrap(), None);
        t.abort();
        // aborted writes never surface
        let mut t2 = e.begin(Isolation::Snapshot);
        assert_eq!(t2.get("feedback", &Key::str("k")).unwrap(), None);
    }

    #[test]
    fn select_uses_indexes_and_matches_scan() {
        let e = engine();
        e.create_index("orders", FieldPath::key("status"), IndexKind::Hash)
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            for i in 0..20 {
                t.insert(
                    "orders",
                    obj! {"status" => if i % 3 == 0 { "open" } else { "paid" }, "n" => i},
                )?;
            }
            Ok(())
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let pred = Predicate::eq("status", Value::from("open"));
        let via_index = t.rows("orders", Some(&pred), None).unwrap();
        let mut via_scan = t.scan_shared("orders").unwrap();
        via_scan.retain(|(_, v)| pred.matches(v));
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index.len(), 7);
    }

    #[test]
    fn index_candidates_revalidate_against_snapshot() {
        let e = engine();
        e.create_index("orders", FieldPath::key("status"), IndexKind::Hash)
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            t.put("orders", Key::int(1), obj! {"_id" => 1, "status" => "open"})
        })
        .unwrap();
        let mut old = e.begin(Isolation::Snapshot);
        // concurrent flip to paid
        e.run(Isolation::Snapshot, |t| {
            t.put("orders", Key::int(1), obj! {"_id" => 1, "status" => "paid"})
        })
        .unwrap();
        // the old snapshot still finds the order under "open"…
        let open_old = old
            .rows(
                "orders",
                Some(&Predicate::eq("status", Value::from("open"))),
                None,
            )
            .unwrap();
        assert_eq!(open_old.len(), 1);
        // …and a new snapshot does not, despite the stale index posting.
        let mut new = e.begin(Isolation::Snapshot);
        let open_new = new
            .rows(
                "orders",
                Some(&Predicate::eq("status", Value::from("open"))),
                None,
            )
            .unwrap();
        assert!(open_new.is_empty());
    }

    #[test]
    fn scan_merges_own_writes() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), Value::Int(10))?;
            t.put("feedback", Key::int(2), Value::Int(20))
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        t.put("feedback", Key::int(3), Value::Int(30)).unwrap();
        t.delete("feedback", &Key::int(1)).unwrap();
        t.put("feedback", Key::int(2), Value::Int(99)).unwrap();
        let scan = t.scan_shared("feedback").unwrap();
        assert_eq!(
            scan,
            vec![
                (Key::int(2), Arc::new(Value::Int(99))),
                (Key::int(3), Arc::new(Value::Int(30)))
            ]
        );
    }

    #[test]
    fn limited_scan_returns_key_order_prefix() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "feedback",
                (0..50).map(|i| (Key::int(i), Value::Int(i * 2))).collect(),
            )
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let full = t.scan_shared("feedback").unwrap();
        for limit in [0usize, 1, 7, 50, 99] {
            let got = t.rows("feedback", None, Some(limit)).unwrap();
            assert_eq!(got, full[..limit.min(full.len())].to_vec(), "limit {limit}");
        }
        // own writes force the fallback path and stay correct
        t.put("feedback", Key::int(-1), Value::Int(-2)).unwrap();
        let got = t.rows("feedback", None, Some(3)).unwrap();
        assert_eq!(got[0].0, Key::int(-1), "buffered row sorts first");
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn limited_predicate_read_matches_unlimited_prefix() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "feedback",
                (0..60)
                    .map(|i| (Key::int(i), obj! {"g" => i % 3, "n" => i}))
                    .collect(),
            )
        })
        .unwrap();
        let pred = Predicate::eq("g", Value::Int(1));
        let mut t = e.begin(Isolation::Snapshot);
        let full = t.rows("feedback", Some(&pred), None).unwrap();
        assert_eq!(full.len(), 20);
        for limit in [0usize, 1, 5, 20, 99] {
            let got = t.rows("feedback", Some(&pred), Some(limit)).unwrap();
            assert_eq!(got, full[..limit.min(full.len())].to_vec(), "limit {limit}");
        }
        // serializable transactions fall back (read set must stay full)
        let mut ser = e.begin(Isolation::Serializable);
        let got = ser.rows("feedback", Some(&pred), Some(5)).unwrap();
        assert_eq!(got, full[..5].to_vec());
        drop(ser);
        // the primary-key fast path honours the limit too
        e.run(Isolation::Snapshot, |t| {
            t.insert("customers", obj! {"id" => 1, "name" => "Ada"})
                .map(|_| ())
        })
        .unwrap();
        let pk_pred = Predicate::eq("id", Value::Int(1));
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.rows("customers", Some(&pk_pred), Some(1)).unwrap().len(),
            1
        );
        assert!(t
            .rows("customers", Some(&pk_pred), Some(0))
            .unwrap()
            .is_empty());
    }

    /// `n` rows `k → {g: k % 5}` hashed over `shards` partitions.
    fn mod5_engine(shards: usize, n: i64) -> crate::Engine {
        let e = crate::Engine::with_shards(shards);
        e.create_collection(udbms_core::CollectionSchema::key_value("kv"))
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "kv",
                (0..n).map(|k| (Key::int(k), obj! {"g" => k % 5})).collect(),
            )
        })
        .unwrap();
        e
    }

    #[test]
    fn rows_and_visits_push_down_predicate_and_limit() {
        for shards in [1usize, 3, 8] {
            let e = mod5_engine(shards, 200);
            let mut t = e.begin_read();
            let row = |k: i64| (Key::int(k), Arc::new(obj! {"g" => k % 5}));
            // unfiltered, unlimited: every row, in key order
            let all = t.rows("kv", None, None).unwrap();
            assert_eq!(all, (0..200).map(row).collect::<Vec<_>>());

            // predicate + limit: exactly the filtered rows' prefix, and a
            // visit that stops there sees no row past it
            let three = Predicate::eq("g", Value::Int(3));
            let full: Vec<_> = (0..200).filter(|k| k % 5 == 3).map(row).collect();
            for limit in [0usize, 1, 7, 40, 1000] {
                let want: Vec<_> = full.iter().take(limit).cloned().collect();
                let got = t.rows("kv", Some(&three), Some(limit)).unwrap();
                assert_eq!(got, want, "shards={shards} limit={limit}");
                let mut seen = Vec::new();
                let flow = t
                    .for_each_row("kv", Some(&three), |v| {
                        if seen.len() == limit {
                            return ControlFlow::Break(());
                        }
                        seen.push(v.as_ref().clone());
                        ControlFlow::Continue(())
                    })
                    .unwrap();
                let values: Vec<Value> = want.iter().map(|(_, v)| v.as_ref().clone()).collect();
                assert_eq!(seen, values, "shards={shards} limit={limit}");
                assert_eq!(flow.is_break(), limit < full.len());
            }
        }
    }

    #[test]
    fn visited_values_are_shared_not_copied() {
        let e = mod5_engine(4, 8);
        let visit = |t: &mut Txn| {
            let mut out = Vec::new();
            let _ = t
                .for_each_row("kv", None, |v| {
                    out.push(Arc::clone(v));
                    ControlFlow::<()>::Continue(())
                })
                .unwrap();
            out
        };
        let (mut a, mut b) = (e.begin_read(), e.begin(Isolation::Snapshot));
        let (first, second) = (visit(&mut a), visit(&mut b));
        let rows = a.rows("kv", None, None).unwrap();
        assert_eq!(first.len(), 8);
        for ((x, y), (_, z)) in first.iter().zip(&second).zip(&rows) {
            assert!(
                Arc::ptr_eq(x, y) && Arc::ptr_eq(x, z),
                "every read must hand out the stored allocation"
            );
        }
    }

    #[test]
    fn shared_reads_hand_out_the_same_allocation() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), obj! {"big" => "payload"})
        })
        .unwrap();
        let mut a = e.begin_read();
        let mut b = e.begin_read();
        let va = a.get_shared("feedback", &Key::int(1)).unwrap().unwrap();
        let vb = b.get_shared("feedback", &Key::int(1)).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&va, &vb),
            "both readers share the stored version"
        );
    }

    #[test]
    fn arrays_and_contains_work_through_engine() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.insert("orders", obj! {"tags" => arr!["rush", "eu"]})?;
            t.insert("orders", obj! {"tags" => arr!["bulk"]})?;
            t.insert("orders", obj! {"tags" => "rush"})?;
            Ok(())
        })
        .unwrap();
        let scanned = |pred: &Predicate| {
            let mut rows = e.begin_read().scan_shared("orders").unwrap();
            rows.retain(|(_, v)| pred.matches(v));
            rows
        };
        // an array compares whole; the scan is the reference
        let whole = Predicate::eq("tags", arr!["rush", "eu"]);
        let element = Predicate::eq("tags", Value::from("rush"));
        let before = [scanned(&whole), scanned(&element)];
        assert_eq!([before[0].len(), before[1].len()], [1, 1]);
        // a hash index on `tags` posts each value whole and answers both
        e.create_index("orders", FieldPath::key("tags"), IndexKind::Hash)
            .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let id = e.inner.catalog.read().get("orders").unwrap().id;
        for (pred, want) in [&whole, &element].into_iter().zip(before) {
            let path = FieldPath::key("tags");
            let probe = pred.probe(&path).unwrap();
            let candidates = e.inner.storage.index_lookup(id, &path, probe).unwrap();
            assert_eq!(candidates.len(), 1, "{pred:?} is answered by the index");
            assert_eq!(t.rows("orders", Some(pred), None).unwrap(), want);
        }
    }

    #[test]
    fn closed_txn_rejects_operations() {
        let e = engine();
        let t = e.begin(Isolation::Snapshot);
        let ts = t.commit().unwrap();
        assert!(ts >= Ts::ZERO);
        // commit consumed the txn; a new handle that was aborted:
        let mut t2 = e.begin(Isolation::Snapshot);
        t2.abort_in_place();
        assert!(matches!(
            t2.get("feedback", &Key::int(1)),
            Err(Error::TxnClosed(_))
        ));
    }
}
