//! The versioned record store at the heart of the unified backend.
//!
//! Every record of every model lives here as a **version chain**: its
//! `(commit_ts, value-or-tombstone)` pairs in commit order. A reader
//! with snapshot `S` sees the newest version with `commit_ts <= S`.
//! Chains are pruned by [`Storage::gc`] below the oldest active snapshot.
//! Chains sit in a slab; a hash index finds one by record id and an
//! ordered directory per collection walks them by key (see [`Storage`]).
//!
//! Since the sharding refactor the engine no longer holds one [`Storage`]
//! behind one lock: [`ShardedStorage`] partitions the key space into N
//! hash-addressed [`Shard`]s, each an independently locked `Storage` plus
//! the **index segments** for the keys it owns. Point operations lock one
//! shard; batches lock each touched shard once; `scan` merges the
//! per-shard sorted runs into one key-ordered iteration.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::{LockRank, TrackedRwLock};

use udbms_obs::{Histogram, Obs, Stamp};

use udbms_core::{CollectionId, FieldPath, Key, Ts, Value};
use udbms_relational::{Index, IndexKind};

/// Globally unique record address: which collection, which key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Owning collection.
    pub collection: CollectionId,
    /// Record key within the collection.
    pub key: Key,
}

impl RecordId {
    /// Construct a record id.
    pub fn new(collection: CollectionId, key: Key) -> RecordId {
        RecordId { collection, key }
    }
}

/// One committed version of a record. `value == None` is a tombstone
/// (the record was deleted at `commit_ts`).
///
/// The value is stored behind an [`Arc`] so readers hand out
/// reference-counted handles instead of deep-cloning the row: a scan of
/// N objects costs N pointer bumps, not N tree copies. Values are
/// immutable once installed (MVCC never mutates a committed version),
/// which is exactly the sharing contract `Arc<Value>` encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// Commit timestamp of the writing transaction.
    pub commit_ts: Ts,
    /// The value, or `None` for a delete.
    pub value: Option<Arc<Value>>,
}

/// One record's version chain, as it sits in the slab: the newest
/// version inline (a read of current data makes no hop past the slot)
/// and whatever history GC has not pruned yet behind it.
#[derive(Debug)]
struct Slot {
    newest: Version,
    /// Older versions in commit order; empty, and unallocated, for a
    /// record written once.
    older: Vec<Version>,
}

impl Slot {
    /// The newest version with `commit_ts <= snapshot`, if any.
    fn visible(&self, snapshot: Ts) -> Option<&Version> {
        if self.newest.commit_ts <= snapshot {
            return Some(&self.newest);
        }
        self.older.iter().rev().find(|v| v.commit_ts <= snapshot)
    }

    /// Every retained version, oldest first.
    fn versions(&self) -> impl Iterator<Item = &Version> {
        self.older.iter().chain(std::iter::once(&self.newest))
    }

    fn len(&self) -> usize {
        self.older.len() + 1
    }
}

/// The multi-version store: a slab of version chains under two indexes.
///
/// ```text
/// chains:      HashMap<RecordId, u32> ──┐            point reads
///                                       ├─► slots: Vec<Slot>  (+ free list)
/// directories: CollectionId ─► BTreeMap<Key, u32> ──┘   scans, GC, DDL
/// ```
///
/// Both indexes hold the same slot numbers. A point read hashes once and
/// lands on the chain; an ordered walk reads slot numbers off the
/// directory it is already iterating, so it neither builds a `RecordId`
/// nor hashes per row. A slot freed by GC or `drop_collection` goes on
/// the free list only after both indexes have forgotten it.
#[derive(Debug, Default)]
pub struct Storage {
    slots: Vec<Slot>,
    /// Slots no index refers to, for reuse by the next new record.
    free: Vec<u32>,
    chains: HashMap<RecordId, u32>,
    /// Ordered key directory per collection (keys that have a retained
    /// version; liveness is decided by the chain at read time).
    directories: HashMap<CollectionId, BTreeMap<Key, u32>>,
}

impl Storage {
    /// Empty storage.
    pub fn new() -> Storage {
        Storage::default()
    }

    fn slot_of(&self, rid: &RecordId) -> Option<&Slot> {
        self.chains.get(rid).map(|&i| &self.slots[i as usize])
    }

    /// The chains of one collection in key order.
    fn directory(&self, collection: CollectionId) -> impl Iterator<Item = (&Key, &Slot)> {
        self.directories
            .get(&collection)
            .into_iter()
            .flatten()
            .map(|(k, &i)| (k, &self.slots[i as usize]))
    }

    /// Every chain, in no particular order.
    fn live_slots(&self) -> impl Iterator<Item = &Slot> {
        self.chains.values().map(|&i| &self.slots[i as usize])
    }

    /// The newest version with `commit_ts <= snapshot`, if any.
    pub fn visible(&self, rid: &RecordId, snapshot: Ts) -> Option<&Version> {
        self.slot_of(rid)?.visible(snapshot)
    }

    /// The visible *value* (resolving tombstones to `None`).
    pub fn visible_value(&self, rid: &RecordId, snapshot: Ts) -> Option<&Arc<Value>> {
        self.visible(rid, snapshot).and_then(|v| v.value.as_ref())
    }

    /// The newest committed version regardless of snapshot (read-committed
    /// reads and commit-time validation).
    pub fn latest(&self, rid: &RecordId) -> Option<&Version> {
        self.slot_of(rid).map(|slot| &slot.newest)
    }

    /// Install a new version (called by the commit protocol, which
    /// guarantees `commit_ts` is newer than everything in the chain).
    pub fn install(&mut self, rid: RecordId, commit_ts: Ts, value: Option<Arc<Value>>) {
        let version = Version { commit_ts, value };
        match self.chains.entry(rid) {
            Entry::Occupied(e) => {
                let slot = &mut self.slots[*e.get() as usize];
                debug_assert!(
                    slot.newest.commit_ts < commit_ts,
                    "commit timestamps must be monotone per chain"
                );
                slot.older
                    .push(std::mem::replace(&mut slot.newest, version));
            }
            Entry::Vacant(e) => {
                let slot = Slot {
                    newest: version,
                    older: Vec::new(),
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.slots[i as usize] = slot;
                        i
                    }
                    None => {
                        // lint:allow(unwrap): 2^32 slots of 40 B exceed any memory this runs in
                        let i = u32::try_from(self.slots.len()).expect("slot number fits u32");
                        self.slots.push(slot);
                        i
                    }
                };
                let rid = e.key();
                self.directories
                    .entry(rid.collection)
                    .or_default()
                    .insert(rid.key.clone(), i);
                e.insert(i);
            }
        }
    }

    /// The single visibility walk behind every scan: every live
    /// `(key, commit_ts, value)` of a collection at `snapshot`, in key
    /// order, yielded lazily by reference.
    pub fn visible_entries(
        &self,
        collection: CollectionId,
        snapshot: Ts,
    ) -> impl Iterator<Item = (&Key, Ts, &Arc<Value>)> {
        self.directory(collection).filter_map(move |(k, slot)| {
            let v = slot.visible(snapshot)?;
            Some((k, v.commit_ts, v.value.as_ref()?))
        })
    }

    /// All `(key, value)` pairs of a collection live at `snapshot`, in key
    /// order. Values are shared handles, not copies.
    pub fn scan(&self, collection: CollectionId, snapshot: Ts) -> Vec<(Key, Arc<Value>)> {
        self.visible_entries(collection, snapshot)
            .map(|(k, _, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Number of keys of a collection with a retained version in this
    /// store (live or not); used as a cheap scan-size estimate.
    pub fn directory_len(&self, collection: CollectionId) -> usize {
        self.directories.get(&collection).map_or(0, BTreeMap::len)
    }

    /// Every value present in any retained version of a collection
    /// (used to rebuild over-approximating secondary indexes after GC).
    pub fn all_retained(&self, collection: CollectionId) -> Vec<(Key, Vec<&Value>)> {
        self.directory(collection)
            .filter_map(|(k, slot)| {
                let vals: Vec<&Value> =
                    slot.versions().filter_map(|v| v.value.as_deref()).collect();
                (!vals.is_empty()).then(|| (k.clone(), vals))
            })
            .collect()
    }

    /// Prune versions no snapshot at or after `watermark` can see: for
    /// each chain, drop everything older than the newest version with
    /// `commit_ts <= watermark`; drop chains whose only remnant is a
    /// tombstone. Returns `(versions_removed, chains_removed)`.
    pub fn gc(&mut self, watermark: Ts) -> (usize, usize) {
        let Storage {
            slots,
            free,
            chains,
            directories,
        } = self;
        let mut versions_removed = 0usize;
        let mut chains_removed = 0usize;
        for (&collection, dir) in directories.iter_mut() {
            dir.retain(|key, i| {
                let slot = &mut slots[*i as usize];
                if slot.newest.commit_ts > watermark {
                    // the newest version visible at the watermark stays
                    let keep_from = slot
                        .older
                        .iter()
                        .rposition(|v| v.commit_ts <= watermark)
                        .unwrap_or(0);
                    versions_removed += keep_from;
                    slot.older.drain(..keep_from);
                    return true;
                }
                versions_removed += slot.older.len();
                slot.older = Vec::new();
                if slot.newest.value.is_some() {
                    return true;
                }
                // a tombstone nobody can look under: forget the record
                versions_removed += 1;
                chains_removed += 1;
                chains.remove(&RecordId::new(collection, key.clone()));
                free.push(*i);
                false
            });
        }
        (versions_removed, chains_removed)
    }

    /// Total number of stored versions.
    pub fn version_count(&self) -> usize {
        self.live_slots().map(Slot::len).sum()
    }

    /// Number of record chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Length of the longest chain (mmbench's `count.max_chain_len`).
    pub fn max_chain_len(&self) -> usize {
        self.live_slots().map(Slot::len).max().unwrap_or(0)
    }

    /// Drop every record of a collection (DDL `drop`).
    pub fn drop_collection(&mut self, collection: CollectionId) {
        for (key, i) in self.directories.remove(&collection).unwrap_or_default() {
            self.chains.remove(&RecordId::new(collection, key));
            // release the values now; the slot itself waits for reuse
            let slot = &mut self.slots[i as usize];
            slot.newest.value = None;
            slot.older = Vec::new();
            self.free.push(i);
        }
    }
}

// ---------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------

/// FNV-1a with explicit little-endian integer folding, so a key maps to
/// the same shard on every run and platform (the WAL does not record
/// shard placement — replay must re-derive it).
struct StableHasher(u64);

impl StableHasher {
    fn new() -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// The stable shard index of a key among `shards` partitions. Collection
/// is deliberately not part of the address: a record's shard depends only
/// on its key, so WAL replay and cross-shard-count recovery agree.
pub fn shard_of(key: &Key, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h = StableHasher::new();
    key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// One storage partition: the version chains of the keys that hash here,
/// plus the **segments** of every secondary index restricted to those
/// keys. Guarded by a single lock inside [`ShardedStorage`], so a commit
/// installs versions *and* index postings for a shard under one
/// acquisition.
#[derive(Debug, Default)]
pub struct Shard {
    /// The shard-local version-chain store.
    pub store: Storage,
    /// Per-shard index segments, keyed like the catalog's definitions.
    segments: HashMap<(CollectionId, FieldPath), Index>,
}

impl Shard {
    /// Empty shard.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Install a version and (for non-tombstones) its index postings.
    pub fn install(&mut self, rid: RecordId, commit_ts: Ts, value: Option<Arc<Value>>) {
        if let Some(v) = &value {
            self.index_new_value(rid.collection, &rid.key, v.as_ref());
        }
        self.store.install(rid, commit_ts, value);
    }

    /// Create this shard's segment of a new index and backfill it from
    /// every retained version the shard holds (over-approximating, like
    /// the pre-shard design).
    pub fn create_index_segment(&mut self, id: CollectionId, path: &FieldPath, kind: IndexKind) {
        let mut idx = Index::new(kind);
        for (key, values) in self.store.all_retained(id) {
            for value in values {
                post_value(&mut idx, path, &key, value);
            }
        }
        self.segments.insert((id, path.clone()), idx);
    }

    /// Drop this shard's segment of an index.
    pub fn drop_index_segment(&mut self, id: CollectionId, path: &FieldPath) {
        self.segments.remove(&(id, path.clone()));
    }

    /// Borrow this shard's segment of an index.
    pub fn index_segment(&self, id: CollectionId, path: &FieldPath) -> Option<&Index> {
        self.segments.get(&(id, path.clone()))
    }

    /// Add postings for a newly committed value (arrays index per
    /// element), to every segment of the owning collection.
    pub fn index_new_value(&mut self, id: CollectionId, key: &Key, value: &Value) {
        for ((cid, path), idx) in &mut self.segments {
            if *cid == id {
                post_value(idx, path, key, value);
            }
        }
    }

    /// Drop a collection's chains and index segments.
    pub fn drop_collection(&mut self, id: CollectionId) {
        self.store.drop_collection(id);
        self.segments.retain(|(cid, _), _| *cid != id);
    }

    /// Prune version chains below `watermark`, then rebuild this shard's
    /// index segments from the retained versions (the shard-local half of
    /// the old catalog-wide rebuild).
    pub fn gc_and_rebuild(&mut self, watermark: Ts) -> (usize, usize) {
        let removed = self.store.gc(watermark);
        let touched: BTreeSet<CollectionId> = self.segments.keys().map(|(id, _)| *id).collect();
        for id in touched {
            let retained = self.store.all_retained(id);
            for ((cid, path), idx) in &mut self.segments {
                if *cid != id {
                    continue;
                }
                let mut fresh = Index::new(idx.kind());
                for (key, values) in &retained {
                    let mut seen: Vec<&Value> = Vec::new();
                    for value in values {
                        match value.get_path(path) {
                            Value::Array(items) => {
                                for item in items {
                                    if !seen.contains(&item) {
                                        seen.push(item);
                                        fresh.insert(item.clone(), key.clone());
                                    }
                                }
                            }
                            v => {
                                if !seen.contains(&v) {
                                    seen.push(v);
                                    fresh.insert(v.clone(), key.clone());
                                }
                            }
                        }
                    }
                }
                *idx = fresh;
            }
        }
        removed
    }
}

/// Index one value under `path` (arrays post per element).
fn post_value(idx: &mut Index, path: &FieldPath, key: &Key, value: &Value) {
    match value.get_path(path) {
        Value::Array(items) => {
            for item in items {
                idx.insert(item.clone(), key.clone());
            }
        }
        v => idx.insert(v.clone(), key.clone()),
    }
}

/// One scanned row: key, the commit timestamp of the version seen, and a
/// shared handle on its value.
pub type Row = (Key, Ts, Arc<Value>);

/// A predicate pushed into [`ShardedStorage::scan_iter`].
pub type RowFilter<'a> = &'a dyn Fn(&Value) -> bool;

/// N hash-addressed, independently locked storage partitions.
///
/// Lock discipline: shards are only ever locked in **ascending index
/// order** when an operation spans more than one (batch install, merged
/// scan, GC), and never while holding another shard's guard — except for
/// those ordered multi-shard walks. The catalog lock, when needed, is
/// acquired *before* any shard lock.
#[derive(Debug)]
pub struct ShardedStorage {
    shards: Vec<TrackedRwLock<Shard>>,
    /// Obs handles for the scan histograms, attached once by the engine
    /// (absent for bare `ShardedStorage` unit-test use).
    obs: std::sync::OnceLock<StorageObs>,
}

/// Pre-fetched scan-path obs handles.
#[derive(Debug)]
struct StorageObs {
    obs: Arc<Obs>,
    /// Run-building time of [`ShardedStorage::scan_iter`] (the eager,
    /// under-lock part of every scan).
    scan_ns: Arc<Histogram>,
}

impl ShardedStorage {
    /// `shards` partitions (clamped to at least one).
    pub fn new(shards: usize) -> ShardedStorage {
        let n = shards.max(1);
        ShardedStorage {
            shards: (0..n)
                .map(|i| TrackedRwLock::with_index(LockRank::Shard, i, Shard::new()))
                .collect(),
            obs: std::sync::OnceLock::new(),
        }
    }

    /// Attach the engine's obs handle (idempotent; first caller wins).
    /// Scan timing stays off until this is called.
    pub fn attach_obs(&self, obs: &Arc<Obs>) {
        let _ = self.obs.set(StorageObs {
            obs: Arc::clone(obs),
            scan_ns: obs.histogram("scan_ns"),
        });
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning a key.
    pub fn shard_of(&self, key: &Key) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Borrow a shard's lock by index (ascending-order discipline is the
    /// caller's responsibility for multi-shard walks).
    pub fn shard(&self, i: usize) -> &TrackedRwLock<Shard> {
        &self.shards[i]
    }

    /// Borrow the lock of the shard owning `key`.
    pub fn shard_for(&self, key: &Key) -> &TrackedRwLock<Shard> {
        &self.shards[self.shard_of(key)]
    }

    /// Group record ids by owning shard: returns one bucket per shard, in
    /// shard order (empty buckets included), so callers can lock each
    /// touched shard exactly once per batch.
    pub fn group_by_shard<'a, I>(&self, rids: I) -> Vec<Vec<&'a RecordId>>
    where
        I: IntoIterator<Item = &'a RecordId>,
    {
        let mut buckets: Vec<Vec<&'a RecordId>> = vec![Vec::new(); self.shards.len()];
        for rid in rids {
            buckets[self.shard_of(&rid.key)].push(rid);
        }
        buckets
    }

    /// The one multi-shard scan: a streaming k-way merge over the
    /// per-shard snapshot runs, with **predicate and limit pushdown**.
    ///
    /// Each shard's run is already sorted (per-shard ordered
    /// directories) and the key spaces are disjoint, so the merge is
    /// exact. Each shard is visited once under its read lock; the
    /// predicate is applied to borrowed values during that single
    /// visibility walk, and with a `limit` each shard contributes at most
    /// `limit` matches — the global first `limit` keys are always within
    /// the union of each shard's first `limit`. Only `Arc` handles are
    /// retained; nothing is deep cloned, and a `LIMIT n` query touches
    /// `O(shards × n)` entries instead of the whole collection.
    pub fn scan_iter(
        &self,
        collection: CollectionId,
        snapshot: Ts,
        pred: Option<RowFilter<'_>>,
        limit: Option<usize>,
    ) -> ScanIter {
        ScanIter::new(self.gather_runs(collection, snapshot, pred, limit), limit)
    }

    /// One key-sorted run of live, matching rows per shard.
    fn gather_runs(
        &self,
        collection: CollectionId,
        snapshot: Ts,
        pred: Option<RowFilter<'_>>,
        limit: Option<usize>,
    ) -> Vec<Vec<Row>> {
        let sobs = self.obs.get();
        let stamp = sobs.map_or(Stamp::NONE, |o| o.obs.start());
        let scan_one = |shard: &TrackedRwLock<Shard>| -> Vec<Row> {
            let s = shard.read();
            let mut run = Vec::new();
            for (k, ts, v) in s.store.visible_entries(collection, snapshot) {
                if pred.is_some_and(|p| !p(v)) {
                    continue;
                }
                run.push((k.clone(), ts, Arc::clone(v)));
                if limit.is_some_and(|n| run.len() >= n) {
                    break;
                }
            }
            run
        };
        let runs = self.shards.iter().map(scan_one).collect();
        if let Some(o) = sobs {
            o.obs.record_ns(&o.scan_ns, stamp);
        }
        runs
    }

    /// Candidate keys for an equality probe, concatenated across every
    /// shard's segment of the index (order across shards is arbitrary —
    /// callers re-validate and dedupe anyway).
    pub fn index_lookup_eq(&self, id: CollectionId, path: &FieldPath, value: &Value) -> Vec<Key> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            if let Some(idx) = s.index_segment(id, path) {
                out.extend(idx.lookup_eq(value));
            }
        }
        out
    }

    /// Candidate keys for a range probe, or `None` when the index kind
    /// does not support ranges (segments share one kind, so the first
    /// shard answers for all).
    pub fn index_lookup_range(
        &self,
        id: CollectionId,
        path: &FieldPath,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<Vec<Key>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            let idx = s.index_segment(id, path)?;
            out.extend(idx.lookup_range(lo, hi)?);
        }
        Some(out)
    }

    /// Run GC + index-segment rebuild on every shard; returns the summed
    /// `(versions_removed, chains_removed)`.
    pub fn gc(&self, watermark: Ts) -> (usize, usize) {
        let mut versions = 0;
        let mut chains = 0;
        for shard in &self.shards {
            let (v, c) = shard.write().gc_and_rebuild(watermark);
            versions += v;
            chains += c;
        }
        (versions, chains)
    }

    /// Drop a collection from every shard.
    pub fn drop_collection(&self, collection: CollectionId) {
        for shard in &self.shards {
            shard.write().drop_collection(collection);
        }
    }

    /// Aggregate `(versions, chains, max_chain_len)` across shards.
    pub fn shape(&self) -> (usize, usize, usize) {
        let mut versions = 0;
        let mut chains = 0;
        let mut max_chain = 0;
        for shard in &self.shards {
            let s = shard.read();
            versions += s.store.version_count();
            chains += s.store.chain_count();
            max_chain = max_chain.max(s.store.max_chain_len());
        }
        (versions, chains, max_chain)
    }
}

/// Lazily merged, key-ordered iterator over per-shard snapshot runs —
/// the return type of [`ShardedStorage::scan_iter`]. Holds only `Arc`
/// handles gathered under one read lock per shard; the merge itself is
/// item-at-a-time, so a consumer that stops early (`LIMIT`, first-match
/// probes) never pays for the tail.
#[derive(Debug)]
pub struct ScanIter {
    cursors: Vec<std::vec::IntoIter<Row>>,
    heads: Vec<Option<Row>>,
    remaining: usize,
}

impl ScanIter {
    fn new(runs: Vec<Vec<Row>>, limit: Option<usize>) -> ScanIter {
        let mut cursors: Vec<std::vec::IntoIter<Row>> = runs
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(Vec::into_iter)
            .collect();
        let heads = cursors.iter_mut().map(Iterator::next).collect();
        ScanIter {
            cursors,
            heads,
            remaining: limit.unwrap_or(usize::MAX),
        }
    }
}

impl Iterator for ScanIter {
    type Item = Row;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        // shard key spaces are disjoint, so the smallest head is unique
        let mut min: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((k, _, _)) = head {
                match min {
                    Some(m) => {
                        // lint:allow(unwrap): m indexes a head the loop saw as Some
                        if *k < self.heads[m].as_ref().expect("min head present").0 {
                            min = Some(i);
                        }
                    }
                    None => min = Some(i),
                }
            }
        }
        let m = min?;
        // lint:allow(unwrap): min was set only after observing heads[m].is_some()
        let item = self.heads[m].take().expect("selected head present");
        self.heads[m] = self.cursors[m].next();
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left: usize = self.heads.iter().flatten().count()
            + self
                .cursors
                .iter()
                .map(|c| c.as_slice().len())
                .sum::<usize>();
        let capped = left.min(self.remaining);
        (capped, Some(capped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const C: CollectionId = CollectionId(1);

    fn rid(k: i64) -> RecordId {
        RecordId::new(C, Key::int(k))
    }

    /// Wrap an owned value the way writers do.
    fn some(v: Value) -> Option<Arc<Value>> {
        Some(Arc::new(v))
    }

    /// The visible value as a plain `&Value` for assertions.
    fn seen(s: &Storage, r: &RecordId, ts: Ts) -> Option<Value> {
        s.visible_value(r, ts).map(|a| a.as_ref().clone())
    }

    #[test]
    fn visibility_follows_snapshots() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(100)));
        s.install(rid(1), Ts(20), some(Value::Int(200)));
        assert_eq!(seen(&s, &rid(1), Ts(5)), None, "before first commit");
        assert_eq!(seen(&s, &rid(1), Ts(10)), Some(Value::Int(100)));
        assert_eq!(seen(&s, &rid(1), Ts(15)), Some(Value::Int(100)));
        assert_eq!(seen(&s, &rid(1), Ts(20)), Some(Value::Int(200)));
        assert_eq!(seen(&s, &rid(1), Ts::MAX), Some(Value::Int(200)));
        assert_eq!(s.latest(&rid(1)).unwrap().commit_ts, Ts(20));
    }

    #[test]
    fn tombstones_hide_records() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(1), Ts(20), None);
        assert_eq!(seen(&s, &rid(1), Ts(15)), Some(Value::Int(1)));
        assert_eq!(seen(&s, &rid(1), Ts(25)), None);
        assert!(
            s.visible(&rid(1), Ts(25)).is_some(),
            "tombstone is a version"
        );
        assert_eq!(s.scan(C, Ts(15))[0].0, Key::int(1));
        assert!(s.scan(C, Ts(25)).is_empty());
    }

    #[test]
    fn scan_is_snapshot_consistent() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(2), Ts(20), some(Value::Int(2)));
        s.install(rid(1), Ts(30), None);
        let flat = |ts: Ts| -> Vec<(Key, Value)> {
            s.scan(C, ts)
                .into_iter()
                .map(|(k, v)| (k, v.as_ref().clone()))
                .collect()
        };
        assert_eq!(flat(Ts(10)), vec![(Key::int(1), Value::Int(1))]);
        assert_eq!(
            flat(Ts(20)),
            vec![(Key::int(1), Value::Int(1)), (Key::int(2), Value::Int(2))]
        );
        assert_eq!(flat(Ts(30)), vec![(Key::int(2), Value::Int(2))]);
        assert!(s.scan(CollectionId(99), Ts(30)).is_empty());
    }

    #[test]
    fn gc_prunes_history_not_visibility() {
        let mut s = Storage::new();
        for t in 1..=5 {
            s.install(rid(1), Ts(t * 10), some(Value::Int(t as i64)));
        }
        assert_eq!(s.version_count(), 5);
        let (removed, dead) = s.gc(Ts(35));
        assert_eq!(
            removed, 2,
            "versions at 10 and 20 are invisible to snapshots >= 35"
        );
        assert_eq!(dead, 0);
        assert_eq!(seen(&s, &rid(1), Ts(35)), Some(Value::Int(3)));
        assert_eq!(seen(&s, &rid(1), Ts(50)), Some(Value::Int(5)));
        assert_eq!(s.max_chain_len(), 3);
    }

    #[test]
    fn gc_removes_dead_tombstoned_chains() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(1), Ts(20), None);
        let (_, dead) = s.gc(Ts(30));
        assert_eq!(dead, 1);
        assert_eq!(s.chain_count(), 0);
        assert!(s.scan(C, Ts(40)).is_empty());
        // tombstone newer than the watermark must survive
        s.install(rid(2), Ts(50), some(Value::Int(2)));
        s.install(rid(2), Ts(60), None);
        let (_, dead) = s.gc(Ts(55));
        assert_eq!(
            dead, 0,
            "a snapshot at 55 still sees the value under the tombstone"
        );
    }

    #[test]
    fn all_retained_reports_every_live_version() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(1), Ts(20), some(Value::Int(2)));
        s.install(rid(2), Ts(30), None);
        let retained = s.all_retained(C);
        assert_eq!(retained.len(), 1, "tombstone-only chains carry no values");
        assert_eq!(retained[0].1.len(), 2);
    }

    #[test]
    fn drop_collection_erases_everything() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(
            RecordId::new(CollectionId(2), Key::int(1)),
            Ts(10),
            some(Value::Int(9)),
        );
        s.drop_collection(C);
        assert_eq!(s.chain_count(), 1);
        assert!(s.scan(C, Ts::MAX).is_empty());
        assert_eq!(s.scan(CollectionId(2), Ts::MAX).len(), 1);
    }

    #[test]
    fn freed_slots_are_reused_without_resurrection_or_aliasing() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(1), Ts(20), None);
        assert_eq!(s.gc(Ts(30)), (2, 1), "value, tombstone; the chain");
        assert_eq!((s.slots.len(), s.free.as_slice()), (1, &[0][..]));
        // another key takes the slot over
        s.install(rid(2), Ts(40), some(Value::Int(2)));
        assert_eq!((s.slots.len(), s.free.len()), (1, 0), "slot 0 reused");
        for ts in [Ts(15), Ts(25), Ts(40), Ts::MAX] {
            assert!(s.visible(&rid(1), ts).is_none(), "key 1 stays gone at {ts}");
        }
        assert!(s.latest(&rid(1)).is_none());
        // a snapshot older than the new tenant sees neither record
        assert!(s.scan(C, Ts(15)).is_empty());
        assert_eq!(seen(&s, &rid(2), Ts(39)), None);
        assert_eq!(seen(&s, &rid(2), Ts(40)), Some(Value::Int(2)));
        // the old key comes back as a record of its own
        s.install(rid(1), Ts(50), some(Value::Int(11)));
        assert_eq!(s.slots.len(), 2);
        assert_eq!(seen(&s, &rid(1), Ts(50)), Some(Value::Int(11)));
        assert_eq!(seen(&s, &rid(2), Ts(50)), Some(Value::Int(2)));
        assert_eq!(seen(&s, &rid(1), Ts(45)), None, "no history inherited");
        // dropping a collection frees its slots too
        s.drop_collection(C);
        assert_eq!((s.chain_count(), s.version_count()), (0, 0));
        assert_eq!(s.free.len(), 2);
    }

    /// The store as a plain map of chains, oldest version first.
    type Model = BTreeMap<(CollectionId, Key), Vec<Version>>;

    #[derive(Debug, Clone)]
    enum Op {
        /// `None` is a tombstone.
        Install(CollectionId, Key, Option<i64>),
        /// Watermark as a share (in eighths) of the clock so far.
        Gc(u64),
        Drop(CollectionId),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0usize..16, 0u32..3, 0i64..10, 0i64..100, 0u64..9).prop_map(|(kind, c, k, v, share)| {
            let c = CollectionId(c);
            // integer and string keys share a directory
            let key = if k < 6 {
                Key::int(k)
            } else {
                Key::str(format!("k{k}"))
            };
            match kind {
                0..=7 => Op::Install(c, key, Some(v)),
                8..=11 => Op::Install(c, key, None),
                12..=14 => Op::Gc(share),
                _ => Op::Drop(c),
            }
        })
    }

    fn model_gc(model: &mut Model, watermark: Ts) -> (usize, usize) {
        let (mut versions, mut chains) = (0, 0);
        model.retain(|_, chain| {
            let keep_from = chain
                .iter()
                .rposition(|v| v.commit_ts <= watermark)
                .unwrap_or(0);
            versions += keep_from;
            chain.drain(..keep_from);
            let dead =
                chain.len() == 1 && chain[0].value.is_none() && chain[0].commit_ts <= watermark;
            if dead {
                versions += 1;
                chains += 1;
            }
            !dead
        });
        (versions, chains)
    }

    fn model_visible<'m>(
        model: &'m Model,
        c: CollectionId,
        key: &Key,
        ts: Ts,
    ) -> Option<&'m Version> {
        let chain = model.get(&(c, key.clone()))?;
        chain.iter().rev().find(|v| v.commit_ts <= ts)
    }

    /// Live `(key, commit_ts, value)` rows of a collection at `ts`.
    fn model_rows(model: &Model, c: CollectionId, ts: Ts) -> Vec<Row> {
        model
            .keys()
            .filter(|(mc, _)| *mc == c)
            .filter_map(|(_, key)| {
                let v = model_visible(model, c, key, ts)?;
                Some((key.clone(), v.commit_ts, Arc::clone(v.value.as_ref()?)))
            })
            .collect()
    }

    fn check_store(s: &Storage, model: &Model, clock: u64) -> TestCaseResult {
        let snapshots = [
            Ts::ZERO,
            Ts(clock / 2),
            Ts(clock.saturating_sub(1)),
            Ts::MAX,
        ];
        for c in (0..4).map(CollectionId) {
            for ts in snapshots {
                let want: Vec<(Key, Arc<Value>)> = model_rows(model, c, ts)
                    .into_iter()
                    .map(|(k, _, v)| (k, v))
                    .collect();
                prop_assert_eq!(s.scan(c, ts), want, "scan {} at {}", c, ts);
            }
            let retained: Vec<(Key, Vec<&Value>)> = model
                .iter()
                .filter(|((mc, _), _)| *mc == c)
                .map(|((_, k), chain)| {
                    let values = chain.iter().filter_map(|v| v.value.as_deref());
                    (k.clone(), values.collect::<Vec<_>>())
                })
                .filter(|(_, values)| !values.is_empty())
                .collect();
            prop_assert_eq!(s.all_retained(c), retained, "all_retained {}", c);
            prop_assert_eq!(
                s.directory_len(c),
                model.keys().filter(|(mc, _)| *mc == c).count()
            );
            for k in 0..10 {
                for key in [Key::int(k), Key::str(format!("k{k}"))] {
                    let r = RecordId::new(c, key.clone());
                    for ts in snapshots {
                        prop_assert_eq!(
                            s.visible(&r, ts),
                            model_visible(model, c, &key, ts),
                            "visible {:?} at {}",
                            r,
                            ts
                        );
                    }
                    let latest = model.get(&(c, key)).and_then(|chain| chain.last());
                    prop_assert_eq!(s.latest(&r), latest, "latest {:?}", r);
                }
            }
        }
        prop_assert_eq!(s.chain_count(), model.len());
        prop_assert_eq!(
            s.version_count(),
            model.values().map(Vec::len).sum::<usize>()
        );
        prop_assert_eq!(
            s.max_chain_len(),
            model.values().map(Vec::len).max().unwrap_or(0)
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The slab and its two indexes against a map of chains, through
        /// install / tombstone / GC / drop / re-install on three
        /// collections; and the sharded scan over the same history.
        #[test]
        fn storage_behaves_like_a_map_of_chains(ops in prop::collection::vec(op(), 1..60)) {
            let mut store = Storage::new();
            let sharded: Vec<ShardedStorage> =
                [1, 3, 8].into_iter().map(ShardedStorage::new).collect();
            let mut model = Model::new();
            let mut clock = 0u64;
            for op in ops {
                match op.clone() {
                    Op::Install(c, key, value) => {
                        clock += 1;
                        let value = value.map(|v| Arc::new(Value::Int(v)));
                        store.install(RecordId::new(c, key.clone()), Ts(clock), value.clone());
                        for s in &sharded {
                            let rid = RecordId::new(c, key.clone());
                            s.shard_for(&key).write().install(rid, Ts(clock), value.clone());
                        }
                        model.entry((c, key)).or_default().push(Version {
                            commit_ts: Ts(clock),
                            value,
                        });
                    }
                    Op::Gc(share) => {
                        let watermark = Ts(clock * share / 8);
                        let want = model_gc(&mut model, watermark);
                        prop_assert_eq!(store.gc(watermark), want, "gc at {}", watermark);
                        for s in &sharded {
                            prop_assert_eq!(s.gc(watermark), want);
                        }
                    }
                    Op::Drop(c) => {
                        model.retain(|(mc, _), _| *mc != c);
                        store.drop_collection(c);
                        sharded.iter().for_each(|s| s.drop_collection(c));
                    }
                }
                check_store(&store, &model, clock)?;
            }
            // the merged scan, plain and with predicate and limit pushed down
            let even = |v: &Value| v.as_int().is_some_and(|i| i % 2 == 0);
            for s in &sharded {
                for c in (0..3).map(CollectionId) {
                    for ts in [Ts(clock / 2), Ts::MAX] {
                        let all = model_rows(&model, c, ts);
                        let evens: Vec<Row> =
                            all.iter().filter(|r| even(&r.2)).cloned().collect();
                        let shards = s.shard_count();
                        let got: Vec<Row> = s.scan_iter(c, ts, None, None).collect();
                        prop_assert_eq!(&got, &all, "{} shards, {} at {}", shards, c, ts);
                        let got: Vec<Row> = s.scan_iter(c, ts, Some(&even), None).collect();
                        prop_assert_eq!(&got, &evens, "{} shards, filtered", shards);
                        for limit in [0, 1, 3] {
                            let got: Vec<Row> =
                                s.scan_iter(c, ts, Some(&even), Some(limit)).collect();
                            prop_assert_eq!(got, evens.iter().take(limit).cloned().collect::<Vec<_>>());
                            let got: Vec<Row> = s.scan_iter(c, ts, None, Some(limit)).collect();
                            prop_assert_eq!(got, all.iter().take(limit).cloned().collect::<Vec<_>>());
                        }
                    }
                }
                prop_assert_eq!(
                    s.shape(),
                    (store.version_count(), store.chain_count(), store.max_chain_len())
                );
            }
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1usize, 2, 7, 8, 64] {
            for k in -200i64..200 {
                let key = Key::int(k);
                let s1 = shard_of(&key, n);
                let s2 = shard_of(&key, n);
                assert_eq!(s1, s2, "stable for the same key");
                assert!(s1 < n);
            }
            assert_eq!(shard_of(&Key::str("abc"), n), shard_of(&Key::str("abc"), n));
        }
        // single shard always maps to 0
        assert_eq!(shard_of(&Key::str("anything"), 1), 0);
    }

    #[test]
    fn shard_of_spreads_keys() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for k in 0..4000i64 {
            counts[shard_of(&Key::int(k), n)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (250..=750).contains(c),
                "shard {i} got {c} of 4000 keys — hash is badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn numeric_key_identity_shards_identically() {
        // Int(2) and Float(2.0) are equal keys (canonical numeric
        // identity) so they must land in the same shard
        let a = Key::new(Value::Int(2)).unwrap();
        let b = Key::new(Value::Float(2.0)).unwrap();
        assert_eq!(a, b);
        for n in [2usize, 8, 17] {
            assert_eq!(shard_of(&a, n), shard_of(&b, n));
        }
    }

    #[test]
    fn sharded_scan_merges_in_key_order() {
        let s = ShardedStorage::new(8);
        for k in 0..100i64 {
            let key = Key::int(k);
            let si = s.shard_of(&key);
            s.shard(si)
                .write()
                .install(RecordId::new(C, key), Ts(1), some(Value::Int(k)));
        }
        let rows: Vec<Row> = s.scan_iter(C, Ts::MAX, None, None).collect();
        assert_eq!(rows.len(), 100);
        for (i, (k, _, v)) in rows.iter().enumerate() {
            assert_eq!(k, &Key::int(i as i64), "key order after merge");
            assert_eq!(v.as_ref(), &Value::Int(i as i64));
        }
        let (versions, chains, max_chain) = s.shape();
        assert_eq!((versions, chains, max_chain), (100, 100, 1));
    }

    /// `n` rows `k → k % 5` hashed over `shards` partitions.
    fn mod5_store(shards: usize, n: i64) -> ShardedStorage {
        let s = ShardedStorage::new(shards);
        for k in 0..n {
            let key = Key::int(k);
            let si = s.shard_of(&key);
            s.shard(si)
                .write()
                .install(RecordId::new(C, key), Ts(1), some(Value::Int(k % 5)));
        }
        s
    }

    #[test]
    fn scan_iter_pushes_down_predicate_and_limit() {
        for shards in [1usize, 3, 8] {
            let s = mod5_store(shards, 200);
            let row = |k: i64| (Key::int(k), Ts(1), Arc::new(Value::Int(k % 5)));
            // unfiltered, unlimited: every row, in key order
            let streamed: Vec<Row> = s.scan_iter(C, Ts::MAX, None, None).collect();
            assert_eq!(streamed, (0..200).map(row).collect::<Vec<Row>>());

            // predicate + limit: exactly the filtered rows' prefix
            let matches = |v: &Value| v == &Value::Int(3);
            let full: Vec<Row> = (0..200).filter(|k| k % 5 == 3).map(row).collect();
            for limit in [0usize, 1, 7, 40, 1000] {
                let got: Vec<Row> = s
                    .scan_iter(C, Ts::MAX, Some(&matches), Some(limit))
                    .collect();
                let want: Vec<Row> = full.iter().take(limit).cloned().collect();
                assert_eq!(got, want, "shards={shards} limit={limit}");
            }
        }
    }

    #[test]
    fn scan_iter_values_are_shared_not_copied() {
        let s = ShardedStorage::new(4);
        let key = Key::int(7);
        let si = s.shard_of(&key);
        s.shard(si)
            .write()
            .install(RecordId::new(C, key), Ts(1), some(Value::Int(7)));
        let first: Vec<_> = s.scan_iter(C, Ts::MAX, None, None).collect();
        let second: Vec<_> = s.scan_iter(C, Ts::MAX, None, None).collect();
        assert!(
            Arc::ptr_eq(&first[0].2, &second[0].2),
            "both scans must hand out the same allocation"
        );
    }

    #[test]
    fn shard_segments_index_and_rebuild() {
        use udbms_core::obj;
        let mut shard = Shard::new();
        let path = FieldPath::key("status");
        shard.create_index_segment(C, &path, IndexKind::Hash);
        shard.install(
            RecordId::new(C, Key::int(1)),
            Ts(10),
            some(obj! {"status" => "open"}),
        );
        shard.install(
            RecordId::new(C, Key::int(2)),
            Ts(11),
            some(obj! {"status" => "open"}),
        );
        shard.install(
            RecordId::new(C, Key::int(1)),
            Ts(12),
            some(obj! {"status" => "paid"}),
        );
        let idx = shard.index_segment(C, &path).unwrap();
        // over-approximating: key 1 posted under both values
        assert_eq!(idx.lookup_eq(&Value::from("open")).len(), 2);
        assert_eq!(idx.lookup_eq(&Value::from("paid")), vec![Key::int(1)]);
        // GC below ts 12 prunes key 1's "open" version; rebuild drops it
        let (removed, _) = shard.gc_and_rebuild(Ts(12));
        assert!(removed >= 1);
        let idx = shard.index_segment(C, &path).unwrap();
        assert_eq!(idx.lookup_eq(&Value::from("open")), vec![Key::int(2)]);
        shard.drop_index_segment(C, &path);
        assert!(shard.index_segment(C, &path).is_none());
    }

    #[test]
    fn segment_backfill_covers_existing_data() {
        use udbms_core::obj;
        let mut shard = Shard::new();
        shard.install(
            RecordId::new(C, Key::int(7)),
            Ts(1),
            some(obj! {"tags" => udbms_core::arr!["a", "b"]}),
        );
        let path = FieldPath::key("tags");
        shard.create_index_segment(C, &path, IndexKind::Hash);
        let idx = shard.index_segment(C, &path).unwrap();
        assert_eq!(idx.lookup_eq(&Value::from("a")), vec![Key::int(7)]);
        assert_eq!(idx.lookup_eq(&Value::from("b")), vec![Key::int(7)]);
    }

    #[test]
    fn group_by_shard_buckets_every_rid_once() {
        let s = ShardedStorage::new(4);
        let rids: Vec<RecordId> = (0..40).map(|k| RecordId::new(C, Key::int(k))).collect();
        let groups = s.group_by_shard(rids.iter());
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 40);
        for (si, group) in groups.iter().enumerate() {
            for rid in group {
                assert_eq!(s.shard_of(&rid.key), si);
            }
        }
    }
}
