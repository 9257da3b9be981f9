//! The versioned record store at the heart of the unified backend.
//!
//! Every record of every model lives here as a **version chain**: its
//! `(commit_ts, value-or-tombstone)` pairs in commit order. A reader
//! with snapshot `S` sees the newest version with `commit_ts <= S`.
//! Chains are pruned below the oldest open snapshot: a commit cuts the
//! chains it read and rewrote ([`Shard::prune`]), [`Storage::gc`] sweeps
//! the rest.
//! Chains sit in a slab; a hash index finds one by record id and an
//! ordered directory per collection walks them by key (see [`Storage`]).
//!
//! Since the sharding refactor the engine no longer holds one [`Storage`]
//! behind one lock: [`ShardedStorage`] partitions the key space into N
//! hash-addressed [`Shard`]s, each an independently locked `Storage` plus
//! the **index segments** for the keys it owns. Point operations lock one
//! shard; batches lock each touched shard once; [`ShardedStorage::walk`]
//! holds every shard's read guard and merges their key-ordered
//! directories over borrowed keys into one key-ordered visit.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

use parking_lot::{LockRank, TrackedRwLock};

use udbms_obs::{Histogram, Obs, Stamp};

use udbms_core::{CollectionId, FieldPath, Index, IndexKind, Key, Probe, Ts, Value};

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
    /// The record key's [`order_word`], set whenever the slot is given
    /// to a key, so the merge orders rows without reading key bytes.
    word: u64,
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
    fn versions(&self) -> impl Iterator<Item = &Version> + Clone {
        self.older.iter().chain(std::iter::once(&self.newest))
    }

    /// The values of the retained versions (a tombstone has none).
    fn values(&self) -> impl Iterator<Item = &Value> + Clone {
        self.versions().filter_map(|v| v.value.as_deref())
    }

    /// Cut the history below the version visible at `horizon`, which
    /// stays with everything newer: the versions cut, oldest first, in a
    /// history emptied whole taking its buffer along (a buffer kept for
    /// the next rewrite slowed `point_rw`'s blind puts by a third).
    fn cut(&mut self, horizon: Ts) -> Vec<Version> {
        // the history at or below the horizon; the newest of it stays
        // unless `newest` is at or below the horizon too
        let n = self.older.partition_point(|v| v.commit_ts <= horizon);
        let keep_from = n - usize::from(n > 0 && self.newest.commit_ts > horizon);
        match keep_from {
            0 => Vec::new(),
            _ => {
                let kept = self.older.split_off(keep_from);
                std::mem::replace(&mut self.older, kept)
            }
        }
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

    fn slot_mut(&mut self, rid: &RecordId) -> Option<&mut Slot> {
        self.chains.get(rid).map(|&i| &mut self.slots[i as usize])
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
                    word: order_word(&e.key().key),
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.slots[i as usize] = slot;
                        i
                    }
                    None => {
                        #[expect(
                            clippy::expect_used,
                            reason = "2^32 slots of 48 B exceed any memory this runs in"
                        )]
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
        self.ordered_entries(collection, snapshot)
            .map(|(k, ts, v)| (k.key, ts, v))
    }

    /// [`Storage::visible_entries`] with each key's order word.
    fn ordered_entries(
        &self,
        collection: CollectionId,
        snapshot: Ts,
    ) -> impl Iterator<Item = (OrderKey<'_>, Ts, &Arc<Value>)> {
        self.directory(collection).filter_map(move |(k, slot)| {
            let v = slot.visible(snapshot)?;
            Some((OrderKey::new(k, slot.word), v.commit_ts, v.value.as_ref()?))
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

    /// Every value present in any retained version of a collection (a
    /// new index segment's backfill).
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
        self.sweep(watermark, |_, _, _, _| {})
    }

    /// [`Storage::gc`], handing each chain it cuts to `cut`: the record,
    /// what the chain keeps (`None` for a record forgotten whole) and the
    /// versions cut from it.
    fn sweep(
        &mut self,
        watermark: Ts,
        mut cut: impl FnMut(CollectionId, &Key, Option<&Slot>, &[Version]),
    ) -> (usize, usize) {
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
                // a tombstone nobody can look under: forget the record
                let dead = slot.newest.value.is_none() && slot.newest.commit_ts <= watermark;
                if slot.older.is_empty() && !dead {
                    return true;
                }
                let gone = slot.cut(watermark);
                versions_removed += gone.len() + usize::from(dead);
                if dead {
                    chains_removed += 1;
                    chains.remove(&RecordId::new(collection, key.clone()));
                    free.push(*i);
                }
                if !gone.is_empty() {
                    cut(collection, key, (!dead).then_some(&*slot), &gone);
                }
                !dead
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
///
/// A segment's postings are exactly `{(v, k) : some retained version of
/// k carries v at the path}`: [`Shard::install`] posts only what is not
/// posted for the record yet, and [`Shard::prune`] and [`Shard::gc`]
/// take out only what no version they keep carries.
#[derive(Debug, Default)]
pub struct Shard {
    /// The shard-local version-chain store.
    pub store: Storage,
    /// Per-shard index segments: each collection's, by path.
    segments: Segments,
}

/// A shard's index segments, found by collection without allocating: a
/// collection has a handful of indexes, so its paths are a short list.
type Segments = HashMap<CollectionId, Vec<(FieldPath, Index)>>;

impl Shard {
    /// Empty shard.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Install a version and (for non-tombstones) the postings the
    /// record does not have yet.
    pub fn install(&mut self, rid: RecordId, commit_ts: Ts, value: Option<Arc<Value>>) {
        let Shard { store, segments } = self;
        if let (Some(new), Some(segs)) = (value.as_deref(), segments.get_mut(&rid.collection)) {
            let newest = store.latest(&rid).and_then(|v| v.value.as_deref());
            for (path, idx) in segs {
                post(idx, path, &rid.key, new, newest);
            }
        }
        store.install(rid, commit_ts, value);
    }

    /// Cut `rid`'s chain below the version visible at `horizon` and take
    /// out the postings no version it keeps carries; the versions cut,
    /// for the caller to drop once it has released the shard.
    pub fn prune(&mut self, rid: &RecordId, horizon: Ts) -> Vec<Version> {
        let Shard { store, segments } = self;
        let Some(slot) = store.slot_mut(rid) else {
            return Vec::new();
        };
        let cut = slot.cut(horizon);
        unpost(segments, rid.collection, &rid.key, Some(slot), &cut);
        cut
    }

    /// Create this shard's segment of a new index and backfill it from
    /// every retained version the shard holds, each value posted once
    /// per key.
    pub fn create_index_segment(&mut self, id: CollectionId, path: &FieldPath, kind: IndexKind) {
        let mut idx = Index::new(kind);
        for (key, values) in self.store.all_retained(id) {
            for value in values {
                post(&mut idx, path, &key, value, None);
            }
        }
        let segs = self.segments.entry(id).or_default();
        segs.retain(|(p, _)| p != path);
        segs.push((path.clone(), idx));
    }

    /// Drop this shard's segment of an index.
    pub fn drop_index_segment(&mut self, id: CollectionId, path: &FieldPath) {
        if let Some(segs) = self.segments.get_mut(&id) {
            segs.retain(|(p, _)| p != path);
            if segs.is_empty() {
                self.segments.remove(&id);
            }
        }
    }

    /// Borrow this shard's segment of an index.
    pub fn index_segment(&self, id: CollectionId, path: &FieldPath) -> Option<&Index> {
        let segs = self.segments.get(&id)?;
        segs.iter().find(|(p, _)| p == path).map(|(_, idx)| idx)
    }

    /// Drop a collection's chains and index segments.
    pub fn drop_collection(&mut self, id: CollectionId) {
        self.store.drop_collection(id);
        self.segments.remove(&id);
    }

    /// Prune version chains below `watermark` (see [`Storage::gc`]),
    /// taking out the postings of what is cut.
    pub fn gc(&mut self, watermark: Ts) -> (usize, usize) {
        let Shard { store, segments } = self;
        store.sweep(watermark, |collection, key, kept, cut| {
            unpost(segments, collection, key, kept, cut);
        })
    }
}

/// Post `key` under what `value` carries at `path` unless the record's
/// `newest` value carries the same — by the postings invariant it is
/// posted already, without asking the index ([`Index::post`] asks).
fn post(idx: &mut Index, path: &FieldPath, key: &Key, value: &Value, newest: Option<&Value>) {
    if newest.is_none_or(|n| n.get_path(path) != value.get_path(path)) {
        idx.post(path, value, key);
    }
}

/// Take `key`'s postings of its `cut` versions out of the collection's
/// segments, except those a version it keeps still carries.
fn unpost(
    segments: &mut Segments,
    collection: CollectionId,
    key: &Key,
    kept: Option<&Slot>,
    cut: &[Version],
) {
    let Some(segs) = segments.get_mut(&collection) else {
        return;
    };
    for (path, idx) in segs {
        for value in cut.iter().filter_map(|v| v.value.as_deref()) {
            let v = value.get_path(path);
            let mut kept_values = kept.into_iter().flat_map(Slot::values);
            if !kept_values.any(|k| k.get_path(path) == v) {
                idx.unpost(path, value, key);
            }
        }
    }
}

/// A key's order word: for a `Str` key its first 8 bytes read
/// big-endian and zero-padded, for an `Int` key its value with the sign
/// bit flipped (so both compare unsigned); 0 for any other key.
///
/// Between two keys of one of those kinds, unequal words order the keys
/// as [`Key`]'s `Ord` does: the first byte where two padded prefixes
/// differ is a byte where the strings differ, or where the shorter one
/// has ended and the longer holds a nonzero byte. Equal words decide
/// nothing (`"ab"`, `"ab\0"` and `"abcdefgh…"` prefixes tie).
pub(crate) fn order_word(key: &Key) -> u64 {
    match key.value() {
        Value::Str(s) => {
            let mut word = [0u8; 8];
            word.iter_mut().zip(s.as_bytes()).for_each(|(w, b)| *w = *b);
            u64::from_be_bytes(word)
        }
        Value::Int(i) => (*i as u64) ^ (1 << 63),
        _ => 0,
    }
}

/// A key as the engine orders it: the key, its [`order_word`] and the
/// word's kind, read once off the key's type tag, so comparing two
/// words touches neither key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OrderKey<'k> {
    pub(crate) key: &'k Key,
    word: u64,
    kind: WordKind,
}

/// What an order word was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordKind {
    Str,
    Int,
    /// Any other key: the word is 0 and means nothing.
    None,
}

impl<'k> OrderKey<'k> {
    /// `key` with its order word.
    pub(crate) fn new(key: &'k Key, word: u64) -> OrderKey<'k> {
        let kind = match key.value() {
            Value::Str(_) => WordKind::Str,
            Value::Int(_) => WordKind::Int,
            _ => WordKind::None,
        };
        OrderKey { key, word, kind }
    }
}

/// The engine's one key-order kernel: two `Str` or two `Int` keys with
/// unequal words are ordered by the words alone, without touching a
/// string's heap bytes; only a tie or a mix of kinds compares the keys.
/// Agrees exactly with [`Key`]'s `Ord`.
#[inline]
pub(crate) fn key_order(a: OrderKey<'_>, b: OrderKey<'_>) -> Ordering {
    if a.kind == b.kind && a.kind != WordKind::None && a.word != b.word {
        return a.word.cmp(&b.word);
    }
    match (a.key.value(), b.key.value()) {
        // the same-type cases compared inline: through `canonical_cmp`
        // the 8-shard walk of 3 000 `Str` keys took ~470 µs, inline ~165
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        _ => a.key.cmp(b.key),
    }
}

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
    /// Time of every [`ShardedStorage::walk`], guards held, visitor
    /// included.
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

    /// The one multi-shard scan: every live `(key, commit_ts, value)` of
    /// a collection at `snapshot`, in key order, handed to `f` by
    /// reference until it breaks.
    ///
    /// Every shard's read guard is taken in ascending index order (the
    /// rank rule for multi-shard walks) and held for the whole walk, so
    /// the k-way merge compares keys borrowed from the shards'
    /// directories: nothing is cloned, refcounted or collected per row,
    /// and a visitor that stops early never pays for the tail. Each
    /// shard's directory is key-sorted and the key spaces are disjoint,
    /// so the merge is exact. `f` runs under every guard: it must not
    /// call back into the engine (a commit waiting on a shard it holds
    /// would never return).
    pub fn walk<B>(
        &self,
        collection: CollectionId,
        snapshot: Ts,
        mut f: impl FnMut(&Key, Ts, &Arc<Value>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let sobs = self.obs.get();
        let stamp = sobs.map_or(Stamp::NONE, |o| o.obs.start());
        let guards: Vec<_> = self.shards.iter().map(TrackedRwLock::read).collect();
        // (head, rest of its run) per shard that still has rows; a head
        // carries its key's order word, read off the slot, and its kind
        let mut heads: Vec<_> = guards
            .iter()
            .filter_map(|g| {
                let mut run = g.store.ordered_entries(collection, snapshot);
                Some((run.next()?, run))
            })
            .collect();
        let flow = loop {
            // a linear min over the heads; the smallest key is unique
            let mut m = 0;
            for i in 1..heads.len() {
                if key_order(heads[i].0 .0, heads[m].0 .0).is_lt() {
                    m = i;
                }
            }
            let Some((head, run)) = heads.get_mut(m) else {
                break ControlFlow::Continue(());
            };
            let (key, ts, value) = *head;
            if let ControlFlow::Break(b) = f(key.key, ts, value) {
                break ControlFlow::Break(b);
            }
            match run.next() {
                Some(next) => *head = next,
                None => {
                    let _ = heads.swap_remove(m);
                }
            }
        };
        drop(heads);
        drop(guards);
        if let Some(o) = sobs {
            o.obs.record_ns(&o.scan_ns, stamp);
        }
        flow
    }

    /// Candidate keys for `probe`, concatenated across every shard's
    /// segment of the index (order across shards is arbitrary — callers
    /// re-validate and dedupe anyway), or `None` when the index kind
    /// cannot answer it (segments share one kind, so the first shard
    /// answers for all).
    pub fn index_lookup(
        &self,
        id: CollectionId,
        path: &FieldPath,
        probe: Probe<'_>,
    ) -> Option<Vec<Key>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            if let Some(idx) = shard.read().index_segment(id, path) {
                out.extend(idx.lookup(probe)?);
            }
        }
        Some(out)
    }

    /// Cut each record's chain below the version visible at `horizon`
    /// ([`Shard::prune`]), each touched shard write-locked once, in
    /// ascending order.
    pub fn prune(&self, rids: &[&RecordId], horizon: Ts) {
        let mut garbage = Vec::new();
        for (si, group) in self.group_by_shard(rids.iter().copied()).iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut shard = self.shards[si].write();
            garbage.extend(group.iter().map(|rid| shard.prune(rid, horizon)));
        }
        // the values are freed here, with no shard held
        drop(garbage);
    }

    /// Run GC on every shard, one shard's write lock at a time; returns
    /// the summed `(versions_removed, chains_removed)`.
    pub fn gc(&self, watermark: Ts) -> (usize, usize) {
        let mut versions = 0;
        let mut chains = 0;
        for shard in &self.shards {
            let (v, c) = shard.write().gc(watermark);
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const C: CollectionId = CollectionId(1);

    /// One walked row: key, the commit timestamp of the version seen,
    /// and a shared handle on its value.
    type Row = (Key, Ts, Arc<Value>);

    /// The first `limit` rows of a walk, owned.
    fn walked(s: &ShardedStorage, c: CollectionId, ts: Ts, limit: usize) -> Vec<Row> {
        let mut rows = Vec::new();
        let _ = s.walk(c, ts, |k, ts, v| {
            if rows.len() == limit {
                return ControlFlow::Break(());
            }
            rows.push((k.clone(), ts, Arc::clone(v)));
            ControlFlow::Continue(())
        });
        rows
    }

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
            // the merged walk, to the end and stopped early
            for s in &sharded {
                for c in (0..3).map(CollectionId) {
                    for ts in [Ts(clock / 2), Ts::MAX] {
                        let all = model_rows(&model, c, ts);
                        let shards = s.shard_count();
                        let got = walked(s, c, ts, usize::MAX);
                        prop_assert_eq!(&got, &all, "{} shards, {} at {}", shards, c, ts);
                        for limit in [0, 1, 3] {
                            let got = walked(s, c, ts, limit);
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

    /// String keys the order word must see past: shared 8-byte
    /// prefixes, embedded `\0`s, the empty string, strings shorter and
    /// longer than a word, non-ASCII (a multi-byte character across
    /// byte 8 too).
    const STRS: [&str; 20] = [
        "",
        "\0",
        "a",
        "a\0",
        "a\0\0b",
        "ab",
        "abcdefg",
        "abcdefgh",
        "abcdefgh\0",
        "abcdefghi",
        "abcdefgi",
        "abcd\0fgh",
        "abcdzzzz",
        "O-000001",
        "O-000010",
        "é",
        "éa",
        "abcdefgé",
        "\u{10FFFF}",
        "zzzzzzzzz",
    ];

    /// A key of any kind: `Int`s at the extremes, random and small (so
    /// keys recur), `Float`s (integral ones equal to an `Int` key),
    /// `Bool`s, `Bytes` and two-part strings from [`STRS`].
    fn mixed_key() -> impl Strategy<Value = Key> {
        let parts = (0usize..STRS.len(), 0usize..STRS.len());
        (0usize..8, any::<i64>(), parts).prop_map(|(kind, i, (a, b))| {
            let small = i.rem_euclid(4);
            let value = match kind {
                0 => Value::Int([i64::MIN, i64::MAX, -1, 0][small as usize]),
                1 => Value::Int(i),
                2 => Value::Int(small - 2),
                3 => Value::Float([0.5, -1.5, -1.0, 1e300][small as usize]),
                4 => Value::Bool(small < 2),
                5 => Value::Bytes(STRS[a].as_bytes().to_vec()),
                _ => Value::Str(format!("{}{}", STRS[a], STRS[b])),
            };
            Key::new(value).unwrap()
        })
    }

    #[derive(Debug, Clone)]
    enum WalkOp {
        /// `false` installs a tombstone.
        Install(Key, bool),
        /// Watermark as a share (in eighths) of the clock so far.
        Gc(u64),
    }

    fn walk_op() -> impl Strategy<Value = WalkOp> {
        (0usize..10, mixed_key(), 0u64..9).prop_map(|(kind, key, share)| match kind {
            0..=5 => WalkOp::Install(key, true),
            6..=7 => WalkOp::Install(key, false),
            _ => WalkOp::Gc(share),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The merge orders rows by the order words its slots cache; at
        /// 1, 3 and 8 shards it visits keys in exactly `Key`'s `Ord`
        /// order, through tombstones and `gc` that free slots for new
        /// keys to reuse. The kernel agrees with `Ord` on every pair.
        #[test]
        fn walk_visits_keys_in_key_order(ops in prop::collection::vec(walk_op(), 1..80)) {
            let sharded: Vec<ShardedStorage> =
                [1, 3, 8].into_iter().map(ShardedStorage::new).collect();
            let mut model = Model::new();
            let mut keys = Vec::new();
            let mut clock = 0u64;
            for op in ops {
                match op {
                    WalkOp::Install(key, live) => {
                        clock += 1;
                        let value = live.then(|| Arc::new(Value::Int(clock as i64)));
                        for s in &sharded {
                            let rid = RecordId::new(C, key.clone());
                            s.shard_for(&key).write().install(rid, Ts(clock), value.clone());
                        }
                        model.entry((C, key.clone())).or_default().push(Version {
                            commit_ts: Ts(clock),
                            value,
                        });
                        keys.push(key);
                    }
                    WalkOp::Gc(share) => {
                        let watermark = Ts(clock * share / 8);
                        let want = model_gc(&mut model, watermark);
                        for s in &sharded {
                            prop_assert_eq!(s.gc(watermark), want, "gc at {}", watermark);
                        }
                    }
                }
                for ts in [Ts(clock / 2), Ts::MAX] {
                    let want: Vec<Key> = model_rows(&model, C, ts).into_iter().map(|r| r.0).collect();
                    for s in &sharded {
                        let got: Vec<Key> =
                            walked(s, C, ts, usize::MAX).into_iter().map(|r| r.0).collect();
                        prop_assert_eq!(got, want.clone(), "{} shards at {}", s.shard_count(), ts);
                    }
                }
            }
            for a in &keys {
                for b in &keys {
                    let kernel =
                        key_order(OrderKey::new(a, order_word(a)), OrderKey::new(b, order_word(b)));
                    prop_assert_eq!(kernel, a.cmp(b), "{:?} against {:?}", a, b);
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum PostOp {
        /// A value `{"s": scalar, "tags": [elements]}`, or a tombstone.
        Install(CollectionId, Key, Option<(Option<i64>, Vec<i64>)>),
        /// A commit's prune of one chain; horizon in eighths of the clock.
        Prune(CollectionId, Key, u64),
        Gc(u64),
        Drop(CollectionId),
        /// Drop and re-create the collection's segments (the backfill).
        Reindex(CollectionId),
    }

    fn post_op() -> impl Strategy<Value = PostOp> {
        let value = (0i64..5, prop::collection::vec(0i64..4, 0..4));
        (0usize..20, 0u32..2, 0i64..6, value, 0u64..9).prop_map(|(kind, c, k, (s, tags), share)| {
            let (c, key) = (CollectionId(c), Key::int(k));
            match kind {
                // s = 4 leaves the scalar path absent
                0..=8 => PostOp::Install(c, key, Some(((s < 4).then_some(s), tags))),
                9..=10 => PostOp::Install(c, key, None),
                11..=14 => PostOp::Prune(c, key, share),
                15..=16 => PostOp::Gc(share),
                17 => PostOp::Drop(c),
                _ => PostOp::Reindex(c),
            }
        })
    }

    /// The two indexed paths: a scalar in a B-tree, an array in a hash.
    fn indexed() -> [(FieldPath, IndexKind); 2] {
        [
            (FieldPath::key("s"), IndexKind::BTree),
            (FieldPath::key("tags"), IndexKind::Hash),
        ]
    }

    fn create_segments(s: &ShardedStorage, c: CollectionId) {
        for si in 0..s.shard_count() {
            for (path, kind) in indexed() {
                s.shard(si).write().create_index_segment(c, &path, kind);
            }
        }
    }

    /// Every `(value, key)` posting of a collection's segment on `path`,
    /// across shards, checking each bucket is non-empty and strictly
    /// key-sorted (so free of duplicates).
    fn postings(
        s: &ShardedStorage,
        c: CollectionId,
        path: &FieldPath,
    ) -> Result<Vec<(Value, Key)>, TestCaseError> {
        let mut out = Vec::new();
        for si in 0..s.shard_count() {
            let shard = s.shard(si).read();
            let buckets: Vec<(&Value, &Vec<Key>)> = match shard.index_segment(c, path) {
                Some(Index::Hash(m)) => m.iter().collect(),
                Some(Index::BTree(m)) => m.iter().collect(),
                None => Vec::new(),
            };
            for (v, keys) in buckets {
                prop_assert!(!keys.is_empty(), "empty bucket {} at {}", v, path);
                prop_assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "bucket {} at {} not strictly key-sorted: {:?}",
                    v,
                    path,
                    keys
                );
                out.extend(keys.iter().map(|k| (v.clone(), k.clone())));
            }
        }
        out.sort();
        Ok(out)
    }

    /// The model's postings: `{(v, k) : some retained version of k
    /// carries v at path}`, `Null` excluded and arrays whole.
    fn model_postings(model: &Model, c: CollectionId, path: &FieldPath) -> Vec<(Value, Key)> {
        let mut out = BTreeSet::new();
        for ((_, key), chain) in model
            .range((c, Key::int(i64::MIN))..)
            .take_while(|((mc, _), _)| *mc == c)
        {
            for value in chain.iter().filter_map(|v| v.value.as_deref()) {
                let v = value.get_path(path);
                if !v.is_null() {
                    out.insert((v.clone(), key.clone()));
                }
            }
        }
        out.into_iter().collect()
    }

    /// Cut a model chain below its version visible at `horizon`.
    fn model_cut(chain: &mut Vec<Version>, horizon: Ts) {
        let keep_from = chain
            .iter()
            .rposition(|v| v.commit_ts <= horizon)
            .unwrap_or(0);
        chain.drain(..keep_from);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Installs, tombstones, commit-time prunes, `gc`, drops and
        /// backfills at 1, 3 and 8 shards: after every step each segment
        /// holds exactly the postings of the retained versions, once.
        #[test]
        fn postings_are_exactly_the_retained_versions(ops in prop::collection::vec(post_op(), 1..80)) {
            let sharded: Vec<ShardedStorage> = [1, 3, 8].into_iter().map(ShardedStorage::new).collect();
            for s in &sharded {
                (0..2).for_each(|c| create_segments(s, CollectionId(c)));
            }
            let mut model = Model::new();
            let mut clock = 0u64;
            for op in ops {
                match op.clone() {
                    PostOp::Install(c, key, value) => {
                        clock += 1;
                        let value = value.map(|(scalar, tags)| {
                            let mut v = udbms_core::obj! {"tags" => Value::Array(tags.into_iter().map(Value::Int).collect())};
                            if let (Some(x), Value::Object(m)) = (scalar, &mut v) {
                                m.insert("s".into(), Value::Int(x));
                            }
                            Arc::new(v)
                        });
                        for s in &sharded {
                            let rid = RecordId::new(c, key.clone());
                            s.shard_for(&key).write().install(rid, Ts(clock), value.clone());
                        }
                        model.entry((c, key)).or_default().push(Version { commit_ts: Ts(clock), value });
                    }
                    PostOp::Prune(c, key, share) => {
                        let horizon = Ts(clock * share / 8);
                        let rid = RecordId::new(c, key.clone());
                        sharded.iter().for_each(|s| s.prune(&[&rid], horizon));
                        if let Some(chain) = model.get_mut(&(c, key)) {
                            model_cut(chain, horizon);
                        }
                    }
                    PostOp::Gc(share) => {
                        let watermark = Ts(clock * share / 8);
                        let want = model_gc(&mut model, watermark);
                        for s in &sharded {
                            prop_assert_eq!(s.gc(watermark), want, "gc at {}", watermark);
                        }
                    }
                    PostOp::Drop(c) => {
                        model.retain(|(mc, _), _| *mc != c);
                        for s in &sharded {
                            s.drop_collection(c);
                            create_segments(s, c);
                        }
                    }
                    PostOp::Reindex(c) => {
                        for s in &sharded {
                            for si in 0..s.shard_count() {
                                for (path, _) in indexed() {
                                    s.shard(si).write().drop_index_segment(c, &path);
                                }
                            }
                            create_segments(s, c);
                        }
                    }
                }
                let versions: usize = model.values().map(Vec::len).sum();
                for s in &sharded {
                    prop_assert_eq!(s.shape().0, versions, "after {:?}", op);
                    for c in (0..2).map(CollectionId) {
                        for (path, _) in indexed() {
                            let want = model_postings(&model, c, &path);
                            prop_assert_eq!(
                                postings(s, c, &path)?, want,
                                "{} shard(s), {} at {} after {:?}", s.shard_count(), c, path, op
                            );
                        }
                    }
                }
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
        let rows = walked(&s, C, Ts::MAX, usize::MAX);
        assert_eq!(rows.len(), 100);
        for (i, (k, _, v)) in rows.iter().enumerate() {
            assert_eq!(k, &Key::int(i as i64), "key order after merge");
            assert_eq!(v.as_ref(), &Value::Int(i as i64));
        }
        let (versions, chains, max_chain) = s.shape();
        assert_eq!((versions, chains, max_chain), (100, 100, 1));
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
        let keys = |shard: &Shard, v: &str| {
            let idx = shard.index_segment(C, &path).unwrap();
            idx.lookup(Probe::Eq(&Value::from(v))).unwrap()
        };
        // both retained versions of key 1 are posted
        assert_eq!(keys(&shard, "open").len(), 2);
        assert_eq!(keys(&shard, "paid"), vec![Key::int(1)]);
        // GC below ts 12 prunes key 1's "open" version and its posting
        let (removed, _) = shard.gc(Ts(12));
        assert!(removed >= 1);
        assert_eq!(keys(&shard, "open"), vec![Key::int(2)]);
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
        let keys = |v: Value| idx.lookup(Probe::Eq(&v)).unwrap();
        // the array is posted whole, as an equality compares it
        assert_eq!(keys(udbms_core::arr!["a", "b"]), vec![Key::int(7)]);
        assert_eq!(keys(Value::from("a")), Vec::<Key>::new());
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
