//! `COLLECT`'s group table: group keys in one flat slab, found through
//! an open-addressed index over a keyed folded-multiply hash.
//!
//! A row's key is hashed once and probed once; a probe compares the
//! stored hash, then the key values where they lie in the slab. A new
//! group moves the row's key values in, cloning nothing. Group numbers
//! are handed out in order of first appearance.
//!
//! The hash is foldhash's construction on std alone: input words are
//! gathered 128 bits at a time and folded into the state by one
//! `u64 × u64 → u128` multiply whose halves are XORed together, and
//! `finish` folds the state once more, so high input bits reach the low
//! bits the index buckets on under every table's keys. Its two keys are
//! drawn per table from std's `RandomState`, the key source of std's
//! SipHash: stored data is written before the table draws its keys, so
//! it cannot be chosen to collide. Unlike SipHash it is no PRF, so it
//! promises nothing against input adapted to one table's observed
//! timings; a table lives for one query over data already stored.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

use udbms_core::{Error, Result, Value};

/// The group table. `width` key values per group.
pub(crate) struct GroupTable {
    width: usize,
    /// Group `g`'s key values at `g * width..`.
    keys: Vec<Value>,
    /// Group `g`'s key hash.
    hashes: Vec<u64>,
    /// Open-addressed, linearly probed: `g + 1` for group `g`, `0` for a
    /// free bucket. A power of two in size, at most half full.
    buckets: Vec<u32>,
    /// The hash's keys: the initial state and the fold seed.
    seed: (u64, u64),
}

impl GroupTable {
    /// An empty table for keys of `width` values.
    pub(crate) fn new(width: usize) -> GroupTable {
        let state = RandomState::new();
        GroupTable {
            width,
            keys: Vec::new(),
            hashes: Vec::new(),
            buckets: vec![0; 16],
            seed: (state.hash_one(0u8), state.hash_one(1u8)),
        }
    }

    /// The number of groups.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The group number of `key`, and whether it is new. A new group
    /// takes `key`'s values, leaving it empty.
    pub(crate) fn group(&mut self, key: &mut Vec<Value>) -> Result<(usize, bool)> {
        self.group_hashed(self.hash(key), key)
    }

    /// The keyed hash of a key's values.
    fn hash(&self, key: &[Value]) -> u64 {
        let mut h = FoldHasher::new(self.seed);
        key.iter().for_each(|v| v.hash(&mut h));
        h.finish()
    }

    /// [`GroupTable::group`] for a key whose hash is `hash`.
    fn group_hashed(&mut self, hash: u64, key: &mut Vec<Value>) -> Result<(usize, bool)> {
        let mask = self.buckets.len() - 1;
        let mut at = hash as usize & mask;
        while let Some(g) = self.buckets[at].checked_sub(1) {
            let g = g as usize;
            if self.hashes[g] == hash && self.keys[g * self.width..][..self.width] == key[..] {
                return Ok((g, false));
            }
            at = (at + 1) & mask;
        }
        let g = self.hashes.len();
        self.buckets[at] = u32::try_from(g + 1)
            .map_err(|_| Error::Unsupported(format!("COLLECT into more than {g} groups")))?;
        self.hashes.push(hash);
        self.keys.append(key);
        if 2 * self.hashes.len() > self.buckets.len() {
            self.grow();
        }
        Ok((g, true))
    }

    /// Double the index and re-enter every group from its stored hash.
    fn grow(&mut self) {
        let mut buckets = vec![0u32; 2 * self.buckets.len()];
        let mask = buckets.len() - 1;
        for (tag, &hash) in (1..).zip(&self.hashes) {
            let mut at = hash as usize & mask;
            while buckets[at] != 0 {
                at = (at + 1) & mask;
            }
            buckets[at] = tag;
        }
        self.buckets = buckets;
    }

    /// The key slab: group `g`'s values at `g * width..`.
    pub(crate) fn into_keys(self) -> Vec<Value> {
        self.keys
    }
}

/// `a × b` as a 128-bit product, its halves XORed.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    full as u64 ^ (full >> 64) as u64
}

/// The table's hasher: writes fill a 128-bit sponge, and each full
/// sponge (and `finish`) folds it into the state with one multiply.
struct FoldHasher {
    acc: u64,
    fold_seed: u64,
    sponge: u128,
    sponge_bits: u32,
}

impl FoldHasher {
    fn new((acc, fold_seed): (u64, u64)) -> FoldHasher {
        FoldHasher {
            acc,
            fold_seed,
            sponge: 0,
            sponge_bits: 0,
        }
    }

    fn fold(&self) -> u64 {
        let (lo, hi) = (self.sponge as u64, (self.sponge >> 64) as u64);
        folded_multiply(lo ^ self.acc, hi ^ self.fold_seed)
    }

    fn absorb(&mut self, x: u64, bits: u32) {
        if self.sponge_bits + bits > 128 {
            self.acc = self.fold();
            (self.sponge, self.sponge_bits) = (0, 0);
        }
        self.sponge |= u128::from(x) << self.sponge_bits;
        self.sponge_bits += bits;
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        // the length first: zero padding of the tail cannot alias
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.absorb(i.into(), 8);
    }

    fn write_u16(&mut self, i: u16) {
        self.absorb(i.into(), 16);
    }

    fn write_u32(&mut self, i: u32) {
        self.absorb(i.into(), 32);
    }

    fn write_u64(&mut self, i: u64) {
        self.absorb(i, 64);
    }

    fn write_usize(&mut self, i: usize) {
        self.absorb(i as u64, 64);
    }

    fn finish(&self) -> u64 {
        let h = match self.sponge_bits {
            0 => self.acc,
            _ => self.fold(),
        };
        // one more fold: a single one left a table in ~90 with some
        // high key bits barely reaching the low bits the index uses
        folded_multiply(h, 0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Keys that differ only above bit 40 spread over the low bits the
    /// index buckets on, under every table's keys. An unkeyed multiply
    /// hash (Fx's rotate, XOR, multiply) leaves those bits equal for all
    /// of them.
    #[test]
    fn high_key_bits_reach_the_low_hash_bits() {
        let keys: Vec<Value> = (0..4096i64).map(|k| Value::Int(k << 40)).collect();
        let low16 = |h: u64| h & 0xffff;
        for _ in 0..64 {
            let table = GroupTable::new(1);
            let folded: HashSet<u64> = (keys.iter())
                .map(|k| low16(table.hash(std::slice::from_ref(k))))
                .collect();
            let seed = table.seed;
            assert!(
                folded.len() >= 3800,
                "{} distinct under {seed:x?}",
                folded.len()
            );
        }

        struct Fx(u64);
        impl Hasher for Fx {
            fn write(&mut self, bytes: &[u8]) {
                bytes.iter().for_each(|b| self.write_u64((*b).into()));
            }
            fn write_u64(&mut self, i: u64) {
                self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        let fx: HashSet<u64> = (keys.iter())
            .map(|k| {
                let mut h = Fx(0);
                k.hash(&mut h);
                low16(h.finish())
            })
            .collect();
        assert_eq!(fx.len(), 1);
    }

    /// Unequal keys entered under one fixed hash share a probe sequence,
    /// and each still gets its own group — also across regrowths of the
    /// index.
    #[test]
    fn unequal_keys_under_one_hash_get_their_own_groups() {
        let mut table = GroupTable::new(1);
        for round in 0..2 {
            for k in 0..40i64 {
                let (g, new) = table.group_hashed(7, &mut vec![Value::Int(k)]).unwrap();
                assert_eq!((g, new), (k as usize, round == 0));
            }
        }
        assert_eq!(table.len(), 40);
    }
}
