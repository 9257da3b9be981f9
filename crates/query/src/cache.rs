//! The plan cache: query text → parsed [`Query`], first in, first out.
//!
//! Parsing is pure per query text, so repeated preparations of the same
//! statement pay for it once. The cache is keyed by the query's own
//! text (the `Arc<str>` inside [`Query`], shared by the key, the
//! insertion queue and the plan), stores the parsed statement behind an
//! `Arc` (hits share one allocation across client threads) and, past
//! its capacity of 128 plans, evicts the oldest insertion. A hit is a
//! lookup and refreshes nothing: the traffic this serves either
//! prepares each text once or cycles more texts than fit (DESIGN.md §4),
//! so no recency policy would turn a miss into a hit. Hits, misses and
//! parse latency are counted once, in the [`Obs`] the cache is built
//! against.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::{LockRank, TrackedMutex};

use udbms_obs::{Counter, Histogram, Obs};

use udbms_core::Result;

use crate::Query;

/// Plans held before the oldest is evicted.
const CAPACITY: usize = 128;

#[derive(Debug, Default)]
struct Shelf {
    /// text → parsed query; each key is the plan's own `text`.
    plans: HashMap<Arc<str>, Arc<Query>>,
    /// The keys of `plans`, oldest insertion first.
    order: VecDeque<Arc<str>>,
}

/// A FIFO cache of parsed queries, safe to share across client threads.
/// The shelf mutex is rank-tracked ([`LockRank::PlanCache`], last in the
/// engine-wide order): it nests inside anything but must never wrap an
/// engine lock acquisition.
#[derive(Debug)]
pub struct PlanCache {
    shelf: TrackedMutex<Shelf>,
    obs: Arc<Obs>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    parse_ns: Arc<Histogram>,
}

impl Default for PlanCache {
    /// A cache counting into a disabled [`Obs`] of its own: the counters
    /// count, parses go untimed.
    fn default() -> Self {
        PlanCache::new(&Obs::disabled())
    }
}

impl PlanCache {
    /// A cache that counts hits and misses in `obs`'s `plan_cache_hits`
    /// and `plan_cache_misses` counters (which `Engine::stats()` reads
    /// when `obs` is an engine's) and times fresh parses into
    /// `plan_parse_ns`.
    pub fn new(obs: &Arc<Obs>) -> PlanCache {
        PlanCache {
            shelf: TrackedMutex::new(LockRank::PlanCache, Shelf::default()),
            obs: Arc::clone(obs),
            hits: obs.counter("plan_cache_hits"),
            misses: obs.counter("plan_cache_misses"),
            parse_ns: obs.histogram("plan_parse_ns"),
        }
    }

    /// The parsed query for `text`: a shared handle on a hit, a fresh
    /// parse (inserted, possibly evicting the oldest entry) on a miss.
    /// Parse errors are returned and cached by nobody — a bad query
    /// text stays cheap to reject but never occupies a slot.
    pub fn get_or_parse(&self, text: &str) -> Result<Arc<Query>> {
        let hit = self.shelf.lock().plans.get(text).cloned();
        if let Some(plan) = hit {
            self.hits.inc();
            return Ok(plan);
        }
        // parse outside the lock: misses don't serialize other clients
        let stamp = self.obs.start();
        let parsed = Arc::new(Query::parse(text)?);
        self.obs.record_ns(&self.parse_ns, stamp);
        self.misses.inc();
        let mut shelf = self.shelf.lock();
        let Shelf { plans, order } = &mut *shelf;
        // another client may have parsed the same text meanwhile
        if let Entry::Vacant(slot) = plans.entry(Arc::clone(&parsed.text)) {
            slot.insert(Arc::clone(&parsed));
            order.push_back(Arc::clone(&parsed.text));
        }
        let evicted = if order.len() > CAPACITY {
            order.pop_front().and_then(|oldest| plans.remove(&oldest))
        } else {
            None
        };
        drop(shelf);
        // the evicted plan is freed here, after the guard
        drop(evicted);
        Ok(parsed)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses (fresh parses) so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.shelf.lock().plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_share_one_parse() {
        let cache = PlanCache::default();
        let a = cache.get_or_parse("RETURN 1 + 1").unwrap();
        let b = cache.get_or_parse("RETURN 1 + 1").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must reuse the parsed plan");
        assert!(
            std::ptr::eq(a.text().as_ptr(), b.text().as_ptr()),
            "the key is the plan's own text"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fifo_evicts_the_oldest_insertion_and_hits_refresh_nothing() {
        let cache = PlanCache::default();
        let text = |i: usize| format!("RETURN {i}");
        for i in 0..CAPACITY {
            cache.get_or_parse(&text(i)).unwrap();
        }
        // a hit on the oldest entry does not make it younger
        cache.get_or_parse(&text(0)).unwrap();
        assert_eq!(cache.hits(), 1);
        cache.get_or_parse(&text(CAPACITY)).unwrap(); // evicts text(0)
        assert_eq!(cache.len(), CAPACITY);
        cache.get_or_parse(&text(1)).unwrap();
        assert_eq!(cache.hits(), 2, "text(1) stayed resident");
        cache.get_or_parse(&text(0)).unwrap();
        assert_eq!(
            cache.misses(),
            CAPACITY as u64 + 2,
            "text(0) was evicted despite its hit and parsed again"
        );
        assert_eq!(
            cache.len(),
            CAPACITY,
            "re-inserting text(0) evicted text(1)"
        );
        cache.get_or_parse(&text(1)).unwrap();
        assert_eq!(cache.misses(), CAPACITY as u64 + 3);
    }

    #[test]
    fn attached_obs_mirrors_counters() {
        let obs = Arc::new(Obs::new(true));
        let cache = PlanCache::new(&obs);
        cache.get_or_parse("RETURN 1").unwrap(); // miss
        cache.get_or_parse("RETURN 1").unwrap(); // hit
        let snap = obs.snapshot();
        assert_eq!(snap.counter("plan_cache_hits"), cache.hits());
        assert_eq!(snap.counter("plan_cache_misses"), cache.misses());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(snap.histogram("plan_parse_ns").map(|h| h.count), Some(1));
    }

    #[test]
    fn parse_errors_occupy_no_slot() {
        let cache = PlanCache::default();
        assert!(cache.get_or_parse("FOR x IN").is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }
}
