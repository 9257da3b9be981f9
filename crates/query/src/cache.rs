//! A small LRU plan cache: query text → parsed [`Query`].
//!
//! Parsing (lex + parse + plan-relevant analysis) is pure per query
//! text, so repeated preparations of the same statement — the shape of
//! every benchmark loop and most application traffic — should pay for
//! it once. The cache is keyed by the exact source text, stores the
//! parsed statement behind an `Arc` (hits share one allocation across
//! client threads), and evicts least-recently-used entries beyond its
//! capacity. Hit/miss counters are exposed so drivers can surface cache
//! effectiveness next to their other counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{LockRank, TrackedMutex};

use udbms_obs::{Counter, Histogram, Obs, Stamp};

use udbms_core::Result;

use crate::Query;

/// Default number of cached plans when none is given.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

#[derive(Debug, Default)]
struct Shelf {
    /// text → (parsed query, recency stamp).
    plans: HashMap<String, (Arc<Query>, u64)>,
    /// Monotone recency clock (bumped on every touch).
    tick: u64,
}

/// An LRU cache of parsed queries, safe to share across client threads.
/// The shelf mutex is rank-tracked ([`LockRank::PlanCache`], last in the
/// engine-wide order): it nests inside anything but must never wrap an
/// engine lock acquisition.
#[derive(Debug)]
pub struct PlanCache {
    shelf: TrackedMutex<Shelf>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Engine obs handles, attached by the driver so cache hit/miss
    /// counters and parse latency show up in `Engine::obs_snapshot()`.
    obs: std::sync::OnceLock<CacheObs>,
}

/// Pre-fetched obs handles (see [`PlanCache::attach_obs`]).
#[derive(Debug)]
struct CacheObs {
    obs: Arc<Obs>,
    hit_counter: Arc<Counter>,
    miss_counter: Arc<Counter>,
    parse_ns: Arc<Histogram>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (clamped to ≥ 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shelf: TrackedMutex::new(LockRank::PlanCache, Shelf::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs: std::sync::OnceLock::new(),
        }
    }

    /// Attach an engine's obs handle (idempotent; first caller wins):
    /// hits/misses mirror into the `plan_cache_hits`/`plan_cache_misses`
    /// counters and fresh parses time into `plan_parse_ns`.
    pub fn attach_obs(&self, obs: &Arc<Obs>) {
        let _ = self.obs.set(CacheObs {
            obs: Arc::clone(obs),
            hit_counter: obs.counter("plan_cache_hits"),
            miss_counter: obs.counter("plan_cache_misses"),
            parse_ns: obs.histogram("plan_parse_ns"),
        });
    }

    /// The parsed query for `text`: a shared handle on a hit, a fresh
    /// parse (inserted, possibly evicting the LRU entry) on a miss.
    /// Parse errors are returned and cached by nobody — a bad query
    /// text stays cheap to reject but never occupies a slot.
    pub fn get_or_parse(&self, text: &str) -> Result<Arc<Query>> {
        {
            let mut shelf = self.shelf.lock();
            shelf.tick += 1;
            let tick = shelf.tick;
            if let Some((plan, stamp)) = shelf.plans.get_mut(text) {
                *stamp = tick;
                let plan = Arc::clone(plan);
                drop(shelf);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs.get() {
                    o.hit_counter.inc();
                }
                return Ok(plan);
            }
        }
        // parse outside the lock: misses don't serialize other clients
        let parse_stamp = self.obs.get().map_or(Stamp::NONE, |o| o.obs.start());
        let parsed = Arc::new(Query::parse(text)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.obs.record_ns(&o.parse_ns, parse_stamp);
            o.miss_counter.inc();
        }
        let mut shelf = self.shelf.lock();
        shelf.tick += 1;
        let tick = shelf.tick;
        shelf
            .plans
            .entry(text.to_string())
            .or_insert((Arc::clone(&parsed), tick));
        if shelf.plans.len() > self.capacity {
            if let Some(lru) = shelf
                .plans
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                shelf.plans.remove(&lru);
            }
        }
        Ok(parsed)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (fresh parses) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
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
        let cache = PlanCache::new(8);
        let a = cache.get_or_parse("RETURN 1 + 1").unwrap();
        let b = cache.get_or_parse("RETURN 1 + 1").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must reuse the parsed plan");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_plan() {
        let cache = PlanCache::new(2);
        cache.get_or_parse("RETURN 1").unwrap();
        cache.get_or_parse("RETURN 2").unwrap();
        cache.get_or_parse("RETURN 1").unwrap(); // touch 1 → 2 is LRU
        cache.get_or_parse("RETURN 3").unwrap(); // evicts 2
        assert_eq!(cache.len(), 2);
        cache.get_or_parse("RETURN 1").unwrap();
        assert_eq!(cache.hits(), 2, "1 stayed resident");
        cache.get_or_parse("RETURN 2").unwrap();
        assert_eq!(cache.misses(), 4, "2 was evicted and re-parsed");
    }

    #[test]
    fn attached_obs_mirrors_counters() {
        let obs = Arc::new(Obs::new(true));
        let cache = PlanCache::new(4);
        cache.attach_obs(&obs);
        cache.get_or_parse("RETURN 1").unwrap(); // miss
        cache.get_or_parse("RETURN 1").unwrap(); // hit
        let snap = obs.snapshot();
        assert_eq!(snap.counter("plan_cache_hits"), 1);
        assert_eq!(snap.counter("plan_cache_misses"), 1);
        assert_eq!(snap.histogram("plan_parse_ns").map(|h| h.count), Some(1));
    }

    #[test]
    fn parse_errors_occupy_no_slot() {
        let cache = PlanCache::new(4);
        assert!(cache.get_or_parse("FOR x IN").is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }
}
