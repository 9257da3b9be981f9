//! Workload-dimension providers: *which* keys a benchmark touches
//! ([`KeyProvider`]) and *what* the records it writes look like
//! ([`ValueProvider`]).
//!
//! crud-bench treats key distribution and record shape as first-class
//! benchmark axes — uniform draws over flat rows measure a different
//! system than Zipfian draws over nested documents, and a credible
//! harness must expose both (Darmont, arXiv:1701.08052). Everything
//! here is seeded-deterministic: the same `(seed, config)` pair yields
//! the same key stream and the same records on every machine, so two
//! runs of an experiment compare engines, never inputs.

use std::fmt::Write;

use udbms_core::{SplitMix64, Symbol, Value, Zipf};

/// How a workload draws keys from its key space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian rank-frequency skew: rank 0 is the hottest key. YCSB's
    /// classic contention setting is `theta = 0.99`.
    Zipfian {
        /// Skew exponent (`0.0` degenerates to uniform).
        theta: f64,
    },
}

impl KeyDist {
    /// Stable label for report rows.
    pub fn label(&self) -> String {
        match self {
            KeyDist::Uniform => "uniform".into(),
            KeyDist::Zipfian { theta } => format!("zipf({theta})"),
        }
    }
}

/// The order keys are loaded in before a measured phase begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOrder {
    /// Ascending key order (best case for ordered structures).
    Sequential,
    /// A seeded random permutation of the key space.
    Random,
}

/// Seeded-deterministic key drawer over a dense key space `[0, n)`.
///
/// For Zipfian draws the *rank → key* mapping is a seeded permutation:
/// without it the hottest keys would be the numerically smallest ones,
/// clustered into one shard's hash range and one ordered-scan prefix —
/// contention would then measure an accident of key layout instead of
/// the distribution itself.
#[derive(Debug, Clone)]
pub struct KeyProvider {
    n: usize,
    dist: KeyDist,
    zipf: Option<Zipf>,
    /// rank → key index, identity for uniform draws.
    rank_to_key: Option<Vec<usize>>,
    seed: u64,
}

impl KeyProvider {
    /// Build over `n` keys (`n > 0`) with the given distribution.
    pub fn new(n: usize, dist: KeyDist, seed: u64) -> KeyProvider {
        assert!(n > 0, "KeyProvider over empty key space");
        let (zipf, rank_to_key) = match dist {
            KeyDist::Uniform => (None, None),
            KeyDist::Zipfian { theta } => {
                let mut perm: Vec<usize> = (0..n).collect();
                let mut rng = SplitMix64::new(seed).substream("key-scatter");
                rng.shuffle(&mut perm);
                (Some(Zipf::new(n, theta)), Some(perm))
            }
        };
        KeyProvider {
            n,
            dist,
            zipf,
            rank_to_key,
            seed,
        }
    }

    /// Key-space size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the key space is empty (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distribution this provider draws from.
    pub fn dist(&self) -> KeyDist {
        self.dist
    }

    /// Draw a key index in `[0, n)` using the caller's RNG (callers own
    /// the stream so per-`(client, op)` seeding stays reproducible).
    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        match (&self.zipf, &self.rank_to_key) {
            (Some(z), Some(perm)) => perm[z.sample(rng)],
            _ => rng.index(self.n),
        }
    }

    /// The expected share of draws landing on key index `key` (exact
    /// for the configured distribution — what a chi-squared check
    /// compares observed frequencies against).
    pub fn expected_share(&self, key: usize) -> f64 {
        match (&self.zipf, &self.rank_to_key) {
            (Some(z), Some(perm)) => {
                // invert the scatter: the rank that maps onto `key`
                let rank = perm
                    .iter()
                    .position(|&k| k == key)
                    .expect("key inside the provider's space");
                z.share(rank)
            }
            _ => 1.0 / self.n as f64,
        }
    }

    /// The full key space in the given insert order (sequential, or a
    /// seeded permutation independent of the draw scatter).
    pub fn insert_order(&self, order: InsertOrder) -> Vec<usize> {
        let mut keys: Vec<usize> = (0..self.n).collect();
        if order == InsertOrder::Random {
            let mut rng = SplitMix64::new(self.seed).substream("insert-order");
            rng.shuffle(&mut keys);
        }
        keys
    }
}

/// The shape of generated records: how deep, how wide, and how big.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueShape {
    /// Nesting depth of the payload sub-object (0 = flat record).
    pub depth: usize,
    /// Fields per nested object level.
    pub fanout: usize,
    /// Length of the record's array field.
    pub array_len: usize,
    /// Length of each generated string field.
    pub string_len: usize,
}

impl ValueShape {
    /// Moderately nested documents (order-document shaped).
    pub fn nested() -> ValueShape {
        ValueShape {
            depth: 2,
            fanout: 3,
            array_len: 4,
            string_len: 32,
        }
    }
}

/// Seeded-deterministic record generator: `record(i)` is a pure function
/// of `(seed, shape, i)`, so create/update phases write byte-identical
/// documents across runs and machines.
#[derive(Debug, Clone)]
pub struct ValueProvider {
    shape: ValueShape,
    seed: u64,
}

impl ValueProvider {
    /// Build with a shape and a seed.
    pub fn new(shape: ValueShape, seed: u64) -> ValueProvider {
        ValueProvider { shape, seed }
    }

    /// The record for key index `i`. Every record carries two scan
    /// probe fields a predicate can filter on — `n` (the key index) and
    /// `g` (a 16-way group) — plus the shape-driven payload.
    pub fn record(&self, i: usize) -> Value {
        let mut rng = SplitMix64::new(self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let tags = (self.shape.array_len > 0).then(|| {
            let tags = (0..self.shape.array_len).map(|t| {
                if t % 2 == 0 {
                    Value::Int(rng.range_i64(0, 999))
                } else {
                    Value::from(rng.ident(self.shape.string_len.clamp(1, 12)))
                }
            });
            (Symbol::new("tags"), tags.collect())
        });
        let body = if self.shape.depth == 0 {
            let pad = Value::from(rng.ident(self.shape.string_len.max(1)));
            (Symbol::new("pad"), pad)
        } else {
            let payload = self.nested_object(&mut rng, self.shape.depth);
            (Symbol::new("payload"), payload)
        };
        let probes = [
            (Symbol::new("n"), Value::Int(i as i64)),
            (Symbol::new("g"), Value::Int((i % 16) as i64)),
        ];
        Value::Object(probes.into_iter().chain(tags).chain([body]).collect())
    }

    fn nested_object(&self, rng: &mut SplitMix64, depth: usize) -> Value {
        let mut name = String::new();
        let fields = (0..self.shape.fanout).map(|f| {
            let v = if depth > 1 && f == 0 {
                // first field recurses so total depth is exactly `depth`
                self.nested_object(rng, depth - 1)
            } else if f % 3 == 1 {
                Value::Int(rng.range_i64(0, 1_000_000))
            } else {
                Value::from(rng.ident(self.shape.string_len.max(1)))
            };
            name.clear();
            let _ = write!(name, "f{f}");
            (Symbol::new(&name), v)
        });
        Value::Object(fields.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_draws_cover_the_space() {
        let p = KeyProvider::new(16, KeyDist::Uniform, 7);
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let k = p.draw(&mut rng);
            assert!(k < 16);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!((p.expected_share(3) - 1.0 / 16.0).abs() < 1e-12);
        assert_eq!(KeyDist::Uniform.label(), "uniform");
    }

    #[test]
    fn zipf_draws_concentrate_on_scattered_hot_keys() {
        let p = KeyProvider::new(100, KeyDist::Zipfian { theta: 0.99 }, 7);
        let mut rng = SplitMix64::new(5);
        let mut counts = vec![0usize; 100];
        const N: usize = 50_000;
        for _ in 0..N {
            counts[p.draw(&mut rng)] += 1;
        }
        // the hottest observed key carries the rank-0 share and, thanks
        // to the scatter permutation, is overwhelmingly unlikely to be
        // key 0 for this seed (it is not, by construction of the test)
        let (hot, &hot_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .expect("non-empty");
        assert!(hot_count as f64 / N as f64 > 0.05, "rank-0 mass missing");
        assert!(
            (p.expected_share(hot) - counts[hot] as f64 / N as f64).abs() < 0.02,
            "observed hot share must match the distribution"
        );
        // shares over the whole space sum to 1
        let total: f64 = (0..100).map(|k| p.expected_share(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(KeyDist::Zipfian { theta: 0.9 }.label(), "zipf(0.9)");
    }

    #[test]
    fn same_seed_same_draws_and_insert_order() {
        let a = KeyProvider::new(64, KeyDist::Zipfian { theta: 0.9 }, 11);
        let b = KeyProvider::new(64, KeyDist::Zipfian { theta: 0.9 }, 11);
        let mut ra = SplitMix64::new(3);
        let mut rb = SplitMix64::new(3);
        for _ in 0..500 {
            assert_eq!(a.draw(&mut ra), b.draw(&mut rb));
        }
        assert_eq!(
            a.insert_order(InsertOrder::Random),
            b.insert_order(InsertOrder::Random)
        );
        // a different seed scatters differently
        let c = KeyProvider::new(64, KeyDist::Zipfian { theta: 0.9 }, 12);
        assert_ne!(
            a.insert_order(InsertOrder::Random),
            c.insert_order(InsertOrder::Random)
        );
    }

    #[test]
    fn insert_orders_are_permutations() {
        let p = KeyProvider::new(50, KeyDist::Uniform, 9);
        let seq = p.insert_order(InsertOrder::Sequential);
        assert_eq!(seq, (0..50).collect::<Vec<_>>());
        let mut rand = p.insert_order(InsertOrder::Random);
        assert_ne!(rand, seq, "50! permutations; identity is unreachable");
        rand.sort_unstable();
        assert_eq!(rand, seq, "random order must still be a permutation");
    }

    #[test]
    fn records_are_deterministic_and_shaped() {
        let p = ValueProvider::new(ValueShape::nested(), 42);
        assert_eq!(p.record(7), p.record(7), "pure function of (seed, i)");
        assert_ne!(p.record(7), p.record(8));
        let rec = p.record(7);
        assert_eq!(rec.get_field("n"), &Value::Int(7));
        assert_eq!(rec.get_field("g"), &Value::Int(7), "i mod 16 groups");
        assert_eq!(p.record(23).get_field("g"), &Value::Int(23 % 16));
        assert_eq!(
            rec.get_field("tags").as_array().map(|a| a.len()),
            Some(ValueShape::nested().array_len)
        );
        // depth: payload.f0.f0 exists at depth 2, no deeper
        let payload = rec.get_field("payload");
        assert!(payload.as_object().is_some());
        let level1 = payload.get_field("f0");
        assert!(level1.as_object().is_some(), "depth-2 shape nests twice");
        assert!(level1.get_field("f0").as_object().is_none());

        // flat records carry a pad string instead of nesting
        let flat_shape = ValueShape {
            depth: 0,
            fanout: 4,
            array_len: 0,
            string_len: 16,
        };
        let flat = ValueProvider::new(flat_shape, 42).record(3);
        assert!(flat.get_field("payload").as_object().is_none());
        assert_eq!(flat.get_field("pad").as_str().map(str::len), Some(16));

        // deeper shapes produce strictly bigger documents
        let deep_shape = ValueShape {
            depth: 4,
            fanout: 3,
            array_len: 8,
            string_len: 64,
        };
        let deep = ValueProvider::new(deep_shape, 42).record(3);
        let size = |v: &Value| udbms_json::to_string(v).len();
        assert!(size(&deep) > size(&rec) && size(&rec) > size(&flat));
    }
}
