//! A deterministic discrete-event simulator of an asynchronously
//! replicated store — the substrate for the paper's *eventual consistency*
//! metrics.
//!
//! The paper's systems would be measured against deployed clusters; per
//! the reproduction rules we substitute a seeded simulator: consistency
//! metrics (staleness, PBS curves, session-guarantee violations) are
//! functions of the *replication-lag distribution and read policy*, which
//! the simulator reproduces exactly and repeatably.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use udbms_core::{Key, SplitMix64, Value};

/// Replication-lag model (milliseconds of simulated time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LagModel {
    /// Every delivery takes exactly this long.
    Fixed(u64),
    /// Uniform in `[lo, hi]`.
    Uniform(u64, u64),
    /// Mostly fast with a heavy tail: `base` with probability `1 - p`,
    /// else `base * 10` (a crude but reproducible long-tail).
    Bimodal {
        /// Common-case lag.
        base: u64,
        /// Probability of the slow mode.
        p_slow: f64,
    },
}

impl LagModel {
    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            LagModel::Fixed(l) => *l,
            LagModel::Uniform(lo, hi) => rng.range_i64(*lo as i64, *hi as i64) as u64,
            LagModel::Bimodal { base, p_slow } => {
                if rng.chance(*p_slow) {
                    base * 10
                } else {
                    *base
                }
            }
        }
    }
}

/// Where a read is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Always the primary (strong reads).
    Primary,
    /// A uniformly random replica per read (classic eventual reads).
    AnyReplica,
    /// A fixed replica (sticky sessions).
    Replica(usize),
}

/// One versioned entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Versioned {
    /// The stored value.
    pub value: Value,
    /// Per-key monotonically increasing version (1 = first write).
    pub version: u64,
    /// Simulated time of the primary write.
    pub written_at: u64,
}

#[derive(Debug)]
struct Delivery {
    replica: usize,
    key: Key,
    entry: Versioned,
}

/// The replicated store simulator. All time is simulated milliseconds;
/// callers drive the clock explicitly, so every run is reproducible.
#[derive(Debug)]
pub struct ReplicatedSim {
    now: u64,
    primary: HashMap<Key, Versioned>,
    replicas: Vec<HashMap<Key, Versioned>>,
    // min-heap on (time, seq)
    pending: BinaryHeap<Reverse<(u64, u64)>>,
    deliveries: HashMap<(u64, u64), Delivery>,
    next_seq: u64,
    lag: LagModel,
    rng: SplitMix64,
}

impl ReplicatedSim {
    /// A simulator with `n_replicas` asynchronous replicas.
    pub fn new(n_replicas: usize, lag: LagModel, seed: u64) -> ReplicatedSim {
        assert!(n_replicas > 0, "need at least one replica");
        ReplicatedSim {
            now: 0,
            primary: HashMap::new(),
            replicas: vec![HashMap::new(); n_replicas],
            pending: BinaryHeap::new(),
            deliveries: HashMap::new(),
            next_seq: 0,
            lag,
            rng: SplitMix64::new(seed),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advance the clock, delivering every replication event due by `t`.
    pub fn advance_to(&mut self, t: u64) {
        assert!(t >= self.now, "time cannot go backwards");
        while let Some(Reverse((at, seq))) = self.pending.peek().copied() {
            if at > t {
                break;
            }
            self.pending.pop();
            let d = self.deliveries.remove(&(at, seq)).expect("queued delivery");
            let slot = self.replicas[d.replica]
                .entry(d.key)
                .or_insert_with(|| Versioned {
                    value: Value::Null,
                    version: 0,
                    written_at: 0,
                });
            // out-of-order deliveries never regress a replica
            if d.entry.version > slot.version {
                *slot = d.entry;
            }
        }
        self.now = t;
    }

    /// Write through the primary at time `t` (advances the clock) and
    /// schedule asynchronous deliveries to every replica. Returns the new
    /// version.
    pub fn write_at(&mut self, t: u64, key: Key, value: Value) -> u64 {
        self.advance_to(t);
        let version = self.primary.get(&key).map_or(1, |e| e.version + 1);
        let entry = Versioned {
            value,
            version,
            written_at: t,
        };
        self.primary.insert(key.clone(), entry.clone());
        for replica in 0..self.replicas.len() {
            let lag = self.lag.sample(&mut self.rng).max(1);
            let at = t + lag;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push(Reverse((at, seq)));
            self.deliveries.insert(
                (at, seq),
                Delivery {
                    replica,
                    key: key.clone(),
                    entry: entry.clone(),
                },
            );
        }
        version
    }

    /// Read at time `t` under a policy (advances the clock).
    pub fn read_at(&mut self, t: u64, key: &Key, policy: ReadPolicy) -> Option<Versioned> {
        self.advance_to(t);
        match policy {
            ReadPolicy::Primary => self.primary.get(key).cloned(),
            ReadPolicy::Replica(i) => self.replicas[i % self.replicas.len()]
                .get(key)
                .cloned()
                .filter(|e| e.version > 0),
            ReadPolicy::AnyReplica => {
                let i = self.rng.index(self.replicas.len());
                self.replicas[i].get(key).cloned().filter(|e| e.version > 0)
            }
        }
    }

    /// The primary's current version of a key (0 when absent).
    pub fn primary_version(&self, key: &Key) -> u64 {
        self.primary.get(key).map_or(0, |e| e.version)
    }

    /// Do all replicas agree with the primary on every key?
    pub fn converged(&self) -> bool {
        self.replicas.iter().all(|r| {
            self.primary
                .iter()
                .all(|(k, e)| r.get(k).is_some_and(|re| re.version == e.version))
        })
    }

    /// Advance time in `step`-ms increments until converged (or `limit`
    /// is hit); returns the convergence time.
    pub fn advance_until_converged(&mut self, step: u64, limit: u64) -> Option<u64> {
        let start = self.now;
        while self.now - start <= limit {
            if self.converged() {
                return Some(self.now);
            }
            let next = self.now + step;
            self.advance_to(next);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::str(s)
    }

    #[test]
    fn writes_reach_replicas_after_lag() {
        let mut sim = ReplicatedSim::new(2, LagModel::Fixed(10), 1);
        sim.write_at(100, k("x"), Value::Int(1));
        // immediately: replicas blind, primary sees it
        assert_eq!(
            sim.read_at(100, &k("x"), ReadPolicy::Primary)
                .unwrap()
                .version,
            1
        );
        assert!(sim.read_at(105, &k("x"), ReadPolicy::Replica(0)).is_none());
        // after the lag: everyone sees it
        let e = sim.read_at(110, &k("x"), ReadPolicy::Replica(0)).unwrap();
        assert_eq!(e.version, 1);
        assert_eq!(e.value, Value::Int(1));
        assert_eq!(
            sim.read_at(110, &k("x"), ReadPolicy::Replica(1))
                .unwrap()
                .version,
            1
        );
        assert!(sim.converged());
    }

    #[test]
    fn stale_reads_return_old_versions() {
        let mut sim = ReplicatedSim::new(1, LagModel::Fixed(20), 2);
        sim.write_at(0, k("x"), Value::Int(1));
        sim.advance_to(30); // v1 delivered
        sim.write_at(40, k("x"), Value::Int(2));
        let stale = sim.read_at(50, &k("x"), ReadPolicy::Replica(0)).unwrap();
        assert_eq!(stale.version, 1, "v2 still in flight");
        let fresh = sim.read_at(60, &k("x"), ReadPolicy::Replica(0)).unwrap();
        assert_eq!(fresh.version, 2);
    }

    #[test]
    fn out_of_order_delivery_never_regresses() {
        // v1 gets a huge lag, v2 a tiny one: v2 arrives first, v1 later
        // must not overwrite it. Construct via bimodal with controlled rng:
        // use Uniform and a seed chosen so first sample > second.
        let mut sim = ReplicatedSim::new(1, LagModel::Uniform(1, 100), 7);
        sim.write_at(0, k("x"), Value::Int(1));
        sim.write_at(1, k("x"), Value::Int(2));
        sim.advance_to(500);
        let e = sim.read_at(500, &k("x"), ReadPolicy::Replica(0)).unwrap();
        assert_eq!(e.version, 2, "replica must end on the newest version");
        assert_eq!(e.value, Value::Int(2));
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed| {
            let mut sim = ReplicatedSim::new(3, LagModel::Uniform(5, 50), seed);
            let mut observations = Vec::new();
            for t in 0..20u64 {
                sim.write_at(t * 10, k("x"), Value::Int(t as i64));
                let r = sim.read_at(t * 10 + 7, &k("x"), ReadPolicy::AnyReplica);
                observations.push(r.map(|e| e.version));
            }
            observations
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn convergence_detection() {
        let mut sim = ReplicatedSim::new(3, LagModel::Fixed(25), 3);
        for i in 0..10 {
            sim.write_at(i, k(&format!("k{i}")), Value::Int(i as i64));
        }
        assert!(!sim.converged());
        let t = sim.advance_until_converged(1, 1000).unwrap();
        assert!(t >= 9 + 25, "last write plus lag");
        assert!(sim.converged());
    }

    #[test]
    fn bimodal_lag_has_a_tail() {
        let mut rng = SplitMix64::new(9);
        let lag = LagModel::Bimodal {
            base: 10,
            p_slow: 0.2,
        };
        let samples: Vec<u64> = (0..1000).map(|_| lag.sample(&mut rng)).collect();
        let slow = samples.iter().filter(|&&s| s == 100).count();
        assert!(samples.iter().all(|&s| s == 10 || s == 100));
        assert!(slow > 120 && slow < 280, "≈20% slow, got {slow}");
    }

    #[test]
    fn versions_are_per_key() {
        let mut sim = ReplicatedSim::new(1, LagModel::Fixed(1), 4);
        assert_eq!(sim.write_at(0, k("a"), Value::Int(1)), 1);
        assert_eq!(sim.write_at(1, k("a"), Value::Int(2)), 2);
        assert_eq!(sim.write_at(2, k("b"), Value::Int(1)), 1);
        assert_eq!(sim.primary_version(&k("a")), 2);
        assert_eq!(sim.primary_version(&k("missing")), 0);
    }

    #[test]
    #[should_panic(expected = "time cannot go backwards")]
    fn clock_is_monotone() {
        let mut sim = ReplicatedSim::new(1, LagModel::Fixed(1), 1);
        sim.advance_to(10);
        sim.advance_to(5);
    }
}
