#![warn(missing_docs)]

//! # udbms-consistency
//!
//! The paper's third pillar: "UDBMS-benchmark develops consistency
//! metrics of ACID and eventual consistency with multi-model data and
//! accurately determines consistency behavior via experiments with
//! actually deployed systems."
//!
//! Two measurement harnesses:
//!
//! * [`acid`-side](atomicity_census) — runs against the *unified engine*:
//!   atomicity of cross-model transactions under injected failures, a
//!   lost-update census and a write-skew census per isolation level
//!   (experiment E4b).
//! * [`eventual`-side](pbs_curve) — runs against a deterministic
//!   discrete-event replication simulator ([`ReplicatedSim`]): PBS
//!   curves, staleness distributions, session-guarantee violation rates
//!   and convergence times (experiment E4c).

mod acid;
mod metrics;
mod sim;

pub use acid::{
    atomicity_census, lost_update_census, write_skew_census, AtomicityReport, LostUpdateReport,
    WriteSkewReport,
};
pub use metrics::{
    convergence_time, pbs_curve, session_guarantees, staleness_distribution, ConsistencyConfig,
    PbsPoint, SessionReport, StalenessReport,
};
pub use sim::{LagModel, ReadPolicy, ReplicatedSim, Versioned};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::{Key, Value};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Replicas converge to the primary for every schedule with
        /// bounded lag.
        #[test]
        fn replicas_always_converge(
            seed in 0u64..10_000,
            n_writes in 1usize..40,
            lag_hi in 2u64..100,
        ) {
            let mut sim = ReplicatedSim::new(3, LagModel::Uniform(1, lag_hi), seed);
            for i in 0..n_writes {
                sim.write_at(i as u64 * 3, Key::int((i % 5) as i64), Value::Int(i as i64));
            }
            let t = sim.advance_until_converged(1, 1_000_000);
            prop_assert!(t.is_some());
        }

        /// A replica's version for a key never decreases over time.
        #[test]
        fn replica_versions_monotone(seed in 0u64..10_000) {
            let mut sim = ReplicatedSim::new(2, LagModel::Uniform(1, 60), seed);
            let key = Key::str("k");
            let mut last = 0u64;
            for i in 0..50u64 {
                sim.write_at(i * 4, key.clone(), Value::Int(i as i64));
                let seen = sim
                    .read_at(i * 4 + 2, &key, ReadPolicy::Replica(0))
                    .map_or(0, |e| e.version);
                prop_assert!(seen >= last, "replica regressed: {} < {}", seen, last);
                last = seen;
            }
        }

        /// Atomicity holds for any failure rate.
        #[test]
        fn atomicity_never_partial(rate in 0.0f64..1.0, seed in 0u64..1000) {
            let r = atomicity_census(40, rate, seed).unwrap();
            prop_assert_eq!(r.partial, 0);
            prop_assert_eq!(r.complete + r.aborted, r.attempted);
        }
    }
}
