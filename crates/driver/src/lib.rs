#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! # udbms-driver
//!
//! The **system-under-test driver API**: one [`Subject`] trait every
//! benchmarked backend implements, so experiments run *the same
//! workload* against any number of systems without backend-specific
//! code paths. This is the seam the CIDR'17 paper asks for — a
//! benchmark for multi-model databases must be able to point one query
//! set at N engines — and what it takes to add a backend is now a small
//! adapter, not a rewrite of every experiment.
//!
//! ```text
//!   experiments (E2, E4a, equivalence tests)
//!        │  iterate over Vec<Box<dyn Subject>>
//!        ▼
//!   Subject ── name / load / prepare / execute / transact
//!     ├─ EngineSubject    — the unified multi-model engine (MMQL)
//!     └─ PolyglotSubject  — five single-model stores + hand-written glue
//! ```
//!
//! Queries flow through [`Subject::prepare`] once per text and
//! [`Subject::execute`] once per parameter draw, mirroring how real
//! drivers separate statement preparation from execution — and giving
//! MMQL subjects the parse-once/bind-many fast path for free.
//!
//! [`run_concurrent`] is the shared multi-client measurement loop: N
//! client threads hammer one subject and the driver reports throughput
//! plus latency percentiles, identically for every backend.

mod runner;
mod subjects;

pub use runner::{percentile_us, run_concurrent, run_concurrent_mode, ConcurrentStats, RunMode};
pub use subjects::{EngineSubject, PolyglotSubject};

pub use udbms_engine::{Durability, EngineConfig, RetryPolicy, DEFAULT_SHARDS};

use udbms_core::{Key, Params, Result, Value};
use udbms_datagen::{workload::BenchQuery, Dataset};

/// A benchmark query prepared for one subject: the portable identity
/// (id + text) plus an opaque backend payload ([`EngineSubject`] stores
/// a parsed MMQL statement, [`PolyglotSubject`] a dispatch id, a future
/// remote subject might store a server-side statement handle).
pub struct PreparedQuery {
    id: String,
    text: String,
    payload: Box<dyn std::any::Any + Send + Sync>,
}

impl PreparedQuery {
    /// Wrap a backend payload. Called by `Subject::prepare` impls.
    pub fn new(q: &BenchQuery, payload: impl std::any::Any + Send + Sync) -> PreparedQuery {
        PreparedQuery {
            id: q.id.to_string(),
            text: q.mmql.to_string(),
            payload: Box::new(payload),
        }
    }

    /// The workload query id (`"Q1"`…).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The original MMQL text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Downcast the backend payload. A subject handed a `PreparedQuery`
    /// from a different subject gets `None` — callers should treat that
    /// as a usage error.
    pub fn payload<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("id", &self.id)
            .finish()
    }
}

/// A cross-model benchmark transaction, expressed abstractly so every
/// subject supplies its own implementation (the unified engine runs it
/// in one MVCC transaction; the polyglot baseline takes all five store
/// locks).
#[derive(Debug, Clone)]
pub enum TxnOp {
    /// The paper's flagship `order_update`: mark an order shipped,
    /// decrement product stock, write feedback notices, flip the XML
    /// invoice status — atomically.
    OrderUpdate {
        /// Key of the order to update.
        order: Key,
    },
}

/// The system-under-test API. Everything an experiment needs from a
/// backend; nothing about how the backend works.
///
/// `&self` everywhere plus `Send + Sync` means one subject instance can
/// serve N concurrent client threads — interior synchronization is the
/// subject's business (MVCC for the engine, per-store locks for the
/// polyglot baseline).
pub trait Subject: Send + Sync {
    /// Short label used in report rows (`"unified"`, `"polyglot"`).
    fn name(&self) -> &str;

    /// Create collections/schemas and load a generated dataset.
    fn load(&self, data: &Dataset) -> Result<()>;

    /// Prepare one workload query for repeated execution.
    fn prepare(&self, q: &BenchQuery) -> Result<PreparedQuery>;

    /// Execute a prepared query with concrete parameter bindings.
    fn execute(&self, q: &PreparedQuery, params: &Params) -> Result<Vec<Value>>;

    /// Run one cross-model transaction under the named isolation label
    /// (one of [`Subject::isolations`]), retrying conflicts internally
    /// until it commits.
    fn transact(&self, op: &TxnOp, isolation: &str) -> Result<()>;

    /// The isolation levels this subject can run [`Subject::transact`]
    /// under. Reports sweep these; the default is a single unnamed
    /// level for backends without an isolation knob.
    fn isolations(&self) -> Vec<&'static str> {
        vec!["default"]
    }

    /// Backend-specific metric counters for report rows (e.g. the
    /// unified engine's optimistic-conflict abort count). Keys are
    /// label strings; experiments print them verbatim.
    fn counters(&self) -> Vec<(String, i64)> {
        Vec::new()
    }
}

/// The default registry: every built-in subject, freshly constructed
/// and unloaded. Experiments call [`Subject::load`] with their dataset,
/// then drive all subjects identically.
pub fn registry() -> Vec<Box<dyn Subject>> {
    registry_with_config(EngineConfig::default())
}

/// [`registry`] with full [`EngineConfig`] tuning for the unified
/// engine subject — shards, durability level, group commit (the
/// polyglot baseline has none of these knobs and is unaffected).
pub fn registry_with_config(config: EngineConfig) -> Vec<Box<dyn Subject>> {
    vec![
        Box::new(EngineSubject::with_config(config)),
        Box::new(PolyglotSubject::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_datagen::{generate, workload, GenConfig};

    fn sorted(mut v: Vec<Value>) -> Vec<Value> {
        v.sort();
        v
    }

    /// The generalized equivalence test: *every* registered subject must
    /// agree with every other, query for query, across parameter draws.
    /// Adding a third backend extends this test automatically.
    #[test]
    fn all_registered_subjects_agree_on_the_workload() {
        let cfg = GenConfig {
            scale_factor: 0.02,
            ..Default::default()
        };
        let data = generate(&cfg);
        let subjects = registry();
        assert!(
            subjects.len() >= 2,
            "registry has the unified engine and the baseline"
        );
        for s in &subjects {
            s.load(&data)
                .unwrap_or_else(|e| panic!("{} load: {e}", s.name()));
        }
        let prepared: Vec<Vec<PreparedQuery>> = subjects
            .iter()
            .map(|s| {
                workload::queries()
                    .iter()
                    .map(|q| {
                        s.prepare(q)
                            .unwrap_or_else(|e| panic!("{} prepare: {e}", s.name()))
                    })
                    .collect()
            })
            .collect();
        for which in 1..=3u64 {
            let params = workload::QueryParams::draw(&data, which).bindings();
            for (qi, q) in workload::queries().iter().enumerate() {
                let reference = sorted(
                    subjects[0]
                        .execute(&prepared[0][qi], &params)
                        .unwrap_or_else(|e| panic!("{} {}: {e}", subjects[0].name(), q.id)),
                );
                for (si, s) in subjects.iter().enumerate().skip(1) {
                    let got = sorted(
                        s.execute(&prepared[si][qi], &params)
                            .unwrap_or_else(|e| panic!("{} {}: {e}", s.name(), q.id)),
                    );
                    assert_eq!(
                        reference,
                        got,
                        "{} diverged between {} and {} (draw {which})",
                        q.id,
                        subjects[0].name(),
                        s.name()
                    );
                }
            }
        }
    }

    #[test]
    fn transact_agrees_across_subjects() {
        let cfg = GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        };
        let data = generate(&cfg);
        let subjects = registry();
        let order = Key::str(data.orders[0].get_field("_id").as_str().unwrap());
        let op = TxnOp::OrderUpdate { order };
        for s in &subjects {
            s.load(&data).unwrap();
            let iso = *s.isolations().first().expect("at least one isolation");
            s.transact(&op, iso)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        }
        // both subjects observe the same post-state through Q8 (order 360°)
        let q8 = workload::queries()[7];
        let params = Params::new()
            .with(
                "customer",
                data.orders[0].get_field("customer").as_int().unwrap(),
            )
            .with("product", "-")
            .with("order", data.orders[0].get_field("_id").as_str().unwrap())
            .with("price_lo", 0.0)
            .with("price_hi", 1.0)
            .with("country", "-");
        let mut views: Vec<Vec<Value>> = Vec::new();
        for s in &subjects {
            let prepared = s.prepare(&q8).unwrap();
            views.push(sorted(s.execute(&prepared, &params).unwrap()));
        }
        assert_eq!(views[0], views[1], "post-transaction state diverged");
    }

    #[test]
    fn prepared_queries_are_not_interchangeable_across_subjects() {
        let cfg = GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        };
        let data = generate(&cfg);
        let engine = EngineSubject::new();
        let poly = PolyglotSubject::new();
        engine.load(&data).unwrap();
        poly.load(&data).unwrap();
        let q1 = workload::queries()[0];
        let from_engine = engine.prepare(&q1).unwrap();
        let params = workload::QueryParams::draw(&data, 1).bindings();
        // a foreign payload is a usage error, not a panic
        assert!(poly.execute(&from_engine, &params).is_err());
    }

    #[test]
    fn isolation_labels_roundtrip() {
        let engine = EngineSubject::new();
        assert_eq!(engine.isolations(), vec!["RC", "SI", "SER"]);
        let poly = PolyglotSubject::new();
        assert_eq!(poly.isolations(), vec!["2PC"]);
        // unknown label is an error
        let cfg = GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        };
        let data = generate(&cfg);
        engine.load(&data).unwrap();
        let order = Key::str(data.orders[0].get_field("_id").as_str().unwrap());
        assert!(engine
            .transact(&TxnOp::OrderUpdate { order }, "nope")
            .is_err());
    }
}
