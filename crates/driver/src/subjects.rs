//! The built-in [`Subject`] implementations: the unified engine and the
//! polyglot-persistence baseline. Each is the ~100-line adapter shape a
//! future backend (sharded engine, remote store) would copy.

use std::sync::Arc;

use udbms_core::{Error, Params, Result, Value};
use udbms_datagen::{create_collections, load_into_engine, workload, Dataset};
use udbms_engine::{Engine, EngineConfig, Isolation, SlowQuery};
use udbms_obs::Histogram;
use udbms_polyglot::{load_into_polyglot, order_update_polyglot, run_query, PolyglotDb};
use udbms_query::{PlanCache, Query};

use crate::{PreparedQuery, Subject, TxnOp};

/// The unified multi-model engine as a benchmark subject: one MMQL text
/// per query, resolved through a FIFO **plan cache** at prepare time
/// (repeat preparations of the same text share one parse) and bound per
/// execution. Statements the planner proves read-only execute on the
/// engine's **read lane** (`Engine::begin_read`): a lock-free snapshot,
/// no OCC tracking, no commit lock, no WAL.
pub struct EngineSubject {
    engine: Engine,
    plans: PlanCache,
    /// End-to-end statement latency (µs), pre-fetched from the engine's
    /// obs registry so the execute path never touches it.
    exec_us: Arc<Histogram>,
}

impl EngineSubject {
    /// A fresh, empty engine subject with the engine's default shard
    /// count.
    pub fn new() -> EngineSubject {
        EngineSubject::wrap(Engine::new())
    }

    /// A fresh, empty engine subject with full [`EngineConfig`] tuning
    /// (shards, durability level, group commit).
    pub fn with_config(config: EngineConfig) -> EngineSubject {
        EngineSubject::wrap(Engine::with_config(config))
    }

    /// A WAL-backed engine subject: commits are durable to
    /// `config.durability` and any existing log at `path` is replayed
    /// first (the E8 durability experiment's construction).
    pub fn with_wal_config(
        path: impl AsRef<std::path::Path>,
        config: EngineConfig,
    ) -> Result<EngineSubject> {
        Ok(EngineSubject::wrap(Engine::with_wal_config(path, config)?))
    }

    fn wrap(engine: Engine) -> EngineSubject {
        // plan-cache hits/misses and parse latency count in the engine's
        // registry, so Engine::stats() and obs_snapshot() cover them
        let plans = PlanCache::new(engine.obs());
        let exec_us = engine.obs().histogram("query_exec_us");
        EngineSubject {
            engine,
            plans,
            exec_us,
        }
    }

    /// Direct access to the wrapped engine (for experiment-specific
    /// probes like GC stats; benchmark loops should stay on the trait).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The subject's plan cache (hit/miss probes for experiments; the
    /// same numbers surface through [`Subject::counters`]).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    fn isolation(label: &str) -> Result<Isolation> {
        match label {
            "RC" => Ok(Isolation::ReadCommitted),
            "SI" | "default" => Ok(Isolation::Snapshot),
            "SER" => Ok(Isolation::Serializable),
            other => Err(Error::Invalid(format!("unknown isolation label `{other}`"))),
        }
    }
}

impl Default for EngineSubject {
    fn default() -> Self {
        EngineSubject::new()
    }
}

impl Subject for EngineSubject {
    fn name(&self) -> &str {
        "unified"
    }

    fn load(&self, data: &Dataset) -> Result<()> {
        create_collections(&self.engine)?;
        load_into_engine(&self.engine, data)?;
        Ok(())
    }

    fn prepare(&self, q: &workload::BenchQuery) -> Result<PreparedQuery> {
        // parse through the plan cache: repeat preparations of the
        // same text (every benchmark loop, most application traffic)
        // share one parsed statement
        Ok(PreparedQuery::new(q, self.plans.get_or_parse(q.mmql)?))
    }

    fn execute(&self, q: &PreparedQuery, params: &Params) -> Result<Vec<Value>> {
        let parsed: &Arc<Query> = q.payload().ok_or_else(|| {
            Error::Invalid("PreparedQuery is not an EngineSubject payload".into())
        })?;
        let obs = self.engine.obs();
        let total_stamp = obs.start();
        let bind_stamp = obs.start();
        // bind once per draw, outside the retry loop
        let bound = parsed.bind(params)?;
        let bind_us = bind_stamp.elapsed_us();
        let exec_stamp = obs.start();
        let out = if bound.is_read_only() {
            // read lane: lock-free snapshot, no OCC read set, no commit
            // lock, no WAL — and reads cannot conflict, so no retry loop
            let mut txn = self.engine.begin_read();
            let rows = bound.execute(&mut txn)?;
            txn.commit()?;
            rows
        } else {
            self.engine.run(Isolation::Snapshot, |t| bound.execute(t))?
        };
        if let Some(total_us) = total_stamp.elapsed_us() {
            self.exec_us.record(total_us);
            if obs.slow().should_log(total_us) {
                obs.slow().push(SlowQuery {
                    statement: parsed.text().to_string(),
                    plan: bound.explain(),
                    total_us,
                    stages: vec![
                        ("bind", bind_us.unwrap_or(0)),
                        ("execute", exec_stamp.elapsed_us().unwrap_or(0)),
                    ],
                });
            }
        }
        Ok(out)
    }

    fn transact(&self, op: &TxnOp, isolation: &str) -> Result<()> {
        let iso = Self::isolation(isolation)?;
        match op {
            TxnOp::OrderUpdate { order } => {
                self.engine.run(iso, |t| workload::order_update(t, order))
            }
        }
    }

    fn isolations(&self) -> Vec<&'static str> {
        vec!["RC", "SI", "SER"]
    }

    fn counters(&self) -> Vec<(String, i64)> {
        let stats = self.engine.stats();
        let mut out = vec![
            ("aborts".into(), stats.aborts as i64),
            ("shards".into(), stats.shards as i64),
        ];
        if stats.read_txns > 0 {
            // queries routed through the lock-free read lane
            out.push(("read_lane".into(), stats.read_txns as i64));
        }
        if stats.plan_hits + stats.plan_misses > 0 {
            out.push(("plan_hits".into(), stats.plan_hits as i64));
            out.push(("plan_misses".into(), stats.plan_misses as i64));
        }
        if stats.wal_records > 0 {
            // group-commit efficiency: records per flushed batch
            out.push(("wal_batches".into(), stats.wal_batches as i64));
            out.push(("wal_records".into(), stats.wal_records as i64));
        }
        // fault-path counters: silent when the run was healthy
        if stats.wal_poisoned > 0 {
            out.push(("wal_poisoned".into(), stats.wal_poisoned as i64));
        }
        if stats.write_rejected > 0 {
            out.push(("write_rejected".into(), stats.write_rejected as i64));
        }
        if stats.degraded_reads > 0 {
            out.push(("degraded_reads".into(), stats.degraded_reads as i64));
        }
        if stats.txn_retries > 0 {
            out.push(("txn_retries".into(), stats.txn_retries as i64));
        }
        // statement-latency percentiles from the obs histogram (µs);
        // a plain snapshot read — nothing is drained
        let exec = self.exec_us.snapshot();
        if exec.count > 0 {
            out.push(("query_p50_us".into(), exec.p50() as i64));
            out.push(("query_p99_us".into(), exec.p99() as i64));
        }
        out
    }
}

/// The polyglot-persistence baseline as a benchmark subject: the same
/// workload, answered by hand-written per-store client code — which is
/// exactly why its `prepare` resolves a dispatch id instead of parsing
/// anything.
pub struct PolyglotSubject {
    db: PolyglotDb,
}

impl PolyglotSubject {
    /// A fresh, empty polyglot deployment.
    pub fn new() -> PolyglotSubject {
        PolyglotSubject {
            db: PolyglotDb::new(),
        }
    }
}

impl Default for PolyglotSubject {
    fn default() -> Self {
        PolyglotSubject::new()
    }
}

/// Marker payload distinguishing polyglot-prepared queries.
struct PolyglotPrepared;

impl Subject for PolyglotSubject {
    fn name(&self) -> &str {
        "polyglot"
    }

    fn load(&self, data: &Dataset) -> Result<()> {
        load_into_polyglot(&self.db, data)?;
        Ok(())
    }

    fn prepare(&self, q: &workload::BenchQuery) -> Result<PreparedQuery> {
        // validate the id is implemented before the measurement loop
        if !workload::queries().iter().any(|known| known.id == q.id) {
            return Err(Error::NotFound(format!(
                "polyglot implementation of `{}`",
                q.id
            )));
        }
        Ok(PreparedQuery::new(q, PolyglotPrepared))
    }

    fn execute(&self, q: &PreparedQuery, params: &Params) -> Result<Vec<Value>> {
        q.payload::<PolyglotPrepared>().ok_or_else(|| {
            Error::Invalid("PreparedQuery is not a PolyglotSubject payload".into())
        })?;
        // a real polyglot client receives generic parameters and decodes
        // them itself — from_bindings is that decoding step
        let typed = workload::QueryParams::from_bindings(params)?;
        run_query(&self.db, q.id(), &typed)
    }

    fn transact(&self, op: &TxnOp, isolation: &str) -> Result<()> {
        if isolation != "2PC" && isolation != "default" {
            return Err(Error::Invalid(format!(
                "polyglot has no isolation knob (got `{isolation}`)"
            )));
        }
        match op {
            TxnOp::OrderUpdate { order } => order_update_polyglot(&self.db, order),
        }
    }

    fn isolations(&self) -> Vec<&'static str> {
        vec!["2PC"]
    }
}
