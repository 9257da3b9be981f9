//! The experiment suite: one function per table/figure (F1, E1–E5, E8,
//! E10–E12), listed once in [`EXPERIMENTS`]. Each returns a [`Report`].
//! Every cell that times client threads goes through one path:
//! `measure` runs it, `best_of` scores repeated cycles by rate, and
//! [`Report::stats_row`] renders it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use udbms_consistency::{
    atomicity_census, convergence_time, lost_update_census, pbs_curve, session_guarantees,
    staleness_distribution, write_skew_census, ConsistencyConfig, LagModel, ReadPolicy,
};
use udbms_core::{CollectionSchema, Key, Params, SplitMix64, Value};
use udbms_datagen::{
    build_engine, generate, workload, GenConfig, InsertOrder, KeyDist, KeyProvider,
    SchemaVariation, ValueProvider, ValueShape,
};
use udbms_driver::{
    registry, registry_with_config, run_concurrent_mode, ConcurrentStats, Durability, EngineConfig,
    RetryPolicy, RunMode, TxnOp,
};
use udbms_engine::{Engine, FaultPlan, Isolation, Wal};
use udbms_evolution::{analyze_workload, apply_chain, standard_chain};
use udbms_query::Query;

use crate::report::{per_sec, us, Report};

/// How thoroughly to run (quick = CI-sized).
#[derive(Debug, Clone, Copy)]
pub struct RunScale {
    /// Base scale factor for loaded-engine experiments.
    pub sf: f64,
    /// Repetitions for latency medians (per client in concurrent runs).
    pub reps: usize,
    /// Simulator trials.
    pub trials: usize,
    /// Concurrent client threads for the client-driven experiments
    /// (E2, E4a, E8, E10, E11, E12); the harness `--clients N` flag
    /// overrides it.
    pub clients: usize,
    /// Storage shard count of every engine the experiments construct;
    /// the harness `--shards N` flag overrides it.
    pub shards: usize,
    /// Restrict the E8 durability sweep to one level (`None` = sweep
    /// all of Buffered/Flush/Fsync); the harness `--durability LEVEL`
    /// flag sets it (CI pins `flush` to keep per-commit fsyncs out of
    /// its harness run).
    pub durability: Option<Durability>,
    /// Restrict E11 to one issue mode (`None` = run both the
    /// closed-loop and open-loop arms); the harness `--mode open|closed`
    /// flag sets it.
    pub mode: Option<ModeFilter>,
}

/// Which E11 issue-mode arms to run (the harness `--mode` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeFilter {
    /// Only the closed-loop cells.
    Closed,
    /// Only the open-loop cells.
    Open,
}

impl ModeFilter {
    /// Parse a harness flag value (`closed` / `open`).
    pub fn parse(s: &str) -> Option<ModeFilter> {
        match s {
            "closed" => Some(ModeFilter::Closed),
            "open" => Some(ModeFilter::Open),
            _ => None,
        }
    }
}

impl RunScale {
    /// Quick profile (seconds, for tests/CI).
    pub fn quick() -> RunScale {
        RunScale {
            sf: 0.05,
            reps: 5,
            trials: 300,
            clients: 2,
            shards: udbms_driver::DEFAULT_SHARDS,
            durability: None,
            mode: None,
        }
    }

    /// Full profile (minutes; the numbers a write-up quotes).
    pub fn full() -> RunScale {
        RunScale {
            sf: 0.5,
            reps: 15,
            trials: 2000,
            clients: 4,
            ..RunScale::quick()
        }
    }

    /// The durability levels E8 sweeps under this scale.
    pub fn durability_levels(&self) -> Vec<Durability> {
        match self.durability {
            Some(level) => vec![level],
            None => Durability::ALL.to_vec(),
        }
    }

    /// The [`EngineConfig`] experiments construct engines with: the
    /// scale's shard count (durability, group commit and E10's obs arm
    /// stay per-experiment decisions).
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::default().with_shards(self.shards)
    }
}

/// One measured cell: the run that timed it and the conflict retries
/// its operations consumed.
struct Cell {
    stats: ConcurrentStats,
    retries: u64,
}

/// The one measuring step: `clients` threads each run `op(client, i)`
/// `per_client` times under `mode`. An error fails the experiment.
fn measure(
    clients: usize,
    per_client: usize,
    mode: RunMode,
    op: impl Fn(usize, usize) -> udbms_core::Result<()> + Sync,
) -> Cell {
    let stats = run_concurrent_mode(clients, per_client, mode, op).expect("measured cell");
    Cell { stats, retries: 0 }
}

/// Score cells best-of-`cycles` by rate: `cycle(n)` measures every cell
/// of one cycle, and each slot keeps its fastest measurement. A cell's
/// first cycle runs cold (allocator warm-up, hash-map growth) and cells
/// are milliseconds long, so a single measurement would report one
/// scheduler stall as the cell's speed.
fn best_of<const N: usize>(cycles: usize, mut cycle: impl FnMut(usize) -> [Cell; N]) -> [Cell; N] {
    let mut best = cycle(0);
    for n in 1..cycles {
        for (best, cell) in best.iter_mut().zip(cycle(n)) {
            if cell.stats.throughput() > best.stats.throughput() {
                *best = cell;
            }
        }
    }
    best
}

/// The cycles a best-of cell runs under `scale`.
fn cycles(scale: RunScale) -> usize {
    scale.reps.clamp(1, 3)
}

/// The client-count arms of a sweep: one client, then `clients`.
fn client_arms(clients: usize) -> Vec<usize> {
    if clients <= 1 {
        vec![1]
    } else {
        vec![1, clients]
    }
}

/// Fixture: give `engine` one key-value collection `name` holding
/// `records`, loaded in a single transaction.
fn kv_engine(
    engine: Engine,
    name: &str,
    records: impl IntoIterator<Item = (Key, Value)>,
) -> Engine {
    engine
        .create_collection(CollectionSchema::key_value(name))
        .expect("fixture collection");
    let mut load = engine.begin(Isolation::Snapshot);
    load.put_many(name, records.into_iter().collect())
        .and_then(|_| load.commit())
        .expect("fixture load");
    engine
}

/// Fixture: a fresh path for a WAL in the temp directory, unique per
/// call — experiments running concurrently in one process (the test
/// harness runs E8 and E12 from several tests at once) never share a log.
fn temp_wal(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("udbms-{}-{n}-{tag}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// One read-modify-write of `key` through `policy`, returning its
/// result and the conflict retries it consumed. The snapshot is held
/// across a scheduler yield — the application work a client does
/// between reading and writing back, the lost-update window. Without
/// it a single-core runner timeslices whole transactions back-to-back,
/// no snapshot ever straddles a concurrent install, and conflict rates
/// read as zero at any skew.
fn read_modify_write(
    engine: &Engine,
    policy: &RetryPolicy,
    seed: u64,
    key: &Key,
    value: impl Fn() -> Value,
) -> (udbms_core::Result<()>, u32) {
    policy.run(
        || seed,
        || {
            let mut t = engine.begin(Isolation::Snapshot);
            t.get("hot", key)?;
            std::thread::yield_now();
            t.put("hot", key.clone(), value())?;
            t.commit().map(|_| ())
        },
    )
}

/// F1 — the Figure-1 data-model inventory.
pub fn f1_inventory(scale: RunScale) -> Report {
    let mut report = Report::new(
        format!(
            "F1 — multi-model data inventory (Figure 1), SF {}",
            scale.sf
        ),
        &[
            "model",
            "collection(s)",
            "entities",
            "attributes/elements",
            "cross-model refs",
        ],
    );
    let data = generate(&GenConfig::at_scale(scale.sf));
    let inv = data.inventory();
    let g = |p: &str| inv.get_dotted(p).expect("inventory path").clone();
    report.row(vec![
        "relational".into(),
        "customers".into(),
        g("relational.entities").to_string(),
        g("relational.attributes").to_string(),
        format!(
            "← orders.customer ({})",
            g("cross_model_refs.order_to_customer")
        ),
    ]);
    report.row(vec![
        "document".into(),
        "orders, products".into(),
        g("document.entities").to_string(),
        g("document.attributes").to_string(),
        format!(
            "items→products ({})",
            g("cross_model_refs.order_to_product_lines")
        ),
    ]);
    report.row(vec![
        "key-value".into(),
        "feedback".into(),
        g("key-value.entities").to_string(),
        g("key-value.attributes").to_string(),
        format!(
            "key = fb:<product>:<customer> ({})",
            g("cross_model_refs.feedback_to_product_and_customer")
        ),
    ]);
    report.row(vec![
        "xml".into(),
        "invoices".into(),
        g("xml.entities").to_string(),
        g("xml.elements").to_string(),
        format!(
            "OrderId → orders ({})",
            g("cross_model_refs.invoice_to_order")
        ),
    ]);
    report.row(vec![
        "graph".into(),
        "social#v, social#e".into(),
        g("graph.vertices").to_string(),
        format!(
            "{} knows + {} bought",
            g("graph.knows_edges"),
            g("graph.bought_edges")
        ),
        "vertices = customers ∪ products".into(),
    ]);
    report
}

/// E1 — generation throughput vs scale factor and schema variation.
pub fn e1_generation(scale: RunScale) -> Report {
    let mut report = Report::new(
        "E1 — data generation: scale + schema-variation sweep",
        &["scale", "variation", "entities", "gen time", "entities/s"],
    );
    let sfs = if scale.reps > 5 {
        vec![0.1, 0.5, 1.0, 2.0]
    } else {
        vec![0.05, 0.1, 0.2]
    };
    for sf in sfs {
        let cfg = GenConfig::at_scale(sf);
        let t0 = Instant::now();
        let data = generate(&cfg);
        let dt = t0.elapsed();
        report.row(vec![
            format!("{sf}"),
            "default".into(),
            data.total_entities().to_string(),
            format!("{dt:?}"),
            per_sec(data.total_entities(), dt.as_secs_f64()),
        ]);
    }
    for (label, variation) in [
        (
            "regular (p=1.0, depth 1)",
            SchemaVariation {
                optional_field_prob: 1.0,
                nesting_depth: 1,
                extra_attr_count: 0,
            },
        ),
        (
            "sparse (p=0.3, depth 2)",
            SchemaVariation {
                optional_field_prob: 0.3,
                nesting_depth: 2,
                extra_attr_count: 3,
            },
        ),
        (
            "wild (p=0.5, depth 4)",
            SchemaVariation {
                optional_field_prob: 0.5,
                nesting_depth: 4,
                extra_attr_count: 6,
            },
        ),
    ] {
        let cfg = GenConfig {
            scale_factor: scale.sf,
            variation,
            ..Default::default()
        };
        let t0 = Instant::now();
        let data = generate(&cfg);
        let dt = t0.elapsed();
        report.row(vec![
            format!("{}", scale.sf),
            label.into(),
            data.total_entities().to_string(),
            format!("{dt:?}"),
            per_sec(data.total_entities(), dt.as_secs_f64()),
        ]);
    }
    report.note("same seed ⇒ byte-identical datasets; entity substreams are independent");
    report
}

/// E2 — the Q1–Q10 workload, driven through `dyn Subject` over every
/// registered backend with N concurrent clients: throughput and latency
/// percentiles per backend, measured by the exact same loop.
pub fn e2_queries(scale: RunScale) -> Report {
    let mut report = Report::new(
        format!(
            "E2 — multi-model query workload Q1–Q10 over dyn Subject, SF {}, {} client(s) x {} ops, {} shard(s)",
            scale.sf, scale.clients, scale.reps * 10, scale.shards
        ),
        &[
            "query", "subject", "models", "rows", "p50", "p90", "p95", "p99", "max", "ops/s",
        ],
    );
    let cfg = GenConfig::at_scale(scale.sf);
    let data = generate(&cfg);
    let draws: Vec<Params> = (1..=4u64)
        .map(|w| workload::QueryParams::draw(&data, w).bindings())
        .collect();
    let subjects = registry_with_config(scale.engine_config());
    for subject in &subjects {
        subject.load(&data).expect("subject load");
    }
    // enough executions per cell that it measures the engine, not
    // scheduler noise
    let ops_per_client = scale.reps * 10;
    for q in workload::queries() {
        for subject in &subjects {
            // prepare once per text (parse for MMQL subjects, dispatch
            // resolution for hand-written ones), execute per draw
            let prepared = subject.prepare(&q).expect("prepare");
            let rows = subject
                .execute(&prepared, &draws[0])
                .expect("execute")
                .len();
            // client c starts at draw c: no lock-step identical requests
            let cell = measure(
                scale.clients,
                ops_per_client,
                RunMode::Closed,
                |client, i| {
                    let params = &draws[(client + i) % draws.len()];
                    subject.execute(&prepared, params).map(|_| ())
                },
            );
            report.stats_row(
                &[q.id.into(), subject.name().into()],
                &cell.stats,
                &[("models", q.models.join("+")), ("rows", rows.to_string())],
            );
        }
    }
    report.note("every subject is driven through the same Subject trait and measurement loop;");
    report.note("'unified' parses one MMQL text and binds @params per draw, 'polyglot' is");
    report.note("hand-written per-store client code — the architecture is the only variable");
    report
}

/// E3 — schema evolution: history-query usability + migration cost.
pub fn e3_evolution(scale: RunScale) -> Report {
    let mut report = Report::new(
        format!(
            "E3 — schema evolution over the Q1–Q10 history workload, SF {}",
            scale.sf
        ),
        &[
            "steps",
            "last operation",
            "valid",
            "adaptable",
            "broken",
            "strict",
            "adapted",
            "migrate",
        ],
    );
    let cfg = GenConfig::at_scale(scale.sf);
    let (engine, data) = build_engine(&cfg).expect("engine load");
    let params = workload::QueryParams::draw(&data, 1);
    let stmts: Vec<_> = workload::bound_queries(&params)
        .expect("workload binds")
        .into_iter()
        .map(|(_, q)| q.statement().clone())
        .collect();
    let chain = standard_chain();
    let (r0, _) = analyze_workload(&stmts, &[]);
    report.row(vec![
        "0".into(),
        "(original)".into(),
        r0.valid.to_string(),
        r0.adaptable.to_string(),
        r0.broken.to_string(),
        format!("{:.0}%", r0.strict_score * 100.0),
        format!("{:.0}%", r0.adapted_score * 100.0),
        "-".into(),
    ]);
    for n in 1..=chain.len() {
        let t0 = Instant::now();
        apply_chain(&engine, &chain[n - 1..n]).expect("migration");
        let dt = t0.elapsed();
        let (r, _) = analyze_workload(&stmts, &chain[..n]);
        report.row(vec![
            n.to_string(),
            chain[n - 1].describe(),
            r.valid.to_string(),
            r.adaptable.to_string(),
            r.broken.to_string(),
            format!("{:.0}%", r.strict_score * 100.0),
            format!("{:.0}%", r.adapted_score * 100.0),
            us(dt.as_micros()),
        ]);
    }
    report.note(
        "strict = verbatim history queries still valid; adapted = after mechanical rewriting",
    );
    report
}

/// E4a — cross-model transaction throughput under contention, driven
/// through `dyn Subject`: every backend runs the same `TxnOp` with the
/// same concurrent-client loop, sweeping its own isolation levels.
pub fn e4a_transactions(scale: RunScale) -> Report {
    let mut report = Report::new(
        format!(
            "E4a — order_update cross-model transactions over dyn Subject, SF {}",
            scale.sf
        ),
        &[
            "subject", "iso", "clients", "theta", "txns", "elapsed", "p50", "p90", "p95", "p99",
            "max", "txn/s", "counters",
        ],
    );
    // cells must run long enough to measure signal, not scheduler
    // noise — even the quick profile measures a few hundred
    // transactions per cell
    let per_client = if scale.reps > 5 { 200 } else { 80 };
    let cfg = GenConfig::at_scale(scale.sf);
    let data = generate(&cfg);
    let subject_isolations: Vec<Vec<&'static str>> =
        registry().iter().map(|s| s.isolations()).collect();
    for clients in client_arms(scale.clients) {
        for theta in [0.0, 0.9] {
            let picker = workload::OrderPicker::new(&data, theta);
            for (si, isolations) in subject_isolations.iter().enumerate() {
                for &iso in isolations {
                    // a fresh subject per isolation keeps counters per-cell
                    let subject = registry_with_config(scale.engine_config()).swap_remove(si);
                    subject.load(&data).expect("subject load");
                    let cell = measure(clients, per_client, RunMode::Closed, |client, i| {
                        // deterministic per-op pick, stable across runs
                        let mut rng = SplitMix64::new(31 + client as u64 * 1_000_003 + i as u64);
                        let key = picker.pick(&mut rng).clone();
                        subject.transact(&TxnOp::OrderUpdate { order: key }, iso)
                    });
                    let counters = subject
                        .counters()
                        .into_iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    report.stats_row(
                        &[
                            subject.name().into(),
                            iso.into(),
                            clients.to_string(),
                            format!("{theta}"),
                        ],
                        &cell.stats,
                        &[(
                            "counters",
                            if counters.is_empty() {
                                "-".into()
                            } else {
                                counters
                            },
                        )],
                    );
                }
            }
        }
    }
    report.note(
        "polyglot '2PC' = all five store locks for every transaction (idealized, failure-free)",
    );
    report.note(
        "unified aborts are first-committer-wins conflicts, retried to success inside transact()",
    );
    report
}

/// E4b — the ACID anomaly census.
pub fn e4b_acid(scale: RunScale) -> Report {
    let mut report = Report::new(
        "E4b — ACID anomaly census on the unified engine",
        &["experiment", "isolation", "events", "anomalies", "detail"],
    );
    let n = scale.trials.min(500);
    let a = atomicity_census(n, 0.25, 42).expect("census");
    report.row(vec![
        "atomicity (4-model txns)".into(),
        "SI".into(),
        a.attempted.to_string(),
        a.partial.to_string(),
        format!("{} aborted mid-flight, {} complete", a.aborted, a.complete),
    ]);
    for iso in [
        Isolation::ReadCommitted,
        Isolation::Snapshot,
        Isolation::Serializable,
    ] {
        let r = lost_update_census(iso, n.min(200)).expect("census");
        report.row(vec![
            "lost update".into(),
            iso.label().into(),
            r.committed.to_string(),
            r.lost.to_string(),
            format!("{} conflict retries", r.conflict_retries),
        ]);
    }
    for iso in [
        Isolation::ReadCommitted,
        Isolation::Snapshot,
        Isolation::Serializable,
    ] {
        let r = write_skew_census(iso, n.min(200)).expect("census");
        report.row(vec![
            "write skew".into(),
            iso.label().into(),
            r.pairs.to_string(),
            r.violations.to_string(),
            "invariant a+b >= 1".into(),
        ]);
    }
    report.note("expected shape: RC loses updates, SI admits only write skew, SER admits neither");
    report
}

/// E4c — eventual-consistency metrics on the replication simulator.
pub fn e4c_eventual(scale: RunScale) -> Report {
    let mut report = Report::new(
        "E4c — eventual consistency (3 replicas, lag uniform 5–50 ms)",
        &["metric", "setting", "value"],
    );
    let cfg = ConsistencyConfig {
        replicas: 3,
        lag: LagModel::Uniform(5, 50),
        trials: scale.trials,
        seed: 42,
    };
    for p in pbs_curve(&cfg, &[0, 10, 25, 50, 100]) {
        report.row(vec![
            "PBS P(fresh)".into(),
            format!("Δt = {} ms", p.delta_ms),
            format!("{:.1}%", p.p_fresh * 100.0),
        ]);
    }
    for (name, policy) in [
        ("primary", ReadPolicy::Primary),
        ("any-replica", ReadPolicy::AnyReplica),
    ] {
        let s = staleness_distribution(&cfg, 20, policy);
        report.row(vec![
            "version staleness".into(),
            format!("{name}, writes every 20 ms"),
            format!(
                "mean {:.2}, p95 {}, max {}, fresh {:.0}%",
                s.mean_version_lag,
                s.p95_version_lag,
                s.max_version_lag,
                s.fresh_fraction * 100.0
            ),
        ]);
    }
    for (name, policy) in [
        ("primary", ReadPolicy::Primary),
        ("any-replica", ReadPolicy::AnyReplica),
    ] {
        let s = session_guarantees(&cfg, 5, policy);
        report.row(vec![
            "session guarantees".into(),
            format!("{name}, read 5 ms after write"),
            format!(
                "RYW violations {:.1}%, monotonic violations {:.1}%",
                s.ryw_violation_rate * 100.0,
                s.monotonic_violation_rate * 100.0
            ),
        ]);
    }
    for (name, lag) in [
        ("fixed 10 ms", LagModel::Fixed(10)),
        ("uniform 5–50 ms", LagModel::Uniform(5, 50)),
        (
            "bimodal 10/100 ms",
            LagModel::Bimodal {
                base: 10,
                p_slow: 0.1,
            },
        ),
    ] {
        let c = ConsistencyConfig {
            lag,
            trials: scale.trials.min(150),
            ..cfg.clone()
        };
        report.row(vec![
            "convergence (20-write burst)".into(),
            name.into(),
            format!("{:.1} ms", convergence_time(&c, 20)),
        ]);
    }
    report
}

/// E5 — conversion fidelity and throughput.
pub fn e5_conversion(scale: RunScale) -> Report {
    let mut report = Report::new(
        format!(
            "E5 — model-conversion tasks vs gold standards, SF {}",
            scale.sf
        ),
        &["task", "records", "fidelity", "time", "records/s"],
    );
    let data = generate(&GenConfig::at_scale(scale.sf));
    // score once per task with timing
    let t0 = Instant::now();
    let scores = udbms_convert::score_all(&data);
    let total = t0.elapsed();
    for s in &scores {
        report.row(vec![
            s.name.into(),
            s.produced.to_string(),
            format!("{:.4}", s.fidelity),
            "-".into(),
            "-".into(),
        ]);
    }
    // throughput of the two heavyweight directions
    let t0 = Instant::now();
    let nested = udbms_convert::rel_to_doc_nest(&data.customers, &data.orders);
    let dt = t0.elapsed();
    report.row(vec![
        "rel_to_doc_nest (timed)".into(),
        nested.len().to_string(),
        "1.0000".into(),
        us(dt.as_micros()),
        per_sec(nested.len(), dt.as_secs_f64()),
    ]);
    let t0 = Instant::now();
    let (rows, items) = udbms_convert::doc_to_rel_shred(&data.orders);
    let dt = t0.elapsed();
    report.row(vec![
        "doc_to_rel_shred (timed)".into(),
        (rows.len() + items.len()).to_string(),
        "1.0000".into(),
        us(dt.as_micros()),
        per_sec(rows.len() + items.len(), dt.as_secs_f64()),
    ]);
    report.note(format!(
        "all five gold-standard scorings took {total:?} combined"
    ));
    report
}

/// E8 — durability: commit throughput over durability level × clients,
/// group commit vs the historical per-commit WAL path, and recovery
/// time vs log size (including a torn-tail crash simulation). Every
/// throughput cell runs the identical distinct-key commit loop against
/// a WAL-backed engine; the variables are the durability level, the
/// client count, and which commit subsystem is on. Both arms append
/// through the same buffered log; they differ only in who drains the
/// queue — in the group-commit arm a leader drains batches, in the
/// per-commit arm each commit writes and flushes its own frame under
/// `commit_lock`. At `Buffered` every commit drains in place whatever
/// the setting, so that level runs one arm, `in-place`.
pub fn e8_durability(scale: RunScale) -> Report {
    let mut report = Report::new(
        format!(
            "E8 — durability × group commit: commit throughput + recovery, {} shard(s)",
            scale.shards
        ),
        &[
            "arm",
            "durability",
            "clients",
            "commits",
            "recs/batch",
            "elapsed",
            "p50",
            "p90",
            "p95",
            "p99",
            "max",
            "rate",
        ],
    );
    let per_client = if scale.reps > 5 { 400 } else { 120 };
    let commit = |engine: &Engine, k: usize| {
        engine.run(Isolation::Snapshot, |t| {
            t.put("commits", Key::int(k as i64), Value::Int(k as i64))
        })
    };
    let wal_engine = |path: &std::path::Path, config: EngineConfig| {
        let engine = Engine::with_wal_config(path, config).expect("wal-backed engine");
        kv_engine(engine, "commits", [])
    };

    // --- commit throughput: durability × clients × {group, per-commit} ---
    for level in scale.durability_levels() {
        let arms: &[(&str, bool)] = if level == Durability::Buffered {
            &[("in-place", true)]
        } else {
            &[("group-commit", true), ("per-commit", false)]
        };
        for clients in client_arms(scale.clients) {
            for &(arm, grouped) in arms {
                let path = temp_wal(&format!("e8-{arm}-{}-{clients}", level.label()));
                let config = scale
                    .engine_config()
                    .with_durability(level)
                    .with_group_commit(grouped);
                let engine = wal_engine(&path, config);
                let total = clients * per_client;
                // distinct keys, a fresh range per cycle on one growing
                // log: the cell measures the commit path, not conflict
                // retries
                let [cell] = best_of(cycles(scale), |cycle| {
                    [measure(
                        clients,
                        per_client,
                        RunMode::Closed,
                        |client, i| commit(&engine, cycle * total + client * per_client + i),
                    )]
                });
                let es = engine.stats();
                report.stats_row(
                    &[arm.into(), level.label().into(), clients.to_string()],
                    &cell.stats,
                    &[(
                        "recs/batch",
                        format!(
                            "{:.1}",
                            es.wal_records as f64 / es.wal_batches.max(1) as f64
                        ),
                    )],
                );
                drop(engine);
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    // --- recovery time vs log size (+ a torn-tail crash simulation) ---
    // logs are sized so replay takes milliseconds even in the quick
    // profile — a sub-millisecond recovery cell reads one scheduler
    // blip as its rate
    for (label, commits, tear) in [
        ("recovery", per_client * 8, false),
        ("recovery 4x-log", per_client * 32, false),
        ("recovery torn-tail", per_client * 8, true),
    ] {
        let path = temp_wal(&format!("e8-{}", label.replace(' ', "-")));
        let builder = wal_engine(
            &path,
            scale.engine_config().with_durability(Durability::Buffered),
        );
        // the torn-tail log carries one more commit, whose frame is cut
        for k in 0..commits + usize::from(tear) {
            commit(&builder, k).expect("log-builder commit");
        }
        // clean drop flushes the write buffer, leaving a complete log
        drop(builder);
        if tear {
            // crash simulation: the last frame lost its final bytes
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("open to tear");
            let len = f.metadata().expect("log length").len();
            f.set_len(len - 3).expect("torn tail");
        }
        let t0 = Instant::now();
        let engine = Engine::with_wal_config(&path, scale.engine_config()).expect("recovery");
        let dt = t0.elapsed();
        let replayed = Wal::read_all(&path).expect("post-recovery log").len();
        assert_eq!(
            replayed, commits,
            "every complete commit must survive recovery"
        );
        let dash = || "-".to_string();
        report.row(vec![
            label.into(),
            dash(),
            dash(),
            commits.to_string(),
            dash(),
            format!("{dt:?}"),
            dash(),
            dash(),
            dash(),
            dash(),
            dash(),
            per_sec(commits, dt.as_secs_f64()),
        ]);
        drop(engine);
        let _ = std::fs::remove_file(&path);
    }

    report.note("commit arms run the identical distinct-key loop on the same buffered log and");
    report.note("differ only in the queue: group-commit batches behind a leader/follower drain,");
    report.note("per-commit writes+flushes each frame under commit_lock. recovery rows time");
    report.note("Engine::with_wal over the log size; the torn-tail row recovers a log");
    report.note("whose last frame was cut short. at buffered nothing waits for the log, so");
    report.note("both settings drain each commit in place: that level runs one arm, in-place");
    report
}

/// E10 — observability overhead: two read-lane hot loops — a point-get
/// through `get_shared` and the compiled filter-scan — run twice on
/// identically loaded engines, once with obs recording enabled and once
/// disabled. The arms differ only in `EngineConfig::obs`, so the rate
/// gap *is* the cost of the stage histograms and trace events on the
/// hot path; the notes quote it per cell. (That the commit-stage
/// histograms populate on a WAL-backed engine is
/// `crates/driver/tests/obs.rs`'s job.)
pub fn e10_obs_overhead(scale: RunScale) -> Report {
    let rows = if scale.reps > 5 { 8192usize } else { 2048 };
    let mut report = Report::new(
        format!(
            "E10 — observability overhead: obs on vs off on the read-lane hot loops, {} row(s), {} shard(s)",
            rows, scale.shards
        ),
        &[
            "op", "obs", "clients", "ops", "elapsed", "p50", "p90", "p95", "p99", "max", "rate",
        ],
    );
    let filter = Query::parse("FOR r IN bench FILTER r.g % 4 == 3 RETURN r.n").expect("parse");
    // (op, clients) → the obs-on rate, for the overhead notes
    let mut on_rates: Vec<(&str, usize, f64)> = Vec::new();
    for (arm, enabled) in [("on", true), ("off", false)] {
        let engine = kv_engine(
            Engine::with_config(scale.engine_config().with_obs(enabled)),
            "bench",
            (0..rows).map(|i| {
                (
                    Key::int(i as i64),
                    udbms_core::obj! {"g" => (i % 16) as i64, "n" => i as i64},
                )
            }),
        );
        let point_get = |client: usize, i: usize| {
            let mut rng = SplitMix64::new(3 + client as u64 * 65_537 + i as u64);
            let key = Key::int((rng.next_u64() % rows as u64) as i64);
            let mut t = engine.begin_read();
            t.get_shared("bench", &key)?;
            t.commit().map(|_| ())
        };
        let filter_scan = |_: usize, _: usize| {
            let mut t = engine.begin_read();
            filter.execute(&mut t)?;
            t.commit().map(|_| ())
        };
        for clients in client_arms(scale.clients) {
            let cells = best_of(cycles(scale), |_| {
                [
                    measure(clients, 2048, RunMode::Closed, point_get),
                    measure(clients, 6, RunMode::Closed, filter_scan),
                ]
            });
            for (op, cell) in ["point-get", "filter-scan"].into_iter().zip(cells) {
                let rate = cell.stats.throughput();
                if enabled {
                    on_rates.push((op, clients, rate));
                } else if let Some((_, _, on)) =
                    on_rates.iter().find(|(o, c, _)| *o == op && *c == clients)
                {
                    // the measured cost of recording, per cell
                    let overhead = (1.0 - on / rate.max(1e-9)) * 100.0;
                    report.note(format!(
                        "{op} @ {clients} client(s): obs-on {on:.0}/s vs obs-off {rate:.0}/s ({overhead:+.1}% overhead)"
                    ));
                }
                report.stats_row(
                    &[op.into(), arm.into(), clients.to_string()],
                    &cell.stats,
                    &[],
                );
            }
        }
    }
    report.note("on/off arms run the identical loops on identically loaded engines; the only");
    report.note("difference is EngineConfig::obs — disabled recording must cost one branch");
    report
}

/// E11 — contention and tail latency over the workload dimensions:
/// read-modify-write updates and point reads against one loaded engine,
/// sweeping key distribution (uniform vs Zipfian hot keys) and client
/// count, with exact OCC abort counts per cell (each update goes
/// through `read_modify_write`, which returns the retries
/// [`udbms_engine::Engine::run`] would hide). The open-loop arms re-run
/// the Zipfian cells on a fixed-rate schedule — latency measured from
/// each operation's *intended* start — so queueing delay shows up in
/// the tail percentiles instead of vanishing to coordinated omission.
pub fn e11_contention_tail(scale: RunScale) -> Report {
    let n_keys = if scale.reps > 5 { 8192usize } else { 2048 };
    let per_client = if scale.reps > 5 { 1024usize } else { 256 };
    let mut report = Report::new(
        format!(
            "E11 — contention & tail latency: OCC aborts under key skew + open-loop pacing, {n_keys} key(s), nested records"
        ),
        &[
            "op", "dist", "mode", "clients", "ops", "target", "elapsed", "p50", "p90", "p95", "p99",
            "max", "aborts", "abort%", "rate",
        ],
    );
    let values = ValueProvider::new(ValueShape::nested(), 99);
    // load the key space in a seeded-random insert order so the
    // measured phases never benefit from insertion-order locality
    let loader = KeyProvider::new(n_keys, KeyDist::Uniform, 17);
    let engine = kv_engine(
        Engine::with_config(scale.engine_config()),
        "hot",
        loader
            .insert_order(InsertOrder::Random)
            .into_iter()
            .map(|i| (Key::int(i as i64), values.record(i))),
    );
    // updates are retried to success and at once — the cells measure raw
    // contention, so nothing may pace the retries — every conflict counted
    let to_success = RetryPolicy {
        max_retries: u32::MAX,
        base: std::time::Duration::ZERO,
        cap: std::time::Duration::ZERO,
    };

    // one measured cell, scored best-of-cycles by rate and rendered; the
    // best cycle's rate is returned for deriving open-loop targets
    let mut run_cell = |op: &str, dist: KeyDist, mode: RunMode, clients: usize, seed: u64| {
        let kp = KeyProvider::new(n_keys, dist, 29);
        let is_update = op == "update";
        let [cell] = best_of(cycles(scale), |cycle| {
            let aborts = AtomicU64::new(0);
            let cell = measure(clients, per_client, mode, |client, i| {
                let seed = seed + cycle as u64 * 1_000_003 + client as u64 * 65_537 + i as u64;
                let idx = kp.draw(&mut SplitMix64::new(seed));
                let k = Key::int(idx as i64);
                if is_update {
                    // first-committer-wins: concurrent writers of one
                    // hot key conflict at commit
                    let (result, retries) =
                        read_modify_write(&engine, &to_success, seed, &k, || values.record(idx));
                    aborts.fetch_add(u64::from(retries), Ordering::Relaxed);
                    result
                } else {
                    engine
                        .run(Isolation::Snapshot, |t| t.get("hot", &k))
                        .map(|_| ())
                }
            });
            [Cell {
                retries: aborts.into_inner(),
                ..cell
            }]
        });
        let abort_pct = cell.retries as f64
            / (cell.stats.total_ops as u64 + cell.retries).max(1) as f64
            * 100.0;
        report.stats_row(
            &[
                op.into(),
                dist.label(),
                mode.label().into(),
                clients.to_string(),
            ],
            &cell.stats,
            &[
                (
                    "target",
                    match mode {
                        RunMode::Closed => "-".into(),
                        RunMode::Open { rate } => format!("{rate:.0}/s"),
                    },
                ),
                ("aborts", cell.retries.to_string()),
                ("abort%", format!("{abort_pct:.1}%")),
            ],
        );
        cell.stats.throughput()
    };

    let clients_hi = scale.clients.max(1);
    // YCSB's classic contention skew
    let zipf = KeyDist::Zipfian { theta: 0.99 };
    // the N-client closed Zipfian rates (update, read) — each slot's
    // last write, as the Zipfian arms run last — for deriving a
    // sustainable open-loop target on whatever machine this is
    let mut closed_rate = [None, None];
    if scale.mode != Some(ModeFilter::Open) {
        for dist in [KeyDist::Uniform, zipf] {
            for clients in client_arms(clients_hi) {
                closed_rate[0] = Some(run_cell("update", dist, RunMode::Closed, clients, 101));
            }
            closed_rate[1] = Some(run_cell("read", dist, RunMode::Closed, clients_hi, 203));
        }
    }
    if scale.mode != Some(ModeFilter::Closed) {
        for (op, closed) in ["update", "read"].into_iter().zip(closed_rate) {
            // half the matching closed cell's measured rate: a schedule
            // any machine sustains, so the open-loop tail reflects
            // service jitter rather than saturation
            let rate = closed.unwrap_or(500.0) * 0.5;
            run_cell(op, zipf, RunMode::Open { rate }, clients_hi, 307);
        }
    }

    report.note("update = read-modify-write through the retry policy: `aborts` are");
    report.note("first-committer-wins conflicts, counted exactly and retried to success;");
    report.note("abort% = aborts / (ops + aborts). Each update yields the scheduler between");
    report.note("read and write-back (the lost-update window), so contention is observable");
    report.note("even when client threads timeslice a single core");
    report.note("open cells schedule intended starts at `target` (half the matching closed");
    report.note("cell's measured rate) and measure latency from the intended start, so");
    report.note("queueing delay lands in the tail instead of vanishing to coordinated omission");
    report
}

/// The seed of E12's fault plan: it fixes the plan's deterministic draws
/// and the backoff jitter (E12 always injects).
const FAULT_SEED: u64 = 0xFA12;

/// E12's conflict-retry budget (bounded exponential backoff; retries
/// are reported separately from aborts).
const RETRIES: u32 = 8;

/// E12 — storage faults & degraded-mode operation. Five phases on one
/// WAL-backed engine tell the failure story end to end:
///
/// 1. `baseline:update` — healthy commits over a hot key range, with
///    the bounded-backoff retry policy absorbing OCC conflicts
///    (retries reported separately from errors).
/// 2. `burst:update` — a sticky ENOSPC fault lands on the WAL append
///    path mid-run; the engine poisons the log into read-only mode
///    and every later write **fails fast** (the rate is attempts/s —
///    fail-fast must stay cheap, never hang).
/// 3. `degraded:read` — the lock-free read lane keeps serving at full
///    speed against the poisoned engine (the acceptance criterion:
///    degraded read throughput stays nonzero).
/// 4. `degraded:write` — write rejection rate in degraded mode; the
///    retry policy must *not* retry `Unavailable` (fsyncgate).
/// 5. `recovered:update` — remount: reopen the same log un-faulted,
///    replay, and measure **time-to-writable** (`ttw` = reopen until
///    the first commit succeeds), then healthy throughput again.
pub fn e12_faults(scale: RunScale) -> Report {
    use std::sync::Arc;

    let per_client = if scale.reps > 5 { 400 } else { 120 };
    let clients = scale.clients.max(1);
    let policy = RetryPolicy::with_retries(RETRIES);
    let n_keys = 256usize; // hot enough that the retry policy has work

    let mut report = Report::new(
        format!(
            "E12 — storage faults: fail-fast writes, degraded reads, recovery (retry budget {RETRIES}, fault seed {FAULT_SEED})"
        ),
        &[
            "phase", "op", "clients", "ops", "ok", "errors", "retries", "ttw", "elapsed", "p50",
            "p90", "p95", "p99", "max", "rate",
        ],
    );

    let path = temp_wal("e12");
    let config = scale
        .engine_config()
        .with_durability(scale.durability.unwrap_or(Durability::Flush))
        .with_group_commit(true);
    let plan = Arc::new(FaultPlan::seeded(FAULT_SEED));
    let wal_engine =
        |plan| Engine::with_wal_faults(&path, config, plan).expect("wal-backed engine");
    let engine = kv_engine(wal_engine(Arc::clone(&plan)), "hot", []);

    // one measured phase, rendered: every client drives `op` (an update
    // is the same read-modify-write through the retry policy); engine
    // errors are the measurement, so they are counted, never
    // propagated. Returns (ok, errors, retries).
    let mut phase = |engine: &Engine, phase: &str, op: &str, phase_seed: u64, ttw: String| {
        let (ok, errors, retries) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let is_update = op == "update";
        let cell = measure(clients, per_client, RunMode::Closed, |client, i| {
            let k = Key::int(((client * per_client + i) % n_keys) as i64);
            let result = if is_update {
                let seed = phase_seed ^ (client as u64 * 65_537 + i as u64);
                let (result, tries) =
                    read_modify_write(engine, &policy, seed, &k, || Value::Int(i as i64));
                retries.fetch_add(u64::from(tries), Ordering::Relaxed);
                result
            } else {
                let mut t = engine.begin_read();
                t.get("hot", &k).and_then(|_| t.commit()).map(|_| ())
            };
            match result {
                Ok(()) => ok.fetch_add(1, Ordering::Relaxed),
                Err(_) => errors.fetch_add(1, Ordering::Relaxed),
            };
            Ok(())
        });
        let counts = (ok.into_inner(), errors.into_inner(), retries.into_inner());
        report.stats_row(
            &[phase.into(), op.into()],
            &cell.stats,
            &[
                ("clients", clients.to_string()),
                ("ok", counts.0.to_string()),
                ("errors", counts.1.to_string()),
                ("retries", counts.2.to_string()),
                ("ttw", ttw),
            ],
        );
        counts
    };
    let dash = || "-".to_string();

    // --- phase 1: healthy baseline ---
    let (_, errors, _) = phase(&engine, "baseline", "update", FAULT_SEED, dash());
    assert_eq!(errors, 0, "baseline phase must be fault-free");

    // --- phase 2: ENOSPC burst on the WAL append path ---
    plan.enospc("append.write");
    let (_, errors, _) = phase(&engine, "burst", "update", FAULT_SEED ^ 0xB0, dash());
    assert!(errors > 0, "the fault burst must reject writes");

    // --- phase 3: degraded reads keep serving ---
    let (ok, errors, _) = phase(&engine, "degraded", "read", 0, dash());
    assert!(ok > 0, "degraded mode must keep serving reads");
    assert_eq!(errors, 0, "read-only mode must not reject reads");

    // --- phase 4: degraded writes fail fast ---
    let (ok, _, retries) = phase(&engine, "degraded", "update", FAULT_SEED ^ 0xD0, dash());
    assert_eq!(ok, 0, "a read-only engine must reject every write");
    assert_eq!(retries, 0, "Unavailable must never be retried (fsyncgate)");
    let es = engine.stats();
    drop(engine);

    // --- phase 5: remount — reopen un-faulted, replay, write again ---
    let t0 = Instant::now();
    let engine = wal_engine(Arc::new(FaultPlan::none()));
    engine
        .run(Isolation::Snapshot, |t| {
            t.put("hot", Key::int(0), Value::Int(-1))
        })
        .expect("first post-recovery commit");
    let ttw = format!("{:?}", t0.elapsed());
    let (_, errors, _) = phase(&engine, "recovered", "update", FAULT_SEED ^ 0xF0, ttw);
    assert_eq!(errors, 0, "a remounted engine must accept writes again");
    drop(engine);
    let _ = std::fs::remove_file(&path);

    report.note("update = read-modify-write through the bounded-backoff retry policy;");
    report.note("`retries` are OCC conflicts absorbed by backoff, `errors` are rejections");
    report.note("returned to the client. burst arms a sticky ENOSPC on the WAL append path:");
    report.note("the engine poisons into read-only mode and later writes fail fast (rate =");
    report.note("attempts/s), while the lock-free read lane keeps serving. `ttw` = remount");
    report.note("time-to-writable: reopen + replay + first committed write.");
    report.note(format!(
        "engine counters at teardown: degraded_reads {}, write_rejected {}",
        es.degraded_reads, es.write_rejected
    ));
    report
}

/// One selectable experiment: its id and the function that produces its
/// table.
pub type Experiment = (&'static str, fn(RunScale) -> Report);

/// Every experiment, in the order `harness` runs them: the one list the
/// harness menu is read from.
pub const EXPERIMENTS: &[Experiment] = &[
    ("f1", f1_inventory),
    ("e1", e1_generation),
    ("e2", e2_queries),
    ("e3", e3_evolution),
    ("e4a", e4a_transactions),
    ("e4b", e4b_acid),
    ("e4c", e4c_eventual),
    ("e5", e5_conversion),
    ("e8", e8_durability),
    ("e10", e10_obs_overhead),
    ("e11", e11_contention_tail),
    ("e12", e12_faults),
];

/// The experiments `wanted` names, in table order (all of them when
/// `wanted` is empty); `Err` lists the ids that are not in the table —
/// a typo'd id silently dropped would silently change what ran.
pub fn select(wanted: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    let unknown: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|w| !EXPERIMENTS.iter().any(|(id, ..)| id == w))
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        return Err(format!(
            "unknown experiment(s) {unknown:?}; available: {}",
            known.join(", ")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|(id, ..)| wanted.is_empty() || wanted.contains(id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique_and_unknown_ids_are_rejected() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        assert_eq!(ids.len(), 12);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "duplicate experiment id");
        assert_eq!(select(&[]).unwrap().len(), 12, "no ids = everything");
        // selection keeps table order, whatever order was asked for
        let picked: Vec<&str> = select(&["e10", "e2"])
            .unwrap()
            .into_iter()
            .map(|(id, ..)| *id)
            .collect();
        assert_eq!(picked, ["e2", "e10"]);
        let err = select(&["e2", "e13", "out.txt"]).unwrap_err();
        assert!(err.contains("e13") && err.contains("out.txt"), "{err}");
        assert!(err.contains("available: f1, e1, e2"), "{err}");
    }

    #[test]
    fn quick_profile_runs_every_experiment() {
        let scale = RunScale {
            sf: 0.01,
            reps: 2,
            trials: 60,
            clients: 2,
            shards: 4,
            durability: None,
            ..RunScale::quick()
        };
        for (_, run) in EXPERIMENTS {
            let report = run(scale);
            let rendered = report.render();
            assert!(!report.rows.is_empty(), "{} has no rows", report.title);
            assert!(rendered.contains("=="));
        }
    }

    #[test]
    fn e12_tells_the_full_failure_story() {
        let scale = RunScale {
            sf: 0.01,
            reps: 2,
            trials: 10,
            clients: 2,
            shards: 4,
            ..RunScale::quick()
        };
        let r = e12_faults(scale);
        let phases: Vec<(&str, &str)> = r
            .rows
            .iter()
            .map(|row| (row[0].as_str(), row[1].as_str()))
            .collect();
        assert_eq!(
            phases,
            vec![
                ("baseline", "update"),
                ("burst", "update"),
                ("degraded", "read"),
                ("degraded", "update"),
                ("recovered", "update"),
            ]
        );
        for row in &r.rows {
            let (phase, op, ok, errors) = (&row[0], &row[1], &row[4], &row[5]);
            let ok: u64 = ok.parse().unwrap();
            match (phase.as_str(), op.as_str()) {
                // the acceptance criteria: degraded reads keep serving,
                // degraded writes all fail fast
                ("degraded", "read") => assert!(ok > 0, "degraded reads served"),
                ("degraded", "update") => {
                    assert!(errors.parse::<u64>().unwrap() > 0, "writes rejected")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn e2_covers_every_query_for_every_subject_with_clients() {
        let scale = RunScale {
            sf: 0.01,
            reps: 2,
            trials: 10,
            clients: 4,
            shards: 4,
            durability: None,
            ..RunScale::quick()
        };
        let r = e2_queries(scale);
        let n_subjects = registry().len();
        assert_eq!(
            r.rows.len(),
            10 * n_subjects,
            "one row per (query, subject)"
        );
        for q in workload::queries() {
            for subject in registry() {
                assert!(
                    r.rows
                        .iter()
                        .any(|row| row[0] == q.id && row[1] == subject.name()),
                    "missing row for {} x {}",
                    q.id,
                    subject.name()
                );
            }
        }
        for row in &r.rows {
            assert!(row[9].ends_with("/s"), "throughput cell: {row:?}");
        }
    }

    #[test]
    fn e4a_sweeps_subject_isolations_under_concurrency() {
        let scale = RunScale {
            sf: 0.01,
            reps: 2,
            trials: 10,
            clients: 4,
            shards: 4,
            durability: None,
            ..RunScale::quick()
        };
        let r = e4a_transactions(scale);
        // client counts {1, 4} x theta {0, 0.9} x (unified: RC/SI/SER + polyglot: 2PC)
        assert_eq!(r.rows.len(), 2 * 2 * 4);
        assert!(r
            .rows
            .iter()
            .any(|row| row[0] == "unified" && row[1] == "SER"));
        assert!(r
            .rows
            .iter()
            .any(|row| row[0] == "polyglot" && row[1] == "2PC"));
        assert!(
            r.rows.iter().any(|row| row[2] == "4"),
            "concurrent cells present"
        );
        for row in r.rows.iter().filter(|row| row[0] == "unified") {
            assert!(row[12].contains("aborts="), "unified counters: {row:?}");
        }
    }

    #[test]
    fn e11_measures_contention_and_open_loop_tail() {
        let scale = RunScale {
            sf: 0.01,
            reps: 2,
            trials: 10,
            clients: 4,
            shards: 4,
            durability: None,
            ..RunScale::quick()
        };
        let r = e11_contention_tail(scale);
        // closed: update × {uniform, zipf} × {1, 4} + read × {uniform, zipf} × {4}
        // open (zipf only): update × {4} + read × {4}
        assert_eq!(r.rows.len(), 8);
        for row in &r.rows {
            assert!(row[14].ends_with("/s"), "rate cell: {row:?}");
            assert!(row[13].ends_with('%'), "abort% cell: {row:?}");
            let _aborts: u64 = row[12].parse().expect("abort count is a number");
        }
        assert!(r
            .rows
            .iter()
            .any(|row| row[0] == "update" && row[1] == "zipf(0.99)" && row[3] == "4"));
        // the experiment's reason to exist: the Zipfian multi-client
        // update arm actually conflicts — each update holds its
        // snapshot across a yield, so even a single-core runner
        // overlaps transactions and first-committer-wins aborts show up
        let zipf_aborts: u64 = r
            .rows
            .iter()
            .filter(|row| row[0] == "update" && row[1] == "zipf(0.99)" && row[3] == "4")
            .map(|row| row[12].parse::<u64>().expect("abort count"))
            .sum();
        assert!(zipf_aborts > 0, "skewed 4-client updates must conflict");
        // open rows are zipf-only and carry an explicit target rate
        let open: Vec<_> = r.rows.iter().filter(|row| row[2] == "open").collect();
        assert_eq!(open.len(), 2);
        for row in &open {
            assert!(row[1].starts_with("zipf"), "open rows sweep zipf: {row:?}");
            assert!(row[5].ends_with("/s"), "open rows carry a target: {row:?}");
        }
        assert!(r
            .rows
            .iter()
            .filter(|row| row[2] == "closed")
            .all(|row| row[5] == "-"));

        // the mode filter restricts arms; with no closed cell to halve,
        // the open target falls back to half of 500 ops/s
        let r = e11_contention_tail(RunScale {
            mode: Some(ModeFilter::Closed),
            ..scale
        });
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().all(|row| row[2] == "closed"));
        let r = e11_contention_tail(RunScale {
            mode: Some(ModeFilter::Open),
            ..scale
        });
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().all(|row| row[2] == "open"));
        assert!(r.rows.iter().all(|row| row[5] == "250/s"));
    }

    #[test]
    fn e8_sweeps_durability_and_reports_recovery() {
        let scale = RunScale {
            sf: 0.01,
            reps: 2,
            trials: 10,
            clients: 2,
            shards: 2,
            durability: None,
            ..RunScale::quick()
        };
        let r = e8_durability(scale);
        // {flush, fsync} × clients {1, 2} × {group-commit, per-commit}
        // + buffered's one in-place arm × clients {1, 2} + 3 recovery rows
        assert_eq!(r.rows.len(), 2 * 2 * 2 + 2 + 3);
        for (level, arms) in [
            ("buffered", &["in-place"][..]),
            ("flush", &["group-commit", "per-commit"]),
            ("fsync", &["group-commit", "per-commit"]),
        ] {
            for arm in arms {
                assert!(
                    r.rows
                        .iter()
                        .any(|row| row[0] == *arm && row[1] == level && row[2] == "2"),
                    "missing row {arm} × {level}"
                );
            }
        }
        assert!(r.rows.iter().any(|row| row[0] == "recovery torn-tail"));
        for row in &r.rows {
            assert!(row[11].ends_with("/s"), "rate cell: {row:?}");
        }

        // a pinned level (the CI configuration) sweeps only that level
        let r = e8_durability(RunScale {
            durability: Some(Durability::Flush),
            ..scale
        });
        assert_eq!(r.rows.len(), 2 * 2 + 3);
        assert!(r.rows.iter().all(|row| row[1] != "fsync"));
    }

    #[test]
    fn e10_sweeps_obs_arms_and_quotes_the_overhead() {
        let scale = RunScale {
            sf: 0.01,
            reps: 2,
            trials: 10,
            clients: 2,
            shards: 4,
            durability: None,
            ..RunScale::quick()
        };
        let r = e10_obs_overhead(scale);
        // 2 ops × obs arms {on, off} × client arms {1, 2}
        assert_eq!(r.rows.len(), 2 * 2 * 2);
        for op in ["point-get", "filter-scan"] {
            for arm in ["on", "off"] {
                for clients in ["1", "2"] {
                    assert!(
                        r.rows
                            .iter()
                            .any(|row| row[0] == op && row[1] == arm && row[2] == clients),
                        "missing row {op} × obs {arm} × {clients}"
                    );
                }
            }
        }
        for row in &r.rows {
            assert!(row[10].ends_with("/s"), "rate cell: {row:?}");
        }
        // the notes quote the measured overhead, one per (op, clients)
        let quoted = r.notes.iter().filter(|n| n.contains("% overhead"));
        assert_eq!(quoted.count(), 2 * 2);
    }

    #[test]
    fn temp_wal_paths_are_unique_per_call() {
        let (a, b) = (temp_wal("same"), temp_wal("same"));
        assert_ne!(a, b, "two logs with one tag must not share a file");
    }
}
