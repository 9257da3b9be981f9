//! Integration tests for the engine-wide observability layer, driven
//! through the public `Subject` surface the harness uses: the slow-query
//! log captures seeded slow statements with stage timings, a WAL-backed
//! engine reports per-stage commit-pipeline histograms, and the snapshot
//! exports (Prometheus text, JSON) round-trip through the repo's own
//! parsers.

use udbms_datagen::{generate, workload, GenConfig};
use udbms_driver::{EngineSubject, Subject};
use udbms_engine::{Durability, EngineConfig, Isolation};

/// A tiny dataset every test can afford to load.
fn small_dataset() -> udbms_datagen::Dataset {
    generate(&GenConfig {
        scale_factor: 0.01,
        ..Default::default()
    })
}

/// Run `n` executions of workload query `q_idx` against `subject`.
fn drive(subject: &EngineSubject, data: &udbms_datagen::Dataset, q_idx: usize, n: usize) {
    let q = workload::queries()[q_idx];
    let prepared = subject.prepare(&q).unwrap();
    let params = workload::QueryParams::draw(data, 1).bindings();
    for _ in 0..n {
        subject.execute(&prepared, &params).unwrap();
    }
}

#[test]
fn slow_query_log_captures_statement_and_stage_timings() {
    // threshold 0: every execution is "slow", so one run seeds the log
    let subject = EngineSubject::with_config(EngineConfig::default());
    subject.engine().obs().slow().set_threshold_us(0);
    let data = small_dataset();
    subject.load(&data).unwrap();
    drive(&subject, &data, 0, 3);

    let snap = subject.engine().obs_snapshot();
    assert!(
        !snap.slow_queries.is_empty(),
        "threshold 0 must capture every execution"
    );
    let entry = &snap.slow_queries[0];
    assert!(
        entry.statement.contains("FOR c IN customers"),
        "slow-query entries carry the statement text, got `{}`",
        entry.statement
    );
    assert!(!entry.plan.is_empty(), "entries carry a plan summary");
    let stage_names: Vec<&str> = entry.stages.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        stage_names,
        vec!["bind", "execute"],
        "stage timings name the execution phases"
    );
    // total roughly covers the stages — the stage stamps are read a
    // moment after the total, so allow scheduling/truncation skew
    let stage_sum: u64 = entry.stages.iter().map(|(_, us)| *us).sum();
    assert!(
        entry.total_us + 1000 >= stage_sum,
        "total {}µs vs stages {}µs",
        entry.total_us,
        stage_sum
    );
}

#[test]
fn default_threshold_captures_nothing_fast() {
    // the default 100 ms threshold should not trip on point lookups
    let subject = EngineSubject::with_config(EngineConfig::default());
    let data = small_dataset();
    subject.load(&data).unwrap();
    drive(&subject, &data, 0, 3);
    let snap = subject.engine().obs_snapshot();
    assert!(
        snap.slow_queries.is_empty(),
        "sub-millisecond lookups must not spam the slow-query log"
    );
}

#[test]
fn wal_engine_reports_per_stage_commit_histograms() {
    let mut path = std::env::temp_dir();
    path.push(format!("udbms-driver-obs-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // slow-query threshold 0: every statement is captured, so the check
    // does not depend on machine speed
    let subject = EngineSubject::with_wal_config(
        &path,
        EngineConfig::default().with_durability(Durability::Flush),
    )
    .unwrap();
    subject.engine().obs().slow().set_threshold_us(0);
    let data = small_dataset();
    subject.load(&data).unwrap();
    // queries through the plan cache and the read lane of the same engine
    drive(&subject, &data, 0, 5);
    // a handful of write transactions push commits through the full
    // group-commit pipeline: queue wait → WAL append → flush → install
    let order = udbms_core::Key::str(data.orders[0].get_field("_id").as_str().unwrap());
    for _ in 0..10 {
        subject
            .transact(
                &udbms_driver::TxnOp::OrderUpdate {
                    order: order.clone(),
                },
                "SI",
            )
            .unwrap();
    }

    let snap = subject.engine().obs_snapshot();
    for stage in [
        "commit_queue_wait_ns",
        "wal_append_ns",
        "wal_flush_ns",
        "commit_validate_ns",
        "commit_install_ns",
    ] {
        let hist = snap
            .histogram(stage)
            .unwrap_or_else(|| panic!("snapshot must contain `{stage}`"));
        assert!(hist.count > 0, "`{stage}` must have recorded samples");
        assert!(hist.max >= hist.p50(), "`{stage}` percentiles are ordered");
    }
    // the trace ring saw the WAL batches commit durably
    assert!(
        snap.events.iter().any(|e| e.kind == "wal_batch"),
        "trace ring must carry wal_batch events"
    );
    // one WAL-backed engine end to end: statement latencies and the
    // slow-query log record next to the commit stages, and a snapshot
    // carrying all of them (trace events included) still exports
    assert!(snap.histogram("query_exec_us").map_or(0, |h| h.count) > 0);
    assert!(
        !snap.slow_queries.is_empty(),
        "threshold 0 captures queries"
    );
    udbms_json::parse(&snap.to_json()).expect("ObsSnapshot::to_json must be valid JSON");
    assert!(snap.to_prometheus().contains("quantile=\"0.99\""));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_exports_parse_cleanly() {
    let subject = EngineSubject::with_config(EngineConfig::default());
    let data = small_dataset();
    subject.load(&data).unwrap();
    drive(&subject, &data, 0, 5);

    let snap = subject.engine().obs_snapshot();

    // JSON export must be valid by the repo's own parser
    let json = snap.to_json();
    let doc = udbms_json::parse(&json).expect("ObsSnapshot::to_json must be valid JSON");
    let text = udbms_json::to_string(&doc);
    assert!(text.contains("query_exec_us"), "histograms serialize");

    // Prometheus text export carries counts and quantiles
    let prom = snap.to_prometheus();
    assert!(prom.contains("query_exec_us_count"));
    assert!(prom.contains("quantile=\"0.99\""));
    assert!(prom.contains("# TYPE"));
}

/// The engine's counters live once, in the obs registry: the export
/// carries them, `EngineStats` is a view of the same numbers, and they
/// count the same with obs recording off.
#[test]
fn engine_counters_are_exported_and_equal_engine_stats() {
    let mut totals = Vec::new();
    for obs in [true, false] {
        let subject = EngineSubject::with_config(EngineConfig::default().with_obs(obs));
        let data = small_dataset();
        subject.load(&data).unwrap();
        drive(&subject, &data, 0, 5);
        let engine = subject.engine();
        // one explicit abort, one write-write conflict
        engine.begin(Isolation::Snapshot).abort();
        let key = udbms_core::Key::str("obs-test");
        let mut first = engine.begin(Isolation::Snapshot);
        let mut second = engine.begin(Isolation::Snapshot);
        first
            .put("feedback", key.clone(), udbms_core::Value::Int(1))
            .unwrap();
        second
            .put("feedback", key, udbms_core::Value::Int(2))
            .unwrap();
        first.commit().unwrap();
        second.commit().unwrap_err();

        let stats = engine.stats();
        let snap = engine.obs_snapshot();
        assert!(stats.commits > 0 && stats.read_txns >= 5, "{stats:?}");
        assert_eq!((stats.aborts, stats.ww_conflicts), (2, 1), "{stats:?}");
        for (name, value) in [
            ("commits", stats.commits),
            ("aborts", stats.aborts),
            ("ww_conflicts", stats.ww_conflicts),
            ("read_conflicts", stats.read_conflicts),
            ("read_txns", stats.read_txns),
            ("plan_cache_misses", stats.plan_misses),
        ] {
            assert_eq!(snap.counter(name), value, "`{name}` (obs {obs})");
        }
        let prom = snap.to_prometheus();
        assert!(
            prom.contains(&format!("commits {}", stats.commits)),
            "{prom}"
        );
        assert!(prom.contains("aborts 2"), "{prom}");
        assert!(snap.to_json().contains("\"commits\""));
        totals.push(stats);
    }
    assert_eq!(totals[0], totals[1], "obs on vs off");
}

#[test]
fn plan_cache_counters_surface_in_engine_stats() {
    let subject = EngineSubject::with_config(EngineConfig::default());
    let data = small_dataset();
    subject.load(&data).unwrap();
    let q = workload::queries()[0];
    for _ in 0..3 {
        subject.prepare(&q).unwrap();
    }
    let stats = subject.engine().stats();
    assert_eq!(stats.plan_misses, 1, "first prepare parses");
    assert_eq!(stats.plan_hits, 2, "repeat prepares hit the cache");
    // and the same numbers ride the Subject::counters() surface
    let counters = subject.counters();
    let get = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(get("plan_hits"), Some(2));
    assert_eq!(get("plan_misses"), Some(1));
}

#[test]
fn disabled_obs_keeps_the_subject_silent() {
    let subject = EngineSubject::with_config(EngineConfig::default().with_obs(false));
    subject.engine().obs().slow().set_threshold_us(0);
    let data = small_dataset();
    subject.load(&data).unwrap();
    drive(&subject, &data, 0, 3);
    let snap = subject.engine().obs_snapshot();
    assert!(!snap.enabled);
    assert!(snap.slow_queries.is_empty(), "disabled obs logs nothing");
    assert!(
        snap.histogram("query_exec_us").map_or(0, |h| h.count) == 0,
        "disabled obs records no statement latencies"
    );
}
