//! End-to-end integration: the complete benchmark loop at small scale —
//! generate → load → query (both subjects) → transact → evolve → adapt →
//! convert → audit. This is the test a downstream user would run first.

use udbms::consistency::{atomicity_census, lost_update_census, write_skew_census};
use udbms::convert::score_all;
use udbms::core::{Key, Value};
use udbms::datagen::{build_engine, generate, workload, GenConfig};
use udbms::engine::Isolation;
use udbms::evolution::{analyze_workload, apply_chain, standard_chain, QueryFate};
use udbms::polyglot::{load_into_polyglot, run_query, PolyglotDb};

fn small_cfg() -> GenConfig {
    GenConfig {
        scale_factor: 0.02,
        ..Default::default()
    }
}

#[test]
fn the_full_benchmark_loop() {
    // 1. generate + load both subjects
    let cfg = small_cfg();
    let (engine, data) = build_engine(&cfg).expect("engine load");
    let polyglot = PolyglotDb::new();
    load_into_polyglot(&polyglot, &data).expect("polyglot load");

    // 2. the workload agrees across subjects
    let params = workload::QueryParams::draw(&data, 7);
    for (q, bound) in workload::bound_queries(&params).expect("workload binds") {
        let mut a = engine
            .run(Isolation::Snapshot, |t| bound.execute(t))
            .unwrap_or_else(|e| panic!("{} engine: {e}", q.id));
        let mut b = run_query(&polyglot, q.id, &params)
            .unwrap_or_else(|e| panic!("{} polyglot: {e}", q.id));
        a.sort();
        b.sort();
        assert_eq!(a, b, "{} diverged", q.id);
    }

    // 3. the flagship cross-model transaction
    let okey = Key::str(data.orders[1].get_field("_id").as_str().unwrap());
    engine
        .run(Isolation::Snapshot, |t| workload::order_update(t, &okey))
        .expect("order_update");
    let status = engine
        .run(Isolation::Snapshot, |t| {
            Ok(t.get("orders", &okey)?.unwrap().get_field("status").clone())
        })
        .unwrap();
    assert_eq!(status, Value::from("shipped"));

    // 4. evolve the schema and keep the history workload alive
    let chain = standard_chain();
    apply_chain(&engine, &chain[..6]).expect("non-destructive prefix");
    let stmts: Vec<_> = workload::bound_queries(&params)
        .expect("workload binds")
        .into_iter()
        .map(|(_, q)| q.statement().clone())
        .collect();
    let (report, fates) = analyze_workload(&stmts, &chain[..6]);
    assert_eq!(report.broken, 0);
    for (fate, stmt) in &fates {
        assert_ne!(*fate, QueryFate::Broken);
        engine
            .run(Isolation::Snapshot, |t| udbms::query::execute(stmt, t))
            .expect("adapted query runs");
    }

    // 5. conversions hit their gold standards (on fresh, unevolved data)
    let fresh = generate(&cfg);
    for score in score_all(&fresh) {
        assert!((score.fidelity - 1.0).abs() < 1e-12, "{}", score.name);
    }

    // 6. quick consistency audit
    let a = atomicity_census(100, 0.3, 9).unwrap();
    assert_eq!(a.partial, 0);
    assert_eq!(lost_update_census(Isolation::Snapshot, 20).unwrap().lost, 0);
    assert_eq!(
        write_skew_census(Isolation::Serializable, 20)
            .unwrap()
            .violations,
        0
    );
}

#[test]
fn gc_keeps_queries_correct_under_churn() {
    let (engine, data) = build_engine(&small_cfg()).unwrap();
    let params = workload::QueryParams::draw(&data, 3);
    let (_, q2) = workload::bound_queries(&params).unwrap().swap_remove(1);
    let before = engine.run(Isolation::Snapshot, |t| q2.execute(t)).unwrap();

    // churn: rewrite every order several times (read-modify-write merges)
    let churn = |engine: &udbms::engine::Engine| {
        for round in 0..3 {
            engine
                .run(Isolation::Snapshot, |t| {
                    for o in &data.orders {
                        let key = Key::str(o.get_field("_id").as_str().unwrap());
                        t.merge("orders", &key, udbms::core::obj! {"churn" => round})?;
                    }
                    Ok(())
                })
                .unwrap();
        }
    };
    // a snapshot held across the churn keeps every commit from pruning
    // what it superseded, so the history is left for GC
    let held = engine.begin_read();
    churn(&engine);
    drop(held);
    let stats_before = engine.stats();
    let gc = engine.gc();
    let stats_after = engine.stats();
    assert!(gc.versions_removed > 0);
    assert!(stats_after.versions < stats_before.versions);

    let after = engine.run(Isolation::Snapshot, |t| q2.execute(t)).unwrap();
    // Q2 projects name/order/total/status — untouched by churn fields
    assert_eq!(before, after, "GC must not change query results");

    // with no snapshot held, each commit prunes the chains it rewrote
    let (engine, _) = build_engine(&small_cfg()).unwrap();
    churn(&engine);
    let stats = engine.stats();
    assert_eq!(stats.versions, stats.chains, "commits left history behind");
    let after = engine.run(Isolation::Snapshot, |t| q2.execute(t)).unwrap();
    assert_eq!(
        before, after,
        "pruning at commit must not change query results"
    );
}

#[test]
fn workload_is_deterministic_across_processes() {
    // same seed → same data → same query answers (golden stability)
    let cfg = small_cfg();
    let (engine1, data1) = build_engine(&cfg).unwrap();
    let (engine2, data2) = build_engine(&cfg).unwrap();
    assert_eq!(data1.inventory(), data2.inventory());
    let p1 = workload::QueryParams::draw(&data1, 5);
    let p2 = workload::QueryParams::draw(&data2, 5);
    assert_eq!(p1.customer, p2.customer);
    for (q, bound) in workload::bound_queries(&p1).unwrap() {
        let a = engine1
            .run(Isolation::Snapshot, |t| bound.execute(t))
            .unwrap();
        let b = engine2
            .run(Isolation::Snapshot, |t| bound.execute(t))
            .unwrap();
        assert_eq!(a, b, "{}", q.id);
    }
}
