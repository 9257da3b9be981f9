//! Concurrency integration: multi-threaded cross-model transaction storms
//! against the unified engine, verifying invariants no interleaving may
//! break.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use udbms::core::{CollectionSchema, Key, SplitMix64, Value};
use udbms::datagen::{build_engine, workload, GenConfig};
use udbms::engine::{Engine, Isolation};

#[test]
fn order_update_storm_preserves_cross_model_invariants() {
    let cfg = GenConfig {
        scale_factor: 0.02,
        ..Default::default()
    };
    let (engine, data) = build_engine(&cfg).unwrap();
    let picker = Arc::new(workload::OrderPicker::new(&data, 0.9));
    let applied = Arc::new(AtomicU64::new(0));

    let run_storm = |round: u64| {
        let threads: Vec<_> = (0..4)
            .map(|tid| {
                let engine = engine.clone();
                let picker = Arc::clone(&picker);
                let applied = Arc::clone(&applied);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(1000 + round * 100 + tid);
                    for _ in 0..40 {
                        let key = picker.pick(&mut rng).clone();
                        engine
                            .run(Isolation::Snapshot, |t| workload::order_update(t, &key))
                            .expect("order_update retries through conflicts");
                        applied.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    };
    // a fast scheduler can timeslice whole transactions back-to-back so
    // that no snapshot ever straddles a concurrent install and a single
    // storm observes zero conflicts; re-run (bounded) until contention
    // shows — a broken conflict detector stays at zero every round and
    // still fails
    let mut rounds = 0u64;
    loop {
        run_storm(rounds);
        rounds += 1;
        assert_eq!(applied.load(Ordering::Relaxed), 160 * rounds);
        if engine.stats().ww_conflicts > 0 {
            break;
        }
        assert!(
            rounds < 5,
            "θ=0.9 contention must produce conflicts within {rounds} storm rounds: {:?}",
            engine.stats()
        );
    }

    // invariants, checked in one snapshot:
    engine
        .run(Isolation::Snapshot, |t| {
            // (a) stock never went negative
            for (key, product) in t.scan_shared("products")? {
                let stock = product.get_field("stock").as_int().unwrap_or(0);
                assert!(stock >= 0, "negative stock on {key}");
            }
            // (b) every shipped order's invoice is shipped too (the
            //     cross-model atomicity the paper's example demands)
            for (_, order) in t.scan_shared("orders")? {
                if order.get_field("status") == &Value::from("shipped") {
                    let oid = order.get_field("_id").as_str().unwrap();
                    let st = t.xpath(
                        "invoices",
                        &Key::str(format!("inv:{oid}")),
                        "/Invoice/@status",
                    )?;
                    assert_eq!(
                        st,
                        vec![Value::from("shipped")],
                        "order {oid} shipped but its invoice is not"
                    );
                }
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn concurrent_readers_see_stable_snapshots_during_storm() {
    let cfg = GenConfig {
        scale_factor: 0.01,
        ..Default::default()
    };
    let (engine, data) = build_engine(&cfg).unwrap();
    let stop = Arc::new(AtomicU64::new(0));

    // writer thread churns order statuses
    let writer = {
        let engine = engine.clone();
        let data_orders: Vec<Key> = data
            .orders
            .iter()
            .map(|o| Key::str(o.get_field("_id").as_str().unwrap()))
            .collect();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = SplitMix64::new(77);
            while stop.load(Ordering::Relaxed) == 0 {
                let key = &data_orders[rng.index(data_orders.len())];
                let _ = engine.run(Isolation::Snapshot, |t| {
                    t.merge(
                        "orders",
                        key,
                        udbms::core::obj! {"churn" => rng.next_u64() as i64},
                    )
                });
            }
        })
    };

    // readers: within one snapshot txn, two scans must agree exactly
    for _ in 0..20 {
        let mut txn = engine.begin(Isolation::Snapshot);
        let scan1 = txn.scan_shared("orders").unwrap();
        std::thread::yield_now();
        let scan2 = txn.scan_shared("orders").unwrap();
        assert_eq!(scan1, scan2, "snapshot reads must be repeatable");
        txn.abort();
    }
    stop.store(1, Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn gc_runs_safely_under_concurrent_load() {
    let cfg = GenConfig {
        scale_factor: 0.01,
        ..Default::default()
    };
    let (engine, data) = build_engine(&cfg).unwrap();
    let okey = Key::str(data.orders[0].get_field("_id").as_str().unwrap());

    let writer = {
        let engine = engine.clone();
        let okey = okey.clone();
        std::thread::spawn(move || {
            for i in 0..200 {
                engine
                    .run(Isolation::Snapshot, |t| {
                        t.merge("orders", &okey, udbms::core::obj! {"round" => i})
                    })
                    .unwrap();
            }
        })
    };
    // GC concurrently with the writer
    for _ in 0..20 {
        let _ = engine.gc();
        std::thread::yield_now();
    }
    writer.join().unwrap();
    engine.gc();
    let v = engine
        .run(Isolation::Snapshot, |t| {
            Ok(t.get("orders", &okey)?.unwrap())
        })
        .unwrap();
    assert_eq!(
        v.get_field("round"),
        &Value::Int(199),
        "no update lost across GC"
    );
    assert!(
        engine.stats().max_chain_len < 10,
        "GC bounded the hot chain"
    );
}

#[test]
fn isolation_levels_order_by_strictness_under_contention() {
    // serializable aborts ⊇ snapshot aborts on the same contended mix
    let run_mix = |iso: Isolation| -> (u64, u64) {
        let cfg = GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        };
        let (engine, data) = build_engine(&cfg).unwrap();
        let picker = Arc::new(workload::OrderPicker::new(&data, 0.99));
        let threads: Vec<_> = (0..4)
            .map(|tid| {
                let engine = engine.clone();
                let picker = Arc::clone(&picker);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(9000 + tid);
                    for _ in 0..25 {
                        let key = picker.pick(&mut rng).clone();
                        engine
                            .run(iso, |t| workload::order_update(t, &key))
                            .expect("eventually succeeds");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = engine.stats();
        (s.commits, s.aborts)
    };
    let (_, aborts_rc) = run_mix(Isolation::ReadCommitted);
    assert_eq!(aborts_rc, 0, "RC never validates, never aborts");
    // a fast scheduler can timeslice whole transactions back-to-back and
    // observe zero conflicts in one mix; re-run (bounded) until SI shows
    // contention — broken validation stays at zero every attempt
    let mut attempts = 0;
    loop {
        attempts += 1;
        let (_, aborts_si) = run_mix(Isolation::Snapshot);
        if aborts_si > 0 {
            break;
        }
        assert!(
            attempts < 5,
            "hot keys under SI must conflict within {attempts} contended mixes"
        );
    }

    // SI and SER keep every increment of one hot counter that four
    // threads read-modify-write, retrying each conflict to success
    for iso in [Isolation::Snapshot, Isolation::Serializable] {
        let engine = Engine::new();
        engine
            .create_collection(CollectionSchema::key_value("ctr"))
            .unwrap();
        let n = Key::str("n");
        engine
            .run(iso, |t| t.put("ctr", n.clone(), Value::Int(0)))
            .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (engine, n) = (engine.clone(), n.clone());
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        loop {
                            let mut t = engine.begin(iso);
                            let v = t.get("ctr", &n).unwrap().unwrap().as_int().unwrap();
                            t.put("ctr", n.clone(), Value::Int(v + 1)).unwrap();
                            match t.commit() {
                                Ok(_) => break,
                                Err(e) => assert!(e.is_retryable(), "{iso}: {e}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = engine
            .run(iso, |t| Ok(t.get("ctr", &n)?.unwrap().as_int().unwrap()))
            .unwrap();
        assert_eq!(total, 200, "{iso} lost an increment");
    }
}
