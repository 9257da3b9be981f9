//! E4a — cross-model transactions: the paper's `order_update` under the
//! three isolation levels vs the polyglot global-lock coordinator, plus
//! engine micro-operations.

use criterion::{criterion_group, criterion_main, Criterion};

use udbms_core::{obj, Key, SplitMix64, Value};
use udbms_datagen::{build_engine, generate, workload, GenConfig};
use udbms_engine::{Engine, Isolation};
use udbms_polyglot::{load_into_polyglot, order_update_polyglot, PolyglotDb};

fn bench_order_update(c: &mut Criterion) {
    let cfg = GenConfig::at_scale(0.05);

    let mut g = c.benchmark_group("e4a_order_update");
    g.sample_size(20);
    for iso in [
        Isolation::ReadCommitted,
        Isolation::Snapshot,
        Isolation::Serializable,
    ] {
        g.bench_function(format!("unified_{}", iso.label()), |b| {
            let (engine, data) = build_engine(&cfg).expect("engine");
            let picker = workload::OrderPicker::new(&data, 0.0);
            let mut rng = SplitMix64::new(3);
            b.iter(|| {
                let key = picker.pick(&mut rng).clone();
                engine
                    .run(iso, |t| workload::order_update(t, &key))
                    .expect("runs")
            })
        });
    }
    g.bench_function("polyglot_2pc", |b| {
        let data = generate(&cfg);
        let db = PolyglotDb::new();
        load_into_polyglot(&db, &data).expect("load");
        let picker = workload::OrderPicker::new(&data, 0.0);
        let mut rng = SplitMix64::new(3);
        b.iter(|| {
            let key = picker.pick(&mut rng).clone();
            order_update_polyglot(&db, &key).expect("runs")
        })
    });
    g.finish();
}

fn bench_micro_ops(c: &mut Criterion) {
    let engine = Engine::new();
    engine
        .create_collection(udbms_core::CollectionSchema::key_value("kv"))
        .expect("collection");
    engine
        .run(Isolation::Snapshot, |t| {
            for i in 0..10_000 {
                t.put("kv", Key::int(i), obj! {"v" => i})?;
            }
            Ok(())
        })
        .expect("seed");

    let mut g = c.benchmark_group("engine_micro");
    g.bench_function("begin_commit_empty", |b| {
        b.iter(|| {
            engine
                .begin(Isolation::Snapshot)
                .commit()
                .expect("empty commit")
        })
    });
    g.bench_function("point_get", |b| {
        let mut rng = SplitMix64::new(5);
        b.iter(|| {
            let k = Key::int(rng.range_i64(0, 9_999));
            engine
                .run(Isolation::Snapshot, |t| t.get("kv", &k))
                .expect("get")
        })
    });
    g.bench_function("put_commit", |b| {
        let mut rng = SplitMix64::new(7);
        b.iter(|| {
            let k = Key::int(rng.range_i64(0, 9_999));
            engine
                .run(Isolation::Snapshot, |t| {
                    t.put("kv", k.clone(), Value::Int(1))
                })
                .expect("put")
        })
    });
    g.bench_function("scan_10k", |b| {
        b.iter(|| {
            engine
                .run(Isolation::Snapshot, |t| Ok(t.scan_shared("kv")?.len()))
                .expect("scan")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_order_update, bench_micro_ops);
criterion_main!(benches);
