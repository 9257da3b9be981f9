//! E6 — ablations: index-accelerated select vs full scan, GC cost, and
//! the polyglot wire codec.

use criterion::{criterion_group, criterion_main, Criterion};

use udbms_core::{Key, Value};
use udbms_datagen::{build_engine, workload, GenConfig};
use udbms_engine::Isolation;
use udbms_polyglot::json_hop;
use udbms_relational::Predicate;

fn bench_index_ablation(c: &mut Criterion) {
    let cfg = GenConfig::at_scale(0.1);
    let (engine, data) = build_engine(&cfg).expect("engine");
    let params = workload::QueryParams::draw(&data, 1);
    let eq = Predicate::eq("customer", Value::Int(params.customer));
    let range = Predicate::between(
        "price",
        Value::Float(params.price_lo),
        Value::Float(params.price_hi),
    );

    let mut g = c.benchmark_group("e6_index");
    g.bench_function("orders_eq_indexed", |b| {
        b.iter(|| {
            engine
                .run(Isolation::Snapshot, |t| t.rows("orders", Some(&eq), None))
                .expect("select")
        })
    });
    g.bench_function("orders_eq_scan", |b| {
        b.iter(|| {
            let mut rows = engine
                .run(Isolation::Snapshot, |t| t.scan_shared("orders"))
                .expect("scan");
            rows.retain(|(_, row)| eq.matches(row));
            rows
        })
    });
    g.bench_function("products_range_indexed", |b| {
        b.iter(|| {
            engine
                .run(Isolation::Snapshot, |t| {
                    t.rows("products", Some(&range), None)
                })
                .expect("select")
        })
    });
    g.bench_function("products_range_scan", |b| {
        b.iter(|| {
            let mut rows = engine
                .run(Isolation::Snapshot, |t| t.scan_shared("products"))
                .expect("scan");
            rows.retain(|(_, row)| range.matches(row));
            rows
        })
    });
    g.finish();
}

fn bench_gc_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_gc");
    g.sample_size(10);
    g.bench_function("read_hot_record_long_chain", |b| {
        let (engine, data) = build_engine(&GenConfig::at_scale(0.02)).expect("engine");
        let hot = Key::str(data.orders[0].get_field("_id").as_str().expect("order"));
        for i in 0..500 {
            engine
                .run(Isolation::Snapshot, |t| {
                    t.merge("orders", &hot, udbms_core::obj! {"round" => i})
                })
                .expect("churn");
        }
        b.iter(|| {
            engine
                .run(Isolation::Snapshot, |t| t.get("orders", &hot))
                .expect("get")
        })
    });
    g.bench_function("read_hot_record_after_gc", |b| {
        let (engine, data) = build_engine(&GenConfig::at_scale(0.02)).expect("engine");
        let hot = Key::str(data.orders[0].get_field("_id").as_str().expect("order"));
        for i in 0..500 {
            engine
                .run(Isolation::Snapshot, |t| {
                    t.merge("orders", &hot, udbms_core::obj! {"round" => i})
                })
                .expect("churn");
        }
        engine.gc();
        b.iter(|| {
            engine
                .run(Isolation::Snapshot, |t| t.get("orders", &hot))
                .expect("get")
        })
    });
    g.bench_function("gc_pass_after_500_updates", |b| {
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let (engine, data) = build_engine(&GenConfig::at_scale(0.01)).expect("engine");
                let hot = Key::str(data.orders[0].get_field("_id").as_str().expect("order"));
                for i in 0..500 {
                    engine
                        .run(Isolation::Snapshot, |t| {
                            t.merge("orders", &hot, udbms_core::obj! {"round" => i})
                        })
                        .expect("churn");
                }
                let t0 = std::time::Instant::now();
                engine.gc();
                total += t0.elapsed();
            }
            total
        })
    });
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let (_, data) = build_engine(&GenConfig::at_scale(0.05)).expect("engine");
    let mut g = c.benchmark_group("e6_wire");
    g.bench_function("json_hop_order", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let o = &data.orders[i % data.orders.len()];
            i += 1;
            json_hop(o)
        })
    });
    g.bench_function("xml_hop_invoice", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (_, x) = &data.invoices[i % data.invoices.len()];
            i += 1;
            udbms_polyglot::xml_hop(x).expect("valid")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_index_ablation,
    bench_gc_ablation,
    bench_wire_codec
);
criterion_main!(benches);
