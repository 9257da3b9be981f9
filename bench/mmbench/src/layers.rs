//! The per-layer table: each layer timed from outside, by calling its
//! public functions on inputs taken from the workloads.
//!
//! README.md lists, for every metric here, the end-to-end metric it
//! should move and the workload where that should show. Nothing here
//! reads an internal counter or pins an on-disk format.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use udbms_core::{CollectionId, CollectionSchema, Error, Key, Result, SplitMix64, Ts, Value};
use udbms_datagen::workload;
use udbms_datagen::{ValueProvider, ValueShape};
use udbms_driver::{Subject, TxnOp, DEFAULT_SHARDS};
use udbms_engine::{Engine, Isolation, RecordId, ShardedStorage, Storage, Wal};
use udbms_query::{Clause, CompiledPred, Env, PlanCache, Query, Statement};

use crate::measure::{median, percentile, run_clients, Limit, Plan};
use crate::workloads::{
    adhoc_texts, durable_config, PointRw, QueryMix, Size, TxnDurable, Workload,
};

/// Batches each averaged timing is repeated over; the median is kept.
const BATCHES: usize = 7;
/// Records a group-commit batch of the WAL timing holds.
const WAL_BATCH: usize = 8;

/// Median over [`BATCHES`] of the mean ns one call of `f` takes, `f`
/// being called `iters` times per batch with a running index.
fn mean_ns(iters: usize, mut f: impl FnMut(usize) -> Result<()>) -> Result<f64> {
    let mut per_batch = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..iters {
            f(i)?;
            i += 1;
        }
        per_batch.push(started.elapsed().as_nanos() as f64 / iters as f64);
    }
    Ok(median(&mut per_batch))
}

/// Keep a result the optimiser must not discard; pass its error on.
fn sink<T>(result: Result<T>) -> Result<()> {
    result.map(|v| drop(black_box(v)))
}

/// Median ns of single calls of `f`: at most `max` calls, stopping
/// after `budget_s` once eleven samples are in.
fn p50_ns(max: usize, budget_s: f64, mut f: impl FnMut(usize) -> Result<()>) -> Result<f64> {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(max);
    for i in 0..max {
        if samples.len() >= 11 && started.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let t0 = Instant::now();
        f(i)?;
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    Ok(percentile(&samples, 50.0) as f64)
}

/// `full` iterations at full size, fewer at smoke size.
fn scaled(size: &Size, full: usize) -> usize {
    (full / size.ops_divisor as usize).max(2)
}

/// Every workload-independent per-layer metric, as `(name, value)`.
/// Units are those `report::PER_LAYER` gives the names.
pub fn measure(seed: u64, size: &Size, dir: &Path) -> Result<Vec<(String, f64)>> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let n = |full| scaled(size, full);
    let mix = QueryMix::setup(seed, size, dir)?;
    let data = mix.data();

    // -- json: the documents order_update rewrites and the WAL carries
    let docs: Vec<&Value> = data.orders.iter().take(200).collect();
    let texts: Vec<String> = docs.iter().map(|v| udbms_json::to_string(v)).collect();
    let kb = texts.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let print_ns = mean_ns(n(50), |_| {
        docs.iter()
            .for_each(|v| drop(black_box(udbms_json::to_string(v))));
        Ok(())
    })?;
    out.push(("json.print_ns_per_kb".into(), print_ns / kb));
    let parse_ns = mean_ns(n(50), |_| {
        texts.iter().try_for_each(|t| sink(udbms_json::parse(t)))
    })?;
    out.push(("json.parse_ns_per_kb".into(), parse_ns / kb));

    // -- xml: invoice documents, as Q5/Q8 read them
    let invoices: Vec<_> = data.invoices.iter().take(200).map(|(_, x)| x).collect();
    let xml_texts: Vec<String> = invoices
        .iter()
        .map(|x| udbms_xml::to_string(&udbms_xml::XmlDocument::new((*x).clone())))
        .collect();
    let stored: Vec<Value> = invoices
        .iter()
        .map(|x| udbms_xml::xml_to_value(x))
        .collect();
    let xml_parse_ns = mean_ns(n(2_000), |i| {
        sink(udbms_xml::parse(&xml_texts[i % xml_texts.len()]))
    })?;
    out.push(("xml.parse_us".into(), xml_parse_ns / 1e3));
    // what MMQL's XPATH_FIRST does with a stored invoice
    let xpath_ns = mean_ns(n(2_000), |i| {
        let xpath = udbms_xml::XPath::parse("/Invoice/Total/text()")?;
        let node = udbms_xml::value_to_xml(&stored[i % stored.len()])?;
        black_box(xpath.values(&node).into_iter().next());
        Ok(())
    })?;
    out.push(("xml.xpath_first_us".into(), xpath_ns / 1e3));

    // -- query front end: the texts adhoc_parse cycles
    let adhoc: Vec<&'static str> = adhoc_texts(data, seed, size.adhoc_per_shape)
        .iter()
        .map(|t| t.query.mmql)
        .collect();
    let text = |i: usize| adhoc[i % adhoc.len()];
    let lex_ns = mean_ns(n(6_000), |i| sink(udbms_query::lex(text(i))))?;
    out.push(("query.lex_us".into(), lex_ns / 1e3));
    let parse_ns = mean_ns(n(6_000), |i| sink(udbms_query::parse(text(i))))?;
    out.push(("query.parse_us".into(), parse_ns / 1e3));
    let plans = PlanCache::default();
    let miss_ns = mean_ns(n(6_000), |i| sink(plans.get_or_parse(text(i))))?;
    out.push(("query.cache_miss_us".into(), miss_ns / 1e3));
    let hit_ns = mean_ns(n(100_000), |_| sink(plans.get_or_parse(adhoc[0])))?;
    out.push(("query.cache_hit_ns".into(), hit_ns));

    // -- query back end and the driver seam, per query
    let engine = mix.subject().engine();
    let parsed: Vec<&Arc<Query>> = mix
        .prepared()
        .iter()
        .map(|p| {
            p.payload::<Arc<Query>>()
                .ok_or_else(|| Error::Invalid("not an EngineSubject payload".into()))
        })
        .collect::<Result<_>>()?;
    let params = mix.params();
    let bind_ns = mean_ns(n(20_000), |i| {
        sink(parsed[i % parsed.len()].bind(&params[i / parsed.len() % params.len()]))
    })?;
    out.push(("query.bind_us".into(), bind_ns / 1e3));
    let execute_direct = |bound: &Query| {
        let mut txn = engine.begin_read();
        black_box(bound.execute(&mut txn)?);
        txn.commit().map(drop)
    };
    let execute_seam =
        |qi: usize, draw: usize| sink(mix.subject().execute(&mix.prepared()[qi], &params[draw]));
    for (qi, q) in workload::queries().iter().enumerate() {
        let id = q.id.to_lowercase();
        let bound: Vec<Query> = params
            .iter()
            .map(|p| parsed[qi].bind(p))
            .collect::<Result<_>>()?;
        let exec_ns = p50_ns(params.len(), 0.25, |i| execute_direct(&bound[i]))?;
        out.push((format!("query.exec_us.{id}"), exec_ns / 1e3));
        let seam_ns = p50_ns(params.len(), 0.25, |i| execute_seam(qi, i))?;
        out.push((format!("driver.execute_us.{id}"), seam_ns / 1e3));
    }
    // Subject::execute on Q1 minus the same steps called directly
    let seam_q1 = p50_ns(n(20_000), f64::MAX, |i| execute_seam(0, i % params.len()))?;
    let direct_q1 = p50_ns(n(20_000), f64::MAX, |i| {
        execute_direct(&parsed[0].bind(&params[i % params.len()])?)
    })?;
    out.push(("driver.dispatch_ns".into(), seam_q1 - direct_q1));

    // -- predicates: Q9's range filter over the product rows
    let q9 = parsed[8].bind(&params[0])?;
    let filter = match q9.statement() {
        Statement::Query(body) => body.clauses.iter().find_map(|c| match c {
            Clause::Filter(expr) => Some(expr),
            _ => None,
        }),
        _ => None,
    }
    .ok_or_else(|| Error::Invalid("Q9 has no FILTER".into()))?;
    let compiled = CompiledPred::compile(filter, "p")
        .ok_or_else(|| Error::Invalid("Q9's filter is not row-local".into()))?;
    let rows: Vec<Arc<Value>> = data.products.iter().cloned().map(Arc::new).collect();
    let compiled_ns = mean_ns(n(200), |_| {
        rows.iter().try_for_each(|row| sink(compiled.matches(row)))
    })?;
    out.push((
        "pred.compiled_ns_per_row".into(),
        compiled_ns / rows.len() as f64,
    ));
    let mut txn = engine.begin_read();
    let env = Env::new();
    let interp_ns = mean_ns(n(200), |_| {
        rows.iter().try_for_each(|row| {
            let env = env.with_shared("p", Arc::clone(row));
            sink(udbms_query::eval(filter, &env, &mut txn).map(|v| v.is_truthy()))
        })
    })?;
    txn.commit()?;
    out.push((
        "pred.interp_ns_per_row".into(),
        interp_ns / rows.len() as f64,
    ));

    // -- the flagship transaction without a log (mutates `mix`; last)
    let orders: Vec<Key> = data
        .orders
        .iter()
        .map(|o| Key::str(o.get_field("_id").as_str().expect("order id")))
        .collect();
    let mut rng = SplitMix64::new(seed).substream("layers");
    let update_ns = p50_ns(n(1_000), f64::MAX, |_| {
        let order = &orders[rng.index(orders.len())];
        engine.run(Isolation::Snapshot, |t| workload::order_update(t, order))
    })?;
    out.push(("txn.order_update_mem_us".into(), update_ns / 1e3));
    let transact_ns = p50_ns(n(1_000), f64::MAX, |_| {
        let order = orders[rng.index(orders.len())].clone();
        mix.subject().transact(&TxnOp::OrderUpdate { order }, "SI")
    })?;
    out.push(("driver.transact_us".into(), transact_ns / 1e3));
    drop(mix);

    storage_layer(seed, n(10_000), &mut out)?;
    txn_layer(seed, size, dir, &mut out)?;
    wal_layer(seed, size, dir, &mut out)?;
    Ok(out)
}

/// The bare multi-version store and the shard locks over it.
fn storage_layer(seed: u64, keys: usize, out: &mut Vec<(String, f64)>) -> Result<()> {
    const COLLECTION: CollectionId = CollectionId(1);
    const CHAIN: u64 = 16;
    let records = ValueProvider::new(ValueShape::nested(), seed);
    let values: Vec<Arc<Value>> = (0..keys).map(|i| Arc::new(records.record(i))).collect();
    let rids: Vec<RecordId> = (0..keys)
        .map(|i| RecordId::new(COLLECTION, Key::int(i as i64)))
        .collect();
    let install_all = |store: &mut Storage, ts: u64| {
        for (rid, v) in rids.iter().zip(&values) {
            store.install(rid.clone(), Ts(ts), Some(Arc::clone(v)));
        }
    };
    let get_oldest = |store: &Storage| {
        mean_ns(keys, |i| {
            black_box(store.visible_value(&rids[i % keys], Ts(1)));
            Ok(())
        })
    };

    let mut store = Storage::new();
    let mut installs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        store = Storage::new();
        let started = Instant::now();
        install_all(&mut store, 1);
        installs.push(started.elapsed().as_nanos() as f64 / keys as f64);
    }
    out.push(("storage.install_ns".into(), median(&mut installs)));
    out.push(("storage.get_ns.chain1".into(), get_oldest(&store)?));
    let scan_ns = mean_ns(1, |_| {
        black_box(store.scan(COLLECTION, Ts(1)));
        Ok(())
    })?;
    out.push(("storage.scan_ns_per_row".into(), scan_ns / keys as f64));
    // the oldest snapshot walks the whole chain
    (2..=CHAIN).for_each(|ts| install_all(&mut store, ts));
    out.push(("storage.get_ns.chain16".into(), get_oldest(&store)?));

    let sharded = ShardedStorage::new(DEFAULT_SHARDS);
    let lock_ns = mean_ns(keys, |i| {
        drop(black_box(sharded.shard_for(&rids[i % keys].key).read()));
        Ok(())
    })?;
    out.push(("storage.shard_lock_ns".into(), lock_ns));
    Ok(())
}

/// Transaction entry points on a key-value collection, in memory and
/// with the log under them.
fn txn_layer(seed: u64, size: &Size, dir: &Path, out: &mut Vec<(String, f64)>) -> Result<()> {
    const KV: &str = "kv";
    let small = Size {
        kv_records: size.kv_records / 10,
        ..size.clone()
    };
    let keys = small.kv_records;
    let n = |full| scaled(size, full);
    let kv = PointRw::setup(seed, &small, dir)?;
    let engine = kv.engine();
    let value = ValueProvider::new(ValueShape::nested(), seed).record(keys);
    let key = |i: usize| Key::int((i * 7919 % keys) as i64);

    let begin_ns = mean_ns(n(100_000), |_| engine.begin_read().commit().map(drop))?;
    out.push(("txn.begin_read_ns".into(), begin_ns));
    let mut txn = engine.begin_read();
    let get_ns = mean_ns(n(100_000), |i| sink(txn.get_shared(KV, &key(i))))?;
    txn.commit()?;
    out.push(("txn.get_shared_ns".into(), get_ns));
    let put = |engine: &Engine, i: usize| {
        engine.run(Isolation::Snapshot, |t| t.put(KV, key(i), value.clone()))
    };
    let mem_ns = mean_ns(n(20_000), |i| put(engine, i))?;
    out.push(("txn.put_commit_mem_us".into(), mem_ns / 1e3));

    let wal_path = dir.join(format!("layers-{}-{seed}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let logged = Engine::with_wal_config(&wal_path, durable_config())?;
    logged.create_collection(CollectionSchema::key_value(KV))?;
    let wal_ns = mean_ns(n(20_000), |i| put(&logged, i));
    drop(logged);
    let _ = std::fs::remove_file(&wal_path);
    out.push(("txn.put_commit_wal_us".into(), wal_ns? / 1e3));
    Ok(())
}

/// The log on its own, fed the records `txn_durable` commits, and the
/// batching two clients get from group commit.
fn wal_layer(seed: u64, size: &Size, dir: &Path, out: &mut Vec<(String, f64)>) -> Result<()> {
    let commits = (2_000 / size.ops_divisor).max(WAL_BATCH as u64);
    let durable = TxnDurable::setup(seed, size, dir)?;
    let loaded = durable.engine().stats();
    let mut clients = vec![durable.client(0, 2), durable.client(1, 2)];
    let plan = Plan {
        warmup_ops: 0,
        slice_ops: commits,
        limit: Limit::Ops(commits / 2),
    };
    let run = run_clients(&durable, &mut clients, plan, || ());
    if let Some(e) = run.first_error {
        return Err(Error::Invalid(format!("order_update failed: {e}")));
    }
    let after = durable.engine().stats();
    out.push((
        "group.records_per_batch".into(),
        (after.wal_records - loaded.wal_records) as f64
            / (after.wal_batches - loaded.wal_batches).max(1) as f64,
    ));
    let mut records = durable.into_wal_records()?;
    // the load's bulk records come first; keep the order_update ones
    records.drain(..records.len().saturating_sub(commits as usize));

    let scratch = dir.join(format!("layers-scratch-{}-{seed}.wal", std::process::id()));
    let _ = std::fs::remove_file(&scratch);
    let timed = time_wal(&scratch, &records);
    let _ = std::fs::remove_file(&scratch);
    out.extend(timed?);
    Ok(())
}

/// Append, flush and recover `records` on a fresh log at `path`.
fn time_wal(path: &Path, records: &[udbms_engine::WalRecord]) -> Result<Vec<(String, f64)>> {
    let (mut append_ns, mut flush_ns) = (0u128, Vec::new());
    let mut wal = Wal::open(path)?;
    for batch in records.chunks(WAL_BATCH) {
        let t0 = Instant::now();
        for rec in batch {
            wal.append(rec)?;
        }
        let t1 = Instant::now();
        wal.flush()?;
        flush_ns.push(t1.elapsed().as_nanos() as f64);
        append_ns += (t1 - t0).as_nanos();
    }
    drop(wal);
    let bytes = std::fs::metadata(path)?.len();
    let mut recover_s = Vec::with_capacity(3);
    for _ in 0..3 {
        let started = Instant::now();
        let recovered = Wal::recover(path)?;
        recover_s.push(started.elapsed().as_secs_f64());
        if recovered.records != records {
            return Err(Error::Invalid(
                "the WAL did not recover what was appended".into(),
            ));
        }
    }
    let n = records.len() as f64;
    Ok(vec![
        ("wal.append_ns".into(), append_ns as f64 / n),
        ("wal.flush_us".into(), median(&mut flush_ns) / 1e3),
        ("wal.bytes_per_record".into(), bytes as f64 / n),
        ("wal.recover_records_s".into(), n / median(&mut recover_s)),
    ])
}
