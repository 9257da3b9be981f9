//! The four workloads: what each sets up, the op stream each client
//! draws from the seed, how one op runs (plain and stage by stage under
//! the tracer), and the output check that ends the run.
//!
//! Each layer does most of the work in one workload and little in
//! another (see README.md), so a change to one layer moves one workload
//! and must leave its counterpart flat.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use udbms_core::{CollectionSchema, Error, Key, Params, Result, SplitMix64, Value};
use udbms_datagen::workload::{self, BenchQuery, QueryParams};
use udbms_datagen::{
    generate, Dataset, GenConfig, KeyDist, KeyProvider, ValueProvider, ValueShape,
};
use udbms_driver::{EngineSubject, PolyglotSubject, PreparedQuery, Subject, TxnOp};
use udbms_engine::{Durability, Engine, EngineConfig, Isolation, Wal, WalRecord};
use udbms_query::{PlanCache, Query};

use crate::measure::median;
use crate::trace::{Stage, Tracer};

/// Input sizes. `full` is what the benchmark reports; `smoke` keeps
/// every code path but finishes in well under a second.
#[derive(Debug, Clone)]
pub struct Size {
    pub scale_factor: f64,
    /// Pre-drawn `QueryParams` the query workloads cycle through.
    pub draws: usize,
    /// Distinct ad-hoc texts per query shape.
    pub adhoc_per_shape: usize,
    /// Records in the key-value collection of `point_rw`.
    pub kv_records: usize,
    /// Fixed op counts are divided by this.
    pub ops_divisor: u64,
}

impl Size {
    pub fn full() -> Size {
        Size {
            scale_factor: 1.0,
            draws: 256,
            adhoc_per_shape: 200,
            kv_records: 200_000,
            ops_divisor: 1,
        }
    }

    pub fn smoke() -> Size {
        Size {
            scale_factor: 0.05,
            draws: 16,
            adhoc_per_shape: 8,
            kv_records: 2_000,
            ops_divisor: 50,
        }
    }
}

/// Zipf exponent of `point_rw` keys.
pub const POINT_RW_THETA: f64 = 0.9;
/// Share of `point_rw` ops that write.
pub const POINT_RW_WRITE_SHARE: f64 = 0.05;
/// Reopens of the full WAL behind `durable.recovery_s` in a traced run.
/// A measured run reopens once, for the output check alone: replaying
/// ten seconds of commits takes about as long as writing them.
pub const RECOVERY_REOPENS: usize = 3;

pub trait Workload: Sync + Sized {
    const NAME: &'static str;
    /// One op in this many is timed.
    const SAMPLE_EVERY: u64;
    /// Ops a traced run issues per second of `--seconds`. Fixed, so the
    /// counts of a traced run repeat exactly.
    const TRACE_OPS_PER_SECOND: u64;
    /// Ops in a slice, about half a second's worth or more. A client
    /// calls [`Workload::maintain`] after each, so every slice holds
    /// the same work and slices can be compared. The warm-up is one
    /// slice: fixed, so the memory high-water mark read after it does
    /// not depend on speed.
    const SLICE_OPS: u64;
    type Op: Copy + std::fmt::Debug + PartialEq;
    type Client: Send;

    /// Generate the inputs from `seed` and load them.
    fn setup(seed: u64, size: &Size, dir: &Path) -> Result<Self>;
    fn client(&self, id: usize, of: usize) -> Self::Client;
    fn next_op(&self, client: &mut Self::Client, i: u64) -> Self::Op;
    fn exec(&self, client: &mut Self::Client, op: Self::Op) -> Result<()>;
    /// The same op issued stage by stage, each call inside a span.
    fn exec_traced(
        &self,
        client: &mut Self::Client,
        op: Self::Op,
        i: u64,
        tracer: &mut Tracer,
    ) -> Result<()>;
    fn engine(&self) -> &Engine;
    /// Plan-cache `(hits, misses)` so far.
    fn plan_counts(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Bytes of complete records in the WAL, if there is one.
    fn wal_valid_bytes(&self) -> Result<Option<u64>> {
        Ok(None)
    }
    /// Upkeep a client does after every slice; nothing by default.
    fn maintain(&self) {}
    /// Check the outputs against the oracle or model; `Err` names the
    /// first mismatch. A workload with a log reopens it `reopens` times
    /// and returns the median seconds a reopen took.
    fn finish(self, clients: Vec<Self::Client>, reopens: usize) -> Result<Option<f64>>;

    fn op(&self, client: &mut Self::Client, i: u64) -> Result<()> {
        let op = self.next_op(client, i);
        self.exec(client, op)
    }
}

fn mismatch(what: impl std::fmt::Display) -> Error {
    Error::Invalid(format!("output mismatch: {what}"))
}

fn sorted(mut rows: Vec<Value>) -> Vec<Value> {
    rows.sort();
    rows
}

fn generate_dataset(seed: u64, size: &Size) -> Dataset {
    generate(&GenConfig {
        seed,
        scale_factor: size.scale_factor,
        ..GenConfig::default()
    })
}

/// bind → begin_read → exec → commit, as `EngineSubject::execute` does
/// for a read-only statement, one span each.
fn traced_read_query(
    engine: &Engine,
    parsed: &Query,
    params: &Params,
    t: &mut Tracer,
) -> Result<()> {
    let bound = t.span(Stage::QueryBind, |_| parsed.bind(params))?;
    let mut txn = t.span(Stage::TxnBeginRead, |_| engine.begin_read());
    black_box(t.span(Stage::QueryExec, |_| bound.execute(&mut txn))?);
    t.span(Stage::TxnCommit, |_| txn.commit())?;
    Ok(())
}

// ---------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------

/// Q1–Q10 round-robin over pre-drawn parameters, prepared once and
/// executed per op through the `Subject` seam. The paper's query set:
/// MMQL bind/exec, predicate evaluation, storage scans and the graph
/// and XML adapters do the work; the WAL and the parser are idle.
pub struct QueryMix {
    subject: EngineSubject,
    data: Dataset,
    prepared: Vec<PreparedQuery>,
    params: Vec<Params>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOp {
    pub query: usize,
    pub draw: usize,
}

impl QueryMix {
    pub fn subject(&self) -> &EngineSubject {
        &self.subject
    }

    pub fn data(&self) -> &Dataset {
        &self.data
    }

    pub fn prepared(&self) -> &[PreparedQuery] {
        &self.prepared
    }

    pub fn params(&self) -> &[Params] {
        &self.params
    }
}

impl Workload for QueryMix {
    const NAME: &'static str = "query_mix";
    const SAMPLE_EVERY: u64 = 1;
    const TRACE_OPS_PER_SECOND: u64 = 200;
    /// Forty rounds of Q1–Q10: every slice holds the same queries.
    const SLICE_OPS: u64 = 400;
    type Op = QueryOp;
    /// Offset into the round-robin, so clients run different queries.
    type Client = u64;

    fn setup(seed: u64, size: &Size, _dir: &Path) -> Result<QueryMix> {
        let data = generate_dataset(seed, size);
        let subject = EngineSubject::new();
        subject.load(&data)?;
        let prepared = workload::queries()
            .iter()
            .map(|q| subject.prepare(q))
            .collect::<Result<Vec<_>>>()?;
        let params = (0..size.draws as u64)
            .map(|which| QueryParams::draw(&data, which).bindings())
            .collect();
        Ok(QueryMix {
            subject,
            data,
            prepared,
            params,
        })
    }

    fn client(&self, id: usize, of: usize) -> u64 {
        let (queries, of) = (self.prepared.len(), of.max(1));
        (id * (queries / of + queries * (self.params.len() / of))) as u64
    }

    fn next_op(&self, offset: &mut u64, i: u64) -> QueryOp {
        let j = (i + *offset) as usize;
        QueryOp {
            query: j % self.prepared.len(),
            draw: j / self.prepared.len() % self.params.len(),
        }
    }

    fn exec(&self, _: &mut u64, op: QueryOp) -> Result<()> {
        black_box(
            self.subject
                .execute(&self.prepared[op.query], &self.params[op.draw])?,
        );
        Ok(())
    }

    fn exec_traced(&self, _: &mut u64, op: QueryOp, i: u64, t: &mut Tracer) -> Result<()> {
        let parsed: &Arc<Query> = self.prepared[op.query]
            .payload()
            .ok_or_else(|| Error::Invalid("not an EngineSubject payload".into()))?;
        t.op(i as u32, |t| {
            traced_read_query(self.subject.engine(), parsed, &self.params[op.draw], t)
        })
    }

    fn engine(&self) -> &Engine {
        self.subject.engine()
    }

    fn plan_counts(&self) -> (u64, u64) {
        let plans = self.subject.plan_cache();
        (plans.hits(), plans.misses())
    }

    /// The first draw of every query must be row-equal to the polyglot
    /// baseline, which answers it with hand-written per-store code.
    fn finish(self, _: Vec<u64>, _reopens: usize) -> Result<Option<f64>> {
        let oracle = PolyglotSubject::new();
        oracle.load(&self.data)?;
        for (q, prepared) in workload::queries().iter().zip(&self.prepared) {
            let got = sorted(self.subject.execute(prepared, &self.params[0])?);
            let want = sorted(oracle.execute(&oracle.prepare(q)?, &self.params[0])?);
            if got != want {
                return Err(mismatch(format_args!(
                    "{} returned {} rows, the polyglot oracle {}",
                    q.id,
                    got.len(),
                    want.len()
                )));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// adhoc_parse
// ---------------------------------------------------------------------

/// Literal-inlined texts of Q1/Q4/Q9 shape, cycled so the 128-entry
/// plan cache misses every time; each op prepares and executes. The
/// query layer used the other way round: lex, parse and plan carry the
/// op and execution is an index lookup.
pub struct AdhocParse {
    subject: EngineSubject,
    texts: Vec<AdhocText>,
    no_params: Params,
}

pub(crate) struct AdhocText {
    pub(crate) query: BenchQuery,
    /// The parameterised query this text inlines, for the output check.
    of: BenchQuery,
    params: Params,
}

/// The ad-hoc texts a seed yields: `per_shape` distinct texts of each
/// shape, interleaved Q1, Q4, Q9, Q1, … The texts are leaked because
/// `BenchQuery` holds `&'static str`; a run builds them a few times.
pub(crate) fn adhoc_texts(data: &Dataset, seed: u64, per_shape: usize) -> Vec<AdhocText> {
    let queries = workload::queries();
    let (q1, q4, q9) = (queries[0], queries[3], queries[8]);
    let per_shape = per_shape.min(data.customers.len()).min(data.products.len());
    let mut rng = SplitMix64::new(seed).substream("adhoc-texts");
    let customers = rng.sample_indexes(data.customers.len(), per_shape);
    let products = rng.sample_indexes(data.products.len(), per_shape);
    let mut cents: HashSet<i64> = HashSet::new();
    let mut out = Vec::with_capacity(per_shape * 3);
    for k in 0..per_shape {
        let customer = data.customers[customers[k]]
            .get_field("id")
            .as_int()
            .expect("customer id");
        let product = data.products[products[k]]
            .get_field("_id")
            .as_str()
            .expect("product id");
        let lo_cents = loop {
            let c = rng.range_i64(100, 30_000);
            if cents.insert(c) {
                break c;
            }
        };
        let (lo, hi) = (lo_cents as f64 / 100.0, lo_cents as f64 / 100.0 + 100.0);
        let shapes = [
            (
                q1,
                format!("FOR c IN customers FILTER c.id == {customer} RETURN c"),
                Params::new().with("customer", customer),
            ),
            (
                q4,
                format!(
                    "LET prod = DOCUMENT(\"products\", \"{product}\")
                     FOR fb IN feedback
                       FILTER fb.product == \"{product}\"
                       RETURN {{ title: prod.title, rating: fb.rating, customer: fb.customer }}"
                ),
                Params::new().with("product", product),
            ),
            (
                q9,
                format!(
                    "FOR p IN products
                     FILTER p.price >= {lo:.2} AND p.price <= {hi:.2}
                     SORT p.price
                     RETURN {{ id: p._id, price: p.price }}"
                ),
                Params::new().with("price_lo", lo).with("price_hi", hi),
            ),
        ];
        for (of, text, params) in shapes {
            out.push(AdhocText {
                query: BenchQuery {
                    mmql: Box::leak(text.into_boxed_str()),
                    ..of
                },
                of,
                params,
            });
        }
    }
    out
}

#[cfg(test)]
impl AdhocParse {
    pub fn texts(&self) -> Vec<&'static str> {
        self.texts.iter().map(|t| t.query.mmql).collect()
    }
}

impl Workload for AdhocParse {
    const NAME: &'static str = "adhoc_parse";
    const SAMPLE_EVERY: u64 = 1;
    const TRACE_OPS_PER_SECOND: u64 = 2_000;
    const SLICE_OPS: u64 = 8_000;
    /// Index of the text.
    type Op = usize;
    /// Offset into the cycle of texts.
    type Client = u64;

    fn setup(seed: u64, size: &Size, _dir: &Path) -> Result<AdhocParse> {
        let data = generate_dataset(seed, size);
        let subject = EngineSubject::new();
        subject.load(&data)?;
        let texts = adhoc_texts(&data, seed, size.adhoc_per_shape);
        Ok(AdhocParse {
            subject,
            texts,
            no_params: Params::new(),
        })
    }

    fn client(&self, id: usize, of: usize) -> u64 {
        (id * (self.texts.len() / of.max(1))) as u64
    }

    fn next_op(&self, offset: &mut u64, i: u64) -> usize {
        ((i + *offset) % self.texts.len() as u64) as usize
    }

    fn exec(&self, _: &mut u64, text: usize) -> Result<()> {
        let prepared = self.subject.prepare(&self.texts[text].query)?;
        black_box(self.subject.execute(&prepared, &self.no_params)?);
        Ok(())
    }

    fn exec_traced(&self, _: &mut u64, text: usize, i: u64, t: &mut Tracer) -> Result<()> {
        let mmql = self.texts[text].query.mmql;
        let plans: &PlanCache = self.subject.plan_cache();
        let mut cache_span = 0;
        t.op(i as u32, |t| {
            let parsed = t.span(Stage::QueryCache, |_| plans.get_or_parse(mmql))?;
            cache_span = t.last_index();
            traced_read_query(self.subject.engine(), &parsed, &self.no_params, t)
        })?;
        // The cache parses inside one public call. Its children are
        // measured here, outside the op, on the same text.
        let started = Instant::now();
        black_box(udbms_query::lex(mmql)?);
        let lex_ns = started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        black_box(udbms_query::parse(mmql)?);
        let parse_ns = started.elapsed().as_nanos() as u64;
        let parse_span = t.measured_child(Stage::QueryParse, cache_span, parse_ns);
        t.measured_child(Stage::QueryLex, parse_span, lex_ns);
        Ok(())
    }

    fn engine(&self) -> &Engine {
        self.subject.engine()
    }

    fn plan_counts(&self) -> (u64, u64) {
        let plans = self.subject.plan_cache();
        (plans.hits(), plans.misses())
    }

    /// Every text must return the rows of the parameterised query it
    /// inlines.
    fn finish(self, _: Vec<u64>, _reopens: usize) -> Result<Option<f64>> {
        for text in &self.texts {
            let adhoc = self.subject.prepare(&text.query)?;
            let got = sorted(self.subject.execute(&adhoc, &self.no_params)?);
            let reference = self.subject.prepare(&text.of)?;
            let want = sorted(self.subject.execute(&reference, &text.params)?);
            if got != want {
                return Err(mismatch(format_args!(
                    "`{}` returned {} rows, {} with parameters {}",
                    text.query.mmql,
                    got.len(),
                    text.of.id,
                    want.len()
                )));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// point_rw
// ---------------------------------------------------------------------

const KV: &str = "kv";
/// Records per load transaction.
const LOAD_BATCH: usize = 512;
/// Distinct values the writes cycle through.
const WRITE_POOL: usize = 256;

/// 95 % `begin_read` + `get_shared`, 5 % `Engine::run(SI, put)` on a
/// key-value collection under zipf keys. Shard locks, the version-chain
/// walk, commit validate/install and `Arc` sharing do the work; MMQL
/// and the WAL do none. Writes land on the shards the reads use, so a
/// read gain bought with a write cost shows.
///
/// The client calls `Engine::gc` after every slice, as `txn_durable`
/// does. Without it memory grows with every write, and on this sandbox a
/// page the guest never used costs about 20 µs to touch, ten times a
/// recycled one: a run was fast until it outgrew recycled memory and
/// 2–3 times slower after, at a point that moved from run to run.
/// With it old versions are freed and reused inside the process, so
/// the timed run neither grows nor depends on the host's free list.
pub struct PointRw {
    engine: Engine,
    keys: KeyProvider,
    records: ValueProvider,
    pool: Vec<Value>,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointOp {
    Read { key: usize },
    Write { key: usize, seq: u64 },
}

pub struct PointClient {
    id: usize,
    of: usize,
    rng: SplitMix64,
    seq: u64,
    /// Per-key last-writer model: the `seq` of this client's last
    /// acknowledged put. Clients write disjoint keys (`key % of == id`),
    /// so the model needs no cross-thread order.
    written: HashMap<usize, u64>,
}

impl PointRw {
    fn value(&self, seq: u64) -> Value {
        let mut v = self.pool[seq as usize % self.pool.len()].clone();
        if let Some(fields) = v.as_object_mut() {
            fields.insert("seq".into(), Value::Int(seq as i64));
        }
        v
    }
}

impl Workload for PointRw {
    const NAME: &'static str = "point_rw";
    const SAMPLE_EVERY: u64 = 8;
    const TRACE_OPS_PER_SECOND: u64 = 40_000;
    const SLICE_OPS: u64 = 400_000;
    type Op = PointOp;
    type Client = PointClient;

    fn setup(seed: u64, size: &Size, _dir: &Path) -> Result<PointRw> {
        let records = ValueProvider::new(ValueShape::nested(), seed);
        let engine = Engine::new();
        engine.create_collection(CollectionSchema::key_value(KV))?;
        let all: Vec<usize> = (0..size.kv_records).collect();
        for chunk in all.chunks(LOAD_BATCH) {
            engine.run(Isolation::Snapshot, |t| {
                for &i in chunk {
                    t.put(KV, Key::int(i as i64), records.record(i))?;
                }
                Ok(())
            })?;
        }
        Ok(PointRw {
            engine,
            keys: KeyProvider::new(
                size.kv_records,
                KeyDist::Zipfian {
                    theta: POINT_RW_THETA,
                },
                seed,
            ),
            pool: (0..WRITE_POOL)
                .map(|i| records.record(size.kv_records + i))
                .collect(),
            records,
            seed,
        })
    }

    fn client(&self, id: usize, of: usize) -> PointClient {
        PointClient {
            id,
            of: of.max(1),
            rng: SplitMix64::new(self.seed).substream(&format!("point-client-{id}")),
            seq: 0,
            written: HashMap::new(),
        }
    }

    fn next_op(&self, c: &mut PointClient, _: u64) -> PointOp {
        let write = c.rng.chance(POINT_RW_WRITE_SHARE);
        let key = self.keys.draw(&mut c.rng);
        if write {
            c.seq += 1;
            PointOp::Write {
                // the nearest key this client owns
                key: (key / c.of * c.of + c.id) % self.keys.len(),
                seq: c.seq,
            }
        } else {
            PointOp::Read { key }
        }
    }

    fn exec(&self, c: &mut PointClient, op: PointOp) -> Result<()> {
        match op {
            PointOp::Read { key } => {
                let mut txn = self.engine.begin_read();
                let found = txn.get_shared(KV, &Key::int(key as i64))?;
                txn.commit()?;
                black_box(found).ok_or_else(|| mismatch(format_args!("key {key} is missing")))?;
            }
            PointOp::Write { key, seq } => {
                self.engine.run(Isolation::Snapshot, |t| {
                    t.put(KV, Key::int(key as i64), self.value(seq))
                })?;
                c.written.insert(key, seq);
            }
        }
        Ok(())
    }

    fn exec_traced(&self, c: &mut PointClient, op: PointOp, i: u64, t: &mut Tracer) -> Result<()> {
        t.op(i as u32, |t| match op {
            PointOp::Read { key } => {
                let key = Key::int(key as i64);
                let mut txn = t.span(Stage::TxnBeginRead, |_| self.engine.begin_read());
                black_box(t.span(Stage::TxnGetShared, |_| txn.get_shared(KV, &key))?);
                t.span(Stage::TxnCommit, |_| txn.commit())?;
                Ok(())
            }
            PointOp::Write { key, seq } => {
                let value = self.value(seq);
                let mut txn = t.span(Stage::EngineBegin, |_| {
                    self.engine.begin(Isolation::Snapshot)
                });
                t.span(Stage::TxnPut, |_| txn.put(KV, Key::int(key as i64), value))?;
                t.span(Stage::TxnCommit, |_| txn.commit())?;
                c.written.insert(key, seq);
                Ok(())
            }
        })
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn maintain(&self) {
        self.engine.gc();
    }

    /// The final state must match the last-writer model: every written
    /// key holds its owner's last `seq`, and unwritten keys hold the
    /// loaded record.
    fn finish(self, clients: Vec<PointClient>, _reopens: usize) -> Result<Option<f64>> {
        let mut txn = self.engine.begin_read();
        for c in &clients {
            for (&key, &seq) in &c.written {
                let got = txn.get_shared(KV, &Key::int(key as i64))?;
                let got_seq = got.as_ref().map(|v| v.get_field("seq").clone());
                if got_seq != Some(Value::Int(seq as i64)) {
                    return Err(mismatch(format_args!(
                        "key {key} holds seq {got_seq:?}, last acknowledged put was {seq}"
                    )));
                }
            }
        }
        let step = (self.keys.len() / 1_000).max(1);
        for key in (0..self.keys.len()).step_by(step) {
            if clients.iter().any(|c| c.written.contains_key(&key)) {
                continue;
            }
            let got = txn.get_shared(KV, &Key::int(key as i64))?;
            if got.as_deref() != Some(&self.records.record(key)) {
                return Err(mismatch(format_args!("unwritten key {key} changed")));
            }
        }
        txn.commit()?;
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// txn_durable
// ---------------------------------------------------------------------

/// The collections `order_update` writes.
const DURABLE_COLLECTIONS: [&str; 4] = ["orders", "products", "feedback", "invoices"];

/// `Subject::transact(OrderUpdate, "SI")` over uniform orders on a
/// WAL-backed engine at `Durability::Flush` with group commit. The
/// paper's flagship cross-model transaction: the JSON codec, WAL
/// encode/append/flush, group commit and recovery dominate; reads are
/// incidental. The flush policy is stated and fixed, because fsync on
/// a sandbox disk is not a device measurement.
pub struct TxnDurable {
    /// `None` once the engine has been dropped for recovery.
    subject: Option<EngineSubject>,
    wal_path: PathBuf,
    ops: Vec<TxnOp>,
    seed: u64,
}

pub struct DurableClient {
    rng: SplitMix64,
    /// Orders whose update was acknowledged.
    acked: HashSet<usize>,
}

pub fn durable_config() -> EngineConfig {
    EngineConfig::default()
        .with_durability(Durability::Flush)
        .with_group_commit(true)
}

fn remove_wal(path: &Path) {
    for p in [path.to_path_buf(), path.with_extension("tmp")] {
        let _ = std::fs::remove_file(p);
    }
}

/// The records of one collection, as a scan returns them.
type Records = Vec<(Key, Arc<Value>)>;

/// Every record of the collections `order_update` writes.
fn durable_state(engine: &Engine) -> Result<Vec<Records>> {
    let mut txn = engine.begin_read();
    let state = DURABLE_COLLECTIONS
        .iter()
        .map(|c| txn.scan_shared(c))
        .collect::<Result<Vec<_>>>()?;
    txn.commit()?;
    Ok(state)
}

impl TxnDurable {
    fn subject(&self) -> &EngineSubject {
        self.subject
            .as_ref()
            .expect("engine is open during the run")
    }

    fn order_key(&self, order: usize) -> &Key {
        let TxnOp::OrderUpdate { order } = &self.ops[order];
        order
    }

    /// Close the engine and read back every record it logged.
    pub fn into_wal_records(mut self) -> Result<Vec<WalRecord>> {
        self.subject = None;
        Ok(Wal::scan(&self.wal_path)?.records)
    }
}

impl Drop for TxnDurable {
    fn drop(&mut self) {
        // close the log before deleting it
        self.subject = None;
        remove_wal(&self.wal_path);
    }
}

impl Workload for TxnDurable {
    const NAME: &'static str = "txn_durable";
    const SAMPLE_EVERY: u64 = 1;
    const TRACE_OPS_PER_SECOND: u64 = 1_000;
    const SLICE_OPS: u64 = 5_000;
    /// Index of the order.
    type Op = usize;
    type Client = DurableClient;

    fn setup(seed: u64, size: &Size, dir: &Path) -> Result<TxnDurable> {
        let data = generate_dataset(seed, size);
        std::fs::create_dir_all(dir)?;
        let wal_path = dir.join(format!("txn_durable-{}-{seed}.wal", std::process::id()));
        remove_wal(&wal_path);
        let subject = EngineSubject::with_wal_config(&wal_path, durable_config())?;
        subject.load(&data)?;
        let ops = data
            .orders
            .iter()
            .map(|o| TxnOp::OrderUpdate {
                order: Key::str(o.get_field("_id").as_str().expect("order id")),
            })
            .collect();
        Ok(TxnDurable {
            subject: Some(subject),
            wal_path,
            ops,
            seed,
        })
    }

    fn client(&self, id: usize, _of: usize) -> DurableClient {
        DurableClient {
            rng: SplitMix64::new(self.seed).substream(&format!("durable-client-{id}")),
            acked: HashSet::new(),
        }
    }

    fn next_op(&self, c: &mut DurableClient, _: u64) -> usize {
        c.rng.index(self.ops.len())
    }

    fn exec(&self, c: &mut DurableClient, order: usize) -> Result<()> {
        self.subject().transact(&self.ops[order], "SI")?;
        c.acked.insert(order);
        Ok(())
    }

    fn exec_traced(
        &self,
        c: &mut DurableClient,
        order: usize,
        i: u64,
        t: &mut Tracer,
    ) -> Result<()> {
        let engine = self.subject().engine();
        t.op(i as u32, |t| {
            let mut txn = t.span(Stage::EngineBegin, |_| engine.begin(Isolation::Snapshot));
            t.span(Stage::OrderUpdate, |_| {
                workload::order_update(&mut txn, self.order_key(order))
            })?;
            t.span(Stage::TxnCommit, |_| txn.commit())?;
            Ok::<(), Error>(())
        })?;
        c.acked.insert(order);
        Ok(())
    }

    fn engine(&self) -> &Engine {
        self.subject().engine()
    }

    fn wal_valid_bytes(&self) -> Result<Option<u64>> {
        Ok(Some(Wal::scan(&self.wal_path)?.valid_bytes))
    }

    /// Old versions are collected; the log is left to grow, since a
    /// checkpoint of it costs more than a slice.
    fn maintain(&self) {
        self.engine().gc();
    }

    /// Drop the engine and reopen it on the full WAL: every
    /// acknowledged commit must be visible and the written collections
    /// must read exactly as before the drop — and, when reopening more
    /// than once, again after a checkpoint has rewritten the log.
    fn finish(mut self, clients: Vec<DurableClient>, reopens: usize) -> Result<Option<f64>> {
        let before = durable_state(self.engine())?;
        self.subject = None;

        let verify = |engine: &Engine, when: &str| -> Result<()> {
            if durable_state(engine)? != before {
                return Err(mismatch(format_args!("state after {when} differs")));
            }
            let mut txn = engine.begin_read();
            for order in clients.iter().flat_map(|c| &c.acked) {
                let key = self.order_key(*order);
                let status = txn
                    .get_shared("orders", key)?
                    .map(|o| o.get_field("status").clone());
                if status != Some(Value::from("shipped")) {
                    return Err(mismatch(format_args!(
                        "acknowledged update of {key} is {status:?} after {when}"
                    )));
                }
            }
            txn.commit().map(drop)
        };

        let reopens = reopens.max(1);
        let mut reopen_s = Vec::with_capacity(reopens);
        for n in 0..reopens {
            let started = Instant::now();
            let engine = Engine::with_wal_config(&self.wal_path, durable_config())?;
            reopen_s.push(started.elapsed().as_secs_f64());
            if n == 0 {
                verify(&engine, "reopen")?;
            }
            if n > 0 && n + 1 == reopens {
                engine.checkpoint()?;
                drop(engine);
                let engine = Engine::with_wal_config(&self.wal_path, durable_config())?;
                verify(&engine, "checkpoint and reopen")?;
            }
        }
        Ok(Some(median(&mut reopen_s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops<W: Workload>(seed: u64, n: u64) -> Vec<W::Op> {
        let w = W::setup(seed, &Size::smoke(), &crate::out_dir()).expect("set-up");
        let mut client = w.client(1, 2);
        (0..n).map(|i| w.next_op(&mut client, i)).collect()
    }

    #[test]
    fn same_seed_same_op_stream_other_seed_another() {
        assert_eq!(ops::<PointRw>(11, 500), ops::<PointRw>(11, 500));
        assert_ne!(ops::<PointRw>(11, 500), ops::<PointRw>(12, 500));
        assert_eq!(ops::<TxnDurable>(11, 500), ops::<TxnDurable>(11, 500));
        assert_ne!(ops::<TxnDurable>(11, 500), ops::<TxnDurable>(12, 500));
        // the query workloads cycle fixed positions; the seed picks
        // the parameters and texts behind them
        assert_eq!(ops::<QueryMix>(11, 50), ops::<QueryMix>(12, 50));
        let inputs = |seed| {
            let dir = crate::out_dir();
            let mix = QueryMix::setup(seed, &Size::smoke(), &dir).expect("set-up");
            let adhoc = AdhocParse::setup(seed, &Size::smoke(), &dir).expect("set-up");
            (mix.params().to_vec(), adhoc.texts())
        };
        assert_eq!(inputs(11), inputs(11));
        let ((params_a, texts_a), (params_b, texts_b)) = (inputs(11), inputs(12));
        assert_ne!(params_a, params_b);
        assert_ne!(texts_a, texts_b);
    }

    #[test]
    fn adhoc_texts_are_distinct_and_interleave_three_shapes() {
        let data = generate_dataset(3, &Size::smoke());
        let texts = adhoc_texts(&data, 3, 8);
        assert_eq!(texts.len(), 24);
        let distinct: HashSet<&str> = texts.iter().map(|t| t.query.mmql).collect();
        assert_eq!(distinct.len(), texts.len());
        let ids: Vec<&str> = texts.iter().take(6).map(|t| t.of.id).collect();
        assert_eq!(ids, ["Q1", "Q4", "Q9", "Q1", "Q4", "Q9"]);
    }

    #[test]
    fn point_rw_clients_write_disjoint_keys() {
        let dir = crate::out_dir();
        let w = PointRw::setup(5, &Size::smoke(), &dir).expect("set-up");
        for id in 0..2 {
            let mut c = w.client(id, 2);
            let mut writes = 0;
            for i in 0..4_000 {
                if let PointOp::Write { key, .. } = w.next_op(&mut c, i) {
                    assert_eq!(key % 2, id);
                    writes += 1;
                }
            }
            assert!((100..300).contains(&writes), "about 5 % write: {writes}");
        }
    }
}
