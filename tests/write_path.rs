//! The write path against a model — the write-side twin of
//! `read_path.rs::general_read_agrees_with_the_model`.
//!
//! Random sequences of `put`/`insert`/`update`/`merge`/`delete` and their
//! `_many` forms, with reads, commits and aborts between them, run
//! against a key-value, a document, a relational and an XML collection
//! at every isolation level and at shard counts 1, 3 and 8. A model made
//! of `BTreeMap`s and the core validators says what each call must
//! return — the keys or counts, or the class of the error — and what the
//! transaction must read back after it; at each commit the WAL record
//! must list the first write per record in call order, and a replay of
//! the log must rebuild the committed state.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use udbms::core::{obj, CollectionSchema, Error, FieldDef, FieldType, Key, ModelKind, Value};
use udbms::engine::{Engine, EngineConfig, Isolation, Txn, Wal};

const NAMES: [&str; 4] = ["kv", "docs", "rel", "xml"];
const KEYS: i64 = 12;

fn schemas() -> [CollectionSchema; 4] {
    [
        CollectionSchema::key_value("kv"),
        CollectionSchema::document("docs", "_id", vec![FieldDef::optional("n", FieldType::Int)]),
        CollectionSchema::relational(
            "rel",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("name", FieldType::Str),
                FieldDef::optional("n", FieldType::Int),
                FieldDef::optional("tier", FieldType::Str).with_default(Value::from("basic")),
            ],
        ),
        CollectionSchema::xml("xml"),
    ]
}

fn invoice(n: i64) -> String {
    format!("<Invoice id=\"i{n}\"><Total>{n}</Total></Invoice>")
}

fn bridge(n: i64) -> Value {
    udbms::xml::xml_to_value(udbms::xml::parse(&invoice(n)).unwrap().root())
}

/// A value for collection `ci`, valid or not by `variant`.
fn value(ci: usize, k: i64, variant: u8, n: i64) -> Value {
    match (ci, variant % 6) {
        (0, 0 | 3) => Value::Int(n),
        (0, 1 | 4) => obj! {"n" => n},
        (0, _) => obj! {"nest" => obj! {"a" => n}},
        (1, 0) => obj! {"_id" => k, "n" => n},
        (1, 1 | 5) => obj! {"n" => n},
        (1, 2) => obj! {"_id" => k, "n" => "not an int"},
        (1, 3) => obj! {"_id" => k, "extra" => obj! {"deep" => n}},
        (1, _) => Value::Int(n),
        (2, 0) => obj! {"id" => k, "name" => format!("c{n}")},
        (2, 1) => obj! {"id" => k, "name" => "named", "n" => n, "tier" => "gold"},
        (2, 2) => obj! {"id" => k},
        (2, 3) => obj! {"id" => k, "name" => "named", "bogus" => 1},
        (2, 4) => obj! {"name" => "keyless"},
        (2, _) => obj! {"id" => k, "name" => 7},
        (_, 0 | 2 | 4) => bridge(n),
        (_, 1) => obj! {"not" => "a bridge value"},
        (_, _) => obj! {"tag" => "Invoice", "attrs" => obj! {"id" => format!("i{n}")}},
    }
}

/// A merge patch for collection `ci`.
fn patch(ci: usize, variant: u8, n: i64) -> Value {
    match (ci, variant % 3) {
        (0, 0) => obj! {"m" => n},
        (0, 1) => Value::Int(n),
        (0, _) => obj! {"nest" => obj! {"b" => n}},
        (1, 0) => obj! {"n" => n},
        (1, 1) => obj! {"n" => "not an int"},
        (1, _) => obj! {"extra" => obj! {"more" => n}},
        (2, 0) => obj! {"n" => n},
        (2, 1) => obj! {"bogus" => 1},
        (2, _) => obj! {"name" => format!("renamed{n}")},
        (_, 0) => obj! {"attrs" => obj! {"status" => format!("s{n}")}},
        (_, 1) => obj! {"bogus" => 1},
        (_, _) => bridge(n),
    }
}

/// What a write call returns, reduced to what the model can predict.
#[derive(Debug, PartialEq)]
enum Outcome {
    Done,
    Key(Key),
    Keys(Vec<Key>),
    Existed(bool),
    Count(usize),
    /// The error's variant name.
    Failed(&'static str),
}

fn class(e: &Error) -> &'static str {
    match e {
        Error::Parse { .. } => "Parse",
        Error::Type { .. } => "Type",
        Error::NotFound(_) => "NotFound",
        Error::AlreadyExists(_) => "AlreadyExists",
        Error::TxnConflict(_) => "TxnConflict",
        Error::TxnClosed(_) => "TxnClosed",
        Error::Constraint(_) => "Constraint",
        Error::Invalid(_) => "Invalid",
        Error::Unsupported(_) => "Unsupported",
        Error::Unavailable(_) => "Unavailable",
        Error::Io(_) => "Io",
    }
}

fn outcome<T>(r: Result<T, Error>, ok: impl FnOnce(T) -> Outcome) -> Outcome {
    match r {
        Ok(v) => ok(v),
        Err(e) => Outcome::Failed(class(&e)),
    }
}

/// The model: each collection as the open transaction sees it, the
/// committed state under it, the records this transaction wrote (first
/// write first) and the document collection's auto-id counter.
struct Model {
    schemas: [CollectionSchema; 4],
    rows: [BTreeMap<Key, Value>; 4],
    committed: [BTreeMap<Key, Value>; 4],
    order: Vec<(usize, Key)>,
    /// Ids drawn so far: one per value that reaches key assignment
    /// without its primary key, whether or not the call then succeeds.
    drawn: i64,
}

impl Model {
    fn new() -> Model {
        Model {
            schemas: schemas(),
            rows: Default::default(),
            committed: Default::default(),
            order: Vec::new(),
            drawn: 0,
        }
    }

    /// Per-model validation, defaults applied: the core validators and
    /// the XML bridge, called the way a write must call them.
    fn validate(&self, ci: usize, v: &mut Value) -> Result<(), &'static str> {
        let schema = &self.schemas[ci];
        match schema.model {
            ModelKind::Relational | ModelKind::Document => {
                schema.apply_defaults(v);
                schema.validate(v).map_err(|e| class(&e))
            }
            ModelKind::Xml => udbms::xml::value_to_xml(v)
                .map(|_| ())
                .map_err(|e| class(&e)),
            _ => Ok(()),
        }
    }

    fn buffer(&mut self, ci: usize, key: Key, v: Option<Value>) {
        if !self.order.contains(&(ci, key.clone())) {
            self.order.push((ci, key.clone()));
        }
        match v {
            Some(v) => self.rows[ci].insert(key, v),
            None => self.rows[ci].remove(&key),
        };
    }

    /// Validate every item, then buffer every item: a failing batch
    /// buffers nothing.
    fn put_many(&mut self, ci: usize, items: Vec<(Key, Value)>) -> Outcome {
        let mut valid = Vec::new();
        for (key, mut v) in items {
            if let Err(class) = self.validate(ci, &mut v) {
                return Outcome::Failed(class);
            }
            valid.push((key, v));
        }
        for (key, v) in valid {
            self.buffer(ci, key, Some(v));
        }
        Outcome::Done
    }

    /// Keys assigned in order (an id drawn per keyless document), then
    /// existence, then validation.
    fn insert_many(&mut self, ci: usize, values: Vec<Value>) -> Result<Vec<Key>, &'static str> {
        let schema = &self.schemas[ci];
        let Some(pk) = schema.primary_key.clone() else {
            return Err("Unsupported");
        };
        let mut keyed = Vec::new();
        for mut v in values {
            let key = match v.get_field(&pk) {
                Value::Null if schema.model == ModelKind::Document => {
                    self.drawn += 1;
                    let key = Key::int(self.drawn);
                    if let Some(fields) = v.as_object_mut() {
                        fields.insert(pk.clone(), key.value().clone());
                    }
                    key
                }
                Value::Null => return Err("Constraint"),
                given => Key::new(given.clone()).map_err(|e| class(&e))?,
            };
            keyed.push((key, v));
        }
        for (at, (key, _)) in keyed.iter().enumerate() {
            if self.rows[ci].contains_key(key) || keyed[..at].iter().any(|(k, _)| k == key) {
                return Err("AlreadyExists");
            }
        }
        let keys = keyed.iter().map(|(k, _)| k.clone()).collect();
        match self.put_many(ci, keyed) {
            Outcome::Failed(class) => Err(class),
            _ => Ok(keys),
        }
    }

    fn update(&mut self, ci: usize, key: Key, v: Value) -> Outcome {
        if !self.rows[ci].contains_key(&key) {
            return Outcome::Failed("NotFound");
        }
        self.put_many(ci, vec![(key, v)])
    }

    fn merge(&mut self, ci: usize, key: Key, patch: Value) -> Outcome {
        let Some(mut current) = self.rows[ci].get(&key).cloned() else {
            return Outcome::Failed("NotFound");
        };
        current.merge_from(patch);
        self.put_many(ci, vec![(key, current)])
    }

    fn delete_many(&mut self, ci: usize, keys: &[Key]) -> usize {
        let mut deleted = 0;
        for key in keys {
            if self.rows[ci].contains_key(key) {
                self.buffer(ci, key.clone(), None);
                deleted += 1;
            }
        }
        deleted
    }

    /// The WAL record this transaction's commit must append.
    fn log_writes(&self) -> Vec<(String, Key, Option<Value>)> {
        self.order
            .iter()
            .map(|(ci, key)| {
                (
                    NAMES[*ci].to_string(),
                    key.clone(),
                    self.rows[*ci].get(key).cloned(),
                )
            })
            .collect()
    }
}

type Step = (u8, u8, i64, u8, i64);

/// The `i`-th item of a batch step: keys walk by `n % 2` (0 repeats the
/// key), variants by one.
fn batch_item(step: Step, i: i64) -> (i64, u8, i64) {
    let (_, _, k, variant, n) = step;
    (
        (k + i * n.rem_euclid(2)).rem_euclid(KEYS),
        variant.wrapping_add(i as u8),
        n + i,
    )
}

/// Apply one step to the engine and to the model; their outcomes must
/// agree. Returns the collection the step touched.
fn apply(t: &mut Txn, m: &mut Model, step: Step) -> Result<usize, TestCaseError> {
    let (op, coll, k, variant, n) = step;
    let ci = coll as usize % 4;
    let name = NAMES[ci];
    let key = Key::int(k);
    let batch = (variant % 4) as i64;
    let (got, want) = match op % 10 {
        0 if ci == 3 && variant >= 6 => {
            let text = if variant % 2 == 0 {
                invoice(n)
            } else {
                "<broken".to_string()
            };
            let want = match udbms::xml::parse(&text) {
                Ok(doc) => m.put_many(
                    ci,
                    vec![(key.clone(), udbms::xml::xml_to_value(doc.root()))],
                ),
                Err(e) => Outcome::Failed(class(&e)),
            };
            (
                outcome(t.put_xml(name, key, &text), |()| Outcome::Done),
                want,
            )
        }
        0 => {
            let v = value(ci, k, variant, n);
            (
                outcome(t.put(name, key.clone(), v.clone()), |()| Outcome::Done),
                m.put_many(ci, vec![(key, v)]),
            )
        }
        1 | 9 => {
            let v = value(ci, k, variant, n);
            let want = match m.insert_many(ci, vec![v.clone()]) {
                Ok(mut keys) => Outcome::Key(keys.remove(0)),
                Err(class) => Outcome::Failed(class),
            };
            (outcome(t.insert(name, v), Outcome::Key), want)
        }
        2 => {
            let v = value(ci, k, variant, n);
            (
                outcome(t.update(name, &key, v.clone()), |()| Outcome::Done),
                m.update(ci, key, v),
            )
        }
        3 => {
            let p = patch(ci, variant, n);
            (
                outcome(t.merge(name, &key, p.clone()), |()| Outcome::Done),
                m.merge(ci, key, p),
            )
        }
        4 => (
            outcome(t.delete(name, &key), Outcome::Existed),
            Outcome::Existed(m.delete_many(ci, &[key]) == 1),
        ),
        5 => {
            let items: Vec<(Key, Value)> = (0..batch)
                .map(|i| batch_item(step, i))
                .map(|(k, variant, n)| (Key::int(k), value(ci, k, variant, n)))
                .collect();
            (
                outcome(t.put_many(name, items.clone()), |()| Outcome::Done),
                m.put_many(ci, items),
            )
        }
        6 => {
            let values: Vec<Value> = (0..batch)
                .map(|i| batch_item(step, i))
                .map(|(k, variant, n)| value(ci, k, variant, n))
                .collect();
            let want = match m.insert_many(ci, values.clone()) {
                Ok(keys) => Outcome::Keys(keys),
                Err(class) => Outcome::Failed(class),
            };
            (outcome(t.insert_many(name, values), Outcome::Keys), want)
        }
        7 => {
            let keys: Vec<Key> = (0..batch)
                .map(|i| Key::int(batch_item(step, i).0))
                .collect();
            (
                outcome(t.delete_many(name, &keys), Outcome::Count),
                Outcome::Count(m.delete_many(ci, &keys)),
            )
        }
        // a plain read: the comparison below is the step
        _ => (Outcome::Done, Outcome::Done),
    };
    prop_assert_eq!(got, want, "step {:?}", step);
    Ok(ci)
}

/// The transaction reads back what the model holds: the whole collection
/// in key order, and one key by `get`.
fn compare(t: &mut Txn, m: &Model, ci: usize, k: i64, at: &str) -> Result<(), TestCaseError> {
    let scanned: Vec<(Key, Value)> = t
        .scan_shared(NAMES[ci])
        .unwrap()
        .into_iter()
        .map(|(key, v)| (key, v.as_ref().clone()))
        .collect();
    let want: Vec<(Key, Value)> = m.rows[ci].clone().into_iter().collect();
    prop_assert_eq!(scanned, want, "scan of {} {}", NAMES[ci], at);
    let key = Key::int(k);
    prop_assert_eq!(
        t.get(NAMES[ci], &key).unwrap(),
        m.rows[ci].get(&key).cloned(),
        "get {} in {} {}",
        key,
        NAMES[ci],
        at
    );
    Ok(())
}

fn temp_wal() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "udbms-write-path-{}-{}.wal",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn create_all(engine: &Engine) {
    for schema in schemas() {
        engine.create_collection(schema).unwrap();
    }
}

/// Commit, then check the log: a writing transaction appended exactly one
/// record holding its first writes in call order with their final
/// values; a transaction that buffered nothing appended none.
fn commit_and_check_log(
    t: Txn,
    m: &mut Model,
    path: &PathBuf,
    logged: &mut usize,
) -> Result<(), TestCaseError> {
    let want = m.log_writes();
    t.commit().unwrap();
    let records = Wal::scan(path).unwrap().records;
    if want.is_empty() {
        prop_assert_eq!(records.len(), *logged, "a read-only commit logs nothing");
    } else {
        *logged += 1;
        prop_assert_eq!(records.len(), *logged);
        prop_assert_eq!(&records[*logged - 1].writes, &want, "write order");
    }
    m.committed = m.rows.clone();
    m.order.clear();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every write entry point returns what the model returns and leaves
    /// the transaction reading what the model holds, step by step, across
    /// commits and aborts, and the log replays to the committed state.
    #[test]
    fn writes_agree_with_the_model(
        steps in prop::collection::vec((0u8..12, 0u8..4, 0i64..KEYS, 0u8..8, -5i64..40), 1..64),
    ) {
        for shards in [1usize, 3, 8] {
            for isolation in [Isolation::ReadCommitted, Isolation::Snapshot, Isolation::Serializable] {
                let path = temp_wal();
                let engine =
                    Engine::with_wal_config(&path, EngineConfig::default().with_shards(shards)).unwrap();
                create_all(&engine);
                let mut m = Model::new();
                let mut logged = 0usize;
                let mut t = engine.begin(isolation);
                for (at, step) in steps.iter().enumerate() {
                    let at = format!("after step {at} {step:?}, {isolation}, {shards} shard(s)");
                    match step.0 {
                        10 => {
                            commit_and_check_log(t, &mut m, &path, &mut logged)?;
                            t = engine.begin(isolation);
                        }
                        11 => {
                            t.abort();
                            m.rows = m.committed.clone();
                            m.order.clear();
                            t = engine.begin(isolation);
                        }
                        _ => {
                            let ci = apply(&mut t, &mut m, *step)?;
                            compare(&mut t, &m, ci, step.2, &at)?;
                        }
                    }
                }
                commit_and_check_log(t, &mut m, &path, &mut logged)?;
                // a fresh transaction sees the committed state …
                let mut after = engine.begin(isolation);
                for ci in 0..4 {
                    compare(&mut after, &m, ci, 0, "after the last commit")?;
                }
                drop(after);
                prop_assert_eq!(engine.stats().active_txns, 0);
                drop(engine);
                // … and so does an engine rebuilt from the log
                let replayed = Engine::with_shards(shards);
                create_all(&replayed);
                replayed.replay_wal(&path).unwrap();
                let mut t = replayed.begin_read();
                for ci in 0..4 {
                    compare(&mut t, &m, ci, 0, "after WAL replay")?;
                }
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
}
