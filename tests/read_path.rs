//! Read-path integration tests (PR 5): compiled predicates agree with
//! the interpreter on arbitrary expressions and rows, streaming scans
//! with limit/predicate pushdown return exactly the materialized scan's
//! prefix at several shard counts, and the read lane + plan cache are
//! observable through the driver. PR 13: the accumulator `COLLECT`
//! agrees with a plain group-by over the scanned rows, and Q1–Q10 agree
//! with the polyglot oracle on three seeds.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use udbms_core::{obj, CollectionSchema, FieldPath, IndexKind, Key, Params, Predicate, Value};
use udbms_engine::{Engine, Isolation};
use udbms_query::{eval, CompiledPred, Env, Expr, Query, Statement};

/// Build a deterministic MMQL expression over loop variable `r` from an
/// opcode spec, as text. Covers literals, member paths (present and
/// missing), whole-row references, unary operators, every comparison,
/// `IN` and `LIKE`, and flat chains of 1–12 operands at each
/// left-associative level (`AND`, `OR`, `+`/`-`, `*`/`/`/`%`, operators
/// mixed within a level) — including shapes that produce type errors,
/// which both evaluators must agree on.
fn build_expr(spec: &[(u8, i64)], pos: &mut usize, depth: usize) -> String {
    let (op, a) = spec.get(*pos).copied().unwrap_or((0, 1));
    *pos += 1;
    if depth >= 3 || op % 16 < 6 {
        return match op % 7 {
            6 => format!("({})", a as f64 + 0.5),
            0 => format!("({a})"),
            1 => format!("\"s{}\"", a.rem_euclid(4)),
            2 => (a % 2 == 0).to_string(),
            3 => "r".into(),
            _ => {
                let fields = ["g", "n", "name", "missing", "nest"];
                format!("r.{}", fields[a.rem_euclid(fields.len() as i64) as usize])
            }
        };
    }
    let mut operand = || format!("({})", build_expr(spec, pos, depth + 1));
    if op % 16 < 8 {
        let unary = if op % 2 == 0 { "NOT " } else { "-" };
        return format!("{unary}{}", operand());
    }
    if op % 16 < 10 {
        let ops = ["==", "!=", "<", "<=", ">", ">=", "IN", "LIKE"];
        let bin = ops[a.rem_euclid(ops.len() as i64) as usize];
        return format!("{} {bin} {}", operand(), operand());
    }
    let level: &[&str] = match op % 4 {
        0 => &["AND"],
        1 => &["OR"],
        2 => &["+", "-"],
        _ => &["*", "/", "%"],
    };
    let mut chain = operand();
    for i in 0..a.rem_euclid(12) as usize {
        let pick = (usize::from(op / 16) + i) % level.len();
        chain = format!("{chain} {} {}", level[pick], operand());
    }
    chain
}

/// The expression an MMQL text parses to.
fn parse_expr(text: &str) -> Expr {
    match udbms_query::parse(&format!("RETURN {text}")).unwrap() {
        Statement::Query(body) => body.ret,
        other => panic!("{other:?}"),
    }
}

proptest! {
    /// A compiled predicate and the interpreter produce the same result
    /// — value or error — for arbitrary row-local expressions over
    /// arbitrary rows.
    #[test]
    fn compiled_predicates_agree_with_interpreter(
        spec in prop::collection::vec((0u8..255, -6i64..6), 1..24),
        g in -4i64..4,
        n in -100i64..100,
        tag in 0i64..4,
    ) {
        let expr = parse_expr(&build_expr(&spec, &mut 0, 0));
        let row = obj! {
            "g" => g,
            "n" => n,
            "name" => format!("s{tag}"),
            "nest" => obj! {"x" => g * 2},
        };
        let Some(compiled) = CompiledPred::compile(&expr, "r") else {
            // not row-local (e.g. generated `@param`-free tree never is,
            // but whole-row `Neg` etc. still compile; nothing to check
            // when the compiler declines)
            return Ok(());
        };
        let engine = Engine::new();
        let mut txn = engine.begin(Isolation::Snapshot);
        let env = Env::new().with("r", row.clone());
        let interpreted = eval(&expr, &env, &mut txn);
        let fast = compiled.eval(&row);
        match (&interpreted, &fast) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "expr {:?}", expr),
            (Err(a), Err(b)) => prop_assert_eq!(
                a.to_string(),
                b.to_string(),
                "error mismatch for {:?}",
                expr
            ),
            _ => prop_assert!(
                false,
                "one path errored, the other did not: {:?} vs {:?} for {:?}",
                interpreted,
                fast,
                expr
            ),
        }
        // matches() is the truthiness of eval()
        if let Ok(v) = &fast {
            prop_assert_eq!(compiled.matches(&row).unwrap(), v.is_truthy());
        }
        // the two type errors by name: both paths report them, alike —
        // under a row-local operand so neither side folds them away
        for (bad, want) in [("-\"x\"", "unary -"), ("1 % 2.0", "Int % Float")] {
            let bad = parse_expr(&format!("r != r OR {bad}"));
            let slow = eval(&bad, &env, &mut txn).unwrap_err().to_string();
            let fast = CompiledPred::compile(&bad, "r").unwrap().eval(&row).unwrap_err();
            prop_assert!(slow.contains(want), "{}", slow);
            prop_assert_eq!(slow, fast.to_string());
        }
    }

    /// `COLLECT` over per-group accumulators returns what a plain
    /// group-by over the scanned rows returns — values, their types and
    /// the group order — for arbitrary documents (missing fields, nulls,
    /// Int and Float spellings of one key, nested paths, keys distinct
    /// per document that differ only above bit 40) and clause shapes,
    /// at shard counts 1, 3 and 8. A group key or an aggregate
    /// input spelled through `COALESCE(…)` does not compile, so the
    /// interpreted front end of the one collector meets the same model
    /// as the compiled one folded into the scan.
    #[test]
    fn collect_agrees_with_a_plain_group_by(
        docs in prop::collection::vec((0i64..48, 0u8..9, 0u8..6, -20i64..20), 1..60),
        shape in (0u8..4, 0u8..3, 0u8..2, 0u8..6, 0u8..5),
        lo in -10i64..10,
        spelling in 0u8..4,
    ) {
        let (filter, keys, into, sort, limit) = shape;
        // one group-key value in several spellings, or absent; or one
        // per document that differs from the others only above bit 40,
        // which an unkeyed multiply hash would put in one bucket
        let key_value = |kind: u8, n: i64, k: i64| match kind {
            0 | 1 => Some(Value::Int(n.rem_euclid(3))),
            2 => Some(Value::Float(n.rem_euclid(3) as f64)),
            3 => Some(Value::Null),
            4 => Some(Value::from(format!("s{}", n.rem_euclid(2)))),
            5 => Some(Value::Float(n.rem_euclid(3) as f64 + 0.5)),
            8 => Some(Value::Int(k << 40)),
            _ => None,
        };
        let agg_value = |kind: u8, n: i64| match kind {
            0 | 1 => Some(Value::Int(n)),
            2 => Some(Value::Float(n as f64 / 4.0)),
            3 => Some(Value::Null),
            4 => Some(Value::from("x")),
            _ => None,
        };
        let filter_text = [
            "",
            "FILTER r.n >= @lo",                // pushed into the engine
            "FILTER r.n % 2 == 0",              // compiled residual
            "FILTER TO_NUMBER(r.n) >= @lo",     // interpreted, not fused
        ][filter as usize];
        let keep = |n: i64| match filter {
            0 => true,
            2 => n.rem_euclid(2) == 0,
            _ => n >= lo,
        };
        // bit 0: the first key through COALESCE; bit 1: the SUM input
        let coalesce = |e: &str, bit: u8| match spelling & bit {
            0 => e.to_string(),
            _ => format!("COALESCE({e})"),
        };
        let k1 = coalesce(["r.g", "r.nest.k", "r.g"][keys as usize], 1);
        let key_text = match keys {
            2 => format!("k1 = {k1}, k2 = r.nest.k"),
            _ => format!("k1 = {k1}"),
        };
        let key_names = if keys == 2 { "k1, k2" } else { "k1" };
        let text = format!(
            "FOR r IN data {filter_text} COLLECT {key_text} \
             AGGREGATE c = COUNT(), s = SUM({}), a = AVG(r.v), lo = MIN(r.v), hi = MAX(r.v) \
             {} {} {} RETURN [{key_names}, c, s, a, lo, hi, {}]",
            coalesce("r.v", 2),
            if into == 1 { "INTO members" } else { "" },
            // by names the COLLECT binds (the group table orders them), and
            // by an expression (every group is bound, then sorted)
            [
                "",
                "SORT c DESC",
                "SORT s, c",
                "SORT k1 DESC",
                "SORT s DESC, k1",
                "SORT c + 0 DESC",
            ][sort as usize],
            ["", "LIMIT 3", "LIMIT 1, 2", "LIMIT 0", "LIMIT 50, 3"][limit as usize],
            if into == 1 { "(FOR m IN members RETURN m.r.n)" } else { "NULL" },
        );
        let query = Query::parse(&text).unwrap().bind(&Params::new().with("lo", lo)).unwrap();
        for shards in [1usize, 3, 8] {
            let engine = Engine::with_shards(shards);
            engine.create_collection(CollectionSchema::key_value("data")).unwrap();
            engine
                .run(Isolation::Snapshot, |t| {
                    for (k, gkind, vkind, n) in &docs {
                        let mut doc = obj! {"n" => *n};
                        let fields = doc.as_object_mut().unwrap();
                        if let Some(g) = key_value(*gkind, *n, *k) {
                            fields.insert("g".into(), g);
                        }
                        if let Some(v) = agg_value(*vkind, *n) {
                            fields.insert("v".into(), v);
                        }
                        if let Some(k2) = key_value((gkind + 3) % 9, *k, *k) {
                            fields.insert("nest".into(), obj! {"k" => k2});
                        }
                        t.put("data", Key::int(*k), doc)?;
                    }
                    Ok(())
                })
                .unwrap();
            let mut t = engine.begin_read();
            let got = query.execute(&mut t).unwrap();

            // the plain group-by: first row's key values stand for the group
            let key_of = |row: &Value| -> Vec<Value> {
                let g = row.get_field("g").clone();
                let k = row.get_field("nest").get_field("k").clone();
                match keys {
                    0 => vec![g],
                    1 => vec![k],
                    _ => vec![g, k],
                }
            };
            let mut groups: Vec<(Vec<Value>, Vec<Arc<Value>>)> = Vec::new();
            for (_, row) in t.scan_shared("data").unwrap() {
                if !keep(row.get_field("n").as_int().unwrap()) {
                    continue;
                }
                let key = key_of(&row);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            let mut want: Vec<Value> = Vec::new();
            for (key, members) in groups {
                let inputs: Vec<&Value> = members.iter().map(|m| m.get_field("v")).collect();
                let numbers: Vec<f64> = inputs.iter().filter_map(|v| v.as_float()).collect();
                let exact = inputs.iter().all(|v| matches!(v, Value::Int(_) | Value::Null));
                let total: f64 = numbers.iter().sum();
                let sum = match (numbers.is_empty(), exact) {
                    (true, _) => Value::Null,
                    (false, true) => Value::Int(total as i64),
                    (false, false) => Value::Float(total),
                };
                let avg = if numbers.is_empty() {
                    Value::Null
                } else {
                    Value::Float(total / numbers.len() as f64)
                };
                let present = || inputs.iter().filter(|v| !v.is_null()).copied();
                let mut out = key;
                out.push(Value::Int(members.len() as i64));
                out.push(sum);
                out.push(avg);
                out.push(present().min().cloned().unwrap_or(Value::Null));
                out.push(present().max().cloned().unwrap_or(Value::Null));
                out.push(if into == 1 {
                    members.iter().map(|m| m.get_field("n").clone()).collect()
                } else {
                    Value::Null
                });
                want.push(Value::Array(out));
            }
            let field = |row: &Value, at: usize| row.as_array().unwrap()[at].clone();
            let width = if keys == 2 { 2 } else { 1 };
            match sort {
                1 | 5 => want.sort_by_key(|row| std::cmp::Reverse(field(row, width))),
                2 => want.sort_by_key(|row| (field(row, width + 1), field(row, width))),
                3 => want.sort_by_key(|row| std::cmp::Reverse(field(row, 0))),
                4 => want.sort_by_key(|row| (std::cmp::Reverse(field(row, width + 1)), field(row, 0))),
                _ => {}
            }
            let (skip, take) = [(0, usize::MAX), (0, 3), (1, 2), (0, 0), (50, 3)][limit as usize];
            let want: Vec<Value> = want.into_iter().skip(skip).take(take).collect();
            // Debug, not ==: Int(1) and Float(1.0) are equal but not the same
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{} shard(s): {}",
                shards,
                text
            );
        }
    }

    /// `SORT` over plain rows is a stable sort on its keys, and a `LIMIT`
    /// right behind it is `skip(o).take(n)` of that order, though the
    /// executor keeps the window by selection: keys with many ties and a
    /// mix of `Int`, `Float`, `Null`, `Str` and absent values, one or two
    /// keys in either direction, windows that are empty or start past
    /// the end, at shard counts 1, 3 and 8.
    #[test]
    fn sort_limit_is_a_stable_sort_and_a_window(
        docs in prop::collection::vec((0u8..6, 0u8..6, -3i64..3), 1..40),
        sort in (any::<bool>(), any::<bool>(), any::<bool>()),
        filter in any::<bool>(),
        limit in 0u8..7,
    ) {
        let (two_keys, asc_a, asc_b) = sort;
        let spelled = |v: u8, n: i64| match v {
            0 => Some(Value::Int(n)),
            1 => Some(Value::Float(n as f64)),
            2 => Some(Value::Float(n as f64 + 0.5)),
            3 => Some(Value::Null),
            4 => Some(Value::from(format!("s{}", n.rem_euclid(2)))),
            _ => None,
        };
        let dir = |asc: bool| if asc { "" } else { " DESC" };
        let keys_text = match two_keys {
            true => format!("r.a{}, r.b{}", dir(asc_a), dir(asc_b)),
            false => format!("r.a{}", dir(asc_a)),
        };
        let windows = [None, Some((0, 0)), Some((0, 3)), Some((2, 4)), Some((100, 2)), Some((5, 100)), Some((0, 1))];
        let window = windows[limit as usize];
        let text = format!(
            "FOR r IN data {} SORT {keys_text} {} RETURN r.n",
            if filter { "FILTER r.x >= 0" } else { "" },
            window.map_or(String::new(), |(o, n)| format!("LIMIT {o}, {n}")),
        );
        let query = Query::parse(&text).unwrap();
        // the model: rows in key order, filtered, stably sorted, windowed
        let mut want: Vec<(Value, Value, i64)> = Vec::new();
        for (n, (a, b, x)) in docs.iter().enumerate() {
            if filter && *x < 0 {
                continue;
            }
            let field = |v: u8| spelled(v, *x).unwrap_or(Value::Null);
            want.push((field(*a), field(*b), n as i64));
        }
        let directed = |ord: std::cmp::Ordering, asc: bool| if asc { ord } else { ord.reverse() };
        want.sort_by(|p, q| {
            let first = directed(p.0.canonical_cmp(&q.0), asc_a);
            match two_keys {
                true => first.then(directed(p.1.canonical_cmp(&q.1), asc_b)),
                false => first,
            }
        });
        let (skip, take) = window.unwrap_or((0, usize::MAX));
        let want: Vec<Value> = want.into_iter().skip(skip).take(take).map(|(_, _, n)| Value::Int(n)).collect();
        for shards in [1usize, 3, 8] {
            let engine = Engine::with_shards(shards);
            engine.create_collection(CollectionSchema::key_value("data")).unwrap();
            engine
                .run(Isolation::Snapshot, |t| {
                    for (n, (a, b, x)) in docs.iter().enumerate() {
                        let mut doc = obj! {"n" => n as i64, "x" => *x};
                        let fields = doc.as_object_mut().unwrap();
                        if let Some(a) = spelled(*a, *x) {
                            fields.insert("a".into(), a);
                        }
                        if let Some(b) = spelled(*b, *x) {
                            fields.insert("b".into(), b);
                        }
                        t.put("data", Key::int(n as i64), doc)?;
                    }
                    Ok(())
                })
                .unwrap();
            let got = query.execute(&mut engine.begin_read()).unwrap();
            prop_assert_eq!(&got, &want, "{} shard(s): {}", shards, text);
        }
    }

    /// The general read `Txn::rows` returns what a model built from
    /// independent parts returns — a full committed scan, then
    /// `Predicate::matches`, then the buffered writes laid over it, then
    /// `truncate` — in key order, at every isolation level, with and
    /// without buffered writes on the collection (inserts, overwrites
    /// that stop matching, deletes), for every access path (scan, hash
    /// index, B-tree index, `Null` probe on an indexed path, primary-key
    /// point read) and limit, at shard counts 1, 3 and 8. The B-tree's
    /// path is missing, `Null` or a one-element array on some rows, and
    /// its ranges include ones open below and upside down.
    #[test]
    fn general_read_agrees_with_the_model(
        rows in prop::collection::vec((0i64..64, 0i64..7, -50i64..50), 1..80),
        own in prop::collection::vec((0u8..3, 0i64..80, 0i64..7, -50i64..50), 1..12),
        probe in (0i64..6, -50i64..50, 0i64..40, 0i64..80, any::<bool>()),
        limit in 2usize..40,
    ) {
        // g == 6 stands for "no g field": what a Null probe must find;
        // n's shape follows from k: no field, Null, [n], or n itself
        let doc = |k: i64, g: i64, n: i64| {
            let mut doc = obj! {"_id" => k, "u" => format!("s{}", n.rem_euclid(3))};
            let fields = doc.as_object_mut().unwrap();
            if g < 6 {
                fields.insert("g".into(), Value::Int(g));
            }
            let n = match k.rem_euclid(8) {
                0 => None,
                1 => Some(Value::Null),
                2 => Some(Value::Array(vec![Value::Int(n)])),
                _ => Some(Value::Int(n)),
            };
            if let Some(n) = n {
                fields.insert("n".into(), n);
            }
            doc
        };
        let (probe_g, lo, span, pk, open_ended) = probe;
        let preds: [(&str, Option<Predicate>); 9] = [
            ("no predicate", None),
            ("hash-indexed equality", Some(Predicate::eq("g", Value::Int(probe_g)))),
            ("btree-indexed range", Some(if open_ended {
                Predicate::lt("n", Value::Int(lo))
            } else {
                Predicate::between("n", Value::Int(lo), Value::Int(lo + span))
            })),
            ("btree-indexed range open above", Some(Predicate::gt("n", Value::Int(lo)))),
            ("upside-down btree range", Some(Predicate::between("n", Value::Int(lo + span + 1), Value::Int(lo)))),
            ("btree-indexed array equality", Some(Predicate::eq("n", Value::Array(vec![Value::Int(lo)])))),
            ("unindexed", Some(Predicate::eq("u", Value::from(format!("s{}", lo.rem_euclid(3)))))),
            ("Null probe on an indexed path", Some(Predicate::eq("g", Value::Null))),
            ("primary-key equality", Some(Predicate::eq("_id", Value::Int(pk)))),
        ];
        for shards in [1usize, 3, 8] {
            let engine = Engine::with_shards(shards);
            engine
                .create_collection(CollectionSchema::document("data", "_id", vec![]))
                .unwrap();
            engine.create_index("data", FieldPath::key("g"), IndexKind::Hash).unwrap();
            engine.create_index("data", FieldPath::key("n"), IndexKind::BTree).unwrap();
            engine
                .run(Isolation::Snapshot, |t| {
                    for (k, g, n) in &rows {
                        t.put("data", Key::int(*k), doc(*k, *g, *n))?;
                    }
                    Ok(())
                })
                .unwrap();
            let committed: BTreeMap<Key, Arc<Value>> =
                engine.begin_read().scan_shared("data").unwrap().into_iter().collect();
            prop_assert!(committed.len() <= rows.len());
            for isolation in [Isolation::ReadCommitted, Isolation::Snapshot, Isolation::Serializable] {
                for buffered in [false, true] {
                    let mut t = engine.begin(isolation);
                    let mut model = committed.clone();
                    for (kind, k, g, n) in own.iter().filter(|_| buffered) {
                        // kind 1 overwrites a committed row with one no probe matches
                        let (k, g, n) = if *kind == 1 { (rows[*k as usize % rows.len()].0, 9, 999) } else { (*k, *g, *n) };
                        if *kind == 2 {
                            t.delete("data", &Key::int(k)).unwrap();
                            model.remove(&Key::int(k));
                        } else {
                            t.put("data", Key::int(k), doc(k, g, n)).unwrap();
                            model.insert(Key::int(k), Arc::new(doc(k, g, n)));
                        }
                    }
                    prop_assert_eq!(
                        t.scan_shared("data").unwrap(),
                        model.clone().into_iter().collect::<Vec<_>>()
                    );
                    for (name, pred) in &preds {
                        for limit in [None, Some(0), Some(1), Some(limit)] {
                            let want: Vec<(Key, Arc<Value>)> = model
                                .iter()
                                .filter(|(_, row)| pred.as_ref().is_none_or(|p| p.matches(row)))
                                .take(limit.unwrap_or(usize::MAX))
                                .map(|(k, row)| (k.clone(), Arc::clone(row)))
                                .collect();
                            prop_assert_eq!(
                                t.rows("data", pred.as_ref(), limit).unwrap(),
                                want,
                                "{}, limit {:?}, {}, own writes: {}, {} shard(s)",
                                name, limit, isolation, buffered, shards
                            );
                        }
                    }
                }
            }
        }
    }

    /// The MMQL `LIMIT` pushdown returns the same rows as the defeated
    /// (fully materialized) plan, across shard counts and offsets.
    #[test]
    fn mmql_limit_pushdown_equals_materialized_plan(
        rows in prop::collection::vec((0i64..64, 0i64..5), 1..60),
        offset in 0usize..6,
        count in 0usize..20,
    ) {
        for shards in [1usize, 3, 8] {
            let engine = Engine::with_shards(shards);
            engine
                .create_collection(CollectionSchema::key_value("kv"))
                .unwrap();
            engine
                .run(Isolation::Snapshot, |t| {
                    for (k, g) in &rows {
                        t.put("kv", Key::int(*k), obj! {"g" => *g, "k" => *k})?;
                    }
                    Ok(())
                })
                .unwrap();
            let pushed = udbms_query::run(
                &engine,
                Isolation::Snapshot,
                &format!("FOR x IN kv LIMIT {offset}, {count} RETURN x.k"),
            )
            .unwrap();
            // LET between FOR and LIMIT defeats the adjacency rule
            let materialized = udbms_query::run(
                &engine,
                Isolation::Snapshot,
                &format!("FOR x IN kv LET d = 1 LIMIT {offset}, {count} RETURN x.k"),
            )
            .unwrap();
            prop_assert_eq!(&pushed, &materialized, "{} shard(s)", shards);
        }
    }
}

fn social_engine() -> Engine {
    let engine = Engine::new();
    engine
        .create_collection(CollectionSchema::key_value("orders"))
        .unwrap();
    engine
        .run(Isolation::Snapshot, |t| {
            for i in 0..40i64 {
                t.put(
                    "orders",
                    Key::int(i),
                    obj! {"g" => i % 4, "n" => i, "status" => if i % 2 == 0 { "open" } else { "paid" }},
                )?;
            }
            Ok(())
        })
        .unwrap();
    engine
}

/// Compiled filters and interpreter filters agree through full query
/// execution (the compiled text vs a call-wrapped text that defeats
/// compilation).
#[test]
fn compiled_and_interpreted_queries_agree_end_to_end() {
    let engine = social_engine();
    for (fast, slow) in [
        (
            "FOR r IN orders FILTER r.g % 2 == 1 RETURN r.n",
            "FOR r IN orders FILTER TO_NUMBER(r.g) % 2 == 1 RETURN r.n",
        ),
        (
            "FOR r IN orders FILTER r.n * 2 >= 60 AND r.status == \"open\" RETURN r.n",
            "FOR r IN orders FILTER TO_NUMBER(r.n) * 2 >= 60 AND r.status == \"open\" RETURN r.n",
        ),
    ] {
        let a = udbms_query::run(&engine, Isolation::Snapshot, fast).unwrap();
        let b = udbms_query::run(&engine, Isolation::Snapshot, slow).unwrap();
        assert_eq!(a, b, "{fast}");
    }
}

/// The same query through the read lane and through a full transaction
/// returns identical rows.
#[test]
fn read_lane_and_txn_queries_agree() {
    let engine = social_engine();
    let q = Query::parse("FOR r IN orders FILTER r.g == 2 SORT r.n DESC RETURN r.n").unwrap();
    assert!(q.is_read_only());
    let via_txn = engine.run(Isolation::Snapshot, |t| q.execute(t)).unwrap();
    let mut lane = engine.begin_read();
    let via_lane = q.execute(&mut lane).unwrap();
    lane.commit().unwrap();
    assert_eq!(via_txn, via_lane);
    assert!(engine.stats().read_txns >= 1);
    // DML statements are not read-only
    assert!(!Query::parse("REMOVE 1 IN orders").unwrap().is_read_only());
    assert!(!Query::parse("INSERT {a: 1} INTO orders")
        .unwrap()
        .is_read_only());
}

/// Explain reports the new plan decisions.
#[test]
fn explain_reports_compiled_residual_and_limit_pushdown() {
    let q = Query::parse("FOR r IN orders FILTER r.g % 4 == 3 RETURN r.n").unwrap();
    assert!(q.explain().contains("compiled residual"), "{}", q.explain());
    let q = Query::parse("FOR r IN orders FILTER TO_NUMBER(r.g) == 3 RETURN r.n").unwrap();
    assert!(
        !q.explain().contains("compiled residual"),
        "{}",
        q.explain()
    );
    let q = Query::parse("FOR r IN orders LIMIT 3, 7 RETURN r").unwrap();
    assert!(
        q.explain().contains("limit pushdown: 10"),
        "{}",
        q.explain()
    );
    // a SORT in between defeats the adjacency rule
    let q = Query::parse("FOR r IN orders SORT r.n LIMIT 10 RETURN r").unwrap();
    assert!(!q.explain().contains("limit pushdown"), "{}", q.explain());
}

/// Arc sharing is preserved from storage through query execution: two
/// reads of the same record see the same allocation, and a snapshot
/// scan does not deep-copy rows.
#[test]
fn values_stay_shared_through_the_txn_api() {
    let engine = social_engine();
    let mut a = engine.begin_read();
    let mut b = engine.begin_read();
    let va = a.get_shared("orders", &Key::int(7)).unwrap().unwrap();
    let vb = b.get_shared("orders", &Key::int(7)).unwrap().unwrap();
    assert!(Arc::ptr_eq(&va, &vb));
    let scanned = a.scan_shared("orders").unwrap();
    let again = b.scan_shared("orders").unwrap();
    for ((_, x), (_, y)) in scanned.iter().zip(&again) {
        assert!(Arc::ptr_eq(x, y), "scan must not copy stored rows");
    }
}

/// A serializable read notes every record it *examined*, matching or
/// not, and a limit does not shrink that set: deciding from the absence
/// of matches aborts when a non-matching record starts to match
/// (predicate-emptiness write skew). A primary-key equality is a point
/// read — it examines one record, so a change elsewhere does not abort
/// it — and under snapshot isolation the skew goes through.
#[test]
fn serializable_read_notes_examined_records_that_did_not_match() {
    let open = Predicate::eq("status", Value::from("open"));
    let decide = |isolation: Isolation, pred: &Predicate, limit: Option<usize>| {
        let engine = social_engine();
        engine
            .create_collection(CollectionSchema::document("docs", "_id", vec![]))
            .unwrap();
        engine
            .run(Isolation::Snapshot, |t| {
                t.put("docs", Key::int(1), obj! {"_id" => 1, "status" => "paid"})?;
                t.put("docs", Key::int(2), obj! {"_id" => 2, "status" => "paid"})
            })
            .unwrap();
        let mut t = engine.begin(isolation);
        let seen = t.rows("docs", Some(pred), limit).unwrap().len();
        // concurrently, record 2 starts to match `open`
        engine
            .run(Isolation::Snapshot, |w| {
                w.put("docs", Key::int(2), obj! {"_id" => 2, "status" => "open"})
            })
            .unwrap();
        t.put("docs", Key::int(3), obj! {"_id" => 3, "decided" => true})
            .unwrap();
        (seen, t.commit())
    };
    for limit in [None, Some(1), Some(0)] {
        let (seen, commit) = decide(Isolation::Serializable, &open, limit);
        assert_eq!(seen, 0);
        assert!(
            commit.unwrap_err().is_retryable(),
            "record 2 was examined, so its change must abort (limit {limit:?})"
        );
    }
    let (_, commit) = decide(Isolation::Snapshot, &open, None);
    commit.expect("snapshot isolation permits the skew");
    let by_pk = Predicate::eq("_id", Value::Int(1));
    let (seen, commit) = decide(Isolation::Serializable, &by_pk, None);
    assert_eq!(seen, 1);
    commit.expect("a point read examines record 1 only");
}

/// Integers that differ only below `f64` precision are different keys:
/// both survive a transaction and a scan, at shard counts 1, 3 and 8.
#[test]
fn integer_keys_above_2_pow_53_stay_distinct() {
    let (a, b) = (1i64 << 53, (1i64 << 53) + 1);
    for shards in [1usize, 3, 8] {
        let engine = Engine::with_shards(shards);
        engine
            .create_collection(CollectionSchema::key_value("big"))
            .unwrap();
        engine
            .run(Isolation::Snapshot, |t| {
                t.put("big", Key::int(a), Value::Int(a))?;
                t.put("big", Key::int(b), Value::Int(b))
            })
            .unwrap();
        let rows = engine.begin_read().scan_shared("big").unwrap();
        let want = vec![
            (Key::int(a), Arc::new(Value::Int(a))),
            (Key::int(b), Arc::new(Value::Int(b))),
        ];
        assert_eq!(rows, want, "{shards} shard(s)");
    }
}

/// Q1–Q10 through the borrowed evaluator and the accumulator `COLLECT`
/// return what the hand-written polyglot glue returns, on three
/// datasets; Q6's top-10 also in the same order.
#[test]
fn workload_queries_match_the_polyglot_oracle_on_three_seeds() {
    use udbms_datagen::{generate, workload, GenConfig};
    use udbms_driver::{EngineSubject, PolyglotSubject, Subject};

    for seed in [11u64, 12, 13] {
        let data = generate(&GenConfig {
            seed,
            scale_factor: 0.05,
            ..Default::default()
        });
        let (engine, oracle) = (EngineSubject::new(), PolyglotSubject::new());
        engine.load(&data).unwrap();
        oracle.load(&data).unwrap();
        for q in workload::queries() {
            let (fast, slow) = (engine.prepare(&q).unwrap(), oracle.prepare(&q).unwrap());
            for draw in 0..4 {
                let params = workload::QueryParams::draw(&data, draw).bindings();
                let mut got = engine.execute(&fast, &params).unwrap();
                let mut want = oracle.execute(&slow, &params).unwrap();
                if q.id != "Q6" {
                    got.sort();
                    want.sort();
                }
                assert_eq!(got, want, "{} seed {seed} draw {draw}", q.id);
            }
        }
    }
}

/// `RETURN DISTINCT` keeps first occurrences in arrival order, however
/// many rows there are.
#[test]
fn return_distinct_over_ten_thousand_rows() {
    let engine = Engine::new();
    let got = udbms_query::run(
        &engine,
        Isolation::Snapshot,
        "FOR x IN RANGE(1, 10000) RETURN DISTINCT x % 100",
    )
    .unwrap();
    let want: Vec<Value> = (1..100).chain([0]).map(Value::Int).collect();
    assert_eq!(got, want);
}

/// The driver's plan cache and read lane surface through `counters()`.
#[test]
fn driver_counters_report_plan_cache_and_read_lane() {
    use udbms_datagen::{generate, workload, GenConfig};
    use udbms_driver::{EngineSubject, Subject};

    let data = generate(&GenConfig {
        scale_factor: 0.01,
        ..Default::default()
    });
    let subject = EngineSubject::new();
    subject.load(&data).unwrap();
    let q1 = workload::queries()[0];
    let params = workload::QueryParams::draw(&data, 1).bindings();
    // prepare the same text thrice: one miss, two hits
    let prepared = subject.prepare(&q1).unwrap();
    subject.prepare(&q1).unwrap();
    subject.prepare(&q1).unwrap();
    for _ in 0..4 {
        subject.execute(&prepared, &params).unwrap();
    }
    let counters: std::collections::HashMap<String, i64> = subject.counters().into_iter().collect();
    assert_eq!(counters["plan_misses"], 1, "{counters:?}");
    assert_eq!(counters["plan_hits"], 2, "{counters:?}");
    assert_eq!(
        counters["read_lane"], 4,
        "Q1 is read-only and must ride the lane: {counters:?}"
    );
    assert_eq!(subject.plan_cache().len(), 1);
}

/// Bound parameters keep working through the cached-plan path.
#[test]
fn plan_cache_serves_bindable_plans() {
    let engine = social_engine();
    let cache = udbms_query::PlanCache::default();
    let plan = cache
        .get_or_parse("FOR r IN orders FILTER r.g == @g RETURN r.n")
        .unwrap();
    let again = cache
        .get_or_parse("FOR r IN orders FILTER r.g == @g RETURN r.n")
        .unwrap();
    assert!(Arc::ptr_eq(&plan, &again));
    for g in 0..4i64 {
        let bound = plan.bind(&Params::new().with("g", g)).unwrap();
        let mut lane = engine.begin_read();
        let rows = bound.execute(&mut lane).unwrap();
        lane.commit().unwrap();
        assert_eq!(rows.len(), 10, "g={g}");
    }
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
}
