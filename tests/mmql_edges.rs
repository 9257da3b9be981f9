//! MMQL edge cases across crates: scoping, pushdown correctness under
//! mutation, COLLECT corner shapes, traversal bounds — the behaviours a
//! second implementation would most likely get subtly wrong.

use udbms::core::{obj, CollectionSchema, FieldPath, IndexKind, Key, Value};
use udbms::engine::{Engine, Isolation};

fn engine() -> Engine {
    let e = Engine::new();
    e.create_collection(CollectionSchema::document("t", "_id", vec![]))
        .unwrap();
    e.create_graph("g").unwrap();
    e.run(Isolation::Snapshot, |txn| {
        for i in 1..=6 {
            txn.insert("t", obj! {"_id" => i, "v" => i, "grp" => i % 2})?;
        }
        for i in 1..=4 {
            txn.add_vertex("g", Key::int(i), "n", obj! {"n" => i})?;
        }
        txn.add_edge("g", &Key::int(1), &Key::int(2), "e", Value::Null)?;
        txn.add_edge("g", &Key::int(2), &Key::int(3), "e", Value::Null)?;
        txn.add_edge("g", &Key::int(3), &Key::int(1), "e", Value::Null)?; // cycle
        txn.add_edge("g", &Key::int(3), &Key::int(4), "e", Value::Null)?;
        Ok(())
    })
    .unwrap();
    e
}

fn q(e: &Engine, text: &str) -> Vec<Value> {
    udbms::query::run(e, Isolation::Snapshot, text).unwrap()
}

#[test]
fn variable_shadowing_in_nested_for() {
    let e = engine();
    // inner `x` shadows outer `x`; outer scope restored for RETURN of outer
    let out = q(
        &e,
        "FOR x IN [1, 2] LET inner = (FOR x IN [10, 20] RETURN x) RETURN {x, inner}",
    );
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].get_field("x"), &Value::Int(1));
    assert_eq!(out[0].get_dotted("inner[1]").unwrap(), &Value::Int(20));
}

#[test]
fn let_bound_array_iterated_by_name_not_collection() {
    let e = engine();
    // `t` is also a collection name; the LET binding must win
    let out = q(&e, "LET t = [100] FOR row IN t RETURN row");
    assert_eq!(out, vec![Value::Int(100)]);
    // without the binding, the collection is iterated
    let out = q(&e, "FOR row IN t COLLECT AGGREGATE n = COUNT() RETURN n");
    assert_eq!(out, vec![Value::Int(6)]);
}

#[test]
fn collect_without_groups_and_empty_inputs() {
    let e = engine();
    let out = q(
        &e,
        "FOR x IN t FILTER x.v > 100 COLLECT AGGREGATE n = COUNT() RETURN n",
    );
    // no input rows ⇒ no groups ⇒ no output rows (AQL semantics)
    assert_eq!(out, Vec::<Value>::new());
    let out = q(
        &e,
        "FOR x IN t COLLECT g = x.grp AGGREGATE n = COUNT() SORT g RETURN {g, n}",
    );
    assert_eq!(
        out,
        vec![obj! {"g" => 0, "n" => 3}, obj! {"g" => 1, "n" => 3}]
    );
}

#[test]
fn traversal_cycles_and_bounds() {
    let e = engine();
    // BFS never revisits: the 1→2→3→1 cycle terminates
    let out = q(&e, "FOR v IN 1..10 OUTBOUND 1 GRAPH g RETURN v.n");
    assert_eq!(out, vec![Value::Int(2), Value::Int(3), Value::Int(4)]);
    // zero-hop traversal yields only the start
    let out = q(&e, "FOR v IN 0..0 OUTBOUND 1 GRAPH g RETURN v.n");
    assert_eq!(out, vec![Value::Int(1)]);
    // unknown start vertex yields nothing (layer 0 vertex lookup is Null-safe)
    let out = q(&e, "FOR v IN 1..2 OUTBOUND 99 GRAPH g RETURN v");
    assert_eq!(out, Vec::<Value>::new());
}

#[test]
fn pushdown_agrees_with_residual_on_updates_in_txn() {
    let e = engine();
    e.create_index("t", FieldPath::key("v"), IndexKind::BTree)
        .unwrap();
    // inside one transaction: update a row, then query — the pushed
    // predicate must see the uncommitted write exactly like a scan would
    e.run(Isolation::Snapshot, |txn| {
        txn.merge("t", &Key::int(1), obj! {"v" => 100})?;
        let query = udbms::query::Query::parse("FOR x IN t FILTER x.v >= 100 RETURN x._id")?;
        let out = query.execute(txn)?;
        assert_eq!(
            out,
            vec![Value::Int(1)],
            "own write visible through index path"
        );
        let scan_query =
            udbms::query::Query::parse("FOR x IN t FILTER TO_NUMBER(x.v) >= 100 RETURN x._id")?;
        assert_eq!(scan_query.execute(txn)?, out, "pushdown == residual scan");
        Ok(())
    })
    .unwrap();
}

#[test]
fn dynamic_pushdown_handles_null_join_keys() {
    let e = engine();
    // an index on the probed path must NOT change null-equality results
    // (nulls are unindexed; the engine must fall back to scanning)
    e.create_index("t", FieldPath::key("v"), IndexKind::Hash)
        .unwrap();
    e.run(Isolation::Snapshot, |txn| {
        txn.insert("t", obj! {"_id" => 7, "v" => Value::Null})?;
        Ok(())
    })
    .unwrap();
    // o.v == x.v with x.v == null must match only null rows (canonical
    // equality), identically with and without pushdown
    let pushed = q(
        &e,
        "FOR x IN t FILTER x._id == 7 FOR y IN t FILTER y.v == x.v RETURN y._id",
    );
    let scanned = q(
        &e,
        "FOR x IN t FILTER x._id == 7 FOR y IN t FILTER TO_STRING(y.v) == TO_STRING(x.v) AND y.v == x.v RETURN y._id",
    );
    assert_eq!(pushed, scanned);
    assert_eq!(pushed, vec![Value::Int(7)]);
}

#[test]
fn btree_answers_equal_scan_answers_on_missing_null_and_array_fields() {
    // `n` is 3, 9, missing, null, [1] and "7": a missing or null field
    // sorts below every value and is never posted, an array compares
    // (and is posted) whole
    let e = Engine::new();
    e.create_collection(CollectionSchema::document("docs", "_id", vec![]))
        .unwrap();
    e.run(Isolation::Snapshot, |txn| {
        txn.insert("docs", obj! {"_id" => 1, "n" => 3})?;
        txn.insert("docs", obj! {"_id" => 2, "n" => 9})?;
        txn.insert("docs", obj! {"_id" => 3})?;
        txn.insert("docs", obj! {"_id" => 4, "n" => Value::Null})?;
        txn.insert("docs", obj! {"_id" => 5, "n" => udbms::core::arr![1]})?;
        txn.insert("docs", obj! {"_id" => 6, "n" => "7"})?;
        Ok(())
    })
    .unwrap();
    let cases = [
        ("r.n < 5", vec![1, 3, 4]),
        ("r.n > 5", vec![2, 5, 6]),
        (r#"r.n < "a""#, vec![1, 2, 3, 4, 6]),
        ("r.n >= 9 AND r.n <= 1", vec![]),
        ("r.n == [1]", vec![5]),
    ];
    let ids = |e: &Engine, text: String| -> Vec<i64> {
        q(e, &text).iter().map(|v| v.as_int().unwrap()).collect()
    };
    for indexed in [false, true] {
        if indexed {
            e.create_index("docs", FieldPath::key("n"), IndexKind::BTree)
                .unwrap();
        }
        for (filter, want) in &cases {
            let pushed = ids(&e, format!("FOR r IN docs FILTER {filter} RETURN r._id"));
            assert_eq!(&pushed, want, "{filter}, indexed: {indexed}");
            // a LET-bound condition is not pushed down: the residual scan
            let kept = format!("FOR r IN docs LET keep = ({filter}) FILTER keep RETURN r._id");
            assert_eq!(
                &ids(&e, kept),
                want,
                "{filter} unpushed, indexed: {indexed}"
            );
        }
    }
}

#[test]
fn limit_offset_beyond_end_and_distinct_on_objects() {
    let e = engine();
    assert_eq!(
        q(&e, "FOR x IN t LIMIT 100, 5 RETURN x"),
        Vec::<Value>::new()
    );
    assert_eq!(q(&e, "FOR x IN t LIMIT 4, 100 RETURN x._id").len(), 2);
    let out = q(&e, "FOR x IN t RETURN DISTINCT {g: x.grp}");
    assert_eq!(out.len(), 2, "distinct works on constructed objects");
}

#[test]
fn dml_respects_transaction_boundaries() {
    let e = engine();
    // an aborted transaction's DML never lands
    let mut txn = e.begin(Isolation::Snapshot);
    let ins = udbms::query::Query::parse("INSERT {_id: 99, v: 99} INTO t").unwrap();
    ins.execute(&mut txn).unwrap();
    txn.abort();
    assert_eq!(
        q(&e, "FOR x IN t FILTER x._id == 99 RETURN x"),
        Vec::<Value>::new()
    );
    // remove of a missing key reports false, inside the same semantics
    let out = udbms::query::run(&e, Isolation::Snapshot, "REMOVE 1234 IN t").unwrap();
    assert_eq!(out, vec![Value::Bool(false)]);
}

#[test]
fn sort_is_canonical_across_types() {
    let e = engine();
    let out = q(
        &e,
        r#"FOR x IN [true, "z", 3, NULL, 1.5, [1]] SORT x RETURN x"#,
    );
    assert_eq!(
        out,
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
            Value::Int(3),
            Value::from("z"),
            Value::Array(vec![Value::Int(1)]),
        ]
    );
}

/// A `LIMIT` offset or count at `usize::MAX` neither panics nor sizes an
/// allocation, wherever the window is kept: by the scan, by the plain
/// `SORT`, by a `COLLECT` that took a `SORT` on its names, and by the
/// `SORT` on an expression after a `COLLECT`. The text cannot spell
/// such a count — the lexer refuses an integer past `i64` — so the
/// clause is built.
#[test]
fn huge_limits_neither_panic_nor_reserve() {
    use udbms::query::{execute, parse, Clause, QueryBody, Statement};
    let e = engine();
    let err = parse("FOR x IN t SORT x.v LIMIT 18446744073709551615 RETURN x").unwrap_err();
    assert!(err.to_string().contains("integer overflow"), "{err}");
    let run = |text: &str, offset: usize, count: usize| {
        let Statement::Query(body) = parse(text).unwrap() else {
            panic!("{text}")
        };
        let mut clauses = body.clauses;
        let last = clauses.last_mut().unwrap();
        assert!(matches!(last, Clause::Limit { .. }), "{text}");
        *last = Clause::Limit { offset, count };
        let stmt = Statement::Query(QueryBody::new(clauses, body.distinct, body.ret));
        execute(&stmt, &mut e.begin_read()).unwrap()
    };
    let ints = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
    let max = usize::MAX;
    for (text, all) in [
        ("FOR x IN t LIMIT 1 RETURN x.v", ints(&[1, 2, 3, 4, 5, 6])),
        (
            "FOR x IN t SORT x.v DESC LIMIT 1 RETURN x.v",
            ints(&[6, 5, 4, 3, 2, 1]),
        ),
        (
            "FOR x IN t COLLECT g = x.grp AGGREGATE s = SUM(x.v) SORT s DESC LIMIT 1 RETURN s",
            ints(&[12, 9]),
        ),
        (
            "FOR x IN t COLLECT g = x.grp AGGREGATE s = SUM(x.v) SORT s * 1 DESC LIMIT 1 RETURN s",
            ints(&[12, 9]),
        ),
    ] {
        assert_eq!(run(text, 0, max), all, "{text}");
        assert_eq!(run(text, 1, max), all[1..], "{text}");
        assert_eq!(run(text, max, 1), [], "{text}");
        assert_eq!(run(text, max, max), [], "{text}");
    }
}

/// A `SORT` that a `COLLECT` runs on its own names reads what the name
/// is bound to afterwards: of a name bound twice, the later binding.
#[test]
fn collect_sort_reads_the_innermost_binding() {
    let e = engine();
    for sort in ["a", "a + 0"] {
        let text = format!(
            "FOR x IN t COLLECT a = x.grp AGGREGATE a = SUM(x.v) SORT {sort} LIMIT 1 RETURN a"
        );
        assert_eq!(q(&e, &text), vec![Value::Int(9)], "{text}");
    }
}

/// A chain of `n` operators (`a + b + c`, `a AND b AND c`) is one flat
/// node evaluated left to right. Parsing, cloning, comparing, printing,
/// explaining, binding, executing and dropping one must not cost stack
/// in proportion: on a 2 MB thread a debug build of the nested form
/// overflowed at 1 000 operators (release at 4 000) in `execute`, and
/// its derived `==` and `Debug` at a few thousand.
#[test]
fn flat_operator_chains_cost_no_stack() {
    use udbms::core::Params;
    use udbms::query::Query;

    fn run_all(e: &Engine, text: &str) -> Vec<Value> {
        let parsed = Query::parse(text).unwrap();
        let copy = parsed.clone();
        assert!(copy == parsed);
        assert!(!format!("{copy:?}").is_empty());
        assert!(!parsed.explain().is_empty());
        let bound = parsed.bind(&Params::new().with("one", 1)).unwrap();
        let mut t = e.begin_read();
        bound.execute(&mut t).unwrap()
        // the queries are dropped here
    }
    let walk = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
        let e = engine();
        // left associative, with short-circuit across the levels
        for (text, want) in [
            ("100 - 10 - 1", Value::Int(89)),
            ("64 / 4 / 2", Value::Float(8.0)),
            ("7 % 4 * 3", Value::Int(9)),
            ("false AND (1/0 == 1) OR true", Value::Bool(true)),
        ] {
            assert_eq!(run_all(&e, &format!("RETURN {text}")), vec![want], "{text}");
        }
        // the deepest nesting the parser takes, a chain on every level
        let mut nested = String::from("@one");
        for _ in 0..127 {
            nested = format!("({nested}){}", " + @one".repeat(9));
        }
        let text = format!("RETURN {nested}");
        assert_eq!(run_all(&e, &text), vec![Value::Int(1 + 127 * 9)]);
        for n in [7usize, 8, 9, 10, 1_000, 4_000, 100_000] {
            let ret = |first: &str, link: &str| format!("RETURN {first}{}", link.repeat(n));
            let cases = [
                (ret("0", " + @one"), Value::Int(n as i64)),
                (ret("1", " - 1 + 1"), Value::Int(1)),
                (ret("true", " AND true"), Value::Bool(true)),
                (ret("true", " AND true") + " AND false", Value::Bool(false)),
                (ret("false", " OR false") + " OR true", Value::Bool(true)),
                (ret("false", " OR false AND true"), Value::Bool(false)),
                (ret("\"\"", " + \"ab\""), Value::from("ab".repeat(n))),
            ];
            for (text, want) in cases {
                assert_eq!(run_all(&e, &text), vec![want], "{n}: {:.40}…", text);
            }
            // a filter that is one long chain: `OR`s stay a residual the
            // executor compiles, `AND`s split into pushed conjuncts
            let filter =
                |link: &str| format!("FOR r IN t FILTER r.v == 2{} RETURN r.v", link.repeat(n));
            assert_eq!(
                run_all(&e, &filter(" OR r.v == 4 + @one")),
                vec![Value::Int(2), Value::Int(5)],
                "{n} ORs"
            );
            assert_eq!(
                run_all(&e, &filter(" AND r.grp + @one == 1")),
                vec![Value::Int(2)],
                "{n} ANDs"
            );
        }
    });
    walk.unwrap().join().unwrap();
}
