#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! # udbms-query
//!
//! **MMQL** — the unified multi-model query language of UDBMS-Bench.
//!
//! The paper observes that "there is no standard multi-model query
//! language available now"; the benchmark therefore ships its own compact
//! one so the same query text runs against any conforming engine. MMQL is
//! AQL-flavoured: a pipeline of clauses ending in `RETURN`.
//!
//! ```text
//! FOR c IN customers
//!   FILTER c.country == "FI" AND c.score > 3        // pushed into indexes
//!   LET orders = (FOR o IN orders
//!                   FILTER o.customer == c.id RETURN o)
//!   SORT c.name
//!   LIMIT 10
//!   RETURN { name: c.name, spent: SUM(orders[*]...) }
//! ```
//!
//! Model-spanning constructs:
//! * graph traversals: `FOR v IN 1..3 OUTBOUND 42 GRAPH social LABEL "knows"`
//! * XML: `XPATH(DOCUMENT("invoices", key), "/Invoice/Total/text()")`
//! * any-model point reads: `DOCUMENT(collection, key)`
//! * grouping: `COLLECT g = expr AGGREGATE s = SUM(expr) INTO members`
//! * DML inside cross-model transactions: `INSERT … INTO c`,
//!   `UPDATE k WITH {…} IN c`, `REMOVE k IN c`
//!
//! Use [`Query::parse`] + [`Query::execute`] inside an explicit
//! transaction, or [`run`] for one-shot execution with automatic retry.
//!
//! Queries may reference **bind parameters** (`@customer`, `@price_lo`):
//! parse once, then [`Query::bind`] or [`Query::execute_with`] per
//! parameter draw. Binding substitutes literals before planning, so a
//! parameterized filter uses indexes exactly like an inline constant.
//!
//! Read-path machinery (see DESIGN.md "Read path"): expressions
//! evaluate borrowed (a member path never copies the document under
//! it; [`eval`] is the owned wrapper), `COLLECT` folds rows into
//! per-group accumulators, each body is planned once, row-local filters
//! compile into [`CompiledPred`] closure trees evaluated against
//! borrowed `Arc`-shared rows, `LIMIT` adjacency pushes bounds into the
//! engine's streaming scans, [`PlanCache`] is a text-keyed LRU over
//! parsed statements, and
//! [`Query::is_read_only`] lets drivers route query statements through
//! the engine's lock-free read lane.

mod ast;
mod bind;
mod cache;
mod compile;
mod eval;
mod exec;
mod group;
mod lexer;
mod parser;

pub use ast::{AggFunc, BinOp, Clause, Expr, MemberStep, QueryBody, Source, Statement, UnOp};
pub use bind::{bind_statement, check_extra_params, statement_params};
pub use cache::{PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
pub use compile::CompiledPred;
pub use eval::{eval, eval_const, Env};
pub use exec::{execute, explain};
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse;

use udbms_core::{Params, Result, Value};
use udbms_engine::{Engine, Isolation, Txn};

/// A parsed MMQL statement, ready for repeated execution.
///
/// ```
/// use udbms_core::{obj, CollectionSchema, Value};
/// use udbms_engine::{Engine, Isolation};
///
/// let engine = Engine::new();
/// engine.create_collection(CollectionSchema::document("orders", "_id", vec![]))?;
/// engine.run(Isolation::Snapshot, |t| {
///     t.insert("orders", obj! {"_id" => "O-1", "total" => 12.0})?;
///     t.insert("orders", obj! {"_id" => "O-2", "total" => 30.0})?;
///     Ok(())
/// })?;
///
/// let rows = udbms_query::run(
///     &engine,
///     Isolation::Snapshot,
///     "FOR o IN orders FILTER o.total > 20 RETURN o._id",
/// )?;
/// assert_eq!(rows, vec![Value::from("O-2")]);
/// # udbms_core::Result::Ok(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    stmt: Statement,
    text: String,
}

impl Query {
    /// Parse MMQL text.
    pub fn parse(text: &str) -> Result<Query> {
        Ok(Query {
            stmt: parser::parse(text)?,
            text: text.to_string(),
        })
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// Whether this statement provably performs no writes: query
    /// pipelines (`FOR … RETURN`) cannot contain DML — `INSERT`,
    /// `UPDATE` and `REMOVE` are top-level statements only — so a
    /// `Statement::Query` is read-only by construction. Drivers use
    /// this proof to route execution through the engine's read lane
    /// ([`udbms_engine::Engine::begin_read`]), which skips the commit
    /// lock, OCC tracking and the WAL entirely.
    pub fn is_read_only(&self) -> bool {
        matches!(self.stmt, Statement::Query(_))
    }

    /// Execute inside an open transaction.
    pub fn execute(&self, txn: &mut Txn) -> Result<Vec<Value>> {
        exec::execute(&self.stmt, txn)
    }

    /// The distinct `@name` parameters this query references, in first
    /// appearance order.
    pub fn parameters(&self) -> Vec<String> {
        bind::statement_params(&self.stmt)
    }

    /// Resolve every `@name` against `params`, yielding an executable
    /// query whose plan (including index pushdown) is identical to one
    /// written with inline constants. Missing parameters error with the
    /// `@`'s source position; unused entries in `params` are permitted —
    /// see [`check_extra_params`] for the strict check.
    pub fn bind(&self, params: &Params) -> Result<Query> {
        Ok(Query {
            stmt: bind::bind_statement(&self.stmt, params)?,
            text: self.text.clone(),
        })
    }

    /// Parse-once/execute-many entry point: bind `params` and execute
    /// inside an open transaction.
    pub fn execute_with(&self, txn: &mut Txn, params: &Params) -> Result<Vec<Value>> {
        if params.is_empty() && self.parameters().is_empty() {
            return exec::execute(&self.stmt, txn);
        }
        let bound = bind::bind_statement(&self.stmt, params)?;
        exec::execute(&bound, txn)
    }

    /// A human-readable plan sketch (pushdown decisions, clause order).
    pub fn explain(&self) -> String {
        exec::explain(&self.stmt)
    }
}

/// One-shot: parse and execute in a fresh transaction with automatic
/// conflict retry.
pub fn run(engine: &Engine, isolation: Isolation, text: &str) -> Result<Vec<Value>> {
    let query = Query::parse(text)?;
    engine.run(isolation, |txn| query.execute(txn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{arr, obj, CollectionSchema, FieldDef, FieldType, Key};
    use udbms_relational::IndexKind;

    /// A miniature social-commerce engine: the paper's Figure-1 shape.
    fn engine() -> Engine {
        let e = Engine::new();
        e.create_collection(CollectionSchema::relational(
            "customers",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("name", FieldType::Str),
                FieldDef::required("country", FieldType::Str),
            ],
        ))
        .unwrap();
        e.create_collection(CollectionSchema::document("orders", "_id", vec![]))
            .unwrap();
        e.create_collection(CollectionSchema::key_value("feedback"))
            .unwrap();
        e.create_collection(CollectionSchema::xml("invoices"))
            .unwrap();
        e.create_graph("social").unwrap();
        e.create_index(
            "orders",
            udbms_core::FieldPath::key("customer"),
            IndexKind::Hash,
        )
        .unwrap();

        e.run(Isolation::Snapshot, |t| {
            for (id, name, country) in [
                (1, "Ada", "FI"),
                (2, "Bob", "SE"),
                (3, "Eve", "FI"),
                (4, "Mallory", "NO"),
            ] {
                t.insert(
                    "customers",
                    obj! {"id" => id, "name" => name, "country" => country},
                )?;
            }
            for (oid, cust, total, status) in [
                ("o1", 1, 25.0, "paid"),
                ("o2", 1, 10.0, "open"),
                ("o3", 2, 5.0, "paid"),
                ("o4", 3, 50.0, "open"),
            ] {
                t.insert(
                    "orders",
                    obj! {"_id" => oid, "customer" => cust, "total" => total, "status" => status},
                )?;
            }
            t.put(
                "feedback",
                Key::str("fb:o1"),
                obj! {"order" => "o1", "rating" => 5},
            )?;
            t.put_xml(
                "invoices",
                Key::str("inv:o1"),
                r#"<Invoice order="o1"><Total currency="EUR">25.00</Total></Invoice>"#,
            )?;
            for id in 1..=4 {
                t.add_vertex("social", Key::int(id), "customer", obj! {"cid" => id})?;
            }
            t.add_edge("social", &Key::int(1), &Key::int(2), "knows", Value::Null)?;
            t.add_edge("social", &Key::int(2), &Key::int(3), "knows", Value::Null)?;
            t.add_edge("social", &Key::int(1), &Key::int(4), "blocks", Value::Null)?;
            Ok(())
        })
        .unwrap();
        e
    }

    fn q(e: &Engine, text: &str) -> Vec<Value> {
        run(e, Isolation::Snapshot, text).unwrap_or_else(|err| panic!("{text}: {err}"))
    }

    #[test]
    fn filter_sort_project() {
        let e = engine();
        let out = q(
            &e,
            r#"FOR c IN customers FILTER c.country == "FI" SORT c.name DESC RETURN c.name"#,
        );
        assert_eq!(out, vec![Value::from("Eve"), Value::from("Ada")]);
    }

    #[test]
    fn pushdown_equals_scan_semantics() {
        let e = engine();
        let pushed = q(&e, r#"FOR o IN orders FILTER o.customer == 1 RETURN o._id"#);
        // defeat pushdown with a function call wrapper
        let scanned = q(
            &e,
            r#"FOR o IN orders FILTER TO_NUMBER(o.customer) == 1 RETURN o._id"#,
        );
        assert_eq!(pushed, scanned);
        assert_eq!(pushed.len(), 2);
    }

    #[test]
    fn cross_model_join_relational_document() {
        let e = engine();
        let out = q(
            &e,
            r#"FOR c IN customers
                 FILTER c.country == "FI"
                 FOR o IN orders
                   FILTER o.customer == c.id AND o.status == "open"
                 RETURN { name: c.name, total: o.total }"#,
        );
        assert_eq!(out.len(), 2);
        assert!(out.contains(&obj! {"name" => "Ada", "total" => 10.0}));
        assert!(out.contains(&obj! {"name" => "Eve", "total" => 50.0}));
    }

    #[test]
    fn subquery_with_let() {
        let e = engine();
        let out = q(
            &e,
            r#"FOR c IN customers
                 LET spent = SUM((FOR o IN orders FILTER o.customer == c.id RETURN o.total))
                 FILTER spent > 20
                 SORT spent DESC
                 RETURN { name: c.name, spent }"#,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], obj! {"name" => "Eve", "spent" => 50.0});
        assert_eq!(out[1], obj! {"name" => "Ada", "spent" => 35.0});
    }

    #[test]
    fn graph_traversal_source() {
        let e = engine();
        let out = q(
            &e,
            r#"FOR v IN 1..2 OUTBOUND 1 GRAPH social LABEL "knows" RETURN v.cid"#,
        );
        assert_eq!(out, vec![Value::Int(2), Value::Int(3)]);
        // min 0 includes the start vertex
        let out = q(
            &e,
            r#"FOR v IN 0..1 OUTBOUND 1 GRAPH social LABEL "knows" RETURN v._key"#,
        );
        assert_eq!(out, vec![Value::Int(1), Value::Int(2)]);
        // unlabelled traversal crosses both edge kinds
        let out = q(&e, r#"FOR v IN 1..1 OUTBOUND 1 GRAPH social RETURN v.cid"#);
        assert_eq!(out, vec![Value::Int(2), Value::Int(4)]);
        // an exact-depth frontier three hops out, across edge labels
        e.run(Isolation::Snapshot, |t| {
            t.add_vertex("social", Key::int(5), "customer", obj! {"cid" => 5})?;
            t.add_edge("social", &Key::int(3), &Key::int(5), "follows", Value::Null)
        })
        .unwrap();
        let out = q(&e, r#"FOR v IN 3..3 OUTBOUND 1 GRAPH social RETURN v.cid"#);
        assert_eq!(out, vec![Value::Int(5)]);
        let out = q(
            &e,
            r#"FOR v IN 3..3 OUTBOUND 1 GRAPH social LABEL "knows" RETURN v.cid"#,
        );
        assert!(out.is_empty(), "the third hop is a `follows` edge");
    }

    #[test]
    fn friends_orders_cross_model() {
        let e = engine();
        // the paper-style Q: orders of friends-of-friends of customer 1
        let out = q(
            &e,
            r#"FOR v IN 1..2 OUTBOUND 1 GRAPH social LABEL "knows"
                 FOR o IN orders FILTER o.customer == v.cid
                 RETURN { friend: v.cid, order: o._id }"#,
        );
        assert_eq!(out.len(), 2, "bob has o3, eve has o4");
    }

    #[test]
    fn xml_and_kv_functions_in_queries() {
        let e = engine();
        let out = q(
            &e,
            r#"FOR o IN orders FILTER o._id == "o1"
                 LET inv = DOCUMENT("invoices", CONCAT("inv:", o._id))
                 LET fb = DOCUMENT("feedback", CONCAT("fb:", o._id))
                 RETURN {
                   order: o._id,
                   invoiced: XPATH_FIRST(inv, "/Invoice/Total/text()"),
                   rating: fb.rating
                 }"#,
        );
        assert_eq!(
            out,
            vec![obj! {"order" => "o1", "invoiced" => "25.00", "rating" => 5}]
        );
    }

    #[test]
    fn collect_aggregate_into() {
        let e = engine();
        let out = q(
            &e,
            r#"FOR o IN orders
                 COLLECT status = o.status
                 AGGREGATE total = SUM(o.total), n = COUNT()
                 RETURN { status, total, n }"#,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], obj! {"status" => "open", "total" => 60.0, "n" => 2});
        assert_eq!(out[1], obj! {"status" => "paid", "total" => 30.0, "n" => 2});

        let grouped = q(
            &e,
            r#"FOR o IN orders
                 COLLECT status = o.status INTO members
                 RETURN { status, ids: (FOR m IN members RETURN m.o._id) }"#,
        );
        assert_eq!(grouped[0].get_field("ids"), &arr!["o2", "o4"]);
    }

    #[test]
    fn distinct_and_limit() {
        let e = engine();
        let countries = q(
            &e,
            "FOR c IN customers SORT c.country RETURN DISTINCT c.country",
        );
        assert_eq!(
            countries,
            vec![Value::from("FI"), Value::from("NO"), Value::from("SE")]
        );
        let limited = q(&e, "FOR c IN customers SORT c.id LIMIT 1, 2 RETURN c.id");
        assert_eq!(limited, vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn for_over_expression_arrays() {
        let e = engine();
        let out = q(&e, "FOR x IN [1, 2, 3] FILTER x % 2 == 1 RETURN x * 10");
        assert_eq!(out, vec![Value::Int(10), Value::Int(30)]);
        let out = q(&e, "FOR x IN RANGE(1, 3) RETURN x");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn dml_in_transactions() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            let ins = Query::parse(
                r#"INSERT {_id: "o9", customer: 4, total: 1.0, status: "open"} INTO orders"#,
            )
            .unwrap();
            assert_eq!(ins.execute(t).unwrap(), vec![Value::from("o9")]);
            let upd = Query::parse(r#"UPDATE "o9" WITH {status: "paid"} IN orders"#).unwrap();
            assert_eq!(upd.execute(t).unwrap(), vec![Value::Bool(true)]);
            Ok(())
        })
        .unwrap();
        let out = q(
            &e,
            r#"FOR o IN orders FILTER o._id == "o9" RETURN o.status"#,
        );
        assert_eq!(out, vec![Value::from("paid")]);
        let removed = run(&e, Isolation::Snapshot, r#"REMOVE "o9" IN orders"#).unwrap();
        assert_eq!(removed, vec![Value::Bool(true)]);
        assert!(q(&e, r#"FOR o IN orders FILTER o._id == "o9" RETURN o"#).is_empty());
    }

    #[test]
    fn queries_see_transaction_writes() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.insert(
                "orders",
                obj! {"_id" => "tmp", "customer" => 1, "total" => 9.0, "status" => "open"},
            )?;
            let query =
                Query::parse(r#"FOR o IN orders FILTER o.customer == 1 RETURN o._id"#).unwrap();
            let out = query.execute(t).unwrap();
            assert_eq!(out.len(), 3, "uncommitted insert visible to own query");
            t.delete("orders", &Key::str("tmp"))?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn errors_propagate_with_positions() {
        let e = engine();
        assert!(run(&e, Isolation::Snapshot, "FOR x IN").is_err());
        assert!(run(&e, Isolation::Snapshot, "FOR x IN missing_coll RETURN x").is_err());
        assert!(run(&e, Isolation::Snapshot, "RETURN undefined_var").is_err());
        assert!(
            run(&e, Isolation::Snapshot, "FOR x IN 5 RETURN x").is_err(),
            "scalar source"
        );
    }

    #[test]
    fn bound_params_match_inline_constants() {
        let e = engine();
        let inline = q(&e, r#"FOR o IN orders FILTER o.customer == 1 RETURN o._id"#);
        let parsed =
            Query::parse(r#"FOR o IN orders FILTER o.customer == @customer RETURN o._id"#).unwrap();
        assert_eq!(parsed.parameters(), vec!["customer"]);
        let params = udbms_core::Params::new().with("customer", 1);
        let bound = e
            .run(Isolation::Snapshot, |t| parsed.execute_with(t, &params))
            .unwrap();
        assert_eq!(inline, bound);
        // parse-once/execute-many: a second draw reuses the parse
        let params2 = udbms_core::Params::new().with("customer", 2);
        let bound2 = e
            .run(Isolation::Snapshot, |t| parsed.execute_with(t, &params2))
            .unwrap();
        assert_eq!(bound2, vec![Value::from("o3")]);
    }

    #[test]
    fn bound_query_explains_with_pushdown() {
        let parsed =
            Query::parse(r#"FOR o IN orders FILTER o.customer == @customer RETURN o._id"#).unwrap();
        let bound = parsed
            .bind(&udbms_core::Params::new().with("customer", 1))
            .unwrap();
        assert!(bound.explain().contains("pushdown"), "{}", bound.explain());
    }

    #[test]
    fn unbound_and_missing_params_error() {
        let e = engine();
        // executing an unbound parameterized query is an error
        assert!(run(&e, Isolation::Snapshot, "RETURN @missing").is_err());
        // binding without the value names the parameter and its position
        let parsed = Query::parse("RETURN @missing").unwrap();
        let err = parsed
            .bind(&udbms_core::Params::new())
            .unwrap_err()
            .to_string();
        assert!(err.contains("@missing"), "{err}");
    }

    #[test]
    fn explain_is_stable() {
        let query = Query::parse(r#"FOR c IN customers FILTER c.country == "FI" LIMIT 5 RETURN c"#)
            .unwrap();
        let plan = query.explain();
        assert!(plan.contains("pushdown"));
        assert!(query.text().contains("customers"));
    }
}
