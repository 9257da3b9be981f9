//! History-query usability analysis.
//!
//! The paper: "The change of schema can affect the usability of history
//! queries." This module takes a query workload (MMQL) and an evolution
//! chain and classifies every query as **valid** (runs unchanged),
//! **adaptable** (mechanically rewritable via the chain's path mappings —
//! and this module performs that rewrite), or **broken** (touches paths
//! the chain destroyed).

use std::collections::{BTreeSet, HashMap};

use udbms_core::{FieldPath, Value};
use udbms_query::{Clause, Expr, MemberStep, QueryBody, Source, Statement};

use crate::ops::{EvolutionOp, PathOutcome};

/// Fate of one historical query under an evolution chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryFate {
    /// Runs unchanged.
    Valid,
    /// Requires (mechanical) path rewriting.
    Adaptable,
    /// Cannot be saved.
    Broken,
}

impl QueryFate {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            QueryFate::Valid => "valid",
            QueryFate::Adaptable => "adaptable",
            QueryFate::Broken => "broken",
        }
    }
}

/// Aggregated usability of a workload against a chain (experiment E3's
/// row format).
#[derive(Debug, Clone, PartialEq)]
pub struct UsabilityReport {
    /// Queries that run unchanged.
    pub valid: usize,
    /// Queries that needed rewriting.
    pub adaptable: usize,
    /// Queries lost.
    pub broken: usize,
    /// `(valid + adaptable) / total` — usability with an adapting client.
    pub adapted_score: f64,
    /// `valid / total` — usability of verbatim history queries.
    pub strict_score: f64,
}

/// Classify a whole workload; returns the report and per-query fates with
/// the adapted statements (for `Adaptable` queries the rewritten AST,
/// otherwise the original).
pub fn analyze_workload(
    queries: &[Statement],
    ops: &[EvolutionOp],
) -> (UsabilityReport, Vec<(QueryFate, Statement)>) {
    let mut fates = Vec::with_capacity(queries.len());
    let (mut valid, mut adaptable, mut broken) = (0usize, 0usize, 0usize);
    for q in queries {
        let (fate, adapted) = classify(q, ops);
        match fate {
            QueryFate::Valid => valid += 1,
            QueryFate::Adaptable => adaptable += 1,
            QueryFate::Broken => broken += 1,
        }
        fates.push((fate, adapted));
    }
    let total = queries.len().max(1) as f64;
    let report = UsabilityReport {
        valid,
        adaptable,
        broken,
        adapted_score: (valid + adaptable) as f64 / total,
        strict_score: valid as f64 / total,
    };
    (report, fates)
}

/// Classify one query against a chain and produce its adapted form, in
/// one pass over a copy of the statement.
pub fn classify(stmt: &Statement, ops: &[EvolutionOp]) -> (QueryFate, Statement) {
    let mut adapted = stmt.clone();
    match adapt_in_place(&mut adapted, ops) {
        QueryFate::Broken => (QueryFate::Broken, stmt.clone()),
        fate => (fate, adapted),
    }
}

/// Rewrite a statement's member paths through the chain's mappings
/// (call only on queries classified `Adaptable`).
pub fn adapt_statement(stmt: &Statement, ops: &[EvolutionOp]) -> Statement {
    let mut adapted = stmt.clone();
    adapt_in_place(&mut adapted, ops);
    adapted
}

/// Rewrite every accessed path of `stmt` that the chain maps elsewhere,
/// leave a dropped one as it is, and say which fate that makes. A read
/// the walk cannot place on a path breaks the query when the chain
/// changes a collection it may read from: it can be neither kept nor
/// rewritten.
fn adapt_in_place(stmt: &mut Statement, ops: &[EvolutionOp]) -> QueryFate {
    let (mut broken, mut rewritten) = (false, false);
    visit_paths(stmt, &mut |access| match access {
        Access::Path(coll, path, steps) => match fold_path(coll, &path, ops) {
            None => broken = true,
            Some(p) if p != path => {
                *steps = member_steps(&p);
                rewritten = true;
            }
            Some(_) => {}
        },
        Access::Untraced(rows) => {
            let changes = |op: &EvolutionOp| {
                !matches!(op, EvolutionOp::AddField { .. })
                    && (rows.contains(op.collection()) || rows.contains(ANY))
            };
            broken |= ops.iter().any(changes);
        }
    });
    match (broken, rewritten) {
        (true, _) => QueryFate::Broken,
        (false, true) => QueryFate::Adaptable,
        (false, false) => QueryFate::Valid,
    }
}

/// Fold a path through a chain (ops on other collections are skipped).
/// `None` = dropped.
pub(crate) fn fold_path(
    collection: &str,
    path: &FieldPath,
    ops: &[EvolutionOp],
) -> Option<FieldPath> {
    let mut cur = path.clone();
    for op in ops {
        if op.collection() != collection {
            continue;
        }
        match op.rewrite_path(&cur) {
            PathOutcome::Unchanged => {}
            PathOutcome::Rewritten(p) => cur = p,
            PathOutcome::Dropped => return None,
        }
    }
    Some(cur)
}

/// Extract every `(collection, path)` access a statement performs.
pub fn accessed_paths(stmt: &Statement) -> Vec<(String, FieldPath)> {
    let mut out = Vec::new();
    visit_paths(&mut stmt.clone(), &mut |access| {
        if let Access::Path(coll, path, _) = access {
            out.push((coll.to_string(), path));
        }
    });
    out
}

/// Collections whose whole rows a value may hold.
type Rows = BTreeSet<String>;

/// In [`Rows`]: a `DOCUMENT` read whose collection is named at run time.
const ANY: &str = "*";

/// What a variable in scope holds, as far as the walk can tell. A name
/// not in scope holds no whole row: a plain value, or a value read below
/// a row's top level, which no evolution op changes (each renames,
/// moves, retypes or drops a top-level field, and the read of that
/// field is itself an access).
#[derive(Debug, Clone)]
enum Holds {
    /// One row of the collection (a graph's vertices are `graph#v`): a
    /// member path on it is a path of that collection.
    Row(String),
    /// A value built from whole rows of these collections, at places the
    /// walk does not follow: the group members of `COLLECT … INTO`, a
    /// `FOR`/`LET` over a subquery or an expression that holds rows.
    Rows(Rows),
}

impl Holds {
    fn rows(&self) -> Rows {
        match self {
            Holds::Row(coll) => Rows::from([coll.clone()]),
            Holds::Rows(rows) => rows.clone(),
        }
    }
}

/// Variable scope: variable name → what it holds.
type Scope = HashMap<String, Holds>;

/// What [`visit_paths`] reports.
enum Access<'a> {
    /// A member path `var.a[0].b` whose variable is a row: the
    /// collection, the path, and the member's steps, to rewrite in place.
    Path(&'a str, FieldPath, &'a mut Vec<MemberStep>),
    /// A member read on a value that may hold whole rows of these
    /// collections, which the walk cannot place on a path.
    Untraced(&'a Rows),
}

/// The scoped walk: report every access, in source order.
fn visit_paths(stmt: &mut Statement, on: &mut dyn FnMut(Access)) {
    match stmt {
        Statement::Query(body) => {
            visit_body(body, &Scope::new(), on);
        }
        dml => dml.for_each_expr_mut(&mut |e| {
            visit_expr(e, &Scope::new(), on);
        }),
    }
}

/// The scope rule: a clause's expressions see the variables bound before
/// it, then the clause binds its own. A subquery starts from the scope
/// around it. Returns the rows the `RETURN` expression may hold.
fn visit_body(body: &mut QueryBody, outer: &Scope, on: &mut dyn FnMut(Access)) -> Rows {
    let mut scope = outer.clone();
    let (clauses, ret) = body.parts_mut();
    for clause in clauses {
        // the rows each of the clause's expressions may hold, in order
        let mut held = Vec::new();
        clause.for_each_expr_mut(&mut |e| held.push(visit_expr(e, &scope, on)));
        let mut held = held.into_iter().map(untraced);
        match clause {
            Clause::For { var, source } => {
                let holds = match source {
                    Source::Collection(name) => Some(Holds::Row(name.clone())),
                    Source::Traversal { graph, .. } => Some(Holds::Row(format!("{graph}#v"))),
                    Source::Expr(_) => held.next().flatten(),
                };
                bind(&mut scope, var, holds);
            }
            // LET x = DOCUMENT("coll", …) binds x to a row of that collection
            Clause::Let { var, value } => {
                let holds = match document_collection(value) {
                    Some(coll) => Some(Holds::Row(coll.to_string())),
                    None => held.next().flatten(),
                };
                bind(&mut scope, var, holds);
            }
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => {
                // each group member is an object of every variable in scope
                let members = scope.values().flat_map(Holds::rows).collect();
                scope.clear();
                let names = groups.iter().map(|(name, _)| name);
                for (name, holds) in names
                    .chain(aggregates.iter().map(|(name, ..)| name))
                    .zip(held)
                {
                    bind(&mut scope, name, holds);
                }
                if let Some(into) = into {
                    bind(&mut scope, into, untraced(members));
                }
            }
            Clause::Filter(_) | Clause::Sort { .. } | Clause::Limit { .. } => {}
        }
    }
    visit_expr(ret, &scope, on)
}

/// Report `e`'s accesses; return the rows its value may hold.
fn visit_expr(e: &mut Expr, scope: &Scope, on: &mut dyn FnMut(Access)) -> Rows {
    let traced = e.as_var_path().map(|(var, path)| (scope.get(var), path));
    match (traced, &mut *e) {
        (Some((Some(Holds::Row(coll)), path)), Expr::Member { steps, .. }) if !path.is_root() => {
            on(Access::Path(coll, path, steps));
            Rows::new()
        }
        (Some((Some(holds), path)), _) => {
            let rows = holds.rows();
            if !path.is_root() {
                on(Access::Untraced(&rows));
            }
            rows
        }
        (Some((None, _)), _) => Rows::new(),
        (None, Expr::Subquery(body)) => visit_body(body, scope, on),
        (None, e) => {
            let mut rows = Rows::new();
            e.for_each_child_mut(&mut |child| rows.extend(visit_expr(child, scope, on)));
            match e {
                // `o.items[i]`, `(FOR …)[0].a`: no static path to place
                Expr::Member { .. } if !rows.is_empty() => on(Access::Untraced(&rows)),
                Expr::Call { name, .. } if name == "DOCUMENT" => {
                    rows.insert(document_collection(e).unwrap_or(ANY).to_string());
                }
                _ => {}
            }
            rows
        }
    }
}

/// `Some` when `rows` is not empty: what a variable bound to them holds.
fn untraced(rows: Rows) -> Option<Holds> {
    (!rows.is_empty()).then_some(Holds::Rows(rows))
}

/// Bind `var` to `holds`, or drop it from the scope when it holds no row.
fn bind(scope: &mut Scope, var: &str, holds: Option<Holds>) {
    match holds {
        Some(holds) => scope.insert(var.to_string(), holds),
        None => scope.remove(var),
    };
}

/// The collection of `DOCUMENT("coll", key)`, when `e` is one.
fn document_collection(e: &Expr) -> Option<&str> {
    match e {
        Expr::Call { name, args } if name == "DOCUMENT" => match args.first() {
            Some(Expr::Literal(Value::Str(coll))) => Some(coll),
            _ => None,
        },
        _ => None,
    }
}

/// The member steps that spell `path`.
fn member_steps(path: &FieldPath) -> Vec<MemberStep> {
    use udbms_core::PathStep;
    let step = |s: &PathStep| match s {
        PathStep::Key(k) => MemberStep::Field(k.clone()),
        PathStep::Index(i) => MemberStep::Index(Box::new(Expr::Literal(Value::Int(*i as i64)))),
    };
    path.steps().iter().map(step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::FieldDef;
    use udbms_core::FieldType;

    fn parse(src: &str) -> Statement {
        udbms_query::parse(src).unwrap()
    }

    fn rename_op() -> EvolutionOp {
        EvolutionOp::RenameField {
            collection: "orders".into(),
            from: "status".into(),
            to: "state".into(),
        }
    }

    #[test]
    fn path_extraction_covers_clauses() {
        let stmt = parse(
            r#"FOR o IN orders
                 FILTER o.status == "open"
                 LET c = DOCUMENT("customers", o.customer)
                 SORT o.total DESC
                 RETURN { s: o.status, n: c.name }"#,
        );
        let mut paths = accessed_paths(&stmt);
        paths.sort();
        paths.dedup();
        assert!(paths.contains(&("orders".into(), FieldPath::key("status"))));
        assert!(paths.contains(&("orders".into(), FieldPath::key("customer"))));
        assert!(paths.contains(&("orders".into(), FieldPath::key("total"))));
        assert!(paths.contains(&("customers".into(), FieldPath::key("name"))));
    }

    #[test]
    fn subqueries_and_traversals_are_walked() {
        let stmt = parse(
            r#"FOR v IN 1..2 OUTBOUND 1 GRAPH social LABEL "knows"
                 LET spent = SUM((FOR o IN orders FILTER o.customer == v.cid RETURN o.total))
                 RETURN {cid: v.cid, spent}"#,
        );
        let paths = accessed_paths(&stmt);
        assert!(paths.contains(&("social#v".into(), FieldPath::key("cid"))));
        assert!(paths.contains(&("orders".into(), FieldPath::key("total"))));
    }

    #[test]
    fn classification_valid_adaptable_broken() {
        let untouched = parse("FOR o IN orders RETURN o.total");
        let touches_status = parse(r#"FOR o IN orders FILTER o.status == "open" RETURN o._id"#);

        let (fate, _) = classify(&untouched, &[rename_op()]);
        assert_eq!(fate, QueryFate::Valid);

        let (fate, adapted) = classify(&touches_status, &[rename_op()]);
        assert_eq!(fate, QueryFate::Adaptable);
        let paths = accessed_paths(&adapted);
        assert!(paths.contains(&("orders".into(), FieldPath::key("state"))));
        assert!(!paths.contains(&("orders".into(), FieldPath::key("status"))));

        let drop = EvolutionOp::DropField {
            collection: "orders".into(),
            field: "status".into(),
        };
        let (fate, _) = classify(&touches_status, &[drop]);
        assert_eq!(fate, QueryFate::Broken);
    }

    #[test]
    fn long_operator_chains_cost_no_stack() {
        let src = format!(
            "FOR o IN orders FILTER o.total > 0{} RETURN o._id",
            r#" OR o.status == "open""#.repeat(100_000)
        );
        let walk = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let (fate, adapted) = classify(&parse(&src), &[rename_op()]);
                assert_eq!(fate, QueryFate::Adaptable);
                let paths = accessed_paths(&adapted);
                assert_eq!(paths.len(), 100_002);
                assert!(!paths.contains(&("orders".into(), FieldPath::key("status"))));
            });
        walk.unwrap().join().unwrap();
    }

    #[test]
    fn a_let_shadowing_the_loop_variable_keeps_its_paths() {
        use udbms_core::{obj, CollectionSchema};
        use udbms_engine::{Engine, Isolation};

        let q = parse(
            r#"FOR o IN orders FILTER o.status == "open" LET o = {status: 1} RETURN o.status"#,
        );
        let (fate, adapted) = classify(&q, &[rename_op()]);
        assert_eq!(fate, QueryFate::Adaptable);
        let engine = Engine::new();
        engine
            .create_collection(CollectionSchema::document("orders", "_id", vec![]))
            .unwrap();
        engine
            .run(Isolation::Snapshot, |t| {
                t.insert("orders", obj! {"_id" => "a", "state" => "open"})
            })
            .unwrap();
        let out = engine
            .run(Isolation::Snapshot, |t| udbms_query::execute(&adapted, t))
            .unwrap();
        // the FILTER reads the renamed field; the RETURN reads the LET object
        assert_eq!(out, vec![Value::Int(1)]);
    }

    #[test]
    fn rows_read_through_into_members_or_a_subquery_are_not_valid() {
        let derived = [
            "FOR o IN orders COLLECT c = o.customer INTO g RETURN g[0].o.status",
            "FOR x IN (FOR o IN orders RETURN o) RETURN x.status",
            "FOR o IN orders LET x = [o] RETURN x[0].status",
            r#"RETURN DOCUMENT("orders", "a").status"#,
        ];
        let add = EvolutionOp::AddField {
            collection: "orders".into(),
            field: FieldDef::optional("channel", FieldType::Str),
        };
        for text in derived {
            let q = parse(text);
            // the verbatim query would read `status`, which is now `state`
            assert_eq!(classify(&q, &[rename_op()]).0, QueryFate::Broken, "{text}");
            // a chain that changes no read leaves it valid
            assert_eq!(classify(&q, &[]).0, QueryFate::Valid, "{text}");
            assert_eq!(
                classify(&q, std::slice::from_ref(&add)).0,
                QueryFate::Valid,
                "{text}"
            );
        }
        // rows of another collection are not touched by the rename
        let customers = parse("FOR x IN (FOR c IN customers RETURN c) RETURN x.status");
        assert_eq!(classify(&customers, &[rename_op()]).0, QueryFate::Valid);
        // a read below a row's top level is placed through its own access
        let items = parse("FOR o IN orders FOR i IN o.items RETURN i.status");
        assert_eq!(classify(&items, &[rename_op()]).0, QueryFate::Valid);
    }

    #[test]
    fn chains_fold_sequentially() {
        // status -> state, then state dropped: overall broken
        let q = parse(r#"FOR o IN orders RETURN o.status"#);
        let ops = vec![
            rename_op(),
            EvolutionOp::DropField {
                collection: "orders".into(),
                field: "state".into(),
            },
        ];
        let (fate, _) = classify(&q, &ops);
        assert_eq!(fate, QueryFate::Broken);

        // rename then rename again: adaptable to the final name
        let ops = vec![
            rename_op(),
            EvolutionOp::RenameField {
                collection: "orders".into(),
                from: "state".into(),
                to: "phase".into(),
            },
        ];
        let (fate, adapted) = classify(&q, &ops);
        assert_eq!(fate, QueryFate::Adaptable);
        assert!(accessed_paths(&adapted).contains(&("orders".into(), FieldPath::key("phase"))));
    }

    #[test]
    fn nesting_rewrites_deep_paths() {
        let q = parse(r#"FOR c IN customers FILTER c.country == "FI" RETURN c.city"#);
        let ops = vec![EvolutionOp::NestFields {
            collection: "customers".into(),
            fields: vec!["country".into(), "city".into()],
            into: "address".into(),
        }];
        let (fate, adapted) = classify(&q, &ops);
        assert_eq!(fate, QueryFate::Adaptable);
        let paths = accessed_paths(&adapted);
        assert!(paths.contains(&(
            "customers".into(),
            FieldPath::parse("address.country").unwrap()
        )));
        assert!(paths.contains(&(
            "customers".into(),
            FieldPath::parse("address.city").unwrap()
        )));
    }

    #[test]
    fn ops_on_other_collections_are_ignored() {
        let q = parse("FOR o IN orders RETURN o.status");
        let ops = vec![EvolutionOp::RenameField {
            collection: "customers".into(),
            from: "status".into(),
            to: "state".into(),
        }];
        let (fate, _) = classify(&q, &ops);
        assert_eq!(fate, QueryFate::Valid);
    }

    #[test]
    fn workload_report_scores() {
        let queries = vec![
            parse("FOR o IN orders RETURN o.total"),
            parse("FOR o IN orders RETURN o.status"),
            parse("FOR o IN orders RETURN o.note"),
        ];
        let ops = vec![
            rename_op(),
            EvolutionOp::DropField {
                collection: "orders".into(),
                field: "note".into(),
            },
        ];
        let (report, fates) = analyze_workload(&queries, &ops);
        assert_eq!(report.valid, 1);
        assert_eq!(report.adaptable, 1);
        assert_eq!(report.broken, 1);
        assert!((report.adapted_score - 2.0 / 3.0).abs() < 1e-9);
        assert!((report.strict_score - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(fates[0].0, QueryFate::Valid);
        assert_eq!(fates[1].0, QueryFate::Adaptable);
        assert_eq!(fates[2].0, QueryFate::Broken);
    }

    #[test]
    fn add_field_never_affects_queries() {
        let q = parse("FOR o IN orders RETURN o.total");
        let ops = vec![EvolutionOp::AddField {
            collection: "orders".into(),
            field: FieldDef::optional("channel", FieldType::Str),
        }];
        assert_eq!(classify(&q, &ops).0, QueryFate::Valid);
    }
}
