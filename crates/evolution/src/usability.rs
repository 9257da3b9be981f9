//! History-query usability analysis.
//!
//! The paper: "The change of schema can affect the usability of history
//! queries." This module takes a query workload (MMQL) and an evolution
//! chain and classifies every query as **valid** (runs unchanged),
//! **adaptable** (mechanically rewritable via the chain's path mappings —
//! and this module performs that rewrite), or **broken** (touches paths
//! the chain destroyed).

use std::collections::HashMap;

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
/// leave a dropped one as it is, and say which fate that makes.
fn adapt_in_place(stmt: &mut Statement, ops: &[EvolutionOp]) -> QueryFate {
    let (mut broken, mut rewritten) = (false, false);
    visit_paths(
        stmt,
        &mut |coll, path, steps| match fold_path(coll, &path, ops) {
            None => broken = true,
            Some(p) if p != path => {
                *steps = member_steps(&p);
                rewritten = true;
            }
            Some(_) => {}
        },
    );
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
    visit_paths(&mut stmt.clone(), &mut |coll, path, _| {
        out.push((coll.to_string(), path))
    });
    out
}

/// Variable scope: variable name → collection it ranges over.
type Scope = HashMap<String, String>;

/// What [`visit_paths`] calls for each member path `var.a[0].b` whose
/// variable ranges over a collection: the collection, the path, and the
/// member's steps, to rewrite in place.
type OnPath<'a> = dyn FnMut(&str, FieldPath, &mut Vec<MemberStep>) + 'a;

/// The scoped walk: call `on_path` for every access to a collection's
/// path, in source order.
fn visit_paths(stmt: &mut Statement, on_path: &mut OnPath) {
    match stmt {
        Statement::Query(body) => visit_body(body, &Scope::new(), on_path),
        dml => dml.for_each_expr_mut(&mut |e| visit_expr(e, &Scope::new(), on_path)),
    }
}

/// The scope rule: a clause's expressions see the variables bound before
/// it, then the clause binds its own. A subquery starts from the scope
/// around it.
fn visit_body(body: &mut QueryBody, outer: &Scope, on_path: &mut OnPath) {
    let mut scope = outer.clone();
    let (clauses, ret) = body.parts_mut();
    for clause in clauses {
        clause.for_each_expr_mut(&mut |e| visit_expr(e, &scope, on_path));
        match clause {
            Clause::For { var, source } => match source {
                Source::Collection(name) => {
                    scope.insert(var.clone(), name.clone());
                }
                Source::Traversal { graph, .. } => {
                    scope.insert(var.clone(), format!("{graph}#v"));
                }
                Source::Expr(_) => {
                    scope.remove(var.as_str());
                }
            },
            // LET x = DOCUMENT("coll", …) binds x to that collection;
            // any other LET shadows x
            Clause::Let { var, value } => {
                scope.remove(var.as_str());
                if let Expr::Call { name, args } = value {
                    if let Some(Expr::Literal(Value::Str(coll))) = args.first() {
                        if name == "DOCUMENT" {
                            scope.insert(var.clone(), coll.clone());
                        }
                    }
                }
            }
            Clause::Collect { .. } => scope.clear(),
            Clause::Filter(_) | Clause::Sort { .. } | Clause::Limit { .. } => {}
        }
    }
    visit_expr(ret, &scope, on_path);
}

fn visit_expr(e: &mut Expr, scope: &Scope, on_path: &mut OnPath) {
    match e {
        Expr::Member { .. } => {
            let hit = e
                .as_var_path()
                .and_then(|(var, path)| Some((scope.get(var)?, path)));
            if let (Some((coll, path)), Expr::Member { steps, .. }) = (hit, &mut *e) {
                if !path.is_root() {
                    on_path(coll, path, steps);
                }
                return;
            }
        }
        Expr::Subquery(body) => return visit_body(body, scope, on_path),
        _ => {}
    }
    e.for_each_child_mut(&mut |child| visit_expr(child, scope, on_path));
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
