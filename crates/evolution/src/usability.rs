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

/// Classify one query against a chain and produce its adapted form.
pub fn classify(stmt: &Statement, ops: &[EvolutionOp]) -> (QueryFate, Statement) {
    let accesses = accessed_paths(stmt);
    let mut any_rewrite = false;
    for (coll, path) in &accesses {
        match fold_path(coll, path, ops) {
            None => return (QueryFate::Broken, stmt.clone()),
            Some(p) if &p != path => any_rewrite = true,
            Some(_) => {}
        }
    }
    if !any_rewrite {
        return (QueryFate::Valid, stmt.clone());
    }
    (QueryFate::Adaptable, adapt_statement(stmt, ops))
}

/// Fold a path through a chain (ops on other collections are skipped).
/// `None` = dropped.
fn fold_path(collection: &str, path: &FieldPath, ops: &[EvolutionOp]) -> Option<FieldPath> {
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

/// Variable scope: variable name → collection it ranges over.
type Scope = HashMap<String, String>;

/// Extract every `(collection, path)` access a statement performs.
pub fn accessed_paths(stmt: &Statement) -> Vec<(String, FieldPath)> {
    let mut out = Vec::new();
    match stmt {
        Statement::Query(body) => walk_body(body, &Scope::new(), &mut out),
        Statement::Insert { value, collection } => {
            walk_expr(value, &Scope::new(), &mut out);
            let _ = collection;
        }
        Statement::Update {
            key,
            patch,
            collection,
        } => {
            walk_expr(key, &Scope::new(), &mut out);
            walk_expr(patch, &Scope::new(), &mut out);
            let _ = collection;
        }
        Statement::Remove { key, .. } => walk_expr(key, &Scope::new(), &mut out),
    }
    out
}

fn walk_body(body: &QueryBody, outer: &Scope, out: &mut Vec<(String, FieldPath)>) {
    let mut scope = outer.clone();
    for clause in &body.clauses {
        match clause {
            Clause::For { var, source } => match source {
                Source::Collection(name) => {
                    scope.insert(var.clone(), name.clone());
                }
                Source::Traversal { start, graph, .. } => {
                    walk_expr(start, &scope, out);
                    scope.insert(var.clone(), format!("{graph}#v"));
                }
                Source::Expr(e) => {
                    walk_expr(e, &scope, out);
                    scope.remove(var.as_str());
                }
            },
            Clause::Filter(e) => walk_expr(e, &scope, out),
            Clause::Let { var, value } => {
                walk_expr(value, &scope, out);
                // LET x = DOCUMENT("coll", …) binds x to that collection
                if let Expr::Call { name, args } = value {
                    if name == "DOCUMENT" {
                        if let Some(Expr::Literal(Value::Str(coll))) = args.first() {
                            scope.insert(var.clone(), coll.clone());
                            continue;
                        }
                    }
                }
                scope.remove(var.as_str());
            }
            Clause::Sort { keys } => {
                for (e, _) in keys {
                    walk_expr(e, &scope, out);
                }
            }
            Clause::Limit { .. } => {}
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => {
                for (_, e) in groups {
                    walk_expr(e, &scope, out);
                }
                for (_, _, e) in aggregates {
                    walk_expr(e, &scope, out);
                }
                // COLLECT resets the scope
                scope.clear();
                for (name, _) in groups {
                    scope.remove(name.as_str());
                }
                if let Some(v) = into {
                    scope.remove(v.as_str());
                }
            }
        }
    }
    walk_expr(&body.ret, &scope, out);
}

fn walk_expr(e: &Expr, scope: &Scope, out: &mut Vec<(String, FieldPath)>) {
    match e {
        Expr::Member { .. } => {
            if let Some((var, path)) = e.as_var_path() {
                if let Some(coll) = scope.get(var) {
                    if !path.is_root() {
                        out.push((coll.clone(), path));
                    }
                    return;
                }
            }
            // dynamic member chain: recurse into parts
            if let Expr::Member { base, steps } = e {
                walk_expr(base, scope, out);
                for s in steps {
                    if let MemberStep::Index(ix) = s {
                        walk_expr(ix, scope, out);
                    }
                }
            }
        }
        Expr::Array(items) => items.iter().for_each(|i| walk_expr(i, scope, out)),
        Expr::Object(fields) => fields.iter().for_each(|(_, v)| walk_expr(v, scope, out)),
        Expr::Unary { expr, .. } => walk_expr(expr, scope, out),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, scope, out);
            walk_expr(rhs, scope, out);
        }
        Expr::Chain { first, links } => {
            walk_expr(first, scope, out);
            links.iter().for_each(|(_, e)| walk_expr(e, scope, out));
        }
        Expr::Call { args, .. } => args.iter().for_each(|a| walk_expr(a, scope, out)),
        Expr::Subquery(body) => walk_body(body, scope, out),
        Expr::Literal(_) | Expr::Var(_) | Expr::Param { .. } => {}
    }
}

/// Rewrite a statement's member paths through the chain's mappings
/// (call only on queries classified `Adaptable`).
pub fn adapt_statement(stmt: &Statement, ops: &[EvolutionOp]) -> Statement {
    match stmt {
        Statement::Query(body) => Statement::Query(adapt_body(body, &Scope::new(), ops)),
        other => other.clone(),
    }
}

fn adapt_body(body: &QueryBody, outer: &Scope, ops: &[EvolutionOp]) -> QueryBody {
    let mut scope = outer.clone();
    let mut clauses = Vec::with_capacity(body.clauses.len());
    for clause in &body.clauses {
        let adapted = match clause {
            Clause::For { var, source } => {
                let new_source = match source {
                    Source::Collection(name) => {
                        scope.insert(var.clone(), name.clone());
                        Source::Collection(name.clone())
                    }
                    Source::Traversal {
                        min,
                        max,
                        dir,
                        start,
                        graph,
                        label,
                    } => {
                        let s = adapt_expr(start, &scope, ops);
                        scope.insert(var.clone(), format!("{graph}#v"));
                        Source::Traversal {
                            min: *min,
                            max: *max,
                            dir: *dir,
                            start: Box::new(s),
                            graph: graph.clone(),
                            label: label.clone(),
                        }
                    }
                    Source::Expr(e) => {
                        let adapted = Source::Expr(Box::new(adapt_expr(e, &scope, ops)));
                        scope.remove(var.as_str());
                        adapted
                    }
                };
                Clause::For {
                    var: var.clone(),
                    source: new_source,
                }
            }
            Clause::Filter(e) => Clause::Filter(adapt_expr(e, &scope, ops)),
            Clause::Let { var, value } => {
                let v = adapt_expr(value, &scope, ops);
                if let Expr::Call { name, args } = value {
                    if name == "DOCUMENT" {
                        if let Some(Expr::Literal(Value::Str(coll))) = args.first() {
                            scope.insert(var.clone(), coll.clone());
                        }
                    }
                }
                Clause::Let {
                    var: var.clone(),
                    value: v,
                }
            }
            Clause::Sort { keys } => Clause::Sort {
                keys: keys
                    .iter()
                    .map(|(e, asc)| (adapt_expr(e, &scope, ops), *asc))
                    .collect(),
            },
            Clause::Limit { offset, count } => Clause::Limit {
                offset: *offset,
                count: *count,
            },
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => {
                let c = Clause::Collect {
                    groups: groups
                        .iter()
                        .map(|(n, e)| (n.clone(), adapt_expr(e, &scope, ops)))
                        .collect(),
                    aggregates: aggregates
                        .iter()
                        .map(|(n, f, e)| (n.clone(), *f, adapt_expr(e, &scope, ops)))
                        .collect(),
                    into: into.clone(),
                };
                scope.clear();
                c
            }
        };
        clauses.push(adapted);
    }
    QueryBody::new(clauses, body.distinct, adapt_expr(&body.ret, &scope, ops))
}

fn adapt_expr(e: &Expr, scope: &Scope, ops: &[EvolutionOp]) -> Expr {
    match e {
        Expr::Member { base, steps } => {
            if let Some((var, path)) = e.as_var_path() {
                if let Some(coll) = scope.get(var) {
                    if let Some(new_path) = fold_path(coll, &path, ops) {
                        return rebuild_member(var, &new_path);
                    }
                }
            }
            Expr::Member {
                base: Box::new(adapt_expr(base, scope, ops)),
                steps: steps
                    .iter()
                    .map(|s| match s {
                        MemberStep::Field(f) => MemberStep::Field(f.clone()),
                        MemberStep::Index(ix) => {
                            MemberStep::Index(Box::new(adapt_expr(ix, scope, ops)))
                        }
                    })
                    .collect(),
            }
        }
        Expr::Array(items) => {
            Expr::Array(items.iter().map(|i| adapt_expr(i, scope, ops)).collect())
        }
        Expr::Object(fields) => Expr::Object(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), adapt_expr(v, scope, ops)))
                .collect(),
        ),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(adapt_expr(expr, scope, ops)),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(adapt_expr(lhs, scope, ops)),
            rhs: Box::new(adapt_expr(rhs, scope, ops)),
        },
        Expr::Chain { first, links } => Expr::Chain {
            first: Box::new(adapt_expr(first, scope, ops)),
            links: links
                .iter()
                .map(|(op, e)| (*op, adapt_expr(e, scope, ops)))
                .collect(),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| adapt_expr(a, scope, ops)).collect(),
        },
        Expr::Subquery(body) => Expr::Subquery(Box::new(adapt_body(body, scope, ops))),
        Expr::Literal(_) | Expr::Var(_) | Expr::Param { .. } => e.clone(),
    }
}

fn rebuild_member(var: &str, path: &FieldPath) -> Expr {
    use udbms_core::PathStep;
    let steps = path
        .steps()
        .iter()
        .map(|s| match s {
            PathStep::Key(k) => MemberStep::Field(k.clone()),
            PathStep::Index(i) => MemberStep::Index(Box::new(Expr::Literal(Value::Int(*i as i64)))),
        })
        .collect();
    Expr::Member {
        base: Box::new(Expr::Var(var.to_string())),
        steps,
    }
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
