//! Binding `@name` parameters to concrete values.
//!
//! Binding rewrites every [`Expr::Param`] in a statement into
//! [`Expr::Literal`] *before* execution, so a bound statement goes through
//! planning exactly like a hand-written constant — in particular,
//! parameterized filters still reach index pushdown. Parse once, bind and
//! execute many times: the parse cost is paid a single time per query
//! text instead of once per parameter draw.

use udbms_core::{Error, Params, Result};

use crate::ast::*;

/// Replace every parameter in `stmt` with its value from `params`.
///
/// Missing parameters are an error carrying the `@`'s source position.
/// Parameters present in `params` but unused by the statement are
/// *allowed* (workloads share one params map across many queries); use
/// [`check_extra_params`] for the strict variant.
pub fn bind_statement(stmt: &Statement, params: &Params) -> Result<Statement> {
    Ok(match stmt {
        Statement::Query(body) => Statement::Query(bind_body(body, params)?),
        Statement::Insert { value, collection } => Statement::Insert {
            value: bind_expr(value, params)?,
            collection: collection.clone(),
        },
        Statement::Update {
            key,
            patch,
            collection,
        } => Statement::Update {
            key: bind_expr(key, params)?,
            patch: bind_expr(patch, params)?,
            collection: collection.clone(),
        },
        Statement::Remove { key, collection } => Statement::Remove {
            key: bind_expr(key, params)?,
            collection: collection.clone(),
        },
    })
}

/// Collect the distinct parameter names a statement references, in first
/// appearance order.
pub fn statement_params(stmt: &Statement) -> Vec<String> {
    let mut out = Vec::new();
    let mut push = |name: &str| {
        if !out.iter().any(|n| n == name) {
            out.push(name.to_string());
        }
    };
    walk_statement(stmt, &mut |e| {
        if let Expr::Param { name, .. } = e {
            push(name);
        }
    });
    out
}

/// Error if `params` supplies names the statement never references.
/// Complements [`bind_statement`]'s lenient policy when a caller wants to
/// catch typos like binding `@customr`.
pub fn check_extra_params(stmt: &Statement, params: &Params) -> Result<()> {
    let used = statement_params(stmt);
    let extra: Vec<&str> = params
        .names()
        .filter(|n| !used.iter().any(|u| u == n))
        .collect();
    if extra.is_empty() {
        Ok(())
    } else {
        Err(Error::Invalid(format!(
            "extra bind parameter(s) not referenced by the query: {}",
            extra
                .iter()
                .map(|n| format!("@{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        )))
    }
}

fn bind_body(body: &QueryBody, params: &Params) -> Result<QueryBody> {
    let mut clauses = Vec::with_capacity(body.clauses.len());
    for clause in &body.clauses {
        clauses.push(match clause {
            Clause::For { var, source } => Clause::For {
                var: var.clone(),
                source: match source {
                    Source::Collection(name) => Source::Collection(name.clone()),
                    Source::Traversal {
                        min,
                        max,
                        dir,
                        start,
                        graph,
                        label,
                    } => Source::Traversal {
                        min: *min,
                        max: *max,
                        dir: *dir,
                        start: Box::new(bind_expr(start, params)?),
                        graph: graph.clone(),
                        label: label.clone(),
                    },
                    Source::Expr(e) => Source::Expr(Box::new(bind_expr(e, params)?)),
                },
            },
            Clause::Filter(e) => Clause::Filter(bind_expr(e, params)?),
            Clause::Let { var, value } => Clause::Let {
                var: var.clone(),
                value: bind_expr(value, params)?,
            },
            Clause::Sort { keys } => Clause::Sort {
                keys: keys
                    .iter()
                    .map(|(e, asc)| Ok((bind_expr(e, params)?, *asc)))
                    .collect::<Result<Vec<_>>>()?,
            },
            Clause::Limit { offset, count } => Clause::Limit {
                offset: *offset,
                count: *count,
            },
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => Clause::Collect {
                groups: groups
                    .iter()
                    .map(|(n, e)| Ok((n.clone(), bind_expr(e, params)?)))
                    .collect::<Result<Vec<_>>>()?,
                aggregates: aggregates
                    .iter()
                    .map(|(n, f, e)| Ok((n.clone(), *f, bind_expr(e, params)?)))
                    .collect::<Result<Vec<_>>>()?,
                into: into.clone(),
            },
        });
    }
    Ok(QueryBody::new(
        clauses,
        body.distinct,
        bind_expr(&body.ret, params)?,
    ))
}

fn bind_expr(expr: &Expr, params: &Params) -> Result<Expr> {
    Ok(match expr {
        Expr::Param { name, line, col } => match params.get(name) {
            Some(v) => Expr::Literal(v.clone()),
            None => {
                return Err(Error::parse(
                    "mmql",
                    *line,
                    *col,
                    format!("missing bind parameter `@{name}`"),
                ))
            }
        },
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Var(v) => Expr::Var(v.clone()),
        Expr::Member { base, steps } => Expr::Member {
            base: Box::new(bind_expr(base, params)?),
            steps: steps
                .iter()
                .map(|s| {
                    Ok(match s {
                        MemberStep::Field(f) => MemberStep::Field(f.clone()),
                        MemberStep::Index(e) => MemberStep::Index(Box::new(bind_expr(e, params)?)),
                    })
                })
                .collect::<Result<Vec<_>>>()?,
        },
        Expr::Array(items) => Expr::Array(
            items
                .iter()
                .map(|e| bind_expr(e, params))
                .collect::<Result<Vec<_>>>()?,
        ),
        Expr::Object(fields) => Expr::Object(
            fields
                .iter()
                .map(|(k, e)| Ok((k.clone(), bind_expr(e, params)?)))
                .collect::<Result<Vec<_>>>()?,
        ),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(bind_expr(expr, params)?),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(bind_expr(lhs, params)?),
            rhs: Box::new(bind_expr(rhs, params)?),
        },
        Expr::Chain { first, links } => Expr::Chain {
            first: Box::new(bind_expr(first, params)?),
            links: links
                .iter()
                .map(|(op, e)| Ok((*op, bind_expr(e, params)?)))
                .collect::<Result<Vec<_>>>()?,
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|e| bind_expr(e, params))
                .collect::<Result<Vec<_>>>()?,
        },
        Expr::Subquery(body) => Expr::Subquery(Box::new(bind_body(body, params)?)),
    })
}

/// Depth-first visit of every expression in a statement.
fn walk_statement(stmt: &Statement, f: &mut impl FnMut(&Expr)) {
    match stmt {
        Statement::Query(body) => walk_body(body, f),
        Statement::Insert { value, .. } => walk_expr(value, f),
        Statement::Update { key, patch, .. } => {
            walk_expr(key, f);
            walk_expr(patch, f);
        }
        Statement::Remove { key, .. } => walk_expr(key, f),
    }
}

fn walk_body(body: &QueryBody, f: &mut impl FnMut(&Expr)) {
    for clause in &body.clauses {
        match clause {
            Clause::For { source, .. } => match source {
                Source::Collection(_) => {}
                Source::Traversal { start, .. } => walk_expr(start, f),
                Source::Expr(e) => walk_expr(e, f),
            },
            Clause::Filter(e) => walk_expr(e, f),
            Clause::Let { value, .. } => walk_expr(value, f),
            Clause::Sort { keys } => keys.iter().for_each(|(e, _)| walk_expr(e, f)),
            Clause::Limit { .. } => {}
            Clause::Collect {
                groups, aggregates, ..
            } => {
                groups.iter().for_each(|(_, e)| walk_expr(e, f));
                aggregates.iter().for_each(|(_, _, e)| walk_expr(e, f));
            }
        }
    }
    walk_expr(&body.ret, f);
}

pub(crate) fn walk_expr(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Literal(_) | Expr::Var(_) | Expr::Param { .. } => {}
        Expr::Member { base, steps } => {
            walk_expr(base, f);
            for s in steps {
                if let MemberStep::Index(e) = s {
                    walk_expr(e, f);
                }
            }
        }
        Expr::Array(items) => items.iter().for_each(|e| walk_expr(e, f)),
        Expr::Object(fields) => fields.iter().for_each(|(_, e)| walk_expr(e, f)),
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Chain { first, links } => {
            walk_expr(first, f);
            links.iter().for_each(|(_, e)| walk_expr(e, f));
        }
        Expr::Call { args, .. } => args.iter().for_each(|e| walk_expr(e, f)),
        Expr::Subquery(body) => walk_body(body, f),
    }
}

/// Convenience used by tests: the literal a bound statement ended up
/// with at the position where a parameter was, if the statement is a
/// plain `RETURN <literal>`.
#[cfg(test)]
fn ret_literal(stmt: &Statement) -> Option<&udbms_core::Value> {
    match stmt {
        Statement::Query(body) => match &body.ret {
            Expr::Literal(v) => Some(v),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use udbms_core::Value;

    #[test]
    fn binds_params_in_every_position() {
        let stmt = parse(
            r#"FOR v IN 1..2 OUTBOUND @start GRAPH social
                 FOR o IN orders
                 FILTER o.customer == @cust AND o.total > @lo
                 LET d = DOCUMENT("products", @prod)
                 SORT o.total
                 COLLECT s = o.status AGGREGATE t = SUM(o.total)
                 RETURN { s, t, tag: @tag }"#,
        )
        .unwrap();
        assert_eq!(
            statement_params(&stmt),
            vec!["start", "cust", "lo", "prod", "tag"]
        );
        let params = Params::new()
            .with("start", 1)
            .with("cust", 7)
            .with("lo", 5.0)
            .with("prod", "P-1")
            .with("tag", "x");
        let bound = bind_statement(&stmt, &params).unwrap();
        assert!(
            statement_params(&bound).is_empty(),
            "no params survive binding"
        );
    }

    #[test]
    fn missing_param_error_carries_position() {
        let stmt = parse("RETURN\n  @absent").unwrap();
        let err = bind_statement(&stmt, &Params::new()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("@absent"), "{msg}");
        assert!(
            msg.contains('2') && msg.contains('3'),
            "line 2 col 3: {msg}"
        );
    }

    #[test]
    fn extra_params_flagged_only_by_strict_check() {
        let stmt = parse("RETURN @a").unwrap();
        let params = Params::new().with("a", 1).with("typo", 2);
        // lenient bind accepts the unused name
        let bound = bind_statement(&stmt, &params).unwrap();
        assert_eq!(ret_literal(&bound), Some(&Value::Int(1)));
        // strict check reports it
        let err = check_extra_params(&stmt, &params).unwrap_err();
        assert!(err.to_string().contains("@typo"), "{err}");
        assert!(check_extra_params(&stmt, &Params::new().with("a", 1)).is_ok());
    }

    #[test]
    fn dml_statements_bind_too() {
        let ins = parse("INSERT {_id: @id, total: @t} INTO orders").unwrap();
        let bound = bind_statement(&ins, &Params::new().with("id", "o9").with("t", 1.5)).unwrap();
        assert!(statement_params(&bound).is_empty());

        let upd = parse("UPDATE @key WITH {status: @s} IN orders").unwrap();
        assert_eq!(statement_params(&upd), vec!["key", "s"]);
        let rem = parse("REMOVE @key IN orders").unwrap();
        assert_eq!(statement_params(&rem), vec!["key"]);
    }

    #[test]
    fn subquery_params_are_found() {
        let stmt = parse(
            "FOR c IN customers LET n = SUM((FOR o IN orders FILTER o.c == @x RETURN 1)) RETURN n",
        )
        .unwrap();
        assert_eq!(statement_params(&stmt), vec!["x"]);
    }
}
