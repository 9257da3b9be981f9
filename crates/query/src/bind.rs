//! Binding `@name` parameters to concrete values.
//!
//! Binding copies a statement and replaces every [`Expr::Param`] in the
//! copy with an [`Expr::Literal`] *before* execution, through the AST's
//! one traversal ([`Statement::walk_mut`]), so a bound statement goes through
//! planning exactly like a hand-written constant — in particular,
//! parameterized filters still reach index pushdown. Parse once, bind and
//! execute many times: the parse cost is paid a single time per query
//! text instead of once per parameter draw.

use udbms_core::{Error, Params, Result};

use crate::ast::*;

/// Replace every parameter in `stmt` with its value from `params`
/// ([`crate::Query::bind`]).
///
/// Missing parameters are an error carrying the `@`'s source position.
/// Parameters present in `params` but unused by the statement are
/// *allowed* (workloads share one params map across many queries);
/// [`crate::Query::check_extra_params`] is the strict variant.
pub(crate) fn bind_statement(stmt: &Statement, params: &Params) -> Result<Statement> {
    let mut bound = stmt.clone();
    let mut missing = None;
    bound.walk_mut(&mut |e| {
        if let Expr::Param { name, line, col } = e {
            match params.get(name) {
                Some(v) => *e = Expr::Literal(v.clone()),
                None => {
                    missing.get_or_insert_with(|| {
                        let msg = format!("missing bind parameter `@{name}`");
                        Error::parse("mmql", *line, *col, msg)
                    });
                }
            }
        }
    });
    match missing {
        Some(err) => Err(err),
        None => Ok(bound),
    }
}

/// Collect the distinct parameter names a statement references, in first
/// appearance order ([`crate::Query::parameters`]).
pub(crate) fn statement_params(stmt: &Statement) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    stmt.walk(&mut |e| {
        if let Expr::Param { name, .. } = e {
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
    });
    out
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
        let query = crate::Query::parse("RETURN @a").unwrap();
        let err = query.check_extra_params(&params).unwrap_err();
        assert!(err.to_string().contains("@typo"), "{err}");
        assert!(query
            .check_extra_params(&Params::new().with("a", 1))
            .is_ok());
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
