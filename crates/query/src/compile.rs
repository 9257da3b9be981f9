//! Predicate compilation: turn a row-local MMQL expression into a
//! **closure tree** evaluated directly against the borrowed row.
//!
//! The interpreter pays two per-row costs a hot filter never needs: it
//! allocates an [`Env`](crate::eval::Env) binding and re-walks the AST,
//! resolving variables by name, on every node. A [`CompiledPred`] pays
//! neither — member chains resolve each field name to a [`Symbol`] once,
//! so a row's field is found by pointer compare, constant subexpressions
//! are folded once at compile time via [`eval_const`], and operators are
//! the interpreter's `apply_unary`/`apply_binary`, so results (including
//! errors and short-circuit behaviour) are identical by construction.
//!
//! Compilation is **total or nothing**: any node the compiler cannot
//! prove row-local (function calls, subqueries, other variables, bind
//! parameters, dynamic member indexes) makes [`CompiledPred::compile`]
//! return `None` and the executor falls back to the interpreter. A
//! proptest (`tests/read_path.rs`) checks agreement on arbitrary
//! expressions and rows.

use udbms_core::{PathStep, Result, Symbol, Value};

use crate::ast::{BinOp, Expr};
use crate::eval::{apply_binary, apply_unary, eval_const, Val};

/// A compiled node: a folded constant, or a boxed closure from the
/// borrowed row to a value that may still borrow from it.
enum Node {
    Const(Value),
    Row(Box<RowFn>),
}

type RowFn = dyn for<'r> Fn(&'r Value) -> Result<Val<'r>> + Send + Sync;

impl Node {
    fn eval<'r>(&'r self, row: &'r Value) -> Result<Val<'r>> {
        match self {
            Node::Const(c) => Ok(Val::Ref(c)),
            Node::Row(f) => f(row),
        }
    }
}

/// A row predicate (or projection) compiled from an [`Expr`] that only
/// references one loop variable. Cheap to evaluate, `Send + Sync`, and
/// reusable across every row of a scan — compile once per `FOR` clause,
/// not once per row.
pub struct CompiledPred {
    root: Node,
}

impl std::fmt::Debug for CompiledPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPred").finish_non_exhaustive()
    }
}

impl CompiledPred {
    /// Compile `expr` against loop variable `var`. Returns `None` when
    /// the expression is not row-local (the caller keeps the
    /// interpreter path).
    pub fn compile(expr: &Expr, var: &str) -> Option<CompiledPred> {
        compile_node(expr, var).map(|root| CompiledPred { root })
    }

    /// Evaluate against a borrowed row. Result (value or error) matches
    /// the interpreter evaluating the source expression with the row
    /// bound to the loop variable.
    pub fn eval(&self, row: &Value) -> Result<Value> {
        self.eval_ref(row).map(Val::into_owned)
    }

    /// [`CompiledPred::eval`], borrowing from the row where the result
    /// is a path into it.
    pub(crate) fn eval_ref<'r>(&'r self, row: &'r Value) -> Result<Val<'r>> {
        self.root.eval(row)
    }

    /// Truthiness of [`CompiledPred::eval`] — the filter entry point.
    pub fn matches(&self, row: &Value) -> Result<bool> {
        Ok(self.root.eval(row)?.is_truthy())
    }
}

/// A static member step of a compiled path.
enum Step {
    /// `.field` by its interned name: a pointer compare per field
    Symbol(Symbol),
    /// `.field` by a name that was not interned when the plan was made
    Name(String),
    /// `[i]` with a literal `i >= 0`
    At(usize),
}

/// Compile one AST node, or `None` when it is not row-local.
fn compile_node(expr: &Expr, var: &str) -> Option<Node> {
    // constant subtree: fold once, keep the value
    if let Some(c) = eval_const(expr) {
        return Some(Node::Const(c));
    }
    Some(Node::Row(match expr {
        // the loop variable, or a member chain rooted at it with static
        // steps: walk the borrowed row, clone nothing
        Expr::Member { .. } | Expr::Var(_) => {
            let (root, path) = expr.as_var_path()?;
            if root != var {
                return None;
            }
            let steps: Vec<Step> = (path.steps().iter())
                .map(|step| match step {
                    PathStep::Key(k) => {
                        Symbol::lookup(k).map_or(Step::Name(k.clone()), Step::Symbol)
                    }
                    PathStep::Index(i) => Step::At(*i),
                })
                .collect();
            Box::new(move |row| {
                const NULL: &Value = &Value::Null;
                let leaf = steps.iter().fold(row, |cur, step| match (step, cur) {
                    (Step::Symbol(name), _) => cur.get_symbol(name),
                    (Step::Name(name), _) => cur.get_field(name),
                    (Step::At(i), Value::Array(items)) => items.get(*i).unwrap_or(NULL),
                    (Step::At(_), _) => NULL,
                });
                Ok(Val::Ref(leaf))
            })
        }
        Expr::Array(items) => {
            let nodes: Vec<Node> = items
                .iter()
                .map(|e| compile_node(e, var))
                .collect::<Option<_>>()?;
            Box::new(move |row| {
                let items = nodes.iter().map(|n| n.eval(row).map(Val::into_owned));
                Ok(Val::Owned(Value::Array(items.collect::<Result<_>>()?)))
            })
        }
        Expr::Object(fields) => {
            // names interned once here: each row's object copies pointers
            let nodes: Vec<(Symbol, Node)> = fields
                .iter()
                .map(|(k, e)| compile_node(e, var).map(|n| (Symbol::new(k), n)))
                .collect::<Option<_>>()?;
            Box::new(move |row| {
                let fields = nodes
                    .iter()
                    .map(|(k, n)| Ok((k.clone(), n.eval(row)?.into_owned())));
                Ok(Val::Owned(Value::Object(fields.collect::<Result<_>>()?)))
            })
        }
        Expr::Unary { op, expr } => {
            let op = *op;
            let inner = compile_node(expr, var)?;
            Box::new(move |row| {
                let v = inner.eval(row)?;
                Ok(Val::Owned(apply_unary(op, &v)?))
            })
        }
        Expr::Binary { op, lhs, rhs } => {
            let op = *op;
            let l = compile_node(lhs, var)?;
            let r = compile_node(rhs, var)?;
            Box::new(move |row| {
                let lv = l.eval(row)?;
                let rv = r.eval(row)?;
                Ok(Val::Owned(apply_binary(op, &lv, &rv)?))
            })
        }
        Expr::Chain { first, links } => {
            let first = compile_node(first, var)?;
            let mut links = links
                .iter()
                .map(|(op, e)| Some((*op, compile_node(e, var)?)));
            let (op, second) = links.next()??;
            let rest = links.collect::<Option<Vec<_>>>()?;
            if let BinOp::And | BinOp::Or = op {
                // `AND` stops at the first falsy operand, `OR` at the
                // first truthy one
                let stop = op == BinOp::Or;
                let operands: Vec<Node> = [first, second]
                    .into_iter()
                    .chain(rest.into_iter().map(|(_, n)| n))
                    .collect();
                Box::new(move |row| {
                    for operand in &operands {
                        if operand.eval(row)?.is_truthy() == stop {
                            return Ok(Val::Owned(Value::Bool(stop)));
                        }
                    }
                    Ok(Val::Owned(Value::Bool(!stop)))
                })
            } else {
                // the first link peeled, so that the running value is owned
                Box::new(move |row| {
                    let l = first.eval(row)?;
                    let r = second.eval(row)?;
                    let mut acc = apply_binary(op, &l, &r)?;
                    for (op, operand) in &rest {
                        let r = operand.eval(row)?;
                        acc = apply_binary(*op, &acc, &r)?;
                    }
                    Ok(Val::Owned(acc))
                })
            }
        }
        // calls, subqueries, params, foreign vars: interpreter territory
        // (a literal is a constant subtree, folded above)
        Expr::Call { .. } | Expr::Subquery(_) | Expr::Param { .. } | Expr::Literal(_) => {
            return None
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser;
    use udbms_core::obj;

    fn filter_of(src: &str) -> Expr {
        let stmt = parser::parse(&format!("FOR r IN t FILTER {src} RETURN r")).unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let crate::ast::Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        f.clone()
    }

    #[test]
    fn compiles_row_local_comparisons() {
        let row = obj! {"g" => 7, "name" => "Ada", "nest" => obj! {"x" => 2}};
        for (src, want) in [
            ("r.g == 7", true),
            ("r.g % 4 == 3", true),
            ("r.g > 10", false),
            ("r.name LIKE \"A%\"", true),
            ("r.g IN [1, 7]", true),
            ("r.nest.x * 3 == 6", true),
            ("NOT (r.g == 7)", false),
            ("r.g == 7 AND r.name == \"Ada\"", true),
            ("r.g == 0 OR r.name == \"Ada\"", true),
            ("r.missing == NULL", true),
        ] {
            let p = CompiledPred::compile(&filter_of(src), "r")
                .unwrap_or_else(|| panic!("{src} must compile"));
            assert_eq!(p.matches(&row).unwrap(), want, "{src}");
        }
    }

    #[test]
    fn constant_subtrees_fold() {
        let p = CompiledPred::compile(&filter_of("r.g == 3 + 4"), "r").unwrap();
        assert!(p.matches(&obj! {"g" => 7}).unwrap());
        // whole-constant filters compile too
        let p = CompiledPred::compile(&filter_of("1 < 2"), "r").unwrap();
        assert!(p.matches(&Value::Null).unwrap());
    }

    #[test]
    fn non_row_local_expressions_fall_back() {
        for src in [
            "TO_NUMBER(r.g) == 3",               // call
            "r.g == other.g",                    // foreign variable
            "r.g == @p",                         // unbound parameter
            "LENGTH((FOR x IN t RETURN x)) > 0", // subquery inside call
        ] {
            assert!(
                CompiledPred::compile(&filter_of(src), "r").is_none(),
                "{src} must not compile"
            );
        }
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // -r.name is a type error; AND must not reach it when lhs is false
        let p = CompiledPred::compile(&filter_of("r.g == 0 AND -r.name == 1"), "r").unwrap();
        assert!(!p.matches(&obj! {"g" => 7, "name" => "Ada"}).unwrap());
        // but an evaluated type error propagates, like the interpreter
        let p = CompiledPred::compile(&filter_of("-r.name == 1"), "r").unwrap();
        assert!(p.matches(&obj! {"name" => "Ada"}).is_err());
    }

    #[test]
    fn whole_row_and_constructors_compile() {
        let row = obj! {"g" => 1};
        let p = CompiledPred::compile(&filter_of("r == {g: 1}"), "r").unwrap();
        assert!(p.matches(&row).unwrap());
        let p = CompiledPred::compile(&filter_of("[r.g, 2] == [1, 2]"), "r").unwrap();
        assert!(p.matches(&row).unwrap());
        let p = CompiledPred::compile(&filter_of("{a: r.g} == {a: 1}"), "r").unwrap();
        assert!(p.matches(&row).unwrap());
    }
}
