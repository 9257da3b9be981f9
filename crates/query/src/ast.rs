//! MMQL abstract syntax.

use std::convert::Infallible;

use udbms_core::Value;
use udbms_graph::Direction;

/// A full MMQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A read query (`FOR … RETURN …` pipeline).
    Query(QueryBody),
    /// `INSERT <expr> INTO <collection>`
    Insert {
        /// Value to insert.
        value: Expr,
        /// Target collection.
        collection: String,
    },
    /// `UPDATE <key> WITH <patch> IN <collection>` (deep merge).
    Update {
        /// Key expression.
        key: Expr,
        /// Patch object.
        patch: Expr,
        /// Target collection.
        collection: String,
    },
    /// `REMOVE <key> IN <collection>`
    Remove {
        /// Key expression.
        key: Expr,
        /// Target collection.
        collection: String,
    },
}

/// The clause pipeline of a read query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBody {
    /// Clauses applied in order.
    pub clauses: Vec<Clause>,
    /// Whether `RETURN DISTINCT` was requested.
    pub distinct: bool,
    /// The projected expression.
    pub ret: Expr,
    /// What the executor derives from `clauses`, on first execution or
    /// `explain`; edit a body by building a new one.
    pub(crate) plan: crate::exec::PlanCell,
}

impl QueryBody {
    /// A body from its parts.
    pub fn new(clauses: Vec<Clause>, distinct: bool, ret: Expr) -> QueryBody {
        QueryBody {
            clauses,
            distinct,
            ret,
            plan: Default::default(),
        }
    }
}

/// One pipeline clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `FOR var IN source`
    For {
        /// Loop variable.
        var: String,
        /// What to iterate.
        source: Source,
    },
    /// `FILTER expr`
    Filter(Expr),
    /// `LET var = expr`
    Let {
        /// Bound variable.
        var: String,
        /// Bound value.
        value: Expr,
    },
    /// `SORT expr [ASC|DESC], …`
    Sort {
        /// Sort keys with ascending flags.
        keys: Vec<(Expr, bool)>,
    },
    /// `LIMIT [offset,] count`
    Limit {
        /// Rows to skip.
        offset: usize,
        /// Rows to keep.
        count: usize,
    },
    /// `COLLECT g = expr, … [AGGREGATE a = FN(expr), …] [INTO var]`
    Collect {
        /// Group keys: output name → expression.
        groups: Vec<(String, Expr)>,
        /// Aggregates: output name → (function, input expression).
        aggregates: Vec<(String, AggFunc, Expr)>,
        /// Bind the group's member bindings (as objects) to this name.
        into: Option<String>,
    },
}

/// Aggregation functions available in `COLLECT … AGGREGATE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric mean.
    Avg,
    /// Canonical minimum.
    Min,
    /// Canonical maximum.
    Max,
}

impl AggFunc {
    /// Parse an aggregate function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" | "LENGTH" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" | "AVERAGE" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// What a `FOR` iterates.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A named collection.
    Collection(String),
    /// Graph traversal: `min..max OUTBOUND|INBOUND|ANY start GRAPH g
    /// [LABEL "l"]`; yields vertices between `min` and `max` hops.
    Traversal {
        /// Minimum depth (inclusive).
        min: usize,
        /// Maximum depth (inclusive).
        max: usize,
        /// Direction of travel.
        dir: Direction,
        /// Start-vertex key expression.
        start: Box<Expr>,
        /// Graph name.
        graph: String,
        /// Optional edge-label restriction.
        label: Option<String>,
    },
    /// Any expression evaluating to an array.
    Expr(Box<Expr>),
}

/// One step of a member access chain.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberStep {
    /// `.field`
    Field(String),
    /// `[expr]`
    Index(Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `==` (canonical equality)
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND` / `&&`
    And,
    /// `OR` / `||`
    Or,
    /// `+` (numeric add or string/array concat)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `IN` (membership in array)
    In,
    /// `LIKE` (SQL pattern)
    Like,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `NOT` / `!`
    Not,
    /// Numeric negation.
    Neg,
}

/// An MMQL expression.
///
/// `a + b + c` parses to `(a + b) + c`: a chain of operators nests to the
/// left once per operator, as deep as the chain is long, and the parser
/// bounds every other kind of nesting but not this one. Whatever walks an
/// expression on the way from text to result therefore follows `lhs` in
/// a loop (`Expr::left_spine`, `Expr::rebuild_chain`): `Clone` and `Drop`
/// here, binding, planning and the evolution rewrites in their modules.
/// Only the two per-row evaluators (`eval.rs`, `compile.rs`) also keep a
/// recursive arm, for chains short enough that recursion is both safe
/// and measurably faster (`Expr::is_long_chain`). The derived `PartialEq`
/// and `Debug` recurse; nothing outside tests calls them on parsed input.
#[derive(Debug, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Bind parameter (`@name`), replaced by a literal when the statement
    /// is bound against a [`udbms_core::Params`] set. The source position
    /// is kept so missing-parameter errors can point at the reference.
    Param {
        /// Parameter name (without the `@`).
        name: String,
        /// Source line of the `@`.
        line: usize,
        /// Source column of the `@`.
        col: usize,
    },
    /// Variable reference.
    Var(String),
    /// Member access chain rooted at an expression.
    Member {
        /// The base expression.
        base: Box<Expr>,
        /// Access steps.
        steps: Vec<MemberStep>,
    },
    /// Array constructor.
    Array(Vec<Expr>),
    /// Object constructor.
    Object(Vec<(String, Expr)>),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Function call.
    Call {
        /// Uppercased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Subquery expression `( FOR … RETURN … )`.
    Subquery(Box<QueryBody>),
}

impl Clone for Expr {
    fn clone(&self) -> Expr {
        match self {
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Param { name, line, col } => Expr::Param {
                name: name.clone(),
                line: *line,
                col: *col,
            },
            Expr::Var(name) => Expr::Var(name.clone()),
            Expr::Member { base, steps } => Expr::Member {
                base: base.clone(),
                steps: steps.clone(),
            },
            Expr::Array(items) => Expr::Array(items.clone()),
            Expr::Object(fields) => Expr::Object(fields.clone()),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: expr.clone(),
            },
            Expr::Binary { .. } => self
                .rebuild_chain(|e| Ok::<_, Infallible>(e.clone()))
                .unwrap_or_else(|never| match never {}),
            Expr::Call { name, args } => Expr::Call {
                name: name.clone(),
                args: args.clone(),
            },
            Expr::Subquery(body) => Expr::Subquery(body.clone()),
        }
    }
}

impl Drop for Expr {
    fn drop(&mut self) {
        // unlink the left spine first: each node then drops with a leaf
        // where its chain was
        let mut next = self.take_lhs();
        while let Some(mut node) = next {
            next = node.take_lhs();
        }
    }
}

/// How many binary nodes may hang off one another's `lhs` before the
/// per-row evaluators stop recursing down them: recursion is what the
/// compiler makes fastest and every predicate of the workload is this
/// short (a compiled `a >= x AND a <= y` runs at 55 ns a row recursively,
/// 160 ns as an unrolled chain); the unrolled walk costs no stack.
const SHORT_CHAIN: usize = 8;

impl Expr {
    /// Whether more than [`SHORT_CHAIN`] binary nodes are chained through
    /// `lhs` from here down.
    pub(crate) fn is_long_chain(&self) -> bool {
        let mut node = self;
        for _ in 0..SHORT_CHAIN {
            match node {
                Expr::Binary { lhs, .. } => node = lhs,
                _ => return false,
            }
        }
        matches!(node, Expr::Binary { .. })
    }

    /// The left spine, unrolled: the operand it bottoms out in and, from
    /// `self` down, the operator and right operand of every binary node
    /// on the way — `a + b - c` gives `(a, [(-, c), (+, b)])`, so popping
    /// the links replays the chain in evaluation order.
    pub fn left_spine(&self) -> (&Expr, Vec<(BinOp, &Expr)>) {
        let mut links = Vec::new();
        let mut first = self;
        while let Expr::Binary { op, lhs, rhs } = first {
            links.push((*op, &**rhs));
            first = lhs;
        }
        (first, links)
    }

    /// A binary node rebuilt with `f` applied to every operand of its
    /// left spine, innermost first — what `Clone` and every rewrite of
    /// an expression do with a chain, in a loop.
    pub fn rebuild_chain<E>(&self, mut f: impl FnMut(&Expr) -> Result<Expr, E>) -> Result<Expr, E> {
        let (first, mut links) = self.left_spine();
        let mut out = f(first)?;
        while let Some((op, rhs)) = links.pop() {
            out = Expr::Binary {
                op,
                lhs: Box::new(out),
                rhs: Box::new(f(rhs)?),
            };
        }
        Ok(out)
    }

    /// The left operand of a binary node, a `Null` literal left in its
    /// place.
    fn take_lhs(&mut self) -> Option<Expr> {
        match self {
            Expr::Binary { lhs, .. } => {
                Some(std::mem::replace(&mut **lhs, Expr::Literal(Value::Null)))
            }
            _ => None,
        }
    }

    /// Shorthand string literal.
    pub fn str(s: &str) -> Expr {
        Expr::Literal(Value::from(s))
    }

    /// Shorthand int literal.
    pub fn int(i: i64) -> Expr {
        Expr::Literal(Value::Int(i))
    }

    /// If this expression is `var.path.only.of.fields`, return the
    /// variable and the path — the planner's pushdown hook.
    pub fn as_var_path(&self) -> Option<(&str, udbms_core::FieldPath)> {
        match self {
            Expr::Var(v) => Some((v, udbms_core::FieldPath::root())),
            Expr::Member { base, steps } => {
                let Expr::Var(v) = base.as_ref() else {
                    return None;
                };
                let mut path = udbms_core::FieldPath::root();
                for s in steps {
                    match s {
                        MemberStep::Field(f) => path = path.child(f.clone()),
                        MemberStep::Index(e) => match e.as_ref() {
                            Expr::Literal(Value::Int(i)) if *i >= 0 => {
                                path = path.at(*i as usize);
                            }
                            _ => return None,
                        },
                    }
                }
                Some((v, path))
            }
            _ => None,
        }
    }

    /// True when the expression contains no variables or calls (safe to
    /// fold at plan time).
    pub fn is_const(&self) -> bool {
        let mut first = self;
        while let Expr::Binary { lhs, rhs, .. } = first {
            if !rhs.is_const() {
                return false;
            }
            first = lhs;
        }
        match first {
            Expr::Literal(_) => true,
            Expr::Array(items) => items.iter().all(Expr::is_const),
            Expr::Object(fields) => fields.iter().all(|(_, e)| e.is_const()),
            Expr::Unary { expr, .. } => expr.is_const(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_path_extraction() {
        let e = Expr::Member {
            base: Box::new(Expr::Var("c".into())),
            steps: vec![
                MemberStep::Field("address".into()),
                MemberStep::Field("city".into()),
            ],
        };
        let (var, path) = e.as_var_path().unwrap();
        assert_eq!(var, "c");
        assert_eq!(path.to_string(), "address.city");

        let with_idx = Expr::Member {
            base: Box::new(Expr::Var("o".into())),
            steps: vec![
                MemberStep::Field("items".into()),
                MemberStep::Index(Box::new(Expr::int(0))),
            ],
        };
        assert_eq!(with_idx.as_var_path().unwrap().1.to_string(), "items[0]");

        let dynamic = Expr::Member {
            base: Box::new(Expr::Var("o".into())),
            steps: vec![MemberStep::Index(Box::new(Expr::Var("i".into())))],
        };
        assert!(
            dynamic.as_var_path().is_none(),
            "dynamic index defeats pushdown"
        );
    }

    #[test]
    fn const_detection() {
        assert!(Expr::int(1).is_const());
        let sum = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::int(1)),
            rhs: Box::new(Expr::int(2)),
        };
        assert!(sum.is_const());
        assert!(!Expr::Var("x".into()).is_const());
    }

    #[test]
    fn agg_names() {
        assert_eq!(AggFunc::from_name("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("LENGTH"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
