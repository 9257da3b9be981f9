//! MMQL abstract syntax.

use udbms_core::{Direction, Value};

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
    /// `explain`. [`QueryBody::parts_mut`], which every mutable
    /// traversal goes through, drops it, so a cached plan never outlives
    /// an edit; a body edited through its fields directly must be built
    /// anew with [`QueryBody::new`].
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

    /// The clauses and the `RETURN` expression, for editing in place.
    /// Drops the cached plan.
    pub fn parts_mut(&mut self) -> (&mut [Clause], &mut Expr) {
        self.plan = Default::default();
        (&mut self.clauses, &mut self.ret)
    }

    /// Call `f` on each expression the clauses hold, in order, then on
    /// the `RETURN` expression. Subexpressions are not visited.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        self.clauses.iter().for_each(|c| c.for_each_expr(f));
        f(&self.ret);
    }

    /// [`QueryBody::for_each_expr`], handing out `&mut` (which drops the
    /// cached plan).
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        let (clauses, ret) = self.parts_mut();
        clauses.iter_mut().for_each(|c| c.for_each_expr_mut(f));
        f(ret);
    }
}

impl Statement {
    /// Call `f` on each expression the statement holds at its top level:
    /// a query's clause and `RETURN` expressions, a DML statement's
    /// value, key and patch.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Statement::Query(body) => body.for_each_expr(f),
            Statement::Insert { value, .. } => f(value),
            Statement::Update { key, patch, .. } => {
                f(key);
                f(patch);
            }
            Statement::Remove { key, .. } => f(key),
        }
    }

    /// [`Statement::for_each_expr`], handing out `&mut`.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Statement::Query(body) => body.for_each_expr_mut(f),
            Statement::Insert { value, .. } => f(value),
            Statement::Update { key, patch, .. } => {
                f(key);
                f(patch);
            }
            Statement::Remove { key, .. } => f(key),
        }
    }

    /// Call `f` on every expression in the statement, subqueries
    /// included, each before its children ([`Expr::walk`]).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        self.for_each_expr(&mut |e| e.walk(f));
    }

    /// [`Statement::walk`], handing out `&mut`.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        self.for_each_expr_mut(&mut |e| e.walk_mut(f));
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

impl Clause {
    /// Call `f` on each expression the clause holds, in source order: a
    /// traversal's start vertex, a `FOR` source expression, a `FILTER`
    /// condition, a `LET` value, the `SORT` keys, the `COLLECT` groups
    /// and then its aggregate inputs.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Clause::For { source, .. } => match source {
                Source::Collection(_) => {}
                Source::Traversal { start: e, .. } | Source::Expr(e) => f(e),
            },
            Clause::Filter(e) | Clause::Let { value: e, .. } => f(e),
            Clause::Sort { keys } => keys.iter().for_each(|(e, _)| f(e)),
            Clause::Limit { .. } => {}
            Clause::Collect {
                groups, aggregates, ..
            } => {
                groups.iter().for_each(|(_, e)| f(e));
                aggregates.iter().for_each(|(_, _, e)| f(e));
            }
        }
    }

    /// [`Clause::for_each_expr`], handing out `&mut`.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Clause::For { source, .. } => match source {
                Source::Collection(_) => {}
                Source::Traversal { start: e, .. } | Source::Expr(e) => f(e),
            },
            Clause::Filter(e) | Clause::Let { value: e, .. } => f(e),
            Clause::Sort { keys } => keys.iter_mut().for_each(|(e, _)| f(e)),
            Clause::Limit { .. } => {}
            Clause::Collect {
                groups, aggregates, ..
            } => {
                groups.iter_mut().for_each(|(_, e)| f(e));
                aggregates.iter_mut().for_each(|(_, _, e)| f(e));
            }
        }
    }
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
/// The left-associative operator levels are flat: `a + b - c` is one
/// [`Expr::Chain`] holding `a` and the links `(+, b)`, `(-, c)`, and
/// `a AND b AND c` is one chain too, however long. Every other kind of
/// nesting counts against the parser's depth bound, so an expression is
/// never deeper than that bound allows and whatever walks one — the
/// derived `Clone`, `PartialEq`, `Debug` and drop included — recurses.
#[derive(Debug, Clone, PartialEq)]
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
    /// An operator that does not chain: a comparison, `IN` or `LIKE`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A left-associative chain `first op₁ x₁ op₂ x₂ …`, evaluated left
    /// to right as `((first op₁ x₁) op₂ x₂) …`: what the parser makes of
    /// an `OR`, `AND`, additive or multiplicative level with at least one
    /// operator. Every link of an `AND` or `OR` chain carries that
    /// operator (the evaluators read a chain's kind from its first
    /// link): `AND` stops at the first falsy operand, `OR` at the first
    /// truthy one, and both yield a `Bool`. An arithmetic chain mixes
    /// the operators of its level.
    Chain {
        /// The leftmost operand.
        first: Box<Expr>,
        /// Every further operator with its right operand, in source
        /// order.
        links: Vec<(BinOp, Expr)>,
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

impl Expr {
    /// `first` and `links` as one [`Expr::Chain`], or `first` alone when
    /// there are no links.
    pub(crate) fn chain(first: Expr, links: Vec<(BinOp, Expr)>) -> Expr {
        if links.is_empty() {
            first
        } else {
            Expr::Chain {
                first: Box::new(first),
                links,
            }
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
        match self {
            Expr::Literal(_) => true,
            Expr::Array(_)
            | Expr::Object(_)
            | Expr::Unary { .. }
            | Expr::Binary { .. }
            | Expr::Chain { .. } => {
                let mut all = true;
                self.for_each_child(&mut |e| all = all && e.is_const());
                all
            }
            _ => false,
        }
    }

    /// Call `f` on each direct child expression, in source order: a
    /// member chain's base and index expressions, the items, fields,
    /// operands and arguments, and a subquery's clause and `RETURN`
    /// expressions ([`QueryBody::for_each_expr`]). A chain's links are
    /// visited in a loop, so a recursion through this costs no depth
    /// for a chain however long.
    pub fn for_each_child(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Expr::Literal(_) | Expr::Param { .. } | Expr::Var(_) => {}
            Expr::Member { base, steps } => {
                f(base);
                for step in steps {
                    if let MemberStep::Index(e) = step {
                        f(e);
                    }
                }
            }
            Expr::Array(items) | Expr::Call { args: items, .. } => items.iter().for_each(f),
            Expr::Object(fields) => fields.iter().for_each(|(_, e)| f(e)),
            Expr::Unary { expr, .. } => f(expr),
            Expr::Binary { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Expr::Chain { first, links } => {
                f(first);
                links.iter().for_each(|(_, e)| f(e));
            }
            Expr::Subquery(body) => body.for_each_expr(f),
        }
    }

    /// [`Expr::for_each_child`], handing out `&mut` (a subquery drops its
    /// cached plan).
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(_) | Expr::Param { .. } | Expr::Var(_) => {}
            Expr::Member { base, steps } => {
                f(base);
                for step in steps {
                    if let MemberStep::Index(e) = step {
                        f(e);
                    }
                }
            }
            Expr::Array(items) | Expr::Call { args: items, .. } => items.iter_mut().for_each(f),
            Expr::Object(fields) => fields.iter_mut().for_each(|(_, e)| f(e)),
            Expr::Unary { expr, .. } => f(expr),
            Expr::Binary { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Expr::Chain { first, links } => {
                f(first);
                links.iter_mut().for_each(|(_, e)| f(e));
            }
            Expr::Subquery(body) => body.for_each_expr_mut(f),
        }
    }

    /// Call `f` on this expression and then on every expression below
    /// it, subqueries included, depth first.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.for_each_child(&mut |e| e.walk(f));
    }

    /// [`Expr::walk`], handing out `&mut`: `f` sees a node before its
    /// children, so what it puts in a node's place is walked in turn.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        self.for_each_child_mut(&mut |e| e.walk_mut(f));
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
        let sum = Expr::chain(Expr::int(1), vec![(BinOp::Add, Expr::int(2))]);
        assert!(sum.is_const());
        assert!(!Expr::Var("x".into()).is_const());
        let sum = Expr::chain(Expr::int(1), vec![(BinOp::Add, Expr::Var("x".into()))]);
        assert!(!sum.is_const());
    }

    #[test]
    fn agg_names() {
        assert_eq!(AggFunc::from_name("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("LENGTH"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
