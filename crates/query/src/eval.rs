//! Expression evaluation and the MMQL function library.

use std::sync::Arc;

use udbms_core::{like_match, Direction, Error, Key, Object, Result, Symbol, Value};
use udbms_engine::Txn;

use crate::ast::{AggFunc, BinOp, Expr, MemberStep, UnOp};

/// One binding frame of a persistent [`Env`] chain.
#[derive(Debug)]
struct Frame {
    name: Arc<str>,
    value: Arc<Value>,
    parent: Option<Arc<Frame>>,
}

/// A variable environment (one per pipeline row), structured as a
/// **persistent parent-linked chain**: binding a variable allocates one
/// frame that points at the existing chain instead of cloning every
/// outer binding. A `FOR` loop over N rows therefore costs N frame
/// allocations, not N copies of the whole scope — and values bound from
/// storage scans stay `Arc`-shared all the way into the expression
/// evaluator.
#[derive(Debug, Clone, Default)]
pub struct Env {
    head: Option<Arc<Frame>>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Look up a variable (innermost binding wins).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.get_shared(name).map(Arc::as_ref)
    }

    /// Look up a variable as a shared handle (innermost binding wins).
    pub fn get_shared(&self, name: &str) -> Option<&Arc<Value>> {
        let mut cur = self.head.as_ref();
        while let Some(frame) = cur {
            if &*frame.name == name {
                return Some(&frame.value);
            }
            cur = frame.parent.as_ref();
        }
        None
    }

    /// Bind (or shadow) a variable, builder-style.
    #[must_use]
    pub fn with(&self, name: &str, value: Value) -> Env {
        self.with_shared(name, Arc::new(value))
    }

    /// Bind (or shadow) a variable to an already-shared value — the
    /// zero-copy row binding used by `FOR` over collection scans.
    #[must_use]
    pub fn with_shared(&self, name: &str, value: Arc<Value>) -> Env {
        self.bind(&Arc::from(name), value)
    }

    /// [`Env::with_shared`] under a name interned once per clause (the
    /// executor's per-row binding: two refcount bumps, no string copy).
    #[must_use]
    pub(crate) fn bind(&self, name: &Arc<str>, value: Arc<Value>) -> Env {
        Env {
            head: Some(Arc::new(Frame {
                name: Arc::clone(name),
                value,
                parent: self.head.clone(),
            })),
        }
    }

    /// All bindings as an object (used by `COLLECT … INTO`): innermost
    /// binding wins for shadowed names.
    pub fn as_object(&self) -> Value {
        let mut m = Object::new();
        let mut cur = self.head.as_ref();
        while let Some(frame) = cur {
            m.entry(frame.name.to_string())
                .or_insert_with(|| frame.value.as_ref().clone());
            cur = frame.parent.as_ref();
        }
        Value::Object(m)
    }

    /// Variable names currently bound, outermost first (shadowed names
    /// appear once per binding, as before).
    pub fn names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = self.head.as_ref();
        while let Some(frame) = cur {
            out.push(&*frame.name);
            cur = frame.parent.as_ref();
        }
        out.reverse();
        out
    }
}

/// Evaluate an expression that must be constant (no variables, calls or
/// subqueries). Returns `None` when the expression is not constant.
pub fn eval_const(expr: &Expr) -> Option<Value> {
    fn fold(expr: &Expr) -> Result<Val<'_>> {
        eval_structural(expr, fold)
    }
    if !expr.is_const() {
        return None;
    }
    fold(expr).ok().map(Val::into_owned)
}

/// Literals, constructors and operators over whatever `child` makes of
/// their operands; an error for a node that needs an environment.
/// Constant folding and the interpreter are both this, so they cannot
/// disagree.
fn eval_structural<'a>(
    expr: &'a Expr,
    mut child: impl FnMut(&'a Expr) -> Result<Val<'a>>,
) -> Result<Val<'a>> {
    Ok(match expr {
        Expr::Literal(v) => Val::Ref(v),
        Expr::Array(items) => {
            let items = items.iter().map(|e| child(e).map(Val::into_owned));
            Val::Owned(Value::Array(items.collect::<Result<_>>()?))
        }
        Expr::Object(fields) => {
            let fields = fields
                .iter()
                .map(|(k, e)| Ok((Symbol::new(k), child(e)?.into_owned())));
            Val::Owned(Value::Object(fields.collect::<Result<_>>()?))
        }
        Expr::Unary { op, expr } => {
            let v = child(expr)?;
            Val::Owned(apply_unary(*op, &v)?)
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = child(lhs)?;
            let r = child(rhs)?;
            Val::Owned(apply_binary(*op, &l, &r)?)
        }
        Expr::Chain { first, links } => match links.first() {
            Some((op @ (BinOp::And | BinOp::Or), _)) => {
                // `AND` stops at the first falsy operand, `OR` at the
                // first truthy one
                let stop = *op == BinOp::Or;
                let operands = std::iter::once(&**first).chain(links.iter().map(|(_, e)| e));
                for operand in operands {
                    if child(operand)?.is_truthy() == stop {
                        return Ok(Val::Owned(Value::Bool(stop)));
                    }
                }
                Val::Owned(Value::Bool(!stop))
            }
            _ => {
                let Some(((op, second), rest)) = links.split_first() else {
                    return child(first);
                };
                let l = child(first)?;
                let r = child(second)?;
                let mut acc = apply_binary(*op, &l, &r)?;
                for (op, operand) in rest {
                    let r = child(operand)?;
                    acc = apply_binary(*op, &acc, &r)?;
                }
                Val::Owned(acc)
            }
        },
        _ => {
            return Err(Error::Invalid(
                "non-constant expression in constant context".into(),
            ))
        }
    })
}

/// What borrowed evaluation yields: a reference into the AST or the
/// environment wherever the value already exists, a shared handle for
/// stored records, and an owned value only for what the expression
/// computed. Dereferences to [`Value`].
#[derive(Debug)]
pub(crate) enum Val<'a> {
    /// Borrowed from a literal, an [`Env`] frame or the row under test.
    Ref(&'a Value),
    /// A stored record, as handed out by the engine's shared reads.
    Shared(Arc<Value>),
    /// Computed by the expression.
    Owned(Value),
}

impl std::ops::Deref for Val<'_> {
    type Target = Value;

    fn deref(&self) -> &Value {
        match self {
            Val::Ref(v) => v,
            Val::Shared(v) => v,
            Val::Owned(v) => v,
        }
    }
}

impl Val<'_> {
    /// The value itself, cloning only what is still borrowed or shared.
    pub(crate) fn into_owned(self) -> Value {
        match self {
            Val::Ref(v) => v.clone(),
            Val::Shared(v) => Arc::try_unwrap(v).unwrap_or_else(|v| v.as_ref().clone()),
            Val::Owned(v) => v,
        }
    }

    /// A handle an [`Env`] frame can hold; a stored record stays shared.
    pub(crate) fn into_shared(self) -> Arc<Value> {
        match self {
            Val::Shared(v) => v,
            other => Arc::new(other.into_owned()),
        }
    }
}

/// Evaluate an expression against an environment with transaction access
/// (`DOCUMENT`, `NEIGHBORS`, `XPATH` on stored docs, subqueries). The
/// owned wrapper over the borrowed evaluator the executor runs on.
pub fn eval(expr: &Expr, env: &Env, txn: &mut Txn) -> Result<Value> {
    eval_ref(expr, env, txn).map(Val::into_owned)
}

/// The interpreter. Variables, literals and member paths rooted in them
/// come back as references, so reading `o.total` never copies `o`.
pub(crate) fn eval_ref<'a>(expr: &'a Expr, env: &'a Env, txn: &mut Txn) -> Result<Val<'a>> {
    Ok(match expr {
        Expr::Param { name, line, col } => {
            return Err(Error::parse(
                "mmql",
                *line,
                *col,
                format!("unbound parameter `@{name}` (execute with Params or bind first)"),
            ))
        }
        Expr::Var(name) => Val::Ref(
            env.get(name)
                .ok_or_else(|| Error::NotFound(format!("variable `{name}`")))?,
        ),
        Expr::Member { base, steps } => match eval_ref(base, env, txn)? {
            Val::Ref(v) => Val::Ref(walk_member(v, steps, |e| eval_ref(e, env, txn))?),
            // a computed or fetched base: only the leaf is copied out
            base => Val::Owned(walk_member(&base, steps, |e| eval_ref(e, env, txn))?.clone()),
        },
        Expr::Call { name, args } => return call_function(name, args, env, txn),
        Expr::Subquery(body) => Val::Owned(Value::Array(crate::exec::run_body(body, env, txn)?)),
        _ => return eval_structural(expr, |e| eval_ref(e, env, txn)),
    })
}

/// Walk member-access steps over a borrowed value. `index` evaluates a
/// `[expr]` step's subscript. Missing steps yield `Null`.
/// [`CompiledPred`](crate::CompiledPred) walks the static chains it
/// compiles by resolved names instead.
pub(crate) fn walk_member<'v, 'e>(
    mut cur: &'v Value,
    steps: &'e [MemberStep],
    mut index: impl FnMut(&'e Expr) -> Result<Val<'e>>,
) -> Result<&'v Value> {
    const NULL: &Value = &Value::Null;
    for step in steps {
        cur = match step {
            MemberStep::Field(f) => cur.get_field(f),
            MemberStep::Index(e) => match (cur, &*index(e)?) {
                (Value::Array(items), Value::Int(i)) => {
                    // negative indexes count from the end
                    let at = if *i >= 0 {
                        *i
                    } else {
                        (items.len() as i64 + i).max(0)
                    };
                    items.get(at as usize).unwrap_or(NULL)
                }
                (Value::Object(_), Value::Str(k)) => cur.get_field(k),
                _ => NULL,
            },
        };
    }
    Ok(cur)
}

pub(crate) fn apply_unary(op: UnOp, v: &Value) -> Result<Value> {
    match op {
        UnOp::Not => Ok(Value::Bool(!v.is_truthy())),
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::type_err("number (unary -)", other.type_name())),
        },
    }
}

pub(crate) fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use std::cmp::Ordering;
    let ord = || l.canonical_cmp(r);
    Ok(match op {
        BinOp::Eq => Value::Bool(ord() == Ordering::Equal),
        BinOp::Ne => Value::Bool(ord() != Ordering::Equal),
        BinOp::Lt => Value::Bool(ord() == Ordering::Less),
        BinOp::Le => Value::Bool(ord() != Ordering::Greater),
        BinOp::Gt => Value::Bool(ord() == Ordering::Greater),
        BinOp::Ge => Value::Bool(ord() != Ordering::Less),
        BinOp::And => Value::Bool(l.is_truthy() && r.is_truthy()),
        BinOp::Or => Value::Bool(l.is_truthy() || r.is_truthy()),
        BinOp::In => match r {
            Value::Array(items) => Value::Bool(items.contains(l)),
            _ => Value::Bool(false),
        },
        BinOp::Like => match (l, r) {
            (Value::Str(s), Value::Str(p)) => Value::Bool(like_match(p, s)),
            _ => Value::Bool(false),
        },
        BinOp::Add => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            (Value::Str(a), Value::Str(b)) => Value::Str(format!("{a}{b}")),
            (Value::Array(a), Value::Array(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Value::Array(out)
            }
            _ => numeric_op(l, r, "+", |a, b| a + b)?,
        },
        BinOp::Sub => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            _ => numeric_op(l, r, "-", |a, b| a - b)?,
        },
        BinOp::Mul => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            _ => numeric_op(l, r, "*", |a, b| a * b)?,
        },
        BinOp::Div => {
            let (a, b) = both_numeric(l, r, "/")?;
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinOp::Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.rem_euclid(*b))
                }
            }
            _ => {
                return Err(Error::type_err(
                    "integers (%)",
                    format!("{} % {}", l.type_name(), r.type_name()),
                ))
            }
        },
    })
}

fn both_numeric(l: &Value, r: &Value, op: &str) -> Result<(f64, f64)> {
    match (l.as_float(), r.as_float()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(Error::type_err(
            format!("numbers ({op})"),
            format!("{} {op} {}", l.type_name(), r.type_name()),
        )),
    }
}

fn numeric_op(l: &Value, r: &Value, name: &str, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    let (a, b) = both_numeric(l, r, name)?;
    Ok(Value::Float(f(a, b)))
}

/// Dispatch a function call. Arguments are evaluated borrowed; the two
/// functions that can hand back an existing value do so.
fn call_function<'a>(name: &str, args: &'a [Expr], env: &'a Env, txn: &mut Txn) -> Result<Val<'a>> {
    let mut vals: Vec<Val<'a>> = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval_ref(a, env, txn)?);
    }
    match name {
        "COALESCE" | "NOT_NULL" => Ok(vals
            .into_iter()
            .find(|v| !v.is_null())
            .unwrap_or(Val::Owned(Value::Null))),
        "DOCUMENT" if vals.len() == 2 => {
            let coll = vals[0].expect_str("DOCUMENT collection")?;
            let key = Key::new((*vals[1]).clone())?;
            // the stored record itself, not a copy of it
            Ok(txn
                .get_shared(coll, &key)?
                .map_or(Val::Owned(Value::Null), Val::Shared))
        }
        _ => library_function(name, &vals, txn).map(Val::Owned),
    }
}

/// The function library proper: everything that computes a new value.
fn library_function(name: &str, vals: &[Val<'_>], txn: &mut Txn) -> Result<Value> {
    let argc = vals.len();
    let wrong_arity = |want: &str| {
        Err(Error::Invalid(format!(
            "{name}() expects {want} argument(s), got {argc}"
        )))
    };
    match name {
        "LENGTH" | "COUNT" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(Value::Int(match &*vals[0] {
                Value::Array(a) => a.len() as i64,
                Value::Object(o) => o.len() as i64,
                Value::Str(s) => s.chars().count() as i64,
                Value::Null => 0,
                _ => 1,
            }))
        }
        "SUM" | "AVG" | "MIN" | "MAX" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let items = vals[0]
                .as_array()
                .ok_or_else(|| Error::type_err("Array", vals[0].type_name()))?;
            let func = match name {
                "SUM" => AggFunc::Sum,
                "AVG" => AggFunc::Avg,
                "MIN" => AggFunc::Min,
                _ => AggFunc::Max,
            };
            let mut acc = Accumulator::new(func);
            items.iter().for_each(|v| acc.push(v));
            Ok(acc.finish())
        }
        "FIRST" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(vals[0]
                .as_array()
                .and_then(|a| a.first())
                .cloned()
                .unwrap_or(Value::Null))
        }
        "LAST" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(vals[0]
                .as_array()
                .and_then(|a| a.last())
                .cloned()
                .unwrap_or(Value::Null))
        }
        "UNIQUE" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let items = vals[0]
                .as_array()
                .ok_or_else(|| Error::type_err("Array", vals[0].type_name()))?;
            Ok(Value::Array(distinct(items.to_vec())))
        }
        "FLATTEN" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let items = vals[0]
                .as_array()
                .ok_or_else(|| Error::type_err("Array", vals[0].type_name()))?;
            let mut out = Vec::new();
            for v in items {
                match v {
                    Value::Array(inner) => out.extend(inner.iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Ok(Value::Array(out))
        }
        "APPEND" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let mut items = vals[0]
                .as_array()
                .ok_or_else(|| Error::type_err("Array", vals[0].type_name()))?
                .to_vec();
            items.push((*vals[1]).clone());
            Ok(Value::Array(items))
        }
        "CONCAT" => {
            let mut s = String::new();
            for v in vals {
                match &**v {
                    Value::Null => {}
                    Value::Str(t) => s.push_str(t),
                    other => s.push_str(&other.to_string()),
                }
            }
            Ok(Value::Str(s))
        }
        "UPPER" | "LOWER" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let s = vals[0].expect_str(name)?;
            Ok(Value::Str(if name == "UPPER" {
                s.to_uppercase()
            } else {
                s.to_lowercase()
            }))
        }
        "SUBSTRING" => {
            if !(2..=3).contains(&argc) {
                return wrong_arity("2 or 3");
            }
            let s: Vec<char> = vals[0].expect_str("SUBSTRING")?.chars().collect();
            let start = vals[1].expect_int("SUBSTRING start")?.max(0) as usize;
            let len = match vals.get(2) {
                Some(v) => v.expect_int("SUBSTRING length")?.max(0) as usize,
                None => s.len().saturating_sub(start),
            };
            Ok(Value::Str(s.iter().skip(start).take(len).collect()))
        }
        "CONTAINS" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            match (&*vals[0], &*vals[1]) {
                (Value::Str(s), Value::Str(sub)) => Ok(Value::Bool(s.contains(sub.as_str()))),
                (Value::Array(a), v) => Ok(Value::Bool(a.contains(v))),
                _ => Ok(Value::Bool(false)),
            }
        }
        "ABS" | "FLOOR" | "CEIL" | "ROUND" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            match &*vals[0] {
                Value::Int(i) if name == "ABS" => Ok(Value::Int(i.abs())),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(match name {
                    "ABS" => Value::Float(f.abs()),
                    "FLOOR" => Value::Int(f.floor() as i64),
                    "CEIL" => Value::Int(f.ceil() as i64),
                    _ => Value::Int(f.round() as i64),
                }),
                other => Err(Error::type_err("number", other.type_name())),
            }
        }
        "TO_STRING" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(Value::Str(match &*vals[0] {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            }))
        }
        "TO_NUMBER" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(match &*vals[0] {
                Value::Int(i) => Value::Int(*i),
                Value::Float(f) => Value::Float(*f),
                Value::Str(s) => match s.trim().parse::<i64>() {
                    Ok(i) => Value::Int(i),
                    Err(_) => s
                        .trim()
                        .parse::<f64>()
                        .map(Value::Float)
                        .unwrap_or(Value::Null),
                },
                Value::Bool(b) => Value::Int(i64::from(*b)),
                _ => Value::Null,
            })
        }
        "MERGE" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let mut base = (*vals[0]).clone();
            base.merge_from((*vals[1]).clone());
            Ok(base)
        }
        "KEYS" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let obj = vals[0].expect_object("KEYS")?;
            Ok(Value::Array(
                obj.keys().map(|k| Value::from(k.clone())).collect(),
            ))
        }
        "VALUES" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let obj = vals[0].expect_object("VALUES")?;
            Ok(Value::Array(obj.values().cloned().collect()))
        }
        "HAS" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let obj = vals[0].expect_object("HAS")?;
            Ok(Value::Bool(
                obj.contains_key(vals[1].expect_str("HAS key")?),
            ))
        }
        "RANGE" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let a = vals[0].expect_int("RANGE start")?;
            let b = vals[1].expect_int("RANGE end")?;
            Ok(Value::Array((a..=b).map(Value::Int).collect()))
        }
        "DOCUMENT" => wrong_arity("2"),
        "NEIGHBORS" => {
            if !(3..=4).contains(&argc) {
                return wrong_arity("3 or 4");
            }
            let graph = vals[0].expect_str("NEIGHBORS graph")?;
            let key = Key::new((*vals[1]).clone())?;
            let dir = match vals[2]
                .expect_str("NEIGHBORS direction")?
                .to_ascii_uppercase()
                .as_str()
            {
                "OUT" | "OUTBOUND" => Direction::Out,
                "IN" | "INBOUND" => Direction::In,
                "ANY" | "BOTH" => Direction::Both,
                other => return Err(Error::Invalid(format!("unknown direction `{other}`"))),
            };
            let label = match vals.get(3).map(|v| &**v) {
                Some(Value::Str(s)) => Some(s.as_str()),
                Some(Value::Null) | None => None,
                Some(other) => return Err(Error::type_err("Str (label)", other.type_name())),
            };
            let keys = txn.neighbors(graph, &key, dir, label)?;
            Ok(Value::Array(
                keys.into_iter().map(Key::into_value).collect(),
            ))
        }
        "XPATH" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let expr_s = vals[1].expect_str("XPATH expression")?;
            let compiled = udbms_xml::XPath::parse(expr_s)?;
            if vals[0].is_null() {
                return Ok(Value::Array(Vec::new()));
            }
            let node = udbms_xml::value_to_xml(&vals[0])?;
            Ok(Value::Array(compiled.values(&node)))
        }
        "XPATH_FIRST" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let expr_s = vals[1].expect_str("XPATH_FIRST expression")?;
            let compiled = udbms_xml::XPath::parse(expr_s)?;
            if vals[0].is_null() {
                return Ok(Value::Null);
            }
            let node = udbms_xml::value_to_xml(&vals[0])?;
            Ok(compiled
                .values(&node)
                .into_iter()
                .next()
                .unwrap_or(Value::Null))
        }
        other => Err(Error::NotFound(format!("function `{other}`"))),
    }
}

/// First occurrences under canonical equality, in input order: `UNIQUE()`
/// and `RETURN DISTINCT`.
pub(crate) fn distinct(items: Vec<Value>) -> Vec<Value> {
    let mut seen = std::collections::BTreeSet::new();
    let first: Vec<bool> = items.iter().map(|v| seen.insert(v)).collect();
    items
        .into_iter()
        .zip(first)
        .filter_map(|(v, first)| first.then_some(v))
        .collect()
}

/// One running aggregate, folded a value at a time: the single
/// aggregation behind `COLLECT … AGGREGATE` (one per group and output)
/// and the array functions `SUM`/`AVG`/`MIN`/`MAX`.
#[derive(Debug)]
pub(crate) enum Accumulator {
    /// Every input counts, `NULL` included.
    Count(i64),
    /// `SUM` or `AVG` over the `n` numeric inputs, in arrival order. While
    /// every non-null input is an `Int` the answer is `int`, summed in
    /// `i64` under `+`'s wrapping rule; otherwise it is `float`, the plain
    /// left-to-right `f64` sum.
    Sum {
        avg: bool,
        n: usize,
        int: i64,
        float: f64,
        exact: bool,
    },
    /// `MIN` or `MAX` in the canonical order, nulls skipped. Among equal
    /// inputs `MIN` keeps the first and `MAX` the last.
    Extreme { max: bool, best: Option<Value> },
}

impl Accumulator {
    /// The empty aggregate of `func`.
    pub(crate) fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum | AggFunc::Avg => Accumulator::Sum {
                avg: func == AggFunc::Avg,
                n: 0,
                int: 0,
                float: -0.0, // where std's `Sum for f64` starts
                exact: true,
            },
            AggFunc::Min | AggFunc::Max => Accumulator::Extreme {
                max: func == AggFunc::Max,
                best: None,
            },
        }
    }

    /// Fold one input in.
    pub(crate) fn push(&mut self, v: &Value) {
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::Sum {
                n,
                int,
                float,
                exact,
                ..
            } => {
                match v {
                    Value::Null => return,
                    Value::Int(i) => *int = int.wrapping_add(*i),
                    _ => *exact = false,
                }
                if let Some(x) = v.as_float() {
                    *float += x;
                    *n += 1;
                }
            }
            Accumulator::Extreme { max, best } => {
                let better = !v.is_null()
                    && best
                        .as_ref()
                        .is_none_or(|b| if *max { v >= b } else { v < b });
                if better {
                    *best = Some(v.clone());
                }
            }
        }
    }

    /// The aggregate's value; `NULL` when nothing countable came in.
    pub(crate) fn finish(self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int(n),
            Accumulator::Sum { n: 0, .. } => Value::Null,
            Accumulator::Sum {
                avg: false,
                exact: true,
                int,
                ..
            } => Value::Int(int),
            Accumulator::Sum {
                avg,
                n,
                int,
                float,
                exact,
            } => {
                let sum = if exact { int as f64 } else { float };
                Value::Float(if avg { sum / n as f64 } else { sum })
            }
            Accumulator::Extreme { best, .. } => best.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;
    use udbms_core::{arr, obj, CollectionSchema};
    use udbms_engine::{Engine, Isolation};

    fn eval_str(src: &str) -> Value {
        let engine = Engine::new();
        engine
            .create_collection(CollectionSchema::key_value("kv"))
            .unwrap();
        let mut txn = engine.begin(Isolation::Snapshot);
        let stmt = parser::parse(&format!("RETURN {src}")).unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        eval(&body.ret, &Env::new(), &mut txn).unwrap()
    }

    #[test]
    fn arithmetic_and_types() {
        assert_eq!(eval_str("1 + 2"), Value::Int(3));
        assert_eq!(eval_str("1 + 2.5"), Value::Float(3.5));
        assert_eq!(eval_str("7 % 3"), Value::Int(1));
        assert_eq!(eval_str("1 / 0"), Value::Null);
        assert_eq!(eval_str("7 % 0"), Value::Null);
        assert_eq!(eval_str("2 * 3 + 1"), Value::Int(7));
        assert_eq!(eval_str("-5"), Value::Int(-5));
        assert_eq!(eval_str("\"a\" + \"b\""), Value::from("ab"));
        assert_eq!(eval_str("[1] + [2]"), arr![1, 2]);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval_str("1 < 2 AND 2 < 3"), Value::Bool(true));
        assert_eq!(
            eval_str("1 == 1.0"),
            Value::Bool(true),
            "canonical equality"
        );
        assert_eq!(eval_str("NOT NULL"), Value::Bool(true));
        assert_eq!(eval_str("FALSE OR 5"), Value::Bool(true), "truthiness");
        assert_eq!(eval_str("2 IN [1, 2]"), Value::Bool(true));
        assert_eq!(eval_str("3 IN [1, 2]"), Value::Bool(false));
        assert_eq!(eval_str("\"abc\" LIKE \"a%\""), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // UPPER(1) would be a type error; AND must not evaluate it
        assert_eq!(eval_str("FALSE AND UPPER(1)"), Value::Bool(false));
        assert_eq!(eval_str("TRUE OR UPPER(1)"), Value::Bool(true));
    }

    #[test]
    fn member_access_variants() {
        assert_eq!(eval_str("{a: {b: [10, 20]}}.a.b[1]"), Value::Int(20));
        assert_eq!(eval_str("[1, 2, 3][-1]"), Value::Int(3), "negative index");
        assert_eq!(eval_str("{a: 1}[\"a\"]"), Value::Int(1));
        assert_eq!(eval_str("{a: 1}.missing"), Value::Null);
        assert_eq!(eval_str("[1][9]"), Value::Null);
    }

    #[test]
    fn array_functions() {
        assert_eq!(eval_str("LENGTH([1, 2, 3])"), Value::Int(3));
        assert_eq!(
            eval_str("LENGTH(\"häh\")"),
            Value::Int(3),
            "chars, not bytes"
        );
        assert_eq!(eval_str("SUM([1, 2, 3])"), Value::Int(6));
        assert_eq!(eval_str("SUM([1.5, 2.5])"), Value::Float(4.0));
        assert_eq!(eval_str("AVG([1, 2, 3])"), Value::Float(2.0));
        assert_eq!(eval_str("MIN([3, 1, 2])"), Value::Int(1));
        assert_eq!(eval_str("MAX([3, NULL, 2])"), Value::Int(3));
        assert_eq!(eval_str("SUM([])"), Value::Null);
        assert_eq!(eval_str("FIRST([7, 8])"), Value::Int(7));
        assert_eq!(eval_str("LAST([7, 8])"), Value::Int(8));
        assert_eq!(eval_str("UNIQUE([1, 2, 1, 3])"), arr![1, 2, 3]);
        assert_eq!(eval_str("FLATTEN([[1, 2], 3, [4]])"), arr![1, 2, 3, 4]);
        assert_eq!(eval_str("APPEND([1], 2)"), arr![1, 2]);
        assert_eq!(eval_str("RANGE(1, 4)"), arr![1, 2, 3, 4]);
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            eval_str("CONCAT(\"a\", 1, NULL, \"b\")"),
            Value::from("a1b")
        );
        assert_eq!(eval_str("UPPER(\"abc\")"), Value::from("ABC"));
        assert_eq!(eval_str("LOWER(\"ABC\")"), Value::from("abc"));
        assert_eq!(eval_str("SUBSTRING(\"hello\", 1, 3)"), Value::from("ell"));
        assert_eq!(eval_str("SUBSTRING(\"hello\", 3)"), Value::from("lo"));
        assert_eq!(eval_str("CONTAINS(\"hello\", \"ell\")"), Value::Bool(true));
        assert_eq!(eval_str("CONTAINS([1, 2], 2)"), Value::Bool(true));
    }

    #[test]
    fn numeric_and_misc_functions() {
        assert_eq!(eval_str("ABS(-3)"), Value::Int(3));
        assert_eq!(eval_str("FLOOR(2.7)"), Value::Int(2));
        assert_eq!(eval_str("CEIL(2.1)"), Value::Int(3));
        assert_eq!(eval_str("ROUND(2.5)"), Value::Int(3));
        assert_eq!(eval_str("TO_STRING(42)"), Value::from("42"));
        assert_eq!(eval_str("TO_NUMBER(\"42\")"), Value::Int(42));
        assert_eq!(eval_str("TO_NUMBER(\"4.5\")"), Value::Float(4.5));
        assert_eq!(eval_str("TO_NUMBER(\"zzz\")"), Value::Null);
        assert_eq!(eval_str("COALESCE(NULL, NULL, 7)"), Value::Int(7));
        assert_eq!(eval_str("MERGE({a: 1}, {b: 2})"), obj! {"a" => 1, "b" => 2});
        assert_eq!(eval_str("KEYS({b: 1, a: 2})"), arr!["a", "b"]);
        assert_eq!(eval_str("VALUES({b: 1, a: 2})"), arr![2, 1]);
        assert_eq!(eval_str("HAS({a: 1}, \"a\")"), Value::Bool(true));
    }

    #[test]
    fn xpath_function_on_bridge_value() {
        let engine = Engine::new();
        engine
            .create_collection(CollectionSchema::xml("inv"))
            .unwrap();
        let mut txn = engine.begin(Isolation::Snapshot);
        txn.put_xml("inv", Key::int(1), "<Invoice><Total>9.50</Total></Invoice>")
            .unwrap();
        let stmt =
            parser::parse("RETURN XPATH_FIRST(DOCUMENT(\"inv\", 1), \"/Invoice/Total/text()\")")
                .unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        let out = eval(&body.ret, &Env::new(), &mut txn).unwrap();
        assert_eq!(out, Value::from("9.50"));
    }

    #[test]
    fn unknown_function_and_bad_arity() {
        let engine = Engine::new();
        let mut txn = engine.begin(Isolation::Snapshot);
        let bad = parser::parse("RETURN NO_SUCH_FN(1)").unwrap();
        let crate::ast::Statement::Query(body) = bad else {
            panic!()
        };
        assert!(eval(&body.ret, &Env::new(), &mut txn).is_err());

        let bad = parser::parse("RETURN LENGTH(1, 2)").unwrap();
        let crate::ast::Statement::Query(body) = bad else {
            panic!()
        };
        assert!(eval(&body.ret, &Env::new(), &mut txn).is_err());
    }

    #[test]
    fn env_shadowing_and_object() {
        let env = Env::new().with("x", Value::Int(1)).with("x", Value::Int(2));
        assert_eq!(env.get("x"), Some(&Value::Int(2)));
        assert_eq!(env.get("y"), None);
        assert_eq!(env.as_object().get_field("x"), &Value::Int(2));
    }

    #[test]
    fn const_folding() {
        let stmt = parser::parse("RETURN 1 + 2 * 3").unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        assert_eq!(eval_const(&body.ret), Some(Value::Int(7)));
        let stmt = parser::parse("RETURN x + 1").unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        assert_eq!(eval_const(&body.ret), None);
    }

    #[test]
    fn integer_sums_stay_exact() {
        // 2^53 + 1 is not an f64
        assert_eq!(
            eval_str("SUM([9007199254740992, 1])"),
            Value::Int(9_007_199_254_740_993)
        );
        assert_eq!(
            eval_str("SUM([9223372036854775807, 1])"),
            eval_str("9223372036854775807 + 1"),
            "overflow follows `+`"
        );
        assert_eq!(eval_str("SUM([NULL, NULL])"), Value::Null);
        assert_eq!(eval_str("AVG([NULL])"), Value::Null);
        assert_eq!(eval_str("SUM([1, NULL, 2.5, 3])"), Value::Float(6.5));
        assert_eq!(eval_str("SUM([2.5, 1])"), Value::Float(3.5));
        assert_eq!(eval_str("AVG([1, NULL, 2.5])"), Value::Float(1.75));
        assert_eq!(eval_str("AVG([1, 2])"), Value::Float(1.5));
        assert_eq!(eval_str("SUM([1, 2, NULL])"), Value::Int(3));
        // a non-numeric input is skipped, and makes the sum a Float
        assert_eq!(eval_str("SUM([1, \"x\", 2])"), Value::Float(3.0));
        assert_eq!(eval_str("SUM([\"x\"])"), Value::Null);
        // callers around the aggregates are untouched
        assert_eq!(eval_str("LENGTH([1, NULL, 3])"), Value::Int(3));
        assert_eq!(eval_str("MIN([NULL])"), Value::Null);
        assert_eq!(eval_str("MIN([2, 1.0, 1])"), Value::Float(1.0), "first");
        assert_eq!(eval_str("MAX([1.0, 1, 0])"), Value::Int(1), "last");
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        let items: Vec<Value> = (0..10_000).map(|i| Value::Int(i % 100)).rev().collect();
        let want: Vec<Value> = (0..100).map(Value::Int).rev().collect();
        assert_eq!(distinct(items), want);
        let one = distinct(vec![Value::Int(1), Value::Float(1.0)]);
        assert!(
            matches!(one[..], [Value::Int(1)]),
            "canonical equality: {one:?}"
        );
    }

    #[test]
    fn evaluation_borrows_instead_of_copying() {
        let engine = Engine::new();
        engine
            .create_collection(CollectionSchema::key_value("kv"))
            .unwrap();
        let mut txn = engine.begin(Isolation::Snapshot);
        txn.put("kv", Key::int(1), obj! {"a" => obj! {"b" => arr![10, 20]}})
            .unwrap();
        let env = Env::new().with("o", obj! {"a" => obj! {"b" => arr![10, 20]}});
        let ret = |src: &str| {
            let crate::ast::Statement::Query(body) = parser::parse(src).unwrap() else {
                panic!()
            };
            body.ret
        };
        // a variable and a path under it are references into the frame
        let bound = env.get("o").unwrap();
        for (src, want) in [
            ("RETURN o", bound),
            ("RETURN o.a.b", bound.get_field("a").get_field("b")),
            (
                "RETURN o.a.b[-1]",
                &bound.get_field("a").get_field("b").as_array().unwrap()[1],
            ),
            ("RETURN o[\"a\"]", bound.get_field("a")),
        ] {
            let expr = ret(src);
            let Val::Ref(got) = eval_ref(&expr, &env, &mut txn).unwrap() else {
                panic!("{src} must borrow")
            };
            assert!(std::ptr::eq(got, want), "{src}");
        }
        // DOCUMENT hands out the stored record, and LET would bind it as is
        let expr = ret("RETURN DOCUMENT(\"kv\", 1)");
        let Val::Shared(doc) = eval_ref(&expr, &env, &mut txn).unwrap() else {
            panic!("DOCUMENT must share")
        };
        let stored = txn.get_shared("kv", &Key::int(1)).unwrap().unwrap();
        assert!(Arc::ptr_eq(&doc, &stored));
        assert!(Arc::ptr_eq(&Val::Shared(doc).into_shared(), &stored));
        let expr = ret("RETURN DOCUMENT(\"kv\", 2)");
        assert_eq!(eval(&expr, &env, &mut txn).unwrap(), Value::Null);
        assert!(eval(&ret("RETURN DOCUMENT(\"kv\")"), &env, &mut txn).is_err());
    }
}
