//! The MMQL executor: a materialized clause pipeline with predicate
//! pushdown into the engine's index-accelerated `Txn::rows`.
//!
//! Read-path fast lanes (see DESIGN.md "Read path"):
//! * everything below is decided once per query body, in its
//!   [`ClausePlan`]s, and reused by every execution and by `explain`;
//! * collection sources iterate `Arc`-shared rows (`Txn::for_each_row`)
//!   and expressions evaluate borrowed — no per-row deep clone between
//!   storage and the result;
//! * a residual `FILTER` that is row-local compiles into a
//!   [`CompiledPred`] closure tree and runs against the borrowed row,
//!   skipping the `Env` binding for rejected rows;
//! * `FOR … [FILTER …] LIMIT o, n` stops the engine's walk after `o + n`
//!   rows so the tail of the collection is never touched;
//! * `COLLECT` folds rows into per-group accumulators (one flat slab) as
//!   they arrive, grouping through a flat table: keys in one slab, one
//!   keyed folded-multiply hash and one probe per row, nothing cloned
//!   (`crate::group`); it runs a `SORT` on its names right behind it and
//!   a `LIMIT` after that, binding kept groups;
//! * a `SORT` keeps the window of a `LIMIT` right behind it by selection;
//! * when it directly follows a collection `FOR` whose filter is pushed
//!   or compiled, and its group keys and aggregate inputs compile too,
//!   the fold runs inside the engine's key-ordered walk on the stored
//!   rows — no `Env`, no row vector, no key clone per row.

use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

use udbms_core::{Error, Key, Result, Value};
use udbms_engine::Txn;
use udbms_relational::Predicate;

use crate::ast::*;
use crate::compile::CompiledPred;
use crate::eval::{distinct, eval_const, eval_ref, Accumulator, Env, Val};
use crate::group::GroupTable;

/// What the executor derives from a clause before running it.
#[derive(Debug, Default)]
pub(crate) struct ClausePlan {
    /// The names the clause binds, interned so that a row binding is two
    /// refcount bumps: the `FOR`/`LET` variable, or a `COLLECT`'s group
    /// keys, then aggregates, then `INTO`.
    names: Vec<Arc<str>>,
    /// For a `FOR` over a collection: how the clauses after it fold
    /// into the scan.
    scan: Option<ScanPlan>,
    /// For a `COLLECT` that runs the `SORT` behind it, on names it binds:
    /// each key's column in `names` (a repeated name's last) and `ASC`.
    group_sort: Option<Vec<(usize, bool)>>,
    /// The `LIMIT` right behind a `SORT` this clause is or runs, if any.
    window: Option<(usize, usize)>,
}

/// How a `FOR` over a collection reads it. Void when the name turns out
/// to be a bound variable at run time (bound variables win).
#[derive(Debug, Default)]
struct ScanPlan {
    /// The `FILTER` after the `FOR` is folded into the scan.
    fused_filter: bool,
    /// Its conjuncts the engine evaluates, through indexes where it can.
    pushed: Option<Predicate>,
    /// Conjuncts pushed per outer row (`o.customer == c.id`): index
    /// nested-loop joins for correlated filters.
    dynamic: Vec<DynPred>,
    /// What is left for the executor, and its compiled form if row-local.
    residual: Option<Expr>,
    compiled: Option<CompiledPred>,
    /// `offset + count` of a directly following `LIMIT`: sound to cap the
    /// walk per outer row because output concatenates per-row blocks in
    /// order, so rows past that prefix can never surface.
    limit: Option<usize>,
    /// A directly following `COLLECT` without `INTO`, compiled to run on
    /// the stored rows: set only when nothing in the filter needs an
    /// `Env` (no dynamic conjunct, no interpreted residual).
    fold: Option<Fold>,
}

/// A `COLLECT`'s group keys and aggregate inputs, in clause order,
/// compiled against the `FOR` variable.
#[derive(Debug)]
struct Fold {
    keys: Vec<CompiledPred>,
    inputs: Vec<CompiledPred>,
}

impl Fold {
    /// `None` unless every expression compiles.
    fn compile(
        groups: &[(String, Expr)],
        aggregates: &[(String, AggFunc, Expr)],
        var: &str,
    ) -> Option<Fold> {
        let compile = |e: &Expr| CompiledPred::compile(e, var);
        Some(Fold {
            keys: groups
                .iter()
                .map(|(_, e)| compile(e))
                .collect::<Option<_>>()?,
            inputs: (aggregates.iter().map(|(_, _, e)| compile(e))).collect::<Option<_>>()?,
        })
    }
}

/// A body's plan — entry `i` for clause `i` — derived on first use.
/// Cloning or rebinding a body starts over; equality ignores it.
#[derive(Debug, Default)]
pub struct PlanCell(OnceLock<Vec<ClausePlan>>);

impl Clone for PlanCell {
    fn clone(&self) -> PlanCell {
        PlanCell::default()
    }
}

impl PartialEq for PlanCell {
    fn eq(&self, _: &PlanCell) -> bool {
        true
    }
}

impl QueryBody {
    fn plan(&self) -> &[ClausePlan] {
        self.plan.0.get_or_init(|| {
            let plan =
                |(i, clause): (usize, &Clause)| ClausePlan::new(clause, &self.clauses[i + 1..]);
            self.clauses.iter().enumerate().map(plan).collect()
        })
    }
}

impl ClausePlan {
    /// Plan `clause`, which `rest` follows.
    fn new(clause: &Clause, rest: &[Clause]) -> ClausePlan {
        let intern = |name: &String| Arc::<str>::from(name.as_str());
        let window = |at: usize| match rest.get(at) {
            Some(Clause::Limit { offset, count }) => Some((*offset, *count)),
            _ => None,
        };
        match clause {
            Clause::For { var, source } => ClausePlan {
                names: vec![intern(var)],
                scan: matches!(source, Source::Collection(_)).then(|| ScanPlan::new(var, rest)),
                ..ClausePlan::default()
            },
            Clause::Let { var, .. } => ClausePlan {
                names: vec![intern(var)],
                ..ClausePlan::default()
            },
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => {
                let names: Vec<Arc<str>> = (groups.iter().map(|(name, _)| name))
                    .chain(aggregates.iter().map(|(name, _, _)| name))
                    .chain(into)
                    .map(intern)
                    .collect();
                let column = |(key, asc): &(Expr, bool)| match key {
                    Expr::Var(v) => names.iter().rposition(|n| **n == **v).map(|c| (c, *asc)),
                    _ => None,
                };
                let group_sort: Option<Vec<_>> = match rest.first() {
                    Some(Clause::Sort { keys }) => keys.iter().map(column).collect(),
                    _ => None,
                };
                ClausePlan {
                    window: group_sort.as_ref().and(window(1)),
                    group_sort,
                    names,
                    scan: None,
                }
            }
            Clause::Sort { .. } => ClausePlan {
                window: window(0),
                ..ClausePlan::default()
            },
            _ => ClausePlan::default(),
        }
    }

    /// How many of the clauses after this one it runs itself.
    fn consumed(&self) -> usize {
        usize::from(self.group_sort.is_some()) + usize::from(self.window.is_some())
    }
}

/// Rows `0..rows` ordered by `columns` (each compared by `cmp(a, b, c)`,
/// ascending or not), then by `tie`, and cut to `window`: only the first
/// `offset + count` are selected and sorted. `tie` holds no two rows
/// equal, so the unstable sorts give the one answer.
fn order_window(
    rows: usize,
    columns: impl Iterator<Item = (usize, bool)> + Clone,
    window: Option<(usize, usize)>,
    cmp: impl Fn(usize, usize, usize) -> Ordering,
    tie: impl Fn(usize, usize) -> Ordering,
) -> Vec<usize> {
    let by = |&a: &usize, &b: &usize| {
        let mut ords = columns.clone().map(|(c, asc)| (cmp(a, b, c), asc));
        match ords.find(|(ord, _)| ord.is_ne()) {
            Some((ord, true)) => ord,
            Some((ord, false)) => ord.reverse(),
            None => tie(a, b),
        }
    };
    let (offset, count) = window.unwrap_or((0, usize::MAX));
    let end = offset.saturating_add(count);
    let mut order: Vec<usize> = (0..rows).collect();
    if end < rows {
        order.select_nth_unstable_by(end.saturating_sub(1), by);
        order.truncate(end);
    }
    order.sort_unstable_by(by);
    order.drain(..offset.min(order.len()));
    order
}

impl ScanPlan {
    /// Plan a `FOR var IN collection` followed by `rest`.
    fn new(var: &str, rest: &[Clause]) -> ScanPlan {
        let mut plan = ScanPlan::default();
        if let Some(Clause::Filter(f)) = rest.first() {
            let (pushed, dynamic, residual) = extract_predicates(f, var);
            let compiled = residual
                .as_ref()
                .and_then(|r| CompiledPred::compile(r, var));
            // fuse when something pushes into the engine, or when the
            // whole filter compiles and so runs against borrowed rows
            if pushed.is_some() || !dynamic.is_empty() || compiled.is_some() {
                plan = ScanPlan {
                    fused_filter: true,
                    pushed,
                    dynamic,
                    residual,
                    compiled,
                    limit: None,
                    fold: None,
                };
            }
        }
        if !plan.dynamic.is_empty() {
            return plan;
        }
        match rest.get(usize::from(plan.fused_filter)) {
            Some(Clause::Limit { offset, count }) if plan.residual.is_none() => {
                plan.limit = offset.checked_add(*count);
            }
            Some(Clause::Collect {
                groups,
                aggregates,
                into: None,
            }) if plan.residual.is_none() || plan.compiled.is_some() => {
                plan.fold = Fold::compile(groups, aggregates, var);
            }
            _ => {}
        }
        plan
    }

    /// The engine predicate for one outer row: the static part plus the
    /// dynamic conjuncts bound against `env`.
    fn bind(&self, env: &Env, txn: &mut Txn) -> Result<Predicate> {
        let mut parts: Vec<Predicate> = match &self.pushed {
            Some(Predicate::And(ps)) => ps.clone(),
            Some(p) => vec![p.clone()],
            None => Vec::new(),
        };
        for d in &self.dynamic {
            parts.extend(d.predicate(eval_ref(&d.rhs, env, txn)?.into_owned()));
        }
        Ok(if parts.len() == 1 {
            parts.remove(0)
        } else {
            Predicate::And(parts)
        })
    }
}

/// Execute a parsed statement inside a transaction.
pub fn execute(stmt: &Statement, txn: &mut Txn) -> Result<Vec<Value>> {
    let env = Env::new();
    match stmt {
        Statement::Query(body) => run_body(body, &env, txn),
        Statement::Insert { value, collection } => {
            let v = eval_ref(value, &env, txn)?.into_owned();
            let key = txn.insert(collection, v)?;
            Ok(vec![key.into_value()])
        }
        Statement::Update {
            key,
            patch,
            collection,
        } => {
            let k = Key::new(eval_ref(key, &env, txn)?.into_owned())?;
            let p = eval_ref(patch, &env, txn)?.into_owned();
            txn.merge(collection, &k, p)?;
            Ok(vec![Value::Bool(true)])
        }
        Statement::Remove { key, collection } => {
            let k = Key::new(eval_ref(key, &env, txn)?.into_owned())?;
            let existed = txn.delete(collection, &k)?;
            Ok(vec![Value::Bool(existed)])
        }
    }
}

/// Run a query body under a base environment (used for subqueries, which
/// inherit the outer scope).
pub fn run_body(body: &QueryBody, base: &Env, txn: &mut Txn) -> Result<Vec<Value>> {
    let plan = body.plan();
    let mut rows: Vec<Env> = vec![base.clone()];
    let mut i = 0;
    while i < body.clauses.len() {
        let names = &plan[i].names;
        match &body.clauses[i] {
            Clause::For { source, .. } => {
                // `FOR x IN name` is ambiguous between a collection and a
                // bound variable holding an array; bound variables win
                // (binding names are uniform across rows of a stage).
                let shadowed = matches!(source, Source::Collection(name)
                    if rows.first().is_some_and(|env| env.get(name).is_some()));
                let scan = plan[i].scan.as_ref().filter(|_| !shadowed);
                i += usize::from(scan.is_some_and(|s| s.fused_filter));
                // a COLLECT right behind takes the rows as they come
                let mut collector = match body.clauses.get(i + 1) {
                    Some(Clause::Collect {
                        groups,
                        aggregates,
                        into,
                    }) => {
                        i += 1;
                        Some(Collector::new(groups, aggregates, into, &plan[i]))
                    }
                    _ => None,
                };
                let compiled = scan.and_then(|s| s.compiled.as_ref());
                let residual = scan.and_then(|s| s.residual.as_ref());
                let mut next = Vec::new();
                for env in &rows {
                    if let (Source::Collection(name), Some(scan), Some(c)) =
                        (source, scan, &mut collector)
                    {
                        if let Some(fold) = &scan.fold {
                            c.fold_scan(name, scan, fold, txn)?;
                            continue;
                        }
                    }
                    for item in source_items(source, scan, env, txn)? {
                        // a compiled filter runs on the borrowed row: only
                        // survivors pay for an environment frame
                        if let Some(cp) = compiled {
                            if !cp.matches(&item)? {
                                continue;
                            }
                        }
                        let child = env.bind(&names[0], item);
                        if let (None, Some(r)) = (compiled, residual) {
                            if !eval_ref(r, &child, txn)?.is_truthy() {
                                continue;
                            }
                        }
                        match &mut collector {
                            Some(c) => c.push(&child, txn)?,
                            None => next.push(child),
                        }
                    }
                }
                rows = collector.map_or(next, |c| c.finish(base));
            }
            Clause::Filter(expr) => {
                let mut next = Vec::with_capacity(rows.len());
                for env in rows {
                    if eval_ref(expr, &env, txn)?.is_truthy() {
                        next.push(env);
                    }
                }
                rows = next;
            }
            Clause::Let { value, .. } => {
                let mut next = Vec::with_capacity(rows.len());
                for env in rows {
                    let v = eval_ref(value, &env, txn)?.into_shared();
                    next.push(env.bind(&names[0], v));
                }
                rows = next;
            }
            Clause::Sort { keys } => {
                // row `r`'s keys sit at `r * width..`; ties keep input order
                let width = keys.len();
                let mut kvals = Vec::with_capacity(rows.len() * width);
                for env in &rows {
                    for (e, _) in keys {
                        kvals.push(eval_ref(e, env, txn)?);
                    }
                }
                let order = order_window(
                    rows.len(),
                    keys.iter().map(|(_, asc)| *asc).enumerate(),
                    plan[i].window,
                    |a, b, k| kvals[a * width + k].canonical_cmp(&kvals[b * width + k]),
                    |a, b| a.cmp(&b),
                );
                rows = (order.into_iter().map(|r| std::mem::take(&mut rows[r]))).collect();
            }
            Clause::Limit { offset, count } => {
                rows = rows.into_iter().skip(*offset).take(*count).collect();
            }
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => {
                let mut collector = Collector::new(groups, aggregates, into, &plan[i]);
                for env in &rows {
                    collector.push(env, txn)?;
                }
                rows = collector.finish(base);
            }
        }
        i += 1 + plan[i].consumed();
    }
    let mut out = Vec::with_capacity(rows.len());
    for env in &rows {
        out.push(eval_ref(&body.ret, env, txn)?.into_owned());
    }
    Ok(if body.distinct { distinct(out) } else { out })
}

/// `COLLECT`: one set of accumulators per group, folded as rows arrive,
/// so no group ever holds its member rows — unless `INTO` asks for
/// them, which is one more thing to accumulate.
///
/// One grouping and accumulation core with two front ends for the
/// clause's expressions: [`Collector::push`] interprets them on an
/// [`Env`], [`Collector::push_row`] runs their compiled forms on a
/// borrowed row. Either way a group's accumulators take their inputs in
/// row order — the collection's key order for a scan — so a float sum
/// is the same left-to-right sum whatever the shard count.
struct Collector<'q> {
    groups: &'q [(String, Expr)],
    aggregates: &'q [(String, AggFunc, Expr)],
    into: bool,
    /// The clause's plan: its names, and the `SORT`/`LIMIT` it took.
    plan: &'q ClausePlan,
    /// Group key → group number, in order of first appearance. The first
    /// row's key values stand for the group.
    table: GroupTable,
    /// Group `slot`'s accumulators at `slot * aggregates.len()..`.
    accumulators: Vec<Accumulator>,
    /// Per group under `INTO`: the member rows.
    members: Vec<Vec<Value>>,
    /// The row's key, rebuilt in place (a new group takes its values).
    key: Vec<Value>,
}

impl<'q> Collector<'q> {
    fn new(
        groups: &'q [(String, Expr)],
        aggregates: &'q [(String, AggFunc, Expr)],
        into: &Option<String>,
        plan: &'q ClausePlan,
    ) -> Collector<'q> {
        Collector {
            groups,
            aggregates,
            into: into.is_some(),
            plan,
            table: GroupTable::new(groups.len()),
            accumulators: Vec::new(),
            members: Vec::new(),
            key: Vec::with_capacity(groups.len()),
        }
    }

    /// The accumulators of the group `self.key` names, opened on its
    /// first row, and its number.
    fn group(&mut self) -> Result<(&mut [Accumulator], usize)> {
        let (slot, new) = self.table.group(&mut self.key)?;
        if new {
            let fresh = self.aggregates.iter().map(|(_, f, _)| Accumulator::new(*f));
            self.accumulators.extend(fresh);
            self.members.extend(self.into.then(Vec::new));
        }
        let stride = self.aggregates.len();
        Ok((&mut self.accumulators[slot * stride..][..stride], slot))
    }

    /// Fold in one row bound in `env`, interpreting the expressions.
    fn push(&mut self, env: &Env, txn: &mut Txn) -> Result<()> {
        self.key.clear();
        for (_, e) in self.groups {
            self.key.push(eval_ref(e, env, txn)?.into_owned());
        }
        let aggregates = self.aggregates;
        let (accumulators, slot) = self.group()?;
        for (acc, (_, _, input)) in accumulators.iter_mut().zip(aggregates) {
            acc.push(&*eval_ref(input, env, txn)?);
        }
        if let Some(members) = self.members.get_mut(slot) {
            members.push(env.as_object());
        }
        Ok(())
    }

    /// Fold in one stored row through the compiled expressions.
    fn push_row(&mut self, fold: &Fold, row: &Value) -> Result<()> {
        self.key.clear();
        for key in &fold.keys {
            self.key.push(key.eval(row)?);
        }
        let (accumulators, _) = self.group()?;
        for (acc, input) in accumulators.iter_mut().zip(&fold.inputs) {
            acc.push(&*input.eval_ref(row)?);
        }
        Ok(())
    }

    /// The fused `FOR … [FILTER …] COLLECT`: the engine's walk hands each
    /// stored row over where it lies, and it is filtered and folded in
    /// there.
    fn fold_scan(&mut self, name: &str, scan: &ScanPlan, fold: &Fold, txn: &mut Txn) -> Result<()> {
        let mut fold_in = |row: &Value| -> Result<()> {
            if scan
                .compiled
                .as_ref()
                .map_or(Ok(true), |cp| cp.matches(row))?
            {
                self.push_row(fold, row)?;
            }
            Ok(())
        };
        let flow = txn.for_each_row(name, scan.pushed.as_ref(), |row| match fold_in(row) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => ControlFlow::Break(e),
        })?;
        match flow {
            ControlFlow::Break(e) => Err(e),
            ControlFlow::Continue(()) => Ok(()),
        }
    }

    /// One row per group, in a fresh scope under `base`, ordered from a
    /// table of the groups' values: by key, or by the `SORT` the clause
    /// runs and then by key (a stable `SORT` of the key order), cut to
    /// its `LIMIT`. Only the groups kept are bound.
    fn finish(self, base: &Env) -> Vec<Env> {
        let (groups, width) = (self.table.len(), self.plan.names.len());
        let (keys, stride) = (self.groups.len(), self.aggregates.len());
        let mut table = vec![Value::Null; groups * width];
        for (at, key) in self.table.into_keys().into_iter().enumerate() {
            table[at / keys * width + at % keys] = key;
        }
        for (at, acc) in self.accumulators.into_iter().enumerate() {
            table[at / stride * width + keys + at % stride] = acc.finish();
        }
        for (slot, members) in self.members.into_iter().enumerate() {
            table[slot * width + width - 1] = Value::Array(members);
        }
        let row = |slot: usize| &table[slot * width..][..width];
        let order = order_window(
            groups,
            self.plan.group_sort.iter().flatten().copied(),
            self.plan.window,
            |a, b, c| row(a)[c].cmp(&row(b)[c]),
            |a, b| row(a)[..keys].cmp(&row(b)[..keys]),
        );
        (order.into_iter())
            .map(|slot| {
                let values = (table[slot * width..][..width].iter_mut()).map(std::mem::take);
                (self.plan.names.iter().zip(values))
                    .fold(base.clone(), |env, (name, v)| env.bind(name, Arc::new(v)))
            })
            .collect()
    }
}

/// Materialize the items a `FOR` iterates, as shared row handles.
/// Collection rows come straight out of the MVCC store as `Arc` bumps,
/// read the way `scan` planned; a `Collection` source without a plan is
/// a bound variable of that name.
fn source_items(
    source: &Source,
    scan: Option<&ScanPlan>,
    env: &Env,
    txn: &mut Txn,
) -> Result<Vec<Arc<Value>>> {
    let array = match (source, scan) {
        (Source::Collection(name), Some(scan)) => {
            // only a correlated filter needs a predicate of its own per row
            let bound;
            let pred = if scan.dynamic.is_empty() {
                scan.pushed.as_ref()
            } else {
                bound = scan.bind(env, txn)?;
                Some(&bound)
            };
            // a handle on each visited row, up to the pushed limit
            let limit = scan.limit.unwrap_or(usize::MAX);
            let mut items = Vec::new();
            let _ = txn.for_each_row(name, pred, |row| {
                if items.len() == limit {
                    return ControlFlow::Break(());
                }
                items.push(Arc::clone(row));
                ControlFlow::Continue(())
            })?;
            return Ok(items);
        }
        (Source::Collection(name), None) => Val::Ref(env.get(name).unwrap_or(&Value::Null)),
        (Source::Expr(e), _) => eval_ref(e, env, txn)?,
        (
            Source::Traversal {
                min,
                max,
                dir,
                start,
                graph,
                label,
            },
            _,
        ) => {
            let start_key = Key::new(eval_ref(start, env, txn)?.into_owned())?;
            // BFS layers 0..=max, then flatten layers min..=max.
            let mut layers: Vec<Vec<Key>> = vec![vec![start_key.clone()]];
            let mut seen: std::collections::HashSet<Key> = [start_key].into_iter().collect();
            for _ in 0..*max {
                let mut next = Vec::new();
                #[expect(clippy::expect_used, reason = "layers starts non-empty and only grows")]
                for v in layers.last().expect("layer 0 exists") {
                    for n in txn.neighbors(graph, v, *dir, label.as_deref())? {
                        if seen.insert(n.clone()) {
                            next.push(n);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                layers.push(next);
            }
            let mut out = Vec::new();
            for depth in *min..=*max {
                let Some(layer) = layers.get(depth) else {
                    break;
                };
                for key in layer {
                    // yield the vertex properties with its key attached
                    let mut v = txn.vertex(graph, key)?.unwrap_or(Value::Null);
                    if let Some(obj) = v.as_object_mut() {
                        obj.insert("_key".to_string(), key.value().clone());
                    }
                    out.push(Arc::new(v));
                }
            }
            return Ok(out);
        }
    };
    // an array-valued expression or variable: iterate it where it lies,
    // copying one element at a time
    match array {
        Val::Owned(Value::Array(items)) => Ok(items.into_iter().map(Arc::new).collect()),
        array => match &*array {
            Value::Array(items) => Ok(items.iter().cloned().map(Arc::new).collect()),
            Value::Null => Ok(Vec::new()),
            other => Err(Error::type_err("Array (FOR source)", other.type_name())),
        },
    }
}

/// A pushable conjunct: `var.path OP <rhs>` where `rhs` does not mention
/// `var`. A constant `rhs` makes it an engine predicate at plan time;
/// otherwise a comparison is bound per outer row at execution time.
#[derive(Debug, Clone)]
struct DynPred {
    path: udbms_core::FieldPath,
    op: BinOp,
    rhs: Expr,
}

impl DynPred {
    /// The engine predicate once the right side has a value, if the
    /// engine has one for this operator and value.
    fn predicate(&self, value: Value) -> Option<Predicate> {
        let path = self.path.clone();
        Some(match (self.op, value) {
            (BinOp::Eq, v) => Predicate::Eq(path, v),
            (BinOp::Ne, v) => Predicate::Ne(path, v),
            (BinOp::Lt, v) => Predicate::Lt(path, v),
            (BinOp::Le, v) => Predicate::Le(path, v),
            (BinOp::Gt, v) => Predicate::Gt(path, v),
            (BinOp::Ge, v) => Predicate::Ge(path, v),
            (BinOp::In, Value::Array(items)) => Predicate::In(path, items),
            (BinOp::Like, Value::Str(p)) => Predicate::Like(path, p),
            _ => return None,
        })
    }
}

/// Conjunct classification: `(static predicate, dynamic conjuncts,
/// residual expression)`.
fn extract_predicates(expr: &Expr, var: &str) -> (Option<Predicate>, Vec<DynPred>, Option<Expr>) {
    let mut preds = Vec::new();
    let mut dynamic = Vec::new();
    let mut residual = Vec::new();
    split_conjuncts(expr, var, &mut preds, &mut dynamic, &mut residual);
    let pred = match preds.len() {
        0 | 1 => preds.pop(),
        _ => Some(Predicate::And(preds)),
    };
    let mut residual = residual.into_iter();
    let residual_expr = residual
        .next()
        .map(|first| Expr::chain(first, residual.map(|e| (BinOp::And, e)).collect()));
    (pred, dynamic, residual_expr)
}

fn split_conjuncts(
    expr: &Expr,
    var: &str,
    preds: &mut Vec<Predicate>,
    dynamic: &mut Vec<DynPred>,
    residual: &mut Vec<Expr>,
) {
    // an `AND` chain's operands are its conjuncts
    if let Expr::Chain { first, links } = expr {
        if let Some((BinOp::And, _)) = links.first() {
            split_conjuncts(first, var, preds, dynamic, residual);
            for (_, e) in links {
                split_conjuncts(e, var, preds, dynamic, residual);
            }
            return;
        }
    }
    match pushable(expr, var) {
        Some(d) => match eval_const(&d.rhs) {
            Some(c) => match d.predicate(c) {
                Some(p) => preds.push(p),
                None => residual.push(expr.clone()),
            },
            // only comparisons bind per row
            None if flip(d.op).is_some() => dynamic.push(d),
            None => residual.push(expr.clone()),
        },
        None => residual.push(expr.clone()),
    }
}

/// `var.path OP rhs` — or `rhs OP var.path`, flipped — with `rhs`
/// independent of `var` and `OP` a comparison, `IN` or `LIKE`.
fn pushable(expr: &Expr, var: &str) -> Option<DynPred> {
    let Expr::Binary { op, lhs, rhs } = expr else {
        return None;
    };
    let own_path = |e: &Expr| {
        e.as_var_path()
            .filter(|(v, path)| *v == var && !path.is_root())
            .map(|(_, path)| path)
    };
    // does the other side mention the variable anywhere, subqueries
    // (where it could be captured) included?
    let independent = |e: &Expr| {
        let mut mentioned = false;
        crate::bind::walk_expr(e, &mut |e| {
            mentioned |= matches!(e, Expr::Var(v) if v == var)
        });
        !mentioned
    };
    let (path, op, rhs) = match (own_path(lhs), own_path(rhs)) {
        (Some(path), _) if independent(rhs) => (path, *op, rhs),
        (_, Some(path)) if independent(lhs) => (path, flip(*op)?, lhs),
        _ => return None,
    };
    matches!(
        op,
        BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::In
            | BinOp::Like
    )
    .then(|| DynPred {
        path,
        op,
        rhs: rhs.as_ref().clone(),
    })
}

/// Flip a comparison for `const OP var.path` orientation.
fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Ne => BinOp::Ne,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// Render an execution plan sketch from the plan the executor itself
/// runs on: which FORs push predicates into selects and which scan, how
/// COLLECT aggregates. Static (no catalog access) — index choice is made
/// inside the engine at run time.
pub fn explain(stmt: &Statement) -> String {
    let body = match stmt {
        Statement::Query(body) => body,
        Statement::Insert { collection, .. } => {
            return format!("insert <expression> into collection `{collection}`\n")
        }
        Statement::Update { collection, .. } => {
            return format!("update <key> with <patch> in collection `{collection}`\n")
        }
        Statement::Remove { collection, .. } => {
            return format!("remove <key> in collection `{collection}`\n")
        }
    };
    let plan = body.plan();
    let mut out = String::new();
    // whether the COLLECT up next folds inside the scan before it
    let mut folded = false;
    // the clause that runs the next `n` clauses, and `n`
    let mut runner = ("", 0);
    let mut i = 0;
    while i < body.clauses.len() {
        // which clause runs this one, or what this one runs of the next
        let p = &plan[i];
        let tag = match (runner, &p.group_sort, p.window) {
            ((by, 1..), _, _) => format!(" [folded into the {by}]"),
            (_, Some(_), Some((_, n))) => format!(" [top {n} of the groups]"),
            (_, Some(_), None) => " [sorted with the groups]".to_string(),
            (_, None, Some((_, n))) => format!(" [top {n} by selection]"),
            _ => String::new(),
        };
        runner = match runner {
            (by, n @ 1..) => (by, n - 1),
            _ if p.group_sort.is_some() => ("collect", p.consumed()),
            _ => ("sort", p.consumed()),
        };
        match &body.clauses[i] {
            Clause::For { var, source } => match source {
                Source::Collection(name) => {
                    out.push_str(&format!("for {var} in collection `{name}`"));
                    if let Some(scan) = &plan[i].scan {
                        if let Some(p) = &scan.pushed {
                            out.push_str(&format!(" [pushdown: {p:?}]"));
                        }
                        if !scan.dynamic.is_empty() {
                            let n = scan.dynamic.len();
                            out.push_str(&format!(" [dynamic pushdown: {n} conjunct(s)]"));
                        }
                        if scan.residual.is_some() {
                            out.push_str(match scan.compiled {
                                Some(_) => " [compiled residual]",
                                None => " [residual filter]",
                            });
                        }
                        if let Some(n) = scan.limit {
                            out.push_str(&format!(" [limit pushdown: {n}]"));
                        }
                        folded = scan.fold.is_some();
                        i += usize::from(scan.fused_filter);
                    }
                    out.push('\n');
                }
                Source::Traversal {
                    min,
                    max,
                    dir,
                    graph,
                    label,
                    ..
                } => {
                    out.push_str(&format!(
                        "for {var} in traversal {min}..{max} {dir:?} graph `{graph}` label {label:?}\n"
                    ));
                }
                Source::Expr(_) => out.push_str(&format!("for {var} in <expression>\n")),
            },
            Clause::Filter(_) => out.push_str("filter <expression>\n"),
            Clause::Let { var, .. } => out.push_str(&format!("let {var} = <expression>\n")),
            Clause::Sort { keys } => out.push_str(&format!("sort by {} key(s){tag}\n", keys.len())),
            Clause::Limit { offset, count } => {
                out.push_str(&format!("limit offset={offset} count={count}{tag}\n"))
            }
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => out.push_str(&format!(
                "collect {} group key(s), {} aggregate(s) [streaming, {} accumulator(s)]{} \
                 [hash grouping]{}{tag}\n",
                groups.len(),
                aggregates.len(),
                aggregates.len(),
                if into.is_some() {
                    " [into: materialized members]"
                } else {
                    ""
                },
                if std::mem::take(&mut folded) {
                    " [folded into the scan]"
                } else {
                    ""
                }
            )),
        }
        i += 1;
    }
    out.push_str(if body.distinct {
        "return distinct\n"
    } else {
        "return\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::FieldPath;

    #[test]
    fn predicate_extraction_splits_conjuncts() {
        let stmt = crate::parser::parse(
            "FOR c IN t FILTER c.country == \"FI\" AND c.score > 3 AND LENGTH(c.tags) > 0 RETURN c",
        )
        .unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        let (pred, dynamic, residual) = extract_predicates(f, "c");
        assert!(dynamic.is_empty());
        match pred.unwrap() {
            Predicate::And(ps) => {
                assert_eq!(ps.len(), 2);
                assert_eq!(
                    ps[0],
                    Predicate::Eq(FieldPath::key("country"), Value::from("FI"))
                );
                assert_eq!(ps[1], Predicate::Gt(FieldPath::key("score"), Value::Int(3)));
            }
            other => panic!("{other:?}"),
        }
        assert!(residual.is_some(), "LENGTH() call cannot be pushed");
    }

    #[test]
    fn reversed_comparisons_flip() {
        let stmt = crate::parser::parse("FOR c IN t FILTER 3 < c.score RETURN c").unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        let (pred, dynamic, residual) = extract_predicates(f, "c");
        assert_eq!(
            pred,
            Some(Predicate::Gt(FieldPath::key("score"), Value::Int(3)))
        );
        assert!(dynamic.is_empty() && residual.is_none());
    }

    #[test]
    fn foreign_variables_push_dynamically() {
        let stmt =
            crate::parser::parse("FOR o IN orders FILTER o.customer == c.id RETURN o").unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        let (pred, dynamic, residual) = extract_predicates(f, "o");
        assert!(pred.is_none(), "c.id is not constant");
        assert_eq!(dynamic.len(), 1, "bound per outer row instead");
        assert!(residual.is_none());
    }

    #[test]
    fn in_and_like_push_down() {
        let stmt = crate::parser::parse(
            "FOR c IN t FILTER c.country IN [\"FI\", \"SE\"] AND c.name LIKE \"A%\" RETURN c",
        )
        .unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        let (pred, dynamic, residual) = extract_predicates(f, "c");
        assert!(dynamic.is_empty() && residual.is_none());
        match pred.unwrap() {
            Predicate::And(ps) => {
                assert!(matches!(&ps[0], Predicate::In(_, items) if items.len() == 2));
                assert!(matches!(&ps[1], Predicate::Like(_, p) if p == "A%"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explain_mentions_pushdown() {
        let stmt = crate::parser::parse(
            "FOR c IN customers FILTER c.country == \"FI\" SORT c.name LIMIT 3 RETURN c.name",
        )
        .unwrap();
        let plan = explain(&stmt);
        assert!(plan.contains("pushdown"), "{plan}");
        assert!(plan.contains("collection `customers`"));
        assert!(plan.contains("limit offset=0 count=3"));
    }

    #[test]
    fn explain_mirrors_the_collect_executor() {
        let stmt = crate::parser::parse(
            "FOR o IN orders FILTER o.total > 5 \
             COLLECT c = o.customer AGGREGATE spent = SUM(o.total), n = COUNT() RETURN c",
        )
        .unwrap();
        let plan = explain(&stmt);
        assert!(
            plan.contains("collect 1 group key(s), 2 aggregate(s) [streaming, 2 accumulator(s)]"),
            "{plan}"
        );
        assert!(!plan.contains("[into:"), "{plan}");
        assert!(plan.contains("[pushdown: Gt("), "{plan}");
        assert!(!plan.contains("filter <expression>"), "fused: {plan}");
        assert!(
            plan.contains("[hash grouping] [folded into the scan]"),
            "{plan}"
        );

        let stmt =
            crate::parser::parse("FOR o IN orders COLLECT c = o.customer INTO g RETURN g").unwrap();
        let plan = explain(&stmt);
        assert!(
            plan.contains("[streaming, 0 accumulator(s)] [into: materialized members]"),
            "{plan}"
        );
        assert!(
            plan.contains("[hash grouping]\n"),
            "INTO is not folded: {plan}"
        );

        // a key or an input the compiler declines keeps the interpreted
        // front end: same grouping, rows bound in an Env
        for text in [
            "FOR o IN orders COLLECT c = COALESCE(o.customer) AGGREGATE s = SUM(o.total) RETURN c",
            "FOR o IN orders COLLECT c = o.customer AGGREGATE s = SUM(COALESCE(o.total)) RETURN c",
            "FOR o IN orders FILTER TO_NUMBER(o.total) > 5 COLLECT c = o.customer RETURN c",
        ] {
            let stmt = crate::parser::parse(text).unwrap();
            let Statement::Query(body) = &stmt else {
                panic!()
            };
            assert!(
                body.plan()[0].scan.as_ref().unwrap().fold.is_none(),
                "{text}"
            );
            let plan = explain(&stmt);
            assert!(plan.contains("[hash grouping]\n"), "{plan}");
            assert!(!plan.contains("folded"), "{plan}");
        }
        let stmt = crate::parser::parse(
            "FOR o IN orders COLLECT c = o.customer AGGREGATE s = SUM(o.total) RETURN c",
        )
        .unwrap();
        let Statement::Query(body) = &stmt else {
            panic!()
        };
        let fold = body.plan()[0].scan.as_ref().unwrap().fold.as_ref().unwrap();
        assert_eq!((fold.keys.len(), fold.inputs.len()), (1, 1));
        assert!(explain(&stmt).contains("[hash grouping] [folded into the scan]\n"));

        // Q6: the group table orders itself by the aggregate and binds
        // only the ten groups kept; the SORT and LIMIT run inside it
        let stmt = crate::parser::parse(
            "FOR o IN orders COLLECT customer = o.customer AGGREGATE spent = SUM(o.total) \
             SORT spent DESC LIMIT 10 LET c = DOCUMENT(\"customers\", customer) \
             RETURN { customer, name: c.name, spent }",
        )
        .unwrap();
        let Statement::Query(body) = &stmt else {
            panic!()
        };
        let collect = &body.plan()[1];
        assert_eq!(collect.group_sort, Some(vec![(1, false)]));
        assert_eq!((collect.window, collect.consumed()), (Some((0, 10)), 2));
        let plan = explain(&stmt);
        assert!(
            plan.contains(
                "[folded into the scan] [top 10 of the groups]\n\
                 sort by 1 key(s) [folded into the collect]\n\
                 limit offset=0 count=10 [folded into the collect]\n\
                 let c = <expression>\n"
            ),
            "{plan}"
        );
        // without a LIMIT the groups are sorted once, by the SORT's keys
        let stmt = crate::parser::parse(
            "FOR o IN orders COLLECT c = o.customer INTO g SORT g, c DESC RETURN c",
        )
        .unwrap();
        let Statement::Query(body) = &stmt else {
            panic!()
        };
        assert_eq!(body.plan()[1].group_sort, Some(vec![(1, true), (0, false)]));
        let plan = explain(&stmt);
        assert!(
            plan.contains(
                "[into: materialized members] [hash grouping] [sorted with the groups]\n"
            ),
            "{plan}"
        );
        // a SORT key that is not a bare name the COLLECT binds runs on
        // the bound groups, keeping its window by selection
        for (text, keys) in [
            (
                "FOR o IN orders COLLECT c = o.customer AGGREGATE s = SUM(o.total) \
                 SORT s * 2 DESC LIMIT 3 RETURN c",
                1,
            ),
            (
                "FOR o IN orders COLLECT c = o.customer INTO g SORT LENGTH(g) LIMIT 3 RETURN c",
                1,
            ),
            (
                "FOR o IN orders COLLECT c = o.customer SORT c, o.total LIMIT 3 RETURN c",
                2,
            ),
        ] {
            let stmt = crate::parser::parse(text).unwrap();
            let Statement::Query(body) = &stmt else {
                panic!()
            };
            assert_eq!(body.plan()[1].group_sort, None, "{text}");
            assert_eq!(body.plan()[2].window, Some((0, 3)), "{text}");
            let plan = explain(&stmt);
            assert!(!plan.contains("of the groups"), "{plan}");
            assert!(
                plan.contains(&format!(
                    "sort by {keys} key(s) [top 3 by selection]\n\
                     limit offset=0 count=3 [folded into the sort]\n"
                )),
                "{plan}"
            );
        }
    }

    #[test]
    fn explain_and_executor_read_one_plan() {
        // the annotations come from the ScanPlan the executor runs on
        let stmt = crate::parser::parse(
            "FOR c IN t FILTER c.a == 1 AND c.b == x.b AND LENGTH(c.tags) > 0 LIMIT 2, 3 RETURN c",
        )
        .unwrap();
        let Statement::Query(body) = &stmt else {
            panic!()
        };
        let scan = body.plan()[0].scan.as_ref().unwrap();
        assert!(scan.fused_filter && scan.pushed.is_some() && scan.compiled.is_none());
        assert_eq!(scan.dynamic.len(), 1);
        assert_eq!(scan.limit, None, "a residual blocks limit pushdown");
        let plan = explain(&stmt);
        assert!(plan.contains("[dynamic pushdown: 1 conjunct(s)]"), "{plan}");
        assert!(plan.contains("[residual filter]"), "{plan}");
        assert!(!plan.contains("limit pushdown"), "{plan}");
        // planned once: the same plan object serves every later call
        assert!(std::ptr::eq(body.plan(), body.plan()));
        // a clone or rebind plans afresh
        assert!(!std::ptr::eq(body.clone().plan(), body.plan()));

        let stmt =
            crate::parser::parse("FOR c IN t FILTER c.a % 2 == 1 LIMIT 2, 3 RETURN c").unwrap();
        let plan = explain(&stmt);
        assert!(plan.contains("[compiled residual]"), "{plan}");
        assert!(!plan.contains("limit pushdown"), "{plan}");
        let stmt = crate::parser::parse("FOR c IN t FILTER c.a == 1 LIMIT 2, 3 RETURN c").unwrap();
        assert!(explain(&stmt).contains("[limit pushdown: 5]"));
    }
}
