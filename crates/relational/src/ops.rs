//! Relational-algebra operators over materialized row sets.
//!
//! These free functions implement the classical operators (projection,
//! joins, grouping/aggregation, sorting) on `Vec<Value>` row batches. The
//! polyglot baseline stitches cross-store results with exactly these
//! operators (client-side joins), and the MMQL executor shares the
//! aggregation semantics.

use std::collections::BTreeMap;
use std::collections::HashMap;

use udbms_core::{FieldPath, Object, Value};

/// Project each row onto the named fields (missing fields become `Null`).
pub fn project(rows: &[Value], fields: &[&str]) -> Vec<Value> {
    rows.iter()
        .map(|row| {
            fields
                .iter()
                .map(|f| ((*f).to_string(), row.get_field(f).clone()))
                .collect()
        })
        .collect()
}

/// Nested-loop inner join on `left.left_key == right.right_key`. The
/// result row is the left row with the right row's fields merged in
/// (right wins on collisions, prefixed merge is the caller's concern).
/// O(n·m) — the baseline the hash join is measured against.
pub fn nested_loop_join(
    left: &[Value],
    right: &[Value],
    left_key: &str,
    right_key: &str,
) -> Vec<Value> {
    let mut out = Vec::new();
    for l in left {
        let lk = l.get_field(left_key);
        if lk.is_null() {
            continue;
        }
        for r in right {
            if r.get_field(right_key) == lk {
                out.push(merge_rows(l, r));
            }
        }
    }
    out
}

/// Hash inner join on `left.left_key == right.right_key`. Builds on the
/// smaller side. O(n + m).
pub fn hash_join(left: &[Value], right: &[Value], left_key: &str, right_key: &str) -> Vec<Value> {
    // Build on the smaller input; probe with the larger.
    let (build, probe, build_key, probe_key, build_is_left) = if left.len() <= right.len() {
        (left, right, left_key, right_key, true)
    } else {
        (right, left, right_key, left_key, false)
    };
    let mut table: HashMap<&Value, Vec<&Value>> = HashMap::with_capacity(build.len());
    for row in build {
        let k = row.get_field(build_key);
        if !k.is_null() {
            table.entry(k).or_default().push(row);
        }
    }
    let mut out = Vec::new();
    for p in probe {
        let k = p.get_field(probe_key);
        if k.is_null() {
            continue;
        }
        if let Some(matches) = table.get(k) {
            for b in matches {
                if build_is_left {
                    out.push(merge_rows(b, p));
                } else {
                    out.push(merge_rows(p, b));
                }
            }
        }
    }
    out
}

fn merge_rows(left: &Value, right: &Value) -> Value {
    let mut m = match left {
        Value::Object(o) => o.clone(),
        other => Object::from_iter([("_left".to_string(), other.clone())]),
    };
    match right {
        Value::Object(o) => m.extend(o.iter().map(|(k, v)| (k.clone(), v.clone()))),
        other => {
            m.insert("_right".to_string(), other.clone());
        }
    }
    Value::Object(m)
}

/// An aggregate function over a grouped column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Row count (ignores the path).
    Count,
    /// Sum of numeric values (nulls skipped).
    Sum,
    /// Arithmetic mean of numeric values (nulls skipped).
    Avg,
    /// Minimum by canonical order.
    Min,
    /// Maximum by canonical order.
    Max,
}

/// One aggregate to compute: output name, function, input path.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// Name of the output field.
    pub output: String,
    /// The aggregate function.
    pub func: Aggregate,
    /// Path of the aggregated input within each row.
    pub input: FieldPath,
}

impl AggregateSpec {
    /// Shorthand constructor.
    pub fn new(output: &str, func: Aggregate, input: &str) -> AggregateSpec {
        AggregateSpec {
            output: output.to_string(),
            func,
            input: FieldPath::parse(input).expect("valid aggregate path"),
        }
    }
}

/// Group rows by the values at `group_by` paths and compute aggregates per
/// group. Output rows contain the group key fields (named by their path
/// rendering) plus one field per aggregate. Groups come out in canonical
/// key order (deterministic).
pub fn aggregate(rows: &[Value], group_by: &[FieldPath], specs: &[AggregateSpec]) -> Vec<Value> {
    let mut groups: BTreeMap<Vec<Value>, Vec<&Value>> = BTreeMap::new();
    for row in rows {
        let key: Vec<Value> = group_by.iter().map(|p| row.get_path(p).clone()).collect();
        groups.entry(key).or_default().push(row);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, members) in groups {
        let keys = group_by.iter().map(ToString::to_string).zip(key);
        let aggregates = specs
            .iter()
            .map(|spec| (spec.output.clone(), run_aggregate(spec, &members)));
        out.push(keys.chain(aggregates).collect());
    }
    out
}

fn run_aggregate(spec: &AggregateSpec, rows: &[&Value]) -> Value {
    match spec.func {
        Aggregate::Count => Value::Int(rows.len() as i64),
        Aggregate::Sum | Aggregate::Avg => {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            let mut all_int = true;
            let mut isum: i64 = 0;
            for r in rows {
                match r.get_path(&spec.input) {
                    Value::Int(i) => {
                        sum += *i as f64;
                        isum = isum.wrapping_add(*i);
                        n += 1;
                    }
                    Value::Float(f) => {
                        sum += f;
                        all_int = false;
                        n += 1;
                    }
                    _ => {}
                }
            }
            if n == 0 {
                return Value::Null;
            }
            match spec.func {
                Aggregate::Sum if all_int => Value::Int(isum),
                Aggregate::Sum => Value::Float(sum),
                _ => Value::Float(sum / n as f64),
            }
        }
        Aggregate::Min => rows
            .iter()
            .map(|r| r.get_path(&spec.input))
            .filter(|v| !v.is_null())
            .min()
            .cloned()
            .unwrap_or(Value::Null),
        Aggregate::Max => rows
            .iter()
            .map(|r| r.get_path(&spec.input))
            .filter(|v| !v.is_null())
            .max()
            .cloned()
            .unwrap_or(Value::Null),
    }
}

/// Sort rows by the values at `keys` paths (canonical order), each key
/// ascending (`true`) or descending (`false`). Stable.
pub fn sort_rows(rows: &mut [Value], keys: &[(FieldPath, bool)]) {
    rows.sort_by(|a, b| {
        for (path, asc) in keys {
            let ord = a.get_path(path).canonical_cmp(b.get_path(path));
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::obj;

    fn customers() -> Vec<Value> {
        vec![
            obj! {"id" => 1, "name" => "Ada", "country" => "FI"},
            obj! {"id" => 2, "name" => "Bob", "country" => "SE"},
            obj! {"id" => 3, "name" => "Eve", "country" => "FI"},
        ]
    }

    fn orders() -> Vec<Value> {
        vec![
            obj! {"oid" => 10, "customer" => 1, "total" => 5.0},
            obj! {"oid" => 11, "customer" => 1, "total" => 7.0},
            obj! {"oid" => 12, "customer" => 3, "total" => 2.0},
            obj! {"oid" => 13, "customer" => 9, "total" => 1.0},
        ]
    }

    #[test]
    fn projection_fills_missing_with_null() {
        let p = project(&customers(), &["name", "missing"]);
        assert_eq!(p[0], obj! {"name" => "Ada", "missing" => Value::Null});
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn joins_agree_and_skip_dangling() {
        let nl = nested_loop_join(&customers(), &orders(), "id", "customer");
        let mut hj = hash_join(&customers(), &orders(), "id", "customer");
        assert_eq!(nl.len(), 3, "order 13 has no matching customer");
        let mut nl = nl;
        nl.sort();
        hj.sort();
        assert_eq!(nl, hj, "hash join must equal nested-loop join");
        // merged row carries fields of both sides
        assert_eq!(nl[0].get_field("name"), &Value::from("Ada"));
        assert!(nl[0].get_field("total").as_float().is_some());
    }

    #[test]
    fn hash_join_builds_on_either_side() {
        // left bigger than right exercises the swapped build side
        let hj1 = hash_join(&orders(), &customers(), "customer", "id");
        assert_eq!(hj1.len(), 3);
        // field merge order: right side of the *call* wins on collision
        let a = vec![obj! {"k" => 1, "x" => "left"}];
        let b = vec![obj! {"k" => 1, "x" => "right"}];
        let j = hash_join(&a, &b, "k", "k");
        assert_eq!(j[0].get_field("x"), &Value::from("right"));
    }

    #[test]
    fn join_ignores_null_keys() {
        let l = vec![obj! {"k" => Value::Null, "x" => 1}];
        let r = vec![obj! {"k" => Value::Null, "y" => 2}];
        assert!(nested_loop_join(&l, &r, "k", "k").is_empty());
        assert!(hash_join(&l, &r, "k", "k").is_empty());
    }

    #[test]
    fn aggregate_count_sum_avg_min_max() {
        let rows = orders();
        let out = aggregate(
            &rows,
            &[FieldPath::key("customer")],
            &[
                AggregateSpec::new("n", Aggregate::Count, "oid"),
                AggregateSpec::new("total", Aggregate::Sum, "total"),
                AggregateSpec::new("avg", Aggregate::Avg, "total"),
                AggregateSpec::new("lo", Aggregate::Min, "total"),
                AggregateSpec::new("hi", Aggregate::Max, "total"),
            ],
        );
        assert_eq!(out.len(), 3);
        let ada = &out[0]; // customer 1 sorts first
        assert_eq!(ada.get_field("customer"), &Value::Int(1));
        assert_eq!(ada.get_field("n"), &Value::Int(2));
        assert_eq!(ada.get_field("total"), &Value::Float(12.0));
        assert_eq!(ada.get_field("avg"), &Value::Float(6.0));
        assert_eq!(ada.get_field("lo"), &Value::Float(5.0));
        assert_eq!(ada.get_field("hi"), &Value::Float(7.0));
    }

    #[test]
    fn aggregate_without_grouping_is_single_row() {
        let out = aggregate(
            &orders(),
            &[],
            &[AggregateSpec::new("n", Aggregate::Count, "oid")],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_field("n"), &Value::Int(4));
    }

    #[test]
    fn integer_sums_stay_integers() {
        let rows = vec![obj! {"v" => 2}, obj! {"v" => 3}];
        let out = aggregate(&rows, &[], &[AggregateSpec::new("s", Aggregate::Sum, "v")]);
        assert_eq!(out[0].get_field("s"), &Value::Int(5));
        let mixed = vec![obj! {"v" => 2}, obj! {"v" => 0.5}];
        let out = aggregate(&mixed, &[], &[AggregateSpec::new("s", Aggregate::Sum, "v")]);
        assert_eq!(out[0].get_field("s"), &Value::Float(2.5));
    }

    #[test]
    fn aggregates_skip_nulls_and_non_numbers() {
        let rows = vec![
            obj! {"v" => 1},
            obj! {"v" => Value::Null},
            obj! {"v" => "x"},
        ];
        let out = aggregate(
            &rows,
            &[],
            &[
                AggregateSpec::new("s", Aggregate::Sum, "v"),
                AggregateSpec::new("m", Aggregate::Min, "v"),
            ],
        );
        assert_eq!(out[0].get_field("s"), &Value::Int(1));
        assert_eq!(
            out[0].get_field("m"),
            &Value::Int(1),
            "min skips nulls, not strings? no — min is canonical"
        );
        let empty = aggregate(
            &[obj! {"v" => Value::Null}],
            &[],
            &[AggregateSpec::new("s", Aggregate::Sum, "v")],
        );
        assert_eq!(empty[0].get_field("s"), &Value::Null);
    }

    #[test]
    fn sort_rows_multi_key_stable() {
        let mut rows = vec![
            obj! {"a" => 2, "b" => 1},
            obj! {"a" => 1, "b" => 2},
            obj! {"a" => 1, "b" => 1},
            obj! {"a" => 2, "b" => 0},
        ];
        sort_rows(
            &mut rows,
            &[(FieldPath::key("a"), true), (FieldPath::key("b"), false)],
        );
        let pairs: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| {
                (
                    r.get_field("a").as_int().unwrap(),
                    r.get_field("b").as_int().unwrap(),
                )
            })
            .collect();
        assert_eq!(pairs, vec![(1, 2), (1, 1), (2, 1), (2, 0)]);
    }
}
