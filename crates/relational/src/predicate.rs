//! Row predicates: the boolean filter language shared by the relational
//! table scans, the document store (over paths) and the MMQL planner's
//! pushdown analysis.
//!
//! Comparisons use the unified canonical order, so cross-type filters are
//! well-defined (`Int(2) < Str("a")` is simply the type order, never an
//! error) — the behaviour schemaless scans need.

use udbms_core::{FieldPath, Value};

/// A boolean predicate over a row/document.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (scan everything).
    True,
    /// `path == value`
    Eq(FieldPath, Value),
    /// `path != value`
    Ne(FieldPath, Value),
    /// `path < value`
    Lt(FieldPath, Value),
    /// `path <= value`
    Le(FieldPath, Value),
    /// `path > value`
    Gt(FieldPath, Value),
    /// `path >= value`
    Ge(FieldPath, Value),
    /// `lo <= path <= hi` (inclusive both ends)
    Between(FieldPath, Value, Value),
    /// `path ∈ {values}`
    In(FieldPath, Vec<Value>),
    /// `path` is `Null` / absent
    IsNull(FieldPath),
    /// SQL LIKE with `%` (any run) and `_` (any char) against strings.
    Like(FieldPath, String),
    /// The value at `path` is an array containing `value` (document model).
    Contains(FieldPath, Value),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column == value` on a single-key path.
    pub fn eq(field: &str, v: Value) -> Predicate {
        Predicate::Eq(FieldPath::key(field), v)
    }

    /// `column > value` on a single-key path.
    pub fn gt(field: &str, v: Value) -> Predicate {
        Predicate::Gt(FieldPath::key(field), v)
    }

    /// `column < value` on a single-key path.
    pub fn lt(field: &str, v: Value) -> Predicate {
        Predicate::Lt(FieldPath::key(field), v)
    }

    /// `lo <= column <= hi` on a single-key path.
    pub fn between(field: &str, lo: Value, hi: Value) -> Predicate {
        Predicate::Between(FieldPath::key(field), lo, hi)
    }

    /// Conjunction helper.
    pub fn and(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        Predicate::And(preds.into_iter().collect())
    }

    /// Evaluate against a row (an object value).
    pub fn matches(&self, row: &Value) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(p, v) => row.get_path(p) == v,
            Predicate::Ne(p, v) => row.get_path(p) != v,
            Predicate::Lt(p, v) => row.get_path(p) < v,
            Predicate::Le(p, v) => row.get_path(p) <= v,
            Predicate::Gt(p, v) => row.get_path(p) > v,
            Predicate::Ge(p, v) => row.get_path(p) >= v,
            Predicate::Between(p, lo, hi) => {
                let x = row.get_path(p);
                x >= lo && x <= hi
            }
            Predicate::In(p, vals) => vals.contains(row.get_path(p)),
            Predicate::IsNull(p) => row.get_path(p).is_null(),
            Predicate::Like(p, pattern) => match row.get_path(p).as_str() {
                Some(s) => like_match(pattern, s),
                None => false,
            },
            Predicate::Contains(p, v) => match row.get_path(p).as_array() {
                Some(items) => items.contains(v),
                None => false,
            },
            Predicate::And(ps) => ps.iter().all(|p| p.matches(row)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(row)),
            Predicate::Not(p) => !p.matches(row),
        }
    }

    /// If this predicate (or a conjunct of it) pins `path` to one equality
    /// value, return that value — the planner's hash-index hook.
    pub fn equality_on(&self, path: &FieldPath) -> Option<&Value> {
        match self {
            Predicate::Eq(p, v) if p == path => Some(v),
            Predicate::And(ps) => ps.iter().find_map(|p| p.equality_on(path)),
            _ => None,
        }
    }

    /// If this predicate (or a conjunct) constrains `path` to a range,
    /// return `(lo, hi)` inclusive bounds (either side optional) — the
    /// planner's B-tree-index hook.
    pub fn range_on(&self, path: &FieldPath) -> Option<(Option<Value>, Option<Value>)> {
        match self {
            Predicate::Eq(p, v) if p == path => Some((Some(v.clone()), Some(v.clone()))),
            Predicate::Between(p, lo, hi) if p == path => {
                Some((Some(lo.clone()), Some(hi.clone())))
            }
            Predicate::Lt(p, v) | Predicate::Le(p, v) if p == path => Some((None, Some(v.clone()))),
            Predicate::Gt(p, v) | Predicate::Ge(p, v) if p == path => Some((Some(v.clone()), None)),
            Predicate::And(ps) => {
                let mut lo: Option<Value> = None;
                let mut hi: Option<Value> = None;
                let mut any = false;
                for p in ps {
                    if let Some((l, h)) = p.range_on(path) {
                        any = true;
                        if let Some(l) = l {
                            lo = Some(match lo {
                                Some(cur) if cur >= l => cur,
                                _ => l,
                            });
                        }
                        if let Some(h) = h {
                            hi = Some(match hi {
                                Some(cur) if cur <= h => cur,
                                _ => h,
                            });
                        }
                    }
                }
                if any {
                    Some((lo, hi))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// SQL LIKE matcher: `%` matches any run (including empty), `_` any single
/// character. Case-sensitive. Iterative two-pointer algorithm, no regex.
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star_p, mut star_t): (Option<usize>, usize) = (None, 0);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = Some(pi);
            star_t = ti;
            pi += 1;
        } else if let Some(sp) = star_p {
            // backtrack: let the last % absorb one more char
            pi = sp + 1;
            star_t += 1;
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{arr, obj};

    fn row() -> Value {
        obj! {
            "id" => 7,
            "name" => "Ada Lovelace",
            "country" => "FI",
            "score" => 4.5,
            "tags" => arr!["vip", "eu"],
            "address" => obj!{"city" => "Helsinki"},
            "deleted" => Value::Null,
        }
    }

    #[test]
    fn comparisons() {
        let r = row();
        assert!(Predicate::eq("id", Value::Int(7)).matches(&r));
        assert!(!Predicate::eq("id", Value::Int(8)).matches(&r));
        assert!(Predicate::gt("score", Value::Float(4.0)).matches(&r));
        assert!(Predicate::lt("score", Value::Int(5)).matches(&r));
        assert!(Predicate::between("id", Value::Int(5), Value::Int(9)).matches(&r));
        assert!(!Predicate::between("id", Value::Int(8), Value::Int(9)).matches(&r));
        assert!(Predicate::Ne(FieldPath::key("country"), Value::from("SE")).matches(&r));
    }

    #[test]
    fn nested_paths_and_null() {
        let r = row();
        assert!(Predicate::Eq(
            FieldPath::parse("address.city").unwrap(),
            Value::from("Helsinki")
        )
        .matches(&r));
        assert!(Predicate::IsNull(FieldPath::key("deleted")).matches(&r));
        assert!(Predicate::IsNull(FieldPath::key("missing")).matches(&r));
        assert!(!Predicate::IsNull(FieldPath::key("id")).matches(&r));
    }

    #[test]
    fn in_contains_boolean_combinators() {
        let r = row();
        assert!(Predicate::In(
            FieldPath::key("country"),
            vec![Value::from("FI"), Value::from("SE")]
        )
        .matches(&r));
        assert!(Predicate::Contains(FieldPath::key("tags"), Value::from("vip")).matches(&r));
        assert!(!Predicate::Contains(FieldPath::key("tags"), Value::from("na")).matches(&r));
        assert!(
            !Predicate::Contains(FieldPath::key("id"), Value::Int(7)).matches(&r),
            "non-array"
        );
        let both = Predicate::and([
            Predicate::eq("country", Value::from("FI")),
            Predicate::gt("score", Value::Int(4)),
        ]);
        assert!(both.matches(&r));
        assert!(Predicate::Not(Box::new(Predicate::eq("id", Value::Int(9)))).matches(&r));
        assert!(Predicate::Or(vec![
            Predicate::eq("id", Value::Int(9)),
            Predicate::eq("id", Value::Int(7)),
        ])
        .matches(&r));
        assert!(Predicate::True.matches(&r));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Ada%", "Ada Lovelace"));
        assert!(like_match("%Lovelace", "Ada Lovelace"));
        assert!(like_match("%Love%", "Ada Lovelace"));
        assert!(like_match("A_a%", "Ada Lovelace"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "x"));
        assert!(like_match("a%b%c", "a-XX-b-YY-c"));
        assert!(!like_match("Ada", "Ada Lovelace"));
        assert!(!like_match("_", ""));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
    }

    #[test]
    fn like_predicate_on_non_string_is_false() {
        assert!(!Predicate::Like(FieldPath::key("id"), "%".into()).matches(&row()));
        assert!(Predicate::Like(FieldPath::key("name"), "Ada%".into()).matches(&row()));
    }

    #[test]
    fn planner_hooks_equality() {
        let p = Predicate::and([
            Predicate::eq("country", Value::from("FI")),
            Predicate::gt("score", Value::Int(4)),
        ]);
        let path = FieldPath::key("country");
        assert_eq!(p.equality_on(&path), Some(&Value::from("FI")));
        assert_eq!(p.equality_on(&FieldPath::key("score")), None);
    }

    #[test]
    fn planner_hooks_range_intersection() {
        let path = FieldPath::key("score");
        let p = Predicate::and([
            Predicate::gt("score", Value::Int(2)),
            Predicate::lt("score", Value::Int(9)),
            Predicate::eq("country", Value::from("FI")),
        ]);
        let (lo, hi) = p.range_on(&path).unwrap();
        assert_eq!(lo, Some(Value::Int(2)));
        assert_eq!(hi, Some(Value::Int(9)));

        let tighter = Predicate::and([
            Predicate::gt("score", Value::Int(2)),
            Predicate::gt("score", Value::Int(5)),
        ]);
        let (lo, _) = tighter.range_on(&path).unwrap();
        assert_eq!(
            lo,
            Some(Value::Int(5)),
            "intersection keeps the tighter bound"
        );
        assert_eq!(Predicate::True.range_on(&path), None);
    }
}
