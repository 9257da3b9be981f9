//! Row predicates: the boolean filter language shared by the engine's
//! general read, MMQL's pushdown and the polyglot baseline's stores —
//! one meaning of every filter for both benchmark subjects.
//!
//! Comparisons use the unified canonical order, so cross-type filters are
//! well-defined (`Int(2) < Str("a")` is simply the type order, never an
//! error) — the behaviour schemaless scans need.

use crate::{FieldPath, Value};

/// A boolean predicate over a row/document.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
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
    /// SQL LIKE with `%` (any run) and `_` (any char) against strings.
    Like(FieldPath, String),
    /// Conjunction.
    And(Vec<Predicate>),
}

/// What an index on one path may answer of a predicate, found by
/// [`Predicate::probe`]. An index answers it with candidate keys that
/// over-approximate the matches; callers re-check every candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe<'a> {
    /// The rows whose value at the path equals this one (any index).
    Eq(&'a Value),
    /// The rows whose value at the path lies between a lower bound and,
    /// when given, an upper bound, both inclusive (a B-tree only).
    Range(&'a Value, Option<&'a Value>),
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
            Predicate::Like(p, pattern) => match row.get_path(p).as_str() {
                Some(s) => like_match(pattern, s),
                None => false,
            },
            Predicate::And(ps) => ps.iter().all(|p| p.matches(row)),
        }
    }

    /// The probe an index on `path` may answer for this predicate — the
    /// one rule every index user follows: an equality conjunct on `path`
    /// if there is one, else the intersection of its range conjuncts.
    ///
    /// An index holds no posting for `Null` (a missing field reads as
    /// `Null`), and `Null` sorts below every other value. So an equality
    /// with `Null`, a `Null` bound and a range with no lower bound
    /// (`path < 5` matches the rows without `path`) give `None`: the
    /// caller scans.
    pub fn probe(&self, path: &FieldPath) -> Option<Probe<'_>> {
        if let Some(v) = self.equality_on(path) {
            return (!v.is_null()).then_some(Probe::Eq(v));
        }
        let (lo, hi) = self.range_on(path)?;
        let lo = lo.filter(|v| !v.is_null())?;
        match hi {
            Some(hi) if hi.is_null() => None,
            _ => Some(Probe::Range(lo, hi)),
        }
    }

    /// The value an equality conjunct pins `path` to.
    fn equality_on(&self, path: &FieldPath) -> Option<&Value> {
        match self {
            Predicate::Eq(p, v) if p == path => Some(v),
            Predicate::And(ps) => ps.iter().find_map(|p| p.equality_on(path)),
            _ => None,
        }
    }

    /// The inclusive bounds the range conjuncts on `path` intersect to
    /// (either side open), if there are any.
    fn range_on(&self, path: &FieldPath) -> Option<(Option<&Value>, Option<&Value>)> {
        match self {
            Predicate::Between(p, lo, hi) if p == path => Some((Some(lo), Some(hi))),
            Predicate::Lt(p, v) | Predicate::Le(p, v) if p == path => Some((None, Some(v))),
            Predicate::Gt(p, v) | Predicate::Ge(p, v) if p == path => Some((Some(v), None)),
            Predicate::And(ps) => {
                ps.iter()
                    .filter_map(|p| p.range_on(path))
                    .reduce(|(lo, hi), (l, h)| {
                        let hi = match (hi, h) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        (lo.max(l), hi)
                    })
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
    use crate::{arr, obj};

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
        assert!(Predicate::eq("deleted", Value::Null).matches(&r));
        assert!(Predicate::eq("missing", Value::Null).matches(&r));
        assert!(!Predicate::eq("id", Value::Null).matches(&r));
        // a missing field sorts below every value
        assert!(Predicate::lt("missing", Value::Int(i64::MIN)).matches(&r));
    }

    #[test]
    fn in_contains_boolean_combinators() {
        let r = row();
        assert!(Predicate::In(
            FieldPath::key("country"),
            vec![Value::from("FI"), Value::from("SE")]
        )
        .matches(&r));
        // an array compares whole
        assert!(Predicate::eq("tags", arr!["vip", "eu"]).matches(&r));
        assert!(!Predicate::eq("tags", Value::from("vip")).matches(&r));
        let both = Predicate::and([
            Predicate::eq("country", Value::from("FI")),
            Predicate::gt("score", Value::Int(4)),
        ]);
        assert!(both.matches(&r));
        assert!(!Predicate::and([both, Predicate::eq("id", Value::Int(9))]).matches(&r));
        assert!(Predicate::and([]).matches(&r), "the empty conjunction");
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
        let fi = Value::from("FI");
        assert_eq!(p.probe(&FieldPath::key("country")), Some(Probe::Eq(&fi)));
        assert_eq!(p.probe(&FieldPath::key("id")), None);
        // a Null equality scans, and so does a path it pins to Null
        // even when a range conjunct bounds it too
        let null = Predicate::and([
            Predicate::eq("country", Value::Null),
            Predicate::gt("country", Value::from("A")),
        ]);
        assert_eq!(null.probe(&FieldPath::key("country")), None);
    }

    #[test]
    fn planner_hooks_range_intersection() {
        let path = FieldPath::key("score");
        let (two, five, nine) = (Value::Int(2), Value::Int(5), Value::Int(9));
        let p = Predicate::and([
            Predicate::gt("score", Value::Int(2)),
            Predicate::lt("score", Value::Int(9)),
            Predicate::eq("country", Value::from("FI")),
        ]);
        assert_eq!(p.probe(&path), Some(Probe::Range(&two, Some(&nine))));

        let tighter = Predicate::and([
            Predicate::gt("score", Value::Int(2)),
            Predicate::gt("score", Value::Int(5)),
            Predicate::lt("score", Value::Int(12)),
            Predicate::lt("score", Value::Int(9)),
        ]);
        assert_eq!(
            tighter.probe(&path),
            Some(Probe::Range(&five, Some(&nine))),
            "intersection keeps the tighter bounds"
        );
        let open_above = Predicate::Ge(path.clone(), Value::Int(2));
        assert_eq!(open_above.probe(&path), Some(Probe::Range(&two, None)));
        // no lower bound, or a Null bound: the rows without the path
        // match and no index holds them
        for scans in [
            Predicate::lt("score", Value::Int(5)),
            Predicate::Le(path.clone(), Value::from("a")),
            Predicate::Ge(path.clone(), Value::Null),
            Predicate::between("score", Value::Int(1), Value::Null),
            Predicate::Like(path.clone(), "%".into()),
        ] {
            assert_eq!(scans.probe(&path), None, "{scans:?}");
        }
    }
}
