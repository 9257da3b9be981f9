//! Dotted field paths (`a.b[2].c`) into nested [`crate::Value`]s.
//!
//! Paths are the shared navigation language of the document store's
//! secondary indexes, the MMQL attribute accessors, the schema-evolution
//! operations and the conversion tasks. They are parsed once into a
//! [`FieldPath`] and then evaluated without further allocation.

use std::fmt;

use crate::error::{Error, Result};

/// One step of a [`FieldPath`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathStep {
    /// Object member access by key.
    Key(String),
    /// Array element access by 0-based index.
    Index(usize),
}

/// A parsed dotted path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FieldPath {
    steps: Vec<PathStep>,
}

impl FieldPath {
    /// The empty path (refers to the root value).
    pub fn root() -> FieldPath {
        FieldPath { steps: Vec::new() }
    }

    /// A single-key path.
    pub fn key(k: impl Into<String>) -> FieldPath {
        FieldPath {
            steps: vec![PathStep::Key(k.into())],
        }
    }

    /// Parse `"a.b[0].c"`. Keys are runs of non-dot, non-bracket
    /// characters; `[n]` suffixes index into arrays. An empty string parses
    /// to the root path.
    pub fn parse(s: &str) -> Result<FieldPath> {
        let mut steps = Vec::new();
        if s.is_empty() {
            return Ok(FieldPath::root());
        }
        let bytes = s.as_bytes();
        let mut i = 0;
        let mut expect_key = true;
        while i < bytes.len() {
            match bytes[i] {
                b'.' => {
                    if expect_key {
                        return Err(Error::Invalid(format!("empty path segment in {s:?}")));
                    }
                    expect_key = true;
                    i += 1;
                }
                b'[' => {
                    let close = s[i..]
                        .find(']')
                        .map(|off| i + off)
                        .ok_or_else(|| Error::Invalid(format!("unclosed '[' in path {s:?}")))?;
                    let idx: usize = s[i + 1..close]
                        .parse()
                        .map_err(|_| Error::Invalid(format!("bad array index in path {s:?}")))?;
                    steps.push(PathStep::Index(idx));
                    expect_key = false;
                    i = close + 1;
                }
                _ => {
                    if !expect_key && !steps.is_empty() {
                        return Err(Error::Invalid(format!("expected '.' or '[' in path {s:?}")));
                    }
                    let start = i;
                    while i < bytes.len() && bytes[i] != b'.' && bytes[i] != b'[' {
                        i += 1;
                    }
                    steps.push(PathStep::Key(s[start..i].to_string()));
                    expect_key = false;
                }
            }
        }
        if expect_key {
            return Err(Error::Invalid(format!("path {s:?} ends with '.'")));
        }
        Ok(FieldPath { steps })
    }

    /// The steps of this path.
    pub fn steps(&self) -> &[PathStep] {
        &self.steps
    }

    /// Whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the path has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Append a key step, builder-style.
    #[must_use]
    pub fn child(mut self, k: impl Into<String>) -> FieldPath {
        self.steps.push(PathStep::Key(k.into()));
        self
    }

    /// Append an index step, builder-style.
    #[must_use]
    pub fn at(mut self, i: usize) -> FieldPath {
        self.steps.push(PathStep::Index(i));
        self
    }

    /// The leading key, when the first step is a key — used by planners to
    /// map a path onto a column/attribute.
    pub fn head_key(&self) -> Option<&str> {
        match self.steps.first() {
            Some(PathStep::Key(k)) => Some(k),
            _ => None,
        }
    }

    /// Does `self` start with `prefix`? (Used by evolution to find queries
    /// touching a renamed/dropped field.)
    pub fn starts_with(&self, prefix: &FieldPath) -> bool {
        self.steps.len() >= prefix.steps.len()
            && self.steps[..prefix.steps.len()] == prefix.steps[..]
    }

    /// Replace a leading `prefix` with `replacement`, if it matches.
    /// Returns `None` when the prefix does not match.
    pub fn replace_prefix(&self, prefix: &FieldPath, replacement: &FieldPath) -> Option<FieldPath> {
        if !self.starts_with(prefix) {
            return None;
        }
        let mut steps = replacement.steps.clone();
        steps.extend_from_slice(&self.steps[prefix.steps.len()..]);
        Some(FieldPath { steps })
    }
}

impl fmt::Display for FieldPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for step in &self.steps {
            match step {
                PathStep::Key(k) => {
                    if !first {
                        f.write_str(".")?;
                    }
                    f.write_str(k)?;
                }
                PathStep::Index(i) => write!(f, "[{i}]")?,
            }
            first = false;
        }
        Ok(())
    }
}

impl std::str::FromStr for FieldPath {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        FieldPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_and_nested() {
        let p = FieldPath::parse("a.b.c").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_string(), "a.b.c");
        assert_eq!(p.head_key(), Some("a"));

        let p = FieldPath::parse("items[2].price").unwrap();
        assert_eq!(
            p.steps(),
            &[
                PathStep::Key("items".into()),
                PathStep::Index(2),
                PathStep::Key("price".into())
            ]
        );
        assert_eq!(p.to_string(), "items[2].price");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FieldPath::parse("a..b").is_err());
        assert!(FieldPath::parse("a.").is_err());
        assert!(FieldPath::parse(".a").is_err());
        assert!(FieldPath::parse("a[x]").is_err());
        assert!(FieldPath::parse("a[1").is_err());
    }

    #[test]
    fn empty_is_root() {
        let p = FieldPath::parse("").unwrap();
        assert!(p.is_root());
        assert!(p.is_empty());
        assert_eq!(p.to_string(), "");
    }

    #[test]
    fn leading_index_is_allowed() {
        let p = FieldPath::parse("[0].name").unwrap();
        assert_eq!(p.steps()[0], PathStep::Index(0));
        assert_eq!(p.head_key(), None);
    }

    #[test]
    fn builder_and_prefix_ops() {
        let p = FieldPath::root()
            .child("customer")
            .child("address")
            .child("city");
        assert_eq!(p.to_string(), "customer.address.city");
        let prefix = FieldPath::root().child("customer").child("address");
        assert!(p.starts_with(&prefix));
        let renamed = p
            .replace_prefix(&prefix, &FieldPath::root().child("cust").child("addr"))
            .unwrap();
        assert_eq!(renamed.to_string(), "cust.addr.city");
        assert!(p
            .replace_prefix(&FieldPath::key("other"), &FieldPath::key("x"))
            .is_none());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in ["a", "a.b", "a[0]", "a.b[3].c", "[1][2]", "x.y[0][1].z"] {
            let p = FieldPath::parse(s).unwrap();
            assert_eq!(
                FieldPath::parse(&p.to_string()).unwrap(),
                p,
                "roundtrip {s}"
            );
        }
    }
}
