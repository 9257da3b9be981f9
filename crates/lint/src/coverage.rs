//! The lock-order coverage guard: every `pub fn` of `Engine` and `Txn`
//! must be called by `tests/lock_audit.rs`, whose tests run under the
//! `parking_lot` rank tracker (debug builds and `--cfg lock_audit`
//! release builds). The tracker sees only the acquisitions a test
//! executes, so an entry point no test calls is an unchecked lock
//! order. A name counts as called when it follows `.` or `::` and
//! precedes `(`; the match is by name only, so a call of a same-named
//! method on another type satisfies it.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{lex, TokenKind};
use crate::rules::test_region_start;

/// The types whose `pub fn`s are entry points.
const ENTRY_TYPES: &[&str] = &["Engine", "Txn"];

/// The engine sources the guard reads, and the test that must call them.
const ENGINE_SRC: &str = "crates/engine/src";
const AUDIT_TEST: &str = "tests/lock_audit.rs";

/// Names of the `pub fn`s declared directly in `impl Engine { … }` /
/// `impl Txn { … }` blocks of `src`, in source order, stopping at the
/// file's `#[cfg(test)]` module.
pub fn entry_points(src: &str) -> Vec<String> {
    let toks = lex(src).tokens;
    let end = test_region_start(&toks).unwrap_or(toks.len());
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut names = Vec::new();
    let mut depth = 0usize;
    // the brace depth just inside the open `impl Engine`/`impl Txn` block
    let mut block = None;
    for (i, t) in toks.iter().enumerate().take(end) {
        match t.text.as_str() {
            "impl" if ENTRY_TYPES.contains(&text(i + 1)) && text(i + 2) == "{" => {
                block = Some(depth + 1);
            }
            "{" => depth += 1,
            "}" => {
                if block == Some(depth) {
                    block = None;
                }
                depth = depth.saturating_sub(1);
            }
            "pub" if block == Some(depth) && text(i + 1) == "fn" => {
                names.push(text(i + 2).to_string());
            }
            _ => {}
        }
    }
    names
}

/// Every identifier `src` calls as a method or path function: an
/// identifier after `.` or `::` and before `(`.
pub fn called_names(src: &str) -> BTreeSet<String> {
    let toks = lex(src).tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    (2..toks.len())
        .filter(|&i| toks[i].kind == TokenKind::Ident && text(i + 1) == "(")
        .filter(|&i| text(i - 1) == "." || (text(i - 1) == ":" && text(i - 2) == ":"))
        .map(|i| toks[i].text.clone())
        .collect()
}

/// The entry points under `root`'s `crates/engine/src` that its
/// `tests/lock_audit.rs` never calls, each as `<file>: <name>`.
pub fn uncovered_entry_points(root: &Path) -> io::Result<Vec<String>> {
    let called = called_names(&fs::read_to_string(root.join(AUDIT_TEST))?);
    let mut uncovered = Vec::new();
    for path in crate::workspace_files(&root.join(ENGINE_SRC))? {
        let rel = crate::relative(root, &path);
        for name in entry_points(&fs::read_to_string(&path)?) {
            if !called.contains(&name) {
                uncovered.push(format!("{rel}: {name}"));
            }
        }
    }
    Ok(uncovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_outer_engine_and_txn_pub_fns_are_entry_points() {
        let src = "
impl Engine {
    pub fn new() -> Engine { Engine { inner: Inner { f: |x| { x } } } }
    fn private(&self) {}
    pub(crate) fn internal(&self) {}
    pub fn begin(&self) -> Txn { let s = \"impl Txn { pub fn fake() }\"; todo() }
}
impl Other {
    pub fn other(&self) {}
}
impl Default for Engine {
    fn default() -> Self { Self::new() }
}
impl Engine {
    pub fn gc(&self) {}
}
pub fn free() {}
#[cfg(test)]
mod tests {
    impl Txn {
        pub fn only_in_tests(&self) {}
    }
}
";
        assert_eq!(entry_points(src), ["new", "begin", "gc"]);
    }

    #[test]
    fn calls_are_names_after_a_dot_or_path_and_before_a_paren() {
        let src = "let e = Engine::with_wal(p); e.begin(x).put(a); let f = t.get; g(h); i::j;";
        let names: Vec<String> = called_names(src).into_iter().collect();
        assert_eq!(names, ["begin", "put", "with_wal"]);
    }
}
