#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! Project-specific static analysis for the UDBMS workspace.
//!
//! `udbms-lint` is a std-only (no crates.io) lexer/walker enforcing the
//! one project rule no compiler lint expresses, documented in
//! DESIGN.md, "Invariants & static analysis":
//!
//! * **L6 `atomic-order`** — explicit-ordering discipline for atomics
//!   in `crates/engine`/`crates/query`: `Relaxed` only on registered
//!   pure counters, synchronizing orderings only with an adjacent
//!   `// ORDER:` comment naming the pairing.
//!
//! Lock order has no static rule: `parking_lot`'s rank tracker checks
//! it on every acquisition a debug or `--cfg lock_audit` test executes,
//! and [`coverage`] fails when an `Engine`/`Txn` entry point is not
//! called by `tests/lock_audit.rs`, so no entry point runs unchecked.
//!
//! There is no binary: this crate's tests lint the repository they sit
//! in, so `cargo test` enforces both L6 and the coverage guard.
//!
//! The other rules are compiler lints. L2 (no `unsafe`) is
//! `unsafe_code = "forbid"` in `[workspace.lints.rust]`, which every
//! member inherits. `cargo clippy -- -D warnings` type-checks the
//! rest: L3 (no `unwrap`/`expect`/`panic!`-family in non-test
//! engine/query/driver/lint code) is a
//! `cfg_attr(not(test), deny(clippy::unwrap_used, …))` at those crate
//! roots, and L4 (no untracked locks in the engine) and L5 (no raw
//! clock reads in the engine) are `crates/engine/clippy.toml`'s
//! `disallowed-types` and `disallowed-methods`.

pub mod coverage;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_file, Finding};

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Collect every `.rs` file under `root`, sorted; each path is `root`
/// joined with the file's place in the tree.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `path` relative to `root`, with forward slashes: the form the rules
/// scope by (`crates/engine/src/…`).
pub(crate) fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint the whole workspace rooted at `root`: every finding, sorted by
/// file then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in workspace_files(root)? {
        let src = fs::read_to_string(&path)?;
        findings.extend(lint_file(&relative(root, &path), &src));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_is_legal_only_on_registered_counters() {
        let ok = "fn f(&self) { self.inner.next_txn.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(lint_file("crates/engine/src/x.rs", ok).is_empty());

        let bad = "fn f(&self) { self.ready.store(true, Ordering::Relaxed); }\n";
        let findings = lint_file("crates/engine/src/x.rs", bad);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("registered pure counter"));
    }

    #[test]
    fn sync_orderings_need_an_order_comment() {
        let bad = "fn f(&self) { self.published.store(ts, Ordering::Release); }\n";
        let findings = lint_file("crates/engine/src/x.rs", bad);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("ORDER:"));

        let above = "fn f(&self) {\n    // ORDER: pairs with the Acquire load in begin_read.\n    self.published.store(ts, Ordering::Release);\n}\n";
        assert!(lint_file("crates/engine/src/x.rs", above).is_empty());

        let same_line =
            "fn f(&self) { self.published.load(Ordering::Acquire); // ORDER: pairs with commit\n}\n";
        assert!(lint_file("crates/engine/src/x.rs", same_line).is_empty());
    }

    #[test]
    fn atomic_order_scope_tests_and_cmp_are_exempt() {
        let bad = "fn f(&self) { self.ready.store(true, Ordering::Relaxed); }\n";
        // out of scope: only engine + query are model-checked
        assert!(lint_file("crates/obs/src/lib.rs", bad).is_empty());
        // test regions may do whatever they need
        let tested = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(a: &A) { a.x.store(1, Ordering::SeqCst); }\n}\n";
        assert!(lint_file("crates/engine/src/x.rs", tested).is_empty());
        // cmp::Ordering variants don't collide with memory orderings
        let cmp = "fn f(a: u8, b: u8) -> bool { a.cmp(&b) == std::cmp::Ordering::Less }\n";
        assert!(lint_file("crates/engine/src/x.rs", cmp).is_empty());
        // only a gated `mod` starts the test region: a gated `use`
        // above an unregistered Relaxed exempts nothing
        let gated_use =
            "#[cfg(test)]\nuse x;\nfn f(&self) { self.ready.store(true, Ordering::Relaxed); }\n";
        assert_eq!(lint_file("crates/engine/src/x.rs", gated_use).len(), 1);
    }

    /// The repository this crate sits in: `CARGO_MANIFEST_DIR/../..`.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// L6 over the whole tree. The walk must
    /// reach the engine's nested modules and the query crate with the
    /// paths L6 scopes by, so the test cannot pass by linting nothing.
    #[test]
    fn workspace_is_lint_clean() {
        let root = repo_root();
        let files: Vec<String> = workspace_files(&root)
            .unwrap()
            .iter()
            .map(|p| relative(&root, p))
            .collect();
        for dir in ["crates/engine/src/wal/", "crates/query/src/"] {
            assert!(
                files.iter().any(|f| f.starts_with(dir)),
                "the walk from {} reached nothing under {dir}",
                root.display()
            );
        }
        let findings = lint_workspace(&root).unwrap();
        let report: Vec<String> = findings.iter().map(Finding::to_string).collect();
        assert!(findings.is_empty(), "{}", report.join("\n"));
    }

    /// Every `Engine`/`Txn` entry point runs under the lock tracker:
    /// `tests/lock_audit.rs` calls each one (see [`coverage`]). The
    /// extractor must still see the engine's entry points, so the guard
    /// cannot pass by finding none.
    #[test]
    fn every_entry_point_runs_under_the_lock_tracker() {
        let engine = fs::read_to_string(repo_root().join("crates/engine/src/engine.rs")).unwrap();
        let found = coverage::entry_points(&engine);
        assert!(
            found.iter().any(|f| f == "begin"),
            "no `Engine::begin` in {found:?}"
        );
        let uncovered = coverage::uncovered_entry_points(&repo_root()).unwrap();
        assert!(
            uncovered.is_empty(),
            "tests/lock_audit.rs calls none of these entry points, so the lock \
             tracker never checks them:\n{}",
            uncovered.join("\n")
        );
    }

    /// L2-L5 are compiler lints, and tier 1 does not run clippy: this
    /// pins that the workspace forbids `unsafe` and every member
    /// inherits it, that every crate root L3 covers still denies the
    /// six panicking lints outside tests, and that the engine's
    /// `clippy.toml` still names the locks and clocks L4/L5 forbid.
    #[test]
    fn compiler_enforced_rules_are_configured() {
        let root = repo_root();
        let read =
            |rel: &str| fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let flat = |text: &str| -> String { text.split_whitespace().collect() };

        let manifest = read("Cargo.toml");
        let lints = &manifest[manifest.find("[workspace.lints.rust]").unwrap_or(0)..];
        let lints = flat(&lints[..lints.find("\n[").unwrap_or(lints.len())]);
        assert!(
            lints.starts_with("[workspace.lints.rust]") && lints.contains("unsafe_code=\"forbid\""),
            "Cargo.toml: [workspace.lints.rust] lacks unsafe_code = \"forbid\""
        );
        let members = &manifest[manifest.find("\nmembers = [").unwrap_or(0)..];
        let members: Vec<&str> = members[..members.find(']').unwrap_or(0)]
            .split('"')
            .skip(1)
            .step_by(2)
            .collect();
        assert!(members.contains(&"crates/engine"), "members: {members:?}");
        for dir in members.iter().chain([&"."]) {
            assert!(
                flat(&read(&format!("{dir}/Cargo.toml"))).contains("[lints]workspace=true"),
                "{dir}/Cargo.toml: no `[lints] workspace = true`"
            );
        }

        for rel in [
            "crates/engine/src/lib.rs",
            "crates/query/src/lib.rs",
            "crates/driver/src/lib.rs",
            "crates/lint/src/lib.rs",
        ] {
            let src = flat(&read(rel));
            let at = src
                .find("#![cfg_attr(not(test),deny(")
                .unwrap_or_else(|| panic!("{rel}: no `cfg_attr(not(test), deny(..))`"));
            let deny = &src[at..at + src[at..].find(")]").unwrap_or(0)];
            for lint in [
                "unwrap_used",
                "expect_used",
                "panic",
                "unreachable",
                "todo",
                "unimplemented",
            ] {
                assert!(
                    deny.split([',', '(', ')'])
                        .any(|l| l == format!("clippy::{lint}")),
                    "{rel}: `clippy::{lint}` missing from {deny}"
                );
            }
        }
        let engine = flat(&read("crates/engine/src/lib.rs"));
        assert!(engine.contains("#![cfg_attr(test,allow(clippy::disallowed_methods))]"));

        let toml = read("crates/engine/clippy.toml");
        let list = |key: &str| {
            let at = toml
                .find(key)
                .unwrap_or_else(|| panic!("clippy.toml: no {key}"));
            let open = at + toml[at..].find('[').unwrap_or(0);
            toml[open..open + toml[open..].find(']').unwrap_or(0)].to_string()
        };
        let types = list("disallowed-types");
        for ty in [
            "std::sync::Mutex",
            "std::sync::RwLock",
            "parking_lot::Mutex",
        ] {
            assert!(
                types.contains(&format!("\"{ty}\"")),
                "disallowed-types lacks {ty}"
            );
        }
        let methods = list("disallowed-methods");
        for m in ["std::time::Instant::now", "std::time::SystemTime::now"] {
            assert!(
                methods.contains(&format!("\"{m}\"")),
                "disallowed-methods lacks {m}"
            );
        }
    }
}
