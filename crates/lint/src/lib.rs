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
//! two project rules no compiler lint expresses, documented in
//! DESIGN.md, "Invariants & static analysis":
//!
//! * **L1 `lock-order`** — ranked-lock acquisitions within a function
//!   must be non-decreasing in rank (shards strictly ascending).
//! * **L6 `atomic-order`** — explicit-ordering discipline for atomics
//!   in `crates/engine`/`crates/query`: `Relaxed` only on registered
//!   pure counters, synchronizing orderings only with an adjacent
//!   `// ORDER:` comment naming the pairing.
//!
//! There is no binary: this crate's `workspace_is_lint_clean` test
//! lints the repository it sits in, so `cargo test` enforces both
//! rules and the marker audit below.
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
//!
//! Findings are suppressed by an inline
//! `// lint:allow(<rule>): reason` on the offending (or preceding)
//! line. Suppressions are themselves audited: an inline marker that no
//! longer matches any finding is reported as `unused-suppression`, so
//! the exception budget can only shrink, never silently grow.
//!
//! The same rules run over this crate and the shims — the linter lints
//! itself.

pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_file, lint_source, AllowMarker, FileLint, Finding, Rule};

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
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Rule names an inline marker can legitimately name; anything else in
/// a `lint:allow(...)`-shaped comment (docs, prose, placeholders like
/// `<rule>`) is ignored rather than reported stale.
const KNOWN_RULES: &[&str] = &["lock-order", "atomic-order", "unused-suppression"];

/// Lint the whole workspace rooted at `root`. Returns the findings no
/// inline marker suppresses — including `unused-suppression` reports
/// for markers that no longer suppress anything — sorted by file then
/// line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in workspace_files(root)? {
        let rel = relative(root, &path);
        let src = fs::read_to_string(&path)?;
        let file = lint_file(&rel, &src);
        for f in &file.findings {
            if !file.markers.iter().any(|m| FileLint::covers(m, f)) {
                findings.push(f.clone());
            }
        }
        // Stale inline markers: a real rule name, outside the test
        // region, covering no raw finding.
        for m in &file.markers {
            if !KNOWN_RULES.contains(&m.rule.as_str()) {
                continue;
            }
            if file.test_region_line.is_some_and(|from| m.line >= from) {
                continue;
            }
            if !file.findings.iter().any(|f| FileLint::covers(m, f)) {
                findings.push(Finding {
                    rule: Rule::UnusedSuppression,
                    file: rel.clone(),
                    line: m.line,
                    function: None,
                    message: format!(
                        "stale `lint:allow({})` — no {} finding on this or the next \
                         line; remove the marker",
                        m.rule, m.rule
                    ),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rank_inversion_is_caught_statically() {
        // wal (WalFile, rank 5) held across a commit_lock (Commit,
        // rank 1) acquisition — the canonical inversion
        let src = "
impl Engine {
    fn bad(&self) {
        let wal = self.wal.lock();
        let commit = self.commit_lock.lock();
        drop(commit);
        drop(wal);
    }
}
";
        let findings = lint_source("crates/engine/src/seeded.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::LockOrder);
        assert_eq!(findings[0].function.as_deref(), Some("bad"));
    }

    #[test]
    fn ascending_acquisitions_are_clean() {
        let src = "
fn good(&self) {
    let commit = self.commit_lock.lock();
    let catalog = self.catalog.read();
    let shard = self.storage.shard(si).write();
    let st = self.state.lock();
}
";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn shard_literal_indexes_must_ascend() {
        let src = "
fn bad(&self) {
    let a = self.storage.shard(3).read();
    let b = self.storage.shard(1).read();
}
";
        let findings = lint_source("crates/engine/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::LockOrder);
    }

    #[test]
    fn scoped_release_resets_the_floor() {
        // active (rank 6) scoped out before commit_lock (rank 1): the
        // gc() pattern — must NOT be flagged
        let src = "
fn gc(&self) {
    let watermark = {
        let active = self.active.lock();
        active.len()
    };
    let commit = self.commit_lock.lock();
}
";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn chained_temporaries_release_at_statement_end() {
        // the GroupLog::checkpoint pattern: wal locked only for the
        // duration of one chained call, then state is taken
        let src = "
fn checkpoint(&self) {
    let path = self.shared.wal.lock().path().to_path_buf();
    let st = self.shared.state.lock();
}
";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn drop_releases_a_binding() {
        let src = "
fn ok(&self) {
    let st = self.state.lock();
    drop(st);
    let commit = self.commit_lock.lock();
}
";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_markers_suppress() {
        let bad = "fn f(&self) {\n    let wal = self.wal.lock();\n    let commit = self.commit_lock.lock();\n}\n";
        assert_eq!(lint_source("crates/engine/src/x.rs", bad).len(), 1);
        let src = "fn f(&self) {\n    let wal = self.wal.lock();\n    // lint:allow(lock-order): reviewed — wal is released before commit blocks\n    let commit = self.commit_lock.lock();\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_is_legal_only_on_registered_counters() {
        let ok = "fn f(&self) { self.inner.next_txn.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(lint_source("crates/engine/src/x.rs", ok).is_empty());

        let bad = "fn f(&self) { self.ready.store(true, Ordering::Relaxed); }\n";
        let findings = lint_source("crates/engine/src/x.rs", bad);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::AtomicOrder);
        assert!(findings[0].message.contains("registered pure counter"));
    }

    #[test]
    fn sync_orderings_need_an_order_comment() {
        let bad = "fn f(&self) { self.published.store(ts, Ordering::Release); }\n";
        let findings = lint_source("crates/engine/src/x.rs", bad);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::AtomicOrder);
        assert!(findings[0].message.contains("ORDER:"));

        let above = "fn f(&self) {\n    // ORDER: pairs with the Acquire load in begin_read.\n    self.published.store(ts, Ordering::Release);\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", above).is_empty());

        let same_line =
            "fn f(&self) { self.published.load(Ordering::Acquire); // ORDER: pairs with commit\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", same_line).is_empty());
    }

    #[test]
    fn atomic_order_scope_tests_and_cmp_are_exempt() {
        let bad = "fn f(&self) { self.ready.store(true, Ordering::Relaxed); }\n";
        // out of scope: only engine + query are model-checked
        assert!(lint_source("crates/obs/src/lib.rs", bad).is_empty());
        // test regions may do whatever they need
        let tested = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(a: &A) { a.x.store(1, Ordering::SeqCst); }\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", tested).is_empty());
        // cmp::Ordering variants don't collide with memory orderings
        let cmp = "fn f(a: u8, b: u8) -> bool { a.cmp(&b) == std::cmp::Ordering::Less }\n";
        assert!(lint_source("crates/engine/src/x.rs", cmp).is_empty());
        // inline allow works like every other rule
        let allowed = "fn f(&self) {\n    // lint:allow(atomic-order): transient flag, no data published\n    self.ready.store(true, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn stale_suppressions_are_reported() {
        let dir = std::env::temp_dir().join(format!("udbms-lint-stale-{}", std::process::id()));
        let sub = dir.join("crates/engine/src");
        fs::create_dir_all(&sub).unwrap();
        fs::write(
            sub.join("x.rs"),
            "fn f() {\n    // lint:allow(atomic-order): stale — nothing here orders\n    let _y = 1;\n}\n",
        )
        .unwrap();
        let findings = lint_workspace(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::UnusedSuppression);
        assert!(findings[0].file.ends_with("x.rs") && findings[0].line == 2);
    }

    #[test]
    fn live_suppressions_are_not_reported() {
        let dir = std::env::temp_dir().join(format!("udbms-lint-live-{}", std::process::id()));
        let sub = dir.join("crates/engine/src");
        fs::create_dir_all(&sub).unwrap();
        fs::write(
            sub.join("x.rs"),
            "fn f(&self) {\n    // lint:allow(atomic-order): transient flag, no data published\n    self.ready.store(true, Ordering::Relaxed);\n}\n",
        )
        .unwrap();
        let findings = lint_workspace(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_region_markers_are_exempt_from_staleness() {
        let dir = std::env::temp_dir().join(format!("udbms-lint-texempt-{}", std::process::id()));
        let sub = dir.join("crates/engine/src");
        fs::create_dir_all(&sub).unwrap();
        fs::write(
            sub.join("x.rs"),
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    // lint:allow(atomic-order): demo marker inside a test\n    fn g() {}\n}\n",
        )
        .unwrap();
        let findings = lint_workspace(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert!(findings.is_empty(), "{findings:?}");
    }

    /// The repository this crate sits in: `CARGO_MANIFEST_DIR/../..`.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// L1, L6 and the marker audit over the whole tree. The walk must
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
