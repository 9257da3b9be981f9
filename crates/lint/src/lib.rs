#![warn(missing_docs)]

//! Project-specific static analysis for the UDBMS workspace.
//!
//! `udbms-lint` is a std-only (no crates.io) lexer/walker enforcing the
//! six concurrency/performance rules documented in DESIGN.md,
//! "Invariants & static analysis":
//!
//! * **L1 `lock-order`** — ranked-lock acquisitions within a function
//!   must be non-decreasing in rank (shards strictly ascending).
//! * **L2 `safety`** — every `unsafe` needs a `// SAFETY:` comment.
//! * **L3 `unwrap`** — no `unwrap`/`expect`/`panic!`-family in non-test
//!   engine/query/driver (and lint) code.
//! * **L4 `raw-lock`** — no untracked `Mutex`/`RwLock` in
//!   `crates/engine`.
//! * **L5 `hot-clock`** — no raw `Instant::now()`/`SystemTime::now()`
//!   in non-test `crates/engine` code; engine hot paths time
//!   themselves through the `udbms-obs` helpers, which cost one
//!   branch when observability is disabled.
//! * **L6 `atomic-order`** — explicit-ordering discipline for atomics
//!   in `crates/engine`/`crates/query`: `Relaxed` only on registered
//!   pure counters, synchronizing orderings only with an adjacent
//!   `// ORDER:` comment naming the pairing.
//!
//! Findings are suppressed by an inline
//! `// lint:allow(<rule>): reason` on the offending (or preceding)
//! line, or by an entry in the repo-root `lint-allow.txt`:
//!
//! ```text
//! # rule       path (repo-relative)            [function]
//! lock-order   crates/engine/src/foo.rs        rebalance
//! unwrap       crates/query/src/lexer.rs
//! ```
//!
//! Suppressions are themselves audited: an inline marker that no longer
//! matches any finding, or a `lint-allow.txt` entry nothing needed, is
//! reported as `unused-suppression` so the exception budget can only
//! shrink, never silently grow.
//!
//! The same rules run over this crate and the shims — the linter lints
//! itself.

pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_file, lint_source, AllowMarker, FileLint, Finding, Rule};

/// Parsed `lint-allow.txt`: audited, reviewable exceptions.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    function: Option<String>,
    /// 1-based line in `lint-allow.txt`, for stale-entry reports.
    line: u32,
}

impl AllowEntry {
    fn matches(&self, finding: &Finding) -> bool {
        self.rule == finding.rule.name()
            && (finding.file == self.path || finding.file.ends_with(&self.path))
            && self
                .function
                .as_ref()
                .is_none_or(|f| finding.function.as_deref() == Some(f.as_str()))
    }
}

impl Allowlist {
    /// Parse allowlist text: one `rule path [function]` entry per line,
    /// `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Allowlist {
        let entries = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i as u32 + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|(line, l)| {
                let mut parts = l.split_whitespace();
                let rule = parts.next()?.to_string();
                let path = parts.next()?.to_string();
                let function = parts.next().map(str::to_string);
                Some(AllowEntry {
                    rule,
                    path,
                    function,
                    line,
                })
            })
            .collect();
        Allowlist { entries }
    }

    /// Load from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Allowlist {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    /// Whether `finding` is covered by an entry.
    pub fn allows(&self, finding: &Finding) -> bool {
        self.match_index(finding).is_some()
    }

    /// Index of the first entry covering `finding`, for usage tracking.
    fn match_index(&self, finding: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| e.matches(finding))
    }

    /// Number of entries (reported by the CLI so the exception budget
    /// stays visible).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Collect every `.rs` file under `root` (sorted, repo-relative,
/// forward slashes).
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

/// Rule names an inline marker can legitimately name; anything else in
/// a `lint:allow(...)`-shaped comment (docs, prose, placeholders like
/// `<rule>`) is ignored rather than reported stale.
const KNOWN_RULES: &[&str] = &[
    "lock-order",
    "safety",
    "unwrap",
    "raw-lock",
    "hot-clock",
    "atomic-order",
    "unused-suppression",
];

/// Lint the whole workspace rooted at `root`, applying `allow`.
/// Returns the surviving findings — including `unused-suppression`
/// reports for inline markers and allowlist entries that no longer
/// suppress anything — sorted by file then line.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut entry_used = vec![false; allow.entries.len()];
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        let file = lint_file(&rel, &src);
        for f in &file.findings {
            if file.markers.iter().any(|m| FileLint::covers(m, f)) {
                continue; // inline suppression wins; marker is "used"
            }
            match allow.match_index(f) {
                Some(i) => entry_used[i] = true,
                None => findings.push(f.clone()),
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
                        "stale `lint:allow({})` — no {} finding on this or the next                          line; remove the marker",
                        m.rule, m.rule
                    ),
                });
            }
        }
    }
    for (e, used) in allow.entries.iter().zip(&entry_used) {
        if !used {
            findings.push(Finding {
                rule: Rule::UnusedSuppression,
                file: "lint-allow.txt".to_string(),
                line: e.line,
                function: None,
                message: format!(
                    "stale allowlist entry `{} {}{}` — it suppresses nothing; remove it",
                    e.rule,
                    e.path,
                    e.function
                        .as_deref()
                        .map(|f| format!(" {f}"))
                        .unwrap_or_default()
                ),
            });
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
    fn safety_comments_gate_unsafe() {
        let bad = "fn f() { unsafe { work() } }\n";
        let findings = lint_source("crates/core/src/x.rs", bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::Safety);

        let good = "fn f() {\n    // SAFETY: justified\n    unsafe { work() }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn unwrap_is_flagged_only_in_scope_and_outside_tests() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint_source("crates/engine/src/x.rs", src).len(), 1);
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());

        let tested = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", tested).is_empty());
    }

    #[test]
    fn inline_allow_markers_suppress() {
        let src = "fn f() {\n    // lint:allow(unwrap): invariant — len checked above\n    x.unwrap();\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_locks_in_engine_are_flagged() {
        let src = "use std::sync::Mutex;\nfn f() { let m: std::sync::Mutex<u8>; }\n";
        let findings = lint_source("crates/engine/src/x.rs", src);
        assert!(findings.iter().all(|f| f.rule == Rule::RawLock));
        assert!(!findings.is_empty());
        // tracked types are fine
        let ok = "use parking_lot::{LockRank, TrackedMutex};\n";
        assert!(lint_source("crates/engine/src/x.rs", ok).is_empty());
        // and raw locks outside crates/engine are fine
        assert!(lint_source("crates/shims/parking_lot/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_clock_reads_in_engine_are_flagged() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let findings = lint_source("crates/engine/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::HotClock);
        assert!(findings[0].message.contains("Obs::start"));

        let sys = "fn f() { let t = SystemTime::now(); }\n";
        let findings = lint_source("crates/engine/src/x.rs", sys);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::HotClock);
    }

    #[test]
    fn hot_clock_is_scoped_and_relaxes_in_tests() {
        let src = "fn f() { let t = Instant::now(); }\n";
        // outside crates/engine the rule does not apply (obs owns its
        // own Instant::now calls)
        assert!(lint_source("crates/obs/src/lib.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/report.rs", src).is_empty());

        let tested =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let t = Instant::now(); }\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", tested).is_empty());
    }

    #[test]
    fn hot_clock_inline_allow_suppresses() {
        let src = "fn f() {\n    // lint:allow(hot-clock): startup-only, not a hot path\n    let t = Instant::now();\n}\n";
        assert!(lint_source("crates/engine/src/x.rs", src).is_empty());
        // a bare `Instant` type mention without `::now` is fine
        let ty = "fn f(deadline: Instant) -> Instant { deadline }\n";
        assert!(lint_source("crates/engine/src/x.rs", ty).is_empty());
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
            "fn f() {\n    // lint:allow(unwrap): stale — nothing here unwraps\n    let _y = 1;\n}\n",
        )
        .unwrap();
        let allow = Allowlist::parse("unwrap crates/engine/src/x.rs\n");
        let findings = lint_workspace(&dir, &allow).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == Rule::UnusedSuppression));
        assert!(findings.iter().any(|f| f.file == "lint-allow.txt"));
        assert!(findings
            .iter()
            .any(|f| f.file.ends_with("x.rs") && f.line == 2));
    }

    #[test]
    fn live_suppressions_are_not_reported() {
        let dir = std::env::temp_dir().join(format!("udbms-lint-live-{}", std::process::id()));
        let sub = dir.join("crates/engine/src");
        fs::create_dir_all(&sub).unwrap();
        fs::write(
            sub.join("x.rs"),
            "fn f(x: Option<u8>) {\n    // lint:allow(unwrap): checked by caller\n    x.unwrap();\n}\nfn g(y: Option<u8>) {\n    y.unwrap();\n}\n",
        )
        .unwrap();
        let allow = Allowlist::parse("unwrap crates/engine/src/x.rs\n");
        let findings = lint_workspace(&dir, &allow).unwrap();
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
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    // lint:allow(unwrap): demo marker inside a test\n    fn g() {}\n}\n",
        )
        .unwrap();
        let findings = lint_workspace(&dir, &Allowlist::default()).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allowlist_matches_rule_path_and_function() {
        let allow = Allowlist::parse(
            "# comment\n\nlock-order crates/engine/src/x.rs special\nunwrap crates/query/src/lexer.rs\n",
        );
        assert_eq!(allow.len(), 2);
        let mk = |rule, file: &str, function: Option<&str>| Finding {
            rule,
            file: file.to_string(),
            line: 1,
            function: function.map(str::to_string),
            message: String::new(),
        };
        assert!(allow.allows(&mk(
            Rule::LockOrder,
            "crates/engine/src/x.rs",
            Some("special")
        )));
        assert!(!allow.allows(&mk(
            Rule::LockOrder,
            "crates/engine/src/x.rs",
            Some("other")
        )));
        assert!(allow.allows(&mk(Rule::Unwrap, "crates/query/src/lexer.rs", None)));
        assert!(!allow.allows(&mk(Rule::Safety, "crates/query/src/lexer.rs", None)));
    }
}
