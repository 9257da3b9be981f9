//! The three project rules, evaluated over the token stream.
//!
//! * **L1 `lock-order`** — within one function body, acquisitions of
//!   ranked locks must be non-decreasing in rank (shards strictly
//!   ascending by index where the index is a literal). Ranks are
//!   assigned by *receiver name* (`commit_lock`, `catalog`, `shard`…),
//!   mirroring `parking_lot::LockRank`.
//! * **L2 `safety`** — every `unsafe` token must be preceded by a
//!   `// SAFETY:` comment (same line or the contiguous comment block
//!   above the statement).
//! * **L6 `atomic-order`** — in non-test `crates/engine` and
//!   `crates/query` code, `Ordering::Relaxed` is legal only on the
//!   registered pure counters (see [`RELAXED_OK`], the atomic analogue
//!   of the `RANKED` lock table), and every *synchronizing* ordering
//!   (`Acquire`/`Release`/`AcqRel`/`SeqCst`) must carry an adjacent
//!   `// ORDER:` comment naming the store/load it pairs with. The
//!   model checker (`--cfg model_check`) explores what these orderings
//!   allow; the comment is the human-readable half of that contract.
//!
//! L3-L5 (unwrap/panic, raw locks, raw clock reads) are compiler lints
//! (see the crate docs), so they have no implementation here.
//!
//! Suppression: an inline `// lint:allow(<rule>): reason` comment on
//! the offending line or the line above.

use std::fmt;

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L1: ranked-lock acquisition order within a function.
    LockOrder,
    /// L2: `unsafe` without a `// SAFETY:` comment.
    Safety,
    /// L6: undisciplined atomic memory orderings in `crates/engine` /
    /// `crates/query` (unregistered `Relaxed`, or a synchronizing
    /// ordering without an `// ORDER:` pairing comment).
    AtomicOrder,
    /// A `lint:allow` marker that no longer suppresses anything
    /// (reported by [`crate::lint_workspace`]).
    UnusedSuppression,
}

impl Rule {
    /// The name used in `lint:allow(...)` markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::Safety => "safety",
            Rule::AtomicOrder => "atomic-order",
            Rule::UnusedSuppression => "unused-suppression",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function, when known.
    pub function: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if let Some(func) = &self.function {
            write!(f, " (in fn {func})")?;
        }
        Ok(())
    }
}

/// The engine's documented lock order, keyed by receiver name. Kept in
/// sync with `parking_lot::LockRank` (same numeric ranks).
const RANKED: &[(&str, u8)] = &[
    ("checkpoint_lock", 0),
    ("commit_lock", 1),
    ("catalog", 2),
    ("shard", 3),
    ("shard_for", 3),
    ("shards", 3),
    ("state", 4),
    ("wal", 5),
    ("active", 6),
    ("shelf", 7),
];

const SHARD_RANK: u8 = 3;

/// Atomics allowed to use `Ordering::Relaxed`, by field name: pure
/// counters and advisory flags whose readers never infer *other* memory
/// from the value (txn-id and auto-id allocation, the is-a-drain-in-flight probe,
/// plan-cache hit/miss tallies; the engine's own tallies are `udbms-obs`
/// registry counters, which this rule does not reach). The atomic
/// analogue of [`RANKED`]: adding a name here is a reviewed decision,
/// not a default. Everything else either upgrades to a synchronizing
/// ordering (with an `// ORDER:` comment) or gets a `lint:allow`.
const RELAXED_OK: &[&str] = &[
    "next_txn",
    "next_auto_id",
    "writing",
    "hits",
    "misses",
    // fault-injection plan (wal/fault.rs): advisory rule/seed atomics —
    // every check runs under the WAL file mutex, which provides the
    // real ordering; arming from another thread only shifts which hit
    // a rule first applies to
    "fault_mode",
    "fault_aux",
    "fault_rng",
];

fn rank_of(name: &str) -> Option<u8> {
    RANKED.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
}

fn rank_name(rank: u8) -> &'static str {
    match rank {
        0 => "Checkpoint",
        1 => "Commit",
        2 => "Catalog",
        3 => "Shard",
        4 => "GroupQueue",
        5 => "WalFile",
        6 => "ActiveTxns",
        _ => "PlanCache",
    }
}

/// Whether L6 (atomic orderings) applies to this repo-relative path:
/// the crates whose lock-free paths the model checker covers.
pub fn atomic_order_scoped(path: &str) -> bool {
    path.starts_with("crates/engine/src/") || path.starts_with("crates/query/src/")
}

/// An inline `// lint:allow(<rule>)` marker found in a file.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// The rule name inside the parentheses (not validated).
    pub rule: String,
    /// 1-based line the marker's comment is on.
    pub line: u32,
}

/// The raw lint result for one file: unsuppressed findings, every
/// inline allow marker, and where the `#[cfg(test)]` region starts (by
/// line), so [`crate::lint_workspace`] can apply suppressions *and*
/// notice the stale ones.
#[derive(Debug, Default)]
pub struct FileLint {
    /// All findings, before any inline suppression.
    pub findings: Vec<Finding>,
    /// Every `lint:allow(...)` marker in the file.
    pub markers: Vec<AllowMarker>,
    /// First line of the trailing test region, when present.
    pub test_region_line: Option<u32>,
}

impl FileLint {
    /// Whether `marker` suppresses `finding` (same rule, marker on the
    /// finding's line or the line above).
    pub fn covers(marker: &AllowMarker, finding: &Finding) -> bool {
        marker.rule == finding.rule.name()
            && (finding.line == marker.line || finding.line == marker.line + 1)
    }
}

/// Lint one file's source, returning raw findings plus the suppression
/// inventory. `path` is repo-relative with forward slashes; it selects
/// which rules apply (L1/L2 run everywhere, L6 on its scoped crates).
pub fn lint_file(path: &str, src: &str) -> FileLint {
    let lexed = lex(src);
    let mut findings = Vec::new();
    let test_from = test_region_start(&lexed.tokens);
    let in_test = |i: usize| test_from.is_some_and(|from| i >= from);

    check_lock_order(path, &lexed, &in_test, &mut findings);
    check_safety(path, &lexed, &mut findings);
    if atomic_order_scoped(path) {
        check_atomic_order(path, &lexed, &in_test, &mut findings);
    }
    FileLint {
        findings,
        markers: allow_markers(&lexed),
        test_region_line: test_from.map(|i| lexed.tokens[i].line),
    }
}

/// Lint one file's source with inline `lint:allow` markers applied.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let file = lint_file(path, src);
    file.findings
        .into_iter()
        .filter(|f| !file.markers.iter().any(|m| FileLint::covers(m, f)))
        .collect()
}

/// Every `lint:allow(<rule>)` occurrence in the file's comments.
fn allow_markers(lexed: &Lexed) -> Vec<AllowMarker> {
    let mut markers = Vec::new();
    for (line, text) in &lexed.comments {
        let mut rest = text.as_str();
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            if let Some(end) = rest.find(')') {
                markers.push(AllowMarker {
                    rule: rest[..end].to_string(),
                    line: *line,
                });
                rest = &rest[end..];
            }
        }
    }
    markers
}

/// Token index from which everything is `#[cfg(test)]`-gated. The
/// workspace convention is one trailing `mod tests`, so the first
/// `#[cfg(test)]` attribute starts the test region; this deliberately
/// over-approximates (an early cfg(test) item exempts the rest of the
/// file) — acceptable because the convention is enforced by review and
/// the rules only *relax* inside the region.
fn test_region_start(tokens: &[Token]) -> Option<usize> {
    tokens.windows(6).position(|w| {
        w[0].text == "#"
            && w[1].text == "["
            && w[2].text == "cfg"
            && w[3].text == "("
            && w[4].text == "test"
            && w[5].text == ")"
    })
}

/// One ranked-lock acquisition currently assumed held.
struct HeldLock {
    rank: u8,
    /// Literal shard index when the receiver was `shard(<int>)`; None
    /// for computed indexes (those are skipped by the ascending check —
    /// the dynamic tracker covers them).
    index: Option<u64>,
    /// `let` binding name, for `drop(name)` release.
    binding: Option<String>,
    /// Brace depth at acquisition; released when the block closes.
    depth: usize,
    /// Statement ordinal, for releasing same-statement temporaries.
    stmt: u64,
    /// Whether the guard is a temporary (released at end of statement).
    temp: bool,
    line: u32,
    receiver: String,
}

struct FnFrame {
    name: String,
    /// Depth *inside* the body.
    body_depth: usize,
}

fn check_lock_order(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    let mut depth = 0usize;
    let mut fns: Vec<FnFrame> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut held: Vec<HeldLock> = Vec::new();
    let mut stmt = 0u64;
    let mut stmt_has_let = false;
    let mut stmt_binding: Option<String> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "fn") => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    pending_fn = Some(name.text.clone());
                }
            }
            (TokenKind::Ident, "let") => {
                stmt_has_let = true;
                stmt_binding = None;
                // binding name: `let x`, `let mut x`; patterns give None
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                if let Some(n) = toks.get(j).filter(|n| n.kind == TokenKind::Ident) {
                    stmt_binding = Some(n.text.clone());
                }
            }
            (TokenKind::Punct, "{") => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fns.push(FnFrame {
                        name,
                        body_depth: depth,
                    });
                }
                stmt += 1;
                stmt_has_let = false;
            }
            (TokenKind::Punct, "}") => {
                held.retain(|h| h.depth < depth);
                if fns.last().is_some_and(|f| f.body_depth == depth) {
                    fns.pop();
                }
                depth = depth.saturating_sub(1);
                stmt += 1;
                stmt_has_let = false;
            }
            (TokenKind::Punct, ";") => {
                let cur = stmt;
                held.retain(|h| !(h.temp && h.stmt == cur));
                stmt += 1;
                stmt_has_let = false;
                stmt_binding = None;
                pending_fn = None; // trait method signature without a body
            }
            (TokenKind::Ident, "drop")
                if toks.get(i + 1).is_some_and(|t| t.text == "(")
                    && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                    && toks.get(i + 3).is_some_and(|t| t.text == ")") =>
            {
                let name = toks[i + 2].text.as_str();
                if let Some(pos) = held
                    .iter()
                    .rposition(|h| h.binding.as_deref() == Some(name))
                {
                    held.remove(pos);
                }
            }
            (TokenKind::Ident, "lock" | "read" | "write")
                if toks.get(i.wrapping_sub(1)).is_some_and(|p| p.text == ".")
                    && toks.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                if let Some((receiver, index)) = receiver_of(toks, i - 1) {
                    if let Some(rank) = rank_of(&receiver) {
                        if !in_test(i) && !fns.is_empty() {
                            report_inversions(
                                path,
                                &held,
                                rank,
                                index,
                                &receiver,
                                t.line,
                                fns.last().map(|f| f.name.as_str()),
                                findings,
                            );
                        }
                        let close = matching_close(toks, i + 1);
                        let chained = close
                            .and_then(|c| toks.get(c + 1))
                            .is_some_and(|n| n.text == ".");
                        let temp = chained || !stmt_has_let;
                        held.push(HeldLock {
                            rank,
                            index,
                            binding: if temp { None } else { stmt_binding.clone() },
                            depth,
                            stmt,
                            temp,
                            line: t.line,
                            receiver,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn report_inversions(
    path: &str,
    held: &[HeldLock],
    rank: u8,
    index: Option<u64>,
    receiver: &str,
    line: u32,
    function: Option<&str>,
    findings: &mut Vec<Finding>,
) {
    for h in held {
        let inverted = if h.rank == SHARD_RANK && rank == SHARD_RANK {
            match (h.index, index) {
                (Some(a), Some(b)) => a >= b,
                _ => false, // computed indexes: dynamic tracker's job
            }
        } else {
            h.rank > rank
        };
        if inverted {
            findings.push(Finding {
                rule: Rule::LockOrder,
                file: path.to_string(),
                line,
                function: function.map(str::to_string),
                message: format!(
                    "acquiring `{receiver}` ({}) on line {line} while `{}` ({}) acquired on \
                     line {} is still held — ranked locks must be taken in non-decreasing \
                     rank order (shards strictly ascending)",
                    rank_name(rank),
                    h.receiver,
                    rank_name(h.rank),
                    h.line,
                ),
            });
        }
    }
}

/// Resolve the receiver of a `.lock()/.read()/.write()` call: walking
/// left from the `.`, skip one balanced `(...)`/`[...]` group, then
/// take the identifier. `shard(3)` also yields the literal index.
fn receiver_of(toks: &[Token], dot: usize) -> Option<(String, Option<u64>)> {
    let mut j = dot.checked_sub(1)?;
    let mut index = None;
    if toks[j].text == ")" || toks[j].text == "]" {
        let open = matching_open(toks, j)?;
        // a single integer-literal argument is a usable shard index;
        // anything else is a computed index, left to the dynamic tracker
        if j == open + 2 {
            let arg = &toks[open + 1];
            if arg.kind == TokenKind::Literal
                && !arg.text.is_empty()
                && arg.text.chars().all(|c| c.is_ascii_digit())
            {
                index = arg.text.parse().ok();
            }
        }
        j = open.checked_sub(1)?;
    }
    let recv = toks.get(j)?;
    if recv.kind == TokenKind::Ident {
        Some((recv.text.clone(), index))
    } else {
        None
    }
}

fn matching_close(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

fn matching_open(toks: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close).rev() {
        match toks[k].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// L2: each `unsafe` must carry a `SAFETY:` comment on its line or in
/// the contiguous comment-only block immediately above it.
fn check_safety(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    for t in lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && t.text == "unsafe")
    {
        if !has_tag_comment(lexed, t.line, "SAFETY:") {
            findings.push(Finding {
                rule: Rule::Safety,
                file: path.to_string(),
                line: t.line,
                function: None,
                message: "`unsafe` without a `// SAFETY:` comment immediately above".into(),
            });
        }
    }
}

/// L6: atomic-ordering discipline in the model-checked crates. Every
/// `Ordering::<memory ordering>` token is classified: `Relaxed` must sit
/// in a statement touching a [`RELAXED_OK`]-registered counter/flag;
/// a synchronizing ordering must carry an `// ORDER:` comment on its
/// line or the contiguous comment block above, naming its pairing.
fn check_atomic_order(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !matches!(
                t.text.as_str(),
                "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
            )
        {
            continue;
        }
        // must be a path ending `Ordering :: <ord>` (filters out
        // `cmp::Ordering` variants by name and bare idents by path)
        let is_ordering_path = i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].text == "Ordering";
        if !is_ordering_path || in_test(i) {
            continue;
        }
        if t.text == "Relaxed" {
            let start = statement_start(toks, i);
            let registered = toks
                .iter()
                .skip(start)
                .take_while(|t| t.text != ";")
                .any(|t| t.kind == TokenKind::Ident && RELAXED_OK.contains(&t.text.as_str()));
            if !registered {
                findings.push(Finding {
                    rule: Rule::AtomicOrder,
                    file: path.to_string(),
                    line: t.line,
                    function: None,
                    message: "`Ordering::Relaxed` on an atomic that is not a registered pure \
                              counter — use a synchronizing ordering (with an `// ORDER:` \
                              comment), register the counter in RELAXED_OK, or justify with \
                              `// lint:allow(atomic-order): <reason>`"
                        .into(),
                });
            }
        } else if !has_tag_comment(lexed, t.line, "ORDER:") {
            findings.push(Finding {
                rule: Rule::AtomicOrder,
                file: path.to_string(),
                line: t.line,
                function: None,
                message: format!(
                    "`Ordering::{}` without an adjacent `// ORDER:` comment — document \
                     which store/load this pairs with (or justify with \
                     `// lint:allow(atomic-order): <reason>`)",
                    t.text
                ),
            });
        }
    }
}

/// `tag` (`SAFETY:`, `ORDER:`) in the comment on `line` or in the
/// contiguous comment-only block immediately above it.
fn has_tag_comment(lexed: &Lexed, line: u32, tag: &str) -> bool {
    if lexed.comment_on(line).is_some_and(|c| c.contains(tag)) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 {
        match lexed.comment_on(l) {
            Some(c) if !lexed.has_code(l) => {
                if c.contains(tag) {
                    return true;
                }
            }
            _ => return false,
        }
        l -= 1;
    }
    false
}

/// Index of the token starting the statement containing `i` (just past
/// the nearest `;`, `{` or `}` before it).
fn statement_start(toks: &[Token], i: usize) -> usize {
    toks[..i]
        .iter()
        .rposition(|t| t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}"))
        .map_or(0, |p| p + 1)
}
