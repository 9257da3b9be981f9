//! **L6 `atomic-order`** over the token stream: in non-test
//! `crates/engine` and `crates/query` code, `Ordering::Relaxed` only on
//! the pure counters registered in `RELAXED_OK`, and every
//! synchronizing ordering with an adjacent `// ORDER:` comment naming
//! the store/load it pairs with. The model checker (`--cfg
//! model_check`) explores what these orderings allow; the comment is
//! the human-readable half of that contract.

use std::fmt;

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// One L6 finding.
#[derive(Debug)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [atomic-order] {}",
            self.file, self.line, self.message
        )
    }
}

/// Atomics allowed to use `Ordering::Relaxed`, by field name: pure
/// counters and advisory flags whose readers never infer *other* memory
/// from the value (txn-id and auto-id allocation, the is-a-drain-in-flight probe,
/// plan-cache hit/miss tallies; the engine's own tallies are `udbms-obs`
/// registry counters, which this rule does not reach). Adding a name
/// here is a reviewed decision, not a default. Everything else upgrades
/// to a synchronizing ordering with an `// ORDER:` comment.
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

/// Whether L6 (atomic orderings) applies to this repo-relative path:
/// the crates whose lock-free paths the model checker covers.
pub fn atomic_order_scoped(path: &str) -> bool {
    path.starts_with("crates/engine/src/") || path.starts_with("crates/query/src/")
}

/// Lint one file's source. `path` is repo-relative with forward
/// slashes; files outside [`atomic_order_scoped`] have no findings.
pub fn lint_file(path: &str, src: &str) -> Vec<Finding> {
    if !atomic_order_scoped(path) {
        return Vec::new();
    }
    let lexed = lex(src);
    let test_from = test_region_start(&lexed.tokens).unwrap_or(usize::MAX);
    check_atomic_order(path, &lexed, test_from)
}

/// Token index from which everything is `#[cfg(test)]`-gated: the
/// first `#[cfg(test)]` attribute on an inline `mod` (`pub(crate) mod`
/// too). The workspace convention is one trailing test module; a gated
/// `use` or `fn` elsewhere does not start the region, so it cannot
/// exempt the rest of the file.
pub(crate) fn test_region_start(tokens: &[Token]) -> Option<usize> {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let gated_mod = |item: &[Token]| {
        let end = item.iter().position(|t| t.text == ";" || t.text == "{");
        end.is_some_and(|e| item[e].text == "{" && item[..e].iter().any(|t| t.text == "mod"))
    };
    let attr_at = |i: usize| {
        tokens[i..]
            .iter()
            .take(ATTR.len())
            .map(|t| t.text.as_str())
            .eq(ATTR)
    };
    (0..tokens.len()).find(|&i| attr_at(i) && gated_mod(&tokens[i + ATTR.len()..]))
}

/// Every `Ordering::<memory ordering>` token before `test_from` is
/// classified: `Relaxed` must sit in a statement touching a
/// [`RELAXED_OK`]-registered counter/flag; a synchronizing ordering
/// must carry an `// ORDER:` comment on its line or the contiguous
/// comment block above, naming its pairing.
fn check_atomic_order(path: &str, lexed: &Lexed, test_from: usize) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate().take(test_from) {
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
        if !is_ordering_path {
            continue;
        }
        let message = if t.text == "Relaxed" {
            let start = statement_start(toks, i);
            let registered = toks
                .iter()
                .skip(start)
                .take_while(|t| t.text != ";")
                .any(|t| t.kind == TokenKind::Ident && RELAXED_OK.contains(&t.text.as_str()));
            if registered {
                continue;
            }
            "`Ordering::Relaxed` on an atomic that is not a registered pure counter — use a \
             synchronizing ordering (with an `// ORDER:` comment) or register the counter in \
             RELAXED_OK"
                .to_string()
        } else if has_order_comment(lexed, t.line) {
            continue;
        } else {
            format!(
                "`Ordering::{}` without an adjacent `// ORDER:` comment — document which \
                 store/load this pairs with",
                t.text
            )
        };
        findings.push(Finding {
            file: path.to_string(),
            line: t.line,
            message,
        });
    }
    findings
}

/// An `// ORDER:` comment on `line` or in the contiguous comment-only
/// block immediately above it.
fn has_order_comment(lexed: &Lexed, line: u32) -> bool {
    let tagged = |c: &str| c.contains("ORDER:");
    if lexed.comment_on(line).is_some_and(tagged) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 {
        match lexed.comment_on(l) {
            Some(c) if !lexed.has_code(l) => {
                if tagged(c) {
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
