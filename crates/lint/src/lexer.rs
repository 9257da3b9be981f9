//! A minimal Rust lexer — just enough structure for the lint rules.
//!
//! Produces a flat token stream (identifiers, punctuation, literals)
//! with line numbers, plus the comment text per line and the set of
//! lines carrying any code token. Comments, strings (including raw and
//! byte strings), char literals and lifetimes are recognized so that
//! keywords inside them never reach the rules; beyond that no grammar
//! is imposed — the rules do their own lightweight matching over the
//! stream.

/// What a token is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
    /// String/char/numeric literal (text not preserved).
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token text; empty for literals (never matched on).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Classification.
    pub kind: TokenKind,
}

/// Lexer output over one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// Concatenated comment text per 1-based line (doc comments
    /// included); lines without comments are absent.
    pub comments: Vec<(u32, String)>,
    /// 1-based lines that carry at least one token.
    pub code_lines: Vec<u32>,
}

impl Lexed {
    /// Comment text on `line`, if any.
    pub fn comment_on(&self, line: u32) -> Option<&str> {
        self.comments
            .iter()
            .find(|(l, _)| *l == line)
            .map(|(_, t)| t.as_str())
    }

    /// Whether `line` carries any code token.
    pub fn has_code(&self, line: u32) -> bool {
        self.code_lines.binary_search(&line).is_ok()
    }
}

/// Lex `src` into tokens + comments. Never fails: unterminated
/// constructs simply end at EOF (the compiler reports those; the lint
/// only needs a best-effort stream).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    let push_comment = |out: &mut Lexed, line: u32, text: &str| {
        if let Some((l, existing)) = out.comments.last_mut() {
            if *l == line {
                existing.push(' ');
                existing.push_str(text);
                return;
            }
        }
        out.comments.push((line, text.to_string()));
    };

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = src[start..i].trim_start_matches('/').trim();
                push_comment(&mut out, line, text);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // nested block comment; record each spanned line
                let mut depth = 1usize;
                i += 2;
                let mut seg_start = i;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        push_comment(&mut out, line, src[seg_start..i].trim());
                        line += 1;
                        i += 1;
                        seg_start = i;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(seg_start);
                push_comment(&mut out, line, src[seg_start..end].trim());
            }
            b'"' => {
                i = skip_string(b, i + 1, &mut line);
                token(&mut out, "", line, TokenKind::Literal);
            }
            b'r' | b'b' if raw_string_start(b, i).is_some() => {
                if let Some((hashes, body)) = raw_string_start(b, i) {
                    i = skip_raw_string(b, body, hashes, &mut line);
                    token(&mut out, "", line, TokenKind::Literal);
                }
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'\'' => {
                i = skip_char(b, i + 2, &mut line);
                token(&mut out, "", line, TokenKind::Literal);
            }
            b'\'' => {
                // char literal or lifetime: a literal is `'\…'` or
                // `'<one char>'` (the char may be multi-byte)
                let rest = &src[i + 1..];
                let is_char = match rest.chars().next() {
                    Some('\\') => true,
                    Some(c) => rest.as_bytes().get(c.len_utf8()) == Some(&b'\''),
                    None => false,
                };
                if is_char {
                    i = skip_char(b, i + 1, &mut line);
                    token(&mut out, "", line, TokenKind::Literal);
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    token(&mut out, &src[start..i], line, TokenKind::Lifetime);
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                // r#ident raw identifiers lex as the bare ident
                if (c == b'r' && i + 1 < b.len() && b[i + 1] == b'#')
                    && i + 2 < b.len()
                    && (b[i + 2] == b'_' || b[i + 2].is_ascii_alphabetic())
                {
                    i += 2;
                }
                let word_start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                token(&mut out, &src[word_start..i], line, TokenKind::Ident);
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                token(&mut out, "", line, TokenKind::Literal);
            }
            _ => {
                // multi-byte chars (unicode idents, stray symbols) are
                // skipped: no rule matches them
                let len = src[i..].chars().next().map_or(1, char::len_utf8);
                if len == 1 {
                    token(&mut out, &src[i..i + 1], line, TokenKind::Punct);
                }
                i += len;
            }
        }
    }
    out.code_lines.dedup();
    out
}

fn token(out: &mut Lexed, text: &str, line: u32, kind: TokenKind) {
    out.tokens.push(Token {
        text: text.to_string(),
        line,
        kind,
    });
    if out.code_lines.last() != Some(&line) {
        out.code_lines.push(line);
    }
}

/// If position `i` starts a raw (byte) string `r"`, `br#"`, …, return
/// `(hash_count, index_just_past_the_opening_quote)`.
fn raw_string_start(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < b.len() && b[j] == b'"' {
        Some((hashes, j + 1))
    } else {
        None
    }
}

fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_string(b: &[u8], mut i: usize, hashes: usize, line: &mut u32) -> usize {
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"'
            && b[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

fn skip_char(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_keywords() {
        let src = r##"
// unsafe in a comment
let s = "unsafe { unwrap() }";
let r = r#"panic!("x")"#;
/* unsafe
   spanning lines */
fn real() {}
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        // 'x' lexes as a literal, not a lifetime
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.line == 1));
    }

    #[test]
    fn comment_text_is_recorded_per_line() {
        let src = "// SAFETY: fine\nunsafe {}\n";
        let lexed = lex(src);
        assert!(lexed.comment_on(1).expect("comment").contains("SAFETY:"));
        assert!(!lexed.has_code(1));
        assert!(lexed.has_code(2));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = "let s = \"a\\\"unwrap()\\\"b\"; call()";
        assert!(idents(src).contains(&"call".to_string()));
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_idents_lex_as_bare_words() {
        assert_eq!(idents("r#match"), vec!["match"]);
    }
}
