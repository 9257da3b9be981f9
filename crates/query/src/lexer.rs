//! MMQL lexer.
//!
//! Keywords are case-insensitive (`for` == `FOR`); identifiers are
//! case-sensitive. Strings take single or double quotes with the usual
//! escapes. `//` starts a line comment.

use udbms_core::{Error, Result};

/// A token with its source position (1-based line/column).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Line of the first character.
    pub line: usize,
    /// Column of the first character.
    pub col: usize,
}

/// The token kinds of MMQL.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword (uppercased).
    Keyword(&'static str),
    /// Identifier.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (unescaped).
    Str(String),
    /// Bind parameter (`@name`, stored without the `@`).
    Param(String),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Render for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Keyword(k) => format!("keyword `{k}`"),
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Float(f) => format!("float `{f}`"),
            TokenKind::Str(s) => format!("string {s:?}"),
            TokenKind::Param(p) => format!("parameter `@{p}`"),
            TokenKind::Punct(p) => format!("`{p}`"),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

const KEYWORDS: &[&str] = &[
    "FOR",
    "IN",
    "FILTER",
    "RETURN",
    "LET",
    "SORT",
    "ASC",
    "DESC",
    "LIMIT",
    "COLLECT",
    "AGGREGATE",
    "INTO",
    "INSERT",
    "UPDATE",
    "WITH",
    "REMOVE",
    "OUTBOUND",
    "INBOUND",
    "ANY",
    "GRAPH",
    "LABEL",
    "AND",
    "OR",
    "NOT",
    "TRUE",
    "FALSE",
    "NULL",
    "LIKE",
    "DISTINCT",
];

const PUNCTS: &[&str] = &[
    "..", "==", "!=", "<=", ">=", "&&", "||", "(", ")", "[", "]", "{", "}", ",", ":", ".", "<",
    ">", "=", "+", "-", "*", "/", "%", "!",
];

/// Tokenize MMQL source text.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let (mut i, mut line, mut col) = (0usize, 1usize, 1usize);

    let err = |line: usize, col: usize, msg: String| Error::parse("mmql", line, col, msg);

    while i < bytes.len() {
        let b = bytes[i];
        // whitespace
        if b == b'\n' {
            i += 1;
            line += 1;
            col = 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        // comments
        if bytes[i..].starts_with(b"//") {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let (tline, tcol) = (line, col);
        // strings
        if b == b'"' || b == b'\'' {
            let quote = b;
            i += 1;
            col += 1;
            let mut s = String::new();
            loop {
                if i >= bytes.len() {
                    return Err(err(tline, tcol, "unterminated string".into()));
                }
                let c = bytes[i];
                if c == quote {
                    i += 1;
                    col += 1;
                    break;
                }
                if c == b'\\' {
                    i += 1;
                    col += 1;
                    let esc = *bytes
                        .get(i)
                        .ok_or_else(|| err(tline, tcol, "unterminated escape".into()))?;
                    s.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'\\' => '\\',
                        b'\'' => '\'',
                        b'"' => '"',
                        other => {
                            return Err(err(
                                line,
                                col,
                                format!("invalid escape `\\{}`", other as char),
                            ))
                        }
                    });
                    i += 1;
                    col += 1;
                    continue;
                }
                // multi-byte UTF-8 passthrough
                let ch_len = utf8_len(c);
                s.push_str(
                    std::str::from_utf8(&bytes[i..i + ch_len])
                        .map_err(|_| err(line, col, "invalid UTF-8".into()))?,
                );
                if c == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += ch_len;
            }
            tokens.push(Token {
                kind: TokenKind::Str(s),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // numbers
        if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
                col += 1;
            }
            let mut is_float = false;
            // a '.' followed by a digit is a decimal point; ".." is a range
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                is_float = true;
                i += 1;
                col += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                    col += 1;
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                is_float = true;
                i += 1;
                col += 1;
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    i += 1;
                    col += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                    col += 1;
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "the scanned range is ascii digits by construction"
            )]
            let text = std::str::from_utf8(&bytes[start..i]).expect("ascii digits");
            let kind = if is_float {
                TokenKind::Float(
                    text.parse()
                        .map_err(|_| err(tline, tcol, format!("bad float `{text}`")))?,
                )
            } else {
                TokenKind::Int(
                    text.parse()
                        .map_err(|_| err(tline, tcol, format!("integer overflow `{text}`")))?,
                )
            };
            tokens.push(Token {
                kind,
                line: tline,
                col: tcol,
            });
            continue;
        }
        // bind parameters: `@name`
        if b == b'@' {
            i += 1;
            col += 1;
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
                col += 1;
            }
            if start == i {
                return Err(err(tline, tcol, "expected parameter name after `@`".into()));
            }
            #[expect(
                clippy::expect_used,
                reason = "the scanned range is ascii alnum/underscore by construction"
            )]
            let name = std::str::from_utf8(&bytes[start..i]).expect("ascii param name");
            tokens.push(Token {
                kind: TokenKind::Param(name.to_string()),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // identifiers / keywords
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
                col += 1;
            }
            #[expect(
                clippy::expect_used,
                reason = "the scanned range is ascii alnum/underscore by construction"
            )]
            let text = std::str::from_utf8(&bytes[start..i]).expect("ascii ident");
            let upper = text.to_ascii_uppercase();
            let kind = match KEYWORDS.iter().find(|k| **k == upper) {
                Some(k) => TokenKind::Keyword(k),
                None => TokenKind::Ident(text.to_string()),
            };
            tokens.push(Token {
                kind,
                line: tline,
                col: tcol,
            });
            continue;
        }
        // punctuation (longest match first)
        let rest = &src[i..];
        let mut matched = false;
        for p in PUNCTS {
            if rest.starts_with(p) {
                tokens.push(Token {
                    kind: TokenKind::Punct(p),
                    line: tline,
                    col: tcol,
                });
                i += p.len();
                col += p.len();
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(err(
                tline,
                tcol,
                format!("unexpected character `{}`", b as char),
            ));
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
    });
    Ok(tokens)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("for FOR For"),
            vec![
                TokenKind::Keyword("FOR"),
                TokenKind::Keyword("FOR"),
                TokenKind::Keyword("FOR"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn identifiers_keep_case() {
        assert_eq!(
            kinds("customers Customers _x1"),
            vec![
                TokenKind::Ident("customers".into()),
                TokenKind::Ident("Customers".into()),
                TokenKind::Ident("_x1".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers_int_float_range() {
        assert_eq!(
            kinds("42 3.5 1e3 1..3"),
            vec![
                TokenKind::Int(42),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Int(1),
                TokenKind::Punct(".."),
                TokenKind::Int(3),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn member_dot_vs_decimal() {
        assert_eq!(
            kinds("a.b 1.5 x.0"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct("."),
                TokenKind::Ident("b".into()),
                TokenKind::Float(1.5),
                TokenKind::Ident("x".into()),
                TokenKind::Punct("."),
                TokenKind::Int(0),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes_and_unicode() {
        assert_eq!(
            kinds(r#""a\"b" 'c\'d' "ä€""#),
            vec![
                TokenKind::Str("a\"b".into()),
                TokenKind::Str("c'd".into()),
                TokenKind::Str("ä€".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("== != <= >= < > = .. ."),
            vec![
                TokenKind::Punct("=="),
                TokenKind::Punct("!="),
                TokenKind::Punct("<="),
                TokenKind::Punct(">="),
                TokenKind::Punct("<"),
                TokenKind::Punct(">"),
                TokenKind::Punct("="),
                TokenKind::Punct(".."),
                TokenKind::Punct("."),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn bind_parameters() {
        assert_eq!(
            kinds("FILTER c.id == @customer_1"),
            vec![
                TokenKind::Keyword("FILTER"),
                TokenKind::Ident("c".into()),
                TokenKind::Punct("."),
                TokenKind::Ident("id".into()),
                TokenKind::Punct("=="),
                TokenKind::Param("customer_1".into()),
                TokenKind::Eof
            ]
        );
        let toks = lex("  @p").unwrap();
        assert_eq!(
            (toks[0].line, toks[0].col),
            (1, 3),
            "position is at the `@`"
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("FOR // the rest is gone\nRETURN"),
            vec![
                TokenKind::Keyword("FOR"),
                TokenKind::Keyword("RETURN"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("FOR x\n  FILTER").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (1, 5));
        assert_eq!((toks[2].line, toks[2].col), (2, 3));
    }

    #[test]
    fn lexer_errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("'bad \\q escape'").is_err());
        assert!(lex("@").is_err());
        assert!(lex("99999999999999999999999").is_err());
    }
}
