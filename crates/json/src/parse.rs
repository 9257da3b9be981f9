//! Recursive-descent JSON parser (RFC 8259).
//!
//! Integral numbers that fit `i64` become [`Value::Int`]; everything else
//! numeric becomes [`Value::Float`]. Errors carry 1-based line/column.

use udbms_core::{Error, Object, Result, Symbol, Value};

/// Maximum nesting depth of arrays/objects (guards stack overflow on
/// adversarial inputs).
const MAX_DEPTH: usize = 128;

/// Parse a single JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser::new(input);
    let v = p.parse_value(0)?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
    /// The fields of the objects being parsed, innermost last. Each
    /// object's fields move out at its `}`, so the stack is allocated
    /// once per document and each object once, at its size.
    fields: Vec<(Symbol, Value)>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            fields: Vec::new(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::parse("json", self.line, self.col, msg)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.bump();
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                Err(self.err(format!("expected `{}`, found `{}`", b as char, got as char)))
            }
            None => Err(self.err(format!("expected `{}`, found end of input", b as char))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        for &b in kw.as_bytes() {
            match self.bump() {
                Some(got) if got == b => {}
                _ => return Err(self.err(format!("invalid literal, expected `{kw}`"))),
            }
        }
        Ok(())
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting exceeds max depth {MAX_DEPTH}")));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                Some(b) => {
                    return Err(self.err(format!("expected `,` or `]`, found `{}`", b as char)))
                }
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Object(Object::new()));
        }
        // fields are stacked as written and sorted once at the `}`; the
        // last value wins for a repeated key
        let start = self.fields.len();
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.parse_key()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value(depth + 1)?;
            self.fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(self.fields.drain(start..).collect())),
                Some(b) => {
                    return Err(self.err(format!("expected `,` or `}}`, found `{}`", b as char)))
                }
                None => return Err(self.err("unterminated object")),
            }
        }
    }

    /// An object key, interned straight from the input when it holds no
    /// escape, as almost every key does. The caller has seen its `"`.
    fn parse_key(&mut self) -> Result<Symbol> {
        let start = self.pos + 1;
        let run = (self.bytes.get(start..)).and_then(|rest| {
            rest.iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        });
        // a run that `"` ends is the whole key, and both its ends are
        // char boundaries
        if let Some(len) = run.filter(|&len| self.bytes[start + len] == b'"') {
            if let Some(key) = self.input.get(start..start + len) {
                self.pos = start + len + 1;
                self.col += len + 2;
                return Ok(Symbol::new(key));
            }
        }
        self.parse_string().map(Symbol::from)
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: copy a run of plain bytes at once
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.bump();
            }
            if self.pos > start {
                // SAFETY-free: input was &str, so any byte run is valid UTF-8
                // as long as we only split at ASCII boundaries, which `"`,
                // `\` and control chars are.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 inside string"))?,
                );
            }
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        if (0xD800..0xDC00).contains(&cp) {
                            // high surrogate: require a following \uXXXX low half
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate escape"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(
                                char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"))?,
                            );
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?);
                        }
                    }
                    Some(b) => return Err(self.err(format!("invalid escape `\\{}`", b as char))),
                    None => return Err(self.err("unterminated escape")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.err(format!("raw control character 0x{b:02x} in string")))
                }
                Some(_) => unreachable!("fast path consumed plain bytes"),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        // integer part
        match self.peek() {
            Some(b'0') => {
                self.bump();
            }
            Some(b) if b.is_ascii_digit() => {
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.bump();
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            if !matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            // overflow falls through to float
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(format!("unparseable number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{arr, obj};

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("3.5").unwrap(), Value::Float(3.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("-2.5E-2").unwrap(), Value::Float(-0.025));
        assert_eq!(parse("\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn integer_overflow_becomes_float() {
        let v = parse("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn containers_and_nesting() {
        assert_eq!(parse("[]").unwrap(), arr![]);
        assert_eq!(parse("[1, 2, 3]").unwrap(), arr![1, 2, 3]);
        assert_eq!(parse("{}").unwrap(), obj! {});
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get_dotted("a[1].b").unwrap(), &Value::Null);
        assert_eq!(v.get_dotted("c").unwrap(), &Value::from("x"));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\n\tA""#).unwrap(),
            Value::from("a\"b\\c/d\n\tA")
        );
        // surrogate pair: 😀 U+1F600
        assert_eq!(parse(r#""😀""#).unwrap(), Value::from("😀"));
        // unicode passthrough
        assert_eq!(parse("\"äö€\"").unwrap(), Value::from("äö€"));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("{\n  \"a\": ]\n}").unwrap_err();
        match err {
            Error::Parse { format, line, .. } => {
                assert_eq!(format, "json");
                assert_eq!(line, 2);
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\q escape\"",
            "[1] trailing",
            "{\"a\":1,}",
            "\"\\ud800\"",
            "nan",
            "+1",
            "--1",
            "[\u{0007}]",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_last_wins_by_default() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get_field("a"), &Value::Int(2));
    }

    #[test]
    fn unsorted_and_repeated_keys_round_trip_sorted_last_wins() {
        let text = r#"{"z":1,"b":{"y":1,"x":2,"y":3},"a":[{"k":1,"k":2}],"z":4,"m":null}"#;
        let v = parse(text).unwrap();
        let printed = crate::to_string(&v);
        assert_eq!(
            printed,
            r#"{"a":[{"k":2}],"b":{"x":2,"y":3},"m":null,"z":4}"#
        );
        assert_eq!(parse(&printed).unwrap(), v);
        // wide enough to be looked up by binary search
        let wide: String = (0..40)
            .rev()
            .map(|i| format!(r#""f{i:02}":{i},"#))
            .collect();
        let v = parse(&format!(r#"{{{wide}"f07":-7}}"#)).unwrap();
        assert_eq!(v.as_object().map(|o| o.len()), Some(40));
        assert_eq!(v.get_field("f07"), &Value::Int(-7));
        assert_eq!(v.get_field("f39"), &Value::Int(39));
        assert!(crate::to_string(&v).starts_with(r#"{"f00":0,"f01":1,"#));
    }

    #[test]
    fn depth_limit_guards_recursion() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_tolerance() {
        let v = parse(" \t\r\n { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get_dotted("a[1]").unwrap(), &Value::Int(2));
    }
}
