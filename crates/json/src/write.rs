//! JSON serialization.
//!
//! Object keys come out in sorted order (an `Object` is its sorted fields),
//! which makes the compact rendering a *canonical form*: equal values
//! serialize to identical bytes. `Bytes` values — which JSON cannot
//! represent natively — are emitted as `"0x…"` hex strings so that every
//! unified value has *some* JSON rendering (needed by the polyglot wire
//! codec); parsing them back yields a string, which the KV facade
//! re-interprets where appropriate.

use std::io::{self, Write};

use udbms_core::Value;

/// Serialize compactly (canonical form).
pub fn to_string(v: &Value) -> String {
    let mut out = Vec::with_capacity(128);
    // Writing into a Vec<u8> cannot fail.
    to_writer(&mut out, v).expect("vec write");
    String::from_utf8(out).expect("serializer emits UTF-8")
}

/// Serialize with two-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = Vec::with_capacity(256);
    write_value(&mut out, v, Some(0)).expect("vec write");
    String::from_utf8(out).expect("serializer emits UTF-8")
}

/// Serialize compactly into any [`io::Write`] (streaming; used by the
/// polyglot wire codec and file exports).
pub fn to_writer<W: Write>(w: &mut W, v: &Value) -> io::Result<()> {
    write_value(w, v, None)
}

fn write_value<W: Write>(w: &mut W, v: &Value, indent: Option<usize>) -> io::Result<()> {
    match v {
        Value::Null => w.write_all(b"null"),
        Value::Bool(true) => w.write_all(b"true"),
        Value::Bool(false) => w.write_all(b"false"),
        Value::Int(i) => write!(w, "{i}"),
        Value::Float(f) => write_float(w, *f),
        Value::Str(s) => write_escaped_str(w, s),
        Value::Bytes(b) => {
            w.write_all(b"\"0x")?;
            for byte in b {
                write!(w, "{byte:02x}")?;
            }
            w.write_all(b"\"")
        }
        Value::Array(items) => {
            if items.is_empty() {
                return w.write_all(b"[]");
            }
            w.write_all(b"[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                newline_indent(w, indent.map(|d| d + 1))?;
                write_value(w, item, indent.map(|d| d + 1))?;
            }
            newline_indent(w, indent)?;
            w.write_all(b"]")
        }
        Value::Object(map) => {
            if map.is_empty() {
                return w.write_all(b"{}");
            }
            w.write_all(b"{")?;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                newline_indent(w, indent.map(|d| d + 1))?;
                write_escaped_str(w, k)?;
                w.write_all(if indent.is_some() { b": " } else { b":" })?;
                write_value(w, val, indent.map(|d| d + 1))?;
            }
            newline_indent(w, indent)?;
            w.write_all(b"}")
        }
    }
}

fn newline_indent<W: Write>(w: &mut W, indent: Option<usize>) -> io::Result<()> {
    if let Some(depth) = indent {
        w.write_all(b"\n")?;
        for _ in 0..depth {
            w.write_all(b"  ")?;
        }
    }
    Ok(())
}

fn write_float<W: Write>(w: &mut W, f: f64) -> io::Result<()> {
    if f.is_nan() || f.is_infinite() {
        // JSON has no NaN/Inf; emit null like most practical serializers.
        return w.write_all(b"null");
    }
    if f.fract() == 0.0 && f.abs() < 1e15 {
        // keep the float-ness visible so the value round-trips as Float…
        // except integral floats, which intentionally canonicalize to the
        // numerically-equal Int on re-parse (Int(2) == Float(2.0) in the
        // unified model, so round-trip equality still holds).
        write!(w, "{f:.1}")
    } else if f.abs() >= 1e15 {
        // exponent form stays compact and round-trips exactly (Rust's
        // LowerExp emits the shortest representation).
        write!(w, "{f:e}")
    } else {
        write!(w, "{f}")
    }
}

/// Write `s` as a JSON string literal (quotes + escapes).
pub fn write_escaped_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: Option<&[u8]> = match b {
            b'"' => Some(b"\\\""),
            b'\\' => Some(b"\\\\"),
            0x08 => Some(b"\\b"),
            0x0C => Some(b"\\f"),
            b'\n' => Some(b"\\n"),
            b'\r' => Some(b"\\r"),
            b'\t' => Some(b"\\t"),
            b if b < 0x20 => None, // handled below with \u escape
            _ => continue,
        };
        w.write_all(&bytes[start..i])?;
        match esc {
            Some(e) => w.write_all(e)?,
            None => write!(w, "\\u{:04x}", b)?,
        }
        start = i + 1;
    }
    w.write_all(&bytes[start..])?;
    w.write_all(b"\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use udbms_core::{arr, obj};

    #[test]
    fn compact_canonical_output() {
        let v = obj! {"b" => 1, "a" => arr![true, Value::Null, "x"]};
        assert_eq!(to_string(&v), r#"{"a":[true,null,"x"],"b":1}"#);
    }

    #[test]
    fn pretty_output_shape() {
        let v = obj! {"a" => arr![1], "b" => obj!{}};
        let s = to_string_pretty(&v);
        assert_eq!(s, "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&Value::Float(2.0)), "2.0");
        assert_eq!(to_string(&Value::Float(0.5)), "0.5");
        assert_eq!(to_string(&Value::Float(1e300)), "1e300");
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn integral_float_roundtrips_to_equal_value() {
        let v = Value::Float(7.0);
        let back = parse(&to_string(&v)).unwrap();
        assert_eq!(back, v, "Int(7) == Float(7.0) canonically");
    }

    #[test]
    fn bytes_render_as_hex_strings() {
        assert_eq!(to_string(&Value::Bytes(vec![0xab, 0x01])), "\"0xab01\"");
        assert_eq!(to_string(&Value::Bytes(vec![])), "\"0x\"");
    }

    #[test]
    fn escapes_in_strings_and_keys() {
        let v = obj! {"we\"ird\nkey" => "tab\there"};
        let s = to_string(&v);
        assert_eq!(s, "{\"we\\\"ird\\nkey\":\"tab\\there\"}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn control_chars_get_u_escapes() {
        let v = Value::from("a\u{0001}b");
        assert_eq!(to_string(&v), "\"a\\u0001b\"");
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn unicode_passes_through_unescaped() {
        let v = Value::from("ä€😀");
        assert_eq!(to_string(&v), "\"ä€😀\"");
    }
}
