//! XML parser.
//!
//! Supports the profile data-oriented XML uses: declaration, elements,
//! attributes (single- or double-quoted), text with the five predefined
//! entities plus numeric character references, comments, CDATA sections
//! and self-closing tags. DTDs and processing instructions other than the
//! XML declaration are rejected (the benchmark's documents never use
//! them). Whitespace-only text between elements is treated as ignorable
//! and dropped, so pretty-printed documents re-parse to the same tree.

use udbms_core::{Error, Result};

use crate::node::{XmlDocument, XmlNode};

/// Deepest element nesting [`parse`] accepts (the root is level 1) — the
/// JSON parser's default bound. The parser recurses per level, and so do
/// the writer, the value bridge and XPath over what it returns.
const MAX_DEPTH: usize = 128;

/// Parse a complete XML document.
pub fn parse(input: &str) -> Result<XmlDocument> {
    let mut p = Parser::new(input);
    p.skip_ws();
    p.skip_declaration()?;
    loop {
        p.skip_ws();
        if p.starts_with("<!--") {
            p.parse_comment()?; // prolog comments are legal; dropped
        } else {
            break;
        }
    }
    let root = p.parse_element(1)?;
    p.skip_ws();
    while p.starts_with("<!--") {
        p.parse_comment()?;
        p.skip_ws();
    }
    if !p.at_end() {
        return Err(p.err("content after document root"));
    }
    Ok(XmlDocument::new(root))
}

struct Parser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            bytes: src.as_bytes(),
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::parse("xml", self.line, self.col, msg)
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

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn consume(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn skip_declaration(&mut self) -> Result<()> {
        if self.consume("<?xml") {
            let end = self.src[self.pos..]
                .find("?>")
                .ok_or_else(|| self.err("unterminated XML declaration"))?;
            for _ in 0..end + 2 {
                self.bump();
            }
        }
        Ok(())
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.' || b == b':'
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => {
                self.bump();
            }
            _ => return Err(self.err("expected name")),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.bump();
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn parse_element(&mut self, depth: usize) -> Result<XmlNode> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nest deeper than {MAX_DEPTH}")));
        }
        if !self.consume("<") {
            return Err(self.err("expected element"));
        }
        let name = self.parse_name()?;
        let mut el = XmlNode::element(name.clone());

        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    if !self.consume(">") {
                        return Err(self.err("expected `>` after `/`"));
                    }
                    return Ok(el);
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(b) if Self::is_name_start(b) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    if !self.consume("=") {
                        return Err(self.err(format!("expected `=` after attribute `{key}`")));
                    }
                    self.skip_ws();
                    let quote = match self.bump() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("attribute value must be quoted")),
                    };
                    let mut val = String::new();
                    loop {
                        match self.peek() {
                            None => return Err(self.err("unterminated attribute value")),
                            Some(q) if q == quote => {
                                self.bump();
                                break;
                            }
                            Some(b'<') => return Err(self.err("raw `<` in attribute value")),
                            Some(b'&') => val.push_str(&self.parse_entity()?),
                            Some(_) => {
                                let c = self.bump_char()?;
                                val.push(c);
                            }
                        }
                    }
                    if el.attr(&key).is_some() {
                        return Err(self.err(format!("duplicate attribute `{key}`")));
                    }
                    el.set_attr(key, val);
                }
                _ => return Err(self.err("malformed tag")),
            }
        }

        // children until matching close tag
        loop {
            if self.starts_with("</") {
                self.consume("</");
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(format!(
                        "mismatched close tag `</{close}>`, expected `</{name}>`"
                    )));
                }
                self.skip_ws();
                if !self.consume(">") {
                    return Err(self.err("expected `>` in close tag"));
                }
                return Ok(el);
            } else if self.starts_with("<!--") {
                let c = self.parse_comment()?;
                el.push_child(c);
            } else if self.starts_with("<![CDATA[") {
                let text = self.parse_cdata()?;
                el.push_child(XmlNode::text(text));
            } else if self.starts_with("<!") || self.starts_with("<?") {
                return Err(self.err("DTDs and processing instructions are not supported"));
            } else if self.peek() == Some(b'<') {
                el.push_child(self.parse_element(depth + 1)?);
            } else if self.at_end() {
                return Err(self.err(format!("unexpected end of input inside `<{name}>`")));
            } else {
                let text = self.parse_text()?;
                // drop ignorable (whitespace-only) text between elements
                if !text.chars().all(|c| c.is_ascii_whitespace()) {
                    el.push_child(XmlNode::text(text));
                }
            }
        }
    }

    fn bump_char(&mut self) -> Result<char> {
        let rest = &self.src[self.pos..];
        let c = rest
            .chars()
            .next()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        for _ in 0..c.len_utf8() {
            self.bump();
        }
        Ok(c)
    }

    fn parse_text(&mut self) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => return Ok(out),
                Some(b'&') => out.push_str(&self.parse_entity()?),
                Some(_) => {
                    let c = self.bump_char()?;
                    out.push(c);
                }
            }
        }
    }

    fn parse_entity(&mut self) -> Result<String> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.bump();
        let start = self.pos;
        while self.peek() != Some(b';') {
            if self.at_end() || self.pos - start > 10 {
                return Err(self.err("unterminated entity reference"));
            }
            self.bump();
        }
        let body = &self.src[start..self.pos];
        self.bump(); // ';'
        let decoded = match body {
            "lt" => "<".to_string(),
            "gt" => ">".to_string(),
            "amp" => "&".to_string(),
            "apos" => "'".to_string(),
            "quot" => "\"".to_string(),
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let cp = u32::from_str_radix(&body[2..], 16)
                    .map_err(|_| self.err(format!("bad hex character reference &{body};")))?;
                char::from_u32(cp)
                    .ok_or_else(|| self.err("invalid character reference"))?
                    .to_string()
            }
            _ if body.starts_with('#') => {
                let cp: u32 = body[1..]
                    .parse()
                    .map_err(|_| self.err(format!("bad character reference &{body};")))?;
                char::from_u32(cp)
                    .ok_or_else(|| self.err("invalid character reference"))?
                    .to_string()
            }
            other => return Err(self.err(format!("unknown entity &{other};"))),
        };
        Ok(decoded)
    }

    fn parse_comment(&mut self) -> Result<XmlNode> {
        self.consume("<!--");
        let end = self.src[self.pos..]
            .find("-->")
            .ok_or_else(|| self.err("unterminated comment"))?;
        let content = self.src[self.pos..self.pos + end].to_string();
        for _ in 0..end + 3 {
            self.bump();
        }
        Ok(XmlNode::comment(content))
    }

    fn parse_cdata(&mut self) -> Result<String> {
        self.consume("<![CDATA[");
        let end = self.src[self.pos..]
            .find("]]>")
            .ok_or_else(|| self.err("unterminated CDATA section"))?;
        let content = self.src[self.pos..self.pos + end].to_string();
        for _ in 0..end + 3 {
            self.bump();
        }
        Ok(content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let doc = parse(&nested(MAX_DEPTH)).expect("depth 128 parses");
        // what recurses over a parsed tree gets through it too
        let text = crate::to_string(&doc);
        assert_eq!(text, nested(MAX_DEPTH));
        let value = crate::xml_to_value(doc.root());
        assert_eq!(&crate::value_to_xml(&value).unwrap(), doc.root());
        for depth in [MAX_DEPTH + 1, 200_000] {
            let err = parse(&nested(depth)).expect_err("too deep").to_string();
            assert!(err.contains("nest deeper"), "depth {depth}: {err}");
            assert!(err.contains(" at 1:"), "located: {err}");
        }
    }

    #[test]
    fn minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.root(), &XmlNode::element("a"));
        let doc = parse("<a></a>").unwrap();
        assert_eq!(doc.root(), &XmlNode::element("a"));
    }

    #[test]
    fn declaration_and_prolog_comments() {
        let doc =
            parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- hi -->\n<a/>\n<!-- bye -->")
                .unwrap();
        assert_eq!(doc.root().name(), Some("a"));
    }

    #[test]
    fn attributes_both_quote_styles() {
        let doc = parse(r#"<a x="1" y='two' z="a&amp;b"/>"#).unwrap();
        assert_eq!(doc.root().attr("x"), Some("1"));
        assert_eq!(doc.root().attr("y"), Some("two"));
        assert_eq!(doc.root().attr("z"), Some("a&b"));
    }

    #[test]
    fn nested_elements_and_text() {
        let doc = parse("<inv><total>39.98</total><items><i/><i/></items></inv>").unwrap();
        let root = doc.root();
        assert_eq!(root.child_element("total").unwrap().text_content(), "39.98");
        assert_eq!(root.child_element("items").unwrap().children().len(), 2);
    }

    #[test]
    fn entities_decode_in_text() {
        let doc = parse("<t>&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos; &#65; &#x42;</t>").unwrap();
        assert_eq!(doc.root().text_content(), "<a> & \"b\" 'c' A B");
    }

    #[test]
    fn cdata_passes_raw_markup() {
        let doc = parse("<t><![CDATA[<not> & parsed]]></t>").unwrap();
        assert_eq!(doc.root().text_content(), "<not> & parsed");
    }

    #[test]
    fn comments_are_preserved_in_tree() {
        let doc = parse("<t><!-- note -->x</t>").unwrap();
        assert_eq!(doc.root().children()[0], XmlNode::comment(" note "));
        assert_eq!(doc.root().text_content(), "x");
    }

    #[test]
    fn ignorable_whitespace_dropped() {
        let pretty = "<a>\n  <b>1</b>\n  <c>2</c>\n</a>";
        let compact = "<a><b>1</b><c>2</c></a>";
        assert_eq!(parse(pretty).unwrap(), parse(compact).unwrap());
    }

    #[test]
    fn mixed_content_whitespace_kept() {
        let doc = parse("<p>hello <b>world</b></p>").unwrap();
        assert_eq!(doc.root().text_content(), "hello world");
    }

    #[test]
    fn error_cases() {
        for bad in [
            "",
            "<a>",
            "<a></b>",
            "<a x=1/>",
            "<a x=\"1\" x=\"2\"/>",
            "<a>&unknown;</a>",
            "<a>&#xZZ;</a>",
            "<a/><b/>",
            "text only",
            "<a><!DOCTYPE x></a>",
            "<a attr=\"<\"/>",
            "<1tag/>",
            "<a><!-- unterminated </a>",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn mismatched_tag_reports_position() {
        let err = parse("<a>\n  <b>\n  </c>\n</a>").unwrap_err();
        match err {
            Error::Parse { format, line, .. } => {
                assert_eq!(format, "xml");
                assert_eq!(line, 3);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unicode_names_and_text() {
        let doc = parse("<lasku><summa>10€</summa></lasku>").unwrap();
        assert_eq!(
            doc.root().child_element("summa").unwrap().text_content(),
            "10€"
        );
    }
}
