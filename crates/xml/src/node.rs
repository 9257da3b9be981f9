//! The XML DOM: documents, elements, text and comments.
//!
//! Attributes keep *document order* (a `Vec`, not a map) because XML
//! canonicalization and the gold-standard conversion outputs care about
//! the order attributes were written.

use std::fmt;

/// A node of an XML tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// An element: `<name attr="v">children…</name>`.
    Element {
        /// Tag name.
        name: String,
        /// Attributes in document order; names are unique.
        attrs: Vec<(String, String)>,
        /// Child nodes in document order.
        children: Vec<XmlNode>,
    },
    /// Character data (entities already decoded).
    Text(String),
    /// A comment (`<!-- … -->`). Preserved for fidelity; ignored by XPath.
    Comment(String),
}

impl XmlNode {
    /// New empty element.
    pub fn element(name: impl Into<String>) -> XmlNode {
        XmlNode::Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// New text node.
    pub fn text(content: impl Into<String>) -> XmlNode {
        XmlNode::Text(content.into())
    }

    /// New comment node.
    pub fn comment(content: impl Into<String>) -> XmlNode {
        XmlNode::Comment(content.into())
    }

    /// Convenience: an element wrapping a single text child —
    /// `<name>text</name>`, the shape of most Invoice fields.
    pub fn leaf(name: impl Into<String>, text: impl Into<String>) -> XmlNode {
        let mut el = XmlNode::element(name);
        el.push_child(XmlNode::text(text));
        el
    }

    /// Element name, when this is an element.
    pub fn name(&self) -> Option<&str> {
        match self {
            XmlNode::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Is this an element with the given tag?
    pub fn is_element_named(&self, tag: &str) -> bool {
        self.name() == Some(tag)
    }

    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&str> {
        match self {
            XmlNode::Element { attrs, .. } => attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// Set (or replace) an attribute. No-op on non-elements.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if let XmlNode::Element { attrs, .. } = self {
            let key = key.into();
            let value = value.into();
            if let Some(slot) = attrs.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value;
            } else {
                attrs.push((key, value));
            }
        }
    }

    /// Attributes slice (empty for non-elements).
    pub fn attrs(&self) -> &[(String, String)] {
        match self {
            XmlNode::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Children slice (empty for non-elements).
    pub fn children(&self) -> &[XmlNode] {
        match self {
            XmlNode::Element { children, .. } => children,
            _ => &[],
        }
    }

    /// Append a child. No-op on non-elements.
    pub fn push_child(&mut self, child: XmlNode) {
        if let XmlNode::Element { children, .. } = self {
            children.push(child);
        }
    }

    /// Builder-style child append.
    #[must_use]
    pub fn with_child(mut self, child: XmlNode) -> XmlNode {
        self.push_child(child);
        self
    }

    /// Builder-style attribute.
    #[must_use]
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> XmlNode {
        self.set_attr(key, value);
        self
    }

    /// First child element with the given tag.
    pub fn child_element(&self, tag: &str) -> Option<&XmlNode> {
        self.children().iter().find(|c| c.is_element_named(tag))
    }

    /// All child elements with the given tag.
    pub fn child_elements<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children()
            .iter()
            .filter(move |c| c.is_element_named(tag))
    }

    /// Concatenated text content of this subtree (XPath `string()` value).
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        match self {
            XmlNode::Text(t) => out.push_str(t),
            XmlNode::Element { children, .. } => {
                for c in children {
                    c.collect_text(out);
                }
            }
            XmlNode::Comment(_) => {}
        }
    }

    /// Total number of element nodes in the subtree (including self).
    pub fn element_count(&self) -> usize {
        match self {
            XmlNode::Element { children, .. } => {
                1 + children.iter().map(XmlNode::element_count).sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Merge adjacent text children and drop empty text nodes, recursively.
    /// Parsing always yields normalized trees; builders may not.
    #[must_use]
    pub fn normalized(self) -> XmlNode {
        match self {
            XmlNode::Element {
                name,
                attrs,
                children,
            } => {
                let mut out: Vec<XmlNode> = Vec::with_capacity(children.len());
                for child in children {
                    let child = child.normalized();
                    match (&child, out.last_mut()) {
                        (XmlNode::Text(t), _) if t.is_empty() => {}
                        (XmlNode::Text(t), Some(XmlNode::Text(prev))) => prev.push_str(t),
                        _ => out.push(child),
                    }
                }
                XmlNode::Element {
                    name,
                    attrs,
                    children: out,
                }
            }
            other => other,
        }
    }
}

impl fmt::Display for XmlNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::write::node_to_string(self))
    }
}

/// A whole XML document: optional declaration plus a single root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlDocument {
    root: XmlNode,
    /// Whether to emit `<?xml version="1.0" encoding="UTF-8"?>`.
    pub with_declaration: bool,
}

impl XmlDocument {
    /// Wrap a root element (panics if not an element — documents must have
    /// an element root).
    pub fn new(root: XmlNode) -> XmlDocument {
        assert!(
            matches!(root, XmlNode::Element { .. }),
            "document root must be an element"
        );
        XmlDocument {
            root,
            with_declaration: false,
        }
    }

    /// The root element.
    pub fn root(&self) -> &XmlNode {
        &self.root
    }

    /// Consume into the root element.
    pub fn into_root(self) -> XmlNode {
        self.root
    }
}

impl fmt::Display for XmlDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::write::to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invoice() -> XmlNode {
        XmlNode::element("Invoice")
            .with_attr("id", "I-1")
            .with_child(XmlNode::leaf("OrderId", "O-7"))
            .with_child(
                XmlNode::element("Items")
                    .with_child(XmlNode::element("Item").with_attr("qty", "2"))
                    .with_child(XmlNode::element("Item").with_attr("qty", "1")),
            )
            .with_child(XmlNode::leaf("Total", "39.98"))
    }

    #[test]
    fn builders_and_accessors() {
        let inv = invoice();
        assert_eq!(inv.name(), Some("Invoice"));
        assert_eq!(inv.attr("id"), Some("I-1"));
        assert_eq!(inv.attr("missing"), None);
        assert_eq!(inv.child_element("Total").unwrap().text_content(), "39.98");
        assert_eq!(
            inv.child_element("Items")
                .unwrap()
                .child_elements("Item")
                .count(),
            2
        );
        assert_eq!(inv.element_count(), 6);
    }

    #[test]
    fn set_attr_replaces_in_place_keeping_order() {
        let mut el = XmlNode::element("e")
            .with_attr("a", "1")
            .with_attr("b", "2");
        el.set_attr("a", "9");
        assert_eq!(
            el.attrs(),
            &[("a".into(), "9".into()), ("b".into(), "2".into())]
        );
    }

    #[test]
    fn text_content_concatenates_depth_first() {
        let el = XmlNode::element("p")
            .with_child(XmlNode::text("Hello "))
            .with_child(XmlNode::element("b").with_child(XmlNode::text("world")))
            .with_child(XmlNode::comment("ignored"))
            .with_child(XmlNode::text("!"));
        assert_eq!(el.text_content(), "Hello world!");
    }

    #[test]
    fn normalize_merges_adjacent_text() {
        let el = XmlNode::element("t")
            .with_child(XmlNode::text("a"))
            .with_child(XmlNode::text("b"))
            .with_child(XmlNode::text(""))
            .with_child(XmlNode::element("x"))
            .with_child(XmlNode::text("c"));
        let n = el.normalized();
        assert_eq!(n.children().len(), 3);
        assert_eq!(n.children()[0], XmlNode::text("ab"));
        assert_eq!(n.children()[2], XmlNode::text("c"));
    }

    #[test]
    #[should_panic(expected = "document root must be an element")]
    fn document_requires_element_root() {
        let _ = XmlDocument::new(XmlNode::text("nope"));
    }

    #[test]
    fn text_ops_are_noops_on_non_elements() {
        let mut t = XmlNode::text("x");
        t.set_attr("a", "1");
        t.push_child(XmlNode::text("y"));
        assert_eq!(t, XmlNode::text("x"));
        assert!(t.attrs().is_empty());
        assert!(t.children().is_empty());
    }
}
