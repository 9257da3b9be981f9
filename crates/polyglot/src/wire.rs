//! The wire codec: what "separate single-model systems" cost.
//!
//! In a polyglot-persistence deployment every datum crossing a store
//! boundary is serialized by one driver and parsed by another. The
//! baseline models that honestly: every value read from or written to a
//! polyglot store passes through its text format (JSON for the
//! relational/document/kv/graph stores, XML text for the XML store).
//! The unified engine, by contrast, passes in-memory values — that gap
//! is part of what experiment E2 measures.

use udbms_core::{Result, Value};
use udbms_xml::{XmlDocument, XmlNode};

/// Serialize + re-parse a value through JSON text (one driver hop).
pub fn json_hop(v: &Value) -> Value {
    udbms_json::parse(&udbms_json::to_string(v)).expect("our own JSON always re-parses")
}

/// Serialize + re-parse an XML tree through XML text (one driver hop).
pub fn xml_hop(node: &XmlNode) -> Result<XmlNode> {
    let text = udbms_xml::to_string(&XmlDocument::new(node.clone()));
    Ok(udbms_xml::parse(&text)?.into_root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{arr, obj};

    #[test]
    fn json_hop_is_value_identity() {
        let v = obj! {"a" => 1, "b" => arr![1.5, "x", Value::Null], "c" => obj!{"d" => true}};
        assert_eq!(json_hop(&v), v);
    }

    #[test]
    fn json_hop_canonicalizes_numerics() {
        // integral floats come back as the canonically-equal value
        let v = Value::Float(3.0);
        assert_eq!(json_hop(&v), v, "Int(3) == Float(3.0) canonically");
    }

    #[test]
    fn xml_hop_is_tree_identity() {
        let node = XmlNode::element("Invoice")
            .with_attr("id", "i1")
            .with_child(XmlNode::leaf("Total", "25.00"));
        assert_eq!(xml_hop(&node).unwrap(), node);
    }
}
