//! Canonical bridge between XML trees and unified [`Value`]s.
//!
//! The engine stores every model in one backend, so XML documents need a
//! faithful `Value` encoding. The mapping is lossless and invertible:
//!
//! ```text
//! <Item qty="2">text<Sub/></Item>
//!   ⇕
//! { "tag": "Item",
//!   "attrs": { "qty": "2" },              (omitted when empty)
//!   "children": [ "text", { "tag": "Sub" } ] }   (omitted when empty)
//! ```
//!
//! Text nodes become strings, comments become `{"comment": "…"}` objects.
//! Attribute order inside `attrs` is canonicalized (sorted), mirroring the
//! unified model's object semantics; `value_to_xml` therefore yields
//! attributes in sorted order, which the equality used by the conversion
//! gold standards treats as canonical.

use udbms_core::{obj, Error, Object, Result, Value};

use crate::node::XmlNode;

/// Encode an XML node as a unified value (lossless, see module docs).
pub fn xml_to_value(node: &XmlNode) -> Value {
    match node {
        XmlNode::Text(t) => Value::Str(t.clone()),
        XmlNode::Comment(c) => obj! {"comment" => c.clone()},
        XmlNode::Element {
            name,
            attrs,
            children,
        } => {
            // inserted in name order, so each insert is a push
            let mut m = Object::new();
            if !attrs.is_empty() {
                let amap: Object = attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect();
                m.insert("attrs".to_string(), Value::Object(amap));
            }
            if !children.is_empty() {
                m.insert(
                    "children".to_string(),
                    Value::Array(children.iter().map(xml_to_value).collect()),
                );
            }
            m.insert("tag".to_string(), Value::Str(name.clone()));
            Value::Object(m)
        }
    }
}

/// Decode a unified value produced by [`xml_to_value`] back into a node.
///
/// Because `attrs` canonicalizes to sorted order, `value_to_xml(xml_to_value(n))`
/// equals `n` up to attribute order; trees built through this bridge always
/// carry sorted attributes.
pub fn value_to_xml(v: &Value) -> Result<XmlNode> {
    match v {
        Value::Str(s) => Ok(XmlNode::text(s.clone())),
        Value::Object(m) => {
            if let Some(c) = m.get("comment") {
                if m.len() == 1 {
                    return Ok(XmlNode::comment(c.expect_str("comment body")?));
                }
            }
            let tag = m
                .get("tag")
                .ok_or_else(|| Error::Invalid("xml bridge object lacks `tag`".into()))?
                .expect_str("tag name")?;
            let mut el = XmlNode::element(tag);
            if let Some(attrs) = m.get("attrs") {
                let attrs = attrs.expect_object("attrs")?;
                for (k, val) in attrs {
                    el.set_attr(k.clone(), val.expect_str("attribute value")?);
                }
            }
            if let Some(children) = m.get("children") {
                let children = children
                    .as_array()
                    .ok_or_else(|| Error::type_err("Array (children)", children.type_name()))?;
                for c in children {
                    el.push_child(value_to_xml(c)?);
                }
            }
            for k in m.keys() {
                if !matches!(k.as_str(), "tag" | "attrs" | "children") {
                    return Err(Error::Invalid(format!(
                        "unexpected key `{k}` in xml bridge object"
                    )));
                }
            }
            Ok(el)
        }
        other => Err(Error::type_err(
            "Str or Object (xml bridge)",
            other.type_name(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{arr, obj};

    fn sample() -> XmlNode {
        XmlNode::element("Invoice")
            .with_attr("id", "I-1")
            .with_child(XmlNode::leaf("Total", "10.00"))
            .with_child(XmlNode::comment(" note "))
            .with_child(XmlNode::text("tail"))
    }

    #[test]
    fn encoding_shape() {
        let v = xml_to_value(&sample());
        assert_eq!(
            v,
            obj! {
                "tag" => "Invoice",
                "attrs" => obj!{"id" => "I-1"},
                "children" => arr![
                    obj!{"tag" => "Total", "children" => arr!["10.00"]},
                    obj!{"comment" => " note "},
                    "tail",
                ],
            }
        );
    }

    #[test]
    fn roundtrip_exact() {
        let n = sample();
        assert_eq!(value_to_xml(&xml_to_value(&n)).unwrap(), n);
    }

    #[test]
    fn empty_element_omits_children_and_attrs() {
        let v = xml_to_value(&XmlNode::element("e"));
        assert_eq!(v, obj! {"tag" => "e"});
        assert_eq!(value_to_xml(&v).unwrap(), XmlNode::element("e"));
    }

    #[test]
    fn attribute_order_canonicalizes_to_sorted() {
        let el = XmlNode::element("e")
            .with_attr("z", "1")
            .with_attr("a", "2");
        let back = value_to_xml(&xml_to_value(&el)).unwrap();
        assert_eq!(
            back.attrs(),
            &[("a".into(), "2".into()), ("z".into(), "1".into())]
        );
    }

    #[test]
    fn decode_rejects_malformed_bridge_values() {
        assert!(value_to_xml(&Value::Int(1)).is_err());
        assert!(value_to_xml(&obj! {"notag" => 1}).is_err());
        assert!(
            value_to_xml(&obj! {"tag" => 1}).is_err(),
            "tag must be a string"
        );
        assert!(value_to_xml(&obj! {"tag" => "e", "attrs" => arr![1]}).is_err());
        assert!(value_to_xml(&obj! {"tag" => "e", "children" => "x"}).is_err());
        assert!(value_to_xml(&obj! {"tag" => "e", "bogus" => 1}).is_err());
        assert!(
            value_to_xml(&obj! {"tag" => "e", "attrs" => obj!{"a" => 1}}).is_err(),
            "attr values must be strings"
        );
    }

    #[test]
    fn comment_object_with_extra_keys_is_an_element_error() {
        // {"comment": …, "tag": …} is not a pure comment; must have a tag —
        // here it does, so "comment" is an unexpected key.
        let v = obj! {"comment" => "c", "tag" => "e"};
        assert!(value_to_xml(&v).is_err());
    }
}
