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

use udbms_core::{obj, Error, Object, Result, Symbol, Value};

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
            // chained in name order, so the sort is one in-order check
            let attrs = (!attrs.is_empty()).then(|| {
                let amap: Object = attrs
                    .iter()
                    .map(|(k, v)| (Symbol::new(k), Value::Str(v.clone())))
                    .collect();
                (Symbol::new("attrs"), Value::Object(amap))
            });
            let children = (!children.is_empty()).then(|| {
                let children = children.iter().map(xml_to_value).collect();
                (Symbol::new("children"), Value::Array(children))
            });
            let tag = (Symbol::new("tag"), Value::Str(name.clone()));
            Value::Object(attrs.into_iter().chain(children).chain([tag]).collect())
        }
    }
}

/// Decode a unified value produced by [`xml_to_value`] back into a node.
///
/// Because `attrs` canonicalizes to sorted order, `value_to_xml(xml_to_value(n))`
/// equals `n` up to attribute order; trees built through this bridge always
/// carry sorted attributes.
pub fn value_to_xml(v: &Value) -> Result<XmlNode> {
    decode(v)
}

/// Check that `v` is a bridge encoding — exactly the values
/// [`value_to_xml`] accepts, with the same error — without building the
/// tree.
pub fn check_xml_value(v: &Value) -> Result<()> {
    decode(v)
}

/// What the one bridge walk builds from a value it accepts: an
/// [`XmlNode`] for [`value_to_xml`], nothing for [`check_xml_value`].
trait Build: Sized {
    fn text(s: &str) -> Self;
    fn comment(s: &str) -> Self;
    fn element(tag: &str) -> Self;
    fn attr(&mut self, name: &str, value: &str);
    fn child(&mut self, child: Self);
}

impl Build for XmlNode {
    fn text(s: &str) -> Self {
        XmlNode::text(s)
    }
    fn comment(s: &str) -> Self {
        XmlNode::comment(s)
    }
    fn element(tag: &str) -> Self {
        XmlNode::element(tag)
    }
    fn attr(&mut self, name: &str, value: &str) {
        self.set_attr(name, value);
    }
    fn child(&mut self, child: Self) {
        self.push_child(child);
    }
}

impl Build for () {
    fn text(_: &str) {}
    fn comment(_: &str) {}
    fn element(_: &str) {}
    fn attr(&mut self, _: &str, _: &str) {}
    fn child(&mut self, _: ()) {}
}

/// The bridge rules, written once.
fn decode<B: Build>(v: &Value) -> Result<B> {
    match v {
        Value::Str(s) => Ok(B::text(s)),
        Value::Object(m) => {
            if let Some(c) = m.get("comment") {
                if m.len() == 1 {
                    return Ok(B::comment(c.expect_str("comment body")?));
                }
            }
            let tag = m
                .get("tag")
                .ok_or_else(|| Error::Invalid("xml bridge object lacks `tag`".into()))?
                .expect_str("tag name")?;
            let mut el = B::element(tag);
            if let Some(attrs) = m.get("attrs") {
                let attrs = attrs.expect_object("attrs")?;
                for (k, val) in attrs {
                    el.attr(k, val.expect_str("attribute value")?);
                }
            }
            if let Some(children) = m.get("children") {
                let children = children
                    .as_array()
                    .ok_or_else(|| Error::type_err("Array (children)", children.type_name()))?;
                for c in children {
                    el.child(decode(c)?);
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
    use proptest::prelude::*;
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

    /// Random trees: elements with attributes and children, text and
    /// comments.
    fn node() -> impl Strategy<Value = XmlNode> {
        let leaf = prop_oneof![
            (0u32..3).prop_map(|i| XmlNode::text(format!("t{i}"))),
            (0u32..3).prop_map(|i| XmlNode::comment(format!("c{i}"))),
            (0u32..3).prop_map(|i| XmlNode::element(format!("e{i}"))),
        ];
        leaf.prop_recursive(3, 32, 4, |inner| {
            let attrs = prop::collection::vec(0u32..3, 0..3);
            let children = prop::collection::vec(inner, 0..4);
            (0u32..3, attrs, children).prop_map(|(tag, mut attrs, children)| {
                // in name order, as the bridge canonicalizes them
                attrs.sort_unstable();
                let mut el = XmlNode::element(format!("e{tag}"));
                for a in attrs {
                    el.set_attr(format!("a{a}"), "v");
                }
                for c in children {
                    el.push_child(c);
                }
                el
            })
        })
    }

    /// Plant junk at the spot `picks` leads to: replace the value there,
    /// give an object a key (a bridge key or not), or take one away.
    fn mutate(v: &mut Value, picks: &[u32]) {
        let Some((&pick, rest)) = picks.split_first() else {
            return;
        };
        let junk = [
            Value::Int(1),
            Value::Null,
            Value::from("s"),
            obj! {},
            arr![2],
            obj! {"comment" => 3},
            obj! {"tag" => "x"},
        ];
        let junk = junk[pick as usize / 4 % junk.len()].clone();
        let keys = ["tag", "attrs", "children", "comment", "x"];
        match (pick % 4, v) {
            (0, v) => *v = junk,
            (1, Value::Object(m)) => {
                m.insert(keys[pick as usize / 4 % keys.len()].to_string(), junk);
            }
            (2, Value::Object(m)) => {
                let k = m.keys().nth(pick as usize / 4 % 3).cloned();
                k.map(|k| m.remove(&k));
            }
            (_, Value::Object(m)) => {
                let k = m.keys().nth(pick as usize / 4 % 3).cloned();
                if let Some(c) = k.and_then(|k| m.get_mut(&k)) {
                    mutate(c, rest);
                }
            }
            (_, Value::Array(items)) => {
                let n = items.len().max(1);
                if let Some(c) = items.get_mut(pick as usize / 4 % n) {
                    mutate(c, rest);
                }
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place check accepts exactly what `value_to_xml`
        /// accepts, with the same error, on bridge values and on mutants.
        #[test]
        fn check_accepts_exactly_what_decoding_accepts(
            n in node(),
            picks in prop::collection::vec(0u32..64, 0..6),
        ) {
            let mut v = xml_to_value(&n);
            prop_assert!(check_xml_value(&v).is_ok());
            prop_assert_eq!(value_to_xml(&v).map_err(|e| e.to_string()), Ok(n));
            mutate(&mut v, &picks);
            let decoded = value_to_xml(&v).map(drop).map_err(|e| e.to_string());
            prop_assert_eq!(check_xml_value(&v).map_err(|e| e.to_string()), decoded);
        }
    }

    #[test]
    fn comment_object_with_extra_keys_is_an_element_error() {
        // {"comment": …, "tag": …} is not a pure comment; must have a tag —
        // here it does, so "comment" is an unexpected key.
        let v = obj! {"comment" => "c", "tag" => "e"};
        assert!(value_to_xml(&v).is_err());
    }
}
