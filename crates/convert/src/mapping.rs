//! The canonical data-centric JSON↔XML mapping used by the conversion
//! tasks (distinct from `udbms-xml`'s lossless *bridge* encoding: this is
//! the "friendly" mapping a conversion tool would emit).
//!
//! ```text
//! {"a": 1, "b": [true, "x"], "c": {"d": null}}
//!   ⇕  (root element name supplied by caller)
//! <row><a>1</a><b>true</b><b>x</b><c><d/></c></row>
//! ```
//!
//! Objects become elements whose children are named by the keys; arrays
//! become repeated elements; scalars become text; `Null` becomes an empty
//! element. The inverse direction re-infers types (ints, floats, bools)
//! and treats repeated child names as arrays — the classic, *lossy in the
//! corners* mapping whose corner cases (empty arrays, heterogeneous
//! arrays, type ambiguity) are exactly why the paper demands gold-standard
//! outputs for conversion tasks.

use std::collections::BTreeMap;

use udbms_core::{Error, Result, Value};
use udbms_xml::XmlNode;

/// Convert a JSON value to a data-centric XML element named `root`.
pub fn json_to_xml(root: &str, v: &Value) -> Result<XmlNode> {
    let mut el = XmlNode::element(root);
    fill_element(&mut el, v)?;
    Ok(el)
}

fn fill_element(el: &mut XmlNode, v: &Value) -> Result<()> {
    match v {
        Value::Null => {}
        Value::Bool(b) => el.push_child(XmlNode::text(b.to_string())),
        Value::Int(i) => el.push_child(XmlNode::text(i.to_string())),
        Value::Float(f) => el.push_child(XmlNode::text(format_float(*f))),
        Value::Str(s) => el.push_child(XmlNode::text(s.clone())),
        Value::Bytes(_) => {
            return Err(Error::Unsupported(
                "bytes in data-centric XML mapping".into(),
            ))
        }
        Value::Object(map) => {
            for (k, child_v) in map {
                match child_v {
                    // arrays expand to repeated elements at this level
                    Value::Array(items) => {
                        for item in items {
                            let mut child = XmlNode::element(sanitize_name(k));
                            fill_element(&mut child, item)?;
                            el.push_child(child);
                        }
                    }
                    other => {
                        let mut child = XmlNode::element(sanitize_name(k));
                        fill_element(&mut child, other)?;
                        el.push_child(child);
                    }
                }
            }
        }
        Value::Array(items) => {
            // a bare array at the root: wrap each item in <item>
            for item in items {
                let mut child = XmlNode::element("item");
                fill_element(&mut child, item)?;
                el.push_child(child);
            }
        }
    }
    Ok(())
}

fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

/// XML element names cannot contain arbitrary characters; the benchmark's
/// keys are identifier-like, but `_id` style keys pass through unchanged
/// and anything else is folded to `_`.
fn sanitize_name(k: &str) -> String {
    let mut out: String = k
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Convert a data-centric XML element back to a JSON value.
///
/// * element with no children → `Null`
/// * element with a single text child → scalar (type-inferred)
/// * element with child elements → object; repeated names → arrays
pub fn xml_to_json(el: &XmlNode) -> Value {
    let children = el.children();
    let elements: Vec<&XmlNode> = children
        .iter()
        .filter(|c| matches!(c, XmlNode::Element { .. }))
        .collect();
    if elements.is_empty() {
        let text = el.text_content();
        if text.is_empty() {
            return Value::Null;
        }
        return infer_scalar(&text);
    }
    // group children by element name; names come out sorted, document
    // order is kept within a name
    let mut grouped: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for child in elements {
        let name = child.name().expect("filtered to elements").to_string();
        grouped.entry(name).or_default().push(xml_to_json(child));
    }
    grouped
        .into_iter()
        .map(|(name, mut vals)| {
            let v = if vals.len() == 1 {
                vals.remove(0)
            } else {
                Value::Array(vals)
            };
            (name, v)
        })
        .collect()
}

fn infer_scalar(text: &str) -> Value {
    match text {
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = text.parse::<i64>() {
        // leading zeros ("007") denote strings, not numbers
        if !(text.len() > 1 && (text.starts_with('0') || text.starts_with("-0"))) {
            return Value::Int(i);
        }
    }
    if text.contains('.') || text.contains('e') || text.contains('E') {
        if let Ok(f) = text.parse::<f64>() {
            return Value::Float(f);
        }
    }
    Value::Str(text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{arr, obj};

    #[test]
    fn object_to_elements() {
        let v = obj! {"a" => 1, "b" => "x", "flag" => true, "none" => Value::Null};
        let el = json_to_xml("row", &v).unwrap();
        let s = udbms_xml::to_string(&udbms_xml::XmlDocument::new(el));
        assert_eq!(s, "<row><a>1</a><b>x</b><flag>true</flag><none/></row>");
    }

    #[test]
    fn arrays_become_repeated_elements() {
        let v = obj! {"item" => arr![obj!{"q" => 1}, obj!{"q" => 2}]};
        let el = json_to_xml("order", &v).unwrap();
        let s = udbms_xml::to_string(&udbms_xml::XmlDocument::new(el));
        assert_eq!(
            s,
            "<order><item><q>1</q></item><item><q>2</q></item></order>"
        );
    }

    #[test]
    fn roundtrip_typical_document() {
        let v = obj! {
            "_id" => "O-000001",
            "customer" => 7,
            "total" => 35.5,
            "open" => false,
            "items" => arr![
                obj!{"product" => "P-0001", "qty" => 2},
                obj!{"product" => "P-0002", "qty" => 1},
            ],
            "shipping" => obj!{"city" => "Helsinki", "zip" => "00100"},
        };
        let el = json_to_xml("order", &v).unwrap();
        let back = xml_to_json(&el);
        assert_eq!(back, v, "typical benchmark documents round-trip exactly");
    }

    #[test]
    fn known_lossy_corners() {
        // single-element arrays collapse to scalars
        let v = obj! {"tags" => arr!["one"]};
        let back = xml_to_json(&json_to_xml("r", &v).unwrap());
        assert_eq!(back, obj! {"tags" => "one"});
        // empty arrays vanish
        let v = obj! {"tags" => arr![], "x" => 1};
        let back = xml_to_json(&json_to_xml("r", &v).unwrap());
        assert_eq!(back, obj! {"x" => 1});
        // numeric-looking strings become numbers
        let v = obj! {"zip" => "12345"};
        let back = xml_to_json(&json_to_xml("r", &v).unwrap());
        assert_eq!(back, obj! {"zip" => 12345});
        // …which is precisely why conversion tasks need gold standards.
    }

    #[test]
    fn leading_zero_strings_stay_strings() {
        let v = obj! {"zip" => "00100"};
        let back = xml_to_json(&json_to_xml("r", &v).unwrap());
        assert_eq!(back, obj! {"zip" => "00100"});
    }

    #[test]
    fn scalar_inference() {
        assert_eq!(infer_scalar("42"), Value::Int(42));
        assert_eq!(infer_scalar("-7"), Value::Int(-7));
        assert_eq!(infer_scalar("3.5"), Value::Float(3.5));
        assert_eq!(infer_scalar("true"), Value::Bool(true));
        assert_eq!(infer_scalar("hello"), Value::from("hello"));
        assert_eq!(infer_scalar("1e3"), Value::Float(1000.0));
    }

    #[test]
    fn name_sanitization() {
        let v = obj! {"weird key!" => 1, "1num" => 2};
        let el = json_to_xml("r", &v).unwrap();
        let s = udbms_xml::to_string(&udbms_xml::XmlDocument::new(el.clone()));
        assert!(s.contains("<weird_key_>"));
        assert!(s.contains("<_1num>"));
        // and the result re-parses
        assert!(udbms_xml::parse(&s).is_ok());
    }

    #[test]
    fn bytes_are_rejected() {
        assert!(json_to_xml("r", &Value::Bytes(vec![1])).is_err());
    }

    #[test]
    fn bare_array_roots_wrap_items() {
        let v = arr![1, 2];
        let el = json_to_xml("list", &v).unwrap();
        let s = udbms_xml::to_string(&udbms_xml::XmlDocument::new(el));
        assert_eq!(s, "<list><item>1</item><item>2</item></list>");
    }
}
