#![warn(missing_docs)]

//! # udbms-json
//!
//! JSON text handling for UDBMS-Bench, implemented from scratch on top of
//! the unified [`udbms_core::Value`] model.
//!
//! JSON is benchmark *subject matter* here — the paper's Orders and
//! Product entities are JSON documents, the polyglot baseline serializes
//! every cross-store hop through a wire format, and the conversion pillar
//! needs canonical renderings — so the codec is owned rather than
//! delegated to a third-party crate.
//!
//! * [`parse`] — strict RFC 8259 parsing with precise line/column errors
//!   and a fixed nesting-depth limit.
//! * [`to_string`] / [`to_string_pretty`] — serialization; object keys are
//!   always emitted in sorted order (the canonical form), so
//!   `parse(to_string(v)) == v` and equal values serialize identically.

mod parse;
mod write;

pub use parse::parse;
pub use write::{to_string, to_string_pretty, to_writer, write_escaped_str};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::Value;

    /// Strategy for JSON-representable values (no Bytes, finite floats).
    fn json_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12f64).prop_map(Value::Float),
            "[a-zA-Z0-9 _\\-\\\\\"/\u{00e4}\u{20ac}]{0,12}".prop_map(Value::from),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
                prop::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    proptest! {
        #[test]
        fn roundtrip_compact(v in json_value()) {
            let s = to_string(&v);
            let back = parse(&s).expect("serialized JSON must parse");
            prop_assert_eq!(back, v);
        }

        #[test]
        fn roundtrip_pretty(v in json_value()) {
            let s = to_string_pretty(&v);
            let back = parse(&s).expect("pretty JSON must parse");
            prop_assert_eq!(back, v);
        }

        #[test]
        fn canonical_serialization_is_deterministic(v in json_value()) {
            prop_assert_eq!(to_string(&v), to_string(&v.clone()));
        }

        #[test]
        fn parse_never_panics_on_arbitrary_input(s in "\\PC{0,64}") {
            let _ = parse(&s);
        }
    }
}
