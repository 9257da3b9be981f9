#![warn(missing_docs)]

//! # udbms-convert
//!
//! Multi-model **data conversion** — the paper's fourth pillar: "An ideal
//! multi-model database should support the model conversion between
//! relation and NoSQL data. Therefore, data generators must support the
//! creation of reasonable gold standard outputs for different
//! transformation tasks."
//!
//! * [`tasks`](mod@crate) — the conversions: relational→document nesting,
//!   document→relational shredding, relational↔graph, key-value→
//!   relational, and the data-centric document↔XML mapping.
//! * gold standards — independently constructed expected outputs per
//!   task, plus [`score_all`] which scores every conversion (experiment
//!   E5's rows).

mod gold;
mod mapping;
mod tasks;

pub use gold::{
    gold_doc_to_rel_items, gold_doc_xml_roundtrip, gold_kv_to_rel, gold_rel_to_doc_nest,
    gold_rel_to_graph_edges, roundtrip_projection, score_all, GoldTask, TaskScore,
};
pub use mapping::{json_to_xml, xml_to_json};
pub use tasks::{
    doc_to_rel_shred, fidelity, graph_to_rel, kv_to_rel, rel_to_doc_nest, rel_to_graph,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::Value;

    /// Values the data-centric XML mapping represents exactly: objects of
    /// scalars / nested such objects / arrays with ≥2 homogeneous-ish
    /// members, string values that don't look numeric or boolean.
    fn faithful_value(depth: u32) -> BoxedStrategy<Value> {
        let scalar = prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (1i64..1000).prop_map(|i| Value::Float(i as f64 + 0.5)),
            any::<bool>().prop_map(Value::Bool),
            "[a-z][a-z ]{0,8}[a-z]".prop_map(Value::from),
        ];
        if depth == 0 {
            prop::collection::btree_map("[a-z][a-z0-9_]{0,6}", scalar, 1..5)
                .prop_map(|m| Value::Object(m.into_iter().collect()))
                .boxed()
        } else {
            let inner = faithful_value(depth - 1);
            prop::collection::btree_map(
                "[a-z][a-z0-9_]{0,6}",
                prop_oneof![
                    3 => scalar,
                    1 => inner.clone(),
                    1 => prop::collection::vec(faithful_value(0), 2..4).prop_map(Value::Array),
                ],
                1..5,
            )
            .prop_map(|m| Value::Object(m.into_iter().collect()))
            .boxed()
        }
    }

    proptest! {
        /// On the faithful fragment, JSON→XML→JSON is the identity.
        #[test]
        fn faithful_fragment_roundtrips(v in faithful_value(2)) {
            let xml = json_to_xml("root", &v).unwrap();
            let back = xml_to_json(&xml);
            prop_assert_eq!(back, v);
        }

        /// Fidelity is 1.0 exactly for permutations of the same multiset.
        #[test]
        fn fidelity_permutation_invariant(
            rows in prop::collection::vec(faithful_value(0), 1..12),
            seed in 0u64..1000,
        ) {
            let mut shuffled = rows.clone();
            let mut rng = udbms_core::SplitMix64::new(seed);
            rng.shuffle(&mut shuffled);
            prop_assert_eq!(fidelity(&rows, &shuffled), 1.0);
        }

        /// Dropping any record strictly lowers fidelity.
        #[test]
        fn fidelity_detects_loss(rows in prop::collection::vec(faithful_value(0), 2..12)) {
            let partial = &rows[..rows.len() - 1];
            let f = fidelity(&rows, partial);
            prop_assert!(f < 1.0);
            prop_assert!(f > 0.0);
        }
    }
}
