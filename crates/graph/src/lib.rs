#![warn(missing_docs)]

//! # udbms-graph
//!
//! The property-graph substrate: labelled vertices and edges with property
//! maps, adjacency indexes and the k-hop traversal the polyglot baseline's
//! Q7 runs. [`Direction`] is shared with the unified engine, whose MMQL
//! traversals run their own BFS over its graph collections.
//!
//! In the benchmark's domain the graph holds the *social network*
//! (customer `knows` customer) and the *purchase network* (customer
//! `bought` product) of the paper's Figure 1.

mod graph;
mod traverse;

pub use graph::{Direction, Edge, EdgeId, PropertyGraph, Vertex};
pub use traverse::k_hop_neighbors;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::{Key, Value};

    fn ring(n: usize) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for i in 0..n {
            g.add_vertex(Key::int(i as i64), "v", Value::Null).unwrap();
        }
        for i in 0..n {
            g.add_edge(
                Key::int(i as i64),
                Key::int(((i + 1) % n) as i64),
                "next",
                Value::Null,
            )
            .unwrap();
        }
        g
    }

    proptest! {
        /// k-hop frontier sizes on a ring are 1 until wrap-around.
        #[test]
        fn ring_k_hop(n in 4usize..16) {
            let g = ring(n);
            for k in 1..n {
                let frontier = k_hop_neighbors(&g, &Key::int(0), k, Direction::Out, None);
                prop_assert_eq!(frontier.len(), 1, "exactly one vertex at distance {}", k);
            }
        }
    }
}
