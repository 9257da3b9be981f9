//! Traversals: BFS layers and k-hop frontiers.

use std::collections::HashSet;

use udbms_core::{Direction, Key};

use crate::graph::PropertyGraph;

/// Breadth-first layers from `start` up to `max_depth` hops (layer 0 is
/// `start` itself). Optionally restricted to one edge label.
fn bfs_layers(
    g: &PropertyGraph,
    start: &Key,
    max_depth: usize,
    dir: Direction,
    label: Option<&str>,
) -> Vec<Vec<Key>> {
    if g.vertex(start).is_none() {
        return Vec::new();
    }
    let mut layers: Vec<Vec<Key>> = vec![vec![start.clone()]];
    let mut seen: HashSet<Key> = HashSet::from([start.clone()]);
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for v in layers.last().expect("at least the start layer") {
            for n in g.neighbors(v, dir, label) {
                if seen.insert(n.clone()) {
                    next.push(n);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        layers.push(next);
    }
    layers
}

/// Vertices at *exactly* `k` hops from `start` (the k-th BFS layer).
pub(crate) fn k_hop_neighbors(
    g: &PropertyGraph,
    start: &Key,
    k: usize,
    dir: Direction,
    label: Option<&str>,
) -> Vec<Key> {
    bfs_layers(g, start, k, dir, label)
        .into_iter()
        .nth(k)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use udbms_core::{obj, Value};

    /// a → b → c → d plus a shortcut a → d (weight 10) and a ↔ e social
    /// edge of another label.
    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::default();
        for k in ["a", "b", "c", "d", "e", "island"] {
            g.add_vertex(Key::str(k), "v", Value::Null).unwrap();
        }
        g.add_edge(Key::str("a"), Key::str("b"), "road", obj! {"w" => 1.0})
            .unwrap();
        g.add_edge(Key::str("b"), Key::str("c"), "road", obj! {"w" => 1.0})
            .unwrap();
        g.add_edge(Key::str("c"), Key::str("d"), "road", obj! {"w" => 1.0})
            .unwrap();
        g.add_edge(Key::str("a"), Key::str("d"), "road", obj! {"w" => 10.0})
            .unwrap();
        g.add_edge(Key::str("a"), Key::str("e"), "knows", Value::Null)
            .unwrap();
        g
    }

    #[test]
    fn bfs_layers_shape() {
        let g = sample();
        let layers = bfs_layers(&g, &Key::str("a"), 3, Direction::Out, None);
        assert_eq!(layers[0], vec![Key::str("a")]);
        // layer 1: b, d, e (order: edge insertion order)
        assert_eq!(layers[1].len(), 3);
        assert_eq!(layers[2], vec![Key::str("c")]);
        assert_eq!(
            layers.len(),
            3,
            "no layer 3: everything reachable already seen"
        );
    }

    #[test]
    fn bfs_respects_label_filter() {
        let g = sample();
        let layers = bfs_layers(&g, &Key::str("a"), 5, Direction::Out, Some("knows"));
        assert_eq!(layers, vec![vec![Key::str("a")], vec![Key::str("e")]]);
    }

    #[test]
    fn bfs_from_unknown_vertex_is_empty() {
        let g = sample();
        assert!(bfs_layers(&g, &Key::str("zz"), 3, Direction::Out, None).is_empty());
    }

    #[test]
    fn k_hop_exact_frontier() {
        let g = sample();
        assert_eq!(
            k_hop_neighbors(&g, &Key::str("a"), 2, Direction::Out, Some("road")),
            vec![Key::str("c")]
        );
        assert_eq!(
            k_hop_neighbors(&g, &Key::str("a"), 9, Direction::Out, None),
            Vec::<Key>::new()
        );
        assert_eq!(
            k_hop_neighbors(&g, &Key::str("a"), 0, Direction::Out, None),
            vec![Key::str("a")]
        );
    }

    fn ring(n: usize) -> PropertyGraph {
        let mut g = PropertyGraph::default();
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
