//! The property-graph store.

use std::collections::{BTreeMap, HashMap};

use udbms_core::{Direction, Error, Key, Result, Value};

/// Identifier of an edge (assigned by the graph, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct EdgeId(u64);

/// A vertex: label + property object.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Vertex {
    /// Vertex label (e.g. `"customer"`, `"product"`).
    pub(crate) label: String,
    /// Property map (any unified value; `Null` means no properties).
    pub(crate) props: Value,
}

/// An edge: endpoints, label, property object.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Edge {
    /// Source vertex key.
    pub(crate) src: Key,
    /// Destination vertex key.
    pub(crate) dst: Key,
    /// Edge label (e.g. `"knows"`, `"bought"`).
    pub(crate) label: String,
    /// Property map.
    pub(crate) props: Value,
}

/// An in-memory directed property graph with adjacency indexes.
#[derive(Debug, Clone, Default)]
pub(crate) struct PropertyGraph {
    vertices: BTreeMap<Key, Vertex>,
    edges: BTreeMap<EdgeId, Edge>,
    out_adj: HashMap<Key, Vec<EdgeId>>,
    in_adj: HashMap<Key, Vec<EdgeId>>,
    next_edge_id: u64,
}

impl PropertyGraph {
    /// Add a vertex. Fails if the key exists.
    pub(crate) fn add_vertex(
        &mut self,
        key: Key,
        label: impl Into<String>,
        props: Value,
    ) -> Result<()> {
        match self.vertices.entry(key) {
            std::collections::btree_map::Entry::Occupied(e) => {
                Err(Error::AlreadyExists(format!("vertex {}", e.key())))
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(Vertex {
                    label: label.into(),
                    props,
                });
                Ok(())
            }
        }
    }

    /// Fetch a vertex.
    pub(crate) fn vertex(&self, key: &Key) -> Option<&Vertex> {
        self.vertices.get(key)
    }

    /// Add an edge between existing vertices. Returns its id.
    pub(crate) fn add_edge(
        &mut self,
        src: Key,
        dst: Key,
        label: impl Into<String>,
        props: Value,
    ) -> Result<EdgeId> {
        if !self.vertices.contains_key(&src) {
            return Err(Error::NotFound(format!("source vertex {src}")));
        }
        if !self.vertices.contains_key(&dst) {
            return Err(Error::NotFound(format!("destination vertex {dst}")));
        }
        let id = EdgeId(self.next_edge_id);
        self.next_edge_id += 1;
        self.out_adj.entry(src.clone()).or_default().push(id);
        self.in_adj.entry(dst.clone()).or_default().push(id);
        self.edges.insert(
            id,
            Edge {
                src,
                dst,
                label: label.into(),
                props,
            },
        );
        Ok(id)
    }

    /// Incident edges of `key` in `dir`, optionally filtered by label.
    pub(crate) fn incident(
        &self,
        key: &Key,
        dir: Direction,
        label: Option<&str>,
    ) -> Vec<(EdgeId, &Edge)> {
        fn push_from<'g>(
            edges: &'g BTreeMap<EdgeId, Edge>,
            ids: Option<&Vec<EdgeId>>,
            label: Option<&str>,
            out: &mut Vec<(EdgeId, &'g Edge)>,
        ) {
            for id in ids.into_iter().flatten() {
                if let Some(e) = edges.get(id) {
                    if label.is_none_or(|l| e.label == l) {
                        out.push((*id, e));
                    }
                }
            }
        }
        let mut out: Vec<(EdgeId, &Edge)> = Vec::new();
        match dir {
            Direction::Out => push_from(&self.edges, self.out_adj.get(key), label, &mut out),
            Direction::In => push_from(&self.edges, self.in_adj.get(key), label, &mut out),
            Direction::Both => {
                push_from(&self.edges, self.out_adj.get(key), label, &mut out);
                push_from(&self.edges, self.in_adj.get(key), label, &mut out);
            }
        }
        out
    }

    /// Neighbor keys of `key` along `dir`, optionally filtered by edge
    /// label. Deduplicated, in first-seen order.
    pub(crate) fn neighbors(&self, key: &Key, dir: Direction, label: Option<&str>) -> Vec<Key> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (_, e) in self.incident(key, dir, label) {
            let other = match dir {
                Direction::Out => &e.dst,
                Direction::In => &e.src,
                Direction::Both => {
                    if &e.src == key {
                        &e.dst
                    } else {
                        &e.src
                    }
                }
            };
            if seen.insert(other.clone()) {
                out.push(other.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::obj;

    fn triangle() -> PropertyGraph {
        let mut g = PropertyGraph::default();
        g.add_vertex(Key::str("a"), "customer", obj! {"name" => "Ada"})
            .unwrap();
        g.add_vertex(Key::str("b"), "customer", obj! {"name" => "Bob"})
            .unwrap();
        g.add_vertex(Key::str("p"), "product", obj! {"name" => "Pen"})
            .unwrap();
        g.add_edge(Key::str("a"), Key::str("b"), "knows", Value::Null)
            .unwrap();
        g.add_edge(Key::str("b"), Key::str("a"), "knows", Value::Null)
            .unwrap();
        g.add_edge(Key::str("a"), Key::str("p"), "bought", obj! {"qty" => 2})
            .unwrap();
        g
    }

    #[test]
    fn crud_vertices_and_edges() {
        let mut g = triangle();
        assert_eq!(g.vertices.len(), 3);
        assert_eq!(g.edges.len(), 3);
        assert_eq!(g.vertex(&Key::str("a")).unwrap().label, "customer");
        assert!(g.add_vertex(Key::str("a"), "dup", Value::Null).is_err());
        assert!(
            g.add_edge(Key::str("a"), Key::str("zz"), "x", Value::Null)
                .is_err(),
            "dangling dst"
        );
        assert!(
            g.add_edge(Key::str("zz"), Key::str("a"), "x", Value::Null)
                .is_err(),
            "dangling src"
        );
    }

    #[test]
    fn neighbors_by_direction_and_label() {
        let g = triangle();
        let out_a = g.neighbors(&Key::str("a"), Direction::Out, None);
        assert_eq!(out_a, vec![Key::str("b"), Key::str("p")]);
        let out_a_knows = g.neighbors(&Key::str("a"), Direction::Out, Some("knows"));
        assert_eq!(out_a_knows, vec![Key::str("b")]);
        let in_a = g.neighbors(&Key::str("a"), Direction::In, None);
        assert_eq!(in_a, vec![Key::str("b")]);
        let both_a = g.neighbors(&Key::str("a"), Direction::Both, None);
        assert_eq!(both_a.len(), 2, "deduplicated");
        assert!(g
            .neighbors(&Key::str("zz"), Direction::Out, None)
            .is_empty());
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = triangle();
        g.add_edge(Key::str("a"), Key::str("p"), "bought", obj! {"qty" => 1})
            .unwrap();
        assert_eq!(
            g.incident(&Key::str("a"), Direction::Out, Some("bought"))
                .len(),
            2
        );
        // neighbors still deduplicate
        assert_eq!(
            g.neighbors(&Key::str("a"), Direction::Out, Some("bought"))
                .len(),
            1
        );
    }
}
