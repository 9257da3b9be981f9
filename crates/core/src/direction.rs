//! The direction a graph traversal follows edges in.

/// Traversal direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges source → destination.
    Out,
    /// Follow edges destination → source.
    In,
    /// Both directions.
    Both,
}
