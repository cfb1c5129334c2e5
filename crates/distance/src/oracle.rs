//! The distance-oracle abstraction the team-formation layer is generic over.

use atd_graph::NodeId;

/// Answers shortest-path distance queries over a fixed graph.
///
/// Implementations must be consistent with Dijkstra on the graph they were
/// built from: `distance(u, v)` returns the weight of a shortest `u`–`v`
/// path, or `None` when `v` is unreachable from `u`.
///
/// `Sync` is required so one oracle can answer queries from several
/// threads at once, such as the workers of a query service.
pub trait DistanceOracle: Sync {
    /// Shortest-path distance between `u` and `v`, or `None` if
    /// disconnected.
    fn distance(&self, u: NodeId, v: NodeId) -> Option<f64>;

    /// Number of nodes in the indexed graph.
    fn num_nodes(&self) -> usize;

    /// True if `u` and `v` are in the same connected component.
    fn connected(&self, u: NodeId, v: NodeId) -> bool {
        self.distance(u, v).is_some()
    }
}

impl<T: DistanceOracle + ?Sized> DistanceOracle for &T {
    fn distance(&self, u: NodeId, v: NodeId) -> Option<f64> {
        (**self).distance(u, v)
    }

    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
}

impl<T: DistanceOracle + Send + ?Sized> DistanceOracle for std::sync::Arc<T> {
    fn distance(&self, u: NodeId, v: NodeId) -> Option<f64> {
        (**self).distance(u, v)
    }

    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
}
