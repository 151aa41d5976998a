//! Compact undirected adjacency-list graph.

use std::fmt;

/// Node identifier: a dense index in `0..node_count()`.
pub type NodeId = usize;

/// Edge identifier: a dense index in `0..edge_count()`.
pub type EdgeId = usize;

/// Errors from graph construction and mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node id at or beyond `node_count()`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Current number of nodes.
        count: usize,
    },
    /// Edge weight was negative, NaN, or infinite.
    InvalidWeight(f64),
    /// Self-loops are not meaningful for PoP-to-PoP links.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, count } => {
                write!(f, "node {node} out of range (graph has {count} nodes)")
            }
            GraphError::InvalidWeight(w) => {
                write!(f, "edge weight {w} must be finite and non-negative")
            }
            GraphError::SelfLoop(n) => write!(f, "self-loop on node {n} rejected"),
        }
    }
}

impl std::error::Error for GraphError {}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    a: NodeId,
    b: NodeId,
    weight: f64,
}

/// An undirected graph with non-negative `f64` edge weights.
///
/// Nodes are dense indices; carry any per-node payload (PoP metadata, city
/// names, …) in a parallel `Vec` owned by the caller. Parallel edges are
/// permitted (two PoPs can be joined by distinct physical links); self-loops
/// are rejected.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    edges: Vec<Edge>,
    /// adjacency[n] = list of (neighbor, edge id)
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// A graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add an undirected edge between `a` and `b` with weight `w`.
    ///
    /// # Errors
    /// Rejects out-of-range nodes, self-loops, and invalid weights.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, w: f64) -> Result<EdgeId, GraphError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if !w.is_finite() || w < 0.0 {
            return Err(GraphError::InvalidWeight(w));
        }
        let id = self.edges.len();
        self.edges.push(Edge { a, b, weight: w });
        self.adjacency[a].push((b, id));
        self.adjacency[b].push((a, id));
        Ok(id)
    }

    /// Endpoints `(a, b)` of edge `e`.
    ///
    /// # Panics
    /// Panics when `e` is out of range.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e];
        (edge.a, edge.b)
    }

    /// Weight of edge `e`.
    ///
    /// # Panics
    /// Panics when `e` is out of range.
    pub fn edge_weight(&self, e: EdgeId) -> f64 {
        self.edges[e].weight
    }

    /// Iterate `(neighbor, weight, edge id)` over the edges incident to `n`.
    ///
    /// # Panics
    /// Panics when `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f64, EdgeId)> + '_ {
        self.adjacency[n]
            .iter()
            .map(move |&(v, e)| (v, self.edges[e].weight, e))
    }

    /// Iterate `(edge id, a, b, weight)` over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, f64)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.a, e.b, e.weight))
    }

    /// Total weight over all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: n,
                count: self.node_count(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Graph::with_nodes(3);
        let e = g.add_edge(0, 1, 2.5).unwrap();
        assert_eq!(g.edge_endpoints(e), (0, 1));
        assert_eq!(g.edge_weight(e), 2.5);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(g.add_edge(1, 1, 1.0), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_bad_weight() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(g.add_edge(0, 1, -1.0), Err(GraphError::InvalidWeight(-1.0)));
        assert!(g.add_edge(0, 1, f64::NAN).is_err());
        assert!(g.add_edge(0, 1, f64::INFINITY).is_err());
        assert!(g.add_edge(0, 1, 0.0).is_ok(), "zero weight is legal");
    }

    #[test]
    fn rejects_out_of_range_node() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(
            g.add_edge(0, 5, 1.0),
            Err(GraphError::NodeOutOfRange { node: 5, count: 2 })
        );
    }

    #[test]
    fn neighbors_are_symmetric() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(0, 2, 2.0).unwrap();
        let n0: Vec<_> = g.neighbors(0).map(|(v, w, _)| (v, w)).collect();
        assert_eq!(n0, vec![(1, 1.0), (2, 2.0)]);
        let n1: Vec<_> = g.neighbors(1).map(|(v, w, _)| (v, w)).collect();
        assert_eq!(n1, vec![(0, 1.0)]);
    }

    #[test]
    fn edges_iterator_and_total_weight() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 1.5).unwrap();
        g.add_edge(1, 2, 2.5).unwrap();
        assert_eq!(g.edges().count(), 2);
        assert_eq!(g.total_weight(), 4.0);
    }
}
