//! Kruskal minimum spanning tree / forest.
//!
//! Used by the topology synthesizer to guarantee every generated network is
//! connected: a geographic MST forms the backbone, and Gabriel-graph edges
//! add the redundancy real ISP meshes exhibit.

use crate::unionfind::UnionFind;
use crate::{EdgeId, Graph};

/// The edge ids of a minimum spanning forest of `g` (a spanning *tree* when
/// `g` is connected), selected by Kruskal's algorithm.
///
/// Ties are broken by edge id, so the result is deterministic.
pub fn minimum_spanning_forest(g: &Graph) -> Vec<EdgeId> {
    let mut order: Vec<EdgeId> = (0..g.edge_count()).collect();
    order.sort_by(|&a, &b| {
        g.edge_weight(a)
            .total_cmp(&g.edge_weight(b))
            .then(a.cmp(&b))
    });
    let mut uf = UnionFind::new(g.node_count());
    let mut chosen = Vec::new();
    for e in order {
        let (a, b) = g.edge_endpoints(e);
        if uf.union(a, b) {
            chosen.push(e);
            if chosen.len() + 1 == g.node_count() {
                break;
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::components::is_connected;

    fn square_with_diagonals() -> Graph {
        // 4-cycle with weight 1 edges plus weight 10 diagonals.
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        g.add_edge(3, 0, 1.0).unwrap();
        g.add_edge(0, 2, 10.0).unwrap();
        g.add_edge(1, 3, 10.0).unwrap();
        g
    }

    #[test]
    fn tree_has_n_minus_one_edges() {
        let g = square_with_diagonals();
        let mst = minimum_spanning_forest(&g);
        assert_eq!(mst.len(), 3);
        assert_eq!(mst.iter().map(|&e| g.edge_weight(e)).sum::<f64>(), 3.0);
    }

    #[test]
    fn avoids_heavy_edges() {
        let g = square_with_diagonals();
        for e in minimum_spanning_forest(&g) {
            assert!(g.edge_weight(e) < 10.0);
        }
    }

    #[test]
    fn spanning_tree_connects_graph() {
        let g = square_with_diagonals();
        let mst = minimum_spanning_forest(&g);
        let mut t = Graph::with_nodes(g.node_count());
        for e in mst {
            let (a, b) = g.edge_endpoints(e);
            t.add_edge(a, b, g.edge_weight(e)).unwrap();
        }
        assert!(is_connected(&t));
    }

    #[test]
    fn forest_of_disconnected_graph() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(2, 3, 2.0).unwrap();
        let mst = minimum_spanning_forest(&g);
        assert_eq!(mst.len(), 2);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        assert!(minimum_spanning_forest(&Graph::new()).is_empty());
        assert!(minimum_spanning_forest(&Graph::with_nodes(1)).is_empty());
    }

    #[test]
    fn deterministic_under_ties() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        let first = minimum_spanning_forest(&g);
        assert_eq!(first, vec![0, 1], "lowest edge ids win ties");
    }
}
