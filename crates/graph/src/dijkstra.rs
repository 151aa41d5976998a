//! Binary-heap Dijkstra shortest paths.
//!
//! Bit-risk-mile edge weights are non-negative by construction (distance plus
//! non-negative scaled risk), so Dijkstra is exact for the RiskRoute
//! optimization of Eq. 3 in the paper.

use crate::queue::CostEntry;
use crate::{Graph, NodeId};
use std::collections::BinaryHeap;

/// A single-source shortest-path tree.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    /// `dist[v]` = cost of the best path source→v, or `f64::INFINITY`.
    dist: Vec<f64>,
    /// `pred[v]` = previous node on the best path, `None` for source and
    /// unreachable nodes.
    pred: Vec<Option<NodeId>>,
}

impl ShortestPathTree {
    /// Cost of the best path to `t` (`f64::INFINITY` when unreachable).
    pub fn dist(&self, t: NodeId) -> f64 {
        self.dist[t]
    }

    /// Whether `t` is reachable from the source.
    pub fn reachable(&self, t: NodeId) -> bool {
        self.dist[t].is_finite()
    }

    /// Reconstruct the node sequence source→t, or `None` if unreachable.
    pub fn path_to(&self, t: NodeId) -> Option<Vec<NodeId>> {
        if !self.reachable(t) {
            return None;
        }
        let mut path = vec![t];
        let mut cur = t;
        while let Some(p) = self.pred[cur] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        path.reverse();
        Some(path)
    }
}

/// Grow the full shortest-path tree from `source`.
///
/// # Panics
/// Panics when `source` is out of range.
pub fn sssp(g: &Graph, source: NodeId) -> ShortestPathTree {
    sssp_with_target(g, source, None)
}

/// Shortest path from `s` to `t` as `(cost, node sequence)`.
///
/// Returns `None` when `t` is unreachable from `s`. The search terminates as
/// soon as `t` is settled, so point-to-point queries are cheaper than a full
/// tree on large graphs.
///
/// # Panics
/// Panics when `s` or `t` is out of range.
pub fn shortest_path(g: &Graph, s: NodeId, t: NodeId) -> Option<(f64, Vec<NodeId>)> {
    let tree = sssp_with_target(g, s, Some(t));
    let path = tree.path_to(t)?;
    Some((tree.dist(t), path))
}

fn sssp_with_target(g: &Graph, source: NodeId, target: Option<NodeId>) -> ShortestPathTree {
    let n = g.node_count();
    assert!(source < n, "source {source} out of range ({n} nodes)");
    if let Some(t) = target {
        assert!(t < n, "target {t} out of range ({n} nodes)");
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut pred = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(CostEntry {
        cost: 0.0,
        node: source,
    });

    // Hot loop: accumulate plain locals and publish to the collector once
    // at the end, so the disabled-mode cost stays a single branch.
    let mut pops: u64 = 0;
    let mut relaxations: u64 = 0;
    let mut heap_peak: usize = heap.len();

    while let Some(CostEntry { cost, node }) = heap.pop() {
        pops += 1;
        if settled[node] {
            continue;
        }
        settled[node] = true;
        if target == Some(node) {
            break;
        }
        for (v, w, _) in g.neighbors(node) {
            if settled[v] {
                continue;
            }
            let next = cost + w;
            if next < dist[v] {
                dist[v] = next;
                pred[v] = Some(node);
                relaxations += 1;
                heap.push(CostEntry {
                    cost: next,
                    node: v,
                });
                heap_peak = heap_peak.max(heap.len());
            }
        }
    }

    if riskroute_obs::is_enabled() {
        riskroute_obs::counter_add("dijkstra_runs", 1);
        riskroute_obs::counter_add("dijkstra_pops", pops);
        riskroute_obs::counter_add("dijkstra_relaxations", relaxations);
        riskroute_obs::gauge_max("dijkstra_heap_peak", heap_peak as f64);
    }

    ShortestPathTree { source, dist, pred }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    #![allow(clippy::needless_range_loop)]
    use super::*;

    /// A small diamond with a tempting-but-costly direct edge.
    ///
    /// ```text
    ///       1
    ///    /     \
    ///   0 ------ 2 --- 3
    ///     (5.0)
    /// ```
    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(0, 2, 5.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        g
    }

    #[test]
    fn finds_cheaper_two_hop_path() {
        let g = diamond();
        let (cost, path) = shortest_path(&g, 0, 2).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(path, vec![0, 1, 2]);
    }

    #[test]
    fn path_to_self_is_trivial() {
        let g = diamond();
        let (cost, path) = shortest_path(&g, 1, 1).unwrap();
        assert_eq!(cost, 0.0);
        assert_eq!(path, vec![1]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = diamond();
        let island = g.add_node();
        assert_eq!(shortest_path(&g, 0, island), None);
        let tree = sssp(&g, 0);
        assert!(!tree.reachable(island));
        assert_eq!(tree.dist(island), f64::INFINITY);
        assert_eq!(tree.path_to(island), None);
    }

    #[test]
    fn sssp_distances_match_point_queries() {
        let g = diamond();
        let tree = sssp(&g, 0);
        for t in 0..g.node_count() {
            assert_eq!(Some(tree.dist(t)), shortest_path(&g, 0, t).map(|(c, _)| c));
        }
    }

    #[test]
    fn zero_weight_edges_are_handled() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 0.0).unwrap();
        g.add_edge(1, 2, 0.0).unwrap();
        let (cost, path) = shortest_path(&g, 0, 2).unwrap();
        assert_eq!(cost, 0.0);
        assert_eq!(path, vec![0, 1, 2]);
    }

    #[test]
    fn parallel_edges_use_cheapest() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 1, 7.0).unwrap();
        g.add_edge(0, 1, 3.0).unwrap();
        let (cost, _) = shortest_path(&g, 0, 1).unwrap();
        assert_eq!(cost, 3.0);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost routes 0→1→3 and 0→2→3; repeated runs must agree.
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        g.add_edge(1, 3, 1.0).unwrap();
        g.add_edge(2, 3, 1.0).unwrap();
        let first = shortest_path(&g, 0, 3).unwrap();
        for _ in 0..5 {
            assert_eq!(shortest_path(&g, 0, 3).unwrap(), first);
        }
    }

    #[test]
    fn path_edges_exist_in_graph() {
        let g = diamond();
        let (_, path) = shortest_path(&g, 0, 3).unwrap();
        for w in path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = diamond();
        let _ = sssp(&g, 99);
    }
}
