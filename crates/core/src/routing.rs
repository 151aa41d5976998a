//! Directed shortest-path machinery over the bit-risk metric.
//!
//! Eq. 1 charges risk at the PoP a hop *enters*, so the effective edge
//! weight is directional even though the physical links are not:
//! `w(u→v) = d(u,v) + β·ρ(v)` where `ρ(v)` is the λ-combined risk of v.
//! This module runs Dijkstra directly over that implicit directed weighting
//! (bit-risk weights are non-negative by construction, so Dijkstra is exact
//! for Eq. 3).

use crate::engine::CsrGraph;
use crate::error::Error;
use std::collections::BinaryHeap;

/// Adjacency built once per topology: `adj[u] = [(v, miles), …]` for both
/// directions of every link.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjacency {
    adj: Vec<Vec<(usize, f64)>>,
}

impl Adjacency {
    /// Build from an undirected link list over `n` nodes.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or invalid lengths.
    pub fn from_links(n: usize, links: impl IntoIterator<Item = (usize, usize, f64)>) -> Self {
        let mut adj = vec![Vec::new(); n];
        for (a, b, miles) in links {
            assert!(a < n && b < n, "link endpoint out of range");
            assert!(
                miles.is_finite() && miles >= 0.0,
                "link length must be finite and non-negative"
            );
            adj[a].push((b, miles));
            adj[b].push((a, miles));
        }
        Adjacency { adj }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Neighbors of `u` with link miles.
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }
}

/// A routed path with its metric decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedPath {
    /// PoP sequence from source to destination.
    pub nodes: Vec<usize>,
    /// Total geographic distance (bit-miles).
    pub bit_miles: f64,
    /// Total β-scaled risk charged along the path.
    pub risk_miles: f64,
    /// `bit_miles + risk_miles` — the bit-risk miles of Eq. 1.
    pub bit_risk_miles: f64,
}

/// Sentinel in the packed predecessor array: "no predecessor" (the source
/// itself, or an unreachable node).
pub(crate) const NO_PRED: u32 = u32::MAX;

/// A single-source shortest-path tree under a directed node-entry weight.
///
/// Predecessors are packed as `u32` (with `NO_PRED` as the sentinel) so a
/// cached tree costs 12 bytes per node instead of 24. A tree is always
/// complete: every reachable node settled. Pair queries that read one path
/// get a [`PairAnswer`] instead (see [`crate::engine::sssp_to`]).
///
/// A β = 0 tree (the distance tree) is a function of the topology alone;
/// its Σρ is summed where it is read (`path_rho_sum`, `RhoSums`).
#[derive(Debug, Clone)]
pub struct RiskTree {
    source: usize,
    dist: Vec<f64>,
    pred: Vec<u32>,
}

impl RiskTree {
    /// Assemble a tree from raw engine output.
    pub(crate) fn from_parts(source: usize, dist: Vec<f64>, pred: Vec<u32>) -> Self {
        RiskTree { source, dist, pred }
    }

    /// Bytes held by the tree's vectors (allocated capacity, not length) —
    /// what a cache entry charges against its budget on top of the fixed
    /// per-entry overhead.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<f64>()
            + self.pred.capacity() * std::mem::size_of::<u32>()
    }

    /// The source node.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Bit-risk distance to `t` (`f64::INFINITY` when unreachable).
    pub fn dist(&self, t: usize) -> f64 {
        self.dist[t]
    }

    /// Whether `t` is reachable.
    pub fn reachable(&self, t: usize) -> bool {
        self.dist[t].is_finite()
    }

    /// The raw distance array (scenario-fork tree projection).
    pub(crate) fn dist_slice(&self) -> &[f64] {
        &self.dist
    }

    /// The raw packed predecessor array (`u32::MAX` marks the source and
    /// unreachable nodes; scenario-fork tree projection validates pred
    /// edges against a failure delta).
    pub fn pred_slice(&self) -> &[u32] {
        &self.pred
    }

    /// Node sequence source→t, or `None` when unreachable.
    pub fn path_to(&self, t: usize) -> Option<Vec<usize>> {
        if !self.reachable(t) {
            return None;
        }
        let mut path = vec![t];
        let mut cur = t;
        while self.pred[cur] != NO_PRED {
            let p = self.pred[cur] as usize;
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// The [`PairAnswer`] for target `t`, or `None` when unreachable: what a
    /// pair query reads when a whole tree is at hand.
    pub fn pair_answer(&self, t: usize) -> Option<PairAnswer> {
        Some(PairAnswer {
            path: self.path_to(t)?,
            dist: self.dist[t],
        })
    }
}

/// Σ ρ(v) over the nodes a path enters (`path[1..]`), added in path order
/// starting from 0.0 — the order [`evaluate_path`] charges them in. Every
/// reader of a distance tree's Σρ goes through this one recurrence.
pub(crate) fn path_rho_sum(path: &[usize], rho: &[f64]) -> f64 {
    add_entered_rho(0.0, &path[1..], rho)
}

/// `sum` plus ρ(v) for each node of `entered`, in order.
fn add_entered_rho(sum: f64, entered: &[usize], rho: &[f64]) -> f64 {
    entered.iter().fold(sum, |acc, &v| acc + rho[v])
}

/// Scratch for summing Σρ down distance trees one tree at a time
/// ([`Self::sum`]), its buffers reused from tree to tree.
#[derive(Debug, Default)]
pub(crate) struct RhoSums {
    sums: Vec<f64>,
    done: Vec<bool>,
    chain: Vec<usize>,
}

impl RhoSums {
    /// [`path_rho_sum`] of `tree`'s path to every reachable node `v ≥ from`,
    /// at index `v` of the returned slice (other entries are not
    /// meaningful), in O(n) for the whole tree. Each node's sum is its
    /// predecessor's sum plus its own ρ — the very step `path_rho_sum`
    /// takes on entering that node — so every sum is bit-identical to it.
    pub(crate) fn sum(&mut self, tree: &RiskTree, rho: &[f64], from: usize) -> &[f64] {
        let n = tree.pred.len();
        self.sums.resize(n, 0.0);
        self.done.clear();
        // The source and the unreachable nodes start done; of those, only
        // the source's entry is ever read.
        self.done.extend(tree.pred.iter().map(|&p| p == NO_PRED));
        self.sums[tree.source] = 0.0;
        for v in from..n {
            if self.done[v] {
                continue;
            }
            // Walk up to the nearest node already summed, then sum back
            // down the path from there.
            let mut cur = v;
            while !self.done[cur] {
                self.chain.push(cur);
                cur = tree.pred[cur] as usize;
            }
            let mut sum = self.sums[cur];
            while let Some(u) = self.chain.pop() {
                sum = add_entered_rho(sum, &[u], rho);
                self.sums[u] = sum;
                self.done[u] = true;
            }
        }
        &self.sums[..n]
    }
}

/// The answer to one pair query: the node path source→target and its
/// bit-risk distance — bit-for-bit what the complete tree holds for that
/// target, at O(path length) memory.
#[derive(Debug, Clone)]
pub struct PairAnswer {
    /// PoP sequence from source to target.
    pub path: Vec<usize>,
    /// Bit-risk distance to the target.
    pub dist: f64,
}

impl PairAnswer {
    /// Bytes held by the path (allocated capacity) — what a cache entry
    /// charges against its budget on top of the fixed per-entry overhead.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.path.capacity() * std::mem::size_of::<usize>()
    }
}

// The frontier entry lives in `riskroute-graph` now so every shortest-path
// call site in the workspace shares one comparator (cost via `total_cmp`,
// lowest-node-index tie-break) — bit-identical to the struct this module
// used to define.
pub(crate) use riskroute_graph::queue::CostEntry as Entry;

/// Dijkstra from `source` with edge weight
/// `w(u→v) = miles(u,v) + entry_cost(v)`.
///
/// This is the reference oracle: production SSSP runs through
/// [`crate::engine::sssp`], and the differential suite checks that kernel
/// against this plain binary-heap search bit for bit. It emits no metrics.
///
/// `entry_cost(v)` is the β-scaled risk charged for entering PoP v.
/// Degraded-mode contract: a node whose entry cost is non-finite or
/// negative is treated as *unroutable* — no path may enter it, so queries
/// through it report unreachable instead of aborting the whole sweep.
///
/// # Panics
/// Panics when `source` is out of range.
pub fn risk_sssp(adj: &Adjacency, source: usize, entry_cost: impl Fn(usize) -> f64) -> RiskTree {
    let n = adj.node_count();
    assert!(source < n, "source {source} out of range ({n} nodes)");
    assert!(
        n < NO_PRED as usize,
        "node count exceeds the packed-pred limit"
    );
    let costs: Vec<f64> = (0..n)
        .map(|v| {
            let c = entry_cost(v);
            if c.is_finite() && c >= 0.0 {
                c
            } else {
                f64::INFINITY
            }
        })
        .collect();

    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<u32> = vec![NO_PRED; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(Entry {
        cost: 0.0,
        node: source,
    });
    while let Some(Entry { cost, node }) = heap.pop() {
        if settled[node] {
            continue;
        }
        settled[node] = true;
        for &(v, miles) in adj.neighbors(node) {
            if settled[v] {
                continue;
            }
            let next = cost + miles + costs[v];
            if next < dist[v] {
                dist[v] = next;
                pred[v] = node as u32;
                heap.push(Entry {
                    cost: next,
                    node: v,
                });
            }
        }
    }
    RiskTree::from_parts(source, dist, pred)
}

/// Evaluate a node sequence under the metric `d(u,v) + β·ρ(v)`,
/// decomposing bit-miles and risk-miles. Each hop reads `u`'s CSR row;
/// parallel links resolve to the cheapest (first in row order on a tie).
/// The source node's entry cost is never charged (Eq. 1 sums from p₂).
///
/// # Errors
/// [`Error::NotAdjacent`] when consecutive nodes share no link.
///
/// # Panics
/// Panics when the path is empty.
pub(crate) fn evaluate_path(
    csr: &CsrGraph,
    nodes: &[usize],
    beta: f64,
    rho: &[f64],
) -> Result<RoutedPath, Error> {
    assert!(!nodes.is_empty(), "cannot evaluate an empty path");
    let mut bit_miles = 0.0;
    let mut risk_miles = 0.0;
    for w in nodes.windows(2) {
        let (u, v) = (w[0], w[1]);
        let miles = csr
            .neighbors(u)
            .filter(|&(n, _)| n == v)
            .map(|(_, m)| m)
            .min_by(f64::total_cmp)
            .ok_or(Error::NotAdjacent { u, v })?;
        bit_miles += miles;
        risk_miles += beta * rho[v];
    }
    Ok(RoutedPath {
        nodes: nodes.to_vec(),
        bit_miles,
        risk_miles,
        bit_risk_miles: bit_miles + risk_miles,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// Square with a risky top corner:
    ///
    /// ```text
    ///   0 --10-- 1(risk 100)
    ///   |         |
    ///  10        10
    ///   |         |
    ///   3 --10-- 2
    /// ```
    fn square() -> Adjacency {
        Adjacency::from_links(
            4,
            vec![(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0), (3, 0, 10.0)],
        )
    }

    fn risky_node_1(v: usize) -> f64 {
        if v == 1 {
            100.0
        } else {
            0.0
        }
    }

    #[test]
    fn routes_around_risky_node() {
        let adj = square();
        let tree = risk_sssp(&adj, 0, risky_node_1);
        // 0→2 via 3 costs 20; via 1 costs 10+100+10 = 120.
        assert_eq!(tree.dist(2), 20.0);
        assert_eq!(tree.path_to(2), Some(vec![0, 3, 2]));
    }

    #[test]
    fn destination_risk_is_charged() {
        let adj = square();
        let tree = risk_sssp(&adj, 0, risky_node_1);
        // Entering node 1 costs its risk no matter the approach: min(10, 30)
        // + 100.
        assert_eq!(tree.dist(1), 110.0);
    }

    #[test]
    fn source_risk_is_never_charged() {
        let adj = square();
        let tree = risk_sssp(&adj, 1, risky_node_1);
        assert_eq!(tree.dist(1), 0.0);
        assert_eq!(tree.dist(0), 10.0);
        assert_eq!(tree.dist(2), 10.0);
    }

    #[test]
    fn zero_risk_reduces_to_distance_dijkstra() {
        let adj = square();
        let tree = risk_sssp(&adj, 0, |_| 0.0);
        assert_eq!(tree.dist(2), 20.0);
        assert_eq!(tree.dist(1), 10.0);
    }

    #[test]
    fn unreachable_nodes() {
        let adj = Adjacency::from_links(3, vec![(0, 1, 5.0)]);
        let tree = risk_sssp(&adj, 0, |_| 0.0);
        assert!(!tree.reachable(2));
        assert_eq!(tree.path_to(2), None);
        assert_eq!(tree.dist(2), f64::INFINITY);
    }

    /// ρ of [`square`]: node 1 carries the risk (β = 1 makes it
    /// [`risky_node_1`]).
    const RISKY_RHO: [f64; 4] = [0.0, 100.0, 0.0, 0.0];

    fn square_csr() -> CsrGraph {
        CsrGraph::from_adjacency(&square())
    }

    #[test]
    fn evaluate_path_decomposes_metric() {
        let p = evaluate_path(&square_csr(), &[0, 1, 2], 1.0, &RISKY_RHO).unwrap();
        assert_eq!(p.bit_miles, 20.0);
        assert_eq!(p.risk_miles, 100.0);
        assert_eq!(p.bit_risk_miles, 120.0);
        assert_eq!(p.nodes, vec![0, 1, 2]);
    }

    #[test]
    fn evaluate_trivial_path() {
        let p = evaluate_path(&square_csr(), &[2], 1.0, &RISKY_RHO).unwrap();
        assert_eq!(p.bit_risk_miles, 0.0);
        assert_eq!(p.nodes, vec![2]);
    }

    #[test]
    fn evaluate_matches_tree_distance() {
        let tree = risk_sssp(&square(), 0, risky_node_1);
        for t in 0..4 {
            let path = tree.path_to(t).unwrap();
            let eval = evaluate_path(&square_csr(), &path, 1.0, &RISKY_RHO).unwrap();
            assert!((eval.bit_risk_miles - tree.dist(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn evaluate_rejects_non_path_as_value() {
        let err = evaluate_path(&square_csr(), &[0, 2], 1.0, &RISKY_RHO).unwrap_err();
        assert_eq!(err, Error::NotAdjacent { u: 0, v: 2 });
        // A later non-adjacent hop is reported as that hop.
        let err = evaluate_path(&square_csr(), &[0, 1, 3], 1.0, &RISKY_RHO).unwrap_err();
        assert_eq!(err, Error::NotAdjacent { u: 1, v: 3 });
    }

    #[test]
    fn invalid_entry_cost_isolates_the_node() {
        // Degraded mode: NaN/negative entry cost makes the node unroutable
        // instead of panicking; every other pair still routes.
        let adj = square();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let tree = risk_sssp(&adj, 0, move |v| if v == 1 { bad } else { 0.0 });
            assert!(!tree.reachable(1), "cost {bad} must isolate node 1");
            assert_eq!(tree.dist(2), 20.0, "detour around the poisoned node");
            assert_eq!(tree.path_to(2), Some(vec![0, 3, 2]));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let adj = square();
        let _ = risk_sssp(&adj, 9, |_| 0.0);
    }

    #[test]
    fn parallel_links_use_cheapest() {
        let adj = Adjacency::from_links(2, vec![(0, 1, 10.0), (0, 1, 3.0)]);
        let tree = risk_sssp(&adj, 0, |_| 0.0);
        assert_eq!(tree.dist(1), 3.0);
        let csr = CsrGraph::from_adjacency(&adj);
        let eval = evaluate_path(&csr, &[0, 1], 0.5, &[0.0, 4.0]).unwrap();
        assert_eq!(eval.bit_miles, 3.0);
        assert_eq!(eval.risk_miles, 2.0);
        // Either direction, whichever link comes first in the row.
        let adj = Adjacency::from_links(2, vec![(1, 0, 3.0), (0, 1, 10.0)]);
        let csr = CsrGraph::from_adjacency(&adj);
        assert_eq!(
            evaluate_path(&csr, &[1, 0], 0.0, &[0.0; 2])
                .unwrap()
                .bit_miles,
            3.0
        );
    }
}
