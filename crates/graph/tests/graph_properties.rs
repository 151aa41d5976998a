//! Randomized property tests for the graph substrate, driven by the
//! workspace's deterministic PRNG. Each test sweeps many seeded random
//! graphs — including disconnected ones, zero-weight edges, and attempted
//! self-loops — and asserts the algorithmic invariants hold on all of them.

use riskroute_graph::components::{connected_components, is_connected, reachable_from};
use riskroute_graph::mst::minimum_spanning_forest;
use riskroute_graph::Graph;
use riskroute_rng::StdRng;

const CASES: usize = 96;

/// Total weight of the minimum spanning forest.
fn msf_weight(g: &Graph) -> f64 {
    minimum_spanning_forest(g)
        .iter()
        .map(|&e| g.edge_weight(e))
        .sum()
}

/// A random graph with `2..24` nodes and up to `3n` random weighted edges.
/// Self-loop draws are attempted and must be rejected, not panic.
fn random_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(2..24usize);
    let mut g = Graph::with_nodes(n);
    let edges = rng.gen_range(0..n * 3);
    for _ in 0..edges {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        // Zero-weight edges are legal and exercised deliberately.
        let w = if rng.gen_bool(0.1) {
            0.0
        } else {
            rng.gen_range(0.0..1000.0)
        };
        if a == b {
            assert!(g.add_edge(a, b, w).is_err(), "self-loop must be rejected");
        } else {
            g.add_edge(a, b, w).expect("valid edge");
        }
    }
    g
}

/// A random connected graph: random spanning tree plus extra edges.
fn random_connected_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(2..24usize);
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(i, parent, rng.gen_range(0.1..1000.0))
            .expect("tree edge");
    }
    for _ in 0..rng.gen_range(0..n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            g.add_edge(a, b, rng.gen_range(0.0..1000.0))
                .expect("extra edge");
        }
    }
    g
}

#[test]
fn components_partition_and_agree_with_connectivity() {
    let mut rng = StdRng::seed_from_u64(0x44);
    let mut saw_disconnected = false;
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, g.node_count());
        assert_eq!(comps.len() == 1, is_connected(&g));
        saw_disconnected |= comps.len() > 1;
        // Every node appears exactly once.
        let mut seen = vec![false; g.node_count()];
        for c in &comps {
            for &n in c {
                assert!(!seen[n]);
                seen[n] = true;
            }
        }
    }
    assert!(saw_disconnected, "sweep must cover disconnected graphs");
}

/// BFS reachability, components and MST must agree and never panic —
/// including on disconnected graphs.
#[test]
fn algorithms_agree_on_reachability_and_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x55);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let comps = connected_components(&g);
        let mut reached = reachable_from(&g, 0);
        reached.sort_unstable();
        assert_eq!(reached, comps[0], "BFS from 0 is node 0's component");
        let _forest = minimum_spanning_forest(&g);
        for c in &comps {
            let mut from = reachable_from(&g, c[c.len() - 1]);
            from.sort_unstable();
            assert_eq!(&from, c);
        }
    }
}

#[test]
fn mst_spans_components_with_minimal_edge_count() {
    let mut rng = StdRng::seed_from_u64(0x66);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let comps = connected_components(&g);
        let mst = minimum_spanning_forest(&g);
        assert_eq!(mst.len(), g.node_count() - comps.len());
        assert!(msf_weight(&g) <= g.total_weight() + 1e-9);
    }
}

#[test]
fn msf_weight_invariant_under_edge_order() {
    let mut rng = StdRng::seed_from_u64(0x77);
    for _ in 0..CASES {
        let g = random_connected_graph(&mut rng);
        // Rebuild with edges inserted in reverse; total MSF weight must match
        // (edge *ids* may differ under ties, weight cannot).
        let mut rev = Graph::with_nodes(g.node_count());
        let edges: Vec<_> = g.edges().collect();
        for &(_, a, b, w) in edges.iter().rev() {
            rev.add_edge(a, b, w).expect("valid edge");
        }
        assert!((msf_weight(&g) - msf_weight(&rev)).abs() < 1e-6);
    }
}
