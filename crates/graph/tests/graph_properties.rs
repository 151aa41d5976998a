//! Randomized property tests for the graph substrate, driven by the
//! workspace's deterministic PRNG. Each test sweeps many seeded random
//! graphs — including disconnected ones, zero-weight edges, and attempted
//! self-loops — and asserts the algorithmic invariants hold on all of them.

use riskroute_graph::components::{connected_components, is_connected};
use riskroute_graph::mst::minimum_spanning_forest;
use riskroute_graph::yen::k_shortest_paths;
use riskroute_graph::{dijkstra, Graph};
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
            g.add_edge(a, b, rng.gen_range(0.0..1000.0)).expect("extra edge");
        }
    }
    g
}

#[test]
fn dijkstra_dist_satisfies_triangle_inequality_over_edges() {
    let mut rng = StdRng::seed_from_u64(0x11);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        // For every edge (u, v, w): dist(s,v) <= dist(s,u) + w.
        let tree = dijkstra::sssp(&g, 0);
        for (_, u, v, w) in g.edges() {
            let (du, dv) = (tree.dist(u), tree.dist(v));
            if du.is_finite() {
                assert!(dv <= du + w + 1e-9);
            }
            if dv.is_finite() {
                assert!(du <= dv + w + 1e-9);
            }
        }
    }
}

#[test]
fn dijkstra_path_cost_matches_reported_cost() {
    let mut rng = StdRng::seed_from_u64(0x22);
    for _ in 0..CASES {
        let g = random_connected_graph(&mut rng);
        let tree = dijkstra::sssp(&g, 0);
        for t in 0..g.node_count() {
            let path = tree.path_to(t).expect("connected");
            let mut walked = 0.0;
            for w in path.windows(2) {
                let e = g.find_edge(w[0], w[1]).expect("edge on path exists");
                walked += g.edge_weight(e);
            }
            assert!((walked - tree.dist(t)).abs() < 1e-6);
        }
    }
}

#[test]
fn all_pairs_matrix_is_symmetric_and_metric() {
    let mut rng = StdRng::seed_from_u64(0x33);
    for _ in 0..32 {
        let g = random_connected_graph(&mut rng);
        let n = g.node_count();
        let d: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                let tree = dijkstra::sssp(&g, s);
                (0..n).map(|t| tree.dist(t)).collect()
            })
            .collect();
        for s in 0..n {
            assert_eq!(d[s][s], 0.0);
            for t in 0..n {
                assert!((d[s][t] - d[t][s]).abs() < 1e-9);
                for v in 0..n {
                    assert!(d[s][t] <= d[s][v] + d[v][t] + 1e-9);
                }
            }
        }
    }
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

/// Dijkstra, components, MST, and Yen must agree on reachability and never
/// panic — including on disconnected graphs with unreachable targets.
#[test]
fn algorithms_agree_on_reachability_and_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x55);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let n = g.node_count();
        let comps = connected_components(&g);
        let mut comp_of = vec![usize::MAX; n];
        for (ci, c) in comps.iter().enumerate() {
            for &v in c {
                comp_of[v] = ci;
            }
        }
        let tree = dijkstra::sssp(&g, 0);
        let _forest = minimum_spanning_forest(&g);
        for t in 0..n {
            let same_comp = comp_of[t] == comp_of[0];
            assert_eq!(
                tree.dist(t).is_finite(),
                same_comp,
                "dijkstra and components disagree on reachability of {t}"
            );
            assert_eq!(tree.path_to(t).is_some(), same_comp);
            let yen = k_shortest_paths(&g, 0, t, 3);
            if t == 0 {
                continue;
            }
            assert_eq!(
                !yen.is_empty(),
                same_comp,
                "yen and components disagree on reachability of {t}"
            );
            assert_eq!(dijkstra::shortest_path(&g, 0, t).is_some(), same_comp);
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

#[test]
fn yen_first_equals_dijkstra_and_costs_sorted() {
    let mut rng = StdRng::seed_from_u64(0x88);
    for _ in 0..CASES {
        let g = random_connected_graph(&mut rng);
        let t = g.node_count() - 1;
        let paths = k_shortest_paths(&g, 0, t, 4);
        assert!(!paths.is_empty());
        let (best_cost, _) = dijkstra::shortest_path(&g, 0, t).expect("connected");
        assert!((paths[0].cost - best_cost).abs() < 1e-9);
        for w in paths.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-9);
        }
    }
}
