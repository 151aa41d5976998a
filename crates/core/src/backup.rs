//! Backup routing support (§3.1 of the paper).
//!
//! "RiskRoute fits very nicely into the IP Fast Reroute framework by
//! offering an algorithm for backup/repair path calculation." This module
//! provides the two deployment shapes §3.1 sketches:
//!
//! - [`backup_paths`] — ranked loopless alternates for a PoP pair (MPLS
//!   failover tunnels, RFC 4090-style), ordered by bit-risk miles.
//! - [`lfa_next_hops`] — per-source loop-free alternate next hops toward a
//!   destination (RFC 5714 IP Fast Reroute), where both the primary and the
//!   alternate are chosen under the bit-risk metric.
//!
//! The bit-risk weighting is directional (risk is charged at the entered
//! PoP), but for a *fixed* source/destination pair every path's cost under
//! the symmetric half-risk weighting `d(u,v) + β·(ρ(u)+ρ(v))/2` differs
//! from its true Eq. 1 cost by the same constant `β·(ρ(src) − ρ(dst))/2` —
//! so ranking paths with Yen's algorithm over the symmetric graph yields
//! exactly the bit-risk ranking, and each returned path is re-evaluated
//! under the exact metric.
//!
//! Yen's searches run on the planner's kernel, [`engine::sssp_to`] at
//! β = 0 over a CSR snapshot of the half-risk weights, and each spur search
//! masks its banned nodes and edges out of that snapshot with the
//! order-preserving scenario-fork mask. At β = 0 the kernel relaxes
//! `g + w + 0.0` in row order (link order), only on a strict `<`, pops in
//! `(cost, node)` order and stops once the target settles, so the ranking
//! is that of a textbook heap Dijkstra over the link lists, tie for tie.

use crate::engine::{self, Bound, CsrGraph, Rho};
use crate::intradomain::Planner;
use crate::routing::{Adjacency, PairAnswer, RoutedPath};
use riskroute_topology::Network;

/// A primary path plus ranked backups for one PoP pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BackupPlan {
    /// Source PoP.
    pub src: usize,
    /// Destination PoP.
    pub dst: usize,
    /// The minimum bit-risk-mile path (Eq. 3).
    pub primary: RoutedPath,
    /// Loopless alternates in non-decreasing bit-risk order (may be empty
    /// when the topology admits only one loopless path).
    pub alternates: Vec<RoutedPath>,
}

/// Compute the primary plus up to `k - 1` ranked backup paths between `i`
/// and `j`. Returns `None` when the pair is unreachable.
///
/// # Panics
/// Panics when `k == 0` or a PoP index is out of range.
pub fn backup_paths(
    planner: &Planner,
    network: &Network,
    i: usize,
    j: usize,
    k: usize,
) -> Option<BackupPlan> {
    assert!(k > 0, "k must be positive");
    let beta = planner.impact(i, j);
    let rho = |v: usize| beta * planner.rho()[v];
    // Symmetric half-risk graph: same path ranking as the exact metric for
    // this fixed pair (see module docs). A non-finite or negative half-risk
    // weight (poisoned risk vector) drops the link from the ranking graph
    // instead of aborting the plan — the same unroutable treatment the
    // kernel gives poisoned nodes.
    let half_risk = Adjacency::from_links(
        network.pop_count(),
        (network.links().iter())
            .map(|l| (l.a, l.b, l.miles + (rho(l.a) + rho(l.b)) / 2.0))
            .filter(|&(_, _, w)| w.is_finite() && w >= 0.0),
    );
    let ranked = k_shortest_paths(&CsrGraph::from_adjacency(&half_risk), i, j, k);
    // Yen-ranked paths traverse real links, so evaluation cannot fail; a
    // hypothetical mismatch drops the path rather than aborting the plan.
    let mut paths: Vec<RoutedPath> = ranked
        .iter()
        .filter_map(|p| planner.evaluate(i, j, &p.path).ok())
        .collect();
    if paths.is_empty() {
        return None;
    }
    let primary = paths.remove(0);
    Some(BackupPlan {
        src: i,
        dst: j,
        primary,
        alternates: paths,
    })
}

/// Yen's algorithm: up to `k` loopless shortest paths from `s` to `t` over
/// `csr`'s weights, in non-decreasing cost order (`dist` is each path's
/// cost). Returns fewer than `k` when the graph holds fewer loopless paths,
/// and none when `t` is unreachable.
///
/// # Panics
/// Panics when `s` or `t` is out of range, or `k == 0`.
fn k_shortest_paths(csr: &CsrGraph, s: usize, t: usize, k: usize) -> Vec<PairAnswer> {
    assert!(k > 0, "k must be positive");
    // β = 0 never reads ρ.
    let no_rho = Rho::new(Vec::new());
    let Some(first) = engine::sssp_to(csr, s, 0.0, &no_rho, t, Bound::Zero) else {
        return Vec::new();
    };
    let mut found = vec![first];
    let mut candidates: Vec<PairAnswer> = Vec::new();
    let mut spur_searches: u64 = 0;

    while found.len() < k {
        let last = found[found.len() - 1].clone();
        // Each prefix of the last found path spawns a spur search.
        for spur_idx in 0..last.path.len() - 1 {
            let spur_node = last.path[spur_idx];
            let root = &last.path[..=spur_idx];

            // Ban edges that would recreate an already-found path with this
            // root, and ban root nodes (except the spur) to keep paths
            // loopless: both are masked out of the snapshot.
            let banned_edges: Vec<(usize, usize)> = found
                .iter()
                .chain(&candidates)
                .filter(|p| p.path.len() > spur_idx + 1 && p.path[..=spur_idx] == *root)
                .map(|p| (p.path[spur_idx], p.path[spur_idx + 1]))
                .collect();
            let mut banned = vec![false; csr.node_count()];
            for &v in &root[..spur_idx] {
                banned[v] = true;
            }

            spur_searches += 1;
            let masked = csr.masked(|u, v| {
                !banned[u]
                    && !banned[v]
                    && !banned_edges.contains(&(u, v))
                    && !banned_edges.contains(&(v, u))
            });
            if let Some(spur) = engine::sssp_to(&masked, spur_node, 0.0, &no_rho, t, Bound::Zero) {
                let mut path = root[..spur_idx].to_vec();
                path.extend_from_slice(&spur.path);
                let candidate = PairAnswer {
                    path,
                    dist: path_cost(csr, root) + spur.dist,
                };
                if !found
                    .iter()
                    .chain(&candidates)
                    .any(|p| p.path == candidate.path)
                {
                    candidates.push(candidate);
                }
            }
        }
        // Promote the cheapest candidate (stable tie-break on node sequence).
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.dist.total_cmp(&y.dist).then_with(|| x.path.cmp(&y.path)))
            .map(|(i, _)| i);
        let Some(best) = best else {
            break;
        };
        found.push(candidates.swap_remove(best));
    }
    if riskroute_obs::is_enabled() {
        riskroute_obs::counter_add("yen_runs", 1);
        riskroute_obs::counter_add("yen_spur_searches", spur_searches);
        riskroute_obs::counter_add("yen_paths_found", found.len() as u64);
    }
    found
}

/// Sum of the lightest edge weights along consecutive node pairs of `path`.
fn path_cost(csr: &CsrGraph, path: &[usize]) -> f64 {
    path.windows(2)
        .map(|w| {
            // Roots come from previously found paths, so every consecutive
            // pair is adjacent; a phantom hop prices as unroutable.
            (csr.neighbors(w[0]))
                .filter(|&(v, _)| v == w[1])
                .map(|(_, weight)| weight)
                .min_by(f64::total_cmp)
                .unwrap_or(f64::INFINITY)
        })
        .sum()
}

/// One source's forwarding entry toward a destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NextHops {
    /// The source PoP.
    pub src: usize,
    /// Primary next hop (first hop of the RiskRoute path). `None` when the
    /// destination is unreachable.
    pub primary: Option<usize>,
    /// A loop-free alternate: a neighbor `n ≠ primary` whose own bit-risk
    /// distance to the destination is strictly below the source's (so
    /// forwarding through it can never loop back). `None` when no such
    /// neighbor exists — the PoP has no local protection against a primary
    /// failure.
    pub alternate: Option<usize>,
}

/// RFC 5714-style loop-free alternates toward `dst` for every source PoP,
/// under the bit-risk metric.
///
/// The LFA condition uses each pair's own impact factor β(src, dst), so the
/// protection decisions match what RiskRoute would actually route.
/// Candidates are `src`'s links in link-list order (its row of the
/// planner's graph; `network` must be the planner's), first wins a tie.
pub fn lfa_next_hops(planner: &Planner, network: &Network, dst: usize) -> Vec<NextHops> {
    let n = network.pop_count();
    (0..n)
        .map(|src| {
            if src == dst {
                return NextHops {
                    src,
                    primary: None,
                    alternate: None,
                };
            }
            let beta = planner.impact(src, dst);
            let rho = |v: usize| beta * planner.rho()[v];
            // Tree from dst under this pair's weighting; dist(x→dst) =
            // dist(dst→x) + β(ρ(dst) − ρ(x)) by the reversal identity.
            let tree = planner.risk_tree(dst, beta);
            let to_dst = |x: usize| {
                let d = tree.dist(x);
                if d.is_finite() {
                    d + rho(dst) - rho(x)
                } else {
                    f64::INFINITY
                }
            };
            let d_src = to_dst(src);
            if !d_src.is_finite() {
                return NextHops {
                    src,
                    primary: None,
                    alternate: None,
                };
            }
            // Primary = neighbor minimizing hop + remaining cost.
            let mut best: Option<(usize, f64)> = None;
            let mut alt: Option<(usize, f64)> = None;
            for (v, miles) in planner.csr().neighbors(src) {
                let via = miles + rho(v) + to_dst(v);
                if best.is_none_or(|(_, c)| via < c) {
                    best = Some((v, via));
                }
            }
            let primary = best.map(|(v, _)| v);
            for (v, miles) in planner.csr().neighbors(src) {
                // Loop-free condition: the alternate is strictly closer to
                // the destination than we are.
                if Some(v) != primary && to_dst(v) < d_src - 1e-12 {
                    let via = miles + rho(v) + to_dst(v);
                    if alt.is_none_or(|(_, c)| via < c) {
                        alt = Some((v, via));
                    }
                }
            }
            NextHops {
                src,
                primary,
                alternate: alt.map(|(v, _)| v),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::metric::{NodeRisk, RiskWeights};
    use crate::routing::risk_sssp;
    use riskroute_geo::GeoPoint;
    use riskroute_population::PopShares;
    use riskroute_rng::StdRng;
    use riskroute_topology::{NetworkKind, Pop};

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.into(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    /// Diamond with a risky southern waypoint.
    fn diamond() -> (Network, Planner) {
        let net = Network::new(
            "diamond",
            NetworkKind::Regional,
            vec![
                pop("W", 35.0, -100.0),
                pop("N", 37.5, -97.0),
                pop("S", 35.0, -97.0),
                pop("E", 35.0, -94.0),
            ],
            vec![(0, 1), (1, 3), (0, 2), (2, 3)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0, 0.0, 5e-3, 0.0], vec![0.0; 4]);
        let planner = Planner::new(
            &net,
            risk,
            PopShares::from_shares(vec![0.25; 4]),
            RiskWeights::historical_only(1e5),
        );
        (net, planner)
    }

    #[test]
    fn primary_is_the_risk_route_and_alternates_are_ranked() {
        let (net, planner) = diamond();
        let plan = backup_paths(&planner, &net, 0, 3, 3).unwrap();
        let rr = planner.risk_route(0, 3).unwrap();
        assert_eq!(plan.primary.nodes, rr.nodes);
        assert!((plan.primary.bit_risk_miles - rr.bit_risk_miles).abs() < 1e-9);
        assert!(!plan.alternates.is_empty());
        let mut prev = plan.primary.bit_risk_miles;
        for alt in &plan.alternates {
            assert!(alt.bit_risk_miles >= prev - 1e-9, "alternates are ranked");
            prev = alt.bit_risk_miles;
        }
        // The diamond's backup for the safe northern route is the risky
        // southern one.
        assert_eq!(plan.alternates[0].nodes, vec![0, 2, 3]);
    }

    #[test]
    fn alternates_are_node_disjoint_from_nothing_but_loopless() {
        let (net, planner) = diamond();
        let plan = backup_paths(&planner, &net, 0, 3, 4).unwrap();
        for alt in &plan.alternates {
            let mut seen = std::collections::HashSet::new();
            assert!(alt.nodes.iter().all(|n| seen.insert(*n)));
            assert_ne!(alt.nodes, plan.primary.nodes);
        }
    }

    #[test]
    fn unreachable_pair_gives_none() {
        let net = Network::new(
            "split",
            NetworkKind::Regional,
            vec![
                pop("A", 30.0, -95.0),
                pop("B", 31.0, -95.0),
                pop("C", 40.0, -80.0),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let planner = Planner::new(
            &net,
            NodeRisk::new(vec![0.0; 3], vec![0.0; 3]),
            PopShares::from_shares(vec![1.0 / 3.0; 3]),
            RiskWeights::PAPER,
        );
        assert!(backup_paths(&planner, &net, 0, 2, 3).is_none());
    }

    #[test]
    fn lfa_protects_the_diamond() {
        let (net, planner) = diamond();
        let hops = lfa_next_hops(&planner, &net, 3);
        // Source 0: primary north (1), alternate south (2) — both neighbors
        // are strictly closer to E than W is.
        let w = &hops[0];
        assert_eq!(w.primary, Some(1));
        assert_eq!(w.alternate, Some(2));
        // Destination row is empty.
        assert_eq!(hops[3].primary, None);
        // N and S forward straight to E and have no loop-free alternate
        // (their only other neighbor, W, is farther from E).
        assert_eq!(hops[1].primary, Some(3));
        assert_eq!(hops[1].alternate, None);
        assert_eq!(hops[2].primary, Some(3));
        assert_eq!(hops[2].alternate, None);
    }

    #[test]
    fn lfa_handles_unreachable_sources() {
        let net = Network::new(
            "split",
            NetworkKind::Regional,
            vec![
                pop("A", 30.0, -95.0),
                pop("B", 31.0, -95.0),
                pop("C", 40.0, -80.0),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let planner = Planner::new(
            &net,
            NodeRisk::new(vec![0.0; 3], vec![0.0; 3]),
            PopShares::from_shares(vec![1.0 / 3.0; 3]),
            RiskWeights::PAPER,
        );
        let hops = lfa_next_hops(&planner, &net, 0);
        assert_eq!(hops[1].primary, Some(0));
        assert_eq!(hops[2].primary, None, "island has no route");
        assert_eq!(hops[2].alternate, None);
    }

    #[test]
    fn symmetric_ranking_matches_exact_costs() {
        // Every Yen-ranked alternate, re-evaluated exactly, must still be in
        // non-decreasing order — the constant-shift argument in practice.
        let (net, planner) = diamond();
        for (i, j) in [(0, 3), (3, 0), (1, 2)] {
            let plan = backup_paths(&planner, &net, i, j, 5).unwrap();
            let mut prev = plan.primary.bit_risk_miles;
            for alt in &plan.alternates {
                assert!(alt.bit_risk_miles >= prev - 1e-9);
                prev = alt.bit_risk_miles;
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (net, planner) = diamond();
        let _ = backup_paths(&planner, &net, 0, 3, 0);
    }

    fn csr(n: usize, links: &[(usize, usize, f64)]) -> CsrGraph {
        CsrGraph::from_adjacency(&Adjacency::from_links(n, links.iter().copied()))
    }

    /// The classic 6-node Yen example (C=0, D=1, E=2, F=3, G=4, H=5):
    /// C-D 3, C-E 2, D-F 4, E-D 1, E-F 2, E-G 3, F-H 1, G-H 2.
    fn yen_graph() -> CsrGraph {
        csr(
            6,
            &[
                (0, 1, 3.0),
                (0, 2, 2.0),
                (1, 3, 4.0),
                (2, 1, 1.0),
                (2, 3, 2.0),
                (2, 4, 3.0),
                (3, 5, 1.0),
                (4, 5, 2.0),
            ],
        )
    }

    #[test]
    fn classic_yen_top3() {
        // The classic directed example yields costs 5, 7, 8; in this
        // *undirected* rendering a second 7-cost path (C-D-E-F-H) appears,
        // so the top three costs are 5, 7, 7 and both 7-cost routes must be
        // among the top paths.
        let paths = k_shortest_paths(&yen_graph(), 0, 5, 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].dist, 5.0);
        assert_eq!(paths[0].path, vec![0, 2, 3, 5]);
        assert_eq!(paths[1].dist, 7.0);
        assert_eq!(paths[2].dist, 7.0);
        let second_third = [&paths[1].path, &paths[2].path];
        assert!(second_third.contains(&&vec![0, 2, 4, 5]));
        assert!(second_third.contains(&&vec![0, 1, 2, 3, 5]));
    }

    #[test]
    fn yen_paths_are_ranked_loopless_and_distinct() {
        let paths = k_shortest_paths(&yen_graph(), 0, 5, 10);
        for w in paths.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        for (i, p) in paths.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            assert!(
                p.path.iter().all(|&v| seen.insert(v)),
                "loop in {:?}",
                p.path
            );
            assert!(paths[i + 1..].iter().all(|q| q.path != p.path));
        }
    }

    #[test]
    fn yen_exhausts_available_paths_and_misses_unreachable_targets() {
        // A path graph has exactly one loopless route.
        let line = csr(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(k_shortest_paths(&line, 0, 2, 5).len(), 1);
        let split = csr(3, &[(0, 1, 1.0)]);
        assert!(k_shortest_paths(&split, 0, 2, 3).is_empty());
        let self_pair = k_shortest_paths(&split, 1, 1, 3);
        assert_eq!(self_pair.len(), 1);
        assert_eq!(
            (self_pair[0].path.clone(), self_pair[0].dist),
            (vec![1], 0.0)
        );
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn yen_zero_k_panics() {
        let _ = k_shortest_paths(&yen_graph(), 0, 5, 0);
    }

    /// A random graph with `2..24` nodes — a random spanning tree when
    /// `connected`, plus random extra links, parallel links and zero
    /// weights included.
    fn random_links(rng: &mut StdRng, connected: bool) -> (usize, Vec<(usize, usize, f64)>) {
        let n = rng.gen_range(2..24usize);
        let weight = |rng: &mut StdRng| {
            if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(0.0..1000.0)
            }
        };
        let mut links = Vec::new();
        if connected {
            for i in 1..n {
                let w = weight(rng);
                links.push((rng.gen_range(0..i), i, w));
            }
        }
        for _ in 0..rng.gen_range(0..n * 2) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                let w = weight(rng);
                links.push((a, b, w));
            }
        }
        (n, links)
    }

    /// Yen's first path is the oracle's shortest path, bit for bit, its
    /// costs never decrease, and it finds a path exactly when the oracle
    /// reaches the target.
    #[test]
    fn yen_first_path_is_the_oracle_path() {
        let mut rng = StdRng::seed_from_u64(0x88);
        for case in 0..96 {
            let (n, links) = random_links(&mut rng, case % 2 == 0);
            let adj = Adjacency::from_links(n, links.iter().copied());
            let graph = CsrGraph::from_adjacency(&adj);
            let oracle = risk_sssp(&adj, 0, |_| 0.0);
            for t in 0..n {
                let paths = k_shortest_paths(&graph, 0, t, 4);
                let Some(first) = paths.first() else {
                    assert!(!oracle.reachable(t), "case {case}: lost 0→{t}");
                    continue;
                };
                assert_eq!(Some(&first.path), oracle.path_to(t).as_ref(), "case {case}");
                assert_eq!(
                    first.dist.to_bits(),
                    oracle.dist(t).to_bits(),
                    "case {case}"
                );
                for w in paths.windows(2) {
                    assert!(w[0].dist <= w[1].dist + 1e-9, "case {case}: unsorted");
                }
            }
        }
    }
}
