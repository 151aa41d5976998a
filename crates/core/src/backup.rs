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

use crate::intradomain::Planner;
use crate::routing::RoutedPath;
use riskroute_graph::yen::k_shortest_paths;
use riskroute_graph::Graph;
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
    // this fixed pair (see module docs).
    let mut g = Graph::with_nodes(network.pop_count());
    for l in network.links() {
        // A non-finite half-risk weight (poisoned risk vector) drops the
        // link from the ranking graph instead of aborting the plan — the
        // same unroutable treatment `risk_sssp` gives poisoned nodes.
        let _ = g.add_edge(l.a, l.b, l.miles + (rho(l.a) + rho(l.b)) / 2.0);
    }
    let ranked = k_shortest_paths(&g, i, j, k);
    if ranked.is_empty() {
        return None;
    }
    // Yen-ranked paths traverse real links, so evaluation cannot fail; a
    // hypothetical mismatch drops the path rather than aborting the plan.
    let mut paths: Vec<RoutedPath> = ranked
        .iter()
        .filter_map(|p| planner.evaluate(i, j, &p.nodes).ok())
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
    use riskroute_geo::GeoPoint;
    use riskroute_population::PopShares;
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
}
