//! Best new peering / multihoming egress selection (§6.3, Figure 11).
//!
//! "For each specified network, we define 'candidate peers' as the
//! collection of PoPs in other networks which are co-located with
//! infrastructure from the specified network, but for which there is no
//! previously known peering relationship. Then, the best candidate peer is
//! found such that the RiskRoute paths have the smallest lower-bound
//! bit-risk miles."
//!
//! Candidates are priced by link provisioning's candidate pricer: a
//! peering is the set of its hand-off edges, and two SSSP trees per
//! (source, destination) pair evaluate every candidate in O(edges) each.

use crate::interdomain::InterdomainAnalysis;
use crate::provisioning::{price_edge_sets, Edge};
use riskroute_topology::colocation::{candidate_peers, CandidatePeer};
use riskroute_topology::{Network, PeeringGraph};

/// A scored candidate peering.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPeering {
    /// The would-be peer network.
    pub peer: String,
    /// Number of co-located PoP pairs the peering could be lit up at.
    pub handoff_count: usize,
    /// Total lower-bound bit-risk miles over the evaluation pairs with this
    /// peering added.
    pub total_bit_risk: f64,
}

/// Score every candidate peering of `own` and return them sorted best
/// (lowest total lower-bound bit-risk) first.
///
/// `sources`/`dests` are merged ids in `analysis` (§7 uses the regional
/// network's PoPs as sources and all regional PoPs as destinations).
/// Every `(source, dest)` pair with distinct ends is priced, sources-major,
/// by the same pricer as [`crate::provisioning::score_candidates`], under
/// the analysis planner's parallelism (bit-identical at any worker count).
/// Unreachable pairs contribute only when a candidate bridges them; pairs
/// no candidate reaches are skipped uniformly.
pub fn score_peerings(
    analysis: &InterdomainAnalysis,
    own: &Network,
    others: &[&Network],
    peering: &PeeringGraph,
    colocation_miles: f64,
    sources: &[usize],
    dests: &[usize],
) -> Vec<ScoredPeering> {
    let candidates: Vec<CandidatePeer> =
        candidate_peers(own, others.iter().copied(), peering, colocation_miles);
    if candidates.is_empty() {
        return Vec::new();
    }
    // Map every candidate's colocations to merged-id edges.
    let topo = analysis.topology();
    let edges_per_candidate: Vec<Vec<Edge>> = candidates
        .iter()
        .map(|c| {
            c.colocations
                .iter()
                .filter_map(|colo| {
                    let a = topo.merged_id(own.name(), colo.own_pop)?;
                    let b = topo.merged_id(&c.network, colo.other_pop)?;
                    Some((a, b, colo.miles))
                })
                .collect()
        })
        .collect();
    let edge_sets: Vec<&[Edge]> = edges_per_candidate.iter().map(Vec::as_slice).collect();
    let pairs: Vec<(usize, usize)> = sources
        .iter()
        .flat_map(|&i| dests.iter().filter(move |&&j| j != i).map(move |&j| (i, j)))
        .collect();
    let totals = price_edge_sets(analysis.planner(), &pairs, &edge_sets);

    let mut scored: Vec<ScoredPeering> = candidates
        .iter()
        .zip(&totals)
        .map(|(c, &total_bit_risk)| ScoredPeering {
            peer: c.network.clone(),
            handoff_count: c.colocations.len(),
            total_bit_risk,
        })
        .collect();
    scored.sort_by(|x, y| {
        x.total_bit_risk
            .total_cmp(&y.total_bit_risk)
            .then_with(|| x.peer.cmp(&y.peer))
    });
    scored
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::interdomain::InterdomainTopology;
    use crate::intradomain::Planner;
    use crate::metric::{NodeRisk, RiskWeights};
    use riskroute_geo::GeoPoint;
    use riskroute_population::PopShares;
    use riskroute_topology::colocation::DEFAULT_COLOCATION_MILES;
    use riskroute_topology::{NetworkKind, Pop};

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.into(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    /// Regional R (Dallas + Austin), Tier-1 T1 (Dallas + Memphis, risky
    /// Dallas hand-off), Tier-1 T2 (Dallas + Memphis, safe). R peers with
    /// nobody yet; both tier-1s are candidates; T2 should win because its
    /// Dallas PoP carries no risk.
    fn setup() -> (Network, Network, Network, PeeringGraph) {
        let r = Network::new(
            "R",
            NetworkKind::Regional,
            vec![pop("Dallas", 32.78, -96.80), pop("Austin", 30.27, -97.74)],
            vec![(0, 1)],
        )
        .unwrap();
        let t1 = Network::new(
            "T1",
            NetworkKind::Tier1,
            vec![
                pop("Dallas-1", 32.80, -96.82),
                pop("Memphis-1", 35.15, -90.05),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let t2 = Network::new(
            "T2",
            NetworkKind::Tier1,
            vec![
                pop("Dallas-2", 32.76, -96.78),
                pop("Memphis-2", 35.16, -90.06),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let mut peering = PeeringGraph::new();
        peering.add_network("R");
        peering.add_peering("T1", "T2");
        (r, t1, t2, peering)
    }

    fn analysis_with_risky_t1(
        r: &Network,
        t1: &Network,
        t2: &Network,
        peering: &PeeringGraph,
    ) -> InterdomainAnalysis {
        let topo = InterdomainTopology::merge(&[r, t1, t2], peering, DEFAULT_COLOCATION_MILES);
        let n = topo.merged().pop_count();
        let mut hist = vec![0.0; n];
        // T1's PoPs are risky.
        for p in topo.pops_of("T1").unwrap() {
            hist[p] = 2e-3;
        }
        let planner = Planner::new(
            topo.merged(),
            NodeRisk::new(hist, vec![0.0; n]),
            PopShares::from_shares(vec![1.0 / n as f64; n]),
            RiskWeights::historical_only(1e5),
        );
        InterdomainAnalysis::from_parts(topo, planner)
    }

    #[test]
    fn prefers_the_safe_candidate() {
        let (r, t1, t2, peering) = setup();
        let analysis = analysis_with_risky_t1(&r, &t1, &t2, &peering);
        let sources = analysis.topology().pops_of("R").unwrap();
        // Destinations: the tier-1 Memphis PoPs (reachable only via a new
        // peering).
        let dests = vec![
            analysis.topology().merged_id("T1", 1).unwrap(),
            analysis.topology().merged_id("T2", 1).unwrap(),
        ];
        let scored = score_peerings(
            &analysis,
            &r,
            &[&t1, &t2],
            &peering,
            DEFAULT_COLOCATION_MILES,
            &sources,
            &dests,
        );
        assert_eq!(scored.len(), 2, "both tier-1s are candidates");
        assert_eq!(scored[0].peer, "T2", "the risk-free peer must win");
        assert!(scored[0].total_bit_risk < scored[1].total_bit_risk);
    }

    #[test]
    fn existing_peers_are_not_candidates() {
        let (r, t1, t2, mut peering) = setup();
        peering.add_peering("R", "T2");
        let analysis = analysis_with_risky_t1(&r, &t1, &t2, &peering);
        let sources = analysis.topology().pops_of("R").unwrap();
        let dests = vec![analysis.topology().merged_id("T1", 1).unwrap()];
        let scored = score_peerings(
            &analysis,
            &r,
            &[&t1, &t2],
            &peering,
            DEFAULT_COLOCATION_MILES,
            &sources,
            &dests,
        );
        assert_eq!(scored.len(), 1);
        assert_eq!(scored[0].peer, "T1");
    }

    #[test]
    fn no_colocated_networks_no_candidates() {
        let (r, _, _, peering) = setup();
        let faraway = Network::new(
            "Far",
            NetworkKind::Tier1,
            vec![pop("Seattle", 47.61, -122.33)],
            vec![],
        )
        .unwrap();
        let topo = InterdomainTopology::merge(&[&r, &faraway], &peering, DEFAULT_COLOCATION_MILES);
        let n = topo.merged().pop_count();
        let planner = Planner::new(
            topo.merged(),
            NodeRisk::new(vec![0.0; n], vec![0.0; n]),
            PopShares::from_shares(vec![1.0 / n as f64; n]),
            RiskWeights::PAPER,
        );
        let analysis = InterdomainAnalysis::from_parts(topo, planner);
        let sources = analysis.topology().pops_of("R").unwrap();
        let scored = score_peerings(
            &analysis,
            &r,
            &[&faraway],
            &peering,
            DEFAULT_COLOCATION_MILES,
            &sources,
            &[0],
        );
        assert!(scored.is_empty());
    }
}
