//! Failure injection and criticality analysis.
//!
//! The paper motivates RiskRoute with the outages disasters actually cause
//! (§1–2: Katrina, the Japan earthquake, Sandy). This module closes the
//! loop: *impose* a storm's damage on a topology and measure what breaks —
//! and rank each PoP by how much the network depends on it versus how much
//! risk it sits under.

use crate::metric::NodeRisk;
use riskroute_forecast::StormSwath;
use riskroute_graph::centrality::{articulation_points, betweenness};
use riskroute_graph::components::connected_components;
use riskroute_graph::Graph;
use riskroute_population::PopShares;
use riskroute_topology::{Network, PopId};

/// Outcome of failing every PoP a storm's hurricane-force winds touch.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// PoPs destroyed (inside hurricane-force winds at any advisory).
    pub failed_pops: Vec<PopId>,
    /// Links lost with them.
    pub lost_links: usize,
    /// Connected components among the surviving PoPs.
    pub survivor_components: usize,
    /// Ordered survivor pairs that can no longer reach each other.
    pub disconnected_pairs: usize,
    /// Population share served by failed PoPs.
    pub failed_population_share: f64,
    /// Population share served by survivors cut off from the largest
    /// surviving component.
    pub isolated_population_share: f64,
}

impl FailureReport {
    /// Total share of the population losing service or connectivity.
    pub fn total_affected_share(&self) -> f64 {
        self.failed_population_share + self.isolated_population_share
    }
}

/// Fail every PoP of `network` that `swath` ever places under
/// hurricane-force winds, and measure the damage.
///
/// `shares` must cover the network's PoPs (§5.1 population assignment).
///
/// # Panics
/// Panics when `shares` does not match the network size.
pub fn storm_failure(network: &Network, shares: &PopShares, swath: &StormSwath) -> FailureReport {
    assert_eq!(
        shares.shares().len(),
        network.pop_count(),
        "shares must cover every PoP"
    );
    let failed: Vec<PopId> = (0..network.pop_count())
        .filter(|&p| swath.ever_in_hurricane_winds(network.location(p)))
        .collect();
    let is_failed = {
        let mut v = vec![false; network.pop_count()];
        for &p in &failed {
            v[p] = true;
        }
        v
    };

    // Survivor subgraph with original indices compacted.
    let survivors: Vec<PopId> = (0..network.pop_count())
        .filter(|&p| !is_failed[p])
        .collect();
    let index_of: std::collections::HashMap<PopId, usize> =
        survivors.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let mut g = Graph::with_nodes(survivors.len());
    let mut lost_links = 0;
    for l in network.links() {
        match (index_of.get(&l.a), index_of.get(&l.b)) {
            (Some(&a), Some(&b)) => {
                // Compacted survivor indices are in range and links of a
                // valid network carry valid lengths.
                if g.add_edge(a, b, l.miles).is_err() {
                    debug_assert!(false, "surviving link ({a},{b}) rejected");
                    lost_links += 1;
                }
            }
            _ => lost_links += 1,
        }
    }

    let comps = connected_components(&g);
    let survivor_components = comps.len();
    let disconnected_pairs = {
        let total = survivors.len() * survivors.len().saturating_sub(1);
        let connected: usize = comps.iter().map(|c| c.len() * (c.len() - 1)).sum();
        total - connected
    };
    // Both sums start from +0.0: an empty `f64` sum is -0.0, which would
    // print as "-0.0%" when no PoP fails or none is cut off.
    let failed_population_share = failed.iter().fold(0.0, |acc, &p| acc + shares.share(p));
    let isolated_population_share = if let Some(largest) = comps.iter().max_by_key(|c| c.len()) {
        let in_largest: std::collections::HashSet<usize> = largest.iter().copied().collect();
        survivors
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_largest.contains(i))
            .fold(0.0, |acc, (_, &p)| acc + shares.share(p))
    } else {
        0.0
    };

    FailureReport {
        failed_pops: failed,
        lost_links,
        survivor_components,
        disconnected_pairs,
        failed_population_share,
        isolated_population_share,
    }
}

/// One PoP's criticality profile.
#[derive(Debug, Clone, PartialEq)]
pub struct PopCriticality {
    /// The PoP.
    pub pop: PopId,
    /// PoP name.
    pub name: String,
    /// Weighted betweenness over the bit-mile graph (traffic dependence).
    pub betweenness: f64,
    /// Whether removing this PoP disconnects the network.
    pub articulation: bool,
    /// Historical outage risk `o_h` at the PoP.
    pub historical_risk: f64,
    /// `betweenness × o_h` — dependence times exposure; the PoPs to worry
    /// about first.
    pub exposure: f64,
}

/// Rank every PoP by risk-weighted criticality, highest exposure first.
pub fn criticality_ranking(network: &Network, risk: &NodeRisk) -> Vec<PopCriticality> {
    assert_eq!(risk.len(), network.pop_count(), "risk must cover every PoP");
    let g = network.distance_graph();
    let bc = betweenness(&g);
    let aps: std::collections::HashSet<PopId> = articulation_points(&g).into_iter().collect();
    let mut out: Vec<PopCriticality> = (0..network.pop_count())
        .map(|p| PopCriticality {
            pop: p,
            name: network.pops()[p].name.clone(),
            betweenness: bc[p],
            articulation: aps.contains(&p),
            historical_risk: risk.historical(p),
            exposure: bc[p] * risk.historical(p),
        })
        .collect();
    out.sort_by(|a, b| b.exposure.total_cmp(&a.exposure).then(a.pop.cmp(&b.pop)));
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_forecast::{advisories_for, ForecastRisk, Storm};
    use riskroute_geo::GeoPoint;
    use riskroute_topology::{NetworkKind, Pop};

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.into(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    /// Houston – New Orleans – Atlanta chain with a northern bypass.
    fn gulf_network() -> Network {
        Network::new(
            "gulf",
            NetworkKind::Regional,
            vec![
                pop("Houston", 29.76, -95.37),
                pop("New Orleans", 29.95, -90.07),
                pop("Atlanta", 33.75, -84.39),
                pop("Little Rock", 34.75, -92.29),
            ],
            vec![(0, 1), (1, 2), (0, 3), (3, 2)],
        )
        .unwrap()
    }

    fn katrina_swath() -> StormSwath {
        StormSwath::new(
            advisories_for(Storm::Katrina)
                .iter()
                .map(ForecastRisk::from_advisory)
                .collect(),
        )
    }

    #[test]
    fn katrina_fails_new_orleans_but_bypass_survives() {
        let net = gulf_network();
        let shares = PopShares::from_shares(vec![0.25; 4]);
        let report = storm_failure(&net, &shares, &katrina_swath());
        assert!(report.failed_pops.contains(&1), "New Orleans must fail");
        assert!(!report.failed_pops.contains(&3), "Little Rock survives");
        // The northern bypass keeps the survivors connected.
        assert_eq!(report.survivor_components, 1);
        assert_eq!(report.disconnected_pairs, 0);
        assert!(
            (report.failed_population_share - 0.25 * report.failed_pops.len() as f64).abs() < 1e-12
        );
        assert_eq!(report.isolated_population_share, 0.0);
        assert!(report.lost_links >= 2, "NO's two links go down");
    }

    #[test]
    fn chain_without_bypass_partitions() {
        let net = Network::new(
            "chain",
            NetworkKind::Regional,
            vec![
                pop("Houston", 29.76, -95.37),
                pop("New Orleans", 29.95, -90.07),
                pop("Atlanta", 33.75, -84.39),
            ],
            vec![(0, 1), (1, 2)],
        )
        .unwrap();
        let shares = PopShares::from_shares(vec![0.5, 0.2, 0.3]);
        let report = storm_failure(&net, &shares, &katrina_swath());
        assert_eq!(report.failed_pops, vec![1]);
        assert_eq!(report.survivor_components, 2);
        assert_eq!(report.disconnected_pairs, 2, "Houston and Atlanta split");
        assert!((report.failed_population_share - 0.2).abs() < 1e-12);
        // Atlanta (0.3) is cut off from the larger Houston component? Both
        // components have one node; the largest is chosen deterministically —
        // isolated share is the smaller of the two shares' component... both
        // size 1, max_by_key picks the later one; assert the sum instead.
        assert!(
            (report.total_affected_share() - (0.2 + report.isolated_population_share)).abs()
                < 1e-12
        );
        assert!(report.isolated_population_share > 0.0);
    }

    #[test]
    fn storm_missing_the_network_breaks_nothing() {
        let net = Network::new(
            "pnw",
            NetworkKind::Regional,
            vec![
                pop("Seattle", 47.61, -122.33),
                pop("Portland", 45.52, -122.68),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let shares = PopShares::from_shares(vec![0.6, 0.4]);
        let report = storm_failure(&net, &shares, &katrina_swath());
        assert!(report.failed_pops.is_empty());
        assert_eq!(report.lost_links, 0);
        assert_eq!(report.survivor_components, 1);
        assert_eq!(report.total_affected_share(), 0.0);
    }

    #[test]
    fn criticality_ranks_risky_transit_first() {
        let net = gulf_network();
        // New Orleans (PoP 1) risky; Little Rock (PoP 3) safe.
        let risk = NodeRisk::new(vec![0.01, 0.3, 0.02, 0.01], vec![0.0; 4]);
        let ranking = criticality_ranking(&net, &risk);
        assert_eq!(ranking[0].pop, 1, "risky transit PoP tops the ranking");
        assert!(ranking[0].exposure > ranking[1].exposure);
        // The diamond has no articulation points.
        assert!(ranking.iter().all(|c| !c.articulation));
        // Ranking is a permutation of all PoPs.
        let mut pops: Vec<PopId> = ranking.iter().map(|c| c.pop).collect();
        pops.sort_unstable();
        assert_eq!(pops, vec![0, 1, 2, 3]);
    }

    #[test]
    fn articulation_pop_is_flagged() {
        let net = Network::new(
            "chain",
            NetworkKind::Regional,
            vec![
                pop("A", 30.0, -95.0),
                pop("B", 32.0, -92.0),
                pop("C", 34.0, -89.0),
            ],
            vec![(0, 1), (1, 2)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0; 3], vec![0.0; 3]);
        let ranking = criticality_ranking(&net, &risk);
        let b = ranking.iter().find(|c| c.pop == 1).unwrap();
        assert!(b.articulation);
        assert!(b.betweenness > 0.0);
    }

    #[test]
    #[should_panic(expected = "shares must cover")]
    fn mismatched_shares_panic() {
        let net = gulf_network();
        let shares = PopShares::from_shares(vec![1.0]);
        let _ = storm_failure(&net, &shares, &katrina_swath());
    }
}
