//! Interdomain RiskRoute (§6.2): bit-risk bounds when traffic crosses
//! peering networks.
//!
//! The paper characterizes multi-network bit-risk miles by two bounds:
//! the **upper bound** is shortest-path routing "throughout all peering
//! networks" (no network cooperates on risk), and the **lower bound** is
//! RiskRoute given control of "every routing decision in every network".
//! Both are paths through the same *merged* topology — all PoPs of all
//! networks, intra-network links, plus inter-network hand-off links at
//! co-located PoPs of peering networks.

use crate::intradomain::Planner;
use crate::metric::{NodeRisk, RiskWeights};
use crate::ratios::{PairOutcome, RatioReport};
use riskroute_hazard::HistoricalRisk;
use riskroute_population::{PopShares, PopulationModel};
use riskroute_topology::colocation::{colocations, DEFAULT_COLOCATION_MILES};
use riskroute_topology::{Network, NetworkKind, PeeringGraph, Pop, PopId};
use std::collections::HashMap;
use std::ops::Range;

/// The merged multi-network topology with provenance.
#[derive(Debug, Clone)]
pub struct InterdomainTopology {
    merged: Network,
    /// merged PoP id → (network index, PoP id within that network).
    provenance: Vec<(usize, PopId)>,
    /// network name → index into `ranges`.
    name_index: HashMap<String, usize>,
    /// network index → name (inverse of `name_index`).
    names: Vec<String>,
    /// Per network, the merged-id range of its PoPs.
    ranges: Vec<Range<usize>>,
    /// Number of inter-network hand-off links created.
    handoff_links: usize,
}

impl InterdomainTopology {
    /// Merge `networks` under `peering`. PoPs of peering networks within
    /// `colocation_miles` are joined by hand-off links; a peering pair with
    /// no co-located PoPs falls back to joining its single nearest PoP pair
    /// (a private interconnect), so declared peerings are always usable.
    ///
    /// # Panics
    /// Panics on duplicate network names or an empty network list.
    pub fn merge(networks: &[&Network], peering: &PeeringGraph, colocation_miles: f64) -> Self {
        assert!(!networks.is_empty(), "need at least one network");
        let span = riskroute_obs::span!("interdomain_merge", networks = networks.len());
        let mut name_index = HashMap::new();
        let mut names = Vec::with_capacity(networks.len());
        let mut ranges = Vec::with_capacity(networks.len());
        let mut provenance = Vec::new();
        let mut pops: Vec<Pop> = Vec::new();
        let mut links: Vec<(PopId, PopId)> = Vec::new();

        for (ni, net) in networks.iter().enumerate() {
            let prev = name_index.insert(net.name().to_string(), ni);
            assert!(prev.is_none(), "duplicate network name {}", net.name());
            names.push(net.name().to_string());
            let offset = pops.len();
            ranges.push(offset..offset + net.pop_count());
            for (pi, p) in net.pops().iter().enumerate() {
                pops.push(Pop {
                    name: format!("{}:{}", net.name(), p.name),
                    location: p.location,
                });
                provenance.push((ni, pi));
            }
            for l in net.links() {
                links.push((offset + l.a, offset + l.b));
            }
        }

        // Hand-off links between peering networks. Dedupe against the whole
        // link set as we go: intra-network links are unique by construction,
        // and screening hand-offs here (instead of trusting the co-location
        // sweep) makes the final `Network::new` infallible by construction.
        let mut seen: std::collections::HashSet<(PopId, PopId)> =
            links.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        let mut handoff_links = 0;
        let mut push_handoff = |links: &mut Vec<(PopId, PopId)>, x: PopId, y: PopId| {
            if x != y && seen.insert((x.min(y), x.max(y))) {
                links.push((x, y));
                handoff_links += 1;
            }
        };
        for a in 0..networks.len() {
            for b in (a + 1)..networks.len() {
                if !peering.are_peers(networks[a].name(), networks[b].name()) {
                    continue;
                }
                let colos = colocations(networks[a], networks[b], colocation_miles);
                if colos.is_empty() {
                    // Nearest-pair fallback: peering exists, so some private
                    // interconnect must carry it.
                    if let Some((pa, pb)) = nearest_pair(networks[a], networks[b]) {
                        push_handoff(&mut links, ranges[a].start + pa, ranges[b].start + pb);
                    }
                } else {
                    for c in colos {
                        push_handoff(
                            &mut links,
                            ranges[a].start + c.own_pop,
                            ranges[b].start + c.other_pop,
                        );
                    }
                }
            }
        }

        let merged = match Network::new("interdomain", NetworkKind::Tier1, pops, links) {
            Ok(net) => net,
            // Endpoints are offset into range, self-links and duplicates are
            // screened above — structural validity holds by construction.
            Err(_) => unreachable!("merged topology is structurally valid"),
        };
        let mut span = span;
        if span.is_active() {
            span.field("merged_pops", merged.pop_count());
            span.field("handoff_links", handoff_links);
            riskroute_obs::counter_add("interdomain_merges", 1);
            riskroute_obs::counter_add("interdomain_handoff_links", handoff_links as u64);
        }
        InterdomainTopology {
            merged,
            provenance,
            name_index,
            names,
            ranges,
            handoff_links,
        }
    }

    /// The merged network.
    pub fn merged(&self) -> &Network {
        &self.merged
    }

    /// Number of inter-network hand-off links.
    pub fn handoff_links(&self) -> usize {
        self.handoff_links
    }

    /// Merged id of `pop` in the named network.
    pub fn merged_id(&self, network: &str, pop: PopId) -> Option<usize> {
        let &ni = self.name_index.get(network)?;
        let range = &self.ranges[ni];
        (pop < range.len()).then(|| range.start + pop)
    }

    /// The merged ids of all PoPs of the named network.
    pub fn pops_of(&self, network: &str) -> Option<Vec<usize>> {
        let &ni = self.name_index.get(network)?;
        Some(self.ranges[ni].clone().collect())
    }

    /// Provenance of a merged PoP id: `(network name, PoP id)`.
    pub fn provenance(&self, merged_id: usize) -> (&str, PopId) {
        let (ni, pi) = self.provenance[merged_id];
        (self.names[ni].as_str(), pi)
    }
}

fn nearest_pair(a: &Network, b: &Network) -> Option<(PopId, PopId)> {
    let mut best: Option<(PopId, PopId, f64)> = None;
    for (i, p) in a.pops().iter().enumerate() {
        for (j, q) in b.pops().iter().enumerate() {
            let d = riskroute_geo::distance::great_circle_miles(p.location, q.location);
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((i, j, d));
            }
        }
    }
    best.map(|(i, j, _)| (i, j))
}

/// The interdomain analysis engine: merged topology plus a planner whose
/// shares/risk cover the merged PoP set.
#[derive(Debug, Clone)]
pub struct InterdomainAnalysis {
    topo: InterdomainTopology,
    planner: Planner,
}

impl InterdomainAnalysis {
    /// Build the analysis with the standard instantiation.
    ///
    /// Population shares follow §5.1 *per network*: each provider's PoPs
    /// split the population that provider serves (nearest-neighbour
    /// assignment, state-confined for geographically constrained regional
    /// networks), and the merged share vector is the concatenation — so the
    /// impact β(i,j) of a cross-provider pair reflects each endpoint's
    /// standing within its own network, exactly as in the intradomain case.
    /// Historical hazard risk; default co-location radius.
    pub fn new(
        networks: &[&Network],
        peering: &PeeringGraph,
        population: &PopulationModel,
        hazards: &HistoricalRisk,
        weights: RiskWeights,
    ) -> Self {
        let topo = InterdomainTopology::merge(networks, peering, DEFAULT_COLOCATION_MILES);
        let mut all_shares = Vec::with_capacity(topo.merged().pop_count());
        for net in networks {
            let states = riskroute_topology::regional::spec_for(net.name())
                .filter(|_| net.kind() == NetworkKind::Regional)
                .map(|s| s.states);
            let shares = PopShares::assign(population, net, states);
            all_shares.extend_from_slice(shares.shares());
        }
        let shares = PopShares::from_shares(all_shares);
        let risk = NodeRisk::from_historical(topo.merged(), hazards);
        let planner = Planner::new(topo.merged(), risk, shares, weights);
        InterdomainAnalysis { topo, planner }
    }

    /// Build from pre-assembled parts (tests, custom share models).
    pub fn from_parts(topo: InterdomainTopology, planner: Planner) -> Self {
        assert_eq!(
            planner.pop_count(),
            topo.merged().pop_count(),
            "planner must cover the merged topology"
        );
        InterdomainAnalysis { topo, planner }
    }

    /// The merged topology.
    pub fn topology(&self) -> &InterdomainTopology {
        &self.topo
    }

    /// The underlying planner (for replay and peering search).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// §6.2 bounds for a merged pair: `(upper, lower)` where upper is the
    /// shortest path's bit-risk and lower is the RiskRoute path's. `None`
    /// when unreachable.
    pub fn bounds(
        &self,
        src: usize,
        dst: usize,
    ) -> Option<(crate::routing::RoutedPath, crate::routing::RoutedPath)> {
        let upper = self.planner.shortest_route(src, dst)?;
        let lower = self.planner.risk_route(src, dst)?;
        Some((upper, lower))
    }

    /// Pair outcomes for a source/destination sweep over merged ids.
    pub fn pair_outcomes(&self, sources: &[usize], dests: &[usize]) -> Vec<PairOutcome> {
        self.planner.pair_outcomes(sources, dests)
    }

    /// The §7 interdomain ratio report for one regional network: sources
    /// are its PoPs, destinations are all PoPs of `dest_networks`.
    ///
    /// When a storm (or a chaos plan) partitions the merged topology, the
    /// cross-component pairs are surfaced as
    /// [`RatioReport::stranded_pairs`] and the ratios aggregate the pairs
    /// that still route — the report never aborts on a partition.
    ///
    /// Returns `None` only when a network name is unknown or the sweep has
    /// neither informative nor stranded pairs (e.g. a single-PoP source set
    /// routed to itself).
    pub fn regional_report(&self, regional: &str, dest_networks: &[&str]) -> Option<RatioReport> {
        let sources = self.topo.pops_of(regional)?;
        let mut dests = Vec::new();
        for d in dest_networks {
            dests.extend(self.topo.pops_of(d)?);
        }
        let sweep = self.planner.pair_sweep(&sources, &dests);
        let report =
            RatioReport::aggregate_with_stranded(sweep.outcomes.iter(), sweep.stranded.len());
        (report.is_informative() || report.stranded_pairs > 0).then_some(report)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_geo::GeoPoint;

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.into(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    /// Two small networks sharing the Dallas metro, plus one distant
    /// non-peer.
    fn corpus() -> (Network, Network, Network, PeeringGraph) {
        let a = Network::new(
            "A",
            NetworkKind::Regional,
            vec![pop("Dallas", 32.78, -96.80), pop("Houston", 29.76, -95.37)],
            vec![(0, 1)],
        )
        .unwrap();
        let b = Network::new(
            "B",
            NetworkKind::Regional,
            vec![
                pop("Dallas-B", 32.80, -96.85),
                pop("Memphis", 35.15, -90.05),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let c = Network::new(
            "C",
            NetworkKind::Regional,
            vec![
                pop("Seattle", 47.61, -122.33),
                pop("Portland", 45.52, -122.68),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let mut peering = PeeringGraph::new();
        peering.add_peering("A", "B");
        peering.add_network("C");
        (a, b, c, peering)
    }

    fn analysis() -> InterdomainAnalysis {
        let (a, b, c, peering) = corpus();
        let topo = InterdomainTopology::merge(&[&a, &b, &c], &peering, DEFAULT_COLOCATION_MILES);
        let n = topo.merged().pop_count();
        let planner = Planner::new(
            topo.merged(),
            NodeRisk::new(vec![0.0; n], vec![0.0; n]),
            PopShares::from_shares(vec![1.0 / n as f64; n]),
            RiskWeights::PAPER,
        );
        InterdomainAnalysis::from_parts(topo, planner)
    }

    #[test]
    fn merge_counts_and_provenance() {
        let (a, b, c, peering) = corpus();
        let topo = InterdomainTopology::merge(&[&a, &b, &c], &peering, DEFAULT_COLOCATION_MILES);
        assert_eq!(topo.merged().pop_count(), 6);
        // 3 intra links + 1 Dallas hand-off.
        assert_eq!(topo.merged().link_count(), 4);
        assert_eq!(topo.handoff_links(), 1);
        assert_eq!(topo.provenance(0), ("A", 0));
        assert_eq!(topo.provenance(3), ("B", 1));
        assert_eq!(topo.merged_id("B", 0), Some(2));
        assert_eq!(topo.merged_id("B", 7), None);
        assert_eq!(topo.merged_id("Z", 0), None);
        assert_eq!(topo.pops_of("C"), Some(vec![4, 5]));
    }

    #[test]
    fn peering_enables_cross_network_routes() {
        let an = analysis();
        let houston = an.topology().merged_id("A", 1).unwrap();
        let memphis = an.topology().merged_id("B", 1).unwrap();
        let (upper, lower) = an.bounds(houston, memphis).unwrap();
        // Route must go Houston → Dallas(A) → Dallas(B) → Memphis.
        assert_eq!(upper.nodes.len(), 4);
        assert!(lower.bit_risk_miles <= upper.bit_risk_miles + 1e-9);
    }

    #[test]
    fn non_peers_are_unreachable() {
        let an = analysis();
        let houston = an.topology().merged_id("A", 1).unwrap();
        let seattle = an.topology().merged_id("C", 0).unwrap();
        assert!(an.bounds(houston, seattle).is_none());
    }

    #[test]
    fn lower_bound_never_exceeds_upper() {
        let (a, b, c, peering) = corpus();
        let topo = InterdomainTopology::merge(&[&a, &b, &c], &peering, DEFAULT_COLOCATION_MILES);
        let n = topo.merged().pop_count();
        // Make the B-Dallas hand-off PoP risky so the bounds separate.
        let mut hist = vec![0.0; n];
        hist[2] = 1e-3;
        let planner = Planner::new(
            topo.merged(),
            NodeRisk::new(hist, vec![0.0; n]),
            PopShares::from_shares(vec![1.0 / n as f64; n]),
            RiskWeights::historical_only(1e5),
        );
        let an = InterdomainAnalysis::from_parts(topo, planner);
        for s in 0..4 {
            for d in 0..4 {
                if s == d {
                    continue;
                }
                if let Some((upper, lower)) = an.bounds(s, d) {
                    assert!(lower.bit_risk_miles <= upper.bit_risk_miles + 1e-9);
                }
            }
        }
    }

    #[test]
    fn nearest_pair_fallback_connects_non_colocated_peers() {
        let (a, _, c, _) = corpus();
        let mut peering = PeeringGraph::new();
        peering.add_peering("A", "C"); // Texas ↔ Pacific Northwest: nothing co-located
        let topo = InterdomainTopology::merge(&[&a, &c], &peering, DEFAULT_COLOCATION_MILES);
        assert_eq!(topo.handoff_links(), 1);
        let dallas = topo.merged_id("A", 0).unwrap();
        let seattle = topo.merged_id("C", 0).unwrap();
        let g = topo.merged().distance_graph();
        assert!(riskroute_graph::dijkstra::shortest_path(&g, dallas, seattle).is_some());
    }

    #[test]
    fn regional_report_aggregates_cross_network_pairs() {
        let an = analysis();
        let report = an.regional_report("A", &["A", "B"]).unwrap();
        assert!(report.pairs > 0);
        // Zero risk everywhere ⇒ RiskRoute equals shortest path.
        assert!(report.risk_reduction_ratio.abs() < 1e-12);
        assert!(report.distance_increase_ratio.abs() < 1e-12);
        assert!(an.regional_report("Nope", &["A"]).is_none());
    }

    #[test]
    fn partitioned_merge_surfaces_stranded_pairs() {
        // A and C are merged but do NOT peer: the merged graph has two
        // components. The regional report must still aggregate A's internal
        // pairs while counting every A→C pair as stranded.
        let an = analysis(); // C never peers with A or B
        let report = an.regional_report("A", &["A", "C"]).unwrap();
        assert!(report.is_informative(), "A's internal pairs still route");
        // 2 sources × 2 unreachable C PoPs.
        assert_eq!(report.stranded_pairs, 4);
        assert!(report.risk_reduction_ratio.is_finite());
        assert!(report.distance_increase_ratio.is_finite());
    }

    #[test]
    #[should_panic(expected = "duplicate network name")]
    fn duplicate_names_panic() {
        let (a, _, _, peering) = corpus();
        let _ = InterdomainTopology::merge(&[&a, &a], &peering, DEFAULT_COLOCATION_MILES);
    }

    #[test]
    #[should_panic(expected = "at least one network")]
    fn empty_merge_panics() {
        let peering = PeeringGraph::new();
        let _ = InterdomainTopology::merge(&[], &peering, DEFAULT_COLOCATION_MILES);
    }
}
