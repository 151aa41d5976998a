//! End-to-end interdomain pipeline over the full 23-network corpus.

use riskroute::interdomain::{InterdomainAnalysis, InterdomainTopology};
use riskroute::prelude::*;
use riskroute_topology::colocation::DEFAULT_COLOCATION_MILES;
use riskroute_topology::Network;

fn analysis() -> (Corpus, InterdomainAnalysis) {
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 4_000);
    let hazards = riskroute_hazard::HistoricalRisk::standard(42, Some(800));
    let networks: Vec<&Network> = corpus.all_networks().collect();
    let an = InterdomainAnalysis::new(
        &networks,
        &corpus.peering,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    );
    (corpus.clone(), an)
}

#[test]
fn merged_topology_covers_all_809_pops() {
    let (corpus, an) = analysis();
    let topo = an.topology();
    assert_eq!(topo.merged().pop_count(), 354 + 455);
    // Every network's PoPs are addressable and provenance round-trips.
    for net in corpus.all_networks() {
        let ids = topo.pops_of(net.name()).expect("network is merged");
        assert_eq!(ids.len(), net.pop_count());
        let (name, pop) = topo.provenance(ids[0]);
        assert_eq!(name, net.name());
        assert_eq!(pop, 0);
    }
}

#[test]
fn merged_topology_is_connected_through_peering() {
    let (_, an) = analysis();
    let g = an.topology().merged().distance_graph();
    assert!(
        riskroute_graph::components::is_connected(&g),
        "figure-2 peering must join all 23 networks into one routable fabric"
    );
}

#[test]
fn bounds_order_holds_across_networks() {
    let (corpus, an) = analysis();
    let topo = an.topology();
    let telepak = topo.pops_of("Telepak").unwrap();
    let mut dests = Vec::new();
    for name in ["CoStreet", "Goodnet", "Iris"] {
        dests.extend(topo.pops_of(name).unwrap());
    }
    let mut checked = 0;
    for &s in telepak.iter().take(5) {
        for &d in dests.iter().take(12) {
            if let Some((upper, lower)) = an.bounds(s, d) {
                assert!(
                    lower.bit_risk_miles <= upper.bit_risk_miles + 1e-6,
                    "lower bound must not exceed upper bound"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "peering fabric must route cross-country pairs");
    let _ = corpus;
}

#[test]
fn regional_reports_exist_for_all_sixteen() {
    let (corpus, an) = analysis();
    let names: Vec<&str> = corpus.regional.iter().map(|n| n.name()).collect();
    for name in &names {
        let r = an
            .regional_report(name, &names)
            .unwrap_or_else(|| panic!("{name} must have informative pairs"));
        assert!(r.pairs > 0);
        assert!(r.risk_reduction_ratio >= 0.0 && r.risk_reduction_ratio < 1.0);
        assert!(r.distance_increase_ratio >= -1e-12);
    }
}

#[test]
fn handoffs_only_between_peers() {
    let corpus = Corpus::standard(42);
    // Merge just three networks with one declared peering and verify no
    // shortcut appears between non-peers.
    let a = corpus.network("Epoch").unwrap();
    let b = corpus.network("Goodnet").unwrap();
    let c = corpus.network("CoStreet").unwrap();
    let mut peering = riskroute_topology::PeeringGraph::new();
    peering.add_peering("Epoch", "Goodnet");
    peering.add_network("CoStreet");
    let topo = InterdomainTopology::merge(&[a, b, c], &peering, DEFAULT_COLOCATION_MILES);
    let g = topo.merged().distance_graph();
    let epoch0 = topo.merged_id("Epoch", 0).unwrap();
    let reached = riskroute_graph::components::reachable_from(&g, epoch0);
    let costreet0 = topo.merged_id("CoStreet", 0).unwrap();
    assert!(
        !reached.contains(&costreet0),
        "no path may exist to a non-peer island"
    );
    let goodnet0 = topo.merged_id("Goodnet", 0).unwrap();
    assert!(
        reached.contains(&goodnet0),
        "declared peering must be routable"
    );
}
