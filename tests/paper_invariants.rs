//! Paper-level invariants: the structural facts §4 and §7 state about the
//! data sets and framework, checked against this reproduction's substitutes.

use riskroute::prelude::*;
use riskroute_forecast::storms::ALL_STORMS;
use riskroute_hazard::events::sample_events;
use riskroute_hazard::ALL_EVENT_KINDS;
use riskroute_topology::peering::{PeeringGraph, TIER1_NAMES};

#[test]
fn section_4_1_network_counts() {
    let corpus = Corpus::standard(42);
    assert_eq!(corpus.tier1.len(), 7, "7 Tier-1 networks");
    assert_eq!(corpus.regional.len(), 16, "16 regional networks");
    let tier1_pops: usize = corpus.tier1.iter().map(|n| n.pop_count()).sum();
    let regional_pops: usize = corpus.regional.iter().map(|n| n.pop_count()).sum();
    assert_eq!(tier1_pops, 354, "354 total Tier-1 PoPs");
    assert_eq!(regional_pops, 455, "455 total regional PoPs");
    // Table 2's per-network PoP counts.
    for (name, pops) in [
        ("Level3", 233),
        ("AT&T", 25),
        ("Deutsche Telekom", 10),
        ("NTT", 12),
        ("Sprint", 24),
        ("Tinet", 35),
        ("Teliasonera", 15),
    ] {
        assert_eq!(corpus.network(name).unwrap().pop_count(), pops, "{name}");
    }
}

#[test]
fn section_4_3_event_counts() {
    let total_fema: usize = ALL_EVENT_KINDS
        .iter()
        .filter(|k| k.label().starts_with("FEMA"))
        .map(|k| k.paper_count())
        .sum();
    assert_eq!(total_fema, 29_865, "29,865 FEMA declarations 1970-2010");
    // Samplers honour the exact counts.
    for &kind in ALL_EVENT_KINDS {
        let n = kind.paper_count().min(1_000);
        assert_eq!(sample_events(kind, n, 1).len(), n);
    }
}

#[test]
fn section_4_4_advisory_counts() {
    let counts: Vec<usize> = ALL_STORMS.iter().map(|s| s.advisory_count()).collect();
    // Paper order: Katrina 61, Irene 70, Sandy 60.
    assert!(counts.contains(&61) && counts.contains(&70) && counts.contains(&60));
    for &storm in ALL_STORMS {
        assert_eq!(advisories_for(storm).len(), storm.advisory_count());
    }
}

#[test]
fn figure_2_peering_structure() {
    let g = PeeringGraph::figure2();
    assert_eq!(g.networks().len(), 23);
    // Full Tier-1 mesh.
    for a in TIER1_NAMES {
        for b in TIER1_NAMES {
            if a != b {
                assert!(g.are_peers(a, b));
            }
        }
    }
    // No regional-regional peerings in Figure 2.
    let corpus = Corpus::standard(42);
    for x in &corpus.regional {
        for y in &corpus.regional {
            if x.name() != y.name() {
                assert!(
                    !g.are_peers(x.name(), y.name()),
                    "{} / {} must not peer directly",
                    x.name(),
                    y.name()
                );
            }
        }
    }
}

#[test]
fn every_corpus_network_is_internally_connected() {
    let corpus = Corpus::standard(42);
    for net in corpus.all_networks() {
        assert!(
            riskroute_graph::components::is_connected(&net.distance_graph()),
            "{} must be connected",
            net.name()
        );
    }
}

#[test]
fn definition_1_bit_risk_decomposition() {
    // bit-risk miles = bit-miles + impact-scaled risk, exactly (Definition 1).
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 3_000);
    let hazards = riskroute_hazard::HistoricalRisk::standard(42, Some(500));
    let net = corpus.network("NTT").unwrap();
    let planner = Planner::for_network(net, &population, &hazards, RiskWeights::PAPER);
    let route = planner.risk_route(0, net.pop_count() - 1).unwrap();
    let beta = planner.impact(0, net.pop_count() - 1);
    let recomputed: f64 = route.nodes[1..]
        .iter()
        .map(|&v| beta * planner.risk().scaled(v, planner.weights()))
        .sum();
    assert!((route.risk_miles - recomputed).abs() < 1e-9);
    assert!((route.bit_risk_miles - route.bit_miles - route.risk_miles).abs() < 1e-9);
}

#[test]
fn figure_10_added_links_never_raise_bit_risk() {
    // Figure 10's shape: each greedily added link (Eq. 4) leaves at most
    // the bit-risk miles there were before it.
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 3_000);
    let hazards = riskroute_hazard::HistoricalRisk::standard(42, Some(500));
    let net = corpus.network("Sprint").unwrap();
    let planner = Planner::for_network(
        net,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    );
    let series = greedy_links(net, &planner, 3).fraction_series();
    assert_eq!(series.len(), 3, "Sprint admits three greedy links");
    assert!(
        series[0] <= 1.0 + 1e-12,
        "first link raised bit-risk: {series:?}"
    );
    for w in series.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-12),
            "an added link raised bit-risk: {series:?}"
        );
    }
}
