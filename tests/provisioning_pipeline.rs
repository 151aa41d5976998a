//! Provisioning pipeline across crates: candidate discovery, incremental
//! scoring vs exact rebuilds, and greedy augmentation on corpus networks.

use riskroute::prelude::*;
use riskroute::provisioning::{
    best_additional_link, candidate_links, greedy_links, score_candidates, with_extra_link,
};
use riskroute_population::PopShares;

fn planner_for(net: &riskroute_topology::Network) -> Planner {
    let population = PopulationModel::synthesize(42, 3_000);
    let hazards = riskroute_hazard::HistoricalRisk::standard(42, Some(500));
    Planner::for_network(
        net,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    )
}

#[test]
fn incremental_scoring_matches_exact_rebuild_on_corpus_network() {
    let corpus = Corpus::standard(42);
    let net = corpus.network("Deutsche Telekom").unwrap();
    let planner = planner_for(net);
    let cands = candidate_links(net, &planner);
    if cands.is_empty() {
        return; // nothing to verify on this topology draw
    }
    let scored = score_candidates(net, &planner, &cands);
    // Verify the top three against exact rebuilds.
    for c in scored.iter().take(3) {
        let augmented = with_extra_link(net, c.a, c.b);
        let re = Planner::new(
            &augmented,
            planner.risk().clone(),
            PopShares::from_shares(planner.shares().shares().to_vec()),
            planner.weights(),
        );
        let exact = re.aggregate_bit_risk();
        assert!(
            (c.total_bit_risk - exact).abs() / exact < 1e-9,
            "sweep {} vs exact {}",
            c.total_bit_risk,
            exact
        );
    }
}

#[test]
fn best_link_never_increases_total_bit_risk() {
    let corpus = Corpus::standard(42);
    for name in ["Sprint", "Teliasonera"] {
        let net = corpus.network(name).unwrap();
        let planner = planner_for(net);
        let before = planner.aggregate_bit_risk();
        if let Some(best) = best_additional_link(net, &planner) {
            assert!(
                best.total_bit_risk <= before + 1e-6,
                "{name}: adding a link cannot hurt (monotone objective)"
            );
        }
    }
}

#[test]
fn greedy_augmentation_is_monotone_on_corpus_network() {
    let corpus = Corpus::standard(42);
    let net = corpus.network("NTT").unwrap();
    let planner = planner_for(net);
    let result = greedy_links(net, &planner, 4);
    let series = result.fraction_series();
    for w in series.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-12,
            "greedy series must not increase: {series:?}"
        );
    }
    for v in &series {
        assert!(*v <= 1.0 + 1e-12);
    }
}

#[test]
fn candidates_are_genuine_shortcuts() {
    let corpus = Corpus::standard(42);
    let net = corpus.network("Tinet").unwrap();
    let planner = planner_for(net);
    for (a, b, direct) in candidate_links(net, &planner) {
        assert!(!net.has_link(a, b), "candidates must be non-edges");
        if let Some(current) = planner.shortest_route(a, b).map(|r| r.bit_miles) {
            assert!(
                direct < 0.5 * current,
                "({a},{b}): direct {direct} must cut the {current}-mile path by >50%"
            );
        }
    }
}
