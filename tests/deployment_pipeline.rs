//! Integration tests for the §3.1 deployment path over corpus networks:
//! risk-aware OSPF weights.

use riskroute::ospf::{evaluate_ospf, mean_impact, risk_aware_weights};
use riskroute::prelude::*;

fn substrate() -> (Corpus, PopulationModel, riskroute_hazard::HistoricalRisk) {
    (
        Corpus::standard(42),
        PopulationModel::synthesize(42, 4_000),
        riskroute_hazard::HistoricalRisk::standard(42, Some(800)),
    )
}

#[test]
fn ospf_weights_capture_most_of_riskroute_on_corpus_networks() {
    let (corpus, population, hazards) = substrate();
    for name in ["Sprint", "Teliasonera"] {
        let net = corpus.network(name).unwrap();
        let planner = Planner::for_network(
            net,
            &population,
            &hazards,
            RiskWeights::historical_only(1e5),
        );
        let weights = risk_aware_weights(net, &planner, mean_impact(&planner));
        // Weights never fall below the raw mileage.
        for (w, l) in weights.iter().zip(net.links()) {
            assert!(*w >= l.miles - 1e-9);
        }
        let eval = evaluate_ospf(net, &planner, &weights).unwrap();
        let exact = planner.ratio_report();
        assert_eq!(eval.pairs, exact.pairs, "{name}");
        assert!(
            eval.path_fidelity > 0.5,
            "{name}: fidelity {}",
            eval.path_fidelity
        );
        assert!(eval.mean_excess_bit_risk >= -1e-12);
        assert!(
            eval.report.risk_reduction_ratio <= exact.risk_reduction_ratio + 1e-9,
            "{name}: OSPF cannot beat the optimum"
        );
        // And it must capture a substantive share of the benefit.
        if exact.risk_reduction_ratio > 0.01 {
            assert!(
                eval.report.risk_reduction_ratio > 0.5 * exact.risk_reduction_ratio,
                "{name}: captured only {} of {}",
                eval.report.risk_reduction_ratio,
                exact.risk_reduction_ratio
            );
        }
    }
}
