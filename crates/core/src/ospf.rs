//! Risk-aware OSPF/IS-IS link weights (§3.1 of the paper).
//!
//! "The RiskRoute metric can be used directly in standard intra-domain
//! routing protocols such as OSPF or ISIS. These protocols implement
//! shortest path routing based on link weights. … The approach would simply
//! be to create link weights that are a composite metric based on
//! operational objectives and RiskRoute."
//!
//! The catch: Eq. 1's impact factor β(i, j) depends on the *endpoints* of
//! each flow, while OSPF carries exactly one weight per link for all
//! traffic. This module builds the best single-metric approximation —
//! charging every link its length plus the reference-impact-scaled risk of
//! its endpoints — and quantifies what that deployable compromise costs
//! against the exact per-pair optimum.

use crate::engine::{self, CsrGraph};
use crate::error::Error;
use crate::intradomain::Planner;
use crate::ratios::RatioReport;
use crate::routing::Adjacency;
use riskroute_topology::Network;

/// One static weight per link: `miles + β_ref · (ρ(a) + ρ(b)) / 2`, where
/// `ρ` is the λ-scaled PoP risk and `β_ref` is the reference impact (use
/// [`mean_impact`] for the network's average pair).
///
/// Splitting each link's endpoint risks in half charges every *interior*
/// PoP of a path its full risk once (half on entry from each side), which
/// is exactly Eq. 1's interior term; only the endpoints differ from the
/// exact metric, and those are path-independent.
pub fn risk_aware_weights(network: &Network, planner: &Planner, beta_ref: f64) -> Vec<f64> {
    assert!(
        beta_ref.is_finite() && beta_ref >= 0.0,
        "reference impact must be finite and non-negative"
    );
    let rho = planner.rho();
    network
        .links()
        .iter()
        .map(|l| l.miles + beta_ref * (rho[l.a] + rho[l.b]) / 2.0)
        .collect()
}

/// The network's mean pair impact — the natural `β_ref` (§5.1's additive
/// β makes it `2/N` exactly when shares sum to 1).
pub fn mean_impact(planner: &Planner) -> f64 {
    let n = planner.pop_count();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += planner.impact(i, j);
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// How well single-metric OSPF routing approximates exact RiskRoute.
#[derive(Debug, Clone, PartialEq)]
pub struct OspfEvaluation {
    /// Fraction of ordered pairs whose OSPF path is node-for-node identical
    /// to the exact RiskRoute path.
    pub path_fidelity: f64,
    /// Mean excess bit-risk of the OSPF path over the exact optimum
    /// (`mean(ospf/optimal) − 1`; 0 = perfect).
    pub mean_excess_bit_risk: f64,
    /// The §7 ratios of OSPF routing against the shortest-path baseline —
    /// directly comparable to the planner's own [`RatioReport`].
    pub report: RatioReport,
    /// Pairs evaluated.
    pub pairs: usize,
}

/// Route every pair over the static `link_weights` (plain SPF, as an OSPF
/// domain would) and score the result against exact RiskRoute.
///
/// # Errors
/// [`Error::NoInformativePairs`] when no pair is routable (e.g. a network
/// without links).
///
/// # Panics
/// Panics when `link_weights` does not match the network's link count or
/// contains an invalid weight.
pub fn evaluate_ospf(
    network: &Network,
    planner: &Planner,
    link_weights: &[f64],
) -> Result<OspfEvaluation, Error> {
    assert_eq!(
        link_weights.len(),
        network.link_count(),
        "one weight per link required"
    );
    let n = network.pop_count();
    let ospf_csr = CsrGraph::from_adjacency(&Adjacency::from_links(
        n,
        network
            .links()
            .iter()
            .zip(link_weights)
            .map(|(l, &w)| (l.a, l.b, w)),
    ));
    let zeros = engine::Rho::new(vec![0.0; n]);
    let mut identical = 0usize;
    let mut excess_sum = 0.0;
    let mut pairs = 0usize;
    let mut outcomes = Vec::new();
    for i in 0..n {
        // One SPF per source, as a router would compute.
        let spf = engine::sssp(&ospf_csr, i, 0.0, &zeros);
        for j in 0..n {
            if i == j {
                continue;
            }
            let Some(ospf_nodes) = spf.path_to(j) else {
                continue;
            };
            let Some(exact) = planner.risk_route(i, j) else {
                continue;
            };
            let Some(shortest) = planner.shortest_route(i, j) else {
                continue;
            };
            let Ok(ospf_scored) = planner.evaluate(i, j, &ospf_nodes) else {
                continue;
            };
            if ospf_nodes == exact.nodes {
                identical += 1;
            }
            if exact.bit_risk_miles > 0.0 {
                excess_sum += ospf_scored.bit_risk_miles / exact.bit_risk_miles - 1.0;
            }
            pairs += 1;
            outcomes.push(crate::ratios::PairOutcome {
                src: i,
                dst: j,
                risk_route: ospf_scored,
                shortest,
            });
        }
    }
    if pairs == 0 {
        return Err(Error::NoInformativePairs);
    }
    Ok(OspfEvaluation {
        path_fidelity: identical as f64 / pairs as f64,
        mean_excess_bit_risk: excess_sum / pairs as f64,
        report: RatioReport::aggregate(outcomes.iter()),
        pairs,
    })
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
    fn uniform_impact_makes_ospf_exact() {
        // When every pair shares the same β (uniform shares under the
        // additive model), the single-metric weighting reproduces RiskRoute
        // for every pair: fidelity 1, zero excess.
        let (net, planner) = diamond();
        let beta = mean_impact(&planner);
        assert!((beta - 0.5).abs() < 1e-12, "uniform shares: β = 0.5");
        let weights = risk_aware_weights(&net, &planner, beta);
        let eval = evaluate_ospf(&net, &planner, &weights).unwrap();
        assert!((eval.path_fidelity - 1.0).abs() < 1e-12, "{eval:?}");
        assert!(eval.mean_excess_bit_risk.abs() < 1e-9);
        assert_eq!(eval.pairs, 12);
        // And it beats plain shortest-path routing.
        let plain = planner.ratio_report();
        assert!((eval.report.risk_reduction_ratio - plain.risk_reduction_ratio).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_impact_costs_fidelity_but_never_correctness() {
        // Skewed shares: β varies per pair, so one metric cannot be exact —
        // but OSPF paths scored in bit-risk must still land between the
        // shortest-path baseline and the exact optimum.
        let net = diamond().0;
        let risk = NodeRisk::new(vec![0.0, 0.0, 5e-3, 0.0], vec![0.0; 4]);
        let planner = Planner::new(
            &net,
            risk,
            PopShares::from_shares(vec![0.55, 0.2, 0.2, 0.05]),
            RiskWeights::historical_only(1e5),
        );
        let weights = risk_aware_weights(&net, &planner, mean_impact(&planner));
        let eval = evaluate_ospf(&net, &planner, &weights).unwrap();
        // OSPF can never beat the exact per-pair optimum…
        assert!(eval.mean_excess_bit_risk >= -1e-12);
        let exact = planner.ratio_report();
        assert!(
            eval.report.risk_reduction_ratio <= exact.risk_reduction_ratio + 1e-9,
            "the single-metric approximation is bounded by the exact optimum"
        );
        // …and risk-aware weights can never do worse than risk-blind ones
        // in expectation over this diamond (the risky PoP is avoidable at
        // the same fidelity for every pair here, so the ratio stays
        // non-negative).
        assert!(eval.report.risk_reduction_ratio >= -1e-9);
    }

    #[test]
    fn zero_beta_reduces_to_plain_ospf() {
        let (net, planner) = diamond();
        let weights = risk_aware_weights(&net, &planner, 0.0);
        for (w, l) in weights.iter().zip(net.links()) {
            assert!((w - l.miles).abs() < 1e-12);
        }
        let eval = evaluate_ospf(&net, &planner, &weights).unwrap();
        // Pure-distance OSPF equals the shortest-path baseline: zero risk
        // reduction.
        assert!(eval.report.risk_reduction_ratio.abs() < 1e-12);
    }

    #[test]
    fn weights_are_monotone_in_beta() {
        let (net, planner) = diamond();
        let lo = risk_aware_weights(&net, &planner, 0.1);
        let hi = risk_aware_weights(&net, &planner, 1.0);
        for (a, b) in lo.iter().zip(&hi) {
            assert!(b >= a);
        }
    }

    #[test]
    fn no_links_is_a_typed_error_not_a_panic() {
        let net = Network::new(
            "two",
            NetworkKind::Regional,
            vec![pop("A", 32.78, -96.80), pop("B", 30.27, -97.74)],
            vec![],
        )
        .unwrap();
        let planner = Planner::new(
            &net,
            NodeRisk::new(vec![0.0; 2], vec![0.0; 2]),
            PopShares::from_shares(vec![0.5; 2]),
            RiskWeights::PAPER,
        );
        let weights = risk_aware_weights(&net, &planner, mean_impact(&planner));
        assert!(weights.is_empty());
        assert_eq!(
            evaluate_ospf(&net, &planner, &weights),
            Err(Error::NoInformativePairs)
        );
    }

    #[test]
    #[should_panic(expected = "one weight per link")]
    fn mismatched_weights_panic() {
        let (net, planner) = diamond();
        let _ = evaluate_ospf(&net, &planner, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "reference impact must be finite")]
    fn negative_beta_panics() {
        let (net, planner) = diamond();
        let _ = risk_aware_weights(&net, &planner, -1.0);
    }
}
