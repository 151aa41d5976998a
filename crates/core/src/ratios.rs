//! The evaluation ratios of §7 (Eqs. 5–6).
//!
//! - **Risk reduction ratio** (Eq. 5): the fractional decrease of average
//!   bit-risk miles for RiskRoute compared with shortest-path routing.
//! - **Distance increase ratio** (Eq. 6): the fractional increase in average
//!   bit-miles RiskRoute pays for that reduction.

use crate::routing::RoutedPath;

/// Per-pair routing outcome feeding the ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct PairOutcome {
    /// Source PoP.
    pub src: usize,
    /// Destination PoP.
    pub dst: usize,
    /// The RiskRoute path (Eq. 3).
    pub risk_route: RoutedPath,
    /// The geographic shortest path, evaluated under the same bit-risk
    /// metric.
    pub shortest: RoutedPath,
}

impl PairOutcome {
    /// The four numbers Eqs. 5–6 read of this pair: RiskRoute's bit-miles
    /// and bit-risk miles, then the shortest path's.
    pub(crate) fn terms(&self) -> [f64; 4] {
        [
            self.risk_route.bit_miles,
            self.risk_route.bit_risk_miles,
            self.shortest.bit_miles,
            self.shortest.bit_risk_miles,
        ]
    }
}

/// Aggregated Eq. 5 / Eq. 6 ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioReport {
    /// Eq. 5: `1 − mean(r(p_rr) / r(p_shortest))`.
    pub risk_reduction_ratio: f64,
    /// Eq. 6: `mean(d(p_rr) / d(p_shortest)) − 1`.
    pub distance_increase_ratio: f64,
    /// Number of (ordered) pairs aggregated.
    pub pairs: usize,
    /// Pairs that could not be routed at all (the topology was partitioned
    /// between them) — excluded from the means, surfaced for the degraded-
    /// mode report instead of aborting the aggregation.
    pub stranded_pairs: usize,
}

impl RatioReport {
    /// Aggregate outcomes into the two ratios.
    ///
    /// Pairs with `src == dst`, an unreachable destination, or a zero-length
    /// shortest path (distinct PoPs co-located at the same coordinates, as
    /// happens between providers sharing a carrier hotel) carry no
    /// information — the paper's `1/N²` normalization includes trivial terms
    /// whose ratio is taken as 1; we normalize by the count of informative
    /// pairs instead, which only rescales both ratios by the same ≈1 factor.
    ///
    /// An aggregation with **zero** informative pairs no longer panics: it
    /// reports both ratios as 0.0 with `pairs == 0`, which callers (and the
    /// CLI) can distinguish and report as [`crate::Error::NoInformativePairs`].
    pub fn aggregate<'a>(outcomes: impl IntoIterator<Item = &'a PairOutcome>) -> RatioReport {
        RatioReport::aggregate_with_stranded(outcomes, 0)
    }

    /// [`aggregate`](Self::aggregate), additionally recording how many pairs
    /// were stranded by a partition (see
    /// [`Planner::pair_sweep`](crate::Planner::pair_sweep)).
    pub fn aggregate_with_stranded<'a>(
        outcomes: impl IntoIterator<Item = &'a PairOutcome>,
        stranded_pairs: usize,
    ) -> RatioReport {
        let terms = outcomes
            .into_iter()
            .filter(|o| o.src != o.dst)
            .map(PairOutcome::terms);
        RatioReport::from_terms(terms, stranded_pairs)
    }

    /// Fold per-pair [`PairOutcome::terms`] into the two ratios, in the
    /// order given. A pair whose shortest path has no positive bit-risk
    /// miles or bit-miles is skipped — the one home of that rule, whether
    /// the terms come from outcomes or straight from a sweep
    /// ([`Planner::ratio_report_for`](crate::Planner::ratio_report_for)).
    pub(crate) fn from_terms(
        terms: impl IntoIterator<Item = [f64; 4]>,
        stranded_pairs: usize,
    ) -> RatioReport {
        let mut risk_ratio_sum = 0.0;
        let mut dist_ratio_sum = 0.0;
        let mut pairs = 0usize;
        for [rr_miles, rr_bit_risk, sp_miles, sp_bit_risk] in terms {
            if sp_bit_risk <= 0.0 || sp_miles <= 0.0 {
                continue;
            }
            risk_ratio_sum += rr_bit_risk / sp_bit_risk;
            dist_ratio_sum += rr_miles / sp_miles;
            pairs += 1;
        }
        if pairs == 0 {
            return RatioReport {
                risk_reduction_ratio: 0.0,
                distance_increase_ratio: 0.0,
                pairs: 0,
                stranded_pairs,
            };
        }
        RatioReport {
            risk_reduction_ratio: 1.0 - risk_ratio_sum / pairs as f64,
            distance_increase_ratio: dist_ratio_sum / pairs as f64 - 1.0,
            pairs,
            stranded_pairs,
        }
    }

    /// Whether the aggregation carried any information at all.
    pub fn is_informative(&self) -> bool {
        self.pairs > 0
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn path(nodes: Vec<usize>, miles: f64, risk: f64) -> RoutedPath {
        RoutedPath {
            nodes,
            bit_miles: miles,
            risk_miles: risk,
            bit_risk_miles: miles + risk,
        }
    }

    #[test]
    fn identical_routes_give_zero_ratios() {
        let o = PairOutcome {
            src: 0,
            dst: 1,
            risk_route: path(vec![0, 1], 100.0, 5.0),
            shortest: path(vec![0, 1], 100.0, 5.0),
        };
        let r = RatioReport::aggregate([&o]);
        assert!(r.risk_reduction_ratio.abs() < 1e-12);
        assert!(r.distance_increase_ratio.abs() < 1e-12);
        assert_eq!(r.pairs, 1);
    }

    #[test]
    fn textbook_twenty_percent_example() {
        // "a risk reduction ratio of 0.2 implies that using RiskRoute reduces
        // the bit-risk miles of a routing path by 20%" — and symmetric for
        // the distance increase ratio.
        let o = PairOutcome {
            src: 0,
            dst: 1,
            risk_route: path(vec![0, 2, 1], 120.0, 40.0), // 160 bit-risk
            shortest: path(vec![0, 1], 100.0, 100.0),     // 200 bit-risk
        };
        let r = RatioReport::aggregate([&o]);
        assert!((r.risk_reduction_ratio - 0.2).abs() < 1e-12);
        assert!((r.distance_increase_ratio - 0.2).abs() < 1e-12);
    }

    #[test]
    fn aggregation_averages_pairs() {
        let a = PairOutcome {
            src: 0,
            dst: 1,
            risk_route: path(vec![0, 1], 80.0, 0.0),
            shortest: path(vec![0, 1], 100.0, 0.0),
        };
        let b = PairOutcome {
            src: 1,
            dst: 0,
            risk_route: path(vec![1, 0], 100.0, 0.0),
            shortest: path(vec![1, 0], 100.0, 0.0),
        };
        let r = RatioReport::aggregate([&a, &b]);
        assert!((r.risk_reduction_ratio - 0.1).abs() < 1e-12);
        assert_eq!(r.pairs, 2);
    }

    #[test]
    fn diagonal_pairs_are_skipped() {
        let trivial = PairOutcome {
            src: 2,
            dst: 2,
            risk_route: path(vec![2], 0.0, 0.0),
            shortest: path(vec![2], 0.0, 0.0),
        };
        let real = PairOutcome {
            src: 0,
            dst: 1,
            risk_route: path(vec![0, 1], 90.0, 0.0),
            shortest: path(vec![0, 1], 100.0, 0.0),
        };
        let r = RatioReport::aggregate([&trivial, &real]);
        assert_eq!(r.pairs, 1);
    }

    #[test]
    fn empty_aggregation_degrades_to_zero_ratios() {
        let r = RatioReport::aggregate([]);
        assert!(!r.is_informative());
        assert_eq!(r.pairs, 0);
        assert_eq!(r.risk_reduction_ratio, 0.0);
        assert_eq!(r.distance_increase_ratio, 0.0);
    }

    #[test]
    fn stranded_pairs_are_carried_on_the_report() {
        let real = PairOutcome {
            src: 0,
            dst: 1,
            risk_route: path(vec![0, 1], 90.0, 0.0),
            shortest: path(vec![0, 1], 100.0, 0.0),
        };
        let r = RatioReport::aggregate_with_stranded([&real], 3);
        assert_eq!(r.pairs, 1);
        assert_eq!(r.stranded_pairs, 3);
        assert!(r.is_informative());
    }
}
