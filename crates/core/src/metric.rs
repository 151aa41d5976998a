//! The bit-risk-mile metric (Definition 1 / Eq. 1 of the paper).
//!
//! For a routing path `p = {p₁, …, p_K}` between PoPs i and j:
//!
//! ```text
//! r_{i,j}(p) = Σ_{x=2..K} [ d(p_x, p_{x−1}) + β_{i,j}·(λ_h·o_h(p_x) + λ_f·o_f(p_x)) ]
//! ```
//!
//! - `d` — great-circle link length (bit-miles),
//! - `β_{i,j} = c_i + c_j` — outage impact from population shares (§5.1),
//! - `o_h` — historical outage risk at the traversed PoP (§5.2),
//! - `o_f` — immediate/forecasted outage risk (§5.3),
//! - `λ_h`, `λ_f` — the operator's risk-averseness knobs (§5; §7 uses
//!   `λ_h = 10⁵` and `λ_f = 10³`).
//!
//! Risk is charged at each PoP the path *enters* (`p₂ … p_K`); the source
//! PoP's risk is sunk cost paid by every possible route and so never
//! influences route choice.

use riskroute_geo::GeoPoint;
use riskroute_hazard::HistoricalRisk;
use riskroute_topology::Network;

/// The λ tuning parameters of Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskWeights {
    /// Historical-risk weight λ_h (> 0 for risk-averse routing; 0 disables).
    pub lambda_h: f64,
    /// Forecast-risk weight λ_f.
    pub lambda_f: f64,
}

impl RiskWeights {
    /// The paper's §7 settings: λ_h = 10⁵, λ_f = 10³.
    pub const PAPER: RiskWeights = RiskWeights {
        lambda_h: 1e5,
        lambda_f: 1e3,
    };

    /// Construct weights.
    ///
    /// # Panics
    /// Panics on negative or non-finite values.
    pub fn new(lambda_h: f64, lambda_f: f64) -> Self {
        assert!(
            lambda_h.is_finite() && lambda_h >= 0.0,
            "lambda_h must be finite and non-negative"
        );
        assert!(
            lambda_f.is_finite() && lambda_f >= 0.0,
            "lambda_f must be finite and non-negative"
        );
        RiskWeights { lambda_h, lambda_f }
    }

    /// Historical-only weights (λ_f = 0) — the Table-2 configuration.
    pub fn historical_only(lambda_h: f64) -> Self {
        RiskWeights::new(lambda_h, 0.0)
    }
}

impl Default for RiskWeights {
    /// Defaults to the paper's §7 settings.
    fn default() -> Self {
        RiskWeights::PAPER
    }
}

/// Per-PoP outage risk vectors for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRisk {
    historical: Vec<f64>,
    forecast: Vec<f64>,
}

impl NodeRisk {
    /// Build from explicit vectors (one entry per PoP).
    ///
    /// # Panics
    /// Panics when lengths differ or any value is negative/non-finite.
    pub fn new(historical: Vec<f64>, forecast: Vec<f64>) -> Self {
        assert_eq!(
            historical.len(),
            forecast.len(),
            "risk vectors must cover the same PoPs"
        );
        let valid = |v: &[f64]| v.iter().all(|x| x.is_finite() && *x >= 0.0);
        assert!(
            valid(&historical) && valid(&forecast),
            "risk values must be finite and non-negative"
        );
        NodeRisk {
            historical,
            forecast,
        }
    }

    /// Evaluate the historical model at every PoP of `network`, with zero
    /// forecast risk (the Table-2 configuration).
    pub fn from_historical(network: &Network, hazards: &HistoricalRisk) -> Self {
        let pts: Vec<GeoPoint> = network.pops().iter().map(|p| p.location).collect();
        let historical = hazards.risk_at_all(&pts);
        let forecast = vec![0.0; historical.len()];
        NodeRisk::new(historical, forecast)
    }

    /// Number of PoPs covered.
    pub fn len(&self) -> usize {
        self.historical.len()
    }

    /// Whether the vectors are empty.
    pub fn is_empty(&self) -> bool {
        self.historical.is_empty()
    }

    /// Historical risk `o_h` at PoP `v`.
    pub fn historical(&self, v: usize) -> f64 {
        self.historical[v]
    }

    /// Forecast risk `o_f` at PoP `v`.
    pub fn forecast(&self, v: usize) -> f64 {
        self.forecast[v]
    }

    /// The whole forecast vector (replay compares candidate forecasts
    /// against the active one to decide whether anything changed).
    pub fn forecast_slice(&self) -> &[f64] {
        &self.forecast
    }

    /// Replace the forecast vector (e.g. per advisory during replay).
    ///
    /// # Panics
    /// Panics on length mismatch or invalid values.
    pub fn set_forecast(&mut self, forecast: Vec<f64>) {
        assert_eq!(forecast.len(), self.historical.len(), "length mismatch");
        assert!(
            forecast.iter().all(|x| x.is_finite() && *x >= 0.0),
            "risk values must be finite and non-negative"
        );
        self.forecast = forecast;
    }

    /// The λ-combined risk charged on entering PoP `v` (before β scaling):
    /// `λ_h·o_h(v) + λ_f·o_f(v)`.
    pub fn scaled(&self, v: usize, w: RiskWeights) -> f64 {
        w.lambda_h * self.historical[v] + w.lambda_f * self.forecast[v]
    }

    /// Mean historical risk over all PoPs (Table 3's "Average PoP Risk").
    pub fn mean_historical(&self) -> f64 {
        if self.historical.is_empty() {
            0.0
        } else {
            self.historical.iter().sum::<f64>() / self.historical.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn paper_weights() {
        assert_eq!(RiskWeights::PAPER.lambda_h, 1e5);
        assert_eq!(RiskWeights::PAPER.lambda_f, 1e3);
        assert_eq!(RiskWeights::default(), RiskWeights::PAPER);
        let h = RiskWeights::historical_only(1e6);
        assert_eq!(h.lambda_f, 0.0);
    }

    #[test]
    #[should_panic(expected = "lambda_h must be finite")]
    fn negative_lambda_panics() {
        let _ = RiskWeights::new(-1.0, 0.0);
    }

    #[test]
    fn node_risk_accessors_and_scaling() {
        let r = NodeRisk::new(vec![1e-3, 2e-3], vec![0.0, 100.0]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.historical(0), 1e-3);
        assert_eq!(r.forecast(1), 100.0);
        let w = RiskWeights::new(1e5, 1e3);
        assert!((r.scaled(0, w) - 100.0).abs() < 1e-9);
        assert!((r.scaled(1, w) - (200.0 + 1e5)).abs() < 1e-6);
        assert!((r.mean_historical() - 1.5e-3).abs() < 1e-12);
    }

    #[test]
    fn set_forecast_replaces() {
        let mut r = NodeRisk::new(vec![0.0, 0.0], vec![0.0, 0.0]);
        r.set_forecast(vec![50.0, 100.0]);
        assert_eq!(r.forecast(1), 100.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_forecast_length_mismatch_panics() {
        let mut r = NodeRisk::new(vec![0.0], vec![0.0]);
        r.set_forecast(vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "same PoPs")]
    fn mismatched_vectors_panic() {
        let _ = NodeRisk::new(vec![0.0], vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_risk_panics() {
        let _ = NodeRisk::new(vec![-1.0], vec![0.0]);
    }

    #[test]
    fn zero_weights_zero_scaled_risk() {
        let r = NodeRisk::new(vec![5.0], vec![7.0]);
        assert_eq!(r.scaled(0, RiskWeights::new(0.0, 0.0)), 0.0);
    }

    #[test]
    fn empty_node_risk() {
        let r = NodeRisk::new(vec![], vec![]);
        assert!(r.is_empty());
        assert_eq!(r.mean_historical(), 0.0);
    }
}
