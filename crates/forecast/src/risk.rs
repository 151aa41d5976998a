//! Forecasted outage risk fields (§5.3) and multi-advisory swaths.
//!
//! "We declare the forecasted risk of an area under tropical-force wind as
//! ρ_t, and the risk of an area under hurricane-force winds as ρ_h, with
//! ρ_h > ρ_t (in Section 7 we use ρ_t = 50 and ρ_h = 100)."

use crate::advisory::{parse_advisory_text, Advisory, ParseError};
use riskroute_geo::distance::great_circle_miles;
use riskroute_geo::GeoPoint;

/// The paper's tropical-storm-force risk value (§5.3 / §7).
pub const RHO_TROPICAL: f64 = 50.0;

/// The paper's hurricane-force risk value (§5.3 / §7).
pub const RHO_HURRICANE: f64 = 100.0;

/// The forecasted outage risk field of a single advisory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastRisk {
    /// Storm center.
    pub center: GeoPoint,
    /// Hurricane-force wind radius, miles.
    pub hurricane_radius_mi: f64,
    /// Tropical-storm-force wind radius, miles.
    pub tropical_radius_mi: f64,
    /// Risk inside the tropical-storm wind field.
    pub rho_tropical: f64,
    /// Risk inside the hurricane wind field.
    pub rho_hurricane: f64,
}

impl ForecastRisk {
    /// Build the risk field from an advisory's *text*, exercising the §4.4
    /// NLP path, with the paper's ρ values.
    ///
    /// # Errors
    /// Propagates parse failures.
    pub fn from_advisory_text(text: &str) -> Result<Self, ParseError> {
        let parsed = parse_advisory_text(text)?;
        Ok(ForecastRisk {
            center: parsed.center,
            hurricane_radius_mi: parsed.hurricane_radius_mi,
            tropical_radius_mi: parsed.tropical_radius_mi,
            rho_tropical: RHO_TROPICAL,
            rho_hurricane: RHO_HURRICANE,
        })
    }

    /// Build directly from a structured advisory (bypassing the text
    /// round-trip) with the paper's ρ values.
    pub fn from_advisory(adv: &Advisory) -> Self {
        ForecastRisk {
            center: adv.center,
            hurricane_radius_mi: adv.hurricane_radius_mi,
            tropical_radius_mi: adv.tropical_radius_mi,
            rho_tropical: RHO_TROPICAL,
            rho_hurricane: RHO_HURRICANE,
        }
    }

    /// Forecasted risk `o_f(y)`: ρ_h inside hurricane-force winds, ρ_t
    /// inside tropical-storm-force winds, 0 outside.
    pub fn risk(&self, y: GeoPoint) -> f64 {
        let d = great_circle_miles(self.center, y);
        if d <= self.hurricane_radius_mi {
            self.rho_hurricane
        } else if d <= self.tropical_radius_mi {
            self.rho_tropical
        } else {
            0.0
        }
    }

    /// Whether `y` is inside the tropical-storm (outer) wind field — the
    /// paper's "scope" test for counting affected PoPs (§7.3).
    pub fn in_scope(&self, y: GeoPoint) -> bool {
        great_circle_miles(self.center, y) <= self.tropical_radius_mi
    }

    /// Whether `y` is inside hurricane-force winds.
    pub fn in_hurricane_winds(&self, y: GeoPoint) -> bool {
        great_circle_miles(self.center, y) <= self.hurricane_radius_mi
    }
}

/// The union of a storm's wind fields over its full advisory series —
/// the "final geo-spatial scope" of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct StormSwath {
    fields: Vec<ForecastRisk>,
}

impl StormSwath {
    /// Build the swath from per-advisory risk fields.
    pub fn new(fields: Vec<ForecastRisk>) -> Self {
        StormSwath { fields }
    }

    /// The per-advisory fields.
    pub fn fields(&self) -> &[ForecastRisk] {
        &self.fields
    }

    /// Maximum forecasted risk over all advisories at `y`.
    pub fn max_risk(&self, y: GeoPoint) -> f64 {
        self.fields.iter().map(|f| f.risk(y)).fold(0.0, f64::max)
    }

    /// Whether any advisory ever placed `y` under tropical-storm winds.
    pub fn ever_in_scope(&self, y: GeoPoint) -> bool {
        self.fields.iter().any(|f| f.in_scope(y))
    }

    /// Whether any advisory ever placed `y` under hurricane-force winds.
    pub fn ever_in_hurricane_winds(&self, y: GeoPoint) -> bool {
        self.fields.iter().any(|f| f.in_hurricane_winds(y))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::storms::{advisories_for, Storm};

    fn pt(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn field() -> ForecastRisk {
        ForecastRisk {
            center: pt(35.2, -76.4),
            hurricane_radius_mi: 90.0,
            tropical_radius_mi: 260.0,
            rho_tropical: RHO_TROPICAL,
            rho_hurricane: RHO_HURRICANE,
        }
    }

    #[test]
    fn risk_zones_are_concentric() {
        let f = field();
        assert_eq!(f.risk(f.center), RHO_HURRICANE);
        // ~172 miles north of center: tropical but not hurricane.
        let mid = pt(37.7, -76.4);
        assert_eq!(f.risk(mid), RHO_TROPICAL);
        assert!(f.in_scope(mid));
        assert!(!f.in_hurricane_winds(mid));
        // Chicago: outside everything.
        let far = pt(41.88, -87.63);
        assert_eq!(f.risk(far), 0.0);
        assert!(!f.in_scope(far));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn paper_rho_ordering_holds() {
        assert!(RHO_HURRICANE > RHO_TROPICAL);
        assert_eq!(RHO_TROPICAL, 50.0);
        assert_eq!(RHO_HURRICANE, 100.0);
    }

    #[test]
    fn from_advisory_text_round_trips() {
        let adv = advisories_for(Storm::Irene)[59].clone(); // hour 177: §4.4 example
        let f = ForecastRisk::from_advisory_text(&adv.to_text()).unwrap();
        assert!((f.center.lat() - 35.2).abs() < 0.06);
        assert_eq!(f.rho_hurricane, RHO_HURRICANE);
        let structured = ForecastRisk::from_advisory(&adv);
        assert!((f.hurricane_radius_mi - structured.hurricane_radius_mi).abs() < 0.5);
    }

    #[test]
    fn swath_takes_pointwise_max() {
        let advs = advisories_for(Storm::Katrina);
        let swath = StormSwath::new(advs.iter().map(ForecastRisk::from_advisory).collect());
        // New Orleans was under hurricane-force winds at landfall.
        let nola = pt(29.95, -90.07);
        assert!(swath.ever_in_hurricane_winds(nola));
        assert_eq!(swath.max_risk(nola), RHO_HURRICANE);
        // Denver never was.
        let denver = pt(39.74, -104.99);
        assert!(!swath.ever_in_scope(denver));
        assert_eq!(swath.max_risk(denver), 0.0);
    }

    #[test]
    fn sandy_swath_reaches_the_northeast_katrina_does_not() {
        let sandy = StormSwath::new(
            advisories_for(Storm::Sandy)
                .iter()
                .map(ForecastRisk::from_advisory)
                .collect(),
        );
        let katrina = StormSwath::new(
            advisories_for(Storm::Katrina)
                .iter()
                .map(ForecastRisk::from_advisory)
                .collect(),
        );
        let nyc = pt(40.71, -74.01);
        assert!(sandy.ever_in_scope(nyc));
        assert!(!katrina.ever_in_scope(nyc));
    }

    #[test]
    fn empty_swath_is_riskless() {
        let swath = StormSwath::new(vec![]);
        assert_eq!(swath.max_risk(pt(30.0, -90.0)), 0.0);
        assert!(!swath.ever_in_scope(pt(30.0, -90.0)));
        assert!(swath.fields().is_empty());
    }
}
