//! Per-kind risk surfaces and the aggregate historical outage risk `o_h`.
//!
//! Equation 2 of the paper defines the kernel likelihood with a `1/(σN)`
//! normalization:
//!
//! ```text
//! p̂(y) = 1/(σN) · Σᵢ K((xᵢ − y)/σ),   K(z) = 1/(2π)·exp(−zᵀz/2)
//! ```
//!
//! i.e. the proper 2-D density multiplied by σ (units 1/miles). The paper
//! never states the units its λ values assume, so this module exposes the
//! raw Eq.-2 likelihood for the Figure-4 surfaces and converts it to a
//! dimensionless per-event strike *probability* (via a county-scale damage
//! footprint per event kind) for the aggregate risk `o_h` that
//! enters the routing metric.
//!
//! §5.2: "we consider the aggregated historical risk to be the sum of all
//! five outage probabilities" — [`HistoricalRisk`] sums the five per-kind
//! surfaces' outage probabilities.

use crate::events::{sample_events, DisasterEvent, EventKind, ALL_EVENT_KINDS};
use riskroute_geo::{GeoGrid, GeoPoint};
use riskroute_stats::GeoKde;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

// Per-kind damage radii live on `EventKind::damage_radius_miles`; an event
// striking within that distance of a PoP threatens its physical
// infrastructure, so `density · π·r²` is the probability that a given
// recorded event of the kind hits the PoP — §5.2's "prior on the likelihood
// that physical infrastructure at a specific location encounters an
// outage".

/// The fitted risk surface for one event kind.
#[derive(Debug, Clone)]
pub struct RiskSurface {
    kind: EventKind,
    kde: GeoKde,
}

impl RiskSurface {
    /// Fit a surface from events with the given kernel bandwidth (miles).
    ///
    /// # Panics
    /// Panics when `events` is empty, contains a foreign kind, or the
    /// bandwidth is invalid (see [`GeoKde::fit`]).
    pub fn fit(kind: EventKind, events: &[DisasterEvent], bandwidth_miles: f64) -> Self {
        assert!(
            events.iter().all(|e| e.kind == kind),
            "all events must be of kind {kind}"
        );
        let pts: Vec<GeoPoint> = events.iter().map(|e| e.location).collect();
        RiskSurface {
            kind,
            kde: GeoKde::fit(pts, bandwidth_miles),
        }
    }

    /// The event kind.
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// The kernel bandwidth in miles.
    pub fn bandwidth_miles(&self) -> f64 {
        self.kde.bandwidth_miles()
    }

    /// The paper's Eq.-2 likelihood `p̂(y)` (units 1/miles; see module docs).
    pub fn likelihood(&self, y: GeoPoint) -> f64 {
        self.kde.density(y) * self.kde.bandwidth_miles()
    }

    /// Proper 2-D density in events per square mile (Eq. 2 divided by σ).
    pub fn density(&self, y: GeoPoint) -> f64 {
        self.kde.density(y)
    }

    /// §5.2's outage likelihood: the probability that a given recorded
    /// event of this kind strikes within the kind's damage radius of `y`
    /// (`density · π·r²`). This is the per-kind term of the aggregate
    /// historical risk `o_h`.
    pub fn outage_probability(&self, y: GeoPoint) -> f64 {
        let r = self.kind.damage_radius_miles();
        self.kde.density(y) * PI * r * r
    }

    /// Evaluate the Eq.-2 likelihood over a grid (Figure 4 rendering).
    ///
    /// Rides [`GeoKde::evaluate_grid`]'s binned fast path, then scales the
    /// densities by σ to get Eq.-2 likelihoods; large corpora render maps
    /// in `O(cells · kernel_width)` instead of `O(cells · events)`.
    pub fn likelihood_grid(&self, grid: GeoGrid) -> GeoGrid {
        let mut grid = self.kde.evaluate_grid(grid);
        let s = self.kde.bandwidth_miles();
        for row in 0..grid.rows() {
            for col in 0..grid.cols() {
                grid.set(row, col, grid.get(row, col) * s);
            }
        }
        grid
    }
}

/// A location's memo key: the exact bit patterns of its `(lat, lon)`.
type LocationKey = [u64; 2];

/// The aggregate historical outage risk: `o_h(y) = Σ_kinds P_k(y)`, the
/// sum of the per-kind outage probabilities.
///
/// The surfaces never change after construction, so the model memoises
/// `o_h` per location for [`Self::risk_at_all`]; clones share that memo.
#[derive(Clone)]
pub struct HistoricalRisk {
    surfaces: Vec<RiskSurface>,
    memo: Arc<Mutex<HashMap<LocationKey, f64>>>,
}

impl fmt::Debug for HistoricalRisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistoricalRisk")
            .field("surfaces", &self.surfaces)
            .finish_non_exhaustive()
    }
}

impl HistoricalRisk {
    /// Aggregate the given surfaces.
    pub fn new(surfaces: Vec<RiskSurface>) -> Self {
        HistoricalRisk {
            surfaces,
            memo: Arc::default(),
        }
    }

    /// Build the standard five-corpus risk model: paper event counts
    /// (optionally capped at `max_events_per_kind` to bound KDE cost — the
    /// density shape is insensitive to the cap well before 10k events) and
    /// paper Table-1 bandwidths.
    pub fn standard(master_seed: u64, max_events_per_kind: Option<usize>) -> Self {
        let surfaces = ALL_EVENT_KINDS
            .iter()
            .map(|&kind| {
                let n = kind
                    .paper_count()
                    .min(max_events_per_kind.unwrap_or(usize::MAX));
                let events = sample_events(kind, n, master_seed);
                RiskSurface::fit(kind, &events, kind.paper_bandwidth_miles())
            })
            .collect();
        HistoricalRisk::new(surfaces)
    }

    /// The per-kind surfaces.
    pub fn surfaces(&self) -> &[RiskSurface] {
        &self.surfaces
    }

    /// Events fitted across every surface: the kernel terms per location
    /// before any is skipped.
    pub fn event_count(&self) -> usize {
        self.surfaces.iter().map(|s| s.kde.events().len()).sum()
    }

    /// Aggregate risk `o_h(y)`: the sum of per-kind outage probabilities
    /// (§5.2: "the aggregate risk … is defined as the sum of all outage
    /// probabilities").
    pub fn risk(&self, y: GeoPoint) -> f64 {
        self.surfaces.iter().map(|s| s.outage_probability(y)).sum()
    }

    /// Aggregate risk at every location of `points`, in order.
    ///
    /// Values come from a memo keyed by each point's exact `(lat, lon)` bit
    /// pattern and shared by every clone of this model, so a process
    /// evaluates each distinct location once: the serve daemon's 23 corpus
    /// planners (809 PoPs at 392 locations) and the merged interdomain graph
    /// reuse each other's values. A memoised value is [`Self::risk`] of the
    /// same point, so every bit equals a fresh evaluation. The memo holds one
    /// entry per distinct location this model has been asked about.
    pub fn risk_at_all(&self, points: &[GeoPoint]) -> Vec<f64> {
        self.risk_at_all_counted(points).0
    }

    /// [`Self::risk_at_all`], with the number of distinct locations this
    /// call evaluated (memo misses); the other points were memo hits.
    pub fn risk_at_all_counted(&self, points: &[GeoPoint]) -> (Vec<f64>, usize) {
        let key = |i: usize| [points[i].lat().to_bits(), points[i].lon().to_bits()];
        // Every entry is complete when inserted, so a poisoned memo is valid.
        let lock = || self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        let mut values = vec![0.0; points.len()];
        let mut missing = Vec::new();
        {
            let memo = lock();
            for (i, v) in values.iter_mut().enumerate() {
                match memo.get(&key(i)) {
                    Some(&hit) => *v = hit,
                    None => missing.push(i),
                }
            }
        }
        // Evaluated outside the lock, so concurrent planner builds overlap;
        // a location two callers both missed gets the same value twice.
        // Sorting by key puts repeats of one location side by side.
        missing.sort_unstable_by_key(|&i| key(i));
        let mut evaluated = 0;
        let mut last: Option<(LocationKey, f64)> = None;
        for &i in &missing {
            let v = match last {
                Some((k, v)) if k == key(i) => v,
                _ => {
                    evaluated += 1;
                    self.risk(points[i])
                }
            };
            values[i] = v;
            last = Some((key(i), v));
        }
        lock().extend(missing.iter().map(|&i| (key(i), values[i])));
        (values, evaluated)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn small_surface(kind: EventKind, n: usize) -> RiskSurface {
        let events = sample_events(kind, n, 42);
        RiskSurface::fit(kind, &events, kind.paper_bandwidth_miles())
    }

    fn pt(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn likelihood_is_density_times_bandwidth() {
        let s = small_surface(EventKind::FemaHurricane, 400);
        let y = pt(29.9, -90.1);
        assert!((s.likelihood(y) - s.density(y) * s.bandwidth_miles()).abs() < 1e-15);
    }

    #[test]
    fn hurricane_risk_higher_on_gulf_than_montana() {
        let s = small_surface(EventKind::FemaHurricane, 800);
        let gulf = s.likelihood(pt(29.9, -90.1)); // New Orleans
        let montana = s.likelihood(pt(47.0, -109.0));
        assert!(
            gulf > 50.0 * montana.max(1e-300),
            "gulf {gulf} montana {montana}"
        );
    }

    #[test]
    fn earthquake_risk_higher_in_california() {
        let s = small_surface(EventKind::NoaaEarthquake, 800);
        let la = s.likelihood(pt(34.05, -118.24));
        let atlanta = s.likelihood(pt(33.75, -84.39));
        assert!(la > 10.0 * atlanta.max(1e-300));
    }

    #[test]
    #[should_panic(expected = "all events must be of kind")]
    fn mixed_kinds_panic() {
        let mut events = sample_events(EventKind::FemaTornado, 10, 1);
        events.push(sample_events(EventKind::FemaStorm, 1, 1)[0]);
        let _ = RiskSurface::fit(EventKind::FemaTornado, &events, 50.0);
    }

    #[test]
    fn aggregate_sums_surfaces() {
        let h = small_surface(EventKind::FemaHurricane, 300);
        let e = small_surface(EventKind::NoaaEarthquake, 300);
        let y = pt(34.05, -118.24);
        let expect = h.outage_probability(y) + e.outage_probability(y);
        let agg = HistoricalRisk::new(vec![h, e]);
        assert!((agg.risk(y) - expect).abs() < 1e-12);
    }

    #[test]
    fn standard_model_is_deterministic_and_capped() {
        let a = HistoricalRisk::standard(42, Some(200));
        let b = HistoricalRisk::standard(42, Some(200));
        let y = pt(35.0, -90.0);
        assert_eq!(a.risk(y), b.risk(y));
        assert_eq!(a.surfaces().len(), 5);
    }

    #[test]
    fn standard_model_gulf_coast_riskier_than_northern_plains() {
        // North Dakota sits away from every major cluster (the Rockies are
        // not a clean control: the Yellowstone/Wasatch earthquake clusters
        // reach into Wyoming).
        let agg = HistoricalRisk::standard(42, Some(500));
        let new_orleans = agg.risk(pt(29.95, -90.07));
        let north_dakota = agg.risk(pt(47.5, -100.5));
        assert!(
            new_orleans > 3.0 * north_dakota,
            "NO {new_orleans} vs ND {north_dakota}"
        );
    }

    #[test]
    fn outage_probability_far_from_every_event_is_positive_zero() {
        let events = sample_events(EventKind::NoaaWind, 500, 42);
        let s = RiskSurface::fit(EventKind::NoaaWind, &events, 3.59);
        let mid_pacific = pt(20.0, -160.0);
        let nearest = events
            .iter()
            .map(|e| riskroute_geo::distance::great_circle_miles(e.location, mid_pacific))
            .fold(f64::INFINITY, f64::min);
        assert!(nearest > 1_000.0, "nearest event {nearest} mi away");
        assert_eq!(s.outage_probability(mid_pacific).to_bits(), 0);
    }

    #[test]
    fn risk_at_all_matches_pointwise() {
        let agg = HistoricalRisk::standard(42, Some(100));
        let pts = vec![pt(29.9, -90.1), pt(40.0, -105.0)];
        let v = agg.risk_at_all(&pts);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], agg.risk(pts[0]));
        assert_eq!(v[1], agg.risk(pts[1]));
    }

    #[test]
    fn likelihood_grid_shape() {
        let s = small_surface(EventKind::FemaHurricane, 200);
        let grid = GeoGrid::new(riskroute_geo::bbox::CONUS, 10, 20).unwrap();
        let grid = s.likelihood_grid(grid);
        let (r, c, peak) = grid.argmax().unwrap();
        assert!(peak > 0.0);
        // Peak row should sit in the southern half of the map (Gulf coast).
        assert!(r < grid.rows() / 2, "peak at row {r}, col {c}");
    }
}
