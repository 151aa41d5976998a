//! Differential suite for the hazard kernel: `GeoKde::density`, which skips
//! events whose Gaussian underflows to `+0.0`, against the plain sum it
//! replaced. The oracle below is that sum kept verbatim: every event, one
//! `great_circle_miles` and one `exp` each, added by `Iterator::sum`. Every
//! comparison is on `f64::to_bits`, so a kernel that is merely close (or
//! returns `-0.0` for `+0.0`) fails.
//!
//! 1. **Corpus PoPs.** All 809 PoPs of the 23 corpus networks under the CLI
//!    hazard model (seed 42, at most 3,000 events per kind), for each of the
//!    five surfaces, and the aggregate `risk_at_all` built from them.
//! 2. **Seeded CONUS points.** 2,000 uniform points over CONUS, five
//!    surfaces.
//! 3. **Edges, per bandwidth.** Bandwidths 1, 3.59, 298.82 and 2,000 miles
//!    over sampled events plus events at the poles and the antimeridian,
//!    queried on each anchor event, on the cutoff's latitude band and one
//!    ulp either side, at 38–40.1σ along six bearings, at lon ±180 and at
//!    lat ±89.9. `log_density` (which never skips) is checked against its
//!    own oracle on the same points.

use riskroute::prelude::*;
use riskroute_geo::bbox::CONUS;
use riskroute_geo::distance::{destination, great_circle_miles};
use riskroute_geo::{GeoPoint, EARTH_RADIUS_MILES};
use riskroute_hazard::events::sample_events;
use riskroute_hazard::{EventKind, RiskSurface};
use riskroute_rng::StdRng;
use riskroute_stats::kde::EXACT_ZERO_SIGMAS;
use riskroute_stats::GeoKde;
use std::f64::consts::{PI, TAU};

/// The CLI's per-kind event cap.
const EVENT_CAP: usize = 3_000;

/// The kernel before pruning: `p̂(y)` summed over every event.
fn oracle_density(events: &[GeoPoint], s: f64, y: GeoPoint) -> f64 {
    let norm = 1.0 / (TAU * s * s * events.len() as f64);
    let sum: f64 = events
        .iter()
        .map(|&x| {
            let z = great_circle_miles(x, y) / s;
            (-0.5 * z * z).exp()
        })
        .sum();
    norm * sum
}

/// `log_density` before it shared the kernel's precomputed cosines.
fn oracle_log_density(events: &[GeoPoint], s: f64, y: GeoPoint) -> f64 {
    let exponents: Vec<f64> = events
        .iter()
        .map(|&x| {
            let z = great_circle_miles(x, y) / s;
            -0.5 * z * z
        })
        .collect();
    let m = exponents.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = exponents.iter().map(|e| (e - m).exp()).sum();
    m + sum.ln() - (TAU * s * s * events.len() as f64).ln()
}

/// The events behind a surface of `HistoricalRisk::standard(42, Some(EVENT_CAP))`.
fn standard_events(kind: EventKind) -> Vec<GeoPoint> {
    sample_events(kind, kind.paper_count().min(EVENT_CAP), 42)
        .iter()
        .map(|e| e.location)
        .collect()
}

fn pt(lat: f64, lon: f64) -> GeoPoint {
    GeoPoint::new(lat, lon).expect("valid point")
}

fn conus_points(seed: u64, n: usize) -> Vec<GeoPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lat = CONUS.south() + rng.gen_f64() * (CONUS.north() - CONUS.south());
            let lon = CONUS.west() + rng.gen_f64() * (CONUS.east() - CONUS.west());
            pt(lat, lon)
        })
        .collect()
}

/// Share of (point, event) pairs at least `EXACT_ZERO_SIGMAS`·σ apart: the
/// pairs the kernel may skip.
fn skippable_share(events: &[GeoPoint], s: f64, points: &[GeoPoint]) -> f64 {
    let far = points
        .iter()
        .flat_map(|&y| events.iter().map(move |&x| great_circle_miles(x, y)))
        .filter(|&d| d >= EXACT_ZERO_SIGMAS * s)
        .count();
    far as f64 / (events.len() * points.len()) as f64
}

/// Assert the surface's density at `y` equals the oracle's, bit for bit,
/// and return the oracle's value.
fn assert_density_matches(surface: &RiskSurface, events: &[GeoPoint], y: GeoPoint) -> f64 {
    let (got, want) = (
        surface.density(y),
        oracle_density(events, surface.bandwidth_miles(), y),
    );
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{}: density at {y:?} is {got:e}, oracle {want:e}",
        surface.kind()
    );
    want
}

/// The five CLI surfaces, each with the events it was fitted to.
fn standard_surfaces(hazards: &HistoricalRisk) -> Vec<(&RiskSurface, Vec<GeoPoint>)> {
    hazards
        .surfaces()
        .iter()
        .map(|s| (s, standard_events(s.kind())))
        .collect()
}

#[test]
fn corpus_pops_match_oracle_on_every_standard_surface() {
    let corpus = Corpus::standard(42);
    let hazards = HistoricalRisk::standard(42, Some(EVENT_CAP));
    let surfaces = standard_surfaces(&hazards);
    let pops: Vec<GeoPoint> = corpus
        .all_networks()
        .flat_map(|n| n.pops().iter().map(|p| p.location))
        .collect();
    assert_eq!(pops.len(), 809);

    for (&y, got) in pops.iter().zip(hazards.risk_at_all(&pops)) {
        // `HistoricalRisk::risk` with unit weights, over oracle densities.
        let want: f64 = surfaces
            .iter()
            .map(|(surface, events)| {
                let r = surface.kind().damage_radius_miles();
                1.0 * (assert_density_matches(surface, events, y) * PI * r * r)
            })
            .sum();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "o_h at {y:?}: {got:e} vs {want:e}"
        );
    }

    // The suite must exercise the skip, not only the full sum.
    let (wind, events) = surfaces
        .iter()
        .find(|(s, _)| s.kind() == EventKind::NoaaWind)
        .expect("wind surface");
    let share = skippable_share(events, wind.bandwidth_miles(), &pops);
    assert!(share > 0.9, "wind skippable share {share}");
}

#[test]
fn seeded_conus_points_match_oracle_on_every_standard_surface() {
    let hazards = HistoricalRisk::standard(42, Some(EVENT_CAP));
    let points = conus_points(2_000, 2_000);
    for (surface, events) in standard_surfaces(&hazards) {
        for &y in &points {
            assert_density_matches(surface, &events, y);
        }
    }
}

/// Queries around `x` that sit on or next to the kernel's skip boundaries.
fn edge_points(x: GeoPoint, s: f64) -> Vec<GeoPoint> {
    let mut out = vec![x];
    let mut push = |lat: f64, lon: f64| {
        if let Ok(p) = GeoPoint::new(lat, lon) {
            out.push(p);
        }
    };
    // The latitude band `|dlat| = 40σ/(2R)` and one ulp either side.
    let band_deg = (EXACT_ZERO_SIGMAS * s / EARTH_RADIUS_MILES).to_degrees();
    for lat in [x.lat() + band_deg, x.lat() - band_deg] {
        let bits = lat.to_bits();
        for b in [bits - 1, bits, bits + 1] {
            push(f64::from_bits(b), x.lon());
        }
    }
    push(x.lat(), 180.0);
    push(x.lat(), -180.0);
    push(89.9, x.lon());
    push(-89.9, x.lon());
    for bearing in [0.0, 45.0, 90.0, 135.0, 180.0, 270.0] {
        for sigmas in [38.0, 38.6, 39.0, 39.9, 40.0, 40.1] {
            out.push(destination(x, bearing, sigmas * s));
        }
    }
    out
}

#[test]
fn edge_points_match_oracle_at_every_bandwidth() {
    let extremes = [
        pt(89.9, 0.0),
        pt(-89.9, 179.9),
        pt(0.0, 180.0),
        pt(0.0, -180.0),
        pt(45.0, 179.99),
    ];
    let cases: [(EventKind, f64); 4] = [
        (EventKind::NoaaWind, 1.0),
        (EventKind::NoaaWind, 3.59),
        (EventKind::NoaaEarthquake, 298.82),
        (EventKind::FemaHurricane, 2_000.0),
    ];
    for (kind, s) in cases {
        let mut events = standard_events(kind);
        events.truncate(600);
        events.extend(extremes);
        let kde = GeoKde::fit(events.clone(), s);
        let mut points = conus_points(s.to_bits(), 200);
        for &x in events.iter().take(4).chain(&extremes) {
            points.extend(edge_points(x, s));
        }
        for y in points {
            let (got, want) = (kde.density(y), oracle_density(&events, s, y));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "σ {s}: density at {y:?} is {got:e}, oracle {want:e}"
            );
            let (got, want) = (kde.log_density(y), oracle_log_density(&events, s, y));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "σ {s}: log density at {y:?} is {got:e}, oracle {want:e}"
            );
        }
    }
}
