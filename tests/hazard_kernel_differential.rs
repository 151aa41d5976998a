//! Differential suite for the hazard kernel: `GeoKde::density`, which skips
//! every event whose term cannot move its running sum, against the plain sum
//! it replaced. The oracle below is that sum kept verbatim: every event, one
//! `great_circle_miles` and one `exp` each, added by `Iterator::sum`. Every
//! comparison is on `f64::to_bits`, so a kernel that is merely close (or
//! returns `-0.0` for `+0.0`) fails.
//!
//! Every query is also checked against the documented skip rule without
//! its trig-free pre-test ([`reference_counts`]): the kernel's published
//! `kde_terms_pretested` / `kde_terms_evaluated` counts for that call must
//! equal the events that rule lets past the latitude test and sums. So the
//! pre-test never skips an event the exact haversine test keeps, and the
//! cut follows the running sum's exponent exactly as documented.
//!
//! 1. **Corpus PoPs.** All 809 PoPs of the 23 corpus networks under the CLI
//!    hazard model (seed 42, at most 3,000 events per kind), for each of the
//!    five surfaces, and the aggregate `risk_at_all` built from them.
//! 2. **Seeded CONUS points.** 2,000 uniform points over CONUS, five
//!    surfaces.
//! 3. **Edges, per bandwidth.** Bandwidths 1, 3.59, 298.82 and 2,000 miles
//!    over sampled events plus events at the poles and the antimeridian,
//!    queried on each anchor event, on the 40σ latitude band and one ulp
//!    either side, at 38–40.1σ along six bearings, at lon ±180 and at lat
//!    ±89.9. `log_density` (which never skips) is checked against its own
//!    oracle on the same points.
//! 4. **Hand-ordered event sets.** Near events that double the running sum
//!    through several powers of two, each followed by events on that
//!    power's cut (and one ulp of latitude either side) and at the terms
//!    that would move its last bits, along six bearings; far events before
//!    near ones; and a query beyond every event, whose sum stays `+0.0` or
//!    subnormal so only the 40σ cut applies.

use riskroute::prelude::*;
use riskroute_geo::bbox::CONUS;
use riskroute_geo::distance::{destination, great_circle_miles};
use riskroute_geo::{GeoPoint, EARTH_RADIUS_MILES};
use riskroute_hazard::events::sample_events;
use riskroute_hazard::{EventKind, RiskSurface};
use riskroute_obs::{trace_counters, ObsScope};
use riskroute_rng::StdRng;
use riskroute_stats::kde::EXACT_ZERO_SIGMAS;
use riskroute_stats::GeoKde;
use std::f64::consts::{FRAC_PI_2, LN_2, PI, TAU};

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

/// The kernel's cut, in bandwidths, once the running sum is `sum`: 40 while
/// it is `+0.0` or subnormal, else `√(2·ln2·(56−e))` for `sum` in
/// `[2^e, 2^(e+1))`, where `exp(−½z²)` is 2^(e−56), an eighth of half an
/// ulp of the sum.
fn cut_sigmas(sum: f64) -> f64 {
    if sum < f64::MIN_POSITIVE {
        return EXACT_ZERO_SIGMAS;
    }
    let e = (sum.to_bits() >> 52) as i32 - 1023;
    (2.0 * LN_2 * f64::from(56 - e))
        .max(0.0)
        .sqrt()
        .min(EXACT_ZERO_SIGMAS)
}

/// The skip rule without its pre-test, at `y`: how many events pass the
/// half-latitude test, and how many the exact haversine test then keeps
/// and sums. The cut is recomputed after every kept term.
fn reference_counts(events: &[GeoPoint], s: f64, y: GeoPoint) -> (u64, u64) {
    let cut = |sigmas: f64| {
        let half = sigmas * s / (2.0 * EARTH_RADIUS_MILES);
        let h = if half >= FRAC_PI_2 {
            f64::INFINITY
        } else {
            half.sin().powi(2)
        };
        (half, h)
    };
    let (mut half, mut h_cut) = cut(EXACT_ZERO_SIGMAS);
    let (mut reached, mut kept, mut sum) = (0, 0, 0.0_f64);
    for &x in events {
        let dlat = (y.lat_rad() - x.lat_rad()) / 2.0;
        if dlat.abs() >= half {
            continue;
        }
        reached += 1;
        let dlon = (y.lon_rad() - x.lon_rad()) / 2.0;
        let h = dlat.sin().powi(2) + x.lat_rad().cos() * y.lat_rad().cos() * dlon.sin().powi(2);
        if h >= h_cut {
            continue;
        }
        kept += 1;
        let z = 2.0 * EARTH_RADIUS_MILES * h.sqrt().min(1.0).asin() / s;
        sum += (-0.5 * z * z).exp();
        (half, h_cut) = cut(cut_sigmas(sum));
    }
    (reached, kept)
}

/// Run `density` under its own trace and return its value with the
/// kernel's published `(kde_terms_pretested, kde_terms_evaluated)`.
fn counted(density: impl FnOnce() -> f64) -> (f64, (u64, u64)) {
    riskroute_obs::enable();
    let scope = ObsScope::begin("density");
    let value = {
        let _in_scope = scope.enter();
        density()
    };
    let counters = trace_counters(scope.trace_id());
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        value,
        (count("kde_terms_pretested"), count("kde_terms_evaluated")),
    )
}

/// Counts over every query of one test: events the exact haversine test
/// keeps that the kernel skipped, and queries whose counts differ from the
/// reference in any other way.
#[derive(Debug, Default)]
struct Tally {
    queries: u64,
    kept_but_skipped: u64,
    miscounted: u64,
}

impl Tally {
    fn record(&mut self, got: (u64, u64), want: (u64, u64)) {
        self.queries += 1;
        self.kept_but_skipped += want.1.saturating_sub(got.1);
        if got != want {
            self.miscounted += 1;
        }
    }

    fn assert_clean(&self) {
        assert!(self.queries > 0);
        assert_eq!(
            (self.kept_but_skipped, self.miscounted),
            (0, 0),
            "{self:?}: the kernel skipped events the exact test keeps, or \
             its cut left the documented schedule"
        );
    }
}

/// Assert that `density`, a kernel over `events` at bandwidth `s` queried
/// at `y`, equals the oracle bit for bit; record its counts against the
/// reference's, and return the oracle's value.
fn assert_matches(
    what: impl std::fmt::Display,
    events: &[GeoPoint],
    s: f64,
    y: GeoPoint,
    tally: &mut Tally,
    density: impl FnOnce() -> f64,
) -> f64 {
    let (got, counts) = counted(density);
    let want = oracle_density(events, s, y);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: density at {y:?} is {got:e}, oracle {want:e}"
    );
    tally.record(counts, reference_counts(events, s, y));
    want
}

/// [`assert_matches`] for a bare kernel.
fn assert_kde_matches(kde: &GeoKde, events: &[GeoPoint], y: GeoPoint, tally: &mut Tally) {
    let s = kde.bandwidth_miles();
    assert_matches(format!("σ {s}"), events, s, y, tally, || kde.density(y));
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

/// [`assert_matches`] for a surface fitted to `events`.
fn assert_density_matches(
    surface: &RiskSurface,
    events: &[GeoPoint],
    y: GeoPoint,
    tally: &mut Tally,
) -> f64 {
    let s = surface.bandwidth_miles();
    assert_matches(surface.kind(), events, s, y, tally, || surface.density(y))
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

    let mut tally = Tally::default();
    for (&y, got) in pops.iter().zip(hazards.risk_at_all(&pops)) {
        // `HistoricalRisk::risk` with unit weights, over oracle densities.
        let want: f64 = surfaces
            .iter()
            .map(|(surface, events)| {
                let r = surface.kind().damage_radius_miles();
                1.0 * (assert_density_matches(surface, events, y, &mut tally) * PI * r * r)
            })
            .sum();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "o_h at {y:?}: {got:e} vs {want:e}"
        );
    }
    tally.assert_clean();

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
    let mut tally = Tally::default();
    for (surface, events) in standard_surfaces(&hazards) {
        for &y in &points {
            assert_density_matches(surface, &events, y, &mut tally);
        }
    }
    tally.assert_clean();
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
    let mut tally = Tally::default();
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
            assert_kde_matches(&kde, &events, y, &mut tally);
            let (got, want) = (kde.log_density(y), oracle_log_density(&events, s, y));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "σ {s}: log density at {y:?} is {got:e}, oracle {want:e}"
            );
        }
    }
    tally.assert_clean();
}

/// Bandwidths for the hand-ordered sets: wind's, a mid-size one, and
/// earthquake's, whose cut angles are wide enough that the pre-test's
/// `d³/6` term and the cut's exact power of two both matter.
const ORDERED_BANDWIDTHS: [f64; 3] = [3.59, 60.0, 298.82];

const BEARINGS: [f64; 6] = [0.0, 45.0, 90.0, 135.0, 180.0, 270.0];

/// A query away from the poles and the antimeridian.
fn ordered_query() -> GeoPoint {
    pt(35.0, -97.0)
}

/// Events `z`σ from `q` along every bearing, with the due-north and
/// due-south ones also one ulp of latitude either side.
fn ring(q: GeoPoint, s: f64, z: f64) -> Vec<GeoPoint> {
    let mut out = Vec::new();
    for bearing in BEARINGS {
        let x = destination(q, bearing, z * s);
        out.push(x);
        if bearing == 0.0 || bearing == 180.0 {
            let bits = x.lat().to_bits();
            for b in [bits - 1, bits + 1] {
                out.push(pt(f64::from_bits(b), x.lon()));
            }
        }
    }
    out
}

/// Distance in bandwidths at which a kernel term is `2^k`.
fn sigmas_for_term(k: f64) -> f64 {
    (-2.0 * k * LN_2).sqrt()
}

#[test]
fn running_sum_climbing_through_powers_of_two_matches_oracle() {
    let q = ordered_query();
    let mut tally = Tally::default();
    for s in ORDERED_BANDWIDTHS {
        // Near events at the query (terms of exactly 1) double the sum to
        // 2^e for e = 0..=5; after each doubling, events on that power's
        // cut, just inside and outside it, and at terms of 2^(e−55) up to
        // 2^(e−50), the band where an unsound cut would move the last bits.
        let mut events = Vec::new();
        for e in 0..=5_i32 {
            let near = if e == 0 { 1 } else { 1 << (e - 1) };
            events.extend(std::iter::repeat_n(q, near));
            let z_cut = cut_sigmas(2f64.powi(e));
            for z in [z_cut * 0.98, z_cut * 0.999, z_cut, z_cut * 1.001] {
                events.extend(ring(q, s, z));
            }
            for k in 50..=55 {
                events.extend(ring(q, s, sigmas_for_term(f64::from(e - k))));
            }
        }
        let kde = GeoKde::fit(events.clone(), s);
        for y in [
            q,
            destination(q, 90.0, 0.5 * s),
            destination(q, 0.0, 2.0 * s),
        ] {
            assert_kde_matches(&kde, &events, y, &mut tally);
        }
    }
    tally.assert_clean();
}

#[test]
fn far_events_before_near_ones_match_oracle() {
    let q = ordered_query();
    let mut tally = Tally::default();
    for s in ORDERED_BANDWIDTHS {
        let mut events = Vec::new();
        for z in [
            45.0, 40.1, 40.0, 39.9, 38.6, 38.0, 37.0, 30.0, 20.0, 12.0, 8.0, 5.0, 2.0, 1.0, 0.5,
        ] {
            events.extend(ring(q, s, z));
        }
        events.push(q);
        let kde = GeoKde::fit(events.clone(), s);
        for y in [
            q,
            destination(q, 45.0, 3.0 * s),
            destination(q, 180.0, 10.0 * s),
        ] {
            assert_kde_matches(&kde, &events, y, &mut tally);
        }
    }
    tally.assert_clean();
}

#[test]
fn query_beyond_every_event_keeps_the_zero_cut() {
    let q = ordered_query();
    let mut tally = Tally::default();
    for s in ORDERED_BANDWIDTHS {
        let mut events = Vec::new();
        for z in [37.8, 38.0, 38.5, 38.6, 39.0, 39.9, 40.0, 40.1, 41.0] {
            events.extend(ring(q, s, z));
        }
        // The plain sum of these terms never reaches a normal float.
        let sum: f64 = events
            .iter()
            .map(|&x| {
                let z = great_circle_miles(x, q) / s;
                (-0.5 * z * z).exp()
            })
            .sum();
        assert!(sum < f64::MIN_POSITIVE, "σ {s}: sum {sum:e} is normal");
        assert!(sum > 0.0, "σ {s}: no subnormal term");
        let kde = GeoKde::fit(events.clone(), s);
        assert_kde_matches(&kde, &events, q, &mut tally);
    }
    tally.assert_clean();
}
