//! Disaster event kinds, paper counts, and seeded mixture samplers.

use riskroute_rng::StdRng;
use riskroute_geo::bbox::CONUS;
use riskroute_geo::distance::destination;
use riskroute_geo::GeoPoint;
use riskroute_stats::rng::derive_seed;
use std::fmt;

/// The five disaster corpora of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// FEMA hurricane emergency declarations.
    FemaHurricane,
    /// FEMA tornado emergency declarations.
    FemaTornado,
    /// FEMA severe-storm emergency declarations.
    FemaStorm,
    /// NOAA recorded earthquake events.
    NoaaEarthquake,
    /// NOAA recorded damaging-wind events.
    NoaaWind,
}

/// All five kinds, in Table-1 order.
pub const ALL_EVENT_KINDS: &[EventKind] = &[
    EventKind::FemaHurricane,
    EventKind::FemaTornado,
    EventKind::FemaStorm,
    EventKind::NoaaEarthquake,
    EventKind::NoaaWind,
];

impl EventKind {
    /// The 1970–2010 event count reported in §4.3 / Table 1.
    pub fn paper_count(self) -> usize {
        match self {
            EventKind::FemaHurricane => 2_805,
            EventKind::FemaTornado => 6_437,
            EventKind::FemaStorm => 20_623,
            EventKind::NoaaEarthquake => 2_267,
            EventKind::NoaaWind => 143_847,
        }
    }

    /// Table-1 row label.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::FemaHurricane => "FEMA Hurricane",
            EventKind::FemaTornado => "FEMA Tornado",
            EventKind::FemaStorm => "FEMA Storm",
            EventKind::NoaaEarthquake => "NOAA Earthquake",
            EventKind::NoaaWind => "NOAA Wind",
        }
    }

    /// The paper's trained kernel bandwidth for this corpus (Table 1),
    /// in miles. Used as the default when skipping the (expensive) CV
    /// training; [`crate::training::train_bandwidth`] recomputes it from the
    /// synthetic corpus.
    pub fn paper_bandwidth_miles(self) -> f64 {
        match self {
            EventKind::FemaHurricane => 71.56,
            EventKind::FemaTornado => 59.48,
            EventKind::FemaStorm => 24.38,
            EventKind::NoaaEarthquake => 298.82,
            EventKind::NoaaWind => 3.59,
        }
    }

    /// Damage radius of one event of this kind, in miles: infrastructure
    /// within this distance of the event is threatened. Hurricanes and
    /// major earthquakes damage across ~100-mile swaths; severe storms and
    /// tornado outbreaks act at county scale; an individual damaging-wind
    /// report is local.
    pub fn damage_radius_miles(self) -> f64 {
        match self {
            EventKind::FemaHurricane => 300.0,
            EventKind::FemaTornado => 90.0,
            EventKind::FemaStorm => 150.0,
            EventKind::NoaaEarthquake => 300.0,
            EventKind::NoaaWind => 30.0,
        }
    }

    /// Number of distinct recording *sites* for this kind.
    ///
    /// FEMA declarations are specified at county level (§4.3), so repeated
    /// declarations stack at a finite set of county centroids; NOAA wind
    /// reports are dense point events at damage sites. The site pool is what
    /// gives each corpus its granularity — and granularity (together with
    /// event count) is what drives the Table-1 bandwidth ordering.
    fn site_count(self) -> usize {
        match self {
            EventKind::FemaHurricane => 600,    // coastal counties
            EventKind::FemaTornado => 1_200,    // alley + Dixie counties
            EventKind::FemaStorm => 1_800,      // most counties east of the Rockies
            EventKind::NoaaEarthquake => 2_000, // nearly one site per event
            EventKind::NoaaWind => 2_500,       // dense damage-report sites
        }
    }

    /// Within-site scatter in miles (county extent / geocoding noise).
    ///
    /// Calibrated so the full-corpus CV of [`crate::training::train_all`]
    /// lands near the paper's Table-1 bandwidths (trained bandwidth tracks
    /// the within-site scatter for the high-repetition FEMA corpora).
    fn site_jitter_miles(self) -> f64 {
        match self {
            EventKind::FemaHurricane => 115.0,
            EventKind::FemaTornado => 70.0,
            EventKind::FemaStorm => 25.0,
            EventKind::NoaaEarthquake => 160.0,
            EventKind::NoaaWind => 6.0,
        }
    }

    /// The geographic mixture model for this kind:
    /// `(lat, lon, sigma_miles, weight)` clusters.
    fn clusters(self) -> &'static [(f64, f64, f64, f64)] {
        match self {
            // Gulf coast dominant, Atlantic coast secondary (§5.2: "hurricanes
            // are more prevalent along the Gulf Coast region").
            EventKind::FemaHurricane => &[
                (27.8, -97.4, 90.0, 1.2),  // south Texas coast
                (29.5, -94.5, 90.0, 1.6),  // Houston/Galveston
                (29.9, -91.5, 90.0, 1.8),  // Louisiana
                (30.4, -88.6, 90.0, 1.6),  // MS/AL coast
                (30.2, -85.7, 90.0, 1.3),  // Florida panhandle
                (27.0, -81.5, 110.0, 1.5), // Florida peninsula
                (25.9, -80.3, 70.0, 1.0),  // Miami
                (32.5, -80.5, 90.0, 0.8),  // SC/GA coast
                (35.0, -77.0, 90.0, 0.9),  // NC coast
                (37.5, -76.0, 90.0, 0.5),  // Chesapeake
                (40.5, -73.5, 110.0, 0.4), // NY/NJ (rare but real)
            ],
            // Tornado Alley plus Dixie Alley.
            EventKind::FemaTornado => &[
                (35.4, -97.5, 130.0, 1.8), // central Oklahoma
                (37.6, -97.3, 130.0, 1.5), // Kansas
                (33.8, -98.5, 130.0, 1.2), // north Texas
                (40.8, -96.7, 140.0, 1.0), // Nebraska
                (41.6, -93.6, 140.0, 0.9), // Iowa
                (38.5, -92.5, 140.0, 1.0), // Missouri
                (34.7, -92.3, 130.0, 0.9), // Arkansas
                (33.5, -87.0, 130.0, 1.1), // Alabama (Dixie Alley)
                (34.8, -89.5, 130.0, 1.0), // north Mississippi / Memphis
                (39.8, -89.6, 150.0, 0.7), // Illinois
            ],
            // Severe storms: "prevalent in the central plain states", with a
            // broad eastern tail.
            EventKind::FemaStorm => &[
                (38.5, -97.0, 220.0, 1.8), // Kansas core
                (41.0, -95.0, 220.0, 1.6), // NE/IA
                (36.0, -96.0, 200.0, 1.5), // Oklahoma
                (39.0, -90.5, 220.0, 1.4), // Missouri/Illinois
                (43.5, -93.0, 220.0, 1.1), // Minnesota/Iowa
                (35.5, -86.5, 220.0, 1.0), // Tennessee valley
                (33.0, -91.0, 200.0, 1.0), // lower Mississippi
                (40.5, -82.5, 220.0, 0.9), // Ohio valley
                (42.0, -75.5, 220.0, 0.7), // Northeast
                (33.5, -84.5, 200.0, 0.8), // Georgia
                (31.0, -98.0, 220.0, 1.0), // central Texas
            ],
            // Pacific seismic belt dominant; New Madrid and Wasatch minor.
            // Clusters are deliberately broad: recorded quake epicenters are
            // diffuse across the whole seismic west (the paper trained the
            // *widest* kernel, 298.8 miles, on this corpus).
            EventKind::NoaaEarthquake => &[
                (34.1, -117.5, 280.0, 2.2), // southern California
                (37.5, -121.9, 250.0, 2.0), // Bay Area
                (40.5, -124.2, 280.0, 1.2), // Cape Mendocino
                (47.5, -122.3, 300.0, 0.9), // Puget Sound
                (44.0, -121.0, 320.0, 0.5), // Oregon
                (38.8, -119.8, 300.0, 0.8), // Sierra Nevada / NV border
                (36.6, -89.5, 220.0, 0.4),  // New Madrid
                (40.8, -111.9, 280.0, 0.4), // Wasatch front
                (44.5, -110.5, 280.0, 0.3), // Yellowstone
            ],
            // Damaging wind: broad over the eastern two-thirds of CONUS with
            // a plains maximum — the tightest-grained corpus in Table 1.
            EventKind::NoaaWind => &[
                (38.0, -97.5, 260.0, 1.6),
                (41.5, -93.5, 260.0, 1.4),
                (35.5, -90.0, 260.0, 1.3),
                (33.5, -86.5, 260.0, 1.2),
                (40.0, -83.0, 260.0, 1.2),
                (36.0, -79.5, 260.0, 1.0),
                (42.5, -76.0, 260.0, 0.9),
                (31.5, -97.0, 260.0, 1.1),
                (44.5, -89.5, 260.0, 0.8),
                (33.5, -81.5, 240.0, 0.9),
                (30.5, -92.0, 240.0, 0.9),
                (39.5, -105.0, 160.0, 0.4), // Front Range chinook events
            ],
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One located disaster event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisasterEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Event location.
    pub location: GeoPoint,
}

/// Sample `count` events of `kind`, deterministic under `master_seed`.
///
/// Sampling is two-level, mirroring how the real archives are recorded:
/// 1. A fixed pool of recording **sites** (county centroids for FEMA,
///    damage-report sites for NOAA) is drawn once from the kind's
///    geographic cluster mixture. The pool depends on `master_seed` but not
///    on `count`.
/// 2. Each event picks a site uniformly and scatters within the site's
///    extent ([`EventKind`]'s jitter).
///
/// The finite site pool is what gives dense corpora (NOAA wind: 143,847
/// events over ~2,500 sites) the fine-grained clumping that trains the small
/// kernel bandwidths of Table 1.
pub fn sample_events(kind: EventKind, count: usize, master_seed: u64) -> Vec<DisasterEvent> {
    let seed = derive_seed(master_seed, kind.label());
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = sample_sites(kind, &mut rng);
    let jitter = kind.site_jitter_miles();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let site = sites[rng.gen_range(0..sites.len())];
        let p = gaussian_offset(site, jitter, &mut rng);
        if CONUS.contains(p) {
            out.push(DisasterEvent { kind, location: p });
        }
    }
    out
}

/// Draw the kind's site pool from its cluster mixture.
fn sample_sites(kind: EventKind, rng: &mut StdRng) -> Vec<GeoPoint> {
    let clusters = kind.clusters();
    let total_weight: f64 = clusters.iter().map(|c| c.3).sum();
    let mut sites = Vec::with_capacity(kind.site_count());
    while sites.len() < kind.site_count() {
        let mut ticket = rng.gen_range(0.0..total_weight);
        let mut chosen = &clusters[0];
        for c in clusters {
            ticket -= c.3;
            if ticket <= 0.0 {
                chosen = c;
                break;
            }
        }
        let &(lat, lon, sigma, _) = chosen;
        let Ok(center) = GeoPoint::new(lat, lon) else {
            // Cluster centers are compile-time constants validated by tests.
            unreachable!("cluster centers are valid");
        };
        let p = gaussian_offset(center, sigma, rng);
        if CONUS.contains(p) {
            sites.push(p);
        }
    }
    sites
}

/// Isotropic Gaussian offset (σ in miles) via polar Box–Muller.
fn gaussian_offset(center: GeoPoint, sigma: f64, rng: &mut StdRng) -> GeoPoint {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let bearing: f64 = rng.gen_range(0.0..360.0);
    let r = sigma * (-2.0 * u1.ln()).sqrt();
    destination(center, bearing, r)
}

/// Sample the events of one Monte-Carlo ensemble member.
///
/// Member `member` of an ensemble seeded with `master_seed` draws from its
/// own decorrelated stream: the member seed is `master_seed` XOR-mixed with
/// a SplitMix64-style odd multiplier of `member + 1`, so member `m` sees
/// the same events regardless of how many members the ensemble has, and no
/// member shares a stream with the base corpus sampler for any seed.
pub fn sample_member_events(
    kind: EventKind,
    count: usize,
    master_seed: u64,
    member: usize,
) -> Vec<DisasterEvent> {
    let member_seed = master_seed ^ (member as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    sample_events(kind, count, member_seed)
}

/// Sample a full ensemble: `members` independent draws of `count` events.
///
/// Equivalent to calling [`sample_member_events`] for each index in
/// `0..members`; the per-member streams are stable under ensemble growth.
pub fn sample_ensemble(
    kind: EventKind,
    members: usize,
    count: usize,
    master_seed: u64,
) -> Vec<Vec<DisasterEvent>> {
    (0..members)
        .map(|m| sample_member_events(kind, count, master_seed, m))
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_geo::distance::great_circle_miles;

    #[test]
    fn paper_counts_match_section_4_3() {
        assert_eq!(EventKind::FemaHurricane.paper_count(), 2_805);
        assert_eq!(EventKind::FemaTornado.paper_count(), 6_437);
        assert_eq!(EventKind::FemaStorm.paper_count(), 20_623);
        assert_eq!(EventKind::NoaaEarthquake.paper_count(), 2_267);
        assert_eq!(EventKind::NoaaWind.paper_count(), 143_847);
        let fema_total: usize = [
            EventKind::FemaHurricane,
            EventKind::FemaTornado,
            EventKind::FemaStorm,
        ]
        .iter()
        .map(|k| k.paper_count())
        .sum();
        assert_eq!(fema_total, 29_865, "paper: 29,865 FEMA declarations");
    }

    #[test]
    fn sampling_is_exact_count_and_deterministic() {
        let a = sample_events(EventKind::FemaHurricane, 500, 7);
        assert_eq!(a.len(), 500);
        let b = sample_events(EventKind::FemaHurricane, 500, 7);
        assert_eq!(a, b);
        let c = sample_events(EventKind::FemaHurricane, 500, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn kinds_use_independent_streams() {
        let h = sample_events(EventKind::FemaHurricane, 100, 7);
        let t = sample_events(EventKind::FemaTornado, 100, 7);
        assert_ne!(
            h.iter().map(|e| e.location).collect::<Vec<_>>(),
            t.iter().map(|e| e.location).collect::<Vec<_>>()
        );
    }

    #[test]
    fn events_stay_in_conus() {
        for &kind in ALL_EVENT_KINDS {
            for e in sample_events(kind, 300, 11) {
                assert!(CONUS.contains(e.location), "{kind}: {:?}", e.location);
            }
        }
    }

    fn mass_within(events: &[DisasterEvent], lat: f64, lon: f64, radius: f64) -> f64 {
        let c = GeoPoint::new(lat, lon).unwrap();
        events
            .iter()
            .filter(|e| great_circle_miles(e.location, c) < radius)
            .count() as f64
            / events.len() as f64
    }

    #[test]
    fn hurricanes_hug_the_gulf_and_atlantic() {
        let ev = sample_events(EventKind::FemaHurricane, 3000, 42);
        let gulf = mass_within(&ev, 29.8, -91.0, 350.0);
        let mountain_west = mass_within(&ev, 40.0, -110.0, 350.0);
        assert!(gulf > 0.25, "gulf mass {gulf}");
        assert!(mountain_west < 0.01, "mountain-west mass {mountain_west}");
    }

    #[test]
    fn tornadoes_center_on_the_alley() {
        let ev = sample_events(EventKind::FemaTornado, 3000, 42);
        let alley = mass_within(&ev, 36.5, -97.0, 400.0);
        let west_coast = mass_within(&ev, 37.0, -120.0, 400.0);
        assert!(alley > 0.3, "alley mass {alley}");
        assert!(west_coast < 0.01, "west-coast mass {west_coast}");
    }

    #[test]
    fn earthquakes_dominate_the_west_coast() {
        let ev = sample_events(EventKind::NoaaEarthquake, 3000, 42);
        let west = ev.iter().filter(|e| e.location.lon() < -105.0).count() as f64 / ev.len() as f64;
        assert!(west > 0.75, "west mass {west}");
    }

    #[test]
    fn storms_favor_the_central_plains() {
        let ev = sample_events(EventKind::FemaStorm, 3000, 42);
        let plains = mass_within(&ev, 39.0, -95.0, 500.0);
        let pacific = mass_within(&ev, 38.0, -121.0, 400.0);
        assert!(plains > 0.25, "plains mass {plains}");
        assert!(pacific < 0.03, "pacific mass {pacific}");
    }

    #[test]
    fn wind_is_broad_but_eastern() {
        let ev = sample_events(EventKind::NoaaWind, 4000, 42);
        let east = ev.iter().filter(|e| e.location.lon() > -105.0).count() as f64 / ev.len() as f64;
        assert!(east > 0.85, "east mass {east}");
    }

    #[test]
    fn ensemble_members_are_stable_under_ensemble_growth() {
        let small = sample_ensemble(EventKind::FemaHurricane, 2, 50, 42);
        let large = sample_ensemble(EventKind::FemaHurricane, 5, 50, 42);
        assert_eq!(small[0], large[0]);
        assert_eq!(small[1], large[1]);
        assert_ne!(large[0], large[1], "members must decorrelate");
        assert_eq!(
            sample_member_events(EventKind::FemaHurricane, 50, 42, 3),
            large[3]
        );
        // No member collides with the base sampler's stream.
        let base = sample_events(EventKind::FemaHurricane, 50, 42);
        for member in &large {
            assert_ne!(*member, base);
        }
    }

    #[test]
    fn paper_corpora_shapes() {
        // Keep this cheap: sample at reduced counts via sample_events, and
        // check only that the full-corpus helper wires kinds correctly by
        // sampling the two smallest corpora at paper scale.
        let eq = sample_events(
            EventKind::NoaaEarthquake,
            EventKind::NoaaEarthquake.paper_count(),
            42,
        );
        assert_eq!(eq.len(), 2_267);
        assert!(eq.iter().all(|e| e.kind == EventKind::NoaaEarthquake));
    }
}
