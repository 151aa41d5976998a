//! Randomized property tests for the geodesy primitives, driven by the
//! workspace's deterministic PRNG.

use riskroute_geo::distance::{
    destination, great_circle_miles, initial_bearing_deg, sample_great_circle, slerp,
};
use riskroute_geo::{BoundingBox, GeoPoint, EARTH_RADIUS_MILES};
use riskroute_rng::StdRng;

const CASES: usize = 256;

fn conus_point(rng: &mut StdRng) -> GeoPoint {
    GeoPoint::new(rng.gen_range(24.5..49.5), rng.gen_range(-125.0..-66.9)).expect("in range")
}

fn any_point(rng: &mut StdRng) -> GeoPoint {
    GeoPoint::new(rng.gen_range(-89.9..89.9), rng.gen_range(-179.9..179.9)).expect("in range")
}

#[test]
fn distance_nonnegative_bounded_and_symmetric() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let (a, b) = (any_point(&mut rng), any_point(&mut rng));
        let d = great_circle_miles(a, b);
        assert!(d >= 0.0);
        assert!(d <= std::f64::consts::PI * EARTH_RADIUS_MILES + 1e-6);
        assert!((d - great_circle_miles(b, a)).abs() < 1e-8);
    }
}

#[test]
fn triangle_inequality() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let (a, b, c) = (
            conus_point(&mut rng),
            conus_point(&mut rng),
            conus_point(&mut rng),
        );
        let ab = great_circle_miles(a, b);
        let bc = great_circle_miles(b, c);
        let ac = great_circle_miles(a, c);
        assert!(ac <= ab + bc + 1e-6);
    }
}

#[test]
fn destination_round_trip() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..CASES {
        let (a, b) = (conus_point(&mut rng), conus_point(&mut rng));
        let d = great_circle_miles(a, b);
        let brg = initial_bearing_deg(a, b);
        let reached = destination(a, brg, d);
        assert!(
            great_circle_miles(reached, b) < 1.0,
            "missed by {} miles",
            great_circle_miles(reached, b)
        );
    }
}

#[test]
fn destination_distance_is_requested() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES {
        let a = conus_point(&mut rng);
        let brg = rng.gen_range(0.0..360.0);
        let dist = rng.gen_range(0.0..3000.0);
        let p = destination(a, brg, dist);
        let measured = great_circle_miles(a, p);
        assert!((measured - dist).abs() < 0.5, "asked {dist}, measured {measured}");
    }
}

#[test]
fn slerp_stays_on_great_circle() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let (a, b) = (conus_point(&mut rng), conus_point(&mut rng));
        let t = rng.gen_range(0.0..1.0);
        let m = slerp(a, b, t);
        let total = great_circle_miles(a, b);
        let via = great_circle_miles(a, m) + great_circle_miles(m, b);
        assert!((via - total).abs() < 1e-3, "detour {via} vs {total}");
    }
}

#[test]
fn sampled_path_length_matches_direct() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..CASES {
        let (a, b) = (conus_point(&mut rng), conus_point(&mut rng));
        let pts = sample_great_circle(a, b, 16);
        let total: f64 = pts
            .windows(2)
            .map(|w| great_circle_miles(w[0], w[1]))
            .sum();
        let direct = great_circle_miles(a, b);
        assert!((total - direct).abs() < 0.01 * direct.max(1.0));
    }
}

#[test]
fn enclosing_box_contains_inputs() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..CASES {
        let pts: Vec<GeoPoint> = (0..rng.gen_range(1..32usize))
            .map(|_| conus_point(&mut rng))
            .collect();
        let bb = BoundingBox::enclosing(&pts).expect("non-empty");
        for p in &pts {
            assert!(bb.contains(*p));
        }
    }
}
