//! Spherical geodesy: distances, bearings, and derived constructions.
//!
//! The paper's bit-mile metric is defined over "air miles", i.e. great-circle
//! distance. We model the Earth as a sphere of mean radius
//! [`crate::EARTH_RADIUS_MILES`]; the sub-0.5 % error of
//! the spherical model is far below the uncertainty of line-of-sight link
//! placement (§4.1 of the paper).

use crate::{GeoPoint, EARTH_RADIUS_MILES};

/// Great-circle distance between two points in miles (haversine formula).
///
/// The haversine form is numerically stable for the short distances that
/// dominate intra-US routing (unlike the spherical law of cosines, which
/// loses precision below ~1 mile).
pub fn great_circle_miles(a: GeoPoint, b: GeoPoint) -> f64 {
    let dlat = (b.lat_rad() - a.lat_rad()) / 2.0;
    let dlon = (b.lon_rad() - a.lon_rad()) / 2.0;
    let h = dlat.sin().powi(2) + a.lat_rad().cos() * b.lat_rad().cos() * dlon.sin().powi(2);
    // Clamp guards against floating error pushing h infinitesimally above 1
    // for antipodal points.
    2.0 * EARTH_RADIUS_MILES * h.sqrt().min(1.0).asin()
}

/// Initial bearing (forward azimuth) from `a` to `b`, in degrees clockwise
/// from true north, normalized to `[0, 360)`.
pub fn initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> f64 {
    let dlon = b.lon_rad() - a.lon_rad();
    let y = dlon.sin() * b.lat_rad().cos();
    let x =
        a.lat_rad().cos() * b.lat_rad().sin() - a.lat_rad().sin() * b.lat_rad().cos() * dlon.cos();
    (y.atan2(x).to_degrees() + 360.0).rem_euclid(360.0)
}

/// The point reached by travelling `distance_miles` from `start` along the
/// great circle with initial bearing `bearing_deg`.
///
/// Used to trace hurricane wind-field extents and to synthesize census block
/// scatter around city centers.
pub fn destination(start: GeoPoint, bearing_deg: f64, distance_miles: f64) -> GeoPoint {
    let delta = distance_miles / EARTH_RADIUS_MILES;
    let theta = bearing_deg.to_radians();
    let lat1 = start.lat_rad();
    let lon1 = start.lon_rad();
    let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
    let lon2 = lon1
        + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
    let lon_deg = (lon2.to_degrees() + 540.0).rem_euclid(360.0) - 180.0;
    // Clamping and longitude normalization keep the result in range for any
    // finite inputs; a non-finite bearing/distance degrades to the start
    // point instead of aborting the caller.
    GeoPoint::new(lat2.to_degrees().clamp(-90.0, 90.0), lon_deg).unwrap_or(start)
}

/// Sample `n >= 2` points evenly along the great circle from `a` to `b`,
/// inclusive of the endpoints.
///
/// Used to rasterize line-of-sight links when checking whether a link passes
/// through a disaster's wind field.
pub fn sample_great_circle(a: GeoPoint, b: GeoPoint, n: usize) -> Vec<GeoPoint> {
    assert!(n >= 2, "need at least the two endpoints");
    let total = great_circle_miles(a, b);
    if total < 1e-9 {
        return vec![a; n];
    }
    let bearing_start = initial_bearing_deg(a, b);
    let mut out = Vec::with_capacity(n);
    out.push(a);
    for k in 1..n - 1 {
        let frac = k as f64 / (n - 1) as f64;
        // Re-deriving the bearing at each step would be exact; for CONUS-scale
        // spans the single-bearing approximation deviates by well under the
        // grid resolutions we evaluate at, and interior points are only used
        // for containment tests. Use slerp for exactness instead:
        out.push(slerp(a, b, frac));
    }
    out.push(b);
    let _ = bearing_start;
    out
}

/// Spherical linear interpolation between `a` and `b` at fraction `t ∈ [0,1]`.
pub fn slerp(a: GeoPoint, b: GeoPoint, t: f64) -> GeoPoint {
    let [x1, y1, z1] = unit_vector(a);
    let [x2, y2, z2] = unit_vector(b);
    let dot = (x1 * x2 + y1 * y2 + z1 * z2).clamp(-1.0, 1.0);
    let omega = dot.acos();
    if omega < 1e-12 {
        return a;
    }
    let so = omega.sin();
    let f1 = ((1.0 - t) * omega).sin() / so;
    let f2 = (t * omega).sin() / so;
    let (x, y, z) = (f1 * x1 + f2 * x2, f1 * y1 + f2 * y2, f1 * z1 + f2 * z2);
    from_unit_vec(x, y, z)
}

/// `p` as a unit 3-vector: x toward (0°N, 0°E), z toward the north pole.
///
/// Built from the same radians as [`great_circle_miles`], so the two agree
/// on which points coincide.
#[inline]
pub fn unit_vector(p: GeoPoint) -> [f64; 3] {
    let (lat, lon) = (p.lat_rad(), p.lon_rad());
    [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
}

/// Squared chord between two unit vectors on the unit sphere: `4·h` for
/// the haversine `h` of the arc between them, so it rises strictly with
/// great-circle distance and needs no trig.
#[inline]
pub fn chord_sq(a: [f64; 3], b: [f64; 3]) -> f64 {
    let (dx, dy, dz) = (a[0] - b[0], a[1] - b[1], a[2] - b[2]);
    dx * dx + dy * dy + dz * dz
}

fn from_unit_vec(x: f64, y: f64, z: f64) -> GeoPoint {
    let norm = (x * x + y * y + z * z).sqrt();
    let (x, y, z) = (x / norm, y / norm, z / norm);
    let lat = z.asin().to_degrees();
    let lon = y.atan2(x).to_degrees();
    match GeoPoint::new(lat.clamp(-90.0, 90.0), lon) {
        Ok(p) => p,
        // Inputs are blends of unit vectors from valid points, so the norm
        // is positive and atan2/asin stay in range.
        Err(_) => unreachable!("unit vector maps to a valid point"),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn pt(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = pt(40.0, -88.0);
        assert_eq!(great_circle_miles(p, p), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = pt(29.76, -95.37);
        let b = pt(42.36, -71.06);
        assert!((great_circle_miles(a, b) - great_circle_miles(b, a)).abs() < 1e-9);
    }

    #[test]
    fn known_distance_nyc_la() {
        // JFK to LAX is a classic geodesy test pair: ~2,475 miles.
        let jfk = pt(40.6413, -73.7781);
        let lax = pt(33.9416, -118.4085);
        let d = great_circle_miles(jfk, lax);
        assert!((d - 2475.0).abs() < 15.0, "got {d}");
    }

    #[test]
    fn quarter_circumference_pole_to_equator() {
        let pole = pt(90.0, 0.0);
        let equator = pt(0.0, 0.0);
        let d = great_circle_miles(pole, equator);
        let quarter = std::f64::consts::PI * EARTH_RADIUS_MILES / 2.0;
        assert!((d - quarter).abs() < 1e-6);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = pt(0.0, 0.0);
        let b = pt(0.0, 180.0);
        let d = great_circle_miles(a, b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_MILES).abs() < 1e-6);
    }

    #[test]
    fn short_distance_precision() {
        // ~0.069 degrees latitude apart at the equator: ~4.76 miles.
        let a = pt(0.0, 0.0);
        let b = pt(0.069, 0.0);
        let d = great_circle_miles(a, b);
        assert!((d - 4.768).abs() < 0.01, "got {d}");
    }

    #[test]
    fn bearing_due_north_and_east() {
        let a = pt(0.0, 0.0);
        assert!((initial_bearing_deg(a, pt(10.0, 0.0)) - 0.0).abs() < 1e-9);
        assert!((initial_bearing_deg(a, pt(0.0, 10.0)) - 90.0).abs() < 1e-9);
        assert!((initial_bearing_deg(a, pt(-10.0, 0.0)) - 180.0).abs() < 1e-9);
        assert!((initial_bearing_deg(a, pt(0.0, -10.0)) - 270.0).abs() < 1e-9);
    }

    #[test]
    fn destination_inverts_distance_and_bearing() {
        let a = pt(35.0, -90.0);
        let b = pt(41.0, -74.0);
        let d = great_circle_miles(a, b);
        let brg = initial_bearing_deg(a, b);
        let reached = destination(a, brg, d);
        assert!(great_circle_miles(reached, b) < 0.5, "reached {reached}");
    }

    #[test]
    fn destination_zero_distance_is_identity() {
        let a = pt(35.0, -90.0);
        let b = destination(a, 123.0, 0.0);
        assert!(great_circle_miles(a, b) < 1e-9);
    }

    #[test]
    fn slerp_endpoints() {
        let a = pt(29.76, -95.37);
        let b = pt(42.36, -71.06);
        assert!(great_circle_miles(slerp(a, b, 0.0), a) < 1e-6);
        assert!(great_circle_miles(slerp(a, b, 1.0), b) < 1e-6);
    }

    #[test]
    fn slerp_midpoint_equidistant() {
        let a = pt(29.76, -95.37);
        let b = pt(42.36, -71.06);
        let m = slerp(a, b, 0.5);
        let da = great_circle_miles(m, a);
        let db = great_circle_miles(m, b);
        assert!((da - db).abs() < 1e-6);
    }

    #[test]
    fn sample_great_circle_monotone_progress() {
        let a = pt(29.76, -95.37);
        let b = pt(42.36, -71.06);
        let pts = sample_great_circle(a, b, 10);
        assert_eq!(pts.len(), 10);
        let total = great_circle_miles(a, b);
        let mut prev = 0.0;
        for p in &pts {
            let along = great_circle_miles(a, *p);
            assert!(along >= prev - 1e-6);
            assert!(along <= total + 1e-6);
            prev = along;
        }
    }

    #[test]
    fn sample_degenerate_pair() {
        let a = pt(40.0, -100.0);
        let pts = sample_great_circle(a, a, 4);
        assert_eq!(pts.len(), 4);
        for p in pts {
            assert!(great_circle_miles(a, p) < 1e-9);
        }
    }
}
