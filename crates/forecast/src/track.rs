//! Best-track waypoints and interpolation.

use riskroute_geo::distance::slerp;
use riskroute_geo::GeoPoint;

/// One best-track waypoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPoint {
    /// Hours since the first advisory.
    pub hours: f64,
    /// Storm center latitude, degrees north.
    pub lat: f64,
    /// Storm center longitude, degrees east.
    pub lon: f64,
    /// Radius of hurricane-force winds, miles (0 when below hurricane
    /// strength).
    pub hurricane_radius_mi: f64,
    /// Radius of tropical-storm-force winds, miles.
    pub tropical_radius_mi: f64,
}

/// A storm's full track: ordered waypoints spanning the advisory window.
#[derive(Debug, Clone, PartialEq)]
pub struct HurricaneTrack {
    /// Storm name, upper case as in advisories ("IRENE").
    pub name: String,
    points: Vec<TrackPoint>,
}

/// The storm state at one instant (interpolated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormState {
    /// Storm center.
    pub center: GeoPoint,
    /// Radius of hurricane-force winds, miles.
    pub hurricane_radius_mi: f64,
    /// Radius of tropical-storm-force winds, miles.
    pub tropical_radius_mi: f64,
}

impl HurricaneTrack {
    /// Build a track from waypoints.
    ///
    /// # Panics
    /// Panics when fewer than two waypoints are given, hours are not
    /// strictly increasing from 0, radii are negative or inverted
    /// (`hurricane > tropical`), or coordinates are invalid.
    pub fn new(name: impl Into<String>, points: Vec<TrackPoint>) -> Self {
        assert!(points.len() >= 2, "track needs at least two waypoints");
        assert_eq!(points[0].hours, 0.0, "track must start at hour 0");
        for w in points.windows(2) {
            assert!(
                w[1].hours > w[0].hours,
                "waypoint hours must be strictly increasing"
            );
        }
        for p in &points {
            assert!(
                GeoPoint::new(p.lat, p.lon).is_ok(),
                "waypoint coordinates must be valid"
            );
            assert!(
                p.hurricane_radius_mi >= 0.0 && p.tropical_radius_mi >= 0.0,
                "radii must be non-negative"
            );
            assert!(
                p.hurricane_radius_mi <= p.tropical_radius_mi,
                "hurricane-force radius cannot exceed tropical-storm radius"
            );
        }
        HurricaneTrack {
            name: name.into(),
            points,
        }
    }

    /// The waypoints.
    pub fn points(&self) -> &[TrackPoint] {
        &self.points
    }

    /// Total track duration in hours.
    pub fn duration_hours(&self) -> f64 {
        // The constructor guarantees at least two waypoints.
        self.points.last().map_or(0.0, |p| p.hours)
    }

    /// Interpolated storm state at `hours` (clamped to the track window).
    /// Position interpolates along the great circle; radii linearly.
    pub fn state_at(&self, hours: f64) -> StormState {
        let h = hours.clamp(0.0, self.duration_hours());
        // `h` is clamped into [0, last.hours], so some segment contains it;
        // the final segment covers any floating-point edge case.
        let idx = self
            .points
            .windows(2)
            .position(|w| h <= w[1].hours)
            .unwrap_or(self.points.len().saturating_sub(2));
        let (a, b) = (&self.points[idx], &self.points[idx + 1]);
        let t = (h - a.hours) / (b.hours - a.hours);
        let (Ok(pa), Ok(pb)) = (GeoPoint::new(a.lat, a.lon), GeoPoint::new(b.lat, b.lon)) else {
            unreachable!("waypoints were validated by the constructor");
        };
        StormState {
            center: slerp(pa, pb, t),
            hurricane_radius_mi: a.hurricane_radius_mi
                + t * (b.hurricane_radius_mi - a.hurricane_radius_mi),
            tropical_radius_mi: a.tropical_radius_mi
                + t * (b.tropical_radius_mi - a.tropical_radius_mi),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn wp(hours: f64, lat: f64, lon: f64, h: f64, t: f64) -> TrackPoint {
        TrackPoint {
            hours,
            lat,
            lon,
            hurricane_radius_mi: h,
            tropical_radius_mi: t,
        }
    }

    fn simple_track() -> HurricaneTrack {
        HurricaneTrack::new(
            "TEST",
            vec![
                wp(0.0, 25.0, -80.0, 30.0, 120.0),
                wp(24.0, 30.0, -85.0, 90.0, 250.0),
                wp(48.0, 35.0, -85.0, 0.0, 100.0),
            ],
        )
    }

    #[test]
    fn endpoints_are_exact() {
        let t = simple_track();
        let s0 = t.state_at(0.0);
        assert!((s0.center.lat() - 25.0).abs() < 1e-9);
        assert_eq!(s0.hurricane_radius_mi, 30.0);
        let s_end = t.state_at(48.0);
        assert!((s_end.center.lat() - 35.0).abs() < 1e-9);
        assert_eq!(s_end.hurricane_radius_mi, 0.0);
    }

    #[test]
    fn midpoint_interpolates() {
        let t = simple_track();
        let s = t.state_at(12.0);
        assert!((s.hurricane_radius_mi - 60.0).abs() < 1e-9);
        assert!((s.tropical_radius_mi - 185.0).abs() < 1e-9);
        assert!(s.center.lat() > 25.0 && s.center.lat() < 30.0);
    }

    #[test]
    fn out_of_window_clamps() {
        let t = simple_track();
        assert_eq!(t.state_at(-5.0), t.state_at(0.0));
        assert_eq!(t.state_at(500.0), t.state_at(48.0));
    }

    #[test]
    fn duration_is_last_waypoint() {
        assert_eq!(simple_track().duration_hours(), 48.0);
    }

    #[test]
    #[should_panic(expected = "at least two waypoints")]
    fn single_waypoint_panics() {
        let _ = HurricaneTrack::new("X", vec![wp(0.0, 25.0, -80.0, 0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_hours_panic() {
        let _ = HurricaneTrack::new(
            "X",
            vec![
                wp(0.0, 25.0, -80.0, 0.0, 0.0),
                wp(0.0, 26.0, -80.0, 0.0, 0.0),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "must start at hour 0")]
    fn nonzero_start_panics() {
        let _ = HurricaneTrack::new(
            "X",
            vec![
                wp(1.0, 25.0, -80.0, 0.0, 0.0),
                wp(2.0, 26.0, -80.0, 0.0, 0.0),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "cannot exceed tropical-storm radius")]
    fn inverted_radii_panic() {
        let _ = HurricaneTrack::new(
            "X",
            vec![
                wp(0.0, 25.0, -80.0, 200.0, 100.0),
                wp(6.0, 26.0, -80.0, 0.0, 0.0),
            ],
        );
    }
}
