//! Axis-aligned latitude/longitude bounding boxes.

use crate::{GeoError, GeoPoint};

/// An axis-aligned box in latitude/longitude space.
///
/// The RiskRoute evaluation is confined to the continental United States, so
/// boxes never straddle the antimeridian; construction enforces
/// `west <= east` implicitly through [`GeoPoint`] validation and ordered
/// corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    south: f64,
    west: f64,
    north: f64,
    east: f64,
}

/// The continental United States extent used throughout the evaluation
/// (matches the map extents of Figures 1, 3–6 in the paper).
pub const CONUS: BoundingBox = BoundingBox {
    south: 24.5,
    west: -125.0,
    north: 49.5,
    east: -66.9,
};

impl BoundingBox {
    /// Create a box from its south-west and north-east corners (degrees).
    ///
    /// # Errors
    /// Rejects non-finite/out-of-range coordinates and inverted extents.
    pub fn new(south: f64, west: f64, north: f64, east: f64) -> Result<Self, GeoError> {
        // Reuse point validation for range checks.
        GeoPoint::new(south, west)?;
        GeoPoint::new(north, east)?;
        if south > north {
            return Err(GeoError::InvertedBounds { south, north });
        }
        if west > east {
            return Err(GeoError::InvertedBounds {
                south: west,
                north: east,
            });
        }
        Ok(BoundingBox {
            south,
            west,
            north,
            east,
        })
    }

    /// The smallest box containing every point in `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn enclosing(points: &[GeoPoint]) -> Option<Self> {
        let first = points.first()?;
        let mut bb = BoundingBox {
            south: first.lat(),
            north: first.lat(),
            west: first.lon(),
            east: first.lon(),
        };
        for p in &points[1..] {
            bb.south = bb.south.min(p.lat());
            bb.north = bb.north.max(p.lat());
            bb.west = bb.west.min(p.lon());
            bb.east = bb.east.max(p.lon());
        }
        Some(bb)
    }

    /// Southern edge latitude.
    pub fn south(&self) -> f64 {
        self.south
    }
    /// Northern edge latitude.
    pub fn north(&self) -> f64 {
        self.north
    }
    /// Western edge longitude.
    pub fn west(&self) -> f64 {
        self.west
    }
    /// Eastern edge longitude.
    pub fn east(&self) -> f64 {
        self.east
    }

    /// Latitude span in degrees.
    pub fn lat_span(&self) -> f64 {
        self.north - self.south
    }

    /// Longitude span in degrees.
    pub fn lon_span(&self) -> f64 {
        self.east - self.west
    }

    /// Whether `p` lies inside the box (edges inclusive).
    pub fn contains(&self, p: GeoPoint) -> bool {
        p.lat() >= self.south
            && p.lat() <= self.north
            && p.lon() >= self.west
            && p.lon() <= self.east
    }

    /// The box's center point.
    pub fn center(&self) -> GeoPoint {
        match GeoPoint::new(
            (self.south + self.north) / 2.0,
            (self.west + self.east) / 2.0,
        ) {
            Ok(p) => p,
            // Midpoints of in-range coordinates are in range.
            Err(_) => unreachable!("center of valid box is valid"),
        }
    }

    /// Expand every edge outward by `degrees` (clamped to valid ranges).
    pub fn expanded(&self, degrees: f64) -> BoundingBox {
        BoundingBox {
            south: (self.south - degrees).max(-90.0),
            north: (self.north + degrees).min(90.0),
            west: (self.west - degrees).max(-180.0),
            east: (self.east + degrees).min(180.0),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn conus_is_valid_and_contains_madison() {
        let madison = GeoPoint::new(43.07, -89.4).unwrap();
        assert!(CONUS.contains(madison));
        assert!(CONUS.lat_span() > 0.0 && CONUS.lon_span() > 0.0);
    }

    #[test]
    fn conus_excludes_honolulu_and_london() {
        assert!(!CONUS.contains(GeoPoint::new(21.3, -157.85).unwrap()));
        assert!(!CONUS.contains(GeoPoint::new(51.5, -0.1).unwrap()));
    }

    #[test]
    fn rejects_inverted_bounds() {
        assert!(BoundingBox::new(40.0, -100.0, 30.0, -90.0).is_err());
        assert!(BoundingBox::new(30.0, -90.0, 40.0, -100.0).is_err());
    }

    #[test]
    fn enclosing_empty_is_none() {
        assert!(BoundingBox::enclosing(&[]).is_none());
    }

    #[test]
    fn enclosing_single_point_is_degenerate_box() {
        let p = GeoPoint::new(33.0, -97.0).unwrap();
        let bb = BoundingBox::enclosing(&[p]).unwrap();
        assert_eq!(bb.lat_span(), 0.0);
        assert_eq!(bb.lon_span(), 0.0);
        assert!(bb.contains(p));
    }

    #[test]
    fn enclosing_covers_all_points() {
        let pts: Vec<GeoPoint> = [(29.76, -95.37), (42.36, -71.06), (47.6, -122.33)]
            .iter()
            .map(|&(a, b)| GeoPoint::new(a, b).unwrap())
            .collect();
        let bb = BoundingBox::enclosing(&pts).unwrap();
        for p in &pts {
            assert!(bb.contains(*p));
        }
        assert!((bb.south() - 29.76).abs() < 1e-12);
        assert!((bb.east() + 71.06).abs() < 1e-12);
    }

    #[test]
    fn edges_are_inclusive() {
        let bb = BoundingBox::new(30.0, -100.0, 40.0, -90.0).unwrap();
        assert!(bb.contains(GeoPoint::new(30.0, -100.0).unwrap()));
        assert!(bb.contains(GeoPoint::new(40.0, -90.0).unwrap()));
    }

    #[test]
    fn expanded_grows_and_clamps() {
        let bb = BoundingBox::new(-89.0, -179.0, 89.0, 179.0).unwrap();
        let big = bb.expanded(5.0);
        assert_eq!(big.south(), -90.0);
        assert_eq!(big.north(), 90.0);
        assert_eq!(big.west(), -180.0);
        assert_eq!(big.east(), 180.0);
    }

    #[test]
    fn center_is_inside() {
        let bb = CONUS;
        assert!(bb.contains(bb.center()));
    }
}
