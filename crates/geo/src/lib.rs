//! Geographic primitives for the RiskRoute reproduction.
//!
//! RiskRoute reasons about *physical* network infrastructure: Points of
//! Presence (PoPs) pinned to latitude/longitude coordinates, links whose
//! lengths are "air miles" between PoPs, disaster events located on the
//! surface of the Earth, and geo-spatial risk surfaces evaluated over the
//! continental United States. This crate provides the shared geographic
//! vocabulary for all of that:
//!
//! - [`GeoPoint`] — a validated latitude/longitude coordinate.
//! - [`distance`] — spherical geodesy: great-circle distance (haversine),
//!   bearings, destination points, great-circle sampling.
//! - [`bbox`] — axis-aligned latitude/longitude bounding boxes, including the
//!   [`bbox::CONUS`] extent used throughout the evaluation.
//! - [`grid`] — uniform lat/lon evaluation grids for density surfaces and
//!   heat maps (Figures 3–6 of the paper).
//!
//! All distances are in **miles** to match the paper's bit-*mile* metric.
//! Conversions to kilometres are provided where useful.
//!
//! # Example
//!
//! ```
//! use riskroute_geo::{GeoPoint, distance::great_circle_miles};
//!
//! let houston = GeoPoint::new(29.76, -95.37).unwrap();
//! let boston = GeoPoint::new(42.36, -71.06).unwrap();
//! let miles = great_circle_miles(houston, boston);
//! assert!((miles - 1597.0).abs() < 15.0); // ~1,600 air miles
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bbox;
pub mod distance;
pub mod grid;
pub mod point;

pub use bbox::BoundingBox;
pub use grid::GeoGrid;
pub use point::{GeoError, GeoPoint};

/// Mean Earth radius in miles (IUGG mean radius R1, 6371.0088 km).
pub const EARTH_RADIUS_MILES: f64 = 3958.7613;

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Miles per kilometre.
pub const MILES_PER_KM: f64 = 0.621_371_192_237_334;

/// Convert kilometres to miles.
#[inline]
pub fn km_to_miles(km: f64) -> f64 {
    km * MILES_PER_KM
}

/// Convert miles to kilometres.
#[inline]
pub fn miles_to_km(miles: f64) -> f64 {
    miles / MILES_PER_KM
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn unit_conversion_round_trips() {
        let km = 415.0; // Irene's tropical-storm wind radius from the paper
        let miles = km_to_miles(km);
        assert!((miles - 257.9).abs() < 0.5);
        assert!((miles_to_km(miles) - km).abs() < 1e-9);
    }

    #[test]
    fn earth_radii_are_consistent() {
        assert!((km_to_miles(EARTH_RADIUS_KM) - EARTH_RADIUS_MILES).abs() < 1e-3);
    }
}
