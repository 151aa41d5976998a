//! Validated latitude/longitude coordinates.

use std::fmt;

/// Errors produced when constructing geographic values.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// Latitude outside `[-90, 90]` or not finite.
    InvalidLatitude(f64),
    /// Longitude outside `[-180, 180]` or not finite.
    InvalidLongitude(f64),
    /// A bounding box whose south edge lies north of its north edge.
    InvertedBounds {
        /// Southern latitude supplied.
        south: f64,
        /// Northern latitude supplied.
        north: f64,
    },
    /// A grid with zero rows or columns.
    EmptyGrid,
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::InvalidLatitude(v) => {
                write!(f, "latitude {v} out of range [-90, 90] or not finite")
            }
            GeoError::InvalidLongitude(v) => {
                write!(f, "longitude {v} out of range [-180, 180] or not finite")
            }
            GeoError::InvertedBounds { south, north } => {
                write!(
                    f,
                    "bounding box south edge {south} is north of north edge {north}"
                )
            }
            GeoError::EmptyGrid => write!(f, "grid must have at least one row and one column"),
        }
    }
}

impl std::error::Error for GeoError {}

/// A point on the Earth's surface, validated on construction.
///
/// Latitude is in degrees north (`[-90, 90]`), longitude in degrees east
/// (`[-180, 180]`). Construction rejects NaN/infinite and out-of-range
/// values so the rest of the workspace never has to re-validate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Create a point from latitude and longitude in degrees.
    ///
    /// # Errors
    /// Returns [`GeoError::InvalidLatitude`] / [`GeoError::InvalidLongitude`]
    /// when a coordinate is non-finite or out of range.
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::InvalidLongitude(lon));
        }
        Ok(GeoPoint { lat, lon })
    }

    /// Latitude in degrees north.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees east.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub fn lon_rad(&self) -> f64 {
        self.lon.to_radians()
    }
}

impl riskroute_json::ToJson for GeoPoint {
    fn to_json(&self) -> riskroute_json::Json {
        use riskroute_json::Json;
        Json::obj([("lat", Json::Num(self.lat)), ("lon", Json::Num(self.lon))])
    }
}

impl riskroute_json::FromJson for GeoPoint {
    fn from_json(v: &riskroute_json::Json) -> Result<Self, riskroute_json::JsonError> {
        let lat = v.field("lat")?.as_f64()?;
        let lon = v.field("lon")?.as_f64()?;
        GeoPoint::new(lat, lon).map_err(|e| riskroute_json::JsonError::Shape(e.to_string()))
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = if self.lat >= 0.0 { 'N' } else { 'S' };
        let ew = if self.lon >= 0.0 { 'E' } else { 'W' };
        write!(f, "{:.4}{ns} {:.4}{ew}", self.lat.abs(), self.lon.abs())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn accepts_valid_coordinates() {
        let p = GeoPoint::new(35.2, -76.4).unwrap(); // Irene's center from §4.4
        assert_eq!(p.lat(), 35.2);
        assert_eq!(p.lon(), -76.4);
    }

    #[test]
    fn accepts_boundary_coordinates() {
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
        assert!(GeoPoint::new(-90.0, -180.0).is_ok());
        assert!(GeoPoint::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn rejects_out_of_range_latitude() {
        assert_eq!(
            GeoPoint::new(90.5, 0.0),
            Err(GeoError::InvalidLatitude(90.5))
        );
        assert_eq!(
            GeoPoint::new(-91.0, 0.0),
            Err(GeoError::InvalidLatitude(-91.0))
        );
    }

    #[test]
    fn rejects_out_of_range_longitude() {
        assert_eq!(
            GeoPoint::new(0.0, 181.0),
            Err(GeoError::InvalidLongitude(181.0))
        );
    }

    #[test]
    fn rejects_non_finite() {
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::INFINITY).is_err());
        assert!(GeoPoint::new(f64::NEG_INFINITY, 0.0).is_err());
    }

    #[test]
    fn display_formats_hemispheres() {
        let p = GeoPoint::new(29.76, -95.37).unwrap();
        assert_eq!(format!("{p}"), "29.7600N 95.3700W");
    }

    #[test]
    fn json_round_trip() {
        let p = GeoPoint::new(42.36, -71.06).unwrap();
        let json = riskroute_json::to_string(&p);
        let back: GeoPoint = riskroute_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
