//! Planar geography: points, distances and bounding boxes.
//!
//! Trace coordinates are WGS-84 latitude/longitude degrees. Distances use
//! the equirectangular approximation, which is accurate to well under 0.1%
//! at city scale (the San Francisco box of Fig. 8 spans ~45 km) and an
//! order of magnitude cheaper than the haversine formula inside the
//! nearest-tower hot loop; [`GeoPoint::haversine_m`] is provided for
//! exactness-sensitive callers and is cross-checked in tests.

use crate::{MobilityError, Result};
use rand::Rng;

/// Mean Earth radius in meters.
pub const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// A WGS-84 coordinate (degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude/longitude degrees.
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Equirectangular distance in meters — the workhorse metric.
    pub fn distance_m(&self, other: &GeoPoint) -> f64 {
        let lat_mid = 0.5 * (self.lat + other.lat).to_radians();
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians() * lat_mid.cos();
        EARTH_RADIUS_M * (dlat * dlat + dlon * dlon).sqrt()
    }

    /// Haversine (great-circle) distance in meters.
    pub fn haversine_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lat2) = (self.lat.to_radians(), other.lat.to_radians());
        let dlat = lat2 - lat1;
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Linear interpolation between two points at fraction `t ∈ [0, 1]`.
    ///
    /// Component-wise interpolation is exact enough at city scale; this is
    /// what the paper's trace regularization does implicitly.
    pub fn lerp(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        GeoPoint {
            lat: self.lat + (other.lat - self.lat) * t,
            lon: self.lon + (other.lon - self.lon) * t,
        }
    }
}

/// An axis-aligned latitude/longitude box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Southern edge (degrees).
    pub min_lat: f64,
    /// Northern edge (degrees).
    pub max_lat: f64,
    /// Western edge (degrees).
    pub min_lon: f64,
    /// Eastern edge (degrees).
    pub max_lon: f64,
}

impl BoundingBox {
    /// Creates a box, validating that it is non-empty.
    ///
    /// # Errors
    ///
    /// Returns an error when an edge pair is inverted or non-finite.
    pub fn new(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> Result<Self> {
        let all = [min_lat, max_lat, min_lon, max_lon];
        if all.iter().any(|v| !v.is_finite()) {
            return Err(MobilityError::InvalidBoundingBox {
                reason: "non-finite edge".into(),
            });
        }
        if min_lat >= max_lat || min_lon >= max_lon {
            return Err(MobilityError::InvalidBoundingBox {
                reason: format!(
                    "inverted edges: lat {min_lat}..{max_lat}, lon {min_lon}..{max_lon}"
                ),
            });
        }
        Ok(BoundingBox {
            min_lat,
            max_lat,
            min_lon,
            max_lon,
        })
    }

    /// The San Francisco box used in Fig. 8 of the paper
    /// (lon −122.6..−122.1, lat 37.55..37.95).
    pub fn san_francisco() -> Self {
        BoundingBox {
            min_lat: 37.55,
            max_lat: 37.95,
            min_lon: -122.6,
            max_lon: -122.1,
        }
    }

    /// Whether the point lies inside (inclusive).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// The center of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint {
            lat: 0.5 * (self.min_lat + self.max_lat),
            lon: 0.5 * (self.min_lon + self.max_lon),
        }
    }

    /// Samples a point uniformly in the box.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> GeoPoint {
        GeoPoint {
            lat: rng.random_range(self.min_lat..self.max_lat),
            lon: rng.random_range(self.min_lon..self.max_lon),
        }
    }

    /// Clamps a point into the box.
    pub fn clamp(&self, p: &GeoPoint) -> GeoPoint {
        GeoPoint {
            lat: p.lat.clamp(self.min_lat, self.max_lat),
            lon: p.lon.clamp(self.min_lon, self.max_lon),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn equirectangular_close_to_haversine_at_city_scale() {
        let a = GeoPoint::new(37.7749, -122.4194); // SF downtown
        let b = GeoPoint::new(37.8044, -122.2712); // Oakland
        let eq = a.distance_m(&b);
        let hv = a.haversine_m(&b);
        assert!((eq - hv).abs() / hv < 1e-3, "eq={eq}, hv={hv}");
        // Sanity: roughly 13-14 km.
        assert!((12_000.0..15_000.0).contains(&hv), "hv={hv}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = GeoPoint::new(37.6, -122.4);
        let b = GeoPoint::new(37.7, -122.3);
        assert_eq!(a.distance_m(&a), 0.0);
        assert!((a.distance_m(&b) - b.distance_m(&a)).abs() < 1e-9);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = GeoPoint::new(37.0, -122.0);
        let b = GeoPoint::new(38.0, -121.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.lat - 37.5).abs() < 1e-12);
        assert!((mid.lon + 121.5).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_validation() {
        assert!(BoundingBox::new(38.0, 37.0, -122.0, -121.0).is_err());
        assert!(BoundingBox::new(37.0, 38.0, -121.0, -122.0).is_err());
        assert!(BoundingBox::new(f64::NAN, 38.0, -122.0, -121.0).is_err());
        assert!(BoundingBox::new(37.0, 38.0, -122.0, -121.0).is_ok());
    }

    #[test]
    fn san_francisco_box_matches_figure_8() {
        let sf = BoundingBox::san_francisco();
        assert!(sf.contains(&GeoPoint::new(37.7749, -122.4194)));
        assert!(!sf.contains(&GeoPoint::new(40.7, -74.0))); // NYC
    }

    #[test]
    fn sampling_stays_in_the_box() {
        let sf = BoundingBox::san_francisco();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            assert!(sf.contains(&sf.sample(&mut rng)));
        }
    }

    #[test]
    fn clamp_pulls_points_inside() {
        let sf = BoundingBox::san_francisco();
        let outside = GeoPoint::new(39.0, -123.0);
        let clamped = sf.clamp(&outside);
        assert!(sf.contains(&clamped));
        assert_eq!(clamped.lat, sf.max_lat);
        assert_eq!(clamped.lon, sf.min_lon);
    }
}
