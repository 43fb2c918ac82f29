//! 2-D points in the spatial domain of a field.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point in the 2-D spatial domain of a field.
///
/// Fields in the EDBT 2002 paper are functions over a spatial domain;
/// every workload in this workspace uses a 2-D domain (terrain DEMs and
/// urban-noise TINs), so the spatial point type is fixed at two
/// dimensions. Value-domain geometry is handled separately by
/// [`Interval`](crate::Interval) / [`Aabb`](crate::Aabb).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Cheaper than [`Point2::distance`]; use when only comparisons are
    /// needed (e.g. circumcircle tests).
    #[inline]
    pub fn distance_sq(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// 2-D cross product `(b - self) × (c - self)`.
    ///
    /// Positive when `self → b → c` turns counter-clockwise; this is the
    /// orientation predicate used by the Delaunay triangulator and the
    /// polygon clipper.
    #[inline]
    pub fn cross(self, b: Point2, c: Point2) -> f64 {
        (b.x - self.x) * (c.y - self.y) - (b.y - self.y) * (c.x - self.x)
    }

    /// Linear interpolation between `self` (at `t = 0`) and `other`
    /// (at `t = 1`).
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, rhs: f64) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl From<(f64, f64)> for Point2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn cross_sign_encodes_orientation() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let ccw = Point2::new(0.0, 1.0);
        let cw = Point2::new(0.0, -1.0);
        assert!(a.cross(b, ccw) > 0.0);
        assert!(a.cross(b, cw) < 0.0);
        let collinear = Point2::new(2.0, 0.0);
        assert_eq!(a.cross(b, collinear), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(2.0, 4.0));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(0.5, -1.0);
        assert_eq!(a + b, Point2::new(1.5, 1.0));
        assert_eq!(a - b, Point2::new(0.5, 3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
    }

    #[test]
    fn finiteness_check() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
        assert!(!Point2::new(0.0, f64::INFINITY).is_finite());
    }
}
