//! Triangles and barycentric coordinates.
//!
//! TIN cells are triangles whose vertices carry sample values; linear
//! interpolation inside a triangle is exactly the barycentric combination
//! of its vertex values (paper §2.1: "in the 2-D TIN with a linear
//! interpolation, we take three vertices of the triangle containing the
//! given point to apply the function").

use crate::{Aabb, Point2, EPSILON};

/// A triangle in the 2-D spatial domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// The three vertices.
    pub vertices: [Point2; 3],
}

impl Triangle {
    /// Creates a triangle from three vertices (any orientation).
    #[inline]
    pub const fn new(a: Point2, b: Point2, c: Point2) -> Self {
        Self {
            vertices: [a, b, c],
        }
    }

    /// Signed area: positive for counter-clockwise vertex order.
    #[inline]
    pub fn signed_area(&self) -> f64 {
        let [a, b, c] = self.vertices;
        0.5 * a.cross(b, c)
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Centroid (the "center position of cells" used for Hilbert ordering
    /// of TIN cells in the paper).
    #[inline]
    pub fn centroid(&self) -> Point2 {
        let [a, b, c] = self.vertices;
        Point2::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)
    }

    /// Axis-aligned bounding box.
    #[inline]
    pub fn bbox(&self) -> Aabb<2> {
        Aabb::hull_of_points(&self.vertices)
    }

    /// Barycentric coordinates `(λ0, λ1, λ2)` of `p` with respect to the
    /// triangle's vertices, or `None` for a degenerate triangle.
    ///
    /// The coordinates sum to 1 and are all in `[0, 1]` iff `p` lies
    /// inside the triangle. Public for the crate's property tests.
    pub fn barycentric(&self, p: Point2) -> Option<[f64; 3]> {
        let [a, b, c] = self.vertices;
        let denom = a.cross(b, c);
        if denom.abs() < EPSILON {
            return None;
        }
        let l0 = p.cross(b, c) / denom;
        let l1 = p.cross(c, a) / denom;
        let l2 = 1.0 - l0 - l1;
        Some([l0, l1, l2])
    }

    /// Returns `true` when `p` lies inside or on the boundary of the
    /// triangle (with a small tolerance).
    pub fn contains(&self, p: Point2) -> bool {
        match self.barycentric(p) {
            Some(l) => l.iter().all(|&x| x >= -1e-9),
            None => false,
        }
    }

    /// Linear interpolation of per-vertex values at point `p`.
    ///
    /// Returns `None` for a degenerate triangle. `p` need not lie inside
    /// the triangle; the linear function is extrapolated outside.
    pub fn interpolate(&self, values: [f64; 3], p: Point2) -> Option<f64> {
        let l = self.barycentric(p)?;
        Some(l[0] * values[0] + l[1] * values[1] + l[2] * values[2])
    }

    /// The circumcircle as `(center, radius_squared)`, or `None` for a
    /// degenerate triangle. The Delaunay property tests check
    /// triangulations against it.
    pub fn circumcircle(&self) -> Option<(Point2, f64)> {
        let [a, b, c] = self.vertices;
        let d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
        if d.abs() < EPSILON {
            return None;
        }
        let a2 = a.x * a.x + a.y * a.y;
        let b2 = b.x * b.x + b.y * b.y;
        let c2 = c.x * c.x + c.y * c.y;
        let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
        let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
        let center = Point2::new(ux, uy);
        Some((center, center.distance_sq(a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_right() -> Triangle {
        Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        )
    }

    #[test]
    fn area_and_orientation() {
        let t = unit_right();
        assert!((t.area() - 0.5).abs() < 1e-12);
        assert!(t.signed_area() > 0.0); // CCW
        let flipped = Triangle::new(t.vertices[0], t.vertices[2], t.vertices[1]);
        assert!(flipped.signed_area() < 0.0);
        assert_eq!(flipped.area(), t.area());
    }

    #[test]
    fn degenerate_detection() {
        let line = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        );
        assert!(line.area() < EPSILON);
        assert_eq!(line.barycentric(Point2::new(0.5, 0.5)), None);
        assert!(unit_right().area() >= EPSILON);
    }

    #[test]
    fn barycentric_at_vertices_and_centroid() {
        let t = unit_right();
        let l = t.barycentric(t.vertices[0]).unwrap();
        assert!((l[0] - 1.0).abs() < 1e-12 && l[1].abs() < 1e-12 && l[2].abs() < 1e-12);
        let lc = t.barycentric(t.centroid()).unwrap();
        for x in lc {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn containment() {
        let t = unit_right();
        assert!(t.contains(Point2::new(0.25, 0.25)));
        assert!(t.contains(Point2::new(0.5, 0.5))); // on hypotenuse
        assert!(!t.contains(Point2::new(0.6, 0.6)));
        assert!(!t.contains(Point2::new(-0.1, 0.1)));
    }

    #[test]
    fn linear_interpolation_is_exact_for_planes() {
        // Field w(x, y) = 3 + 2x − y is linear, so barycentric
        // interpolation must reproduce it anywhere.
        let w = |p: Point2| 3.0 + 2.0 * p.x - p.y;
        let t = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.5),
            Point2::new(0.5, 3.0),
        );
        let vals = [w(t.vertices[0]), w(t.vertices[1]), w(t.vertices[2])];
        for p in [
            Point2::new(0.8, 0.9),
            t.centroid(),
            Point2::new(5.0, -2.0), // extrapolation
        ] {
            let got = t.interpolate(vals, p).unwrap();
            assert!((got - w(p)).abs() < 1e-10, "at {p}: {got} vs {}", w(p));
        }
    }

    #[test]
    fn circumcircle_passes_through_vertices() {
        let t = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 0.0),
            Point2::new(1.0, 3.0),
        );
        let (c, r2) = t.circumcircle().unwrap();
        for v in t.vertices {
            assert!((c.distance_sq(v) - r2).abs() < 1e-9);
        }
    }

    #[test]
    fn bbox_covers_vertices() {
        let t = unit_right();
        let b = t.bbox();
        assert_eq!(b, Aabb::new([0.0, 0.0], [1.0, 1.0]));
    }
}
