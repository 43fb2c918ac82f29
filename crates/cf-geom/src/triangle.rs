//! Triangles and barycentric coordinates.
//!
//! TIN cells are triangles whose vertices carry sample values; linear
//! interpolation inside a triangle is exactly the barycentric combination
//! of its vertex values (paper §2.1: "in the 2-D TIN with a linear
//! interpolation, we take three vertices of the triangle containing the
//! given point to apply the function").

use crate::{Aabb, Point2, EPSILON};

/// How far below 0 [`Triangle::contains`] lets a coordinate go.
const TOLERANCE: f64 = 1e-9;

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
            Some(l) => l.iter().all(|&x| x >= -TOLERANCE),
            None => false,
        }
    }

    /// A box holding every point [`Triangle::contains`] accepts: the
    /// vertices' box, widened by the tolerance and by a bound on the
    /// rounding error, which grows as the triangle flattens.
    #[inline]
    pub fn contains_bbox(&self) -> Aabb<2> {
        let [a, b, c] = self.vertices;
        let denom = a.cross(b, c).abs();
        if denom.is_nan() || denom < EPSILON {
            return Aabb::EMPTY;
        }
        // No coordinate is NaN here: plain compares, not `f64::min`.
        let (min, max) = (
            |x: f64, y: f64| if y < x { y } else { x },
            |x: f64, y: f64| if y > x { y } else { x },
        );
        let lo = [min(min(a.x, b.x), c.x), min(min(a.y, b.y), c.y)];
        let hi = [max(max(a.x, b.x), c.x), max(max(a.y, b.y), c.y)];
        let w = max(hi[0] - lo[0], hi[1] - lo[1]);
        // A coordinate of `-t` lies at most `3 t w` outside the box, and
        // near it the coordinates err by under `256 u w² / denom`.
        let pad = 2.0 * w * (3.0 * TOLERANCE + 256.0 * f64::EPSILON * w * w / denom);
        Aabb {
            lo: [lo[0] - pad, lo[1] - pad],
            hi: [hi[0] + pad, hi[1] + pad],
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
    fn contains_bbox_holds_every_contained_point() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut near_misses = 0;
        for round in 0..4000 {
            // Offsets up to 1e6 and sizes down to 1e-4, and every
            // fourth triangle a sliver whose third vertex sits almost
            // on the line through the other two.
            let off = Point2::new(rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6));
            let size = 10f64.powf(rng.gen_range(-4.0..1.0));
            let mut v = [Point2::new(0.0, 0.0); 3];
            for p in &mut v {
                *p = Point2::new(
                    off.x + rng.gen_range(0.0..size),
                    off.y + rng.gen_range(0.0..size),
                );
            }
            if round % 4 == 0 {
                let t = rng.gen_range(0.0..1.0);
                let lift = size * 10f64.powf(rng.gen_range(-9.0..-3.0));
                v[2] = Point2::new(
                    v[0].x + t * (v[1].x - v[0].x) - lift,
                    v[0].y + t * (v[1].y - v[0].y) + lift,
                );
            }
            let tri = Triangle::new(v[0], v[1], v[2]);
            let bbox = tri.contains_bbox();
            let plain = Aabb::hull_of_points(&v);
            // Probe just outside every vertex and edge, at steps from
            // one rounding unit up to the tolerance and beyond.
            for i in 0..3 {
                let (p, q) = (v[i], v[(i + 1) % 3]);
                let s: f64 = rng.gen_range(0.0..1.0);
                let on_edge = Point2::new(p.x + s * (q.x - p.x), p.y + s * (q.y - p.y));
                for base in [p, on_edge] {
                    for _ in 0..8 {
                        let step = size * 10f64.powf(rng.gen_range(-17.0..-6.0));
                        let probe = Point2::new(
                            base.x + step * rng.gen_range(-1.0..1.0),
                            base.y + step * rng.gen_range(-1.0..1.0),
                        );
                        if tri.contains(probe) {
                            assert!(
                                bbox.contains_point(&[probe.x, probe.y]),
                                "round {round}: {probe} escapes {bbox:?}"
                            );
                            near_misses += usize::from(!plain.contains_point(&[probe.x, probe.y]));
                        }
                    }
                }
            }
        }
        // The tolerance really does accept points outside the plain box.
        assert!(near_misses > 0);
        let line = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        );
        assert_eq!(line.contains_bbox(), Aabb::EMPTY);
        let [_, b, c] = unit_right().vertices;
        let nan = Triangle::new(Point2::new(f64::NAN, 0.0), b, c);
        assert_eq!(nan.contains_bbox(), Aabb::EMPTY);
        // Infinite corners contain nothing either, and must not panic.
        let inf = Triangle::new(Point2::new(f64::INFINITY, 0.0), b, c);
        assert!(!inf.contains(Point2::new(0.5, 0.5)));
        let _ = inf.contains_bbox();
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
        let b = unit_right().contains_bbox();
        assert!(b.contains(&Aabb::new([0.0, 0.0], [1.0, 1.0])));
        assert!(!b.contains_point(&[1.0, 1.0 + 1e-6]));
    }
}
