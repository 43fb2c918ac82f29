//! Simple polygons and half-plane clipping.
//!
//! The estimation step of a field value query (paper §3.2, algorithm
//! `Estimate`) computes the *exact* answer regions: the sub-region of each
//! candidate cell where the interpolated value lies inside the query
//! interval. With linear interpolation that region is the cell clipped by
//! two half-planes (`w ≥ a` and `w ≤ b`), which Sutherland–Hodgman
//! clipping computes exactly.
//!
//! The shoelace formula ([`signed_area`]) and the clip step
//! ([`clip_halfplane_into`]) are each written once, over a vertex slice,
//! so the estimation step can run them on stack buffers; [`Polygon`]'s
//! methods are thin wrappers over the same two bodies.

use crate::{Aabb, Point2};

/// Signed area of the polygon whose vertices are `vs` in boundary order,
/// by the shoelace formula (positive for CCW order); 0 below three
/// vertices.
pub fn signed_area(vs: &[Point2]) -> f64 {
    let n = vs.len();
    if n < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        let p = vs[i];
        let q = vs[(i + 1) % n];
        acc += p.x * q.y - q.x * p.y;
    }
    0.5 * acc
}

/// One Sutherland–Hodgman step: clips the polygon `vs` against the
/// half-plane `{p : keep(p) >= 0}`, writes the result to the front of
/// `out` and returns its vertex count.
///
/// `keep` must be an *affine* function of position (a linear field plus a
/// constant); intersection points on edges are then computed exactly by
/// linear interpolation of `keep` values. This is precisely the situation
/// of the estimation step: for a linearly-interpolated cell the functions
/// `w(p) − a` and `b − w(p)` are affine.
///
/// Each input vertex emits at most two points (itself and one edge
/// crossing), so `out` must hold `2 * vs.len()` points.
///
/// # Panics
///
/// Panics if `out` is too short for the points the step emits.
pub fn clip_halfplane_into(
    vs: &[Point2],
    keep: impl Fn(Point2) -> f64,
    out: &mut [Point2],
) -> usize {
    let n = vs.len();
    let mut len = 0;
    for i in 0..n {
        let cur = vs[i];
        let next = vs[(i + 1) % n];
        let kc = keep(cur);
        let kn = keep(next);
        if kc >= 0.0 {
            out[len] = cur;
            len += 1;
        }
        // Edge crosses the boundary: emit the intersection point.
        if (kc > 0.0 && kn < 0.0) || (kc < 0.0 && kn > 0.0) {
            let t = kc / (kc - kn);
            out[len] = cur.lerp(next, t);
            len += 1;
        }
    }
    len
}

/// A simple polygon given by its vertices in order (either orientation).
///
/// An empty vertex list represents the empty region; polygons with fewer
/// than three vertices have zero area.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polygon {
    /// Vertices in boundary order.
    pub vertices: Vec<Point2>,
}

impl Polygon {
    /// Creates a polygon from vertices in boundary order.
    pub fn new(vertices: Vec<Point2>) -> Self {
        Self { vertices }
    }

    /// The empty polygon.
    pub fn empty() -> Self {
        Self {
            vertices: Vec::new(),
        }
    }

    /// Returns `true` when the polygon has no area-bearing boundary.
    pub fn is_empty(&self) -> bool {
        self.vertices.len() < 3
    }

    /// Signed area by the shoelace formula (positive for CCW order).
    pub fn signed_area(&self) -> f64 {
        signed_area(&self.vertices)
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Centroid of the polygon (area-weighted), or `None` if the polygon
    /// has no area.
    pub fn centroid(&self) -> Option<Point2> {
        let a = self.signed_area();
        if a.abs() < 1e-300 {
            return None;
        }
        let n = self.vertices.len();
        let (mut cx, mut cy) = (0.0, 0.0);
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Some(Point2::new(cx / (6.0 * a), cy / (6.0 * a)))
    }

    /// Axis-aligned bounding box of the polygon.
    pub fn bbox(&self) -> Aabb<2> {
        Aabb::hull_of_points(&self.vertices)
    }

    /// Clips the polygon to the half-plane `{p : keep(p) >= 0}` where
    /// `keep` is an affine function of position: Sutherland–Hodgman
    /// ([`clip_halfplane_into`]) into a new polygon.
    pub fn clip_halfplane(&self, keep: impl Fn(Point2) -> f64) -> Polygon {
        let mut out = vec![Point2::ORIGIN; 2 * self.vertices.len()];
        let len = clip_halfplane_into(&self.vertices, keep, &mut out);
        out.truncate(len);
        Polygon::new(out)
    }
}

impl From<crate::Triangle> for Polygon {
    fn from(t: crate::Triangle) -> Self {
        Polygon::new(t.vertices.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triangle;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ])
    }

    #[test]
    fn shoelace_area() {
        assert!((unit_square().area() - 1.0).abs() < 1e-12);
        assert!(unit_square().signed_area() > 0.0);
        let t: Polygon = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(0.0, 2.0),
        )
        .into();
        assert!((t.area() - 2.0).abs() < 1e-12);
        assert_eq!(Polygon::empty().area(), 0.0);
    }

    #[test]
    fn centroid_of_square() {
        let c = unit_square().centroid().unwrap();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
        assert_eq!(Polygon::empty().centroid(), None);
    }

    #[test]
    fn clip_keeps_half_of_square() {
        // Keep x >= 0.5.
        let clipped = unit_square().clip_halfplane(|p| p.x - 0.5);
        assert!((clipped.area() - 0.5).abs() < 1e-12);
        for v in &clipped.vertices {
            assert!(v.x >= 0.5 - 1e-12);
        }
    }

    #[test]
    fn clip_fully_inside_and_outside() {
        let sq = unit_square();
        let all = sq.clip_halfplane(|p| p.x + 10.0);
        assert!((all.area() - 1.0).abs() < 1e-12);
        let none = sq.clip_halfplane(|p| -p.x - 10.0);
        assert!(none.is_empty());
    }

    #[test]
    fn clip_with_affine_field_band() {
        // Field w(x, y) = x + y over the unit square; the band
        // 0.5 <= w <= 1.5 removes two corner triangles of area 1/8 each.
        let sq = unit_square();
        let band = sq
            .clip_halfplane(|p| (p.x + p.y) - 0.5)
            .clip_halfplane(|p| 1.5 - (p.x + p.y));
        assert!((band.area() - 0.75).abs() < 1e-12, "area={}", band.area());
    }

    #[test]
    fn clip_boundary_vertices_are_kept() {
        // A vertex exactly on the boundary (keep == 0) is retained once.
        let tri: Polygon = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        )
        .into();
        let clipped = tri.clip_halfplane(|p| p.y); // keep y >= 0: whole triangle
        assert!((clipped.area() - tri.area()).abs() < 1e-12);
        assert_eq!(clipped.vertices.len(), 3);
    }

    #[test]
    fn bbox_of_polygon() {
        let b = unit_square().bbox();
        assert_eq!(b, Aabb::new([0.0, 0.0], [1.0, 1.0]));
    }
}
