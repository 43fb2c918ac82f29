//! Property-based tests for the geometry primitives.

use cf_geom::{Aabb, Interval, Point2, Polygon, Triangle};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1e3..1e3f64
}

fn interval() -> impl Strategy<Value = Interval> {
    (finite_coord(), finite_coord()).prop_map(|(a, b)| Interval::new(a.min(b), a.max(b)))
}

fn aabb2() -> impl Strategy<Value = Aabb<2>> {
    (
        finite_coord(),
        finite_coord(),
        finite_coord(),
        finite_coord(),
    )
        .prop_map(|(x0, y0, x1, y1)| Aabb::new([x0.min(x1), y0.min(y1)], [x0.max(x1), y0.max(y1)]))
}

fn point2() -> impl Strategy<Value = Point2> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #[test]
    fn interval_union_contains_operands(a in interval(), b in interval()) {
        let u = a.union(b);
        prop_assert!(u.contains_interval(a));
        prop_assert!(u.contains_interval(b));
    }

    #[test]
    fn interval_intersection_symmetric_and_contained(a in interval(), b in interval()) {
        prop_assert_eq!(a.intersects(b), b.intersects(a));
        // Closed intervals meet iff the larger low end is at most the
        // smaller high end.
        prop_assert_eq!(a.intersects(b), a.lo.max(b.lo) <= a.hi.min(b.hi));
    }

    #[test]
    fn interval_normalize_round_trip(iv in interval(), t in 0.0..1.0f64) {
        prop_assume!(iv.width() > 1e-9);
        let v = iv.denormalize(t);
        prop_assert!((iv.normalize(v) - t).abs() < 1e-9);
    }

    #[test]
    fn aabb_union_monotone_volume(a in aabb2(), b in aabb2()) {
        let u = a.union(&b);
        prop_assert!(u.volume() + 1e-9 >= a.volume());
        prop_assert!(u.volume() + 1e-9 >= b.volume());
        prop_assert!(u.contains(&a) && u.contains(&b));
    }

    #[test]
    fn aabb_intersection_volume_bounded(a in aabb2(), b in aabb2()) {
        let iv = a.intersection_volume(&b);
        prop_assert!(iv >= 0.0);
        prop_assert!(iv <= a.volume() + 1e-6);
        prop_assert!(iv <= b.volume() + 1e-6);
        prop_assert_eq!(iv > 0.0, b.intersection_volume(&a) > 0.0);
    }

    #[test]
    fn aabb_enlargement_nonnegative(a in aabb2(), b in aabb2()) {
        prop_assert!(a.enlargement(&b) >= -1e-9);
        if a.contains(&b) {
            prop_assert!(a.enlargement(&b).abs() < 1e-9);
        }
    }

    #[test]
    fn barycentric_coordinates_sum_to_one(
        a in point2(), b in point2(), c in point2(), p in point2()
    ) {
        let t = Triangle::new(a, b, c);
        prop_assume!(t.area() > 1e-3);
        let l = t.barycentric(p).unwrap();
        prop_assert!((l[0] + l[1] + l[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn triangle_contains_centroid(a in point2(), b in point2(), c in point2()) {
        let t = Triangle::new(a, b, c);
        prop_assume!(t.area() > 1e-3);
        prop_assert!(t.contains(t.centroid()));
        let ct = t.centroid();
        prop_assert!(t.bbox().contains_point(&[ct.x, ct.y]));
    }

    #[test]
    fn clip_never_increases_area(
        a in point2(), b in point2(), c in point2(),
        nx in -1.0..1.0f64, ny in -1.0..1.0f64, d in -100.0..100.0f64
    ) {
        let poly: Polygon = Triangle::new(a, b, c).into();
        let clipped = poly.clip_halfplane(|p| nx * p.x + ny * p.y + d);
        prop_assert!(clipped.area() <= poly.area() + 1e-6);
    }

    #[test]
    fn clip_complement_partitions_area(
        a in point2(), b in point2(), c in point2(),
        nx in -1.0..1.0f64, ny in -1.0..1.0f64, d in -100.0..100.0f64
    ) {
        let poly: Polygon = Triangle::new(a, b, c).into();
        prop_assume!(poly.area() > 1e-3);
        let keep = |p: Point2| nx * p.x + ny * p.y + d;
        let inside = poly.clip_halfplane(keep);
        let outside = poly.clip_halfplane(|p| -keep(p));
        let total = inside.area() + outside.area();
        prop_assert!(
            (total - poly.area()).abs() < 1e-6 * poly.area().max(1.0),
            "inside={} outside={} poly={}", inside.area(), outside.area(), poly.area()
        );
    }

    #[test]
    fn circumcircle_is_equidistant(a in point2(), b in point2(), c in point2()) {
        let t = Triangle::new(a, b, c);
        prop_assume!(t.area() > 1e-2);
        if let Some((center, r2)) = t.circumcircle() {
            for v in t.vertices {
                prop_assert!((center.distance_sq(v) - r2).abs() < 1e-4 * r2.max(1.0));
            }
        }
    }
}
