//! The estimation step: exact answer regions of field value queries.
//!
//! Paper §3.2, algorithm `Estimate`: after the filtering step retrieves
//! candidate cells, "estimate the exact answer regions corresponding to
//! `w` with retrieved sample points". With linear interpolation the
//! interpolant over a triangle is an affine function `w(x, y)`, so the
//! region where `a ≤ w ≤ b` is the triangle clipped by two half-planes —
//! computable exactly with Sutherland–Hodgman.

use cf_geom::{clip_halfplane_into, Point2, Triangle, EPSILON};

/// Coefficients of the affine interpolant `w(x, y) = gx·x + gy·y + c`
/// over a triangle with given vertex values.
///
/// Returns `None` for a degenerate (zero-area) triangle.
pub fn plane_coefficients(tri: &Triangle, values: [f64; 3]) -> Option<(f64, f64, f64)> {
    let [p0, p1, p2] = tri.vertices;
    let det = (p1.x - p0.x) * (p2.y - p0.y) - (p2.x - p0.x) * (p1.y - p0.y);
    if det.abs() < EPSILON {
        return None;
    }
    let dv1 = values[1] - values[0];
    let dv2 = values[2] - values[0];
    let gx = (dv1 * (p2.y - p0.y) - dv2 * (p1.y - p0.y)) / det;
    let gy = (dv2 * (p1.x - p0.x) - dv1 * (p2.x - p0.x)) / det;
    let c = values[0] - gx * p0.x - gy * p0.y;
    Some((gx, gy, c))
}

/// Lane width of the portable SIMD-style band kernel (8 × f64 = one
/// cache line).
pub const LANE: usize = 8;

/// Branchless band classification over one lane of interpolant values:
/// returns `(below, above, inside)` bit masks where lane `i` sets bit
/// `i` of `below` when `w[i] - lo < 0` (the first clip half-plane drops
/// it), of `above` when `hi - w[i] < 0` (the second clip drops it), and
/// of `inside` when both clips keep it. The comparisons are exactly the
/// signed-distance tests Sutherland–Hodgman applies, so an
/// all-below/all-above lane proves the clipped region empty and an
/// all-inside lane proves the clip is the identity — no epsilon is
/// involved. NaN values set no bit (they fall through to the exact
/// clip).
#[inline]
fn band_masks_x8(w: &[f64; LANE], lo: f64, hi: f64) -> (u8, u8, u8) {
    let mut below = 0u8;
    let mut above = 0u8;
    let mut inside = 0u8;
    for (i, &wi) in w.iter().enumerate() {
        let d_lo = wi - lo;
        let d_hi = hi - wi;
        below |= u8::from(d_lo < 0.0) << i;
        above |= u8::from(d_hi < 0.0) << i;
        inside |= u8::from(d_lo >= 0.0 && d_hi >= 0.0) << i;
    }
    (below, above, inside)
}

/// Most points a triangle's band region can have. Each clip step emits
/// at most two points per input vertex, so the two clips of
/// [`triangle_band`] take 3 vertices to at most 6, then to at most 12.
const BAND_REGION_MAX_POINTS: usize = 3 * 2 * 2;

/// The sub-region of `tri` where the linear interpolant of `values` lies
/// in `[lo, hi]`, passed to `visit` as its vertices in boundary order.
///
/// `visit` runs once when the region has at least three vertices and not
/// at all otherwise (an empty or degenerate region, or a degenerate
/// triangle). The vertices live in a stack buffer: nothing is allocated.
///
/// The common cases — triangle entirely outside or entirely inside the
/// band — are resolved by `band_masks_x8` over the vertex interpolant
/// values without running the clipper; because the masks use the exact
/// signed distances the clip would test, the result is bit-identical to
/// the full Sutherland–Hodgman path, which is the two
/// [`cf_geom::Polygon::clip_halfplane`] steps run in place.
pub fn triangle_band(
    tri: &Triangle,
    values: [f64; 3],
    lo: f64,
    hi: f64,
    visit: &mut impl FnMut(&[Point2]),
) {
    debug_assert!(lo <= hi, "inverted band [{lo}, {hi}]");
    let Some((gx, gy, c)) = plane_coefficients(tri, values) else {
        return;
    };
    let w = move |p: Point2| gx * p.x + gy * p.y + c;

    // Fast classification over the vertex lane. Padding lanes carry lo
    // (in-band, neither below nor above), so only the valid mask gates
    // the three all-lane tests.
    const VALID: u8 = 0b0000_0111;
    let mut ws = [lo; LANE];
    for (slot, p) in ws.iter_mut().zip(tri.vertices) {
        *slot = w(p);
    }
    let (below, above, inside) = band_masks_x8(&ws, lo, hi);
    if below & VALID == VALID || above & VALID == VALID {
        // Every vertex is dropped by one of the two half-plane clips:
        // the clipped region is empty.
        return;
    }
    if inside & VALID == VALID {
        // Both clips keep every vertex: Sutherland–Hodgman emits the
        // input polygon unchanged.
        visit(&tri.vertices);
        return;
    }

    let mut first = [Point2::ORIGIN; BAND_REGION_MAX_POINTS / 2];
    let n = clip_halfplane_into(&tri.vertices, |p| w(p) - lo, &mut first);
    let mut second = [Point2::ORIGIN; BAND_REGION_MAX_POINTS];
    let n = clip_halfplane_into(&first[..n], |p| hi - w(p), &mut second);
    if n >= 3 {
        visit(&second[..n]);
    }
}

/// The visitor's region as a polygon, empty when it emits nothing;
/// checks that it emits at most once.
#[cfg(test)]
fn band_polygon(tri: &Triangle, values: [f64; 3], lo: f64, hi: f64) -> cf_geom::Polygon {
    let mut regions = Vec::new();
    triangle_band(tri, values, lo, hi, &mut |vs| regions.push(vs.to_vec()));
    assert!(regions.len() <= 1, "one triangle, one region");
    cf_geom::Polygon::new(regions.pop().unwrap_or_default())
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
    fn plane_reconstruction_is_exact() {
        let tri = Triangle::new(
            Point2::new(0.5, 0.5),
            Point2::new(3.0, 1.0),
            Point2::new(1.0, 4.0),
        );
        let f = |p: Point2| 2.0 - 3.0 * p.x + 0.5 * p.y;
        let vals = [f(tri.vertices[0]), f(tri.vertices[1]), f(tri.vertices[2])];
        let (gx, gy, c) = plane_coefficients(&tri, vals).unwrap();
        assert!((gx + 3.0).abs() < 1e-10);
        assert!((gy - 0.5).abs() < 1e-10);
        assert!((c - 2.0).abs() < 1e-10);
    }

    #[test]
    fn degenerate_triangle_yields_empty() {
        let tri = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        );
        assert!(plane_coefficients(&tri, [0.0, 1.0, 2.0]).is_none());
        assert!(band_polygon(&tri, [0.0, 1.0, 2.0], 0.0, 1.0).is_empty());
    }

    #[test]
    fn full_band_returns_whole_triangle() {
        let tri = unit_right();
        let region = band_polygon(&tri, [1.0, 2.0, 3.0], 0.0, 10.0);
        assert!((region.area() - tri.area()).abs() < 1e-12);
    }

    #[test]
    fn empty_band_returns_nothing() {
        let tri = unit_right();
        let region = band_polygon(&tri, [1.0, 2.0, 3.0], 5.0, 10.0);
        assert!(region.is_empty() || region.area() < 1e-12);
    }

    #[test]
    fn half_band_area_on_unit_triangle() {
        // w(x, y) = x over the unit right triangle; region where
        // w <= 0.5 is the triangle minus the similar triangle scaled by
        // 0.5 at the right corner: area = 0.5 - 0.5·0.25 = 0.375.
        let tri = unit_right();
        let region = band_polygon(&tri, [0.0, 1.0, 0.0], -1.0, 0.5);
        assert!(
            (region.area() - 0.375).abs() < 1e-12,
            "area {}",
            region.area()
        );
    }

    #[test]
    fn band_region_values_are_in_band() {
        let tri = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 1.0),
            Point2::new(1.0, 3.0),
        );
        let vals = [10.0, 30.0, 20.0];
        let (gx, gy, c) = plane_coefficients(&tri, vals).unwrap();
        let region = band_polygon(&tri, vals, 15.0, 22.0);
        assert!(!region.is_empty());
        for v in &region.vertices {
            let w = gx * v.x + gy * v.y + c;
            assert!(
                (15.0 - 1e-9..=22.0 + 1e-9).contains(&w),
                "vertex {v} has value {w}"
            );
        }
        // Band vertices also stay inside the triangle.
        for v in &region.vertices {
            assert!(tri.contains(*v));
        }
    }

    #[test]
    fn bands_partition_triangle_area() {
        // Partition the value range into disjoint bands; region areas
        // must sum to the whole triangle.
        let tri = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(5.0, 0.5),
            Point2::new(2.0, 4.0),
        );
        let vals = [0.0, 7.0, 13.0];
        let cuts = [0.0, 2.0, 5.0, 9.0, 13.0];
        let mut total = 0.0;
        for w in cuts.windows(2) {
            total += band_polygon(&tri, vals, w[0], w[1]).area();
        }
        assert!(
            (total - tri.area()).abs() < 1e-9,
            "{total} vs {}",
            tri.area()
        );
    }

    #[test]
    fn constant_triangle_in_or_out() {
        let tri = unit_right();
        let inside = band_polygon(&tri, [5.0, 5.0, 5.0], 4.0, 6.0);
        assert!((inside.area() - tri.area()).abs() < 1e-12);
        let outside = band_polygon(&tri, [5.0, 5.0, 5.0], 6.0, 7.0);
        assert!(outside.is_empty() || outside.area() < 1e-12);
    }

    #[test]
    fn band_masks_handle_nan_and_boundaries() {
        let ws = [
            -1.0,
            0.0, // exactly lo: kept by the first clip
            0.5,
            1.0, // exactly hi: kept by the second clip
            2.0,
            f64::NAN, // sets no bit anywhere
            f64::NEG_INFINITY,
            f64::INFINITY,
        ];
        let (below, above, inside) = band_masks_x8(&ws, 0.0, 1.0);
        assert_eq!(below, 0b0100_0001);
        assert_eq!(above, 0b1001_0000);
        assert_eq!(inside, 0b0000_1110);
        // The three masks partition the non-NaN lanes.
        assert_eq!(below | above | inside, 0b1101_1111);
        assert_eq!(below & above, 0);
        assert_eq!(below & inside, 0);
    }
}

#[cfg(test)]
mod kernel_props {
    use super::*;
    use cf_geom::Polygon;
    use proptest::prelude::*;

    /// Lane values that exercise the interesting regimes: ordinary
    /// magnitudes, near-epsilon differences, exact ties and NaN.
    fn lane_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            8 => -100.0..100.0f64,
            2 => (-10.0..10.0f64).prop_map(|v| v * 1e-13),
            1 => Just(3.0),
            1 => Just(f64::NAN),
        ]
    }

    fn lanes8() -> impl Strategy<Value = [f64; LANE]> {
        prop::collection::vec(lane_value(), LANE).prop_map(|v| {
            let mut a = [0.0; LANE];
            a.copy_from_slice(&v);
            a
        })
    }

    fn triple(value: impl Strategy<Value = f64>) -> impl Strategy<Value = [f64; 3]> {
        prop::collection::vec(value, 3).prop_map(|v| {
            let mut a = [0.0; 3];
            a.copy_from_slice(&v);
            a
        })
    }

    fn point() -> impl Strategy<Value = Point2> {
        (-10.0..10.0f64, -10.0..10.0f64).prop_map(|(x, y)| Point2::new(x, y))
    }

    /// Ordinary triangles, plus the degenerate ones: a repeated vertex
    /// and three collinear vertices.
    fn triangle() -> impl Strategy<Value = Triangle> {
        prop_oneof![
            6 => (point(), point(), point()).prop_map(|(a, b, c)| Triangle::new(a, b, c)),
            1 => (point(), point()).prop_map(|(a, b)| Triangle::new(a, b, a)),
            1 => (point(), point(), 0.0..1.0f64)
                .prop_map(|(a, b, t)| Triangle::new(a, a.lerp(b, t), b)),
        ]
    }

    /// Vertex values: ordinary magnitudes, ties with a band edge at 0,
    /// and NaN.
    fn vertex_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            8 => -50.0..50.0f64,
            1 => Just(0.0),
            1 => Just(f64::NAN),
        ]
    }

    proptest! {
        #[test]
        fn band_masks_match_scalar_signed_distances(
            ws in lanes8(),
            lo in -100.0..100.0f64,
            width in 0.0..50.0f64,
        ) {
            let hi = lo + width;
            let (below, above, inside) = band_masks_x8(&ws, lo, hi);
            for (i, &wi) in ws.iter().enumerate() {
                prop_assert_eq!(below >> i & 1 == 1, wi - lo < 0.0, "lane {}", i);
                prop_assert_eq!(above >> i & 1 == 1, hi - wi < 0.0, "lane {}", i);
                prop_assert_eq!(
                    inside >> i & 1 == 1,
                    wi - lo >= 0.0 && hi - wi >= 0.0,
                    "lane {}", i
                );
            }
        }

        /// The visitor — masked fast paths, then the two clip steps on
        /// stack buffers — must be bit-identical to the `Polygon` chain,
        /// emit exactly when that chain leaves at least three vertices,
        /// and never need more than its 12-point buffer.
        #[test]
        fn triangle_band_fast_paths_equal_full_clip(
            tri in triangle(),
            vals in triple(vertex_value()),
            lo in prop_oneof![8 => -60.0..60.0f64, 1 => Just(0.0)],
            width in prop_oneof![3 => 0.0..40.0f64, 1 => Just(0.0)],
        ) {
            let hi = lo + width;
            let mut got = Vec::new();
            triangle_band(&tri, vals, lo, hi, &mut |vs| got.push(vs.to_vec()));
            let want = match plane_coefficients(&tri, vals) {
                None => Vec::new(),
                Some((gx, gy, c)) => {
                    let w = |p: Point2| gx * p.x + gy * p.y + c;
                    let first = Polygon::from(tri).clip_halfplane(|p| w(p) - lo);
                    prop_assert!(first.vertices.len() <= BAND_REGION_MAX_POINTS / 2);
                    first.clip_halfplane(|p| hi - w(p)).vertices
                }
            };
            prop_assert!(want.len() <= BAND_REGION_MAX_POINTS);
            if want.len() < 3 {
                prop_assert!(got.is_empty(), "emitted {:?}, chain left {:?}", got, want);
            } else {
                prop_assert_eq!(got.len(), 1);
                prop_assert_eq!(got[0].len(), want.len());
                for (g, e) in got[0].iter().zip(&want) {
                    prop_assert_eq!(g.x.to_bits(), e.x.to_bits());
                    prop_assert_eq!(g.y.to_bits(), e.y.to_bits());
                }
            }
        }
    }
}
