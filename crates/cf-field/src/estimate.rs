//! The estimation step: exact answer regions of field value queries.
//!
//! Paper §3.2, algorithm `Estimate`: after the filtering step retrieves
//! candidate cells, "estimate the exact answer regions corresponding to
//! `w` with retrieved sample points". With linear interpolation the
//! interpolant over a triangle is an affine function `w(x, y)`, so the
//! region where `a ≤ w ≤ b` is the triangle clipped by two half-planes —
//! computable exactly with Sutherland–Hodgman.
//!
//! [`triangle_band`] does both clips in one pass over stack arrays: the
//! plane is evaluated once per vertex and once per crossing point, and
//! both keep values derive from that one evaluation. Its output is
//! bit-identical to two [`cf_geom::Polygon::clip_halfplane`] steps, the
//! reference its tests compare it against.

use cf_geom::{Point2, Triangle, EPSILON};

/// Coefficients of the affine interpolant `w(x, y) = gx·x + gy·y + c`
/// over a triangle with given vertex values.
///
/// Returns `None` for a degenerate (zero-area) triangle.
#[inline]
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

/// Most points one clip step emits from `m` points: `m + ⌊m/2⌋`. A
/// point emits itself when kept and one crossing point when its edge to
/// the next point changes sign strictly. Every crossing edge has a
/// dropped end, and a dropped point ends two edges, so with `k` points
/// dropped the step emits at most `(m − k) + min(m, 2k)`.
const fn clip_step_max_points(m: usize) -> usize {
    m + m / 2
}

/// Most points the first clip step leaves of a triangle: 4.
const FIRST_STEP_MAX_POINTS: usize = clip_step_max_points(3);

/// Most points a triangle's band region can have: 6.
const BAND_REGION_MAX_POINTS: usize = clip_step_max_points(FIRST_STEP_MAX_POINTS);

/// Whether the edge from a point with keep value `kc` to one with `kn`
/// crosses the clip line strictly — the Sutherland–Hodgman crossing
/// test, which emits the edge's intersection point. A zero or NaN end
/// never crosses.
#[inline(always)]
fn crosses(kc: f64, kn: f64) -> bool {
    (kc > 0.0 && kn < 0.0) || (kc < 0.0 && kn > 0.0)
}

/// The sub-region of `tri` where the linear interpolant of `values` lies
/// in `[lo, hi]`, passed to `visit` as its vertices in boundary order.
///
/// `visit` runs once when the region has at least three vertices and not
/// at all otherwise (an empty or degenerate region, or a degenerate
/// triangle). The vertices live in stack buffers: nothing is allocated.
///
/// One pass: the plane is evaluated once per vertex, and both keep
/// values — `w − lo` for the first half-plane, `hi − w` for the second —
/// derive from that one result. A triangle entirely below or entirely
/// above the band exits with nothing, one entirely inside exits with
/// itself. Otherwise the two Sutherland–Hodgman steps run inline, each
/// point of the first step carrying its second-step keep value, so
/// `hi − w` is evaluated once per crossing point. Every expression, the
/// interpolation, the vertex order and the rule that the second step
/// runs even on fewer than three points are those of the two
/// [`cf_geom::Polygon::clip_halfplane`] steps, so every emitted vertex
/// is bit-identical to that chain; the exits are the chain's own
/// outcome on such triangles (no epsilon is involved, and a NaN keep
/// value takes no exit).
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
    let vs = tri.vertices;
    let ws = vs.map(w);
    let d = ws.map(|wi| wi - lo);
    let e = ws.map(|wi| hi - wi);
    if d.iter().all(|&k| k < 0.0) || e.iter().all(|&k| k < 0.0) {
        // Every vertex is dropped by one of the two half-planes: the
        // region is empty.
        return;
    }
    if d.iter().chain(&e).all(|&k| k >= 0.0) {
        // Both half-planes keep every vertex: the region is the
        // triangle, unchanged.
        visit(&vs);
        return;
    }

    // First step, `w − lo >= 0`, on the triangle.
    let mut mid = [Point2::ORIGIN; FIRST_STEP_MAX_POINTS];
    let mut mid_e = [0.0; FIRST_STEP_MAX_POINTS];
    let mut m = 0;
    for i in 0..3 {
        let j = (i + 1) % 3;
        if d[i] >= 0.0 {
            mid[m] = vs[i];
            mid_e[m] = e[i];
            m += 1;
        }
        if crosses(d[i], d[j]) {
            let q = vs[i].lerp(vs[j], d[i] / (d[i] - d[j]));
            mid[m] = q;
            mid_e[m] = hi - w(q);
            m += 1;
        }
    }

    // Second step, `hi − w >= 0`, on the first step's points.
    let mut out = [Point2::ORIGIN; BAND_REGION_MAX_POINTS];
    let mut n = 0;
    for i in 0..m {
        let j = if i + 1 == m { 0 } else { i + 1 };
        if mid_e[i] >= 0.0 {
            out[n] = mid[i];
            n += 1;
        }
        if crosses(mid_e[i], mid_e[j]) {
            out[n] = mid[i].lerp(mid[j], mid_e[i] / (mid_e[i] - mid_e[j]));
            n += 1;
        }
    }
    if n >= 3 {
        visit(&out[..n]);
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
}

#[cfg(test)]
mod kernel_props {
    use super::*;
    use cf_geom::Polygon;
    use proptest::prelude::*;

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

    /// A grid cell's two halves as `GridCellRecord::triangles` cuts
    /// them: integer corners, either side of the diagonal.
    fn grid_half() -> impl Strategy<Value = Triangle> {
        (-8i32..8, -8i32..8, 1i32..4, 1i32..4, any::<bool>()).prop_map(|(x, y, w, h, upper)| {
            let (x0, y0) = (f64::from(x), f64::from(y));
            let (x1, y1) = (f64::from(x + w), f64::from(y + h));
            let p00 = Point2::new(x0, y0);
            let p11 = Point2::new(x1, y1);
            if upper {
                Triangle::new(p00, p11, Point2::new(x0, y1))
            } else {
                Triangle::new(p00, Point2::new(x1, y0), p11)
            }
        })
    }

    /// Ordinary triangles, grid-cell halves, and the degenerate ones: a
    /// repeated vertex and three collinear vertices.
    fn triangle() -> impl Strategy<Value = Triangle> {
        prop_oneof![
            6 => (point(), point(), point()).prop_map(|(a, b, c)| Triangle::new(a, b, c)),
            4 => grid_half(),
            1 => (point(), point()).prop_map(|(a, b)| Triangle::new(a, b, a)),
            1 => (point(), point(), 0.0..1.0f64)
                .prop_map(|(a, b, t)| Triangle::new(a, a.lerp(b, t), b)),
        ]
    }

    /// Bands `[lo, hi]`: ordinary, an edge at 0, `lo == hi`, and edges
    /// at ±∞.
    fn band() -> impl Strategy<Value = (f64, f64)> {
        prop_oneof![
            8 => (-60.0..60.0f64, 0.0..40.0f64).prop_map(|(lo, w)| (lo, lo + w)),
            1 => (0.0..40.0f64).prop_map(|w| (0.0, w)),
            2 => (-60.0..60.0f64).prop_map(|v| (v, v)),
            1 => (-60.0..60.0f64).prop_map(|v| (f64::NEG_INFINITY, v)),
            1 => (-60.0..60.0f64).prop_map(|v| (v, f64::INFINITY)),
            1 => Just((f64::NEG_INFINITY, f64::INFINITY)),
        ]
    }

    /// One vertex value: ordinary magnitudes, 0, exactly a band edge,
    /// ±∞ and NaN.
    fn vertex_value(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
        prop_oneof![
            8 => -50.0..50.0f64,
            1 => Just(0.0),
            2 => Just(lo),
            2 => Just(hi),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => Just(f64::NAN),
        ]
    }

    /// Vertex values for the band `[lo, hi]`: independent draws, or a
    /// near-flat triangle — all three within 1e-9 of a band edge or of
    /// an ordinary value.
    fn vertex_values(lo: f64, hi: f64) -> impl Strategy<Value = [f64; 3]> {
        let anchor = prop_oneof![Just(lo), Just(hi), -50.0..50.0f64];
        let near_flat =
            (anchor, triple(-1e-9..1e-9f64)).prop_map(|(a, deltas)| deltas.map(|dv| a + dv));
        prop_oneof![
            4 => triple(vertex_value(lo, hi)),
            1 => near_flat,
        ]
    }

    /// One kernel case: a triangle, its vertex values and a band.
    fn band_case() -> impl Strategy<Value = (Triangle, [f64; 3], f64, f64)> {
        (triangle(), band())
            .prop_flat_map(|(tri, (lo, hi))| (Just(tri), vertex_values(lo, hi), Just(lo), Just(hi)))
    }

    /// The kernel — exits, then the two inline clip steps on stack
    /// buffers — must be bit-identical to the `Polygon` chain, emit
    /// exactly when that chain leaves at least three vertices, and never
    /// need more than its 4- and 6-point buffers.
    fn assert_kernel_equals_clip_chain(tri: Triangle, vals: [f64; 3], lo: f64, hi: f64) {
        let mut got = Vec::new();
        triangle_band(&tri, vals, lo, hi, &mut |vs| got.push(vs.to_vec()));
        let want = match plane_coefficients(&tri, vals) {
            None => Vec::new(),
            Some((gx, gy, c)) => {
                let w = |p: Point2| gx * p.x + gy * p.y + c;
                let first = Polygon::from(tri).clip_halfplane(|p| w(p) - lo);
                assert!(first.vertices.len() <= FIRST_STEP_MAX_POINTS);
                first.clip_halfplane(|p| hi - w(p)).vertices
            }
        };
        assert!(want.len() <= BAND_REGION_MAX_POINTS);
        let case = || format!("{tri:?}, values {vals:?}, band [{lo}, {hi}]");
        if want.len() < 3 {
            assert!(
                got.is_empty(),
                "{}: emitted {got:?}, chain left {want:?}",
                case()
            );
        } else {
            assert_eq!(got.len(), 1, "{}", case());
            assert_eq!(got[0].len(), want.len(), "{}", case());
            for (g, e) in got[0].iter().zip(&want) {
                assert_eq!(g.x.to_bits(), e.x.to_bits(), "{}: {g} vs {e}", case());
                assert_eq!(g.y.to_bits(), e.y.to_bits(), "{}: {g} vs {e}", case());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200_000))]

        /// The tier-1 sweep: 200 000 seeded cases.
        #[test]
        fn triangle_band_fast_paths_equal_full_clip(case in band_case()) {
            let (tri, vals, lo, hi) = case;
            assert_kernel_equals_clip_chain(tri, vals, lo, hi);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000_000))]

        /// The same sweep over 2 000 000 other cases; CI runs it in
        /// release (`cargo test --release -p cf-field -- --ignored`).
        #[test]
        #[ignore = "2 M cases: run in release with --ignored"]
        fn triangle_band_equals_full_clip_deep_sweep(case in band_case()) {
            let (tri, vals, lo, hi) = case;
            assert_kernel_equals_clip_chain(tri, vals, lo, hi);
        }
    }
}
