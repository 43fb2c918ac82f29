//! Incremental Bowyer–Watson triangulation.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use cf_geom::{Aabb, Point2, Triangle};
use cf_sfc::hilbert_index_2d;
use std::collections::HashMap;
use std::fmt;
use std::iter::once;

/// Failure modes of [`triangulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriangulationError {
    /// Fewer than three distinct points were supplied.
    TooFewPoints,
    /// All points are (numerically) collinear — no triangle exists.
    AllCollinear,
    /// A point has a non-finite coordinate.
    NonFinitePoint,
}

impl fmt::Display for TriangulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooFewPoints => write!(f, "need at least 3 distinct points"),
            Self::AllCollinear => write!(f, "all points are collinear"),
            Self::NonFinitePoint => write!(f, "point with non-finite coordinate"),
        }
    }
}

impl std::error::Error for TriangulationError {}

/// A Delaunay triangulation of a point set.
#[derive(Debug, Clone)]
pub struct Triangulation {
    /// The input points (indices below refer to this vector).
    pub points: Vec<Point2>,
    /// Triangles as CCW-ordered triplets of point indices.
    pub triangles: Vec<[usize; 3]>,
    /// For each triangle, the neighbour across each of its edges (edge
    /// `e` runs from vertex `e` to vertex `(e + 1) % 3`); `None` on the
    /// hull.
    pub neighbors: Vec<[Option<u32>; 3]>,
}

impl Triangulation {
    /// The geometric triangle for entry `t`.
    pub fn triangle(&self, t: usize) -> Triangle {
        let [a, b, c] = self.triangles[t];
        Triangle::new(self.points[a], self.points[b], self.points[c])
    }

    /// Total area covered (the convex hull area for a Delaunay
    /// triangulation).
    pub fn area(&self) -> f64 {
        (0..self.triangles.len())
            .map(|t| self.triangle(t).area())
            .sum()
    }

    /// Index of a triangle containing `p`, or `None` if `p` lies outside
    /// the convex hull. Linear scan: the reference for
    /// [`Triangulation::locate_walk`] and its fallback.
    pub fn locate(&self, p: Point2) -> Option<usize> {
        (0..self.triangles.len()).find(|&t| self.triangle(t).contains(p))
    }
}

/// Returns `> 0` if `p` lies strictly inside the circumcircle of the CCW
/// triangle `(a, b, c)`, `< 0` if strictly outside, `~0` if cocircular.
fn incircle(a: Point2, b: Point2, c: Point2, p: Point2) -> f64 {
    let adx = a.x - p.x;
    let ady = a.y - p.y;
    let bdx = b.x - p.x;
    let bdy = b.y - p.y;
    let cdx = c.x - p.x;
    let cdy = c.y - p.y;
    let ad = adx * adx + ady * ady;
    let bd = bdx * bdx + bdy * bdy;
    let cd = cdx * cdx + cdy * cdy;
    adx * (bdy * cd - bd * cdy) - ady * (bdx * cd - bd * cdx) + ad * (bdx * cdy - bdy * cdx)
}

/// Computes the Delaunay triangulation of `input`.
///
/// Numerically-duplicate points (distance < 1e-12 of the bounding-box
/// diagonal) are merged; the returned [`Triangulation::points`] keeps the
/// *original* point list so indices remain meaningful to the caller, and
/// merged duplicates simply do not appear in any triangle.
///
/// Sites go in along a Hilbert curve (the ordering of Amenta, Choi &
/// Rote's BRIO, without its rounds). Each one is found by a walk from
/// the last new triangle, and its cavity grows across neighbours, so a
/// site costs a few steps rather than a scan of the mesh.
pub fn triangulate(input: &[Point2]) -> Result<Triangulation, TriangulationError> {
    if input.iter().any(|p| !p.is_finite()) {
        return Err(TriangulationError::NonFinitePoint);
    }
    // Deduplicate on a fine grid to avoid degenerate zero-area cavities.
    let bbox = Aabb::hull_of_points(input);
    if bbox.is_empty() {
        return Err(TriangulationError::TooFewPoints);
    }
    let diag = ((bbox.extent(0)).powi(2) + (bbox.extent(1)).powi(2)).sqrt();
    let merge_tol = (diag * 1e-12).max(f64::MIN_POSITIVE);
    let mut kept: Vec<usize> = Vec::with_capacity(input.len());
    let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    let cell = merge_tol * 2.0;
    for (i, p) in input.iter().enumerate() {
        let (kx, ky) = ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let near = |ids: &Vec<usize>| ids.iter().any(|&j| input[j].distance(*p) < merge_tol);
        let cells = (-1..=1).flat_map(|dx| (-1..=1).map(move |dy| (kx + dx, ky + dy)));
        if !cells.filter_map(|k| grid.get(&k)).any(near) {
            grid.entry((kx, ky)).or_default().push(i);
            kept.push(i);
        }
    }
    drop(grid);
    if kept.len() < 3 {
        return Err(TriangulationError::TooFewPoints);
    }
    // Insert along the Hilbert curve of a `2^16 × 2^16` grid over the
    // box, ties by index: consecutive sites lie close together, so each
    // walk below is short. A zero extent divides to NaN, cell 0.
    let coord =
        |v: f64, d: usize| (((v - bbox.lo[d]) / bbox.extent(d) * 65_535.0) as u64).min(65_535);
    let key = |p: Point2| hilbert_index_2d(coord(p.x, 0), coord(p.y, 1), 16);
    kept.sort_by_cached_key(|&i| (key(input[i]), i));

    // Super-triangle comfortably containing every point.
    let center = bbox.center_point();
    let size = diag.max(1.0) * 16.0;
    let s0 = Point2::new(center.x - size, center.y - size * 0.5);
    let s1 = Point2::new(center.x + size, center.y - size * 0.5);
    let s2 = Point2::new(center.x, center.y + size);

    // Working vertex list: input points followed by super vertices.
    let n = input.len();
    let mut verts: Vec<Point2> = input.to_vec();
    verts.extend([s0, s1, s2]);

    // Unit directions toward the super vertices; the conflict predicates
    // below treat super vertices as points at infinity along these fixed
    // directions, which keeps all super-touching conflict regions
    // mutually consistent (finite super coordinates would make the
    // circumcircles bulge by `chord²/8R` and disagree with each other,
    // disconnecting insertion cavities near the hull).
    let sdir: [Point2; 3] = {
        let norm = |p: Point2| {
            let d = p - center;
            let len = (d.x * d.x + d.y * d.y).sqrt();
            Point2::new(d.x / len, d.y / len)
        };
        [norm(s0), norm(s1), norm(s2)]
    };

    // Conflict predicate with symbolic points at infinity:
    // * no super vertex — ordinary in-circle test;
    // * one super vertex — the circumcircle degenerates to the
    //   half-plane left of the (CCW-directed) real edge;
    // * two super vertices s_i, s_j — it degenerates to the half-plane
    //   through the real vertex with outward normal along the bisector
    //   of the two infinite directions;
    // * three — the initial triangle: conflicts with everything.
    let conflicts = |tri: [usize; 3], p: Point2| -> bool {
        let supers: usize = tri.iter().filter(|&&v| v >= n).count();
        // The triangle rotated to start at vertex `k`.
        let from = |k: Option<usize>| {
            let k = k.unwrap_or(0);
            [tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]]
        };
        match supers {
            0 => {
                let [a, b, c] = tri;
                incircle(verts[a], verts[b], verts[c], p) > 0.0
            }
            1 => {
                // Rotate so the super vertex is last: CCW triangle
                // (u, v, s) has s strictly left of u→v, so the conflict
                // half-plane is `left of u→v`.
                let [_, u, v] = from(tri.iter().position(|&v| v >= n));
                verts[u].cross(verts[v], p) > 0.0
            }
            2 => {
                let [real, si, sj] = from(tri.iter().position(|&v| v < n));
                let di = sdir[si - n];
                let dj = sdir[sj - n];
                let m = Point2::new(di.x + dj.x, di.y + dj.y);
                let rel = p - verts[real];
                rel.x * m.x + rel.y * m.y > 0.0
            }
            _ => true,
        }
    };
    // `p` strictly right of the directed edge `a → b`, with the super
    // vertices at infinity as above: the walk crosses such an edge.
    let right_of = |a: usize, b: usize, p: Point2| -> bool {
        let turn = |d: Point2, from: Point2| d.x * (p.y - from.y) - d.y * (p.x - from.x);
        match (a >= n, b >= n) {
            (false, false) => verts[a].cross(verts[b], p) < 0.0,
            (false, true) => turn(sdir[b - n], verts[a]) < 0.0,
            (true, false) => turn(sdir[a - n], verts[b]) > 0.0,
            (true, true) => false,
        }
    };

    // The mesh: triangles (indices into verts, CCW) and the neighbour
    // across each edge, as in `Triangulation::neighbors`.
    let mut tris: Vec<[usize; 3]> = vec![[n, n + 1, n + 2]];
    let mut nbr: Vec<[Option<u32>; 3]> = vec![[None; 3]];
    let mut in_cavity = vec![false];
    // The cavity, and its boundary edges `(u, v)` with the triangle
    // beyond each.
    let (mut cavity, mut fan) = (Vec::new(), Vec::new());
    let mut last = 0;
    for &pi in &kept {
        let p = verts[pi];
        // Walk from the last new triangle to one in conflict with p. A
        // walk that stalls or loops on rounding falls back to a scan.
        let mut cur = last;
        for _ in 0..tris.len() {
            let t = tris[cur];
            if conflicts(t, p) {
                break;
            }
            match (0..3).find_map(|e| nbr[cur][e].filter(|_| right_of(t[e], t[(e + 1) % 3], p))) {
                Some(next) => cur = next as usize,
                None => break,
            }
        }
        let seed = once(cur)
            .chain(0..tris.len())
            .find(|&t| conflicts(tris[t], p));
        // Numerically on an edge of everything (e.g. exact duplicate that
        // survived dedup): skip the point rather than corrupt the mesh.
        let Some(seed) = seed else { continue };
        // Grow the cavity across neighbours; an edge to a triangle not
        // in conflict (or to nothing) bounds it.
        cavity.clear();
        fan.clear();
        cavity.push(seed);
        in_cavity[seed] = true;
        let mut i = 0;
        while let Some(&t) = cavity.get(i) {
            i += 1;
            for e in 0..3 {
                match nbr[t][e].map(|o| o as usize) {
                    Some(o) if in_cavity[o] => {}
                    Some(o) if conflicts(tris[o], p) => {
                        in_cavity[o] = true;
                        cavity.push(o);
                    }
                    outer => fan.push((tris[t][e], tris[t][(e + 1) % 3], outer)),
                }
            }
        }
        for &t in &cavity {
            in_cavity[t] = false;
        }
        if fan.len() != cavity.len() + 2 {
            // Not a disk (the conflicts disagree on rounding): skip the
            // point rather than corrupt the mesh.
            continue;
        }
        // Replace the cavity by the fan (u, v, p), in its slots and two
        // new ones: the fan neighbour across (v, p) starts at v, and the
        // one across (p, u) ends at u. The triangle beyond (u, v) holds
        // the edge from v.
        let len = tris.len();
        tris.resize(len + 2, [n; 3]);
        nbr.resize(len + 2, [None; 3]);
        in_cavity.resize(len + 2, false);
        let slot = |k: usize| cavity.get(k).copied().unwrap_or(len + k - cavity.len());
        for (k, &(u, v, outer)) in fan.iter().enumerate() {
            let t = slot(k);
            let after = fan.iter().position(|f| f.0 == v).map(|j| slot(j) as u32);
            let before = fan.iter().position(|f| f.1 == u).map(|j| slot(j) as u32);
            tris[t] = [u, v, pi];
            nbr[t] = [outer.map(|o| o as u32), after, before];
            let back = outer.and_then(|o| Some((o, tris[o].iter().position(|&w| w == v)?)));
            if let Some((o, oe)) = back {
                nbr[o][oe] = Some(t as u32);
            }
        }
        last = slot(fan.len() - 1);
    }

    // Keep the real triangles, each rotated so its largest input index
    // comes last: input-order insertion made every triangle when its
    // last vertex went in, so this is the form it returned.
    let mut order: Vec<u32> = Vec::with_capacity(tris.len());
    for (t, (tri, links)) in tris.iter_mut().zip(&mut nbr).enumerate() {
        if tri.iter().any(|&v| v >= n) {
            continue;
        }
        let turn = (0..3).max_by_key(|&k| tri[k]).map_or(0, |k| (k + 1) % 3);
        tri.rotate_left(turn);
        links.rotate_left(turn);
        // Normalize orientation to CCW (should already hold, but
        // guarantee it).
        if Triangle::new(input[tri[0]], input[tri[1]], input[tri[2]]).signed_area() < 0.0 {
            tri.swap(1, 2);
            links.swap(0, 2);
        }
        order.push(t as u32);
    }
    if order.is_empty() {
        return Err(TriangulationError::AllCollinear);
    }
    // Deterministic output order; neighbours follow their triangles.
    order.sort_unstable_by_key(|&t| tris[t as usize]);
    let mut renumber: Vec<Option<u32>> = vec![None; tris.len()];
    for (k, &t) in order.iter().enumerate() {
        renumber[t as usize] = Some(k as u32);
    }
    Ok(Triangulation {
        points: input.to_vec(),
        triangles: order.iter().map(|&t| tris[t as usize]).collect(),
        neighbors: order
            .iter()
            .map(|&t| nbr[t as usize].map(|o| o.and_then(|o| renumber[o as usize])))
            .collect(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    #[test]
    fn square_gives_two_triangles() {
        let t = triangulate(&pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])).unwrap();
        assert_eq!(t.triangles.len(), 2);
        assert!((t.area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_triangle() {
        let t = triangulate(&pts(&[(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)])).unwrap();
        assert_eq!(t.triangles.len(), 1);
        assert!(t.triangle(0).signed_area() > 0.0);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert_eq!(
            triangulate(&pts(&[(0.0, 0.0), (1.0, 1.0)])).unwrap_err(),
            TriangulationError::TooFewPoints
        );
        assert_eq!(
            triangulate(&pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])).unwrap_err(),
            TriangulationError::AllCollinear
        );
        assert_eq!(
            triangulate(&[
                Point2::new(f64::NAN, 0.0),
                Point2::ORIGIN,
                Point2::new(1.0, 0.0)
            ])
            .unwrap_err(),
            TriangulationError::NonFinitePoint
        );
    }

    #[test]
    fn duplicates_are_merged() {
        let t = triangulate(&pts(&[
            (0.0, 0.0),
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (1.0, 0.0),
        ]))
        .unwrap();
        assert_eq!(t.triangles.len(), 1);
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    /// No point lies strictly inside any triangle's circumcircle.
    fn assert_empty_circumcircles(t: &Triangulation, points: &[Point2]) {
        for k in 0..t.triangles.len() {
            let [a, b, c] = t.triangles[k];
            let (center, r2) = t.triangle(k).circumcircle().expect("non-degenerate");
            let r = r2.sqrt();
            for (i, p) in points.iter().enumerate() {
                if i == a || i == b || i == c {
                    continue;
                }
                let d = center.distance(*p);
                assert!(
                    d >= r - 1e-6 * r.max(1.0),
                    "point {i} inside circumcircle of triangle {k}: d={d}, r={r}"
                );
            }
        }
    }

    #[test]
    fn delaunay_property_holds() {
        let points = random_points(120, 42);
        assert_empty_circumcircles(&triangulate(&points).unwrap(), &points);
    }

    #[test]
    fn covers_convex_hull_area() {
        let points = random_points(200, 7);
        let t = triangulate(&points).unwrap();
        let hull_area = convex_hull_area(&points);
        assert!(
            (t.area() - hull_area).abs() < 1e-6 * hull_area,
            "triangulation area {} vs hull {}",
            t.area(),
            hull_area
        );
    }

    #[test]
    fn euler_triangle_count() {
        // For points in general position: T = 2n − 2 − h.
        let points = random_points(150, 99);
        let t = triangulate(&points).unwrap();
        let h = convex_hull_size(&points);
        assert_eq!(t.triangles.len(), 2 * points.len() - 2 - h);
    }

    #[test]
    fn every_point_is_used() {
        let points = random_points(100, 5);
        let t = triangulate(&points).unwrap();
        let mut used = vec![false; points.len()];
        for tri in &t.triangles {
            for &v in tri {
                used[v] = true;
            }
        }
        assert!(used.iter().all(|&u| u));
    }

    #[test]
    fn locate_finds_containing_triangle() {
        let points = random_points(60, 13);
        let t = triangulate(&points).unwrap();
        // Centroids must locate to their own triangle region.
        for k in 0..t.triangles.len() {
            let c = t.triangle(k).centroid();
            let found = t.locate(c).expect("centroid inside hull");
            assert!(t.triangle(found).contains(c));
        }
        assert_eq!(t.locate(Point2::new(-1000.0, -1000.0)), None);
    }

    #[test]
    fn grid_points_triangulate() {
        // Cocircular points (grid corners) are the classic degenerate
        // case: which diagonal splits each square is a tie the insertion
        // order breaks. The triangulation must still cover the full
        // area, be Delaunay, and break the ties the same way every run.
        let mut points = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                points.push(Point2::new(i as f64, j as f64));
            }
        }
        let t = triangulate(&points).unwrap();
        assert!((t.area() - 49.0).abs() < 1e-6);
        assert_eq!(t.triangles.len(), 2 * 49);
        assert_empty_circumcircles(&t, &points);
        assert_eq!(triangulate(&points).unwrap().triangles, t.triangles);
    }

    // --- small test helpers -------------------------------------------

    fn convex_hull(points: &[Point2]) -> Vec<Point2> {
        let mut pts: Vec<Point2> = points.to_vec();
        pts.sort_by(|a, b| {
            a.x.partial_cmp(&b.x)
                .unwrap()
                .then(a.y.partial_cmp(&b.y).unwrap())
        });
        let mut hull: Vec<Point2> = Vec::new();
        for phase in 0..2 {
            let start = hull.len();
            let iter: Box<dyn Iterator<Item = &Point2>> = if phase == 0 {
                Box::new(pts.iter())
            } else {
                Box::new(pts.iter().rev())
            };
            for p in iter {
                while hull.len() >= start + 2 {
                    let q = hull[hull.len() - 1];
                    let r = hull[hull.len() - 2];
                    if r.cross(q, *p) <= 0.0 {
                        hull.pop();
                    } else {
                        break;
                    }
                }
                hull.push(*p);
            }
            hull.pop();
        }
        hull
    }

    fn convex_hull_area(points: &[Point2]) -> f64 {
        cf_geom::Polygon::new(convex_hull(points)).area()
    }

    fn convex_hull_size(points: &[Point2]) -> usize {
        convex_hull(points).len()
    }
}
