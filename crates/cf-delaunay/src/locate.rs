//! Walk-based point location: from any triangle, step to the neighbour
//! across an edge that separates the query point until the triangle
//! holding it is reached — expected `O(√n)` steps on well-shaped meshes,
//! against [`Triangulation::locate`]'s scan of them all.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::Triangulation;
use cf_geom::Point2;

impl Triangulation {
    /// Walks from `start` toward `p`; returns the containing triangle,
    /// or `None` when the walk exits the convex hull.
    ///
    /// Falls back to the exhaustive scan if the walk exceeds its step
    /// budget (possible on degenerate geometry), so the result is always
    /// correct.
    pub fn locate_walk(&self, start: usize, p: Point2) -> Option<usize> {
        let mut cur = start.min(self.triangles.len().checked_sub(1)?);
        let mut prev = usize::MAX;
        // Generous budget: a straight walk crosses each triangle once.
        for _ in 0..self.triangles.len() + 3 {
            let v = self.triangle(cur).vertices;
            // CCW triangle: inside is left of each edge. Cross an edge p
            // lies strictly right of, unless it only leads back.
            let mut next = None;
            for e in (0..3).filter(|&e| v[e].cross(v[(e + 1) % 3], p) < -1e-12) {
                match self.neighbors[cur][e].map(|t| t as usize) {
                    None => return None, // left the hull
                    Some(t) if t != prev => {
                        next = Some(t);
                        break;
                    }
                    Some(_) => {}
                }
            }
            match next {
                Some(t) => prev = std::mem::replace(&mut cur, t),
                // No separating edge: p is inside (or on) this triangle.
                None => return Some(cur),
            }
        }
        // Degenerate walk (numerical loop): exhaustive fallback.
        self.locate(p)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::triangulate;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_tin(n: usize, seed: u64) -> Triangulation {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        triangulate(&pts).expect("triangulates")
    }

    #[test]
    fn adjacency_is_symmetric_and_complete() {
        let t = random_tin(200, 1);
        let mut hull_edges = 0;
        for (ti, tri) in t.triangles.iter().enumerate() {
            for e in 0..3 {
                match t.neighbors[ti][e].map(|o| o as usize) {
                    Some(other) => {
                        // The neighbour holds the same edge, reversed,
                        // and points back at us across it.
                        let (u, v) = (tri[e], tri[(e + 1) % 3]);
                        let oe = (0..3).find(|&k| t.triangles[other][k] == v).unwrap();
                        assert_eq!(t.triangles[other][(oe + 1) % 3], u, "{ti} <-> {other}");
                        assert_eq!(t.neighbors[other][oe], Some(ti as u32));
                    }
                    None => hull_edges += 1,
                }
            }
        }
        // A Delaunay triangulation's boundary is the convex hull: at
        // least 3 hull edges.
        assert!(hull_edges >= 3);
    }

    #[test]
    fn walk_matches_exhaustive_locate() {
        let t = random_tin(300, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let p = Point2::new(rng.gen_range(-5.0..105.0), rng.gen_range(-5.0..105.0));
            let start = rng.gen_range(0..t.triangles.len());
            let walked = t.locate_walk(start, p);
            let scanned = t.locate(p);
            match (walked, scanned) {
                (Some(a), Some(b)) => {
                    // Boundary points may land in either adjacent
                    // triangle; containment is the real contract.
                    assert!(t.triangle(a).contains(p), "walk found non-containing {a}");
                    let _ = b;
                }
                (None, None) => {}
                (w, s) => panic!("walk {w:?} vs scan {s:?} at {p}"),
            }
        }
    }

    #[test]
    fn walk_from_every_start_triangle() {
        let t = random_tin(80, 7);
        let p = Point2::new(50.0, 50.0);
        let want_contains = t.locate(p).is_some();
        for start in 0..t.triangles.len() {
            let got = t.locate_walk(start, p);
            assert_eq!(got.is_some(), want_contains, "start {start}");
            if let Some(ti) = got {
                assert!(t.triangle(ti).contains(p));
            }
        }
    }

    #[test]
    fn outside_hull_returns_none() {
        let t = random_tin(100, 9);
        for p in [
            Point2::new(-50.0, 50.0),
            Point2::new(200.0, 200.0),
            Point2::new(50.0, -30.0),
        ] {
            assert_eq!(t.locate_walk(0, p), None);
        }
    }
}
