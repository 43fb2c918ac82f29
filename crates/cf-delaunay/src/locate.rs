//! Walk-based point location on a triangulation.
//!
//! The naive `locate` scans all triangles; the classic improvement is
//! the *straight walk*: starting from any triangle, repeatedly step to
//! the neighbour across an edge that separates the query point, until
//! the containing triangle is reached — expected `O(√n)` steps on
//! well-shaped meshes. Requires the edge-adjacency structure built by
//! [`Adjacency::build`].

use crate::Triangulation;
use cf_geom::Point2;
use std::collections::HashMap;

/// Triangle adjacency: for each triangle, the neighbour across each of
/// its three edges (edge `e` is between vertices `e` and `(e+1) % 3`).
#[derive(Debug, Clone)]
pub struct Adjacency {
    neighbors: Vec<[Option<u32>; 3]>,
}

impl Adjacency {
    /// Builds the adjacency of `t` in `O(n)` via an edge map.
    pub fn build(t: &Triangulation) -> Self {
        let mut edge_owner: HashMap<(usize, usize), (u32, u8)> = HashMap::new();
        let mut neighbors = vec![[None; 3]; t.triangles.len()];
        for (ti, tri) in t.triangles.iter().enumerate() {
            for e in 0..3 {
                let (u, v) = (tri[e], tri[(e + 1) % 3]);
                let key = (u.min(v), u.max(v));
                match edge_owner.remove(&key) {
                    None => {
                        edge_owner.insert(key, (ti as u32, e as u8));
                    }
                    Some((other, oe)) => {
                        neighbors[ti][e] = Some(other);
                        neighbors[other as usize][oe as usize] = Some(ti as u32);
                    }
                }
            }
        }
        Self { neighbors }
    }

    /// Neighbour of triangle `t` across edge `e`, if any (hull edges
    /// have none).
    fn neighbor(&self, t: usize, e: usize) -> Option<usize> {
        self.neighbors[t][e].map(|n| n as usize)
    }

    /// Walks from `start` toward `p`; returns the containing triangle,
    /// or `None` when the walk exits the convex hull.
    ///
    /// Falls back to the exhaustive scan if the walk exceeds its step
    /// budget (possible on degenerate geometry), so the result is always
    /// correct.
    pub fn locate_walk(&self, t: &Triangulation, start: usize, p: Point2) -> Option<usize> {
        let n = t.triangles.len();
        if n == 0 {
            return None;
        }
        let mut cur = start.min(n - 1);
        let mut prev = usize::MAX;
        // Generous budget: a straight walk crosses each triangle once.
        for _ in 0..n + 3 {
            let tri = t.triangle(cur);
            // Find an edge strictly separating p from the triangle.
            let mut moved = false;
            for e in 0..3 {
                let a = tri.vertices[e];
                let b = tri.vertices[(e + 1) % 3];
                // CCW triangle: inside is left of each edge. p strictly
                // right of edge e => cross to that neighbour.
                if a.cross(b, p) < -1e-12 {
                    match self.neighbor(cur, e) {
                        Some(next) if next != prev => {
                            prev = cur;
                            cur = next;
                            moved = true;
                            break;
                        }
                        Some(_) => {
                            // Only way on is back where we came from:
                            // try another separating edge.
                            continue;
                        }
                        None => return None, // left the hull
                    }
                }
            }
            if !moved {
                // No separating edge: p is inside (or on) this triangle.
                return Some(cur);
            }
        }
        // Degenerate walk (numerical loop): exhaustive fallback.
        t.locate(p)
    }
}

#[cfg(test)]
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
        let adj = Adjacency::build(&t);
        let mut hull_edges = 0;
        for ti in 0..t.triangles.len() {
            for e in 0..3 {
                match adj.neighbor(ti, e) {
                    Some(other) => {
                        // The neighbour must point back at us.
                        let back = (0..3).any(|oe| adj.neighbor(other, oe) == Some(ti));
                        assert!(back, "asymmetric adjacency {ti} <-> {other}");
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
        let adj = Adjacency::build(&t);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let p = Point2::new(rng.gen_range(-5.0..105.0), rng.gen_range(-5.0..105.0));
            let start = rng.gen_range(0..t.triangles.len());
            let walked = adj.locate_walk(&t, start, p);
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
        let adj = Adjacency::build(&t);
        let p = Point2::new(50.0, 50.0);
        let want_contains = t.locate(p).is_some();
        for start in 0..t.triangles.len() {
            let got = adj.locate_walk(&t, start, p);
            assert_eq!(got.is_some(), want_contains, "start {start}");
            if let Some(ti) = got {
                assert!(t.triangle(ti).contains(p));
            }
        }
    }

    #[test]
    fn outside_hull_returns_none() {
        let t = random_tin(100, 9);
        let adj = Adjacency::build(&t);
        for p in [
            Point2::new(-50.0, 50.0),
            Point2::new(200.0, 200.0),
            Point2::new(50.0, -30.0),
        ] {
            assert_eq!(adj.locate_walk(&t, 0, p), None);
        }
    }
}
