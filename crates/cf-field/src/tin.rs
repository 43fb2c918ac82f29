//! TIN fields: triangulated irregular networks over scattered samples.

use crate::estimate::triangle_band;
use crate::model::{sample_interval, FieldModel};
use cf_delaunay::{triangulate, Triangulation, TriangulationError};
use cf_geom::{Aabb, Interval, Point2, Triangle};
use cf_storage::{codec, Record};

/// A scalar field over a TIN: each triangle interpolates its three
/// vertex samples linearly (paper §2.1: "irregular triangle in TIN").
#[derive(Debug, Clone)]
pub struct TinField {
    triangulation: Triangulation,
    values: Vec<f64>,
    domain: Aabb<2>,
}

impl TinField {
    /// Builds the Delaunay TIN of `(position, value)` samples.
    ///
    /// # Errors
    ///
    /// Propagates triangulation failures (too few / collinear points).
    ///
    /// # Panics
    ///
    /// Panics if `points` and `values` lengths differ or a value is
    /// non-finite.
    pub fn from_samples(points: &[Point2], values: Vec<f64>) -> Result<Self, TriangulationError> {
        assert_eq!(points.len(), values.len(), "one value per sample point");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        Ok(Self::from_triangulation(triangulate(points)?, values))
    }

    /// Wraps a triangulation with one value per triangulation point.
    fn from_triangulation(triangulation: Triangulation, values: Vec<f64>) -> Self {
        let domain = Aabb::hull_of_points(&triangulation.points);
        Self {
            triangulation,
            values,
            domain,
        }
    }

    /// The underlying triangulation.
    pub fn triangulation(&self) -> &Triangulation {
        &self.triangulation
    }

    /// The geometric triangle of a cell.
    fn cell_triangle(&self, cell: usize) -> Triangle {
        self.triangulation.triangle(cell)
    }

    /// The three vertex values of a cell.
    fn cell_vertex_values(&self, cell: usize) -> [f64; 3] {
        let [a, b, c] = self.triangulation.triangles[cell];
        [self.values[a], self.values[b], self.values[c]]
    }
}

/// On-disk record of a TIN cell: the three sample points with values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TinCellRecord {
    /// Vertex positions.
    pub points: [Point2; 3],
    /// Vertex sample values.
    pub values: [f64; 3],
}

impl TinCellRecord {
    /// The geometric triangle.
    #[inline]
    pub fn triangle(&self) -> Triangle {
        Triangle::new(self.points[0], self.points[1], self.points[2])
    }
}

impl Record for TinCellRecord {
    const SIZE: usize = 72;

    fn encode(&self, buf: &mut [u8]) {
        let mut off = 0;
        for p in self.points {
            off = codec::put_f64(buf, off, p.x);
            off = codec::put_f64(buf, off, p.y);
        }
        for v in self.values {
            off = codec::put_f64(buf, off, v);
        }
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        let g = |i: usize| codec::get_f64(buf, i * 8);
        Self {
            points: [
                Point2::new(g(0), g(1)),
                Point2::new(g(2), g(3)),
                Point2::new(g(4), g(5)),
            ],
            values: [g(6), g(7), g(8)],
        }
    }

    /// The three vertex/value pairs are cyclically interchangeable:
    /// rotating them preserves orientation, so the triangle, its
    /// interpolant, and every band region are unchanged. Adjacent cells
    /// in a Hilbert scan usually share an edge — two vertices and their
    /// values — and the codec's rotation pass lines those shared words
    /// up with columns it can reference.
    fn column_rotation_groups() -> Vec<Vec<usize>> {
        // Units: (p0.x, p0.y, v0), (p1.x, p1.y, v1), (p2.x, p2.y, v2).
        vec![vec![0, 1, 6], vec![2, 3, 7], vec![4, 5, 8]]
    }
}

impl FieldModel for TinField {
    type CellRec = TinCellRecord;

    fn num_cells(&self) -> usize {
        self.triangulation.triangles.len()
    }

    fn cell_record(&self, cell: usize) -> TinCellRecord {
        let tri = self.cell_triangle(cell);
        TinCellRecord {
            points: tri.vertices,
            values: self.cell_vertex_values(cell),
        }
    }

    fn cell_centroid(&self, cell: usize) -> Point2 {
        self.cell_triangle(cell).centroid()
    }

    fn cell_interval(&self, cell: usize) -> Interval {
        sample_interval(&self.cell_vertex_values(cell))
    }

    #[inline]
    fn record_interval(rec: &TinCellRecord) -> Interval {
        sample_interval(&rec.values)
    }

    fn record_band_visit(rec: &TinCellRecord, band: Interval, visit: &mut impl FnMut(&[Point2])) {
        triangle_band(&rec.triangle(), rec.values, band.lo, band.hi, visit);
    }

    fn domain(&self) -> Aabb<2> {
        self.domain
    }

    fn value_domain(&self) -> Interval {
        Interval::hull(&self.values).expect("non-empty TIN")
    }

    fn value_at(&self, p: Point2) -> Option<f64> {
        // Walk-based location (expected O(√n)); falls back to the scan
        // internally on degenerate walks.
        let cell = self.triangulation.locate_walk(0, p)?;
        self.cell_triangle(cell)
            .interpolate(self.cell_vertex_values(cell), p)
    }

    #[inline]
    fn record_bbox(rec: &TinCellRecord) -> Aabb<2> {
        rec.triangle().contains_bbox()
    }

    fn record_value_at(rec: &TinCellRecord, p: Point2) -> Option<f64> {
        let tri = rec.triangle();
        if !tri.contains(p) {
            return None;
        }
        tri.interpolate(rec.values, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tin() -> TinField {
        // A unit square with center point: 4 triangles.
        let points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.5),
        ];
        let values = vec![0.0, 10.0, 20.0, 10.0, 10.0];
        TinField::from_samples(&points, values).unwrap()
    }

    #[test]
    fn structure_of_square_with_center() {
        let tin = sample_tin();
        assert_eq!(tin.num_cells(), 4);
        assert!((tin.triangulation().area() - 1.0).abs() < 1e-9);
        assert_eq!(tin.value_domain(), Interval::new(0.0, 20.0));
        assert_eq!(tin.domain(), Aabb::new([0.0, 0.0], [1.0, 1.0]));
    }

    #[test]
    fn value_at_vertices_and_interior() {
        let tin = sample_tin();
        assert!((tin.value_at(Point2::new(0.5, 0.5)).unwrap() - 10.0).abs() < 1e-9);
        assert!((tin.value_at(Point2::new(0.0, 0.0)).unwrap() - 0.0).abs() < 1e-9);
        // Point on edge between (0,0)=0 and center=10.
        assert!((tin.value_at(Point2::new(0.25, 0.25)).unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(tin.value_at(Point2::new(2.0, 2.0)), None);
    }

    #[test]
    fn record_bbox_holds_every_point_the_record_answers() {
        let tin = sample_tin();
        let step = 1.0 / 64.0;
        for cell in 0..tin.num_cells() {
            let rec = tin.cell_record(cell);
            let bbox = TinField::record_bbox(&rec);
            assert!(bbox.contains(&Aabb::hull_of_points(&rec.points)));
            for i in -2..=66 {
                for j in -2..=66 {
                    let p = Point2::new(i as f64 * step, j as f64 * step);
                    if TinField::record_value_at(&rec, p).is_some() {
                        assert!(bbox.contains_point(&[p.x, p.y]), "cell {cell} at {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn cell_intervals_are_vertex_hulls() {
        let tin = sample_tin();
        for cell in 0..tin.num_cells() {
            let iv = tin.cell_interval(cell);
            let vals = tin.cell_vertex_values(cell);
            assert_eq!(iv, Interval::hull(&vals).unwrap());
        }
    }

    #[test]
    fn record_round_trip() {
        let tin = sample_tin();
        for cell in 0..tin.num_cells() {
            let rec = tin.cell_record(cell);
            let mut buf = [0u8; TinCellRecord::SIZE];
            rec.encode(&mut buf);
            assert_eq!(TinCellRecord::decode(&buf), rec);
            assert_eq!(TinField::record_interval(&rec), tin.cell_interval(cell));
        }
    }

    #[test]
    fn band_regions_tile_the_domain() {
        // Bands partitioning the value domain must tile the full TIN
        // area.
        let tin = sample_tin();
        let cuts = [0.0, 5.0, 10.0, 15.0, 20.0];
        let mut total = 0.0;
        for w in cuts.windows(2) {
            let band = Interval::new(w[0], w[1]);
            for cell in 0..tin.num_cells() {
                let rec = tin.cell_record(cell);
                for r in TinField::record_band_region(&rec, band) {
                    total += r.area();
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn from_triangulation_wrapper() {
        let points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(1.0, 2.0),
        ];
        let tri = triangulate(&points).unwrap();
        let tin = TinField::from_triangulation(tri, vec![1.0, 2.0, 3.0]);
        assert_eq!(tin.num_cells(), 1);
        assert_eq!(tin.cell_vertex_values(0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "one value per sample")]
    fn mismatched_values_rejected() {
        let points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        ];
        let _ = TinField::from_samples(&points, vec![1.0]);
    }
}
