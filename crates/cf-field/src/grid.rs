//! Regular-grid fields (DEMs for continuous fields).
//!
//! Paper Fig. 1: a conventional raster DEM is turned into a continuous
//! field by sampling at the grid *vertices* and interpolating inside each
//! rectangular cell. With linear interpolation each cell is split into
//! two triangles along its main diagonal, giving a piecewise-linear
//! (C⁰-continuous) surface whose extrema lie at the sample points.

use crate::estimate::triangle_band;
use crate::model::{sample_interval, FieldModel};
use cf_geom::{Aabb, Interval, Point2, Triangle};
use cf_storage::{codec, Record};

/// A scalar field sampled on a regular grid.
#[derive(Debug, Clone)]
pub struct GridField {
    /// Vertices along x.
    vw: usize,
    /// Vertices along y.
    vh: usize,
    origin: Point2,
    dx: f64,
    dy: f64,
    /// Row-major vertex values (`y * vw + x`).
    values: Vec<f64>,
}

impl GridField {
    /// Creates a grid field with unit spacing and origin `(0, 0)`.
    ///
    /// `values` are row-major vertex samples, `vw * vh` of them.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are below 2×2, the value count is wrong,
    /// or any value is non-finite.
    pub fn from_values(vw: usize, vh: usize, values: Vec<f64>) -> Self {
        Self::with_geometry(vw, vh, values, Point2::ORIGIN, 1.0, 1.0)
    }

    /// Creates a grid field with explicit origin and cell spacing.
    ///
    /// # Panics
    ///
    /// See [`GridField::from_values`]; additionally panics on
    /// non-positive spacing.
    fn with_geometry(
        vw: usize,
        vh: usize,
        values: Vec<f64>,
        origin: Point2,
        dx: f64,
        dy: f64,
    ) -> Self {
        assert!(
            vw >= 2 && vh >= 2,
            "need at least 2x2 vertices, got {vw}x{vh}"
        );
        assert_eq!(values.len(), vw * vh, "expected {} values", vw * vh);
        assert!(dx > 0.0 && dy > 0.0, "spacing must be positive");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "non-finite sample value"
        );
        Self {
            vw,
            vh,
            origin,
            dx,
            dy,
            values,
        }
    }

    /// Vertex counts `(along x, along y)`.
    pub fn vertex_dims(&self) -> (usize, usize) {
        (self.vw, self.vh)
    }

    /// Cell counts `(along x, along y)`.
    pub fn cell_dims(&self) -> (usize, usize) {
        (self.vw - 1, self.vh - 1)
    }

    /// Sample value at vertex `(x, y)`.
    pub fn vertex_value(&self, x: usize, y: usize) -> f64 {
        self.values[y * self.vw + x]
    }

    /// Cell grid coordinates of cell index `cell`.
    pub fn cell_coords(&self, cell: usize) -> (usize, usize) {
        let cw = self.vw - 1;
        (cell % cw, cell / cw)
    }

    /// Cell index of cell grid coordinates.
    pub fn cell_index(&self, cx: usize, cy: usize) -> usize {
        debug_assert!(cx < self.vw - 1 && cy < self.vh - 1);
        cy * (self.vw - 1) + cx
    }

    /// The four corner values of a cell in `[v00, v10, v01, v11]` order
    /// (lower-left, lower-right, upper-left, upper-right).
    pub fn cell_values(&self, cell: usize) -> [f64; 4] {
        let (cx, cy) = self.cell_coords(cell);
        [
            self.vertex_value(cx, cy),
            self.vertex_value(cx + 1, cy),
            self.vertex_value(cx, cy + 1),
            self.vertex_value(cx + 1, cy + 1),
        ]
    }

    /// Spatial bounding box of a cell.
    pub fn cell_box(&self, cell: usize) -> Aabb<2> {
        let (cx, cy) = self.cell_coords(cell);
        let x0 = self.origin.x + cx as f64 * self.dx;
        let y0 = self.origin.y + cy as f64 * self.dy;
        Aabb::new([x0, y0], [x0 + self.dx, y0 + self.dy])
    }
}

/// On-disk record of one grid cell: corner coordinates + corner values.
///
/// Self-contained so the estimation step can run from the bytes read
/// back from the cell file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCellRecord {
    /// Lower-left corner.
    pub x0: f64,
    /// Lower-left corner.
    pub y0: f64,
    /// Upper-right corner.
    pub x1: f64,
    /// Upper-right corner.
    pub y1: f64,
    /// Corner values `[v00, v10, v01, v11]`.
    pub vals: [f64; 4],
}

impl GridCellRecord {
    /// The two triangles of the cell (split along the main diagonal)
    /// with their vertex values.
    pub fn triangles(&self) -> [(Triangle, [f64; 3]); 2] {
        let p00 = Point2::new(self.x0, self.y0);
        let p10 = Point2::new(self.x1, self.y0);
        let p01 = Point2::new(self.x0, self.y1);
        let p11 = Point2::new(self.x1, self.y1);
        let [v00, v10, v01, v11] = self.vals;
        [
            (Triangle::new(p00, p10, p11), [v00, v10, v11]),
            (Triangle::new(p00, p11, p01), [v00, v11, v01]),
        ]
    }
}

impl Record for GridCellRecord {
    const SIZE: usize = 64;

    fn encode(&self, buf: &mut [u8]) {
        let mut off = 0;
        for v in [self.x0, self.y0, self.x1, self.y1] {
            off = codec::put_f64(buf, off, v);
        }
        for v in self.vals {
            off = codec::put_f64(buf, off, v);
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let g = |i: usize| codec::get_f64(buf, i * 8);
        Self {
            x0: g(0),
            y0: g(1),
            x1: g(2),
            y1: g(3),
            vals: [g(4), g(5), g(6), g(7)],
        }
    }
}

impl FieldModel for GridField {
    type CellRec = GridCellRecord;

    fn num_cells(&self) -> usize {
        (self.vw - 1) * (self.vh - 1)
    }

    fn cell_record(&self, cell: usize) -> GridCellRecord {
        let b = self.cell_box(cell);
        GridCellRecord {
            x0: b.lo[0],
            y0: b.lo[1],
            x1: b.hi[0],
            y1: b.hi[1],
            vals: self.cell_values(cell),
        }
    }

    fn cell_centroid(&self, cell: usize) -> Point2 {
        self.cell_box(cell).center_point()
    }

    fn cell_interval(&self, cell: usize) -> Interval {
        sample_interval(&self.cell_values(cell))
    }

    fn record_interval(rec: &GridCellRecord) -> Interval {
        sample_interval(&rec.vals)
    }

    fn record_band_visit(rec: &GridCellRecord, band: Interval, visit: &mut impl FnMut(&[Point2])) {
        for (tri, vals) in rec.triangles() {
            triangle_band(&tri, vals, band.lo, band.hi, visit);
        }
    }

    fn domain(&self) -> Aabb<2> {
        Aabb::new(
            [self.origin.x, self.origin.y],
            [
                self.origin.x + (self.vw - 1) as f64 * self.dx,
                self.origin.y + (self.vh - 1) as f64 * self.dy,
            ],
        )
    }

    fn value_domain(&self) -> Interval {
        Interval::hull(&self.values).expect("non-empty grid")
    }

    fn cell_bbox(&self, cell: usize) -> Aabb<2> {
        self.cell_box(cell)
    }

    fn record_value_at(rec: &GridCellRecord, p: Point2) -> Option<f64> {
        if !Aabb::new([rec.x0, rec.y0], [rec.x1, rec.y1]).contains_point(&[p.x, p.y]) {
            return None;
        }
        let u = (p.x - rec.x0) / (rec.x1 - rec.x0);
        let v = (p.y - rec.y0) / (rec.y1 - rec.y0);
        let [v00, v10, v01, v11] = rec.vals;
        Some(if u >= v {
            v00 + u * (v10 - v00) + v * (v11 - v10)
        } else {
            v00 + u * (v11 - v01) + v * (v01 - v00)
        })
    }

    fn value_at(&self, p: Point2) -> Option<f64> {
        if !self.domain().contains_point(&[p.x, p.y]) {
            return None;
        }
        let fx = (p.x - self.origin.x) / self.dx;
        let fy = (p.y - self.origin.y) / self.dy;
        // Clamp so the domain's upper boundary belongs to the last cell.
        let cx = (fx.floor() as usize).min(self.vw - 2);
        let cy = (fy.floor() as usize).min(self.vh - 2);
        let u = fx - cx as f64;
        let v = fy - cy as f64;
        let [v00, v10, v01, v11] = self.cell_values(self.cell_index(cx, cy));
        // Piecewise-linear over the two triangles of the cell, split
        // along the diagonal (0,0)-(1,1).
        Some(if u >= v {
            v00 + u * (v10 - v00) + v * (v11 - v10)
        } else {
            v00 + u * (v11 - v01) + v * (v01 - v00)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_geom::Polygon;

    /// 3x3 vertices, values = x + 10y (linear plane).
    fn plane_grid() -> GridField {
        let mut values = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                values.push(x as f64 + 10.0 * y as f64);
            }
        }
        GridField::from_values(3, 3, values)
    }

    #[test]
    fn dimensions_and_indexing() {
        let g = plane_grid();
        assert_eq!(g.vertex_dims(), (3, 3));
        assert_eq!(g.cell_dims(), (2, 2));
        assert_eq!(g.num_cells(), 4);
        assert_eq!(g.cell_coords(3), (1, 1));
        assert_eq!(g.cell_index(1, 1), 3);
        assert_eq!(g.cell_values(0), [0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn value_at_reproduces_linear_plane() {
        // A globally linear field must be reproduced exactly everywhere,
        // regardless of which triangle a point falls in.
        let g = plane_grid();
        for (x, y) in [
            (0.0, 0.0),
            (2.0, 2.0),
            (0.5, 0.25),
            (0.25, 0.5),
            (1.7, 0.3),
            (1.0, 1.0),
            (2.0, 0.0),
        ] {
            let want = x + 10.0 * y;
            let got = g.value_at(Point2::new(x, y)).unwrap();
            assert!((got - want).abs() < 1e-12, "at ({x},{y}): {got} vs {want}");
        }
        assert_eq!(g.value_at(Point2::new(-0.1, 0.0)), None);
        assert_eq!(g.value_at(Point2::new(0.0, 2.1)), None);
    }

    #[test]
    fn value_at_matches_vertices_on_nonlinear_data() {
        let values = vec![5.0, -2.0, 7.0, 0.5, 3.0, 9.0, -1.0, 2.0, 4.0];
        let g = GridField::from_values(3, 3, values.clone());
        for y in 0..3 {
            for x in 0..3 {
                let got = g.value_at(Point2::new(x as f64, y as f64)).unwrap();
                assert!((got - values[y * 3 + x]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cell_interval_is_corner_hull() {
        let g = GridField::from_values(3, 2, vec![1.0, 5.0, 3.0, -2.0, 4.0, 0.0]);
        assert_eq!(g.cell_interval(0), Interval::new(-2.0, 5.0));
        assert_eq!(g.cell_interval(1), Interval::new(0.0, 5.0));
        assert_eq!(g.value_domain(), Interval::new(-2.0, 5.0));
    }

    #[test]
    fn record_round_trip() {
        let g = plane_grid();
        for cell in 0..g.num_cells() {
            let rec = g.cell_record(cell);
            let mut buf = [0u8; GridCellRecord::SIZE];
            rec.encode(&mut buf);
            assert_eq!(GridCellRecord::decode(&buf), rec);
            assert_eq!(GridField::record_interval(&rec), g.cell_interval(cell));
        }
    }

    #[test]
    fn band_region_covers_whole_cell_for_wide_band() {
        let g = plane_grid();
        let rec = g.cell_record(0);
        let regions = GridField::record_band_region(&rec, Interval::new(-100.0, 100.0));
        let area: f64 = regions.iter().map(Polygon::area).sum();
        assert!((area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn band_region_area_on_linear_plane() {
        // On w = x + 10y over cell [0,1]², the band 0.2 <= w <= 0.5
        // is the strip between two parallel lines; since the cell's
        // interpolant is exactly that plane the area is the strip area
        // inside the square crossing the bottom edge: a triangle-ish
        // region. Verify against dense-sampling ground truth.
        let g = plane_grid();
        let rec = g.cell_record(0);
        let band = Interval::new(0.2, 0.5);
        let regions = GridField::record_band_region(&rec, band);
        let area: f64 = regions.iter().map(Polygon::area).sum();
        // Monte-Carlo-free check: integrate exactly on a fine grid.
        let n = 400;
        let mut inside = 0usize;
        for iy in 0..n {
            for ix in 0..n {
                let p = Point2::new((ix as f64 + 0.5) / n as f64, (iy as f64 + 0.5) / n as f64);
                let w = p.x + 10.0 * p.y;
                if band.contains(w) {
                    inside += 1;
                }
            }
        }
        let approx = inside as f64 / (n * n) as f64;
        assert!(
            (area - approx).abs() < 2e-3,
            "clipped {area} vs sampled {approx}"
        );
    }

    #[test]
    fn nan_record_has_an_interval_that_meets_no_band() {
        let g = plane_grid();
        for vals in [[f64::NAN; 4], [0.0, f64::NAN, 1.0, 2.0]] {
            let rec = GridCellRecord {
                vals,
                ..g.cell_record(0)
            };
            let iv = GridField::record_interval(&rec);
            assert!(iv.is_nan(), "{iv}");
            assert!(!iv.intersects(Interval::new(-1e300, 1e300)));
        }
    }

    #[test]
    fn geometry_with_offsets() {
        let g = GridField::with_geometry(
            2,
            2,
            vec![0.0, 1.0, 2.0, 3.0],
            Point2::new(10.0, 20.0),
            2.0,
            4.0,
        );
        assert_eq!(g.domain(), Aabb::new([10.0, 20.0], [12.0, 24.0]));
        assert_eq!(g.cell_box(0), Aabb::new([10.0, 20.0], [12.0, 24.0]));
        assert_eq!(g.cell_centroid(0), Point2::new(11.0, 22.0));
        // Vertex values at scaled positions.
        assert_eq!(g.value_at(Point2::new(12.0, 24.0)), Some(3.0));
        assert_eq!(g.value_at(Point2::new(10.0, 20.0)), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn rejects_tiny_grid() {
        let _ = GridField::from_values(1, 5, vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_values() {
        let _ = GridField::from_values(2, 2, vec![0.0, 1.0, f64::NAN, 3.0]);
    }
}
