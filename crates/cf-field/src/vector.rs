//! Vector fields: the paper's §5 future-work extension.
//!
//! A vector field has `K ≥ 2` value components at every point (paper
//! §2.1: wind, or the ocean temperature + salinity pair of the §1
//! motivating example). A cell's value summary generalizes from an
//! interval to a `K`-dimensional box, and a multi-attribute value query
//! ("temperature in [20, 25] AND salinity in [12, 13]") is a box
//! intersection — indexed by a `K`-dimensional R\*-tree over subfield
//! boxes.

use crate::estimate::plane_coefficients;
use cf_geom::{Aabb, Point2, Polygon, Triangle};
use cf_storage::{codec, Record};

/// A `K`-component vector field sampled on a regular grid.
#[derive(Debug, Clone)]
pub struct VectorGridField<const K: usize> {
    vw: usize,
    vh: usize,
    origin: Point2,
    dx: f64,
    dy: f64,
    /// Row-major per-vertex value vectors.
    values: Vec<[f64; K]>,
}

impl<const K: usize> VectorGridField<K> {
    /// Creates a vector grid field with unit spacing and origin `(0,0)`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are below 2×2, the value count is wrong, or
    /// any component is non-finite.
    pub fn from_values(vw: usize, vh: usize, values: Vec<[f64; K]>) -> Self {
        assert!(K >= 1, "need at least one component");
        assert!(vw >= 2 && vh >= 2, "need at least 2x2 vertices");
        assert_eq!(values.len(), vw * vh, "expected {} samples", vw * vh);
        assert!(
            values.iter().all(|v| v.iter().all(|x| x.is_finite())),
            "non-finite sample component"
        );
        Self {
            vw,
            vh,
            origin: Point2::ORIGIN,
            dx: 1.0,
            dy: 1.0,
            values,
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        (self.vw - 1) * (self.vh - 1)
    }

    /// Cell grid coordinates of a cell index.
    pub fn cell_coords(&self, cell: usize) -> (usize, usize) {
        let cw = self.vw - 1;
        (cell % cw, cell / cw)
    }

    /// Vertex sample vector at `(x, y)`.
    pub fn vertex_value(&self, x: usize, y: usize) -> [f64; K] {
        self.values[y * self.vw + x]
    }

    /// The four corner sample vectors `[v00, v10, v01, v11]`.
    pub fn cell_values(&self, cell: usize) -> [[f64; K]; 4] {
        let (cx, cy) = self.cell_coords(cell);
        [
            self.vertex_value(cx, cy),
            self.vertex_value(cx + 1, cy),
            self.vertex_value(cx, cy + 1),
            self.vertex_value(cx + 1, cy + 1),
        ]
    }

    /// Spatial box of a cell.
    pub fn cell_box(&self, cell: usize) -> Aabb<2> {
        let (cx, cy) = self.cell_coords(cell);
        let x0 = self.origin.x + cx as f64 * self.dx;
        let y0 = self.origin.y + cy as f64 * self.dy;
        Aabb::new([x0, y0], [x0 + self.dx, y0 + self.dy])
    }

    /// Center of a cell (Hilbert-ordering key).
    pub fn cell_centroid(&self, cell: usize) -> Point2 {
        self.cell_box(cell).center_point()
    }

    /// Bounding box of the spatial domain.
    pub fn domain(&self) -> Aabb<2> {
        Aabb::new(
            [self.origin.x, self.origin.y],
            [
                self.origin.x + (self.vw - 1) as f64 * self.dx,
                self.origin.y + (self.vh - 1) as f64 * self.dy,
            ],
        )
    }

    /// The `K`-dimensional box of all values inside the cell (hull of
    /// corner vectors — exact for per-component linear interpolation).
    pub fn cell_value_box(&self, cell: usize) -> Aabb<K> {
        self.cell_record(cell).value_box()
    }

    /// Hull of all value vectors (for normalizing query boxes).
    pub fn value_domain(&self) -> Aabb<K> {
        Aabb::hull((0..self.num_cells()).map(|c| self.cell_value_box(c)))
    }

    /// On-disk record for a cell.
    pub fn cell_record(&self, cell: usize) -> VectorCellRecord<K> {
        let b = self.cell_box(cell);
        VectorCellRecord {
            x0: b.lo[0],
            y0: b.lo[1],
            x1: b.hi[0],
            y1: b.hi[1],
            vals: self.cell_values(cell),
        }
    }

    /// Q1 query: the interpolated value vector at `p`.
    pub fn value_at(&self, p: Point2) -> Option<[f64; K]> {
        if !self.domain().contains_point(&[p.x, p.y]) {
            return None;
        }
        let fx = (p.x - self.origin.x) / self.dx;
        let fy = (p.y - self.origin.y) / self.dy;
        let cx = (fx.floor() as usize).min(self.vw - 2);
        let cy = (fy.floor() as usize).min(self.vh - 2);
        let u = fx - cx as f64;
        let v = fy - cy as f64;
        let cell = cy * (self.vw - 1) + cx;
        let [v00, v10, v01, v11] = self.cell_values(cell);
        let mut out = [0.0; K];
        for d in 0..K {
            out[d] = if u >= v {
                v00[d] + u * (v10[d] - v00[d]) + v * (v11[d] - v10[d])
            } else {
                v00[d] + u * (v11[d] - v01[d]) + v * (v01[d] - v00[d])
            };
        }
        Some(out)
    }
}

/// On-disk record of one vector-field cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorCellRecord<const K: usize> {
    /// Lower-left corner.
    pub x0: f64,
    /// Lower-left corner.
    pub y0: f64,
    /// Upper-right corner.
    pub x1: f64,
    /// Upper-right corner.
    pub y1: f64,
    /// Corner sample vectors `[v00, v10, v01, v11]`.
    pub vals: [[f64; K]; 4],
}

impl<const K: usize> VectorCellRecord<K> {
    /// The value box of the cell (hull of corner vectors). A NaN
    /// component in any corner makes it the all-NaN box, which
    /// intersects no query box — the vector form of the scalar fields'
    /// [`cf_geom::Interval::NAN`] rule, so decoded bytes never panic.
    pub fn value_box(&self) -> Aabb<K> {
        if self.vals.iter().flatten().any(|v| v.is_nan()) {
            // Field by field: `Aabb::new` asserts `lo <= hi`.
            return Aabb {
                lo: [f64::NAN; K],
                hi: [f64::NAN; K],
            };
        }
        let mut lo = self.vals[0];
        let mut hi = self.vals[0];
        for corner in &self.vals[1..] {
            for d in 0..K {
                lo[d] = lo[d].min(corner[d]);
                hi[d] = hi[d].max(corner[d]);
            }
        }
        Aabb::new(lo, hi)
    }

    /// The two triangles of the cell with per-vertex value vectors.
    pub fn triangles(&self) -> [(Triangle, [[f64; K]; 3]); 2] {
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

    /// Estimation step for a multi-attribute query: the exact sub-regions
    /// of the cell where *every* component lies inside `bands`.
    ///
    /// Each component is affine per triangle, so the region is the
    /// triangle clipped by `2K` half-planes.
    pub fn band_region(&self, bands: &Aabb<K>) -> Vec<Polygon> {
        let mut out = Vec::new();
        for (tri, vals) in self.triangles() {
            let mut poly: Polygon = tri.into();
            #[allow(clippy::needless_range_loop)] // d indexes three arrays at once
            for d in 0..K {
                let comp = [vals[0][d], vals[1][d], vals[2][d]];
                let Some((gx, gy, c)) = plane_coefficients(&tri, comp) else {
                    poly = Polygon::empty();
                    break;
                };
                let (lo, hi) = (bands.lo[d], bands.hi[d]);
                poly = poly
                    .clip_halfplane(|p| gx * p.x + gy * p.y + c - lo)
                    .clip_halfplane(|p| hi - (gx * p.x + gy * p.y + c));
                if poly.is_empty() {
                    break;
                }
            }
            if !poly.is_empty() {
                out.push(poly);
            }
        }
        out
    }
}

impl<const K: usize> Record for VectorCellRecord<K> {
    const SIZE: usize = 32 + 32 * K;

    fn encode(&self, buf: &mut [u8]) {
        let mut off = 0;
        for v in [self.x0, self.y0, self.x1, self.y1] {
            off = codec::put_f64(buf, off, v);
        }
        for corner in self.vals {
            for d in corner {
                off = codec::put_f64(buf, off, d);
            }
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let g = |i: usize| codec::get_f64(buf, i * 8);
        let mut vals = [[0.0; K]; 4];
        let mut i = 4;
        for corner in vals.iter_mut() {
            for d in corner.iter_mut() {
                *d = g(i);
                i += 1;
            }
        }
        Self {
            x0: g(0),
            y0: g(1),
            x1: g(2),
            y1: g(3),
            vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x3 field with components (x + y, x − y).
    fn sample_field() -> VectorGridField<2> {
        let mut values = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                values.push([x as f64 + y as f64, x as f64 - y as f64]);
            }
        }
        VectorGridField::from_values(3, 3, values)
    }

    #[test]
    fn dimensions_and_boxes() {
        let f = sample_field();
        assert_eq!(f.num_cells(), 4);
        // Cell 0: corners (0,0),(1,0),(0,1),(1,1):
        // comp0 in [0,2], comp1 in [-1,1].
        assert_eq!(f.cell_value_box(0), Aabb::new([0.0, -1.0], [2.0, 1.0]));
        assert_eq!(f.value_domain(), Aabb::new([0.0, -2.0], [4.0, 2.0]));
    }

    #[test]
    fn value_at_linear_components() {
        let f = sample_field();
        for (x, y) in [(0.3, 0.9), (1.5, 0.5), (2.0, 2.0), (0.0, 0.0)] {
            let got = f.value_at(Point2::new(x, y)).unwrap();
            assert!((got[0] - (x + y)).abs() < 1e-12);
            assert!((got[1] - (x - y)).abs() < 1e-12);
        }
        assert_eq!(f.value_at(Point2::new(3.0, 0.0)), None);
    }

    #[test]
    fn record_round_trip() {
        let f = sample_field();
        for cell in 0..f.num_cells() {
            let rec = f.cell_record(cell);
            let mut buf = vec![0u8; VectorCellRecord::<2>::SIZE];
            rec.encode(&mut buf);
            assert_eq!(VectorCellRecord::<2>::decode(&buf), rec);
            assert_eq!(rec.value_box(), f.cell_value_box(cell));
        }
        assert_eq!(VectorCellRecord::<2>::SIZE, 96);
    }

    #[test]
    fn band_region_multi_attribute() {
        // Region of cell 0 where x+y in [0.5, 1.5] AND x−y in [0, 1]:
        // intersect two diagonal strips inside the unit square.
        let f = sample_field();
        let rec = f.cell_record(0);
        let regions = rec.band_region(&Aabb::new([0.5, 0.0], [1.5, 1.0]));
        let area: f64 = regions.iter().map(Polygon::area).sum();
        // Dense-grid ground truth.
        let n = 500;
        let mut inside = 0usize;
        for iy in 0..n {
            for ix in 0..n {
                let x = (ix as f64 + 0.5) / n as f64;
                let y = (iy as f64 + 0.5) / n as f64;
                if (0.5..=1.5).contains(&(x + y)) && (0.0..=1.0).contains(&(x - y)) {
                    inside += 1;
                }
            }
        }
        let approx = inside as f64 / (n * n) as f64;
        assert!(
            (area - approx).abs() < 2e-3,
            "clipped {area} vs sampled {approx}"
        );
        // All region vertices satisfy both bands.
        for r in &regions {
            for v in &r.vertices {
                assert!(v.x + v.y >= 0.5 - 1e-9 && v.x + v.y <= 1.5 + 1e-9);
                assert!(v.x - v.y >= -1e-9 && v.x - v.y <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn empty_band_gives_no_region() {
        let f = sample_field();
        let rec = f.cell_record(0);
        let regions = rec.band_region(&Aabb::new([100.0, 0.0], [101.0, 1.0]));
        assert!(regions.is_empty());
    }

    #[test]
    #[should_panic(expected = "expected 9 samples")]
    fn wrong_sample_count_rejected() {
        let _ = VectorGridField::<2>::from_values(3, 3, vec![[0.0, 0.0]; 4]);
    }
}
