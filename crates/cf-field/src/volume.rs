//! 3-D volume fields: hexahedral cells over a regular 3-D grid.
//!
//! The paper motivates these directly (§1: "Three-dimensional fields can
//! model geological structures"; §2.1: "hybrid model of hexahedra or
//! tetrahedra in a 3-D volume field") and its related work (§2.3) treats
//! iso-surface extraction from volumetric scalar data as the same
//! interval-intersection problem. This module provides the 3-D analogue
//! of [`GridField`](crate::GridField):
//!
//! * values sampled at the vertices of a regular 3-D grid;
//! * each hexahedral cell split into **six tetrahedra** around its main
//!   diagonal, giving a continuous piecewise-linear interpolant whose
//!   extrema are at sample points (so cell intervals are corner hulls);
//! * an **exact estimation step**: for a linear function on a
//!   tetrahedron the measure of `{a ≤ w ≤ b}` has a closed form — the
//!   distribution of a linear functional over a uniform simplex is a
//!   B-spline, so the CDF is a sum of truncated cubics
//!   (`F(t) = Σᵢ (t−dᵢ)₊³ / Πⱼ≠ᵢ (dⱼ−dᵢ)`); no polyhedron clipping is
//!   needed.

use crate::model::sample_interval;
use cf_geom::Interval;
use cf_storage::{codec, Record};

/// A scalar field sampled on a regular 3-D grid with hexahedral cells.
#[derive(Debug, Clone)]
pub struct Grid3Field {
    vx: usize,
    vy: usize,
    vz: usize,
    /// Vertex values, x-fastest: `(z * vy + y) * vx + x`.
    values: Vec<f64>,
}

/// Corner order of a cell: index bit 0 = +x, bit 1 = +y, bit 2 = +z.
const CORNER_BITS: [(usize, usize, usize); 8] = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (1, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
];

/// The six tetrahedra of the cube, all sharing the main diagonal 0–7.
/// Each row lists corner indices; each tet has volume 1/6 of the cell.
const CUBE_TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 3, 2, 7],
    [0, 2, 6, 7],
    [0, 6, 4, 7],
    [0, 4, 5, 7],
    [0, 5, 1, 7],
];

impl Grid3Field {
    /// Creates a volume field with unit spacing from vertex samples
    /// (`vx * vy * vz` values, x-fastest).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is below 2, the count is wrong, or a
    /// value is non-finite.
    pub fn from_values(vx: usize, vy: usize, vz: usize, values: Vec<f64>) -> Self {
        assert!(
            vx >= 2 && vy >= 2 && vz >= 2,
            "need at least 2x2x2 vertices"
        );
        assert_eq!(
            values.len(),
            vx * vy * vz,
            "expected {} values",
            vx * vy * vz
        );
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        Self { vx, vy, vz, values }
    }

    /// Vertex counts `(x, y, z)`.
    pub fn vertex_dims(&self) -> (usize, usize, usize) {
        (self.vx, self.vy, self.vz)
    }

    /// Cell counts `(x, y, z)`.
    pub fn cell_dims(&self) -> (usize, usize, usize) {
        (self.vx - 1, self.vy - 1, self.vz - 1)
    }

    /// Number of hexahedral cells.
    pub fn num_cells(&self) -> usize {
        let (cx, cy, cz) = self.cell_dims();
        cx * cy * cz
    }

    /// Sample value at vertex `(x, y, z)`.
    pub fn vertex_value(&self, x: usize, y: usize, z: usize) -> f64 {
        self.values[(z * self.vy + y) * self.vx + x]
    }

    /// Grid coordinates of a cell index (x-fastest).
    pub fn cell_coords(&self, cell: usize) -> (usize, usize, usize) {
        let (cx, cy, _) = self.cell_dims();
        (cell % cx, (cell / cx) % cy, cell / (cx * cy))
    }

    /// Cell index from grid coordinates.
    pub fn cell_index(&self, x: usize, y: usize, z: usize) -> usize {
        let (cx, cy, _) = self.cell_dims();
        (z * cy + y) * cx + x
    }

    /// The eight corner values of a cell in `CORNER_BITS` order.
    pub fn cell_values(&self, cell: usize) -> [f64; 8] {
        let (x, y, z) = self.cell_coords(cell);
        let mut out = [0.0; 8];
        for (i, &(dx, dy, dz)) in CORNER_BITS.iter().enumerate() {
            out[i] = self.vertex_value(x + dx, y + dy, z + dz);
        }
        out
    }

    /// Interval of all values inside the cell (corner hull — exact for
    /// the piecewise-linear tetrahedral interpolant).
    pub fn cell_interval(&self, cell: usize) -> Interval {
        sample_interval(&self.cell_values(cell))
    }

    /// Center of the cell (unit spacing), the 3-D Hilbert ordering key.
    pub fn cell_centroid(&self, cell: usize) -> [f64; 3] {
        let (x, y, z) = self.cell_coords(cell);
        [x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5]
    }

    /// Hull of all field values.
    pub fn value_domain(&self) -> Interval {
        Interval::hull(&self.values).expect("non-empty grid")
    }

    /// On-disk record for a cell.
    pub fn cell_record(&self, cell: usize) -> VolumeCellRecord {
        let (x, y, z) = self.cell_coords(cell);
        VolumeCellRecord {
            x0: x as f64,
            y0: y as f64,
            z0: z as f64,
            vals: self.cell_values(cell),
        }
    }

    /// Q1 query: the interpolated value at a point (unit spacing), or
    /// `None` outside the grid.
    ///
    /// Inside each cell the interpolant is the simplex ("staircase")
    /// interpolation over the containing tetrahedron of `CUBE_TETS`.
    pub fn value_at(&self, p: [f64; 3]) -> Option<f64> {
        let (cx, cy, cz) = self.cell_dims();
        if p.iter().any(|v| !v.is_finite() || *v < 0.0)
            || p[0] > cx as f64
            || p[1] > cy as f64
            || p[2] > cz as f64
        {
            return None;
        }
        let ix = (p[0].floor() as usize).min(cx - 1);
        let iy = (p[1].floor() as usize).min(cy - 1);
        let iz = (p[2].floor() as usize).min(cz - 1);
        let cell = self.cell_index(ix, iy, iz);
        let vals = self.cell_values(cell);
        let local = [p[0] - ix as f64, p[1] - iy as f64, p[2] - iz as f64];
        Some(simplex_interpolate(&vals, local))
    }
}

/// Piecewise-linear interpolation of cube-corner values at local
/// coordinates `(u, v, w) ∈ [0, 1]³`, consistent with the 6-tet split:
/// walk from corner 0 toward corner 7 adding one axis bit at a time in
/// decreasing-coordinate order.
fn simplex_interpolate(vals: &[f64; 8], local: [f64; 3]) -> f64 {
    // Axis order by decreasing local coordinate (stable for ties).
    let mut axes = [0usize, 1, 2];
    axes.sort_by(|&a, &b| {
        local[b]
            .partial_cmp(&local[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let sorted = [local[axes[0]], local[axes[1]], local[axes[2]]];
    let mut corner = 0usize;
    let mut value = vals[0] * (1.0 - sorted[0]);
    let weights = [sorted[0] - sorted[1], sorted[1] - sorted[2], sorted[2]];
    for (step, &axis) in axes.iter().enumerate() {
        corner |= 1 << axis;
        value += vals[corner] * weights[step];
    }
    value
}

/// Fraction of a tetrahedron's volume where the linear interpolant of
/// the vertex values `d` is `≤ t`.
///
/// Closed form: the distribution of a linear functional over a uniform
/// simplex is a degree-3 B-spline with knots at the vertex values, so
/// `F(t) = Σᵢ (t−dᵢ)₊³ / Πⱼ≠ᵢ (dⱼ−dᵢ)`. Repeated knots are separated
/// by a relative ε before evaluation (error O(ε)).
fn tet_fraction_below(d: [f64; 4], t: f64) -> f64 {
    let mut k = d;
    k.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    // Order matters for constant tets: t equal to the single value must
    // count as "all below" (CDF right-continuity at the atom).
    if t >= k[3] {
        return 1.0;
    }
    if t <= k[0] {
        return 0.0;
    }
    let spread = k[3] - k[0];
    if spread <= 0.0 {
        // Constant tet: t is strictly between equal values — impossible,
        // handled by the early returns; defensive fallback.
        return if t >= k[0] { 1.0 } else { 0.0 };
    }
    // Separate coincident knots.
    let eps = spread * 1e-9;
    for i in 1..4 {
        if k[i] - k[i - 1] < eps {
            k[i] = k[i - 1] + eps;
        }
    }
    let mut f = 0.0;
    for i in 0..4 {
        let x = t - k[i];
        if x <= 0.0 {
            continue;
        }
        let mut denom = 1.0;
        for j in 0..4 {
            if j != i {
                denom *= k[j] - k[i];
            }
        }
        f += x * x * x / denom;
    }
    f.clamp(0.0, 1.0)
}

/// Measure of `{a ≤ w ≤ b}` within a tetrahedron of volume `tet_volume`.
fn tet_band_volume(tet_volume: f64, d: [f64; 4], band: Interval) -> f64 {
    tet_volume * (tet_fraction_below(d, band.hi) - tet_fraction_below(d, band.lo)).max(0.0)
}

/// On-disk record of one hexahedral cell: origin + 8 corner values
/// (unit spacing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeCellRecord {
    /// Cell origin (lower corner), in grid units.
    pub x0: f64,
    /// Cell origin.
    pub y0: f64,
    /// Cell origin.
    pub z0: f64,
    /// Corner values in [`Grid3Field::cell_values`] order.
    pub vals: [f64; 8],
}

impl VolumeCellRecord {
    /// Value interval of the cell: the corner hull, or [`Interval::NAN`]
    /// (which meets no band) when any corner is NaN — so a query never
    /// hands a decoded NaN sample to [`VolumeCellRecord::band_volume`].
    pub fn interval(&self) -> Interval {
        sample_interval(&self.vals)
    }

    /// Exact measure of `{w ∈ band}` within this unit cell: sum over the
    /// six tetrahedra (volume 1/6 each) of the closed-form band volume.
    pub fn band_volume(&self, band: Interval) -> f64 {
        let mut total = 0.0;
        for tet in CUBE_TETS {
            let d = [
                self.vals[tet[0]],
                self.vals[tet[1]],
                self.vals[tet[2]],
                self.vals[tet[3]],
            ];
            total += tet_band_volume(1.0 / 6.0, d, band);
        }
        total
    }
}

impl Record for VolumeCellRecord {
    const SIZE: usize = 88;

    fn encode(&self, buf: &mut [u8]) {
        let mut off = 0;
        for v in [self.x0, self.y0, self.z0] {
            off = codec::put_f64(buf, off, v);
        }
        for v in self.vals {
            off = codec::put_f64(buf, off, v);
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let g = |i: usize| codec::get_f64(buf, i * 8);
        let mut vals = [0.0; 8];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = g(3 + i);
        }
        Self {
            x0: g(0),
            y0: g(1),
            z0: g(2),
            vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Field w(x, y, z) = x + 2y + 4z on a small grid.
    fn linear_field() -> Grid3Field {
        let (vx, vy, vz) = (4, 3, 3);
        let mut values = Vec::new();
        for z in 0..vz {
            for y in 0..vy {
                for x in 0..vx {
                    values.push(x as f64 + 2.0 * y as f64 + 4.0 * z as f64);
                }
            }
        }
        Grid3Field::from_values(vx, vy, vz, values)
    }

    #[test]
    fn dims_and_indexing() {
        let f = linear_field();
        assert_eq!(f.vertex_dims(), (4, 3, 3));
        assert_eq!(f.cell_dims(), (3, 2, 2));
        assert_eq!(f.num_cells(), 12);
        for cell in 0..f.num_cells() {
            let (x, y, z) = f.cell_coords(cell);
            assert_eq!(f.cell_index(x, y, z), cell);
        }
    }

    #[test]
    fn interpolation_reproduces_linear_fields() {
        // The simplex interpolant is exact for globally linear data.
        let f = linear_field();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let p = [
                rng.gen_range(0.0..3.0),
                rng.gen_range(0.0..2.0),
                rng.gen_range(0.0..2.0),
            ];
            let want = p[0] + 2.0 * p[1] + 4.0 * p[2];
            let got = f.value_at(p).expect("inside grid");
            assert!((got - want).abs() < 1e-10, "at {p:?}: {got} vs {want}");
        }
        assert_eq!(f.value_at([5.0, 0.0, 0.0]), None);
        assert_eq!(f.value_at([-0.1, 0.0, 0.0]), None);
    }

    #[test]
    fn interpolation_matches_vertices() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<f64> = (0..27).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let f = Grid3Field::from_values(3, 3, 3, values.clone());
        for z in 0..3 {
            for y in 0..3 {
                for x in 0..3 {
                    let got = f.value_at([x as f64, y as f64, z as f64]).expect("vertex");
                    let want = values[(z * 3 + y) * 3 + x];
                    assert!((got - want).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn cell_interval_is_corner_hull() {
        let f = linear_field();
        // Cell (0,0,0) spans corners 0 .. 1+2+4.
        assert_eq!(f.cell_interval(0), Interval::new(0.0, 7.0));
        assert_eq!(f.value_domain(), Interval::new(0.0, 3.0 + 4.0 + 8.0));
    }

    #[test]
    fn tet_cdf_endpoints_and_monotonicity() {
        let d = [0.0, 1.0, 2.0, 5.0];
        assert_eq!(tet_fraction_below(d, -1.0), 0.0);
        assert_eq!(tet_fraction_below(d, 0.0), 0.0);
        assert_eq!(tet_fraction_below(d, 5.0), 1.0);
        assert_eq!(tet_fraction_below(d, 9.0), 1.0);
        let mut prev = 0.0;
        for i in 0..=100 {
            let t = i as f64 * 0.05;
            let f = tet_fraction_below(d, t);
            assert!(f >= prev - 1e-12, "CDF must be monotone at t={t}");
            prev = f;
        }
    }

    #[test]
    fn tet_cdf_matches_monte_carlo() {
        // Uniform sampling of the reference tetrahedron via sorted
        // exponentials → barycentric weights.
        let d = [1.0, 2.0, 4.0, 8.0];
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200_000;
        for t in [1.5, 2.5, 5.0, 7.5] {
            let mut below = 0usize;
            for _ in 0..n {
                // Dirichlet(1,1,1,1) via normalized exponentials.
                let e: [f64; 4] = std::array::from_fn(|_| -rng.gen::<f64>().max(1e-12).ln());
                let s: f64 = e.iter().sum();
                let w: f64 = e.iter().zip(d).map(|(ei, di)| ei / s * di).sum();
                if w <= t {
                    below += 1;
                }
            }
            let mc = below as f64 / n as f64;
            let exact = tet_fraction_below(d, t);
            assert!((mc - exact).abs() < 5e-3, "t={t}: exact {exact} vs MC {mc}");
        }
    }

    #[test]
    fn tet_cdf_handles_repeated_values() {
        // Two and three coincident vertex values must not divide by zero.
        for d in [
            [0.0, 0.0, 1.0, 2.0],
            [0.0, 1.0, 1.0, 2.0],
            [0.0, 2.0, 2.0, 2.0],
            [1.0, 1.0, 1.0, 1.0],
        ] {
            for t in [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
                let f = tet_fraction_below(d, t);
                assert!((0.0..=1.0).contains(&f), "d={d:?} t={t}: {f}");
            }
        }
        // Constant tet: step function.
        assert_eq!(tet_fraction_below([1.0; 4], 0.9), 0.0);
        assert_eq!(tet_fraction_below([1.0; 4], 1.0), 1.0);
    }

    #[test]
    fn cell_band_volume_tiles_the_cell() {
        // Partition the cell's value range into bands: volumes must sum
        // to the unit cell volume.
        let f = linear_field();
        let rec = f.cell_record(0);
        let iv = rec.interval();
        let cuts = 6;
        let mut total = 0.0;
        for i in 0..cuts {
            let band = Interval::new(
                iv.denormalize(i as f64 / cuts as f64),
                iv.denormalize((i + 1) as f64 / cuts as f64),
            );
            total += rec.band_volume(band);
        }
        assert!((total - 1.0).abs() < 1e-9, "band volumes sum to {total}");
    }

    #[test]
    fn cell_band_volume_matches_sampling() {
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<f64> = (0..27).map(|_| rng.gen_range(0.0..10.0)).collect();
        let f = Grid3Field::from_values(3, 3, 3, values);
        let rec = f.cell_record(0);
        let band = Interval::new(3.0, 6.0);
        let exact = rec.band_volume(band);
        // Dense-grid sampling of the cell via the same interpolant.
        let n = 60;
        let mut inside = 0usize;
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    let p = [
                        (ix as f64 + 0.5) / n as f64,
                        (iy as f64 + 0.5) / n as f64,
                        (iz as f64 + 0.5) / n as f64,
                    ];
                    let w = simplex_interpolate(&rec.vals, p);
                    if band.contains(w) {
                        inside += 1;
                    }
                }
            }
        }
        let approx = inside as f64 / (n * n * n) as f64;
        assert!(
            (exact - approx).abs() < 5e-3,
            "exact {exact} vs sampled {approx}"
        );
    }

    #[test]
    fn record_round_trip() {
        let f = linear_field();
        for cell in 0..f.num_cells() {
            let rec = f.cell_record(cell);
            let mut buf = [0u8; VolumeCellRecord::SIZE];
            rec.encode(&mut buf);
            assert_eq!(VolumeCellRecord::decode(&buf), rec);
            assert_eq!(rec.interval(), f.cell_interval(cell));
        }
    }

    #[test]
    fn tets_partition_the_cube() {
        // Every tet has volume 1/6 (corner coordinates from CORNER_BITS).
        for tet in CUBE_TETS {
            let p: Vec<[f64; 3]> = tet
                .iter()
                .map(|&c| {
                    let (x, y, z) = CORNER_BITS[c];
                    [x as f64, y as f64, z as f64]
                })
                .collect();
            let v = tet_volume(&p);
            assert!((v - 1.0 / 6.0).abs() < 1e-12, "tet {tet:?} volume {v}");
        }
    }

    fn tet_volume(p: &[[f64; 3]]) -> f64 {
        let a = sub(p[1], p[0]);
        let b = sub(p[2], p[0]);
        let c = sub(p[3], p[0]);
        (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))
            .abs()
            / 6.0
    }

    fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    }

    #[test]
    #[should_panic(expected = "at least 2x2x2")]
    fn rejects_flat_grid() {
        let _ = Grid3Field::from_values(1, 2, 2, vec![0.0; 4]);
    }
}
