//! Linearizing cells along a space-filling curve.
//!
//! Paper §3.1.2: "the cells will be linearized in order of the Hilbert
//! value of their spatial position, specifically the Hilbert value of the
//! center of cells". Cell centers are quantized onto a `2^ORDER` grid
//! over the field's domain; ties (cells whose centers quantize to the
//! same grid cell) are broken by cell index for determinism.

use cf_field::FieldModel;
use cf_sfc::Curve;

/// Quantization order of the curve grid (32768 × 32768 positions — finer
/// than any workload's cell grid, so grid DEM cells map injectively).
pub const CURVE_ORDER: u32 = 15;

/// Quantizes cell centroids onto the curve grid.
#[derive(Debug, Clone, Copy)]
struct Quantizer {
    lo: [f64; 2],
    w: f64,
    h: f64,
}

impl Quantizer {
    fn new<F: FieldModel>(field: &F) -> Self {
        let domain = field.domain();
        Self {
            lo: domain.lo,
            w: domain.extent(0),
            h: domain.extent(1),
        }
    }

    fn grid_point<F: FieldModel>(&self, field: &F, cell: usize) -> (u64, u64) {
        let side = (1u64 << CURVE_ORDER) - 1;
        let c = field.cell_centroid(cell);
        let qx = if self.w > 0.0 {
            (((c.x - self.lo[0]) / self.w).clamp(0.0, 1.0) * side as f64) as u64
        } else {
            0
        };
        let qy = if self.h > 0.0 {
            (((c.y - self.lo[1]) / self.h).clamp(0.0, 1.0) * side as f64) as u64
        } else {
            0
        };
        (qx, qy)
    }
}

/// Returns the cell indices of `field` ordered along `curve`.
pub fn cell_order<F: FieldModel>(field: &F, curve: Curve) -> Vec<usize> {
    let n = field.num_cells();
    let q = Quantizer::new(field);
    let mut keyed: Vec<(u64, usize)> = (0..n)
        .map(|cell| {
            let (qx, qy) = q.grid_point(field, cell);
            (curve.index(qx, qy, CURVE_ORDER), cell)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, cell)| cell).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_field::GridField;

    fn grid(n: usize) -> GridField {
        let vw = n + 1;
        let values = vec![0.0; vw * vw];
        GridField::from_values(vw, vw, values)
    }

    #[test]
    fn order_is_a_permutation() {
        let g = grid(8);
        for curve in Curve::ALL {
            let order = cell_order(&g, curve);
            let mut seen = vec![false; g.num_cells()];
            for &c in &order {
                assert!(!seen[c]);
                seen[c] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn hilbert_order_has_unit_steps_on_a_grid() {
        // On a 2^k cell grid, consecutive cells in Hilbert order must be
        // 4-neighbors (the "no jumps" property the subfields exploit).
        let g = grid(16);
        let order = cell_order(&g, Curve::Hilbert);
        let (cw, _) = g.cell_dims();
        for w in order.windows(2) {
            let (x0, y0) = (w[0] % cw, w[0] / cw);
            let (x1, y1) = (w[1] % cw, w[1] / cw);
            let d = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(d, 1, "jump between cells {} and {}", w[0], w[1]);
        }
    }

    #[test]
    fn row_major_order_is_identity_for_grid() {
        let g = grid(4);
        let order = cell_order(&g, Curve::RowMajor);
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }
}
