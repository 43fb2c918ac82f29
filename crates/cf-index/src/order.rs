//! Linearizing cells along a space-filling curve.
//!
//! Paper §3.1.2: "the cells will be linearized in order of the Hilbert
//! value of their spatial position, specifically the Hilbert value of the
//! center of cells". Cell centers are quantized onto a `2^ORDER` grid
//! over the field's domain; ties (cells whose centers quantize to the
//! same grid cell) are broken by cell index for determinism.

use cf_field::FieldModel;
use cf_geom::{Aabb, Point2};
use cf_sfc::Curve;

/// Quantization order of the curve grid (32768 × 32768 positions — finer
/// than any workload's cell grid, so grid DEM cells map injectively).
pub const CURVE_ORDER: u32 = 15;

/// Quantizes `p` onto a `2^bits` grid per axis of `domain` (an axis of
/// zero extent maps to 0) — the one step every cell order (2-D, 3-D,
/// vector) shares.
pub(crate) fn quantize<const D: usize>(p: [f64; D], domain: &Aabb<D>, bits: u32) -> [u64; D] {
    let side = ((1u64 << bits) - 1) as f64;
    std::array::from_fn(|d| {
        let extent = domain.extent(d);
        if extent > 0.0 {
            (((p[d] - domain.lo[d]) / extent).clamp(0.0, 1.0) * side) as u64
        } else {
            0
        }
    })
}

/// The cells `0..n` sorted by `key`, ties broken by cell index for
/// determinism.
pub(crate) fn order_by<K: Ord>(n: usize, key: impl Fn(usize) -> K) -> Vec<usize> {
    let mut keyed: Vec<(K, usize)> = (0..n).map(|cell| (key(cell), cell)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, cell)| cell).collect()
}

/// The cells `0..n` of a planar `domain` ordered along `curve` by the
/// quantized `centroid` of each.
pub(crate) fn plane_order(
    n: usize,
    domain: Aabb<2>,
    centroid: impl Fn(usize) -> Point2,
    curve: Curve,
) -> Vec<usize> {
    order_by(n, |cell| {
        let c = centroid(cell);
        let [qx, qy] = quantize([c.x, c.y], &domain, CURVE_ORDER);
        curve.index(qx, qy, CURVE_ORDER)
    })
}

/// Returns the cell indices of `field` ordered along `curve`.
pub fn cell_order<F: FieldModel>(field: &F, curve: Curve) -> Vec<usize> {
    plane_order(
        field.num_cells(),
        field.domain(),
        |cell| field.cell_centroid(cell),
        curve,
    )
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
