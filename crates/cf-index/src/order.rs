//! Linearizing cells along a space-filling curve.
//!
//! Paper §3.1.2: "the cells will be linearized in order of the Hilbert
//! value of their spatial position, specifically the Hilbert value of the
//! center of cells". Cell centers are quantized onto a `2^ORDER` grid
//! over the field's domain; ties (cells whose centers quantize to the
//! same grid cell) are broken by cell index for determinism.
//!
//! The sort is one packed `u64` per cell, `key << 32 | cell`, sorted as
//! a plain integer: the order of the `(key, cell)` pairs, ties included,
//! at half their size. It needs both halves in 32 bits: every curve key
//! does (30 bits, asserted at compile time), and every build refuses a
//! field of more than `u32::MAX` cells with [`check_cell_count`] before
//! it computes a key. Cell positions are `u32` in the index downstream
//! too.

use cf_field::FieldModel;
use cf_geom::{Aabb, Point2};
use cf_sfc::Curve;
use cf_storage::{CfError, CfResult};

/// Quantization order of the curve grid (32768 × 32768 positions — finer
/// than any workload's cell grid, so grid DEM cells map injectively).
pub const CURVE_ORDER: u32 = 15;

// A 2-D key of order `CURVE_ORDER` fits the packed sort's key half.
const _: () = assert!(2 * CURVE_ORDER <= 32);

/// Refuses a field of more than `u32::MAX` cells: cell positions are
/// `u32` in the sort, the subfields and the position maps. Every build
/// calls it first, before any cell is read.
///
/// # Errors
///
/// [`CfError::InvalidCell`] naming cell id `u32::MAX`, the first id no
/// position can hold.
pub(crate) fn check_cell_count(n: usize) -> CfResult<()> {
    if u32::try_from(n).is_ok() {
        Ok(())
    } else {
        let limit = u32::MAX as usize;
        Err(CfError::InvalidCell {
            cell: limit,
            cells: limit,
        })
    }
}

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
/// determinism (one packed sort, see the module doc).
///
/// # Panics
///
/// Panics if `n > u32::MAX`; builds return [`check_cell_count`]'s error
/// before they get here.
pub(crate) fn order_by(n: usize, key: impl Fn(usize) -> u32) -> Vec<usize> {
    assert!(
        check_cell_count(n).is_ok(),
        "{n} cells exceed the u32 cell positions"
    );
    let mut packed: Vec<u64> = (0..n)
        .map(|cell| u64::from(key(cell)) << 32 | cell as u64)
        .collect();
    packed.sort_unstable();
    packed
        .into_iter()
        .map(|p| (p & u64::from(u32::MAX)) as usize)
        .collect()
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
        // Lossless: the key has `2 * CURVE_ORDER <= 32` bits.
        curve.index(qx, qy, CURVE_ORDER) as u32
    })
}

/// Returns the cell indices of `field` ordered along `curve`.
///
/// # Panics
///
/// Panics if `field` has more than `u32::MAX` cells.
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
    use crate::volume3d::volume_order;
    use crate::{IAll, IHilbert, IntervalQuadtree};
    use cf_field::{GridCellRecord, GridField};
    use cf_geom::Interval;
    use cf_sfc::hilbert_index_nd;
    use cf_storage::StorageEngine;
    use cf_workload::{fractal::diamond_square, geology::geology_field, noise::urban_noise_tin};

    /// The sort the packed sort replaced: `(key, cell)` tuples.
    fn tuple_order<K: Ord>(n: usize, key: impl Fn(usize) -> K) -> Vec<usize> {
        let mut keyed: Vec<(K, usize)> = (0..n).map(|cell| (key(cell), cell)).collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, cell)| cell).collect()
    }

    /// `field`'s curve key of `cell`, as the tuple sort keyed it.
    fn plane_key<F: FieldModel>(field: &F, cell: usize) -> u64 {
        let c = field.cell_centroid(cell);
        let [qx, qy] = quantize([c.x, c.y], &field.domain(), CURVE_ORDER);
        Curve::Hilbert.index(qx, qy, CURVE_ORDER)
    }

    fn assert_same_as_tuple_sort<F: FieldModel>(field: &F) {
        let n = field.num_cells();
        assert_eq!(
            cell_order(field, Curve::Hilbert),
            tuple_order(n, |cell| plane_key(field, cell))
        );
    }

    #[test]
    fn packed_sort_matches_tuple_sort_on_a_fractal_grid() {
        assert_same_as_tuple_sort(&diamond_square(5, 0.7, 11));
    }

    #[test]
    fn packed_sort_matches_tuple_sort_on_a_tin() {
        assert_same_as_tuple_sort(&urban_noise_tin(600, 12));
    }

    #[test]
    fn packed_sort_breaks_curve_ties_by_cell_index() {
        // 40 000 × 1 cells: more columns than the curve grid has
        // positions, so neighbouring cells share a key.
        let field = GridField::from_values(40_001, 2, vec![0.0; 80_002]);
        let order = cell_order(&field, Curve::Hilbert);
        let ties = order
            .windows(2)
            .filter(|w| plane_key(&field, w[0]) == plane_key(&field, w[1]))
            .count();
        assert!(ties > 0, "no two cells share a curve position");
        assert_same_as_tuple_sort(&field);
    }

    #[test]
    fn packed_sort_matches_tuple_sort_on_a_volume() {
        let field = geology_field(9, 13);
        let (cx, cy, cz) = field.cell_dims();
        let side = cx.max(cy).max(cz) as f64;
        let cube = Aabb::new([0.0; 3], [side; 3]);
        let tuples = tuple_order(field.num_cells(), |cell| {
            hilbert_index_nd(&quantize(field.cell_centroid(cell), &cube, 10), 10)
        });
        assert_eq!(volume_order(&field), tuples);
    }

    /// More cells than a `u32` position can address; any cell access
    /// panics, so a build that reads one before refusing fails loudly.
    struct Oversized;

    impl FieldModel for Oversized {
        type CellRec = GridCellRecord;
        fn num_cells(&self) -> usize {
            u32::MAX as usize + 1
        }
        fn cell_record(&self, _: usize) -> GridCellRecord {
            panic!("cell touched")
        }
        fn cell_centroid(&self, _: usize) -> Point2 {
            panic!("cell touched")
        }
        fn cell_interval(&self, _: usize) -> Interval {
            panic!("cell touched")
        }
        fn record_interval(_: &GridCellRecord) -> Interval {
            panic!("cell touched")
        }
        fn record_band_visit(_: &GridCellRecord, _: Interval, _: &mut impl FnMut(&[Point2])) {
            panic!("cell touched")
        }
        fn domain(&self) -> Aabb<2> {
            Aabb::new([0.0; 2], [1.0; 2])
        }
        fn value_at(&self, _: Point2) -> Option<f64> {
            panic!("cell touched")
        }
        fn record_bbox(_: &GridCellRecord) -> Aabb<2> {
            panic!("cell touched")
        }
        fn record_value_at(_: &GridCellRecord, _: Point2) -> Option<f64> {
            panic!("cell touched")
        }
    }

    #[test]
    fn builds_refuse_more_cells_than_u32_positions() {
        assert!(check_cell_count(u32::MAX as usize).is_ok());
        assert!(check_cell_count(u32::MAX as usize + 1).is_err_and(|e| e.is_invalid_cell()));
        let engine = StorageEngine::in_memory();
        let refused = |r: CfResult<()>| r.is_err_and(|e| e.is_invalid_cell());
        assert!(refused(IHilbert::build(&engine, &Oversized).map(drop)));
        assert!(refused(IAll::build(&engine, &Oversized).map(drop)));
        assert!(refused(
            IntervalQuadtree::build(&engine, &Oversized, 1.0).map(drop)
        ));
        assert_eq!(engine.num_pages(), 0, "a refused build wrote pages");
    }

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
