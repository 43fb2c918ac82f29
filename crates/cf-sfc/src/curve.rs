//! Unified interface over the candidate cell orderings.

use crate::{
    gray_index_2d, gray_point_2d, hilbert_index_2d, hilbert_point_2d, morton_index_2d,
    morton_point_2d, MAX_ORDER_2D,
};

/// A linear ordering of the cells of a `2^order × 2^order` grid.
///
/// [`Curve::Hilbert`] is what the paper's I-Hilbert method uses; the other
/// variants exist so the choice can be ablated (the paper justifies
/// Hilbert by citing clustering studies — this crate's clustering test
/// and `repro ablation` reproduce that comparison).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Curve {
    /// Hilbert curve — best clustering, no jumps (the paper's choice).
    #[default]
    Hilbert,
    /// Z-order / Morton / bit-interleaving (the paper's "Peano curve").
    ZOrder,
    /// Gray-code curve (Faloutsos 1989).
    GrayCode,
    /// Plain row-major scan — the "no clustering effort" strawman; this is
    /// also the physical order a LinearScan file would naturally use.
    RowMajor,
}

impl Curve {
    /// All curve variants, for ablation sweeps.
    pub const ALL: [Curve; 4] = [
        Curve::Hilbert,
        Curve::ZOrder,
        Curve::GrayCode,
        Curve::RowMajor,
    ];

    /// Position of grid cell `(x, y)` along the curve.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER_2D` or a coordinate is `>= 2^order`.
    pub fn index(self, x: u64, y: u64, order: u32) -> u64 {
        match self {
            Curve::Hilbert => hilbert_index_2d(x, y, order),
            Curve::ZOrder => morton_index_2d(x, y, order),
            Curve::GrayCode => gray_index_2d(x, y, order),
            Curve::RowMajor => {
                assert!(order <= MAX_ORDER_2D);
                let side = 1u64 << order;
                assert!(x < side && y < side, "({x}, {y}) outside 2^{order} grid");
                y * side + x
            }
        }
    }

    /// Grid cell at position `d` along the curve.
    pub fn point(self, d: u64, order: u32) -> (u64, u64) {
        match self {
            Curve::Hilbert => hilbert_point_2d(d, order),
            Curve::ZOrder => morton_point_2d(d, order),
            Curve::GrayCode => gray_point_2d(d, order),
            Curve::RowMajor => {
                let side = 1u64 << order;
                (d % side, d / side)
            }
        }
    }

    /// Short human-readable name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Curve::Hilbert => "hilbert",
            Curve::ZOrder => "z-order",
            Curve::GrayCode => "gray",
            Curve::RowMajor => "row-major",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_curves_are_bijections() {
        let order = 3;
        let side = 1u64 << order;
        for curve in Curve::ALL {
            let mut seen = vec![false; (side * side) as usize];
            for x in 0..side {
                for y in 0..side {
                    let d = curve.index(x, y, order) as usize;
                    assert!(!seen[d], "{} revisits {d}", curve.name());
                    seen[d] = true;
                    assert_eq!(curve.point(d as u64, order), (x, y));
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn row_major_layout() {
        assert_eq!(Curve::RowMajor.index(0, 0, 2), 0);
        assert_eq!(Curve::RowMajor.index(3, 0, 2), 3);
        assert_eq!(Curve::RowMajor.index(0, 1, 2), 4);
        assert_eq!(Curve::RowMajor.point(7, 2), (3, 1));
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = Curve::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Curve::ALL.len());
    }
}
