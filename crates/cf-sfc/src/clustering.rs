//! Clustering quality of the space-filling curves (test-only: no product
//! code reports it).
//!
//! The paper picks the Hilbert curve because "it was shown experimentally
//! that the Hilbert curve achieves the best clustering among the three
//! above methods" (§3.1.2, citing Faloutsos & Roseman 1989; Jagadish
//! 1990). The standard metric is the number of *runs* — maximal
//! contiguous segments of the linear order — needed to cover a query
//! region: fewer runs means fewer random seeks when the linearized cells
//! are stored sequentially on disk.
//!
//! The same intuition drives subfield quality: a curve with good
//! clustering maps spatially-coherent (and hence, by field continuity,
//! value-coherent) cell groups to contiguous index ranges.

use crate::Curve;

/// Number of maximal contiguous runs the curve needs to cover the grid
/// rectangle `[x0, x1] × [y0, y1]` (inclusive bounds).
///
/// # Panics
///
/// Panics if the rectangle is inverted or outside the `2^order` grid.
fn runs_for_rect(curve: Curve, order: u32, x0: u64, y0: u64, x1: u64, y1: u64) -> usize {
    assert!(x0 <= x1 && y0 <= y1, "inverted rectangle");
    let side = 1u64 << order;
    assert!(x1 < side && y1 < side, "rectangle outside grid");
    let mut indices: Vec<u64> = (y0..=y1)
        .flat_map(|y| (x0..=x1).map(move |x| curve.index(x, y, order)))
        .collect();
    indices.sort_unstable();
    runs_in_sorted(&indices)
}

/// Number of maximal runs of consecutive integers in a sorted slice.
fn runs_in_sorted(sorted: &[u64]) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    1 + sorted.windows(2).filter(|w| w[1] != w[0] + 1).count()
}

/// Average number of runs over all `q × q` query rectangles on the grid.
///
/// This is the exhaustive version of the clustering experiment in the
/// papers the EDBT 2002 authors cite; it is exact but only feasible for
/// small orders.
fn average_runs_exhaustive(curve: Curve, order: u32, q: u64) -> f64 {
    let side = 1u64 << order;
    assert!(q >= 1 && q <= side, "query side out of range");
    let positions = side - q + 1;
    let mut total = 0usize;
    for y0 in 0..positions {
        for x0 in 0..positions {
            total += runs_for_rect(curve, order, x0, y0, x0 + q - 1, y0 + q - 1);
        }
    }
    total as f64 / (positions * positions) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_sorted_counts_segments() {
        assert_eq!(runs_in_sorted(&[]), 0);
        assert_eq!(runs_in_sorted(&[5]), 1);
        assert_eq!(runs_in_sorted(&[1, 2, 3]), 1);
        assert_eq!(runs_in_sorted(&[1, 2, 4, 5, 9]), 3);
    }

    #[test]
    fn full_grid_is_one_run_for_every_curve() {
        for curve in Curve::ALL {
            let side = (1u64 << 3) - 1;
            assert_eq!(runs_for_rect(curve, 3, 0, 0, side, side), 1);
        }
    }

    #[test]
    fn single_cell_is_one_run() {
        for curve in Curve::ALL {
            assert_eq!(runs_for_rect(curve, 4, 7, 3, 7, 3), 1);
        }
    }

    #[test]
    fn hilbert_clusters_best_on_average() {
        // Reproduces the comparison that justified the paper's curve
        // choice: over all 2x2..4x4 queries on a 16x16 grid, Hilbert needs
        // the fewest runs.
        let order = 4;
        for q in [2, 3, 4] {
            let hilbert = average_runs_exhaustive(Curve::Hilbert, order, q);
            let z = average_runs_exhaustive(Curve::ZOrder, order, q);
            let gray = average_runs_exhaustive(Curve::GrayCode, order, q);
            let row = average_runs_exhaustive(Curve::RowMajor, order, q);
            assert!(hilbert <= z, "q={q}: hilbert {hilbert} vs z {z}");
            assert!(hilbert <= gray, "q={q}: hilbert {hilbert} vs gray {gray}");
            assert!(hilbert < row, "q={q}: hilbert {hilbert} vs row {row}");
        }
    }

    #[test]
    fn row_major_runs_equal_row_count() {
        // A row-major scan needs one run per row of the rectangle
        // (unless the rectangle spans entire rows).
        assert_eq!(runs_for_rect(Curve::RowMajor, 4, 2, 3, 5, 7), 5);
        // Full-width rectangles collapse to a single run.
        assert_eq!(runs_for_rect(Curve::RowMajor, 2, 0, 1, 3, 2), 1);
    }
}
