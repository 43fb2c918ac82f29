//! The `FieldModel` abstraction shared by every cell model.

use cf_geom::{Aabb, Interval, Point2, Polygon};
use cf_storage::Record;

/// A continuous scalar field made of cells with sample points and a
/// linear interpolation function — the `(C, F)` pair of paper §2.1.
///
/// The value indexes (`cf-index`) are generic over this trait. Cells are
/// identified by a dense index `0..num_cells()`. Each cell has an
/// on-disk record type carrying its sample points, so the estimation
/// step can run from bytes read back from the cell file — the
/// disk-resident pipeline of the paper. A model is `'static`, so a
/// query may refine part of its cells on another thread.
pub trait FieldModel: 'static {
    /// On-disk record for one cell (geometry + sample values).
    type CellRec: Record + Clone + Send + Sync;

    /// Number of cells covering the domain.
    fn num_cells(&self) -> usize;

    /// The record for a cell (used when building the cell file).
    fn cell_record(&self, cell: usize) -> Self::CellRec;

    /// Center position of a cell — the position whose Hilbert value
    /// orders the cells (paper §3.1.2: "the Hilbert value of a cell
    /// means that of the center of the cell").
    fn cell_centroid(&self, cell: usize) -> Point2;

    /// Interval of all explicit *and implicit* values inside the cell.
    ///
    /// For linear interpolation the extrema are at the sample points, so
    /// this is the hull of the sample values. An interpolation that
    /// "introduces new extreme points having values outside the original
    /// interval" (§2.2.2) must widen the interval accordingly in its
    /// implementation of this method.
    fn cell_interval(&self, cell: usize) -> Interval;

    /// Decodes the value interval from a stored record (must equal
    /// [`FieldModel::cell_interval`] for the same cell).
    ///
    /// Records are decoded bytes, so this must not panic on any of
    /// them: a record with a NaN sample gets [`Interval::NAN`], which
    /// intersects no band.
    fn record_interval(rec: &Self::CellRec) -> Interval;

    /// Estimation step for one retrieved cell: passes each exact
    /// sub-region of the cell where the interpolated value lies in
    /// `band` to `visit`, as its vertices (at least three) in boundary
    /// order. Implementations allocate nothing: the vertices live on
    /// the stack for the duration of the call.
    fn record_band_visit(rec: &Self::CellRec, band: Interval, visit: &mut impl FnMut(&[Point2]));

    /// The regions of [`FieldModel::record_band_visit`], collected as
    /// polygons.
    fn record_band_region(rec: &Self::CellRec, band: Interval) -> Vec<Polygon> {
        let mut regions = Vec::new();
        Self::record_band_visit(rec, band, &mut |vs| {
            regions.push(Polygon::new(vs.to_vec()));
        });
        regions
    }

    /// Bounding box of the spatial domain.
    fn domain(&self) -> Aabb<2>;

    /// Hull of all field values (used to normalize query intervals).
    fn value_domain(&self) -> Interval {
        let mut acc: Option<Interval> = None;
        for c in 0..self.num_cells() {
            let iv = self.cell_interval(c);
            acc = Some(match acc {
                Some(a) => a.union(iv),
                None => iv,
            });
        }
        acc.unwrap_or(Interval::point(0.0))
    }

    /// Q1 conventional query: the interpolated value at `p`, or `None`
    /// outside the domain.
    fn value_at(&self, p: Point2) -> Option<f64>;

    /// A box holding every point where [`FieldModel::record_value_at`]
    /// answers for `rec` (a term of its page's Q1 box); must not panic.
    fn record_bbox(rec: &Self::CellRec) -> Aabb<2>;

    /// Interpolates the field value at `p` from a stored cell record, or
    /// `None` when `p` lies outside the cell — the per-cell step of a
    /// disk-resident Q1 query.
    fn record_value_at(rec: &Self::CellRec, p: Point2) -> Option<f64>;
}

/// The value interval of a cell's samples: their hull, or
/// [`Interval::NAN`] when any sample is NaN (or there is none). Unlike
/// [`Interval::hull`] it never panics, so it is safe on decoded bytes.
///
/// One pass gathers the NaN flag beside the minimum and maximum, which
/// fold in [`Interval::hull`]'s order with its `min`/`max`, so the
/// bounds carry the same bits, signed zeros included.
#[inline]
pub(crate) fn sample_interval(samples: &[f64]) -> Interval {
    let Some((&first, rest)) = samples.split_first() else {
        return Interval::NAN;
    };
    let (mut lo, mut hi, mut nan) = (first, first, first.is_nan());
    for &v in rest {
        lo = lo.min(v);
        hi = hi.max(v);
        nan |= v.is_nan();
    }
    if nan {
        Interval::NAN
    } else {
        Interval { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(iv: Interval) -> (u64, u64) {
        (iv.lo.to_bits(), iv.hi.to_bits())
    }

    #[test]
    fn sample_interval_is_the_hull_or_nan() {
        let finite: [&[f64]; 8] = [
            &[3.0],
            &[1.0, 5.0, 3.0, -2.0],
            &[2.0, 2.0, 2.0],
            &[0.0, -0.0],
            &[-0.0, 0.0],
            &[-0.0, 1.0, 0.0, -1.0],
            &[0.0, -0.0, 0.0, -0.0],
            &[f64::NEG_INFINITY, 7.0, f64::INFINITY],
        ];
        for samples in finite {
            let hull = Interval::hull(samples).unwrap();
            assert_eq!(bits(sample_interval(samples)), bits(hull), "{samples:?}");
        }
        for samples in [
            [f64::NAN, 1.0, 2.0, 3.0],
            [1.0, f64::NAN, 2.0, 3.0],
            [1.0, 2.0, 3.0, f64::NAN],
            [f64::NAN; 4],
        ] {
            let iv = sample_interval(&samples);
            assert!(iv.lo.is_nan() && iv.hi.is_nan(), "{samples:?} gave {iv:?}");
        }
        assert!(sample_interval(&[]).is_nan());
    }
}
