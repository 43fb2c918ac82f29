//! The Interval Quadtree (Kang et al., CIKM 1999) — the authors' earlier
//! method, used here as the division-strategy ablation.
//!
//! Paper §3.1.1: "the field space is recursively divided into four
//! subspaces in the manner of Quadtree until each subspace satisfies the
//! condition that interval size of the subspace must be less than the
//! given threshold. Then the final subspaces of this division procedure
//! become subfields. However, there is no justifiable way to decide the
//! optimal threshold".
//!
//! To isolate the *division strategy* from everything else, the leaf
//! subspaces feed the same subfield storage as I-Hilbert: cells are
//! written grouped by leaf (in Z-order of the recursion), and leaf
//! intervals go into the same paged 1-D R\*-tree.

use crate::ihilbert::checked_records;
use crate::order::check_cell_count;
use crate::sfindex::SubfieldIndex;
use crate::stats::{QueryStats, RegionSink, ValueIndex};
use crate::subfield::Subfield;
use cf_field::FieldModel;
use cf_geom::{Aabb, Interval};
use cf_storage::{CellFile, CfResult, StorageEngine};

/// Hard recursion cap: guards against non-termination when many cell
/// centroids coincide.
const MAX_DEPTH: u32 = 24;

/// The Interval-Quadtree value index.
pub struct IntervalQuadtree<F: FieldModel> {
    inner: SubfieldIndex<F>,
}

impl<F: FieldModel> IntervalQuadtree<F> {
    /// Builds the index with the given interval-size threshold
    /// (absolute, in value units: a leaf subspace is not divided further
    /// once the width of its value interval is at most `threshold`).
    ///
    /// # Errors
    ///
    /// [`cf_storage::CfError::InvalidCell`] for a field of more than
    /// `u32::MAX` cells and [`cf_storage::CfError::InvalidRecord`] for
    /// the first record with a NaN sample or a non-finite box, both
    /// before any page is allocated; storage errors pass through.
    pub fn build(engine: &StorageEngine, field: &F, threshold: f64) -> CfResult<Self> {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        let n = field.num_cells();
        check_cell_count(n)?;
        let intervals: Vec<Interval> = (0..n).map(|c| field.cell_interval(c)).collect();
        let centroids: Vec<[f64; 2]> = (0..n)
            .map(|c| {
                let p = field.cell_centroid(c);
                [p.x, p.y]
            })
            .collect();

        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut subfields: Vec<Subfield> = Vec::new();
        let all: Vec<usize> = (0..n).collect();
        divide(
            &all,
            field.domain(),
            0,
            threshold,
            &intervals,
            &centroids,
            &mut order,
            &mut subfields,
        );
        debug_assert_eq!(order.len(), n);

        let file = CellFile::create(engine, checked_records(field, order.iter().copied())?)?;
        let inner = SubfieldIndex::build(engine, file, subfields, "I-Quad", "-")?;
        Ok(Self { inner })
    }

    /// Number of leaf subfields the division produced.
    pub fn num_subfields(&self) -> usize {
        self.inner.subfields.len()
    }
}

/// Recursive quadtree division; appends leaves to `order`/`subfields`.
#[allow(clippy::too_many_arguments)]
fn divide(
    cells: &[usize],
    bbox: Aabb<2>,
    depth: u32,
    threshold: f64,
    intervals: &[Interval],
    centroids: &[[f64; 2]],
    order: &mut Vec<usize>,
    subfields: &mut Vec<Subfield>,
) {
    if cells.is_empty() {
        return;
    }
    let union = cells
        .iter()
        .map(|&c| intervals[c])
        .reduce(|a, b| a.union(b))
        .expect("non-empty cell set");
    if union.width() <= threshold || cells.len() == 1 || depth >= MAX_DEPTH {
        let start = order.len() as u32;
        order.extend_from_slice(cells);
        subfields.push(Subfield {
            start,
            end: order.len() as u32,
            interval: union,
        });
        return;
    }
    let c = bbox.center();
    // Z-order of quadrants: SW, SE, NW, NE.
    let quadrant_boxes = [
        Aabb::new(bbox.lo, c),
        Aabb::new([c[0], bbox.lo[1]], [bbox.hi[0], c[1]]),
        Aabb::new([bbox.lo[0], c[1]], [c[0], bbox.hi[1]]),
        Aabb::new(c, bbox.hi),
    ];
    let mut quadrants: [Vec<usize>; 4] = Default::default();
    for &cell in cells {
        let p = centroids[cell];
        let east = p[0] >= c[0];
        let north = p[1] >= c[1];
        let q = usize::from(east) + 2 * usize::from(north);
        quadrants[q].push(cell);
    }
    // If the division failed to separate anything (all centroids in one
    // quadrant *equal to the parent set*), force a leaf to terminate.
    if quadrants.iter().any(|q| q.len() == cells.len()) && depth > 0 {
        let start = order.len() as u32;
        order.extend_from_slice(cells);
        subfields.push(Subfield {
            start,
            end: order.len() as u32,
            interval: union,
        });
        return;
    }
    for (q, qbox) in quadrants.iter().zip(quadrant_boxes) {
        divide(
            q,
            qbox,
            depth + 1,
            threshold,
            intervals,
            centroids,
            order,
            subfields,
        );
    }
}

impl<F: FieldModel> ValueIndex for IntervalQuadtree<F> {
    fn name(&self) -> String {
        "I-Quad".into()
    }

    fn query(
        &self,
        engine: &StorageEngine,
        band: Interval,
        sink: Option<RegionSink<'_>>,
    ) -> CfResult<QueryStats> {
        self.inner.execute(engine, band, None, sink)
    }

    fn index_pages(&self) -> usize {
        self.inner.tree.num_pages()
    }

    fn data_pages(&self) -> usize {
        self.inner.file.data_pages()
    }

    fn num_intervals(&self) -> usize {
        self.inner.subfields.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use cf_field::GridField;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn ramp(n: usize) -> GridField {
        let vw = n + 1;
        let mut values = Vec::new();
        for y in 0..vw {
            for x in 0..vw {
                values.push((x + y) as f64);
            }
        }
        GridField::from_values(vw, vw, values)
    }

    #[test]
    fn matches_linear_scan() {
        let engine = StorageEngine::in_memory();
        let field = ramp(16);
        let scan = LinearScan::build(&engine, &field).expect("build");
        let iq = IntervalQuadtree::build(&engine, &field, 4.0).expect("build");
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let lo: f64 = rng.gen_range(-2.0..34.0);
            let band = Interval::new(lo, lo + rng.gen_range(0.0..6.0));
            let a = scan.query_stats(&engine, band).expect("query");
            let b = iq.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert!((a.area - b.area).abs() < 1e-9 * a.area.max(1.0));
        }
    }

    #[test]
    fn threshold_controls_leaf_count() {
        let engine = StorageEngine::in_memory();
        let field = ramp(16);
        let fine = IntervalQuadtree::build(&engine, &field, 1.0).expect("build");
        let coarse = IntervalQuadtree::build(&engine, &field, 100.0).expect("build");
        assert!(fine.num_subfields() > coarse.num_subfields());
        // Threshold larger than the whole value domain: one subfield.
        assert_eq!(coarse.num_subfields(), 1);
    }

    #[test]
    fn zero_threshold_terminates() {
        // Forces maximal division; the depth/progress guards must stop
        // the recursion.
        let engine = StorageEngine::in_memory();
        let field = ramp(4);
        let iq = IntervalQuadtree::build(&engine, &field, 0.0).expect("build");
        assert!(iq.num_subfields() >= 1);
        let stats = iq
            .query_stats(&engine, Interval::new(0.0, 10.0))
            .expect("query");
        assert!(stats.cells_qualifying > 0);
    }
}
