//! The `I-All` baseline: every individual cell interval in the R\*-tree.
//!
//! Paper §3: "One straightforward way is therefore to index all these
//! intervals associated with the cells … However storing all these
//! individual intervals in an R\*-tree has the problems as follows: the
//! R\*-tree will become tall and slow due to a large number of intervals
//! … the search speed will also suffer because of the overlapping of so
//! many similar intervals."
//!
//! I-All is the identity grouping on the shared index core
//! ([`SubfieldIndex`]): cells stay in native order, and each cell is the
//! one-cell subfield `[cell, cell + 1)`. Its tree therefore holds one
//! entry per cell, and a query reads the coalesced candidate runs with
//! the same range sweep as every other index — each page once.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::ihilbert::{check_record, checked_records};
use crate::order::check_cell_count;
use crate::sfindex::SubfieldIndex;
use crate::stats::{QueryStats, RegionSink, ValueIndex};
use crate::subfield::Subfield;
use cf_field::FieldModel;
use cf_geom::Interval;
use cf_storage::{CellFile, CfError, CfResult, StorageEngine};

/// One R\*-tree entry per cell: `interval → cell`, each cell stored as
/// the one-record [`Subfield`] it is.
pub struct IAll<F: FieldModel> {
    inner: SubfieldIndex<F>,
}

impl<F: FieldModel> IAll<F> {
    /// Builds the index: cells in native order plus a page-fanout 1-D
    /// R-tree with one entry per cell, packed bottom-up
    /// ([`cf_rtree::PagedRTree::build`]).
    ///
    /// # Errors
    ///
    /// [`CfError::InvalidCell`] for a field of more than `u32::MAX`
    /// cells and [`CfError::InvalidRecord`] for the first record with a
    /// NaN sample or a non-finite box, both before any page is
    /// allocated; storage errors pass through.
    pub fn build(engine: &StorageEngine, field: &F) -> CfResult<Self> {
        let n = field.num_cells();
        check_cell_count(n)?;
        let file = CellFile::create(engine, checked_records(field, 0..n)?)?;
        let cells: Vec<Subfield> = (0..n)
            .map(|cell| Subfield {
                start: cell as u32,
                end: (cell + 1) as u32,
                interval: field.cell_interval(cell),
            })
            .collect();
        let inner = SubfieldIndex::build(engine, file, cells, "I-All", "-")?;
        Ok(Self { inner })
    }

    /// Incremental maintenance: rewrites `cell`'s record in place and,
    /// if its value interval changed, rewrites the cell's entry box in
    /// the interval R\*-tree in place (the tree keeps its shape).
    ///
    /// # Errors
    ///
    /// Returns [`CfError::InvalidCell`] when `cell` is outside the
    /// indexed range and [`CfError::InvalidRecord`] for a record with a
    /// NaN sample or a non-finite box — cell ids and records are user
    /// input and must not panic — and [`CfError::Corrupt`] when the tree
    /// has lost the cell's entry.
    pub fn update_cell(
        &mut self,
        engine: &StorageEngine,
        cell: usize,
        record: F::CellRec,
    ) -> CfResult<()> {
        check_record::<F>(cell, &record)?;
        let cells = self.inner.file.len();
        if cell >= cells {
            return Err(CfError::InvalidCell { cell, cells });
        }
        self.inner.update_record(engine, cell, &record)
    }
}

impl<F: FieldModel> ValueIndex for IAll<F> {
    fn name(&self) -> String {
        "I-All".into()
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
        self.inner.tree.len()
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use cf_field::GridField;

    fn ramp_field(n: usize) -> GridField {
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
    fn matches_linear_scan_answers() {
        let engine = StorageEngine::in_memory();
        let field = ramp_field(12);
        let scan = LinearScan::build(&engine, &field).expect("build");
        let iall = IAll::build(&engine, &field).expect("build");
        assert_eq!(iall.num_intervals(), field.num_cells());

        for band in [
            Interval::new(3.0, 5.0),
            Interval::point(7.0),
            Interval::new(-10.0, 100.0),
            Interval::new(23.5, 23.6),
            Interval::new(50.0, 60.0), // out of range
        ] {
            let a = scan.query_stats(&engine, band).expect("query");
            let b = iall.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert!((a.area - b.area).abs() < 1e-9, "band {band}");
        }
    }

    #[test]
    fn update_cell_maintains_tree_and_rejects_bad_ids() {
        use crate::stats::ValueIndex;
        let engine = StorageEngine::in_memory();
        let field = ramp_field(8);
        let mut iall = IAll::build(&engine, &field).expect("build");

        // A typed error, not a panic, on an out-of-range cell id.
        let err = iall
            .update_cell(&engine, field.num_cells() + 3, field.cell_record(0))
            .expect_err("out-of-range cell id");
        assert!(err.is_invalid_cell(), "{err}");

        // And on a record with a NaN sample, before anything is written.
        let nan = cf_field::GridCellRecord {
            vals: [f64::NAN; 4],
            ..field.cell_record(3)
        };
        let err = iall.update_cell(&engine, 3, nan).expect_err("NaN sample");
        assert!(err.is_invalid_record(), "{err}");
        assert_eq!(
            iall.inner.file.get(&engine, 3).expect("read"),
            field.cell_record(3)
        );

        // A real update moves the cell into a distant band.
        let cell = 11;
        let rec = cf_field::GridCellRecord {
            vals: [777.0; 4],
            ..field.cell_record(cell)
        };
        iall.update_cell(&engine, cell, rec).expect("update");
        let stats = iall
            .query_stats(&engine, Interval::new(776.0, 778.0))
            .expect("query");
        assert_eq!(stats.cells_qualifying, 1);
        // The cell's entry box is rewritten in place: still one entry per cell.
        assert_eq!(iall.num_intervals(), field.num_cells());
    }

    #[test]
    fn filtering_visits_index_nodes() {
        let engine = StorageEngine::in_memory();
        let field = ramp_field(12);
        let iall = IAll::build(&engine, &field).expect("build");
        let stats = iall
            .query_stats(&engine, Interval::new(3.0, 4.0))
            .expect("query");
        assert!(stats.filter_nodes >= 1);
        assert!(iall.index_pages() >= 1);
        // Only qualifying cells are examined (unlike LinearScan).
        assert_eq!(stats.cells_examined, stats.cells_qualifying);
        assert!(stats.cells_examined < field.num_cells());
    }
}
