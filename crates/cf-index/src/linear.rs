//! The `LinearScan` baseline: no index, scan every cell page.
//!
//! Paper §2.2.2: "Without indexing, we should scan all cells of the
//! database, which will degrade dramatically the system performance. We
//! term this method as 'LinearScan'."

use crate::ihilbert::checked_records;
use crate::stats::{QueryStats, RegionSink, ValueIndex};
use cf_field::FieldModel;
use cf_geom::{signed_area, Interval};
use cf_storage::{CellFile, CfResult, RecordFile, StorageEngine};
use std::marker::PhantomData;

/// The unindexed baseline: all cells stored in native order, every query
/// scans the whole cell file.
pub struct LinearScan<F: FieldModel> {
    file: CellFile<F::CellRec>,
    _field: PhantomData<fn() -> F>,
}

impl<F: FieldModel> LinearScan<F> {
    /// Writes the field's cells (in native order) into `engine` and
    /// returns the scan-based "index".
    ///
    /// # Errors
    ///
    /// [`cf_storage::CfError::InvalidRecord`] for the first record with
    /// a NaN sample or a non-finite box, before any page is allocated;
    /// storage errors pass through.
    pub fn build(engine: &StorageEngine, field: &F) -> CfResult<Self> {
        let records = checked_records(field, 0..field.num_cells())?;
        Ok(Self {
            file: RecordFile::create(engine, records)?,
            _field: PhantomData,
        })
    }

    /// The underlying cell file.
    pub fn file(&self) -> &CellFile<F::CellRec> {
        &self.file
    }
}

impl<F: FieldModel> ValueIndex for LinearScan<F> {
    fn name(&self) -> String {
        "LinearScan".into()
    }

    fn query(
        &self,
        engine: &StorageEngine,
        band: Interval,
        mut sink: Option<RegionSink<'_>>,
    ) -> CfResult<QueryStats> {
        let before = cf_storage::thread_io_stats();
        let mut stats = QueryStats::default();
        self.file
            .for_each_in_range(engine, 0..self.file.len(), |_, rec| {
                stats.cells_examined += 1;
                if F::record_interval(&rec).intersects(band) {
                    stats.cells_qualifying += 1;
                    F::record_band_visit(&rec, band, &mut |vs| {
                        stats.num_regions += 1;
                        stats.area += signed_area(vs).abs();
                        if let Some(sink) = sink.as_mut() {
                            sink(vs);
                        }
                    });
                }
            })?;
        stats.io = cf_storage::thread_io_stats() - before;
        Ok(stats)
    }

    fn index_pages(&self) -> usize {
        0
    }

    fn data_pages(&self) -> usize {
        self.file.num_pages()
    }

    fn num_intervals(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_field::GridField;

    fn small_field() -> GridField {
        // 5x5 vertices: w = x + y (monotonic ramp, values 0..8).
        let mut values = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                values.push((x + y) as f64);
            }
        }
        GridField::from_values(5, 5, values)
    }

    #[test]
    fn scan_examines_every_cell() {
        let engine = StorageEngine::in_memory();
        let field = small_field();
        let scan = LinearScan::build(&engine, &field).expect("build");
        let stats = scan
            .query_stats(&engine, Interval::new(3.0, 4.0))
            .expect("query");
        assert_eq!(stats.cells_examined, 16);
        assert!(stats.cells_qualifying > 0);
        assert!(stats.cells_qualifying < 16);
        // Every data page is read.
        assert_eq!(stats.io.logical_reads() as usize, scan.data_pages());
    }

    #[test]
    fn full_band_covers_domain_area() {
        let engine = StorageEngine::in_memory();
        let field = small_field();
        let scan = LinearScan::build(&engine, &field).expect("build");
        let stats = scan
            .query_stats(&engine, Interval::new(-1.0, 9.0))
            .expect("query");
        assert_eq!(stats.cells_qualifying, 16);
        assert!((stats.area - 16.0).abs() < 1e-9, "area {}", stats.area);
    }

    #[test]
    fn empty_band_finds_nothing() {
        let engine = StorageEngine::in_memory();
        let field = small_field();
        let scan = LinearScan::build(&engine, &field).expect("build");
        let stats = scan
            .query_stats(&engine, Interval::new(100.0, 200.0))
            .expect("query");
        assert_eq!(stats.cells_qualifying, 0);
        assert_eq!(stats.area, 0.0);
        // Still scans everything — that is the point of the baseline.
        assert_eq!(stats.cells_examined, 16);
    }
}
