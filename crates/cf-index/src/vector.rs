//! Subfield indexing for vector fields — the §5 future-work extension.
//!
//! "In future work we would like to extend our method to process value
//! queries in vector field databases such as wind." The generalization
//! is direct: a cell's value summary becomes a `K`-dimensional box, a
//! subfield's key the union box of its cells, and the 1-D R\*-tree
//! becomes a `K`-dimensional one. The cost function generalizes the
//! Kamel–Faloutsos model to `K` dimensions:
//!
//! ```text
//! size(B) = Π_d (extent_d(B) + base)        C = size(SF) / Σ size(cell)
//! ```
//!
//! which for `K = 1` reduces exactly to the paper's scalar rule, so one
//! greedy loop ([`crate::build_subfields`] over `Aabb<K>`) groups both. The
//! motivating multi-attribute query from §1 — "find regions where the
//! temperature is between 20° and 25° *and* the salinity is between 12%
//! and 13%" — is a box intersection against this index (see the
//! `ocean_salmon` example).

use crate::exec::probe;
use crate::order::{check_cell_count, plane_order};
use crate::stats::QueryStats;
use crate::subfield::{build_subfields_by_page, SubfieldConfig};
use cf_field::{VectorCellRecord, VectorGridField};
use cf_geom::{Aabb, Polygon};
use cf_rtree::PagedRTree;
use cf_sfc::Curve;
use cf_storage::{CellFile, CfResult, StorageEngine};

/// The vector-field I-Hilbert index.
pub struct VectorIHilbert<const K: usize> {
    file: CellFile<VectorCellRecord<K>>,
    tree: PagedRTree<K>,
}

impl<const K: usize> VectorIHilbert<K> {
    /// Builds the index: the cells in the Hilbert order of their
    /// centroids, written to the cell file, then grouped within each data
    /// page by the scalar fields' greedy rule (paper defaults,
    /// `base = 1`, `query_len = 0`) over value boxes.
    pub fn build(engine: &StorageEngine, field: &VectorGridField<K>) -> CfResult<Self> {
        check_cell_count(field.num_cells())?;
        let order = plane_order(
            field.num_cells(),
            field.domain(),
            |cell| field.cell_centroid(cell),
            Curve::Hilbert,
        );

        let records: Vec<VectorCellRecord<K>> =
            order.iter().map(|&c| field.cell_record(c)).collect();
        let file = CellFile::create(engine, records)?;

        let boxes: Vec<Aabb<K>> = order.iter().map(|&c| field.cell_value_box(c)).collect();
        let subfields = build_subfields_by_page(&boxes, &file, SubfieldConfig::default());

        let tree = PagedRTree::build(engine, subfields.iter().map(|sf| (sf.interval, sf.pack())))?;
        Ok(Self { file, tree })
    }

    /// Number of subfields (one tree entry each).
    pub fn num_subfields(&self) -> usize {
        self.tree.len()
    }

    /// Pages occupied by the index.
    pub fn index_pages(&self) -> usize {
        self.tree.num_pages()
    }

    /// The Hilbert-ordered cell file the subfields point into.
    pub fn cell_file(&self) -> &CellFile<VectorCellRecord<K>> {
        &self.file
    }

    /// Multi-attribute value query: regions where every component lies
    /// inside `query` (a box in the K-dimensional value domain).
    pub fn query_with(
        &self,
        engine: &StorageEngine,
        query: &Aabb<K>,
        sink: &mut dyn FnMut(Polygon),
    ) -> CfResult<QueryStats> {
        probe(engine, &self.tree, &self.file, query, |stats, rec| {
            if rec.value_box().intersects(query) {
                stats.cells_qualifying += 1;
                for region in rec.band_region(query) {
                    stats.num_regions += 1;
                    stats.area += region.area();
                    sink(region);
                }
            }
        })
    }

    /// Query collecting statistics only.
    pub fn query_stats(&self, engine: &StorageEngine, query: &Aabb<K>) -> CfResult<QueryStats> {
        self.query_with(engine, query, &mut |_| {})
    }
}

/// Reference implementation: scan every cell (used to validate the index
/// and as the baseline in the vector-field bench).
pub fn vector_linear_scan<const K: usize>(
    engine: &StorageEngine,
    file: &CellFile<VectorCellRecord<K>>,
    query: &Aabb<K>,
) -> CfResult<QueryStats> {
    let before = cf_storage::thread_io_stats();
    let mut stats = QueryStats::default();
    file.for_each_in_range(engine, 0..file.len(), |_, rec| {
        stats.cells_examined += 1;
        if rec.value_box().intersects(query) {
            stats.cells_qualifying += 1;
            for region in rec.band_region(query) {
                stats.num_regions += 1;
                stats.area += region.area();
            }
        }
    })?;
    stats.io = cf_storage::thread_io_stats() - before;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_storage::{PageCodec, RecordFile, StorageConfig};

    /// Smooth 2-component field: (temperature-like bump, salinity ramp).
    fn sample_field(n: usize) -> VectorGridField<2> {
        let vw = n + 1;
        let mut values = Vec::new();
        for y in 0..vw {
            for x in 0..vw {
                let (fx, fy) = (x as f64 / n as f64, y as f64 / n as f64);
                let temp = 15.0 + 15.0 * (-((fx - 0.4).powi(2) + (fy - 0.5).powi(2)) * 6.0).exp();
                let sal = 10.0 + 5.0 * fx;
                values.push([temp, sal]);
            }
        }
        VectorGridField::from_values(vw, vw, values)
    }

    #[test]
    fn matches_linear_scan() {
        let field = sample_field(24);
        let queries = [
            Aabb::new([20.0, 12.0], [25.0, 13.0]),
            Aabb::new([0.0, 0.0], [100.0, 100.0]),
            Aabb::new([29.9, 10.0], [30.5, 15.0]),
            Aabb::new([100.0, 100.0], [101.0, 101.0]),
        ];
        // `StorageConfig.codec` reaches the vector cell file: the same
        // index on raw and on compressed pages answers bit for bit.
        let mut per_codec = Vec::new();
        for codec in [PageCodec::Raw, PageCodec::Compressed] {
            let engine = StorageEngine::new(StorageConfig {
                codec,
                ..StorageConfig::default()
            });
            let index = VectorIHilbert::build(&engine, &field).expect("build");
            assert_eq!(index.file.codec(), codec);
            // Separate file in native order for the scan baseline.
            let records: Vec<VectorCellRecord<2>> = (0..field.num_cells())
                .map(|c| field.cell_record(c))
                .collect();
            let scan_file = RecordFile::create(&engine, records).expect("create");

            let mut answers = Vec::new();
            for q in &queries {
                let a = vector_linear_scan(&engine, &scan_file, q).expect("scan");
                let b = index.query_stats(&engine, q).expect("query");
                assert_eq!(a.cells_qualifying, b.cells_qualifying, "query {q:?}");
                assert!(
                    (a.area - b.area).abs() < 1e-9 * a.area.max(1.0),
                    "query {q:?}: {} vs {}",
                    a.area,
                    b.area
                );
                answers.push((b.cells_qualifying, b.num_regions, b.area.to_bits()));
            }
            per_codec.push(answers);
        }
        assert_eq!(per_codec[0], per_codec[1], "raw vs compressed");
    }

    #[test]
    fn whole_domain_query_reads_every_data_page_once() {
        // Every subfield is retrieved; a page two neighbors straddle
        // must still be read a single time.
        let engine = StorageEngine::in_memory();
        let field = sample_field(32);
        let index = VectorIHilbert::build(&engine, &field).expect("build");
        assert!(index.num_subfields() > 1);
        let everything = Aabb::new([0.0, 0.0], [100.0, 100.0]);
        let stats = index.query_stats(&engine, &everything).expect("query");
        assert_eq!(
            stats.io.logical_reads(),
            index.file.num_pages() as u64 + stats.filter_pages
        );
        // Same cells in the same (position) order as a straight pass
        // over the index's own file, so the area agrees bit for bit.
        let pass = vector_linear_scan(&engine, &index.file, &everything).expect("scan");
        assert_eq!(stats.cells_examined, pass.cells_examined);
        assert_eq!(stats.cells_qualifying, pass.cells_qualifying);
        assert_eq!(stats.num_regions, pass.num_regions);
        assert_eq!(stats.area.to_bits(), pass.area.to_bits());
    }

    #[test]
    fn nan_record_on_disk_qualifies_for_no_band() {
        // Decoded bytes may hold NaN samples that no build writes: the
        // index and the scan must skip such a cell, not panic on it or
        // drop the NaN and answer for the rest of the cell.
        let engine = StorageEngine::in_memory();
        let field = sample_field(8);
        let index = VectorIHilbert::build(&engine, &field).expect("build");
        let everything = Aabb::new([0.0, 0.0], [100.0, 100.0]);
        let n = field.num_cells();
        let good = index.file.get(&engine, 5).expect("read");
        // A whole component NaN, then one sample.
        for nan_corners in [4, 1] {
            let mut rec = good;
            for corner in &mut rec.vals[..nan_corners] {
                corner[1] = f64::NAN;
            }
            index.file.put(&engine, 5, &rec).expect("raw write");
            let stats = index.query_stats(&engine, &everything).expect("query");
            assert_eq!(stats.cells_qualifying, n - 1, "{nan_corners} NaN corners");
            assert!((stats.area - (n - 1) as f64).abs() < 1e-9, "{}", stats.area);
            let pass = vector_linear_scan(&engine, &index.file, &everything).expect("scan");
            assert_eq!(pass.cells_qualifying, n - 1);
        }
    }

    #[test]
    fn hostile_leaf_payload_is_a_typed_error_not_a_panic() {
        let field = sample_field(8);
        let cells = field.num_cells() as u64;
        let everything = Aabb::new([0.0, 0.0], [100.0, 100.0]);
        for data in [(8 << 32) | 3, (7 << 32) | 7, cells + 1000] {
            let engine = StorageEngine::in_memory();
            let index = VectorIHilbert::build(&engine, &field).expect("build");
            let root = index.tree.root_page_id();
            assert_eq!(index.tree.height(), 1, "test field must fit a single leaf");
            // Rewritten through the engine, so the checksum is valid:
            // header (8 bytes), then entry 0's lo[2], hi[2] and payload.
            let mut buf = engine.with_page(root, |p| *p).expect("read");
            cf_storage::codec::put_u64(&mut buf, 8 + 32, data);
            engine.write_page(root, &buf).expect("write");
            let err = index
                .query_stats(&engine, &everything)
                .expect_err("hostile payload");
            assert!(err.is_corrupt(), "{data:#x}: {err}");
        }
    }

    #[test]
    fn fewer_subfields_than_cells() {
        let engine = StorageEngine::in_memory();
        let field = sample_field(32);
        let index = VectorIHilbert::build(&engine, &field).expect("build");
        assert!(index.num_subfields() < field.num_cells());
        assert!(index.num_subfields() >= 1);
    }

    #[test]
    fn selective_query_reads_less_than_scan() {
        let engine = StorageEngine::in_memory();
        let field = sample_field(48);
        let index = VectorIHilbert::build(&engine, &field).expect("build");
        let records: Vec<VectorCellRecord<2>> = (0..field.num_cells())
            .map(|c| field.cell_record(c))
            .collect();
        let scan_file = RecordFile::create(&engine, records).expect("create");

        let q = Aabb::new([29.0, 10.0], [30.0, 12.0]); // peak temp + low salinity
        engine.clear_cache();
        let a = vector_linear_scan(&engine, &scan_file, &q).expect("scan");
        engine.clear_cache();
        let b = index.query_stats(&engine, &q).expect("query");
        assert_eq!(a.cells_qualifying, b.cells_qualifying);
        assert!(
            b.io.logical_reads() < a.io.logical_reads(),
            "index {} vs scan {}",
            b.io.logical_reads(),
            a.io.logical_reads()
        );
    }
}
