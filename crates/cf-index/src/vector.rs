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
//! which for `K = 1` reduces exactly to the paper's scalar rule. The
//! motivating multi-attribute query from §1 — "find regions where the
//! temperature is between 20° and 25° *and* the salinity is between 12%
//! and 13%" — is a box intersection against this index (see the
//! `ocean_salmon` example).

use crate::order::CURVE_ORDER;
use crate::stats::QueryStats;
use cf_field::{VectorCellRecord, VectorGridField};
use cf_geom::{Aabb, Polygon};
use cf_rtree::PagedRTree;
use cf_sfc::Curve;
use cf_storage::{CellFile, CfResult, StorageEngine};

/// The vector-field I-Hilbert index.
pub struct VectorIHilbert<const K: usize> {
    file: CellFile<VectorCellRecord<K>>,
    tree: PagedRTree<K>,
    num_subfields: usize,
}

/// A vector subfield: a record range plus its value box.
#[derive(Debug, Clone, Copy)]
struct VectorSubfield<const K: usize> {
    start: u32,
    end: u32,
    bbox: Aabb<K>,
}

/// Greedy grouping with the K-dimensional cost rule.
fn build_vector_subfields<const K: usize>(boxes: &[Aabb<K>], base: f64) -> Vec<VectorSubfield<K>> {
    assert!(
        boxes.len() <= u32::MAX as usize,
        "cell file too large for u32 subfield pointers"
    );
    let size = |b: &Aabb<K>| -> f64 { (0..K).map(|d| b.extent(d) + base).product() };
    let mut out = Vec::new();
    let Some(first) = boxes.first() else {
        return out;
    };
    let mut start = 0u32;
    let mut union = *first;
    let mut si = size(first);
    for (i, b) in boxes.iter().enumerate().skip(1) {
        let cost_before = size(&union) / si;
        let new_union = union.union(b);
        let new_si = si + size(b);
        let cost_after = size(&new_union) / new_si;
        if cost_before > cost_after {
            union = new_union;
            si = new_si;
        } else {
            out.push(VectorSubfield {
                start,
                end: i as u32,
                bbox: union,
            });
            start = i as u32;
            union = *b;
            si = size(b);
        }
    }
    out.push(VectorSubfield {
        start,
        end: boxes.len() as u32,
        bbox: union,
    });
    out
}

impl<const K: usize> VectorIHilbert<K> {
    /// Builds the index with the paper-default `base = 1.0`.
    pub fn build(engine: &StorageEngine, field: &VectorGridField<K>) -> CfResult<Self> {
        Self::build_with(engine, field, 1.0)
    }

    /// Builds the index with an explicit interval-size base.
    pub fn build_with(
        engine: &StorageEngine,
        field: &VectorGridField<K>,
        base: f64,
    ) -> CfResult<Self> {
        let n = field.num_cells();
        // Hilbert-order the cells by centroid.
        let domain = field.domain();
        let side = (1u64 << CURVE_ORDER) - 1;
        let (w, h) = (domain.extent(0), domain.extent(1));
        let mut keyed: Vec<(u64, usize)> = (0..n)
            .map(|cell| {
                let c = field.cell_centroid(cell);
                let qx = if w > 0.0 {
                    (((c.x - domain.lo[0]) / w).clamp(0.0, 1.0) * side as f64) as u64
                } else {
                    0
                };
                let qy = if h > 0.0 {
                    (((c.y - domain.lo[1]) / h).clamp(0.0, 1.0) * side as f64) as u64
                } else {
                    0
                };
                (Curve::Hilbert.index(qx, qy, CURVE_ORDER), cell)
            })
            .collect();
        keyed.sort_unstable();
        let order: Vec<usize> = keyed.into_iter().map(|(_, c)| c).collect();

        let boxes: Vec<Aabb<K>> = order.iter().map(|&c| field.cell_value_box(c)).collect();
        let subfields = build_vector_subfields(&boxes, base);

        let records: Vec<VectorCellRecord<K>> =
            order.iter().map(|&c| field.cell_record(c)).collect();
        let file = CellFile::create(engine, records)?;

        let tree = PagedRTree::build(
            engine,
            subfields
                .iter()
                .map(|sf| (sf.bbox, (u64::from(sf.start) << 32) | u64::from(sf.end))),
        )?;
        Ok(Self {
            file,
            tree,
            num_subfields: subfields.len(),
        })
    }

    /// Number of subfields.
    pub fn num_subfields(&self) -> usize {
        self.num_subfields
    }

    /// Pages occupied by the index.
    pub fn index_pages(&self) -> usize {
        self.tree.num_pages()
    }

    /// Multi-attribute value query: regions where every component lies
    /// inside `query` (a box in the K-dimensional value domain).
    pub fn query_with(
        &self,
        engine: &StorageEngine,
        query: &Aabb<K>,
        sink: &mut dyn FnMut(Polygon),
    ) -> CfResult<QueryStats> {
        let before = cf_storage::thread_io_stats();
        let mut stats = QueryStats::default();
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        let search = self.tree.search(engine, query, |data, _| {
            ranges.push(((data >> 32) as u32, data as u32));
        })?;
        stats.filter_nodes = search.nodes_visited;
        stats.intervals_retrieved = ranges.len();
        stats.filter_pages = (cf_storage::thread_io_stats() - before).logical_reads();
        // Merge touching subfields so a page two of them straddle is
        // read once (same rule and reader as the scalar pipeline).
        let mut runs = Vec::new();
        crate::exec::coalesce_into(&mut ranges, &mut runs);
        self.file.for_each_in_ranges(engine, &runs, |_, rec| {
            stats.cells_examined += 1;
            if rec.value_box().intersects(query) {
                stats.cells_qualifying += 1;
                for region in rec.band_region(query) {
                    stats.num_regions += 1;
                    stats.area += region.area();
                    sink(region);
                }
            }
        })?;
        stats.io = cf_storage::thread_io_stats() - before;
        Ok(stats)
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
