//! Subfield indexing for 3-D volume fields.
//!
//! The same I-Hilbert construction in three spatial dimensions: cells
//! are linearized by the **3-D Hilbert value** of their centers
//! (Skilling transform), grouped into subfields within each data page
//! with the identical cost function, and subfield intervals indexed in the 1-D R\*-tree. The
//! estimation step reports exact answer *volumes* via the closed-form
//! tetrahedral band-volume (see [`cf_field::VolumeCellRecord`]).

use crate::exec::probe;
use crate::order::{check_cell_count, order_by, quantize};
use crate::stats::QueryStats;
use crate::subfield::{build_subfields_by_page, SubfieldConfig};
use cf_field::{Grid3Field, VolumeCellRecord};
use cf_geom::{Aabb, Interval};
use cf_rtree::PagedRTree;
use cf_sfc::hilbert_index_nd;
use cf_storage::{CellFile, CfResult, StorageEngine};

/// Bits per axis for the 3-D Hilbert ordering (1024³ positions).
const BITS_3D: u32 = 10;

// A 3-D key of `BITS_3D` bits per axis fits the packed sort's key half.
const _: () = assert!(3 * BITS_3D <= 32);

/// The cells of `field` in the 3-D Hilbert order of their centers,
/// quantized over the cube that holds the grid.
pub(crate) fn volume_order(field: &Grid3Field) -> Vec<usize> {
    let (cx, cy, cz) = field.cell_dims();
    let max_dim = cx.max(cy).max(cz) as f64;
    let cube = Aabb::new([0.0; 3], [max_dim; 3]);
    order_by(field.num_cells(), |cell| {
        let key = hilbert_index_nd(
            &quantize(field.cell_centroid(cell), &cube, BITS_3D),
            BITS_3D,
        );
        // Lossless: the key has `3 * BITS_3D <= 32` bits.
        key as u32
    })
}

/// The volume-field I-Hilbert index.
pub struct VolumeIHilbert {
    file: CellFile<VolumeCellRecord>,
    tree: PagedRTree<1>,
}

impl VolumeIHilbert {
    /// Builds the index with the paper-default cost function.
    pub fn build(engine: &StorageEngine, field: &Grid3Field) -> CfResult<Self> {
        check_cell_count(field.num_cells())?;
        let order = volume_order(field);

        let records: Vec<VolumeCellRecord> = order.iter().map(|&c| field.cell_record(c)).collect();
        let file = CellFile::create(engine, records)?;

        let intervals: Vec<Interval> = order.iter().map(|&c| field.cell_interval(c)).collect();
        let subfields = build_subfields_by_page(&intervals, &file, SubfieldConfig::default());

        let tree = PagedRTree::build(
            engine,
            subfields.iter().map(|sf| (sf.interval.into(), sf.pack())),
        )?;
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

    /// Data pages of the cell file (what query scans touch).
    pub fn data_pages(&self) -> usize {
        self.file.data_pages()
    }

    /// The Hilbert-ordered cell file the subfields point into.
    pub fn cell_file(&self) -> &CellFile<VolumeCellRecord> {
        &self.file
    }

    /// Volume value query: filter subfields, read cell runs, and return
    /// statistics where [`QueryStats::area`] is the exact answer
    /// *volume* (in cell units).
    pub fn query_stats(&self, engine: &StorageEngine, band: Interval) -> CfResult<QueryStats> {
        probe(
            engine,
            &self.tree,
            &self.file,
            &band.into(),
            |stats, rec| {
                if rec.interval().intersects(band) {
                    stats.cells_qualifying += 1;
                    let v = rec.band_volume(band);
                    if v > 0.0 {
                        stats.num_regions += 1;
                        stats.area += v;
                    }
                }
            },
        )
    }
}

/// Scan baseline over a native-order volume cell file.
pub fn volume_linear_scan(
    engine: &StorageEngine,
    file: &CellFile<VolumeCellRecord>,
    band: Interval,
) -> CfResult<QueryStats> {
    let before = cf_storage::thread_io_stats();
    let mut stats = QueryStats::default();
    file.for_each_in_range(engine, 0..file.len(), |_, rec| {
        stats.cells_examined += 1;
        if rec.interval().intersects(band) {
            stats.cells_qualifying += 1;
            let v = rec.band_volume(band);
            if v > 0.0 {
                stats.num_regions += 1;
                stats.area += v;
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

    fn layered_field(n: usize) -> Grid3Field {
        // Smooth layered structure: w = z + 0.3 sin(x) cos(y).
        let v = n + 1;
        let mut values = Vec::new();
        for z in 0..v {
            for y in 0..v {
                for x in 0..v {
                    let (fx, fy) = (x as f64 * 0.4, y as f64 * 0.4);
                    values.push(z as f64 + 0.3 * fx.sin() * fy.cos());
                }
            }
        }
        Grid3Field::from_values(v, v, v, values)
    }

    #[test]
    fn matches_linear_scan() {
        let field = layered_field(12);
        let dom = field.value_domain();
        let bands = [0.0, 0.25, 0.5, 0.9]
            .map(|t| Interval::new(dom.denormalize(t), dom.denormalize((t + 0.1f64).min(1.0))));
        // `StorageConfig.codec` reaches the volume cell file: the same
        // index on raw and on compressed pages answers bit for bit.
        let mut per_codec = Vec::new();
        for codec in [PageCodec::Raw, PageCodec::Compressed] {
            let engine = StorageEngine::new(StorageConfig {
                codec,
                ..StorageConfig::default()
            });
            let index = VolumeIHilbert::build(&engine, &field).expect("build");
            assert_eq!(index.file.codec(), codec);
            let records: Vec<VolumeCellRecord> = (0..field.num_cells())
                .map(|c| field.cell_record(c))
                .collect();
            let scan_file = RecordFile::create(&engine, records).expect("create");

            let mut answers = Vec::new();
            for band in bands {
                let a = volume_linear_scan(&engine, &scan_file, band).expect("scan");
                let b = index.query_stats(&engine, band).expect("query");
                assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
                assert!(
                    (a.area - b.area).abs() < 1e-9 * a.area.max(1.0),
                    "band {band}: {} vs {}",
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
    fn layered_data_forms_few_subfields() {
        let engine = StorageEngine::in_memory();
        let field = layered_field(16);
        let index = VolumeIHilbert::build(&engine, &field).expect("build");
        assert!(
            index.num_subfields() < field.num_cells() / 4,
            "{} subfields for {} cells",
            index.num_subfields(),
            field.num_cells()
        );
    }

    #[test]
    fn selective_query_beats_scan_on_pages() {
        let engine = StorageEngine::in_memory();
        let field = layered_field(16);
        let index = VolumeIHilbert::build(&engine, &field).expect("build");
        let records: Vec<VolumeCellRecord> = (0..field.num_cells())
            .map(|c| field.cell_record(c))
            .collect();
        let scan_file = RecordFile::create(&engine, records).expect("create");

        let dom = field.value_domain();
        let band = Interval::new(dom.denormalize(0.98), dom.hi);
        engine.clear_cache();
        let a = volume_linear_scan(&engine, &scan_file, band).expect("scan");
        engine.clear_cache();
        let b = index.query_stats(&engine, band).expect("query");
        assert_eq!(a.cells_qualifying, b.cells_qualifying);
        assert!(
            b.io.logical_reads() < a.io.logical_reads(),
            "index {} vs scan {}",
            b.io.logical_reads(),
            a.io.logical_reads()
        );
        assert!(b.cells_examined < field.num_cells() / 4);
    }

    #[test]
    fn whole_domain_query_reads_every_data_page_once() {
        // Every subfield is retrieved; a page two neighbors straddle
        // must still be read a single time.
        let engine = StorageEngine::in_memory();
        let field = layered_field(12);
        let index = VolumeIHilbert::build(&engine, &field).expect("build");
        assert!(index.num_subfields() > 1);
        let band = field.value_domain();
        let stats = index.query_stats(&engine, band).expect("query");
        assert_eq!(
            stats.io.logical_reads(),
            index.data_pages() as u64 + stats.filter_pages
        );
        // Same cells in the same (position) order as a straight pass
        // over the index's own file, so the volume agrees bit for bit.
        let pass = volume_linear_scan(&engine, &index.file, band).expect("scan");
        assert_eq!(stats.cells_examined, pass.cells_examined);
        assert_eq!(stats.cells_qualifying, pass.cells_qualifying);
        assert_eq!(stats.num_regions, pass.num_regions);
        assert_eq!(stats.area.to_bits(), pass.area.to_bits());
    }

    #[test]
    fn nan_record_on_disk_qualifies_for_no_band() {
        // Decoded bytes may hold NaN samples that no build writes: the
        // index and the scan must skip such a cell, not panic on it.
        let engine = StorageEngine::in_memory();
        let field = layered_field(6);
        let index = VolumeIHilbert::build(&engine, &field).expect("build");
        let everything = field.value_domain();
        let n = field.num_cells();
        let good = index.file.get(&engine, 5).expect("read");
        // Every corner NaN, then some.
        for nan_corners in [8, 3] {
            let mut rec = good;
            rec.vals[..nan_corners].fill(f64::NAN);
            index.file.put(&engine, 5, &rec).expect("raw write");
            let stats = index.query_stats(&engine, everything).expect("query");
            assert_eq!(stats.cells_qualifying, n - 1, "{nan_corners} NaN corners");
            assert!((stats.area - (n - 1) as f64).abs() < 1e-9, "{}", stats.area);
            let pass = volume_linear_scan(&engine, &index.file, everything).expect("scan");
            assert_eq!(pass.cells_qualifying, n - 1);
        }
    }

    #[test]
    fn band_volumes_tile_the_domain() {
        let engine = StorageEngine::in_memory();
        let field = layered_field(8);
        let index = VolumeIHilbert::build(&engine, &field).expect("build");
        let dom = field.value_domain();
        let cuts = 5;
        let mut total = 0.0;
        for i in 0..cuts {
            let band = Interval::new(
                dom.denormalize(i as f64 / cuts as f64),
                dom.denormalize((i + 1) as f64 / cuts as f64),
            );
            total += index.query_stats(&engine, band).expect("query").area;
        }
        let volume = field.num_cells() as f64;
        assert!(
            (total - volume).abs() < 1e-6 * volume,
            "bands tile {total} vs {volume}"
        );
    }
}
