//! `I-Hilbert` — the paper's contribution.
//!
//! Cells are linearized by the Hilbert value of their centers; subfields
//! are formed by the greedy cost rule of §3.1.2 within each data page;
//! only subfield intervals enter the 1-D R\*-tree, and each subfield's
//! cells are physically contiguous on one page of the cell file, so the
//! estimation step reads only pages that hold a retrieved subfield. The
//! same file answers Q1 ([`IHilbert::value_at`]).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::order::{cell_order, check_cell_count};
use crate::sfindex::SubfieldIndex;
use crate::stats::{QueryStats, RegionSink, ValueIndex};
use crate::subfield::{build_subfields_by_page, Subfield, SubfieldConfig};
use cf_field::FieldModel;
use cf_geom::{Aabb, Interval, Point2};
use cf_sfc::Curve;
use cf_storage::{
    codec, CellFile, CfError, CfResult, PageCodec, PageId, Record, RecordFile, StorageEngine,
};

/// Construction parameters of [`IHilbert`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IHilbertConfig {
    /// Cell linearization curve. [`Curve::Hilbert`], the default, is the
    /// paper's method; other curves exist for the ablation bench.
    pub curve: Curve,
    /// Cost-function knobs (paper defaults).
    pub subfield: SubfieldConfig,
}

/// A `u32` cell→position mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PosRecord(pub(crate) u32);

impl Record for PosRecord {
    const SIZE: usize = 4;

    fn encode(&self, buf: &mut [u8]) {
        codec::put_u32(buf, 0, self.0);
    }

    fn decode(buf: &[u8]) -> Self {
        Self(codec::get_u32(buf, 0))
    }
}

/// A box file entry: the union of one data page's record boxes
/// ([`FieldModel::record_bbox`]), `[lo, hi]` as four `f64`s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageBox(pub(crate) Aabb<2>);

impl Record for PageBox {
    const SIZE: usize = 32;

    fn encode(&self, buf: &mut [u8]) {
        for (i, v) in self.0.lo.into_iter().chain(self.0.hi).enumerate() {
            codec::put_f64(buf, 8 * i, v);
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let v = |i: usize| codec::get_f64(buf, 8 * i);
        Self(Aabb {
            lo: [v(0), v(1)],
            hi: [v(2), v(3)],
        })
    }
}

/// Writes one generation of an index over `records` (in file order,
/// `intervals` theirs): the cell file laid out by `codec`, the box
/// file, each data page's subfields ([`build_subfields_by_page`]), then
/// the tree over them. Both [`IHilbert::build_with`] (the engine's
/// codec) and a live-ingest repack (its base's codec) write through
/// here, so the allocation order is stated once: cell, box, then tree
/// run. A box run allocated after the tree splits the holes the next
/// repack's cell run needs, and the file grows (DESIGN §17.7).
pub(crate) fn write_generation<F: FieldModel>(
    engine: &StorageEngine,
    codec: PageCodec,
    records: Vec<F::CellRec>,
    intervals: &[Interval],
    curve: Curve,
    config: SubfieldConfig,
) -> CfResult<(SubfieldIndex<F>, CellFile<PageBox>)> {
    let file = CellFile::create_as(engine, codec, records.iter().cloned())?;
    // Entry `i` of the box file is the union of data page `i`'s
    // record boxes.
    let page_box = |page| {
        let recs = &records[file.page_span(page)];
        PageBox(
            recs.iter()
                .fold(Aabb::EMPTY, |acc, r| acc.union(&F::record_bbox(r))),
        )
    };
    let box_file = RecordFile::create(engine, (0..file.data_pages()).map(page_box))?;
    drop(records);
    let subfields = build_subfields_by_page(intervals, &file, config);
    let (label, curve_name) = (method_label(curve), curve.name());
    let inner = SubfieldIndex::build(engine, file, subfields, &label, curve_name)?;
    Ok((inner, box_file))
}

/// The I-Hilbert value index.
pub struct IHilbert<F: FieldModel> {
    /// The index core, labelled [`method_label`]`(curve)` and
    /// `curve.name()`.
    pub(crate) inner: SubfieldIndex<F>,
    pub(crate) curve: Curve,
    /// Field cell index → position in the Hilbert-ordered cell file.
    pub(crate) cell_to_pos: Vec<u32>,
    /// On-page copy of `cell_to_pos`, written once by the build: no
    /// update or repack moves a cell, so every later catalog slot
    /// points at the same run.
    pub(crate) pos_file: CellFile<PosRecord>,
    /// Box file (always raw): entry `i` is data page `i`'s [`PageBox`].
    pub(crate) box_file: CellFile<PageBox>,
}

impl<F: FieldModel> IHilbert<F> {
    /// Builds the index with paper-default parameters.
    pub fn build(engine: &StorageEngine, field: &F) -> CfResult<Self> {
        Self::build_with(engine, field, IHilbertConfig::default())
    }

    /// Builds the index with explicit parameters: linearize the cells
    /// along the curve, write the cell file and the box file, group
    /// each data page's cells greedily into subfields (§3.1.2,
    /// [`build_subfields_by_page`]), index the subfield intervals (the
    /// order a live-ingest repack writes its generation in), then write
    /// the cell→position map.
    ///
    /// # Errors
    ///
    /// A field of more than `u32::MAX` cells is refused with
    /// [`CfError::InvalidCell`] before any cell is read, as every build
    /// refuses it. So is the first record with a NaN sample or a
    /// non-finite box, with [`CfError::InvalidRecord`], before any page
    /// is allocated, as every update refuses it. Storage errors pass
    /// through.
    pub fn build_with(engine: &StorageEngine, field: &F, config: IHilbertConfig) -> CfResult<Self> {
        check_cell_count(field.num_cells())?;
        let order = cell_order(field, config.curve);
        let curve = config.curve;
        let records = checked_records(field, order.iter().copied())?;
        // A record's interval is its cell's (`FieldModel::record_interval`),
        // and the records are in hand: the repack takes them the same way.
        let intervals: Vec<Interval> = records.iter().map(F::record_interval).collect();
        let (inner, box_file) = write_generation(
            engine,
            engine.codec(),
            records,
            &intervals,
            curve,
            config.subfield,
        )?;
        // Size the map by the largest cell id, not the cell count: a
        // field reporting non-dense cell ids must not index out of
        // bounds here. Unmapped ids keep the sentinel and are rejected
        // by `update_cell` with a real message.
        let map_len = order.iter().map(|&c| c + 1).max().unwrap_or(0);
        let mut cell_to_pos = vec![u32::MAX; map_len];
        for (pos, &cell) in order.iter().enumerate() {
            cell_to_pos[cell] = pos as u32;
        }
        let pos_file = RecordFile::create(engine, cell_to_pos.iter().map(|&p| PosRecord(p)))?;
        Ok(Self {
            inner,
            curve,
            cell_to_pos,
            pos_file,
            box_file,
        })
    }

    /// Number of subfields the cost function produced.
    pub fn num_subfields(&self) -> usize {
        self.inner.subfields.len()
    }

    /// The subfield catalog in file order: the in-memory copy of the
    /// tree's leaf entries.
    pub fn subfields(&self) -> &[Subfield] {
        &self.inner.subfields
    }

    /// The Hilbert-ordered cell file the subfields point into.
    pub fn cell_file(&self) -> &CellFile<F::CellRec> {
        &self.inner.file
    }

    /// How many subfields span a data page boundary: 0 for an index
    /// built or repacked by [`build_subfields_by_page`]; a catalog
    /// grouped by the uncut rule keeps its straddlers until a repack.
    pub fn straddling_subfields(&self) -> usize {
        let file = &self.inner.file;
        self.inner
            .subfields
            .iter()
            .filter(|sf| file.page_no_of(sf.start as usize) != file.page_no_of(sf.end as usize - 1))
            .count()
    }

    /// The index's page runs as `(first page, pages)`: the cell file,
    /// the tree and the box file, which a live-ingest repack replaces
    /// (in the order they are freed), then the position map, which no
    /// repack moves. `fielddb info` checks them against the freelist.
    pub fn page_runs(&self) -> [(PageId, usize); 4] {
        let (cells, boxes, pos) = (&self.inner.file, &self.box_file, &self.pos_file);
        [
            (cells.first_page(), cells.num_pages()),
            self.inner.tree.page_run(),
            (boxes.first_page(), boxes.num_pages()),
            (pos.first_page(), pos.num_pages()),
        ]
    }

    /// Number of cells in the index's cell file.
    pub fn inner_len(&self) -> usize {
        self.inner.file.len()
    }

    /// On-page layout of the cell file (raw or compressed).
    pub fn cell_codec(&self) -> PageCodec {
        self.inner.file.codec()
    }

    /// Hull of all indexed values (union of subfield intervals).
    pub fn value_domain(&self) -> Interval {
        self.inner
            .subfields
            .iter()
            .map(|sf| sf.interval)
            .reduce(|a, b| a.union(b))
            .unwrap_or(Interval::point(0.0))
    }

    /// Q1 (§2.2.1): the value at `p`, or `None` outside the domain. Reads
    /// the box file, then the pages whose box holds `p` up to the first
    /// record that answers — a full scan's answer, bit for bit.
    pub fn value_at(&self, engine: &StorageEngine, p: Point2) -> CfResult<Option<f64>> {
        let boxes = self.box_file.read_range(engine, 0..self.box_file.len())?;
        let file = &self.inner.file;
        for page in (0..boxes.len()).filter(|&i| boxes[i].0.contains_point(&[p.x, p.y])) {
            let records = file.read_range(engine, file.page_span(page))?;
            if let Some(v) = records.iter().find_map(|rec| F::record_value_at(rec, p)) {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Incremental maintenance: applies an updated record for `cell`
    /// (e.g. a re-measured sample) in place.
    ///
    /// The cell record is rewritten in the Hilbert-ordered file and, if
    /// the containing subfield's value interval changed, its entry box
    /// in the paged R\*-tree is rewritten in place, with its ancestors'
    /// hulls ([`cf_rtree::PagedRTree::replace_entry`]). Subfield
    /// *boundaries* are not re-optimized — the greedy grouping is a
    /// build-time decision, as in the paper — so the tree never changes
    /// shape and no page is allocated (the page's Q1 box widens first).
    ///
    /// # Errors
    ///
    /// Returns [`CfError::InvalidCell`] if `cell` is not a cell id this
    /// index was built over (out of range or unmapped under non-dense
    /// ids), and [`CfError::Corrupt`] if a reopened catalog maps it
    /// past the cell file — both would otherwise rewrite some other
    /// cell's record. Returns [`CfError::InvalidRecord`] for a record
    /// with a NaN sample, or whose box has a non-finite bound or an
    /// overflowing area. Cell ids and records are user input; no case
    /// panics, and none writes anything.
    pub fn update_cell(
        &mut self,
        engine: &StorageEngine,
        cell: usize,
        record: F::CellRec,
    ) -> CfResult<()> {
        check_record::<F>(cell, &record)?;
        let pos = self.resolve_cell(cell)?;
        let page = self.inner.file.page_no_of(pos);
        let (PageBox(old), new) = (self.box_file.get(engine, page)?, F::record_bbox(&record));
        if !old.contains(&new) {
            self.box_file.put(engine, page, &PageBox(old.union(&new)))?;
        }
        self.inner.update_record(engine, pos, &record)
    }

    /// Maps a user-supplied cell id to its cell-file position, with the
    /// same validation (and errors) as [`IHilbert::update_cell`].
    pub(crate) fn resolve_cell(&self, cell: usize) -> CfResult<usize> {
        let pos = match self.cell_to_pos.get(cell) {
            Some(&p) if p != u32::MAX => p as usize,
            _ => {
                return Err(CfError::InvalidCell {
                    cell,
                    cells: self.inner.file.len(),
                })
            }
        };
        if pos >= self.inner.file.len() {
            return Err(CfError::corrupt(
                None,
                format!(
                    "catalog maps cell {cell} to position {pos}, but the cell file holds {} records",
                    self.inner.file.len()
                ),
            ));
        }
        Ok(pos)
    }
}

/// Refuses a user-supplied record ([`CfError::InvalidRecord`]) with a
/// NaN sample — its interval is [`Interval::NAN`], which no band
/// intersects — or whose box ([`FieldModel::record_bbox`]) has a
/// non-finite bound or an area that overflows, which the refine would
/// turn into a NaN area. Every build over a [`FieldModel`] and every
/// mutation path calls this before it touches any state.
pub(crate) fn check_record<F: FieldModel>(cell: usize, record: &F::CellRec) -> CfResult<()> {
    let bbox = F::record_bbox(record);
    let finite = bbox.lo.iter().chain(&bbox.hi).all(|v| v.is_finite());
    if F::record_interval(record).is_nan() || !finite || !bbox.volume().is_finite() {
        return Err(CfError::InvalidRecord { cell });
    }
    Ok(())
}

/// The records of `cells`, in order, for a build to write: the first
/// that [`check_record`] refuses fails the build before it allocates a
/// page, so no build stores a record that no update could write.
pub(crate) fn checked_records<F: FieldModel>(
    field: &F,
    cells: impl ExactSizeIterator<Item = usize>,
) -> CfResult<Vec<F::CellRec>> {
    let mut records = Vec::with_capacity(cells.len());
    for cell in cells {
        let rec = field.cell_record(cell);
        check_record::<F>(cell, &rec)?;
        records.push(rec);
    }
    Ok(records)
}

/// Method name for a curve choice, as used in the paper's figures and as
/// the `index` metric label.
pub(crate) fn method_label(curve: Curve) -> String {
    match curve {
        Curve::Hilbert => "I-Hilbert".into(),
        other => format!("I-{}", other.name()),
    }
}

impl<F: FieldModel> ValueIndex for IHilbert<F> {
    fn name(&self) -> String {
        method_label(self.curve)
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
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn smooth_field(n: usize) -> cf_field::GridField {
        // A smooth two-bump surface: strong spatial autocorrelation,
        // which is what subfields exploit.
        let vw = n + 1;
        let mut values = Vec::new();
        for y in 0..vw {
            for x in 0..vw {
                let (fx, fy) = (x as f64 / n as f64, y as f64 / n as f64);
                values.push(
                    100.0 * (-((fx - 0.3).powi(2) + (fy - 0.3).powi(2)) * 8.0).exp()
                        + 60.0 * (-((fx - 0.75).powi(2) + (fy - 0.7).powi(2)) * 12.0).exp(),
                );
            }
        }
        cf_field::GridField::from_values(vw, vw, values)
    }

    #[test]
    fn far_fewer_intervals_than_cells() {
        let engine = StorageEngine::in_memory();
        let field = smooth_field(32);
        let ih = IHilbert::build(&engine, &field).expect("build");
        assert!(ih.num_subfields() >= 1);
        assert!(
            ih.num_subfields() < field.num_cells() / 2,
            "{} subfields for {} cells",
            ih.num_subfields(),
            field.num_cells()
        );
    }

    #[test]
    fn matches_linear_scan_answers() {
        let engine = StorageEngine::in_memory();
        let field = smooth_field(24);
        let scan = LinearScan::build(&engine, &field).expect("build");
        let ih = IHilbert::build(&engine, &field).expect("build");
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let lo: f64 = rng.gen_range(-5.0..105.0);
            let band = Interval::new(lo, lo + rng.gen_range(0.0..20.0));
            let a = scan.query_stats(&engine, band).expect("query");
            let b = ih.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert!(
                (a.area - b.area).abs() < 1e-9 * a.area.max(1.0),
                "band {band}: {} vs {}",
                a.area,
                b.area
            );
        }
    }

    #[test]
    fn reads_fewer_pages_than_linear_scan_on_selective_query() {
        let engine = StorageEngine::in_memory();
        let field = smooth_field(48);
        let scan = LinearScan::build(&engine, &field).expect("build");
        let ih = IHilbert::build(&engine, &field).expect("build");
        let band = Interval::new(95.0, 100.0); // only the first bump's peak
        engine.clear_cache();
        let s = scan.query_stats(&engine, band).expect("query");
        engine.clear_cache();
        let h = ih.query_stats(&engine, band).expect("query");
        assert_eq!(s.cells_qualifying, h.cells_qualifying);
        assert!(
            h.io.logical_reads() < s.io.logical_reads() / 2,
            "I-Hilbert {} reads vs LinearScan {}",
            h.io.logical_reads(),
            s.io.logical_reads()
        );
    }

    #[test]
    fn curve_ablation_still_correct() {
        let engine = StorageEngine::in_memory();
        let field = smooth_field(16);
        let scan = LinearScan::build(&engine, &field).expect("build");
        for curve in Curve::ALL {
            let idx = IHilbert::build_with(
                &engine,
                &field,
                IHilbertConfig {
                    curve,
                    ..Default::default()
                },
            )
            .expect("build");
            let band = Interval::new(20.0, 40.0);
            let a = scan.query_stats(&engine, band).expect("query");
            let b = idx.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "curve {curve:?}");
            assert!((a.area - b.area).abs() < 1e-9 * a.area.max(1.0));
        }
    }

    #[test]
    fn incremental_updates_track_field_changes() {
        use cf_field::GridField;
        let engine = StorageEngine::in_memory();
        let mut field = smooth_field(24);
        let mut index = IHilbert::build(&engine, &field).expect("build");
        let mut rng = StdRng::seed_from_u64(77);

        // Mutate 60 random vertices; push the changed cells into the
        // index incrementally, then compare against a fresh scan of the
        // mutated field.
        let (vw, vh) = field.vertex_dims();
        for _ in 0..60 {
            let x = rng.gen_range(0..vw);
            let y = rng.gen_range(0..vh);
            let new_value: f64 = rng.gen_range(-50.0..150.0);
            // Rebuild the field with the changed vertex.
            let mut values: Vec<f64> = (0..vh)
                .flat_map(|yy| (0..vw).map(move |xx| (xx, yy)))
                .map(|(xx, yy)| field.vertex_value(xx, yy))
                .collect();
            values[y * vw + x] = new_value;
            field = GridField::from_values(vw, vh, values);
            // Cells touching the vertex (up to 4).
            let (cw, ch) = field.cell_dims();
            for cy in y.saturating_sub(1)..=y.min(ch - 1) {
                for cx in x.saturating_sub(1)..=x.min(cw - 1) {
                    let cell = field.cell_index(cx, cy);
                    index
                        .update_cell(&engine, cell, field.cell_record(cell))
                        .expect("update");
                }
            }
        }

        let scan = LinearScan::build(&engine, &field).expect("build");
        for _ in 0..15 {
            let lo: f64 = rng.gen_range(-60.0..150.0);
            let band = Interval::new(lo, lo + rng.gen_range(0.0..30.0));
            let a = scan.query_stats(&engine, band).expect("query");
            let b = index.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert!(
                (a.area - b.area).abs() < 1e-9 * a.area.max(1.0),
                "band {band}: {} vs {}",
                a.area,
                b.area
            );
        }
    }

    #[test]
    fn q1_reads_the_box_pages_then_candidates_up_to_the_first_answer() {
        let engine = StorageEngine::in_memory();
        let field = smooth_field(48);
        let index = IHilbert::build(&engine, &field).expect("build");
        let file = &index.inner.file;
        let boxes = index
            .box_file
            .read_range(&engine, 0..index.box_file.len())
            .expect("boxes");
        assert_eq!(boxes.len(), file.data_pages());
        let box_pages = index.box_file.num_pages() as u64;
        assert_eq!(box_pages, file.data_pages().div_ceil(128) as u64);
        let answers_on = |page: usize, p: Point2| {
            let recs = file
                .read_range(&engine, file.page_span(page))
                .expect("page");
            recs.iter()
                .any(|rec| cf_field::GridField::record_value_at(rec, p).is_some())
        };
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            let p = Point2::new(rng.gen_range(-1.0..49.0), rng.gen_range(-1.0..49.0));
            let candidates: Vec<usize> = (0..boxes.len())
                .filter(|&page| boxes[page].0.contains_point(&[p.x, p.y]))
                .collect();
            let read = match candidates.iter().position(|&page| answers_on(page, p)) {
                Some(k) => k + 1,
                None => candidates.len(),
            };
            let before = cf_storage::thread_io_stats();
            let got = index.value_at(&engine, p).expect("q1");
            let reads = (cf_storage::thread_io_stats() - before).logical_reads();
            assert_eq!(reads, box_pages + read as u64, "at {p}");
            assert_eq!(got.is_some(), field.value_at(p).is_some(), "at {p}");
        }
    }

    #[test]
    fn update_rejects_out_of_range_cell_id() {
        let engine = StorageEngine::in_memory();
        let field = smooth_field(4);
        let mut index = IHilbert::build(&engine, &field).expect("build");
        let rec = field.cell_record(0);
        let err = index
            .update_cell(&engine, field.num_cells() + 5, rec)
            .expect_err("out-of-range cell id must be rejected");
        assert!(err.is_invalid_cell(), "{err}");
        assert!(err.to_string().contains("is not mapped by this index"));
    }

    #[test]
    fn update_rejects_unmapped_cell_under_non_dense_ids() {
        // A position map with holes (as a field reporting non-dense cell
        // ids would produce): unmapped ids must be rejected, not silently
        // redirect the update to position 0.
        let engine = StorageEngine::in_memory();
        let field = smooth_field(4);
        let mut index = IHilbert::build(&engine, &field).expect("build");
        let hole = 3;
        index.cell_to_pos[hole] = u32::MAX;
        let rec = field.cell_record(hole);
        let err = index
            .update_cell(&engine, hole, rec)
            .expect_err("unmapped cell id must be rejected");
        assert!(err.is_invalid_cell(), "{err}");
    }

    #[test]
    fn update_rejects_nan_records_before_writing() {
        let engine = StorageEngine::in_memory();
        let field = smooth_field(8);
        let mut index = IHilbert::build(&engine, &field).expect("build");
        let band = Interval::new(20.0, 60.0);
        let want = index.query_stats(&engine, band).expect("query");
        let cell = 13;
        for vals in [[f64::NAN; 4], [1.0, 2.0, f64::NAN, 3.0]] {
            let rec = cf_field::GridCellRecord {
                vals,
                ..field.cell_record(cell)
            };
            let err = index
                .update_cell(&engine, cell, rec)
                .expect_err("a NaN sample must be rejected");
            assert!(err.is_invalid_record(), "{err}");
        }
        // Nothing was written and no pool shard is poisoned: the next
        // query answers as before and the next valid update applies.
        let got = index
            .query_stats(&engine, band)
            .expect("query after refusal");
        assert_eq!(got.cells_qualifying, want.cells_qualifying);
        assert_eq!(got.area.to_bits(), want.area.to_bits());
        index
            .update_cell(&engine, cell, field.cell_record(cell))
            .expect("valid update");
    }

    #[test]
    fn every_entry_point_refuses_a_record_with_a_non_finite_box() {
        use crate::iall::IAll;
        use crate::ingest::{IngestConfig, LiveIngest};
        let field = smooth_field(8);
        let cell = 13;
        let corners = |lo: f64, hi: f64| cf_field::GridCellRecord {
            x0: lo,
            y0: lo,
            x1: hi,
            y1: hi,
            ..field.cell_record(cell)
        };
        // Corners at ±1e300: finite, but the box's area overflows.
        let mut bad = vec![corners(-1e300, 1e300)];
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rec = field.cell_record(cell);
            bad.extend([
                cf_field::GridCellRecord { x0: v, ..rec },
                cf_field::GridCellRecord { y0: v, ..rec },
                cf_field::GridCellRecord { x1: v, ..rec },
                cf_field::GridCellRecord { y1: v, ..rec },
            ]);
        }
        let band = Interval::new(20.0, 60.0);

        let engine = StorageEngine::in_memory();
        let mut ih = IHilbert::build(&engine, &field).expect("build");
        let mut iall = IAll::build(&engine, &field).expect("build");
        let want = ih.query_stats(&engine, band).expect("query");
        let pages = engine.num_pages();
        for rec in &bad {
            let err = ih.update_cell(&engine, cell, *rec).expect_err("I-Hilbert");
            assert!(err.is_invalid_record(), "{rec:?}: {err}");
            let err = iall.update_cell(&engine, cell, *rec).expect_err("I-All");
            assert!(err.is_invalid_record(), "{rec:?}: {err}");
        }
        let live = LiveIngest::new(&engine, ih, IngestConfig::default()).expect("live");
        for rec in &bad {
            let err = live.ingest(&engine, cell, *rec).expect_err("ingest");
            assert!(err.is_invalid_record(), "{rec:?}: {err}");
        }
        // Nothing was written: no delta, no new page, the same answers.
        assert_eq!(live.status().0, 0);
        assert_eq!(engine.num_pages(), pages);
        for got in [
            live.snapshot()
                .query_stats(&engine, band)
                .expect("snapshot"),
            iall.query_stats(&engine, band).expect("I-All"),
        ] {
            assert_eq!(got.cells_qualifying, want.cells_qualifying);
            assert_eq!(got.area.to_bits(), want.area.to_bits());
        }
        // A huge but finite box is still admitted.
        live.ingest(&engine, cell, corners(-1e150, 1e150))
            .expect("finite box");
    }

    /// A grid field whose cell `cell` hands a build `rec` instead of its
    /// own record, as a field with a bad sample or cell box would.
    struct Tampered {
        grid: cf_field::GridField,
        cell: usize,
        rec: cf_field::GridCellRecord,
    }

    impl FieldModel for Tampered {
        type CellRec = cf_field::GridCellRecord;

        fn num_cells(&self) -> usize {
            self.grid.num_cells()
        }

        fn cell_record(&self, cell: usize) -> Self::CellRec {
            if cell == self.cell {
                self.rec
            } else {
                self.grid.cell_record(cell)
            }
        }

        fn cell_centroid(&self, cell: usize) -> Point2 {
            self.grid.cell_centroid(cell)
        }

        fn cell_interval(&self, cell: usize) -> Interval {
            Self::record_interval(&self.cell_record(cell))
        }

        fn record_interval(rec: &Self::CellRec) -> Interval {
            cf_field::GridField::record_interval(rec)
        }

        fn record_band_visit(
            rec: &Self::CellRec,
            band: Interval,
            visit: &mut impl FnMut(&[Point2]),
        ) {
            cf_field::GridField::record_band_visit(rec, band, visit)
        }

        fn domain(&self) -> Aabb<2> {
            self.grid.domain()
        }

        fn value_at(&self, p: Point2) -> Option<f64> {
            self.grid.value_at(p)
        }

        fn record_bbox(rec: &Self::CellRec) -> Aabb<2> {
            cf_field::GridField::record_bbox(rec)
        }

        fn record_value_at(rec: &Self::CellRec, p: Point2) -> Option<f64> {
            cf_field::GridField::record_value_at(rec, p)
        }
    }

    #[test]
    fn every_build_refuses_a_record_an_update_would_refuse() {
        use crate::iall::IAll;
        use crate::iquad::IntervalQuadtree;
        let grid = smooth_field(8);
        let cell = 13;
        let rec = grid.cell_record(cell);
        let bad = [
            (
                "a NaN sample",
                cf_field::GridCellRecord {
                    vals: [1.0, f64::NAN, 2.0, 3.0],
                    ..rec
                },
            ),
            (
                "a non-finite cell box",
                cf_field::GridCellRecord {
                    x1: f64::INFINITY,
                    ..rec
                },
            ),
            (
                "an overflowing box area",
                cf_field::GridCellRecord {
                    x0: -1e300,
                    y0: -1e300,
                    x1: 1e300,
                    y1: 1e300,
                    ..rec
                },
            ),
        ];
        for (what, rec) in bad {
            let field = Tampered {
                grid: grid.clone(),
                cell,
                rec,
            };
            let engine = StorageEngine::in_memory();
            let pages = engine.num_pages();
            let builds = [
                ("I-Hilbert", IHilbert::build(&engine, &field).map(drop)),
                ("I-All", IAll::build(&engine, &field).map(drop)),
                (
                    "I-Quad",
                    IntervalQuadtree::build(&engine, &field, 1.0).map(drop),
                ),
                ("LinearScan", LinearScan::build(&engine, &field).map(drop)),
            ];
            for (method, built) in builds {
                let err = built.expect_err(what);
                assert!(
                    matches!(err, CfError::InvalidRecord { cell: c } if c == cell),
                    "{method}, {what}: {err}"
                );
            }
            assert_eq!(
                engine.num_pages(),
                pages,
                "{what}: a refused build allocates"
            );
        }
    }

    #[test]
    fn straddling_subfields_counts_the_uncut_groupings_straddlers() {
        use crate::subfield::build_subfields;
        let engine = StorageEngine::in_memory();
        let field = smooth_field(48);
        let mut index = IHilbert::build(&engine, &field).expect("build");
        assert_eq!(index.straddling_subfields(), 0);
        // The paper's rule over the whole file, which ignores pages.
        let file = index.cell_file();
        let records = file.read_range(&engine, 0..file.len()).expect("records");
        let intervals: Vec<Interval> = records
            .iter()
            .map(cf_field::GridField::record_interval)
            .collect();
        let uncut = build_subfields(&intervals, SubfieldConfig::default());
        let page_starts: Vec<usize> = (1..file.data_pages())
            .map(|page| file.page_span(page).start)
            .collect();
        let crossing = uncut
            .iter()
            .filter(|sf| {
                page_starts
                    .iter()
                    .any(|&s| (sf.start as usize) < s && s < sf.end as usize)
            })
            .count();
        assert!(crossing > 0);
        index.inner.subfields = uncut;
        assert_eq!(index.straddling_subfields(), crossing);
    }

    #[test]
    fn nan_record_on_disk_qualifies_for_no_band() {
        // Decoded bytes may hold NaN samples that no update path would
        // accept: the query must skip such a cell, not panic on it.
        let engine = StorageEngine::in_memory();
        let field = smooth_field(8);
        let index = IHilbert::build(&engine, &field).expect("build");
        let pos = index.resolve_cell(13).expect("mapped");
        let rec = cf_field::GridCellRecord {
            vals: [f64::NAN; 4],
            ..field.cell_record(13)
        };
        index.inner.file.put(&engine, pos, &rec).expect("raw write");
        let all = index.value_domain();
        let stats = index.query_stats(&engine, all).expect("query");
        assert_eq!(stats.cells_qualifying, field.num_cells() - 1);
        assert!(stats.area.is_finite());
    }

    #[test]
    fn update_that_shrinks_interval_keeps_answers_exact() {
        let engine = StorageEngine::in_memory();
        let field = smooth_field(8);
        let mut index = IHilbert::build(&engine, &field).expect("build");
        // Flatten one cell to a constant far outside the field range.
        let cell = 13;
        let rec = cf_field::GridCellRecord {
            vals: [999.0; 4],
            ..field.cell_record(cell)
        };
        index.update_cell(&engine, cell, rec).expect("update");
        let stats = index
            .query_stats(&engine, Interval::new(998.0, 1000.0))
            .expect("query");
        assert_eq!(stats.cells_qualifying, 1);
        assert!((stats.area - 1.0).abs() < 1e-9, "whole cell qualifies");
    }
}
