//! The one Q2 pipeline (paper §3.2): filter intervals through the 1-D
//! packed interval tree, coalesce the retrieved record ranges into runs,
//! read the runs, refine every cell against the band, emit.
//!
//! Every product query path — the I-Hilbert, Interval Quadtree and
//! I-All probes and the ingest snapshot's overlay-aware probe — is one
//! call of [`run`], and every one probes: there is no planner and no
//! full-scan branch (DESIGN §8.5). Every path reads its runs with one
//! range sweep
//! ([`CellFile::for_each_in_ranges`]), each page at most once. The
//! executor alone owns the query bracket (phase stopwatches, thread-I/O
//! delta), the range merge rule, the per-cell refine body and the
//! assembly of the query's one [`ExplainRecord`], handed once to
//! [`QueryMetrics::publish`] — registry series, trace events, EXPLAIN
//! and flight record all derive from it. A caller supplies only what
//! genuinely differs, as a [`Q2`]: the filter source, the cell file, an
//! optional overlay, and the labels.
//!
//! The per-cell path is statically dispatched and allocates nothing: the
//! refine body is a closure handed to the generic `for_each_in_ranges`,
//! monomorphised per field model, and the record decode, band test and
//! area it calls in `cf-field` and `cf-geom` are `#[inline]`, so the
//! path is one loop. An overlay is substituted by a merge: its entries,
//! sorted by position once per query, meet the sweep's ascending
//! positions through one cursor, with no lookup per cell; a query
//! without an overlay builds no cursor. Each answer region reaches the
//! caller's sink as a vertex slice on the stack
//! ([`FieldModel::record_band_visit`]); only a caller that keeps regions
//! builds polygons from them. `LinearScan` and the volume / vector scans
//! stay hand-written: they are the reference the tests compare this
//! executor against. The volume and vector indexes share its filter
//! ([`search_ranges`], generic over the tree dimension) and its range
//! merge rule ([`coalesce`]) through [`probe`].
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::sfindex::subfield_of;
use crate::stats::{QueryMetrics, QueryStats, RegionSink};
use crate::subfield::Subfield;
use cf_field::FieldModel;
use cf_geom::{signed_area, Aabb, Interval};
use cf_rtree::{PagedRTree, SearchStats};
use cf_storage::{
    answer_digest, CellFile, CfResult, ExplainRecord, Label, Record, Stopwatch, StorageEngine,
};
use std::collections::HashMap;
use std::ops::Range;

/// What one query path supplies to [`run`].
pub(crate) struct Q2<'a, R: Record> {
    /// Curve name reported in the EXPLAIN and flight records.
    pub curve: Label,
    /// Ingest epoch the query is pinned to (0 = static plane).
    pub epoch: u64,
    /// The `index_*` registry handles the query publishes under; they
    /// carry the index label of its EXPLAIN record.
    pub metrics: &'a QueryMetrics,
    /// The filter source.
    pub filter: Filter<'a>,
    /// The cell file the estimation step reads.
    pub cells: &'a CellFile<R>,
    /// Ingest overlay: records substituted per file position.
    pub overlay: Option<&'a HashMap<u32, R>>,
}

/// The filter source: the paged interval tree whose leaf payloads are
/// packed [`Subfield`] ranges, searched through the buffer pool (filter
/// I/O counts as page reads).
pub(crate) struct Filter<'a> {
    /// The paged tree.
    pub tree: &'a PagedRTree<1>,
    /// The ingest delta's correction of the base tree's answer.
    pub overrides: Option<SubfieldOverrides<'a>>,
}

/// Effective (overlay-aware) intervals of the subfields an ingest delta
/// touched, plus the base catalog they are keyed against.
pub(crate) struct SubfieldOverrides<'a> {
    /// Subfield index → effective interval.
    pub effective: &'a HashMap<u32, Interval>,
    /// The base subfield catalog, in file order.
    pub subfields: &'a [Subfield],
}

/// One published ingest epoch, as a subfield index's query sees it.
pub(crate) struct Delta<'a, R> {
    /// Net overlay record per touched cell-file position.
    pub overlays: &'a HashMap<u32, R>,
    /// Effective interval per touched subfield.
    pub sf_intervals: &'a HashMap<u32, Interval>,
    /// The publication epoch.
    pub epoch: u64,
}

/// Searches `tree` for the subfields whose key (interval, or value box
/// of a vector field) intersects `query` and collects their record
/// ranges into `ranges`. Leaf payloads are on-disk bytes: one that does
/// not unpack to a non-empty range inside the `cells`-record cell file is
/// reported as [`cf_storage::CfError::Corrupt`] ([`Subfield::try_unpack`]),
/// so everything downstream — the overrides' position lookup, the range
/// sweep — may index by what it is handed.
pub(crate) fn search_ranges<const N: usize>(
    tree: &PagedRTree<N>,
    engine: &StorageEngine,
    query: &Aabb<N>,
    cells: usize,
    ranges: &mut Vec<(u32, u32)>,
) -> CfResult<SearchStats> {
    let mut bad_payload = None;
    let search = tree.search(engine, query, |data, mbr| {
        match Subfield::try_unpack(data, *mbr, cells) {
            Ok(sf) => ranges.push((sf.start, sf.end)),
            Err(e) => {
                bad_payload.get_or_insert(e);
            }
        }
    })?;
    bad_payload.map_or(Ok(search), Err)
}

/// The probe of the volume and vector indexes, whose refine lies
/// outside [`FieldModel`]: [`run`]'s filter ([`search_ranges`]) and range
/// merge ([`coalesce`]), then every record of the runs, in
/// ascending position, to `refine`, which counts what qualifies.
pub(crate) fn probe<const N: usize, R: Record>(
    engine: &StorageEngine,
    tree: &PagedRTree<N>,
    file: &CellFile<R>,
    query: &Aabb<N>,
    mut refine: impl FnMut(&mut QueryStats, R),
) -> CfResult<QueryStats> {
    let before = cf_storage::thread_io_stats();
    let mut stats = QueryStats::default();
    let mut ranges = Vec::new();
    let search = search_ranges(tree, engine, query, file.len(), &mut ranges)?;
    stats.filter_nodes = search.nodes_visited;
    stats.intervals_retrieved = ranges.len();
    stats.filter_pages = (cf_storage::thread_io_stats() - before).logical_reads();
    let runs = coalesce(&mut ranges);
    file.for_each_in_ranges(engine, &runs, |_, rec| {
        stats.cells_examined += 1;
        refine(&mut stats, rec);
    })?;
    stats.io = cf_storage::thread_io_stats() - before;
    Ok(stats)
}

impl Filter<'_> {
    /// The filtering step: every record range whose interval
    /// intersects `band` ([`search_ranges`]), corrected by the ingest
    /// overrides.
    fn retrieve(
        &self,
        engine: &StorageEngine,
        band: Interval,
        cells: usize,
        ranges: &mut Vec<(u32, u32)>,
    ) -> CfResult<SearchStats> {
        let search = search_ranges(self.tree, engine, &band.into(), cells, ranges)?;
        // Drop base hits whose effective interval left the band, add
        // subfields whose effective interval entered it. The two sets
        // are disjoint by construction, so no dedup is needed, and the
        // result equals the subfield set an in-place-updated tree would
        // retrieve.
        if let Some(o) = self.overrides.as_ref().filter(|o| !o.effective.is_empty()) {
            ranges.retain(|&(start, _)| {
                let sf_idx = subfield_of(o.subfields, start);
                match o.effective.get(&sf_idx) {
                    Some(iv) => iv.intersects(band),
                    None => true,
                }
            });
            for (&sf_idx, iv) in o.effective {
                let sf = o.subfields[sf_idx as usize];
                if iv.intersects(band) && !sf.interval.intersects(band) {
                    ranges.push((sf.start, sf.end));
                }
            }
        }
        Ok(search)
    }
}

/// Sorts retrieved `[start, end)` record ranges and merges touching
/// neighbors into maximal runs (the range-merge rule, stated once).
///
/// Subfields adjacent on the Hilbert-ordered file hold cells of similar
/// values, so a band query typically retrieves *runs* of neighbors;
/// reading each subfield separately would fetch every straddled page
/// boundary twice. Merging first makes the estimation step's page cost
/// `ceil(run_cells / per_page) + 1` per run instead of per subfield.
pub(crate) fn coalesce(ranges: &mut [(u32, u32)]) -> Vec<Range<usize>> {
    ranges.sort_unstable();
    let mut runs: Vec<Range<usize>> = Vec::new();
    for &(s, e) in ranges.iter() {
        match runs.last_mut() {
            Some(last) if s as usize <= last.end => last.end = last.end.max(e as usize),
            _ => runs.push(s as usize..e as usize),
        }
    }
    runs
}

/// Runs one Q2 query: passes each non-empty answer region to `sink`
/// (`None` for a caller that keeps only the statistics) and returns the
/// statistics. Region order — and with it every bit of the accumulated
/// area — is ascending file position on every path.
pub(crate) fn run<F: FieldModel>(
    engine: &StorageEngine,
    band: Interval,
    q: Q2<'_, F::CellRec>,
    mut sink: Option<RegionSink<'_>>,
) -> CfResult<QueryStats> {
    let query_clock = Stopwatch::start();
    let before = cf_storage::thread_io_stats();
    let mut stats = QueryStats::default();
    let mut ranges = Vec::new();

    // Step 1 (filtering): record ranges whose interval intersects w.
    let filter_clock = Stopwatch::start();
    let search = q
        .filter
        .retrieve(engine, band, q.cells.len(), &mut ranges)?;
    stats.filter_nodes = search.nodes_visited;
    stats.intervals_retrieved = ranges.len();
    stats.filter_pages = (cf_storage::thread_io_stats() - before).logical_reads();
    let filter_ns = filter_clock.elapsed_ns();

    // Step 2 (estimation): read the contiguous cell runs, merging
    // adjacent ranges and visiting every data page exactly once.
    let refine_clock = Stopwatch::start();
    let runs = coalesce(&mut ranges);
    // The per-cell refine body: every region reaches `sink` as a vertex
    // slice on the stack, and no polygon is built.
    let mut refine = |rec: F::CellRec| {
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
    };
    match q.overlay {
        None => q
            .cells
            .for_each_in_ranges(engine, &runs, |_, rec| refine(rec))?,
        Some(overlay) => {
            // Substitution by merge: the sweep visits positions in
            // ascending order, so a cursor over the overlay sorted by
            // position meets each substituted record in step, and no
            // cell pays a map lookup.
            let mut subs: Vec<(u32, &F::CellRec)> = overlay.iter().map(|(&p, r)| (p, r)).collect();
            subs.sort_unstable_by_key(|&(p, _)| p);
            let mut cursor = subs.iter().peekable();
            let mut last = None;
            q.cells.for_each_in_ranges(engine, &runs, |pos, rec| {
                let pos = pos as u32;
                debug_assert!(last < Some(pos), "sweep positions ascend");
                last = Some(pos);
                while cursor.next_if(|&&(p, _)| p < pos).is_some() {}
                match cursor.next_if(|&&(p, _)| p == pos) {
                    Some(&(_, sub)) => refine(sub.clone()),
                    None => refine(rec),
                }
            })?
        }
    }
    stats.io = cf_storage::thread_io_stats() - before;
    let refine_ns = refine_clock.elapsed_ns();
    let query_ns = query_clock.elapsed_ns();

    q.metrics.publish(
        engine.metrics().tracer(),
        ExplainRecord {
            index: q.metrics.index,
            // Every query probes the paged tree first; the fields keep
            // the EXPLAIN layout.
            plan: "probe",
            plane: "paged",
            curve: q.curve,
            band_lo: band.lo,
            band_hi: band.hi,
            subfields: stats.intervals_retrieved as u64,
            cells_examined: stats.cells_examined as u64,
            cells_qualifying: stats.cells_qualifying as u64,
            regions: stats.num_regions as u64,
            filter_nodes: stats.filter_nodes,
            filter_pages: stats.filter_pages,
            refine_pages: stats.io.logical_reads() - stats.filter_pages,
            filter_ns,
            refine_ns,
            total_ns: query_ns,
            epoch: q.epoch,
            pool_hits: stats.io.pool_hits,
            pool_misses: stats.io.pool_misses,
            // Band + digest are enough to replay and re-verify the
            // query later (`repro replay`).
            digest: answer_digest(
                stats.cells_examined as u64,
                stats.cells_qualifying as u64,
                stats.num_regions as u64,
                stats.area,
            ),
            // Stamped by the tracer when it records the query.
            query_id: 0,
            ordinal: 0,
            slow: false,
        },
    );
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_touching_and_overlapping_ranges() {
        let mut ranges = vec![(10, 20), (0, 4), (4, 7), (15, 30), (40, 41)];
        assert_eq!(coalesce(&mut ranges), vec![0..7, 10..30, 40..41]);
        assert!(coalesce(&mut []).is_empty());
    }
}
