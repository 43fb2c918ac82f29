//! The one Q2 pipeline (paper §3.2): filter intervals through the 1-D
//! packed interval tree, coalesce the retrieved record ranges into runs,
//! read the runs, refine every cell against the band, emit.
//!
//! Every product query path — the I-Hilbert, Interval Quadtree and
//! I-All probes and the ingest snapshot's overlay-aware probe — is one
//! call of [`run`], and every one probes: there is no planner and no
//! full-scan branch (DESIGN §8.5). Every path reads its runs with one
//! range sweep ([`CellFile::for_each_in_ranges`]), each page at most
//! once. The executor alone owns the query bracket (phase stopwatches,
//! thread-I/O delta), the range merge rule, the per-cell refine body and
//! the query's one [`ExplainRecord`], handed once to
//! [`QueryMetrics::publish`]. A caller supplies only what differs, as a
//! [`Q2`]: the filter source, the cell file, an optional overlay, and
//! the labels.
//!
//! The per-cell path is statically dispatched, inlined into one loop,
//! and allocates nothing. A large query without a sink refines on two
//! threads, and a mid-size one does while a worker spins (DESIGN
//! §17.12, §17.16): its runs are cut once at a page boundary
//! and the upper part is offered to the resident workers ([`Workers`]),
//! which costs the job, its region areas, clones of the engine and cell
//! file handles and of the upper part's overlay records. An overlay is
//! substituted by a merge: its entries, sorted by position once per
//! query, meet the sweep's ascending positions through one cursor. Each
//! answer region reaches the caller's sink as a vertex slice on the
//! stack ([`FieldModel::record_band_visit`]). `LinearScan` and the
//! volume / vector scans stay hand-written as the tests' reference; the
//! volume and vector indexes share the filter ([`search_ranges`]) and
//! the range merge ([`coalesce`]) through [`probe`].
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::sfindex::subfield_of;
use crate::stats::{QueryMetrics, QueryStats, RegionSink};
use crate::subfield::Subfield;
use crate::workers::{Offer, Workers};
use cf_field::FieldModel;
use cf_geom::{signed_area, Aabb, Interval, Point2};
use cf_rtree::{PagedRTree, SearchStats};
use cf_storage::{
    answer_digest, CellFile, CfResult, ExplainRecord, Label, Record, Stopwatch, StorageEngine,
};
use std::borrow::Borrow;
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

/// Cells a query's coalesced runs must hold before its estimation step
/// runs on two threads while no worker spins (DESIGN §17.12): below it,
/// waking a sleeping worker (≈ 10 µs before it runs) costs more than
/// half the refine saves on the cheapest field.
const SPLIT_CELLS: usize = 4096;

/// Cells that split a query when a worker spins at that moment (DESIGN
/// §17.16): the hand-off then costs under a microsecond, and 512 cells
/// are 15–25 µs of refine. A lower gate gained no more and slowed the
/// smallest queries.
const HOT_SPLIT_CELLS: usize = 512;

/// Cells the caller refines beyond half of a query split onto a sleeping
/// worker: its head start while the worker wakes (≈ 10 µs; 512 cells are
/// 15–25 µs of refine). A spinning worker starts at once and gets no
/// lead. Beside other running queries the lead kept throughput closer
/// to that of the executor without a hot gate (DESIGN §17.16).
const CALLER_LEAD: usize = 512;

/// Cuts `runs` once, at the first record of the data page that holds
/// their middle cell moved `lead` cells up (or, when that page opens the
/// runs, of the page after it): the range straddling the cut, if any,
/// becomes two. No range before the cut reaches the cut page, so the two
/// halves read disjoint page sets and every page is still read exactly
/// once.
/// Returns the cut position and the index of the first range after it,
/// or `None` — runs untouched — when either half would be empty or a
/// range ends past the file (the sweep then reports it).
fn cut_at_page<R: Record>(
    file: &CellFile<R>,
    runs: &mut Vec<Range<usize>>,
    cells: usize,
    lead: usize,
) -> Option<(usize, usize)> {
    let (first, last) = (runs.first()?.start, runs.last()?.end);
    if last > file.len() {
        return None;
    }
    let mut left = (cells / 2 + lead).min(cells.checked_sub(1)?);
    let run = runs.iter().find(|r| {
        let inside = left < r.len();
        if !inside {
            left -= r.len();
        }
        inside
    })?;
    let page = file.page_no_of(run.start + left);
    let span = file.page_span(page);
    let cut = if span.start > first {
        span.start
    } else {
        span.end
    };
    if cut >= last {
        return None;
    }
    let k = runs.partition_point(|r| r.end <= cut);
    if runs[k].start < cut {
        let tail = cut..runs[k].end;
        runs[k].end = cut;
        runs.insert(k + 1, tail);
        return Some((cut, k + 1));
    }
    Some((cut, k))
}

/// Whether a worker spins now ([`Workers::spinning`]); the split tests
/// fix the answer instead ([`tests::HOT`]).
fn spinning(set: &Workers) -> bool {
    #[cfg(test)]
    if let Some(hot) = tests::HOT.get() {
        return hot;
    }
    set.spinning()
}

/// The estimation step's read: every record of `runs`
/// ([`CellFile::for_each_in_ranges`], each page once) to `visit`, in
/// ascending position, with the overlay records `subs` (sorted by
/// position) substituted by merge — a cursor meets each substituted
/// record in step, and no cell pays a lookup.
fn sweep<R: Record, S: Borrow<R>>(
    engine: &StorageEngine,
    cells: &CellFile<R>,
    runs: &[Range<usize>],
    subs: &[(u32, S)],
    mut visit: impl FnMut(&R),
) -> CfResult<()> {
    if subs.is_empty() {
        return cells.for_each_in_ranges(engine, runs, |_, rec| visit(&rec));
    }
    let mut cursor = subs.iter().peekable();
    let mut last = None;
    cells.for_each_in_ranges(engine, runs, |pos, rec| {
        let pos = pos as u32;
        debug_assert!(last < Some(pos), "sweep positions ascend");
        last = Some(pos);
        while cursor.next_if(|&&(p, _)| p < pos).is_some() {}
        match cursor.next_if(|&&(p, _)| p == pos) {
            Some((_, sub)) => visit(sub.borrow()),
            None => visit(&rec),
        }
    })
}

/// The per-cell refine body: counts `rec` into `stats` and hands each of
/// its answer regions to `region` as a vertex slice on the stack; no
/// polygon is built.
#[inline]
fn refine<F: FieldModel>(
    rec: &F::CellRec,
    band: Interval,
    stats: &mut QueryStats,
    region: &mut impl FnMut(&mut QueryStats, &[Point2]),
) {
    stats.cells_examined += 1;
    if F::record_interval(rec).intersects(band) {
        stats.cells_qualifying += 1;
        F::record_band_visit(rec, band, &mut |vs| {
            stats.num_regions += 1;
            region(stats, vs);
        });
    }
}

/// Runs one Q2 query: passes each non-empty answer region to `sink`
/// (`None` for a caller that keeps only the statistics) and returns the
/// statistics. Region order — and with it every bit of the accumulated
/// area — is ascending file position on every path.
///
/// A query without a sink refines on two threads, on a host with two
/// CPUs, when its runs hold at least [`SPLIT_CELLS`] cells, or at least
/// [`HOT_SPLIT_CELLS`] while a worker spins: the runs are cut once at a
/// page boundary ([`cut_at_page`]), the upper half is offered to the
/// workers while the caller refines the lower (and the upper too if no
/// worker claimed it by then), and the upper half's
/// counts, I/O tally and region areas are added in file order. Every
/// count, the area bits and the logical page reads are the one-thread
/// sweep's; how those reads split into pool hits and misses depends on
/// how the halves interleave. A worker's reads are in the returned `io`,
/// not in the caller's [`cf_storage::thread_io_stats`]. Every query
/// counts as running ([`Workers::busy`]) until it returns: a worker
/// spins only while the running queries leave it a CPU.
pub(crate) fn run<F: FieldModel>(
    engine: &StorageEngine,
    band: Interval,
    q: Q2<'_, F::CellRec>,
    mut sink: Option<RegionSink<'_>>,
) -> CfResult<QueryStats> {
    let set = Workers::global();
    let _running = set.busy();
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
    let mut runs = coalesce(&mut ranges);
    let mut subs: Vec<(u32, &F::CellRec)> = q.overlay.map_or_else(Vec::new, |overlay| {
        overlay.iter().map(|(&p, r)| (p, r)).collect()
    });
    subs.sort_unstable_by_key(|&(p, _)| p);
    let cells: usize = runs.iter().map(ExactSizeIterator::len).sum();
    let may_split = sink.is_none() && set.workers > 0;
    let hot = may_split && cells >= HOT_SPLIT_CELLS && spinning(set);
    let cut = (hot || (may_split && cells >= SPLIT_CELLS))
        .then(|| cut_at_page(q.cells, &mut runs, cells, if hot { 0 } else { CALLER_LEAD }))
        .flatten();
    let upper = cut.map(|(cut, k)| {
        #[cfg(test)]
        tests::SPLITS.set(tests::SPLITS.get() + 1);
        let upper = runs.split_off(k);
        let at = subs.partition_point(|&(p, _)| (p as usize) < cut);
        let subs: Vec<_> = subs.drain(at..).map(|(p, r)| (p, r.clone())).collect();
        let (engine, cells) = (engine.clone(), q.cells.clone());
        set.offer(move || {
            let before = cf_storage::thread_io_stats();
            let (mut part, mut areas) = (QueryStats::default(), Vec::new());
            sweep(&engine, &cells, &upper, &subs, |rec| {
                refine::<F>(rec, band, &mut part, &mut |_, vs| {
                    areas.push(signed_area(vs).abs());
                });
            })
            .map(|()| (part, areas, cf_storage::thread_io_stats() - before))
        })
    });
    let lower = sweep(engine, q.cells, &runs, &subs, |rec| {
        refine::<F>(rec, band, &mut stats, &mut |stats, vs| {
            stats.area += signed_area(vs).abs();
            if let Some(sink) = sink.as_mut() {
                sink(vs);
            }
        });
    });
    // Taken before the finish: an upper half swept here counts its
    // reads once, in its own tally.
    stats.io = cf_storage::thread_io_stats() - before;
    let upper = upper.map(Offer::finish);
    // The lower half's error first: it is the one the one-thread sweep
    // would have stopped at.
    lower?;
    if let Some(upper) = upper {
        let (part, areas, io) = upper?;
        stats.cells_examined += part.cells_examined;
        stats.cells_qualifying += part.cells_qualifying;
        stats.num_regions += part.num_regions;
        stats.area = areas.into_iter().fold(stats.area, |sum, area| sum + area);
        stats.io = stats.io + io;
    }
    let refine_ns = refine_clock.elapsed_ns();
    let query_ns = query_clock.elapsed_ns();

    q.metrics.publish(
        engine.metrics().tracer(),
        ExplainRecord {
            index: q.metrics.index,
            // Every query probes the paged tree first; the fields keep
            // the EXPLAIN layout.
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
mod tests;
