//! The executor's range merge, and the split estimation step against the
//! one-thread sweep: the same counts, area bits and pages, the same
//! errors, the same panics, whether a worker claims the upper half or
//! the caller sweeps it. A query with a sink never splits, so
//! `query_regions` is the one-thread reference of every check here.
#![allow(clippy::expect_used, clippy::panic)]

use super::*;
use crate::workers::tests::{hold_every_worker, CLAIMED};
use crate::workers::WORKER;
use crate::{IHilbert, IngestConfig, LiveIngest, QueryBatch, ValueIndex};
use cf_field::{GridCellRecord, GridField};
use cf_storage::{PageCodec, PageId, StorageConfig, PAGE_SIZE};
use cf_workload::{fractal::diamond_square, noise::urban_noise_tin, queries::interval_queries};
use std::cell::Cell;
use std::collections::{BTreeSet, HashSet};
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;

thread_local! {
    /// Queries this thread cut for two threads (offers, claimed or
    /// not): the gate tests count them.
    pub(super) static SPLITS: Cell<usize> = const { Cell::new(0) };
}

#[test]
fn coalesce_merges_touching_and_overlapping_ranges() {
    let mut ranges = vec![(10, 20), (0, 4), (4, 7), (15, 30), (40, 41)];
    assert_eq!(coalesce(&mut ranges), vec![0..7, 10..30, 40..41]);
    assert!(coalesce(&mut []).is_empty());
}

/// A database file in the temp directory, removed with its checksum
/// sidecar when made and on drop.
struct TmpDb(PathBuf);

impl TmpDb {
    fn new(tag: &str) -> Self {
        let name = format!("contfield_test_split_{tag}_{}.db", std::process::id());
        let db = Self(std::env::temp_dir().join(name));
        db.remove();
        db
    }

    fn remove(&self) {
        for ext in ["", ".crc"] {
            let _ = std::fs::remove_file(format!("{}{ext}", self.0.display()));
        }
    }

    /// Flips one byte of `page` in the file, behind the engine's back.
    fn flip_byte(&self, page: PageId) {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.0)
            .expect("open database file");
        let at = SeekFrom::Start(page.0 * PAGE_SIZE as u64 + 100);
        let mut byte = [0u8];
        file.seek(at).expect("seek");
        file.read_exact(&mut byte).expect("read");
        byte[0] ^= 0x5A;
        file.seek(at).expect("seek");
        file.write_all(&byte).expect("write");
    }
}

impl Drop for TmpDb {
    fn drop(&mut self) {
        self.remove();
    }
}

fn engine(codec: PageCodec, db: Option<&TmpDb>) -> StorageEngine {
    let config = StorageConfig {
        codec,
        ..StorageConfig::default()
    };
    match db {
        Some(db) => StorageEngine::open_file(&db.0, config).expect("open file"),
        None => StorageEngine::new(config),
    }
}

/// Runs `band` through `query_stats` (split when its runs reach the
/// gate) and `query_regions` (one thread) and checks that they agree on
/// every count, the area bits and the pages read. Returns whether the
/// first split, and its statistics.
fn split_equals_one_thread(
    index: &dyn ValueIndex,
    engine: &StorageEngine,
    band: Interval,
    what: &str,
) -> (bool, QueryStats) {
    let before = SPLITS.get();
    let split = index.query_stats(engine, band).expect("split query");
    let was_split = SPLITS.get() > before;
    let (one, _) = index.query_regions(engine, band).expect("one-thread query");
    assert_eq!(
        SPLITS.get(),
        before + usize::from(was_split),
        "{what}: a query that keeps regions runs on one thread"
    );
    assert_eq!(
        was_split,
        split.cells_examined >= SPLIT_CELLS,
        "{what} {band:?}: the gate"
    );
    let facts = |s: &QueryStats| {
        (
            s.cells_examined,
            s.cells_qualifying,
            s.num_regions,
            s.area.to_bits(),
            s.io.logical_reads(),
            s.filter_pages,
            s.filter_nodes,
            s.intervals_retrieved,
        )
    };
    assert_eq!(facts(&split), facts(&one), "{what} {band:?}");
    (was_split, split)
}

/// Data pages the coalesced runs of `band` touch, each counted once.
fn run_pages<F: FieldModel>(index: &IHilbert<F>, engine: &StorageEngine, band: Interval) -> u64 {
    let file = &index.inner.file;
    let filter = Filter {
        tree: &index.inner.tree,
        overrides: None,
    };
    let mut ranges = Vec::new();
    filter
        .retrieve(engine, band, file.len(), &mut ranges)
        .expect("filter");
    let pages: BTreeSet<usize> = coalesce(&mut ranges)
        .into_iter()
        .flat_map(|r| file.page_no_of(r.start)..=file.page_no_of(r.end - 1))
        .collect();
    pages.len() as u64
}

/// Where a split sweep of the whole file cuts it.
fn whole_file_cut<R: Record>(file: &CellFile<R>) -> usize {
    let mut runs = Vec::with_capacity(2);
    runs.push(0..file.len());
    let (cut, _) = cut_at_page(file, &mut runs, file.len()).expect("a whole-file sweep splits");
    assert_eq!(runs, [0..cut, cut..file.len()]);
    cut
}

/// The whole value domain, a band that retrieves nothing, and seeded
/// bands of five widths.
fn bands(domain: Interval) -> Vec<Interval> {
    let mut bands = vec![domain, Interval::new(domain.hi + 1.0, domain.hi + 2.0)];
    for (qinterval, seed) in [(0.0, 1), (0.01, 2), (0.05, 3), (0.2, 4), (0.5, 5)] {
        bands.extend(interval_queries(domain, qinterval, 4, seed));
    }
    bands
}

/// The widest band down from the top of the value domain whose runs
/// stay below the gate, and the narrowest that reaches it (bisected on
/// one thread: the cells of a band's runs only grow with its width).
fn bands_at_the_gate(
    index: &dyn ValueIndex,
    engine: &StorageEngine,
    domain: Interval,
) -> (Interval, Interval) {
    let band = |width: f64| Interval::new(domain.hi - width, domain.hi);
    let cells = |width: f64| {
        let (stats, _) = index.query_regions(engine, band(width)).expect("query");
        stats.cells_examined
    };
    let (mut below, mut above) = (0.0, domain.width());
    assert!(cells(below) < SPLIT_CELLS && cells(above) >= SPLIT_CELLS);
    for _ in 0..50 {
        let mid = 0.5 * (below + above);
        if cells(mid) < SPLIT_CELLS {
            below = mid;
        } else {
            above = mid;
        }
    }
    (band(below), band(above))
}

/// Every band of [`bands`] and the two at the gate, on an I-Hilbert
/// index of `field` for each codec, in memory and on a file.
fn check_split_equals_one_thread<F: FieldModel>(name: &str, field: &F) {
    for codec in [PageCodec::Raw, PageCodec::Compressed] {
        for on_file in [false, true] {
            let db = on_file.then(|| TmpDb::new(&format!("{name}_{}", codec.name())));
            let engine = engine(codec, db.as_ref());
            let index = IHilbert::build(&engine, field).expect("build");
            let what = format!(
                "{name} {} on {}",
                codec.name(),
                ["memory", "file"][usize::from(on_file)]
            );
            let mut splits = 0;
            for band in bands(field.value_domain()) {
                let (split, stats) = split_equals_one_thread(&index, &engine, band, &what);
                splits += usize::from(split);
                assert_eq!(
                    stats.io.logical_reads() - stats.filter_pages,
                    run_pages(&index, &engine, band),
                    "{what} {band:?}: each page of the runs is read once"
                );
            }
            assert!(splits >= 3, "{what}: only {splits} bands split");

            let (below, above) = bands_at_the_gate(&index, &engine, field.value_domain());
            let (split, stats) = split_equals_one_thread(&index, &engine, below, &what);
            assert!(
                !split && stats.cells_examined + 512 > SPLIT_CELLS,
                "{what}: {stats:?}"
            );
            let (split, _) = split_equals_one_thread(&index, &engine, above, &what);
            assert!(split, "{what}: the band at the gate splits");
            let nothing =
                Interval::new(field.value_domain().hi + 1.0, field.value_domain().hi + 2.0);
            let (split, stats) = split_equals_one_thread(&index, &engine, nothing, &what);
            assert!(
                !split
                    && stats.cells_examined == 0
                    && stats.io.logical_reads() == stats.filter_pages
            );
        }
    }
}

#[test]
fn a_split_grid_query_answers_like_one_thread() {
    check_split_equals_one_thread("grid", &diamond_square(8, 0.6, 0x5EED));
}

/// A 10k-triangle TIN; its sibling below is the benchmark's size.
#[test]
fn a_split_tin_query_answers_like_one_thread() {
    check_split_equals_one_thread("tin", &urban_noise_tin(10_000, 0x5EED));
}

/// The benchmark's 50k-triangle TIN.
#[test]
fn a_split_50k_triangle_tin_query_answers_like_one_thread() {
    check_split_equals_one_thread("tin50k", &urban_noise_tin(50_000, 0x5EED));
}

#[test]
fn a_split_snapshot_query_substitutes_overlays_on_both_sides_of_the_cut() {
    let field = diamond_square(8, 0.6, 0x5EED);
    let domain = field.value_domain();
    let n = field.num_cells();
    let engine = engine(PageCodec::Raw, None);
    let index = IHilbert::build(&engine, &field).expect("build");
    let file = index.inner.file.clone();
    let mut cell_at = vec![0; n];
    for (cell, &pos) in index.cell_to_pos.iter().enumerate() {
        cell_at[pos as usize] = cell;
    }
    // Overlays below the cut, on the cut page and above it, for a band
    // that retrieves the whole file (runs `0..n`).
    let cut = whole_file_cut(&file);
    let cut_page = file.page_span(file.page_no_of(cut));
    assert_eq!(cut_page.start, cut);
    let positions = [
        0,
        n / 4,
        cut - 1,
        cut,
        cut + 1,
        cut_page.end - 1,
        cut_page.end,
        n - 1,
    ];
    let config = IngestConfig {
        capacity: 1024,
        scan_threshold: None,
    };
    let live = LiveIngest::new(&engine, index, config).expect("live ingest");
    for (k, &pos) in positions.iter().enumerate() {
        let mut rec: GridCellRecord = field.cell_record(cell_at[pos]);
        for v in &mut rec.vals {
            *v += 0.002 * (k + 1) as f64 * domain.width();
        }
        live.ingest(&engine, cell_at[pos], rec).expect("ingest");
    }
    let snapshot = live.snapshot();
    assert_eq!(snapshot.delta_records(), positions.len());

    let everything = Interval::new(domain.lo - 1.0, domain.hi + domain.width());
    let (split, stats) = split_equals_one_thread(&*snapshot, &engine, everything, "snapshot");
    assert!(split && stats.cells_examined == n, "{stats:?}");
    let mut splits = 0;
    for band in bands(domain) {
        splits += usize::from(split_equals_one_thread(&*snapshot, &engine, band, "snapshot").0);
    }
    assert!(splits >= 3, "only {splits} snapshot bands split");
}

/// With every worker held, a split query sweeps both halves on the
/// caller: it answers like one thread, and the [`Tripwire`] that would
/// catch a worker never trips.
#[test]
fn an_unclaimed_offer_sweeps_both_halves_on_the_caller() {
    let _held = hold_every_worker();
    let field = diamond_square(8, 0.6, 0x5EED);
    for codec in [PageCodec::Raw, PageCodec::Compressed] {
        let db = TmpDb::new(&format!("unclaimed_{}", codec.name()));
        let engine = engine(codec, Some(&db));
        let index = IHilbert::build(&engine, &field).expect("build");
        let what = format!("unclaimed, {}", codec.name());
        let mut splits = 0;
        let claimed = CLAIMED.get();
        for band in bands(field.value_domain()) {
            engine.clear_cache();
            splits += usize::from(split_equals_one_thread(&index, &engine, band, &what).0);
        }
        assert!(splits >= 3, "{what}: only {splits} bands split");
        assert_eq!(CLAIMED.get(), claimed, "{what}: no offer was claimed");

        let tripwire = Tripwire::<true>(diamond_square(7, 0.6, 0x5EED));
        let engine = self::engine(codec, None);
        let index = IHilbert::build(&engine, &tripwire).expect("build");
        let (split, _) = split_equals_one_thread(&index, &engine, tripwire.value_domain(), &what);
        assert!(split, "{what}: the whole domain splits");
    }
}

/// A batch on every thread of the set leaves no worker to claim its
/// queries' offers: each large query is refined on one thread, with the
/// one-thread answer. Its large queries come first and a long tail of
/// empty ones last, so no large query is still running when a loop
/// runs out of queries and its worker turns idle.
#[test]
fn a_batch_on_every_cpu_refines_each_query_on_its_own_thread() {
    let field = Tripwire::<false>(diamond_square(7, 0.6, 0x5EED));
    let domain = field.value_domain();
    let engine = engine(PageCodec::Raw, None);
    let index = Arc::new(IHilbert::build(&engine, &field).expect("build"));
    let threads = Workers::global().workers + 1;
    let large: Vec<Interval> = (0..2 * threads)
        .map(|k| Interval::new(domain.lo - k as f64, domain.hi + k as f64))
        .collect();
    let empty =
        (0..4000).map(|k| Interval::new(domain.hi + 1.0 + k as f64, domain.hi + 1.5 + k as f64));
    let queries: Vec<Interval> = large.iter().copied().chain(empty).collect();
    let report = QueryBatch::new(queries)
        .run(&engine, Arc::clone(&index) as Arc<dyn ValueIndex>)
        .expect("batch");
    assert_eq!(report.threads, threads, "the batch fills the set");
    for (r, band) in report.results.iter().zip(&large) {
        let seen = lock_seen();
        let on: HashSet<ThreadId> = seen
            .iter()
            .filter(|&&(lo, hi, _)| (lo, hi) == (band.lo.to_bits(), band.hi.to_bits()))
            .map(|&(_, _, thread)| thread)
            .collect();
        assert_eq!(on.len(), 1, "{band:?} refined on {on:?}");
        drop(seen);
        let (one, _) = index.query_regions(&engine, *band).expect("one thread");
        assert_eq!(
            (
                r.stats.cells_examined,
                r.stats.area.to_bits(),
                r.stats.io.logical_reads()
            ),
            (
                one.cells_examined,
                one.area.to_bits(),
                one.io.logical_reads()
            )
        );
    }
}

#[test]
fn a_corrupt_page_fails_a_split_query_with_the_lower_page() {
    let field = diamond_square(7, 0.6, 0x5EED);
    let band = field.value_domain();
    for (codec, unclaimed) in [PageCodec::Raw, PageCodec::Compressed]
        .into_iter()
        .flat_map(|codec| [(codec, false), (codec, true)])
    {
        let _held = unclaimed.then(hold_every_worker);
        let db = TmpDb::new(&format!("fault_{}_{unclaimed}", codec.name()));
        let engine = engine(codec, Some(&db));
        let index = IHilbert::build(&engine, &field).expect("build");
        engine.sync().expect("sync");
        let file = &index.inner.file;
        let cut = whole_file_cut(file);
        let page = |page_no: usize| PageId(file.first_page().0 + page_no as u64);
        let (upper, lower) = (page(file.page_no_of(cut) + 1), page(1));
        assert!(lower < page(file.page_no_of(cut - 1)));
        let query = || {
            let before = SPLITS.get();
            engine.clear_cache();
            let err = index
                .query_stats(&engine, band)
                .expect_err("a corrupt page");
            assert_eq!(
                SPLITS.get(),
                before + 1,
                "{}: the query splits",
                codec.name()
            );
            assert!(err.is_corrupt(), "{}: {err}", codec.name());
            err.page()
        };

        // The upper half fails alone.
        db.flip_byte(upper);
        assert_eq!(query(), Some(upper), "{}", codec.name());
        // Both halves fail: the lower page, as the one-thread sweep.
        db.flip_byte(lower);
        assert_eq!(query(), Some(lower), "{}", codec.name());
    }
}

/// A grid whose band visit, when `ARMED`, panics on a worker — the
/// upper half of a split query — and nowhere else; unarmed, it notes
/// each band it refines and the thread it refines on ([`lock_seen`]).
struct Tripwire<const ARMED: bool>(GridField);

/// `(band.lo, band.hi, thread)` of every cell an unarmed [`Tripwire`]
/// refined.
fn lock_seen() -> MutexGuard<'static, HashSet<(u64, u64, ThreadId)>> {
    static SEEN: OnceLock<Mutex<HashSet<(u64, u64, ThreadId)>>> = OnceLock::new();
    SEEN.get_or_init(Mutex::default)
        .lock()
        .expect("no test panics holding it")
}

impl<const ARMED: bool> FieldModel for Tripwire<ARMED> {
    type CellRec = GridCellRecord;

    fn num_cells(&self) -> usize {
        self.0.num_cells()
    }

    fn cell_record(&self, cell: usize) -> GridCellRecord {
        self.0.cell_record(cell)
    }

    fn cell_centroid(&self, cell: usize) -> Point2 {
        self.0.cell_centroid(cell)
    }

    fn cell_interval(&self, cell: usize) -> Interval {
        self.0.cell_interval(cell)
    }

    fn record_interval(rec: &GridCellRecord) -> Interval {
        GridField::record_interval(rec)
    }

    fn record_band_visit(rec: &GridCellRecord, band: Interval, visit: &mut impl FnMut(&[Point2])) {
        let thread = std::thread::current();
        if ARMED && thread.name() == Some(WORKER) {
            panic!("tripwire in the helper");
        }
        if !ARMED {
            lock_seen().insert((band.lo.to_bits(), band.hi.to_bits(), thread.id()));
        }
        GridField::record_band_visit(rec, band, visit);
    }

    fn domain(&self) -> Aabb<2> {
        self.0.domain()
    }

    fn value_at(&self, p: Point2) -> Option<f64> {
        self.0.value_at(p)
    }

    fn record_bbox(rec: &GridCellRecord) -> Aabb<2> {
        GridField::record_bbox(rec)
    }

    fn record_value_at(rec: &GridCellRecord, p: Point2) -> Option<f64> {
        GridField::record_value_at(rec, p)
    }
}

/// Runs `query` until a worker claims its offer, at most 200 times: a
/// worker may be busy with another test's job. Returns what the claimed
/// run returned or raised.
fn claimed<T>(mut query: impl FnMut() -> T) -> std::thread::Result<T> {
    for _ in 0..200 {
        let before = CLAIMED.get();
        let result = std::panic::catch_unwind(AssertUnwindSafe(&mut query));
        if CLAIMED.get() > before {
            return result;
        }
        assert!(result.is_ok(), "an unclaimed upper half never trips");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("no worker claimed an offer in 200 tries");
}

/// On compressed pages the refine runs outside the pool-shard lock, so
/// the worker's panic poisons nothing the caller's half needs, and its
/// own payload reaches the caller. On raw pages it poisons the shard of
/// the page it was refining, as it would in the one-thread sweep: the
/// query still panics, whichever payload wins. The worker lives on:
/// the next split query of a clean index is claimed and answers like
/// one thread.
#[test]
fn a_panic_in_the_helper_reraises_on_the_caller() {
    let field = Tripwire::<true>(diamond_square(7, 0.6, 0x5EED));
    let band = field.value_domain();
    for codec in [PageCodec::Compressed, PageCodec::Raw] {
        let engine = engine(codec, None);
        let index = IHilbert::build(&engine, &field).expect("build");
        index
            .query_regions(&engine, band)
            .expect("the one-thread sweep never trips");
        let payload = claimed(|| index.query_stats(&engine, band))
            .expect_err("the worker's panic reaches the caller");
        if codec == PageCodec::Compressed {
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"tripwire in the helper"),
                "the worker's own payload"
            );
        }
    }
    let clean = diamond_square(7, 0.6, 0x5EED);
    let engine = engine(PageCodec::Raw, None);
    let index = IHilbert::build(&engine, &clean).expect("build");
    let band = clean.value_domain();
    let stats = claimed(|| split_equals_one_thread(&index, &engine, band, "after a panic"))
        .expect("a claimed query after the panic");
    assert!(stats.0, "the whole domain splits");
}

/// Four threads share one engine and one index, each running a batch
/// and single split queries: every answer is the one-thread answer, and
/// nothing deadlocks — a finisher waits only on a claimed job, and a
/// claimed job never waits on an unclaimed one.
#[test]
fn four_threads_of_batches_and_split_queries_answer_like_one_thread() {
    let field = diamond_square(7, 0.6, 0x5EED);
    let domain = field.value_domain();
    let engine = engine(PageCodec::Compressed, None);
    let index = Arc::new(IHilbert::build(&engine, &field).expect("build"));
    let bands = bands(domain);
    let want: Vec<QueryStats> = bands
        .iter()
        .map(|&band| index.query_regions(&engine, band).expect("query").0)
        .collect();
    let facts = |s: &QueryStats| {
        let io = s.io.logical_reads();
        (s.cells_examined, s.cells_qualifying, s.area.to_bits(), io)
    };
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (engine, index, bands, want) = (&engine, &index, &bands, &want);
            scope.spawn(move || {
                for round in 0..3 {
                    let report = QueryBatch::new(bands.clone())
                        .threads(1 + (t + round) % 3)
                        .run(engine, Arc::clone(index) as Arc<dyn ValueIndex>)
                        .expect("batch");
                    for (r, w) in report.results.iter().zip(want) {
                        assert_eq!(facts(&r.stats), facts(w), "thread {t}: {:?}", r.band);
                    }
                    for (band, w) in bands.iter().zip(want).skip(t).step_by(4) {
                        let stats = index.query_stats(engine, *band).expect("query");
                        assert_eq!(facts(&stats), facts(w), "thread {t}: {band:?}");
                    }
                }
            });
        }
    });
}

/// Descriptors of this process open on `path` (Linux); `None` where the
/// process's descriptors cannot be listed.
fn open_descriptors(path: &std::path::Path) -> Option<usize> {
    let fds = std::fs::read_dir("/proc/self/fd").ok()?;
    let path = path.canonicalize().ok();
    Some(
        fds.filter_map(Result::ok)
            .filter(|fd| std::fs::read_link(fd.path()).ok() == path)
            .count(),
    )
}

/// A claimed upper half drops its engine handle before its result
/// reaches the caller: once the caller drops its own, the database file
/// is closed, and the drop guard leaves nothing behind.
#[test]
fn a_claimed_job_drops_its_engine_handle_before_its_offer_completes() {
    let field = diamond_square(7, 0.6, 0x5EED);
    let db = TmpDb::new("handle");
    let engine = engine(PageCodec::Compressed, Some(&db));
    let index = IHilbert::build(&engine, &field).expect("build");
    engine.sync().expect("sync");
    claimed(|| {
        engine.clear_cache();
        index.query_stats(&engine, field.value_domain())
    })
    .expect("no panic")
    .expect("the query");
    drop(index);
    drop(engine);
    if let Some(open) = open_descriptors(&db.0) {
        assert_eq!(open, 0, "a handle outlived the query");
    }
    let path = db.0.clone();
    drop(db);
    assert!(!path.exists());
}
