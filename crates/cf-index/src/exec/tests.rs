//! The executor's range merge, and the split estimation step against the
//! one-thread sweep: the same counts, area bits and pages, the same
//! errors, the same panics. A query with a sink never splits, so
//! `query_regions` is the one-thread reference of every check here.
#![allow(clippy::expect_used, clippy::panic)]

use super::*;
use crate::{IHilbert, IngestConfig, LiveIngest, ValueIndex};
use cf_field::{GridCellRecord, GridField};
use cf_storage::{PageCodec, PageId, StorageConfig, PAGE_SIZE};
use cf_workload::{fractal::diamond_square, noise::urban_noise_tin, queries::interval_queries};
use std::collections::BTreeSet;
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;

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

/// A 10k-triangle TIN: generating the 50k one takes a minute without
/// optimisation; its sibling below runs under `--release --ignored`.
#[test]
fn a_split_tin_query_answers_like_one_thread() {
    check_split_equals_one_thread("tin", &urban_noise_tin(10_000, 0x5EED));
}

#[test]
#[ignore = "generating a 50k-triangle TIN takes a minute in debug; run with --release --ignored"]
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

/// Refuses every helper spawn of this thread while it lives.
struct SpawnRefused;

impl SpawnRefused {
    fn new() -> Self {
        FAIL_SPAWN.set(true);
        Self
    }
}

impl Drop for SpawnRefused {
    fn drop(&mut self) {
        FAIL_SPAWN.set(false);
    }
}

/// With no thread to be had, a split query sweeps both halves on the
/// caller: it answers like one thread, and the [`Tripwire`] that would
/// catch a helper never trips.
#[test]
fn a_refused_spawn_sweeps_both_halves_on_the_caller() {
    let _refused = SpawnRefused::new();
    let field = diamond_square(8, 0.6, 0x5EED);
    for codec in [PageCodec::Raw, PageCodec::Compressed] {
        let db = TmpDb::new(&format!("refused_{}", codec.name()));
        let engine = engine(codec, Some(&db));
        let index = IHilbert::build(&engine, &field).expect("build");
        let what = format!("refused spawn, {}", codec.name());
        let mut splits = 0;
        for band in bands(field.value_domain()) {
            engine.clear_cache();
            splits += usize::from(split_equals_one_thread(&index, &engine, band, &what).0);
        }
        assert!(splits >= 3, "{what}: only {splits} bands split");

        let tripwire = Tripwire(diamond_square(7, 0.6, 0x5EED));
        let engine = self::engine(codec, None);
        let index = IHilbert::build(&engine, &tripwire).expect("build");
        let (split, _) = split_equals_one_thread(&index, &engine, tripwire.value_domain(), &what);
        assert!(split, "{what}: the whole domain splits");
    }
}

/// A batch worker on a host whose CPUs the batch already fills keeps
/// every query on its own thread, with the same answer.
#[test]
fn a_thread_kept_from_splitting_refines_alone() {
    let field = diamond_square(7, 0.6, 0x5EED);
    let band = field.value_domain();
    let engine = engine(PageCodec::Raw, None);
    let index = IHilbert::build(&engine, &field).expect("build");
    let (split, stats) = split_equals_one_thread(&index, &engine, band, "free");
    assert!(split, "the whole domain splits");
    let alone = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                refine_on_this_thread_only();
                let stats = index.query_stats(&engine, band).expect("query");
                assert_eq!(SPLITS.get(), 0, "a kept thread never splits");
                stats
            })
            .join()
            .expect("the worker")
    });
    assert_eq!(
        (
            alone.cells_examined,
            alone.area.to_bits(),
            alone.io.logical_reads()
        ),
        (
            stats.cells_examined,
            stats.area.to_bits(),
            stats.io.logical_reads()
        )
    );
}

#[test]
fn a_corrupt_page_fails_a_split_query_with_the_lower_page() {
    let field = diamond_square(7, 0.6, 0x5EED);
    let band = field.value_domain();
    for (codec, refused) in [PageCodec::Raw, PageCodec::Compressed]
        .into_iter()
        .flat_map(|codec| [(codec, false), (codec, true)])
    {
        let _refused = refused.then(SpawnRefused::new);
        let db = TmpDb::new(&format!("fault_{}_{refused}", codec.name()));
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

        // The helper's half fails alone.
        db.flip_byte(upper);
        assert_eq!(query(), Some(upper), "{}", codec.name());
        // Both halves fail: the lower page, as the one-thread sweep.
        db.flip_byte(lower);
        assert_eq!(query(), Some(lower), "{}", codec.name());
    }
}

/// A grid whose band visit panics on an unnamed thread — the helper of
/// a split query — and nowhere else.
struct Tripwire(GridField);

impl FieldModel for Tripwire {
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
        if std::thread::current().name().is_none() {
            panic!("tripwire in the helper");
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

/// On compressed pages the refine runs outside the pool-shard lock, so
/// the helper's panic poisons nothing the caller's half needs, and its
/// own payload reaches the caller. On raw pages it poisons the shard of
/// the page it was refining, as it would in the one-thread sweep: the
/// query still panics, whichever payload wins.
#[test]
fn a_panic_in_the_helper_reraises_on_the_caller() {
    let field = Tripwire(diamond_square(7, 0.6, 0x5EED));
    let band = field.value_domain();
    for codec in [PageCodec::Compressed, PageCodec::Raw] {
        let engine = engine(codec, None);
        let index = IHilbert::build(&engine, &field).expect("build");
        index
            .query_regions(&engine, band)
            .expect("the one-thread sweep never trips");
        let payload =
            std::panic::catch_unwind(AssertUnwindSafe(|| index.query_stats(&engine, band)))
                .expect_err("the helper's panic reaches the caller");
        if codec == PageCodec::Compressed {
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"tripwire in the helper"),
                "the helper's own payload, not the scope's"
            );
        }
    }
}
