//! Live ingest plane: epoch-snapshot reads over the delta plane must
//! answer **byte-identically** to the sequential oracle — an I-Hilbert
//! index that applied every update in place — under arbitrary
//! interleavings of updates, queries and repack-driven epoch
//! publications, across all four curves.
//!
//! "Byte-identically" is literal: qualifying-cell counts, region
//! counts and the bit pattern of the accumulated area must match,
//! because both paths visit the same qualifying records in the same
//! ascending cell-file-position order.

use cf_field::{FieldModel, GridCellRecord, GridField};
use cf_geom::Interval;
use cf_index::{
    build_subfields_by_page, cell_order, IHilbert, IHilbertConfig, IngestConfig, LinearScan,
    LiveIngest, QueryBatch, QueryStats, Subfield, SubfieldConfig, ValueIndex,
};
use cf_sfc::Curve;
use cf_storage::{CellFile, Fault, PageCodec, PageId, StorageConfig, StorageEngine};
use std::collections::BTreeSet;
use std::ops::Range;

/// Deterministic split-mix style generator: the interleavings must be
/// reproducible across runs and platforms.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn value(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

fn wavy_field(n: usize) -> GridField {
    let vw = n + 1;
    let mut values = Vec::new();
    for y in 0..vw {
        for x in 0..vw {
            values.push((x as f64 * 0.4).sin() * 30.0 + (y as f64 * 0.3).cos() * 20.0);
        }
    }
    GridField::from_values(vw, vw, values)
}

fn rand_band(rng: &mut Rng) -> Interval {
    let lo = rng.value(-60.0, 55.0);
    Interval::new(lo, lo + rng.value(0.5, 25.0))
}

fn rand_record(field: &GridField, cell: usize, rng: &mut Rng) -> GridCellRecord {
    GridCellRecord {
        vals: [
            rng.value(-50.0, 50.0),
            rng.value(-50.0, 50.0),
            rng.value(-50.0, 50.0),
            rng.value(-50.0, 50.0),
        ],
        ..field.cell_record(cell)
    }
}

fn fixed_bands() -> Vec<Interval> {
    (0..10)
        .map(|i| {
            let lo = -55.0 + i as f64 * 10.0;
            Interval::new(lo, lo + 13.0)
        })
        .collect()
}

#[track_caller]
fn assert_bitexact(got: &QueryStats, want: &QueryStats, ctx: &str) {
    assert_eq!(got.cells_qualifying, want.cells_qualifying, "{ctx}");
    assert_eq!(got.num_regions, want.num_regions, "{ctx}");
    assert_eq!(
        got.area.to_bits(),
        want.area.to_bits(),
        "{ctx}: area {} vs {}",
        got.area,
        want.area
    );
}

/// The tentpole property: random interleavings of ingests, snapshot
/// queries and epoch publications (both explicit repacks and
/// capacity-forced inline drains) against the sequential oracle, for
/// every curve.
#[test]
fn interleavings_match_sequential_oracle_for_all_curves_and_planes() {
    let field = wavy_field(16);
    for (ci, curve) in Curve::ALL.into_iter().enumerate() {
        let engine = StorageEngine::in_memory();
        let config = IHilbertConfig {
            curve,
            ..Default::default()
        };
        let base = IHilbert::build_with(&engine, &field, config).expect("build base");
        let mut oracle = IHilbert::build_with(&engine, &field, config).expect("build oracle");
        // Small capacity so the run also exercises the inline
        // backpressure drain, not just explicit repacks.
        let live = LiveIngest::new(
            &engine,
            base,
            IngestConfig {
                capacity: 24,
                scan_threshold: None,
            },
        )
        .expect("live ingest");
        let ctx = format!("{curve:?}");
        let mut rng = Rng(0xC0FF_EE00 + ci as u64);
        let mut updates = 0u32;
        let mut queries = 0u32;
        for step in 0..400 {
            match rng.below(10) {
                0..=5 => {
                    let cell = rng.below(field.num_cells());
                    let rec = rand_record(&field, cell, &mut rng);
                    live.ingest(&engine, cell, rec).expect("ingest");
                    oracle.update_cell(&engine, cell, rec).expect("oracle");
                    updates += 1;
                }
                6..=8 => {
                    let band = rand_band(&mut rng);
                    let snap = live.snapshot();
                    let got = snap.query_stats(&engine, band).expect("snapshot query");
                    let want = oracle.query_stats(&engine, band).expect("oracle query");
                    assert_bitexact(&got, &want, &format!("{ctx}: step {step}"));
                    queries += 1;
                }
                _ => {
                    live.repack(&engine).expect("repack");
                }
            }
        }
        assert!(updates > 150 && queries > 60, "{ctx}: degenerate mix");
    }
}

/// A pinned snapshot is immutable: it keeps answering exactly what the
/// oracle answered at capture time, through later ingests and repacks
/// that supersede (and retire) the pages it reads.
#[test]
fn snapshots_are_isolated_from_later_writes_and_repacks() {
    let field = wavy_field(16);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let mut rng = Rng(7);

    for _ in 0..40 {
        let cell = rng.below(field.num_cells());
        let rec = rand_record(&field, cell, &mut rng);
        live.ingest(&engine, cell, rec).expect("ingest");
    }
    let pinned = live.snapshot();
    let frozen_in_time: Vec<QueryStats> = fixed_bands()
        .iter()
        .map(|&b| pinned.query_stats(&engine, b).expect("query"))
        .collect();

    // Overwrite every cell and swap the plane twice.
    for round in 0..2 {
        for cell in 0..field.num_cells() {
            let mut rec = field.cell_record(cell);
            rec.vals = [200.0 + round as f64, 201.0, 202.0, 203.0];
            live.ingest(&engine, cell, rec).expect("ingest");
        }
        let report = live.repack(&engine).expect("repack");
        assert!(report.repacked, "round {round}");
        assert!(report.pages_retired > 0, "round {round}");
    }

    for (i, &band) in fixed_bands().iter().enumerate() {
        let again = pinned.query_stats(&engine, band).expect("pinned query");
        assert_bitexact(&again, &frozen_in_time[i], &format!("pinned band {i}"));
    }
    // And the fresh snapshot sees the new world: nothing qualifies in
    // the old value range, everything in the new one.
    let fresh = live.snapshot();
    let old_world = fresh
        .query_stats(&engine, Interval::new(-60.0, 60.0))
        .expect("query");
    assert_eq!(old_world.cells_qualifying, 0);
    let new_world = fresh
        .query_stats(&engine, Interval::new(199.0, 205.0))
        .expect("query");
    assert_eq!(new_world.cells_qualifying, field.num_cells());
}

/// Ingests `n` random records into `live`.
fn ingest_random(live: &LiveIngest<GridField>, engine: &StorageEngine, n: usize, rng: &mut Rng) {
    let cells = live.snapshot().num_cells();
    for _ in 0..n {
        let cell = rng.below(cells);
        let mut rec = live.cell_record(engine, cell).expect("record");
        rec.vals = [(); 4].map(|()| rng.value(-50.0, 50.0));
        live.ingest(engine, cell, rec).expect("ingest");
    }
}

/// The `storage_deferred_free_pages` gauge: retired pages not yet freed.
fn deferred_pages(engine: &StorageEngine) -> f64 {
    engine
        .metrics()
        .gauge_value("storage_deferred_free_pages", &[])
        .unwrap_or(-1.0)
}

/// Reclamation by ownership: a repack's replaced generation stays
/// allocated while any snapshot of it is alive — two readers of two
/// epochs over it here — and the old epochs answer from its pages. A
/// save that moves the commit does not free it under a reader; once
/// the last reader drops, the next save does.
#[test]
fn retired_pages_recycle_only_after_the_last_reader_drops() {
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &wavy_field(12)).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let catalog = live.save(&engine).expect("save");
    let mut rng = Rng(11);

    ingest_random(&live, &engine, 10, &mut rng);
    let first_reader = live.snapshot();
    let before: Vec<QueryStats> = fixed_bands()
        .iter()
        .map(|&b| first_reader.query_stats(&engine, b).expect("query"))
        .collect();
    ingest_random(&live, &engine, 1, &mut rng);
    let last_reader = live.snapshot();
    assert!(last_reader.epoch() > first_reader.epoch());
    let report = live.repack(&engine).expect("repack");
    assert!(report.repacked && report.pages_retired > 0);

    // The readers hold the old generation: nothing is freed ...
    assert_eq!(engine.free_pages(), 0);
    assert_eq!(deferred_pages(&engine), report.pages_retired as f64);
    // ... and the old epoch still answers from its own pages.
    engine.clear_cache();
    for (i, &band) in fixed_bands().iter().enumerate() {
        let again = first_reader
            .query_stats(&engine, band)
            .expect("old epoch query");
        assert_bitexact(&again, &before[i], &format!("old epoch band {i}"));
    }

    drop(first_reader);
    live.save_to(&engine, catalog).expect("save");
    assert_eq!(engine.free_pages(), 0, "the last reader still holds it");
    drop(last_reader);
    assert_eq!(engine.free_pages(), 0, "a drop only queues the runs");
    live.save_to(&engine, catalog).expect("save");
    assert_eq!(engine.free_pages(), report.pages_retired);
    assert_eq!(deferred_pages(&engine), 0.0);
}

/// A snapshot of the epoch a repack published reads the new generation
/// only: it does not keep the one the repack replaced alive.
#[test]
fn a_snapshot_after_a_repack_does_not_hold_the_replaced_generation() {
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &wavy_field(12)).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let mut rng = Rng(13);
    ingest_random(&live, &engine, 10, &mut rng);
    let report = live.repack(&engine).expect("repack");
    let new_reader = live.snapshot();
    assert_eq!(new_reader.epoch(), report.epoch);
    live.save(&engine).expect("save");
    assert_eq!(
        engine.free_pages(),
        report.pages_retired,
        "the new epoch's reader must not hold the old generation"
    );
    new_reader
        .query_stats(&engine, Interval::new(-60.0, 60.0))
        .expect("new epoch query");
}

/// The repack that replaces a generation nothing holds frees it itself:
/// after a save, the first repack's generation is neither committed nor
/// read, so the second repack frees its runs, one `run_reclaimed`
/// event each.
#[test]
fn a_repack_frees_the_generation_it_replaces_when_nothing_holds_it() {
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &wavy_field(12)).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let catalog = live.save(&engine).expect("save");
    let mut rng = Rng(17);

    ingest_random(&live, &engine, 10, &mut rng);
    let first = live.repack(&engine).expect("first repack");
    assert_eq!(engine.free_pages(), 0, "the commit names the built base");
    ingest_random(&live, &engine, 10, &mut rng);
    let _ = engine.metrics().journal().take();
    let second = live.repack(&engine).expect("second repack");
    assert_eq!(
        engine.free_pages(),
        second.pages_retired,
        "the second repack frees the first repack's generation"
    );
    assert_eq!(deferred_pages(&engine), first.pages_retired as f64);
    #[cfg(not(feature = "obs-off"))]
    {
        let events: Vec<(String, f64)> = engine
            .metrics()
            .journal()
            .take()
            .iter()
            .filter_map(|e| {
                let name = e.get("event")?.as_str()?.to_string();
                Some((name, e.get("pages").and_then(|v| v.as_f64()).unwrap_or(0.0)))
            })
            .filter(|(name, _)| name.starts_with("run_"))
            .collect();
        let pages = |name: &str| -> f64 {
            let runs = events.iter().filter(|(n, _)| n == name);
            assert_eq!(runs.clone().count(), 3, "{name}: {events:?}");
            runs.map(|(_, p)| p).sum()
        };
        assert_eq!(pages("run_deferred"), second.pages_retired as f64);
        assert_eq!(pages("run_reclaimed"), second.pages_retired as f64);
    }
    // The next save frees the built base.
    live.save_to(&engine, catalog).expect("save");
    assert_eq!(
        engine.free_pages(),
        first.pages_retired + second.pages_retired
    );
    assert_eq!(deferred_pages(&engine), 0.0);
}

/// A save frees the generation its commit released in place: when that
/// generation ends a database file, the file keeps its length and the
/// next repack writes its generation into the hole instead of growing
/// it.
#[test]
fn a_save_frees_in_place_and_the_next_repack_refills_the_hole() {
    let db = TmpFile::new("in_place");
    let engine = StorageEngine::open_file(&db.0, StorageConfig::default()).expect("open file");
    let base = IHilbert::build(&engine, &wavy_field(12)).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let catalog = live.save(&engine).expect("save");
    let mut rng = Rng(23);
    // Built base, catalog, then the first repack's generation at the end
    // of the file; the second repack fills the built base's hole.
    for _ in 0..2 {
        ingest_random(&live, &engine, 10, &mut rng);
        live.repack(&engine).expect("repack");
        live.save_to(&engine, catalog).expect("save");
    }
    let pages = engine.num_pages();
    ingest_random(&live, &engine, 10, &mut rng);
    let report = live.repack(&engine).expect("repack");
    assert_eq!(engine.num_pages(), pages, "the repack reused the hole");
    live.save_to(&engine, catalog).expect("save");
    assert_eq!(
        engine.num_pages(),
        pages,
        "the save did not shrink the file"
    );
    assert_eq!(engine.free_pages(), report.pages_retired);
}

/// A database file in the temp directory, removed with its sidecar on
/// drop.
struct TmpFile(std::path::PathBuf);

impl TmpFile {
    fn new(tag: &str) -> Self {
        let name = format!("contfield_test_ingest_{tag}_{}.db", std::process::id());
        let db = Self(std::env::temp_dir().join(name));
        db.remove();
        db
    }

    fn remove(&self) {
        for ext in ["", ".crc"] {
            let _ = std::fs::remove_file(format!("{}{ext}", self.0.display()));
        }
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        self.remove();
    }
}

/// A free that fails (an injected fault on the sidecar retag of a file
/// database) leaves the runs it did not free queued, and the next save
/// frees them.
#[test]
fn a_failed_free_leaves_the_runs_queued_for_the_next_save() {
    let db = TmpFile::new("retag");
    let engine = StorageEngine::open_file(&db.0, StorageConfig::default()).expect("open file");
    let base = IHilbert::build(&engine, &wavy_field(12)).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let catalog = live.save(&engine).expect("save");
    let mut rng = Rng(19);
    ingest_random(&live, &engine, 10, &mut rng);
    let report = live.repack(&engine).expect("repack");
    engine.flush().expect("flush");

    // Write 0 is the commit slot, write 1 the retag of the built
    // base's cell run.
    engine.clear_faults();
    engine.inject_fault(Fault::FailWrite { nth: 1 });
    let err = live.save_to(&engine, catalog).expect_err("the retag fails");
    assert!(err.is_injected(), "{err}");
    engine.clear_faults();
    assert_eq!(engine.free_pages(), 0);
    assert_eq!(deferred_pages(&engine), report.pages_retired as f64);

    live.save_to(&engine, catalog).expect("save");
    assert_eq!(engine.free_pages(), report.pages_retired);
    assert_eq!(deferred_pages(&engine), 0.0);
}

/// Snapshots are plain [`ValueIndex`] values: the multi-threaded
/// [`QueryBatch`] runs over one unchanged, and every per-query answer
/// matches the oracle bit-for-bit.
#[test]
fn query_batch_over_a_snapshot_matches_oracle() {
    let field = wavy_field(16);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let mut oracle = IHilbert::build(&engine, &field).expect("build oracle");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let mut rng = Rng(23);
    for _ in 0..60 {
        let cell = rng.below(field.num_cells());
        let rec = rand_record(&field, cell, &mut rng);
        live.ingest(&engine, cell, rec).expect("ingest");
        oracle.update_cell(&engine, cell, rec).expect("oracle");
    }
    let snap = live.snapshot();
    let report = QueryBatch::new(fixed_bands())
        .threads(4)
        .run(&engine, &*snap)
        .expect("batch");
    for (i, r) in report.results.iter().enumerate() {
        let want = oracle.query_stats(&engine, r.band).expect("oracle query");
        assert_bitexact(&r.stats, &want, &format!("batch query {i}"));
    }
}

/// Concurrent smoke: one writer streaming updates while reader threads
/// query their pinned snapshots — readers must always see internally
/// consistent epochs (every answer matches one of the oracle states),
/// and nothing deadlocks or panics.
#[test]
fn concurrent_readers_make_progress_during_writes_and_repacks() {
    let field = wavy_field(12);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = std::sync::Arc::new(
        LiveIngest::new(
            &engine,
            base,
            IngestConfig {
                capacity: 64,
                scan_threshold: None,
            },
        )
        .expect("live"),
    );
    let band = Interval::new(-60.0, 60.0);
    let total_cells = field.num_cells();

    std::thread::scope(|scope| {
        let writer = {
            let live = std::sync::Arc::clone(&live);
            let engine = &engine;
            let field = &field;
            scope.spawn(move || {
                let mut rng = Rng(31);
                for i in 0..300 {
                    let cell = rng.below(field.num_cells());
                    let rec = rand_record(field, cell, &mut rng);
                    live.ingest(engine, cell, rec).expect("ingest");
                    if i % 97 == 0 {
                        live.repack(engine).expect("repack");
                    }
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let live = std::sync::Arc::clone(&live);
                let engine = &engine;
                scope.spawn(move || {
                    let mut answered = 0u32;
                    for _ in 0..200 {
                        let snap = live.snapshot();
                        let stats = snap.query_stats(engine, band).expect("reader query");
                        // Every record keeps intersecting the wide
                        // band (values stay inside it), so a
                        // consistent epoch always answers the full
                        // cell count — a torn epoch would not.
                        assert_eq!(stats.cells_qualifying, total_cells);
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        writer.join().expect("writer");
        for reader in readers {
            assert_eq!(reader.join().expect("reader"), 200);
        }
    });
}

/// Reclamation under concurrent drops: four reader threads take a
/// snapshot, query it and drop it, over and over, while a file-backed
/// writer runs rounds of ingests, repack and save. Whichever thread
/// drops a retired generation's last handle, the writer frees it at a
/// later repack or save: once the readers are gone and one more repack
/// and save ran, nothing is deferred, no committed page is tagged free,
/// and the reopened plane answers like the writer's last snapshot.
#[test]
fn concurrent_drops_leave_nothing_deferred_and_the_commit_intact() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    let db = TmpFile::new("concurrent_drops");
    let engine = StorageEngine::open_file(&db.0, StorageConfig::default()).expect("open file");
    let field = wavy_field(32);
    let cells = field.num_cells();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let catalog = live.save(&engine).expect("save");
    // The readers and the writer start together; the readers stop once
    // the writer's last round is done.
    let (start, writing) = (Barrier::new(5), AtomicBool::new(true));
    // Every record keeps its values inside this band.
    let wide = Interval::new(-60.0, 60.0);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (live, engine, start, writing) = (&live, &engine, &start, &writing);
                scope.spawn(move || {
                    start.wait();
                    let mut queries = 0u32;
                    while writing.load(Ordering::Relaxed) || queries == 0 {
                        let snap = live.snapshot();
                        let stats = snap.query_stats(engine, wide).expect("reader query");
                        assert_eq!(stats.cells_qualifying, cells);
                        drop(snap);
                        queries += 1;
                    }
                })
            })
            .collect();
        let mut rng = Rng(37);
        start.wait();
        for _ in 0..6 {
            ingest_random(&live, &engine, 200, &mut rng);
            assert!(live.repack(&engine).expect("repack").repacked);
            live.save_to(&engine, catalog).expect("save");
        }
        writing.store(false, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader");
        }
    });
    live.repack(&engine).expect("repack");
    live.save_to(&engine, catalog).expect("save");
    engine.sync().expect("sync");
    assert_eq!(deferred_pages(&engine), 0.0);
    let committed = IHilbert::<GridField>::open(&engine, catalog).expect("open committed");
    let tagged_free: usize = committed
        .page_runs()
        .iter()
        .map(|&(first, pages)| engine.free_pages_in(first, pages))
        .sum();
    assert_eq!(tagged_free, 0, "the commit names a page tagged free");

    let mut rng = Rng(41);
    let bands: Vec<Interval> = (0..20).map(|_| rand_band(&mut rng)).collect();
    let snap = live.snapshot();
    let want: Vec<QueryStats> = bands
        .iter()
        .map(|&b| snap.query_stats(&engine, b).expect("query"))
        .collect();
    drop((snap, live, committed, engine));
    let engine = StorageEngine::open_file(&db.0, StorageConfig::default()).expect("reopen file");
    let reopened =
        LiveIngest::<GridField>::open(&engine, catalog, IngestConfig::default()).expect("open");
    let snap = reopened.snapshot();
    for (i, (&band, want)) in bands.iter().zip(&want).enumerate() {
        let got = snap.query_stats(&engine, band).expect("reopened query");
        assert_bitexact(&got, want, &format!("reopened band {i}"));
    }
}

/// Catalog v4 round-trip: the ingest plane (base + net delta + epoch
/// pointer) survives save and reopen, bit-identically, and keeps
/// accepting writes.
#[test]
fn live_ingest_survives_save_and_reopen() {
    let field = wavy_field(16);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let mut rng = Rng(53);
    for _ in 0..40 {
        let cell = rng.below(field.num_cells());
        let rec = rand_record(&field, cell, &mut rng);
        live.ingest(&engine, cell, rec).expect("ingest");
    }
    let want: Vec<QueryStats> = fixed_bands()
        .iter()
        .map(|&b| live.snapshot().query_stats(&engine, b).expect("query"))
        .collect();
    let (_, epoch, _) = live.status();
    let catalog = live.save(&engine).expect("save");

    engine.clear_cache();
    let reopened =
        LiveIngest::<GridField>::open(&engine, catalog, IngestConfig::default()).expect("open");
    let (delta, reopened_epoch, _) = reopened.status();
    assert_eq!(reopened_epoch, epoch, "epoch pointer must survive");
    assert!(delta > 0, "net delta must be replayed on reopen");
    for (i, &band) in fixed_bands().iter().enumerate() {
        let got = reopened
            .snapshot()
            .query_stats(&engine, band)
            .expect("query");
        assert_bitexact(&got, &want[i], &format!("reopened band {i}"));
    }

    // The reopened plane is live, not read-only.
    let mut rec = field.cell_record(3);
    rec.vals = [400.0; 4];
    reopened
        .ingest(&engine, 3, rec)
        .expect("ingest after reopen");
    let stats = reopened
        .snapshot()
        .query_stats(&engine, Interval::new(399.0, 401.0))
        .expect("query");
    assert_eq!(stats.cells_qualifying, 1);
}

/// A catalog saved with pending delta records is the ingest plane's:
/// a bare [`IHilbert::open`] would answer as if those acknowledged
/// writes never happened, so it refuses the catalog with a typed error
/// that says where to go instead. After a repack the delta is empty and
/// both opens agree.
#[test]
fn bare_open_refuses_a_catalog_with_a_pending_delta() {
    let field = cf_workload::fractal::diamond_square(6, 0.7, 7);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let mut rng = Rng(71);
    for _ in 0..200 {
        let cell = rng.below(field.num_cells());
        let rec = rand_record(&field, cell, &mut rng);
        live.ingest(&engine, cell, rec).expect("ingest");
    }
    let dom = live.snapshot().value_domain();
    let band = Interval::new(dom.denormalize(0.9), dom.denormalize(1.0));
    let want = live.snapshot().query_stats(&engine, band).expect("query");
    let (pending, _, _) = live.status();
    assert!(pending > 0 && want.cells_qualifying > 0);
    let catalog = live.save(&engine).expect("save without a repack");

    engine.clear_cache();
    let reopened =
        LiveIngest::<GridField>::open(&engine, catalog, IngestConfig::default()).expect("open");
    let got = reopened
        .snapshot()
        .query_stats(&engine, band)
        .expect("query");
    assert_bitexact(&got, &want, "LiveIngest::open");

    let err = IHilbert::<GridField>::open(&engine, catalog)
        .map(drop)
        .expect_err("a bare open would drop the delta");
    assert!(err.is_corrupt(), "{err}");
    assert_eq!(err.page(), Some(catalog));
    let msg = err.to_string();
    let (delta, _, _) = reopened.status();
    assert!(
        msg.contains(&format!("{delta} pending delta records")) && msg.contains("LiveIngest::open"),
        "{msg}"
    );

    reopened.repack(&engine).expect("repack");
    reopened
        .save_to(&engine, catalog)
        .expect("save after the repack");
    engine.clear_cache();
    let bare = IHilbert::<GridField>::open(&engine, catalog).expect("open after the repack");
    let got = bare.query_stats(&engine, band).expect("query");
    assert_bitexact(&got, &want, "IHilbert::open after the repack");
}

/// The layout is a function of the data: a repack regroups by the rule
/// the build uses, whatever queries ran before it. One plane answers Q2
/// queries through its snapshots and then takes the writes; a twin on
/// its own engine takes the same writes with no queries. After the
/// repack both bases carry the catalog `build_subfields_by_page` forms
/// over the effective records in base order, and the two engines hold
/// the same page bytes.
#[test]
fn repack_catalog_is_a_function_of_the_records_not_the_queries() {
    let field = wavy_field(16);
    // Small nudges: the drained file keeps the field's smooth grouping,
    // where the query history would have something to move.
    let mut rng = Rng(61);
    let writes: Vec<(usize, GridCellRecord)> = (0..40)
        .map(|_| {
            let cell = rng.below(field.num_cells());
            let mut rec = field.cell_record(cell);
            for v in &mut rec.vals {
                *v += rng.value(-2.0, 2.0);
            }
            (cell, rec)
        })
        .collect();
    let planes = [true, false].map(|queried| {
        let engine = StorageEngine::in_memory();
        let base = IHilbert::build(&engine, &field).expect("build");
        let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
        if queried {
            let mut rng = Rng(67);
            for _ in 0..64 {
                let band = rand_band(&mut rng);
                live.snapshot().query_stats(&engine, band).expect("query");
            }
        }
        for &(cell, rec) in &writes {
            live.ingest(&engine, cell, rec).expect("ingest");
        }
        assert!(live.repack(&engine).expect("repack").repacked);
        (engine, live)
    });

    // The catalog the build's rule forms over the effective records.
    let mut records: Vec<GridCellRecord> = (0..field.num_cells())
        .map(|cell| field.cell_record(cell))
        .collect();
    for &(cell, rec) in &writes {
        records[cell] = rec;
    }
    let order = cell_order(&field, Curve::Hilbert);
    let intervals: Vec<Interval> = order
        .iter()
        .map(|&cell| GridField::record_interval(&records[cell]))
        .collect();
    let file = CellFile::create(
        &StorageEngine::in_memory(),
        order.iter().map(|&cell| records[cell]),
    )
    .expect("file in base order");
    let expected = build_subfields_by_page(&intervals, &file, SubfieldConfig::default());

    let mut probes = fixed_bands();
    probes.extend(expected.iter().map(|sf| sf.interval));
    for (i, (engine, live)) in planes.iter().enumerate() {
        let snap = live.snapshot();
        assert_eq!(snap.num_intervals(), expected.len(), "plane {i}");
        for &band in &probes {
            let hits: Vec<_> = expected
                .iter()
                .filter(|sf| sf.interval.intersects(band))
                .collect();
            let stats = snap.query_stats(engine, band).expect("query");
            assert_eq!(
                stats.intervals_retrieved,
                hits.len(),
                "plane {i}, band {band}"
            );
            assert_eq!(
                stats.cells_examined,
                hits.iter().map(|sf| sf.len()).sum::<usize>(),
                "plane {i}, band {band}"
            );
        }
    }

    let [(queried, _), (twin, _)] = &planes;
    assert_eq!(queried.num_pages(), twin.num_pages());
    for page in 0..queried.num_pages() as u64 {
        let bytes = |engine: &StorageEngine| {
            engine
                .with_page(PageId(page), |buf| *buf)
                .expect("read page")
        };
        assert!(bytes(queried) == bytes(twin), "page {page} differs");
    }
}

/// A bad cell id through the ingest plane surfaces the same typed
/// error as the in-place path — and leaves the delta untouched.
#[test]
fn ingest_rejects_invalid_cells_with_typed_error() {
    let field = wavy_field(8);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let rec = field.cell_record(0);
    let err = live
        .ingest(&engine, field.num_cells() + 5, rec)
        .expect_err("invalid cell");
    assert!(err.is_invalid_cell(), "{err}");
    let (delta, epoch, _) = live.status();
    assert_eq!((delta, epoch), (0, 0), "failed ingest must not publish");
}

/// A record with a NaN sample is refused with a typed error before any
/// state moves. It used to panic inside the interval recompute, which
/// poisoned the writer mutex, so every later ingest panicked too.
#[test]
fn ingest_rejects_nan_records_without_poisoning_the_plane() {
    let field = wavy_field(8);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let band = Interval::new(-10.0, 10.0);
    let want = live.snapshot().query_stats(&engine, band).expect("query");
    for vals in [[f64::NAN; 4], [1.0, f64::NAN, 2.0, 3.0]] {
        let rec = GridCellRecord {
            vals,
            ..field.cell_record(3)
        };
        let err = live.ingest(&engine, 3, rec).expect_err("NaN sample");
        assert!(err.is_invalid_record(), "{err}");
        assert_eq!(
            live.status(),
            (0, 0, 0),
            "a refused ingest must not publish"
        );
    }
    let got = live.snapshot().query_stats(&engine, band).expect("query");
    assert_bitexact(&got, &want, "snapshot after refused ingests");
    live.ingest(&engine, 3, field.cell_record(3))
        .expect("a valid ingest still goes through");
    assert_eq!(live.status().0, 1);
}

/// Regression for the backpressure path: a write landing on a
/// ring-at-capacity plane performs an inline synchronous drain, and
/// the pressure gauges must stay truthful through it —
/// `ingest_repack_inflight` rises and falls back to 0,
/// `ingest_delta_records` drops from `capacity` to exactly the one
/// triggering write, and the epoch-lifecycle journal records the
/// drain as `repack_start` → `repack_end` with an `epoch_published`
/// for the publication.
#[test]
fn inline_drain_backpressure_keeps_gauges_and_journal_truthful() {
    let field = wavy_field(32);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let capacity = 8;
    let live = LiveIngest::new(
        &engine,
        base,
        IngestConfig {
            capacity,
            ..Default::default()
        },
    )
    .expect("live");
    let mut rng = Rng(37);
    let gauge = |name: &str| engine.metrics().gauge_value(name, &[]).unwrap_or(-1.0);

    for _ in 0..capacity {
        let cell = rng.below(field.num_cells());
        let rec = rand_record(&field, cell, &mut rng);
        live.ingest(&engine, cell, rec).expect("ingest");
    }
    assert_eq!(gauge("ingest_delta_records"), capacity as f64);
    assert_eq!(gauge("ingest_repack_inflight"), 0.0);
    let epoch_before = gauge("ingest_epoch");
    // Discard the fill phase's journal entries so the assertions below
    // see only the backpressure write's events.
    let _ = engine.metrics().journal().take();

    // Ring at capacity: this write must drain inline first.
    let cell = rng.below(field.num_cells());
    let rec = rand_record(&field, cell, &mut rng);
    live.ingest(&engine, cell, rec)
        .expect("backpressure ingest");

    assert_eq!(
        gauge("ingest_delta_records"),
        1.0,
        "after the inline drain only the triggering write may remain"
    );
    assert_eq!(
        gauge("ingest_repack_inflight"),
        0.0,
        "the inline drain must clear the inflight flag on its way out"
    );
    assert!(
        gauge("ingest_epoch") >= epoch_before + 2.0,
        "the drain and the write each publish an epoch"
    );
    let (ring_len, _, repacks) = live.status();
    assert_eq!((ring_len, repacks), (1, 1));

    #[cfg(not(feature = "obs-off"))]
    {
        let events: Vec<String> = engine
            .metrics()
            .journal()
            .take()
            .iter()
            .filter_map(|e| e.get("event").and_then(|v| v.as_str()).map(str::to_string))
            .collect();
        let pos = |name: &str| events.iter().position(|e| e == name);
        let start = pos("repack_start").expect("journal must record repack_start");
        let end = pos("repack_end").expect("journal must record repack_end");
        assert!(
            start < end,
            "repack_start must precede repack_end: {events:?}"
        );
        assert!(
            pos("epoch_published").is_some(),
            "publications must be journaled: {events:?}"
        );
    }

    // A repack that changes one cell (the triggering write still in
    // the ring): `subfields` is the new base's catalog size, `regroups`
    // counts only the subfields whose cell range is new.
    let report = live.repack(&engine).expect("repack");
    assert_eq!((report.repacked, report.drained), (true, 1));
    #[cfg(not(feature = "obs-off"))]
    {
        let journal = engine.metrics().journal().take();
        let end = journal
            .iter()
            .find(|e| e.get("event").and_then(|v| v.as_str()) == Some("repack_end"))
            .expect("journal must record repack_end");
        let num = |key: &str| {
            end.get(key)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("repack_end carries no `{key}`: {end:?}"))
        };
        let subfields = live.snapshot().num_intervals() as f64;
        assert_eq!(num("subfields"), subfields);
        assert!(
            num("regroups") * 4.0 <= subfields,
            "one changed cell regrouped {} of {subfields} subfields",
            num("regroups")
        );
    }
}

/// An ingest whose interval recompute fails mid-write (fault
/// injection on the read path) must leave the writer state, gauges
/// and published snapshot exactly as before the attempt — no
/// half-applied overlay, no stale `ingest_delta_records`.
#[test]
fn failed_ingest_leaves_state_and_gauges_consistent() {
    let field = wavy_field(8);
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let mut rng = Rng(41);
    let cell = rng.below(field.num_cells());
    let rec = rand_record(&field, cell, &mut rng);
    live.ingest(&engine, cell, rec).expect("ingest");
    let (delta_before, epoch_before, _) = live.status();
    let snap_before = live.snapshot();

    // Cold cache + ordinal 0: the interval recompute's first physical
    // read fails.
    engine.clear_faults();
    engine.clear_cache();
    engine.inject_fault(Fault::FailRead { nth: 0 });
    let cell2 = rng.below(field.num_cells());
    let rec2 = rand_record(&field, cell2, &mut rng);
    let err = live
        .ingest(&engine, cell2, rec2)
        .expect_err("injected fault");
    assert!(err.is_injected(), "{err}");
    engine.clear_faults();

    let (delta_after, epoch_after, _) = live.status();
    assert_eq!(
        (delta_after, epoch_after),
        (delta_before, epoch_before),
        "failed ingest must not mutate the writer state"
    );
    let gauge = |name: &str| engine.metrics().gauge_value(name, &[]).unwrap_or(-1.0);
    assert_eq!(gauge("ingest_delta_records"), delta_before as f64);
    assert_eq!(live.snapshot().epoch(), snap_before.epoch());
    // The plane still works after the fault.
    let cell3 = rng.below(field.num_cells());
    let rec3 = rand_record(&field, cell3, &mut rng);
    live.ingest(&engine, cell3, rec3).expect("recovered ingest");
}

/// The snapshot substitutes overlays with a cursor that advances as the
/// range sweep visits positions in ascending order. Here overlays sit
/// on each of its edges: the file's first and last positions, the first
/// and last record of a page and of a coalesced run, several positions
/// on one page, and positions outside every retrieved run, down to a
/// band that retrieves none of the overlaid subfields. Each overlay
/// moves one vertex within its subfields' intervals, so every band
/// retrieves the base catalog's runs and the edges stay where the test
/// put them. On both codecs, the
/// snapshot answers as `LinearScan` over the updated field (whose
/// native order sums the area in another order), and its area carries
/// the bits of a fresh build over that field, which sums the same
/// regions in the same file order.
#[test]
fn overlay_cursor_edges_answer_like_a_scan_of_the_updated_field() {
    let field = wavy_field(32);
    let n = field.num_cells();
    let order = cell_order(&field, Curve::Hilbert);
    let mut pos_of = vec![0; n];
    for (pos, &cell) in order.iter().enumerate() {
        pos_of[cell] = pos;
    }
    let intervals: Vec<Interval> = order.iter().map(|&c| field.cell_interval(c)).collect();
    // Each codec's base catalog: the build's rule within each page of a
    // twin cell file written in base order.
    let codecs = [PageCodec::Raw, PageCodec::Compressed];
    let files: Vec<CellFile<GridCellRecord>> = codecs
        .iter()
        .map(|&codec| {
            CellFile::create(
                &engine_with(codec),
                order.iter().map(|&c| field.cell_record(c)),
            )
            .expect("twin file")
        })
        .collect();
    let catalogs: Vec<Vec<Subfield>> = files
        .iter()
        .map(|file| build_subfields_by_page(&intervals, file, SubfieldConfig::default()))
        .collect();
    let subfield_of =
        |catalog: &[Subfield], pos: usize| catalog.partition_point(|sf| sf.end as usize <= pos);
    // The record runs `band` retrieves from a base catalog, merged as
    // the executor merges them.
    let runs = |catalog: &[Subfield], band: Interval| {
        let mut runs: Vec<Range<usize>> = Vec::new();
        for sf in catalog.iter().filter(|sf| sf.interval.intersects(band)) {
            match runs.last_mut() {
                Some(run) if run.end == sf.start as usize => run.end = sf.end as usize,
                _ => runs.push(sf.start as usize..sf.end as usize),
            }
        }
        runs
    };

    let band = Interval::new(10.0, 14.0);
    let mut targets = vec![0, n - 1];
    for catalog in &catalogs {
        let band_runs = runs(catalog, band);
        assert!(band_runs.len() >= 3, "{band_runs:?}");
        for run in &band_runs[..3] {
            targets.extend([run.start, run.end - 1]);
        }
    }
    // Outside every run of `band`, on both codecs.
    let first_run = runs(&catalogs[0], band)[0].clone();
    targets.push(
        (first_run.end..n)
            .find(|&p| {
                catalogs
                    .iter()
                    .all(|c| runs(c, band).iter().all(|r| !r.contains(&p)))
            })
            .expect("a position outside every run"),
    );
    for (file, codec) in files.iter().zip(codecs) {
        let page_of = |pos: usize| file.page_no_of(pos);
        let firsts: Vec<usize> = (1..n).filter(|&p| page_of(p) != page_of(p - 1)).collect();
        assert!(firsts.len() >= 2 && firsts[1] - firsts[0] > 9, "{codec:?}");
        for &first in &firsts[..2] {
            targets.extend([first - 1, first]);
        }
        targets.extend([firsts[0] + 2, firsts[0] + 5, firsts[0] + 9]);
    }

    // Move one corner of each target's cell to the middle of its
    // current value and the centre of the intervals of every subfield
    // (of either catalog) the vertex touches; keep the move only if no
    // subfield interval changes (a subfield extreme may not move).
    let (vw, _) = field.vertex_dims();
    let (cw, ch) = field.cell_dims();
    let mut values: Vec<f64> = (0..vw * vw)
        .map(|v| field.vertex_value(v % vw, v / vw))
        .collect();
    let cells_at = |v: usize| {
        let (x, y) = (v % vw, v / vw);
        let mut cells = Vec::new();
        for cy in y.saturating_sub(1)..=y.min(ch - 1) {
            for cx in x.saturating_sub(1)..=x.min(cw - 1) {
                cells.push(field.cell_index(cx, cy));
            }
        }
        cells
    };
    let keeps_catalogs = |f: &GridField| {
        catalogs.iter().flatten().all(|sf| {
            let union = (sf.start as usize..sf.end as usize)
                .map(|p| f.cell_interval(order[p]))
                .reduce(|a, b| a.union(b));
            union == Some(sf.interval)
        })
    };
    let mut overlaid = BTreeSet::new();
    for &target in &targets {
        let (cx, cy) = field.cell_coords(order[target]);
        let moved = [(0, 0), (1, 0), (0, 1), (1, 1)]
            .into_iter()
            .any(|(dx, dy)| {
                let v = (cy + dy) * vw + cx + dx;
                let room = cells_at(v)
                    .into_iter()
                    .flat_map(|c| {
                        let pos = pos_of[c];
                        catalogs
                            .iter()
                            .map(move |catalog| catalog[subfield_of(catalog, pos)].interval)
                    })
                    .reduce(|a, b| Interval::new(a.lo.max(b.lo), a.hi.min(b.hi)))
                    .expect("a vertex touches a cell");
                let old = values[v];
                values[v] = 0.5 * (old + 0.5 * (room.lo + room.hi));
                if values[v] != old
                    && keeps_catalogs(&GridField::from_values(vw, vw, values.clone()))
                {
                    overlaid.extend(cells_at(v));
                    true
                } else {
                    values[v] = old;
                    false
                }
            });
        assert!(moved, "no corner of position {target} can move");
    }
    let updated = GridField::from_values(vw, vw, values);
    let overlaid_positions: BTreeSet<usize> = overlaid.iter().map(|&c| pos_of[c]).collect();
    assert!(targets.iter().all(|t| overlaid_positions.contains(t)));

    // A band whose runs hold no overlaid position, on both codecs.
    let quiet = (0..400)
        .map(|i| {
            let lo = -60.0 + i as f64 * 0.3;
            Interval::new(lo, lo + 0.5)
        })
        .find(|&b| {
            catalogs.iter().all(|catalog| {
                let hits: Vec<&Subfield> = catalog
                    .iter()
                    .filter(|sf| sf.interval.intersects(b))
                    .collect();
                !hits.is_empty()
                    && hits.iter().all(|sf| {
                        overlaid_positions
                            .range(sf.start as usize..sf.end as usize)
                            .next()
                            .is_none()
                    })
            })
        })
        .expect("a band that retrieves no overlaid subfield");
    let mut bands = vec![band, quiet];
    bands.extend(fixed_bands());

    for (codec, catalog) in codecs.into_iter().zip(&catalogs) {
        let ctx = format!("{codec:?}");
        let engine = engine_with(codec);
        let base = IHilbert::build(&engine, &field).expect("build");
        let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
        let before = live.snapshot().query_stats(&engine, band).expect("query");
        for &cell in &overlaid {
            live.ingest(&engine, cell, updated.cell_record(cell))
                .expect("ingest");
        }
        assert_eq!(live.status().0, overlaid.len(), "{ctx}: nothing drained");
        let snapshot = live.snapshot();
        let scan = LinearScan::build(&engine, &updated).expect("scan");
        let fresh = IHilbert::build(&engine, &updated).expect("fresh build");
        for &b in &bands {
            let ctx = format!("{ctx}, band {b}");
            let got = snapshot.query_stats(&engine, b).expect("snapshot");
            let want = scan.query_stats(&engine, b).expect("scan");
            assert_eq!(got.cells_qualifying, want.cells_qualifying, "{ctx}");
            assert_eq!(got.num_regions, want.num_regions, "{ctx}");
            assert!(
                (got.area - want.area).abs() <= 1e-9 * want.area.max(1.0),
                "{ctx}: area {} vs {}",
                got.area,
                want.area
            );
            let fresh = fresh.query_stats(&engine, b).expect("fresh");
            assert_bitexact(&got, &fresh, &ctx);
            let examined: usize = runs(catalog, b).iter().map(|r| r.len()).sum();
            assert_eq!(got.cells_examined, examined, "{ctx}");
        }
        let got = snapshot.query_stats(&engine, band).expect("snapshot");
        assert_ne!(
            got.area.to_bits(),
            before.area.to_bits(),
            "{ctx}: the overlays must move the answer"
        );
    }
}

fn engine_with(codec: PageCodec) -> StorageEngine {
    StorageEngine::new(StorageConfig {
        codec,
        ..StorageConfig::default()
    })
}
