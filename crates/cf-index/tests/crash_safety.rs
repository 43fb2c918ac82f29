//! Crash-consistency of the two-slot catalog commit, driven by the
//! deterministic fault injector.
//!
//! The property under test: **every** physical-write prefix of
//! [`IHilbert::save_to`] — including a torn final commit write — leaves
//! a catalog that [`IHilbert::open`] accepts, and the reopened index
//! answers queries exactly like the live one. The cell/subfield/tree
//! pages are updated in place before the save, so whichever slot wins
//! after the crash, the answers must reflect the current data.

use cf_field::{FieldModel, GridField};
use cf_geom::Interval;
use cf_index::{CurveChoice, IHilbert, IHilbertConfig, LinearScan, QueryStats, ValueIndex};
use cf_sfc::Curve;
use cf_storage::{
    codec, compress, Fault, FaultOp, PageBuf, PageCodec, PageId, StorageConfig, StorageEngine,
    PAGE_SIZE,
};
use std::path::{Path, PathBuf};

fn wavy_field(n: usize, phase: f64) -> GridField {
    let vw = n + 1;
    let mut values = Vec::new();
    for y in 0..vw {
        for x in 0..vw {
            values.push((x as f64 * 0.4 + phase).sin() * 30.0 + (y as f64 * 0.3).cos() * 20.0);
        }
    }
    GridField::from_values(vw, vw, values)
}

fn bands() -> Vec<Interval> {
    (0..12)
        .map(|i| {
            let lo = -50.0 + i as f64 * 8.0;
            Interval::new(lo, lo + 11.0)
        })
        .collect()
}

fn answers(index: &impl ValueIndex, engine: &StorageEngine) -> Vec<QueryStats> {
    bands()
        .iter()
        .map(|&b| index.query_stats(engine, b).expect("query"))
        .collect()
}

fn assert_same_answers(got: &[QueryStats], want: &[QueryStats], ctx: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.cells_qualifying, w.cells_qualifying, "{ctx}: band {i}");
        assert_eq!(g.num_regions, w.num_regions, "{ctx}: band {i}");
        assert_eq!(
            g.area.to_bits(),
            w.area.to_bits(),
            "{ctx}: band {i} area {} vs {}",
            g.area,
            w.area
        );
    }
}

/// Builds an index over `field_a`, saves it, then updates every cell to
/// `field_b`'s records — the persisted data pages now hold state B while
/// the live catalog epoch still describes the same layout.
fn build_saved_and_updated(
    engine: &StorageEngine,
) -> (IHilbert<GridField>, cf_storage::PageId, Vec<QueryStats>) {
    let field_a = wavy_field(24, 0.0);
    let field_b = wavy_field(24, 1.7);
    let mut index = IHilbert::build(engine, &field_a).expect("build");
    let catalog = index.save(engine).expect("save");
    for cell in 0..field_b.num_cells() {
        index
            .update_cell(engine, cell, field_b.cell_record(cell))
            .expect("update");
    }
    let expected = answers(&index, engine);
    // Sanity: the expected answers really are state B, not state A.
    let scan = LinearScan::build(engine, &field_b).expect("build");
    for (s, b) in expected.iter().zip(bands()) {
        let w = scan.query_stats(engine, b).expect("query");
        assert_eq!(s.cells_qualifying, w.cells_qualifying);
    }
    // Record-file creation buffers its writes, so the scan above left
    // dirty pages in the pool. Drain them now so the callers' baseline
    // write counts measure save_to alone, not leftover flush traffic.
    engine.flush().expect("drain pool");
    (index, catalog, expected)
}

#[test]
fn every_write_prefix_of_save_leaves_an_openable_catalog() {
    let engine = StorageEngine::in_memory();
    let (index, catalog, expected) = build_saved_and_updated(&engine);

    // Count the physical writes of one full save_to.
    engine.clear_faults();
    index.save_to(&engine, catalog).expect("baseline save");
    let (_, writes) = engine.fault_ops();
    assert!(writes >= 2, "save_to must write pos pages + commit slot");

    let metrics = engine.metrics().clone();
    let fired_before = metrics
        .counter_value("storage_faults_injected_total", &[("op", "write")])
        .unwrap_or(0);
    for k in 0..writes {
        engine.clear_faults();
        engine.inject_fault(Fault::FailWrite { nth: k });
        let err = index
            .save_to(&engine, catalog)
            .expect_err("armed write fault must fire");
        assert!(err.is_injected(), "crash at write {k}: {err}");
        // The injector recorded exactly the armed crash point: the
        // fault we configured, fired at its own ordinal, on a write.
        let fired = engine.fired_faults();
        assert_eq!(fired.len(), 1, "crash at write {k}: {fired:?}");
        assert_eq!(fired[0].op, FaultOp::Write, "crash at write {k}");
        assert_eq!(fired[0].ordinal, k, "crash at write {k}");
        assert_eq!(fired[0].fault, Fault::FailWrite { nth: k });
        engine.clear_faults();
        // A crash loses the buffer pool; reopen reads the disk's truth.
        engine.clear_cache();
        let reopened = IHilbert::<GridField>::open(&engine, catalog)
            .unwrap_or_else(|e| panic!("reopen after crash at write {k}: {e}"));
        let got = answers(&reopened, &engine);
        assert_same_answers(&got, &expected, &format!("crash at write {k}"));
    }

    // Every injected crash also landed in the metrics registry: one
    // fired write fault per loop iteration, none lost to clear_faults.
    assert_eq!(
        metrics
            .counter_value("storage_faults_injected_total", &[("op", "write")])
            .unwrap_or(0)
            - fired_before,
        writes,
        "registry must count every fired write fault"
    );

    // After surviving every crash point, a clean save still commits.
    engine.clear_faults();
    index.save_to(&engine, catalog).expect("final save");
    engine.clear_cache();
    let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("final open");
    assert_same_answers(&answers(&reopened, &engine), &expected, "final");
}

#[test]
fn torn_commit_write_falls_back_to_previous_slot() {
    let engine = StorageEngine::in_memory();
    let (index, catalog, expected) = build_saved_and_updated(&engine);

    engine.clear_faults();
    index.save_to(&engine, catalog).expect("baseline save");
    let (_, writes) = engine.fault_ops();

    // Tear the *commit* write — the last physical write of save_to — at
    // several cut points, including one byte and almost-whole.
    for keep in [1usize, 96, 1024, 4095] {
        engine.clear_faults();
        engine.inject_fault(Fault::TornWrite {
            nth: writes - 1,
            keep,
        });
        let err = index
            .save_to(&engine, catalog)
            .expect_err("torn commit must report the crash");
        assert!(err.is_injected(), "keep={keep}: {err}");
        let fired = engine.fired_faults();
        assert_eq!(fired.len(), 1, "keep={keep}: {fired:?}");
        assert_eq!(
            fired[0].fault,
            Fault::TornWrite {
                nth: writes - 1,
                keep
            },
            "keep={keep}"
        );
        assert_eq!(fired[0].ordinal, writes - 1, "keep={keep}");
        engine.clear_faults();
        engine.clear_cache();
        let reopened = IHilbert::<GridField>::open(&engine, catalog)
            .unwrap_or_else(|e| panic!("reopen after torn commit (keep={keep}): {e}"));
        assert_same_answers(
            &answers(&reopened, &engine),
            &expected,
            &format!("torn commit keep={keep}"),
        );
    }
}

#[test]
fn open_survives_one_unreadable_slot() {
    let engine = StorageEngine::in_memory();
    let (index, catalog, expected) = build_saved_and_updated(&engine);
    engine.clear_faults();
    index.save_to(&engine, catalog).expect("save");

    // Fail the first physical read (slot 0's page) during open: the
    // lenient slot scan must fall through to the other slot.
    engine.clear_cache();
    engine.clear_faults();
    engine.inject_fault(Fault::FailRead { nth: 0 });
    let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("open with one dead slot");
    let fired = engine.fired_faults();
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].op, FaultOp::Read);
    assert_eq!(fired[0].ordinal, 0);
    engine.clear_faults();
    assert_same_answers(&answers(&reopened, &engine), &expected, "one dead slot");
}

// ---------------------------------------------------------------------
// The same properties over real file backing: a crash is simulated by
// opening a *second* engine on the same path — it sees only the bytes
// that physically reached the file, never the first engine's buffer
// pool.
// ---------------------------------------------------------------------

fn cleanup(path: &Path) {
    for ext in ["", ".crc", ".fsm"] {
        let _ = std::fs::remove_file(format!("{}{ext}", path.display()));
    }
}

fn file_engine(tag: &str) -> (StorageEngine, PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "cf_crash_{tag}_{}_{:?}.db",
        std::process::id(),
        std::thread::current().id()
    ));
    cleanup(&path);
    let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("open file");
    (engine, path)
}

#[test]
fn save_crash_points_leave_an_openable_catalog_on_file_backing() {
    let (engine, path) = file_engine("save");
    let (index, catalog, expected) = build_saved_and_updated(&engine);

    engine.clear_faults();
    index.save_to(&engine, catalog).expect("baseline save");
    let (_, writes) = engine.fault_ops();
    assert!(writes >= 2, "save_to must write pos pages + commit slot");

    for k in 0..writes {
        engine.clear_faults();
        engine.inject_fault(Fault::FailWrite { nth: k });
        let err = index
            .save_to(&engine, catalog)
            .expect_err("armed write fault must fire");
        assert!(err.is_injected(), "crash at write {k}: {err}");
        engine.clear_faults();
        // The post-crash disk view: a second engine on the same file.
        // The crashed engine's dirty frames are invisible to it.
        let after = StorageEngine::open_file(&path, StorageConfig::default())
            .unwrap_or_else(|e| panic!("reopen engine after crash at write {k}: {e}"));
        let reopened = IHilbert::<GridField>::open(&after, catalog)
            .unwrap_or_else(|e| panic!("reopen catalog after crash at write {k}: {e}"));
        assert_same_answers(
            &answers(&reopened, &after),
            &expected,
            &format!("file crash at write {k}"),
        );
        drop(after);
        // Drain the crashed save's orphaned buffers so every loop
        // iteration starts from the same pool state (deterministic
        // write ordinals).
        engine.clear_cache();
    }

    engine.clear_faults();
    index.save_to(&engine, catalog).expect("final save");
    engine.sync().expect("sync");
    drop(index);
    drop(engine);
    let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("final reopen");
    let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("final open");
    assert_same_answers(&answers(&reopened, &engine), &expected, "file final");
    drop(reopened);
    drop(engine);
    cleanup(&path);
}

/// Crashes a free+reallocate cycle at every physical-write ordinal —
/// including the freelist superblock commit writes — and checks the
/// storage-level invariant: a crash may *leak* pages, but a reopened
/// engine never hands out a page that still holds live data.
#[test]
fn freelist_crash_points_on_file_backing_never_double_allocate() {
    const LIVE: [u64; 4] = [0, 1, 6, 7];

    fn stamp(i: u64) -> PageBuf {
        let mut page = [0u8; PAGE_SIZE];
        page[..8].copy_from_slice(&(0xC0FF_EE00 + i).to_le_bytes());
        page
    }

    // One fresh file per crash point: the cycle's write sequence is
    // deterministic, so the ordinal count measured once carries over.
    fn setup(tag: &str) -> (StorageEngine, PathBuf) {
        let (engine, path) = file_engine(tag);
        let first = engine.allocate_run(8).expect("allocate");
        assert_eq!(first, PageId(0));
        for i in 0..8u64 {
            engine.write_page(PageId(i), &stamp(i)).expect("write");
        }
        engine.sync().expect("sync");
        engine.clear_faults();
        (engine, path)
    }

    let (engine, path) = setup("fsm_baseline");
    engine.free_run(PageId(2), 4).expect("free");
    let reused = engine.allocate_run(4).expect("reallocate");
    assert_eq!(reused, PageId(2), "the hole must be reused");
    let (_, writes) = engine.fault_ops();
    assert!(writes >= 2, "cycle must hit the superblock and zero pages");
    drop(engine);
    cleanup(&path);

    for k in 0..writes {
        let (engine, path) = setup(&format!("fsm_{k}"));
        engine.inject_fault(Fault::FailWrite { nth: k });
        let err = engine
            .free_run(PageId(2), 4)
            .and_then(|()| engine.allocate_run(4).map(|_| ()))
            .expect_err("armed write fault must fire");
        assert!(err.is_injected(), "crash at write {k}: {err}");
        drop(engine);

        let after = StorageEngine::open_file(&path, StorageConfig::default())
            .unwrap_or_else(|e| panic!("reopen after crash at write {k}: {e}"));
        for i in LIVE {
            let got = after
                .with_page(PageId(i), |buf| buf[..8].to_vec())
                .unwrap_or_else(|e| panic!("live page {i} after crash at write {k}: {e}"));
            assert_eq!(
                got,
                stamp(i)[..8].to_vec(),
                "live page {i}, crash at write {k}"
            );
        }
        // Whatever the freelist recovered to, it must never hand the
        // live pages out again.
        let run = after.allocate_run(4).expect("allocate after crash");
        for i in LIVE {
            assert!(
                !(run.0..run.0 + 4).contains(&i),
                "crash at write {k}: reallocated live page {i} (run starts at {})",
                run.0
            );
        }
        for off in 0..4u64 {
            after
                .write_page(PageId(run.0 + off), &stamp(100 + off))
                .expect("write to fresh run");
        }
        for i in LIVE {
            let got = after
                .with_page(PageId(i), |buf| buf[..8].to_vec())
                .expect("live page");
            assert_eq!(
                got,
                stamp(i)[..8].to_vec(),
                "live page {i} clobbered, crash at write {k}"
            );
        }
        drop(after);
        cleanup(&path);
    }
}

/// Repeated `save_to` cycles on file backing must not grow the file
/// without bound: each commit frees the position map its slot replaced,
/// so allocation recycles the holes and the size plateaus. The second
/// input saves through the live-ingest plane: every cycle re-ingests
/// unchanged records, repacks and saves, so each repack also retires
/// the superseded cell file, tree and subfield catalog to the freelist.
#[test]
fn repeated_saves_on_file_backing_reach_a_steady_state_size() {
    use cf_index::{IngestConfig, LiveIngest};

    for repack in [false, true] {
        let ctx = if repack { "repack + save" } else { "save" };
        let (engine, path) = file_engine(if repack { "steady_repack" } else { "steady" });
        let field = wavy_field(24, 0.3);
        let index = IHilbert::build(&engine, &field).expect("build");
        let expected = answers(&index, &engine);
        let mut sizes = Vec::new();
        let catalog = if repack {
            let live = LiveIngest::new(&engine, index, IngestConfig::default()).expect("live");
            let catalog = live.save(&engine).expect("save");
            for round in 0..8 {
                for cell in 0..field.num_cells() {
                    let rec = live.cell_record(&engine, cell).expect("cell record");
                    live.ingest(&engine, cell, rec).expect("ingest");
                }
                let report = live.repack(&engine).expect("repack");
                assert!(report.pages_retired > 0, "{ctx}: round {round}");
                assert_same_answers(&answers(&*live.snapshot(), &engine), &expected, ctx);
                live.save_to(&engine, catalog).expect("save");
                sizes.push(engine.num_pages());
            }
            catalog
        } else {
            let catalog = index.save(&engine).expect("save");
            for _ in 0..8 {
                index.save_to(&engine, catalog).expect("save");
                sizes.push(engine.num_pages());
            }
            catalog
        };
        // Two position maps stay in flight (live slot + fallback slot);
        // the rest recycle. Once the pipeline fills, the size may
        // oscillate by one run as tail frees truncate, but never
        // passes the high-water mark of the first three cycles.
        let high_water = sizes[..3].iter().max();
        assert!(
            sizes[3..].iter().max() <= high_water,
            "{ctx}: file must stop growing: {sizes:?}"
        );
        let freed = engine.metrics().counter_total("storage_pages_freed_total");
        let reused = engine.metrics().counter_total("storage_pages_reused_total");
        assert!(
            freed > 0 && reused > 0,
            "{ctx}: steady state requires freeing ({freed}) and reuse ({reused}): {sizes:?}"
        );
        // And the recycled file still opens with the same answers.
        engine.sync().expect("sync");
        drop(engine);
        let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("reopen");
        let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("open");
        assert_same_answers(&answers(&reopened, &engine), &expected, ctx);
        drop(reopened);
        drop(engine);
        cleanup(&path);
    }
}

/// Acceptance: the file-backed database answers byte-identically after
/// a real close-and-reopen, for all four curves.
#[test]
fn file_backed_round_trip_preserves_answers_for_all_curves_and_planes() {
    let field = wavy_field(20, 0.6);
    for curve in Curve::ALL {
        let (engine, path) = file_engine(&format!("rt_{curve:?}"));
        let index = IHilbert::build_with(
            &engine,
            &field,
            IHilbertConfig {
                curve: CurveChoice(curve),
                ..Default::default()
            },
        )
        .expect("build");
        let want: Vec<QueryStats> = answers(&index, &engine);
        let catalog = index.save(&engine).expect("save");
        engine.sync().expect("sync");
        drop(index);
        drop(engine);

        let engine = StorageEngine::open_file(&path, StorageConfig::default()).expect("reopen");
        let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("open");
        let got = answers(&reopened, &engine);
        assert_same_answers(&got, &want, &format!("file {curve:?}"));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.filter_nodes, w.filter_nodes,
                "file {curve:?}: band {i} filter_nodes"
            );
        }
        drop(reopened);
        drop(engine);
        cleanup(&path);
    }
}

fn compressed_engine() -> StorageEngine {
    StorageEngine::new(StorageConfig {
        codec: PageCodec::Compressed,
        ..StorageConfig::default()
    })
}

/// Save/open round-trip under the compressed page codec: the v3 catalog
/// must carry the codec tag and data-page counts, and the reopened
/// index must answer bit-identically — including after in-place cell
/// updates against compressed pages.
#[test]
fn compressed_catalog_round_trip_preserves_answers_and_updates() {
    let engine = compressed_engine();
    let field_a = wavy_field(24, 0.0);
    let field_b = wavy_field(24, 1.7);
    let mut index = IHilbert::build(&engine, &field_a).expect("build");
    let catalog = index.save(&engine).expect("save");

    engine.clear_cache();
    let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("open");
    assert_same_answers(
        &answers(&reopened, &engine),
        &answers(&index, &engine),
        "compressed reopen",
    );

    // In-place updates re-encode compressed pages; the build-time slack
    // must absorb one rewrite per page. A second save/open round-trip
    // then carries the new state.
    for cell in 0..field_b.num_cells() {
        index
            .update_cell(&engine, cell, field_b.cell_record(cell))
            .expect("update");
    }
    let expected = answers(&index, &engine);
    index.save_to(&engine, catalog).expect("save 2");
    engine.clear_cache();
    let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("open 2");
    assert_same_answers(&answers(&reopened, &engine), &expected, "after updates");
}

/// Every physical-write prefix of `save_to` leaves an openable catalog
/// under the compressed codec too — the commit protocol is codec-blind.
#[test]
fn compressed_save_crash_points_leave_an_openable_catalog() {
    let engine = compressed_engine();
    let field = wavy_field(24, 0.0);
    let index = IHilbert::build(&engine, &field).expect("build");
    let catalog = index.save(&engine).expect("save");
    let expected = answers(&index, &engine);
    engine.flush().expect("drain pool");

    engine.clear_faults();
    index.save_to(&engine, catalog).expect("baseline save");
    let (_, writes) = engine.fault_ops();
    for k in 0..writes {
        engine.clear_faults();
        engine.inject_fault(Fault::FailWrite { nth: k });
        let err = index
            .save_to(&engine, catalog)
            .expect_err("armed write fault must fire");
        assert!(err.is_injected(), "crash at write {k}: {err}");
        engine.clear_faults();
        engine.clear_cache();
        let reopened = IHilbert::<GridField>::open(&engine, catalog)
            .unwrap_or_else(|e| panic!("reopen after crash at write {k}: {e}"));
        assert_same_answers(
            &answers(&reopened, &engine),
            &expected,
            &format!("compressed crash at write {k}"),
        );
    }
}

/// Satellite: a torn write *inside* an encoded cell page decodes to
/// `CfError::Corrupt` naming the page — never a wrong answer, never a
/// panic. The garbage is written through `write_page`, which reseals
/// the physical page checksum, so only the codec's structural
/// validation stands between the corruption and the query result.
#[test]
fn torn_compressed_cell_page_surfaces_corrupt_not_wrong_answers() {
    let engine = compressed_engine();
    let field = wavy_field(24, 0.0);
    let index = IHilbert::build(&engine, &field).expect("build");

    // The cell file is the build's first allocation on a fresh engine,
    // so its first data page is page 0; verify via the codec magic
    // rather than trusting the layout.
    let cell_page = PageId(0);
    let mut buf = engine.with_page(cell_page, |p| *p).expect("read");
    assert_eq!(
        codec::try_get_u16(&buf, 0),
        Some(compress::PAGE_MAGIC),
        "expected the cell file's first compressed page at page 0"
    );

    let pristine = buf;
    // Several tear shapes: header clobbered, payload clobbered with a
    // value whose control bytes are structurally invalid, payload
    // zeroed mid-way (a real torn write's tail), and a single bit flip.
    type Tear = Box<dyn Fn(&mut PageBuf)>;
    let tears: Vec<(&str, Tear)> = vec![
        ("zero header", Box::new(|p: &mut PageBuf| p[..8].fill(0))),
        (
            "garbage payload",
            Box::new(|p: &mut PageBuf| p[8..2048].fill(0xA5)),
        ),
        ("zero tail", Box::new(|p: &mut PageBuf| p[64..].fill(0))),
        (
            "count inflated",
            Box::new(|p: &mut PageBuf| {
                let n = codec::try_get_u16(p, 2).expect("page header");
                codec::put_u16(p, 2, n.wrapping_add(7));
            }),
        ),
    ];
    for (what, tear) in tears {
        buf = pristine;
        tear(&mut buf);
        engine.write_page(cell_page, &buf).expect("corrupt write");
        engine.clear_cache();
        let err = index
            .query_stats(&engine, Interval::new(-100.0, 100.0))
            .expect_err(&format!("query over torn page ({what}) must fail"));
        assert!(err.is_corrupt(), "{what}: {err}");
        assert_eq!(err.page(), Some(cell_page), "{what}: {err}");
    }

    // Restoring the page restores bit-identical answers.
    engine.write_page(cell_page, &pristine).expect("restore");
    engine.clear_cache();
    index
        .query_stats(&engine, Interval::new(-100.0, 100.0))
        .expect("query after restore");
}

/// Satellite: every physical-write ordinal of the live-ingest epoch
/// publish sequence — net-delta flush, position-map flush, catalog v4
/// slot commit, post-commit frees — crashes onto a **consistent
/// epoch**: the reopened ingest plane answers exactly like either the
/// last committed state or the state being committed, never a torn
/// mix of the two.
#[test]
fn live_ingest_save_crash_points_land_on_a_consistent_epoch() {
    use cf_index::{IngestConfig, LiveIngest};

    fn snap_answers(live: &LiveIngest<GridField>, engine: &StorageEngine) -> Vec<QueryStats> {
        bands()
            .iter()
            .map(|&b| {
                live.snapshot()
                    .query_stats(engine, b)
                    .expect("snapshot query")
            })
            .collect()
    }

    fn same_answers(got: &[QueryStats], want: &[QueryStats]) -> bool {
        got.iter().zip(want).all(|(g, w)| {
            g.cells_qualifying == w.cells_qualifying
                && g.num_regions == w.num_regions
                && g.area.to_bits() == w.area.to_bits()
        })
    }

    let engine = StorageEngine::in_memory();
    let field = wavy_field(20, 0.0);
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    // Seed the delta so every save really flushes one, then commit a
    // baseline epoch.
    for cell in 0..24 {
        let mut rec = field.cell_record(cell);
        rec.vals = [90.0 + cell as f64; 4];
        live.ingest(&engine, cell, rec).expect("ingest");
    }
    let catalog = live.save(&engine).expect("baseline save");
    let mut want_old = snap_answers(&live, &engine);

    let mut crashes = 0usize;
    for k in 0u64.. {
        // Each iteration commits a *different* state, so the fallback
        // epoch and the committed epoch are distinguishable.
        let cell = k as usize % field.num_cells();
        let mut rec = field.cell_record(cell);
        rec.vals = [-80.0 - k as f64; 4];
        live.ingest(&engine, cell, rec).expect("ingest");
        let want_new = snap_answers(&live, &engine);

        engine.clear_faults();
        engine.inject_fault(Fault::FailWrite { nth: k });
        match live.save_to(&engine, catalog) {
            Err(err) => {
                assert!(err.is_injected(), "crash at write {k}: {err}");
                let fired = engine.fired_faults();
                assert_eq!(fired.len(), 1, "crash at write {k}: {fired:?}");
                assert_eq!(fired[0].op, FaultOp::Write, "crash at write {k}");
                assert_eq!(fired[0].ordinal, k, "crash at write {k}");
                engine.clear_faults();
                // A crash loses the buffer pool; reopen disk truth.
                engine.clear_cache();
                let reopened =
                    LiveIngest::<GridField>::open(&engine, catalog, IngestConfig::default())
                        .unwrap_or_else(|e| panic!("reopen after crash at write {k}: {e}"));
                let got = snap_answers(&reopened, &engine);
                assert!(
                    same_answers(&got, &want_old) || same_answers(&got, &want_new),
                    "crash at write {k}: reopened epoch matches neither the fallback nor \
                     the committed state"
                );
                // Reconverge: commit the current state cleanly so the
                // next iteration's fallback is well-defined.
                live.save_to(&engine, catalog).expect("clean save");
                want_old = want_new;
                crashes += 1;
            }
            Ok(()) => {
                // Ordinal past the save's write count: the armed fault
                // never fired and the sequence is fully covered.
                assert!(engine.fired_faults().is_empty(), "write {k}");
                engine.clear_faults();
                break;
            }
        }
    }
    assert!(
        crashes >= 3,
        "must cover delta flush, pos flush, commit and frees ({crashes} ordinals)"
    );
}

/// Satellite: catalog round-trip across every curve — the reopened
/// index must answer Q2 identically, including the filter-step visit
/// counts.
#[test]
fn round_trip_preserves_answers_for_all_curves_and_planes() {
    let field = wavy_field(20, 0.6);
    for curve in Curve::ALL {
        let engine = StorageEngine::in_memory();
        let index = IHilbert::build_with(
            &engine,
            &field,
            IHilbertConfig {
                curve: CurveChoice(curve),
                ..Default::default()
            },
        )
        .expect("build");
        let want: Vec<QueryStats> = answers(&index, &engine);
        let catalog = index.save(&engine).expect("save");

        engine.clear_cache();
        let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("open");
        let got = answers(&reopened, &engine);
        assert_same_answers(&got, &want, &format!("{curve:?}"));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.filter_nodes, w.filter_nodes,
                "{curve:?}: band {i} filter_nodes"
            );
        }
    }
}
