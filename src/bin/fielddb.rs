//! `fielddb` — a small command-line front end for the continuous-field
//! database: create a persistent database file from a generated field,
//! inspect it, and run field value queries against it across process
//! restarts.
//!
//! ```sh
//! fielddb create  /tmp/terrain.db --workload terrain --k 8
//! fielddb info    /tmp/terrain.db
//! fielddb query   /tmp/terrain.db 300 350 --regions 3
//! fielddb explain /tmp/terrain.db 300 350 --json   # one traced query
//! fielddb ingest  /tmp/terrain.db --updates 512    # live epoch plane
//! fielddb point   /tmp/terrain.db 17.5 42.25
//! ```
//!
//! Layout: page 0 is the bootstrap page (magic + catalog page pointer);
//! the catalog page records where the cell file, position map,
//! R\*-tree and box file (one spatial box per data page, which `point`
//! reads) live — the tree's leaves are the subfield catalog (see
//! `cf_index`'s catalog module, which reads and writes both). Every command but `create` refuses a database path
//! that does not exist. `repro record` captures a `.wrk` workload from a
//! database this tool created, and `repro replay` re-executes it.

use contfield::field::{FieldModel, GridField};
use contfield::geom::Interval;
use contfield::index::{
    create_database, open_database, read_bootstrap, write_bootstrap, IHilbert, IngestConfig,
    LiveIngest, ValueIndex,
};
use contfield::storage::{PageCodec, StorageConfig, StorageEngine};
use contfield::workload::{fractal::diamond_square, monotonic::monotonic_field, terrain};
use std::ops::RangeInclusive;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Executes one CLI invocation, returning its stdout text.
fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    match cmd.as_str() {
        "create" => {
            let path = it.next().ok_or_else(usage)?.clone();
            let mut workload = "terrain".to_string();
            let mut k = 7u32;
            let mut h = 0.7f64;
            let mut seed = 42u64;
            let mut codec = PageCodec::Raw;
            let mut eng = EngineOpts::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--workload" => workload = take(&mut it, flag)?,
                    "--k" => k = take_in(&mut it, flag, GRID_K)?,
                    "--h" => h = take_in(&mut it, flag, UNIT)?,
                    "--seed" => seed = parse(&take(&mut it, flag)?)?,
                    "--codec" => {
                        let name = take(&mut it, flag)?;
                        codec = PageCodec::parse(&name)
                            .ok_or_else(|| format!("unknown codec {name:?} (raw or compressed)"))?;
                    }
                    other => eng.parse_flag(other, &mut it)?,
                }
            }
            let config = StorageConfig {
                codec,
                ..eng.config()
            };
            create(&path, &workload, k, h, seed, config)
        }
        "info" => {
            let path = it.next().ok_or_else(usage)?.clone();
            let mut eng = EngineOpts::default();
            while let Some(flag) = it.next() {
                eng.parse_flag(flag, &mut it)?;
            }
            info(&path, eng)
        }
        "query" => {
            let path = it.next().ok_or_else(usage)?.clone();
            let band = take_band(&mut it)?;
            let mut regions = 0usize;
            let mut eng = EngineOpts::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--regions" => regions = parse(&take(&mut it, flag)?)?,
                    other => eng.parse_flag(other, &mut it)?,
                }
            }
            query(&path, band, regions, eng)
        }
        "explain" => {
            let path = it.next().ok_or_else(usage)?.clone();
            let band = take_band(&mut it)?;
            let mut json = false;
            let mut eng = EngineOpts::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--json" => json = true,
                    other => eng.parse_flag(other, &mut it)?,
                }
            }
            explain(&path, band, json, eng)
        }
        "ingest" => {
            let path = it.next().ok_or_else(usage)?.clone();
            let mut updates = 256usize;
            let mut seed = 42u64;
            let mut capacity = 4096usize;
            let mut eng = EngineOpts::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--updates" => updates = parse(&take(&mut it, flag)?)?,
                    "--seed" => seed = parse(&take(&mut it, flag)?)?,
                    "--capacity" => capacity = parse(&take(&mut it, flag)?)?,
                    other => eng.parse_flag(other, &mut it)?,
                }
            }
            ingest(&path, updates, seed, capacity, eng)
        }
        "point" => {
            let path = it.next().ok_or_else(usage)?.clone();
            let x: f64 = parse(it.next().ok_or_else(usage)?)?;
            let y: f64 = parse(it.next().ok_or_else(usage)?)?;
            let mut eng = EngineOpts::default();
            while let Some(flag) = it.next() {
                eng.parse_flag(flag, &mut it)?;
            }
            point(&path, x, y, eng)
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  fielddb create <db> [--workload terrain|fractal|monotonic] [--k N] [--h F] [--seed N] [--codec raw|compressed]\n  fielddb info <db>\n  fielddb query <db> <lo> <hi> [--regions N]\n  fielddb explain <db> <lo> <hi> [--json]\n  fielddb ingest <db> [--updates N] [--seed N] [--capacity N]\n  fielddb point <db> <x> <y>\nevery command also accepts: [--pool PAGES]".into()
}

/// The storage-engine flag every command takes: `--pool PAGES` sizes
/// the buffer pool. The page codec is `create`'s alone: a database
/// keeps the codec it was created with, through every repack.
#[derive(Default, Clone, Copy)]
struct EngineOpts {
    pool: Option<usize>,
}

impl EngineOpts {
    fn parse_flag(&mut self, flag: &str, it: &mut std::slice::Iter<String>) -> Result<(), String> {
        match flag {
            "--pool" => {
                let pages: usize = parse(&take(it, flag)?)?;
                if pages == 0 {
                    return Err("--pool needs at least one page".into());
                }
                self.pool = Some(pages);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        Ok(())
    }

    fn config(self) -> StorageConfig {
        let mut config = StorageConfig::default();
        if let Some(pool) = self.pool {
            config.pool_pages = pool;
        }
        config
    }
}

fn take(it: &mut std::slice::Iter<String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

/// Grid exponents the field generators accept (`2^k × 2^k` cells).
const GRID_K: RangeInclusive<u32> = 1..=14;
/// Fractions of a whole: `--h`.
const UNIT: RangeInclusive<f64> = 0.0..=1.0;

/// The value of `flag`, rejected unless `range` contains it (NaN never
/// is): the library `assert!`s the same ranges, and a command-line
/// typo must not reach them.
fn take_in<T>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
    range: RangeInclusive<T>,
) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let value: T = parse(&take(it, flag)?)?;
    if range.contains(&value) {
        Ok(value)
    } else {
        let (lo, hi) = (range.start(), range.end());
        Err(format!("{flag} {value} is outside [{lo}, {hi}]"))
    }
}

/// The `<lo> <hi>` positionals as a band; NaN ends and `lo > hi` are
/// rejected here so `Interval::new` never sees them.
fn take_band(it: &mut std::slice::Iter<String>) -> Result<Interval, String> {
    let lo: f64 = parse(it.next().ok_or_else(usage)?)?;
    let hi: f64 = parse(it.next().ok_or_else(usage)?)?;
    if lo <= hi {
        Ok(Interval::new(lo, hi))
    } else {
        Err(format!("band [{lo}, {hi}] needs lo <= hi"))
    }
}

fn open_index(engine: &StorageEngine) -> Result<IHilbert<GridField>, String> {
    let catalog = read_bootstrap(engine).map_err(|e| e.to_string())?;
    IHilbert::open(engine, catalog).map_err(|e| format!("cannot open catalog: {e}"))
}

fn create(
    path: &str,
    workload: &str,
    k: u32,
    h: f64,
    seed: u64,
    config: StorageConfig,
) -> Result<String, String> {
    if std::path::Path::new(path).exists() {
        return Err(format!("{path} already exists; refusing to overwrite"));
    }
    let field = match workload {
        "terrain" => terrain::roseburg_standin(k),
        "fractal" => diamond_square(k, h, seed),
        "monotonic" => monotonic_field(1 << k),
        other => return Err(format!("unknown workload {other}")),
    };
    let engine = create_database(path, config)?;
    let index = IHilbert::build(&engine, &field).map_err(|e| e.to_string())?;
    let catalog = index.save(&engine).map_err(|e| e.to_string())?;
    write_bootstrap(&engine, catalog).map_err(|e| e.to_string())?;
    engine.sync().map_err(|e| e.to_string())?;
    Ok(format!(
        "created {path}: {} cells ({} data pages, {} codec), {} subfields ({} index pages), value domain [{:.3}, {:.3}]\n",
        field.num_cells(),
        index.data_pages(),
        index.cell_codec().name(),
        index.num_subfields(),
        index.index_pages(),
        field.value_domain().lo,
        field.value_domain().hi,
    ))
}

fn info(path: &str, eng: EngineOpts) -> Result<String, String> {
    let engine = open_database(path, eng.config())?;
    let index = open_index(&engine)?;
    let dom = index.value_domain();
    // A page the committed catalog names must not be on the freelist:
    // the next allocation would overwrite it.
    let tagged_free: usize = index
        .page_runs()
        .iter()
        .map(|&(first, pages)| engine.free_pages_in(first, pages))
        .sum();
    Ok(format!(
        "{path}: {} pages on disk\n  cells: {} ({} data pages, {} codec)\n  subfields: {} ({} index pages)\n  subfields spanning a page boundary: {}\n  committed pages tagged free: {tagged_free}\n  value domain: [{:.3}, {:.3}]\n",
        engine.num_pages(),
        index.inner_len(),
        index.data_pages(),
        index.cell_codec().name(),
        index.num_subfields(),
        index.index_pages(),
        index.straddling_subfields(),
        dom.lo,
        dom.hi,
    ))
}

fn query(
    path: &str,
    band: Interval,
    max_regions: usize,
    eng: EngineOpts,
) -> Result<String, String> {
    let engine = open_database(path, eng.config())?;
    let index = open_index(&engine)?;
    let (stats, mut regions) = index
        .query_regions(&engine, band)
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "w in [{}, {}]: {} cells qualify, {} regions, total area {:.3} ({} page reads)\n",
        band.lo,
        band.hi,
        stats.cells_qualifying,
        stats.num_regions,
        stats.area,
        stats.io.logical_reads(),
    );
    regions.sort_by(|a, b| b.area().total_cmp(&a.area()));
    for r in regions.iter().take(max_regions) {
        if let Some(c) = r.centroid() {
            out.push_str(&format!(
                "  region around ({:.2}, {:.2}), area {:.4}\n",
                c.x,
                c.y,
                r.area()
            ));
        }
    }
    Ok(out)
}

/// Runs one Q2 band query with tracing enabled and prints its
/// structured EXPLAIN record: plan, per-phase page counts
/// and wall timings (filter/refine/other summing to the span total),
/// epoch, and buffer-pool hit ratio. `--json` emits the machine form.
fn explain(path: &str, band: Interval, json: bool, eng: EngineOpts) -> Result<String, String> {
    let engine = open_database(path, eng.config())?;
    let index = open_index(&engine)?;
    let tracer = engine.metrics().tracer();
    tracer.set_enabled(true);
    let stats = index
        .query_stats(&engine, band)
        .map_err(|e| e.to_string())?;
    let record = tracer.last_explain().ok_or_else(|| {
        "no EXPLAIN captured — the binary was built with the obs-off feature".to_string()
    })?;
    if json {
        Ok(format!("{}\n", record.to_json().render()))
    } else {
        Ok(format!(
            "{}\n  answer: {} regions, total area {:.3}\n",
            record.render_text(),
            stats.num_regions,
            stats.area,
        ))
    }
}

/// Streams random read-modify-write updates through the live ingest
/// plane: every write lands in the epoch delta (the immutable base is
/// untouched), snapshot reads interleave with the stream, the delta
/// drains through a repack, and the catalog epoch commit persists
/// the plane for the next process.
fn ingest(
    path: &str,
    updates: usize,
    seed: u64,
    capacity: usize,
    eng: EngineOpts,
) -> Result<String, String> {
    let engine = open_database(path, eng.config())?;
    let catalog = read_bootstrap(&engine).map_err(|e| e.to_string())?;
    let live = LiveIngest::<GridField>::open(
        &engine,
        catalog,
        IngestConfig {
            capacity,
            ..Default::default()
        },
    )
    .map_err(|e| format!("cannot open ingest plane: {e}"))?;

    let snap = live.snapshot();
    let cells = snap.num_cells();
    let dom = snap.value_domain();
    let band = Interval::new(dom.denormalize(0.35), dom.denormalize(0.65));
    drop(snap);

    // Deterministic value stream (split-mix) so reruns are replayable.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut reads = 0usize;
    let mut qualifying = 0usize;
    let started = std::time::Instant::now();
    for i in 0..updates {
        let cell = (next() % cells as u64) as usize;
        let mut rec = live.cell_record(&engine, cell).map_err(|e| e.to_string())?;
        for v in rec.vals.iter_mut() {
            *v = dom.denormalize((next() >> 11) as f64 / (1u64 << 53) as f64);
        }
        live.ingest(&engine, cell, rec).map_err(|e| e.to_string())?;
        // Interleaved snapshot reads: the whole point of the epoch
        // plane is that these never wait on the writer.
        if i % 32 == 31 {
            let stats = live
                .snapshot()
                .query_stats(&engine, band)
                .map_err(|e| e.to_string())?;
            qualifying = stats.cells_qualifying;
            reads += 1;
        }
    }
    let report = live.repack(&engine).map_err(|e| e.to_string())?;
    live.save_to(&engine, catalog).map_err(|e| e.to_string())?;
    engine.sync().map_err(|e| e.to_string())?;
    let (delta, epoch, repacks) = live.status();
    Ok(format!(
        "ingested {updates} updates into {path} in {:.1} ms: epoch {epoch}, {repacks} repack(s), \
         final drain {} records / {} pages retired, {delta} delta records pending, \
         {reads} interleaved snapshot reads (last: {qualifying} cells in [{:.3}, {:.3}])\n",
        started.elapsed().as_secs_f64() * 1e3,
        report.drained,
        report.pages_retired,
        band.lo,
        band.hi,
    ))
}

fn point(path: &str, x: f64, y: f64, eng: EngineOpts) -> Result<String, String> {
    let engine = open_database(path, eng.config())?;
    let index = open_index(&engine)?;
    // Q1 reads the box file, then only the data pages whose box holds
    // the point.
    match index
        .value_at(&engine, contfield::geom::Point2::new(x, y))
        .map_err(|e| e.to_string())?
    {
        Some(v) => Ok(format!("value at ({x}, {y}): {v:.6}\n")),
        None => Ok(format!("({x}, {y}) is outside the field domain\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A database path in the temp directory. Its `<db>` and `.crc`
    /// files are removed when it is made and when it drops, so a
    /// failing test leaves nothing behind either.
    struct TmpDb(String);

    impl TmpDb {
        fn remove_files(&self) {
            for ext in ["", ".crc"] {
                let _ = std::fs::remove_file(format!("{}{ext}", self.0));
            }
        }
    }

    impl Drop for TmpDb {
        fn drop(&mut self) {
            self.remove_files();
        }
    }

    impl std::ops::Deref for TmpDb {
        type Target = str;

        fn deref(&self) -> &str {
            &self.0
        }
    }

    fn tmp(name: &str) -> TmpDb {
        let mut p = std::env::temp_dir();
        p.push(format!("fielddb_cli_{}_{name}.db", std::process::id()));
        let db = TmpDb(p.to_string_lossy().into_owned());
        db.remove_files();
        db
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn create_info_query_point_cycle() {
        let db = tmp("cycle");
        let out = run(&argv(&[
            "create",
            &db,
            "--workload",
            "fractal",
            "--k",
            "5",
            "--h",
            "0.8",
        ]))
        .expect("create");
        assert!(out.contains("1024 cells"), "{out}");

        let out = run(&argv(&["info", &db])).expect("info");
        assert!(out.contains("subfields"), "{out}");

        let out = run(&argv(&["query", &db, "-0.2", "0.2", "--regions", "2"])).expect("query");
        assert!(out.contains("cells qualify"), "{out}");

        // A tiny pool must answer identically.
        let small_pool = run(&argv(&[
            "query",
            &db,
            "-0.2",
            "0.2",
            "--regions",
            "2",
            "--pool",
            "8",
        ]))
        .expect("small-pool query");
        assert_eq!(out, small_pool, "pool size must not change answers");

        let out = run(&argv(&["point", &db, "3.5", "7.25"])).expect("point");
        assert!(out.contains("value at"), "{out}");
    }

    #[test]
    fn point_reads_the_box_file_and_the_answering_data_page() {
        let db = tmp("q1_reads");
        run(&argv(&["create", &db, "--workload", "fractal", "--k", "8"])).expect("create");
        let disk_reads = |args: &[&str]| {
            let before = contfield::storage::thread_io_stats();
            let out = run(&argv(args)).expect("run");
            (
                (contfield::storage::thread_io_stats() - before).disk_reads,
                out,
            )
        };
        // `info` opens the database and reads nothing more.
        let (open, out) = disk_reads(&["info", &db]);
        assert!(out.contains("(1024 data pages"), "{out}");
        // The box file is 1 024 / 128 = 8 pages; an interior point then
        // reads its candidate pages up to the first that answers, where
        // the full scan read all 1 024 data pages.
        let (inside, out) = disk_reads(&["point", &db, "100.3", "37.6"]);
        assert!(out.contains("value at"), "{out}");
        let q1 = inside - open;
        assert!((9..=10).contains(&q1), "{q1} page reads");
        // A point outside the domain reads the box file alone.
        let (outside, out) = disk_reads(&["point", &db, "-1", "3"]);
        assert!(out.contains("outside the field domain"), "{out}");
        assert_eq!(outside - open, 8);
    }

    #[test]
    fn commands_refuse_a_catalog_with_a_pending_delta() {
        let db = tmp("pending_delta");
        run(&argv(&["create", &db, "--workload", "fractal", "--k", "5"])).expect("create");
        // Save the ingest plane without a repack, as `fielddb ingest`
        // never does: the catalog then carries a pending delta.
        {
            let engine = open_database(&*db, StorageConfig::default()).expect("open");
            let catalog = read_bootstrap(&engine).expect("bootstrap");
            let live = LiveIngest::<GridField>::open(&engine, catalog, IngestConfig::default())
                .expect("ingest plane");
            for cell in 0..5 {
                let mut rec = live.cell_record(&engine, cell).expect("record");
                rec.vals = [9.0; 4];
                live.ingest(&engine, cell, rec).expect("ingest");
            }
            live.save_to(&engine, catalog).expect("save");
            engine.sync().expect("sync");
        }
        for args in [
            &["query", &db, "-0.2", "0.2"][..],
            &["explain", &db, "-0.2", "0.2"],
            &["point", &db, "3.5", "7.25"],
        ] {
            let err = run(&argv(args)).expect_err("a bare open would drop the delta");
            assert!(
                err.contains("5 pending delta records") && err.contains("LiveIngest::open"),
                "{args:?}: {err}"
            );
        }
        // `ingest` opens the plane, drains the delta and saves.
        run(&argv(&["ingest", &db, "--updates", "4"])).expect("ingest");
        run(&argv(&["point", &db, "3.5", "7.25"])).expect("point after the repack");
    }

    #[test]
    fn info_counts_no_subfield_spanning_a_page_after_create_or_ingest() {
        for codec in ["raw", "compressed"] {
            let db = tmp(&format!("straddle_{codec}"));
            let create = ["create", &db, "--workload", "fractal", "--k", "6"];
            run(&argv(&[&create[..], &["--codec", codec]].concat())).expect("create");
            let line = "subfields spanning a page boundary: 0\n";
            let out = run(&argv(&["info", &db])).expect("info");
            assert!(out.contains(line), "{codec}: {out}");
            run(&argv(&[
                "ingest",
                &db,
                "--updates",
                "300",
                "--capacity",
                "128",
            ]))
            .expect("ingest");
            let out = run(&argv(&["info", &db])).expect("info after ingest");
            assert!(out.contains(line), "{codec}: {out}");
        }
    }

    #[test]
    fn info_finds_no_committed_page_freed_by_an_unsaved_repack() {
        let db = tmp("unsaved_repack");
        run(&argv(&["create", &db, "--workload", "fractal", "--k", "6"])).expect("create");
        {
            let engine = open_database(&*db, StorageConfig::default()).expect("open");
            let index = open_index(&engine).expect("index");
            let live = LiveIngest::new(&engine, index, IngestConfig::default()).expect("plane");
            for i in 0..200 {
                let cell = i * 17 % 4096;
                let mut rec = live.cell_record(&engine, cell).expect("record");
                rec.vals = [i as f64 * 0.01; 4];
                live.ingest(&engine, cell, rec).expect("ingest");
            }
            assert!(live.repack(&engine).expect("repack").pages_retired > 0);
            // Dirty pages reach the file as an eviction would write
            // them; the plane is dropped without a save.
            engine.flush().expect("flush");
        }
        let out = run(&argv(&["info", &db])).expect("info");
        assert!(out.contains("committed pages tagged free: 0\n"), "{out}");
    }

    #[test]
    fn query_ranks_a_region_of_nan_area_without_panicking() {
        let db = tmp("nan_area");
        run(&argv(&["create", &db, "--workload", "fractal", "--k", "5"])).expect("create");
        // A checksum-valid record whose values are finite and inside
        // its subfield's interval, so the band retrieves it. Its corners
        // are finite, its plane is flat, and both triangles lie inside
        // the band whole, but their shoelace cross terms overflow to
        // +inf and -inf: the regions' areas are NaN. `update_cell`
        // refuses such a record, so it is written below the check, as a
        // decoded page could hold it. (A NaN corner never reaches the
        // ranking: its plane is NaN, and the band clip keeps no vertex
        // of it.)
        let value = {
            let engine = open_database(&*db, StorageConfig::default()).expect("open");
            let mut index = open_index(&engine).expect("index");
            let value = index.cell_file().get(&engine, 0).expect("record").vals[0];
            let rec = contfield::field::GridCellRecord {
                x0: -1e300,
                y0: -1e300,
                x1: 1e300,
                y1: 1e300,
                vals: [value; 4],
            };
            let err = index.update_cell(&engine, 0, rec).expect_err("refused");
            assert!(err.is_invalid_record(), "{err}");
            index.cell_file().put(&engine, 0, &rec).expect("raw write");
            engine.sync().expect("sync");
            value
        };
        let (lo, hi) = ((value - 0.2).to_string(), (value + 0.2).to_string());
        let out = run(&argv(&["query", &db, &lo, &hi, "--regions", "3"])).expect("query");
        assert!(out.contains("area NaN"), "{out}");
    }

    #[test]
    fn a_legacy_freelist_file_beside_the_database_is_never_touched() {
        // Databases written before the free state moved into the `.crc`
        // entries carry a `<db>.fsm` freelist superblock. It is never
        // read, written or deleted: its free runs stay allocated.
        struct Legacy(String);
        impl Drop for Legacy {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let db = tmp("legacy_fsm");
        run(&argv(&["create", &db, "--workload", "fractal", "--k", "5"])).expect("create");
        let commands: [&[&str]; 3] = [
            &["info", &db],
            &["query", &db, "-0.2", "0.2", "--regions", "3"],
            &["point", &db, "3.5", "7.25"],
        ];
        let answers = || -> Vec<String> {
            commands
                .iter()
                .map(|args| run(&argv(args)).expect("command"))
                .collect()
        };
        let clean = answers();
        let legacy = Legacy(format!("{}.fsm", &*db));
        let garbage: Vec<u8> = (0..8192u32).map(|i| (i * 37 % 251) as u8).collect();
        std::fs::write(&legacy.0, &garbage).expect("write legacy file");
        assert_eq!(answers(), clean);
        run(&argv(&["ingest", &db, "--updates", "50"])).expect("ingest");
        assert_eq!(std::fs::read(&legacy.0).expect("legacy bytes"), garbage);
    }

    #[test]
    fn compressed_codec_cycle_answers_like_raw() {
        let raw_db = tmp("codec_raw");
        let comp_db = tmp("codec_comp");
        let create = |db: &str, codec: &str| {
            run(&argv(&[
                "create",
                db,
                "--workload",
                "fractal",
                "--k",
                "5",
                "--codec",
                codec,
            ]))
            .expect("create")
        };
        let raw_out = create(&raw_db, "raw");
        let comp_out = create(&comp_db, "compressed");
        assert!(raw_out.contains("raw codec"), "{raw_out}");
        assert!(comp_out.contains("compressed codec"), "{comp_out}");

        let info = run(&argv(&["info", &comp_db])).expect("info");
        assert!(info.contains("compressed codec"), "{info}");

        // Same answers across codecs, across a process-restart reopen —
        // only the page-read count may differ (compressed reads fewer).
        let q = |db: &str| {
            let out = run(&argv(&["query", db, "-0.2", "0.2", "--regions", "2"])).expect("query");
            let (head, tail) = out.split_once(" (").expect("page-read suffix");
            let reads: u64 = tail
                .split_once(' ')
                .and_then(|(n, _)| n.parse().ok())
                .expect("page-read count");
            let answer = format!("{head}{}", tail.split_once(')').expect("suffix").1);
            (answer, reads)
        };
        let (raw_answer, raw_reads) = q(&raw_db);
        let (comp_answer, comp_reads) = q(&comp_db);
        assert_eq!(raw_answer, comp_answer);
        assert!(comp_reads <= raw_reads, "{comp_reads} vs {raw_reads}");

        assert!(
            run(&argv(&["create", &tmp("codec_bad"), "--codec", "zstd"])).is_err(),
            "unknown codec must be rejected"
        );
    }

    /// The codec is chosen once, at `create`: an ingest session's
    /// repack writes its generation in the codec of the base it
    /// replaces, and every other command refuses `--codec`.
    #[test]
    fn a_database_keeps_the_codec_it_was_created_with() {
        let db = tmp("codec_keep");
        let create = ["create", &db, "--workload", "fractal", "--k", "5"];
        run(&argv(&[&create[..], &["--codec", "compressed"]].concat())).expect("create");
        let out = run(&argv(&["ingest", &db, "--updates", "100"])).expect("ingest");
        assert!(out.contains("1 repack(s)"), "{out}");
        let info = run(&argv(&["info", &db])).expect("info");
        assert!(info.contains("compressed codec"), "{info}");

        let others: &[&[&str]] = &[
            &["info", &db],
            &["query", &db, "0", "1"],
            &["explain", &db, "0", "1"],
            &["ingest", &db],
            &["point", &db, "0", "0"],
        ];
        for args in others {
            let err = run(&argv(&[args, &["--codec", "raw"][..]].concat())).expect_err("--codec");
            assert_eq!(err, "unknown flag --codec", "{args:?}");
        }
    }

    #[test]
    fn ingest_streams_updates_and_persists_the_epoch() {
        let db = tmp("ingest");
        run(&argv(&["create", &db, "--workload", "fractal", "--k", "5"])).expect("create");

        let out = run(&argv(&["ingest", &db, "--updates", "128", "--seed", "7"])).expect("ingest");
        assert!(out.contains("ingested 128 updates"), "{out}");
        assert!(out.contains("1 repack(s)"), "{out}");
        assert!(out.contains("0 delta records pending"), "{out}");
        assert!(out.contains("interleaved snapshot reads"), "{out}");

        // The epoch pointer survives the process boundary and keeps
        // advancing on a second stream.
        let again =
            run(&argv(&["ingest", &db, "--updates", "64", "--seed", "8"])).expect("ingest again");
        let epoch_of = |s: &str| -> u64 {
            s.split("epoch ")
                .nth(1)
                .and_then(|t| t.split(',').next())
                .and_then(|t| t.parse().ok())
                .expect("epoch in output")
        };
        assert!(epoch_of(&again) > epoch_of(&out), "{out}\n{again}");

        // And the plain read path still works on the repacked file.
        let q = run(&argv(&["query", &db, "-0.2", "0.2"])).expect("query");
        assert!(q.contains("cells qualify"), "{q}");
    }

    #[test]
    fn explain_prints_a_per_phase_breakdown_summing_within_the_span() {
        let db = tmp("explain");
        run(&argv(&["create", &db, "--workload", "fractal", "--k", "5"])).expect("create");

        #[cfg(not(feature = "obs-off"))]
        {
            let out = run(&argv(&["explain", &db, "-0.2", "0.2"])).expect("explain");
            assert!(out.contains("plan=probe"), "{out}");
            assert!(out.contains("curve=hilbert"), "{out}");
            assert!(out.contains("filter:"), "{out}");
            assert!(out.contains("refine:"), "{out}");
            assert!(out.contains("total"), "{out}");
            assert!(out.contains("hit ratio"), "{out}");

            let j = run(&argv(&["explain", &db, "-0.2", "0.2", "--json"])).expect("explain json");
            let doc = contfield::obs::Json::parse(j.trim()).expect("valid json");
            let f = |key: &str| {
                doc.get(key)
                    .and_then(contfield::obs::Json::as_f64)
                    .unwrap_or_else(|| panic!("{key} in {j}"))
            };
            assert!(
                f("filter_ns") + f("refine_ns") <= f("total_ns"),
                "phase timings must sum within the span total: {j}"
            );
            assert_eq!(
                f("filter_ns") + f("refine_ns") + f("other_ns"),
                f("total_ns")
            );
            assert_eq!(
                doc.get("plan").and_then(contfield::obs::Json::as_str),
                Some("probe")
            );
        }
        // Under obs-off the tracer is inert; the command must say so
        // instead of printing an empty record.
        #[cfg(feature = "obs-off")]
        assert!(run(&argv(&["explain", &db, "-0.2", "0.2"])).is_err());
    }

    #[test]
    fn refuses_overwrite_and_bad_input() {
        let db = tmp("refuse");
        run(&argv(&["create", &db, "--k", "4"])).expect("create");
        assert!(run(&argv(&["create", &db])).is_err(), "must not overwrite");
        assert!(
            run(&argv(&["query", &db, "5", "1"])).is_err(),
            "inverted band"
        );
        assert!(run(&argv(&["bogus"])).is_err());
        assert!(run(&[]).is_err());

        // Out-of-range values are rejected where flags are parsed,
        // before any library `assert!` can abort the process.
        let rejected: &[&[&str]] = &[
            &["query", &db, "0", "1", "--pool", "0"],
            &["query", &db, "nan", "5"],
            &["query", &db, "5", "nan"],
            &["explain", &db, "nan", "5"],
            &["explain", &db, "5", "1"],
        ];
        for args in rejected {
            assert!(run(&argv(args)).is_err(), "{args:?} must be rejected");
        }

        let fresh = tmp("refuse_create");
        let rejected_creates: &[&[&str]] = &[
            &["create", &fresh, "--k", "0"],
            &["create", &fresh, "--k", "40"],
            &["create", &fresh, "--workload", "fractal", "--h", "nan"],
            &["create", &fresh, "--workload", "fractal", "--h", "1.5"],
            &["create", &fresh, "--pool", "0"],
        ];
        for args in rejected_creates {
            assert!(run(&argv(args)).is_err(), "{args:?} must be rejected");
            assert!(
                !std::path::Path::new(&*fresh).exists(),
                "{args:?} left a file behind"
            );
        }
    }

    #[test]
    fn commands_on_a_missing_database_fail_and_create_nothing() {
        let guard = tmp("missing");
        let db: &str = &guard;
        let commands: &[&[&str]] = &[
            &["info", db],
            &["query", db, "0", "1"],
            &["explain", db, "0", "1"],
            &["ingest", db],
            &["point", db, "0", "0"],
        ];
        for args in commands {
            let err = run(&argv(args)).expect_err("missing database");
            assert_eq!(err, format!("{db}: no such database"), "{args:?}");
            for file in [db.to_string(), format!("{db}.crc"), format!("{db}.fsm")] {
                assert!(
                    !std::path::Path::new(&file).exists(),
                    "{args:?} created {file}"
                );
            }
        }
    }

    #[test]
    fn usage_lists_exactly_the_dispatched_commands() {
        let text = usage();
        let listed: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim().strip_prefix("fielddb "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(
            listed,
            ["create", "info", "query", "explain", "ingest", "point"]
        );
        for cmd in listed {
            // Every command takes a database; without its path it fails
            // while parsing its arguments, before it touches a file, but
            // it is dispatched.
            assert!(text.contains(&format!("fielddb {cmd} <db>")), "{cmd}");
            let err = run(&argv(&[cmd])).expect_err(cmd);
            assert!(!err.starts_with("unknown command"), "{cmd}: {err}");
        }
        for gone in ["metrics", "record", "serve-metrics", "top"] {
            let err = run(&argv(&[gone])).expect_err(gone);
            assert!(err.starts_with(&format!("unknown command {gone}")), "{err}");
        }
    }

    #[test]
    fn rejects_foreign_file() {
        let db = tmp("foreign");
        std::fs::write(&*db, vec![0u8; 8192]).expect("write junk");
        assert!(run(&argv(&["info", &db])).is_err());
    }
}
