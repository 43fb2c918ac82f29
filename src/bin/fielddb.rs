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
//! fielddb serve-metrics --port 9184   # HTTP /metrics, /traces, /slo, ...
//! fielddb top --port 9184             # one-shot scrape view
//! ```
//!
//! Layout: page 0 is the bootstrap page (magic + catalog page pointer);
//! the catalog page records where the cell file, subfield file, position
//! map and R\*-tree live (see `cf_index`'s catalog module, which reads
//! and writes both). Every command but `create` refuses a database path
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
            let mut eng = EngineOpts::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--workload" => workload = take(&mut it, flag)?,
                    "--k" => k = take_in(&mut it, flag, GRID_K)?,
                    "--h" => h = take_in(&mut it, flag, UNIT)?,
                    "--seed" => seed = parse(&take(&mut it, flag)?)?,
                    other => eng.parse_flag(other, &mut it)?,
                }
            }
            create(&path, &workload, k, h, seed, eng)
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
        "serve-metrics" => {
            let mut port = 9184u16;
            let mut k = 6u32;
            let mut queries = 32usize;
            let mut max_requests: Option<u64> = None;
            let mut port_file: Option<String> = None;
            let mut event_log: Option<String> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--port" => port = parse(&take(&mut it, flag)?)?,
                    "--k" => k = take_in(&mut it, flag, GRID_K)?,
                    "--queries" => queries = parse(&take(&mut it, flag)?)?,
                    "--max-requests" => max_requests = Some(parse(&take(&mut it, flag)?)?),
                    "--port-file" => port_file = Some(take(&mut it, flag)?),
                    "--event-log" => event_log = Some(take(&mut it, flag)?),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            serve_metrics(
                port,
                k,
                queries,
                max_requests,
                port_file.as_deref(),
                event_log.as_deref(),
            )
        }
        "top" => {
            let mut addr = String::new();
            let mut watch: Option<f64> = None;
            let mut count = 0usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--addr" => addr = take(&mut it, flag)?,
                    "--port" => addr = format!("127.0.0.1:{}", take(&mut it, flag)?),
                    "--watch" => watch = Some(parse(&take(&mut it, flag)?)?),
                    "--count" => count = parse(&take(&mut it, flag)?)?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if addr.is_empty() {
                addr = "127.0.0.1:9184".into();
            }
            match watch {
                Some(secs) => top_watch(&addr, secs, count),
                None => top(&addr),
            }
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  fielddb create <db> [--workload terrain|fractal|monotonic] [--k N] [--h F] [--seed N]\n  fielddb info <db>\n  fielddb query <db> <lo> <hi> [--regions N]\n  fielddb explain <db> <lo> <hi> [--json]\n  fielddb ingest <db> [--updates N] [--seed N] [--capacity N]\n  fielddb point <db> <x> <y>\n  fielddb serve-metrics [--port N] [--k N] [--queries N] [--max-requests N] [--port-file P] [--event-log P]\n  fielddb top [--addr HOST:PORT | --port N] [--watch SECS [--count N]]\nfile-backed commands also accept: [--pool PAGES] [--codec raw|compressed]".into()
}

/// Storage-engine tuning flags shared by every file-backed command:
/// `--pool PAGES` sizes the buffer pool and `--codec raw|compressed`
/// picks the on-page cell layout for newly built files (existing files
/// carry their codec in the catalog and ignore it).
#[derive(Default, Clone, Copy)]
struct EngineOpts {
    pool: Option<usize>,
    codec: Option<PageCodec>,
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
            "--codec" => {
                let name = take(it, flag)?;
                self.codec = Some(
                    PageCodec::parse(&name)
                        .ok_or_else(|| format!("unknown codec {name:?} (raw or compressed)"))?,
                );
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
        if let Some(codec) = self.codec {
            config.codec = codec;
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
    eng: EngineOpts,
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
    let engine = create_database(path, eng.config())?;
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
    Ok(format!(
        "{path}: {} pages on disk\n  cells: {} ({} data pages, {} codec)\n  subfields: {} ({} index pages)\n  value domain: [{:.3}, {:.3}]\n",
        engine.num_pages(),
        index.inner_len(),
        index.data_pages(),
        index.cell_codec().name(),
        index.num_subfields(),
        index.index_pages(),
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
    regions.sort_by(|a, b| b.area().partial_cmp(&a.area()).expect("finite areas"));
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
/// structured EXPLAIN record: planner decision, per-phase page counts
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
/// drains through a repack, and the catalog v4 epoch commit persists
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
    // Q1 through the spatial `PointIndex` would need a tree the catalog
    // does not persist, so interpolate from the cell records directly.
    match index
        .value_at_via_records(&engine, contfield::geom::Point2::new(x, y))
        .map_err(|e| e.to_string())?
    {
        Some(v) => Ok(format!("value at ({x}, {y}): {v:.6}\n")),
        None => Ok(format!("({x}, {y}) is outside the field domain\n")),
    }
}

/// Runs a traced demo workload over an in-memory terrain, then serves
/// the telemetry plane over HTTP (`/metrics` Prometheus snapshot,
/// `/traces` Chrome-trace dump, `/slo` latency quantiles and objectives,
/// `/explain/recent` EXPLAIN ring) until `max_requests` are answered
/// (or forever with no cap). `--port 0` picks a free port; `--port-file`
/// writes the real bound address for scripted clients, and
/// `--event-log` additionally appends the trace snapshot to a rotating
/// JSONL log before serving.
fn serve_metrics(
    port: u16,
    k: u32,
    queries: usize,
    max_requests: Option<u64>,
    port_file: Option<&str>,
    event_log: Option<&str>,
) -> Result<String, String> {
    use contfield::obs::export::EventLog;
    use contfield::obs::serve::MetricsServer;
    use contfield::workload::queries::interval_queries;

    let field = terrain::roseburg_standin(k);
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).map_err(|e| e.to_string())?;
    let registry = engine.metrics();
    let tracer = registry.tracer();
    tracer.set_enabled(true);
    tracer.set_slow_threshold(std::time::Duration::ZERO);
    let qs = interval_queries(field.value_domain(), 0.05, queries, 0x5E2E);
    for q in &qs {
        index.query_stats(&engine, *q).map_err(|e| e.to_string())?;
    }
    if let Some(path) = event_log {
        let mut log = EventLog::open(path, 1 << 20, 3).map_err(|e| e.to_string())?;
        log.append_trace(&tracer.events(), &tracer.slow_reports())
            .map_err(|e| format!("event log {path}: {e}"))?;
    }

    let server =
        MetricsServer::bind(("127.0.0.1", port)).map_err(|e| format!("bind port {port}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(path) = port_file {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("port file {path}: {e}"))?;
    }
    // Print the banner before blocking in the serve loop.
    println!(
        "serving telemetry for terrain k={k} ({} traced queries) on http://{addr}/  (routes: /metrics, /traces, /slo, /explain/recent, /workload)",
        qs.len()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let served = server
        .serve(registry, max_requests)
        .map_err(|e| e.to_string())?;
    Ok(format!("served {served} request(s) on {addr}\n"))
}

/// One-shot `top`-style view: scrapes `/metrics` (and `/traces`) from a
/// running `serve-metrics` endpoint and renders the headline numbers
/// plus a per-index table.
fn top(addr: &str) -> Result<String, String> {
    use contfield::obs::export::parse_prometheus;
    use contfield::obs::serve::http_get;
    use contfield::obs::Json;

    let body = http_get(addr, "/metrics").map_err(|e| format!("scrape {addr}/metrics: {e}"))?;
    let snap = parse_prometheus(&body)?;
    let hits = snap.total("pool_hits_total");
    let misses = snap.total("pool_misses_total");
    let mut out = format!("fielddb top — one-shot scrape of http://{addr}/\n\n");
    out.push_str(&format!(
        "queries: {:.0}   pool: {:.0} hits / {:.0} misses ({:.1}% hit rate)   disk reads: {:.0}\n",
        snap.total("index_queries_total"),
        hits,
        misses,
        100.0 * hits / (hits + misses).max(1.0),
        snap.total("storage_disk_reads_total"),
    ));
    let slow = http_get(addr, "/traces")
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|doc| {
            doc.get("slowQueries")
                .and_then(|s| s.as_arr().map(|a| a.len()))
        });
    if let Some(n) = slow {
        out.push_str(&format!("slow-query reports retained: {n}\n"));
    }

    let mut indexes: Vec<String> = snap
        .samples
        .iter()
        .filter(|s| s.name == "index_queries_total")
        .filter_map(|s| {
            s.labels
                .iter()
                .find(|(key, _)| key == "index")
                .map(|(_, v)| v.clone())
        })
        .collect();
    indexes.sort();
    indexes.dedup();
    let val = |name: &str, index: &str| -> f64 {
        snap.samples
            .iter()
            .filter(|s| {
                s.name == name && s.labels.iter().any(|(key, v)| key == "index" && v == index)
            })
            .map(|s| s.value)
            .sum()
    };
    out.push_str(&format!(
        "\n{:<16} {:>8} {:>13} {:>13} {:>15}\n",
        "index", "queries", "filter pages", "refine pages", "cells examined"
    ));
    for index in &indexes {
        out.push_str(&format!(
            "{:<16} {:>8.0} {:>13.0} {:>13.0} {:>15.0}\n",
            index,
            val("index_queries_total", index),
            val("index_filter_pages_total", index),
            val("index_refine_pages_total", index),
            val("index_cells_examined_total", index),
        ));
    }
    Ok(out)
}

/// Interval mode of `top`: re-scrapes `/metrics` every `secs` seconds
/// and prints per-second *rates* — counter differences divided by the
/// interval — instead of raw totals, so a steady workload reads as a
/// steady line. `count` bounds the number of intervals and returns the
/// table; `count` 0 watches until the endpoint goes away, printing
/// each interval live.
fn top_watch(addr: &str, secs: f64, count: usize) -> Result<String, String> {
    use contfield::obs::export::parse_prometheus;
    use contfield::obs::serve::http_get;

    // Converted once, before the first scrape: a NaN, negative, zero or
    // overflowing interval is a flag error, not a panic mid-watch.
    let interval = match std::time::Duration::try_from_secs_f64(secs) {
        Ok(d) if !d.is_zero() => d,
        _ => {
            return Err(format!(
                "--watch {secs:?} needs a positive interval in seconds"
            ))
        }
    };
    const COLS: [(&str, &str); 5] = [
        ("index_queries_total", "queries/s"),
        ("index_cells_examined_total", "examined/s"),
        ("pool_hits_total", "hits/s"),
        ("pool_misses_total", "misses/s"),
        ("storage_disk_reads_total", "disk/s"),
    ];
    let scrape = || -> Result<Vec<f64>, String> {
        let body = http_get(addr, "/metrics").map_err(|e| format!("scrape {addr}/metrics: {e}"))?;
        let snap = parse_prometheus(&body)?;
        Ok(COLS.iter().map(|(name, _)| snap.total(name)).collect())
    };
    let mut out = format!("fielddb top — watching http://{addr}/metrics every {secs}s\n");
    let mut header = format!("{:>10}", "interval");
    for (_, label) in COLS {
        header.push_str(&format!(" {label:>12}"));
    }
    let mut emit = |line: &str| {
        if count == 0 {
            use std::io::Write as _;
            println!("{line}");
            std::io::stdout().flush().ok();
        } else {
            out.push_str(line);
            out.push('\n');
        }
    };
    emit(&header);
    let mut prev = scrape()?;
    let mut done = 0usize;
    loop {
        std::thread::sleep(interval);
        let cur = scrape()?;
        let mut row = format!("{done:>10}");
        for (after, before) in cur.iter().zip(&prev) {
            row.push_str(&format!(" {:>12.1}", (after - before).max(0.0) / secs));
        }
        emit(&row);
        prev = cur;
        done += 1;
        if count != 0 && done >= count {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("fielddb_cli_{}_{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p.to_string_lossy().into_owned()
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

        std::fs::remove_file(&db).expect("cleanup");
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
        std::fs::remove_file(&raw_db).expect("cleanup");
        std::fs::remove_file(&comp_db).expect("cleanup");
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
        std::fs::remove_file(&db).expect("cleanup");
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

        std::fs::remove_file(&db).expect("cleanup");
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
        std::fs::remove_file(&db).expect("cleanup");

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
                !std::path::Path::new(&fresh).exists(),
                "{args:?} left a file behind"
            );
        }
    }

    #[test]
    fn serve_metrics_and_top_round_trip() {
        let dir = std::env::temp_dir();
        let port_file = dir.join(format!("fielddb_port_{}", std::process::id()));
        let event_log = dir.join(format!("fielddb_events_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let _ = std::fs::remove_file(&event_log);

        let pf = port_file.to_string_lossy().into_owned();
        let el = event_log.to_string_lossy().into_owned();
        let server = std::thread::spawn(move || {
            run(&argv(&[
                "serve-metrics",
                "--port",
                "0",
                "--k",
                "5",
                "--queries",
                "8",
                "--max-requests",
                "3",
                "--port-file",
                &pf,
                "--event-log",
                &el,
            ]))
        });

        // The port file appears once the listener is bound.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve-metrics never wrote its port file"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        // `top` scrapes /metrics and /traces: two of the three requests.
        let out = run(&argv(&["top", "--addr", &addr])).expect("top");
        assert!(out.contains("queries: 8"), "{out}");
        assert!(out.contains("pool:"), "{out}");
        assert!(out.contains("I-Hilbert"), "{out}");
        #[cfg(not(feature = "obs-off"))]
        assert!(out.contains("slow-query reports retained: 8"), "{out}");

        // Burn the last request so the serve loop exits.
        let metrics =
            contfield::obs::serve::http_get(addr.trim(), "/metrics").expect("final scrape");
        // One metric family per layer: index, index health, pool, disk.
        for family in [
            "# TYPE index_queries_total counter",
            "index_health_subfields",
            "pool_hits_total",
            "storage_checksum_verifications_total",
        ] {
            assert!(metrics.contains(family), "{family} missing:\n{metrics}");
        }
        let out = server.join().expect("no panic").expect("serve");
        assert!(out.contains("served 3 request(s)"), "{out}");

        // The event log captured the traced demo workload.
        #[cfg(not(feature = "obs-off"))]
        {
            let log = std::fs::read_to_string(&event_log).expect("event log written");
            assert!(log.lines().count() >= 8, "{log}");
            assert!(log.contains("\"seq\":0"), "{log}");
        }
        let _ = std::fs::remove_file(&port_file);
        let _ = std::fs::remove_file(&event_log);
        let _ = std::fs::remove_file(format!("{}.1", event_log.display()));
    }

    #[test]
    fn top_watch_prints_rates_from_counter_diffs() {
        let dir = std::env::temp_dir();
        let port_file = dir.join(format!("fielddb_watch_port_{}", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let pf = port_file.to_string_lossy().into_owned();
        let server = std::thread::spawn(move || {
            run(&argv(&[
                "serve-metrics",
                "--port",
                "0",
                "--k",
                "5",
                "--queries",
                "4",
                "--max-requests",
                "2",
                "--port-file",
                &pf,
            ]))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve-metrics never wrote its port file"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        // Rejected before the first scrape, so none of these spends a
        // request of the server's budget.
        for secs in ["0", "nan", "1e20"] {
            let err = run(&argv(&["top", "--addr", &addr, "--watch", secs]))
                .expect_err("unusable watch interval must be rejected");
            assert!(err.starts_with("--watch"), "{secs}: {err}");
        }
        // One bounded interval: two scrapes, so rates diff to zero on
        // the idle server — the point is the rate table, not the values.
        let out = run(&argv(&[
            "top", "--addr", &addr, "--watch", "0.05", "--count", "1",
        ]))
        .expect("top watch");
        assert!(out.contains("watching"), "{out}");
        assert!(out.contains("queries/s"), "{out}");
        assert!(out.contains("disk/s"), "{out}");
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| l.trim_start().starts_with('0'))
            .collect();
        assert_eq!(rows.len(), 1, "{out}");

        let out = server.join().expect("no panic").expect("serve");
        assert!(out.contains("served 2 request(s)"), "{out}");
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn commands_on_a_missing_database_fail_and_create_nothing() {
        let db = tmp("missing");
        let commands: &[&[&str]] = &[
            &["info", &db],
            &["query", &db, "0", "1"],
            &["explain", &db, "0", "1"],
            &["ingest", &db],
            &["point", &db, "0", "0"],
        ];
        for args in commands {
            let err = run(&argv(args)).expect_err("missing database");
            assert_eq!(err, format!("{db}: no such database"), "{args:?}");
            for file in [db.clone(), format!("{db}.crc"), format!("{db}.fsm")] {
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
            [
                "create",
                "info",
                "query",
                "explain",
                "ingest",
                "point",
                "serve-metrics",
                "top"
            ]
        );
        for cmd in listed {
            // A database command without its path, or any other command
            // with a flag none takes, fails while parsing its arguments —
            // before it touches a file or a socket — but is dispatched.
            let args = if text.contains(&format!("fielddb {cmd} <db>")) {
                argv(&[cmd])
            } else {
                argv(&[cmd, "--no-such-flag"])
            };
            let err = run(&args).expect_err(cmd);
            assert!(!err.starts_with("unknown command"), "{cmd}: {err}");
        }
        for gone in ["metrics", "record"] {
            let err = run(&argv(&[gone])).expect_err(gone);
            assert!(err.starts_with(&format!("unknown command {gone}")), "{err}");
        }
    }

    #[test]
    fn rejects_foreign_file() {
        let db = tmp("foreign");
        std::fs::write(&db, vec![0u8; 8192]).expect("write junk");
        assert!(run(&argv(&["info", &db])).is_err());
        std::fs::remove_file(&db).expect("cleanup");
    }
}
