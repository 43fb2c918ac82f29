//! Regenerates every table/figure of the paper's evaluation (§4).
//!
//! ```sh
//! cargo run --release -p cf-bench --bin repro -- all
//! cargo run --release -p cf-bench --bin repro -- all --full   # paper scale: EXPERIMENTS.md
//! ```
//!
//! Subcommands: `fig5`, `fig8a`, `fig8b`, `fig11`, `fig12`,
//! `ablation`, `batch`, `record`, `replay`, `obs-overhead`, `all`.
//! Flags: `--full` (paper-scale datasets and 200 queries/point),
//! `--queries N`, `--metrics` (with `batch`: dump the engine's
//! metrics-registry snapshot after the run), `--workload PATH` +
//! `--db PATH` (with `record`: capture a traced Q2 sweep over the
//! database — built if the path does not exist — into a versioned
//! `.wrk` workload file; with `replay`: re-execute a `.wrk` recording
//! against an existing database and diff the recomputed answer digests,
//! exiting 1 on divergence).
//! Flags are parsed and validated once: a malformed or out-of-range
//! value is an `error: …` on stderr and exit 2.
//!
//! Every figure, `ablation` and `batch` runs on a real database file in
//! the temp directory (removed afterwards, pass or fail) with the pool
//! cleared before each query and no injected delay. Timings beyond these
//! tables — per layer and end to end — are the `benchmark/` ladder's.
//!
//! `obs-overhead` prints parseable `OBS_OVERHEAD_US_PER_QUERY` (warm)
//! and `OBS_OVERHEAD_COLD_US_PER_QUERY` (cold) lines; CI runs it once
//! per feature set (default vs `obs-off`), fails if the instrumented
//! build is more than 3 % slower warm, and prints the cold ratio.

use cf_bench::{
    record_workload, render_batch_scaling, render_markdown, run_batch_scaling, run_method_point,
    run_sweep, speedups, ReplayReport, SweepResult, TempDb,
};
use cf_field::{FieldModel, GridField};
use cf_geom::Interval;
use cf_index::{
    build_subfields, build_subfields_by_page, cell_order, create_database, open_database,
    read_bootstrap, write_bootstrap, IHilbert, IHilbertConfig, IntervalQuadtree, LinearScan,
    SubfieldConfig, ValueIndex,
};
use cf_sfc::Curve;
use cf_storage::{PageCodec, StorageConfig, StorageEngine};
use cf_workload::{
    fractal::diamond_square, monotonic::monotonic_field, noise::urban_noise_tin,
    queries::interval_queries, terrain::roseburg_standin,
};
use std::sync::Arc;

#[derive(Default)]
struct Opts {
    full: bool,
    queries: Option<usize>,
    metrics: bool,
    workload: Option<String>,
    db: Option<String>,
}

impl Opts {
    /// Random interval queries per `Qinterval` point (paper: 200).
    fn queries_per_point(&self) -> usize {
        self.queries.unwrap_or(if self.full { 200 } else { 50 })
    }
}

/// Parses the command line into the command and validated options.
fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut cmd = String::from("all");
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--full" => opts.full = true,
            "--metrics" => opts.metrics = true,
            "--queries" => {
                let v = value()?;
                match v.parse() {
                    Ok(n) if n >= 1 => opts.queries = Some(n),
                    Ok(_) => return Err(format!("{flag} must be at least 1, got {v}")),
                    Err(_) => return Err(format!("{flag} needs a number, got {v:?}")),
                }
            }
            "--workload" => opts.workload = Some(value()?.to_string()),
            "--db" => opts.db = Some(value()?.to_string()),
            c if !c.starts_with('-') => cmd = c.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((cmd, opts))
}

/// The value of a fallible command, or `error: …` on stderr and exit 2.
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = or_exit(parse_args(&args));

    match cmd.as_str() {
        "fig5" => fig5(),
        "fig8a" => {
            print_sweep(&fig8a(&opts));
        }
        "fig8b" => {
            print_sweep(&fig8b(&opts));
        }
        "fig11" => fig11(&opts),
        "fig12" => {
            print_sweep(&fig12(&opts));
        }
        "ablation" => ablation(&opts),
        "batch" => batch(&opts),
        "record" => or_exit(record(&opts)),
        "replay" => {
            let report = or_exit(replay(&opts));
            print!("{report}");
            if !report.ok() {
                std::process::exit(1);
            }
        }
        "obs-overhead" => obs_overhead(&opts),
        "all" => {
            print_setup();
            fig5();
            print_sweep(&fig8a(&opts));
            print_sweep(&fig8b(&opts));
            fig11(&opts);
            print_sweep(&fig12(&opts));
            ablation(&opts);
            batch(&opts);
        }
        other => {
            eprintln!(
                "error: unknown command {other}; use fig5|fig8a|fig8b|fig11|fig12|ablation|batch|record|replay|obs-overhead|all"
            );
            std::process::exit(2);
        }
    }
}

/// The setup line EXPERIMENTS.md quotes: where and how everything ran.
fn print_setup() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "setup: each sweep on a real database file in {} (StorageEngine::open_file), \
         256-page pool cleared before every query, OS page cache left warm, \
         zero injected latency, every physical read checksum-verified; \
         {}-{}, available_parallelism = {cores}, single-threaded queries\n",
        std::env::temp_dir().display(),
        std::env::consts::OS,
        std::env::consts::ARCH,
    );
}

fn print_sweep(result: &SweepResult) {
    println!("{}", render_markdown(result));
    for method in ["I-Hilbert", "I-All"] {
        for (qi, time, pages) in speedups(result, "LinearScan", method) {
            println!(
                "- {method} vs LinearScan @ Qinterval {qi:.2}: {time:.1}x time, {pages:.1}x pages"
            );
        }
    }
    println!();
}

/// Fig. 5b — the worked subfield-formation example, verified numerically.
fn fig5() {
    println!("### fig5 — worked subfield example (paper §3.1.2, Fig. 5b)\n\n```text");
    let cells = [
        Interval::new(20.0, 30.0),
        Interval::new(25.0, 34.0),
        Interval::new(30.0, 40.0),
        Interval::new(28.0, 40.0),
        Interval::new(38.0, 50.0),
    ];
    let union4 = cells[..4].iter().fold(cells[0], |a, b| a.union(*b));
    let si4: f64 = cells[..4].iter().map(|iv| iv.size_with_base(1.0)).sum();
    let ca = union4.size_with_base(1.0) / si4;
    let union5 = union4.union(cells[4]);
    let cb = union5.size_with_base(1.0) / (si4 + cells[4].size_with_base(1.0));
    println!("cost before inserting c5: {ca:.3}   (paper: 21/(11+10+11+13) ≈ 0.466)");
    println!("cost after  inserting c5: {cb:.3}   (paper: 31/58 ≈ 0.534)");
    let sfs = build_subfields(&cells, SubfieldConfig::default());
    println!(
        "=> {} subfields; c5 starts Subfield 2: {}\n```\n",
        sfs.len(),
        sfs.len() == 2 && sfs[1].start == 4
    );
}

/// Fig. 8a — terrain DEM (Roseburg stand-in), Qinterval 0–0.1.
fn fig8a(opts: &Opts) -> SweepResult {
    let k = if opts.full { 9 } else { 8 };
    let field = roseburg_standin(k);
    eprintln!("[fig8a] terrain {}x{} cells…", 1 << k, 1 << k);
    run_sweep(
        "fig8a (real-terrain stand-in)",
        &field,
        &[0.0, 0.02, 0.04, 0.06, 0.08, 0.10],
        opts.queries_per_point(),
    )
}

/// Fig. 8b — urban noise TIN (~9000 triangles), Qinterval 0–0.1.
fn fig8b(opts: &Opts) -> SweepResult {
    // The TIN is already paper-scale (~9000 triangles) in both modes.
    let field = urban_noise_tin(9000, 42);
    eprintln!("[fig8b] noise TIN {} triangles…", field.num_cells());
    run_sweep(
        "fig8b (urban-noise TIN stand-in)",
        &field,
        &[0.0, 0.02, 0.04, 0.06, 0.08, 0.10],
        opts.queries_per_point(),
    )
}

/// Fig. 11a–d — fractal DEMs with H ∈ {0.1, 0.3, 0.6, 0.9}.
fn fig11(opts: &Opts) {
    let k = if opts.full { 10 } else { 8 };
    for (sub, h) in [("a", 0.1), ("b", 0.3), ("c", 0.6), ("d", 0.9)] {
        let field = diamond_square(k, h, 0xF1C + (h * 10.0) as u64);
        eprintln!("[fig11{sub}] fractal H={h}, {} cells…", field.num_cells());
        let result = run_sweep(
            &format!("fig11{sub} (fractal H={h})"),
            &field,
            &[0.0, 0.01, 0.02, 0.03, 0.04, 0.05],
            opts.queries_per_point(),
        );
        print_sweep(&result);
    }
}

/// Fig. 12 — monotonic field w = x + y.
fn fig12(opts: &Opts) -> SweepResult {
    let cells = if opts.full { 512 } else { 256 };
    let field = monotonic_field(cells);
    eprintln!("[fig12] monotonic {cells}x{cells} cells…");
    run_sweep(
        "fig12 (monotonic w = x + y)",
        &field,
        &[0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06],
        opts.queries_per_point(),
    )
}

/// Batch executor throughput scaling on the fig8a terrain: the same
/// query batch at 1/2/4/8 worker threads over the sharded buffer pool,
/// with per-query and aggregated statistics.
fn batch(opts: &Opts) {
    let k = if opts.full { 8 } else { 7 };
    let field = roseburg_standin(k);
    // At the default 128² the pool holds the whole working set, so every
    // run pays the same cold first touches whatever the thread
    // interleaving; at `--full` (256²) it does not, and the disk column
    // varies with the interleaving.
    let db = TempDb::new("cf_sweep");
    let engine = StorageEngine::open_file(
        db.path(),
        StorageConfig {
            pool_pages: 1024,
            ..StorageConfig::default()
        },
    )
    .expect("open database file");
    let index: Arc<dyn ValueIndex> = Arc::new(IHilbert::build(&engine, &field).expect("build"));
    let dom = field.value_domain();
    let queries = interval_queries(dom, 0.05, opts.queries.unwrap_or(48), 0xBA7C);
    eprintln!(
        "[batch] terrain {0}x{0} cells, {1} queries…",
        1 << k,
        queries.len()
    );

    println!(
        "### batch — parallel executor scaling (fig8a terrain, {} shards)\n",
        engine.pool().num_shards()
    );
    let reports = run_batch_scaling(&engine, &index, &queries, &[1, 2, 4, 8]);
    print!("{}", render_batch_scaling(&reports));

    let (four, threads) = (&reports[2], reports[2].threads);
    let speedup = reports[0].wall.as_secs_f64() / four.wall.as_secs_f64().max(1e-12);
    println!("\nspeedup({threads} threads vs 1): {speedup:.1}x\n");

    println!("per-query stats ({threads}-thread run, first 8 queries):\n");
    println!("| band | wall ms | pages | disk | subfields | cells ex. | qualifying | regions |");
    println!("|---|---|---|---|---|---|---|---|");
    for r in four.results.iter().take(8) {
        println!(
            "| {} | {:.2} | {} | {} | {} | {} | {} | {} |",
            r.band,
            r.wall.as_secs_f64() * 1e3,
            r.stats.io.logical_reads(),
            r.stats.io.disk_reads,
            r.stats.intervals_retrieved,
            r.stats.cells_examined,
            r.stats.cells_qualifying,
            r.stats.num_regions,
        );
    }
    println!("\naggregated:");
    for r in &reports {
        println!("  {r}");
    }
    println!();
    if opts.metrics {
        println!("### metrics snapshot (batch engine)\n");
        print!("{}", engine.metrics().render_text());
        println!();
    }
}

/// Measures the per-query cost of the observability plane on two
/// loops over the same field and queries, on one thread:
/// - warm: in memory, every page a pool hit, so no I/O hides the
///   counter updates (`OBS_OVERHEAD_US_PER_QUERY`);
/// - cold: a compressed database file whose pool is cleared before
///   each query, so every page is a physical read, a checksum and a
///   decode, each observed (`OBS_OVERHEAD_COLD_US_PER_QUERY`).
///
/// CI runs this once with default features and once with `obs-off`
/// and compares the numbers.
fn obs_overhead(opts: &Opts) {
    use std::time::Instant;

    let field = roseburg_standin(7);
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");
    let queries = interval_queries(field.value_domain(), 0.01, 64, 0x0B5);
    for q in &queries {
        index.query_stats(&engine, *q).expect("warmup query");
    }
    let reps = if opts.full { 500 } else { 100 };
    let mut cells = 0usize; // fold the answers so the loop isn't dead code
    let t0 = Instant::now();
    for _ in 0..reps {
        for q in &queries {
            let stats = index.query_stats(&engine, *q).expect("query");
            cells += stats.cells_examined;
        }
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / (reps * queries.len()) as f64;
    println!(
        "obs-overhead: {} warm queries, {} cells examined",
        reps * queries.len(),
        cells
    );
    println!("OBS_OVERHEAD_US_PER_QUERY: {us:.4}");

    // The cold loop times one thread's reads: it sweeps the band set it
    // has timed since it was added (DESIGN §10.4), those below 4 096
    // examined cells, each with a sink, so none refines on a second
    // thread.
    const COLD_BAND_CELLS: usize = 4096;
    let below_gate: Vec<_> = queries
        .iter()
        .copied()
        .filter(|q| {
            let stats = index.query_stats(&engine, *q).expect("query");
            stats.cells_examined < COLD_BAND_CELLS
        })
        .collect();
    let db = TempDb::new("cf_sweep");
    let engine = StorageEngine::open_file(
        db.path(),
        StorageConfig {
            codec: PageCodec::Compressed,
            ..StorageConfig::default()
        },
    )
    .expect("open database file");
    let index = IHilbert::build(&engine, &field).expect("build");
    let reps = if opts.full { 100 } else { 20 };
    let (mut cells, mut reads) = (0usize, 0u64);
    let mut spent = std::time::Duration::ZERO;
    for _ in 0..reps {
        for q in &below_gate {
            engine.clear_cache();
            let t0 = Instant::now();
            let stats = index.query(&engine, *q, Some(&mut |_| ())).expect("query");
            spent += t0.elapsed();
            cells += stats.cells_examined;
            reads += stats.io.disk_reads;
        }
    }
    let runs = reps * below_gate.len();
    let us = spent.as_secs_f64() * 1e6 / runs as f64;
    println!(
        "obs-overhead: {runs} cold queries, {cells} cells examined, {:.1} physical reads a query",
        reads as f64 / runs as f64
    );
    println!("OBS_OVERHEAD_COLD_US_PER_QUERY: {us:.4}");
}

/// The `--workload` and `--db` paths `record` and `replay` both need.
fn workload_and_db<'a>(cmd: &str, opts: &'a Opts) -> Result<(&'a str, &'a str), String> {
    match (opts.workload.as_deref(), opts.db.as_deref()) {
        (Some(wrk), Some(db)) => Ok((wrk, db)),
        _ => Err(format!(
            "{cmd} needs --workload <file.wrk> and --db <database>"
        )),
    }
}

/// Opens the I-Hilbert index of an existing fielddb-format database
/// file through its bootstrap page.
fn open_db_index(path: &str) -> Result<(StorageEngine, IHilbert<GridField>), String> {
    let engine = open_database(path, StorageConfig::default())?;
    let index = read_bootstrap(&engine)
        .and_then(|catalog| IHilbert::open(&engine, catalog))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok((engine, index))
}

/// `record --workload <wrk> --db <db>`: builds (when `<db>` does not
/// exist) or reopens a file-backed database, runs a deterministic
/// traced Q2 sweep against it, and drains the flight recorder into a
/// versioned `.wrk` workload file. The database file is left in place —
/// `repro replay` with the same two paths must reproduce every recorded
/// answer digest.
fn record(opts: &Opts) -> Result<(), String> {
    let (wrk_path, db_path) = workload_and_db("record", opts)?;
    let nq = opts.queries.unwrap_or(32);
    let fresh = !std::path::Path::new(db_path).exists();
    let (engine, index) = if fresh {
        // A deterministic 128 × 128 fractal terrain behind a
        // fielddb-compatible bootstrap page, so the file replays (and
        // opens in fielddb) across processes.
        let engine = create_database(db_path, StorageConfig::default())?;
        let field = diamond_square(7, 0.6, 0x3EC0DE);
        let index = IHilbert::build(&engine, &field).map_err(|e| e.to_string())?;
        index
            .save(&engine)
            .and_then(|catalog| write_bootstrap(&engine, catalog))
            .and_then(|()| engine.sync())
            .map_err(|e| format!("{db_path}: {e}"))?;
        (engine, index)
    } else {
        open_db_index(db_path)?
    };
    eprintln!(
        "[record] {} over {db_path} ({} cells), {nq} traced queries…",
        if fresh { "fresh build" } else { "reopened" },
        index.inner_len(),
    );

    let queries = interval_queries(index.value_domain(), 0.02, nq, 0x3EC);
    let records = record_workload(&engine, &index, &queries).map_err(|e| e.to_string())?;
    if records.is_empty() {
        return Err("no queries captured — the binary was built with obs-off".into());
    }
    if records.len() != queries.len() {
        return Err(format!(
            "captured {} of {} queries",
            records.len(),
            queries.len()
        ));
    }
    let bytes = cf_obs::encode_wrk(&records);
    std::fs::write(wrk_path, &bytes).map_err(|e| format!("write {wrk_path}: {e}"))?;

    println!("### record — workload capture\n");
    println!("| metric | value |");
    println!("|---|---|");
    println!("| database | {db_path} ({} pages) |", engine.num_pages());
    println!("| queries recorded | {} |", records.len());
    println!("| workload file | {wrk_path} ({} bytes) |", bytes.len());
    println!(
        "| first digest | {:016x} |",
        records.first().map_or(0, |r| r.digest)
    );
    println!();
    Ok(())
}

/// `replay --workload <wrk> --db <db>`: re-executes a recorded
/// workload against an existing database, recomputes the per-query
/// answer digests and EXPLAIN-style aggregates, and diffs them against
/// the recording. The report carries no wall-clock numbers, so two
/// replays of the same inputs are byte-identical.
fn replay(opts: &Opts) -> Result<ReplayReport, String> {
    let (wrk_path, db_path) = workload_and_db("replay", opts)?;
    let bytes = std::fs::read(wrk_path).map_err(|e| format!("read {wrk_path}: {e}"))?;
    let records = cf_obs::decode_wrk(&bytes).map_err(|e| format!("{wrk_path}: {e}"))?;
    let (engine, index) = open_db_index(db_path)?;
    eprintln!(
        "[replay] {} records from {wrk_path} against {db_path} ({} cells)…",
        records.len(),
        index.inner_len(),
    );
    cf_bench::replay_workload(&engine, &index, &records).map_err(|e| e.to_string())
}

/// Design-choice ablations: curve, cost knobs, quadtree threshold.
fn ablation(opts: &Opts) {
    let k = if opts.full { 9 } else { 7 };
    let field = roseburg_standin(k);
    let dom = field.value_domain();
    let db = TempDb::new("cf_sweep");
    let engine = db.open();
    let queries = interval_queries(dom, 0.02, opts.queries_per_point(), 7);

    println!("### ablation — curve choice (subfields + mean pages @ Qinterval 0.02)\n");
    println!("| curve | subfields | mean pages | mean ms |");
    println!("|---|---|---|---|");
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
        let p = run_method_point(&engine, &idx, 0.02, &queries);
        println!(
            "| {} | {} | {:.0} | {:.2} |",
            curve.name(),
            idx.num_intervals(),
            p.mean_pages,
            p.mean_time_ms
        );
    }

    println!("\n### ablation — cost-function knobs (base, query_len)\n");
    println!("| base | query_len | subfields | mean pages |");
    println!("|---|---|---|---|");
    let width = dom.width();
    for (base, qlen) in [
        (1.0, 0.0),
        (1.0, 0.5 * width),
        (0.01 * width, 0.0),
        (0.1 * width, 0.0),
        (1.0, 0.1 * width),
    ] {
        let idx = IHilbert::build_with(
            &engine,
            &field,
            IHilbertConfig {
                subfield: SubfieldConfig {
                    base,
                    query_len: qlen,
                },
                ..Default::default()
            },
        )
        .expect("build");
        let p = run_method_point(&engine, &idx, 0.02, &queries);
        println!(
            "| {base:.2} | {qlen:.2} | {} | {:.0} |",
            idx.num_intervals(),
            p.mean_pages
        );
    }

    println!("\n### ablation — Interval-Quadtree threshold (fraction of value domain)\n");
    println!("| threshold | leaves | mean pages |");
    println!("|---|---|---|");
    for frac in [0.01, 0.05, 0.1, 0.25, 0.5] {
        let iq = IntervalQuadtree::build(&engine, &field, frac * width).expect("build");
        let p = run_method_point(&engine, &iq, 0.02, &queries);
        println!(
            "| {frac:.2} | {} | {:.0} |",
            iq.num_intervals(),
            p.mean_pages
        );
    }

    // Reference points for the table reader.
    let scan = LinearScan::build(&engine, &field).expect("build");
    let p = run_method_point(&engine, &scan, 0.02, &queries);
    println!(
        "\n(LinearScan reference: {:.0} pages, {:.2} ms; {} cells)\n",
        p.mean_pages,
        p.mean_time_ms,
        field.num_cells()
    );

    let probe = IHilbert::build(&engine, &field).expect("build");

    // Subfield statistics, as in Fig. 7's narrative, of the product
    // grouping: the paper's rule within each page of the built cell file.
    let order = cell_order(&field, Curve::Hilbert);
    let intervals: Vec<Interval> = order.iter().map(|&c| field.cell_interval(c)).collect();
    let sfs = build_subfields_by_page(&intervals, probe.cell_file(), SubfieldConfig::default());
    let mut sizes: Vec<usize> = sfs.iter().map(|s| s.len()).collect();
    sizes.sort_unstable();
    println!(
        "subfield size distribution: n={}, min={}, p50={}, p95={}, max={}\n",
        sizes.len(),
        sizes[0],
        sizes[sizes.len() / 2],
        sizes[sizes.len() * 95 / 100],
        sizes[sizes.len() - 1]
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(String, Opts), String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    fn rejected(line: &str) -> String {
        match parse(line) {
            Ok(_) => panic!("{line:?} was accepted"),
            Err(e) => e,
        }
    }

    #[test]
    fn valid_flags_parse() {
        let line = "record --full --metrics --queries 1 --workload f.wrk --db f.db";
        let (cmd, opts) = parse(line).expect("valid");
        assert_eq!(cmd, "record");
        assert!(opts.full && opts.metrics);
        assert_eq!(opts.queries, Some(1));
        assert_eq!(opts.workload.as_deref(), Some("f.wrk"));
        assert_eq!(opts.db.as_deref(), Some("f.db"));
        assert_eq!(parse("").expect("empty").0, "all");
    }

    #[test]
    fn queries_must_be_a_positive_number() {
        assert!(rejected("fig8b --queries 0").contains("at least 1"));
        assert!(rejected("fig8b --queries abc").contains("needs a number"));
        assert!(rejected("fig8b --queries -3").contains("needs a number"));
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        assert!(rejected("fig8b --queries").contains("needs a value"));
        assert!(rejected("replay --db").contains("needs a value"));
        assert!(rejected("fig8b --bogus 0").contains("unknown flag"));
    }

    #[test]
    fn record_writes_a_decodable_workload_file() {
        let dir = std::env::temp_dir();
        let db = dir.join(format!("repro_record_{}.db", std::process::id()));
        let wrk = dir.join(format!("repro_record_{}.wrk", std::process::id()));
        // An existing fielddb-format database, smaller than the 128²
        // fractal `record` builds when the path is missing.
        {
            let engine =
                create_database(db.display().to_string(), StorageConfig::default()).expect("db");
            let index = IHilbert::build(&engine, &diamond_square(5, 0.6, 7)).expect("build");
            let catalog = index.save(&engine).expect("save");
            write_bootstrap(&engine, catalog).expect("bootstrap");
            engine.sync().expect("sync");
        }
        let before = std::fs::read(&db).expect("db bytes");
        let opts = Opts {
            queries: Some(8),
            workload: Some(wrk.display().to_string()),
            db: Some(db.display().to_string()),
            ..Opts::default()
        };
        let recorded = record(&opts);
        #[cfg(not(feature = "obs-off"))]
        {
            recorded.expect("record");
            let records = cf_obs::decode_wrk(&std::fs::read(&wrk).expect("wrk bytes"))
                .expect("decodable workload");
            assert_eq!(records.len(), 8);
            assert!(
                records.iter().all(|r| r.plane.as_str() == "paged"),
                "{records:?}"
            );
            std::fs::remove_file(&wrk).expect("cleanup");
        }
        // With the recorder compiled out the command must say so rather
        // than write an empty recording.
        #[cfg(feature = "obs-off")]
        assert!(recorded.is_err() && !wrk.exists());
        assert_eq!(
            std::fs::read(&db).expect("db bytes"),
            before,
            "record must reopen an existing database, not rebuild it"
        );
        for ext in ["", ".crc"] {
            let _ = std::fs::remove_file(format!("{}{ext}", db.display()));
        }
    }

    #[test]
    fn replay_refuses_a_missing_database_and_creates_nothing() {
        let dir = std::env::temp_dir();
        let wrk = dir.join(format!("repro_missing_{}.wrk", std::process::id()));
        let db = dir.join(format!("repro_missing_{}.db", std::process::id()));
        std::fs::write(&wrk, cf_obs::encode_wrk(&[])).expect("write workload");
        let opts = Opts {
            workload: Some(wrk.display().to_string()),
            db: Some(db.display().to_string()),
            ..Opts::default()
        };
        let err = replay(&opts).map(|_| ()).expect_err("missing database");
        assert_eq!(err, format!("{}: no such database", db.display()));
        for ext in ["", ".crc", ".fsm"] {
            let file = format!("{}{ext}", db.display());
            assert!(!std::path::Path::new(&file).exists(), "created {file}");
        }
        std::fs::remove_file(&wrk).expect("cleanup");
    }
}
