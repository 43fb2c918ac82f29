//! Regenerates every table/figure of the paper's evaluation (§4).
//!
//! ```sh
//! cargo run --release -p cf-bench --bin repro -- all
//! cargo run --release -p cf-bench --bin repro -- all --full   # paper scale: EXPERIMENTS.md
//! ```
//!
//! Subcommands: `fig5`, `fig8a`, `fig8b`, `fig11`, `fig12`,
//! `ablation`, `batch`, `bench`, `replay`, `regress`, `obs-overhead`,
//! `all`.
//! Flags: `--full` (paper-scale datasets and 200 queries/point),
//! `--queries N`, `--json` (with `bench`: append a
//! flattened record to the committed bench history), `--metrics` (with
//! `batch`/`bench`: dump the engine's
//! metrics-registry snapshot after the run), `--oocore` (with `bench`:
//! run the out-of-core file-backing benchmark instead, appending to its
//! own history, default `BENCH_oocore_history.jsonl`), `--record PATH`
//! (with `bench`: capture a traced Q2 sweep over a file-backed
//! database — `--db PATH`, created if missing — into a versioned
//! `.wrk` workload file), `--workload PATH` + `--db PATH` (with
//! `replay`: re-execute a `.wrk` recording against a database and diff
//! the recomputed answer digests, exiting 1 on divergence; `--json`
//! appends `replay_*` context metrics to the history), `--ingest` (with
//! `bench`: run the live-ingest concurrency benchmark — a writer
//! streaming epoch-published updates against concurrent snapshot
//! readers, oracle-checked, appending `ingest_*` metrics to the main
//! history), `--k N` (grid exponent: oocore default 10 → 1,048,576
//! cells, ingest default 6 → 4,096 cells), `--history PATH`
//! (default `BENCH_history.jsonl`), `--window N` / `--tol-time F` /
//! `--tol-count F` (regression-gate knobs, see `cf_bench::history`).
//! Flags are parsed and validated once: a malformed or out-of-range
//! value is an `error: …` on stderr and exit 2.
//!
//! Every figure, `ablation` and `batch` runs on a real database file in
//! the temp directory (removed afterwards, pass or fail) with the pool
//! cleared before each query and no injected delay.
//!
//! `regress` compares the newest history record against a median-of-N
//! baseline over the previous runs and exits 1 on regression (0 with a
//! warning when the history is too short to gate); CI runs it right
//! after `bench --json` on every PR.
//!
//! `obs-overhead` prints a parseable `OBS_OVERHEAD_US_PER_QUERY` line;
//! CI runs it once per feature set (default vs `obs-off`) and fails if
//! the instrumented build is more than 3 % slower.

use cf_bench::{
    render_batch_scaling, render_markdown, run_batch_scaling, run_method_point, run_sweep,
    speedups, SweepResult, TempDb,
};
use cf_field::FieldModel;
use cf_geom::Interval;
use cf_index::{
    build_subfields, cell_order, IHilbert, IHilbertConfig, IntervalQuadtree, LinearScan,
    SubfieldConfig, ValueIndex,
};
use cf_sfc::Curve;
use cf_workload::{
    fractal::diamond_square, monotonic::monotonic_field, noise::urban_noise_tin,
    queries::interval_queries, terrain::roseburg_standin,
};

struct Opts {
    full: bool,
    queries: Option<usize>,
    json: bool,
    metrics: bool,
    oocore: bool,
    ingest: bool,
    k: Option<u32>,
    history: Option<String>,
    window: usize,
    tol_time: f64,
    tol_count: f64,
    record: Option<String>,
    workload: Option<String>,
    db: Option<String>,
}

impl Opts {
    /// Random interval queries per `Qinterval` point (paper: 200).
    fn queries_per_point(&self) -> usize {
        self.queries.unwrap_or(if self.full { 200 } else { 50 })
    }
}

/// Parses a flag value and checks it against `ok` (described by `want`
/// in the error).
fn checked<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    ok: impl Fn(&T) -> bool,
    want: &str,
) -> Result<T, String> {
    match value.parse() {
        Ok(v) if ok(&v) => Ok(v),
        Ok(_) => Err(format!("{flag} must be {want}, got {value}")),
        Err(_) => Err(format!("{flag} needs a number, got {value:?}")),
    }
}

/// Parses the command line into the command and validated options.
fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut cmd = String::from("all");
    let mut opts = Opts {
        full: false,
        queries: None,
        json: false,
        metrics: false,
        oocore: false,
        ingest: false,
        k: None,
        history: None,
        window: 5,
        tol_time: 0.30,
        tol_count: 0.02,
        record: None,
        workload: None,
        db: None,
    };
    let fraction = |t: &f64| t.is_finite() && *t >= 0.0;
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
            "--json" => opts.json = true,
            "--metrics" => opts.metrics = true,
            "--oocore" => opts.oocore = true,
            "--ingest" => opts.ingest = true,
            "--k" => {
                opts.k = Some(checked(
                    flag,
                    value()?,
                    |k| (1..=14).contains(k),
                    "in 1..=14",
                )?)
            }
            "--queries" => opts.queries = Some(checked(flag, value()?, |&n| n >= 1, "at least 1")?),
            "--window" => opts.window = checked(flag, value()?, |&n| n >= 1, "at least 1")?,
            "--tol-time" => {
                opts.tol_time = checked(flag, value()?, fraction, "finite and non-negative")?
            }
            "--tol-count" => {
                opts.tol_count = checked(flag, value()?, fraction, "finite and non-negative")?
            }
            "--history" => opts.history = Some(value()?.to_string()),
            "--record" => opts.record = Some(value()?.to_string()),
            "--workload" => opts.workload = Some(value()?.to_string()),
            "--db" => opts.db = Some(value()?.to_string()),
            c if !c.starts_with('-') => cmd = c.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((cmd, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

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
        "bench" => {
            if opts.record.is_some() {
                record_bench(&opts)
            } else if opts.ingest {
                ingest_bench(&opts)
            } else if opts.oocore {
                oocore(&opts)
            } else {
                bench(&opts)
            }
        }
        "replay" => replay_cmd(&opts),
        "regress" => regress(&opts),
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
                "error: unknown command {other}; use fig5|fig8a|fig8b|fig11|fig12|ablation|batch|bench|replay|regress|obs-overhead|all"
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
    use cf_storage::{StorageConfig, StorageEngine};

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
    let index = IHilbert::build(&engine, &field).expect("build");
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

    let four = &reports[2];
    println!(
        "\nspeedup(4 threads vs 1): {:.1}x\n",
        reports[0].wall.as_secs_f64() / four.wall.as_secs_f64().max(1e-12)
    );

    println!("per-query stats (4-thread run, first 8 queries):\n");
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

/// Measures the per-query cost of the observability plane on its most
/// sensitive workload: warm in-memory queries (every page a pool hit)
/// where no I/O can hide the counter updates.
/// Prints a parseable `OBS_OVERHEAD_US_PER_QUERY` line; CI runs this
/// once with default features and once with `obs-off` and compares the
/// two numbers.
fn obs_overhead(opts: &Opts) {
    use cf_storage::StorageEngine;
    use std::time::Instant;

    let field = roseburg_standin(7);
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");
    let queries = interval_queries(field.value_domain(), 0.01, 64, 0x0B5);
    let mut scratch = cf_index::QueryScratch::default();
    for q in &queries {
        index
            .query_stats_scratch(&engine, *q, &mut scratch)
            .expect("warmup query");
    }
    let reps = if opts.full { 500 } else { 100 };
    let mut cells = 0usize; // fold the answers so the loop isn't dead code
    let t0 = Instant::now();
    for _ in 0..reps {
        for q in &queries {
            let stats = index
                .query_stats_scratch(&engine, *q, &mut scratch)
                .expect("query");
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
}

/// The compressed vs raw cell-page sweep (fig8a terrain, fig8b TIN):
/// mean cold-cache pages per Q2 query under each codec, the answers
/// asserted bit-identical — the codec is a layout change, not an
/// approximation. Page counts are deterministic, so nothing is timed
/// (the ladder's `cold_file_grid_64k` is the timing authority for the
/// codec). With `--json` a flattened record is
/// appended to the committed bench history (`--history`, default
/// `BENCH_history.jsonl`) for the `regress` gate.
fn bench(opts: &Opts) {
    use cf_storage::{PageCodec, StorageConfig, StorageEngine};

    struct CodecPoint {
        figure: &'static str,
        qinterval: f64,
        raw_pages: f64,
        comp_pages: f64,
        pages_speedup: f64,
        identical: bool,
    }
    /// Appends one dataset's points to `out`; returns its raw-page
    /// engine (what `--metrics` dumps).
    fn codec_points_for<F: FieldModel>(
        figure: &'static str,
        field: &F,
        opts: &Opts,
        out: &mut Vec<CodecPoint>,
    ) -> StorageEngine {
        let nq = opts.queries.unwrap_or(if opts.full { 48 } else { 12 });
        let mk = |codec| {
            let engine = StorageEngine::new(StorageConfig {
                codec,
                ..StorageConfig::default()
            });
            let index = IHilbert::build(&engine, field).expect("build");
            (engine, index)
        };
        let (raw_engine, raw_index) = mk(PageCodec::Raw);
        let (comp_engine, comp_index) = mk(PageCodec::Compressed);
        // Mean pages per cold query, and the bits of every answer.
        let measure = |engine: &StorageEngine, index: &dyn ValueIndex, queries: &[Interval]| {
            let mut pages = 0u64;
            let mut areas = Vec::with_capacity(queries.len());
            for q in queries {
                engine.clear_cache();
                let stats = index.query_stats(engine, *q).expect("query");
                pages += stats.io.logical_reads();
                areas.push(stats.area.to_bits());
            }
            (pages as f64 / queries.len() as f64, areas)
        };
        for qinterval in [0.01, 0.05] {
            let queries = interval_queries(field.value_domain(), qinterval, nq, 0xF0_2E);
            let (raw_pages, raw_areas) = measure(&raw_engine, &raw_index, &queries);
            let (comp_pages, comp_areas) = measure(&comp_engine, &comp_index, &queries);
            let identical = raw_areas == comp_areas;
            assert!(
                identical,
                "{figure} qi {qinterval}: compressed answers diverge from raw"
            );
            out.push(CodecPoint {
                figure,
                qinterval,
                raw_pages,
                comp_pages,
                pages_speedup: raw_pages / comp_pages.max(1e-9),
                identical,
            });
        }
        raw_engine
    }
    eprintln!("[bench] cell-page codec: fig8a + fig8b…");
    let field = roseburg_standin(if opts.full { 9 } else { 8 });
    let mut codec_points = Vec::new();
    let raw_engine = codec_points_for("fig8a", &field, opts, &mut codec_points);
    // A large TIN: the codec's page savings are a file-level ratio, and
    // a bigger cell file keeps per-range boundary pages from diluting
    // it in the per-query mean.
    codec_points_for(
        "fig8b",
        &urban_noise_tin(60000, 42),
        opts,
        &mut codec_points,
    );

    println!("### bench — compressed vs raw cell pages (cold cache)\n");
    println!("| figure | Qinterval | raw pages | comp pages | pages speedup | identical |");
    println!("|---|---|---|---|---|---|");
    for p in &codec_points {
        println!(
            "| {} | {:.2} | {:.1} | {:.1} | {:.2}x | {} |",
            p.figure, p.qinterval, p.raw_pages, p.comp_pages, p.pages_speedup, p.identical,
        );
    }
    println!();

    // Flattened record for the committed history → `repro regress`.
    if opts.json {
        let mut rec = cf_bench::history::BenchRecord::new("codec");
        rec.push("cells", field.num_cells() as f64);
        for p in &codec_points {
            let prefix = format!("codec_{}_qi{}", p.figure, p.qinterval);
            rec.push(format!("{prefix}_raw_pages"), p.raw_pages);
            rec.push(format!("{prefix}_comp_pages"), p.comp_pages);
            rec.push(format!("{prefix}_pages_speedup"), p.pages_speedup);
            rec.push(
                format!("{prefix}_identical"),
                if p.identical { 1.0 } else { 0.0 },
            );
        }
        let history = opts.history.as_deref().unwrap_or("BENCH_history.jsonl");
        cf_bench::history::append_history(history, &rec).expect("append bench history");
        println!("appended run to {history}");
    }

    if opts.metrics {
        println!("\n### metrics snapshot (fig8a raw-page engine)\n");
        print!("{}", raw_engine.metrics().render_text());
        println!();
    }
}

/// The out-of-core benchmark (`bench --oocore`): a fractal terrain of
/// `2^k × 2^k` cells (default k = 10: 1,048,576 cells, ~16 K data
/// pages) built onto a real tmpdir database file through a buffer pool
/// an order of magnitude smaller than the working set. Measures the
/// build, a cold Q2 sweep (pages/query is the paper's out-of-core
/// cost) and a workload-driven repack that hands the dead index pages
/// back to the freelist, then repeats the sweep through a fresh engine
/// on the reopened file — which must answer byte-identically across the
/// repack. With `--json` the measurements append to the oocore history
/// (default `BENCH_oocore_history.jsonl`) for the `regress` gate.
fn oocore(opts: &Opts) {
    use cf_field::GridField;
    use cf_storage::StorageConfig;
    use std::time::Instant;

    let k = opts.k.unwrap_or(10);
    let pool_pages = StorageConfig::default().pool_pages;
    let field = diamond_square(k, 0.6, 0x00C0DE);
    let dom = field.value_domain();
    let db = TempDb::new("cf_oocore");
    eprintln!(
        "[oocore] fractal {0}x{0} = {1} cells onto {2} (pool {pool_pages} pages)…",
        1 << k,
        field.num_cells(),
        db.path().display()
    );

    let engine = db.open();
    let t0 = Instant::now();
    let mut index = IHilbert::build(&engine, &field).expect("build");
    let catalog = index.save(&engine).expect("save");
    engine.sync().expect("sync");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let built_pages = engine.num_pages();
    assert!(
        built_pages >= 4 * pool_pages,
        "the working set ({built_pages} pages) must dwarf the pool ({pool_pages} pages)"
    );

    // Cold Q2 sweep: every query starts from an empty pool, so its
    // physical reads are the true out-of-core cost.
    let nq = opts.queries.unwrap_or(12);
    let queries = interval_queries(dom, 0.01, nq, 0x00C);
    let mut cold_ms = 0.0;
    let mut cold_pages = 0u64;
    let mut cold_disk = 0u64;
    let mut qualifying = 0u64;
    for q in &queries {
        engine.clear_cache();
        let t0 = Instant::now();
        let stats = index.query_stats(&engine, *q).expect("query");
        cold_ms += t0.elapsed().as_secs_f64() * 1e3;
        cold_pages += stats.io.logical_reads();
        cold_disk += stats.io.disk_reads;
        qualifying += stats.cells_qualifying as u64;
    }
    let n = queries.len() as f64;

    // Workload-driven repack + re-save cycles: the dead tree and
    // subfield-catalog pages go back to the freelist, each catalog
    // commit frees the position map it supersedes, and allocation
    // recycles the holes. Once the pipeline fills (two pos maps stay in
    // flight, one per catalog slot), the file holds or shrinks — the
    // steady-state invariant asserted below.
    let pages_before_repack = engine.num_pages();
    let cycles = 4usize;
    let mut outcome = None;
    let mut cycle_pages = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let o = index
            .repack_with_observed_workload(&engine)
            .expect("repack");
        outcome.get_or_insert(o);
        index.save_to(&engine, catalog).expect("save after repack");
        engine.sync().expect("sync");
        cycle_pages.push(engine.num_pages());
    }
    let outcome = outcome.expect("at least one repack cycle");
    let freed_pages = engine.metrics().counter_total("storage_pages_freed_total");
    let reused_pages = engine.metrics().counter_total("storage_pages_reused_total");
    let pages_after_repack = *cycle_pages.last().expect("cycle pages");
    let free_now = engine.free_pages();
    assert!(
        cycle_pages[cycles - 1] <= cycle_pages[cycles - 2],
        "steady state: repack+save cycles must hold or shrink the file: {cycle_pages:?}"
    );
    assert!(
        reused_pages > 0,
        "steady state requires freelist reuse: {cycle_pages:?}"
    );
    drop(index);
    drop(engine);

    // A cold process-style reopen. Answers must be byte-identical to
    // the first sweep — across the repack, which never moves cell
    // records.
    let engine = db.open();
    let reopened = IHilbert::<GridField>::open(&engine, catalog).expect("open catalog");
    let mut reopened_qualifying = 0u64;
    for q in &queries {
        engine.clear_cache();
        let stats = reopened.query_stats(&engine, *q).expect("query");
        reopened_qualifying += stats.cells_qualifying as u64;
    }
    assert_eq!(
        reopened_qualifying, qualifying,
        "the reopened file must answer byte-identically across the repack"
    );
    drop(reopened);
    drop(engine);
    drop(db);

    println!(
        "### bench --oocore — out-of-core file backing ({} cells)\n",
        field.num_cells()
    );
    println!("| metric | value |");
    println!("|---|---|");
    println!("| cells | {} |", field.num_cells());
    println!("| data+index pages after build | {built_pages} |");
    println!("| buffer pool pages | {pool_pages} |");
    println!("| build + save wall | {build_ms:.1} ms |");
    println!("| Q2 cold: mean wall | {:.2} ms |", cold_ms / n);
    println!("| Q2 cold: mean pages | {:.1} |", cold_pages as f64 / n);
    println!("| Q2 cold: mean disk reads | {:.1} |", cold_disk as f64 / n);
    println!(
        "| repack+save ×{cycles}: file pages {pages_before_repack} → {cycle_pages:?}, freed {freed_pages}, reused {reused_pages}, {free_now} on freelist |"
    );
    println!("\nrepack outcome: {outcome}\n");

    if opts.json {
        let mut rec = cf_bench::history::BenchRecord::new("oocore");
        rec.push("oocore_cells", field.num_cells() as f64);
        rec.push("oocore_pool", pool_pages as f64);
        rec.push("oocore_built_pages", built_pages as f64);
        rec.push("oocore_build_ms", build_ms);
        rec.push("oocore_q2_cold_ms", cold_ms / n);
        rec.push("oocore_q2_cold_pages", cold_pages as f64 / n);
        rec.push("oocore_q2_cold_disk_pages", cold_disk as f64 / n);
        rec.push("oocore_repack_freed_pages", freed_pages as f64);
        rec.push(
            "oocore_file_pages_after_repack_pages",
            pages_after_repack as f64,
        );
        let history = opts
            .history
            .as_deref()
            .unwrap_or("BENCH_oocore_history.jsonl");
        cf_bench::history::append_history(history, &rec).expect("append oocore history");
        println!("appended run to {history}");
    }
}

/// The live-ingest concurrency benchmark (`bench --ingest`): one writer
/// streams cell updates through the epoch plane (`LiveIngest`) —
/// including periodic explicit repacks that drain the delta ring into a
/// fresh Hilbert-ordered segment — while several reader threads query
/// pinned snapshots the whole time. Readers must make progress during
/// both the streaming and the repack windows (no global stall), and the
/// final snapshot must answer byte-identically to a sequential oracle
/// that replays the same update plan through `IHilbert::update_cell`.
/// With `--json` the measurements append `ingest_*` metrics to the main
/// bench history (default `BENCH_history.jsonl`) for `repro regress`.
fn ingest_bench(opts: &Opts) {
    use cf_index::{IngestConfig, LiveIngest};
    use cf_storage::StorageEngine;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    let k = opts.k.unwrap_or(6);
    let updates: usize = if opts.full { 8192 } else { 2048 };
    let num_readers = 3usize;
    let repack_every = 509usize; // prime, so repacks interleave unevenly
    let field = diamond_square(k, 0.6, 0x1A6E57);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build base");
    let live = LiveIngest::new(
        &engine,
        base,
        IngestConfig {
            capacity: 256,
            ..Default::default()
        },
    )
    .expect("wrap live ingest plane");
    let bands = interval_queries(dom, 0.05, 8, 0x0E9);
    eprintln!(
        "[ingest] {} cells, {updates} streamed updates, {num_readers} snapshot readers…",
        field.num_cells()
    );

    let stop = AtomicBool::new(false);
    let repack_inflight = AtomicBool::new(false);
    let reads_during_repack = AtomicU64::new(0);
    let reader_queries: Vec<AtomicU64> = (0..num_readers).map(|_| AtomicU64::new(0)).collect();

    // Deterministic update plan (split-mix), recorded as the writer
    // generates it so the oracle can replay it verbatim afterwards.
    let mut rng_state = 0x1_7E57_u64;
    let mut next = move || {
        rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let t0 = Instant::now();
    let (plan, ingest_ns, repack_ns, repacks) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut plan = Vec::with_capacity(updates);
            let mut ingest_ns = 0u64;
            let mut repack_ns = 0u64;
            let mut repacks = 0u64;
            for i in 0..updates {
                let cell = (next() % field.num_cells() as u64) as usize;
                let mut rec = live.cell_record(&engine, cell).expect("cell record");
                for v in rec.vals.iter_mut() {
                    *v = dom.denormalize((next() >> 11) as f64 / (1u64 << 53) as f64);
                }
                plan.push((cell, rec));
                let t = Instant::now();
                live.ingest(&engine, cell, rec).expect("ingest");
                ingest_ns += t.elapsed().as_nanos() as u64;
                if i % repack_every == repack_every - 1 {
                    repack_inflight.store(true, Ordering::SeqCst);
                    let t = Instant::now();
                    live.repack(&engine).expect("repack");
                    repack_ns += t.elapsed().as_nanos() as u64;
                    repack_inflight.store(false, Ordering::SeqCst);
                    repacks += 1;
                }
            }
            // Final drain so the published epoch is fully repacked
            // before the oracle comparison.
            repack_inflight.store(true, Ordering::SeqCst);
            let t = Instant::now();
            live.repack(&engine).expect("final repack");
            repack_ns += t.elapsed().as_nanos() as u64;
            repack_inflight.store(false, Ordering::SeqCst);
            repacks += 1;
            stop.store(true, Ordering::SeqCst);
            (plan, ingest_ns, repack_ns, repacks)
        });
        for counter in &reader_queries {
            s.spawn(|| {
                let mut i = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let snap = live.snapshot();
                    let was_repacking = repack_inflight.load(Ordering::SeqCst);
                    snap.query_stats(&engine, bands[i % bands.len()])
                        .expect("snapshot query");
                    counter.fetch_add(1, Ordering::SeqCst);
                    if was_repacking {
                        reads_during_repack.fetch_add(1, Ordering::SeqCst);
                    }
                    i += 1;
                }
            });
        }
        writer.join().expect("writer thread")
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let total_reads: u64 = reader_queries
        .iter()
        .map(|c| c.load(Ordering::SeqCst))
        .sum();
    let min_reads = reader_queries
        .iter()
        .map(|c| c.load(Ordering::SeqCst))
        .min()
        .unwrap_or(0);
    assert!(
        min_reads > 0,
        "every reader must make progress while the writer streams"
    );

    // Sequential oracle: the same plan through the synchronous
    // update-in-place path on an independent index. The published
    // snapshot must agree bit-for-bit on every probe band.
    let mut oracle = IHilbert::build(&engine, &field).expect("build oracle");
    for (cell, rec) in &plan {
        oracle
            .update_cell(&engine, *cell, *rec)
            .expect("oracle update");
    }
    let snap = live.snapshot();
    let mut identical = true;
    for q in &bands {
        let got = snap.query_stats(&engine, *q).expect("snapshot query");
        let want = oracle.query_stats(&engine, *q).expect("oracle query");
        identical &= got.cells_qualifying == want.cells_qualifying
            && got.num_regions == want.num_regions
            && got.area.to_bits() == want.area.to_bits();
    }
    assert!(
        identical,
        "the epoch plane must answer byte-identically to the sequential oracle"
    );
    let (delta_pending, epoch, _) = live.status();
    assert_eq!(delta_pending, 0, "final repack must drain the delta ring");

    println!(
        "### bench --ingest — live epoch plane under concurrent readers ({} cells)\n",
        field.num_cells()
    );
    println!("| metric | value |");
    println!("|---|---|");
    println!("| cells | {} |", field.num_cells());
    println!("| streamed updates | {updates} |");
    println!("| published epoch | {epoch} |");
    println!("| repacks (incl. final drain) | {repacks} |");
    println!(
        "| mean ingest latency | {:.1} µs |",
        ingest_ns as f64 / updates as f64 / 1e3
    );
    println!(
        "| mean repack wall | {:.2} ms |",
        repack_ns as f64 / repacks as f64 / 1e6
    );
    println!("| reader queries (total / min per reader) | {total_reads} / {min_reads} |");
    println!(
        "| reader queries completed during a repack | {} |",
        reads_during_repack.load(Ordering::SeqCst)
    );
    println!("| oracle byte-identical on {} bands | yes |", bands.len());
    println!("| wall | {wall_ms:.1} ms |\n");

    if opts.json {
        let mut rec = cf_bench::history::BenchRecord::new("ingest");
        rec.push("ingest_cells", field.num_cells() as f64);
        rec.push("ingest_updates", updates as f64);
        rec.push("ingest_update_us", ingest_ns as f64 / updates as f64 / 1e3);
        // Mean repack wall in ms — recorded without a unit suffix on
        // purpose: at sub-ms scale it is scheduling noise on shared
        // runners, so it stays informational rather than gated.
        rec.push(
            "ingest_repack_wall",
            repack_ns as f64 / repacks as f64 / 1e6,
        );
        rec.push("ingest_repacks", repacks as f64);
        rec.push("ingest_epoch", epoch as f64);
        rec.push("ingest_reader_queries", total_reads as f64);
        rec.push("ingest_min_reader_queries", min_reads as f64);
        rec.push(
            "ingest_reads_during_repack",
            reads_during_repack.load(Ordering::SeqCst) as f64,
        );
        rec.push("ingest_identical", if identical { 1.0 } else { 0.0 });
        // Windowed SLO quantiles over the run's whole query plane —
        // `slo_*` names classify as Info, so they ride along for trend
        // inspection without gating.
        let slo = engine.metrics().slo();
        rec.push("slo_p50_us", slo.p50_ns() as f64 / 1e3);
        rec.push("slo_p99_us", slo.p99_ns() as f64 / 1e3);
        let history = opts.history.as_deref().unwrap_or("BENCH_history.jsonl");
        cf_bench::history::append_history(history, &rec).expect("append ingest history");
        println!("appended run to {history}");

        // Flush the epoch-lifecycle journal (epoch_published /
        // repack_start / repack_end / run_deferred / run_reclaimed) to
        // a JSONL sidecar; CI uploads it as an artifact.
        let journal_path = "BENCH_ingest_journal.jsonl";
        let mut log =
            cf_obs::export::EventLog::open(journal_path, 1 << 20, 3).expect("open journal log");
        let events = engine
            .metrics()
            .journal()
            .drain_to(&mut log)
            .expect("drain epoch journal");
        println!("wrote {events} epoch-lifecycle events to {journal_path}");
    }
}

/// Bootstrap-page magic of a fielddb-format database file (page 0:
/// magic + catalog pointer). Shared with the `fielddb` CLI so `bench
/// --record` / `replay` interoperate with databases it creates.
const BOOT_MAGIC: u64 = 0x3142_444C_4649_4243; // "CBIFLDB1"

/// Opens the I-Hilbert index of a fielddb-format database file via its
/// bootstrap page.
fn open_db_index(
    engine: &cf_storage::StorageEngine,
) -> Result<IHilbert<cf_field::GridField>, String> {
    use cf_storage::PageId;
    if engine.num_pages() == 0 {
        return Err("empty database file".into());
    }
    let (magic, catalog) = engine
        .with_page(PageId(0), |p| {
            (
                u64::from_le_bytes(p[0..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(p[8..16].try_into().expect("8 bytes")),
            )
        })
        .map_err(|e| format!("read bootstrap page: {e}"))?;
    if magic != BOOT_MAGIC {
        return Err("not a fielddb database (bad bootstrap magic)".into());
    }
    IHilbert::open(engine, PageId(catalog)).map_err(|e| format!("open catalog: {e}"))
}

/// `bench --record <wrk>`: builds (or reopens, via `--db`) a
/// file-backed database, runs a deterministic traced Q2 sweep against
/// it, and drains the flight recorder into a versioned `.wrk` workload
/// file. The database file is left in place — `repro replay --workload
/// <wrk> --db <db>` must reproduce every recorded answer digest.
fn record_bench(opts: &Opts) {
    use cf_obs::encode_wrk;
    use cf_storage::{PageId, StorageConfig, StorageEngine, PAGE_SIZE};

    let wrk_path = opts.record.as_deref().expect("--record path");
    let db_path = opts.db.clone().unwrap_or_else(|| format!("{wrk_path}.db"));
    let k = opts.k.unwrap_or(7);
    let nq = opts.queries.unwrap_or(32);
    let fresh = !std::path::Path::new(&db_path).exists();
    let engine =
        StorageEngine::open_file(&db_path, StorageConfig::default()).expect("open database file");
    let index = if fresh {
        // Deterministic fractal terrain behind a fielddb-compatible
        // bootstrap page, so the file replays (and opens in fielddb)
        // across processes.
        let field = diamond_square(k, 0.6, 0x3EC0DE);
        let boot = engine.allocate_page().expect("allocate bootstrap page");
        assert_eq!(boot, PageId(0), "bootstrap must be page 0");
        let index = IHilbert::build(&engine, &field).expect("build");
        let catalog = index.save(&engine).expect("save");
        let mut buf = [0u8; PAGE_SIZE];
        buf[0..8].copy_from_slice(&BOOT_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&catalog.0.to_le_bytes());
        engine.write_page(boot, &buf).expect("write bootstrap page");
        engine.sync().expect("sync");
        index
    } else {
        match open_db_index(&engine) {
            Ok(index) => index,
            Err(e) => {
                eprintln!("bench --record: cannot open {db_path}: {e}");
                std::process::exit(2);
            }
        }
    };
    eprintln!(
        "[record] {} over {db_path} ({} cells), {nq} traced queries…",
        if fresh { "fresh build" } else { "reopened" },
        index.inner_len(),
    );

    let tracer = engine.metrics().tracer();
    tracer.set_enabled(true);
    let queries = interval_queries(index.value_domain(), 0.02, nq, 0x3EC);
    for q in &queries {
        index.query_stats(&engine, *q).expect("query");
    }
    let records = tracer.drain_workload();
    if records.is_empty() {
        eprintln!("bench --record: no queries captured — the binary was built with obs-off");
        std::process::exit(1);
    }
    let bytes = encode_wrk(&records);
    std::fs::write(wrk_path, &bytes).expect("write workload file");

    println!("### bench --record — workload capture\n");
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
}

/// `replay --workload <wrk> --db <db>`: re-executes a recorded
/// workload against a database, recomputes the per-query answer
/// digests and EXPLAIN-style aggregates, and diffs them against the
/// recording. Exits 1 on any divergence. The printed report carries no
/// wall-clock numbers, so two replays of the same inputs are
/// byte-identical. With `--json` the aggregates append a `replay`
/// record to the bench history (`replay_*` names classify as Info —
/// context for trend inspection, never gated).
fn replay_cmd(opts: &Opts) {
    use cf_storage::{StorageConfig, StorageEngine};

    let Some(wrk_path) = opts.workload.as_deref() else {
        eprintln!("replay needs --workload <file.wrk>");
        std::process::exit(2);
    };
    let Some(db_path) = opts.db.as_deref() else {
        eprintln!("replay needs --db <database>");
        std::process::exit(2);
    };
    let bytes = match std::fs::read(wrk_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("replay: read {wrk_path}: {e}");
            std::process::exit(2);
        }
    };
    let records = match cf_obs::decode_wrk(&bytes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay: {wrk_path}: {e}");
            std::process::exit(2);
        }
    };
    let engine =
        StorageEngine::open_file(db_path, StorageConfig::default()).expect("open database file");
    let index = match open_db_index(&engine) {
        Ok(index) => index,
        Err(e) => {
            eprintln!("replay: cannot open {db_path}: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[replay] {} records from {wrk_path} against {db_path} ({} cells)…",
        records.len(),
        index.inner_len(),
    );
    let report = cf_bench::replay_workload(&engine, &index, &records).expect("replay");
    print!("{report}");

    if opts.json {
        let mut rec = cf_bench::history::BenchRecord::new("replay");
        rec.push("replay_records", report.records as f64);
        rec.push("replay_matched", report.matched as f64);
        rec.push("replay_diverged", report.mismatches.len() as f64);
        rec.push("replay_cells_examined", report.cells_examined as f64);
        rec.push("replay_cells_qualifying", report.cells_qualifying as f64);
        rec.push("replay_regions", report.num_regions as f64);
        rec.push("replay_logical_pages", report.logical_pages as f64);
        let history = opts.history.as_deref().unwrap_or("BENCH_history.jsonl");
        cf_bench::history::append_history(history, &rec).expect("append replay history");
        println!("appended run to {history}");
    }
    if !report.ok() {
        std::process::exit(1);
    }
}

/// The regression gate: compares the newest record of the bench history
/// against a median-of-N baseline over the previous runs (noise-aware,
/// per-metric-kind tolerances — see `cf_bench::history`). Exits 1 on
/// regression; exits 0 with a warning when the history holds fewer than
/// two records, so the gate bootstraps cleanly on a fresh branch.
fn regress(opts: &Opts) {
    use cf_bench::history::{compare, load_history};

    let history_path = opts.history.as_deref().unwrap_or("BENCH_history.jsonl");
    let history = match load_history(history_path) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("regress: {e}");
            std::process::exit(2);
        }
    };
    match compare(&history, opts.window, opts.tol_time, opts.tol_count) {
        None => {
            println!(
                "regress: only {} record(s) in {} — need at least 2 for a baseline; skipping gate",
                history.len(),
                history_path
            );
        }
        Some(report) => {
            print!("{report}");
            let regressions = report.regressions();
            if regressions.is_empty() {
                println!(
                    "\nregress: OK — no regressions vs median of {} previous run(s)",
                    report.baseline_runs
                );
            } else {
                println!(
                    "\nregress: FAIL — {} metric(s) regressed:",
                    regressions.len()
                );
                for d in &regressions {
                    println!(
                        "  {}: baseline {:.4} → current {:.4} (tol {:.0}%)",
                        d.name,
                        d.baseline,
                        d.current,
                        d.tolerance * 100.0
                    );
                }
                std::process::exit(1);
            }
        }
    }
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
                curve: cf_index::CurveChoice(curve),
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

    // Adaptive planner: scan fallback for wide bands.
    {
        use cf_index::AdaptiveIndex;
        let probe = IHilbert::build(&engine, &field).expect("build");
        let adaptive = AdaptiveIndex::build(&engine, &field).expect("build");
        println!("### ablation — adaptive planner (probe vs scan fallback)\n");
        println!("| Qinterval | probe pages | adaptive pages | plan |");
        println!("|---|---|---|---|");
        for qi in [0.0, 0.05, 0.2, 0.5, 0.9] {
            let qs = interval_queries(dom, qi, opts.queries_per_point().min(30), 11);
            let pp = run_method_point(&engine, &probe, qi, &qs);
            let pa = run_method_point(&engine, &adaptive, qi, &qs);
            let plan = match adaptive.plan(qs[0]) {
                cf_index::Plan::FullScan => "scan",
                cf_index::Plan::IndexProbe => "probe",
            };
            println!(
                "| {qi:.2} | {:.0} | {:.0} | {plan} |",
                pp.mean_pages, pa.mean_pages
            );
        }
        println!();
    }

    // Subfield statistics, as in Fig. 7's narrative.
    let order = cell_order(&field, Curve::Hilbert);
    let intervals: Vec<Interval> = order.iter().map(|&c| field.cell_interval(c)).collect();
    let sfs = build_subfields(&intervals, SubfieldConfig::default());
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
        let line = "bench --oocore --k 14 --queries 1 --window 1 --tol-time 0 --tol-count 0.5";
        let (cmd, opts) = parse(line).expect("valid");
        assert_eq!(cmd, "bench");
        assert!(opts.oocore);
        assert_eq!((opts.k, opts.queries, opts.window), (Some(14), Some(1), 1));
        assert_eq!((opts.tol_time, opts.tol_count), (0.0, 0.5));
        assert_eq!(parse("").expect("empty").0, "all");
    }

    #[test]
    fn queries_must_be_a_positive_number() {
        assert!(rejected("fig8b --queries 0").contains("at least 1"));
        assert!(rejected("fig8b --queries abc").contains("needs a number"));
        assert!(rejected("fig8b --queries -3").contains("needs a number"));
    }

    #[test]
    fn grid_exponent_must_be_in_range() {
        for k in ["0", "15", "40"] {
            assert!(rejected(&format!("bench --oocore --k {k}")).contains("in 1..=14"));
        }
        assert!(rejected("bench --k x").contains("needs a number"));
    }

    #[test]
    fn window_must_be_positive() {
        assert!(rejected("regress --window 0").contains("at least 1"));
    }

    #[test]
    fn tolerances_must_be_finite_and_non_negative() {
        for flag in ["--tol-time", "--tol-count"] {
            for v in ["-0.1", "NaN", "inf", "-inf"] {
                let e = rejected(&format!("regress {flag} {v}"));
                assert!(e.contains("finite and non-negative"), "{flag} {v}: {e}");
            }
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        assert!(rejected("fig8b --queries").contains("needs a value"));
        assert!(rejected("replay --db").contains("needs a value"));
        assert!(rejected("fig8b --bogus 0").contains("unknown flag"));
    }
}
