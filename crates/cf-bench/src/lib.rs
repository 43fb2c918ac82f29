//! Shared experiment harness for reproducing the paper's evaluation.
//!
//! Every figure of §4 is a sweep: for each `Qinterval`, draw random
//! interval queries over the normalized value domain, run them cold
//! against each method, and report the mean execution time. This crate
//! provides that loop once, parameterized by field and `Qinterval`s, and
//! the `repro` binary (tables for EXPERIMENTS.md) drives it.
//!
//! ## Timing model
//!
//! One clock: wall time on a real file. Every sweep builds its methods
//! on [`StorageEngine::open_file`] over a temporary database ([`TempDb`])
//! with a 256-page pool that is cleared before every query; the OS page
//! cache is left as it is, every physical read is checksum-verified as
//! in the product, and no delay is injected. Page counts — the paper's
//! mechanism, and deterministic — are reported beside the time.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod replay;

pub use replay::{record_workload, replay_workload, ReplayMismatch, ReplayReport};

use cf_field::FieldModel;
use cf_geom::Interval;
use cf_index::{BatchReport, IAll, IHilbert, LinearScan, QueryBatch, ValueIndex};
use cf_storage::{StorageConfig, StorageEngine};
use cf_workload::queries::interval_queries;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Seed of the first `Qinterval`'s query batch; point *i* uses
/// `QUERY_SEED + i`.
const QUERY_SEED: u64 = 0xED_B7;

/// A database file in the system temp directory, named
/// `<prefix>_<pid>_<n>.db`, whose `.db` and `.crc` files are removed
/// when the guard drops — on success, on an early return and on
/// a panic alike.
pub struct TempDb {
    path: PathBuf,
}

impl TempDb {
    /// Reserves a fresh path (clearing anything a dead process with the
    /// same pid left there).
    pub fn new(prefix: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}_{}_{n}.db", std::process::id()));
        let db = Self { path };
        db.remove();
        db
    }

    /// The database file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens (or reopens) the database with the default configuration:
    /// a 256-page pool and raw pages.
    pub fn open(&self) -> StorageEngine {
        StorageEngine::open_file(&self.path, StorageConfig::default()).expect("open database file")
    }

    fn remove(&self) {
        for ext in ["", ".crc"] {
            let mut p = self.path.clone().into_os_string();
            p.push(ext);
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        self.remove();
    }
}

/// One `(method, Qinterval)` cell of a result table (the type
/// [`run_method_point`] returns).
#[derive(Debug, Clone)]
pub struct MethodPoint {
    /// Method name as in the paper's legend.
    pub method: String,
    /// Relative query-interval width.
    pub qinterval: f64,
    /// Mean query execution time (ms).
    pub mean_time_ms: f64,
    /// Mean logical page reads per query.
    pub mean_pages: f64,
    /// Mean physical (cold) page reads per query.
    pub mean_disk_reads: f64,
    /// Mean cells examined in the estimation step.
    pub mean_cells: f64,
    /// Mean qualifying cells (query selectivity × cell count).
    pub mean_qualifying: f64,
}

/// A whole figure: the sweep results plus context.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Figure id, e.g. `"fig8a"`.
    pub figure: String,
    /// Number of cells in the dataset.
    pub num_cells: usize,
    /// Data + per-method index sizes in pages.
    pub data_pages: usize,
    /// Subfield/interval count per method.
    pub intervals: Vec<(String, usize)>,
    /// The table body.
    pub points: Vec<MethodPoint>,
}

/// Builds the paper's three methods over `field` on a temporary
/// database file and runs the `Qinterval` sweep, `queries_per_point`
/// cold queries per point.
pub fn run_sweep<F: FieldModel + Sync>(
    figure: &str,
    field: &F,
    qintervals: &[f64],
    queries_per_point: usize,
) -> SweepResult {
    let db = TempDb::new("cf_sweep");
    let engine = db.open();
    let scan = LinearScan::build(&engine, field).expect("build LinearScan");
    let iall = IAll::build(&engine, field).expect("build I-All");
    let ihilbert = IHilbert::build(&engine, field).expect("build I-Hilbert");
    let methods: [&dyn ValueIndex; 3] = [&scan, &iall, &ihilbert];

    let intervals = methods
        .iter()
        .map(|m| (m.name(), m.num_intervals()))
        .collect();

    let dom = field.value_domain();
    let mut points = Vec::new();
    for (qi_idx, &qi) in qintervals.iter().enumerate() {
        let queries = interval_queries(dom, qi, queries_per_point, QUERY_SEED + qi_idx as u64);
        for m in methods {
            points.push(run_method_point(&engine, m, qi, &queries));
        }
    }

    SweepResult {
        figure: figure.to_string(),
        num_cells: field.num_cells(),
        data_pages: scan.data_pages(),
        intervals,
        points,
    }
}

/// Runs one method over one query batch, clearing the buffer pool
/// before every query.
pub fn run_method_point(
    engine: &StorageEngine,
    method: &dyn ValueIndex,
    qinterval: f64,
    queries: &[Interval],
) -> MethodPoint {
    let mut total_time = Duration::ZERO;
    let mut pages = 0u64;
    let mut disk = 0u64;
    let mut cells = 0usize;
    let mut qualifying = 0usize;
    for q in queries {
        engine.clear_cache();
        let t0 = Instant::now();
        let stats = method.query_stats(engine, *q).expect("query");
        total_time += t0.elapsed();
        pages += stats.io.logical_reads();
        disk += stats.io.disk_reads;
        cells += stats.cells_examined;
        qualifying += stats.cells_qualifying;
    }
    let n = queries.len() as f64;
    MethodPoint {
        method: method.name(),
        qinterval,
        mean_time_ms: total_time.as_secs_f64() * 1e3 / n,
        mean_pages: pages as f64 / n,
        mean_disk_reads: disk as f64 / n,
        mean_cells: cells as f64 / n,
        mean_qualifying: qualifying as f64 / n,
    }
}

/// Renders a sweep as a GitHub-flavoured markdown table (one row per
/// `Qinterval`, one time column and one pages column per method).
pub fn render_markdown(result: &SweepResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let methods: Vec<String> = {
        let mut seen = Vec::new();
        for p in &result.points {
            if !seen.contains(&p.method) {
                seen.push(p.method.clone());
            }
        }
        seen
    };
    writeln!(
        out,
        "### {} — {} cells, {} data pages",
        result.figure, result.num_cells, result.data_pages
    )
    .expect("write to string");
    let sizes: Vec<String> = result
        .intervals
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(m, n)| format!("{m}: {n} intervals"))
        .collect();
    writeln!(out, "\n{}\n", sizes.join("; ")).expect("write to string");

    write!(out, "| Qinterval |").expect("write");
    for m in &methods {
        write!(out, " {m} ms | {m} disk |").expect("write");
    }
    writeln!(out).expect("write");
    write!(out, "|---|").expect("write");
    for _ in &methods {
        write!(out, "---|---|").expect("write");
    }
    writeln!(out).expect("write");

    let mut qis: Vec<f64> = Vec::new();
    for p in &result.points {
        if !qis.contains(&p.qinterval) {
            qis.push(p.qinterval);
        }
    }
    for qi in qis {
        write!(out, "| {qi:.2} |").expect("write");
        for m in &methods {
            let p = result
                .points
                .iter()
                .find(|p| p.method == *m && p.qinterval == qi)
                .expect("every (method, qi) present");
            write!(out, " {:.2} | {:.0} |", p.mean_time_ms, p.mean_disk_reads).expect("write");
        }
        writeln!(out).expect("write");
    }
    out
}

/// Runs the same query batch once per entry of `thread_counts`,
/// clearing the buffer pool before each run so every run pays the same
/// fault-in cost, and returns the reports in order.
///
/// This is the throughput-scaling experiment: identical work, identical
/// answers (the executor is byte-identical to the sequential loop),
/// only the worker count varies.
pub fn run_batch_scaling(
    engine: &StorageEngine,
    method: &std::sync::Arc<dyn ValueIndex>,
    queries: &[Interval],
    thread_counts: &[usize],
) -> Vec<BatchReport> {
    thread_counts
        .iter()
        .map(|&threads| {
            engine.clear_cache();
            QueryBatch::new(queries.to_vec())
                .threads(threads)
                .run(engine, method.clone())
                .expect("batch run")
        })
        .collect()
}

/// Renders batch-scaling reports as a markdown table with speedups
/// relative to the first (baseline) report.
pub fn render_batch_scaling(reports: &[BatchReport]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let Some(base) = reports.first() else {
        return out;
    };
    writeln!(
        out,
        "| threads | wall ms | q/s | speedup | mean query ms | max query ms | pages | disk |"
    )
    .expect("write to string");
    writeln!(out, "|---|---|---|---|---|---|---|---|").expect("write to string");
    for r in reports {
        let io = r.total_io();
        writeln!(
            out,
            "| {} | {:.1} | {:.0} | {:.2}x | {:.2} | {:.2} | {} | {} |",
            r.threads,
            r.wall.as_secs_f64() * 1e3,
            r.queries_per_second(),
            base.wall.as_secs_f64() / r.wall.as_secs_f64().max(1e-12),
            r.mean_query_wall().as_secs_f64() * 1e3,
            r.max_query_wall().as_secs_f64() * 1e3,
            io.logical_reads(),
            io.disk_reads,
        )
        .expect("write to string");
    }
    out
}

/// Speedup of `method` over `baseline` at each Qinterval:
/// `(qinterval, time factor, physical-page factor)`.
pub fn speedups(result: &SweepResult, baseline: &str, method: &str) -> Vec<(f64, f64, f64)> {
    let mut out = Vec::new();
    for p in &result.points {
        if p.method == method {
            if let Some(b) = result
                .points
                .iter()
                .find(|b| b.method == baseline && b.qinterval == p.qinterval)
            {
                out.push((
                    p.qinterval,
                    b.mean_time_ms / p.mean_time_ms.max(1e-9),
                    b.mean_disk_reads / p.mean_disk_reads.max(1e-9),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_workload::fractal::diamond_square;
    use std::sync::Arc;

    #[test]
    fn sweep_produces_full_table() {
        let field = diamond_square(4, 0.5, 1);
        let result = run_sweep("test", &field, &[0.0, 0.05], 5);
        // 3 methods × 2 qintervals.
        assert_eq!(result.points.len(), 6);
        assert_eq!(result.intervals.len(), 3);
        let md = render_markdown(&result);
        assert!(md.contains("I-Hilbert"));
        assert!(md.contains("| 0.05 |"));
        let sp = speedups(&result, "LinearScan", "I-Hilbert");
        assert_eq!(sp.len(), 2);
    }

    #[test]
    fn page_columns_do_not_depend_on_the_backing() {
        let field = diamond_square(6, 0.4, 3);
        let db = TempDb::new("cf_sweep");
        let engines = [StorageEngine::in_memory(), db.open()];
        let points: Vec<Vec<MethodPoint>> = engines
            .iter()
            .map(|engine| {
                let scan = LinearScan::build(engine, &field).expect("build");
                let iall = IAll::build(engine, &field).expect("build");
                let ihilbert = IHilbert::build(engine, &field).expect("build");
                let methods: [&dyn ValueIndex; 3] = [&scan, &iall, &ihilbert];
                let mut points = Vec::new();
                for (i, qi) in [0.0, 0.02, 0.1].into_iter().enumerate() {
                    let queries = interval_queries(field.value_domain(), qi, 8, i as u64);
                    for m in methods {
                        points.push(run_method_point(engine, m, qi, &queries));
                    }
                }
                points
            })
            .collect();
        for (mem, file) in points[0].iter().zip(&points[1]) {
            assert_eq!(mem.method, file.method);
            assert_eq!(mem.mean_pages.to_bits(), file.mean_pages.to_bits());
            assert_eq!(
                mem.mean_disk_reads.to_bits(),
                file.mean_disk_reads.to_bits()
            );
            assert_eq!(
                mem.mean_qualifying.to_bits(),
                file.mean_qualifying.to_bits()
            );
        }
        assert_eq!(points[1].len(), 9);
    }

    #[test]
    fn temp_db_is_removed_on_drop() {
        let db = TempDb::new("cf_sweep");
        let path = db.path().to_path_buf();
        let engine = db.open();
        engine.allocate_page().expect("allocate");
        engine.sync().expect("sync");
        assert!(path.exists());
        drop(db);
        for ext in ["", ".crc"] {
            let mut p = path.clone().into_os_string();
            p.push(ext);
            assert!(!Path::new(&p).exists(), "{p:?} left behind");
        }
    }

    #[test]
    fn batch_scaling_keeps_answers_and_shows_speedup() {
        use cf_workload::terrain::roseburg_standin;

        // A pool large enough that every fault is a cold first touch
        // paid exactly once per run, whatever the thread interleaving.
        let field = roseburg_standin(7);
        let db = TempDb::new("cf_sweep");
        let engine = StorageEngine::open_file(
            db.path(),
            StorageConfig {
                pool_pages: 1024,
                ..StorageConfig::default()
            },
        )
        .expect("open");
        let index: Arc<dyn ValueIndex> = Arc::new(IHilbert::build(&engine, &field).expect("build"));
        let queries = interval_queries(field.value_domain(), 0.05, 48, 0xBA7C);

        let reports = run_batch_scaling(&engine, &index, &queries, &[1, 4]);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(reports[0].threads, 1);
        assert_eq!(reports[1].threads, cpus.min(4));
        // Identical work: both runs fault the same pages and return the
        // same answers.
        for (a, b) in reports[0].results.iter().zip(&reports[1].results) {
            assert_eq!(a.stats.cells_qualifying, b.stats.cells_qualifying);
            assert_eq!(a.stats.area.to_bits(), b.stats.area.to_bits());
        }
        assert_eq!(
            reports[0].total_io().disk_reads,
            reports[1].total_io().disk_reads,
            "equal cold fault-in work per run"
        );

        let md = render_batch_scaling(&reports);
        assert!(md.contains("| 1 |"));
        assert!(md.contains(&format!("| {} |", cpus.min(4))));
    }

    #[test]
    fn methods_agree_inside_the_harness() {
        let field = diamond_square(4, 0.3, 2);
        let result = run_sweep("agree", &field, &[0.02], 10);
        let qualifying: Vec<f64> = result.points.iter().map(|p| p.mean_qualifying).collect();
        for w in qualifying.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-9,
                "methods disagree: {qualifying:?}"
            );
        }
    }
}
