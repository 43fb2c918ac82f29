//! Shared experiment harness for reproducing the paper's evaluation.
//!
//! Every figure of §4 is a sweep: for each `Qinterval`, draw random
//! interval queries over the normalized value domain, run them cold
//! against each method, and report the mean execution time. This crate
//! provides that loop once, parameterized by field and method set, and
//! both the `repro` binary (tables for EXPERIMENTS.md) and the Criterion
//! benches drive it.
//!
//! ## Timing model
//!
//! The paper ran disk-resident on 2002 hardware; on a modern machine the
//! whole database fits in RAM, so wall-clock time alone would understate
//! the I/O differences the paper measures. The harness therefore charges
//! a configurable latency per *physical* page read (default 20 µs — a
//! fast-disk stand-in documented in DESIGN.md §3) and reports page
//! counts alongside time, so both the paper's metric (time) and its
//! mechanism (pages) are visible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;
pub mod replay;

pub use replay::{replay_workload, ReplayMismatch, ReplayReport};

use cf_field::FieldModel;
use cf_geom::Interval;
use cf_index::{BatchReport, IAll, IHilbert, IntervalQuadtree, LinearScan, QueryBatch, ValueIndex};
use cf_storage::{PageCodec, StorageConfig, StorageEngine};
use cf_workload::queries::interval_queries;
use std::time::{Duration, Instant};

/// Experiment-wide knobs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Latency charged per physical page read (µs).
    pub read_latency_us: u64,
    /// Buffer pool capacity (pages).
    pub pool_pages: usize,
    /// Random interval queries per `Qinterval` point (paper: 200).
    pub queries_per_point: usize,
    /// Clear the buffer pool before every query (the paper's regime).
    pub cold_cache: bool,
    /// Seed for the query generator.
    pub seed: u64,
    /// Include the Interval-Quadtree ablation method.
    pub with_iquad: bool,
    /// On-page layout for cell files (raw fixed-stride or compressed).
    pub codec: PageCodec,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            read_latency_us: 20,
            pool_pages: 256,
            queries_per_point: 200,
            cold_cache: true,
            seed: 0xED_B7,
            with_iquad: false,
            codec: PageCodec::Raw,
        }
    }
}

impl ExperimentConfig {
    /// The storage engine this experiment runs on.
    pub fn engine(&self) -> StorageEngine {
        StorageEngine::new(StorageConfig {
            pool_pages: self.pool_pages,
            read_latency: Duration::from_micros(self.read_latency_us),
            codec: self.codec,
        })
    }
}

/// One `(method, Qinterval)` cell of a result table.
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

/// Builds the paper's three methods (plus optionally I-Quad) over
/// `field` and runs the `Qinterval` sweep.
pub fn run_sweep<F: FieldModel + Sync>(
    figure: &str,
    field: &F,
    qintervals: &[f64],
    config: &ExperimentConfig,
) -> SweepResult {
    let engine = config.engine();
    let scan = LinearScan::build(&engine, field).expect("build LinearScan");
    let iall = IAll::build(&engine, field).expect("build I-All");
    let ihilbert = IHilbert::build(&engine, field).expect("build I-Hilbert");
    let iquad = config.with_iquad.then(|| {
        let dom = field.value_domain();
        IntervalQuadtree::build(&engine, field, dom.width() / 32.0).expect("build I-Quad")
    });

    let mut methods: Vec<&dyn ValueIndex> = vec![&scan, &iall, &ihilbert];
    if let Some(ref iq) = iquad {
        methods.push(iq);
    }

    let intervals = methods
        .iter()
        .map(|m| (m.name(), m.num_intervals()))
        .collect();

    let dom = field.value_domain();
    let mut points = Vec::new();
    for (qi_idx, &qi) in qintervals.iter().enumerate() {
        let queries = interval_queries(
            dom,
            qi,
            config.queries_per_point,
            config.seed + qi_idx as u64,
        );
        for m in &methods {
            points.push(run_method_point(&engine, *m, qi, &queries, config));
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

/// Runs one method over one query batch.
pub fn run_method_point(
    engine: &StorageEngine,
    method: &dyn ValueIndex,
    qinterval: f64,
    queries: &[Interval],
    config: &ExperimentConfig,
) -> MethodPoint {
    let mut total_time = Duration::ZERO;
    let mut pages = 0u64;
    let mut disk = 0u64;
    let mut cells = 0usize;
    let mut qualifying = 0usize;
    for q in queries {
        if config.cold_cache {
            engine.clear_cache();
        }
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
/// only the worker count varies. With a simulated read latency the
/// speedup measures how well the sharded pool lets workers overlap
/// their I/O waits.
pub fn run_batch_scaling(
    engine: &StorageEngine,
    method: &dyn ValueIndex,
    queries: &[Interval],
    thread_counts: &[usize],
) -> Vec<BatchReport> {
    thread_counts
        .iter()
        .map(|&threads| {
            engine.clear_cache();
            QueryBatch::new(queries.to_vec())
                .threads(threads)
                .run(engine, method)
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

/// Speedup of `method` over `baseline` at each Qinterval (time-based).
pub fn speedups(result: &SweepResult, baseline: &str, method: &str) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for p in &result.points {
        if p.method == method {
            if let Some(b) = result
                .points
                .iter()
                .find(|b| b.method == baseline && b.qinterval == p.qinterval)
            {
                out.push((p.qinterval, b.mean_time_ms / p.mean_time_ms.max(1e-9)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_workload::fractal::diamond_square;

    #[test]
    fn sweep_produces_full_table() {
        let field = diamond_square(4, 0.5, 1);
        let cfg = ExperimentConfig {
            read_latency_us: 0,
            queries_per_point: 5,
            with_iquad: true,
            ..Default::default()
        };
        let result = run_sweep("test", &field, &[0.0, 0.05], &cfg);
        // 4 methods × 2 qintervals.
        assert_eq!(result.points.len(), 8);
        assert_eq!(result.intervals.len(), 4);
        let md = render_markdown(&result);
        assert!(md.contains("I-Hilbert"));
        assert!(md.contains("| 0.05 |"));
        let sp = speedups(&result, "LinearScan", "I-Hilbert");
        assert_eq!(sp.len(), 2);
    }

    #[test]
    fn batch_scaling_keeps_answers_and_shows_speedup() {
        use cf_workload::terrain::roseburg_standin;

        // I/O-bound regime: 8 ms per physical read (the wait sleeps, so
        // workers overlap their faults even on one core — like threads
        // blocked on a real device) and a pool large enough that every
        // fault is a cold first touch paid exactly once per run. The
        // latency is set high enough that sleep overlap, not the per-run
        // CPU cost (which debug builds inflate), decides the ratio.
        let field = roseburg_standin(7);
        let engine = StorageEngine::new(StorageConfig {
            pool_pages: 1024,
            read_latency: Duration::from_millis(8),
            ..StorageConfig::default()
        });
        let index = IHilbert::build(&engine, &field).expect("build");
        let queries = interval_queries(field.value_domain(), 0.05, 48, 0xBA7C);

        let reports = run_batch_scaling(&engine, &index, &queries, &[1, 4]);
        assert_eq!(reports[0].threads, 1);
        assert_eq!(reports[1].threads, 4);
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

        let speedup = reports[0].wall.as_secs_f64() / reports[1].wall.as_secs_f64().max(1e-12);
        assert!(
            speedup >= 2.0,
            "4 threads gave only {speedup:.2}x over 1 thread"
        );

        let md = render_batch_scaling(&reports);
        assert!(md.contains("| 1 |"));
        assert!(md.contains("| 4 |"));
    }

    #[test]
    fn methods_agree_inside_the_harness() {
        let field = diamond_square(4, 0.3, 2);
        let cfg = ExperimentConfig {
            read_latency_us: 0,
            queries_per_point: 10,
            ..Default::default()
        };
        let result = run_sweep("agree", &field, &[0.02], &cfg);
        let qualifying: Vec<f64> = result.points.iter().map(|p| p.mean_qualifying).collect();
        for w in qualifying.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-9,
                "methods disagree: {qualifying:?}"
            );
        }
    }
}
