//! Parallel batch query executor (Q2 at scale).
//!
//! The paper measures one query at a time; a production field store
//! serves many concurrent band queries. [`QueryBatch`] fans a slice of
//! queries across the resident workers ([`Workers`]) on one shared
//! [`StorageEngine`]; the per-thread I/O tally
//! (`cf_storage::thread_io_stats`) keeps every query's [`QueryStats`]
//! exact while its neighbors fault pages on the same engine.
//!
//! The executor runs any [`ValueIndex`] — the paper's three methods,
//! the Interval-Quadtree ablation, or an ingest snapshot — so one batch
//! can be replayed across methods for exact comparisons. It keeps each
//! query's statistics, never its regions.
//!
//! Queries are claimed from an atomic cursor (work stealing), so skewed
//! workloads (a few wide bands among many selective ones) don't idle
//! threads the way a static partition would.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::stats::{QueryStats, ValueIndex};
use crate::workers::{Offer, Workers};
use cf_geom::Interval;
use cf_storage::{CfResult, IoStats, StorageEngine};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch of interval queries plus execution knobs.
///
/// ```
/// use cf_index::{IHilbert, QueryBatch};
/// use cf_field::GridField;
/// use cf_geom::Interval;
/// use cf_storage::StorageEngine;
/// use std::sync::Arc;
///
/// # fn main() -> cf_storage::CfResult<()> {
/// let engine = StorageEngine::in_memory();
/// let field = GridField::from_values(3, 3, vec![0., 1., 2., 3., 4., 5., 6., 7., 8.]);
/// let index = Arc::new(IHilbert::build(&engine, &field)?);
/// let queries = vec![Interval::new(1.0, 2.0), Interval::new(5.0, 7.0)];
/// let report = QueryBatch::new(queries).threads(2).run(&engine, index)?;
/// assert_eq!(report.results.len(), 2);
/// assert!(report.total_io().logical_reads() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QueryBatch {
    queries: Vec<Interval>,
    threads: usize,
}

impl QueryBatch {
    /// A batch over `queries`, defaulting to one thread per available
    /// CPU.
    pub fn new(queries: Vec<Interval>) -> Self {
        Self {
            queries,
            threads: 0,
        }
    }

    /// Caps the query threads; `0` (the default) means one per
    /// available CPU, which is also the cap of every other value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the batch against `index`, returning per-query results in
    /// query order plus batch-level aggregates.
    ///
    /// Each query runs the index's ordinary pipeline on one thread;
    /// parallelism is across queries, so the per-query statistics
    /// (counts, area bits, logical page reads) are identical to calling
    /// [`ValueIndex::query_stats`] in a loop. The caller runs one claim
    /// loop and offers the workers `threads − 1` copies of it, so a batch
    /// on every CPU leaves no worker idle, and the two-thread refine of
    /// its large queries (DESIGN §17.12) comes back to each query's own
    /// thread. A smaller batch leaves workers free to take those halves.
    ///
    /// If any query fails (injected fault, corrupt page), the batch
    /// returns the first failing loop's error; partial results are
    /// discarded.
    pub fn run(&self, engine: &StorageEngine, index: Arc<dyn ValueIndex>) -> CfResult<BatchReport> {
        let set = Workers::global();
        let asked = Some(self.threads).filter(|&n| n > 0).unwrap_or(usize::MAX);
        let threads = asked.min(set.workers + 1).min(self.queries.len()).max(1);
        let t0 = Instant::now();
        let method = index.name();
        let queries: Arc<[Interval]> = self.queries.clone().into();
        let cursor = Arc::new(AtomicUsize::new(0));
        let engine = engine.clone();
        // One thread's share: claim the next query until none is left,
        // keeping each result under its query's position.
        let claim = move || -> CfResult<Vec<(usize, BatchQueryResult)>> {
            let mut done = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&band) = queries.get(i) else {
                    return Ok(done);
                };
                let t0 = Instant::now();
                let stats = index.query_stats(&engine, band)?;
                let wall = t0.elapsed();
                done.push((i, BatchQueryResult { band, stats, wall }));
            }
        };
        let offers: Vec<_> = (1..threads).map(|_| set.offer(claim.clone())).collect();
        let mine = claim();
        let theirs: Vec<_> = offers.into_iter().map(Offer::finish).collect();
        let mut results = mine?;
        for part in theirs {
            results.extend(part?);
        }
        results.sort_unstable_by_key(|&(i, _)| i);
        Ok(BatchReport {
            method,
            threads,
            wall: t0.elapsed(),
            results: results.into_iter().map(|(_, r)| r).collect(),
        })
    }
}

/// One query's outcome inside a batch (an entry of
/// [`BatchReport::results`]).
#[derive(Debug, Clone)]
pub struct BatchQueryResult {
    /// The query band.
    pub band: Interval,
    /// Full per-query statistics (I/O exact, via the thread tally).
    pub stats: QueryStats,
    /// Wall time of this query on its thread.
    pub wall: Duration,
}

/// Aggregated outcome of a [`QueryBatch::run`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Name of the method that ran the batch.
    pub method: String,
    /// Query threads: the requested count capped by the CPUs and the
    /// queries.
    pub threads: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Per-query results, in the order the queries were given.
    pub results: Vec<BatchQueryResult>,
}

impl BatchReport {
    /// Sum of every query's I/O.
    pub fn total_io(&self) -> IoStats {
        self.results
            .iter()
            .fold(IoStats::default(), |acc, r| acc + r.stats.io)
    }

    /// Mean per-query wall time.
    pub fn mean_query_wall(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum::<Duration>() / self.results.len().max(1) as u32
    }

    /// Largest single-query wall time.
    pub fn max_query_wall(&self) -> Duration {
        self.results
            .iter()
            .map(|r| r.wall)
            .max()
            .unwrap_or_default()
    }

    /// Completed queries per second of batch wall time.
    pub fn queries_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.results.len() as f64 / secs
        }
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let io = self.total_io();
        let sum = |stat: fn(&QueryStats) -> usize| -> usize {
            self.results.iter().map(|r| stat(&r.stats)).sum()
        };
        write!(
            f,
            "{}: {} queries on {} threads in {:.2?} ({:.0} q/s) — \
             pages {} (disk {}), subfields {}, cells {}/{}, \
             per-query wall mean {:.2?} max {:.2?}",
            self.method,
            self.results.len(),
            self.threads,
            self.wall,
            self.queries_per_second(),
            io.logical_reads(),
            io.disk_reads,
            sum(|s| s.intervals_retrieved),
            sum(|s| s.cells_qualifying),
            sum(|s| s.cells_examined),
            self.mean_query_wall(),
            self.max_query_wall(),
        )
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ihilbert::IHilbert;
    use crate::linear::LinearScan;
    use cf_field::GridField;

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

    fn bands() -> Vec<Interval> {
        (0..40)
            .map(|i| {
                let lo = -50.0 + i as f64 * 2.0;
                Interval::new(lo, lo + 7.0)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_loop_exactly() {
        let engine = StorageEngine::in_memory();
        let field = wavy_field(32);
        let index = Arc::new(IHilbert::build(&engine, &field).expect("build"));
        let queries = bands();

        let report = QueryBatch::new(queries.clone())
            .threads(4)
            .run(&engine, Arc::clone(&index) as Arc<dyn ValueIndex>)
            .expect("run");
        assert_eq!(report.results.len(), queries.len());
        assert_eq!(report.threads, (Workers::global().workers + 1).min(4));

        for (i, q) in queries.iter().enumerate() {
            let r = &report.results[i];
            assert_eq!(r.band, *q, "results keep query order");
            let want = index.query_stats(&engine, *q).expect("query");
            assert_eq!(
                r.stats.area.to_bits(),
                want.area.to_bits(),
                "area bit-exact"
            );
            // Hits and misses split by pool state; their sum is fixed.
            assert_eq!(r.stats.io.logical_reads(), want.io.logical_reads());
            let counts = |s: &QueryStats| QueryStats {
                area: 0.0,
                io: IoStats::default(),
                ..*s
            };
            assert_eq!(counts(&r.stats), counts(&want));
        }
    }

    #[test]
    fn per_query_io_is_exact_under_concurrency() {
        let engine = StorageEngine::in_memory();
        let field = wavy_field(48);
        let index = Arc::new(IHilbert::build(&engine, &field).expect("build"));
        let queries = bands();

        // Warm the cache fully, then batch: per-query accounting must
        // show zero disk reads and hits exactly equal to a sequential
        // warm run, even with 8 workers interleaving.
        for q in &queries {
            index.query_stats(&engine, *q).expect("warmup query");
        }
        let warm: Vec<QueryStats> = queries
            .iter()
            .map(|q| index.query_stats(&engine, *q).expect("query"))
            .collect();
        let report = QueryBatch::new(queries)
            .threads(8)
            .run(&engine, Arc::clone(&index) as Arc<dyn ValueIndex>)
            .expect("run");
        for (r, w) in report.results.iter().zip(&warm) {
            assert_eq!(r.stats.io.disk_reads, 0, "warm batch must not fault");
            assert_eq!(r.stats.io.logical_reads(), w.io.logical_reads());
            assert_eq!(r.stats.filter_pages, w.filter_pages);
        }
        assert_eq!(report.total_io().disk_reads, 0);
    }

    #[test]
    fn single_thread_and_empty_batch_work() {
        let engine = StorageEngine::in_memory();
        let field = wavy_field(8);
        let index = Arc::new(LinearScan::build(&engine, &field).expect("build"));

        let empty = QueryBatch::new(Vec::new())
            .run(&engine, Arc::clone(&index) as Arc<dyn ValueIndex>)
            .expect("run");
        assert!(empty.results.is_empty());
        assert_eq!(empty.queries_per_second(), 0.0);
        assert_eq!(empty.total_io(), IoStats::default());

        let one = QueryBatch::new(vec![Interval::new(0.0, 5.0)])
            .threads(1)
            .run(&engine, index)
            .expect("run");
        assert_eq!(one.results.len(), 1);
        assert_eq!(one.threads, 1);
        let display = format!("{one}");
        assert!(display.contains("LinearScan"));
        assert!(display.contains("1 queries"));
    }

    #[test]
    fn thread_count_is_capped_by_query_count() {
        let engine = StorageEngine::in_memory();
        let field = wavy_field(8);
        let index = Arc::new(LinearScan::build(&engine, &field).expect("build"));
        let report = QueryBatch::new(vec![Interval::new(0.0, 1.0); 3])
            .threads(16)
            .run(&engine, index)
            .expect("run");
        assert_eq!(report.threads, (Workers::global().workers + 1).min(3));
    }
}
