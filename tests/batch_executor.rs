//! Cross-crate integration of the parallel batch executor: on the same
//! workloads `cross_method_consistency` uses, [`QueryBatch`] must return
//! statistics **bit-identical** to running each query sequentially —
//! same counts, bit-exact areas, same logical page reads — for every
//! method, because parallelism is across whole queries and each query
//! runs the ordinary sequential pipeline.

use contfield::prelude::*;
use contfield::workload::{
    fractal::diamond_square, monotonic::monotonic_field, noise::urban_noise_tin,
    queries::interval_queries,
};

fn sweep(dom: Interval, seed: u64) -> Vec<Interval> {
    let mut queries = Vec::new();
    for qi in [0.0, 0.01, 0.05, 0.1] {
        queries.extend(interval_queries(dom, qi, 10, seed + (qi * 1000.0) as u64));
    }
    queries.push(dom);
    queries.push(Interval::new(dom.hi + 1.0, dom.hi + 2.0));
    queries.push(Interval::point(dom.lo));
    queries.push(Interval::point(dom.hi));
    queries
}

/// Runs `queries` through the batch executor at several thread counts
/// and demands bit-identical statistics to the sequential loop.
fn assert_batch_equals_sequential<F: FieldModel + Sync>(field: &F, queries: &[Interval]) {
    let engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&engine, field).expect("build");
    let iall = IAll::build(&engine, field).expect("build");
    let ihilbert = IHilbert::build(&engine, field).expect("build");
    let iquad = {
        let dom = field.value_domain();
        IntervalQuadtree::build(&engine, field, dom.width() / 16.0).expect("build")
    };
    let methods: Vec<&dyn ValueIndex> = vec![&scan, &iall, &ihilbert, &iquad];

    for m in &methods {
        // Sequential reference.
        let want: Vec<QueryStats> = queries
            .iter()
            .map(|q| m.query_stats(&engine, *q).expect("query"))
            .collect();
        for threads in [1, 4] {
            let report = QueryBatch::new(queries.to_vec())
                .threads(threads)
                .run(&engine, *m)
                .expect("run");
            assert_eq!(report.results.len(), queries.len());
            for (i, (r, ws)) in report.results.iter().zip(&want).enumerate() {
                assert_eq!(r.band, queries[i], "{}: order preserved", m.name());
                assert_eq!(
                    r.stats.area.to_bits(),
                    ws.area.to_bits(),
                    "{}: area must be bit-exact for {}",
                    m.name(),
                    queries[i]
                );
                // Hits and misses split by pool state; their sum is fixed.
                assert_eq!(
                    r.stats.io.logical_reads(),
                    ws.io.logical_reads(),
                    "{}",
                    m.name()
                );
                let counts = |s: &QueryStats| QueryStats {
                    area: 0.0,
                    io: IoStats::default(),
                    ..*s
                };
                assert_eq!(counts(&r.stats), counts(ws), "{}", m.name());
            }
        }
    }
}

#[test]
fn batch_is_byte_identical_on_fractal_grid() {
    let field = diamond_square(5, 0.5, 77);
    let dom = field.value_domain();
    assert_batch_equals_sequential(&field, &sweep(dom, 1));
}

#[test]
fn batch_is_byte_identical_on_monotonic_grid() {
    let field = monotonic_field(48);
    let dom = field.value_domain();
    assert_batch_equals_sequential(&field, &sweep(dom, 2));
}

#[test]
fn batch_is_byte_identical_on_noise_tin() {
    let field = urban_noise_tin(1200, 5);
    let dom = field.value_domain();
    assert_batch_equals_sequential(&field, &sweep(dom, 3));
}

#[test]
fn batch_aggregates_are_sums_of_per_query_stats() {
    let field = diamond_square(5, 0.7, 9);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");
    let queries = sweep(dom, 4);
    let report = QueryBatch::new(queries)
        .threads(4)
        .run(&engine, &index)
        .expect("run");

    let (mut subfields, mut qualifying, mut examined) = (0, 0, 0);
    let mut io = IoStats::default();
    for r in &report.results {
        subfields += r.stats.intervals_retrieved;
        qualifying += r.stats.cells_qualifying;
        examined += r.stats.cells_examined;
        io = io + r.stats.io;
    }
    assert!(0 < qualifying && qualifying <= examined);
    let totals = format!("subfields {subfields}, cells {qualifying}/{examined}");
    assert!(report.to_string().contains(&totals), "{report}");
    assert_eq!(report.total_io(), io);
    assert_eq!(io.pool_misses, io.disk_reads, "misses are physical reads");
    assert!(report.mean_query_wall() <= report.max_query_wall());
}
