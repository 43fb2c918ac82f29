//! Integration checks of the I/O cost model — the quantities the
//! benchmark harness reports must behave the way the paper's cost
//! arguments assume.

use contfield::prelude::*;
use contfield::workload::{fractal::diamond_square, queries::interval_queries};

#[test]
fn index_size_ordering() {
    // Paper §3: I-All's tree is "large and slow"; I-Hilbert stores only
    // a few subfield intervals.
    let field = diamond_square(6, 0.7, 3);
    let engine = StorageEngine::in_memory();
    let iall = IAll::build(&engine, &field).expect("build");
    let ihilbert = IHilbert::build(&engine, &field).expect("build");
    assert!(ihilbert.num_intervals() < iall.num_intervals() / 4);
    assert!(ihilbert.index_pages() < iall.index_pages());
}

#[test]
fn cold_queries_hit_the_disk_warm_queries_do_not() {
    let field = diamond_square(5, 0.5, 4);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let indexes: [Box<dyn ValueIndex>; 3] = [
        Box::new(IHilbert::build(&engine, &field).expect("build")),
        Box::new(IAll::build(&engine, &field).expect("build")),
        Box::new(IntervalQuadtree::build(&engine, &field, dom.width() / 16.0).expect("build")),
    ];
    let band = Interval::new(dom.denormalize(0.4), dom.denormalize(0.45));

    for index in &indexes {
        let name = index.name();
        engine.clear_cache();
        let cold = index.query_stats(&engine, band).expect("query");
        assert_eq!(cold.io.pool_misses, cold.io.disk_reads, "{name}");
        assert!(cold.io.pool_misses > 0, "{name}");
        // Every index reads its runs with one range sweep: a cold query
        // touches each page it needs exactly once.
        assert_eq!(
            cold.io.logical_reads(),
            cold.io.disk_reads,
            "{name}: a cold query must read each page once"
        );

        // Same query warm: all logical reads come from the pool.
        let warm = index.query_stats(&engine, band).expect("query");
        assert_eq!(
            warm.io.disk_reads, 0,
            "{name}: warm query must not touch disk"
        );
        assert_eq!(warm.io.logical_reads(), cold.io.logical_reads(), "{name}");
    }
}

#[test]
fn linear_scan_cost_is_constant_in_query_width() {
    let field = diamond_square(5, 0.5, 5);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&engine, &field).expect("build");
    let mut reads = Vec::new();
    for qi in [0.0, 0.05, 0.1] {
        let q = interval_queries(dom, qi, 1, 9)[0];
        engine.clear_cache();
        reads.push(
            scan.query_stats(&engine, q)
                .expect("query")
                .io
                .logical_reads(),
        );
    }
    assert!(reads.windows(2).all(|w| w[0] == w[1]), "{reads:?}");
}

#[test]
fn ihilbert_beats_linear_scan_at_paper_scale_queries() {
    // At the paper's query widths (Qinterval ≤ 0.1 of the value domain)
    // on smooth terrain, I-Hilbert must read substantially fewer pages.
    let field = diamond_square(7, 0.8, 6); // 128x128 cells
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&engine, &field).expect("build");
    let ih = IHilbert::build(&engine, &field).expect("build");

    // Factors are conservative at this deliberately small test scale
    // (128² cells); the benches demonstrate the paper-scale gaps.
    for (qi, factor) in [(0.0, 3), (0.05, 2), (0.1, 1)] {
        let mut scan_reads = 0u64;
        let mut ih_reads = 0u64;
        for q in interval_queries(dom, qi, 20, 100) {
            engine.clear_cache();
            scan_reads += scan
                .query_stats(&engine, q)
                .expect("query")
                .io
                .logical_reads();
            engine.clear_cache();
            ih_reads += ih
                .query_stats(&engine, q)
                .expect("query")
                .io
                .logical_reads();
        }
        assert!(
            ih_reads * factor < scan_reads,
            "Qinterval {qi}: I-Hilbert {ih_reads} (x{factor}) vs LinearScan {scan_reads}"
        );
    }
}

#[test]
fn subfield_contiguity_bounds_estimation_reads() {
    // Reading a subfield's cells must cost at most
    // ceil(len/per_page) + 1 pages — contiguity is the entire point of
    // storing cells in Hilbert order (paper Fig. 6).
    let field = diamond_square(6, 0.8, 13);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");

    let band = Interval::new(dom.denormalize(0.3), dom.denormalize(0.32));
    engine.clear_cache();
    let stats = index.query_stats(&engine, band).expect("query");
    let per_page = 4096 / 64; // GridCellRecord::SIZE == 64
    let max_pages = stats.filter_nodes
        + (stats.cells_examined as u64).div_ceil(per_page)
        // one potential page-boundary straddle per retrieved subfield
        + stats.intervals_retrieved as u64;
    assert!(
        stats.io.logical_reads() <= max_pages,
        "reads {} exceed contiguity bound {max_pages}",
        stats.io.logical_reads()
    );
}

#[test]
fn concurrent_read_range_accounting_is_exact() {
    // Eight threads hammer overlapping record ranges of one file on one
    // engine. Accounting must stay exact on both planes: the per-thread
    // tallies must sum to the engine's global counters, every logical
    // access must be either a cached hit or a physical read, and the
    // sharded pool's own counters must agree.
    use contfield::storage::{thread_io_stats, RecordFile};

    let field = diamond_square(6, 0.6, 9);
    let engine = StorageEngine::in_memory();
    let records: Vec<_> = (0..field.num_cells())
        .map(|c| field.cell_record(c))
        .collect();
    let file = RecordFile::create(&engine, records).expect("create");
    engine.clear_cache();
    engine.reset_stats();

    let threads = 8;
    let span = 200;
    let per_thread: Vec<IoStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (file, engine) = (&file, &engine);
                scope.spawn(move || {
                    let before = thread_io_stats();
                    for i in 0..10 {
                        let start = (t * 37 + i * 113) % (file.len() - span);
                        let got = file.read_range(engine, start..start + span).expect("read");
                        assert_eq!(got.len(), span);
                    }
                    thread_io_stats() - before
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });

    let sum = per_thread
        .into_iter()
        .fold(IoStats::default(), |acc, s| acc + s);
    let global = engine.io_stats();
    assert_eq!(sum.pool_hits, global.pool_hits, "hit tallies must sum");
    assert_eq!(sum.pool_misses, global.pool_misses, "miss tallies must sum");
    assert_eq!(sum.disk_reads, global.disk_reads, "disk tallies must sum");
    // Conservation: every logical access was served exactly once, from
    // cache or from disk — no double counts, no lost updates.
    assert_eq!(global.pool_misses, global.disk_reads);
    assert_eq!(sum.logical_reads(), sum.pool_hits + sum.pool_misses);
    assert!(
        sum.pool_hits > 0,
        "overlapping ranges must share cached pages"
    );
    assert!(sum.pool_misses > 0, "cold file must fault");
    // The pool's per-shard counters describe the same history.
    let shards = engine.pool().shard_stats();
    assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), global.pool_hits);
    assert_eq!(
        shards.iter().map(|s| s.misses).sum::<u64>(),
        global.pool_misses
    );
}

#[test]
fn buffer_pool_capacity_affects_repeat_queries_only() {
    let field = diamond_square(5, 0.5, 21);
    let dom = field.value_domain();
    let band = Interval::new(dom.denormalize(0.2), dom.denormalize(0.3));

    // Tiny pool: cold cost identical, warm cost higher than with a big
    // pool (re-faults).
    let small = StorageEngine::new(StorageConfig {
        pool_pages: 2,
        ..Default::default()
    });
    let index_small = IHilbert::build(&small, &field).expect("build");
    small.clear_cache();
    let cold_small = index_small.query_stats(&small, band).expect("query");

    let big = StorageEngine::in_memory();
    let index_big = IHilbert::build(&big, &field).expect("build");
    big.clear_cache();
    let cold_big = index_big.query_stats(&big, band).expect("query");

    assert_eq!(
        cold_small.io.logical_reads(),
        cold_big.io.logical_reads(),
        "cold logical reads are pool-independent"
    );
    // Warm repeat: big pool serves from cache.
    let warm_big = index_big.query_stats(&big, band).expect("query");
    assert_eq!(warm_big.io.disk_reads, 0);
    let warm_small = index_small.query_stats(&small, band).expect("query");
    assert!(warm_small.io.disk_reads > 0, "2-page pool must re-fault");
}
