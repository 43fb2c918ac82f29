//! Integration checks of the I/O cost model — the quantities the
//! benchmark harness reports must behave the way the paper's cost
//! arguments assume.

use contfield::index::build_subfields;
use contfield::prelude::*;
use contfield::storage::PageCodec;
use contfield::workload::{
    fractal::diamond_square, noise::urban_noise_tin, queries::interval_queries,
};

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
    // Reading a subfield's cells costs ceil(len/per_page) pages, with no
    // page-boundary straddle: its cells are contiguous — the entire
    // point of storing cells in Hilbert order (paper Fig. 6) — and the
    // grouping never lets a subfield cross a data page, so each
    // retrieved subfield is one page.
    let field = diamond_square(6, 0.8, 13);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");

    let band = Interval::new(dom.denormalize(0.3), dom.denormalize(0.32));
    engine.clear_cache();
    let stats = index.query_stats(&engine, band).expect("query");
    let per_page = 4096 / 64; // GridCellRecord::SIZE == 64
    let data_reads = stats.io.logical_reads() - stats.filter_pages;
    let min_pages = (stats.cells_examined as u64).div_ceil(per_page);
    let max_pages = stats.intervals_retrieved as u64;
    assert!(
        (min_pages..=max_pages).contains(&data_reads),
        "{data_reads} data page reads outside the contiguity bounds {min_pages}..={max_pages}"
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

fn engine_with(codec: PageCodec) -> StorageEngine {
    StorageEngine::new(StorageConfig {
        codec,
        ..StorageConfig::default()
    })
}

/// Fails unless every subfield of `index` lies on one data page, counted
/// from the cell file's page spans, and `straddling_subfields` agrees.
fn assert_no_subfield_spans_a_page<F: FieldModel>(index: &IHilbert<F>, ctx: &str) {
    let file = index.cell_file();
    let page_starts: Vec<usize> = (1..file.data_pages())
        .map(|page| file.page_span(page).start)
        .collect();
    for sf in index.subfields() {
        let (start, end) = (sf.start as usize, sf.end as usize);
        assert!(
            !page_starts.iter().any(|&s| start < s && s < end),
            "{ctx}: subfield [{start}, {end}) spans a data page boundary"
        );
    }
    assert_eq!(index.straddling_subfields(), 0, "{ctx}");
}

/// Builds `field` on raw and on compressed pages, checks the grouping,
/// then ingests `bump`ed records for every seventh cell, repacks, and
/// checks the catalog the repack saved.
fn assert_pages_bound_the_grouping<F: FieldModel>(
    name: &str,
    field: &F,
    bump: impl Fn(&mut F::CellRec),
) {
    for codec in [PageCodec::Raw, PageCodec::Compressed] {
        let ctx = format!("{name} {codec:?}");
        let engine = engine_with(codec);
        let index = IHilbert::build(&engine, field).expect("build");
        assert!(index.data_pages() > 4, "{ctx}");
        assert_no_subfield_spans_a_page(&index, &format!("{ctx} build"));
        let live = LiveIngest::new(&engine, index, IngestConfig::default()).expect("live");
        for cell in (0..field.num_cells()).step_by(7) {
            let mut rec = field.cell_record(cell);
            bump(&mut rec);
            live.ingest(&engine, cell, rec).expect("ingest");
        }
        assert!(live.repack(&engine).expect("repack").repacked, "{ctx}");
        let catalog = live.save(&engine).expect("save");
        let reopened = IHilbert::<F>::open(&engine, catalog).expect("open");
        assert_no_subfield_spans_a_page(&reopened, &format!("{ctx} repack"));
    }
}

#[test]
fn no_subfield_spans_a_data_page_after_a_build_or_a_repack() {
    assert_pages_bound_the_grouping("grid", &diamond_square(7, 0.8, 13), |rec| {
        rec.vals[0] += 3.0;
    });
    assert_pages_bound_the_grouping("tin", &urban_noise_tin(5_000, 13), |rec| {
        rec.values[1] += 3.0;
    });
}

#[test]
fn a_grid_query_reads_exactly_the_pages_that_hold_a_qualifying_cell() {
    // On a grid the Hilbert curve steps between neighbouring cells, which
    // share a vertex, so a subfield's interval has no gaps: a band that
    // meets it meets one of its cells, and that cell's page is the
    // subfield's only page.
    let field = diamond_square(7, 0.8, 6);
    let dom = field.value_domain();
    for codec in [PageCodec::Raw, PageCodec::Compressed] {
        let engine = engine_with(codec);
        let index = IHilbert::build(&engine, &field).expect("build");
        let file = index.cell_file();
        let records = file.read_range(&engine, 0..file.len()).expect("records");
        for (i, qi) in [0.0, 0.01, 0.05, 0.2].into_iter().enumerate() {
            for band in interval_queries(dom, qi, 16, 31 + i as u64) {
                let want = (0..file.data_pages())
                    .filter(|&page| {
                        records[file.page_span(page)]
                            .iter()
                            .any(|rec| GridField::record_interval(rec).intersects(band))
                    })
                    .count() as u64;
                let stats = index.query_stats(&engine, band).expect("query");
                assert_eq!(
                    stats.io.logical_reads() - stats.filter_pages,
                    want,
                    "{codec:?} band {band}"
                );
            }
        }
    }
}

#[test]
fn an_ingest_into_the_tin_plateau_reads_one_data_page() {
    // Far from every source the noise level is nearly flat: the paper's
    // rule, which ignores pages, keeps a long run of those cells as one
    // subfield however many pages it fills.
    let field = urban_noise_tin(5_000, 0xEDB7);
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");
    let order = contfield::index::cell_order(&field, Curve::Hilbert);
    let intervals: Vec<Interval> = order.iter().map(|&c| field.cell_interval(c)).collect();
    let plateau = build_subfields(&intervals, SubfieldConfig::default())
        .into_iter()
        .max_by_key(|sf| sf.len())
        .map(|sf| sf.start as usize..sf.end as usize)
        .expect("subfields");
    let file = index.cell_file();
    let pages = file.page_no_of(plateau.end - 1) - file.page_no_of(plateau.start) + 1;
    assert!(pages > 2, "the plateau {plateau:?} fills {pages} pages");
    let live = LiveIngest::new(&engine, index, IngestConfig::default()).expect("live");
    for pos in [
        plateau.start,
        (plateau.start + plateau.end) / 2,
        plateau.end - 1,
    ] {
        let cell = order[pos];
        let before = contfield::storage::thread_io_stats();
        live.ingest(&engine, cell, field.cell_record(cell))
            .expect("ingest");
        let reads = (contfield::storage::thread_io_stats() - before).logical_reads();
        assert!(reads <= 1, "an ingest at position {pos} read {reads} pages");
    }
}
