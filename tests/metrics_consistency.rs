//! Registry/legacy consistency under the parallel batch executor: the
//! shared metrics registry must report exactly the same totals as the
//! summed per-query [`QueryStats`], whether the batch ran on one thread
//! or up to four (fig8a-style terrain, cold cache each run).

use contfield::field::FieldModel;
use contfield::index::{IHilbert, QueryBatch};
use contfield::storage::StorageEngine;
use contfield::workload::{queries::interval_queries, terrain::roseburg_standin};
use std::sync::Arc;

const NAMES: &[&str] = &[
    "index_queries_total",
    "index_filter_pages_total",
    "index_refine_pages_total",
    "index_filter_nodes_total",
    "index_intervals_retrieved_total",
    "index_cells_examined_total",
    "index_cells_qualifying_total",
];

/// Runs the same batch on a fresh engine with `threads` workers and
/// returns (registry totals, summed legacy per-query stats) in the
/// order of [`NAMES`].
fn run_batch(threads: usize) -> (Vec<u64>, Vec<u64>) {
    let field = roseburg_standin(6);
    let engine = StorageEngine::in_memory();
    let index = Arc::new(IHilbert::build(&engine, &field).expect("build"));
    engine.reset_stats();

    let queries = interval_queries(field.value_domain(), 0.03, 32, 0xC0FFE);
    let report = QueryBatch::new(queries)
        .threads(threads)
        .run(&engine, index)
        .expect("run");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(report.threads, threads.min(cpus));

    let registry = engine.metrics();
    let labels: &[(&str, &str)] = &[("index", "I-Hilbert")];
    let got: Vec<u64> = NAMES
        .iter()
        .map(|n| registry.counter_value(n, labels).unwrap_or(0))
        .collect();
    let legacy = vec![
        report.results.len() as u64,
        report.results.iter().map(|r| r.stats.filter_pages).sum(),
        report
            .results
            .iter()
            .map(|r| r.stats.io.logical_reads() - r.stats.filter_pages)
            .sum(),
        report.results.iter().map(|r| r.stats.filter_nodes).sum(),
        report
            .results
            .iter()
            .map(|r| r.stats.intervals_retrieved as u64)
            .sum(),
        report
            .results
            .iter()
            .map(|r| r.stats.cells_examined as u64)
            .sum(),
        report
            .results
            .iter()
            .map(|r| r.stats.cells_qualifying as u64)
            .sum(),
    ];

    // The storage plane agrees too: every logical read of the batch hit
    // some shard's hit- or miss-counter.
    assert_eq!(
        registry.counter_total("pool_hits_total") + registry.counter_total("pool_misses_total"),
        report.total_io().logical_reads(),
        "{threads} threads: pool counters vs summed per-query I/O"
    );
    assert_eq!(
        registry.counter_total("storage_disk_reads_total"),
        report.total_io().disk_reads,
        "{threads} threads: disk counters vs summed per-query I/O"
    );

    (got, legacy)
}

#[test]
fn registry_totals_match_legacy_stats_at_any_thread_count() {
    let (one, legacy_one) = run_batch(1);
    let (four, legacy_four) = run_batch(4);
    assert_eq!(
        one, legacy_one,
        "single-threaded registry totals must equal summed QueryStats ({NAMES:?})"
    );
    assert_eq!(
        four, legacy_four,
        "4-thread registry totals must equal summed QueryStats ({NAMES:?})"
    );
    assert_eq!(
        one, four,
        "registry totals must not depend on the worker count ({NAMES:?})"
    );
    // The batch actually did work.
    assert!(one[0] == 32 && one[5] > 0, "{one:?}");
}

/// Ingest-plane extension of the same invariant: with one writer
/// streaming updates (including capacity-forced drains) while four
/// reader threads query pinned epoch snapshots, the registry's
/// `index_*` totals must equal the sum of the per-query stats the
/// readers collected — no double counting across epochs, no lost
/// updates under the concurrent publish path.
#[test]
fn ingest_plane_registry_totals_match_summed_reader_stats() {
    use contfield::geom::Interval;
    use contfield::index::{IngestConfig, LiveIngest, QueryStats, ValueIndex};

    let field = roseburg_standin(5);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(
        &engine,
        base,
        IngestConfig {
            capacity: 64, // small: the stream forces inline drains
            ..Default::default()
        },
    )
    .expect("live");
    engine.reset_stats();

    let num_readers = 4usize;
    let queries_per_reader = 16usize;
    let updates = 256usize;
    let (live, engine, field) = (&live, &engine, &field);
    let per_reader: Vec<Vec<QueryStats>> = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut state = 0xC0FF_EE00_u64;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for _ in 0..updates {
                let cell = (next() % field.num_cells() as u64) as usize;
                let mut rec = live.cell_record(engine, cell).expect("cell record");
                for v in rec.vals.iter_mut() {
                    *v = dom.denormalize((next() >> 11) as f64 / (1u64 << 53) as f64);
                }
                live.ingest(engine, cell, rec).expect("ingest");
            }
        });
        let readers: Vec<_> = (0..num_readers)
            .map(|r| {
                s.spawn(move || {
                    let mut collected = Vec::with_capacity(queries_per_reader);
                    for i in 0..queries_per_reader {
                        let t = ((r * queries_per_reader + i) % 17) as f64 / 20.0;
                        let band =
                            Interval::new(dom.denormalize(t), dom.denormalize((t + 0.1).min(1.0)));
                        let snap = live.snapshot();
                        collected.push(snap.query_stats(engine, band).expect("snapshot query"));
                    }
                    collected
                })
            })
            .collect();
        writer.join().expect("writer");
        readers
            .into_iter()
            .map(|r| r.join().expect("reader"))
            .collect()
    });

    let all: Vec<&QueryStats> = per_reader.iter().flatten().collect();
    assert_eq!(all.len(), num_readers * queries_per_reader);
    let registry = engine.metrics();
    let labels: &[(&str, &str)] = &[("index", "I-Hilbert")];
    let got: Vec<u64> = NAMES
        .iter()
        .map(|n| registry.counter_value(n, labels).unwrap_or(0))
        .collect();
    let legacy: Vec<u64> = vec![
        all.len() as u64,
        all.iter().map(|s| s.filter_pages).sum(),
        all.iter()
            .map(|s| s.io.logical_reads() - s.filter_pages)
            .sum(),
        all.iter().map(|s| s.filter_nodes).sum(),
        all.iter().map(|s| s.intervals_retrieved as u64).sum(),
        all.iter().map(|s| s.cells_examined as u64).sum(),
        all.iter().map(|s| s.cells_qualifying as u64).sum(),
    ];
    assert_eq!(
        got, legacy,
        "ingest-plane registry totals must equal summed reader QueryStats ({NAMES:?})"
    );
    assert!(got[0] > 0 && got[5] > 0, "{got:?}");
}

/// Every EXPLAIN record the tracer retains must be internally
/// consistent: the filter + refine phase timings sum within the
/// enclosing span total, and the per-phase page split adds back up to
/// the query's logical reads.
#[cfg(not(feature = "obs-off"))]
#[test]
fn explain_phase_timings_and_pages_sum_within_the_span() {
    use contfield::index::ValueIndex;

    let field = roseburg_standin(6);
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");
    let tracer = engine.metrics().tracer();
    tracer.set_enabled(true);

    let queries = interval_queries(field.value_domain(), 0.03, 32, 0x51_0E);
    let mut stats = Vec::new();
    for q in &queries {
        stats.push(index.query_stats(&engine, *q).expect("query"));
    }
    let explains = tracer.recent_explains();
    assert_eq!(explains.len(), queries.len(), "one EXPLAIN per query");
    for (e, s) in explains.iter().zip(&stats) {
        assert!(
            e.filter_ns + e.refine_ns <= e.total_ns,
            "query #{}: filter {} + refine {} must sum within total {}",
            e.query_id,
            e.filter_ns,
            e.refine_ns,
            e.total_ns
        );
        assert_eq!(
            e.filter_ns + e.refine_ns + e.other_ns(),
            e.total_ns,
            "query #{}: other_ns must absorb the remainder exactly",
            e.query_id
        );
        assert_eq!(
            e.filter_pages + e.refine_pages,
            s.io.logical_reads(),
            "query #{}: phase pages must add up to the span's logical reads",
            e.query_id
        );
        assert_eq!(e.index.as_str(), "I-Hilbert");
        assert_eq!(e.cells_examined, s.cells_examined as u64);
        assert_eq!(e.cells_qualifying, s.cells_qualifying as u64);
        assert_eq!(e.epoch, 0, "static plane queries pin no epoch");
    }
}

/// Emission is owned by the one Q2 executor, so no query path can drift:
/// with the tracer on, every product index — an ingest snapshot
/// included — adds exactly one record to the tracer's ring, internally
/// consistent and carrying the digest of the answer it returned, and
/// the flight record derived from it agrees with it.
#[cfg(not(feature = "obs-off"))]
#[test]
fn every_index_emits_one_explain_and_one_flight_record() {
    use contfield::geom::Interval;
    use contfield::index::{IAll, IngestConfig, IntervalQuadtree, LiveIngest, ValueIndex};
    use contfield::obs::answer_digest;

    let field = roseburg_standin(5);
    let dom = field.value_domain();
    let narrow = Interval::new(dom.denormalize(0.97), dom.denormalize(0.98));
    let engine = StorageEngine::in_memory();
    let tracer = engine.metrics().tracer();
    tracer.set_enabled(true);
    let mut seen = 0;
    let mut check = |index: &dyn ValueIndex, band: Interval| {
        let what = index.name();
        let stats = index.query_stats(&engine, band).expect("query");
        seen += 1;
        let explains = tracer.recent_explains();
        assert_eq!(explains.len(), seen, "{what}: one ring record per query");
        let e = explains[seen - 1];
        assert_eq!(e.index.as_str(), what, "{what}");
        assert_eq!(e.ordinal, seen as u64 - 1, "{what}");
        assert_eq!(
            e.filter_ns + e.refine_ns + e.other_ns(),
            e.total_ns,
            "{what}"
        );
        assert_eq!(
            e.filter_pages + e.refine_pages,
            stats.io.logical_reads(),
            "{what}: phase pages must add up to the query's logical reads"
        );
        assert_eq!(
            e.digest,
            answer_digest(
                stats.cells_examined as u64,
                stats.cells_qualifying as u64,
                stats.num_regions as u64,
                stats.area,
            ),
            "{what}: the recorded digest is the returned answer's"
        );

        let records = tracer.drain_workload();
        assert_eq!(records.len(), 1, "{what}: one flight record per query");
        assert_eq!(records[0], (&e).into(), "{what}");
        // Every query probes the one filter tree; the `.wrk` layout
        // still names the plane.
        assert_eq!(records[0].plane.as_str(), "paged", "{what}");
    };

    check(&IHilbert::build(&engine, &field).expect("build"), narrow);
    let threshold = dom.width() / 8.0;
    check(
        &IntervalQuadtree::build(&engine, &field, threshold).expect("build"),
        narrow,
    );
    check(&IAll::build(&engine, &field).expect("build"), narrow);

    let base = IHilbert::build(&engine, &field).expect("build");
    let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
    let mut rec = live.cell_record(&engine, 3).expect("cell record");
    rec.vals = [dom.denormalize(0.975); 4];
    live.ingest(&engine, 3, rec).expect("ingest");
    check(&*live.snapshot(), narrow);
}

/// The storage plane times the page codec both ways: a compressed build
/// observes `storage_page_encode` once per data page it writes, a `put`
/// once more, and a full scan observes `storage_page_decode` once per
/// data page it reads.
#[cfg(not(feature = "obs-off"))]
#[test]
fn page_codec_histograms_count_every_compressed_page() {
    use contfield::storage::{PageCodec, StorageConfig};

    let field = roseburg_standin(6);
    let engine = StorageEngine::new(StorageConfig {
        codec: PageCodec::Compressed,
        ..StorageConfig::default()
    });
    let index = IHilbert::build(&engine, &field).expect("build");
    let file = index.cell_file();
    let count = |name| {
        engine
            .metrics()
            .histogram_stats(name, &[])
            .map(|(count, _)| count as usize)
    };
    assert!(file.data_pages() > 1);
    assert_eq!(count("storage_page_encode"), Some(file.data_pages()));
    let record = file.get(&engine, 7).expect("get");
    file.put(&engine, 7, &record).expect("put");
    assert_eq!(count("storage_page_encode"), Some(file.data_pages() + 1));

    engine.reset_stats();
    assert_eq!(count("storage_page_encode"), Some(0));
    file.read_range(&engine, 0..file.len()).expect("scan");
    assert_eq!(count("storage_page_decode"), Some(file.data_pages()));
}
