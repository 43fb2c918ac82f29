//! The staged per-layer replay (`--trace 1`).
//!
//! The harness performs every stage of a build and of a Q2 query itself,
//! through the layer's public entry point, with a span around each call
//! and the registry's counters read at the same boundaries. Nothing here
//! feeds the end-to-end numbers: those come from a separate run with the
//! `Tracer` off ([`crate::e2e`]). What ties the two together is the
//! reconciliation: the stage times of a query (of a build) must add up to
//! the time of the same query (build) through `IHilbert`, measured in
//! this process under the same conditions, within ±15 %.
//!
//! The order stage and the run coalescing are harness copies of
//! `cell_order` and of `SFIndex`'s merge rule (both are private to a
//! call that cannot be entered half-way); the copy of `cell_order` is
//! checked against the original on every run.

use crate::harness::{fatal, Answer, Checker, Db, Oracle, Outcome};
use crate::inputs::{self, BenchField};
use crate::spans::{self_times, Recorder};
use crate::stats::{fastest, mean, ratio};
use crate::workload::{remove_db, results_dir, Spec, TmpDir, INGEST};
use contfield::field::FieldModel;
use contfield::geom::{Aabb, Interval, Polygon};
use contfield::index::{
    build_subfields, cell_order, IHilbert, LiveIngest, Subfield, SubfieldConfig, ValueIndex,
    CURVE_ORDER,
};
use contfield::obs::{Json, MetricsRegistry};
use contfield::rtree::{FrozenTree, PagedRTree, RStarTree, RTreeConfig};
use contfield::sfc::Curve;
use contfield::storage::{
    thread_io_stats, CellFile, CfError, CfResult, PageId, RecordFile, StorageEngine, PAGE_SIZE,
};
use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Bands replayed stage by stage: the workload's mix, thinned to at
/// most this many (a staged query costs about three real ones).
const REPLAY_BANDS: usize = 96;
/// Bands of the snapshot-over-base comparison.
const INGEST_BANDS: usize = 32;
const MIN_BUILDS: usize = 3;
const MAX_BUILDS: usize = 15;
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 30;
/// Drain rounds of the ingest section: fixed work, so its counts
/// repeat exactly.
const ROUNDS: usize = 3;
/// Admissible layer-sum ÷ end-to-end ratios.
const RECONCILE: Range<f64> = 0.85..1.15;

/// Share of `--seconds` per phase.
const BUILD_SHARE: f64 = 0.30;
const QUERY_SHARE: f64 = 0.55;
const OVERHEAD_SHARE: f64 = 0.15;

fn again(done: usize, min: usize, max: usize, deadline: Instant) -> bool {
    done < min || (done < max && Instant::now() < deadline)
}

fn budget(seconds: f64, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds * share)
}

/// The index, built stage by stage from the layers' public parts.
struct Parts<F: FieldModel> {
    engine: StorageEngine,
    file: CellFile<F::CellRec>,
    tree: PagedRTree<1>,
    frozen: FrozenTree<1>,
    subfields: Vec<Subfield>,
    mean_cost_c: f64,
}

/// Stage durations of one staged build, nanoseconds.
#[derive(Default, Clone, Copy)]
struct BuildNs {
    key: f64,
    sort: f64,
    interval: f64,
    group: f64,
    record: f64,
    heap: f64,
    rtree: f64,
    sf_catalog: f64,
    freeze: f64,
}

impl BuildNs {
    /// The stages `IHilbert::build` also runs (it does not freeze).
    fn sum(&self) -> f64 {
        self.key
            + self.sort
            + self.interval
            + self.group
            + self.record
            + self.heap
            + self.rtree
            + self.sf_catalog
    }
}

fn staged_build<F: BenchField>(
    engine: StorageEngine,
    field: &F,
    rec: &mut Recorder,
    id: u64,
) -> Result<(Parts<F>, BuildNs), String> {
    let err = |e: CfError| format!("staged build: {e}");
    let cells = field.num_cells();
    let root = rec.begin("build", id);

    // cf-index.order with cf-sfc.key inside: quantize each centroid
    // onto the curve grid, key it, sort.
    let order_span = rec.begin("cf-index.order", id);
    let key_span = rec.begin("cf-sfc.key", id);
    let domain = field.domain();
    let side = ((1u64 << CURVE_ORDER) - 1) as f64;
    let quantize = |v: f64, lo: f64, extent: f64| {
        if extent > 0.0 {
            (((v - lo) / extent).clamp(0.0, 1.0) * side) as u64
        } else {
            0
        }
    };
    let mut keyed: Vec<(u64, usize)> = (0..cells)
        .map(|cell| {
            let c = field.cell_centroid(cell);
            let qx = quantize(c.x, domain.lo[0], domain.extent(0));
            let qy = quantize(c.y, domain.lo[1], domain.extent(1));
            (Curve::Hilbert.index(qx, qy, CURVE_ORDER), cell)
        })
        .collect();
    let key = rec.end(key_span) as f64;
    keyed.sort_unstable();
    let order: Vec<usize> = keyed.into_iter().map(|(_, cell)| cell).collect();
    rec.end(order_span);
    let sort = self_times(rec.spans())[order_span] as f64;

    let (intervals, interval) = rec.time("cf-field.interval", id, || {
        order
            .iter()
            .map(|&c| field.cell_interval(c))
            .collect::<Vec<Interval>>()
    });
    let (subfields, group) = rec.time("cf-index.subfield", id, || {
        build_subfields(&intervals, SubfieldConfig::default())
    });
    let (records, record) = rec.time("cf-field.record", id, || {
        order
            .iter()
            .map(|&c| field.cell_record(c))
            .collect::<Vec<F::CellRec>>()
    });
    let (file, heap) = rec.time("cf-storage.heap", id, || CellFile::create(&engine, records));
    let file = file.map_err(err)?;
    let (tree, rtree) = rec.time("cf-rtree.build", id, || {
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::page_sized::<1>());
        for sf in &subfields {
            tree.insert(sf.interval.into(), sf.pack());
        }
        PagedRTree::persist(&tree, &engine)
    });
    let tree = tree.map_err(err)?;
    let (sf_file, sf_catalog) = rec.time("cf-index.catalog.subfields", id, || {
        CellFile::create(&engine, subfields.clone())
    });
    sf_file.map_err(err)?;
    rec.end(root);

    // Not part of `IHilbert::build` on the paged plane: timed beside it.
    let (frozen, freeze) = rec.time("cf-rtree.freeze", id, || {
        FrozenTree::from_paged(&engine, &tree)
    });
    let frozen = frozen.map_err(err)?;

    if order != cell_order(field, Curve::Hilbert) {
        return Err("the harness copy of cell_order no longer matches the library".into());
    }
    let mean_cost_c = mean(
        &subfields
            .iter()
            .map(|sf| {
                let si: f64 = intervals[sf.start as usize..sf.end as usize]
                    .iter()
                    .map(|iv| iv.size_with_base(1.0))
                    .sum();
                sf.interval.size_with_base(1.0) / si
            })
            .collect::<Vec<f64>>(),
    );
    let ns = BuildNs {
        key,
        sort,
        interval: interval as f64,
        group: group as f64,
        record: record as f64,
        heap: heap as f64,
        rtree: rtree as f64,
        sf_catalog: sf_catalog as f64,
        freeze: freeze as f64,
    };
    let parts = Parts {
        engine,
        file,
        tree,
        frozen,
        subfields,
        mean_cost_c,
    };
    Ok((parts, ns))
}

/// The registry counters read at stage boundaries.
#[derive(Default, Clone, Copy)]
struct Io {
    hits: f64,
    misses: f64,
    evictions: f64,
    disk_reads: f64,
    disk_read_ns: f64,
    checksums: f64,
    disk_writes: f64,
}

impl Io {
    fn read(registry: &MetricsRegistry) -> Self {
        Self {
            hits: registry.counter_total("pool_hits_total") as f64,
            misses: registry.counter_total("pool_misses_total") as f64,
            evictions: registry.counter_total("pool_evictions_total") as f64,
            disk_reads: registry.counter_total("storage_disk_reads_total") as f64,
            disk_read_ns: registry
                .histogram_stats("storage_disk_read_ns", &[])
                .map_or(0.0, |(_, sum)| sum),
            checksums: registry.counter_total("storage_checksum_verifications_total") as f64,
            disk_writes: registry.counter_total("storage_disk_writes_total") as f64,
        }
    }

    fn since(self, before: Io) -> Io {
        Io {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            disk_reads: self.disk_reads - before.disk_reads,
            disk_read_ns: self.disk_read_ns - before.disk_read_ns,
            checksums: self.checksums - before.checksums,
            disk_writes: self.disk_writes - before.disk_writes,
        }
    }

    fn add(&mut self, other: Io) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.disk_reads += other.disk_reads;
        self.disk_read_ns += other.disk_read_ns;
        self.checksums += other.checksums;
        self.disk_writes += other.disk_writes;
    }
}

/// One staged query: stage durations (ns) and the counts taken at the
/// same boundaries.
#[derive(Default, Clone, Copy)]
struct QuerySample {
    filter: f64,
    frozen_filter: f64,
    coalesce: f64,
    fetch: f64,
    scan: f64,
    test: f64,
    band: f64,
    area: f64,
    nodes: f64,
    subfields: f64,
    filter_pages: f64,
    runs: f64,
    examined: f64,
    qualifying: f64,
    regions: f64,
    /// Pool traffic of the fetch-only replay.
    fetch_io: Io,
    /// Pool and disk traffic of the scan stage.
    scan_io: Io,
    /// Pool and disk traffic of the filter and scan stages.
    io: Io,
}

impl QuerySample {
    /// The stages `IHilbert::query_stats` also runs (the fetch-only
    /// replay repeats part of the scan; the frozen filter is the other
    /// plane).
    fn layer_sum(&self) -> f64 {
        self.filter + self.coalesce + self.scan + self.test + self.band + self.area
    }

    fn refine(&self) -> f64 {
        self.layer_sum() - self.filter
    }
}

/// Buffers a staged query reuses, as `QueryScratch` does for the real one.
struct Scratch<R> {
    payloads: Vec<u64>,
    ranges: Vec<(u32, u32)>,
    runs: Vec<Range<usize>>,
    records: Vec<R>,
    qualifying: Vec<u32>,
    regions: Vec<Polygon>,
}

fn staged_query<F: BenchField>(
    parts: &Parts<F>,
    cold: bool,
    band: Interval,
    rec: &mut Recorder,
    id: u64,
    s: &mut Scratch<F::CellRec>,
) -> CfResult<(QuerySample, Answer)> {
    let Parts {
        engine, file, tree, ..
    } = parts;
    let registry = engine.metrics();
    let query: Aabb<1> = band.into();
    let mut out = QuerySample::default();

    // The other plane, timed beside the query.
    let (search, ns) = rec.time("cf-rtree.frozen_filter", id, || {
        parts.frozen.search_into(&query, &mut s.payloads)
    });
    out.frozen_filter = ns as f64;
    let frozen_hits = search.results;

    let root = rec.begin("query", id);
    if cold {
        engine.clear_cache();
    }
    let (io_before, pages_before) = (Io::read(registry), thread_io_stats());
    let (search, ns) = rec.time("cf-rtree.filter", id, || {
        tree.search_into(engine, &query, &mut s.payloads)
    });
    let search = search?;
    out.filter = ns as f64;
    out.io = Io::read(registry).since(io_before);
    out.filter_pages = (thread_io_stats() - pages_before).logical_reads() as f64;
    out.nodes = search.nodes_visited as f64;
    out.subfields = search.results as f64;
    if frozen_hits != search.results {
        let detail = format!(
            "frozen filter retrieved {frozen_hits} subfields, paged filter {}",
            search.results
        );
        return Err(CfError::corrupt(None, detail));
    }

    // Sort the retrieved record ranges and merge touching neighbours
    // into maximal runs (the rule of `SFIndex`).
    let ((), ns) = rec.time("cf-index.sfindex.coalesce", id, || {
        s.ranges.clear();
        s.ranges.extend(s.payloads.iter().map(|&data| {
            let sf = Subfield::unpack(data, band);
            (sf.start, sf.end)
        }));
        s.ranges.sort_unstable();
        s.runs.clear();
        for &(start, end) in &s.ranges {
            match s.runs.last_mut() {
                Some(last) if start as usize <= last.end => last.end = last.end.max(end as usize),
                _ => s.runs.push(start as usize..end as usize),
            }
        }
    });
    out.coalesce = ns as f64;
    out.runs = s.runs.len() as f64;

    // Fetch and decode, as the real query does it.
    let io_before = Io::read(registry);
    let (scanned, ns) = rec.time("cf-storage.codec", id, || {
        s.records.clear();
        file.for_each_in_ranges(engine, &s.runs, |_, record| s.records.push(record))
    });
    scanned?;
    out.scan = ns as f64;
    out.scan_io = Io::read(registry).since(io_before);
    out.io.add(out.scan_io);
    out.examined = s.records.len() as f64;

    let ((), ns) = rec.time("cf-field.test", id, || {
        s.qualifying.clear();
        for (i, record) in s.records.iter().enumerate() {
            if F::record_interval(record).intersects(band) {
                s.qualifying.push(i as u32);
            }
        }
    });
    out.test = ns as f64;
    out.qualifying = s.qualifying.len() as f64;

    let ((), ns) = rec.time("cf-field.band", id, || {
        s.regions.clear();
        for &i in &s.qualifying {
            s.regions
                .extend(F::record_band_region(&s.records[i as usize], band));
        }
    });
    out.band = ns as f64;
    out.regions = s.regions.len() as f64;

    let (area, ns) = rec.time("cf-geom.area", id, || {
        s.regions.iter().map(Polygon::area).sum::<f64>()
    });
    out.area = ns as f64;
    rec.end(root);

    // Fetch-only replay, beside the query: every page of the runs
    // through the pool, no record decoded. Cold, these are the misses;
    // otherwise the scan has just loaded them and these are the hits.
    if cold {
        engine.clear_cache();
    }
    let page_of = |idx: usize| file.first_page().0 + (file.pages_in_range(0..idx + 1) - 1) as u64;
    let io_before = Io::read(registry);
    let (fetched, ns) = rec.time("cf-storage.pool", id, || -> CfResult<()> {
        let mut next = 0;
        for run in &s.runs {
            for page in page_of(run.start).max(next)..=page_of(run.end - 1) {
                engine.with_page(PageId(page), |buf| black_box(buf[0]))?;
            }
            next = page_of(run.end - 1) + 1;
        }
        Ok(())
    });
    fetched?;
    out.fetch = ns as f64;
    out.fetch_io = Io::read(registry).since(io_before);

    let answer = Answer {
        cells_qualifying: s.qualifying.len(),
        num_regions: s.regions.len(),
        area,
    };
    Ok((out, answer))
}

/// `(hit, miss)` cost of one page through the pool, nanoseconds: the
/// fetch-only replays that only hit give the hit cost; what the others
/// took beyond their hits is the miss cost. 0 where a regime has no
/// such replay.
fn pool_costs(samples: &[Vec<QuerySample>]) -> (f64, f64) {
    let (mut hit_ns, mut hit_pages, mut other_ns, mut other_hits, mut other_misses) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for s in samples.iter().flatten() {
        if s.fetch_io.misses == 0.0 {
            hit_ns += s.fetch;
            hit_pages += s.fetch_io.hits;
        } else {
            other_ns += s.fetch;
            other_hits += s.fetch_io.hits;
            other_misses += s.fetch_io.misses;
        }
    }
    let hit = ratio(hit_ns, hit_pages);
    (
        hit,
        ratio((other_ns - hit * other_hits).max(0.0), other_misses),
    )
}

/// Per band, the fastest pass of one stage; summed over bands.
fn sum_of_fastest(samples: &[Vec<QuerySample>], stage: impl Fn(&QuerySample) -> f64) -> f64 {
    samples
        .iter()
        .filter(|passes| !passes.is_empty())
        .map(|passes| fastest(&passes.iter().map(&stage).collect::<Vec<f64>>()))
        .sum()
}

/// Sum over every sample of every band.
fn total(samples: &[Vec<QuerySample>], count: impl Fn(&QuerySample) -> f64) -> f64 {
    samples.iter().flatten().map(count).sum()
}

/// One pass of real queries over `bands`; pushes each latency (ns).
fn real_pass<F: BenchField>(
    db: &Db<F>,
    cold: bool,
    bands: &[Interval],
    oracle: &[Answer],
    check: &mut Checker,
    latency: &mut [Vec<f64>],
) {
    for (i, &band) in bands.iter().enumerate() {
        if cold {
            db.engine.clear_cache();
        }
        let clock = Instant::now();
        let got = db.index.query_stats(&db.engine, band);
        let ns = clock.elapsed().as_nanos() as f64;
        if check.answer("q2", got, &oracle[i]).is_some() {
            latency[i].push(ns);
        }
    }
}

fn fastest_sum(latency: &[Vec<f64>]) -> f64 {
    latency
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| fastest(l))
        .sum()
}

/// What the build section measured.
struct Builds<F: FieldModel> {
    /// The last staged build, kept for the query replay.
    parts: Parts<F>,
    staged: Vec<BuildNs>,
    real_ns: Vec<f64>,
    /// `save` + `sync` of the real builds.
    save_ns: Vec<f64>,
    open_ns: Vec<f64>,
    /// Physical page writes of one `save` + `sync`.
    save_writes: f64,
}

impl<F: FieldModel> Builds<F> {
    fn stage(&self, stage: fn(&BuildNs) -> f64) -> f64 {
        fastest(&self.staged.iter().map(stage).collect::<Vec<f64>>())
    }

    /// (staged stages + save + sync) ÷ (real build + save + sync).
    fn layer_sum_over_e2e(&self) -> f64 {
        let save = fastest(&self.save_ns);
        (self.stage(BuildNs::sum) + save) / (fastest(&self.real_ns) + save)
    }
}

/// Builds, staged and real, alternating which goes first, each on an
/// engine (and file) of its own.
fn replay_builds<F: BenchField>(
    spec: &Spec,
    field: &F,
    tmp: &TmpDir,
    rec: &mut Recorder,
    deadline: Instant,
) -> Result<Builds<F>, String> {
    let mut staged = Vec::new();
    let (mut real_ns, mut save_ns, mut open_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut save_writes = 0.0;
    let mut parts: Option<Parts<F>> = None;
    let staged_path = tmp.file("staged.db");
    let real_path = tmp.file("real.db");
    let mut builds = 0;
    while again(builds, MIN_BUILDS, MAX_BUILDS, deadline) {
        let id = builds as u64;
        for staged_turn in [builds % 2 == 0, builds % 2 != 0] {
            if staged_turn {
                // Close the previous staged database before its file goes.
                drop(parts.take());
                remove_db(&staged_path);
                let engine = spec
                    .open_engine(&staged_path)
                    .map_err(fatal("staged engine"))?;
                let (built, ns) = staged_build(engine, field, rec, id)?;
                // As after a real build: no dirty frame survives into
                // the queries (`clear_cache` keeps dirty frames).
                built.engine.sync().map_err(fatal("staged sync"))?;
                staged.push(ns);
                parts = Some(built);
                continue;
            }
            let engine = spec
                .open_engine(&real_path)
                .map_err(fatal("build engine"))?;
            let (index, build) =
                rec.time("IHilbert::build", id, || IHilbert::build(&engine, field));
            let index = index.map_err(fatal("IHilbert::build"))?;
            let before = Io::read(engine.metrics());
            let (saved, save) = rec.time("cf-index.catalog.save", id, || {
                index
                    .save(&engine)
                    .and_then(|catalog| engine.sync().map(|()| catalog))
            });
            let catalog = saved.map_err(fatal("save"))?;
            save_writes = Io::read(engine.metrics()).since(before).disk_writes;
            drop(index);
            let (opened, open) = rec.time("cf-index.catalog.open", id, || {
                spec.reopened(&real_path, &engine, |engine| {
                    Ok(IHilbert::<F>::open(engine, catalog)?.num_subfields())
                })
            });
            opened.map_err(fatal("open"))?;
            real_ns.push(build as f64);
            save_ns.push(save as f64);
            open_ns.push(open as f64);
            drop(engine);
            remove_db(&real_path);
        }
        builds += 1;
    }
    Ok(Builds {
        parts: parts.expect("MIN_BUILDS > 0"),
        staged,
        real_ns,
        save_ns,
        open_ns,
        save_writes,
    })
}

/// What the query section measured, per band and pass.
struct Queries {
    samples: Vec<Vec<QuerySample>>,
    /// Real `IHilbert::query_stats` latencies of the same bands, ns.
    real_ns: Vec<Vec<f64>>,
    /// Mean `index_filter_ns` / `index_refine_ns` of the real queries.
    registry_filter: f64,
    registry_refine: f64,
    passes: usize,
}

/// Queries: a staged pass over `parts`, then a real pass over `db`,
/// over the same bands, until the deadline.
#[allow(clippy::too_many_arguments)]
fn replay_queries<F: BenchField>(
    spec: &Spec,
    db: &Db<F>,
    parts: &Parts<F>,
    bands: &[Interval],
    answers: &[Answer],
    check: &mut Checker,
    rec: &mut Recorder,
    deadline: Instant,
) -> Result<Queries, String> {
    let mut scratch = Scratch {
        payloads: Vec::new(),
        ranges: Vec::new(),
        runs: Vec::new(),
        records: Vec::new(),
        qualifying: Vec::new(),
        regions: Vec::new(),
    };
    let mut samples: Vec<Vec<QuerySample>> = vec![Vec::new(); bands.len()];
    let mut real_ns: Vec<Vec<f64>> = vec![Vec::new(); bands.len()];
    let registry_ns = |name: &str| {
        let stats = db
            .engine
            .metrics()
            .histogram_stats(name, &[("index", "I-Hilbert")]);
        stats.map_or(0.0, |(_, sum)| sum)
    };
    // Untimed: fills the pools and wires the lazily created handles.
    let unrecorded = &mut Recorder::new();
    for &band in bands {
        db.index
            .query_stats(&db.engine, band)
            .map_err(fatal("warm pass"))?;
        staged_query(parts, spec.cold, band, unrecorded, 0, &mut scratch)
            .map_err(fatal("warm pass"))?;
    }
    let (filter_before, refine_before) = (
        registry_ns("index_filter_ns"),
        registry_ns("index_refine_ns"),
    );
    let mut passes = 0;
    while again(passes, MIN_PASSES, MAX_PASSES, deadline) {
        for (i, &band) in bands.iter().enumerate() {
            let got = staged_query(parts, spec.cold, band, rec, i as u64, &mut scratch);
            if let Some((sample, answer)) = check.op("staged q2", got) {
                if check.matches("staged q2", &answer, &answers[i]) {
                    samples[i].push(sample);
                }
            }
        }
        real_pass(db, spec.cold, bands, answers, check, &mut real_ns);
        passes += 1;
    }
    let real_queries: f64 = real_ns.iter().map(|l| l.len() as f64).sum();
    if samples.iter().any(Vec::is_empty) || real_ns.iter().any(Vec::is_empty) {
        let why = check.first_failure.as_deref().unwrap_or("no sample");
        return Err(format!("a band never answered: {why}"));
    }
    Ok(Queries {
        samples,
        real_ns,
        registry_filter: ratio(registry_ns("index_filter_ns") - filter_before, real_queries),
        registry_refine: ratio(registry_ns("index_refine_ns") - refine_before, real_queries),
        passes,
    })
}

/// Q2 with the library's `Tracer` on ÷ off: real passes, alternating.
fn trace_overhead<F: BenchField>(
    spec: &Spec,
    db: &Db<F>,
    bands: &[Interval],
    answers: &[Answer],
    check: &mut Checker,
    deadline: Instant,
) -> f64 {
    let mut traced_ns: Vec<Vec<f64>> = vec![Vec::new(); bands.len()];
    let mut untraced_ns: Vec<Vec<f64>> = vec![Vec::new(); bands.len()];
    let mut pairs = 0;
    while again(pairs, 2, MAX_PASSES, deadline) {
        db.engine.metrics().tracer().set_enabled(true);
        real_pass(db, spec.cold, bands, answers, check, &mut traced_ns);
        db.engine.metrics().tracer().set_enabled(false);
        real_pass(db, spec.cold, bands, answers, check, &mut untraced_ns);
        pairs += 1;
    }
    ratio(fastest_sum(&traced_ns), fastest_sum(&untraced_ns))
}

/// What the ingest section measured.
struct Ingest {
    /// Snapshot Q2 ÷ bare-index Q2, ring empty and ring full.
    over_base_epoch0: f64,
    over_base_full: f64,
    ring_len_mean: f64,
    drained_per_repack: f64,
    retired_per_repack: f64,
    write_amplification: f64,
}

/// Ingest: snapshot queries against the bare index on the same bands,
/// with an empty and with a full ring; then drain rounds. Fixed work, so
/// its counts repeat exactly.
#[allow(clippy::too_many_arguments)]
fn replay_ingest<F: BenchField>(
    spec: &Spec,
    field: &F,
    db: Db<F>,
    bands: &[Interval],
    seed: u64,
    oracle: &mut Oracle<F>,
    check: &mut Checker,
    rec: &mut Recorder,
) -> Result<Ingest, String> {
    let Db {
        engine,
        index,
        catalog,
        ..
    } = db;
    let base = IHilbert::<F>::open(&engine, catalog).map_err(fatal("base handle"))?;
    let live = LiveIngest::new(&engine, index, INGEST).map_err(fatal("LiveIngest::new"))?;
    let snapshot_over_base = |check: &mut Checker, oracle: &Oracle<F>| -> Result<f64, String> {
        let (mut snapshot_ns, mut base_ns) = (0.0, 0.0);
        for &band in bands {
            // One untimed query loads the band's pages where the pool
            // keeps them; then base, snapshot, snapshot, base.
            base.query_stats(&engine, band).map_err(fatal("base q2"))?;
            for snapshot_turn in [false, true, true, false] {
                if spec.cold {
                    engine.clear_cache();
                }
                let clock = Instant::now();
                if snapshot_turn {
                    let got = live.snapshot().query_stats(&engine, band);
                    snapshot_ns += clock.elapsed().as_nanos() as f64;
                    let want = oracle.now(band).map_err(fatal("oracle query"))?;
                    check.answer("snapshot q2", got, &want);
                } else {
                    base.query_stats(&engine, band).map_err(fatal("base q2"))?;
                    base_ns += clock.elapsed().as_nanos() as f64;
                }
            }
        }
        Ok(snapshot_ns / base_ns)
    };
    let over_base_epoch0 = snapshot_over_base(check, oracle)?;

    let order = cell_order(field, Curve::Hilbert);
    let plan_len = INGEST.capacity + ROUNDS * spec.round_writes;
    let plan = inputs::update_plan(field, &order, field.value_domain(), plan_len, seed);
    let mut plan = plan.into_iter().zip(0u64..);
    let mut ring_len = Vec::new();
    let mut write = |n: usize,
                     check: &mut Checker,
                     oracle: &mut Oracle<F>,
                     rec: &mut Recorder|
     -> Result<(), String> {
        for ((cell, record), id) in plan.by_ref().take(n) {
            let (got, _) = rec.time("cf-index.ingest.ingest", id, || {
                live.ingest(&engine, cell, record.clone())
            });
            check.op("ingest", got);
            let updated = oracle.updated.update_cell(&oracle.engine, cell, record);
            updated.map_err(fatal("oracle update"))?;
            let len = engine.metrics().gauge_value("ingest_delta_records", &[]);
            ring_len.push(len.unwrap_or(0.0));
        }
        Ok(())
    };
    write(INGEST.capacity - 1, check, oracle, rec)?;
    let over_base_full = snapshot_over_base(check, oracle)?;

    let (mut drained, mut retired, mut amplification) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        if round > 0 {
            write(spec.round_writes, check, oracle, rec)?;
        }
        let (report, _) = rec.time("cf-index.ingest.repack", round as u64, || {
            live.repack(&engine)
        });
        if let Some(report) = check.op("repack", report) {
            drained.push(report.drained as f64);
            retired.push(report.pages_retired as f64);
            let gauge = engine
                .metrics()
                .gauge_value("ingest_write_amplification", &[]);
            amplification.push(gauge.unwrap_or(0.0));
        }
        let (saved, _) = rec.time("cf-index.ingest.save", round as u64, || {
            live.save_to(&engine, catalog).and_then(|()| engine.sync())
        });
        check.op("save", saved);
    }
    for &band in bands {
        let want = oracle.now(band).map_err(fatal("oracle query"))?;
        let got = live.snapshot().query_stats(&engine, band);
        check.answer("post-repack q2", got, &want);
    }
    Ok(Ingest {
        over_base_epoch0,
        over_base_full,
        ring_len_mean: mean(&ring_len),
        drained_per_repack: mean(&drained),
        retired_per_repack: mean(&retired),
        write_amplification: mean(&amplification),
    })
}

pub fn run<F: BenchField>(
    spec: &Spec,
    field: &F,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let tmp = TmpDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut check = Checker::default();
    let mut rec = Recorder::new();
    let cells = field.num_cells() as f64;
    let listed: usize = spec.band_mix.iter().map(|m| m.1).sum();
    let thin = |n: usize| (n * REPLAY_BANDS / listed.max(REPLAY_BANDS)).max(1);
    let thinned: Vec<(f64, usize)> = spec.band_mix.iter().map(|&(q, n)| (q, thin(n))).collect();
    let bands = &inputs::bands(field.value_domain(), &thinned, seed)[..];

    let db = Db::build(spec, field, &tmp.file("main.db")).map_err(fatal("set-up build"))?;
    let mut oracle = Oracle::build(field, bands).map_err(fatal("oracle"))?;
    let answers = oracle.pre.clone();

    let deadline = budget(seconds, BUILD_SHARE);
    let builds = replay_builds(spec, field, &tmp, &mut rec, deadline)?;
    let parts = &builds.parts;
    let deadline = budget(seconds, QUERY_SHARE);
    let queries = replay_queries(
        spec, &db, parts, bands, &answers, &mut check, &mut rec, deadline,
    )?;
    let deadline = budget(seconds, OVERHEAD_SHARE);
    let trace_overhead = trace_overhead(spec, &db, bands, &answers, &mut check, deadline);
    let ingest_bands = &bands[..bands.len().min(INGEST_BANDS)];
    let ingest = replay_ingest(
        spec,
        field,
        db,
        ingest_bands,
        seed,
        &mut oracle,
        &mut check,
        &mut rec,
    )?;

    let trace_path = results_dir().join(format!("trace_{}.json", spec.name));
    rec.write(&trace_path, spec.name, seed)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let samples = &queries.samples;
    let (hit_ns_per_page, miss_ns_per_page) = pool_costs(samples);
    // What the scan spent beyond fetching its pages is decoding. A
    // regime whose replays never miss (the scan had just loaded the
    // pages) prices the scan's misses at a hit plus the disk's own
    // read time.
    let decode_ns: f64 = samples
        .iter()
        .flatten()
        .map(|s| {
            let missed = if miss_ns_per_page > 0.0 {
                s.scan_io.misses * miss_ns_per_page
            } else {
                s.scan_io.misses * hit_ns_per_page + s.scan_io.disk_read_ns
            };
            (s.scan - s.scan_io.hits * hit_ns_per_page - missed).max(0.0)
        })
        .sum();

    let bands_n = bands.len() as f64;
    let staged_queries: f64 = samples.iter().map(|l| l.len() as f64).sum();
    let per_query = |stage: fn(&QuerySample) -> f64| sum_of_fastest(samples, stage) / bands_n;
    // Counts come from the first pass alone: a pool smaller than the
    // data carries state from pass to pass, and the number of passes
    // depends on the time budget.
    let first_pass =
        |count: fn(&QuerySample) -> f64| samples.iter().map(|l| count(&l[0])).sum::<f64>();
    let per_first = |count: fn(&QuerySample) -> f64| first_pass(count) / bands_n;
    let examined = first_pass(|s| s.examined);
    let qualifying = first_pass(|s| s.qualifying);
    let regions = first_pass(|s| s.regions);
    let subfield_count = parts.subfields.len() as f64;
    let raw_pages = parts
        .file
        .len()
        .div_ceil(RecordFile::<F::CellRec>::records_per_page()) as f64;
    let staged_filter = total(samples, |s| s.filter) / staged_queries;
    let staged_refine = total(samples, QuerySample::refine) / staged_queries;
    let query_ratio =
        sum_of_fastest(samples, QuerySample::layer_sum) / fastest_sum(&queries.real_ns);
    let build_ratio = builds.layer_sum_over_e2e();

    #[rustfmt::skip]
    let metrics = vec![
        ("cf-sfc.key_ns_per_cell", builds.stage(|b| b.key) / cells),
        ("cf-index.order.sort_ns_per_cell", builds.stage(|b| b.sort) / cells),
        ("cf-field.interval_ns_per_cell", builds.stage(|b| b.interval) / cells),
        ("cf-field.record_ns_per_cell", builds.stage(|b| b.record) / cells),
        ("cf-index.subfield.group_ns_per_cell", builds.stage(|b| b.group) / cells),
        ("cf-index.subfield.count", subfield_count),
        ("cf-index.subfield.mean_cells", cells / subfield_count),
        ("cf-index.subfield.mean_cost_c", parts.mean_cost_c),
        ("cf-storage.heap.write_ns_per_cell", builds.stage(|b| b.heap) / cells),
        ("cf-storage.heap.pages_written", parts.file.num_pages() as f64),
        ("cf-rtree.build_ns_per_entry", builds.stage(|b| b.rtree) / subfield_count),
        ("cf-rtree.freeze_ns_per_entry", builds.stage(|b| b.freeze) / subfield_count),
        ("cf-index.catalog.save_ms", fastest(&builds.save_ns) / 1e6),
        ("cf-index.catalog.open_ms", fastest(&builds.open_ns) / 1e6),
        ("cf-storage.disk.writes_per_save", builds.save_writes),
        ("cf-storage.disk.bytes_per_save", builds.save_writes * PAGE_SIZE as f64),
        ("cf-rtree.paged_filter_ns_per_query", per_query(|s| s.filter)),
        ("cf-rtree.frozen_filter_ns_per_query", per_query(|s| s.frozen_filter)),
        ("cf-rtree.nodes_per_query", per_first(|s| s.nodes)),
        ("cf-rtree.subfields_per_query", per_first(|s| s.subfields)),
        ("cf-rtree.filter_pages_per_query", per_first(|s| s.filter_pages)),
        ("cf-index.sfindex.coalesce_ns_per_query", per_query(|s| s.coalesce)),
        ("cf-index.sfindex.runs_per_query", per_first(|s| s.runs)),
        ("cf-storage.pool.hit_ns_per_page", hit_ns_per_page),
        ("cf-storage.pool.miss_ns_per_page", miss_ns_per_page),
        ("cf-storage.pool.hit_ratio", ratio(first_pass(|s| s.io.hits), first_pass(|s| s.io.hits + s.io.misses))),
        ("cf-storage.pool.evictions_per_query", per_first(|s| s.io.evictions)),
        ("cf-storage.disk.reads_per_query", per_first(|s| s.io.disk_reads)),
        ("cf-storage.disk.read_bytes_per_query", per_first(|s| s.io.disk_reads) * PAGE_SIZE as f64),
        ("cf-storage.disk.read_ns_per_page", ratio(total(samples, |s| s.io.disk_read_ns), total(samples, |s| s.io.disk_reads))),
        ("cf-storage.checksum.verifications_per_query", per_first(|s| s.io.checksums)),
        ("cf-storage.codec.decode_ns_per_cell", ratio(decode_ns, total(samples, |s| s.examined))),
        ("cf-storage.codec.cells_per_page", parts.file.records_per_page()),
        ("cf-storage.codec.compression_ratio", raw_pages / parts.file.data_pages().max(1) as f64),
        ("cf-field.test_ns_per_cell_examined", ratio(sum_of_fastest(samples, |s| s.test), examined)),
        ("cf-field.band_ns_per_cell_qualifying", ratio(sum_of_fastest(samples, |s| s.band), qualifying)),
        ("cf-field.useful_ratio", ratio(qualifying, examined)),
        ("cf-geom.area_ns_per_region", ratio(sum_of_fastest(samples, |s| s.area), regions)),
        ("cf-geom.regions_per_query", regions / bands_n),
        ("cf-index.ingest.snapshot_over_base_q2", ingest.over_base_full),
        ("cf-index.ingest.snapshot_over_base_q2_epoch0", ingest.over_base_epoch0),
        ("cf-index.ingest.ring_len_mean", ingest.ring_len_mean),
        ("cf-index.ingest.drained_per_repack", ingest.drained_per_repack),
        ("cf-index.ingest.write_amplification", ingest.write_amplification),
        ("cf-index.ingest.pages_retired_per_repack", ingest.retired_per_repack),
        ("cf-obs.trace_overhead_ratio", trace_overhead),
        ("query.layer_sum_over_e2e", query_ratio),
        ("build.layer_sum_over_e2e", build_ratio),
        ("query.staged_over_registry_filter", ratio(staged_filter, queries.registry_filter)),
        ("query.staged_over_registry_refine", ratio(staged_refine, queries.registry_refine)),
    ];
    let reconcile_ok = RECONCILE.contains(&query_ratio) && RECONCILE.contains(&build_ratio);
    let num = |v: usize| Json::Num(v as f64);
    let detail = Json::obj([
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Num(seed as f64)),
        ("replayed_bands", num(bands.len())),
        ("passes", num(queries.passes)),
        ("builds", num(builds.staged.len())),
        ("ingest_rounds", num(ROUNDS)),
        ("spans", num(rec.spans().len())),
        ("trace_file", Json::Str(trace_path.display().to_string())),
        ("reconcile_ok", Json::Bool(reconcile_ok)),
        ("oracle_s", Json::Num(oracle.seconds)),
        (
            "first_failure",
            check.first_failure.clone().map_or(Json::Null, Json::Str),
        ),
    ]);
    Ok(Outcome {
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        detail,
    })
}
