//! Cross-crate integration: every indexing method must return exactly
//! the same answer as the exhaustive LinearScan on every workload, and
//! every method's two query entry points must agree with each other.

use contfield::field::GridCellRecord;
use contfield::prelude::*;
use contfield::storage::PageCodec;
use contfield::workload::{
    fractal::diamond_square, monotonic::monotonic_field, noise::urban_noise_tin,
    queries::interval_queries,
};

/// Builds all four methods over `field` and checks them against the
/// scan on `queries`.
fn assert_all_methods_agree<F>(field: &F, queries: &[Interval])
where
    F: FieldModel + Sync,
{
    let engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&engine, field).expect("build");
    let iall = IAll::build(&engine, field).expect("build");
    let ihilbert = IHilbert::build(&engine, field).expect("build");
    let iquad = {
        let dom = field.value_domain();
        IntervalQuadtree::build(&engine, field, dom.width() / 16.0).expect("build")
    };
    let methods: Vec<&dyn ValueIndex> = vec![&iall, &ihilbert, &iquad];

    for q in queries {
        let want = scan.query_stats(&engine, *q).expect("query");
        for m in &methods {
            let got = m.query_stats(&engine, *q).expect("query");
            assert_eq!(
                got.cells_qualifying,
                want.cells_qualifying,
                "{} disagrees on qualifying cells for {q}",
                m.name()
            );
            assert_eq!(
                got.num_regions,
                want.num_regions,
                "{} disagrees on region count for {q}",
                m.name()
            );
            assert!(
                (got.area - want.area).abs() <= 1e-9 * want.area.max(1.0),
                "{} disagrees on area for {q}: {} vs {}",
                m.name(),
                got.area,
                want.area
            );
        }
    }
}

fn sweep(dom: Interval, seed: u64) -> Vec<Interval> {
    let mut queries = Vec::new();
    for qi in [0.0, 0.01, 0.05, 0.1] {
        queries.extend(interval_queries(dom, qi, 10, seed + (qi * 1000.0) as u64));
    }
    // Edge cases: full domain, empty band outside the domain, exact
    // boundary values.
    queries.push(dom);
    queries.push(Interval::new(dom.hi + 1.0, dom.hi + 2.0));
    queries.push(Interval::point(dom.lo));
    queries.push(Interval::point(dom.hi));
    queries
}

#[test]
fn fractal_grids_all_roughness_levels() {
    for h in [0.1, 0.5, 0.9] {
        let field = diamond_square(5, h, 77);
        let dom = field.value_domain();
        assert_all_methods_agree(&field, &sweep(dom, 1));
    }
}

#[test]
fn monotonic_grid() {
    let field = monotonic_field(48);
    let dom = field.value_domain();
    assert_all_methods_agree(&field, &sweep(dom, 2));
}

#[test]
fn noise_tin() {
    let field = urban_noise_tin(1200, 5);
    let dom = field.value_domain();
    assert_all_methods_agree(&field, &sweep(dom, 3));
}

#[test]
fn constant_field_degenerate_case() {
    // A constant field has a single degenerate interval everywhere; all
    // methods must agree on hit-vs-miss semantics.
    let field = GridField::from_values(9, 9, vec![5.0; 81]);
    assert_all_methods_agree(
        &field,
        &[
            Interval::point(5.0),
            Interval::new(4.0, 6.0),
            Interval::new(5.0, 9.0),
            Interval::new(6.0, 7.0),
        ],
    );
}

/// `query_stats` and `query_regions` must report identical statistics — area bits and I/O included — and the regions
/// must number `num_regions`: the stats-only path runs the executor
/// with no sink, the regions path with one. Each call starts from a
/// cold pool so the I/O counts are comparable.
fn assert_stats_paths_agree(index: &dyn ValueIndex, engine: &StorageEngine, bands: &[Interval]) {
    for &band in bands {
        engine.clear_cache();
        let stats = index.query_stats(engine, band).expect("query");
        engine.clear_cache();
        let (with_regions, regions) = index.query_regions(engine, band).expect("query");
        let name = index.name();
        assert_eq!(stats, with_regions, "{name} {band}: query_regions");
        assert_eq!(
            stats.area.to_bits(),
            with_regions.area.to_bits(),
            "{name} {band}"
        );
        assert_eq!(regions.len(), stats.num_regions, "{name} {band}");
    }
}

#[test]
fn stats_and_regions_paths_agree_on_every_index() {
    // The golden digests' generator and seed, at 64 × 64 cells.
    let field = diamond_square(6, 0.6, 0xEDB7);
    let dom = field.value_domain();
    let mut bands = Vec::new();
    for (i, qi) in [0.0, 0.01, 0.05].into_iter().enumerate() {
        bands.extend(interval_queries(dom, qi, 8, 0xD16E + i as u64));
    }
    bands.push(dom);

    let engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&engine, &field).expect("build");
    assert_stats_paths_agree(&scan, &engine, &bands);
    let iall = IAll::build(&engine, &field).expect("build");
    assert_stats_paths_agree(&iall, &engine, &bands);
    let iquad = IntervalQuadtree::build(&engine, &field, dom.width() / 16.0).expect("build");
    assert_stats_paths_agree(&iquad, &engine, &bands);
    let compressed = StorageEngine::new(StorageConfig {
        codec: PageCodec::Compressed,
        ..StorageConfig::default()
    });
    let ihilbert = IHilbert::build(&compressed, &field).expect("build");
    assert_stats_paths_agree(&ihilbert, &compressed, &bands);
    let ihilbert = IHilbert::build(&engine, &field).expect("build");
    assert_stats_paths_agree(&ihilbert, &engine, &bands);

    // An epoch snapshot over the raw I-Hilbert whose overlays replace
    // every 7th cell.
    let live = LiveIngest::new(&engine, ihilbert, IngestConfig::default()).expect("live");
    for cell in (0..field.num_cells()).step_by(7) {
        let rec = field.cell_record(cell);
        let [a, b, c, d] = rec.vals;
        let rec = GridCellRecord {
            vals: [d, a, b, c],
            ..rec
        };
        live.ingest(&engine, cell, rec).expect("ingest");
    }
    let (writes, _, repacks) = live.status();
    assert!(writes > 0 && repacks == 0, "the snapshot carries overlays");
    assert_stats_paths_agree(live.snapshot().as_ref(), &engine, &bands);
}

/// Applies ±20 % shifts to pseudo-random vertices of `field` through
/// `update` (every cell around a moved vertex gets its new record), then
/// checks that the tree and the engine hold exactly the pages they held
/// after the build — an update rewrites entry boxes, never the tree's
/// shape — and that every answer equals the scan over the updated field.
fn assert_updates_keep_shape<I: ValueIndex>(
    field: &GridField,
    build: fn(&StorageEngine, &GridField) -> I,
    update: fn(&mut I, &StorageEngine, usize, GridCellRecord),
) {
    let engine = StorageEngine::in_memory();
    let mut index = build(&engine, field);
    let shape = (index.index_pages(), engine.num_pages());
    assert!(shape.0 > 1, "{}: the tree needs two levels", index.name());

    let (vw, vh) = field.vertex_dims();
    let (cw, ch) = field.cell_dims();
    let mut values: Vec<f64> = (0..vw * vh)
        .map(|v| field.vertex_value(v % vw, v / vw))
        .collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        x >> 33
    };
    let mut updates = 0;
    for _ in 0..300 {
        let v = next() as usize % (vw * vh);
        values[v] *= 0.8 + (next() % 4001) as f64 / 10_000.0;
        let (vx, vy) = (v % vw, v / vw);
        for cy in vy.saturating_sub(1)..=vy.min(ch - 1) {
            for cx in vx.saturating_sub(1)..=vx.min(cw - 1) {
                let cell = field.cell_index(cx, cy);
                let at = |dx: usize, dy: usize| values[(cy + dy) * vw + cx + dx];
                let rec = GridCellRecord {
                    vals: [at(0, 0), at(1, 0), at(0, 1), at(1, 1)],
                    ..field.cell_record(cell)
                };
                update(&mut index, &engine, cell, rec);
                updates += 1;
            }
        }
    }
    assert_eq!(
        (index.index_pages(), engine.num_pages()),
        shape,
        "{}: {updates} updates changed the page counts",
        index.name()
    );

    let updated = GridField::from_values(vw, vh, values);
    let scan_engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&scan_engine, &updated).expect("build");
    for q in sweep(updated.value_domain(), 5) {
        let want = scan.query_stats(&scan_engine, q).expect("query");
        let got = index.query_stats(&engine, q).expect("query");
        assert_eq!(got.cells_qualifying, want.cells_qualifying, "{q}");
        assert_eq!(got.num_regions, want.num_regions, "{q}");
        assert!(
            (got.area - want.area).abs() <= 1e-9 * want.area.max(1.0),
            "{}: area for {q}: {} vs {}",
            index.name(),
            got.area,
            want.area
        );
    }
}

#[test]
fn updates_keep_the_tree_shape_and_the_scan_answers() {
    // The smallest fields whose trees have two levels.
    assert_updates_keep_shape(
        &diamond_square(7, 0.2, 5),
        |e, f| IHilbert::build(e, f).expect("build"),
        |i, e, c, r| i.update_cell(e, c, r).expect("update"),
    );
    assert_updates_keep_shape(
        &diamond_square(6, 0.2, 5),
        |e, f| IAll::build(e, f).expect("build"),
        |i, e, c, r| i.update_cell(e, c, r).expect("update"),
    );
}
