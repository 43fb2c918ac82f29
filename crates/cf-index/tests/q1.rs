//! Q1, "the value at point p" (paper §2.2.1), through the box file.
//!
//! [`IHilbert::value_at`] reads one box per data page and then only the
//! pages whose box holds `p`. Its answer must be the one a scan of the
//! whole cell file gives — the first record in cell-file position order
//! whose interpolation covers `p` — bit for bit, on grids and TINs, raw
//! and compressed pages, built and reopened indexes, after in-place
//! updates that move cell corners and after a live-ingest repack, at
//! points inside cells, on shared edges and vertices, on and outside
//! the domain boundary, and at NaN coordinates.

use cf_field::{FieldModel, GridCellRecord, GridField, TinCellRecord, TinField};
use cf_geom::{Aabb, Interval, Point2};
use cf_index::{cell_order, IHilbert, IngestConfig, LiveIngest, ValueIndex};
use cf_sfc::Curve;
use cf_storage::{thread_io_stats, PageCodec, StorageConfig, StorageEngine};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The Q1 path `fielddb point` took before the box file: every record
/// in cell-file position order, and the first that answers wins.
fn full_scan<F: FieldModel>(records: &[F::CellRec], p: Point2) -> Option<f64> {
    records.iter().find_map(|rec| F::record_value_at(rec, p))
}

/// The records of `field` in the order `IHilbert::build` writes them.
fn file_records<F: FieldModel>(field: &F) -> Vec<F::CellRec> {
    cell_order(field, Curve::Hilbert)
        .into_iter()
        .map(|cell| field.cell_record(cell))
        .collect()
}

fn engine_with(codec: PageCodec) -> StorageEngine {
    StorageEngine::new(StorageConfig {
        codec,
        ..StorageConfig::default()
    })
}

/// Asserts that `index` answers every point like a full scan of
/// `records` (its cell file's contents), reading at least the box
/// pages, and returns how many points had an answer.
fn assert_scan_answers<F: FieldModel>(
    engine: &StorageEngine,
    index: &IHilbert<F>,
    records: &[F::CellRec],
    points: &[Point2],
    ctx: &str,
) -> usize {
    let box_pages = index.data_pages().div_ceil(128) as u64;
    let mut answered = 0;
    for &p in points {
        let before = thread_io_stats();
        let got = index.value_at(engine, p).expect("q1");
        let reads = (thread_io_stats() - before).logical_reads();
        let want = full_scan::<F>(records, p);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{ctx}: at {p}: {got:?} vs {want:?}"
        );
        assert!(reads >= box_pages, "{ctx}: at {p}: {reads} reads");
        if got.is_some() {
            assert!(reads > box_pages, "{ctx}: an answer reads a data page");
            answered += 1;
        }
    }
    answered
}

/// Points off the cell interiors: every corner and edge midpoint of
/// every cell (shared vertices and edges, the domain boundary among
/// them), random points over the domain and a margin around it, points
/// just outside the boundary and far away, and NaN coordinates.
fn probe_points(corners: &[Point2], domain: Aabb<2>, seed: u64) -> Vec<Point2> {
    let mut points = corners.to_vec();
    let (lo, hi) = (domain.lo, domain.hi);
    let (w, h) = (hi[0] - lo[0], hi[1] - lo[1]);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..200 {
        points.push(Point2::new(
            rng.gen_range(lo[0] - 0.1 * w..hi[0] + 0.1 * w),
            rng.gen_range(lo[1] - 0.1 * h..hi[1] + 0.1 * h),
        ));
    }
    let mid = Point2::new(lo[0] + w / 2.0, lo[1] + h / 2.0);
    let tiny = 1e-9 * w.max(h);
    points.extend([
        Point2::new(lo[0], mid.y),
        Point2::new(hi[0], mid.y),
        Point2::new(mid.x, lo[1]),
        Point2::new(mid.x, hi[1]),
        Point2::new(lo[0] - tiny, mid.y),
        Point2::new(hi[0] + tiny, mid.y),
        Point2::new(mid.x, hi[1] + tiny),
        Point2::new(hi[0] + 10.0 * w, hi[1] + 10.0 * h),
        Point2::new(-1e300, 1e300),
        Point2::new(f64::NAN, mid.y),
        Point2::new(mid.x, f64::NAN),
        Point2::new(f64::NAN, f64::NAN),
        Point2::new(f64::INFINITY, mid.y),
    ]);
    points
}

fn grid_corners(records: &[GridCellRecord]) -> Vec<Point2> {
    let mut points = Vec::new();
    for r in records {
        let (xm, ym) = ((r.x0 + r.x1) / 2.0, (r.y0 + r.y1) / 2.0);
        points.extend([
            Point2::new(r.x0, r.y0),
            Point2::new(r.x1, r.y1),
            Point2::new(xm, r.y0),
            Point2::new(r.x0, ym),
            Point2::new(xm, ym),
        ]);
    }
    points
}

fn tin_corners(records: &[TinCellRecord]) -> Vec<Point2> {
    let mut points = Vec::new();
    for r in records {
        let [a, b, c] = r.points;
        let mid = |p: Point2, q: Point2| Point2::new((p.x + q.x) / 2.0, (p.y + q.y) / 2.0);
        points.extend([a, mid(a, b), mid(b, c), mid(c, a), r.triangle().centroid()]);
    }
    points
}

fn grid_field() -> GridField {
    cf_workload::fractal::diamond_square(5, 0.6, 9)
}

fn tin_field(n: usize, seed: u64) -> TinField {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..30.0)))
        .collect();
    let values = points
        .iter()
        .map(|p| (p.x * 0.3).sin() * 10.0 + p.y)
        .collect();
    TinField::from_samples(&points, values).expect("triangulate")
}

/// Builds `field` on a fresh engine per codec and checks the built and
/// the reopened index against the full scan.
fn check_built_and_reopened<F: FieldModel>(field: &F, corners: &[Point2], ctx: &str) {
    let records = file_records(field);
    let points = probe_points(corners, field.domain(), 3);
    for codec in [PageCodec::Raw, PageCodec::Compressed] {
        let engine = engine_with(codec);
        let built = IHilbert::build(&engine, field).expect("build");
        assert_eq!(built.cell_codec(), codec);
        let answered = assert_scan_answers(&engine, &built, &records, &points, ctx);
        assert!(answered > 0, "{ctx}: no point answered");
        let catalog = built.save(&engine).expect("save");
        engine.clear_cache();
        let reopened = IHilbert::<F>::open(&engine, catalog).expect("open");
        assert_scan_answers(&engine, &reopened, &records, &points, ctx);
    }
}

#[test]
fn grid_answers_like_the_full_scan() {
    let field = grid_field();
    let corners: Vec<Point2> = grid_corners(&file_records(&field))
        .into_iter()
        .step_by(3)
        .collect();
    check_built_and_reopened(&field, &corners, "grid");
}

#[test]
fn tin_answers_like_the_full_scan() {
    let field = tin_field(700, 4);
    let corners: Vec<Point2> = tin_corners(&file_records(&field))
        .into_iter()
        .step_by(3)
        .collect();
    check_built_and_reopened(&field, &corners, "tin");
}

#[test]
fn one_cell_fields_answer_like_the_full_scan() {
    let grid = GridField::from_values(2, 2, vec![1.0, 2.0, 3.0, 5.0]);
    assert_eq!(grid.num_cells(), 1);
    check_built_and_reopened(&grid, &grid_corners(&file_records(&grid)), "one grid cell");
    let tin = TinField::from_samples(
        &[
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 1.0),
            Point2::new(1.0, 3.0),
        ],
        vec![1.0, -2.0, 7.0],
    )
    .expect("triangulate");
    assert_eq!(tin.num_cells(), 1);
    check_built_and_reopened(&tin, &tin_corners(&file_records(&tin)), "one triangle");
}

/// A field with no cells: every query misses, built or reopened.
struct Empty;

impl FieldModel for Empty {
    type CellRec = GridCellRecord;
    fn num_cells(&self) -> usize {
        0
    }
    fn cell_record(&self, cell: usize) -> GridCellRecord {
        panic!("the empty field has no cell {cell}")
    }
    fn cell_centroid(&self, cell: usize) -> Point2 {
        panic!("the empty field has no cell {cell}")
    }
    fn cell_interval(&self, cell: usize) -> Interval {
        panic!("the empty field has no cell {cell}")
    }
    fn record_interval(rec: &GridCellRecord) -> Interval {
        GridField::record_interval(rec)
    }
    fn record_band_visit(rec: &GridCellRecord, band: Interval, visit: &mut impl FnMut(&[Point2])) {
        GridField::record_band_visit(rec, band, visit)
    }
    fn domain(&self) -> Aabb<2> {
        Aabb::new([0.0; 2], [1.0; 2])
    }
    fn value_at(&self, _: Point2) -> Option<f64> {
        None
    }
    fn record_bbox(rec: &GridCellRecord) -> Aabb<2> {
        GridField::record_bbox(rec)
    }
    fn record_value_at(rec: &GridCellRecord, p: Point2) -> Option<f64> {
        GridField::record_value_at(rec, p)
    }
}

#[test]
fn empty_field_answers_nothing() {
    let points = probe_points(&[], Empty.domain(), 5);
    for codec in [PageCodec::Raw, PageCodec::Compressed] {
        let engine = engine_with(codec);
        let built = IHilbert::build(&engine, &Empty).expect("build");
        assert_eq!(
            assert_scan_answers(&engine, &built, &[], &points, "empty"),
            0
        );
        let catalog = built.save(&engine).expect("save");
        let reopened = IHilbert::<Empty>::open(&engine, catalog).expect("open");
        assert_eq!(
            assert_scan_answers(&engine, &reopened, &[], &points, "empty"),
            0
        );
    }
}

/// Grid updates that move corners: one cell pushed far outside the
/// domain, one grown over its neighbours, one shrunk into a sliver.
fn moved_grid_cells(field: &GridField) -> Vec<(usize, GridCellRecord)> {
    let d = field.domain();
    let far = 3.0 * (d.hi[0] - d.lo[0]);
    let mut moves = Vec::new();
    for (i, cell) in [7usize, 300, 811].into_iter().enumerate() {
        let r = field.cell_record(cell);
        let (w, h) = (r.x1 - r.x0, r.y1 - r.y0);
        let moved = match i {
            0 => GridCellRecord {
                x0: r.x0 + far,
                x1: r.x1 + far,
                ..r
            },
            1 => GridCellRecord {
                x0: r.x0 - 2.5 * w,
                y1: r.y1 + 1.5 * h,
                vals: [100.0, 101.0, 102.0, 103.0],
                ..r
            },
            _ => GridCellRecord {
                x1: r.x0 + w / 8.0,
                ..r
            },
        };
        moves.push((cell, moved));
    }
    moves
}

/// TIN updates that move one vertex of each of a few triangles
/// outward.
fn moved_tin_cells(field: &TinField) -> Vec<(usize, TinCellRecord)> {
    let d = field.domain();
    [3usize, 150, 901]
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            let mut r = field.cell_record(cell);
            let c = r.triangle().centroid();
            let k = i % 3;
            let push = 0.5 + i as f64;
            r.points[k] = Point2::new(
                r.points[k].x + push * (r.points[k].x - c.x) + (d.hi[0] - d.lo[0]) * (i as f64),
                r.points[k].y + push * (r.points[k].y - c.y),
            );
            (cell, r)
        })
        .collect()
}

/// Applies `moves` through `update_cell` and through a live-ingest
/// repack, checking each against the full scan of the moved records.
fn check_moves<F: FieldModel>(
    field: &F,
    moves: &[(usize, F::CellRec)],
    corners: impl Fn(&[F::CellRec]) -> Vec<Point2>,
    ctx: &str,
) {
    let order = cell_order(field, Curve::Hilbert);
    let mut records = file_records(field);
    for (cell, rec) in moves {
        let pos = order.iter().position(|c| c == cell).expect("mapped cell");
        records[pos] = rec.clone();
    }
    let moved: Vec<F::CellRec> = moves.iter().map(|(_, r)| r.clone()).collect();
    let mut points = probe_points(&corners(&moved), field.domain(), 11);
    points.extend(corners(&records).into_iter().step_by(7));
    for codec in [PageCodec::Raw, PageCodec::Compressed] {
        // In place, then saved and reopened.
        let engine = engine_with(codec);
        let mut index = IHilbert::build(&engine, field).expect("build");
        for (cell, rec) in moves {
            index
                .update_cell(&engine, *cell, rec.clone())
                .expect("update");
        }
        assert_scan_answers(&engine, &index, &records, &points, ctx);
        let catalog = index.save(&engine).expect("save");
        engine.clear_cache();
        let reopened = IHilbert::<F>::open(&engine, catalog).expect("open");
        assert_scan_answers(&engine, &reopened, &records, &points, ctx);

        // Through the ingest plane: ingest, repack, save, reopen.
        let engine = engine_with(codec);
        let base = IHilbert::build(&engine, field).expect("build");
        let live = LiveIngest::new(&engine, base, IngestConfig::default()).expect("live");
        for (cell, rec) in moves {
            live.ingest(&engine, *cell, rec.clone()).expect("ingest");
        }
        let catalog = live.save(&engine).expect("save");
        assert!(live.repack(&engine).expect("repack").repacked);
        live.save_to(&engine, catalog)
            .expect("save after the repack");
        drop(live);
        engine.clear_cache();
        let reopened = IHilbert::<F>::open(&engine, catalog).expect("open");
        assert_scan_answers(&engine, &reopened, &records, &points, ctx);
    }
}

#[test]
fn grid_updates_that_move_corners_answer_like_the_full_scan() {
    let field = grid_field();
    let moves = moved_grid_cells(&field);
    check_moves(&field, &moves, grid_corners, "moved grid cells");
    // The cell pushed outside the domain answers at its new place.
    let engine = StorageEngine::in_memory();
    let mut index = IHilbert::build(&engine, &field).expect("build");
    let (cell, far) = moves[0];
    let inside = Point2::new((far.x0 + far.x1) / 2.0, (far.y0 + far.y1) / 2.0);
    assert_eq!(index.value_at(&engine, inside).expect("q1"), None);
    index.update_cell(&engine, cell, far).expect("update");
    assert!(index.value_at(&engine, inside).expect("q1").is_some());
}

#[test]
fn tin_updates_that_move_corners_answer_like_the_full_scan() {
    let field = tin_field(700, 8);
    let moves = moved_tin_cells(&field);
    check_moves(&field, &moves, tin_corners, "moved triangles");
}

// The three tests below are the ones the R*-tree `PointIndex` carried,
// moved onto `IHilbert::value_at` with their assertions.

#[test]
fn grid_point_queries_match_field() {
    let vw = 17;
    let mut values = Vec::new();
    for y in 0..vw {
        for x in 0..vw {
            values.push((x * x + y) as f64);
        }
    }
    let field = GridField::from_values(vw, vw, values);
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");
    let box_pages = index.data_pages().div_ceil(128) as u64;

    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..100 {
        let p = Point2::new(rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0));
        let before = thread_io_stats();
        let got = index.value_at(&engine, p).expect("query");
        let reads = (thread_io_stats() - before).logical_reads();
        let want = field.value_at(p);
        // At least one candidate page was read.
        assert!(reads > box_pages);
        match (got, want) {
            (Some(g), Some(w)) => assert!((g - w).abs() < 1e-9, "at {p}"),
            other => panic!("mismatch at {p}: {other:?}"),
        }
    }
    // Outside the domain.
    let got = index
        .value_at(&engine, Point2::new(100.0, 0.0))
        .expect("query");
    assert_eq!(got, None);
}

#[test]
fn tin_point_queries_match_field() {
    let mut rng = StdRng::seed_from_u64(17);
    let points: Vec<Point2> = (0..120)
        .map(|_| Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
        .collect();
    let values: Vec<f64> = points.iter().map(|p| p.x * 2.0 - p.y).collect();
    let field = TinField::from_samples(&points, values).unwrap();
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");

    for _ in 0..60 {
        let p = Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
        let got = index.value_at(&engine, p).expect("query");
        let want = field.value_at(p);
        match (got, want) {
            (Some(g), Some(w)) => assert!((g - w).abs() < 1e-6, "at {p}: {g} vs {w}"),
            (None, None) => {}
            other => panic!("mismatch at {p}: {other:?}"),
        }
    }
}

#[test]
fn search_is_sublinear() {
    let vw = 65;
    let values = vec![0.0; vw * vw];
    let field = GridField::from_values(vw, vw, values);
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");
    let before = thread_io_stats();
    index
        .value_at(&engine, Point2::new(32.4, 18.7))
        .expect("query");
    let reads = (thread_io_stats() - before).logical_reads() as usize;
    assert!(
        reads < index.data_pages() / 4,
        "read {reads} of {} data pages",
        index.data_pages()
    );
}
