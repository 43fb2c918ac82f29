//! Property-based tests: every index must agree with the exhaustive
//! scan on arbitrary fields and arbitrary queries.

use cf_field::{FieldModel, GridField};
use cf_geom::Interval;
use cf_index::{
    IAll, IHilbert, IHilbertConfig, IntervalQuadtree, LinearScan, SubfieldConfig, ValueIndex,
};
use cf_sfc::Curve;
use cf_storage::{PageCodec, PageId, StorageConfig, StorageEngine};
use cf_workload::noise::urban_noise_tin;
use proptest::prelude::*;

/// Arbitrary small grid fields: dimensions 2..=9 vertices, values from a
/// bounded range (including negative and repeated values).
fn grid_field() -> impl Strategy<Value = GridField> {
    (2usize..10, 2usize..10).prop_flat_map(|(vw, vh)| {
        prop::collection::vec(-100.0..100.0f64, vw * vh)
            .prop_map(move |values| GridField::from_values(vw, vh, values))
    })
}

fn band() -> impl Strategy<Value = Interval> {
    (-120.0..120.0f64, 0.0..80.0f64).prop_map(|(lo, w)| Interval::new(lo, lo + w))
}

/// Grid fields spanning several cell-file pages.
fn grid_field_large() -> impl Strategy<Value = GridField> {
    (16usize..72).prop_flat_map(|vw| {
        prop::collection::vec(-100.0..100.0f64, vw * vw)
            .prop_map(move |values| GridField::from_values(vw, vw, values))
    })
}

/// Builds the index along `curve` on a fresh engine with `codec` pages.
fn build_fresh<F: FieldModel>(
    field: &F,
    curve: Curve,
    codec: PageCodec,
) -> (StorageEngine, IHilbert<F>) {
    let engine = StorageEngine::new(StorageConfig {
        codec,
        ..StorageConfig::default()
    });
    let config = IHilbertConfig {
        curve,
        ..Default::default()
    };
    let index = IHilbert::build_with(&engine, field, config).expect("build");
    (engine, index)
}

/// Builds the index twice on fresh engines (all four curves, raw and
/// compressed pages) and requires the two engines to be byte-for-byte
/// equal — the property every `cmp`-identical-database acceptance check
/// rests on.
fn assert_build_is_deterministic<F: FieldModel>(field: &F) {
    for curve in Curve::ALL {
        for codec in [PageCodec::Raw, PageCodec::Compressed] {
            let (first_engine, first) = build_fresh(field, curve, codec);
            let (again_engine, again) = build_fresh(field, curve, codec);
            assert_eq!(
                again.num_subfields(),
                first.num_subfields(),
                "{curve:?} {codec:?}"
            );
            assert_eq!(again_engine.num_pages(), first_engine.num_pages());
            for p in 0..first_engine.num_pages() {
                let a = first_engine
                    .with_page(PageId(p as u64), |page| *page)
                    .expect("read");
                let b = again_engine
                    .with_page(PageId(p as u64), |page| *page)
                    .expect("read");
                assert!(a == b, "page {p} differs ({curve:?}, {codec:?})");
            }
        }
    }
}

/// Builds the same index over raw and compressed cell pages (all four
/// curves) and requires bit-exact answers — same qualifying cells, same
/// region count, byte-identical area — while the compressed file
/// occupies fewer (or at worst equal) data pages. Each codec groups
/// within its own pages, so each examines exactly the cells of its own
/// subfields whose interval meets the band.
fn assert_codecs_answer_identically<F: FieldModel + Sync>(field: &F, bands: &[Interval]) {
    for curve in Curve::ALL {
        let (raw_engine, raw) = build_fresh(field, curve, PageCodec::Raw);
        let (comp_engine, comp) = build_fresh(field, curve, PageCodec::Compressed);
        assert!(
            comp.data_pages() <= raw.data_pages(),
            "{curve:?}: compressed {} vs raw {} data pages",
            comp.data_pages(),
            raw.data_pages()
        );
        for &b in bands {
            let want = raw.query_stats(&raw_engine, b).expect("query");
            let got = comp.query_stats(&comp_engine, b).expect("query");
            let ctx = format!("{curve:?} band {b}");
            for (index, stats) in [(&raw, &want), (&comp, &got)] {
                let examined: usize = index
                    .subfields()
                    .iter()
                    .filter(|sf| sf.interval.intersects(b))
                    .map(|sf| sf.len())
                    .sum();
                assert_eq!(stats.cells_examined, examined, "{ctx}");
            }
            assert_eq!(got.cells_qualifying, want.cells_qualifying, "{ctx}");
            assert_eq!(got.num_regions, want.num_regions, "{ctx}");
            assert_eq!(
                got.area.to_bits(),
                want.area.to_bits(),
                "{ctx}: area {} vs {}",
                got.area,
                want.area
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn compressed_and_raw_cell_files_answer_identically_on_grids(
        field in grid_field(),
        bands in prop::collection::vec(band(), 1..4),
    ) {
        assert_codecs_answer_identically(&field, &bands);
    }

    #[test]
    fn compressed_and_raw_cell_files_answer_identically_on_tins(
        tris in 60usize..400,
        seed in any::<u64>(),
        bands in prop::collection::vec(band(), 1..4),
    ) {
        let field = urban_noise_tin(tris, seed);
        assert_codecs_answer_identically(&field, &bands);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn build_is_deterministic_page_for_page_on_grids(field in grid_field_large()) {
        assert_build_is_deterministic(&field);
    }

    #[test]
    fn build_is_deterministic_page_for_page_on_tins(
        tris in 60usize..500,
        seed in any::<u64>(),
    ) {
        assert_build_is_deterministic(&urban_noise_tin(tris, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_methods_agree_with_scan(field in grid_field(), bands in prop::collection::vec(band(), 1..6)) {
        let engine = StorageEngine::in_memory();
        let scan = LinearScan::build(&engine, &field).expect("build");
        let iall = IAll::build(&engine, &field).expect("build");
        let ihilbert = IHilbert::build(&engine, &field).expect("build");
        let iquad = IntervalQuadtree::build(&engine, &field, field.value_domain().width() / 8.0)
            .expect("build");
        let methods: Vec<&dyn ValueIndex> = vec![&iall, &ihilbert, &iquad];
        for b in bands {
            let want = scan.query_stats(&engine, b).expect("query");
            for m in &methods {
                let got = m.query_stats(&engine, b).expect("query");
                prop_assert_eq!(got.cells_qualifying, want.cells_qualifying,
                    "{} on {}", m.name(), b);
                prop_assert!((got.area - want.area).abs() <= 1e-9 * want.area.max(1.0),
                    "{} area {} vs {} on {}", m.name(), got.area, want.area, b);
            }
        }
    }

    #[test]
    fn every_curve_yields_correct_index(
        field in grid_field(),
        b in band(),
        curve_idx in 0usize..4,
    ) {
        let engine = StorageEngine::in_memory();
        let scan = LinearScan::build(&engine, &field).expect("build");
        let idx = IHilbert::build_with(
            &engine,
            &field,
            IHilbertConfig {
                curve: Curve::ALL[curve_idx],
                ..Default::default()
            },
        )
        .expect("build");
        let want = scan.query_stats(&engine, b).expect("query");
        let got = idx.query_stats(&engine, b).expect("query");
        prop_assert_eq!(got.cells_qualifying, want.cells_qualifying);
        prop_assert!((got.area - want.area).abs() <= 1e-9 * want.area.max(1.0));
    }

    #[test]
    fn cost_knobs_never_affect_correctness(
        field in grid_field(),
        b in band(),
        base in 0.001..50.0f64,
        qlen in 0.0..100.0f64,
    ) {
        let engine = StorageEngine::in_memory();
        let scan = LinearScan::build(&engine, &field).expect("build");
        let idx = IHilbert::build_with(
            &engine,
            &field,
            IHilbertConfig {
                subfield: SubfieldConfig { base, query_len: qlen },
                ..Default::default()
            },
        )
        .expect("build");
        let want = scan.query_stats(&engine, b).expect("query");
        let got = idx.query_stats(&engine, b).expect("query");
        prop_assert_eq!(got.cells_qualifying, want.cells_qualifying);
        prop_assert!((got.area - want.area).abs() <= 1e-9 * want.area.max(1.0));
    }

    #[test]
    fn updates_preserve_agreement(
        field in grid_field(),
        updates in prop::collection::vec((any::<u32>(), -100.0..100.0f64), 1..12),
        b in band(),
    ) {
        let engine = StorageEngine::in_memory();
        let mut index = IHilbert::build(&engine, &field).expect("build");
        // Apply vertex updates to a model copy of the field and push the
        // affected cell records into the index.
        let (vw, vh) = field.vertex_dims();
        let mut values: Vec<f64> = (0..vh)
            .flat_map(|y| (0..vw).map(move |x| (x, y)))
            .map(|(x, y)| field.vertex_value(x, y))
            .collect();
        let mut current = field.clone();
        for (pick, val) in updates {
            let vi = pick as usize % (vw * vh);
            values[vi] = val;
            current = GridField::from_values(vw, vh, values.clone());
            let (x, y) = (vi % vw, vi / vw);
            let (cw, ch) = current.cell_dims();
            for cy in y.saturating_sub(1)..=y.min(ch - 1) {
                for cx in x.saturating_sub(1)..=x.min(cw - 1) {
                    let cell = current.cell_index(cx, cy);
                    index
                        .update_cell(&engine, cell, current.cell_record(cell))
                        .expect("update");
                }
            }
        }
        let scan = LinearScan::build(&engine, &current).expect("build");
        let want = scan.query_stats(&engine, b).expect("query");
        let got = index.query_stats(&engine, b).expect("query");
        prop_assert_eq!(got.cells_qualifying, want.cells_qualifying);
        prop_assert!((got.area - want.area).abs() <= 1e-9 * want.area.max(1.0));
    }

    #[test]
    fn stats_invariants_hold(field in grid_field(), b in band()) {
        let engine = StorageEngine::in_memory();
        let ihilbert = IHilbert::build(&engine, &field).expect("build");
        engine.clear_cache();
        let s = ihilbert.query_stats(&engine, b).expect("query");
        prop_assert!(s.cells_qualifying <= s.cells_examined);
        prop_assert!(s.area >= 0.0);
        prop_assert!(s.area <= field.domain().volume() + 1e-9);
        prop_assert_eq!(s.io.pool_misses, s.io.disk_reads);
        if s.cells_examined > 0 {
            prop_assert!(s.filter_nodes >= 1);
        }
    }
}
