//! Golden answers: the `answer_digest` of every band — cells examined,
//! cells qualifying, region count and area bits — pinned as constants.
//!
//! `cross_method_consistency` checks that the indexes agree with each
//! other; this file checks that they agree with what they answered when
//! the constants were recorded, so a refine-kernel change that moves a
//! single area bit fails here even when every method moves with it.
//! Each constant folds the 64 per-band digests of one query set, in
//! band order.

use contfield::prelude::*;
use contfield::storage::{answer_digest, PageCodec};
use contfield::workload::{fractal::diamond_square, noise::urban_noise_tin, queries};

const BANDS: usize = 64;
const QINTERVALS: [f64; 3] = [0.0, 0.01, 0.05];

/// Per Qinterval: the folded digests of `LinearScan` and of `IHilbert`
/// (raw and compressed pages must both give the latter).
type Golden = [(u64, u64); 3];

const GRID: Golden = [
    (0xcf33_43b1_d6ee_acdd, 0x89fa_e6fd_2084_9802),
    (0x4da3_e442_8c79_a301, 0xe2ca_5040_13d0_5c3c),
    (0x24a1_87fd_3c21_6f6d, 0xd993_9e90_a74b_95a4),
];

const TIN: Golden = [
    (0x189a_ef7f_759d_c393, 0x1da9_1062_9fbd_2caa),
    (0x6db8_729a_95cf_d3dc, 0x5b1f_e18e_dead_1a1e),
    (0x578d_4c13_a4dd_63d7, 0xb465_0a1b_7cf7_8490),
];

/// FNV-1a over the per-band digests, in band order.
fn fold(digests: &[u64]) -> u64 {
    digests.iter().fold(0xcbf2_9ce4_8422_2325, |hash, d| {
        d.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

fn digests(index: &dyn ValueIndex, engine: &StorageEngine, bands: &[Interval]) -> Vec<u64> {
    bands
        .iter()
        .map(|&band| {
            let s = index.query_stats(engine, band).expect("query");
            answer_digest(
                s.cells_examined as u64,
                s.cells_qualifying as u64,
                s.num_regions as u64,
                s.area,
            )
        })
        .collect()
}

fn engine_with(codec: PageCodec) -> StorageEngine {
    StorageEngine::new(StorageConfig {
        codec,
        ..StorageConfig::default()
    })
}

fn assert_golden<F: FieldModel>(name: &str, field: &F, golden: Golden) {
    let scan_engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&scan_engine, field).expect("build");
    let raw_engine = engine_with(PageCodec::Raw);
    let raw = IHilbert::build(&raw_engine, field).expect("build");
    let comp_engine = engine_with(PageCodec::Compressed);
    let comp = IHilbert::build(&comp_engine, field).expect("build");

    let dom = field.value_domain();
    let mut got = Vec::new();
    for (i, qi) in QINTERVALS.into_iter().enumerate() {
        let bands = queries::interval_queries(dom, qi, BANDS, 0xD16E + i as u64);
        let want_hilbert = digests(&raw, &raw_engine, &bands);
        assert_eq!(
            digests(&comp, &comp_engine, &bands),
            want_hilbert,
            "{name} Qinterval {qi}: compressed pages answer differently from raw"
        );
        got.push((
            fold(&digests(&scan, &scan_engine, &bands)),
            fold(&want_hilbert),
        ));
    }
    let got: Vec<String> = got
        .iter()
        .map(|(s, h)| format!("({s:#018x}, {h:#018x})"))
        .collect();
    let want: Vec<String> = golden
        .iter()
        .map(|(s, h)| format!("({s:#018x}, {h:#018x})"))
        .collect();
    assert_eq!(got, want, "{name}: answers moved from the golden digests");
}

#[test]
fn grid_answers_match_golden_digests() {
    assert_golden("grid", &diamond_square(7, 0.6, 0xEDB7), GRID);
}

#[test]
fn tin_answers_match_golden_digests() {
    assert_golden("tin", &urban_noise_tin(5_000, 0xEDB7), TIN);
}
