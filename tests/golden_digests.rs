//! Golden answers: the `answer_digest` of every band — cells examined,
//! cells qualifying, region count and area bits — pinned as constants.
//!
//! `cross_method_consistency` checks that the indexes agree with each
//! other; this file checks that they agree with what they answered when
//! the constants were recorded, so a refine-kernel change that moves a
//! single area bit fails here even when every method moves with it.
//! Each constant folds the 64 per-band digests of one query set, in
//! band order. The 2-D fields also pin I-All's tree size and cold page
//! reads. The 3-D volume and the vector index, which answer outside
//! `ValueIndex`, pin their hand-written scans, their index on raw and on
//! compressed pages, and their subfield counts the same way.

use contfield::field::{VectorCellRecord, VolumeCellRecord};
use contfield::index::{vector_linear_scan, volume_linear_scan, VolumeIHilbert};
use contfield::prelude::*;
use contfield::storage::{answer_digest, PageCodec, RecordFile};
use contfield::workload::geology::geology_field;
use contfield::workload::ocean::ocean_field;
use contfield::workload::{fractal::diamond_square, noise::urban_noise_tin, queries};

const BANDS: usize = 64;
const QINTERVALS: [f64; 3] = [0.0, 0.01, 0.05];

/// A 2-D field's pinned answers and I-All's pages.
struct Golden {
    /// Per Qinterval: the folded digests of `LinearScan`, `IHilbert`,
    /// `IAll` and `IntervalQuadtree` (threshold `dom.width() / 16`).
    /// Raw and compressed pages must give the last three alike.
    answers: [[u64; 4]; 3],
    /// I-All's `index_pages()`, and its `io.disk_reads` summed over every
    /// band with the pool cleared before each query, on raw pages.
    iall_pages: (usize, u64),
}

const GRID: Golden = Golden {
    answers: [
        [
            0xcf33_43b1_d6ee_acdd,
            0x89fa_e6fd_2084_9802,
            0x6827_4ab0_0633_ca3c,
            0xfc7e_0741_08d9_ebbf,
        ],
        [
            0x4da3_e442_8c79_a301,
            0xe2ca_5040_13d0_5c3c,
            0xe99c_ebe0_0620_394f,
            0x3b90_d3c0_3c80_bc97,
        ],
        [
            0x24a1_87fd_3c21_6f6d,
            0xd993_9e90_a74b_95a4,
            0xdfb6_c83e_81a0_e7cb,
            0x283a_215d_99db_e7e5,
        ],
    ],
    iall_pages: (134, 21_143),
};

const TIN: Golden = Golden {
    answers: [
        [
            0x189a_ef7f_759d_c393,
            0x1da9_1062_9fbd_2caa,
            0xa5a7_f532_7e9f_1be7,
            0x03d4_80ec_0125_c9de,
        ],
        [
            0x6db8_729a_95cf_d3dc,
            0x5b1f_e18e_dead_1a1e,
            0xa423_7914_5d13_11a3,
            0x8ae4_e90b_1c3e_dac4,
        ],
        [
            0x578d_4c13_a4dd_63d7,
            0xb465_0a1b_7cf7_8490,
            0x10f1_3cf1_c6e9_ad7d,
            0xc1da_1a8f_6975_ac1d,
        ],
    ],
    iall_pages: (44, 12_886),
};

/// FNV-1a over the per-band digests, in band order.
fn fold(digests: &[u64]) -> u64 {
    digests.iter().fold(0xcbf2_9ce4_8422_2325, |hash, d| {
        d.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

fn stats_digest(s: &QueryStats) -> u64 {
    answer_digest(
        s.cells_examined as u64,
        s.cells_qualifying as u64,
        s.num_regions as u64,
        s.area,
    )
}

fn digests(index: &dyn ValueIndex, engine: &StorageEngine, bands: &[Interval]) -> Vec<u64> {
    bands
        .iter()
        .map(|&band| stats_digest(&index.query_stats(engine, band).expect("query")))
        .collect()
}

/// Digest rows as the source text of their constants, so a failure
/// prints what to paste.
fn hex<const N: usize>(rows: &[[u64; N]]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            let cols: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("[{}]", cols.join(", "))
        })
        .collect()
}

fn engine_with(codec: PageCodec) -> StorageEngine {
    StorageEngine::new(StorageConfig {
        codec,
        ..StorageConfig::default()
    })
}

fn assert_golden<F: FieldModel + 'static>(name: &str, field: &F, golden: Golden) {
    let dom = field.value_domain();
    let scan_engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&scan_engine, field).expect("build");
    let build = |engine: &StorageEngine| -> [Box<dyn ValueIndex>; 3] {
        [
            Box::new(IHilbert::build(engine, field).expect("build")),
            Box::new(IAll::build(engine, field).expect("build")),
            Box::new(IntervalQuadtree::build(engine, field, dom.width() / 16.0).expect("build")),
        ]
    };
    let raw_engine = engine_with(PageCodec::Raw);
    let raw = build(&raw_engine);
    let comp_engine = engine_with(PageCodec::Compressed);
    let comp = build(&comp_engine);
    let iall = &raw[1];

    let mut answers = Vec::new();
    let mut iall_disk_reads = 0;
    for (i, qi) in QINTERVALS.into_iter().enumerate() {
        let bands = queries::interval_queries(dom, qi, BANDS, 0xD16E + i as u64);
        let mut row = [fold(&digests(&scan, &scan_engine, &bands)), 0, 0, 0];
        for (j, (raw, comp)) in raw.iter().zip(&comp).enumerate() {
            let want = digests(raw.as_ref(), &raw_engine, &bands);
            assert_eq!(
                digests(comp.as_ref(), &comp_engine, &bands),
                want,
                "{name} {} Qinterval {qi}: compressed pages answer differently from raw",
                raw.name()
            );
            row[j + 1] = fold(&want);
        }
        answers.push(row);
        for &band in &bands {
            raw_engine.clear_cache();
            let stats = iall.query_stats(&raw_engine, band).expect("query");
            iall_disk_reads += stats.io.disk_reads;
        }
    }
    assert_eq!(
        (hex(&answers), (iall.index_pages(), iall_disk_reads)),
        (hex(&golden.answers), golden.iall_pages),
        "{name}: answers or I-All's pages moved from the golden values"
    );
}

#[test]
fn grid_answers_match_golden_digests() {
    assert_golden("grid", &diamond_square(7, 0.6, 0xEDB7), GRID);
}

#[test]
fn tin_answers_match_golden_digests() {
    assert_golden("tin", &urban_noise_tin(5_000, 0xEDB7), TIN);
}

/// A dimension fork's pinned answers: per query set, the folded digests
/// of its hand-written scan and of its index (raw and compressed pages
/// must both give the latter); then its subfield count.
type ForkGolden = ([[u64; 2]; 3], usize);

const VOLUME: ForkGolden = (
    [
        [0x5d45_5499_0131_92a5, 0xc20d_c650_fa22_757c],
        [0x62be_d614_fa0d_6384, 0xca08_18f3_8a91_e51f],
        [0x7393_20d2_e79f_44d6, 0xfc08_99f9_5727_8111],
    ],
    27,
);

const VECTOR: ForkGolden = (
    [
        [0x5188_6639_ab1d_d038, 0x4412_3f41_896a_4b43],
        [0x1dc6_fc55_b778_73e1, 0xa892_465d_cefc_5766],
        [0xbd7b_da46_2bcc_6d82, 0x4f02_1bfc_0eb0_5e37],
    ],
    183,
);

/// One query method of a fork, bound to the engine it was built in.
type Answer<'a, Q> = Box<dyn Fn(&Q) -> QueryStats + 'a>;

/// Runs `queries` (one list per query set) on the fork's scan and on its
/// index built on raw and on compressed pages, and compares with
/// `golden`. `index` returns the subfield count beside the query method.
fn assert_fork_golden<Q>(
    name: &str,
    queries: &[Vec<Q>],
    scan: impl Fn(&StorageEngine) -> Answer<'_, Q>,
    index: impl Fn(&StorageEngine) -> (usize, Answer<'_, Q>),
    golden: ForkGolden,
) {
    let scan_engine = StorageEngine::in_memory();
    let raw_engine = engine_with(PageCodec::Raw);
    let comp_engine = engine_with(PageCodec::Compressed);
    let scan = scan(&scan_engine);
    let (subfields, raw) = index(&raw_engine);
    let (comp_subfields, comp) = index(&comp_engine);
    assert_eq!(
        subfields, comp_subfields,
        "{name}: codec moved the grouping"
    );
    let run = |answer: &Answer<'_, Q>, set: &[Q]| -> Vec<u64> {
        set.iter().map(|q| stats_digest(&answer(q))).collect()
    };
    let mut got = Vec::new();
    for (i, set) in queries.iter().enumerate() {
        let want_index = run(&raw, set);
        assert_eq!(
            run(&comp, set),
            want_index,
            "{name} query set {i}: compressed pages answer differently from raw"
        );
        got.push([fold(&run(&scan, set)), fold(&want_index)]);
    }
    assert_eq!(
        (hex(&got), subfields),
        (hex(&golden.0), golden.1),
        "{name}: answers moved from the golden digests"
    );
}

#[test]
fn volume_answers_match_golden_digests() {
    let field = geology_field(16, 0xEDB7);
    let dom = field.value_domain();
    let queries: Vec<Vec<Interval>> = QINTERVALS
        .into_iter()
        .enumerate()
        .map(|(i, qi)| queries::interval_queries(dom, qi, BANDS, 0xD16E + i as u64))
        .collect();
    assert_fork_golden(
        "volume",
        &queries,
        |engine| {
            let records: Vec<VolumeCellRecord> = (0..field.num_cells())
                .map(|c| field.cell_record(c))
                .collect();
            let file = RecordFile::create(engine, records).expect("create");
            Box::new(move |&band| volume_linear_scan(engine, &file, band).expect("scan"))
        },
        |engine| {
            let index = VolumeIHilbert::build(engine, &field).expect("build");
            let subfields = index.num_subfields();
            (
                subfields,
                Box::new(move |&band| index.query_stats(engine, band).expect("query")),
            )
        },
        VOLUME,
    );
}

#[test]
fn vector_answers_match_golden_digests() {
    let field = ocean_field(48, 0xEDB7);
    let dom = field.value_domain();
    let component = |d: usize| Interval::new(dom.lo[d], dom.hi[d]);
    // Boxes: one band per component, each a fraction of its domain.
    let queries: Vec<Vec<Aabb<2>>> = [0.05, 0.2, 0.5]
        .into_iter()
        .enumerate()
        .map(|(i, qi)| {
            let seed = 0xD16E + 2 * i as u64;
            let temp = queries::interval_queries(component(0), qi, BANDS, seed);
            let sal = queries::interval_queries(component(1), qi, BANDS, seed + 1);
            temp.iter()
                .zip(&sal)
                .map(|(t, s)| Aabb::new([t.lo, s.lo], [t.hi, s.hi]))
                .collect()
        })
        .collect();
    assert_fork_golden(
        "vector",
        &queries,
        |engine| {
            let records: Vec<VectorCellRecord<2>> = (0..field.num_cells())
                .map(|c| field.cell_record(c))
                .collect();
            let file = RecordFile::create(engine, records).expect("create");
            Box::new(move |query| vector_linear_scan(engine, &file, query).expect("scan"))
        },
        |engine| {
            let index = VectorIHilbert::build(engine, &field).expect("build");
            let subfields = index.num_subfields();
            (
                subfields,
                Box::new(move |query| index.query_stats(engine, query).expect("query")),
            )
        },
        VECTOR,
    );
}
