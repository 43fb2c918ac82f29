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
//!
//! The subfield indexes group each data page on its own, so their
//! grouping, and with it the cells they examine, follows the page
//! codec: their full digests are pinned per codec. Their answers do
//! not: an answer-only fold (cells examined left out) per query set
//! was recorded from the grouping that ignored page boundaries, and
//! both codecs must give it.

use contfield::field::{VectorCellRecord, VolumeCellRecord};
use contfield::index::{vector_linear_scan, volume_linear_scan, VolumeIHilbert};
use contfield::prelude::*;
use contfield::storage::{answer_digest, CellFile, PageCodec, PageId, Record, RecordFile};
use contfield::workload::geology::geology_field;
use contfield::workload::ocean::ocean_field;
use contfield::workload::{fractal::diamond_square, noise::urban_noise_tin, queries};

const BANDS: usize = 64;
const QINTERVALS: [f64; 3] = [0.0, 0.01, 0.05];

/// A 2-D field's pinned answers and I-All's pages.
struct Golden {
    /// Per Qinterval: the folded digests of `LinearScan`, `IHilbert` on
    /// raw pages, `IHilbert` on compressed pages, `IAll` and
    /// `IntervalQuadtree` (threshold `dom.width() / 16`). Raw and
    /// compressed pages must give the last two alike.
    answers: [[u64; 5]; 3],
    /// Per Qinterval: `IHilbert`'s answer-only fold, on either codec.
    answers_only: [u64; 3],
    /// I-All's `index_pages()`, and its `io.disk_reads` summed over every
    /// band with the pool cleared before each query, on raw pages.
    iall_pages: (usize, u64),
}

const GRID: Golden = Golden {
    answers: [
        [
            0xcf33_43b1_d6ee_acdd,
            0x73e9_7c2d_4a7b_5042,
            0x11e2_1b1e_5c3a_5f99,
            0x6827_4ab0_0633_ca3c,
            0xfc7e_0741_08d9_ebbf,
        ],
        [
            0x4da3_e442_8c79_a301,
            0x03ab_687f_75bc_e8ef,
            0xbc68_70a2_f31c_309b,
            0xe99c_ebe0_0620_394f,
            0x3b90_d3c0_3c80_bc97,
        ],
        [
            0x24a1_87fd_3c21_6f6d,
            0x1c7b_bb29_b21c_2f95,
            0x9cc8_f1ad_50f4_6fef,
            0xdfb6_c83e_81a0_e7cb,
            0x283a_215d_99db_e7e5,
        ],
    ],
    answers_only: [
        0x9f99_7c9e_8c4d_935c,
        0x639a_1a7e_014d_7471,
        0x9502_5a7d_3de2_e304,
    ],
    iall_pages: (98, 20_759),
};

const TIN: Golden = Golden {
    answers: [
        [
            0x189a_ef7f_759d_c393,
            0x114e_7842_29f2_807d,
            0xd5b5_0871_2896_7023,
            0xa5a7_f532_7e9f_1be7,
            0x03d4_80ec_0125_c9de,
        ],
        [
            0x6db8_729a_95cf_d3dc,
            0xe98b_f899_e785_2ea6,
            0xe5de_7efd_f927_71b3,
            0xa423_7914_5d13_11a3,
            0x8ae4_e90b_1c3e_dac4,
        ],
        [
            0x578d_4c13_a4dd_63d7,
            0x2bdd_23ad_6218_623c,
            0xb3b6_6cff_11db_45aa,
            0x10f1_3cf1_c6e9_ad7d,
            0xc1da_1a8f_6975_ac1d,
        ],
    ],
    answers_only: [
        0xcf99_1191_91f9_a2c7,
        0xd789_3993_5b5b_dad7,
        0xc5e5_1ce0_d0a7_8ed7,
    ],
    iall_pages: (31, 12_796),
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

/// The digest of what a query answered, without the cells it examined.
fn answer_only_digest(s: &QueryStats) -> u64 {
    answer_digest(0, s.cells_qualifying as u64, s.num_regions as u64, s.area)
}

/// Per band: the full digest and the answer-only digest.
fn digests(
    index: &dyn ValueIndex,
    engine: &StorageEngine,
    bands: &[Interval],
) -> (Vec<u64>, Vec<u64>) {
    bands
        .iter()
        .map(|&band| {
            let stats = index.query_stats(engine, band).expect("query");
            (stats_digest(&stats), answer_only_digest(&stats))
        })
        .unzip()
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
    let mut answers_only = [0; 3];
    let mut iall_disk_reads = 0;
    for (i, qi) in QINTERVALS.into_iter().enumerate() {
        let bands = queries::interval_queries(dom, qi, BANDS, 0xD16E + i as u64);
        let (ihilbert_raw, want_only) = digests(raw[0].as_ref(), &raw_engine, &bands);
        let (ihilbert_comp, comp_only) = digests(comp[0].as_ref(), &comp_engine, &bands);
        assert_eq!(
            comp_only, want_only,
            "{name} I-Hilbert Qinterval {qi}: compressed pages answer differently from raw"
        );
        answers_only[i] = fold(&want_only);
        let mut row = [
            fold(&digests(&scan, &scan_engine, &bands).0),
            fold(&ihilbert_raw),
            fold(&ihilbert_comp),
            0,
            0,
        ];
        for (j, (raw, comp)) in raw.iter().zip(&comp).enumerate().skip(1) {
            let want = digests(raw.as_ref(), &raw_engine, &bands).0;
            assert_eq!(
                digests(comp.as_ref(), &comp_engine, &bands).0,
                want,
                "{name} {} Qinterval {qi}: compressed pages answer differently from raw",
                raw.name()
            );
            row[j + 2] = fold(&want);
        }
        answers.push(row);
        for &band in &bands {
            raw_engine.clear_cache();
            let stats = iall.query_stats(&raw_engine, band).expect("query");
            iall_disk_reads += stats.io.disk_reads;
        }
    }
    assert_eq!(
        (
            hex(&[answers_only]),
            hex(&answers),
            (iall.index_pages(), iall_disk_reads)
        ),
        (
            hex(&[golden.answers_only]),
            hex(&golden.answers),
            golden.iall_pages
        ),
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

/// The triangles of the golden TIN, the paper-sized one and the
/// benchmark's, folded index by index. The values were recorded with the
/// triangulator that inserted sites in input order and scanned every
/// triangle for each: Hilbert-order insertion must give the same vector.
#[test]
fn tin_triangles_match_golden_folds() {
    for (triangles, seed, want) in [
        (5_000, 0xEDB7, 0x470a_e167_343d_2f60),
        (9_000, 42, 0xd615_3519_d083_5195),
        (50_000, 0xEDB7, 0x5973_6dca_1a57_ef0c),
    ] {
        let tin = urban_noise_tin(triangles, seed);
        let indices: Vec<u64> = tin
            .triangulation()
            .triangles
            .iter()
            .flatten()
            .map(|&v| v as u64)
            .collect();
        assert_eq!(
            fold(&indices),
            want,
            "urban_noise_tin({triangles}, {seed:#x})"
        );
    }
}

/// A dimension fork's pinned answers.
struct ForkGolden {
    /// Per query set: the folded digests of its hand-written scan, of its
    /// index on raw pages and of its index on compressed pages.
    answers: [[u64; 3]; 3],
    /// Per query set: the index's answer-only fold, on either codec.
    answers_only: [u64; 3],
    /// The index's subfield count on raw and on compressed pages.
    subfields: (usize, usize),
}

const VOLUME: ForkGolden = ForkGolden {
    answers: [
        [
            0x5d45_5499_0131_92a5,
            0x1551_8f01_45a8_3793,
            0xc6a8_4234_99d4_2485,
        ],
        [
            0x62be_d614_fa0d_6384,
            0xaa95_ddfe_4390_1f0a,
            0x0574_2f2c_b5ed_28cb,
        ],
        [
            0x7393_20d2_e79f_44d6,
            0x955a_e271_47ca_4ee2,
            0xa62f_f8b9_3800_7e53,
        ],
    ],
    answers_only: [
        0x90ba_692f_9369_5c28,
        0xdb4b_ce32_79bf_f0ae,
        0x9064_9558_f0a9_a42a,
    ],
    subfields: (145, 102),
};

const VECTOR: ForkGolden = ForkGolden {
    answers: [
        [
            0x5188_6639_ab1d_d038,
            0x8425_72b8_3331_df64,
            0xcce3_4e28_dbf2_f23f,
        ],
        [
            0x1dc6_fc55_b778_73e1,
            0x9b5c_1957_993a_050e,
            0xb8c1_7bc7_15cf_42b9,
        ],
        [
            0xbd7b_da46_2bcc_6d82,
            0xccf8_5b23_7774_58d2,
            0x186e_3b2e_a046_5d0a,
        ],
    ],
    answers_only: [
        0xc598_d666_26a3_2da9,
        0xa646_2e21_97a5_a83f,
        0x0ab7_2ca1_ab87_c739,
    ],
    subfields: (213, 203),
};

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
    let (raw_subfields, raw) = index(&raw_engine);
    let (comp_subfields, comp) = index(&comp_engine);
    let run = |answer: &Answer<'_, Q>, set: &[Q]| -> (Vec<u64>, Vec<u64>) {
        set.iter()
            .map(|q| {
                let stats = answer(q);
                (stats_digest(&stats), answer_only_digest(&stats))
            })
            .unzip()
    };
    let mut got = Vec::new();
    let mut got_only = [0; 3];
    for (i, set) in queries.iter().enumerate() {
        let (raw_digests, want_only) = run(&raw, set);
        let (comp_digests, comp_only) = run(&comp, set);
        assert_eq!(
            comp_only, want_only,
            "{name} query set {i}: compressed pages answer differently from raw"
        );
        got_only[i] = fold(&want_only);
        got.push([
            fold(&run(&scan, set).0),
            fold(&raw_digests),
            fold(&comp_digests),
        ]);
    }
    assert_eq!(
        (hex(&[got_only]), hex(&got), (raw_subfields, comp_subfields)),
        (
            hex(&[golden.answers_only]),
            hex(&golden.answers),
            golden.subfields
        ),
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

/// The compressed cell files' data pages of the four golden fields —
/// grid, TIN, volume, vector — as `(data pages, FNV-1a of their bytes)`.
/// Answers alone would not notice an encoder that wrote different but
/// decodable pages; this pins the bytes themselves.
const COMPRESSED_PAGES: [(usize, u64); 4] = [
    (129, 0x0aa9_9203_339a_1d23),
    (52, 0x63cf_d940_014e_8126),
    (51, 0x5f69_ddf0_5772_ebfa),
    (31, 0x3879_28c9_7d0c_fa38),
];

/// Data page count and byte fold of a cell file.
fn fold_data_pages<R: Record>(engine: &StorageEngine, file: &CellFile<R>) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..file.data_pages() {
        let page = PageId(file.first_page().0 + i as u64);
        hash = engine
            .with_page(page, |bytes| {
                bytes.iter().fold(hash, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
            })
            .expect("read");
    }
    (file.data_pages(), hash)
}

#[test]
fn compressed_cell_pages_match_golden_bytes() {
    let engine = engine_with(PageCodec::Compressed);
    let grid = IHilbert::build(&engine, &diamond_square(7, 0.6, 0xEDB7)).expect("build");
    let tin = IHilbert::build(&engine, &urban_noise_tin(5_000, 0xEDB7)).expect("build");
    let volume = VolumeIHilbert::build(&engine, &geology_field(16, 0xEDB7)).expect("build");
    let vector = VectorIHilbert::build(&engine, &ocean_field(48, 0xEDB7)).expect("build");
    let got = [
        fold_data_pages(&engine, grid.cell_file()),
        fold_data_pages(&engine, tin.cell_file()),
        fold_data_pages(&engine, volume.cell_file()),
        fold_data_pages(&engine, vector.cell_file()),
    ];
    assert!(
        got.iter().all(|&(pages, _)| pages > 1),
        "every field spans several pages"
    );
    let show = |rows: &[(usize, u64)]| -> Vec<String> {
        rows.iter()
            .map(|(pages, hash)| format!("({pages}, {hash:#018x})"))
            .collect()
    };
    assert_eq!(
        show(&got),
        show(&COMPRESSED_PAGES),
        "compressed page bytes moved from the golden values"
    );
}
