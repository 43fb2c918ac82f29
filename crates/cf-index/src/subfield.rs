//! Subfield construction by the paper's cost function (§3.1.2).
//!
//! Cells, already linearized along the Hilbert curve, are grouped
//! greedily: a subfield keeps absorbing the next cell while doing so does
//! not increase its cost
//!
//! ```text
//! C = P / SI,        P  = L + query_len        (probability model)
//!                    L  = interval size of the subfield
//!                    SI = Σ interval sizes of its cells
//! interval size I = (max − min) + base          (paper: base = 1)
//! ```
//!
//! `P` follows Kamel & Faloutsos' packing model: the probability that a
//! 1-D MBR of length `L` is hit by the average range query (of length
//! `query_len`, 0.5 on a normalized domain). The paper's worked example
//! (Fig. 5b: 21/45 ≈ 0.466 before inserting c5, 31/58 ≈ 0.534 after)
//! computes `P = L` — i.e. the additive query term is dropped at raw
//! value scale — so the default [`SubfieldConfig`] uses `query_len = 0`
//! and both knobs are exposed for the ablation bench.
//!
//! The same loop groups the cells of a `K`-component vector field, whose
//! value summary is a box ([`ValueSummary`] for `Aabb<K>`): its size is
//! `Π_d (extent_d + base)`, which for `K = 1` is the interval size.
//!
//! [`build_subfields`] is the paper's rule over the whole file and
//! ignores page boundaries, so a subfield may span two or more data
//! pages and a query that retrieves it reads every one of them, even a
//! page none of whose cells meets the band. Every I-Hilbert build and
//! repack (2-D, 3-D and vector) groups with [`build_subfields_by_page`]
//! instead: the same rule run on each data page's records on its own, so
//! no subfield spans a page boundary and a retrieved subfield costs
//! exactly one page read. The cell file is therefore written before the
//! grouping (DESIGN §17.10).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use cf_geom::{Aabb, Interval};
use cf_storage::{CellFile, CfError, CfResult, Record};

/// Tuning knobs of the subfield cost function.
#[derive(Debug, Clone, Copy)]
pub struct SubfieldConfig {
    /// Additive constant of the interval-size definition (`+1` in the
    /// paper). Scale-dependent: keep `1.0` for raw integer-like value
    /// domains, or pass the value resolution for normalized domains.
    pub base: f64,
    /// Additive query-length term of the access-probability model
    /// (`+0.5` in the Kamel–Faloutsos model on a normalized domain; `0`
    /// reproduces the paper's worked example).
    pub query_len: f64,
}

impl Default for SubfieldConfig {
    fn default() -> Self {
        Self {
            base: 1.0,
            query_len: 0.0,
        }
    }
}

/// What the greedy grouping unions and sizes: the value interval of a
/// scalar cell, or the value box of a vector cell (the bound of
/// [`build_subfields`]).
pub trait ValueSummary: Copy {
    /// The smallest summary holding both operands.
    fn union(self, other: Self) -> Self;
    /// The paper's interval size `max − min + base`, per component and
    /// multiplied over components.
    fn size_with_base(self, base: f64) -> f64;
}

impl ValueSummary for Interval {
    fn union(self, other: Self) -> Self {
        Interval::union(self, other)
    }

    fn size_with_base(self, base: f64) -> f64 {
        Interval::size_with_base(self, base)
    }
}

impl<const K: usize> ValueSummary for Aabb<K> {
    fn union(self, other: Self) -> Self {
        Aabb::union(&self, &other)
    }

    fn size_with_base(self, base: f64) -> f64 {
        (0..K).map(|d| self.extent(d) + base).product()
    }
}

/// A subfield: a contiguous run `[start, end)` of the linearized cell
/// file, summarized by the interval of every value inside it (the value
/// box, for a vector field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Subfield<V = Interval> {
    /// First cell (inclusive) in linearized order.
    pub start: u32,
    /// One past the last cell.
    pub end: u32,
    /// Union of the cells' value summaries.
    pub interval: V,
}

impl<V> Subfield<V> {
    /// Number of cells in the subfield.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the subfield holds no cells (never produced by
    /// [`build_subfields`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Packs the record range into a `u64` R\*-tree payload.
    ///
    /// # Panics
    ///
    /// Panics on an empty (or inverted) subfield: an empty range packs
    /// to the same payload as a legitimate range starting at `end`, so
    /// it could alias another tree entry and break remove-by-payload
    /// during incremental maintenance.
    pub fn pack(&self) -> u64 {
        assert!(
            self.start < self.end,
            "cannot pack empty subfield [{}, {})",
            self.start,
            self.end
        );
        (u64::from(self.start) << 32) | u64::from(self.end)
    }

    /// Inverse of [`Subfield::pack`] for a payload read back from a tree
    /// page over a cell file of `cells` records (interval comes from
    /// the tree key).
    ///
    /// # Errors
    ///
    /// Returns [`CfError::Corrupt`] if the payload decodes to an empty
    /// or inverted range — [`Subfield::pack`] never produces one — or
    /// to one running past the cell file: the tree page it came from
    /// is corrupt.
    pub fn try_unpack(data: u64, interval: V, cells: usize) -> CfResult<Self> {
        let (start, end) = ((data >> 32) as u32, data as u32);
        if start >= end {
            return Err(CfError::corrupt(
                None,
                format!("corrupt subfield payload {data:#x}: empty range [{start}, {end})"),
            ));
        }
        if end as usize > cells {
            return Err(CfError::corrupt(
                None,
                format!(
                    "corrupt subfield payload {data:#x}: [{start}, {end}) runs past the \
                     {cells}-record cell file"
                ),
            ));
        }
        Ok(Self {
            start,
            end,
            interval,
        })
    }

    /// [`Subfield::try_unpack`] for a payload the caller packed itself.
    ///
    /// # Panics
    ///
    /// Panics if the payload decodes to an empty or inverted range.
    /// Payloads read from disk go through [`Subfield::try_unpack`].
    #[allow(clippy::expect_used, reason = "the documented panic")]
    pub fn unpack(data: u64, interval: V) -> Self {
        Self::try_unpack(data, interval, u32::MAX as usize)
            .expect("payload was produced by Subfield::pack")
    }
}

impl Subfield {
    /// Checks a subfield catalog read back from disk against the cell
    /// file it describes: subfields non-empty, in order, covering
    /// `0..cells` without gaps or overlaps, each with an ordered,
    /// NaN-free interval (what `Interval::new` accepts — infinite bounds
    /// are legitimate for a field with infinite samples).
    ///
    /// # Errors
    ///
    /// Returns [`CfError::Corrupt`] naming the first offending entry.
    pub fn validate_catalog(subfields: &[Subfield], cells: usize) -> CfResult<()> {
        let mut next = 0usize;
        for (i, sf) in subfields.iter().enumerate() {
            let iv = sf.interval;
            if sf.start as usize != next || sf.start >= sf.end {
                return Err(CfError::corrupt(
                    None,
                    format!(
                        "subfield {i} covers [{}, {}) where a non-empty range starting at {next} \
                         was expected",
                        sf.start, sf.end
                    ),
                ));
            }
            // `!(lo <= hi)` rather than `lo > hi`: also true for a NaN bound.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(iv.lo <= iv.hi) {
                return Err(CfError::corrupt(
                    None,
                    format!("subfield {i} has invalid interval [{}, {}]", iv.lo, iv.hi),
                ));
            }
            next = sf.end as usize;
        }
        if next != cells {
            return Err(CfError::corrupt(
                None,
                format!("subfield catalog covers {next} cells, the cell file holds {cells}"),
            ));
        }
        Ok(())
    }
}

impl cf_storage::Record for Subfield {
    const SIZE: usize = 24;

    fn encode(&self, buf: &mut [u8]) {
        cf_storage::codec::put_u32(buf, 0, self.start);
        cf_storage::codec::put_u32(buf, 4, self.end);
        cf_storage::codec::put_f64(buf, 8, self.interval.lo);
        cf_storage::codec::put_f64(buf, 16, self.interval.hi);
    }

    fn decode(buf: &[u8]) -> Self {
        Self {
            start: cf_storage::codec::get_u32(buf, 0),
            end: cf_storage::codec::get_u32(buf, 4),
            // Built field by field: `Interval::new` asserts `lo <= hi`,
            // and these are on-disk bytes. A reopened catalog is checked
            // by [`Subfield::validate_catalog`].
            interval: Interval {
                lo: cf_storage::codec::get_f64(buf, 8),
                hi: cf_storage::codec::get_f64(buf, 16),
            },
        }
    }

    fn columns() -> Vec<cf_storage::compress::ColSpec> {
        use cf_storage::compress::{ColKind, ColSpec};
        // `start`/`end` of consecutive subfields are sorted (each equals
        // its predecessor's `end`), so the zigzag deltas are tiny; the
        // interval bounds drift slowly along the Hilbert order, which the
        // xor codec trims well.
        vec![
            ColSpec {
                offset: 0,
                kind: ColKind::Delta4,
            },
            ColSpec {
                offset: 4,
                kind: ColKind::Delta4,
            },
            ColSpec {
                offset: 8,
                kind: ColKind::Xor8,
            },
            ColSpec {
                offset: 16,
                kind: ColKind::Xor8,
            },
        ]
    }
}

/// Groups linearized cell intervals (or vector value boxes) into
/// subfields.
///
/// `intervals[i]` is the value summary of the `i`-th cell in the chosen
/// linear order. Returns subfields covering `0..intervals.len()` without
/// gaps or overlaps.
///
/// # Panics
///
/// Panics if more than `u32::MAX` cells are supplied.
pub fn build_subfields<V: ValueSummary>(
    intervals: &[V],
    config: SubfieldConfig,
) -> Vec<Subfield<V>> {
    assert!(
        intervals.len() <= u32::MAX as usize,
        "cell file too large for u32 subfield pointers"
    );
    let mut out = Vec::new();
    let Some(&first) = intervals.first() else {
        return out;
    };

    let size = |iv: V| iv.size_with_base(config.base);

    let mut start = 0u32;
    let mut union = first;
    let mut si = size(first);
    for (i, &iv) in intervals.iter().enumerate().skip(1) {
        let cost_before = (size(union) + config.query_len) / si;
        let new_union = union.union(iv);
        let new_si = si + size(iv);
        let cost_after = (size(new_union) + config.query_len) / new_si;
        if cost_before > cost_after {
            // Insertion decreases the cost: absorb the cell.
            union = new_union;
            si = new_si;
        } else {
            // Close the current subfield, start a new one at this cell.
            out.push(Subfield {
                start,
                end: i as u32,
                interval: union,
            });
            start = i as u32;
            union = iv;
            si = size(iv);
        }
    }
    out.push(Subfield {
        start,
        end: intervals.len() as u32,
        interval: union,
    });
    out
}

/// The product grouping: [`build_subfields`] run on each data page's
/// slice of `intervals` on its own, with the results offset to file
/// positions, so no subfield spans a page boundary of `file`.
///
/// `intervals[i]` is the value summary of record `i` of `file`, the
/// cell file just written in the linear order; the page spans come from
/// [`CellFile::page_span`], so the cut follows the file's codec.
///
/// # Panics
///
/// Panics if `intervals` and `file` hold different numbers of cells, or
/// more than `u32::MAX`.
pub fn build_subfields_by_page<V: ValueSummary, R: Record>(
    intervals: &[V],
    file: &CellFile<R>,
    config: SubfieldConfig,
) -> Vec<Subfield<V>> {
    assert_eq!(
        intervals.len(),
        file.len(),
        "one value summary per record of the cell file"
    );
    assert!(
        intervals.len() <= u32::MAX as usize,
        "cell file too large for u32 subfield pointers"
    );
    let mut out = Vec::new();
    for page in 0..file.data_pages() {
        let span = file.page_span(page);
        let offset = span.start as u32;
        out.extend(
            build_subfields(&intervals[span], config)
                .into_iter()
                .map(|sf| Subfield {
                    start: sf.start + offset,
                    end: sf.end + offset,
                    interval: sf.interval,
                }),
        );
    }
    out
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;

    /// Cell intervals reconstructing the paper's Fig. 5b worked example:
    /// sizes 11, 10, 11, 13 with union size 21, then c5 of size 13
    /// pushing the union to 31.
    fn paper_example_cells() -> Vec<Interval> {
        vec![
            Interval::new(20.0, 30.0), // size 11
            Interval::new(25.0, 34.0), // size 10
            Interval::new(30.0, 40.0), // size 11
            Interval::new(28.0, 40.0), // size 13
            Interval::new(38.0, 50.0), // size 13, would widen union to 31
        ]
    }

    #[test]
    fn reproduces_fig5b_cost_numbers() {
        // Paper: cost of Subfield 1 before inserting c5 was
        // 21/(11+10+11+13) ≈ 0.466; after, 31/58 ≈ 0.534 — so c5 starts
        // Subfield 2.
        let cfg = SubfieldConfig::default();
        let cells = paper_example_cells();
        let union4 = cells[..4].iter().fold(cells[0], |a, b| a.union(*b));
        let si4: f64 = cells[..4].iter().map(|iv| iv.size_with_base(1.0)).sum();
        let ca = union4.size_with_base(1.0) / si4;
        assert!((ca - 21.0 / 45.0).abs() < 1e-12);
        let union5 = union4.union(cells[4]);
        let cb = union5.size_with_base(1.0) / (si4 + cells[4].size_with_base(1.0));
        assert!((cb - 31.0 / 58.0).abs() < 1e-12);

        let subfields = build_subfields(&cells, cfg);
        assert_eq!(subfields.len(), 2);
        assert_eq!(subfields[0].start, 0);
        assert_eq!(subfields[0].end, 4);
        assert_eq!(subfields[0].interval, Interval::new(20.0, 40.0));
        assert_eq!(subfields[1].start, 4);
        assert_eq!(subfields[1].end, 5);
        assert_eq!(subfields[1].interval, Interval::new(38.0, 50.0));
    }

    #[test]
    fn subfields_partition_the_cell_range() {
        let cells: Vec<Interval> = (0..100)
            .map(|i| {
                let base = (i / 10) as f64 * 50.0;
                Interval::new(base, base + (i % 10) as f64)
            })
            .collect();
        let sfs = build_subfields(&cells, SubfieldConfig::default());
        assert_eq!(sfs[0].start, 0);
        assert_eq!(sfs.last().expect("non-empty").end as usize, cells.len());
        for w in sfs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap or overlap");
        }
        // Each subfield interval is the union of its cells.
        for sf in &sfs {
            let union = cells[sf.start as usize..sf.end as usize]
                .iter()
                .fold(cells[sf.start as usize], |a, b| a.union(*b));
            assert_eq!(sf.interval, union);
        }
    }

    #[test]
    fn identical_cells_form_one_subfield() {
        // Cost strictly decreases when absorbing an identical interval,
        // so a constant run collapses to a single subfield.
        let cells = vec![Interval::new(5.0, 10.0); 50];
        let sfs = build_subfields(&cells, SubfieldConfig::default());
        assert_eq!(sfs.len(), 1);
        assert_eq!(sfs[0].len(), 50);
    }

    #[test]
    fn wildly_different_cells_split() {
        let cells = vec![
            Interval::new(0.0, 1.0),
            Interval::new(1000.0, 1001.0),
            Interval::new(-500.0, -499.0),
        ];
        let sfs = build_subfields(&cells, SubfieldConfig::default());
        assert_eq!(sfs.len(), 3);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(build_subfields::<Interval>(&[], SubfieldConfig::default()).is_empty());
        let one = build_subfields(&[Interval::new(1.0, 2.0)], SubfieldConfig::default());
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len(), 1);
    }

    #[test]
    fn one_component_boxes_group_like_intervals() {
        // `Π_d (extent_d + base)` over one component is the interval
        // size, so the vector rule and the scalar rule cut alike.
        let cells: Vec<Interval> = (0..300)
            .map(|i| {
                let v = (i as f64 * 0.21).sin() * 40.0 + (i / 50) as f64 * 7.0;
                Interval::new(v, v + (i % 7) as f64)
            })
            .collect();
        let boxes: Vec<Aabb<1>> = cells.iter().map(|&iv| iv.into()).collect();
        for base in [1.0, 0.25] {
            let config = SubfieldConfig {
                base,
                query_len: 0.0,
            };
            let scalar: Vec<(u32, u32, Aabb<1>)> = build_subfields(&cells, config)
                .iter()
                .map(|sf| (sf.start, sf.end, sf.interval.into()))
                .collect();
            let vector = build_subfields(&boxes, config);
            assert!(scalar.len() > 1);
            assert_eq!(
                scalar,
                vector
                    .iter()
                    .map(|sf| (sf.start, sf.end, sf.interval))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn query_len_merges_more_aggressively() {
        // A large query term flattens relative differences in P, so more
        // cells merge (the denominator keeps growing).
        let cells: Vec<Interval> = (0..200)
            .map(|i| {
                let v = (i as f64 * 0.37).sin() * 50.0;
                Interval::new(v, v + 5.0)
            })
            .collect();
        let tight = build_subfields(
            &cells,
            SubfieldConfig {
                base: 1.0,
                query_len: 0.0,
            },
        );
        let loose = build_subfields(
            &cells,
            SubfieldConfig {
                base: 1.0,
                query_len: 100.0,
            },
        );
        assert!(
            loose.len() <= tight.len(),
            "query_len=100 gave {} subfields vs {}",
            loose.len(),
            tight.len()
        );
    }

    #[test]
    fn by_page_runs_the_rule_on_each_page_and_never_crosses_one() {
        use cf_storage::{KvRecord, PageCodec, StorageConfig, StorageEngine};
        // A constant run longer than a page, which the uncut rule keeps
        // as one subfield, between two wavy stretches.
        let intervals: Vec<Interval> = (0..2_000)
            .map(|i| {
                if (600..1_400).contains(&i) {
                    Interval::new(5.0, 10.0)
                } else {
                    let v = (i as f64 * 0.37).sin() * 50.0;
                    Interval::new(v, v + 5.0)
                }
            })
            .collect();
        let uncut = build_subfields(&intervals, SubfieldConfig::default());
        for codec in [PageCodec::Raw, PageCodec::Compressed] {
            let engine = StorageEngine::new(StorageConfig {
                codec,
                ..StorageConfig::default()
            });
            // Scattered keys keep the compressed pages from holding
            // the whole file.
            let records = (0..intervals.len()).map(|i| KvRecord {
                key: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                value: intervals[i].lo,
            });
            let file = CellFile::create(&engine, records).expect("create");
            assert!(file.data_pages() > 4, "{codec:?}");
            let paged = build_subfields_by_page(&intervals, &file, SubfieldConfig::default());
            // Page by page, the paper's rule on that page's slice alone.
            let mut want = Vec::new();
            for page in 0..file.data_pages() {
                let span = file.page_span(page);
                let on_page: Vec<(u32, u32, Interval)> = paged
                    .iter()
                    .filter(|sf| span.contains(&(sf.start as usize)))
                    .map(|sf| (sf.start, sf.end, sf.interval))
                    .collect();
                let alone: Vec<(u32, u32, Interval)> =
                    build_subfields(&intervals[span.clone()], SubfieldConfig::default())
                        .iter()
                        .map(|sf| {
                            let at = span.start as u32;
                            (sf.start + at, sf.end + at, sf.interval)
                        })
                        .collect();
                assert_eq!(on_page, alone, "{codec:?} page {page}");
                assert!(on_page.iter().all(|&(_, end, _)| end as usize <= span.end));
                want.extend(alone);
            }
            assert_eq!(want.len(), paged.len(), "{codec:?}");
            // The plateau is cut at every page boundary it crosses.
            assert!(paged.len() > uncut.len(), "{codec:?}");
        }
        // A file of one page groups exactly as the uncut rule.
        let engine = StorageEngine::in_memory();
        let small = &intervals[..40];
        let records = (0..small.len()).map(|i| KvRecord {
            key: i as u64,
            value: 0.0,
        });
        let file = CellFile::create(&engine, records).expect("create");
        assert_eq!(file.data_pages(), 1);
        assert_eq!(
            build_subfields_by_page(small, &file, SubfieldConfig::default()),
            build_subfields(small, SubfieldConfig::default())
        );
    }

    #[test]
    fn pack_unpack_round_trip() {
        let sf = Subfield {
            start: 123_456,
            end: 789_012,
            interval: Interval::new(-1.0, 2.0),
        };
        let packed = sf.pack();
        assert_eq!(Subfield::unpack(packed, sf.interval), sf);
    }

    #[test]
    fn pack_survives_u32_boundary_positions() {
        // The last representable cell range must round-trip without the
        // `end` truncating into the `start` half of the payload.
        let sf = Subfield {
            start: u32::MAX - 1,
            end: u32::MAX,
            interval: Interval::point(0.0),
        };
        assert_eq!(Subfield::unpack(sf.pack(), sf.interval), sf);
    }

    #[test]
    #[should_panic(expected = "empty subfield")]
    fn pack_rejects_empty_range() {
        Subfield {
            start: 7,
            end: 7,
            interval: Interval::point(0.0),
        }
        .pack();
    }

    #[test]
    #[should_panic(expected = "corrupt subfield payload")]
    fn unpack_rejects_inverted_range() {
        // start = 8, end = 3: pack() could never have produced this.
        Subfield::unpack((8u64 << 32) | 3, Interval::point(0.0));
    }

    #[test]
    fn try_unpack_reports_empty_inverted_and_out_of_file_ranges_as_corrupt() {
        for (start, end) in [(8u64, 3u64), (7, 7), (0, 0)] {
            let err = Subfield::try_unpack((start << 32) | end, Interval::point(0.0), 100)
                .expect_err("empty or inverted payload");
            assert!(err.is_corrupt(), "[{start}, {end}): {err}");
        }
        let err = Subfield::try_unpack((90 << 32) | 101, Interval::point(0.0), 100)
            .expect_err("range past the cell file");
        assert!(err.is_corrupt(), "{err}");
        Subfield::try_unpack((90 << 32) | 100, Interval::point(0.0), 100).expect("in bounds");
    }

    #[test]
    fn decode_never_asserts_and_validate_catalog_rejects_bad_entries() {
        use cf_storage::Record;
        let sf = |start, end, lo, hi| Subfield {
            start,
            end,
            interval: Interval { lo, hi },
        };
        // An inverted interval survives the byte round trip unchanged…
        let mut buf = [0u8; Subfield::SIZE];
        sf(0, 4, 9.0, 1.0).encode(&mut buf);
        assert_eq!(Subfield::decode(&buf), sf(0, 4, 9.0, 1.0));
        // …and is caught, like every other malformed catalog, here.
        let good = [sf(0, 4, 0.0, 1.0), sf(4, 9, 0.5, 2.0)];
        Subfield::validate_catalog(&good, 9).expect("well-formed");
        Subfield::validate_catalog(&[], 0).expect("empty catalog of an empty file");
        for (bad, cells) in [
            (vec![sf(0, 4, 9.0, 1.0)], 4),
            (vec![sf(0, 4, f64::NAN, 1.0)], 4),
            (vec![sf(0, 4, 0.0, f64::NAN)], 4),
            (vec![sf(0, 4, 0.0, 1.0), sf(5, 9, 0.0, 1.0)], 9),
            (vec![sf(0, 4, 0.0, 1.0), sf(3, 9, 0.0, 1.0)], 9),
            (vec![sf(1, 4, 0.0, 1.0)], 4),
            (vec![sf(0, 0, 0.0, 1.0)], 0),
            (vec![sf(4, 2, 0.0, 1.0)], 2),
            (good.to_vec(), 8),
            (good.to_vec(), 10),
            (vec![], 3),
        ] {
            let err = Subfield::validate_catalog(&bad, cells).expect_err("malformed catalog");
            assert!(err.is_corrupt(), "{bad:?} / {cells}: {err}");
        }
    }
}
