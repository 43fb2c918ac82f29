//! Everything the library is fed, made from the workload definition and
//! `--seed` alone.
//!
//! The fields are fixed datasets (generator seed [`FIELD_SEED`]): a
//! re-generated fractal moves Q2 latency by ±30 % on its own, far beyond
//! any regression bound. `--seed` drives the query bands and the update
//! plan.

use contfield::field::{FieldModel, GridCellRecord, GridField, TinCellRecord, TinField};
use contfield::geom::Interval;
use contfield::workload::queries::interval_queries;

/// Generator seed of every benchmark field.
pub const FIELD_SEED: u64 = 0xEDB7;

/// SplitMix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A field model whose stored samples the update plan can move.
pub trait BenchField: FieldModel + Sync {
    /// `rec` with one of its samples shifted by `delta`.
    fn shifted(rec: Self::CellRec, sample: usize, delta: f64) -> Self::CellRec;
}

impl BenchField for GridField {
    fn shifted(mut rec: GridCellRecord, sample: usize, delta: f64) -> GridCellRecord {
        rec.vals[sample % 4] += delta;
        rec
    }
}

impl BenchField for TinField {
    fn shifted(mut rec: TinCellRecord, sample: usize, delta: f64) -> TinCellRecord {
        rec.values[sample % 3] += delta;
        rec
    }
}

/// Query bands: for each `(Qinterval, count)` of `mix`, `count` bands
/// from [`interval_queries`], one per equal slice of the admissible
/// positions, so every seed covers the value domain evenly and only the
/// position inside each slice is random (plain uniform draws move the
/// median latency by ±15 % from seed to seed). The list is then
/// shuffled so position never correlates with replay order.
pub fn bands(domain: Interval, mix: &[(f64, usize)], seed: u64) -> Vec<Interval> {
    let mut state = seed;
    let mut out = Vec::new();
    for &(qinterval, count) in mix {
        let width = qinterval * domain.width();
        let slice = (domain.width() - width) / count as f64;
        for i in 0..count {
            let lo = domain.lo + slice * i as f64;
            let stratum = Interval::new(lo, lo + slice + width);
            let relative = width / stratum.width();
            out.extend(interval_queries(
                stratum,
                relative,
                1,
                splitmix64(&mut state),
            ));
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    out
}

/// The update plan: `len` writes, each a cell and that cell's original
/// record with one sample moved by up to ±2 % of the value domain. The
/// cells are one per equal slice of the Hilbert-ordered cell file
/// (`order` is `cell_order(field, Curve::Hilbert)`), at a seeded
/// position inside the slice, so every seed spreads its writes over
/// small and large subfields alike (uniform draws moved the 95th
/// percentile of write latency by ±20 % on the TIN, whose subfield sizes
/// are heavy-tailed); the plan is then shuffled.
pub fn update_plan<F: BenchField>(
    field: &F,
    order: &[usize],
    domain: Interval,
    len: usize,
    seed: u64,
) -> Vec<(usize, F::CellRec)> {
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    let mut unit = || (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
    let mut plan: Vec<(usize, F::CellRec)> = (0..len)
        .map(|i| {
            let pos = ((i as f64 + unit()) * order.len() as f64 / len as f64) as usize;
            let cell = order[pos.min(order.len() - 1)];
            let sample = (unit() * 12.0) as usize;
            let delta = (unit() - 0.5) * 0.04 * domain.width();
            (cell, F::shifted(field.cell_record(cell), sample, delta))
        })
        .collect();
    for i in (1..plan.len()).rev() {
        plan.swap(i, (unit() * (i + 1) as f64) as usize);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use contfield::index::cell_order;
    use contfield::sfc::Curve;
    use contfield::workload::fractal::diamond_square;

    #[test]
    fn same_seed_same_bands_and_plan() {
        let field = diamond_square(4, 0.6, FIELD_SEED);
        let domain = field.value_domain();
        let mix = [(0.0, 10), (0.01, 10), (0.05, 10)];
        assert_eq!(bands(domain, &mix, 7), bands(domain, &mix, 7));
        assert_ne!(bands(domain, &mix, 7), bands(domain, &mix, 8));
        let order = cell_order(&field, Curve::Hilbert);
        let plan = |seed| update_plan(&field, &order, domain, 64, seed);
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
        // 64 writes over 256 cells: one in every four file positions.
        let mut hit: Vec<usize> = plan(7)
            .iter()
            .map(|(cell, _)| order.iter().position(|c| c == cell).expect("a cell"))
            .collect();
        hit.sort_unstable();
        assert!(hit.iter().enumerate().all(|(i, &pos)| pos / 4 == i));
    }

    #[test]
    fn bands_cover_the_domain_evenly_with_the_asked_widths() {
        let domain = Interval::new(100.0, 300.0);
        let got = bands(domain, &[(0.0, 8), (0.05, 8)], 3);
        assert_eq!(got.len(), 16);
        let mut wide: Vec<Interval> = got.iter().copied().filter(|b| b.width() > 0.0).collect();
        assert_eq!(wide.len(), 8);
        wide.sort_by(|a, b| a.lo.total_cmp(&b.lo));
        let slice = (200.0 - 10.0) / 8.0;
        for (i, b) in wide.iter().enumerate() {
            assert!((b.width() - 10.0).abs() < 1e-9);
            let lo = 100.0 + slice * i as f64;
            assert!(
                b.lo >= lo - 1e-9 && b.lo <= lo + slice + 1e-9,
                "{b:?} in slice {i}"
            );
            assert!(b.hi <= 300.0 + 1e-9);
        }
    }
}
