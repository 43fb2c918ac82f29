//! Selectivity estimation and adaptive query planning.
//!
//! The paper's evaluation shows the core trade-off: index probes win on
//! selective queries, while for wide bands ("the small H leads to the
//! high query selectivity") even I-All can fall behind a plain scan.
//! A database system resolves this with an optimizer: estimate the
//! query's selectivity from a value-distribution statistic and pick the
//! cheaper plan. This module provides
//!
//! * [`SelectivityEstimator`] — an equi-width histogram over cell value
//!   intervals (the classic 1-D "stabbing count" statistic): O(buckets)
//!   memory, O(1) per estimate;
//! * [`AdaptiveIndex`] — wraps [`IHilbert`] and routes each query to an
//!   index probe or a full scan *of the same Hilbert-ordered cell file*
//!   based on estimated cost, so no second copy of the data is needed.

use crate::ihilbert::IHilbert;
use crate::stats::{QueryStats, RegionSink, ValueIndex};
use cf_field::FieldModel;
use cf_geom::Interval;
use cf_storage::{CfResult, Counter, MetricsRegistry, StorageEngine};
use std::sync::OnceLock;

/// Equi-width histogram estimator for interval-intersection queries.
///
/// For a query band `[a, b]`, the number of cell intervals intersecting
/// it is `n − (intervals entirely below a) − (intervals entirely above
/// b)`; both terms come from cumulative bucket counts of interval
/// endpoints.
#[derive(Debug, Clone)]
pub(crate) struct SelectivityEstimator {
    domain: Interval,
    /// `below[k]` = number of intervals with `hi` strictly inside the
    /// first `k` buckets (entirely below bucket boundary `k`).
    below: Vec<usize>,
    /// `above[k]` = number of intervals with `lo` strictly above bucket
    /// boundary `k`.
    above: Vec<usize>,
    n: usize,
}

impl SelectivityEstimator {
    /// Builds the histogram from cell intervals with `buckets` bins.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    fn build(intervals: impl Iterator<Item = Interval>, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let items: Vec<Interval> = intervals.collect();
        let n = items.len();
        let domain = items
            .iter()
            .copied()
            .reduce(|a, b| a.union(b))
            .unwrap_or(Interval::point(0.0));

        // Bucket boundary k is at domain value `denormalize(k / buckets)`,
        // k in 0..=buckets.
        let mut hi_in_bucket = vec![0usize; buckets + 1];
        let mut lo_in_bucket = vec![0usize; buckets + 1];
        let bucket_of = |v: f64| -> usize {
            ((domain.normalize(v) * buckets as f64) as usize).min(buckets - 1)
        };
        for iv in &items {
            hi_in_bucket[bucket_of(iv.hi)] += 1;
            lo_in_bucket[bucket_of(iv.lo)] += 1;
        }
        // below[k] = intervals whose hi falls in buckets 0..k-1 — they
        // end before boundary k (conservatively: an interval whose hi is
        // inside bucket k-1 may still cross boundary k-1.. we count it
        // below boundary k, which is exact at bucket granularity).
        let mut below = vec![0usize; buckets + 2];
        let mut above = vec![0usize; buckets + 2];
        for k in 1..=buckets + 1 {
            below[k] = below[k - 1] + hi_in_bucket.get(k - 1).copied().unwrap_or(0);
        }
        for k in (0..=buckets).rev() {
            above[k] = above[k + 1] + lo_in_bucket.get(k).copied().unwrap_or(0);
        }
        Self {
            domain,
            below,
            above,
            n,
        }
    }

    /// Number of buckets.
    fn buckets(&self) -> usize {
        self.below.len() - 2
    }

    /// Estimated number of cell intervals intersecting `band`.
    ///
    /// The estimate is exact up to bucket granularity and errs on the
    /// *high* side (never underestimates by more than two buckets' worth
    /// of endpoints).
    fn estimate_candidates(&self, band: Interval) -> usize {
        if self.n == 0 || band.hi < self.domain.lo || band.lo > self.domain.hi {
            return 0;
        }
        let buckets = self.buckets();
        // Conservative: round the band outward to bucket boundaries.
        let lo_bucket =
            ((self.domain.normalize(band.lo) * buckets as f64).floor() as usize).min(buckets);
        let hi_bucket =
            ((self.domain.normalize(band.hi) * buckets as f64).ceil() as usize).min(buckets);
        let entirely_below = self.below[lo_bucket];
        let entirely_above = self.above[hi_bucket];
        self.n.saturating_sub(entirely_below + entirely_above)
    }

    /// Estimated selectivity in `[0, 1]`.
    fn estimate_selectivity(&self, band: Interval) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.estimate_candidates(band) as f64 / self.n as f64
        }
    }
}

/// The plan chosen for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Probe the subfield R\*-tree, then read retrieved runs.
    IndexProbe,
    /// Read the whole cell file sequentially (wide queries).
    FullScan,
}

/// The optimizer's routing rule and its `planner_plans_total{plan}`
/// counters — the one planner wiring, shared by [`AdaptiveIndex`] and
/// the ingest plane's [`crate::EpochSnapshot`]. Whichever plan it picks
/// runs through the wrapped index's own executor call, publishing
/// under that index's cached `index_*` handles.
pub(crate) struct Router {
    estimator: SelectivityEstimator,
    /// Selectivity at or above which a scan is chosen.
    scan_threshold: f64,
    /// `(index_probe, full_scan)` plan counters, wired at first query
    /// (the registry arrives with the engine).
    plans: OnceLock<(Counter, Counter)>,
}

impl Router {
    /// A router over `intervals` (64-bucket histogram).
    pub(crate) fn new(intervals: impl Iterator<Item = Interval>, scan_threshold: f64) -> Self {
        Self {
            estimator: SelectivityEstimator::build(intervals, 64),
            scan_threshold,
            plans: OnceLock::new(),
        }
    }

    /// The plan for `band`, without counting it.
    fn plan(&self, band: Interval) -> Plan {
        if self.estimator.estimate_selectivity(band) >= self.scan_threshold {
            Plan::FullScan
        } else {
            Plan::IndexProbe
        }
    }

    /// Chooses the plan for one query and counts the decision.
    pub(crate) fn route(&self, registry: &MetricsRegistry, band: Interval) -> Plan {
        let (probes, scans) = self.plans.get_or_init(|| {
            let wire = |plan| registry.counter_with("planner_plans_total", &[("plan", plan)]);
            (wire("index_probe"), wire("full_scan"))
        });
        let plan = self.plan(band);
        match plan {
            Plan::IndexProbe => probes.inc(),
            Plan::FullScan => scans.inc(),
        }
        plan
    }
}

/// [`IHilbert`] plus an optimizer that falls back to scanning the (same)
/// cell file when the estimated selectivity makes a probe pointless.
pub struct AdaptiveIndex<F: FieldModel> {
    index: IHilbert<F>,
    /// Retrieved subfields drag in co-located cells and re-read
    /// straddled pages, so the scan break-even sits well below 1.0.
    router: Router,
}

impl<F: FieldModel> AdaptiveIndex<F> {
    /// Builds the index and its statistics (64-bucket histogram).
    pub fn build(engine: &StorageEngine, field: &F) -> CfResult<Self>
    where
        F: Sync,
    {
        let index = IHilbert::build(engine, field)?;
        let router = Router::new((0..field.num_cells()).map(|c| field.cell_interval(c)), 0.35);
        Ok(Self { index, router })
    }

    /// The estimator the router consults.
    #[cfg(test)]
    fn estimator(&self) -> &SelectivityEstimator {
        &self.router.estimator
    }

    /// The plan the optimizer would choose for `band`.
    pub fn plan(&self, band: Interval) -> Plan {
        self.router.plan(band)
    }
}

impl<F: FieldModel> ValueIndex for AdaptiveIndex<F> {
    fn name(&self) -> String {
        "I-Hilbert/adaptive".into()
    }

    fn query(
        &self,
        engine: &StorageEngine,
        band: Interval,
        sink: Option<RegionSink<'_>>,
    ) -> CfResult<QueryStats> {
        let plan = self.router.route(engine.metrics(), band);
        self.index.inner.execute(engine, band, plan, None, sink)
    }

    fn index_pages(&self) -> usize {
        self.index.index_pages()
    }

    fn data_pages(&self) -> usize {
        self.index.data_pages()
    }

    fn num_intervals(&self) -> usize {
        self.index.num_intervals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use cf_field::GridField;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn est_domain_width(intervals: &[Interval]) -> f64 {
        intervals
            .iter()
            .copied()
            .reduce(|a, b| a.union(b))
            .expect("non-empty")
            .width()
    }

    fn random_field(n: usize, seed: u64) -> GridField {
        let mut rng = StdRng::seed_from_u64(seed);
        let vw = n + 1;
        let values: Vec<f64> = (0..vw * vw).map(|_| rng.gen_range(0.0..100.0)).collect();
        GridField::from_values(vw, vw, values)
    }

    /// An index whose scan crossover is pinned at `threshold`.
    fn pinned_at(
        engine: &StorageEngine,
        field: &GridField,
        threshold: f64,
    ) -> AdaptiveIndex<GridField> {
        let mut adaptive = AdaptiveIndex::build(engine, field).expect("build");
        adaptive.router.scan_threshold = threshold;
        adaptive
    }

    #[test]
    fn estimator_is_conservative_and_tight() {
        let field = random_field(24, 3);
        let intervals: Vec<Interval> = (0..cf_field::FieldModel::num_cells(&field))
            .map(|c| field.cell_interval(c))
            .collect();
        let est = SelectivityEstimator::build(intervals.iter().copied(), 64);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let lo: f64 = rng.gen_range(-10.0..110.0);
            let band = Interval::new(lo, lo + rng.gen_range(0.0..40.0));
            let truth = intervals.iter().filter(|iv| iv.intersects(band)).count();
            let guess = est.estimate_candidates(band);
            assert!(
                guess >= truth,
                "underestimate: {guess} < {truth} for {band}"
            );
            // The only error source is endpoint mass inside the two
            // boundary buckets; compute that slack exactly.
            let bw = est_domain_width(&intervals) / est.buckets() as f64;
            let slack = intervals
                .iter()
                .filter(|iv| iv.hi >= band.lo - bw && iv.hi <= band.lo + bw)
                .count()
                + intervals
                    .iter()
                    .filter(|iv| iv.lo >= band.hi - bw && iv.lo <= band.hi + bw)
                    .count();
            assert!(
                guess <= truth + slack + 2,
                "wild overestimate: {guess} vs {truth} (slack {slack}) for {band}"
            );
        }
    }

    #[test]
    fn estimator_edge_cases() {
        let est = SelectivityEstimator::build(std::iter::empty(), 8);
        assert_eq!(est.estimate_candidates(Interval::new(0.0, 1.0)), 0);

        let est = SelectivityEstimator::build(vec![Interval::new(0.0, 10.0)].into_iter(), 8);
        assert_eq!(est.estimate_candidates(Interval::new(2.0, 3.0)), 1);
        assert_eq!(est.estimate_candidates(Interval::new(100.0, 101.0)), 0);
        assert_eq!(est.estimate_candidates(Interval::new(-10.0, -5.0)), 0);
        assert!((est.estimate_selectivity(Interval::new(0.0, 10.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn planner_routes_by_selectivity() {
        let field = random_field(24, 7);
        let engine = StorageEngine::in_memory();
        let adaptive = AdaptiveIndex::build(&engine, &field).expect("build");
        let dom = cf_field::FieldModel::value_domain(&field);
        // Whole domain: must scan. Random-value cells have wide
        // intervals, so even a narrow band stabs many cells; an
        // off-domain band must probe.
        assert_eq!(adaptive.plan(dom), Plan::FullScan);
        assert_eq!(
            adaptive.plan(Interval::new(dom.hi + 1.0, dom.hi + 2.0)),
            Plan::IndexProbe
        );
    }

    #[test]
    fn both_plans_return_identical_answers() {
        let field = random_field(16, 11);
        let engine = StorageEngine::in_memory();
        let scan = LinearScan::build(&engine, &field).expect("build");
        let adaptive = AdaptiveIndex::build(&engine, &field).expect("build");
        let dom = cf_field::FieldModel::value_domain(&field);
        let mut rng = StdRng::seed_from_u64(13);
        let mut bands: Vec<Interval> = (0..40)
            .map(|_| {
                let t: f64 = rng.gen();
                Interval::new(
                    dom.denormalize(t * 0.9),
                    dom.denormalize((t * 0.9 + rng.gen::<f64>() * 0.5).min(1.0)),
                )
            })
            .collect();
        // Guarantee both plans are exercised: the full domain forces a
        // scan, a sliver at the very top forces a probe.
        bands.push(dom);
        bands.push(Interval::new(dom.hi - 1e-9, dom.hi));
        let mut saw_scan = false;
        let mut saw_probe = false;
        for band in bands {
            match adaptive.plan(band) {
                Plan::FullScan => saw_scan = true,
                Plan::IndexProbe => saw_probe = true,
            }
            let a = scan.query_stats(&engine, band).expect("query");
            let b = adaptive.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert!((a.area - b.area).abs() < 1e-9 * a.area.max(1.0));
        }
        assert!(saw_scan && saw_probe, "test should exercise both plans");
    }

    #[test]
    fn plan_selection_at_exact_crossover_is_deterministic() {
        // A band whose estimated selectivity equals the threshold
        // exactly must still pick a plan (the planner uses `>=`, so the
        // tie goes to FullScan) — no panic, no unstable flip-flop.
        let field = random_field(16, 19);
        let engine = StorageEngine::in_memory();
        let adaptive = AdaptiveIndex::build(&engine, &field).expect("build");
        let dom = cf_field::FieldModel::value_domain(&field);
        let mut rng = StdRng::seed_from_u64(29);
        let mut pinned = 0;
        for _ in 0..200 {
            let t: f64 = rng.gen();
            let band = Interval::new(
                dom.denormalize(t * 0.9),
                dom.denormalize((t * 0.9 + rng.gen::<f64>() * 0.4).min(1.0)),
            );
            let s = adaptive.estimator().estimate_selectivity(band);
            // Pin the threshold to this band's own selectivity: the band
            // now sits exactly on the crossover.
            let at_crossover = pinned_at(&engine, &field, s.clamp(0.0, 1.0));
            assert_eq!(
                at_crossover.plan(band),
                Plan::FullScan,
                "selectivity == threshold must choose the scan (>= rule), band {band}"
            );
            pinned += 1;
        }
        assert_eq!(pinned, 200);
    }

    #[test]
    fn answers_identical_on_either_side_of_crossover() {
        // Force each plan in turn for the same band: threshold just
        // above the band's selectivity routes to the probe, just below
        // (or equal) routes to the scan. Answers must match exactly.
        let field = random_field(16, 23);
        let engine = StorageEngine::in_memory();
        let base = AdaptiveIndex::build(&engine, &field).expect("build");
        let dom = cf_field::FieldModel::value_domain(&field);
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let t: f64 = rng.gen();
            let band = Interval::new(
                dom.denormalize(t * 0.8),
                dom.denormalize((t * 0.8 + 0.15).min(1.0)),
            );
            let s = base.estimator().estimate_selectivity(band);
            let as_probe = pinned_at(&engine, &field, (s + 1e-9).min(1.0));
            let as_scan = pinned_at(&engine, &field, s.clamp(0.0, 1.0));
            if s + 1e-9 <= 1.0 {
                assert_eq!(as_probe.plan(band), Plan::IndexProbe, "band {band}");
            }
            assert_eq!(as_scan.plan(band), Plan::FullScan, "band {band}");
            let a = as_probe.query_stats(&engine, band).expect("query");
            let b = as_scan.query_stats(&engine, band).expect("query");
            assert_eq!(a.cells_qualifying, b.cells_qualifying, "band {band}");
            assert_eq!(a.num_regions, b.num_regions, "band {band}");
            assert!(
                (a.area - b.area).abs() < 1e-9 * a.area.max(1.0),
                "band {band}: probe area {} vs scan area {}",
                a.area,
                b.area
            );
        }
    }

    #[test]
    fn adaptive_never_much_worse_than_best_single_plan() {
        // On a smooth field, for every band the adaptive I/O must be
        // within a constant factor of min(scan, probe).
        let vw = 33;
        let mut values = Vec::new();
        for y in 0..vw {
            for x in 0..vw {
                values.push(((x * x) as f64 * 0.1 + y as f64).sqrt());
            }
        }
        let field = GridField::from_values(vw, vw, values);
        let engine = StorageEngine::in_memory();
        let scan = LinearScan::build(&engine, &field).expect("build");
        let probe = IHilbert::build(&engine, &field).expect("build");
        let adaptive = AdaptiveIndex::build(&engine, &field).expect("build");
        let dom = cf_field::FieldModel::value_domain(&field);
        for t in [0.0, 0.2, 0.5, 0.8] {
            let band = Interval::new(dom.denormalize(t), dom.denormalize((t + 0.3).min(1.0)));
            engine.clear_cache();
            let s = scan
                .query_stats(&engine, band)
                .expect("query")
                .io
                .logical_reads();
            engine.clear_cache();
            let p = probe
                .query_stats(&engine, band)
                .expect("query")
                .io
                .logical_reads();
            engine.clear_cache();
            let a = adaptive
                .query_stats(&engine, band)
                .expect("query")
                .io
                .logical_reads();
            // The tiny 16-page test field makes fixed index overheads
            // loom large; the bound is correspondingly loose. The
            // figure-scale behaviour is covered by the benches.
            let best = s.min(p);
            assert!(
                a <= best * 4 + 8,
                "band {band}: adaptive {a} vs best {best} (scan {s}, probe {p})"
            );
        }
    }
}
