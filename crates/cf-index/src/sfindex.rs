//! The one index core: a cell file in a chosen linear order, subfields
//! as `[start, end)` record ranges, and a paged 1-D R\*-tree over the
//! subfield intervals whose leaf payloads are the packed ranges (paper
//! Fig. 6: leaf entries store `ptr_start, ptr_end`).
//!
//! The paper's indexes differ only in how they order and group cells:
//! I-Hilbert groups greedy runs along a curve, the Interval Quadtree
//! groups quadtree leaves, and I-All is the identity — native order, one
//! cell per subfield.

use crate::exec::{self, Delta, Filter, SubfieldOverrides, Q2};
use crate::planner::Plan;
use crate::stats::{QueryMetrics, QueryStats, RegionSink};
use crate::subfield::Subfield;
use cf_field::FieldModel;
use cf_geom::Interval;
use cf_rtree::PagedRTree;
use cf_storage::{CellFile, CfError, CfResult, Label, MetricsRegistry, PageCodec, StorageEngine};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Bucket bounds of the `index_health_cost_c` histogram. `C = P/SI` is
/// 1.0 for a single-cell subfield and falls toward 0 as a subfield
/// absorbs more cells of similar values, so the deciles of `(0, 1]`
/// resolve the whole distribution.
const COST_BUCKETS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// A cell file in subfield order plus the interval tree over subfields.
pub(crate) struct SubfieldIndex<F: FieldModel> {
    pub(crate) file: CellFile<F::CellRec>,
    pub(crate) tree: PagedRTree<1>,
    /// Subfield catalog (interval + record range), kept for incremental
    /// maintenance — the system-catalog analogue of Fig. 6's metadata.
    pub(crate) subfields: Vec<Subfield>,
    /// On-disk copy of the subfield catalog (for database reopen).
    pub(crate) sf_file: CellFile<Subfield>,
    /// File position → subfield index.
    pub(crate) pos_to_subfield: Vec<u32>,
    /// `index` label value of every metric this index publishes: the
    /// owning method's name (`"I-Hilbert"`, `"I-Quad"`, `"I-All"`).
    metric_label: String,
    /// Space-filling-curve name reported in EXPLAIN records (`"-"` for
    /// an index that orders cells by no curve).
    curve_label: Label,
    /// Cached registry handles, wired against the first engine queried.
    qmetrics: OnceLock<QueryMetrics>,
    _field: PhantomData<fn() -> F>,
}

impl<F: FieldModel> SubfieldIndex<F> {
    /// Writes cells in `order` and indexes `subfields` (expressed in
    /// positions of `order`). `index` and `curve` name the owning method
    /// and its curve in every metric and EXPLAIN record.
    pub(crate) fn build(
        engine: &StorageEngine,
        field: &F,
        order: &[usize],
        subfields: &[Subfield],
        index: &str,
        curve: &str,
    ) -> CfResult<Self> {
        debug_assert_eq!(order.len(), field.num_cells());
        let records: Vec<F::CellRec> = order.iter().map(|&c| field.cell_record(c)).collect();
        Self::build_from_records(engine, records, subfields, index, curve)
    }

    /// Builds an index over records already materialized by the caller
    /// (the live-ingest repacker, which reads the old base and applies
    /// its delta overlays before regrouping). The records must be in
    /// the intended file order; `subfields` is expressed in positions
    /// of that order. The subfield intervals enter the tree by
    /// one-by-one R\* insertion ([`PagedRTree::build`]), as in §3.2.
    ///
    /// # Panics
    ///
    /// Panics, before anything is written, if `records` holds more cells
    /// than a `u32` subfield pointer can address.
    pub(crate) fn build_from_records(
        engine: &StorageEngine,
        records: Vec<F::CellRec>,
        subfields: &[Subfield],
        index: &str,
        curve: &str,
    ) -> CfResult<Self> {
        assert!(
            records.len() <= u32::MAX as usize,
            "cell file too large for u32 subfield pointers ({} cells)",
            records.len()
        );
        let file = CellFile::create(engine, records)?;
        let tree = PagedRTree::build(
            engine,
            subfields.iter().map(|sf| (sf.interval.into(), sf.pack())),
        )?;
        let sf_file = CellFile::create(engine, subfields.iter().copied())?;
        let subfields = subfields.to_vec();
        Ok(Self::assemble(file, tree, subfields, sf_file, index, curve))
    }

    /// Reattaches to an index persisted in `engine` from its catalog
    /// handles, reading the subfield metadata back from its on-disk
    /// copy and checking it against the cell file
    /// ([`Subfield::validate_catalog`]) before anything indexes by it.
    pub(crate) fn open(
        engine: &StorageEngine,
        file: CellFile<F::CellRec>,
        tree: PagedRTree<1>,
        sf_file: CellFile<Subfield>,
        index: &str,
        curve: &str,
    ) -> CfResult<Self> {
        let subfields = sf_file.read_range(engine, 0..sf_file.len())?;
        Subfield::validate_catalog(&subfields, file.len())?;
        Ok(Self::assemble(file, tree, subfields, sf_file, index, curve))
    }

    fn assemble(
        file: CellFile<F::CellRec>,
        tree: PagedRTree<1>,
        subfields: Vec<Subfield>,
        sf_file: CellFile<Subfield>,
        index: &str,
        curve: &str,
    ) -> Self {
        let mut pos_to_subfield = vec![0u32; file.len()];
        for (i, sf) in subfields.iter().enumerate() {
            for pos in sf.start..sf.end {
                pos_to_subfield[pos as usize] = i as u32;
            }
        }
        Self {
            file,
            tree,
            subfields,
            sf_file,
            pos_to_subfield,
            metric_label: index.to_owned(),
            curve_label: Label::new(curve),
            qmetrics: OnceLock::new(),
            _field: PhantomData,
        }
    }

    fn query_metrics(&self, registry: &MetricsRegistry) -> &QueryMetrics {
        self.qmetrics
            .get_or_init(|| QueryMetrics::wire(registry, &self.metric_label))
    }

    /// Publishes the derived index-health gauges, labeled with this
    /// index's method name:
    ///
    /// * `index_health_subfields` — subfield count;
    /// * `index_health_mean_interval_len` — mean subfield interval size
    ///   `L` (with the paper's `+1` base, the numerator of `C = P/SI`);
    /// * `index_health_mean_cells_per_subfield` — clustering quality
    ///   proxy: the better the curve clusters similar values, the more
    ///   cells each subfield absorbs before the cost rule closes it.
    ///
    /// When the per-subfield cost distribution is known (`costs`, exact
    /// only at build time, when the per-cell intervals are in hand),
    /// also sets `index_health_mean_cost_c` and fills the
    /// `index_health_cost_c` histogram. Indexes reopened from a catalog
    /// publish the gauges but leave the cost distribution empty rather
    /// than re-reading the whole cell file.
    pub(crate) fn publish_health(&self, registry: &MetricsRegistry, costs: Option<&[f64]>) {
        let labels: &[(&str, &str)] = &[("index", &self.metric_label)];
        let n = self.subfields.len();
        registry
            .gauge_with("index_health_subfields", labels)
            .set(n as f64);
        if n > 0 {
            let mean_len = self
                .subfields
                .iter()
                .map(|sf| sf.interval.size_with_base(1.0))
                .sum::<f64>()
                / n as f64;
            registry
                .gauge_with("index_health_mean_interval_len", labels)
                .set(mean_len);
            registry
                .gauge_with("index_health_mean_cells_per_subfield", labels)
                .set(self.file.len() as f64 / n as f64);
        }
        // Storage-side geometry of the cell file, the denominator of the
        // paper's page-count metric: how many cells each data page holds
        // and how much smaller the file is than its fixed-slot layout.
        registry
            .gauge_with("storage_cells_per_page", labels)
            .set(self.file.records_per_page());
        let raw_pages = CellFile::<F::CellRec>::span_pages(PageCodec::Raw, self.file.len(), 0);
        registry
            .gauge_with("storage_compression_ratio", labels)
            .set(raw_pages as f64 / self.file.data_pages().max(1) as f64);
        if let Some(costs) = costs {
            // The mean is only meaningful over the full distribution
            // (build time); incremental updates contribute single costs
            // to the histogram without skewing the build-time mean.
            if costs.len() == n {
                registry
                    .gauge_with("index_health_mean_cost_c", labels)
                    .set(costs.iter().sum::<f64>() / n.max(1) as f64);
            }
            let hist = registry.histogram_with("index_health_cost_c", labels, &COST_BUCKETS);
            for &c in costs {
                hist.observe(c);
            }
        }
    }

    /// Rewrites the cell record at file position `pos` and incrementally
    /// maintains its subfield's interval in the paged R\*-tree.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::Corrupt`] when the tree holds no entry under
    /// the subfield's catalog interval — a catalog that validated but
    /// disagrees with its tree.
    pub(crate) fn update_record(
        &mut self,
        engine: &StorageEngine,
        pos: usize,
        record: &F::CellRec,
    ) -> CfResult<()> {
        self.file.put(engine, pos, record)?;
        let sf_idx = self.pos_to_subfield[pos] as usize;
        let sf = self.subfields[sf_idx];
        // Recompute the subfield interval from its (updated) records,
        // accumulating SI (the denominator of `C = P/SI`) in the same
        // scan so the health metrics get the subfield's fresh cost.
        let mut si = 0.0;
        let new_iv = self.subfield_union(engine, sf_idx, |_, rec| {
            let iv = F::record_interval(rec);
            si += iv.size_with_base(1.0);
            iv
        })?;
        if new_iv != sf.interval {
            if !self.tree.remove(engine, &sf.interval.into(), sf.pack())? {
                return Err(CfError::corrupt(
                    None,
                    format!("subfield {sf_idx}'s interval entry is missing from the tree"),
                ));
            }
            self.tree.insert(engine, new_iv.into(), sf.pack())?;
            self.subfields[sf_idx].interval = new_iv;
            self.sf_file.put(engine, sf_idx, &self.subfields[sf_idx])?;
            // Gauges derive from the subfield catalog, which just
            // changed; the touched subfield's new cost joins the
            // distribution (build-time costs stay, as a history).
            let cost = new_iv.size_with_base(1.0) / si;
            self.publish_health(engine.metrics(), Some(&[cost]));
        }
        Ok(())
    }

    /// The union of subfield `sf_idx`'s record intervals, folded in file
    /// position order — the one rule the in-place write path and the
    /// ingest delta's interval summary share, so the two agree to the
    /// bit. `interval_at(pos, rec)` is the interval that counts at
    /// `pos`: the stored record's, or a substitute's.
    pub(crate) fn subfield_union(
        &self,
        engine: &StorageEngine,
        sf_idx: usize,
        mut interval_at: impl FnMut(u32, &F::CellRec) -> Interval,
    ) -> CfResult<Interval> {
        let sf = self.subfields[sf_idx];
        let mut union: Option<Interval> = None;
        self.file
            .for_each_in_range(engine, sf.start as usize..sf.end as usize, |pos, rec| {
                let iv = interval_at(pos as u32, &rec);
                union = Some(union.map_or(iv, |u| u.union(iv)));
            })?;
        Ok(union.expect("subfields are non-empty"))
    }

    /// One Q2 query through the executor ([`exec::run`]): the two-step
    /// probe of §3.2 (filter subfields through the R\*-tree, then read
    /// the coalesced record runs) or, for [`Plan::FullScan`], a
    /// sequential pass over the same cell file. With a `delta`, the
    /// filter answer is corrected by the epoch's effective subfield
    /// intervals and its overlays are substituted per position.
    pub(crate) fn execute(
        &self,
        engine: &StorageEngine,
        band: Interval,
        plan: Plan,
        delta: Option<&Delta<'_, F::CellRec>>,
        sink: Option<RegionSink<'_>>,
    ) -> CfResult<QueryStats> {
        let filter = (plan == Plan::IndexProbe).then(|| Filter {
            tree: &self.tree,
            overrides: delta.map(|d| SubfieldOverrides {
                effective: d.sf_intervals,
                pos_to_subfield: &self.pos_to_subfield,
                subfields: &self.subfields,
            }),
        });
        let q = Q2 {
            curve: self.curve_label,
            epoch: delta.map_or(0, |d| d.epoch),
            metrics: self.query_metrics(engine.metrics()),
            filter,
            cells: &self.file,
            overlay: delta.map(|d| d.overlays).filter(|o| !o.is_empty()),
        };
        exec::run::<F>(engine, band, q, sink)
    }
}
