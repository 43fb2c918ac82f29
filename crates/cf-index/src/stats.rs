//! The common query interface and per-query statistics.

use cf_geom::{Interval, Point2, Polygon};
use cf_storage::{
    CfResult, Counter, ExplainRecord, Histogram, IoStats, Label, MetricsRegistry, StorageEngine,
    Tracer,
};

/// Everything a value query reports besides its answer regions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Cells read in the estimation step (the paper's *candidate cells*
    /// plus, for subfield methods, the non-qualifying cells co-located in
    /// retrieved subfields).
    pub cells_examined: usize,
    /// Cells whose value interval actually intersects the query band.
    pub cells_qualifying: usize,
    /// Answer regions produced by the estimation step.
    pub num_regions: usize,
    /// Total area of the answer regions.
    pub area: f64,
    /// Index nodes visited during the filtering step (0 for LinearScan).
    pub filter_nodes: u64,
    /// Intervals the filtering step retrieved (subfields for the
    /// subfield methods, individual cells for I-All, 0 for LinearScan).
    pub intervals_retrieved: usize,
    /// Logical page reads spent in the filtering step alone (index
    /// traversal); `io.logical_reads() - filter_pages` is the
    /// estimation-step cost.
    pub filter_pages: u64,
    /// I/O performed by the whole query (filter + estimate).
    pub io: IoStats,
}

/// The caller's answer-region sink: each region as its vertices in
/// boundary order, valid only for the call.
pub type RegionSink<'a> = &'a mut dyn FnMut(&[Point2]);

/// Registry handles for the per-query metrics an index publishes, cached
/// so the query hot path pays one atomic add per counter instead of a
/// name lookup. Wired lazily on an index's first query (the engine — and
/// with it the registry — is a query-time parameter).
#[derive(Debug)]
pub(crate) struct QueryMetrics {
    /// The index's method name — the `index` label of every series
    /// below and of the EXPLAIN records published through them.
    pub(crate) index: Label,
    queries: Counter,
    filter_pages: Counter,
    refine_pages: Counter,
    filter_nodes: Counter,
    intervals: Counter,
    cells_examined: Counter,
    cells_qualifying: Counter,
    query_ns: Histogram,
    filter_ns: Histogram,
    refine_ns: Histogram,
}

impl QueryMetrics {
    /// Registers (or reattaches to) the `index_*` families, every series
    /// labeled with the index's method name.
    pub(crate) fn wire(registry: &MetricsRegistry, index: &str) -> Self {
        let labels: &[(&str, &str)] = &[("index", index)];
        Self {
            index: Label::new(index),
            queries: registry.counter_with("index_queries_total", labels),
            filter_pages: registry.counter_with("index_filter_pages_total", labels),
            refine_pages: registry.counter_with("index_refine_pages_total", labels),
            filter_nodes: registry.counter_with("index_filter_nodes_total", labels),
            intervals: registry.counter_with("index_intervals_retrieved_total", labels),
            cells_examined: registry.counter_with("index_cells_examined_total", labels),
            cells_qualifying: registry.counter_with("index_cells_qualifying_total", labels),
            query_ns: registry.time_histogram("index_query_ns", labels),
            filter_ns: registry.time_histogram("index_filter_ns", labels),
            refine_ns: registry.time_histogram("index_refine_ns", labels),
        }
    }

    /// The one sink of a finished query: bumps the `index_*` series,
    /// then hands the record to the tracer's ring (which keeps it only
    /// while tracing is on). Counter bumps stay real under
    /// `obs-off`; the latency observations and the ring push compile
    /// out.
    pub(crate) fn publish(&self, tracer: &Tracer, rec: ExplainRecord) {
        self.queries.inc();
        self.filter_pages.add(rec.filter_pages);
        self.refine_pages.add(rec.refine_pages);
        self.filter_nodes.add(rec.filter_nodes);
        self.intervals.add(rec.subfields);
        self.cells_examined.add(rec.cells_examined);
        self.cells_qualifying.add(rec.cells_qualifying);
        self.query_ns.observe_ns(rec.total_ns);
        self.filter_ns.observe_ns(rec.filter_ns);
        self.refine_ns.observe_ns(rec.refine_ns);
        tracer.record_query(rec);
    }
}

/// A value-domain index over one field, queryable by value interval.
///
/// Implementations own their cell file and index pages inside a shared
/// [`StorageEngine`]; queries report complete I/O so the benchmark
/// harness can compare methods exactly as the paper does.
pub trait ValueIndex: Send + Sync {
    /// Method name as used in the paper's figures (e.g. `"I-Hilbert"`).
    fn name(&self) -> String;

    /// Runs the full query pipeline and returns the statistics. With a
    /// `sink`, each non-empty answer region is passed to it as its
    /// vertices in boundary order; the slice is valid only for the call,
    /// so a sink that keeps regions copies them
    /// ([`ValueIndex::query_regions`]). The statistics do not depend on
    /// whether a sink is given.
    ///
    /// I/O failures — injected faults, corrupt pages — abort the query
    /// with the underlying [`cf_storage::CfError`]; regions already
    /// passed to `sink` before the failure must be discarded.
    fn query(
        &self,
        engine: &StorageEngine,
        band: Interval,
        sink: Option<RegionSink<'_>>,
    ) -> CfResult<QueryStats>;

    /// Runs the query and discards region geometry (keeps area/counts).
    fn query_stats(&self, engine: &StorageEngine, band: Interval) -> CfResult<QueryStats> {
        self.query(engine, band, None)
    }

    /// Runs the query and collects the answer regions.
    fn query_regions(
        &self,
        engine: &StorageEngine,
        band: Interval,
    ) -> CfResult<(QueryStats, Vec<Polygon>)> {
        let mut regions = Vec::new();
        let stats = self.query(
            engine,
            band,
            Some(&mut |vs| regions.push(Polygon::new(vs.to_vec()))),
        )?;
        Ok((stats, regions))
    }

    /// Pages occupied by the index structure (0 for LinearScan).
    fn index_pages(&self) -> usize;

    /// Pages occupied by the cell file.
    fn data_pages(&self) -> usize;

    /// Number of intervals the index stores (subfields for I-Hilbert,
    /// cells for I-All, 0 for LinearScan).
    fn num_intervals(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_are_zero() {
        let s = QueryStats::default();
        assert_eq!(s.cells_examined, 0);
        assert_eq!(s.area, 0.0);
        assert_eq!(s.io, IoStats::default());
    }
}
