//! Per-query tracing: span events, a bounded ring buffer, and the
//! slow-query profiler.
//!
//! A [`Tracer`] hands out monotonically increasing query ids and
//! records [`TraceEvent`]s — one per query phase, carrying the page
//! count and wall nanoseconds of the phase — into a bounded ring.
//! Queries whose total wall time crosses the configured threshold get a
//! [`SlowQueryReport`] with their full phase breakdown, kept in a
//! second, smaller ring for the CLI / examples to drain.
//!
//! The hot path is allocation-free: phase events are assembled on the
//! caller's stack, span nesting depth lives in a thread-local `Cell`,
//! and when tracing is disabled the cost per query is one relaxed
//! atomic load. Under the `obs-off` feature every recording entry point
//! compiles to a no-op.

use crate::explain::{ExplainRecord, EXPLAIN_RING_CAPACITY};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Maximum span events retained in the trace ring.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// Maximum slow-query reports retained.
pub const SLOW_RING_CAPACITY: usize = 64;

/// One traced query phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Query id the phase belongs to.
    pub query_id: u64,
    /// Phase name (`"filter"`, `"refine"`, ...).
    pub phase: &'static str,
    /// Logical pages read during the phase.
    pub pages: u64,
    /// Wall nanoseconds spent in the phase.
    pub nanos: u64,
    /// Span nesting depth at record time (0 = top level).
    pub depth: u32,
}

/// The full phase breakdown of a query that crossed the slow-query
/// threshold.
#[derive(Debug, Clone)]
pub struct SlowQueryReport {
    /// Query id.
    pub query_id: u64,
    /// Total wall nanoseconds of the query.
    pub total_ns: u64,
    /// Phase events, in execution order.
    pub phases: Vec<TraceEvent>,
    /// The structured EXPLAIN record of the offending query, when the
    /// pipeline assembled one.
    pub explain: Option<ExplainRecord>,
}

impl fmt::Display for SlowQueryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slow query #{}: {:.1} us total",
            self.query_id,
            self.total_ns as f64 / 1e3
        )?;
        for p in &self.phases {
            write!(
                f,
                "; {}: {} pages, {:.1} us",
                p.phase,
                p.pages,
                p.nanos as f64 / 1e3
            )?;
        }
        Ok(())
    }
}

thread_local! {
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// A started wall clock. Under `obs-off` starting and reading it are
/// free (it always reads zero), so instrumented code needs no `cfg`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    #[cfg(not(feature = "obs-off"))]
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    #[inline]
    pub fn start() -> Self {
        Self {
            #[cfg(not(feature = "obs-off"))]
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`] (saturating; 0 under
    /// `obs-off`).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            self.start.elapsed().as_nanos() as u64
        }
        #[cfg(feature = "obs-off")]
        {
            0
        }
    }
}

/// Per-query trace state. Lives inside a
/// [`MetricsRegistry`](crate::MetricsRegistry); access it via
/// `registry.tracer()`.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    /// Threshold in nanoseconds; `u64::MAX` disables slow-query
    /// capture. Shared behind an `Arc` so the SLO tracker's adaptive
    /// mode can steer it (see [`crate::SloTracker::set_adaptive`]).
    slow_threshold_ns: Arc<AtomicU64>,
    next_query: AtomicU64,
    events: Mutex<VecDeque<TraceEvent>>,
    slow: Mutex<VecDeque<SlowQueryReport>>,
    explains: Mutex<VecDeque<ExplainRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            slow_threshold_ns: Arc::new(AtomicU64::new(u64::MAX)),
            next_query: AtomicU64::new(0),
            events: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
            explains: Mutex::new(VecDeque::new()),
        }
    }
}

impl Tracer {
    /// Turns span recording on or off. Off (the default) costs one
    /// relaxed load per query.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded. Always `false` under `obs-off`.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        #[cfg(feature = "obs-off")]
        {
            false
        }
        #[cfg(not(feature = "obs-off"))]
        {
            self.enabled.load(Ordering::Relaxed)
        }
    }

    /// Sets the slow-query threshold; queries at least this slow get a
    /// full [`SlowQueryReport`]. Requires tracing to be enabled.
    pub fn set_slow_threshold(&self, threshold: std::time::Duration) {
        self.slow_threshold_ns
            .store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Current slow-query threshold in nanoseconds (`u64::MAX` = off).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// The shared threshold cell, for wiring into the SLO tracker's
    /// adaptive mode.
    pub(crate) fn threshold_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.slow_threshold_ns)
    }

    /// Claims the next query id.
    #[inline]
    pub fn next_query_id(&self) -> u64 {
        self.next_query.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one phase event into the bounded ring (no-op when
    /// disabled).
    pub fn record(&self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.events.lock().expect("trace ring poisoned");
        if ring.len() >= TRACE_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Opens a hierarchical span: the returned guard records a
    /// [`TraceEvent`] when dropped, tagged with the nesting depth at
    /// open time. Attach a page count with [`Span::set_pages`].
    pub fn span(&self, query_id: u64, phase: &'static str) -> Span<'_> {
        let depth = SPAN_DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        Span {
            tracer: self,
            query_id,
            phase,
            pages: 0,
            depth,
            clock: Stopwatch::start(),
        }
    }

    /// Finishes a query: when tracing is enabled, pushes its EXPLAIN
    /// record (if any) into the bounded EXPLAIN ring, then checks
    /// `total_ns` against the slow threshold and, if crossed, captures
    /// the full phase breakdown with the EXPLAIN attached (this outlier
    /// path may allocate).
    pub fn finish_query_explained(
        &self,
        query_id: u64,
        total_ns: u64,
        phases: &[TraceEvent],
        explain: Option<ExplainRecord>,
    ) {
        if !self.is_enabled() {
            return;
        }
        if let Some(rec) = explain {
            let mut ring = self.explains.lock().expect("explain ring poisoned");
            if ring.len() >= EXPLAIN_RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(rec);
        }
        if total_ns < self.slow_threshold_ns() {
            return;
        }
        let mut ring = self.slow.lock().expect("slow ring poisoned");
        if ring.len() >= SLOW_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(SlowQueryReport {
            query_id,
            total_ns,
            phases: phases.to_vec(),
            explain,
        });
    }

    /// Snapshot of the span-event ring (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Snapshot of the retained slow-query reports (oldest first)
    /// without draining them — the HTTP `/traces` endpoint uses this so
    /// repeated scrapes see the same outliers.
    pub fn slow_reports(&self) -> Vec<SlowQueryReport> {
        self.slow
            .lock()
            .expect("slow ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Drains every pending slow-query report (oldest first).
    pub fn take_slow_reports(&self) -> Vec<SlowQueryReport> {
        self.slow
            .lock()
            .expect("slow ring poisoned")
            .drain(..)
            .collect()
    }

    /// Snapshot of the retained EXPLAIN records (oldest first) without
    /// draining them — the HTTP `/explain/recent` endpoint uses this.
    pub fn recent_explains(&self) -> Vec<ExplainRecord> {
        self.explains
            .lock()
            .expect("explain ring poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// The most recently recorded EXPLAIN record, if any.
    pub fn last_explain(&self) -> Option<ExplainRecord> {
        self.explains
            .lock()
            .expect("explain ring poisoned")
            .back()
            .copied()
    }

    /// Clears every ring; enablement, threshold and the query-id
    /// sequence are preserved.
    pub fn clear(&self) {
        self.events.lock().expect("trace ring poisoned").clear();
        self.slow.lock().expect("slow ring poisoned").clear();
        self.explains.lock().expect("explain ring poisoned").clear();
    }
}

/// A live hierarchical span; see [`Tracer::span`].
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    query_id: u64,
    phase: &'static str,
    pages: u64,
    depth: u32,
    clock: Stopwatch,
}

impl Span<'_> {
    /// Attaches the phase's logical page count to the event recorded on
    /// drop.
    pub fn set_pages(&mut self, pages: u64) {
        self.pages = pages;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        self.tracer.record(TraceEvent {
            query_id: self.query_id,
            phase: self.phase,
            pages: self.pages,
            nanos: self.clock.elapsed_ns(),
            depth: self.depth,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "obs-off"))]
    use std::time::Duration;

    fn ev(query_id: u64, phase: &'static str, nanos: u64) -> TraceEvent {
        TraceEvent {
            query_id,
            phase,
            pages: 0,
            nanos,
            depth: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        t.record(ev(0, "filter", 10));
        t.finish_query_explained(0, u64::MAX, &[ev(0, "filter", 10)], None);
        assert!(t.events().is_empty());
        assert!(t.take_slow_reports().is_empty());
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let t = Tracer::default();
        t.set_enabled(true);
        for i in 0..(TRACE_RING_CAPACITY as u64 + 10) {
            t.record(ev(i, "filter", i));
        }
        let events = t.events();
        assert_eq!(events.len(), TRACE_RING_CAPACITY);
        assert_eq!(events.first().map(|e| e.query_id), Some(10));
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn slow_queries_cross_the_threshold_only() {
        let t = Tracer::default();
        t.set_enabled(true);
        t.set_slow_threshold(Duration::from_nanos(100));
        t.finish_query_explained(1, 99, &[ev(1, "filter", 99)], None);
        t.finish_query_explained(2, 100, &[ev(2, "filter", 60), ev(2, "refine", 40)], None);
        let reports = t.take_slow_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].query_id, 2);
        assert_eq!(reports[0].phases.len(), 2);
        // Drained.
        assert!(t.take_slow_reports().is_empty());
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn spans_record_on_drop_with_nesting_depth() {
        let t = Tracer::default();
        t.set_enabled(true);
        let qid = t.next_query_id();
        {
            let _outer = t.span(qid, "query");
            let mut inner = t.span(qid, "filter");
            inner.set_pages(7);
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        // Inner drops first.
        assert_eq!(events[0].phase, "filter");
        assert_eq!(events[0].pages, 7);
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].phase, "query");
        assert_eq!(events[1].depth, 0);
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn everything_is_inert_under_obs_off() {
        let t = Tracer::default();
        t.set_enabled(true);
        assert!(!t.is_enabled());
        t.record(ev(0, "filter", 1));
        assert!(t.events().is_empty());
        t.finish_query_explained(0, u64::MAX, &[], Some(sample_explain(0)));
        assert!(t.recent_explains().is_empty());
        assert!(t.last_explain().is_none());
    }

    fn sample_explain(query_id: u64) -> crate::ExplainRecord {
        crate::ExplainRecord {
            query_id,
            index: crate::explain::Label::new("I-Hilbert"),
            plan: "probe",
            plane: "paged",
            curve: crate::explain::Label::new("hilbert"),
            band_lo: 0.1,
            band_hi: 0.2,
            subfields: 3,
            cells_examined: 10,
            cells_qualifying: 7,
            filter_pages: 1,
            refine_pages: 2,
            filter_ns: 100,
            refine_ns: 200,
            total_ns: 350,
            epoch: 0,
            pool_hits: 3,
            pool_misses: 0,
        }
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn explain_ring_is_bounded_and_attaches_to_slow_reports() {
        use crate::explain::EXPLAIN_RING_CAPACITY;
        let t = Tracer::default();
        t.set_enabled(true);
        t.set_slow_threshold(Duration::from_nanos(300));
        for i in 0..(EXPLAIN_RING_CAPACITY as u64 + 5) {
            t.finish_query_explained(i, 350, &[ev(i, "filter", 100)], Some(sample_explain(i)));
        }
        let explains = t.recent_explains();
        assert_eq!(explains.len(), EXPLAIN_RING_CAPACITY);
        assert_eq!(explains.first().map(|e| e.query_id), Some(5));
        assert_eq!(
            t.last_explain().map(|e| e.query_id),
            Some(EXPLAIN_RING_CAPACITY as u64 + 4)
        );
        let slow = t.take_slow_reports();
        let last = slow.last().expect("slow captured");
        assert_eq!(
            last.explain.map(|e| e.query_id),
            Some(EXPLAIN_RING_CAPACITY as u64 + 4)
        );
        // Fast queries still record their EXPLAIN without a report.
        t.clear();
        t.finish_query_explained(99, 10, &[], Some(sample_explain(99)));
        assert_eq!(t.recent_explains().len(), 1);
        assert!(t.take_slow_reports().is_empty());
    }

    #[test]
    fn report_display_is_readable() {
        let r = SlowQueryReport {
            query_id: 3,
            total_ns: 123_400,
            phases: vec![TraceEvent {
                query_id: 3,
                phase: "filter",
                pages: 5,
                nanos: 23_400,
                depth: 0,
            }],
            explain: None,
        };
        let s = r.to_string();
        assert!(s.contains("slow query #3"), "{s}");
        assert!(s.contains("filter: 5 pages"), "{s}");
    }
}
