//! Per-query tracing: one bounded ring of per-query facts and the
//! views derived from it.
//!
//! The query pipeline hands every finished query's [`ExplainRecord`] to
//! [`Tracer::record_query`], which stamps it (query id, ordinal, `slow`
//! bit) and pushes it into the one bounded ring under one lock. Nothing
//! else is stored per query: the slow-query reports
//! ([`Tracer::slow_reports`]), the recent EXPLAINs
//! ([`Tracer::recent_explains`]) and the `.wrk` flight records
//! ([`Tracer::drain_workload`]) are read-side views over that ring, so
//! they agree by construction.
//!
//! The hot path is allocation-free — the record is `Copy` and built on
//! the caller's stack — and when tracing is disabled the cost per query
//! is one relaxed atomic load. Under the `obs-off` feature recording
//! compiles to a no-op.

use crate::explain::ExplainRecord;
use crate::record::WorkloadRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Maximum queries retained in the tracer's ring; older records are
/// evicted, so a lossless `.wrk` capture drains at least once per this
/// many queries.
pub const QUERY_RING_CAPACITY: usize = 4096;

/// How many of the newest records [`Tracer::recent_explains`] and
/// [`Tracer::slow_reports`] return.
const RECENT_VIEW_LEN: usize = 64;

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

/// The ring and the sequences stamped onto its records, under one lock.
#[derive(Debug, Default)]
struct QueryRing {
    records: VecDeque<ExplainRecord>,
    /// Next query id; survives [`Tracer::clear`].
    next_query: u64,
    /// Next ordinal; records in the ring carry consecutive ordinals.
    next_ordinal: u64,
    /// The drain cursor: every ordinal below it has been handed out by
    /// [`Tracer::drain_workload`].
    drained: u64,
}

/// Per-query trace state. Lives inside a
/// [`MetricsRegistry`](crate::MetricsRegistry); access it via
/// `registry.tracer()`.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    /// Threshold in nanoseconds; `u64::MAX` marks no query slow.
    slow_threshold_ns: AtomicU64,
    queries: Mutex<QueryRing>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            slow_threshold_ns: AtomicU64::new(u64::MAX),
            queries: Mutex::default(),
        }
    }
}

impl Tracer {
    /// Turns query recording on or off. Off (the default) costs one
    /// relaxed load per query.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether queries are being recorded. Always `false` under
    /// `obs-off`.
    #[inline]
    fn is_enabled(&self) -> bool {
        #[cfg(feature = "obs-off")]
        {
            false
        }
        #[cfg(not(feature = "obs-off"))]
        {
            self.enabled.load(Ordering::Relaxed)
        }
    }

    /// Sets the slow-query threshold; queries at least this slow are
    /// recorded with their `slow` bit set and show up in
    /// [`Tracer::slow_reports`]. Requires tracing to be enabled.
    pub fn set_slow_threshold(&self, threshold: std::time::Duration) {
        self.slow_threshold_ns
            .store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Current slow-query threshold in nanoseconds (`u64::MAX` = off).
    fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    fn ring(&self) -> MutexGuard<'_, QueryRing> {
        self.queries.lock().expect("query ring poisoned")
    }

    /// Records one finished query (no-op when disabled): stamps the
    /// next query id and ordinal and the `slow` bit — `total_ns` against
    /// the threshold in force right now — then pushes the record,
    /// evicting the oldest past `QUERY_RING_CAPACITY`.
    #[inline]
    pub fn record_query(&self, mut rec: ExplainRecord) {
        if !self.is_enabled() {
            return;
        }
        rec.slow = rec.total_ns >= self.slow_threshold_ns();
        let mut ring = self.ring();
        rec.query_id = ring.next_query;
        ring.next_query += 1;
        rec.ordinal = ring.next_ordinal;
        ring.next_ordinal += 1;
        if ring.records.len() >= QUERY_RING_CAPACITY {
            ring.records.pop_front();
        }
        ring.records.push_back(rec);
    }

    /// The newest `RECENT_VIEW_LEN` retained queries recorded as slow
    /// (oldest first).
    pub fn slow_reports(&self) -> Vec<ExplainRecord> {
        let ring = self.ring();
        let mut slow: Vec<ExplainRecord> = ring
            .records
            .iter()
            .rev()
            .filter(|rec| rec.slow)
            .take(RECENT_VIEW_LEN)
            .copied()
            .collect();
        slow.reverse();
        slow
    }

    /// The newest `RECENT_VIEW_LEN` retained records (oldest first).
    pub fn recent_explains(&self) -> Vec<ExplainRecord> {
        let ring = self.ring();
        let skip = ring.records.len().saturating_sub(RECENT_VIEW_LEN);
        ring.records.range(skip..).copied().collect()
    }

    /// The most recently recorded query, if any.
    pub fn last_explain(&self) -> Option<ExplainRecord> {
        self.ring().records.back().copied()
    }

    /// The `.wrk` drain: the flight record of every retained query not
    /// handed out by an earlier drain, oldest first. It only advances a
    /// cursor — the other views still see the drained queries — and the
    /// ordinal sequence keeps running, so a later drain continues where
    /// this one stopped. The ring evicts, so a capture is lossless only
    /// if it drains at least once per [`QUERY_RING_CAPACITY`] queries.
    pub fn drain_workload(&self) -> Vec<WorkloadRecord> {
        let mut ring = self.ring();
        let cursor = ring.drained;
        ring.drained = ring.next_ordinal;
        ring.records
            .iter()
            .filter(|rec| rec.ordinal >= cursor)
            .map(WorkloadRecord::from)
            .collect()
    }

    /// Empties the ring and restarts the ordinal sequence and drain
    /// cursor; enablement, threshold and the query-id sequence
    /// are preserved.
    pub fn clear(&self) {
        let mut ring = self.ring();
        *ring = QueryRing {
            next_query: ring.next_query,
            ..QueryRing::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::tests::sample;
    #[cfg(not(feature = "obs-off"))]
    use crate::json::Json;
    #[cfg(not(feature = "obs-off"))]
    use std::time::Duration;

    fn timed(total_ns: u64) -> ExplainRecord {
        ExplainRecord {
            total_ns,
            ..sample()
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        t.record_query(timed(u64::MAX));
        assert!(t.recent_explains().is_empty());
        assert!(t.slow_reports().is_empty());
        assert!(t.last_explain().is_none());
        assert!(t.drain_workload().is_empty());
    }

    /// One pushed fact, every view checked against it field by field.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn one_fact_feeds_every_view() {
        let t = Tracer::default();
        t.set_enabled(true);
        t.set_slow_threshold(Duration::from_nanos(229_300));
        let fact = ExplainRecord {
            filter_pages: 2,
            ..sample()
        };
        t.record_query(fact);
        // The tracer stamps id, ordinal and the slow bit; nothing else.
        let stamped = ExplainRecord {
            query_id: 0,
            ordinal: 0,
            slow: true,
            ..fact
        };
        assert_eq!(t.last_explain(), Some(stamped));
        assert_eq!(t.recent_explains(), vec![stamped]);
        assert_eq!(t.slow_reports(), vec![stamped]);

        let json = stamped.to_json();
        assert_eq!(json.get("index").and_then(Json::as_str), Some("I-Hilbert"));
        assert_eq!(json.get("filter_ns").and_then(Json::as_f64), Some(45_200.0));
        assert_eq!(json.get("other_ns").and_then(Json::as_f64), Some(3_100.0));

        let wrk = t.drain_workload();
        assert_eq!(wrk.len(), 1);
        assert_eq!(wrk[0].ordinal, 0);
        assert_eq!(wrk[0].band_lo.to_bits(), fact.band_lo.to_bits());
        assert_eq!(wrk[0].band_hi.to_bits(), fact.band_hi.to_bits());
        assert_eq!(wrk[0].plane.as_str(), "paged");
        assert_eq!(wrk[0].curve, fact.curve);
        assert_eq!(wrk[0].epoch, fact.epoch);
        assert_eq!(wrk[0].digest, fact.digest);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let t = Tracer::default();
        t.set_enabled(true);
        for i in 0..(QUERY_RING_CAPACITY as u64 + 10) {
            t.record_query(timed(i));
        }
        // The ten oldest were evicted: the drain starts at query 10.
        let kept = t.drain_workload();
        assert_eq!(kept.len(), QUERY_RING_CAPACITY);
        assert_eq!(kept.first().map(|r| r.ordinal), Some(10));
        assert_eq!(
            t.recent_explains().first().map(|e| e.query_id),
            Some(QUERY_RING_CAPACITY as u64 + 10 - RECENT_VIEW_LEN as u64)
        );
        assert_eq!(
            t.last_explain().map(|e| e.total_ns),
            Some(QUERY_RING_CAPACITY as u64 + 9)
        );
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn slow_queries_cross_the_threshold_only() {
        let t = Tracer::default();
        t.set_enabled(true);
        t.set_slow_threshold(Duration::from_nanos(100));
        t.record_query(timed(99));
        t.record_query(timed(100));
        // The bit records the threshold in force at record time: moving
        // the threshold afterwards rewrites no verdict.
        t.set_slow_threshold(Duration::from_nanos(1_000));
        let reports = t.slow_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].query_id, 1);
        // A view, not a drain.
        assert_eq!(t.slow_reports(), reports);
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn everything_is_inert_under_obs_off() {
        let t = Tracer::default();
        t.set_enabled(true);
        assert!(!t.is_enabled());
        t.record_query(timed(u64::MAX));
        assert!(t.recent_explains().is_empty());
        assert!(t.last_explain().is_none());
        assert!(t.drain_workload().is_empty());
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn explain_ring_is_bounded_and_attaches_to_slow_reports() {
        let t = Tracer::default();
        t.set_enabled(true);
        t.set_slow_threshold(Duration::from_nanos(300));
        let newest = RECENT_VIEW_LEN as u64 + 4;
        for _ in 0..=newest {
            t.record_query(timed(350));
        }
        let explains = t.recent_explains();
        assert_eq!(explains.len(), RECENT_VIEW_LEN);
        assert_eq!(explains.first().map(|e| e.query_id), Some(5));
        assert_eq!(t.last_explain().map(|e| e.query_id), Some(newest));
        let slow = t.slow_reports();
        assert_eq!(slow.len(), RECENT_VIEW_LEN);
        assert_eq!(slow.last().copied(), t.last_explain());
        // Fast queries still record their EXPLAIN without a report, and
        // the query-id sequence survives the clear.
        t.clear();
        t.record_query(timed(10));
        assert_eq!(t.recent_explains().len(), 1);
        assert_eq!(t.last_explain().map(|e| e.query_id), Some(newest + 1));
        assert!(t.slow_reports().is_empty());
    }
}
