//! Per-query tracing: one bounded ring of per-query facts and the
//! views derived from it.
//!
//! The query pipeline hands every finished query's [`ExplainRecord`] to
//! [`Tracer::record_query`], which stamps it (query id, ordinal, `slow`
//! bit) and pushes it into the one bounded ring under one lock. Nothing
//! else is stored per query: the span events behind `/traces`
//! ([`Tracer::events`]), the slow-query reports
//! ([`Tracer::slow_reports`]), the recent EXPLAINs
//! ([`Tracer::recent_explains`]), the latency quantiles and objective
//! burn rates behind `/slo` ([`Tracer::slo_json`]) and the `.wrk`
//! flight records ([`Tracer::drain_workload`]) are read-side views over
//! that ring, so they agree by construction.
//!
//! The hot path is allocation-free — the record is `Copy` and built on
//! the caller's stack — and when tracing is disabled the cost per query
//! is one relaxed atomic load. Under the `obs-off` feature recording
//! compiles to a no-op.

use crate::explain::ExplainRecord;
use crate::json::Json;
use crate::record::{WorkloadRecord, WORKLOAD_VERSION};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Maximum queries retained in the tracer's ring; older records are
/// evicted (and, if never drained, counted in [`Tracer::dropped`]).
pub const QUERY_RING_CAPACITY: usize = 4096;

/// How many of the newest records [`Tracer::recent_explains`] and
/// [`Tracer::slow_reports`] return.
pub const RECENT_VIEW_LEN: usize = 64;

/// The latency objectives [`Tracer::slo_json`] reports, as `(name,
/// threshold_ns, target)`: "fraction `target` of queries complete
/// within `threshold_ns`".
const SLO_OBJECTIVES: [(&str, u64, f64); 2] =
    [("p99-1ms", 1_000_000, 0.99), ("p50-100us", 100_000, 0.50)];

/// One traced query phase — a view of an [`ExplainRecord`], see
/// [`ExplainRecord::events`].
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
    /// Span nesting depth (0 = the enclosing query span).
    pub depth: u32,
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
    /// Records evicted before they were drained.
    dropped: u64,
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

    /// Sets the slow-query threshold; queries at least this slow are
    /// recorded with their `slow` bit set and show up in
    /// [`Tracer::slow_reports`]. Requires tracing to be enabled.
    pub fn set_slow_threshold(&self, threshold: std::time::Duration) {
        self.slow_threshold_ns
            .store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Current slow-query threshold in nanoseconds (`u64::MAX` = off).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    fn ring(&self) -> MutexGuard<'_, QueryRing> {
        self.queries.lock().expect("query ring poisoned")
    }

    /// Records one finished query (no-op when disabled): stamps the
    /// next query id and ordinal and the `slow` bit — `total_ns` against
    /// the threshold in force right now — then pushes the record,
    /// evicting the oldest past [`QUERY_RING_CAPACITY`].
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
            let evicted = ring.records.pop_front();
            if evicted.is_some_and(|old| old.ordinal >= ring.drained) {
                ring.dropped += 1;
            }
        }
        ring.records.push_back(rec);
    }

    /// The span events of every retained query, oldest query first
    /// (the Chrome-trace / `/traces` input).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring()
            .records
            .iter()
            .flat_map(ExplainRecord::events)
            .collect()
    }

    /// The newest [`RECENT_VIEW_LEN`] retained queries recorded as slow
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

    /// The newest [`RECENT_VIEW_LEN`] retained records (oldest first) —
    /// the `/explain/recent` payload.
    pub fn recent_explains(&self) -> Vec<ExplainRecord> {
        let ring = self.ring();
        let skip = ring.records.len().saturating_sub(RECENT_VIEW_LEN);
        ring.records.range(skip..).copied().collect()
    }

    /// The most recently recorded query, if any.
    pub fn last_explain(&self) -> Option<ExplainRecord> {
        self.ring().records.back().copied()
    }

    /// The lossless `.wrk` drain: the flight record of every query not
    /// handed out by an earlier drain, oldest first. It only advances a
    /// cursor — the other views still see the drained queries — and the
    /// ordinal sequence keeps running, so a later drain continues where
    /// this one stopped.
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

    /// Queries evicted from the full ring before any drain saw them.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// The retained queries as flight records (the `/workload` route).
    pub fn workload_json(&self) -> Json {
        let ring = self.ring();
        Json::obj([
            ("version", Json::Num(WORKLOAD_VERSION as f64)),
            ("count", Json::Num(ring.records.len() as f64)),
            ("dropped", Json::Num(ring.dropped as f64)),
            (
                "records",
                Json::Arr(
                    ring.records
                        .iter()
                        .map(|rec| WorkloadRecord::from(rec).to_json())
                        .collect(),
                ),
            ),
        ])
    }

    /// The latency view over the retained queries (the `/slo` route):
    /// `count`, exact nearest-rank `p50_ns` / `p99_ns` (`sorted[⌈q·n⌉−1]`)
    /// and `max_ns` of their `total_ns` (all 0 on an empty ring), the
    /// slow-query threshold (`null` when off), and per objective
    /// (`p99-1ms`, `p50-100us`) the queries `observed`, the `breaches`
    /// (`total_ns > threshold_ns`) and the `burn_rate`
    /// `(breaches / observed) / (1 − target)` — 1.0 spends the error
    /// budget exactly.
    pub fn slo_json(&self) -> Json {
        let mut ns: Vec<u64> = self.ring().records.iter().map(|r| r.total_ns).collect();
        ns.sort_unstable();
        let n = ns.len();
        let rank = |q: f64| match n {
            0 => 0,
            _ => ns[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        };
        let objectives = SLO_OBJECTIVES
            .iter()
            .map(|&(name, threshold_ns, target)| {
                let breaches = n - ns.partition_point(|&t| t <= threshold_ns);
                let burn_rate = match n {
                    0 => 0.0,
                    _ => (breaches as f64 / n as f64) / (1.0 - target),
                };
                Json::obj([
                    ("name", Json::Str(name.to_owned())),
                    ("threshold_ns", Json::Num(threshold_ns as f64)),
                    ("target", Json::Num(target)),
                    ("observed", Json::Num(n as f64)),
                    ("breaches", Json::Num(breaches as f64)),
                    ("burn_rate", Json::Num(burn_rate)),
                ])
            })
            .collect();
        let threshold = match self.slow_threshold_ns() {
            u64::MAX => Json::Null,
            ns => Json::Num(ns as f64),
        };
        Json::obj([
            ("count", Json::Num(n as f64)),
            ("p50_ns", Json::Num(rank(0.50) as f64)),
            ("p99_ns", Json::Num(rank(0.99) as f64)),
            ("max_ns", Json::Num(ns.last().copied().unwrap_or(0) as f64)),
            ("slow_threshold_ns", threshold),
            ("objectives", Json::Arr(objectives)),
        ])
    }

    /// Empties the ring and restarts the ordinal sequence, drain cursor
    /// and drop count; enablement, threshold and the query-id sequence
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
        assert!(t.events().is_empty());
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

        let event = |phase, pages, nanos, depth| TraceEvent {
            query_id: 0,
            phase,
            pages,
            nanos,
            depth,
        };
        let phases = [
            event("filter", fact.filter_pages, fact.filter_ns, 1),
            event("refine", fact.refine_pages, fact.refine_ns, 1),
        ];
        let query = event(
            "query",
            fact.filter_pages + fact.refine_pages,
            fact.total_ns,
            0,
        );
        assert_eq!(t.events(), [phases[0], phases[1], query]);

        let slow = t.slow_reports();
        assert_eq!(slow, vec![stamped]);
        let slow_phases: Vec<_> = slow[0].events().filter(|e| e.depth > 0).collect();
        assert_eq!(slow_phases, phases);

        let json = stamped.to_json();
        assert_eq!(json.get("index").and_then(Json::as_str), Some("I-Hilbert"));
        assert_eq!(json.get("filter_ns").and_then(Json::as_f64), Some(45_200.0));
        assert_eq!(json.get("other_ns").and_then(Json::as_f64), Some(3_100.0));

        let wrk = t.drain_workload();
        assert_eq!(wrk.len(), 1);
        assert_eq!(wrk[0].ordinal, 0);
        assert_eq!(wrk[0].band_lo.to_bits(), fact.band_lo.to_bits());
        assert_eq!(wrk[0].band_hi.to_bits(), fact.band_hi.to_bits());
        assert_eq!(wrk[0].plane.as_str(), fact.plane);
        assert_eq!(wrk[0].curve, fact.curve);
        assert_eq!(wrk[0].epoch, fact.epoch);
        assert_eq!(wrk[0].digest, fact.digest);

        // A scan has no filter phase and calls its cell pass `scan`.
        t.record_query(ExplainRecord {
            plan: "scan",
            plane: "cells",
            filter_pages: 0,
            filter_ns: 0,
            ..fact
        });
        let scan: Vec<_> = t.events()[3..].iter().map(|e| (e.phase, e.depth)).collect();
        assert_eq!(scan, [("scan", 1), ("query", 0)]);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let t = Tracer::default();
        t.set_enabled(true);
        for i in 0..(QUERY_RING_CAPACITY as u64 + 10) {
            t.record_query(timed(i));
        }
        let events = t.events();
        assert_eq!(events.len(), 3 * QUERY_RING_CAPACITY);
        assert_eq!(events.first().map(|e| e.query_id), Some(10));
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
        assert!(t.events().is_empty());
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

    fn slo(t: &Tracer) -> Json {
        Json::parse(&t.slo_json().render()).expect("valid json")
    }

    fn num(doc: &Json, key: &str) -> f64 {
        doc.get(key).and_then(Json::as_f64).expect(key)
    }

    fn objectives(doc: &Json) -> &[Json] {
        doc.get("objectives")
            .and_then(Json::as_arr)
            .expect("objectives")
    }

    /// Deterministic splitmix64 for dependency-free randomized cases.
    #[cfg(not(feature = "obs-off"))]
    struct Rng(u64);

    #[cfg(not(feature = "obs-off"))]
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The `/slo` view re-derived from the raw latencies: nearest-rank
    /// quantiles over the newest ring's worth, breaches counted one by
    /// one.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn slo_view_is_exact_over_the_retained_queries() {
        let t = Tracer::default();
        t.set_enabled(true);
        let mut rng = Rng(0x5E2E_0009);
        let all: Vec<u64> = (0..QUERY_RING_CAPACITY + 500)
            .map(|_| rng.next() % 5_000_000)
            .collect();
        for &ns in &all {
            t.record_query(timed(ns));
        }
        let mut kept = all[500..].to_vec();
        kept.sort();
        let n = kept.len();
        let doc = slo(&t);
        assert_eq!(num(&doc, "count"), n as f64);
        assert_eq!(num(&doc, "p50_ns"), kept[n.div_ceil(2) - 1] as f64);
        assert_eq!(num(&doc, "p99_ns"), kept[(99 * n).div_ceil(100) - 1] as f64);
        assert_eq!(num(&doc, "max_ns"), kept[n - 1] as f64);
        assert_eq!(doc.get("slow_threshold_ns"), Some(&Json::Null));

        let objs = objectives(&doc);
        assert_eq!(objs.len(), SLO_OBJECTIVES.len());
        for o in objs {
            let threshold = num(o, "threshold_ns") as u64;
            let breaches = all[500..].iter().filter(|&&ns| ns > threshold).count();
            assert!(breaches > 0 && breaches < n, "{threshold}: {breaches}");
            let burn = (breaches as f64 / n as f64) / (1.0 - num(o, "target"));
            assert_eq!(num(o, "observed"), n as f64);
            assert_eq!(num(o, "breaches"), breaches as f64);
            assert!((num(o, "burn_rate") - burn).abs() < 1e-12, "{o:?}");
        }
    }

    #[test]
    fn slo_view_of_an_empty_ring_is_zero() {
        let reg = crate::MetricsRegistry::new();
        let t = reg.tracer();
        let assert_zero = |doc: &Json| {
            for key in ["count", "p50_ns", "p99_ns", "max_ns"] {
                assert_eq!(num(doc, key), 0.0, "{key}");
            }
            for o in objectives(doc) {
                for key in ["observed", "breaches", "burn_rate"] {
                    assert_eq!(num(o, key), 0.0, "{key}");
                }
            }
        };
        assert_zero(&slo(t));
        t.set_enabled(true);
        t.set_slow_threshold(std::time::Duration::from_nanos(500));
        t.record_query(timed(2_000_000));
        let doc = slo(t);
        assert_eq!(num(&doc, "slow_threshold_ns"), 500.0);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(num(&doc, "p99_ns"), 2_000_000.0);
        #[cfg(feature = "obs-off")]
        assert_zero(&doc);
        reg.reset();
        assert_zero(&slo(t));
    }
}
