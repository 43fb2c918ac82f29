//! `cf-obs` — a dependency-free, lock-cheap observability layer.
//!
//! One [`MetricsRegistry`] per storage engine unifies the counters that
//! were previously scattered across `IoStats`, `ShardStats`,
//! `SearchStats` and `QueryStats`:
//!
//! * [`Counter`] — monotonic `u64`, one relaxed atomic add on the hot
//!   path. The storage plane's legacy accounting structs are *views*
//!   over these, so registry totals and legacy totals are the same
//!   atomics and can never drift.
//! * [`Gauge`] — an `f64` that goes up and down (queue depth, index
//!   health).
//! * [`Histogram`] — fixed bucket bounds chosen at registration, atomic
//!   bucket counts; no allocation after registration.
//! * [`Tracer`] — one bounded ring of per-query [`ExplainRecord`]s;
//!   span events, slow-query reports, recent EXPLAINs, the `/slo`
//!   latency view and `.wrk` flight records are views derived from it.
//!
//! Handles returned by the registry are `Arc`-backed and cheap to
//! clone; layers that sit on a query hot path (the R-tree search loop,
//! the disk manager) cache their handles at construction time so the
//! per-operation cost is a single atomic add. Layers that run once per
//! query (the value indexes) look handles up by name; lookups are
//! allocation-free once a series exists.
//!
//! # The `obs-off` feature
//!
//! Building with `--features obs-off` compiles the *extended* layer —
//! histogram observation, stopwatches, query recording — down to
//! no-ops, which is how the CI overhead gate measures the cost of the
//! layer. Counters and gauges stay real because the engine's I/O
//! accounting is built on them.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod explain;
pub mod export;
mod json;
pub mod record;
pub mod serve;
mod trace;

pub use explain::{ExplainRecord, Label};
pub use export::EventJournal;
pub use json::{Json, JsonError};
pub use record::{answer_digest, decode_wrk, encode_wrk, WorkloadRecord, WORKLOAD_VERSION};
pub use trace::{Stopwatch, TraceEvent, Tracer};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (used by warmup-style stat resets; the counter
    /// stays monotonic between resets).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge: an `f64` that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Default bucket upper bounds for nanosecond latency histograms:
/// powers of four from 256 ns to ~4.3 s.
const NS_BUCKETS: [f64; 13] = [
    256.0,
    1_024.0,
    4_096.0,
    16_384.0,
    65_536.0,
    262_144.0,
    1_048_576.0,
    4_194_304.0,
    16_777_216.0,
    67_108_864.0,
    268_435_456.0,
    1_073_741_824.0,
    4_294_967_296.0,
];

struct HistogramInner {
    bounds: Vec<f64>,
    /// One count per bound plus the +Inf overflow bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits (CAS loop on
    /// observe — observation sites run once per query, not per page).
    sum_bits: AtomicU64,
}

/// A histogram with fixed bucket bounds. Observation is allocation-free
/// and, under the `obs-off` feature, compiled out entirely.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts,
            sum_bits: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    #[cfg(not(feature = "obs-off"))]
    pub fn observe(&self, v: f64) {
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records one observation (compiled out under `obs-off`).
    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn observe(&self, _v: f64) {}

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        self.observe(ns as f64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Clears all buckets and the sum.
    pub fn reset(&self) {
        for c in &self.0.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.0.sum_bits.store(0, Ordering::Relaxed);
    }

    /// `(upper_bound, cumulative_count)` per bucket, ending with the
    /// `+Inf` bucket.
    fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.0.counts.len());
        let mut cum = 0u64;
        for (i, c) in self.0.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            let bound = self.0.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cum));
        }
        out
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    series: Vec<(Vec<(String, String)>, Metric)>,
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// The unified metrics registry. One per storage engine; every layer
/// above the engine publishes into the engine's registry.
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
    tracer: Tracer,
    journal: EventJournal,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            families: Mutex::new(BTreeMap::new()),
            tracer: Tracer::default(),
            journal: EventJournal::default(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry's query tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The registry's epoch-lifecycle event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        pick: impl Fn(&Metric) -> Option<Metric>,
    ) -> Metric {
        let mut families = self.families.lock().expect("metrics registry poisoned");
        // Allocation-free on the existing-series path: the map is keyed
        // by `String` but looked up by `&str`.
        if let Some(family) = families.get_mut(name) {
            if let Some((_, metric)) = family
                .series
                .iter()
                .find(|(have, _)| labels_eq(have, labels))
            {
                return pick(metric)
                    .unwrap_or_else(|| panic!("metric {name} re-registered as a different kind"));
            }
            let metric = make();
            let handle = pick(&metric).expect("freshly made metric matches its own kind");
            family.series.push((owned_labels(labels), metric));
            return handle;
        }
        let metric = make();
        let handle = pick(&metric).expect("freshly made metric matches its own kind");
        families.insert(
            name.to_owned(),
            Family {
                series: vec![(owned_labels(labels), metric)],
            },
        );
        handle
    }

    /// Returns (registering on first use) the counter `name` with no
    /// labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Returns (registering on first use) the counter `name` with the
    /// given label set.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(
            name,
            labels,
            || Metric::Counter(Counter::default()),
            |m| match m {
                Metric::Counter(c) => Some(Metric::Counter(c.clone())),
                _ => None,
            },
        ) {
            Metric::Counter(c) => c,
            _ => unreachable!("pick returned a counter"),
        }
    }

    /// Returns (registering on first use) the gauge `name` with no
    /// labels.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Returns (registering on first use) the gauge `name` with the
    /// given label set.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(
            name,
            labels,
            || Metric::Gauge(Gauge::default()),
            |m| match m {
                Metric::Gauge(g) => Some(Metric::Gauge(g.clone())),
                _ => None,
            },
        ) {
            Metric::Gauge(g) => g,
            _ => unreachable!("pick returned a gauge"),
        }
    }

    /// Returns (registering on first use) a histogram with the default
    /// nanosecond latency buckets.
    pub fn time_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, labels, &NS_BUCKETS)
    }

    /// Returns (registering on first use) a histogram with caller-chosen
    /// bucket upper bounds. Bounds are fixed by the first registration.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        match self.register(
            name,
            labels,
            || Metric::Histogram(Histogram::with_bounds(bounds)),
            |m| match m {
                Metric::Histogram(h) => Some(Metric::Histogram(h.clone())),
                _ => None,
            },
        ) {
            Metric::Histogram(h) => h,
            _ => unreachable!("pick returned a histogram"),
        }
    }

    /// Sum of a counter family across all of its label sets (0 when the
    /// family does not exist).
    pub fn counter_total(&self, name: &str) -> u64 {
        let families = self.families.lock().expect("metrics registry poisoned");
        families
            .get(name)
            .map(|f| {
                f.series
                    .iter()
                    .map(|(_, m)| match m {
                        Metric::Counter(c) => c.get(),
                        _ => 0,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Value of a counter series (`None` when absent); the metrics
    /// tests of dependent crates read single series with it.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let families = self.families.lock().expect("metrics registry poisoned");
        families.get(name).and_then(|f| {
            f.series
                .iter()
                .find(|(have, _)| labels_eq(have, labels))
                .and_then(|(_, m)| match m {
                    Metric::Counter(c) => Some(c.get()),
                    _ => None,
                })
        })
    }

    /// Value of a gauge series (`None` when absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let families = self.families.lock().expect("metrics registry poisoned");
        families.get(name).and_then(|f| {
            f.series
                .iter()
                .find(|(have, _)| labels_eq(have, labels))
                .and_then(|(_, m)| match m {
                    Metric::Gauge(g) => Some(g.get()),
                    _ => None,
                })
        })
    }

    /// `(count, sum)` of a histogram series (`None` when absent). The
    /// mean `sum / count` is exact regardless of bucket bounds.
    pub fn histogram_stats(&self, name: &str, labels: &[(&str, &str)]) -> Option<(u64, f64)> {
        let families = self.families.lock().expect("metrics registry poisoned");
        families.get(name).and_then(|f| {
            f.series
                .iter()
                .find(|(have, _)| labels_eq(have, labels))
                .and_then(|(_, m)| match m {
                    Metric::Histogram(h) => Some((h.count(), h.sum())),
                    _ => None,
                })
        })
    }

    /// Zeroes every counter, gauge and histogram and clears the query
    /// ring and the journal. Handles stay valid; tracer enablement and
    /// thresholds are preserved. This is the engine-wide "forget warmup
    /// I/O" reset.
    pub fn reset(&self) {
        let families = self.families.lock().expect("metrics registry poisoned");
        for family in families.values() {
            for (_, metric) in &family.series {
                match metric {
                    Metric::Counter(c) => c.reset(),
                    Metric::Gauge(g) => g.reset(),
                    Metric::Histogram(h) => h.reset(),
                }
            }
        }
        drop(families);
        self.tracer.clear();
        self.journal.clear();
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// The output is deterministic: families appear in name order and
    /// series in label order, so two snapshots of the same state are
    /// byte-identical and diffable.
    pub fn render_text(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = match family.series.first() {
                Some((_, m)) => m.kind(),
                None => continue,
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let mut series: Vec<&(Vec<(String, String)>, Metric)> = family.series.iter().collect();
            series.sort_by(|a, b| a.0.cmp(&b.0));
            for (labels, metric) in series {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", name, fmt_labels(labels, &[]), c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", name, fmt_labels(labels, &[]), g.get());
                    }
                    Metric::Histogram(h) => {
                        for (bound, cum) in h.cumulative_buckets() {
                            let le = if bound.is_infinite() {
                                "+Inf".to_owned()
                            } else {
                                trim_float(bound)
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                name,
                                fmt_labels(labels, &[("le", &le)]),
                                cum
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            name,
                            fmt_labels(labels, &[]),
                            trim_float(h.sum())
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            name,
                            fmt_labels(labels, &[]),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{k}=\"{v}\"");
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter_total("x_total"), 4);
        assert_eq!(a.get(), 4);
    }

    #[test]
    fn labeled_series_are_independent_and_total_sums_them() {
        let reg = MetricsRegistry::new();
        reg.counter_with("hits_total", &[("shard", "0")]).add(2);
        reg.counter_with("hits_total", &[("shard", "1")]).add(5);
        assert_eq!(reg.counter_total("hits_total"), 7);
        assert_eq!(reg.counter_with("hits_total", &[("shard", "0")]).get(), 2);
    }

    #[test]
    fn gauges_set_and_reset() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge_with("depth", &[("q", "a")]);
        g.set(4.5);
        assert_eq!(reg.gauge_value("depth", &[("q", "a")]), Some(4.5));
        reg.reset();
        assert_eq!(reg.gauge_value("depth", &[("q", "a")]), Some(0.0));
    }

    #[test]
    fn reset_preserves_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("y_total");
        c.add(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.counter_total("y_total"), 1);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("lat", &[], &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(500.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 555.0);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(10.0, 1), (100.0, 2), (f64::INFINITY, 3)]
        );
        h.reset();
        assert_eq!(h.count(), 0);
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn histogram_observe_is_compiled_out() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("lat", &[], &[10.0]);
        h.observe(5.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let reg = MetricsRegistry::new();
        reg.counter_with("b_total", &[("k", "v")]).add(2);
        reg.gauge("a_gauge").set(1.5);
        let text = reg.render_text();
        // Families render in name order.
        let a = text.find("# TYPE a_gauge gauge").expect("gauge family");
        let b = text.find("# TYPE b_total counter").expect("counter family");
        assert!(a < b, "{text}");
        assert!(text.contains("b_total{k=\"v\"} 2"), "{text}");
        assert!(text.contains("a_gauge 1.5"), "{text}");
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn render_text_histogram_has_inf_bucket_sum_and_count() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("q_ns", &[("index", "ih")], &[100.0]);
        h.observe(40.0);
        h.observe(400.0);
        let text = reg.render_text();
        assert!(
            text.contains("q_ns_bucket{index=\"ih\",le=\"100\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("q_ns_bucket{index=\"ih\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("q_ns_sum{index=\"ih\"} 440"), "{text}");
        assert!(text.contains("q_ns_count{index=\"ih\"} 2"), "{text}");
    }

    #[test]
    fn render_text_series_are_label_sorted() {
        let reg = MetricsRegistry::new();
        // Registered out of order on purpose.
        reg.counter_with("hits_total", &[("shard", "2")]).add(2);
        reg.counter_with("hits_total", &[("shard", "0")]).add(1);
        reg.counter_with("hits_total", &[("shard", "1")]).add(3);
        let text = reg.render_text();
        let s0 = text.find("shard=\"0\"").expect("shard 0");
        let s1 = text.find("shard=\"1\"").expect("shard 1");
        let s2 = text.find("shard=\"2\"").expect("shard 2");
        assert!(s0 < s1 && s1 < s2, "{text}");
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, reg.render_text());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("m");
        let _ = reg.gauge("m");
    }

    #[test]
    fn concurrent_bumps_do_not_lose_updates() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = reg.counter("conc_total");
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter_total("conc_total"), 80_000);
    }
}
