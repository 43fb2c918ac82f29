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
//! * [`Gauge`] — an `f64` that goes up and down (queue depth, delta
//!   records).
//! * [`Histogram`] — fixed bucket bounds chosen at registration, atomic
//!   bucket counts; no allocation after registration.
//! * [`Tracer`] — one bounded ring of per-query [`ExplainRecord`]s;
//!   slow-query reports, recent EXPLAINs and `.wrk` flight records are
//!   views derived from it.
//!
//! Handles returned by the registry are `Arc`-backed and cheap to
//! clone; layers that sit on a query hot path (the R-tree search loop,
//! the disk manager) cache their handles at construction time so the
//! per-operation cost is a single atomic add. Layers that run once per
//! query (the value indexes) look handles up by name; lookups are
//! allocation-free once a series exists.
//!
//! # Stripes
//!
//! Counters and histograms are observed per page read, and the two
//! halves of a split query read on two cores. So each keeps four
//! copies (stripes) of its state, each on its own 128-byte line, and a
//! thread writes only the stripe it leased on its first observation:
//! the stripe the fewest live threads hold, given back when the thread
//! exits. Two threads share a stripe only when more than four observe
//! at once. Readers (`get`, `count`, `sum`, the registry's
//! views and [`MetricsRegistry::render_text`]) add the stripes up, and
//! a reset zeroes all of them. A thread's observations land in one
//! stripe, so what a single thread observed sums to the same `f64`
//! bits as one shared sum would.
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
mod json;
pub mod record;
mod trace;

pub use explain::{ExplainRecord, Label};
pub use json::{Json, JsonError};
pub use record::{answer_digest, decode_wrk, encode_wrk, WorkloadRecord, WORKLOAD_VERSION};
pub use trace::{Stopwatch, Tracer, QUERY_RING_CAPACITY};

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Copies of each counter's and histogram's state; a thread writes one
/// (see the module docs). Four keep a split query's two halves and a
/// few batch workers apart; each costs 128 bytes a counter and a
/// histogram, and a 32 768-page pool alone has 256 counters.
const STRIPES: usize = 4;

/// Live threads per stripe.
static HOLDERS: Mutex<[usize; STRIPES]> = Mutex::new([0; STRIPES]);

thread_local! {
    /// This thread's stripe; `STRIPES` until its first observation.
    static STRIPE: Cell<usize> = const { Cell::new(STRIPES) };
    /// Gives the stripe back when the thread exits.
    static LEASE: Lease = Lease::take();
}

/// A thread's hold on one stripe.
struct Lease(usize);

impl Lease {
    fn take() -> Self {
        let mut holders = HOLDERS.lock().unwrap_or_else(PoisonError::into_inner);
        let pick = least_held(&holders);
        holders[pick] += 1;
        Lease(pick)
    }
}

/// The stripe the fewest live threads hold, the lowest on a tie.
fn least_held(holders: &[usize; STRIPES]) -> usize {
    let mut pick = 0;
    for (i, &n) in holders.iter().enumerate() {
        if n < holders[pick] {
            pick = i;
        }
    }
    pick
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut holders = HOLDERS.lock().unwrap_or_else(PoisonError::into_inner);
        holders[self.0] -= 1;
    }
}

/// The calling thread's stripe.
#[inline]
fn stripe() -> usize {
    STRIPE.with(|cell| match cell.get() {
        i if i < STRIPES => i,
        _ => lease(cell),
    })
}

#[cold]
fn lease(cell: &Cell<usize>) -> usize {
    // A thread already tearing down its locals writes stripe 0.
    let i = LEASE.try_with(|lease| lease.0).unwrap_or(0);
    cell.set(i);
    i
}

/// One stripe of a counter, alone on its cache lines.
#[derive(Default)]
#[repr(align(128))]
struct CounterStripe(AtomicU64);

/// A monotonically increasing counter. Cloning shares the underlying
/// stripes.
#[derive(Clone, Default)]
pub struct Counter(Arc<[CounterStripe; STRIPES]>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value: the sum of the stripes.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.0.load(Ordering::Relaxed)))
    }

    /// Resets to zero (used by warmup-style stat resets; the counter
    /// stays monotonic between resets).
    pub fn reset(&self) {
        for s in self.0.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
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

/// Buckets a histogram may have: one per bound plus the +Inf overflow
/// bucket.
const MAX_BUCKETS: usize = NS_BUCKETS.len() + 1;

/// One stripe of a histogram, alone on its cache lines.
#[repr(align(128))]
struct HistogramStripe {
    /// One count per bucket; those past the histogram's own buckets
    /// stay zero.
    counts: [AtomicU64; MAX_BUCKETS],
    /// Sum of the values this stripe observed, stored as `f64` bits
    /// (a CAS loop on observe, uncontended while no other thread holds
    /// the stripe).
    sum_bits: AtomicU64,
}

struct HistogramInner {
    bounds: Vec<f64>,
    stripes: [HistogramStripe; STRIPES],
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
        assert!(
            bounds.len() < MAX_BUCKETS,
            "a histogram has at most {} bounds",
            MAX_BUCKETS - 1
        );
        Self(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            stripes: std::array::from_fn(|_| HistogramStripe {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_bits: AtomicU64::new(0),
            }),
        }))
    }

    /// Bucket `i`'s count over all stripes.
    fn bucket(&self, i: usize) -> u64 {
        self.0
            .stripes
            .iter()
            .map(|s| s.counts[i].load(Ordering::Relaxed))
            .sum()
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
        let stripe = &inner.stripes[stripe()];
        stripe.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = stripe.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match stripe.sum_bits.compare_exchange_weak(
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
        (0..=self.0.bounds.len()).map(|i| self.bucket(i)).sum()
    }

    /// Sum of all observed values: the stripes' sums, added in stripe
    /// order.
    pub fn sum(&self) -> f64 {
        self.0.stripes.iter().fold(0.0, |sum, s| {
            sum + f64::from_bits(s.sum_bits.load(Ordering::Relaxed))
        })
    }

    /// Clears all buckets and the sum.
    pub fn reset(&self) {
        for s in &self.0.stripes {
            for c in &s.counts {
                c.store(0, Ordering::Relaxed);
            }
            s.sum_bits.store(0, Ordering::Relaxed);
        }
    }

    /// `(upper_bound, cumulative_count)` per bucket, ending with the
    /// `+Inf` bucket.
    fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        (0..=self.0.bounds.len())
            .map(|i| {
                cum += self.bucket(i);
                let bound = self.0.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                (bound, cum)
            })
            .collect()
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
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            families: Mutex::new(BTreeMap::new()),
            tracer: Tracer::default(),
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
    fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
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
    fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
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
    /// ring. Handles stay valid; tracer enablement and
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

    #[test]
    fn eight_threads_count_exactly_and_reset_zeroes_every_stripe() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("striped_total");
        let h = reg.histogram_with("striped_ns", &[], &[10.0]);
        // All eight lease their stripes before any of them ends.
        let all_leased = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (c, h, all_leased) = (c.clone(), h.clone(), &all_leased);
                scope.spawn(move || {
                    stripe();
                    all_leased.wait();
                    for i in 0..100_000u64 {
                        c.inc();
                        h.observe(((i + t) % 20) as f64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 800_000);
        assert_eq!(reg.counter_total("striped_total"), 800_000);
        if cfg!(not(feature = "obs-off")) {
            assert_eq!(h.count(), 800_000);
            assert_eq!(h.cumulative_buckets()[0], (10.0, 440_000));
            // Each thread's sum is an exact integer well below 2^53.
            let sum: u64 = (0..8u64)
                .map(|t| (0..100_000u64).map(|i| (i + t) % 20).sum::<u64>())
                .sum();
            assert_eq!(h.sum(), sum as f64);
            let want = format!("striped_ns_count {}", 800_000);
            assert!(reg.render_text().contains(&want));
        }
        // Eight live threads wrote several stripes; each is zeroed.
        assert!(
            c.0.iter()
                .filter(|s| s.0.load(Ordering::Relaxed) > 0)
                .count()
                > 1
        );
        reg.reset();
        assert!(c.0.iter().all(|s| s.0.load(Ordering::Relaxed) == 0));
        assert!(h.0.stripes.iter().all(|s| {
            s.sum_bits.load(Ordering::Relaxed) == 0
                && s.counts.iter().all(|c| c.load(Ordering::Relaxed) == 0)
        }));
        assert_eq!((c.get(), h.count(), h.sum()), (0, 0, 0.0));
        assert_eq!(reg.histogram_stats("striped_ns", &[]), Some((0, 0.0)));
    }

    #[test]
    fn a_new_thread_leases_the_least_held_stripe() {
        // The caller of a split query holds stripe 0: its helper, a new
        // thread each query, takes stripe 1 every time.
        let mut holders = [0; STRIPES];
        holders[0] = 1;
        assert_eq!(least_held(&holders), 1);
        // A batch of workers spreads over the free stripes first.
        holders = [1, 1, 0, 1];
        assert_eq!(least_held(&holders), 2);
        // Past four live threads, the least shared stripe.
        holders = [2, 2, 1, 1];
        assert_eq!(least_held(&holders), 2);
        // A thread keeps its stripe.
        let mine = stripe();
        assert!(mine < STRIPES);
        assert_eq!(std::iter::repeat_with(stripe).take(100).max(), Some(mine));
    }
}
