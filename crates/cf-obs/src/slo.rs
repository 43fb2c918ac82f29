//! Sliding-window latency SLO tracking.
//!
//! A [`SloTracker`] keeps a ring of [`SLO_WINDOW_SLOTS`] fixed-bucket
//! latency histograms. The ring is rotated on a **logical clock** — one
//! tick per recorded observation, a new slot every `rotate_every`
//! ticks — so the window semantics are deterministic and independent of
//! wall time: the "window" is always the last
//! `SLO_WINDOW_SLOTS × rotate_every` observations (at most; recycled
//! slots are cleared lazily on first write).
//!
//! Windowed quantiles are estimated by merging the bucket counts of
//! every live slot and walking the cumulative distribution:
//!
//! > `q(φ)` = the upper bound of the first bucket whose cumulative
//! > count reaches `⌈φ · total⌉`; an estimate landing in the overflow
//! > (+Inf) bucket reports 4× the last finite bound (one more step of
//! > the power-of-4 bucket ladder).
//!
//! That rule is exactly recomputable offline from the bucket counts the
//! tracker exports — `/slo` serves them and the property tests in this
//! module re-derive the quantile independently.
//!
//! Latency **objectives** (`name`, `threshold_ns`, `target`) ride the
//! same observation stream: each observation above the threshold bumps
//! a breach counter, and the burn rate reports how fast the error
//! budget `1 − target` is being consumed (burn rate 1.0 = exactly on
//! budget, >1 = burning faster than the objective allows).
//!
//! When **adaptive slow-query capture** is enabled the tracker stores
//! the current windowed p99 into the tracer's slow-threshold cell at
//! every slot rotation, so the profiler traces exactly the queries
//! slower than the last window's p99 instead of a hand-tuned constant.
//!
//! Under `obs-off`, [`SloTracker::record_ns`] compiles to a no-op and
//! every estimate reports zero.

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Number of histogram slots in the sliding window.
pub const SLO_WINDOW_SLOTS: usize = 8;

/// Default observations per slot before the ring rotates.
pub const SLO_ROTATE_EVERY: u64 = 256;

/// Default floor for the adaptive slow-query threshold (1 µs): keeps a
/// cold window from tracing literally every query.
pub const SLO_ADAPTIVE_FLOOR_NS: u64 = 1_000;

/// One latency objective: "fraction `target` of queries complete
/// within `threshold_ns`".
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    /// Objective name, e.g. `"p99-2ms"`.
    pub name: String,
    /// Latency threshold in nanoseconds.
    pub threshold_ns: u64,
    /// Target fraction in `(0, 1)`, e.g. `0.99`.
    pub target: f64,
}

#[derive(Debug)]
struct ObjectiveState {
    objective: SloObjective,
    observed: AtomicU64,
    breaches: AtomicU64,
}

#[derive(Debug)]
struct SloInner {
    /// Finite bucket upper bounds (ns), ascending; an implicit +Inf
    /// overflow bucket follows.
    bounds: Vec<f64>,
    /// `SLO_WINDOW_SLOTS × (bounds.len() + 1)` bucket counters.
    counts: Vec<AtomicU64>,
    /// Which logical window each slot currently holds (`u64::MAX` =
    /// untouched); used to clear recycled slots lazily.
    slot_window: Vec<AtomicU64>,
    /// Logical clock: one tick per observation.
    clock: AtomicU64,
    rotate_every: u64,
    objectives: RwLock<Vec<ObjectiveState>>,
    adaptive: AtomicBool,
    /// The tracer's slow-threshold cell, when bound.
    threshold_cell: Mutex<Option<Arc<AtomicU64>>>,
}

/// Sliding-window latency tracker; see the module docs. Cheap to clone
/// (shared state behind an `Arc`).
#[derive(Debug, Clone)]
pub struct SloTracker {
    inner: Arc<SloInner>,
}

impl Default for SloTracker {
    fn default() -> Self {
        Self::new(&crate::NS_BUCKETS)
    }
}

impl SloTracker {
    /// Builds a tracker over the given finite bucket bounds (ns).
    pub fn new(bounds: &[f64]) -> Self {
        Self::with_rotation(bounds, SLO_ROTATE_EVERY)
    }

    /// Builds a tracker rotating every `rotate_every` observations.
    pub fn with_rotation(bounds: &[f64], rotate_every: u64) -> Self {
        let nb = bounds.len() + 1;
        Self {
            inner: Arc::new(SloInner {
                bounds: bounds.to_vec(),
                counts: (0..SLO_WINDOW_SLOTS * nb)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                slot_window: (0..SLO_WINDOW_SLOTS)
                    .map(|_| AtomicU64::new(u64::MAX))
                    .collect(),
                clock: AtomicU64::new(0),
                rotate_every: rotate_every.max(1),
                objectives: RwLock::new(Vec::new()),
                adaptive: AtomicBool::new(false),
                threshold_cell: Mutex::new(None),
            }),
        }
    }

    /// Records one query latency. No-op under `obs-off`.
    #[cfg(not(feature = "obs-off"))]
    pub fn record_ns(&self, ns: u64) {
        let inner = &self.inner;
        let tick = inner.clock.fetch_add(1, Ordering::Relaxed);
        let window = tick / inner.rotate_every;
        let slot = (window as usize) % SLO_WINDOW_SLOTS;
        let nb = inner.bounds.len() + 1;
        if inner.slot_window[slot].swap(window, Ordering::Relaxed) != window {
            // First write into a recycled slot: clear its expired
            // counts, and drive the adaptive threshold off the window
            // that just closed.
            for c in &inner.counts[slot * nb..(slot + 1) * nb] {
                c.store(0, Ordering::Relaxed);
            }
            self.refresh_adaptive_threshold();
        }
        let v = ns as f64;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.counts[slot * nb + idx].fetch_add(1, Ordering::Relaxed);
        for o in inner.objectives.read().expect("objectives poisoned").iter() {
            o.observed.fetch_add(1, Ordering::Relaxed);
            if ns > o.objective.threshold_ns {
                o.breaches.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one query latency. No-op under `obs-off`.
    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn record_ns(&self, _ns: u64) {}

    /// Total observations ever recorded (the logical clock).
    pub fn observations(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Observations per slot before the ring rotates.
    pub fn rotate_every(&self) -> u64 {
        self.inner.rotate_every
    }

    /// Cumulative bucket counts merged across every live window slot:
    /// `(upper_bound_ns, cumulative_count)` pairs ending with the +Inf
    /// overflow bucket. This is exactly the distribution the windowed
    /// quantiles are computed from.
    pub fn windowed_cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let inner = &self.inner;
        let nb = inner.bounds.len() + 1;
        let mut merged = vec![0u64; nb];
        for slot in 0..SLO_WINDOW_SLOTS {
            // Skip slots still holding an expired window (they are
            // cleared lazily on their next write).
            let held = inner.slot_window[slot].load(Ordering::Relaxed);
            if held == u64::MAX {
                continue;
            }
            let current = inner.clock.load(Ordering::Relaxed) / inner.rotate_every;
            if current >= SLO_WINDOW_SLOTS as u64 && held + (SLO_WINDOW_SLOTS as u64) <= current {
                continue;
            }
            for (i, m) in merged.iter_mut().enumerate() {
                *m += inner.counts[slot * nb + i].load(Ordering::Relaxed);
            }
        }
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(nb);
        for (i, m) in merged.iter().enumerate() {
            cum += m;
            let bound = inner.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cum));
        }
        out
    }

    /// Windowed quantile estimate in nanoseconds for `q ∈ (0, 1]`:
    /// the upper bound of the first bucket whose cumulative count
    /// reaches `⌈q · total⌉`. The +Inf overflow bucket reports 4× the
    /// last finite bound. Returns 0 on an empty window.
    pub fn windowed_quantile_ns(&self, q: f64) -> u64 {
        let buckets = self.windowed_cumulative_buckets();
        let total = buckets.last().map(|&(_, c)| c).unwrap_or(0);
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        for &(bound, cum) in &buckets {
            if cum >= rank {
                if bound.is_finite() {
                    return bound as u64;
                }
                let last = self.inner.bounds.last().copied().unwrap_or(0.0);
                return (last * 4.0) as u64;
            }
        }
        0
    }

    /// Windowed p50 estimate (ns).
    pub fn p50_ns(&self) -> u64 {
        self.windowed_quantile_ns(0.50)
    }

    /// Windowed p99 estimate (ns).
    pub fn p99_ns(&self) -> u64 {
        self.windowed_quantile_ns(0.99)
    }

    /// Adds one latency objective, keeping existing ones.
    pub fn add_objective(&self, name: &str, threshold_ns: u64, target: f64) {
        self.inner
            .objectives
            .write()
            .expect("objectives poisoned")
            .push(ObjectiveState {
                objective: SloObjective {
                    name: name.to_string(),
                    threshold_ns,
                    target,
                },
                observed: AtomicU64::new(0),
                breaches: AtomicU64::new(0),
            });
    }

    /// `(objective, observed, breaches, burn_rate)` for every
    /// configured objective.
    pub fn objective_stats(&self) -> Vec<(SloObjective, u64, u64, f64)> {
        self.inner
            .objectives
            .read()
            .expect("objectives poisoned")
            .iter()
            .map(|o| {
                let observed = o.observed.load(Ordering::Relaxed);
                let breaches = o.breaches.load(Ordering::Relaxed);
                let budget = 1.0 - o.objective.target;
                let burn = if observed == 0 || budget <= 0.0 {
                    0.0
                } else {
                    (breaches as f64 / observed as f64) / budget
                };
                (o.objective.clone(), observed, breaches, burn)
            })
            .collect()
    }

    /// Binds the tracer's slow-threshold cell so adaptive mode can
    /// steer it; called by the registry at construction.
    pub fn bind_threshold(&self, cell: Arc<AtomicU64>) {
        *self.inner.threshold_cell.lock().expect("cell poisoned") = Some(cell);
    }

    /// Enables or disables the adaptive slow-query threshold (trace
    /// queries slower than the current windowed p99, refreshed at every
    /// slot rotation).
    pub fn set_adaptive(&self, on: bool) {
        self.inner.adaptive.store(on, Ordering::Relaxed);
        if on {
            self.refresh_adaptive_threshold();
        }
    }

    /// Whether the adaptive threshold is on.
    pub fn adaptive(&self) -> bool {
        self.inner.adaptive.load(Ordering::Relaxed)
    }

    /// Recomputes the windowed p99 and stores it into the bound
    /// slow-threshold cell, when adaptive mode is on and the window has
    /// data. Invoked automatically at slot rotations.
    pub fn refresh_adaptive_threshold(&self) {
        if !self.adaptive() {
            return;
        }
        let p99 = self.p99_ns();
        if p99 == 0 {
            return;
        }
        if let Some(cell) = self
            .inner
            .threshold_cell
            .lock()
            .expect("cell poisoned")
            .as_ref()
        {
            cell.store(p99.max(SLO_ADAPTIVE_FLOOR_NS), Ordering::Relaxed);
        }
    }

    /// The currently bound slow-threshold value, if a cell is bound.
    pub fn bound_threshold_ns(&self) -> Option<u64> {
        self.inner
            .threshold_cell
            .lock()
            .expect("cell poisoned")
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Clears every slot, the logical clock, and objective burn
    /// counters; configuration (objectives, adaptive mode, binding) is
    /// preserved.
    pub fn reset(&self) {
        let inner = &self.inner;
        for c in &inner.counts {
            c.store(0, Ordering::Relaxed);
        }
        for w in &inner.slot_window {
            w.store(u64::MAX, Ordering::Relaxed);
        }
        inner.clock.store(0, Ordering::Relaxed);
        for o in inner.objectives.read().expect("objectives poisoned").iter() {
            o.observed.store(0, Ordering::Relaxed);
            o.breaches.store(0, Ordering::Relaxed);
        }
    }

    /// Full JSON snapshot: window geometry, merged bucket counts (the
    /// inputs to the quantile rule), p50/p99 estimates, objectives with
    /// burn rates, and the adaptive-threshold state. Served at `/slo`.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .windowed_cumulative_buckets()
            .into_iter()
            .map(|(bound, cum)| {
                let le = if bound.is_finite() {
                    Json::Num(bound)
                } else {
                    Json::Str("+Inf".to_string())
                };
                Json::obj([("le", le), ("cumulative", Json::Num(cum as f64))])
            })
            .collect::<Vec<_>>();
        let objectives = self
            .objective_stats()
            .into_iter()
            .map(|(o, observed, breaches, burn)| {
                Json::obj([
                    ("name", Json::Str(o.name)),
                    ("threshold_ns", Json::Num(o.threshold_ns as f64)),
                    ("target", Json::Num(o.target)),
                    ("observed", Json::Num(observed as f64)),
                    ("breaches", Json::Num(breaches as f64)),
                    ("burn_rate", Json::Num(burn)),
                ])
            })
            .collect::<Vec<_>>();
        let threshold = match self.bound_threshold_ns() {
            Some(ns) if ns != u64::MAX => Json::Num(ns as f64),
            _ => Json::Null,
        };
        Json::obj([
            (
                "window",
                Json::obj([
                    ("slots", Json::Num(SLO_WINDOW_SLOTS as f64)),
                    ("rotate_every", Json::Num(self.inner.rotate_every as f64)),
                    ("observations", Json::Num(self.observations() as f64)),
                ]),
            ),
            ("buckets", Json::Arr(buckets)),
            ("p50_ns", Json::Num(self.p50_ns() as f64)),
            ("p99_ns", Json::Num(self.p99_ns() as f64)),
            ("objectives", Json::Arr(objectives)),
            ("adaptive", Json::Bool(self.adaptive())),
            ("slow_threshold_ns", threshold),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    mod live {
        use super::super::*;

        /// Deterministic splitmix64 for dependency-free randomized
        /// cases.
        struct Rng(u64);
        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }

        /// Offline re-derivation of the documented quantile rule from
        /// an exported `/slo` JSON document — intentionally independent
        /// of the tracker's own implementation.
        fn offline_quantile_ns(doc: &Json, q: f64, last_finite: f64) -> u64 {
            let buckets = doc.get("buckets").and_then(Json::as_arr).expect("buckets");
            let total = buckets
                .last()
                .and_then(|b| b.get("cumulative"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64;
            if total == 0 {
                return 0;
            }
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            for b in buckets {
                let cum = b.get("cumulative").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                if cum >= rank {
                    return match b.get("le").and_then(Json::as_f64) {
                        Some(bound) => bound as u64,
                        None => (last_finite * 4.0) as u64, // "+Inf"
                    };
                }
            }
            0
        }

        #[test]
        fn quantiles_match_offline_recomputation_from_exported_buckets() {
            // Property test (seeded randomized cases): for arbitrary
            // observation streams, the p50/p99 the tracker reports must
            // equal the quantile recomputed offline from the exported
            // bucket counts using the documented rule.
            let mut rng = Rng(0x5E2E_0009);
            for case in 0..64 {
                let tracker = SloTracker::with_rotation(&crate::NS_BUCKETS, 64);
                let n = 1 + (rng.next() % 2_000) as usize;
                for _ in 0..n {
                    // Mix scales so every bucket region gets traffic.
                    let ns = match rng.next() % 4 {
                        0 => rng.next() % 1_000,
                        1 => rng.next() % 100_000,
                        2 => rng.next() % 50_000_000,
                        _ => rng.next() % 20_000_000_000, // overflow bucket too
                    };
                    tracker.record_ns(ns);
                }
                let doc = Json::parse(&tracker.to_json().render()).expect("valid json");
                let last = *crate::NS_BUCKETS.last().expect("bounds");
                for &q in &[0.5, 0.9, 0.99] {
                    let offline = offline_quantile_ns(&doc, q, last);
                    let online = tracker.windowed_quantile_ns(q);
                    assert_eq!(online, offline, "case {case} q={q} n={n}");
                }
                assert_eq!(
                    doc.get("p99_ns").and_then(Json::as_f64).map(|v| v as u64),
                    Some(tracker.p99_ns()),
                    "case {case}"
                );
            }
        }

        #[test]
        fn window_slides_old_observations_out() {
            // rotate_every=4, 8 slots → window = last ≤32 observations.
            let tracker = SloTracker::with_rotation(&crate::NS_BUCKETS, 4);
            // Fill the whole ring with slow observations...
            for _ in 0..32 {
                tracker.record_ns(1_000_000_000);
            }
            assert!(tracker.p50_ns() >= 1_000_000_000);
            // ...then overwrite every slot with fast ones.
            for _ in 0..32 {
                tracker.record_ns(100);
            }
            assert!(
                tracker.p99_ns() <= 1_024,
                "old slow observations must have rotated out, p99={}",
                tracker.p99_ns()
            );
        }

        #[test]
        fn burn_rate_measures_budget_consumption() {
            let tracker = SloTracker::new(&crate::NS_BUCKETS);
            tracker.add_objective("p90-1us", 1_000, 0.90);
            // 10 observations, 5 breaches → breach ratio 0.5, budget
            // 0.1 → burn rate 5.0.
            for _ in 0..5 {
                tracker.record_ns(500);
            }
            for _ in 0..5 {
                tracker.record_ns(2_000);
            }
            let stats = tracker.objective_stats();
            assert_eq!(stats.len(), 1);
            let (_, observed, breaches, burn) = (&stats[0].0, stats[0].1, stats[0].2, stats[0].3);
            assert_eq!(observed, 10);
            assert_eq!(breaches, 5);
            assert!((burn - 5.0).abs() < 1e-9, "burn={burn}");
        }

        #[test]
        fn adaptive_threshold_tracks_windowed_p99() {
            let cell = Arc::new(AtomicU64::new(u64::MAX));
            let tracker = SloTracker::with_rotation(&crate::NS_BUCKETS, 8);
            tracker.bind_threshold(cell.clone());
            tracker.set_adaptive(true);
            for _ in 0..64 {
                tracker.record_ns(3_000_000); // ~3 ms
            }
            // At least one rotation happened, so the cell follows p99.
            let got = cell.load(Ordering::Relaxed);
            assert_ne!(got, u64::MAX);
            assert_eq!(got, tracker.p99_ns().max(SLO_ADAPTIVE_FLOOR_NS));
        }

        #[test]
        fn reset_clears_data_but_keeps_config() {
            let tracker = SloTracker::new(&crate::NS_BUCKETS);
            tracker.add_objective("o", 100, 0.5);
            tracker.set_adaptive(true);
            tracker.record_ns(1_000);
            tracker.reset();
            assert_eq!(tracker.observations(), 0);
            assert_eq!(tracker.p99_ns(), 0);
            assert!(tracker.adaptive());
            assert_eq!(tracker.objective_stats()[0].1, 0);
        }
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn tracker_is_inert_under_obs_off() {
        let tracker = SloTracker::default();
        tracker.record_ns(1_000_000);
        assert_eq!(tracker.observations(), 0);
        assert_eq!(tracker.p99_ns(), 0);
        let doc = Json::parse(&tracker.to_json().render()).expect("valid json");
        assert_eq!(doc.get("p99_ns").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn empty_window_reports_zero() {
        let tracker = SloTracker::default();
        assert_eq!(tracker.p50_ns(), 0);
        assert_eq!(tracker.p99_ns(), 0);
        let buckets = tracker.windowed_cumulative_buckets();
        assert_eq!(buckets.last().map(|&(_, c)| c), Some(0));
    }
}
