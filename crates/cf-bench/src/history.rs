//! The committed bench trajectory and the noise-aware regression watch.
//!
//! `repro bench --json` flattens its measurements into a
//! [`BenchRecord`] and appends it — one JSON object per line — to
//! `BENCH_history.jsonl`, which is committed to the repository. `repro
//! regress` then compares the newest record against a **median-of-N
//! baseline** over the previous records, with per-metric-kind
//! tolerances, and exits nonzero on regression; CI runs it on every PR.
//!
//! Two things keep the gate from crying wolf:
//!
//! * the baseline is the *median* over a window of previous runs, so a
//!   single noisy historical run cannot shift it;
//! * tolerances follow the metric's nature ([`MetricKind`], classified
//!   by name suffix): wall-clock numbers get a wide band (CI machines
//!   are noisy), page/node counts are deterministic and get a tight
//!   one, `*_speedup` ratios regress *downward*, and `*_identical`
//!   flags must simply stay true.

use cf_obs::Json;
use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;

/// One benchmark run, flattened to ordered `(name, value)` metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Run label (e.g. `"codec"`).
    pub label: String,
    /// Flat metrics, in emission order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    /// An empty record with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            metrics: Vec::new(),
        }
    }

    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Value of a metric by exact name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The record as one JSON object (`{"bench": label, "metrics":
    /// {...}}`), key order preserved.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::Str(self.label.clone())),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a record back from its JSON form.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let label = v
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("record missing \"bench\" label")?
            .to_owned();
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("record missing \"metrics\" object")?
            .iter()
            .map(|(n, v)| {
                v.as_f64()
                    .map(|v| (n.clone(), v))
                    .ok_or_else(|| format!("metric {n} is not a number"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { label, metrics })
    }
}

/// Appends `record` as one line to the JSONL history at `path`.
pub fn append_history(path: impl AsRef<Path>, record: &BenchRecord) -> io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record.to_json().render())
}

/// Loads every record of a JSONL history file, oldest first.
pub fn load_history(path: impl AsRef<Path>) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let v = Json::parse(line).map_err(|e| format!("history line {}: {e}", i + 1))?;
            BenchRecord::from_json(&v).map_err(|e| format!("history line {}: {e}", i + 1))
        })
        .collect()
}

/// How a metric regresses, inferred from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Wall-clock measurement (`*_ms`, `*_us`, `*_ns`): lower is
    /// better, wide tolerance (CI timing noise).
    Time,
    /// Deterministic count (`*_pages`, `*_nodes`, `*_subfields`):
    /// lower is better, tight tolerance.
    Count,
    /// Ratio where *higher* is better (`*_speedup`): regresses by
    /// dropping.
    Speedup,
    /// Boolean invariant (`*_identical`): must stay 1.
    Flag,
    /// Context (dataset sizes, query counts): never regresses.
    Info,
}

impl MetricKind {
    /// Classifies a metric by name — prefix families first, then
    /// suffix.
    ///
    /// Observability exports ride along in the history for trend
    /// inspection but must never gate a PR: windowed SLO quantiles
    /// (`slo_*`) move with the sliding window's phase, EXPLAIN
    /// snapshots (`explain_*`) describe a single arbitrary query,
    /// epoch age (`ingest_epoch_age_*`) is pure wall-clock scheduling
    /// noise, spatial heat (`heat_*`) describes where a workload
    /// landed, and replay aggregates (`replay_*`) describe whatever
    /// workload file was replayed. All these families are context, not
    /// performance.
    pub fn of(name: &str) -> Self {
        if name.starts_with("slo_")
            || name.starts_with("explain_")
            || name.starts_with("ingest_epoch_age_")
            || name.starts_with("heat_")
            || name.starts_with("replay_")
        {
            return Self::Info;
        }
        if name.ends_with("_ms") || name.ends_with("_us") || name.ends_with("_ns") {
            Self::Time
        } else if name.ends_with("_speedup") {
            Self::Speedup
        } else if name.ends_with("_identical") {
            Self::Flag
        } else if name.ends_with("_pages")
            || name.ends_with("_nodes")
            || name.ends_with("_subfields")
        {
            Self::Count
        } else {
            Self::Info
        }
    }
}

/// Per-metric comparison of the latest run against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Metric kind (decides direction and tolerance).
    pub kind: MetricKind,
    /// Median of the metric over the baseline window.
    pub baseline: f64,
    /// The latest run's value.
    pub current: f64,
    /// Relative tolerance applied.
    pub tolerance: f64,
    /// Whether the latest value regressed beyond tolerance.
    pub regressed: bool,
}

/// The regression verdict of [`compare`].
#[derive(Debug, Clone)]
pub struct RegressReport {
    /// Runs that formed the baseline window.
    pub baseline_runs: usize,
    /// Every compared metric, in the latest record's order.
    pub deltas: Vec<Delta>,
}

impl RegressReport {
    /// The metrics that regressed.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Whether the run passes the gate.
    pub fn ok(&self) -> bool {
        self.deltas.iter().all(|d| !d.regressed)
    }
}

impl fmt::Display for RegressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<42} {:>12} {:>12} {:>8}  verdict",
            "metric",
            format!("median(n={})", self.baseline_runs),
            "current",
            "tol"
        )?;
        for d in &self.deltas {
            if d.kind == MetricKind::Info {
                continue;
            }
            writeln!(
                f,
                "{:<42} {:>12.4} {:>12.4} {:>7.0}%  {}",
                d.name,
                d.baseline,
                d.current,
                d.tolerance * 100.0,
                if d.regressed { "REGRESSED" } else { "ok" }
            )?;
        }
        Ok(())
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Compares the newest record against a median baseline over up to
/// `window` previous records. Returns `None` when the history holds
/// fewer than two records (no baseline to gate against). Metrics
/// missing from the baseline window are skipped (new metrics enter the
/// gate once they have history).
pub fn compare(
    history: &[BenchRecord],
    window: usize,
    tol_time: f64,
    tol_count: f64,
) -> Option<RegressReport> {
    let (latest, previous) = history.split_last()?;
    if previous.is_empty() {
        return None;
    }
    let window = &previous[previous.len().saturating_sub(window.max(1))..];
    let deltas = latest
        .metrics
        .iter()
        .filter_map(|&(ref name, current)| {
            let samples: Vec<f64> = window.iter().filter_map(|r| r.get(name)).collect();
            if samples.is_empty() {
                return None;
            }
            let baseline = median(samples);
            let kind = MetricKind::of(name);
            // The absolute floor keeps near-zero baselines (0.1 pages,
            // sub-µs timings) from turning rounding jitter into a gate
            // failure.
            let (tolerance, regressed) = match kind {
                MetricKind::Time => (
                    tol_time,
                    current > baseline * (1.0 + tol_time) + 0.05 * baseline.abs().max(1.0),
                ),
                MetricKind::Count => (tol_count, current > baseline * (1.0 + tol_count) + 0.5),
                MetricKind::Speedup => (tol_time, current < baseline * (1.0 - tol_time)),
                MetricKind::Flag => (0.0, current < 1.0 && baseline >= 1.0),
                MetricKind::Info => (0.0, false),
            };
            Some(Delta {
                name: name.clone(),
                kind,
                baseline,
                current,
                tolerance,
                regressed,
            })
        })
        .collect();
    Some(RegressReport {
        baseline_runs: window.len(),
        deltas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, metrics: &[(&str, f64)]) -> BenchRecord {
        let mut r = BenchRecord::new(label);
        for &(n, v) in metrics {
            r.push(n, v);
        }
        r
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record("codec", &[("q_ms", 12.5), ("a_pages", 40.0)]);
        let back = BenchRecord::from_json(&r.to_json()).expect("parse");
        assert_eq!(back, r);
    }

    #[test]
    fn history_append_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("cfbench_hist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("BENCH_history.jsonl");
        for i in 0..3 {
            append_history(&path, &record("codec", &[("q_ms", 10.0 + i as f64)])).expect("append");
        }
        let loaded = load_history(&path).expect("load");
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2].get("q_ms"), Some(12.0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn metric_kinds_classify_by_suffix() {
        assert_eq!(MetricKind::of("oocore_q2_cold_ms"), MetricKind::Time);
        assert_eq!(MetricKind::of("ingest_update_us"), MetricKind::Time);
        assert_eq!(
            MetricKind::of("codec_fig8a_qi0.01_raw_pages"),
            MetricKind::Count
        );
        assert_eq!(MetricKind::of("x_filter_nodes"), MetricKind::Count);
        assert_eq!(
            MetricKind::of("codec_fig8a_qi0.01_pages_speedup"),
            MetricKind::Speedup
        );
        assert_eq!(
            MetricKind::of("codec_fig8a_qi0.01_identical"),
            MetricKind::Flag
        );
        assert_eq!(MetricKind::of("cells"), MetricKind::Info);
    }

    #[test]
    fn observability_prefixes_never_gate_despite_time_suffixes() {
        // Prefix rules beat the `_us`/`_ns` suffix: these families are
        // context, not performance.
        assert_eq!(MetricKind::of("slo_p99_us"), MetricKind::Info);
        assert_eq!(MetricKind::of("slo_p50_us"), MetricKind::Info);
        assert_eq!(MetricKind::of("explain_total_ns"), MetricKind::Info);
        assert_eq!(MetricKind::of("explain_refine_pages"), MetricKind::Info);
        assert_eq!(MetricKind::of("ingest_epoch_age_ns"), MetricKind::Info);
        assert_eq!(
            MetricKind::of("heat_examined_total_pages"),
            MetricKind::Info
        );
        assert_eq!(MetricKind::of("replay_mean_pages"), MetricKind::Info);
        assert_eq!(MetricKind::of("replay_queries_ms"), MetricKind::Info);
        // ... and a 100x jump in any of them passes the gate.
        let history = vec![
            record("a", &[("slo_p99_us", 50.0), ("ingest_epoch_age_ns", 1e6)]),
            record("b", &[("slo_p99_us", 50.0), ("ingest_epoch_age_ns", 1e6)]),
            record("c", &[("slo_p99_us", 5000.0), ("ingest_epoch_age_ns", 1e8)]),
        ];
        assert!(compare(&history, 5, 0.30, 0.02).expect("baseline").ok());
        // Other ingest gauges keep their ordinary classification.
        assert_eq!(MetricKind::of("ingest_repack_lag_ns"), MetricKind::Time);
    }

    #[test]
    fn needs_two_records_for_a_baseline() {
        assert!(compare(&[], 5, 0.3, 0.02).is_none());
        assert!(compare(&[record("a", &[("x_ms", 1.0)])], 5, 0.3, 0.02).is_none());
    }

    #[test]
    fn median_baseline_absorbs_one_noisy_run() {
        // One 3x-slower historical outlier must not move the gate.
        let history = vec![
            record("a", &[("q_ms", 10.0)]),
            record("b", &[("q_ms", 30.0)]), // the noisy run
            record("c", &[("q_ms", 10.2)]),
            record("d", &[("q_ms", 11.0)]), // latest: fine vs median 10.2
        ];
        let report = compare(&history, 5, 0.30, 0.02).expect("baseline");
        assert_eq!(report.baseline_runs, 3);
        assert!(report.ok(), "{report}");
        let d = &report.deltas[0];
        assert!((d.baseline - 10.2).abs() < 1e-12);
    }

    #[test]
    fn time_regression_trips_the_gate() {
        let history = vec![
            record("a", &[("q_ms", 10.0)]),
            record("b", &[("q_ms", 10.0)]),
            record("c", &[("q_ms", 20.0)]), // 2x slower: beyond 30 %
        ];
        let report = compare(&history, 5, 0.30, 0.02).expect("baseline");
        assert!(!report.ok());
        assert_eq!(report.regressions().len(), 1);
    }

    #[test]
    fn count_regression_has_a_tight_band_but_an_absolute_floor() {
        let base = vec![
            record("a", &[("p_pages", 100.0), ("tiny_pages", 0.2)]),
            record("b", &[("p_pages", 100.0), ("tiny_pages", 0.2)]),
        ];
        // 3 % more pages on a 100-page baseline: regression.
        let mut h = base.clone();
        h.push(record("c", &[("p_pages", 103.0), ("tiny_pages", 0.2)]));
        assert!(!compare(&h, 5, 0.30, 0.02).expect("baseline").ok());
        // +0.3 pages on a 0.2-page baseline: rounding noise, not a
        // regression.
        let mut h = base;
        h.push(record("c", &[("p_pages", 100.0), ("tiny_pages", 0.5)]));
        assert!(compare(&h, 5, 0.30, 0.02).expect("baseline").ok());
    }

    #[test]
    fn speedup_regresses_downward_and_flags_must_hold() {
        let (speedup, flag) = ("codec_pages_speedup", "codec_identical");
        let history = vec![
            record("a", &[(speedup, 3.0), (flag, 1.0)]),
            record("b", &[(speedup, 3.0), (flag, 1.0)]),
            record("c", &[(speedup, 1.5), (flag, 0.0)]),
        ];
        let report = compare(&history, 5, 0.30, 0.02).expect("baseline");
        let names: Vec<&str> = report
            .regressions()
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(names, vec![speedup, flag]);
        // A *higher* speedup is never a regression.
        let history = vec![
            record("a", &[(speedup, 3.0)]),
            record("b", &[(speedup, 4.5)]),
        ];
        assert!(compare(&history, 5, 0.30, 0.02).expect("baseline").ok());
    }

    #[test]
    fn new_metrics_without_history_are_skipped() {
        let history = vec![
            record("a", &[("q_ms", 10.0)]),
            record("b", &[("q_ms", 10.0), ("brand_new_ms", 99.0)]),
        ];
        let report = compare(&history, 5, 0.30, 0.02).expect("baseline");
        assert!(report.ok());
        assert_eq!(report.deltas.len(), 1, "only q_ms has a baseline");
    }
}
