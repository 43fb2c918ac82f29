//! Machine-readable exporters for the telemetry plane.
//!
//! Everything the registry and tracer collect can leave the process in
//! three formats:
//!
//! * **Chrome trace JSON** ([`chrome_trace_json`]) — the tracer's
//!   event view as a `chrome://tracing` / Perfetto-loadable document.
//!   Span events carry only durations (recording wall-clock start
//!   times would make snapshots non-reproducible), so the exporter
//!   *lays the trace out*: each query gets its own track (`tid`), and
//!   within a query, phases at the same nesting depth are placed
//!   end-to-end. The output is a pure function of the event list —
//!   byte-identical across runs for the same events, which is what the
//!   golden-file tests pin.
//! * **JSONL event log** ([`EventLog`]) — one JSON object per line,
//!   appended to a file with size-based rotation, for shipping into
//!   log pipelines.
//! * **Prometheus text** — rendered by
//!   [`MetricsRegistry::render_text`](crate::MetricsRegistry::render_text)
//!   and parsed back by [`parse_prometheus`] (the `fielddb top`
//!   one-shot watch view scrapes and re-renders it).
//!
//! In-process, the [`EventJournal`] buffers structured lifecycle events
//! (epoch published, repack start/end, run deferred/reclaimed) in a
//! bounded ring until a CLI or exporter drains them into an
//! [`EventLog`].

use crate::explain::ExplainRecord;
use crate::json::Json;
use crate::trace::TraceEvent;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One span event as a Chrome-trace "complete" (`"ph":"X"`) event.
/// `ts`/`dur` are microseconds, per the trace-event format.
fn chrome_event(e: &TraceEvent, ts_us: f64) -> Json {
    Json::obj([
        ("name", Json::Str(e.phase.to_owned())),
        ("cat", Json::Str("query".into())),
        ("ph", Json::Str("X".into())),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(e.query_id as f64)),
        ("ts", Json::Num(ts_us)),
        ("dur", Json::Num(e.nanos as f64 / 1e3)),
        (
            "args",
            Json::obj([
                ("query_id", Json::Num(e.query_id as f64)),
                ("pages", Json::Num(e.pages as f64)),
                ("depth", Json::Num(e.depth as f64)),
            ]),
        ),
    ])
}

/// Lays out the event ring as Chrome-trace events (see module docs for
/// the deterministic layout rule) without the surrounding document.
fn chrome_events(events: &[TraceEvent]) -> Vec<Json> {
    // Per-query cursor stack: cursor[d] is where the next depth-d phase
    // of that query starts, in nanoseconds.
    let mut cursors: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let stack = cursors.entry(e.query_id).or_default();
        let d = e.depth as usize;
        if stack.len() <= d {
            stack.resize(d + 1, 0);
        }
        let ts = stack[d];
        let end = ts + e.nanos;
        stack[d] = end;
        // Phases nested under the *next* sibling at this depth start at
        // its start, not wherever the previous sibling's children ended.
        for deeper in stack[d + 1..].iter_mut() {
            *deeper = end;
        }
        out.push(chrome_event(e, ts as f64 / 1e3));
    }
    out
}

/// Renders the event ring as a self-contained Chrome trace document
/// (`{"traceEvents": [...]}`), loadable by `chrome://tracing` and
/// Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    Json::obj([
        ("traceEvents", Json::Arr(chrome_events(events))),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .render()
}

/// One slow query's record as a JSON object: the phase breakdown (its
/// events below the enclosing query span) plus the full EXPLAIN record.
pub fn slow_report_record(rec: &ExplainRecord) -> Json {
    Json::obj([
        ("kind", Json::Str("slow_query".into())),
        ("query_id", Json::Num(rec.query_id as f64)),
        ("total_ns", Json::Num(rec.total_ns as f64)),
        (
            "phases",
            Json::Arr(
                rec.events()
                    .filter(|p| p.depth > 0)
                    .map(|p| {
                        Json::obj([
                            ("phase", Json::Str(p.phase.to_owned())),
                            ("pages", Json::Num(p.pages as f64)),
                            ("nanos", Json::Num(p.nanos as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("explain", rec.to_json()),
    ])
}

/// Renders the full trace dump served by the `/traces` endpoint: the
/// Chrome-trace events plus the retained slow queries' reports. Still a
/// valid Chrome trace document (Perfetto ignores the extra key).
pub fn trace_dump_json(events: &[TraceEvent], slow: &[ExplainRecord]) -> String {
    Json::obj([
        ("traceEvents", Json::Arr(chrome_events(events))),
        (
            "slowQueries",
            Json::Arr(slow.iter().map(slow_report_record).collect()),
        ),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .render()
}

/// One span event as a structured log record.
pub fn trace_event_record(e: &TraceEvent) -> Json {
    Json::obj([
        ("kind", Json::Str("span".into())),
        ("query_id", Json::Num(e.query_id as f64)),
        ("phase", Json::Str(e.phase.to_owned())),
        ("pages", Json::Num(e.pages as f64)),
        ("nanos", Json::Num(e.nanos as f64)),
        ("depth", Json::Num(e.depth as f64)),
    ])
}

/// A JSONL structured event log with size-based rotation.
///
/// Records append to `path`, one compact JSON object per line, each
/// stamped with a monotonically increasing `seq`. When appending would
/// push the active file past `max_bytes`, it is rotated to `path.1`
/// (existing rotations shifting to `path.2`, …) and the oldest beyond
/// `max_files` rotations is deleted. Rotation is size-based only — no
/// wall clock — so a scripted sequence produces identical files.
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    max_bytes: u64,
    max_files: usize,
    seq: u64,
}

impl EventLog {
    /// Opens (creating or appending to) the log at `path`. `max_bytes`
    /// caps the active file; `max_files` is how many rotated files are
    /// kept besides the active one.
    pub fn open(path: impl Into<PathBuf>, max_bytes: u64, max_files: usize) -> io::Result<Self> {
        Ok(Self {
            path: path.into(),
            max_bytes: max_bytes.max(1),
            max_files,
            seq: 0,
        })
    }

    fn rotated(&self, n: usize) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(format!(".{n}"));
        PathBuf::from(name)
    }

    fn rotate(&self) -> io::Result<()> {
        if self.max_files == 0 {
            std::fs::remove_file(&self.path)?;
            return Ok(());
        }
        let _ = std::fs::remove_file(self.rotated(self.max_files));
        for n in (1..self.max_files).rev() {
            let from = self.rotated(n);
            if from.exists() {
                std::fs::rename(&from, self.rotated(n + 1))?;
            }
        }
        std::fs::rename(&self.path, self.rotated(1))
    }

    /// Appends one record (a `seq` field is prepended to it). Rotates
    /// first when the active file would exceed the size cap.
    pub fn append(&mut self, record: &Json) -> io::Result<()> {
        let mut stamped = vec![("seq".to_owned(), Json::Num(self.seq as f64))];
        if let Json::Obj(pairs) = record {
            stamped.extend(pairs.iter().cloned());
        } else {
            stamped.push(("value".to_owned(), record.clone()));
        }
        let line = format!("{}\n", Json::Obj(stamped).render());
        let size = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if size > 0 && size + line.len() as u64 > self.max_bytes {
            self.rotate()?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(line.as_bytes())?;
        self.seq += 1;
        Ok(())
    }

    /// Appends every span event and slow-query report of a trace
    /// snapshot.
    pub fn append_trace(
        &mut self,
        events: &[TraceEvent],
        slow: &[ExplainRecord],
    ) -> io::Result<()> {
        for e in events {
            self.append(&trace_event_record(e))?;
        }
        for r in slow {
            self.append(&slow_report_record(r))?;
        }
        Ok(())
    }

    /// The active log path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Maximum events retained by an [`EventJournal`].
pub const JOURNAL_RING_CAPACITY: usize = 1024;

/// A bounded in-process ring of structured lifecycle events.
///
/// The ingest plane and the storage GC emit epoch-lifecycle events here
/// (`epoch_published`, `repack_start`, `repack_end`, `run_deferred`,
/// `run_reclaimed`); a CLI or exporter periodically drains them into an
/// [`EventLog`] JSONL sink. Cloning shares the ring. Under `obs-off`
/// emission compiles to a no-op and the closure passed to
/// [`EventJournal::emit_with`] is never evaluated.
#[derive(Debug, Clone, Default)]
pub struct EventJournal {
    ring: Arc<Mutex<VecDeque<Json>>>,
}

impl EventJournal {
    /// Appends one event, evicting the oldest past the ring capacity.
    #[cfg(not(feature = "obs-off"))]
    pub fn emit(&self, event: Json) {
        let mut ring = self.ring.lock().expect("journal ring poisoned");
        if ring.len() >= JOURNAL_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Appends one event (compiled out under `obs-off`).
    #[cfg(feature = "obs-off")]
    #[inline]
    pub fn emit(&self, _event: Json) {}

    /// Appends the event built by `make`; under `obs-off` the closure
    /// is never evaluated, so event assembly compiles out with it.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce() -> Json) {
        #[cfg(not(feature = "obs-off"))]
        self.emit(make());
        #[cfg(feature = "obs-off")]
        let _ = make;
    }

    /// Snapshot of the retained events (oldest first) without draining.
    pub fn events(&self) -> Vec<Json> {
        self.ring
            .lock()
            .expect("journal ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Drains every pending event (oldest first).
    pub fn take(&self) -> Vec<Json> {
        self.ring
            .lock()
            .expect("journal ring poisoned")
            .drain(..)
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("journal ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the ring.
    pub fn clear(&self) {
        self.ring.lock().expect("journal ring poisoned").clear();
    }

    /// Drains every pending event into a JSONL [`EventLog`]; returns
    /// how many were written.
    pub fn drain_to(&self, log: &mut EventLog) -> io::Result<usize> {
        let events = self.take();
        for e in &events {
            log.append(e)?;
        }
        Ok(events.len())
    }
}

/// One sample of a Prometheus text snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric (series) name, including `_bucket`/`_sum`/`_count`
    /// suffixes for histograms.
    pub name: String,
    /// Label set, in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A parsed Prometheus text snapshot: `# TYPE` declarations plus
/// samples, both in exposition order.
#[derive(Debug, Clone, Default)]
pub struct PromSnapshot {
    /// `(family name, kind)` per `# TYPE` line.
    pub types: Vec<(String, String)>,
    /// Every sample line.
    pub samples: Vec<PromSample>,
}

impl PromSnapshot {
    /// The value of a series by exact name (`None` when absent or
    /// ambiguous under multiple label sets).
    pub fn value(&self, name: &str) -> Option<f64> {
        let mut hits = self.samples.iter().filter(|s| s.name == name);
        match (hits.next(), hits.next()) {
            (Some(s), None) => Some(s.value),
            _ => None,
        }
    }

    /// Sum of every series of a family (0 when the family is absent).
    pub fn total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }
}

/// Parses the subset of the Prometheus text exposition format that
/// [`MetricsRegistry::render_text`](crate::MetricsRegistry::render_text)
/// produces (no escaped label values, no timestamps, no exemplars).
pub fn parse_prometheus(text: &str) -> Result<PromSnapshot, String> {
    let mut snap = PromSnapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            match (it.next(), it.next()) {
                (Some(name), Some(kind)) => {
                    snap.types.push((name.to_owned(), kind.to_owned()));
                }
                _ => return Err(format!("line {}: malformed TYPE", lineno + 1)),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        let (series, value) = line.rsplit_once(' ').ok_or_else(|| bad("missing value"))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().map_err(|_| bad("bad value"))?,
        };
        let (name, labels) = match series.split_once('{') {
            None => (series.to_owned(), Vec::new()),
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix('}')
                    .ok_or_else(|| bad("unterminated label set"))?;
                let mut labels = Vec::new();
                for pair in inner.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').ok_or_else(|| bad("bad label"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| bad("unquoted label value"))?;
                    labels.push((k.to_owned(), v.to_owned()));
                }
                (name.to_owned(), labels)
            }
        };
        snap.samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(query_id: u64, phase: &'static str, pages: u64, nanos: u64, depth: u32) -> TraceEvent {
        TraceEvent {
            query_id,
            phase,
            pages,
            nanos,
            depth,
        }
    }

    #[test]
    fn chrome_layout_places_siblings_end_to_end() {
        // Completion order: filter, refine, then the enclosing query.
        let events = [
            ev(0, "filter", 3, 2_000, 1),
            ev(0, "refine", 5, 3_000, 1),
            ev(0, "query", 8, 6_000, 0),
        ];
        let doc = Json::parse(&chrome_trace_json(&events)).expect("valid json");
        let out = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(out.len(), 3);
        let ts: Vec<f64> = out
            .iter()
            .map(|e| e.get("ts").and_then(Json::as_f64).expect("ts"))
            .collect();
        // filter at 0, refine right after it, the parent query at 0.
        assert_eq!(ts, vec![0.0, 2.0, 0.0]);
        assert_eq!(out[1].get("dur").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            out[2]
                .get("args")
                .and_then(|a| a.get("pages"))
                .and_then(Json::as_f64),
            Some(8.0)
        );
    }

    #[test]
    fn chrome_layout_is_per_query() {
        let events = [ev(1, "query", 0, 1_000, 0), ev(2, "query", 0, 1_000, 0)];
        let doc = Json::parse(&chrome_trace_json(&events)).expect("valid json");
        let out = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        // Independent tracks: both start at 0 on their own tid.
        for (e, tid) in out.iter().zip([1.0, 2.0]) {
            assert_eq!(e.get("ts").and_then(Json::as_f64), Some(0.0));
            assert_eq!(e.get("tid").and_then(Json::as_f64), Some(tid));
        }
    }

    #[test]
    fn event_log_rotates_by_size() {
        let dir = std::env::temp_dir().join(format!("cfobs_rotate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("events.jsonl");
        let mut log = EventLog::open(&path, 128, 2).expect("open");
        for i in 0..12 {
            log.append(&trace_event_record(&ev(i, "filter", i, 100, 1)))
                .expect("append");
        }
        assert!(path.exists());
        assert!(log.rotated(1).exists(), "first rotation exists");
        assert!(log.rotated(2).exists(), "second rotation exists");
        assert!(!log.rotated(3).exists(), "old rotations are dropped");
        // Every line everywhere is valid JSON with a seq stamp.
        let mut seqs = Vec::new();
        for p in [log.rotated(2), log.rotated(1), path.clone()] {
            for line in std::fs::read_to_string(&p).expect("read").lines() {
                let v = Json::parse(line).expect("valid json line");
                seqs.push(v.get("seq").and_then(Json::as_f64).expect("seq") as u64);
            }
        }
        // Rotation never drops or reorders surviving records.
        assert!(seqs.windows(2).all(|w| w[0] + 1 == w[1]), "{seqs:?}");
        assert_eq!(*seqs.last().expect("non-empty"), 11);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn prometheus_round_trip() {
        let reg = crate::MetricsRegistry::new();
        reg.counter_with("hits_total", &[("shard", "0")]).add(3);
        reg.counter_with("hits_total", &[("shard", "1")]).add(4);
        reg.gauge("depth").set(1.5);
        reg.histogram_with("lat", &[], &[10.0]).observe(5.0);
        let snap = parse_prometheus(&reg.render_text()).expect("parse");
        assert_eq!(snap.total("hits_total"), 7.0);
        assert_eq!(snap.value("depth"), Some(1.5));
        assert!(snap.types.contains(&("lat".into(), "histogram".into())));
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(snap.value("lat_count"), Some(1.0));
        let bucket = snap
            .samples
            .iter()
            .find(|s| s.name == "lat_bucket" && s.labels == vec![("le".into(), "+Inf".into())]);
        assert!(bucket.is_some(), "{snap:?}");
    }

    #[test]
    fn prometheus_parser_rejects_garbage() {
        assert!(parse_prometheus("metric_without_value\n").is_err());
        assert!(parse_prometheus("m{k=v} 1\n").is_err());
        assert!(parse_prometheus("m{k=\"v\" 1\n").is_err());
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn journal_ring_is_bounded_and_drains_to_jsonl() {
        let journal = EventJournal::default();
        for i in 0..(JOURNAL_RING_CAPACITY + 7) {
            journal.emit(Json::obj([
                ("event", Json::Str("epoch_published".into())),
                ("epoch", Json::Num(i as f64)),
            ]));
        }
        assert_eq!(journal.len(), JOURNAL_RING_CAPACITY);
        let first = journal
            .events()
            .first()
            .and_then(|e| e.get("epoch").and_then(Json::as_f64));
        assert_eq!(first, Some(7.0));

        let dir = std::env::temp_dir().join(format!("cfobs_journal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.jsonl");
        let mut log = EventLog::open(&path, u64::MAX, 2).expect("open");
        let written = journal.drain_to(&mut log).expect("drain");
        assert_eq!(written, JOURNAL_RING_CAPACITY);
        assert!(journal.is_empty());
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), JOURNAL_RING_CAPACITY);
        for line in text.lines() {
            let v = Json::parse(line).expect("valid json line");
            assert_eq!(
                v.get("event").and_then(Json::as_str),
                Some("epoch_published")
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn journal_is_inert_under_obs_off() {
        let journal = EventJournal::default();
        journal.emit(Json::Null);
        journal.emit_with(|| unreachable!("emit_with must not evaluate under obs-off"));
        assert!(journal.is_empty());
    }

    #[test]
    fn slow_report_record_carries_the_explain() {
        let explain = crate::explain::tests::sample();
        let rec = slow_report_record(&explain);
        assert_eq!(rec.get("query_id").and_then(Json::as_f64), Some(12.0));
        let phases = rec.get("phases").and_then(Json::as_arr).expect("phases");
        assert_eq!(phases.len(), 2);
        assert_eq!(
            phases[1].get("phase").and_then(Json::as_str),
            Some("refine")
        );
        assert_eq!(rec.get("explain"), Some(&explain.to_json()));
    }
}
