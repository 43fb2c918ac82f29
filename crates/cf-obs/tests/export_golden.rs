//! Golden-file tests for the exporters.
//!
//! A scripted query sequence (fixed durations and page counts — no
//! wall clock anywhere) is laid out by the Chrome-trace exporter and
//! the JSONL event log, and the bytes are pinned against files under
//! `tests/golden/`. Regenerate with
//! `BLESS=1 cargo test -p cf-obs --test export_golden` after an
//! intentional format change, and review the diff like any other code.

use cf_obs::export::{trace_dump_json, trace_event_record, EventLog};
use cf_obs::{ExplainRecord, Json, Label, TraceEvent};
use std::path::PathBuf;

fn query(query_id: u64, filter: (u64, u64), refine: (u64, u64), total_ns: u64) -> ExplainRecord {
    ExplainRecord {
        query_id,
        index: Label::new("I-Hilbert"),
        plan: "probe",
        plane: "paged",
        curve: Label::new("hilbert"),
        filter_pages: filter.0,
        filter_ns: filter.1,
        refine_pages: refine.0,
        refine_ns: refine.1,
        total_ns,
        ordinal: query_id,
        ..ExplainRecord::default()
    }
}

/// The scripted sequence: three Q2 probes, the third recorded as slow.
/// The exporters' inputs are the same views the tracer derives from its
/// ring — each query's filter → refine → query events (children before
/// their parent) and the slow queries' records.
fn scripted() -> (Vec<TraceEvent>, Vec<ExplainRecord>) {
    let queries = [
        query(0, (4, 120_000), (9, 340_500), 470_250),
        query(1, (2, 80_000), (3, 95_000), 180_000),
        ExplainRecord {
            slow: true,
            ..query(2, (64, 2_400_000), (180, 9_100_000), 11_600_000)
        },
    ];
    let events = queries.iter().flat_map(ExplainRecord::events).collect();
    let slow = queries.iter().filter(|q| q.slow).copied().collect();
    (events, slow)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {}: {e} (run with BLESS=1 to create)", name));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file — if intentional, re-bless and review the diff"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let (events, slow) = scripted();
    let dump = trace_dump_json(&events, &slow);
    // Sanity before pinning bytes: it must be a valid Chrome-trace doc.
    let doc = Json::parse(&dump).expect("valid json");
    let out = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert_eq!(out.len(), events.len());
    check_golden("trace_dump.json", &dump);
}

#[test]
fn chrome_trace_is_deterministic_across_runs() {
    let (events, slow) = scripted();
    assert_eq!(
        trace_dump_json(&events, &slow),
        trace_dump_json(&events, &slow)
    );
}

#[test]
fn event_log_matches_golden() {
    let dir = std::env::temp_dir().join(format!("cfobs_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("events.jsonl");
    // Cap large enough that the scripted sequence never rotates: the
    // golden file is a single deterministic JSONL stream.
    let mut log = EventLog::open(&path, u64::MAX, 2).expect("open");
    let (events, slow) = scripted();
    log.append_trace(&events, &slow).expect("append");
    let actual = std::fs::read_to_string(&path).expect("read log");
    for line in actual.lines() {
        Json::parse(line).expect("every log line is valid JSON");
    }
    check_golden("events.jsonl", &actual);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn event_log_records_match_their_events() {
    let e = query(7, (11, 5_000), (0, 0), 5_000)
        .events()
        .next()
        .expect("filter event");
    let rec = trace_event_record(&e);
    assert_eq!(rec.get("query_id").and_then(Json::as_f64), Some(7.0));
    assert_eq!(rec.get("phase").and_then(Json::as_str), Some("filter"));
    assert_eq!(rec.get("nanos").and_then(Json::as_f64), Some(5_000.0));
}
