//! Structured per-query EXPLAIN records.
//!
//! An [`ExplainRecord`] captures everything the query pipeline knows
//! about one executed query: its plan and the plane it read first (every
//! query probes the paged tree, so these read `"probe"` and `"paged"`;
//! the fields keep the record's layout), the space-filling curve behind the index, the
//! subfield/cell/page counts of the filter and refine phases, the
//! per-phase wall timings, the ingest epoch the snapshot was pinned
//! to, and the buffer-pool hit ratio.
//!
//! The record is `Copy` and assembled allocation-free on the caller's
//! stack from the span/counter handles the pipeline already maintains:
//! string-ish fields are either `&'static str` (plan, plane) or a
//! fixed-capacity inline [`Label`] (index and curve names, which exist
//! as heap `String`s only at registration time).
//!
//! It is the *only* per-query record: the pipeline hands each finished
//! query's record to [`Tracer::record_query`](crate::Tracer::record_query)
//! once, and the slow-query reports, recent-EXPLAIN list and `.wrk`
//! flight records are all read-side views derived from it.

use crate::json::Json;
use std::fmt;

/// Byte capacity of an inline [`Label`].
const LABEL_CAPACITY: usize = 24;

/// A fixed-capacity, `Copy` string for index/curve names.
///
/// Longer inputs are truncated at a UTF-8 character boundary; every
/// label produced by the index layer ("I-Hilbert", "I-All",
/// "I-Quad", ...) fits without truncation.
#[derive(Clone, Copy)]
pub struct Label {
    buf: [u8; LABEL_CAPACITY],
    len: u8,
}

impl Label {
    /// The empty label.
    pub const fn empty() -> Self {
        Self {
            buf: [0; LABEL_CAPACITY],
            len: 0,
        }
    }

    /// Builds a label from `s`, truncating at a character boundary if
    /// it exceeds `LABEL_CAPACITY` bytes.
    pub fn new(s: &str) -> Self {
        let mut end = s.len().min(LABEL_CAPACITY);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; LABEL_CAPACITY];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        Self {
            buf,
            len: end as u8,
        }
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        // Truncation in `new` respects character boundaries, so the
        // prefix is always valid UTF-8.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl Default for Label {
    fn default() -> Self {
        Self::empty()
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Label {}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The structured EXPLAIN record for one executed query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExplainRecord {
    /// Query id from the tracer's sequence.
    pub query_id: u64,
    /// Index the query ran against (metric label, e.g. `I-Hilbert`).
    pub index: Label,
    /// The query plan: always `"probe"` (the index), since the
    /// executor has no scan branch.
    pub plan: &'static str,
    /// The plane the plan reads first: always `"paged"` (the tree,
    /// through the pool).
    pub plane: &'static str,
    /// Space-filling curve behind the index cell ordering.
    pub curve: Label,
    /// Queried value band, low end.
    pub band_lo: f64,
    /// Queried value band, high end.
    pub band_hi: f64,
    /// Subfields whose interval intersected the band (filter output).
    pub subfields: u64,
    /// Cells examined during refine.
    pub cells_examined: u64,
    /// Cells that actually qualified.
    pub cells_qualifying: u64,
    /// Answer regions produced.
    pub regions: u64,
    /// Index nodes visited by the filter phase.
    pub filter_nodes: u64,
    /// Logical pages read by the filter phase.
    pub filter_pages: u64,
    /// Logical pages read by the refine phase.
    pub refine_pages: u64,
    /// Filter-phase wall nanoseconds.
    pub filter_ns: u64,
    /// Refine-phase wall nanoseconds.
    pub refine_ns: u64,
    /// Total query wall nanoseconds (the enclosing span).
    pub total_ns: u64,
    /// Ingest epoch the snapshot was pinned to (0 = static plane).
    pub epoch: u64,
    /// Buffer-pool hits during the query.
    pub pool_hits: u64,
    /// Buffer-pool misses during the query.
    pub pool_misses: u64,
    /// Digest of the answer — see [`answer_digest`](crate::answer_digest).
    pub digest: u64,
    /// Position in the tracer's recording, stamped by
    /// [`Tracer::record_query`](crate::Tracer::record_query) (monotonic,
    /// restarts when the ring is cleared).
    pub ordinal: u64,
    /// Whether `total_ns` reached the slow-query threshold in force when
    /// the query was recorded (stamped with `ordinal`; the threshold may
    /// have moved since).
    pub slow: bool,
}

impl ExplainRecord {
    /// Nanoseconds not attributed to filter or refine (planning,
    /// dispatch, result assembly). Saturates at zero. Public for the
    /// root crate's metrics-consistency tests.
    pub fn other_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.filter_ns)
            .saturating_sub(self.refine_ns)
    }

    /// Buffer-pool hit ratio in `[0, 1]`; 1.0 when the pool was never
    /// touched.
    fn pool_hit_ratio(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Multi-line human-readable rendering (the `fielddb explain`
    /// output).
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "query #{} on {} (plan={}, plane={}, curve={}, epoch={})\n",
            self.query_id, self.index, self.plan, self.plane, self.curve, self.epoch
        ));
        out.push_str(&format!(
            "  band [{:.4}, {:.4}]  subfields={}  cells {}/{} qualifying\n",
            self.band_lo, self.band_hi, self.subfields, self.cells_qualifying, self.cells_examined
        ));
        out.push_str(&format!(
            "  filter: {:>5} pages  {:>10.1} us\n",
            self.filter_pages,
            self.filter_ns as f64 / 1e3
        ));
        out.push_str(&format!(
            "  refine: {:>5} pages  {:>10.1} us\n",
            self.refine_pages,
            self.refine_ns as f64 / 1e3
        ));
        out.push_str(&format!(
            "  other:  {:>17.1} us  (total {:.1} us)\n",
            self.other_ns() as f64 / 1e3,
            self.total_ns as f64 / 1e3
        ));
        out.push_str(&format!(
            "  pool:   {} hits / {} misses  ({:.1}% hit ratio)",
            self.pool_hits,
            self.pool_misses,
            self.pool_hit_ratio() * 100.0
        ));
        out
    }

    /// JSON rendering with every field (the `fielddb explain --json`
    /// output).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("query_id", Json::Num(self.query_id as f64)),
            ("index", Json::Str(self.index.as_str().to_string())),
            ("plan", Json::Str(self.plan.to_string())),
            ("plane", Json::Str(self.plane.to_string())),
            ("curve", Json::Str(self.curve.as_str().to_string())),
            ("band_lo", Json::Num(self.band_lo)),
            ("band_hi", Json::Num(self.band_hi)),
            ("subfields", Json::Num(self.subfields as f64)),
            ("cells_examined", Json::Num(self.cells_examined as f64)),
            ("cells_qualifying", Json::Num(self.cells_qualifying as f64)),
            ("filter_pages", Json::Num(self.filter_pages as f64)),
            ("refine_pages", Json::Num(self.refine_pages as f64)),
            ("filter_ns", Json::Num(self.filter_ns as f64)),
            ("refine_ns", Json::Num(self.refine_ns as f64)),
            ("other_ns", Json::Num(self.other_ns() as f64)),
            ("total_ns", Json::Num(self.total_ns as f64)),
            ("epoch", Json::Num(self.epoch as f64)),
            ("pool_hits", Json::Num(self.pool_hits as f64)),
            ("pool_misses", Json::Num(self.pool_misses as f64)),
            ("pool_hit_ratio", Json::Num(self.pool_hit_ratio())),
        ])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The fact every cf-obs unit test scripts its views from.
    pub(crate) fn sample() -> ExplainRecord {
        ExplainRecord {
            query_id: 12,
            index: Label::new("I-Hilbert"),
            plan: "probe",
            plane: "paged",
            curve: Label::new("hilbert"),
            band_lo: 0.3,
            band_hi: 0.4,
            subfields: 14,
            cells_examined: 1024,
            cells_qualifying: 812,
            regions: 9,
            filter_nodes: 3,
            filter_pages: 0,
            refine_pages: 37,
            filter_ns: 45_200,
            refine_ns: 181_000,
            total_ns: 229_300,
            epoch: 0,
            pool_hits: 37,
            pool_misses: 0,
            digest: 0x00D1_6E57,
            ordinal: 0,
            slow: false,
        }
    }

    #[test]
    fn label_truncates_on_char_boundary() {
        let l = Label::new("abcdefghijklmnopqrstuvwxyz");
        assert_eq!(l.as_str().len(), LABEL_CAPACITY);
        // Multi-byte char straddling the cap must not be split.
        let s = "x".repeat(LABEL_CAPACITY - 1) + "é";
        let l = Label::new(&s);
        assert_eq!(l.as_str(), "x".repeat(LABEL_CAPACITY - 1));
        assert_eq!(Label::new("I-Hilbert").as_str(), "I-Hilbert");
    }

    #[test]
    fn other_ns_saturates_and_hit_ratio_bounds() {
        let mut r = sample();
        assert_eq!(r.other_ns(), 3_100);
        r.filter_ns = u64::MAX;
        assert_eq!(r.other_ns(), 0);
        r.pool_hits = 0;
        r.pool_misses = 0;
        assert_eq!(r.pool_hit_ratio(), 1.0);
        r.pool_misses = 3;
        assert_eq!(r.pool_hit_ratio(), 0.0);
    }

    #[test]
    fn text_rendering_carries_the_breakdown() {
        let text = sample().render_text();
        assert!(text.contains("plan=probe"), "{text}");
        assert!(text.contains("plane=paged"), "{text}");
        assert!(text.contains("filter:"), "{text}");
        assert!(text.contains("refine:"), "{text}");
        assert!(text.contains("100.0% hit ratio"), "{text}");
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let rec = sample();
        let doc = Json::parse(&rec.to_json().render()).expect("valid json");
        assert_eq!(doc.get("plan").and_then(Json::as_str), Some("probe"));
        assert_eq!(doc.get("total_ns").and_then(Json::as_f64), Some(229_300.0));
        assert_eq!(doc.get("other_ns").and_then(Json::as_f64), Some(3_100.0));
        let sum = doc.get("filter_ns").and_then(Json::as_f64).unwrap()
            + doc.get("refine_ns").and_then(Json::as_f64).unwrap();
        assert!(sum <= doc.get("total_ns").and_then(Json::as_f64).unwrap());
    }
}
