//! The workload flight recorder: every traced query's identity — band,
//! logical ordinal, plane, curve, epoch and an answer digest — as a
//! view of the tracer's query ring ([`WorkloadRecord::from`]), with a
//! drain ([`Tracer::drain_workload`](crate::Tracer::drain_workload))
//! to a versioned `.wrk` workload file.
//!
//! A production anomaly surfaced by a slow-query report is only
//! useful if it can be *reproduced*: the recorder turns the live
//! query stream into a replayable artifact. `repro replay` re-executes
//! a `.wrk` file against a database and diffs the recomputed answer
//! digests against the recording, so a slow-query window becomes a
//! committed regression test.
//!
//! Bands are stored as raw `f64` bits (`to_bits`/`from_bits`) both in
//! memory and on disk, so a recorded query replays with the *exact*
//! float the pipeline executed — the digests are only comparable
//! because no decimal round-trip ever happens.
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::explain::{ExplainRecord, Label};

/// Magic bytes of a `.wrk` workload file.
const WORKLOAD_MAGIC: [u8; 4] = *b"CFWK";

/// Current `.wrk` format version.
pub const WORKLOAD_VERSION: u32 = 1;

/// On-disk bytes per record: ordinal, band bits ×2, epoch, digest
/// (8 bytes each) plus two 16-byte NUL-padded name fields.
const WORKLOAD_RECORD_SIZE: usize = 72;

/// `.wrk` header: magic, version, record count.
const WORKLOAD_HEADER_SIZE: usize = 16;

/// One captured query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadRecord {
    /// Logical ordinal within the recording (assigned at capture,
    /// monotonic; replay re-executes in ordinal order).
    pub ordinal: u64,
    /// Queried band, low end.
    pub band_lo: f64,
    /// Queried band, high end.
    pub band_hi: f64,
    /// Execution plane: always `"paged"` now. Free-form on decode:
    /// older files also carry `"cells"` (a planner's scan) or
    /// `"frozen"`.
    pub plane: Label,
    /// Space-filling curve behind the index.
    pub curve: Label,
    /// Ingest epoch the query was pinned to (0 = static plane).
    pub epoch: u64,
    /// Answer digest — see [`answer_digest`].
    pub digest: u64,
}

impl From<&ExplainRecord> for WorkloadRecord {
    fn from(rec: &ExplainRecord) -> Self {
        Self {
            ordinal: rec.ordinal,
            band_lo: rec.band_lo,
            band_hi: rec.band_hi,
            plane: Label::new(rec.plane),
            curve: rec.curve,
            epoch: rec.epoch,
            digest: rec.digest,
        }
    }
}

/// FNV-1a digest over a query's observable outcome: cell counts,
/// region count and the exact answer-area bits. Two executions of the
/// same query against the same data produce the same digest; any
/// divergence in the answer (even one float bit of area) changes it.
pub fn answer_digest(
    cells_examined: u64,
    cells_qualifying: u64,
    num_regions: u64,
    area: f64,
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for word in [
        cells_examined,
        cells_qualifying,
        num_regions,
        area.to_bits(),
    ] {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_name(buf: &mut Vec<u8>, name: &str) {
    let mut field = [0u8; 16];
    let mut end = name.len().min(16);
    while end > 0 && !name.is_char_boundary(end) {
        end -= 1;
    }
    field[..end].copy_from_slice(&name.as_bytes()[..end]);
    buf.extend_from_slice(&field);
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(bytes)
}

fn get_name(buf: &[u8], at: usize) -> Label {
    let field = &buf[at..at + 16];
    let end = field.iter().position(|&b| b == 0).unwrap_or(16);
    match std::str::from_utf8(&field[..end]) {
        Ok(s) => Label::new(s),
        Err(_) => Label::empty(),
    }
}

/// Encodes records as a versioned `.wrk` byte stream: the
/// `WORKLOAD_MAGIC` and [`WORKLOAD_VERSION`] header, the record count,
/// then fixed-size little-endian records with band floats stored as
/// raw bits (lossless).
pub fn encode_wrk(records: &[WorkloadRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WORKLOAD_HEADER_SIZE + records.len() * WORKLOAD_RECORD_SIZE);
    out.extend_from_slice(&WORKLOAD_MAGIC);
    out.extend_from_slice(&WORKLOAD_VERSION.to_le_bytes());
    put_u64(&mut out, records.len() as u64);
    for rec in records {
        put_u64(&mut out, rec.ordinal);
        put_u64(&mut out, rec.band_lo.to_bits());
        put_u64(&mut out, rec.band_hi.to_bits());
        put_u64(&mut out, rec.epoch);
        put_u64(&mut out, rec.digest);
        put_name(&mut out, rec.plane.as_str());
        put_name(&mut out, rec.curve.as_str());
    }
    out
}

/// Decodes a `.wrk` byte stream. Malformed input — wrong magic, an
/// unknown version, a truncated body — returns a description, never
/// panics.
pub fn decode_wrk(bytes: &[u8]) -> Result<Vec<WorkloadRecord>, String> {
    if bytes.len() < WORKLOAD_HEADER_SIZE {
        return Err(format!(
            "workload file too short: {} bytes (need at least {WORKLOAD_HEADER_SIZE})",
            bytes.len()
        ));
    }
    if bytes[..4] != WORKLOAD_MAGIC {
        return Err("not a workload file (bad magic; expected \"CFWK\")".to_owned());
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != WORKLOAD_VERSION {
        return Err(format!(
            "unsupported workload version {version} (this build reads version {WORKLOAD_VERSION})"
        ));
    }
    // The count is the file's own claim: size it with checked
    // arithmetic and allocate for it only once it matches the bytes
    // actually present.
    let claimed = get_u64(bytes, 8);
    let count = usize::try_from(claimed).unwrap_or(usize::MAX);
    let expected = count
        .checked_mul(WORKLOAD_RECORD_SIZE)
        .and_then(|body| body.checked_add(WORKLOAD_HEADER_SIZE));
    if expected != Some(bytes.len()) {
        return Err(format!(
            "workload body size mismatch: {} bytes for {claimed} records",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let at = WORKLOAD_HEADER_SIZE + i * WORKLOAD_RECORD_SIZE;
        out.push(WorkloadRecord {
            ordinal: get_u64(bytes, at),
            band_lo: f64::from_bits(get_u64(bytes, at + 8)),
            band_hi: f64::from_bits(get_u64(bytes, at + 16)),
            epoch: get_u64(bytes, at + 24),
            digest: get_u64(bytes, at + 32),
            plane: get_name(bytes, at + 40),
            curve: get_name(bytes, at + 56),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "obs-off"))]
    use crate::explain::tests::sample as query;
    #[cfg(not(feature = "obs-off"))]
    use crate::trace::QUERY_RING_CAPACITY;
    #[cfg(not(feature = "obs-off"))]
    use crate::Tracer;

    fn sample(n: u64) -> WorkloadRecord {
        WorkloadRecord {
            ordinal: n,
            band_lo: 0.125 + n as f64,
            band_hi: 0.875 + n as f64,
            // A label no current query emits: old recordings carry
            // it, and the codec must keep round-tripping it.
            plane: Label::new("frozen"),
            curve: Label::new("hilbert"),
            epoch: n * 3,
            digest: answer_digest(100 + n, 50 + n, 7, 12.5 + n as f64),
        }
    }

    #[test]
    fn digest_is_sensitive_to_every_component() {
        let base = answer_digest(10, 5, 2, 1.5);
        assert_ne!(base, answer_digest(11, 5, 2, 1.5));
        assert_ne!(base, answer_digest(10, 6, 2, 1.5));
        assert_ne!(base, answer_digest(10, 5, 3, 1.5));
        assert_ne!(base, answer_digest(10, 5, 2, 1.5 + f64::EPSILON));
        assert_eq!(base, answer_digest(10, 5, 2, 1.5));
    }

    #[test]
    fn wrk_round_trips_losslessly() {
        let records: Vec<WorkloadRecord> = (0..17).map(sample).collect();
        let bytes = encode_wrk(&records);
        assert_eq!(
            bytes.len(),
            WORKLOAD_HEADER_SIZE + records.len() * WORKLOAD_RECORD_SIZE
        );
        let back = decode_wrk(&bytes).expect("decode");
        assert_eq!(back, records);
    }

    #[test]
    fn wrk_preserves_exact_float_bits() {
        let mut rec = sample(0);
        rec.band_lo = f64::from_bits(0x3FF0_0000_0000_0001); // 1.0 + 1 ulp
        rec.band_hi = -0.0;
        let back = decode_wrk(&encode_wrk(&[rec])).expect("decode");
        assert_eq!(back[0].band_lo.to_bits(), rec.band_lo.to_bits());
        assert_eq!(back[0].band_hi.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn decode_rejects_malformed_input_without_panicking() {
        assert!(decode_wrk(b"").is_err());
        assert!(decode_wrk(b"NOPE").is_err());
        let mut bad_magic = encode_wrk(&[sample(0)]);
        bad_magic[0] = b'X';
        assert!(decode_wrk(&bad_magic)
            .expect_err("bad magic")
            .contains("magic"));
        let mut bad_version = encode_wrk(&[sample(0)]);
        bad_version[4] = 99;
        assert!(decode_wrk(&bad_version)
            .expect_err("bad version")
            .contains("version"));
        let mut truncated = encode_wrk(&[sample(0), sample(1)]);
        truncated.truncate(truncated.len() - 5);
        assert!(decode_wrk(&truncated)
            .expect_err("truncated")
            .contains("mismatch"));
        // A hostile count: the size computation overflows, or wraps to
        // exactly the 16 bytes present (2^61 * 72 = 2^64 * 9).
        for count in [u64::MAX, 1 << 61] {
            let mut hostile = encode_wrk(&[]);
            hostile[8..16].copy_from_slice(&count.to_le_bytes());
            assert!(decode_wrk(&hostile)
                .expect_err("hostile length")
                .contains("mismatch"));
        }
    }

    #[cfg(not(feature = "obs-off"))]
    fn traced(queries: usize) -> Tracer {
        let tracer = Tracer::default();
        tracer.set_enabled(true);
        for _ in 0..queries {
            tracer.record_query(query());
        }
        tracer
    }

    #[cfg(not(feature = "obs-off"))]
    fn ordinals(records: &[WorkloadRecord]) -> Vec<u64> {
        records.iter().map(|r| r.ordinal).collect()
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn ring_assigns_ordinals_and_drains_losslessly() {
        let tracer = traced(5);
        assert_eq!(ordinals(&tracer.drain_workload()), [0, 1, 2, 3, 4]);
        // The drain moved a cursor, not the records: nothing is handed
        // out twice, and the snapshot views still see all five queries.
        assert!(tracer.drain_workload().is_empty());
        assert_eq!(tracer.recent_explains().len(), 5);
        // The ordinal sequence continues across drains.
        tracer.record_query(query());
        assert_eq!(ordinals(&tracer.drain_workload()), [5]);
        // A clear restarts it.
        tracer.clear();
        tracer.record_query(query());
        assert_eq!(ordinals(&tracer.drain_workload()), [0]);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn full_ring_drops_oldest_and_counts_them() {
        let tracer = traced(QUERY_RING_CAPACITY + 10);
        let drained = tracer.drain_workload();
        assert_eq!(drained.len(), QUERY_RING_CAPACITY);
        // Ordinals are consecutive, so the first drained one counts the
        // records evicted before the drain.
        assert_eq!(drained[0].ordinal, 10, "oldest 10 were evicted");
        // A drain per ring's worth loses nothing: evicting a query an
        // earlier drain handed out drops no flight record.
        let more = traced(0);
        for _ in 0..2 {
            for _ in 0..QUERY_RING_CAPACITY {
                more.record_query(query());
            }
            assert_eq!(more.drain_workload().len(), QUERY_RING_CAPACITY);
        }
        more.record_query(query());
        let last = more.drain_workload();
        assert_eq!(ordinals(&last), [2 * QUERY_RING_CAPACITY as u64]);
    }
}
