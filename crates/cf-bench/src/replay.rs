//! Deterministic workload replay: re-execute a recorded `.wrk` query
//! stream against a database and diff the recomputed answer digests
//! against the recording.
//!
//! The replayed queries run in logical-ordinal order with the exact
//! band floats the recorder captured (raw `f64` bits, no decimal
//! round-trip), so the recomputed [`answer_digest`] of each query is
//! directly comparable to the recorded one: any divergence — a lost
//! cell, a shifted region, one float bit of answer area — shows up as
//! a digest mismatch. The report is intentionally free of wall-clock
//! measurements: two replays of the same workload file against the
//! same database render byte-identical reports, so a replay becomes a
//! committable golden artifact (`repro replay` in CI).

use cf_geom::Interval;
use cf_index::ValueIndex;
use cf_obs::{answer_digest, WorkloadRecord};
use cf_storage::{CfResult, StorageEngine};
use std::fmt;

/// One replayed query whose recomputed digest diverged from the
/// recording (an entry of [`ReplayReport::mismatches`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayMismatch {
    /// The record's logical ordinal within the recording.
    pub ordinal: u64,
    /// Queried band, low end.
    pub band_lo: f64,
    /// Queried band, high end.
    pub band_hi: f64,
    /// The digest the recording carries.
    pub recorded: u64,
    /// The digest this replay computed.
    pub recomputed: u64,
}

/// Aggregate outcome of replaying one workload. All fields are
/// deterministic functions of (workload file, database) — no timings —
/// so the report's `Display` rendering is byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Records replayed.
    pub records: usize,
    /// Records whose recomputed digest matched the recording.
    pub matched: usize,
    /// The diverging records, in ordinal order.
    pub mismatches: Vec<ReplayMismatch>,
    /// Total cells examined across the replay.
    pub cells_examined: u64,
    /// Total qualifying cells across the replay.
    pub cells_qualifying: u64,
    /// Total answer regions across the replay.
    pub num_regions: u64,
    /// Total logical page reads across the replay.
    pub logical_pages: u64,
    /// Answer areas summed in ordinal order (deterministic float sum).
    pub total_area: f64,
    /// FNV-1a over the recomputed per-query digests, in ordinal order —
    /// one number that fingerprints the whole replayed answer set.
    pub combined_digest: u64,
}

impl ReplayReport {
    /// Whether every recomputed digest matched the recording.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### replay — {} recorded queries\n", self.records)?;
        writeln!(f, "| metric | value |")?;
        writeln!(f, "|---|---|")?;
        writeln!(f, "| records replayed | {} |", self.records)?;
        writeln!(f, "| digests matched | {} |", self.matched)?;
        writeln!(f, "| digests diverged | {} |", self.mismatches.len())?;
        writeln!(f, "| cells examined | {} |", self.cells_examined)?;
        writeln!(f, "| cells qualifying | {} |", self.cells_qualifying)?;
        writeln!(f, "| answer regions | {} |", self.num_regions)?;
        writeln!(f, "| logical page reads | {} |", self.logical_pages)?;
        writeln!(
            f,
            "| total answer area | {:.6} (bits {:016x}) |",
            self.total_area,
            self.total_area.to_bits()
        )?;
        writeln!(
            f,
            "| combined answer digest | {:016x} |",
            self.combined_digest
        )?;
        for m in self.mismatches.iter().take(10) {
            writeln!(
                f,
                "  DIVERGED #{}: band [{:.6}, {:.6}] recorded {:016x} != recomputed {:016x}",
                m.ordinal, m.band_lo, m.band_hi, m.recorded, m.recomputed
            )?;
        }
        if self.mismatches.len() > 10 {
            writeln!(f, "  … and {} more", self.mismatches.len() - 10)?;
        }
        if self.ok() {
            writeln!(
                f,
                "\nreplay OK — all {} answer digests match the recording",
                self.records
            )
        } else {
            writeln!(
                f,
                "\nreplay FAILED — {} of {} digests diverged from the recording",
                self.mismatches.len(),
                self.records
            )
        }
    }
}

/// Re-executes `records` against `index` in logical-ordinal order,
/// recomputing each query's [`answer_digest`] and diffing it against
/// the recorded one. The recorded plane/curve labels are provenance
/// only: replay runs on whatever plane the opened index provides (the
/// digest compares *answers*, which every plane must agree on).
pub fn replay_workload(
    engine: &StorageEngine,
    index: &dyn ValueIndex,
    records: &[WorkloadRecord],
) -> CfResult<ReplayReport> {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    let mut ordered: Vec<&WorkloadRecord> = records.iter().collect();
    ordered.sort_by_key(|r| r.ordinal);

    let mut report = ReplayReport {
        records: ordered.len(),
        matched: 0,
        mismatches: Vec::new(),
        cells_examined: 0,
        cells_qualifying: 0,
        num_regions: 0,
        logical_pages: 0,
        total_area: 0.0,
        combined_digest: OFFSET,
    };
    for rec in ordered {
        let stats = index.query_stats(engine, Interval::new(rec.band_lo, rec.band_hi))?;
        let recomputed = answer_digest(
            stats.cells_examined as u64,
            stats.cells_qualifying as u64,
            stats.num_regions as u64,
            stats.area,
        );
        report.cells_examined += stats.cells_examined as u64;
        report.cells_qualifying += stats.cells_qualifying as u64;
        report.num_regions += stats.num_regions as u64;
        report.logical_pages += stats.io.logical_reads();
        report.total_area += stats.area;
        for byte in recomputed.to_le_bytes() {
            report.combined_digest ^= u64::from(byte);
            report.combined_digest = report.combined_digest.wrapping_mul(PRIME);
        }
        if recomputed == rec.digest {
            report.matched += 1;
        } else {
            report.mismatches.push(ReplayMismatch {
                ordinal: rec.ordinal,
                band_lo: rec.band_lo,
                band_hi: rec.band_hi,
                recorded: rec.digest,
                recomputed,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_field::FieldModel;
    use cf_index::IHilbert;
    use cf_workload::{fractal::diamond_square, queries::interval_queries};

    /// Hand-built records (no recorder needed, so this also runs under
    /// `obs-off`): correct digests replay clean, a tampered one diverges.
    #[test]
    fn replay_diffs_digests_against_the_recording() {
        let field = diamond_square(4, 0.6, 7);
        let engine = StorageEngine::in_memory();
        let index = IHilbert::build(&engine, &field).expect("build");
        let bands = interval_queries(field.value_domain(), 0.05, 6, 0xD1F);
        let mut records: Vec<WorkloadRecord> = bands
            .iter()
            .enumerate()
            .map(|(i, band)| {
                let stats = index.query_stats(&engine, *band).expect("query");
                WorkloadRecord {
                    ordinal: i as u64,
                    band_lo: band.lo,
                    band_hi: band.hi,
                    // The label is free-form to replay: record 0 carries
                    // the one an older recording made on the since
                    // deleted frozen plane would.
                    plane: cf_obs::Label::new(if i == 0 { "frozen" } else { "paged" }),
                    curve: cf_obs::Label::new("hilbert"),
                    epoch: 0,
                    digest: answer_digest(
                        stats.cells_examined as u64,
                        stats.cells_qualifying as u64,
                        stats.num_regions as u64,
                        stats.area,
                    ),
                }
            })
            .collect();

        let report = replay_workload(&engine, &index, &records).expect("replay");
        assert!(report.ok(), "{report}");
        assert_eq!(report.matched, records.len());
        assert!(report.cells_examined > 0 && report.logical_pages > 0);
        assert!(report.to_string().contains("replay OK"));

        records[2].digest ^= 1;
        let report = replay_workload(&engine, &index, &records).expect("replay");
        assert!(!report.ok());
        assert_eq!(report.mismatches.len(), 1);
        assert_eq!(report.mismatches[0].ordinal, 2);
        assert!(report.to_string().contains("replay FAILED"));
        assert!(report.to_string().contains("DIVERGED #2"));
    }

    /// The golden determinism guarantee: the same `.wrk` bytes against
    /// the same database render byte-identical reports across replays —
    /// including through an encode/decode round trip of the file.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn same_workload_and_db_render_byte_identical_reports() {
        use cf_obs::{decode_wrk, encode_wrk};

        let field = diamond_square(5, 0.6, 11);
        let engine = StorageEngine::in_memory();
        let index = IHilbert::build(&engine, &field).expect("build");
        // Capture through the real pipeline: traced queries land in the
        // tracer's ring, the drain is the `.wrk` payload.
        let tracer = engine.metrics().tracer();
        tracer.set_enabled(true);
        for q in &interval_queries(field.value_domain(), 0.03, 12, 0x601D) {
            index.query_stats(&engine, *q).expect("query");
        }
        tracer.set_enabled(false);
        let drained = tracer.drain_workload();
        assert_eq!(drained.len(), 12);
        let records = decode_wrk(&encode_wrk(&drained)).expect("round trip");

        let first = replay_workload(&engine, &index, &records).expect("replay");
        let second = replay_workload(&engine, &index, &records).expect("replay");
        assert!(first.ok(), "{first}");
        assert_eq!(
            first.to_string(),
            second.to_string(),
            "replay reports must be byte-identical across runs"
        );
        assert_eq!(first, second);
    }
}
