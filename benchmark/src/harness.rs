//! Pieces both runs share: database set-up, the answer oracle, the
//! checker that turns wrong answers and errors into the failure count.

use crate::inputs::BenchField;
use crate::workload::Spec;
use contfield::geom::Interval;
use contfield::index::{IHilbert, LinearScan, QueryStats, ValueIndex};
use contfield::obs::Json;
use contfield::storage::{CfError, CfResult, PageId, StorageConfig, StorageEngine, PAGE_SIZE};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed before the result line (sample counts, the
    /// percentile used, reconciliation verdicts).
    pub detail: Json,
}

/// The part of a Q2 answer every method must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub cells_qualifying: usize,
    pub num_regions: usize,
    pub area: f64,
}

impl From<QueryStats> for Answer {
    fn from(s: QueryStats) -> Self {
        Self {
            cells_qualifying: s.cells_qualifying,
            num_regions: s.num_regions,
            area: s.area,
        }
    }
}

impl Answer {
    /// Counts exact, area to `1e-9` relative: summation order differs
    /// by method (the tolerance `tests/cross_method_consistency.rs`
    /// uses).
    pub fn matches(&self, want: &Answer) -> bool {
        self.cells_qualifying == want.cells_qualifying
            && self.num_regions == want.num_regions
            && (self.area - want.area).abs() <= 1e-9 * want.area.abs().max(1.0)
    }
}

/// Counts operations attempted and failed; a `CfError` and a wrong
/// answer both fail.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checker {
    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.first_failure
            .get_or_insert_with(|| format!("{what}: {why}"));
    }

    /// Counts one operation; `None` when it returned an error.
    pub fn op<T>(&mut self, what: &str, result: CfResult<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(what, e.to_string());
                None
            }
        }
    }

    /// Counts one query and checks it against the oracle; `None` when
    /// it failed either way.
    pub fn answer(
        &mut self,
        what: &str,
        result: CfResult<QueryStats>,
        want: &Answer,
    ) -> Option<QueryStats> {
        let stats = self.op(what, result)?;
        self.matches(what, &Answer::from(stats), want)
            .then_some(stats)
    }

    /// Checks an answer against the oracle, counting a mismatch as a
    /// failure of the operation that produced it.
    pub fn matches(&mut self, what: &str, got: &Answer, want: &Answer) -> bool {
        let same = got.matches(want);
        if !same {
            self.fail(what, format!("got {got:?}, oracle says {want:?}"));
        }
        same
    }

    /// A replayed query must repeat its first pass bit for bit.
    pub fn repeats(&mut self, what: &str, first: &QueryStats, again: &QueryStats) {
        let same = first.cells_examined == again.cells_examined
            && first.cells_qualifying == again.cells_qualifying
            && first.num_regions == again.num_regions
            && first.area.to_bits() == again.area.to_bits()
            && first.io.logical_reads() == again.io.logical_reads();
        if !same {
            self.fail(what, format!("pass differs: {first:?} then {again:?}"));
        }
    }
}

/// A built, saved and synced database.
pub struct Db<F: BenchField> {
    pub engine: StorageEngine,
    pub index: IHilbert<F>,
    pub catalog: PageId,
    pub path: PathBuf,
    /// `IHilbert::build` + `save` + `sync`.
    pub build_s: f64,
}

impl<F: BenchField> Db<F> {
    /// Builds the workload's database on a fresh engine (`path` is
    /// used by the file workloads only), with the `Tracer` off.
    pub fn build(spec: &Spec, field: &F, path: &Path) -> CfResult<Self> {
        let engine = spec.open_engine(path)?;
        engine.metrics().tracer().set_enabled(false);
        let clock = Instant::now();
        let index = IHilbert::build(&engine, field)?;
        let catalog = index.save(&engine)?;
        engine.sync()?;
        Ok(Self {
            build_s: clock.elapsed().as_secs_f64(),
            engine,
            index,
            catalog,
            path: path.to_owned(),
        })
    }

    pub fn bytes(&self) -> f64 {
        (self.engine.num_pages() * PAGE_SIZE) as f64
    }
}

/// The reference answers, on an engine of their own (memory, raw
/// pages, pool larger than the data) so the measured engine's pool and
/// counters never see them.
pub struct Oracle<F: BenchField> {
    pub engine: StorageEngine,
    /// `LinearScan` answers of the bands given to [`Oracle::build`],
    /// valid until the first update.
    pub pre: Vec<Answer>,
    /// Replays the update plan through `update_cell`; the reference
    /// for every query that runs after a write.
    pub updated: IHilbert<F>,
    pub seconds: f64,
}

impl<F: BenchField> Oracle<F> {
    pub fn build(field: &F, bands: &[Interval]) -> CfResult<Self> {
        let clock = Instant::now();
        let engine = StorageEngine::new(StorageConfig {
            pool_pages: 65_536,
            ..StorageConfig::default()
        });
        let scan = LinearScan::build(&engine, field)?;
        let pre = bands
            .iter()
            .map(|&band| scan.query_stats(&engine, band).map(Answer::from))
            .collect::<CfResult<_>>()?;
        let updated = IHilbert::build(&engine, field)?;
        Ok(Self {
            engine,
            pre,
            updated,
            seconds: clock.elapsed().as_secs_f64(),
        })
    }

    /// The reference answer after the updates replayed so far.
    pub fn now(&self, band: Interval) -> CfResult<Answer> {
        self.updated
            .query_stats(&self.engine, band)
            .map(Answer::from)
    }
}

/// Turns an error the run cannot go on after (as opposed to a failed
/// operation, which [`Checker`] counts) into its message.
pub fn fatal(what: &'static str) -> impl Fn(CfError) -> String {
    move |e| format!("{what}: {e}")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Microseconds since `clock`.
pub fn micros(clock: Instant) -> f64 {
    clock.elapsed().as_secs_f64() * 1e6
}

/// Milliseconds since `clock`.
pub fn millis(clock: Instant) -> f64 {
    clock.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_match_on_exact_counts_and_relative_area() {
        let want = Answer {
            cells_qualifying: 10,
            num_regions: 12,
            area: 2_000.0,
        };
        assert!(Answer {
            area: 2_000.0 + 1e-6,
            ..want
        }
        .matches(&want));
        assert!(!Answer {
            area: 2_000.0 + 1e-5,
            ..want
        }
        .matches(&want));
        assert!(!Answer {
            num_regions: 11,
            ..want
        }
        .matches(&want));
    }

    #[test]
    fn checker_counts_errors_and_wrong_answers() {
        let mut check = Checker::default();
        let want = Answer {
            cells_qualifying: 1,
            num_regions: 1,
            area: 1.0,
        };
        let right = QueryStats {
            cells_qualifying: 1,
            num_regions: 1,
            area: 1.0,
            ..QueryStats::default()
        };
        assert!(check.answer("q", Ok(right), &want).is_some());
        assert!(check
            .answer("q", Ok(QueryStats::default()), &want)
            .is_none());
        let err = contfield::storage::CfError::corrupt(None, "boom".to_owned());
        assert!(check.op::<()>("w", Err(err)).is_none());
        assert_eq!((check.attempted, check.failed), (3, 2));
        assert!(check.first_failure.is_some_and(|m| m.starts_with("q: got")));
    }
}
