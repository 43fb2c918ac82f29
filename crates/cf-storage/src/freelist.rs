//! Free-space tracking for the disk manager.
//!
//! The freelist records runs of pages that were allocated and later
//! returned by [`crate::DiskManager::free_run`]. `allocate_run` serves
//! best-fit holes from it before extending the file, so index rebuilds
//! and live-ingest repacks stop leaking the database file.
//!
//! In memory the state is a coalesced `start → len` map. It is not
//! persisted on its own: a freed page's checksum sidecar entry carries
//! the free tag ([`crate::checksum`]), and opening a file rebuilds the
//! map from the tagged entries. A page is free on disk exactly when
//! its own entry says so, so the freelist has no size cap and no
//! commit of its own.
//!
//! This file denies clippy's `unwrap_used` and `panic`, like every
//! file on the persistence path.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;

/// The in-memory freelist: coalesced, non-overlapping free runs keyed
/// by their first page id.
#[derive(Debug, Default, Clone)]
pub(crate) struct FreeState {
    /// `start → len`, always coalesced and non-overlapping.
    pub(crate) runs: BTreeMap<u64, u64>,
}

impl FreeState {
    /// Total free pages across all runs.
    pub(crate) fn total_free(&self) -> u64 {
        self.runs.values().sum()
    }

    /// How many pages of `[start, start + len)` are free.
    pub(crate) fn free_in(&self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = start.saturating_add(len);
        // The run holding `start`, if any, then every run starting
        // inside the range.
        let first = self.runs.range(..=start).next_back();
        let rest = self.runs.range(start.saturating_add(1)..end);
        first
            .into_iter()
            .chain(rest)
            .map(|(&s, &l)| (s + l).min(end).saturating_sub(s.max(start)))
            .sum()
    }

    /// Inserts `[start, start + len)` as free, coalescing with
    /// neighbours. Returns `false` (state unchanged) if the run
    /// overlaps an existing free run — a double free.
    pub(crate) fn insert_run(&mut self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = start + len;
        if let Some((&p_start, &p_len)) = self.runs.range(..=start).next_back() {
            if p_start + p_len > start {
                return false;
            }
        }
        if let Some((&s_start, _)) = self.runs.range(start..).next() {
            if end > s_start {
                return false;
            }
        }
        // Coalesce with the predecessor (free run ending exactly at
        // `start`) and/or the successor (starting exactly at `end`).
        let mut new_start = start;
        let mut new_len = len;
        if let Some((&p_start, &p_len)) = self.runs.range(..start).next_back() {
            if p_start + p_len == start {
                self.runs.remove(&p_start);
                new_start = p_start;
                new_len += p_len;
            }
        }
        if let Some(&s_len) = self.runs.get(&end) {
            self.runs.remove(&end);
            new_len += s_len;
        }
        self.runs.insert(new_start, new_len);
        true
    }

    /// Removes and returns the start of the best-fit free run for `n`
    /// pages: the smallest run of length ≥ `n` (lowest start on ties).
    /// A larger run is split, its tail staying free.
    pub(crate) fn take_best_fit(&mut self, n: u64) -> Option<u64> {
        let (&start, &len) = self
            .runs
            .iter()
            .filter(|(_, &len)| len >= n)
            .min_by_key(|(&start, &len)| (len, start))?;
        self.runs.remove(&start);
        if len > n {
            self.runs.insert(start + n, len - n);
        }
        Some(start)
    }

    /// If the highest free run ends exactly at `num_pages`, removes it
    /// and returns its start — the new page count after truncating the
    /// file tail.
    pub(crate) fn pop_tail_run(&mut self, num_pages: u64) -> Option<u64> {
        let (&start, &len) = self.runs.iter().next_back()?;
        if start + len == num_pages {
            self.runs.remove(&start);
            Some(start)
        } else {
            None
        }
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn insert_coalesces_neighbours() {
        let mut fs = FreeState::default();
        assert!(fs.insert_run(10, 2));
        assert!(fs.insert_run(14, 2));
        assert_eq!(fs.runs.len(), 2);
        // Bridges the gap: all three merge into one run.
        assert!(fs.insert_run(12, 2));
        assert_eq!(fs.runs.len(), 1);
        assert_eq!(fs.runs.get(&10), Some(&6));
        assert_eq!(fs.total_free(), 6);
    }

    #[test]
    fn overlapping_insert_is_rejected() {
        let mut fs = FreeState::default();
        assert!(fs.insert_run(10, 4));
        assert!(!fs.insert_run(12, 1), "inner overlap");
        assert!(!fs.insert_run(8, 4), "left overlap");
        assert!(!fs.insert_run(13, 4), "right overlap");
        assert_eq!(fs.runs.get(&10), Some(&4), "state unchanged");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_run() {
        let mut fs = FreeState::default();
        fs.insert_run(0, 10);
        fs.insert_run(20, 3);
        fs.insert_run(30, 5);
        assert_eq!(fs.take_best_fit(3), Some(20));
        assert_eq!(fs.take_best_fit(4), Some(30), "5-run beats 10-run");
        // The 5-run was split: 1 page stays free at 34.
        assert_eq!(fs.runs.get(&34), Some(&1));
        assert_eq!(fs.take_best_fit(11), None, "nothing big enough");
    }

    #[test]
    fn free_in_counts_the_overlap_with_each_run() {
        let mut fs = FreeState::default();
        fs.insert_run(3, 4);
        fs.insert_run(10, 2);
        assert_eq!(fs.free_in(0, 3), 0);
        assert_eq!(fs.free_in(0, 20), 6);
        assert_eq!(fs.free_in(5, 6), 3, "tail of one run, head of the next");
        assert_eq!(fs.free_in(4, 1), 1, "inside a run");
        assert_eq!(fs.free_in(7, 3), 0, "the gap between them");
        assert_eq!(fs.free_in(11, 0), 0);
    }

    #[test]
    fn tail_run_pops_for_truncation() {
        let mut fs = FreeState::default();
        fs.insert_run(3, 2);
        fs.insert_run(8, 2);
        assert_eq!(fs.pop_tail_run(10), Some(8));
        assert_eq!(fs.pop_tail_run(8), None, "interior run stays");
        assert_eq!(fs.runs.get(&3), Some(&2));
    }
}
