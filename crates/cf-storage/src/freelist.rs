//! Free-space tracking for the disk manager.
//!
//! The freelist records runs of pages that were allocated and later
//! returned by [`crate::DiskManager::free_run`]. `allocate_run` serves
//! best-fit holes from it before extending the file, so index rebuilds
//! and live-ingest repacks stop leaking the database file.
//!
//! In memory the state is a coalesced `start → len` map. For the file
//! backing it persists in a `<path>.fsm` superblock using the same
//! two-slot shadow-paging idiom as the index catalog: two 4 KiB slots,
//! each carrying an epoch and a CRC over its payload; a commit writes
//! the *inactive* slot with `epoch + 1`, so a crash mid-write leaves
//! the previous epoch intact and at worst leaks the pages freed since.
//!
//! This file decodes on-disk bytes and denies clippy's `unwrap_used`
//! and `panic`: a slot that fails its magic, version, CRC or run count
//! is skipped ([`FreeState::decode_slot`] returns `None`).
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::checksum::crc32;
use std::collections::BTreeMap;

/// Magic tag of a freelist superblock slot ("CFFSMSB1").
pub(crate) const FSM_MAGIC: u64 = 0x4346_4653_4D53_4231;

/// Superblock format version.
pub(crate) const FSM_VERSION: u32 = 1;

/// Size of one superblock slot in bytes.
pub(crate) const SLOT_SIZE: usize = crate::PAGE_SIZE;

/// Number of shadow-paged slots.
pub(crate) const NUM_SLOTS: usize = 2;

/// Byte offset where the CRC-covered payload begins (epoch onward).
const CRC_COVER_FROM: usize = 16;

/// Header bytes before the run pairs.
const HEADER: usize = 32;

/// Maximum free runs one slot can record. Overflow drops the smallest
/// runs (a counted leak, never a correctness problem).
pub(crate) const MAX_RUNS: usize = (SLOT_SIZE - HEADER) / 16;

/// The in-memory freelist: coalesced, non-overlapping free runs keyed
/// by their first page id, plus the epoch of the last persisted
/// superblock.
#[derive(Debug, Default, Clone)]
pub(crate) struct FreeState {
    /// `start → len`, always coalesced and non-overlapping.
    pub(crate) runs: BTreeMap<u64, u64>,
    /// Epoch of the superblock slot this state was loaded from / last
    /// persisted as. The next commit writes `epoch + 1`.
    pub(crate) epoch: u64,
}

impl FreeState {
    /// Total free pages across all runs.
    pub(crate) fn total_free(&self) -> u64 {
        self.runs.values().sum()
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

    /// Drops runs (or run tails) extending past `num_pages` — e.g.
    /// after a crash between a superblock commit and the file truncate
    /// it announced. Returns the number of pages clamped away.
    pub(crate) fn clamp_to(&mut self, num_pages: u64) -> u64 {
        let mut clamped = 0u64;
        let past: Vec<(u64, u64)> = self
            .runs
            .range(..)
            .filter(|(&start, &len)| start + len > num_pages)
            .map(|(&start, &len)| (start, len))
            .collect();
        for (start, len) in past {
            self.runs.remove(&start);
            if start < num_pages {
                let keep = num_pages - start;
                self.runs.insert(start, keep);
                clamped += len - keep;
            } else {
                clamped += len;
            }
        }
        clamped
    }

    /// Drops the smallest runs until at most [`MAX_RUNS`] remain, so
    /// the state fits one superblock slot. Returns the pages leaked.
    pub(crate) fn truncate_to_capacity(&mut self) -> u64 {
        let mut leaked = 0u64;
        while self.runs.len() > MAX_RUNS {
            let (&start, _) = match self.runs.iter().min_by_key(|(&start, &len)| (len, start)) {
                Some(entry) => entry,
                None => break,
            };
            leaked += self.runs.remove(&start).unwrap_or(0);
        }
        leaked
    }

    /// Encodes the state as one superblock slot image carrying `epoch`.
    pub(crate) fn encode_slot(&self, epoch: u64) -> Box<[u8; SLOT_SIZE]> {
        debug_assert!(self.runs.len() <= MAX_RUNS);
        let mut buf = Box::new([0u8; SLOT_SIZE]);
        buf[0..8].copy_from_slice(&FSM_MAGIC.to_le_bytes());
        buf[8..12].copy_from_slice(&FSM_VERSION.to_le_bytes());
        buf[16..24].copy_from_slice(&epoch.to_le_bytes());
        buf[24..28].copy_from_slice(&(self.runs.len() as u32).to_le_bytes());
        let mut at = HEADER;
        for (&start, &len) in self.runs.iter().take(MAX_RUNS) {
            buf[at..at + 8].copy_from_slice(&start.to_le_bytes());
            buf[at + 8..at + 16].copy_from_slice(&len.to_le_bytes());
            at += 16;
        }
        let crc = crc32(&buf[CRC_COVER_FROM..]);
        buf[12..16].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes one slot image; `None` for an unwritten, torn or
    /// foreign slot (bad magic, version, CRC or run layout).
    pub(crate) fn decode_slot(buf: &[u8; SLOT_SIZE]) -> Option<(u64, BTreeMap<u64, u64>)> {
        let magic = u64::from_le_bytes(buf[0..8].try_into().ok()?);
        if magic != FSM_MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().ok()?);
        if version != FSM_VERSION {
            return None;
        }
        let stored_crc = u32::from_le_bytes(buf[12..16].try_into().ok()?);
        if stored_crc != crc32(&buf[CRC_COVER_FROM..]) {
            return None;
        }
        let epoch = u64::from_le_bytes(buf[16..24].try_into().ok()?);
        let count = u32::from_le_bytes(buf[24..28].try_into().ok()?) as usize;
        if count > MAX_RUNS {
            return None;
        }
        let mut runs = BTreeMap::new();
        let mut at = HEADER;
        let mut prev_end = 0u64;
        for i in 0..count {
            let start = u64::from_le_bytes(buf[at..at + 8].try_into().ok()?);
            let len = u64::from_le_bytes(buf[at + 8..at + 16].try_into().ok()?);
            if len == 0 || (i > 0 && start < prev_end) || start.checked_add(len).is_none() {
                return None;
            }
            prev_end = start + len;
            runs.insert(start, len);
            at += 16;
        }
        Some((epoch, runs))
    }
}

#[cfg(test)]
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
    fn tail_run_pops_for_truncation() {
        let mut fs = FreeState::default();
        fs.insert_run(3, 2);
        fs.insert_run(8, 2);
        assert_eq!(fs.pop_tail_run(10), Some(8));
        assert_eq!(fs.pop_tail_run(8), None, "interior run stays");
        assert_eq!(fs.runs.get(&3), Some(&2));
    }

    #[test]
    fn clamp_trims_runs_past_the_file_end() {
        let mut fs = FreeState::default();
        fs.insert_run(2, 4); // straddles num_pages = 4
        fs.insert_run(9, 3); // fully past
        assert_eq!(fs.clamp_to(4), 5);
        assert_eq!(fs.runs.get(&2), Some(&2));
        assert_eq!(fs.runs.len(), 1);
    }

    #[test]
    fn slot_round_trips_and_rejects_corruption() {
        let mut fs = FreeState::default();
        fs.insert_run(5, 7);
        fs.insert_run(100, 1);
        let slot = fs.encode_slot(42);
        let (epoch, runs) = FreeState::decode_slot(&slot).expect("decode");
        assert_eq!(epoch, 42);
        assert_eq!(runs, fs.runs);

        let mut torn = slot.clone();
        torn[HEADER + 3] ^= 0x40;
        assert!(FreeState::decode_slot(&torn).is_none(), "CRC catches tears");
        let zeroes = Box::new([0u8; SLOT_SIZE]);
        assert!(FreeState::decode_slot(&zeroes).is_none(), "unwritten slot");
    }

    #[test]
    fn capacity_overflow_leaks_smallest_runs() {
        let mut fs = FreeState::default();
        // MAX_RUNS + 2 isolated single-page runs plus one big run.
        for i in 0..(MAX_RUNS as u64 + 2) {
            assert!(fs.insert_run(i * 2, 1));
        }
        fs.insert_run(100_000, 50);
        let leaked = fs.truncate_to_capacity();
        assert_eq!(fs.runs.len(), MAX_RUNS);
        assert_eq!(leaked, 3, "three 1-page runs dropped");
        assert_eq!(fs.runs.get(&100_000), Some(&50), "big run survives");
        // Still encodable.
        let slot = fs.encode_slot(1);
        assert!(FreeState::decode_slot(&slot).is_some());
    }
}
