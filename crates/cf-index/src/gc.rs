//! Reclamation of retired page runs by ownership.
//!
//! A generation of the live ingest plane's base owns page runs
//! ([`OwnedRuns`]) and is shared through one `Arc` by the writer, each
//! snapshot of it and the plane's last commit. A repack retires the
//! generation it replaces ([`Reclaimer::retire`]); when the last holder
//! of a retired generation drops, its runs join the reclaimer's queue,
//! and the writer frees the queue ([`Reclaimer::free_queued`]) at its
//! next repack or save. So a run is freed only once nothing can read
//! it any more, and no reader ever waits on the writer to drop a handle.
#![deny(clippy::unwrap_used, clippy::panic)]

use cf_storage::{CfResult, PageId};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The runs of dropped retired generations, waiting for the writer to
/// free them.
type Queue = Arc<Mutex<Vec<(PageId, usize)>>>;

/// The page runs one generation owns, queued for freeing when it drops
/// after a [`Reclaimer::retire`]. Dropping one that was never retired
/// frees nothing: its runs are still live.
pub(crate) struct OwnedRuns {
    runs: Vec<(PageId, usize)>,
    /// Set by the retirement: the queue the runs join on drop.
    retired: OnceLock<Queue>,
}

impl OwnedRuns {
    pub(crate) fn new(runs: &[(PageId, usize)]) -> Self {
        Self {
            runs: runs.to_vec(),
            retired: OnceLock::new(),
        }
    }
}

impl Drop for OwnedRuns {
    /// Queues a retired generation's runs. No I/O and no engine: the
    /// last holder may be a reader thread. No panic either: a poisoned
    /// queue is still a valid list of runs.
    fn drop(&mut self) {
        if let Some(queue) = self.retired.get() {
            let mut queue = queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.extend_from_slice(&self.runs);
        }
    }
}

/// The writer's side: the queue retired runs join and the count of
/// pages retired but not yet freed, held or queued alike (the
/// `storage_deferred_free_pages` gauge).
#[derive(Default)]
pub(crate) struct Reclaimer {
    queue: Queue,
    deferred_pages: usize,
}

impl Reclaimer {
    /// Retires `owned`: its runs join the queue when its last holder
    /// drops. Counts them as deferred, calls `each(first, pages,
    /// deferred_total)` per run in order, and returns their pages.
    pub(crate) fn retire(
        &mut self,
        owned: &OwnedRuns,
        mut each: impl FnMut(PageId, usize, usize),
    ) -> usize {
        // A generation is replaced once, so the queue is never set twice.
        let _ = owned.retired.set(Arc::clone(&self.queue));
        for &(first, pages) in &owned.runs {
            self.deferred_pages += pages;
            each(first, pages, self.deferred_pages);
        }
        owned.runs.iter().map(|&(_, pages)| pages).sum()
    }

    /// Pages retired and not yet freed.
    pub(crate) fn deferred_pages(&self) -> usize {
        self.deferred_pages
    }

    /// Frees the queued runs through `free`, oldest first. The queue's
    /// lock is not held while freeing: a reader's drop may push to it.
    /// When a free fails, the runs not yet freed go back to the front
    /// of the queue for the next call, and the error is returned.
    pub(crate) fn free_queued(
        &mut self,
        mut free: impl FnMut(PageId, usize) -> CfResult<()>,
    ) -> CfResult<()> {
        let runs = std::mem::take(&mut *self.queue.lock().expect("reclaim queue poisoned"));
        for (i, &(first, pages)) in runs.iter().enumerate() {
            if let Err(e) = free(first, pages) {
                let mut queue = self.queue.lock().expect("reclaim queue poisoned");
                queue.splice(0..0, runs[i..].iter().copied());
                return Err(e);
            }
            self.deferred_pages -= pages;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_storage::CfError;

    /// Retires `owned` and returns its pages.
    fn retire(r: &mut Reclaimer, owned: &OwnedRuns) -> usize {
        r.retire(owned, |_, _, _| {})
    }

    /// Frees what is queued and returns the runs freed, in order.
    fn take_freed(r: &mut Reclaimer) -> Vec<(PageId, usize)> {
        let mut freed = Vec::new();
        r.free_queued(|first, pages| {
            freed.push((first, pages));
            Ok(())
        })
        .expect("recording frees cannot fail");
        freed
    }

    #[test]
    fn unpinned_runs_ripen_immediately() {
        let mut r = Reclaimer::default();
        let owned = Arc::new(OwnedRuns::new(&[(PageId(10), 4)]));
        assert_eq!(retire(&mut r, &owned), 4);
        drop(owned);
        assert_eq!(take_freed(&mut r), vec![(PageId(10), 4)]);
        assert_eq!(take_freed(&mut r), vec![], "freed runs do not reappear");
        assert_eq!(r.deferred_pages(), 0);
    }

    #[test]
    fn old_reader_blocks_reclamation_until_dropped() {
        let mut r = Reclaimer::default();
        let writer = Arc::new(OwnedRuns::new(&[(PageId(7), 2)]));
        let reader = Arc::clone(&writer);
        retire(&mut r, &writer);
        drop(writer);
        assert_eq!(take_freed(&mut r), vec![]);
        assert_eq!(r.deferred_pages(), 2);
        drop(reader);
        assert_eq!(take_freed(&mut r), vec![(PageId(7), 2)]);
        assert_eq!(r.deferred_pages(), 0);
    }

    #[test]
    fn new_epoch_readers_do_not_block_old_retirements() {
        let mut r = Reclaimer::default();
        let old = Arc::new(OwnedRuns::new(&[(PageId(1), 1)]));
        let new = Arc::new(OwnedRuns::new(&[(PageId(2), 1)]));
        let new_reader = Arc::clone(&new);
        retire(&mut r, &old);
        drop(old);
        // The reader holds the *new* generation only.
        assert_eq!(take_freed(&mut r), vec![(PageId(1), 1)]);
        drop(new_reader);
        drop(new);
        assert_eq!(
            take_freed(&mut r),
            vec![],
            "an unretired generation frees nothing"
        );
    }

    #[test]
    fn multiple_pins_per_epoch_are_counted() {
        let mut r = Reclaimer::default();
        let owned = Arc::new(OwnedRuns::new(&[(PageId(5), 3)]));
        let a = Arc::clone(&owned);
        let b = Arc::clone(&owned);
        retire(&mut r, &owned);
        drop(owned);
        drop(a);
        assert_eq!(take_freed(&mut r), vec![], "second reader still live");
        drop(b);
        assert_eq!(take_freed(&mut r), vec![(PageId(5), 3)]);
    }

    #[test]
    fn stats_report_pins_and_queues() {
        let mut r = Reclaimer::default();
        let held = Arc::new(OwnedRuns::new(&[(PageId(0), 1), (PageId(4), 2)]));
        let reader = Arc::clone(&held);
        let mut reported = Vec::new();
        r.retire(&held, |first, pages, total| {
            reported.push((first, pages, total))
        });
        assert_eq!(reported, vec![(PageId(0), 1, 1), (PageId(4), 2, 3)]);
        let unheld = Arc::new(OwnedRuns::new(&[(PageId(9), 1)]));
        retire(&mut r, &unheld);
        drop(held);
        drop(unheld);
        // Deferred pages count held and queued runs alike.
        assert_eq!(r.deferred_pages(), 4);
        assert_eq!(take_freed(&mut r), vec![(PageId(9), 1)]);
        assert_eq!(r.deferred_pages(), 3, "the held runs stay deferred");
        drop(reader);
        assert_eq!(take_freed(&mut r), vec![(PageId(0), 1), (PageId(4), 2)]);
        assert_eq!(r.deferred_pages(), 0);
    }

    #[test]
    fn a_failed_free_requeues_the_runs_not_yet_freed() {
        let mut r = Reclaimer::default();
        let owned = Arc::new(OwnedRuns::new(&[
            (PageId(1), 1),
            (PageId(2), 1),
            (PageId(3), 1),
        ]));
        retire(&mut r, &owned);
        drop(owned);
        let mut calls = 0;
        let result = r.free_queued(|first, _| {
            calls += 1;
            if first == PageId(2) {
                Err(CfError::corrupt(None, "injected free failure"))
            } else {
                Ok(())
            }
        });
        assert!(result.is_err());
        assert_eq!(calls, 2, "freeing stops at the first failure");
        assert_eq!(r.deferred_pages(), 2);
        assert_eq!(take_freed(&mut r), vec![(PageId(2), 1), (PageId(3), 1)]);
        assert_eq!(r.deferred_pages(), 0);
    }
}
