//! Reclamation of retired page runs by weak handle.
//!
//! A generation of the live ingest plane's base is one
//! `Arc<IHilbert>`, shared by the writer, each snapshot of it and the
//! plane's last commit. A repack retires the generation it replaces
//! ([`Reclaimer::retire`]): its runs join a list in retire order, each
//! with a [`Weak`] handle on the generation. The writer frees every
//! listed run whose generation has no strong handle left
//! ([`Reclaimer::free_unheld`]) at its next repack or save. So a run is
//! freed only once nothing can read it any more, and a reader's drop is
//! a plain `Arc` drop.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use cf_storage::{CfResult, PageId};
use std::sync::{Arc, Weak};

/// The writer's list of retired runs, oldest first: `(first page,
/// pages, the generation that owns the run)`.
pub(crate) struct Reclaimer<T> {
    runs: Vec<(PageId, usize, Weak<T>)>,
}

impl<T> Default for Reclaimer<T> {
    fn default() -> Self {
        Self { runs: Vec::new() }
    }
}

impl<T> Reclaimer<T> {
    /// Retires `generation`, the owner of `runs`: they are listed until
    /// its last strong handle drops. Returns their pages.
    pub(crate) fn retire(&mut self, generation: &Arc<T>, runs: &[(PageId, usize)]) -> usize {
        for &(first, pages) in runs {
            self.runs.push((first, pages, Arc::downgrade(generation)));
        }
        runs.iter().map(|&(_, pages)| pages).sum()
    }

    /// Pages retired and not yet freed, held or unheld alike (the
    /// `storage_deferred_free_pages` gauge).
    pub(crate) fn deferred_pages(&self) -> usize {
        self.runs.iter().map(|&(_, pages, _)| pages).sum()
    }

    /// Frees through `free`, oldest first, every listed run whose
    /// generation has no strong handle left. A failed free stops the
    /// pass: that run and the later ones stay listed for the next call,
    /// and the error is returned.
    pub(crate) fn free_unheld(
        &mut self,
        mut free: impl FnMut(PageId, usize) -> CfResult<()>,
    ) -> CfResult<()> {
        let mut result = Ok(());
        self.runs.retain(|(first, pages, generation)| {
            if result.is_err() || generation.strong_count() > 0 {
                return true;
            }
            result = free(*first, *pages);
            result.is_err()
        });
        result
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use cf_storage::CfError;

    /// Frees what is unheld and returns the runs freed, in order.
    fn take_freed(r: &mut Reclaimer<()>) -> Vec<(PageId, usize)> {
        let mut freed = Vec::new();
        r.free_unheld(|first, pages| {
            freed.push((first, pages));
            Ok(())
        })
        .expect("recording frees cannot fail");
        freed
    }

    #[test]
    fn unpinned_runs_ripen_immediately() {
        let mut r = Reclaimer::default();
        let owned = Arc::new(());
        assert_eq!(r.retire(&owned, &[(PageId(10), 4)]), 4);
        drop(owned);
        assert_eq!(take_freed(&mut r), vec![(PageId(10), 4)]);
        assert_eq!(take_freed(&mut r), vec![], "freed runs do not reappear");
        assert_eq!(r.deferred_pages(), 0);
    }

    #[test]
    fn old_reader_blocks_reclamation_until_dropped() {
        let mut r = Reclaimer::default();
        let writer = Arc::new(());
        let reader = Arc::clone(&writer);
        r.retire(&writer, &[(PageId(7), 2)]);
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
        let old = Arc::new(());
        let new = Arc::new(());
        let new_reader = Arc::clone(&new);
        r.retire(&old, &[(PageId(1), 1)]);
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
        let owned = Arc::new(());
        let a = Arc::clone(&owned);
        let b = Arc::clone(&owned);
        r.retire(&owned, &[(PageId(5), 3)]);
        drop(owned);
        drop(a);
        assert_eq!(take_freed(&mut r), vec![], "second reader still live");
        drop(b);
        assert_eq!(take_freed(&mut r), vec![(PageId(5), 3)]);
    }

    #[test]
    fn stats_report_pins_and_queues() {
        let mut r = Reclaimer::default();
        let held = Arc::new(());
        let reader = Arc::clone(&held);
        assert_eq!(r.retire(&held, &[(PageId(0), 1), (PageId(4), 2)]), 3);
        assert_eq!(r.deferred_pages(), 3);
        let unheld = Arc::new(());
        r.retire(&unheld, &[(PageId(9), 1)]);
        drop(held);
        drop(unheld);
        // Deferred pages count held and unheld runs alike.
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
        let owned = Arc::new(());
        r.retire(&owned, &[(PageId(1), 1), (PageId(2), 1), (PageId(3), 1)]);
        drop(owned);
        let mut calls = 0;
        let result = r.free_unheld(|first, _| {
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
