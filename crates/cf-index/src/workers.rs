//! The index layer's one set of threads: `available_parallelism() − 1`
//! resident workers, started on the first offer (none on one CPU; at
//! least one in the unit tests). A large Q2 query offers the upper half
//! of its runs (DESIGN §17.12), [`crate::QueryBatch`] copies of its
//! claim loop; nothing else in the crate starts a thread.
//!
//! [`Workers::offer`] queues a job; the caller runs its own share, then
//! [`Offer::finish`] takes the job back and runs it if no worker claimed
//! it, else waits for its result, re-raising a worker's panic while the
//! worker lives on. A finisher waits only on a claimed job, claimed by a
//! thread that was idle, so waits cannot form a cycle. A batch whose
//! loops fill every worker leaves none to claim its queries' offers:
//! they come back to their callers. Nothing spins.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

type Job = Box<dyn FnOnce() + Send>;

/// The name of every worker thread.
pub(crate) const WORKER: &str = "cf-worker";

/// Resident workers and the queue of offered jobs.
pub(crate) struct Workers {
    /// Unclaimed jobs, oldest first, each under its offer's number.
    queue: Mutex<VecDeque<(usize, Job)>>,
    /// Signalled once per offer, for an idle worker.
    offered: Condvar,
    /// Worker threads; jobs run on these and on their callers.
    pub(crate) workers: usize,
    start: Once,
}

/// Locks `mutex`, ignoring poison: no job runs under these locks.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Workers {
    /// A set for `cpus` CPUs: `cpus − 1` workers, none started yet.
    const fn new(cpus: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            offered: Condvar::new(),
            workers: cpus.saturating_sub(1),
            start: Once::new(),
        }
    }

    /// The process's set, for [`std::thread::available_parallelism`] CPUs.
    pub(crate) fn global() -> &'static Self {
        static SET: OnceLock<Workers> = OnceLock::new();
        SET.get_or_init(|| {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            Self::new(if cfg!(test) { cpus.max(2) } else { cpus })
        })
    }

    /// Queues `job` for the first idle worker; the oldest is claimed first.
    pub(crate) fn offer<T: Send + 'static>(
        &'static self,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Offer<T> {
        self.start.call_once(|| {
            for _ in 0..self.workers {
                // A thread the OS refuses is one worker fewer.
                let _ = std::thread::Builder::new()
                    .name(WORKER.into())
                    .spawn(|| self.work());
            }
        });
        static OFFERS: AtomicUsize = AtomicUsize::new(0);
        let id = OFFERS.fetch_add(1, Ordering::Relaxed);
        let (done, result) = sync_channel(1);
        // The job, and all it owns, is dropped before its result is sent.
        let job = move || drop(done.send(catch_unwind(AssertUnwindSafe(job))));
        lock(&self.queue).push_back((id, Box::new(job)));
        self.offered.notify_one();
        Offer {
            set: self,
            id,
            result,
        }
    }

    /// A worker's life: claim the oldest job, run it, repeat.
    fn work(&self) {
        loop {
            let queue = self.offered.wait_while(lock(&self.queue), |q| q.is_empty());
            let job = queue.unwrap_or_else(PoisonError::into_inner).pop_front();
            if let Some((_, job)) = job {
                job();
            }
        }
    }
}

/// An offered job. Dropped unfinished, it is left to a worker, and its
/// result to nobody.
pub(crate) struct Offer<T> {
    set: &'static Workers,
    id: usize,
    result: Receiver<std::thread::Result<T>>,
}

impl<T> Offer<T> {
    /// The job's result: run here if no worker claimed it, else waited
    /// for. A panic of the job resumes here with its payload.
    pub(crate) fn finish(self) -> T {
        let job = {
            let mut queue = lock(&self.set.queue);
            let at = queue.iter().position(|&(id, _)| id == self.id);
            at.and_then(|at| queue.remove(at))
        };
        #[cfg(test)]
        tests::CLAIMED.set(tests::CLAIMED.get() + usize::from(job.is_none()));
        if let Some((_, job)) = job {
            job();
        }
        let result = self
            .result
            .recv()
            .unwrap_or_else(|gone| Err(Box::new(gone)));
        result.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

#[cfg(test)]
pub(crate) mod tests;
