//! The index layer's one set of threads: `available_parallelism() − 1`
//! resident workers, started on the first offer (none on one CPU; at
//! least one in the unit tests). A Q2 query offers the upper half of its
//! runs (DESIGN §17.12), [`crate::QueryBatch`] copies of its claim loop;
//! nothing else in the crate starts a thread.
//!
//! [`Workers::offer`] queues a job; the caller runs its own share, then
//! [`Offer::finish`] takes the job back and runs it if no worker claimed
//! it, else waits for its result, re-raising a worker's panic while the
//! worker lives on. A finisher waits only on a claimed job, claimed by a
//! thread that was idle, so waits cannot form a cycle. A batch whose
//! loops fill every worker leaves none to claim its queries' offers:
//! they come back to their callers.
//!
//! After each job a worker spins for at most [`SPIN`], polling the count
//! of queued jobs, and then sleeps on the queue's condition variable
//! (DESIGN §17.16): a spinning worker claims an offer in under a
//! microsecond, where waking a sleeping one costs ≈ 10 µs. An offer
//! signals the condition variable only when a worker sleeps. A worker
//! spins only while it leaves a CPU to every running query
//! ([`Workers::busy`]): beside as many queries as CPUs it would take
//! their time. So a set on one real CPU never spins, nor one whose CPUs
//! all run queries.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send>;

/// The name of every worker thread.
pub(crate) const WORKER: &str = "cf-worker";

/// How long a worker spins after a job before it sleeps (DESIGN §17.16):
/// the shortest of 100, 500 and 2 000 µs that still found a worker
/// spinning when a client wrote between its queries.
const SPIN: Duration = Duration::from_micros(500);

/// Resident workers and the queue of offered jobs.
pub(crate) struct Workers {
    queue: Mutex<Queue>,
    /// The queue's length, polled by spinning workers without the lock.
    queued: AtomicUsize,
    /// Workers spinning now.
    spinning: AtomicUsize,
    /// Queries running now ([`Workers::busy`]).
    running: AtomicUsize,
    /// Signalled by an offer that finds a worker asleep.
    offered: Condvar,
    /// Worker threads; jobs run on these and on their callers.
    pub(crate) workers: usize,
    /// Whether a worker spins after a job: not on one CPU.
    spins: bool,
    start: Once,
    /// Signals sent (for the tests).
    #[cfg(test)]
    notifies: AtomicUsize,
    /// Spins begun (for the tests).
    #[cfg(test)]
    spun: AtomicUsize,
}

/// What the queue lock guards.
struct Queue {
    /// Unclaimed jobs, oldest first, each under its offer's number.
    jobs: VecDeque<(usize, Job)>,
    /// Workers waiting on the condition variable.
    asleep: usize,
}

/// Locks `mutex`, ignoring poison: no job runs under these locks.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Workers {
    /// A set for `cpus` CPUs: `cpus − 1` workers, none started yet.
    const fn new(cpus: usize) -> Self {
        Self {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                asleep: 0,
            }),
            queued: AtomicUsize::new(0),
            spinning: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            offered: Condvar::new(),
            workers: cpus.saturating_sub(1),
            spins: cpus > 1,
            start: Once::new(),
            #[cfg(test)]
            notifies: AtomicUsize::new(0),
            #[cfg(test)]
            spun: AtomicUsize::new(0),
        }
    }

    /// The process's set, for [`std::thread::available_parallelism`] CPUs.
    /// The unit tests' set has a worker on one CPU too; it never spins.
    pub(crate) fn global() -> &'static Self {
        static SET: OnceLock<Workers> = OnceLock::new();
        SET.get_or_init(|| {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            if cfg!(test) {
                Self {
                    spins: cpus > 1,
                    ..Self::new(cpus.max(2))
                }
            } else {
                Self::new(cpus)
            }
        })
    }

    /// Counts a query as running until the guard drops.
    pub(crate) fn busy(&'static self) -> Busy {
        self.running.fetch_add(1, Ordering::Relaxed);
        Busy(self)
    }

    /// Whether the running queries and the spinning workers, with
    /// `spinners` more, would outnumber the set's CPUs.
    fn crowded(&self, spinners: usize) -> bool {
        let running = self.running.load(Ordering::Relaxed);
        running + self.spinning.load(Ordering::Relaxed) + spinners > self.workers + 1
    }

    /// Whether a worker spins now, so that an offer made now is claimed
    /// without a wake-up. A hint: the worker may stop spinning, or claim
    /// another offer, before this caller's offer arrives.
    pub(crate) fn spinning(&self) -> bool {
        self.spinning.load(Ordering::Relaxed) > 0
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
        let mut queue = lock(&self.queue);
        queue.jobs.push_back((id, Box::new(job)));
        self.queued.store(queue.jobs.len(), Ordering::Relaxed);
        // A worker counted asleep under the lock is waiting, or will see
        // the job when it wakes: no signal is lost.
        let asleep = queue.asleep > 0;
        drop(queue);
        if asleep {
            #[cfg(test)]
            self.notifies.fetch_add(1, Ordering::Relaxed);
            self.offered.notify_one();
        }
        Offer {
            set: self,
            id,
            result,
        }
    }

    /// A worker's life: claim the oldest job, spinning for it a while
    /// before sleeping, run it, repeat.
    fn work(&self) {
        loop {
            let job = self.spin().unwrap_or_else(|| self.sleep());
            job();
        }
    }

    /// Polls for a job for at most [`SPIN`], and only while the running
    /// queries leave this worker a CPU.
    fn spin(&self) -> Option<Job> {
        if !self.spins || self.crowded(1) {
            return None;
        }
        #[cfg(test)]
        self.spun.fetch_add(1, Ordering::Relaxed);
        self.spinning.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let job = loop {
            if self.queued.load(Ordering::Relaxed) > 0 {
                if let Some(job) = self.claim(&mut lock(&self.queue)) {
                    break Some(job);
                }
            }
            if start.elapsed() >= SPIN || self.crowded(0) {
                break None;
            }
            std::hint::spin_loop();
        };
        self.spinning.fetch_sub(1, Ordering::Relaxed);
        job
    }

    /// Sleeps on the condition variable until a job is queued; claims it.
    fn sleep(&self) -> Job {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = self.claim(&mut queue) {
                return job;
            }
            queue.asleep += 1;
            queue = self
                .offered
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.asleep -= 1;
        }
    }

    /// Takes the oldest job off the locked `queue`.
    fn claim(&self, queue: &mut Queue) -> Option<Job> {
        let (_, job) = queue.jobs.pop_front()?;
        self.queued.store(queue.jobs.len(), Ordering::Relaxed);
        Some(job)
    }
}

/// A running query ([`Workers::busy`]).
pub(crate) struct Busy(&'static Workers);

impl Drop for Busy {
    fn drop(&mut self) {
        self.0.running.fetch_sub(1, Ordering::Relaxed);
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
            let at = queue.jobs.iter().position(|&(id, _)| id == self.id);
            let job = at.and_then(|at| queue.jobs.remove(at));
            self.set.queued.store(queue.jobs.len(), Ordering::Relaxed);
            job
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
