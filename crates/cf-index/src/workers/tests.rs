//! The offer/finish primitive: unclaimed offers run on their finisher,
//! claimed ones hand back their result or their panic, a worker
//! outlives its job's panic, and a set for one CPU starts nothing. A
//! worker spins at most [`SPIN`] after a job, claims an offer made
//! meanwhile with no signal, and never spins on one real CPU or beside
//! as many running queries as CPUs.
#![allow(clippy::expect_used, clippy::panic)]

use super::*;
use std::cell::Cell;
use std::sync::{mpsc, Arc};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

thread_local! {
    /// Offers of this thread that a worker claimed.
    pub(crate) static CLAIMED: Cell<usize> = const { Cell::new(0) };
}

/// Every worker of the global set, each running a job that waits for
/// the drop of this guard: while it lives, every offer comes back to
/// its finisher. One guard at a time in the process.
pub(crate) struct Held {
    release: Option<mpsc::Sender<()>>,
    offers: Vec<Offer<()>>,
    _one: MutexGuard<'static, ()>,
}

/// Holds every worker of the global set ([`Held`]).
pub(crate) fn hold_every_worker() -> Held {
    static ONE: Mutex<()> = Mutex::new(());
    let one = lock(&ONE);
    let set = Workers::global();
    let (release, released) = mpsc::channel::<()>();
    let released = Arc::new(Mutex::new(released));
    let (started, starts) = mpsc::channel();
    let offers = (0..set.workers)
        .map(|_| {
            let (started, released) = (started.clone(), Arc::clone(&released));
            set.offer(move || {
                started.send(()).expect("the holder waits");
                // Dropping the sender wakes every holder in turn.
                let _ = lock(&released).recv();
            })
        })
        .collect();
    for _ in 0..set.workers {
        starts.recv().expect("a worker claims each holder");
    }
    Held {
        release: Some(release),
        offers,
        _one: one,
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        drop(self.release.take());
        for offer in self.offers.drain(..) {
            offer.finish();
        }
    }
}

fn here() -> ThreadId {
    std::thread::current().id()
}

#[test]
fn a_set_for_one_cpu_starts_no_thread_and_runs_every_offer_inline() {
    static ONE_CPU: Workers = Workers::new(1);
    assert_eq!(ONE_CPU.workers, 0);
    let claimed = CLAIMED.get();
    for k in 0..3 {
        let offer = ONE_CPU.offer(move || (here(), k));
        assert_eq!(offer.finish(), (here(), k));
    }
    assert_eq!(CLAIMED.get(), claimed, "no offer was claimed");
    assert!(lock(&ONE_CPU.queue).jobs.is_empty());
}

#[test]
fn an_unclaimed_offer_runs_on_its_finisher() {
    let held = hold_every_worker();
    let claimed = CLAIMED.get();
    assert_eq!(Workers::global().offer(here).finish(), here());
    assert_eq!(CLAIMED.get(), claimed);
    drop(held);
}

/// A one-worker set of its own: its one thread claims a job that
/// panics, re-raises the payload on the finisher, and claims the next.
#[test]
fn a_workers_panic_reaches_its_finisher_and_the_worker_lives_on() {
    static TWO_CPUS: Workers = Workers::new(2);
    let claimed = |job: Box<dyn FnOnce() -> ThreadId + Send>| {
        let (started, start) = mpsc::channel();
        let offer = TWO_CPUS.offer(move || {
            started.send(()).expect("the finisher waits");
            job()
        });
        start.recv().expect("the worker claims the job");
        let before = CLAIMED.get();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| offer.finish()));
        assert_eq!(CLAIMED.get(), before + 1);
        result
    };
    let payload = claimed(Box::new(|| panic!("worker tripped"))).expect_err("the panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker tripped"));
    let worker = claimed(Box::new(here)).expect("the next job");
    assert_ne!(worker, here());
    let again = claimed(Box::new(here)).expect("and the next");
    assert_eq!(worker, again, "one worker, still alive");
}

/// Offers `job` to `set` and waits until a worker runs it: the finisher
/// then only waits for its result.
fn run_claimed<T: Send + 'static>(
    set: &'static Workers,
    job: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (started, start) = mpsc::channel();
    let offer = set.offer(move || {
        started.send(()).expect("the finisher waits");
        job()
    });
    start.recv().expect("a worker claims the job");
    let before = CLAIMED.get();
    let result = offer.finish();
    assert_eq!(CLAIMED.get(), before + 1);
    result
}

#[test]
fn a_worker_that_finished_a_job_sleeps_again_within_the_spin_bound() {
    static SET: Workers = Workers::new(2);
    for _ in 0..3 {
        let spun = SET.spun.load(Ordering::Relaxed);
        assert_ne!(run_claimed(&SET, here), here());
        let done = Instant::now();
        while lock(&SET.queue).asleep < SET.workers {
            // The slack is the host's: a worker preempted mid-spin
            // finds its bound passed when it runs again.
            assert!(
                done.elapsed() < SPIN + Duration::from_millis(200),
                "still awake {:?} after its job",
                done.elapsed()
            );
            std::thread::sleep(Duration::from_micros(50));
        }
        assert!(!SET.spinning(), "asleep, so not spinning");
        assert!(SET.spun.load(Ordering::Relaxed) > spun, "it spun first");
    }
}

/// A worker still spinning after a job claims the next offer without a
/// signal on the condition variable. It may stop spinning between the
/// check and the offer, so this retries until an offer finds it.
#[test]
fn an_offer_made_while_a_worker_spins_is_claimed_without_a_signal() {
    static SET: Workers = Workers::new(2);
    for _ in 0..200 {
        run_claimed(&SET, || ());
        // The worker sends the result first, then starts to spin.
        let done = Instant::now();
        while !SET.spinning() && done.elapsed() < SPIN / 2 {
            std::hint::spin_loop();
        }
        if !SET.spinning() {
            continue;
        }
        let notifies = SET.notifies.load(Ordering::Relaxed);
        let worker = run_claimed(&SET, here);
        if SET.notifies.load(Ordering::Relaxed) == notifies {
            assert_ne!(worker, here());
            return;
        }
    }
    panic!("no offer reached a spinning worker in 200 tries");
}

#[test]
fn a_set_for_one_real_cpu_never_spins() {
    // The unit tests' forced worker on a one-CPU host is such a set.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(Workers::global().spins, cpus > 1);
    let forced: &'static Workers = Box::leak(Box::new(Workers {
        spins: false,
        ..Workers::new(2)
    }));
    assert_eq!(forced.workers, 1);
    for k in 0..3 {
        let (worker, kk) = run_claimed(forced, move || (here(), k));
        assert_ne!(worker, here());
        assert_eq!(kk, k);
    }
    assert_eq!(forced.spun.load(Ordering::Relaxed), 0);
    assert!(!forced.spinning());
}

/// Beside as many running queries as the set has CPUs a worker sleeps
/// after its job without spinning; once a CPU is free it spins again.
#[test]
fn a_worker_does_not_spin_while_queries_fill_every_cpu() {
    static SET: Workers = Workers::new(2);
    let running: Vec<Busy> = (0..=SET.workers).map(|_| SET.busy()).collect();
    for _ in 0..3 {
        let spun = SET.spun.load(Ordering::Relaxed);
        assert_ne!(run_claimed(&SET, here), here());
        let done = Instant::now();
        while lock(&SET.queue).asleep < SET.workers {
            assert!(done.elapsed() < SPIN + Duration::from_millis(200));
            std::thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(SET.spun.load(Ordering::Relaxed), spun, "it never spun");
    }
    drop(running);
    let spun = SET.spun.load(Ordering::Relaxed);
    run_claimed(&SET, || ());
    let done = Instant::now();
    while SET.spun.load(Ordering::Relaxed) == spun {
        assert!(done.elapsed() < Duration::from_secs(1), "it spins again");
        std::thread::sleep(Duration::from_micros(50));
    }
}
