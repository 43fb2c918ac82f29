//! The offer/finish primitive: unclaimed offers run on their finisher,
//! claimed ones hand back their result or their panic, a worker
//! outlives its job's panic, and a set for one CPU starts nothing.
#![allow(clippy::expect_used, clippy::panic)]

use super::*;
use std::cell::Cell;
use std::sync::{mpsc, Arc};
use std::thread::ThreadId;

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
    assert!(lock(&ONE_CPU.queue).is_empty());
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
