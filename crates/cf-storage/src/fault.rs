//! Deterministic fault injection for crash-safety tests.
//!
//! A [`FaultInjector`] sits on every [`crate::DiskManager`]. Tests arm
//! faults keyed to the zero-based ordinal of a *physical* page
//! operation — "fail the 3rd write", "tear the 5th write after 100
//! bytes", "return a short read on the 2nd read" — and the disk
//! consults the injector on every physical I/O. Ordinals count from the
//! last [`FaultInjector::clear`], so a test can replay an operation and
//! crash it at every possible point:
//!
//! 1. run the operation once cleanly and snapshot the write count;
//! 2. for each `k` in `0..writes`: reset state, `clear`, arm
//!    `Fault::FailWrite { nth: k }`, rerun, and assert the recovery
//!    invariant.
//!
//! Injection is entirely passive when nothing is armed: one relaxed
//! atomic increment plus one relaxed load per physical I/O.

use crate::disk::PageId;
use crate::error::FaultOp;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A deterministic fault, keyed to a physical I/O ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the `nth` physical read outright.
    FailRead {
        /// Zero-based read ordinal to fail.
        nth: u64,
    },
    /// Fail the `nth` physical write outright (nothing reaches disk).
    FailWrite {
        /// Zero-based write ordinal to fail.
        nth: u64,
    },
    /// Tear the `nth` physical write: only the first `keep` bytes of
    /// the page image reach disk and the sidecar checksum is **not**
    /// updated, so the next physical read of the page reports
    /// [`crate::CfError::Corrupt`].
    TornWrite {
        /// Zero-based write ordinal to tear.
        nth: u64,
        /// Bytes of the page image that land before the "crash".
        keep: usize,
    },
    /// Truncate the `nth` physical read: only the first `len` bytes
    /// come back (the tail reads as zeroes), which the page checksum
    /// catches unless the lost tail was all zeroes anyway.
    ShortRead {
        /// Zero-based read ordinal to truncate.
        nth: u64,
        /// Bytes actually "returned by the device".
        len: usize,
    },
}

/// What the disk should do with the current physical read.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReadAction {
    /// Proceed normally.
    Proceed,
    /// Fail with `CfError::Injected` at this ordinal.
    Fail(u64),
    /// Read, then keep only the first `len` bytes.
    Short { len: usize },
}

/// What the disk should do with the current physical write.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WriteAction {
    /// Proceed normally.
    Proceed,
    /// Fail with `CfError::Injected` at this ordinal.
    Fail(u64),
    /// Write only the first `keep` bytes, skip the checksum update,
    /// and fail with `CfError::Injected` at this ordinal.
    Torn { keep: usize, ordinal: u64 },
}

/// The record of one fault that actually fired: which operation, which
/// armed [`Fault`], at which ordinal, against which page. The injector
/// keeps these so crash-safety tests can assert that every armed fault
/// was exercised (no silently skipped injection points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Whether the fault hit a physical read or write.
    pub op: FaultOp,
    /// The armed fault that fired (as configured, with its `nth`).
    pub fault: Fault,
    /// The I/O ordinal it fired at (equals the fault's `nth`).
    pub ordinal: u64,
    /// The page the faulted operation targeted.
    pub page: PageId,
}

/// Deterministic per-disk fault state. See the module docs.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: AtomicBool,
    faults: Mutex<Vec<Fault>>,
    fired: Mutex<Vec<FiredFault>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl FaultInjector {
    /// Creates an injector with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a fault. Several faults may be armed at once; each fires at
    /// most once (it is consumed when its ordinal arrives).
    pub fn arm(&self, fault: Fault) {
        let mut faults = self.faults.lock().expect("fault injector poisoned");
        faults.push(fault);
        self.armed.store(true, Ordering::Release);
    }

    /// Disarms every fault, resets both ordinal counters to zero and
    /// forgets the fired-fault history.
    pub fn clear(&self) {
        let mut faults = self.faults.lock().expect("fault injector poisoned");
        faults.clear();
        self.fired.lock().expect("fault injector poisoned").clear();
        self.armed.store(false, Ordering::Release);
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// Every fault that fired since the last [`FaultInjector::clear`],
    /// in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired.lock().expect("fault injector poisoned").clone()
    }

    /// Physical `(reads, writes)` observed since the last
    /// [`FaultInjector::clear`] — the ordinal space faults are keyed in.
    pub fn ops(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }

    fn record_fired(&self, op: FaultOp, fault: Fault, ordinal: u64, page: PageId) {
        self.fired
            .lock()
            .expect("fault injector poisoned")
            .push(FiredFault {
                op,
                fault,
                ordinal,
                page,
            });
    }

    /// Claims the next read ordinal and reports what to do with the
    /// physical read of `page`. A firing fault is consumed and recorded
    /// (see [`FaultInjector::fired`]).
    pub(crate) fn plan_read(&self, page: PageId) -> ReadAction {
        let ord = self.reads.fetch_add(1, Ordering::Relaxed);
        if !self.armed.load(Ordering::Acquire) {
            return ReadAction::Proceed;
        }
        let mut faults = self.faults.lock().expect("fault injector poisoned");
        let hit = faults.iter().position(
            |f| matches!(f, Fault::FailRead { nth } | Fault::ShortRead { nth, .. } if *nth == ord),
        );
        match hit.map(|i| faults.remove(i)) {
            Some(fault @ Fault::FailRead { .. }) => {
                drop(faults);
                self.record_fired(FaultOp::Read, fault, ord, page);
                ReadAction::Fail(ord)
            }
            Some(fault @ Fault::ShortRead { len, .. }) => {
                drop(faults);
                self.record_fired(FaultOp::Read, fault, ord, page);
                ReadAction::Short { len }
            }
            _ => ReadAction::Proceed,
        }
    }

    /// Claims the next write ordinal and reports what to do with the
    /// physical write of `page`. A firing fault is consumed and
    /// recorded (see [`FaultInjector::fired`]).
    pub(crate) fn plan_write(&self, page: PageId) -> WriteAction {
        let ord = self.writes.fetch_add(1, Ordering::Relaxed);
        if !self.armed.load(Ordering::Acquire) {
            return WriteAction::Proceed;
        }
        let mut faults = self.faults.lock().expect("fault injector poisoned");
        let hit = faults.iter().position(
            |f| matches!(f, Fault::FailWrite { nth } | Fault::TornWrite { nth, .. } if *nth == ord),
        );
        match hit.map(|i| faults.remove(i)) {
            Some(fault @ Fault::FailWrite { .. }) => {
                drop(faults);
                self.record_fired(FaultOp::Write, fault, ord, page);
                WriteAction::Fail(ord)
            }
            Some(fault @ Fault::TornWrite { keep, .. }) => {
                drop(faults);
                self.record_fired(FaultOp::Write, fault, ord, page);
                WriteAction::Torn { keep, ordinal: ord }
            }
            _ => WriteAction::Proceed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PageId = PageId(0);

    #[test]
    fn ordinals_count_from_clear() {
        let inj = FaultInjector::new();
        let _ = inj.plan_read(P);
        let _ = inj.plan_write(P);
        let _ = inj.plan_write(P);
        assert_eq!(inj.ops(), (1, 2));
        inj.clear();
        assert_eq!(inj.ops(), (0, 0));
    }

    #[test]
    fn faults_fire_on_their_ordinal_and_are_consumed() {
        let inj = FaultInjector::new();
        inj.arm(Fault::FailWrite { nth: 1 });
        assert!(matches!(inj.plan_write(PageId(8)), WriteAction::Proceed));
        assert!(matches!(inj.plan_write(PageId(9)), WriteAction::Fail(1)));
        // Consumed: the same ordinal space keeps counting, no re-fire.
        assert!(matches!(inj.plan_write(PageId(9)), WriteAction::Proceed));
    }

    #[test]
    fn read_and_write_ordinals_are_independent() {
        let inj = FaultInjector::new();
        inj.arm(Fault::FailRead { nth: 0 });
        assert!(matches!(inj.plan_write(P), WriteAction::Proceed));
        assert!(matches!(inj.plan_read(P), ReadAction::Fail(0)));
    }

    #[test]
    fn torn_and_short_carry_their_sizes() {
        let inj = FaultInjector::new();
        inj.arm(Fault::TornWrite { nth: 0, keep: 100 });
        inj.arm(Fault::ShortRead { nth: 0, len: 64 });
        assert!(matches!(
            inj.plan_write(P),
            WriteAction::Torn {
                keep: 100,
                ordinal: 0
            }
        ));
        assert!(matches!(inj.plan_read(P), ReadAction::Short { len: 64 }));
    }

    #[test]
    fn fired_faults_record_op_kind_ordinal_and_page() {
        let inj = FaultInjector::new();
        inj.arm(Fault::FailWrite { nth: 1 });
        inj.arm(Fault::ShortRead { nth: 0, len: 64 });
        let _ = inj.plan_write(PageId(4)); // ordinal 0: clean
        let _ = inj.plan_write(PageId(5)); // ordinal 1: fires
        let _ = inj.plan_read(PageId(6)); // ordinal 0: fires
        let fired = inj.fired();
        assert_eq!(fired.len(), 2);
        assert_eq!(
            fired[0],
            FiredFault {
                op: FaultOp::Write,
                fault: Fault::FailWrite { nth: 1 },
                ordinal: 1,
                page: PageId(5),
            }
        );
        assert_eq!(fired[1].op, FaultOp::Read);
        assert_eq!(fired[1].page, PageId(6));
        inj.clear();
        assert!(inj.fired().is_empty(), "clear forgets fired history");
    }

    #[test]
    fn unfired_faults_leave_no_record() {
        let inj = FaultInjector::new();
        inj.arm(Fault::FailRead { nth: 10 });
        let _ = inj.plan_read(P);
        assert!(inj.fired().is_empty());
    }
}
