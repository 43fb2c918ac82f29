//! I/O statistics snapshots.
//!
//! Two accounting planes exist side by side:
//!
//! * **Global counters** on [`crate::DiskManager`] and
//!   [`crate::BufferPool`] (atomics, summed over all threads) — what
//!   `StorageEngine::io_stats` reports.
//! * **Thread-local counters** ([`thread_io_stats`]) — bumped on the
//!   same events, but private to the calling thread. Per-query deltas
//!   taken from these are exact even while other queries run
//!   concurrently, which global-counter deltas are not.

use std::cell::Cell;
use std::fmt;
use std::ops::Sub;

/// A snapshot of the storage engine's I/O counters.
///
/// Snapshots are cheap; the per-query cost of an operation is the
/// difference of the snapshots taken around it (`after - before`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Physical page reads performed by the disk manager.
    pub disk_reads: u64,
    /// Physical page writes performed by the disk manager.
    pub disk_writes: u64,
    /// Buffer-pool lookups answered from cache.
    pub pool_hits: u64,
    /// Buffer-pool lookups that went to disk.
    pub pool_misses: u64,
}

impl IoStats {
    /// Total logical page accesses (hits + misses).
    pub fn logical_reads(&self) -> u64 {
        self.pool_hits + self.pool_misses
    }

    /// Buffer-pool hit ratio in `[0, 1]`; `0` when no accesses were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.logical_reads();
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

impl Sub for IoStats {
    type Output = IoStats;

    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            disk_reads: self.disk_reads - rhs.disk_reads,
            disk_writes: self.disk_writes - rhs.disk_writes,
            pool_hits: self.pool_hits - rhs.pool_hits,
            pool_misses: self.pool_misses - rhs.pool_misses,
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;

    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            disk_reads: self.disk_reads + rhs.disk_reads,
            disk_writes: self.disk_writes + rhs.disk_writes,
            pool_hits: self.pool_hits + rhs.pool_hits,
            pool_misses: self.pool_misses + rhs.pool_misses,
        }
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} hits={} misses={} (hit ratio {:.1}%)",
            self.disk_reads,
            self.disk_writes,
            self.pool_hits,
            self.pool_misses,
            100.0 * self.hit_ratio()
        )
    }
}

/// Counters of a single buffer-pool shard (see
/// [`crate::BufferPool::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Frames this shard may hold.
    pub capacity: usize,
    /// Frames currently held.
    pub cached_pages: usize,
    /// Lookups answered from this shard's cache.
    pub hits: u64,
    /// Lookups this shard sent to disk.
    pub misses: u64,
    /// Frames this shard evicted under LRU pressure.
    pub evictions: u64,
}

thread_local! {
    static THREAD_IO: Cell<IoStats> = const { Cell::new(IoStats {
        disk_reads: 0,
        disk_writes: 0,
        pool_hits: 0,
        pool_misses: 0,
    }) };
}

/// Snapshot of the I/O performed **by the calling thread** since it
/// started.
///
/// Like the global counters, these only ever increase; take a snapshot
/// before and after an operation and subtract to cost it. Because no
/// other thread can touch this counter, the delta is exact under
/// concurrency — the property the parallel query paths in `cf-index`
/// rely on for per-query accounting.
///
/// It holds only this thread's reads. A Q2 query that `cf-index`
/// refines on two threads reads the upper half of its pages on a helper
/// thread: those reads are in the query's `QueryStats::io`, not in the
/// calling thread's tally.
pub fn thread_io_stats() -> IoStats {
    THREAD_IO.with(|c| c.get())
}

/// Internal hooks: the disk manager and buffer pool report every event
/// to the calling thread's tally as well as their global atomics.
pub(crate) mod tally {
    use super::{IoStats, THREAD_IO};

    #[inline]
    fn bump(f: impl FnOnce(&mut IoStats)) {
        THREAD_IO.with(|c| {
            let mut s = c.get();
            f(&mut s);
            c.set(s);
        });
    }

    #[inline]
    pub(crate) fn count_disk_read() {
        bump(|s| s.disk_reads += 1);
    }

    #[inline]
    pub(crate) fn count_disk_write() {
        bump(|s| s.disk_writes += 1);
    }

    #[inline]
    pub(crate) fn count_pool_hit() {
        bump(|s| s.pool_hits += 1);
    }

    #[inline]
    pub(crate) fn count_pool_miss() {
        bump(|s| s.pool_misses += 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_difference() {
        let before = IoStats {
            disk_reads: 10,
            disk_writes: 2,
            pool_hits: 50,
            pool_misses: 10,
        };
        let after = IoStats {
            disk_reads: 17,
            disk_writes: 2,
            pool_hits: 80,
            pool_misses: 17,
        };
        let delta = after - before;
        assert_eq!(delta.disk_reads, 7);
        assert_eq!(delta.disk_writes, 0);
        assert_eq!(delta.logical_reads(), 37);
    }

    #[test]
    fn hit_ratio_handles_zero() {
        assert_eq!(IoStats::default().hit_ratio(), 0.0);
        let s = IoStats {
            pool_hits: 3,
            pool_misses: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn thread_tally_is_per_thread() {
        let before = thread_io_stats();
        tally::count_pool_hit();
        tally::count_disk_read();
        let delta = thread_io_stats() - before;
        assert_eq!(delta.pool_hits, 1);
        assert_eq!(delta.disk_reads, 1);
        assert_eq!(delta.disk_writes, 0);

        // Another thread's tally starts at zero and our counts are
        // invisible to it.
        std::thread::spawn(|| {
            let fresh = thread_io_stats();
            assert_eq!(fresh, IoStats::default());
            tally::count_disk_write();
            assert_eq!(thread_io_stats().disk_writes, 1);
        })
        .join()
        .expect("tally thread");
        let delta = thread_io_stats() - before;
        assert_eq!(delta.disk_writes, 0, "other thread's writes leaked in");
    }

    #[test]
    fn addition_accumulates() {
        let a = IoStats {
            disk_reads: 1,
            disk_writes: 2,
            pool_hits: 3,
            pool_misses: 4,
        };
        let b = IoStats {
            disk_reads: 10,
            disk_writes: 20,
            pool_hits: 30,
            pool_misses: 40,
        };
        let s = a + b;
        assert_eq!(s.disk_reads, 11);
        assert_eq!(s.pool_misses, 44);
    }
}
