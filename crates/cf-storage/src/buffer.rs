//! Sharded LRU buffer pool with write-back caching.
//!
//! The pool sits between every index/file access and the disk. Reads
//! fault pages in through [`BufferPool::with_page`]; writers choose
//! between [`BufferPool::write_through`] (disk first, then cache — the
//! right call for commit points that must be durable in a known order)
//! and [`BufferPool::write_back`] (dirty the frame now, reach disk when
//! evicted or at the next [`BufferPool::flush_all`] — the right call
//! for bulk builds, which otherwise pay one physical write per page
//! touched per pass). `flush_all` writes dirty pages in ascending
//! [`PageId`] order — one seek pass over the file — and the engine
//! follows it with a single `sync()`.
//!
//! Concurrency: frames are partitioned into independently locked
//! **shards** keyed by a multiplicative hash of the page id, so
//! concurrent readers faulting different pages do not contend on one
//! lock — the property the parallel batch executor in `cf-index`
//! relies on. Small pools (fewer than [`MIN_FRAMES_PER_SHARD`] frames
//! per would-be shard) collapse to a single shard and behave as an
//! exact global LRU, which keeps eviction-order semantics deterministic
//! for tests and tiny-cache experiments.

use crate::disk::{DiskManager, PageBuf, PageId};
use crate::error::{CfError, CfResult};
use crate::stats::{tally, ShardStats};
use cf_obs::{Counter, MetricsRegistry};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Below this many frames per shard the pool stops splitting further;
/// it also bounds how small an auto-selected shard can get.
const MIN_FRAMES_PER_SHARD: usize = 64;

/// Hard cap on the automatic shard count.
const MAX_AUTO_SHARDS: usize = 64;

struct Frame {
    data: Box<PageBuf>,
    /// Recency stamp; key into `lru`.
    stamp: u64,
    /// The frame holds bytes the disk does not have yet.
    dirty: bool,
    /// Pin count: a pinned frame is never evicted. Pins are held for
    /// the duration of a [`BufferPool::with_page`] closure, guarding
    /// the borrow against any eviction path that might run under the
    /// same shard lock.
    pins: u32,
}

struct ShardInner {
    frames: HashMap<PageId, Frame>,
    /// Recency index: stamp → page. The smallest stamp is the LRU victim.
    lru: BTreeMap<u64, PageId>,
    next_stamp: u64,
}

struct Shard {
    inner: Mutex<ShardInner>,
    capacity: usize,
    /// Hit/miss/eviction counters live in the engine's metrics registry
    /// (`pool_*_total{shard="i"}`); `ShardStats` is a view over them.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Dirty pages written to disk by eviction or flush.
    writebacks: Counter,
}

impl Shard {
    fn new(capacity: usize, index: usize, registry: &MetricsRegistry) -> Self {
        let label = index.to_string();
        let labels: [(&str, &str); 1] = [("shard", &label)];
        Self {
            inner: Mutex::new(ShardInner {
                frames: HashMap::with_capacity(capacity),
                lru: BTreeMap::new(),
                next_stamp: 0,
            }),
            capacity,
            hits: registry.counter_with("pool_hits_total", &labels),
            misses: registry.counter_with("pool_misses_total", &labels),
            evictions: registry.counter_with("pool_evictions_total", &labels),
            writebacks: registry.counter_with("pool_writebacks_total", &labels),
        }
    }

    /// Evicts LRU victims until the shard holds at most its capacity
    /// minus `headroom`, counting each eviction. Pinned frames are
    /// skipped. Dirty victims are written back through `disk` first; a
    /// failed write-back leaves the victim cached and dirty and
    /// propagates the error. Call with the shard lock held.
    fn evict_to_capacity(
        &self,
        inner: &mut ShardInner,
        headroom: usize,
        disk: &DiskManager,
    ) -> CfResult<()> {
        let limit = self.capacity.saturating_sub(headroom);
        let mut skipped = 0usize;
        while inner.frames.len() - skipped > limit {
            let victim = inner
                .lru
                .iter()
                .map(|(&stamp, &id)| (stamp, id))
                .nth(skipped);
            let Some((stamp, id)) = victim else { break };
            let frame = &inner.frames[&id];
            if frame.pins > 0 {
                skipped += 1;
                continue;
            }
            if frame.dirty {
                disk.write_page(id, &frame.data)?;
                self.writebacks.inc();
            }
            inner.lru.remove(&stamp);
            inner.frames.remove(&id);
            self.evictions.inc();
        }
        Ok(())
    }
}

/// A fixed-capacity page cache: per-shard LRU over independently locked
/// shards, with per-frame dirty bits ([`BufferPool::write_back`]) and
/// group flushing ([`BufferPool::flush_all`]).
///
/// Lookups go through [`BufferPool::with_page`], which hands the caller a
/// borrowed view of the page bytes; the frame is pinned for the closure's
/// duration and the closure scope bounds the borrow.
pub struct BufferPool {
    shards: Vec<Shard>,
    /// Bit mask selecting a shard from the page-id hash
    /// (`shards.len()` is always a power of two).
    shard_mask: u64,
    capacity: usize,
    metrics: Arc<MetricsRegistry>,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages, with an
    /// automatically chosen shard count (1 shard below
    /// `MIN_FRAMES_PER_SHARD`·2 frames, then doubling with capacity up
    /// to 64 shards).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::auto_shards(capacity))
    }

    /// The shard count [`BufferPool::new`] would pick for `capacity`.
    pub fn auto_shards(capacity: usize) -> usize {
        let auto = (capacity / MIN_FRAMES_PER_SHARD)
            .next_power_of_two()
            .clamp(1, MAX_AUTO_SHARDS);
        // next_power_of_two rounds up; only split when every shard keeps
        // at least MIN_FRAMES_PER_SHARD frames.
        let shards = if auto > 1 && capacity / auto < MIN_FRAMES_PER_SHARD {
            auto / 2
        } else {
            auto
        };
        shards.max(1)
    }

    /// Creates a pool with an explicit shard count (rounded up to a
    /// power of two, capped by `capacity` so no shard is empty).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    fn with_shards(capacity: usize, shards: usize) -> Self {
        Self::with_shards_on(capacity, shards, Arc::new(MetricsRegistry::new()))
    }

    /// Creates a pool with an explicit shard count (rounded up to a
    /// power of two, capped by `capacity` so no shard is empty),
    /// publishing the per-shard counters into the caller's registry (the
    /// [`crate::StorageEngine`] shares one registry between its disk
    /// and its pool).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    pub fn with_shards_on(capacity: usize, shards: usize, metrics: Arc<MetricsRegistry>) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        let n = shards.next_power_of_two().min(capacity.next_power_of_two());
        let n = n.min(1usize << 32.min(usize::BITS - 1));
        let shards: Vec<Shard> = split_capacity(capacity, n)
            .enumerate()
            .map(|(i, cap)| Shard::new(cap, i, &metrics))
            .collect();
        debug_assert!(shards.iter().all(|s| s.capacity > 0) || capacity < n);
        Self {
            shards,
            shard_mask: (n - 1) as u64,
            capacity,
            metrics,
        }
    }

    /// Maximum number of cached pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The registry the pool's counters live in.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Number of independently locked shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, id: PageId) -> &Shard {
        // Fibonacci (multiplicative) hash spreads consecutive page ids —
        // the common allocation pattern — uniformly across shards.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h & self.shard_mask) as usize]
    }

    /// Runs `f` over the bytes of page `id`, faulting it in from `disk`
    /// on a miss (evicting the shard's least-recently-used frame — with
    /// write-back if it is dirty — if the shard is full). The frame is
    /// pinned while `f` runs.
    ///
    /// Pages enter the cache only after the physical read verified
    /// their checksum, so buffer hits never re-verify; a failed read
    /// caches nothing and the error propagates.
    pub fn with_page<T>(
        &self,
        disk: &DiskManager,
        id: PageId,
        f: impl FnOnce(&PageBuf) -> T,
    ) -> CfResult<T> {
        let shard = self.shard_of(id);
        let mut inner = shard.inner.lock().expect("buffer shard poisoned");
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;

        if let Some(frame) = inner.frames.get_mut(&id) {
            shard.hits.inc();
            tally::count_pool_hit();
            let old = frame.stamp;
            frame.stamp = stamp;
            frame.pins += 1;
            inner.lru.remove(&old);
            inner.lru.insert(stamp, id);
            // Re-borrow immutably for the closure.
            let frame = &inner.frames[&id];
            let out = f(&frame.data);
            if let Some(frame) = inner.frames.get_mut(&id) {
                frame.pins -= 1;
            }
            return Ok(out);
        }

        // Miss: the shard lock is held across the disk read, so two
        // threads faulting the same page serialize and the second sees a
        // hit — misses always equal physical reads.
        shard.misses.inc();
        tally::count_pool_miss();
        // Make room for the incoming frame, writing back a dirty victim
        // if that is what the LRU order serves up. The loop also absorbs
        // a concurrent shrink.
        shard.evict_to_capacity(&mut inner, 1, disk)?;
        let mut data = Box::new([0u8; crate::PAGE_SIZE]);
        disk.read_page(id, &mut data)?;
        inner.lru.insert(stamp, id);
        inner.frames.insert(
            id,
            Frame {
                data,
                stamp,
                dirty: false,
                pins: 0,
            },
        );
        Ok(f(&inner.frames[&id].data))
    }

    /// Writes a page through the cache to disk: the disk copy is
    /// written first, then the cached copy (if any) is updated in
    /// place (and marked clean). If the disk write fails, any cached
    /// frame for the page is invalidated — the disk may hold a torn
    /// image and the next read must see the disk's truth (typically
    /// [`crate::CfError::Corrupt`]).
    ///
    /// Use this for pages whose durability *order* matters (commit
    /// points); use [`BufferPool::write_back`] for bulk data.
    pub fn write_through(&self, disk: &DiskManager, id: PageId, buf: &PageBuf) -> CfResult<()> {
        match disk.write_page(id, buf) {
            Ok(()) => {
                let shard = self.shard_of(id);
                let mut inner = shard.inner.lock().expect("buffer shard poisoned");
                if let Some(frame) = inner.frames.get_mut(&id) {
                    frame.data.copy_from_slice(buf);
                    frame.dirty = false;
                }
                Ok(())
            }
            Err(e) => {
                let shard = self.shard_of(id);
                let mut inner = shard.inner.lock().expect("buffer shard poisoned");
                if let Some(frame) = inner.frames.remove(&id) {
                    inner.lru.remove(&frame.stamp);
                }
                Err(e)
            }
        }
    }

    /// Writes a page into the cache only, marking the frame dirty. The
    /// bytes reach disk when the frame is evicted or at the next
    /// [`BufferPool::flush_all`] — until then a crash loses them, which
    /// is the write-back contract: callers that need durability call
    /// `flush_all` + `sync` (or use [`BufferPool::write_through`]).
    ///
    /// The page must already be allocated on `disk`; writing an
    /// unallocated page is reported now (as the disk itself would)
    /// rather than surfacing at some distant eviction.
    pub fn write_back(&self, disk: &DiskManager, id: PageId, buf: &PageBuf) -> CfResult<()> {
        if id.index() >= disk.num_pages() {
            return Err(CfError::corrupt(
                id,
                format!(
                    "buffered write to unallocated page (disk has {} pages)",
                    disk.num_pages()
                ),
            ));
        }
        let shard = self.shard_of(id);
        let mut inner = shard.inner.lock().expect("buffer shard poisoned");
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        if let Some(frame) = inner.frames.get_mut(&id) {
            let old = frame.stamp;
            frame.stamp = stamp;
            frame.data.copy_from_slice(buf);
            frame.dirty = true;
            inner.lru.remove(&old);
            inner.lru.insert(stamp, id);
            return Ok(());
        }
        shard.evict_to_capacity(&mut inner, 1, disk)?;
        inner.lru.insert(stamp, id);
        inner.frames.insert(
            id,
            Frame {
                data: Box::new(*buf),
                stamp,
                dirty: true,
                pins: 0,
            },
        );
        Ok(())
    }

    /// Writes every dirty frame to `disk` in ascending [`PageId`] order
    /// — one seek pass over the file — marking each clean. Returns the
    /// number of pages written. Callers wanting durability follow with
    /// `disk.sync()` (the [`crate::StorageEngine::sync`] facade does).
    ///
    /// On a write failure the failed frame stays cached and dirty and
    /// the error propagates; pages already flushed stay clean, so a
    /// retry resumes where it stopped.
    pub fn flush_all(&self, disk: &DiskManager) -> CfResult<usize> {
        let mut dirty: Vec<PageId> = Vec::new();
        for shard in &self.shards {
            let inner = shard.inner.lock().expect("buffer shard poisoned");
            dirty.extend(
                inner
                    .frames
                    .iter()
                    .filter(|(_, f)| f.dirty)
                    .map(|(&id, _)| id),
            );
        }
        dirty.sort_unstable();
        let mut flushed = 0usize;
        for id in dirty {
            let shard = self.shard_of(id);
            let mut inner = shard.inner.lock().expect("buffer shard poisoned");
            // Re-check under the lock: the frame may have been flushed
            // by an eviction (or dropped) since the scan.
            let Some(frame) = inner.frames.get_mut(&id) else {
                continue;
            };
            if !frame.dirty {
                continue;
            }
            disk.write_page(id, &frame.data)?;
            frame.dirty = false;
            shard.writebacks.inc();
            flushed += 1;
        }
        Ok(flushed)
    }

    /// Drops every *clean* cached frame (cold-cache benchmarking).
    /// Dirty frames are retained — their bytes exist nowhere else; call
    /// [`BufferPool::flush_all`] first for a truly empty pool (the
    /// engine's `clear_cache` does).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock().expect("buffer shard poisoned");
            let keep: Vec<(PageId, Frame)> = inner
                .frames
                .drain()
                .filter(|(_, f)| f.dirty || f.pins > 0)
                .collect();
            inner.lru.clear();
            for (id, frame) in keep {
                inner.lru.insert(frame.stamp, id);
                inner.frames.insert(id, frame);
            }
        }
    }

    /// Drops any cached frames for the `n` pages starting at `id`,
    /// dirty or not — for pages being freed, whose bytes must not
    /// resurface from the cache after the disk reuses them.
    pub fn invalidate_run(&self, id: PageId, n: usize) {
        for offset in 0..n as u64 {
            let page = PageId(id.0 + offset);
            let shard = self.shard_of(page);
            let mut inner = shard.inner.lock().expect("buffer shard poisoned");
            if let Some(frame) = inner.frames.remove(&page) {
                inner.lru.remove(&frame.stamp);
            }
        }
    }

    /// Number of currently cached pages (sum over shards).
    pub fn cached_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().expect("buffer shard poisoned").frames.len())
            .sum()
    }

    /// Number of cached pages holding bytes the disk does not have yet.
    #[cfg(test)]
    pub(crate) fn dirty_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.inner
                    .lock()
                    .expect("buffer shard poisoned")
                    .frames
                    .values()
                    .filter(|f| f.dirty)
                    .count()
            })
            .sum()
    }

    /// Cache hits so far (sum over shards).
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits.get()).sum()
    }

    /// Cache misses so far (sum over shards).
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses.get()).sum()
    }

    /// Evictions so far (sum over shards).
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions.get()).sum()
    }

    /// Per-shard counters (capacity, cached frames, hits, misses,
    /// evictions) — the aggregate of `hits`/`misses` over this snapshot
    /// equals [`BufferPool::hits`]/[`BufferPool::misses`] when the pool
    /// is quiescent. Counters survive [`BufferPool::clear`]; only the
    /// explicit
    /// [`BufferPool::reset_counters`] zeroes them. Public for the root
    /// crate's I/O accounting tests.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                capacity: s.capacity,
                cached_pages: s.inner.lock().expect("buffer shard poisoned").frames.len(),
                hits: s.hits.get(),
                misses: s.misses.get(),
                evictions: s.evictions.get(),
            })
            .collect()
    }

    /// Explicitly resets hit/miss/eviction counters (cached contents
    /// are untouched) — the warmup reset used by the bench harness so
    /// warm-path numbers aren't polluted by build-time I/O.
    pub fn reset_counters(&self) {
        for shard in &self.shards {
            shard.hits.reset();
            shard.misses.reset();
            shard.evictions.reset();
            shard.writebacks.reset();
        }
    }
}

/// Per-shard capacities for a pool of `capacity` frames over `n`
/// shards: as even as possible, the first `capacity % n` shards taking
/// one extra frame.
fn split_capacity(capacity: usize, n: usize) -> impl Iterator<Item = usize> {
    let base = capacity / n;
    let extra = capacity % n;
    (0..n).map(move |i| base + usize::from(i < extra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    fn page_with_tag(tag: u8) -> PageBuf {
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = tag;
        buf
    }

    #[test]
    fn hit_after_first_access() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        disk.write_page(id, &page_with_tag(9)).expect("write");
        let pool = BufferPool::new(4);

        let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
        assert_eq!(v, 9);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 0);

        let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
        assert_eq!(v, 9);
        assert_eq!(pool.hits(), 1);
        // Only one physical read happened.
        assert_eq!(disk.reads(), 1);
    }

    #[test]
    fn small_pools_are_single_shard() {
        assert_eq!(BufferPool::new(1).num_shards(), 1);
        assert_eq!(BufferPool::new(64).num_shards(), 1);
        assert_eq!(BufferPool::new(127).num_shards(), 1);
    }

    #[test]
    fn large_pools_shard_with_full_capacity() {
        for cap in [128usize, 256, 1000, 4096] {
            let pool = BufferPool::new(cap);
            assert!(pool.num_shards() > 1, "capacity {cap}");
            assert!(pool.num_shards().is_power_of_two());
            let total: usize = pool.shard_stats().iter().map(|s| s.capacity).sum();
            assert_eq!(total, cap, "capacity {cap} split losslessly");
            assert!(pool
                .shard_stats()
                .iter()
                .all(|s| s.capacity >= MIN_FRAMES_PER_SHARD));
        }
    }

    #[test]
    fn explicit_shard_count_is_honored() {
        let pool = BufferPool::with_shards(64, 8);
        assert_eq!(pool.num_shards(), 8);
        let total: usize = pool.shard_stats().iter().map(|s| s.capacity).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn lru_eviction_order() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..4)
            .map(|i| {
                let id = disk.allocate().expect("allocate");
                disk.write_page(id, &page_with_tag(i as u8)).expect("write");
                id
            })
            .collect();
        let pool = BufferPool::new(2);
        assert_eq!(pool.num_shards(), 1, "small pool must be one exact LRU");

        pool.with_page(&disk, ids[0], |_| ()).expect("read");
        pool.with_page(&disk, ids[1], |_| ()).expect("read");
        // Touch 0 so 1 becomes the LRU victim.
        pool.with_page(&disk, ids[0], |_| ()).expect("read");
        pool.with_page(&disk, ids[2], |_| ()).expect("read"); // evicts 1
        assert_eq!(pool.cached_pages(), 2);

        disk.reset_counters();
        pool.with_page(&disk, ids[0], |_| ()).expect("read"); // still cached
        assert_eq!(disk.reads(), 0);
        pool.with_page(&disk, ids[1], |_| ()).expect("read"); // was evicted
        assert_eq!(disk.reads(), 1);
    }

    #[test]
    fn write_through_updates_cache_and_disk() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        let pool = BufferPool::new(2);
        pool.with_page(&disk, id, |_| ()).expect("read"); // cache the zero page
        pool.write_through(&disk, id, &page_with_tag(7))
            .expect("write");
        // Cached copy was updated: no new physical read needed.
        disk.reset_counters();
        let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
        assert_eq!(v, 7);
        assert_eq!(disk.reads(), 0);
        // Disk copy was updated too.
        pool.clear();
        let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
        assert_eq!(v, 7);
    }

    #[test]
    fn clear_forces_refetch() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        let pool = BufferPool::new(2);
        pool.with_page(&disk, id, |_| ()).expect("read");
        pool.clear();
        assert_eq!(pool.cached_pages(), 0);
        disk.reset_counters();
        pool.with_page(&disk, id, |_| ()).expect("read");
        assert_eq!(disk.reads(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(0);
    }

    #[test]
    fn counters_survive_clear() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..32)
            .map(|_| disk.allocate().expect("allocate"))
            .collect();
        let pool = BufferPool::with_shards(16, 2);
        for &id in &ids {
            pool.with_page(&disk, id, |_| ()).expect("read");
        }
        for &id in ids.iter().take(8) {
            pool.with_page(&disk, id, |_| ()).expect("read");
        }
        let (hits, misses) = (pool.hits(), pool.misses());
        assert!(misses > 0);

        // clear() drops frames but history counters must survive.
        pool.clear();
        assert_eq!(pool.cached_pages(), 0);
        assert_eq!((pool.hits(), pool.misses()), (hits, misses));

        // Only the explicit reset zeroes the counters.
        pool.reset_counters();
        assert_eq!((pool.hits(), pool.misses(), pool.evictions()), (0, 0, 0));
    }

    #[test]
    fn steady_state_evictions_are_counted() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..20)
            .map(|_| disk.allocate().expect("allocate"))
            .collect();
        let pool = BufferPool::new(4);
        for &id in &ids {
            pool.with_page(&disk, id, |_| ()).expect("read");
        }
        // 20 faults into 4 frames: the first 4 fill, the rest each evict.
        assert_eq!(pool.evictions(), 16);
        assert_eq!(
            pool.shard_stats().iter().map(|s| s.evictions).sum::<u64>(),
            16
        );
    }

    #[test]
    fn capacity_is_respected_under_scan() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..100)
            .map(|_| disk.allocate().expect("allocate"))
            .collect();
        let pool = BufferPool::new(10);
        for &id in &ids {
            pool.with_page(&disk, id, |_| ()).expect("read");
        }
        assert_eq!(pool.cached_pages(), 10);
        assert_eq!(pool.misses(), 100);
    }

    #[test]
    fn sharded_pool_respects_total_capacity_under_scan() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..2000)
            .map(|_| disk.allocate().expect("allocate"))
            .collect();
        let pool = BufferPool::with_shards(256, 4);
        for &id in &ids {
            pool.with_page(&disk, id, |_| ()).expect("read");
        }
        assert!(pool.cached_pages() <= 256);
        assert_eq!(pool.misses(), 2000);
        // Every shard saw traffic (the hash spreads sequential ids).
        assert!(pool.shard_stats().iter().all(|s| s.misses > 0));
    }

    #[test]
    fn shard_counters_sum_to_pool_counters() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..512)
            .map(|_| disk.allocate().expect("allocate"))
            .collect();
        let pool = BufferPool::with_shards(128, 8);
        for &id in &ids {
            pool.with_page(&disk, id, |_| ()).expect("read");
        }
        for &id in ids.iter().rev().take(64) {
            pool.with_page(&disk, id, |_| ()).expect("read");
        }
        let stats = pool.shard_stats();
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), pool.hits());
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), pool.misses());
        assert_eq!(
            stats.iter().map(|s| s.cached_pages).sum::<usize>(),
            pool.cached_pages()
        );
        // Conservation: every lookup was a hit or a miss, and every miss
        // was one physical read.
        assert_eq!(pool.hits() + pool.misses(), 512 + 64);
        assert_eq!(pool.misses(), disk.reads());
    }

    #[test]
    fn concurrent_readers_agree_and_account_exactly() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..64)
            .map(|i| {
                let id = disk.allocate().expect("allocate");
                disk.write_page(id, &page_with_tag(i as u8)).expect("write");
                id
            })
            .collect();
        let pool = BufferPool::with_shards(256, 8);

        std::thread::scope(|scope| {
            for t in 0..8 {
                let (pool, disk, ids) = (&pool, &disk, &ids);
                scope.spawn(move || {
                    for round in 0..50 {
                        let i = (t * 7 + round * 13) % ids.len();
                        let v = pool.with_page(disk, ids[i], |p| p[0]).expect("read");
                        assert_eq!(v, i as u8);
                    }
                });
            }
        });
        // Conservation under concurrency: lookups = hits + misses and
        // misses = physical reads (the shard lock spans the fault-in).
        assert_eq!(pool.hits() + pool.misses(), 8 * 50);
        assert_eq!(pool.misses(), disk.reads());
        assert!(pool.cached_pages() <= 64);
    }

    #[test]
    fn failed_reads_cache_nothing_and_failed_writes_invalidate() {
        use crate::Fault;
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        disk.write_page(id, &page_with_tag(1)).expect("write");
        let pool = BufferPool::new(4);

        disk.inject_fault(Fault::FailRead { nth: 0 });
        assert!(pool.with_page(&disk, id, |_| ()).is_err());
        assert_eq!(pool.cached_pages(), 0, "failed fault-in must not cache");
        disk.clear_faults();
        let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
        assert_eq!(v, 1);

        // A torn write drops the stale frame so the next read sees the
        // disk's (corrupt) truth instead of a cached pre-write image.
        disk.inject_fault(Fault::TornWrite { nth: 0, keep: 8 });
        assert!(pool.write_through(&disk, id, &page_with_tag(2)).is_err());
        assert_eq!(pool.cached_pages(), 0, "failed write must invalidate");
        let err = pool
            .with_page(&disk, id, |_| ())
            .expect_err("torn page is corrupt");
        assert!(err.is_corrupt());
        disk.clear_faults();
    }

    #[test]
    fn write_back_defers_the_disk_write_until_flush() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        let pool = BufferPool::new(4);

        pool.write_back(&disk, id, &page_with_tag(5))
            .expect("write");
        assert_eq!(disk.writes(), 0, "no physical write yet");
        assert_eq!(pool.dirty_pages(), 1);
        // The cache serves the buffered bytes.
        let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
        assert_eq!(v, 5);
        assert_eq!(disk.reads(), 0, "served from the dirty frame");

        let flushed = pool.flush_all(&disk).expect("flush");
        assert_eq!(flushed, 1);
        assert_eq!(disk.writes(), 1);
        assert_eq!(pool.dirty_pages(), 0);
        assert_eq!(pool.metrics().counter_total("pool_writebacks_total"), 1);
        // Idempotent: nothing left to flush.
        assert_eq!(pool.flush_all(&disk).expect("flush"), 0);
        // The disk really has the bytes.
        pool.clear();
        let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
        assert_eq!(v, 5);
    }

    #[test]
    fn dirty_eviction_writes_the_victim_back() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..3).map(|_| disk.allocate().expect("allocate")).collect();
        let pool = BufferPool::new(2);
        assert_eq!(pool.num_shards(), 1);

        pool.write_back(&disk, ids[0], &page_with_tag(10))
            .expect("write");
        pool.write_back(&disk, ids[1], &page_with_tag(11))
            .expect("write");
        assert_eq!(disk.writes(), 0);
        // Third dirty page: the pool is full, so the LRU dirty victim
        // (ids[0]) is written back to make room.
        pool.write_back(&disk, ids[2], &page_with_tag(12))
            .expect("write");
        assert_eq!(disk.writes(), 1, "one write-back, not a drop");
        assert_eq!(pool.metrics().counter_total("pool_writebacks_total"), 1);
        assert_eq!(pool.evictions(), 1);
        // Nothing was lost: every page reads back with its bytes.
        for (i, &id) in ids.iter().enumerate() {
            let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
            assert_eq!(v, 10 + i as u8);
        }
    }

    #[test]
    fn flush_all_writes_in_ascending_page_order() {
        use crate::Fault;
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..4).map(|_| disk.allocate().expect("allocate")).collect();
        let pool = BufferPool::new(8);
        // Dirty the pages in descending order; the flush must not
        // follow insertion order.
        for &id in ids.iter().rev() {
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = 0x40 + id.0 as u8;
            pool.write_back(&disk, id, &buf).expect("write");
        }
        // Fail the *second* write: with ascending order, exactly the
        // lowest page id reaches the disk before the error.
        disk.clear_faults();
        disk.inject_fault(Fault::FailWrite { nth: 1 });
        let err = pool.flush_all(&disk).expect_err("second write faults");
        assert!(err.is_injected());
        assert_eq!(disk.writes(), 2, "write 0 succeeded, write 1 faulted");
        assert_eq!(pool.dirty_pages(), 3, "only the lowest page is clean");
        disk.clear_faults();
        // Retry resumes with the remaining dirty pages.
        assert_eq!(pool.flush_all(&disk).expect("flush"), 3);
        pool.clear();
        for &id in &ids {
            let v = pool.with_page(&disk, id, |p| p[0]).expect("read");
            assert_eq!(v, 0x40 + id.0 as u8);
        }
    }

    #[test]
    fn clear_retains_dirty_frames() {
        let disk = DiskManager::new();
        let a = disk.allocate().expect("allocate");
        let b = disk.allocate().expect("allocate");
        let pool = BufferPool::new(4);
        pool.with_page(&disk, a, |_| ()).expect("read"); // clean frame
        pool.write_back(&disk, b, &page_with_tag(3)).expect("write");

        pool.clear();
        assert_eq!(pool.cached_pages(), 1, "clean dropped, dirty kept");
        assert_eq!(pool.dirty_pages(), 1);
        // The buffered bytes were not lost.
        let v = pool.with_page(&disk, b, |p| p[0]).expect("read");
        assert_eq!(v, 3);
        // After a flush, clear really empties the pool.
        pool.flush_all(&disk).expect("flush");
        pool.clear();
        assert_eq!(pool.cached_pages(), 0);
    }

    #[test]
    fn invalidate_run_drops_frames_dirty_or_not() {
        let disk = DiskManager::new();
        let ids: Vec<PageId> = (0..4).map(|_| disk.allocate().expect("allocate")).collect();
        let pool = BufferPool::new(8);
        pool.with_page(&disk, ids[0], |_| ()).expect("read");
        pool.write_back(&disk, ids[1], &page_with_tag(1))
            .expect("write");
        pool.write_back(&disk, ids[3], &page_with_tag(3))
            .expect("write");

        pool.invalidate_run(ids[0], 3); // pages 0, 1, 2
        assert_eq!(pool.cached_pages(), 1, "only page 3 remains");
        assert_eq!(pool.dirty_pages(), 1);
        // The invalidated dirty page never reaches the disk.
        assert_eq!(pool.flush_all(&disk).expect("flush"), 1);
        pool.clear();
        let v = pool.with_page(&disk, ids[1], |p| p[0]).expect("read");
        assert_eq!(v, 0, "freed page's buffered bytes were discarded");
    }

    #[test]
    fn write_back_to_unallocated_page_is_reported_now() {
        let disk = DiskManager::new();
        let _ = disk.allocate().expect("allocate");
        let pool = BufferPool::new(4);
        let err = pool
            .write_back(&disk, PageId(9), &page_with_tag(1))
            .expect_err("unallocated");
        assert!(err.is_corrupt());
        assert_eq!(pool.dirty_pages(), 0);
    }
}
