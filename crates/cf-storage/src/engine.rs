//! The storage façade bundling disk + buffer pool.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::fault::FiredFault;
use crate::{BufferPool, CfResult, DiskManager, Fault, IoStats, PageBuf, PageCodec, PageId};
use cf_obs::{Histogram, MetricsRegistry};
use std::sync::Arc;

/// Configuration for a [`StorageEngine`].
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
    /// Page codec [`crate::CellFile::create`] lays new record files
    /// out with: [`PageCodec::Raw`] fixed-slot pages (the default) or
    /// [`PageCodec::Compressed`] delta/varint pages packing several
    /// times more Hilbert-ordered cells per page. It decides a file's
    /// codec at build only: a reopened file reads its codec from its
    /// catalog, and a live-ingest repack writes the codec of the file
    /// it replaces ([`crate::CellFile::create_as`]), whatever this says.
    pub codec: PageCodec,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            pool_pages: 256,
            codec: PageCodec::Raw,
        }
    }
}

impl StorageConfig {
    /// The pool, sharded by [`BufferPool::auto_shards`].
    fn build_pool(&self, registry: Arc<MetricsRegistry>) -> BufferPool {
        let shards = BufferPool::auto_shards(self.pool_pages);
        BufferPool::with_shards_on(self.pool_pages, shards, registry)
    }
}

/// A simulated database storage engine: one disk, one buffer pool.
///
/// All page traffic of the value indexes, the R\*-trees and the cell
/// files flows through a shared `StorageEngine`, so [`IoStats`]
/// snapshots capture the complete cost of a query. A clone is another
/// handle on the same engine; the file closes with the last.
#[derive(Clone)]
pub struct StorageEngine(pub(crate) Arc<Shared>);

/// What every handle of one [`StorageEngine`] shares.
pub(crate) struct Shared {
    disk: DiskManager,
    pool: BufferPool,
    metrics: Arc<MetricsRegistry>,
    /// `storage_page_decode`, resolved once: the compressed range sweep
    /// observes it per page and must not go through the registry's
    /// by-name lookup (one global mutex) each time.
    pub(crate) page_decode_ns: Histogram,
    /// `storage_page_encode`, resolved once like its sibling: every
    /// compressed page a build, repack or `put` writes observes it.
    pub(crate) page_encode_ns: Histogram,
    codec: PageCodec,
}

impl StorageEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: StorageConfig) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        Self(Arc::new(Shared {
            disk: DiskManager::new_on(Arc::clone(&metrics)),
            pool: config.build_pool(Arc::clone(&metrics)),
            page_decode_ns: metrics.time_histogram("storage_page_decode", &[]),
            page_encode_ns: metrics.time_histogram("storage_page_encode", &[]),
            metrics,
            codec: config.codec,
        }))
    }

    /// The page codec new [`crate::CellFile`]s on this engine use.
    pub fn codec(&self) -> PageCodec {
        self.0.codec
    }

    /// Creates an in-memory engine with default configuration (256-page
    /// pool, raw pages).
    pub fn in_memory() -> Self {
        Self::new(StorageConfig::default())
    }

    /// Opens (or creates) an engine backed by a real database file.
    ///
    /// Existing pages are preserved, so a database file survives process
    /// restarts; see [`DiskManager::open_file`].
    pub fn open_file(path: impl AsRef<std::path::Path>, config: StorageConfig) -> CfResult<Self> {
        let metrics = Arc::new(MetricsRegistry::new());
        Ok(Self(Arc::new(Shared {
            disk: DiskManager::open_file_on(path, Arc::clone(&metrics))?,
            pool: config.build_pool(Arc::clone(&metrics)),
            page_decode_ns: metrics.time_histogram("storage_page_decode", &[]),
            page_encode_ns: metrics.time_histogram("storage_page_encode", &[]),
            metrics,
            codec: config.codec,
        })))
    }

    /// The engine's unified metrics registry: the disk, pool, R-tree
    /// and index layers all publish into it, so one
    /// [`MetricsRegistry::render_text`] snapshot covers a query end to
    /// end.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.0.metrics
    }

    /// Flushes every dirty buffer-pool frame to the disk (ascending
    /// page order), then flushes a file-backed disk to stable storage
    /// (the disk flush is a no-op in memory). After `sync` returns, all
    /// buffered writes are durable.
    pub fn sync(&self) -> CfResult<()> {
        self.0.pool.flush_all(&self.0.disk)?;
        self.0.disk.sync()
    }

    /// Writes every dirty buffer-pool frame to the disk in ascending
    /// page order, returning how many pages were written. Unlike
    /// [`StorageEngine::sync`] this does not force the file to stable
    /// storage.
    pub fn flush(&self) -> CfResult<usize> {
        self.0.pool.flush_all(&self.0.disk)
    }

    /// Allocates one page.
    pub fn allocate_page(&self) -> CfResult<PageId> {
        self.0.disk.allocate()
    }

    /// Allocates `n` physically consecutive pages, returning the first id.
    pub fn allocate_run(&self, n: usize) -> CfResult<PageId> {
        self.0.disk.allocate_run(n)
    }

    /// Reads page `id` through the buffer pool and passes its bytes to `f`.
    pub fn with_page<T>(&self, id: PageId, f: impl FnOnce(&PageBuf) -> T) -> CfResult<T> {
        self.0.pool.with_page(&self.0.disk, id, f)
    }

    /// Like [`StorageEngine::with_page`] for fallible `f`: decode
    /// errors from the closure and I/O errors from the fault-in share
    /// one `CfResult`.
    pub fn try_with_page<T>(
        &self,
        id: PageId,
        f: impl FnOnce(&PageBuf) -> CfResult<T>,
    ) -> CfResult<T> {
        self.0.pool.with_page(&self.0.disk, id, f)?
    }

    /// Writes a full page through the pool to disk (write-through: the
    /// disk has the bytes when this returns — the right call for
    /// commit-point pages whose durability order matters).
    pub fn write_page(&self, id: PageId, buf: &PageBuf) -> CfResult<()> {
        self.0.pool.write_through(&self.0.disk, id, buf)
    }

    /// Writes a full page into the buffer pool only, deferring the
    /// physical write to eviction or the next [`StorageEngine::flush`]/
    /// [`StorageEngine::sync`] — the right call for bulk builds. A
    /// crash before the flush loses the buffered bytes.
    pub fn write_page_buffered(&self, id: PageId, buf: &PageBuf) -> CfResult<()> {
        self.0.pool.write_back(&self.0.disk, id, buf)
    }

    /// Returns one page to the disk's freelist. See
    /// [`StorageEngine::free_run`].
    pub fn free_page(&self, id: PageId) -> CfResult<()> {
        self.free_run(id, 1)
    }

    /// Returns `n` consecutive pages starting at `id` to the disk's
    /// freelist, dropping any cached frames for them (dirty or not —
    /// the caller is declaring the bytes dead). Later allocations reuse
    /// the hole before the file grows; a hole at the end of the file
    /// shrinks it. See [`DiskManager::free_run`].
    pub fn free_run(&self, id: PageId, n: usize) -> CfResult<()> {
        self.0.pool.invalidate_run(id, n);
        self.0.disk.free_run(id, n)
    }

    /// Like [`StorageEngine::free_run`], but on a file a run that ends
    /// the file stays on the freelist instead of shrinking it. See
    /// [`DiskManager::free_run_in_place`].
    pub fn free_run_in_place(&self, id: PageId, n: usize) -> CfResult<()> {
        self.0.pool.invalidate_run(id, n);
        self.0.disk.free_run_in_place(id, n)
    }

    /// Total pages currently on the disk's freelist.
    pub fn free_pages(&self) -> usize {
        self.0.disk.free_pages()
    }

    /// How many of the `n` pages starting at `id` are on the disk's
    /// freelist. See [`DiskManager::free_pages_in`].
    pub fn free_pages_in(&self, id: PageId, n: usize) -> usize {
        self.0.disk.free_pages_in(id, n)
    }

    /// Arms a deterministic fault on the underlying disk (see [`Fault`]).
    ///
    /// Faults fire on *physical* I/O ordinals, so buffer-pool hits do
    /// not advance them; clear the cache first for fully deterministic
    /// read ordinals.
    pub fn inject_fault(&self, fault: Fault) {
        self.0.disk.inject_fault(fault);
    }

    /// Disarms all faults and resets the fault-ordinal counters.
    pub fn clear_faults(&self) {
        self.0.disk.clear_faults();
    }

    /// Physical `(reads, writes)` since the last
    /// [`StorageEngine::clear_faults`] — the ordinal space faults are
    /// keyed in.
    pub fn fault_ops(&self) -> (u64, u64) {
        self.0.disk.fault_ops()
    }

    /// Total pages allocated on the disk.
    pub fn num_pages(&self) -> usize {
        self.0.disk.num_pages()
    }

    /// Snapshot of all I/O counters.
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            disk_reads: self.0.disk.reads(),
            disk_writes: self.0.disk.writes(),
            pool_hits: self.0.pool.hits(),
            pool_misses: self.0.pool.misses(),
        }
    }

    /// Resets all I/O counters — and, because they live in the shared
    /// registry, every other metric published against this engine
    /// (cache contents are untouched). This is the explicit "forget
    /// warmup" reset the bench harness uses.
    pub fn reset_stats(&self) {
        self.0.metrics.reset();
    }

    /// Every injected fault that actually fired since the last
    /// [`StorageEngine::clear_faults`], in firing order — crash-safety
    /// tests assert these match the faults they armed.
    pub fn fired_faults(&self) -> Vec<FiredFault> {
        self.0.disk.fired_faults()
    }

    /// Empties the buffer pool so the next accesses hit the disk — used
    /// by benchmarks to measure cold-cache query cost, which is the
    /// regime the paper's numbers were taken in.
    ///
    /// Dirty frames are flushed first (best effort — on a flush failure
    /// the affected frames stay cached and dirty rather than losing
    /// bytes; the error will resurface on the next fallible
    /// [`StorageEngine::flush`]/[`StorageEngine::sync`]).
    pub fn clear_cache(&self) {
        let _ = self.0.pool.flush_all(&self.0.disk);
        self.0.pool.clear();
    }

    /// The underlying buffer pool (stats / capacity introspection).
    pub fn pool(&self) -> &BufferPool {
        &self.0.pool
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{CfError, PAGE_SIZE};

    #[test]
    fn stats_cover_pool_and_disk() {
        let engine = StorageEngine::in_memory();
        let id = engine.allocate_page().expect("allocate");
        let mut buf = [0u8; PAGE_SIZE];
        buf[10] = 42;
        engine.write_page(id, &buf).expect("write");

        let before = engine.io_stats();
        let v = engine.with_page(id, |p| p[10]).expect("read");
        assert_eq!(v, 42);
        let v = engine.with_page(id, |p| p[10]).expect("read");
        assert_eq!(v, 42);
        let delta = engine.io_stats() - before;
        assert_eq!(delta.logical_reads(), 2);
        assert_eq!(delta.pool_misses, 1);
        assert_eq!(delta.pool_hits, 1);
        assert_eq!(delta.disk_reads, 1);
    }

    #[test]
    fn clear_cache_makes_reads_cold() {
        let engine = StorageEngine::in_memory();
        let id = engine.allocate_page().expect("allocate");
        engine.with_page(id, |_| ()).expect("read");
        engine.clear_cache();
        engine.reset_stats();
        engine.with_page(id, |_| ()).expect("read");
        let s = engine.io_stats();
        assert_eq!(s.pool_misses, 1);
        assert_eq!(s.disk_reads, 1);
    }

    #[test]
    fn small_pool_evicts_under_pressure() {
        let engine = StorageEngine::new(StorageConfig {
            pool_pages: 2,
            ..StorageConfig::default()
        });
        let ids: Vec<_> = (0..5)
            .map(|_| engine.allocate_page().expect("allocate"))
            .collect();
        for &id in &ids {
            engine.with_page(id, |_| ()).expect("read");
        }
        assert_eq!(engine.pool().cached_pages(), 2);
    }

    #[test]
    fn try_with_page_flattens_decode_errors() {
        let engine = StorageEngine::in_memory();
        let id = engine.allocate_page().expect("allocate");
        let ok: CfResult<u8> = engine.try_with_page(id, |p| Ok(p[0]));
        assert_eq!(ok.expect("decode"), 0);
        let err = engine
            .try_with_page::<u8>(id, |_| Err(CfError::corrupt(id, "bad node header")))
            .expect_err("closure error propagates");
        assert!(err.is_corrupt());
    }

    #[test]
    fn registry_totals_are_the_same_atomics_as_io_stats() {
        let engine = StorageEngine::in_memory();
        let ids: Vec<_> = (0..8)
            .map(|_| engine.allocate_page().expect("allocate"))
            .collect();
        let buf = [1u8; PAGE_SIZE];
        for &id in &ids {
            engine.write_page(id, &buf).expect("write");
        }
        for &id in ids.iter().chain(ids.iter()) {
            engine.with_page(id, |_| ()).expect("read");
        }
        let io = engine.io_stats();
        let m = engine.metrics();
        assert_eq!(m.counter_total("storage_disk_reads_total"), io.disk_reads);
        assert_eq!(m.counter_total("storage_disk_writes_total"), io.disk_writes);
        assert_eq!(m.counter_total("pool_hits_total"), io.pool_hits);
        assert_eq!(m.counter_total("pool_misses_total"), io.pool_misses);
        // Checksums are verified on physical reads only.
        assert_eq!(
            m.counter_total("storage_checksum_verifications_total"),
            io.disk_reads
        );
        assert_eq!(m.counter_total("storage_checksum_failures_total"), 0);
        // One timed checksum pass per physical read and per write.
        let (passes, _) = m
            .histogram_stats("storage_checksum_ns", &[])
            .expect("wired with the disk");
        assert_eq!(passes, io.disk_reads + io.disk_writes);
        // reset_stats is registry-wide.
        engine.reset_stats();
        assert_eq!(engine.io_stats(), IoStats::default());
        assert_eq!(m.counter_total("storage_checksum_verifications_total"), 0);
    }

    #[test]
    fn fired_faults_surface_through_the_engine() {
        let engine = StorageEngine::in_memory();
        let id = engine.allocate_page().expect("allocate");
        engine.clear_faults();
        engine.inject_fault(Fault::FailRead { nth: 0 });
        let err = engine.with_page(id, |_| ()).expect_err("injected");
        assert!(err.is_injected());
        let fired = engine.fired_faults();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fault, Fault::FailRead { nth: 0 });
        assert_eq!(fired[0].page, id);
        assert_eq!(
            engine
                .metrics()
                .counter_total("storage_faults_injected_total"),
            1
        );
        engine.clear_faults();
        assert!(engine.fired_faults().is_empty());
    }

    #[test]
    fn buffered_writes_reach_disk_on_sync() {
        let engine = StorageEngine::in_memory();
        let ids: Vec<_> = (0..4)
            .map(|_| engine.allocate_page().expect("allocate"))
            .collect();
        let mut buf = [0u8; PAGE_SIZE];
        for (i, &id) in ids.iter().enumerate() {
            buf[0] = i as u8 + 1;
            engine.write_page_buffered(id, &buf).expect("write");
        }
        assert_eq!(engine.io_stats().disk_writes, 0, "deferred");
        assert_eq!(engine.pool().dirty_pages(), 4);
        engine.sync().expect("sync");
        assert_eq!(engine.io_stats().disk_writes, 4);
        assert_eq!(engine.pool().dirty_pages(), 0);
        engine.clear_cache();
        for (i, &id) in ids.iter().enumerate() {
            let v = engine.with_page(id, |p| p[0]).expect("read");
            assert_eq!(v, i as u8 + 1);
        }
    }

    #[test]
    fn clear_cache_flushes_buffered_writes_first() {
        let engine = StorageEngine::in_memory();
        let id = engine.allocate_page().expect("allocate");
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0x21;
        engine.write_page_buffered(id, &buf).expect("write");
        engine.clear_cache();
        assert_eq!(engine.pool().cached_pages(), 0);
        let v = engine.with_page(id, |p| p[0]).expect("read");
        assert_eq!(v, 0x21, "buffered bytes survived the cache clear");
    }

    #[test]
    fn freed_pages_leave_the_cache_and_get_reused() {
        let engine = StorageEngine::in_memory();
        let first = engine.allocate_run(6).expect("allocate");
        assert_eq!(first, PageId(0));
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0x77;
        engine.write_page(PageId(2), &buf).expect("write");
        engine.with_page(PageId(2), |_| ()).expect("warm the cache");

        engine.free_run(PageId(1), 3).expect("free");
        assert_eq!(engine.free_pages(), 3);
        let reused = engine.allocate_run(3).expect("reuse");
        assert_eq!(reused, PageId(1));
        assert_eq!(engine.num_pages(), 6, "hole reused, no growth");
        // The pre-free cached frame must not resurface.
        let v = engine.with_page(PageId(2), |p| p[0]).expect("read");
        assert_eq!(v, 0, "reused page reads as fresh zeroes");
    }

    #[test]
    fn injected_faults_reach_engine_callers() {
        let engine = StorageEngine::in_memory();
        let id = engine.allocate_page().expect("allocate");
        engine.inject_fault(Fault::FailRead { nth: 0 });
        let err = engine
            .with_page(id, |_| ())
            .expect_err("injected read fault");
        assert!(err.is_injected());
        engine.clear_faults();
        assert_eq!(engine.fault_ops(), (0, 0));
        engine.with_page(id, |_| ()).expect("read after clear");
    }
}
