//! The disk: an array of fixed-size pages with I/O accounting, per-page
//! checksums, free-space tracking and deterministic fault injection.
//!
//! Two backings share one page-level contract: a fully deterministic
//! in-memory array (the default) and a real database file addressed by
//! positional I/O. Pages freed by [`DiskManager::free_run`] are reused
//! by [`DiskManager::allocate_run`] before the file grows. A page's
//! free state is the tag of its own checksum sidecar entry (see
//! [`crate::checksum`] and [`crate::freelist`]).
//!
//! This file is on the on-disk decode path and denies clippy's
//! `unwrap_used` and `panic` lints: every failure surfaces as a typed
//! [`CfError`].
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::checksum;
use crate::error::{CfError, CfResult, FaultOp};
use crate::fault::{FaultInjector, FiredFault, ReadAction, WriteAction};
use crate::freelist::FreeState;
use crate::stats::tally;
use crate::Fault;
use cf_obs::{Counter, Histogram, MetricsRegistry, Stopwatch};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// Page size in bytes. The paper's experiments use 4 KB pages (§4).
pub const PAGE_SIZE: usize = 4096;

/// A page-sized byte buffer.
pub type PageBuf = [u8; PAGE_SIZE];

/// Identifier of a page on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// The page id as a `usize` array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A paged disk with two interchangeable backings.
///
/// Every physical page read and write is counted and costs what its
/// backing costs: a copy for the **in-memory** array, a positional read
/// or write for the **file** (no simulated latency — DESIGN.md §3.1).
///
/// Every page carries an 8-byte sidecar checksum entry (see
/// [`crate::checksum`]) updated on write and verified on every
/// **physical** read, so torn writes and bit rot surface as
/// [`CfError::Corrupt`] with the page id instead of garbage answers.
/// Buffer-pool hits never re-verify.
pub struct DiskManager {
    backing: RwLock<Backing>,
    alloc_lock: Mutex<()>,
    free: Mutex<FreeState>,
    metrics: DiskMetrics,
    faults: FaultInjector,
}

/// Handles into the engine's [`MetricsRegistry`], cached at
/// construction so the per-I/O cost stays one relaxed atomic add. The
/// legacy `reads()`/`writes()` accessors are views over the same
/// counters, so registry totals and `IoStats` can never drift.
struct DiskMetrics {
    registry: Arc<MetricsRegistry>,
    reads: Counter,
    writes: Counter,
    checksum_verifications: Counter,
    checksum_failures: Counter,
    faults_read: Counter,
    faults_write: Counter,
    sidecar_backfilled: Counter,
    sidecar_suspect: Counter,
    pages_freed: Counter,
    pages_reused: Counter,
    read_ns: Histogram,
    write_ns: Histogram,
    /// One page checksum pass — the verify inside a physical read, the
    /// seal inside a physical write — so the integrity share of either
    /// is `storage_checksum_ns` over `storage_disk_{read,write}_ns`.
    checksum_ns: Histogram,
}

impl DiskMetrics {
    fn wire(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            reads: registry.counter("storage_disk_reads_total"),
            writes: registry.counter("storage_disk_writes_total"),
            checksum_verifications: registry.counter("storage_checksum_verifications_total"),
            checksum_failures: registry.counter("storage_checksum_failures_total"),
            faults_read: registry.counter_with("storage_faults_injected_total", &[("op", "read")]),
            faults_write: registry
                .counter_with("storage_faults_injected_total", &[("op", "write")]),
            sidecar_backfilled: registry.counter("storage_sidecar_backfilled_total"),
            sidecar_suspect: registry.counter("storage_sidecar_suspect_total"),
            pages_freed: registry.counter("storage_pages_freed_total"),
            pages_reused: registry.counter("storage_pages_reused_total"),
            read_ns: registry.time_histogram("storage_disk_read_ns", &[]),
            write_ns: registry.time_histogram("storage_disk_write_ns", &[]),
            checksum_ns: registry.time_histogram("storage_checksum_ns", &[]),
            registry,
        }
    }
}

/// Where the pages live.
enum Backing {
    /// In-memory pages plus their sidecar checksum entries (the
    /// default, fully deterministic).
    Memory {
        pages: Vec<Box<PageBuf>>,
        sums: Vec<u64>,
    },
    /// A real file on disk: pages are 4 KiB slots addressed by
    /// `page_id * PAGE_SIZE` via positional I/O; checksum entries live
    /// in a `<path>.crc` sidecar file, 8 bytes per page.
    File {
        file: File,
        sums: File,
        num_pages: usize,
    },
}

impl Backing {
    fn num_pages(&self) -> usize {
        match self {
            Backing::Memory { pages, .. } => pages.len(),
            Backing::File { num_pages, .. } => *num_pages,
        }
    }
}

impl DiskManager {
    /// Creates an empty in-memory disk.
    pub fn new() -> Self {
        Self::new_on(Arc::new(MetricsRegistry::new()))
    }

    /// Like [`DiskManager::new`], publishing counters into the caller's
    /// registry (the [`crate::StorageEngine`] shares one registry
    /// between its disk and its buffer pool).
    pub fn new_on(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            backing: RwLock::new(Backing::Memory {
                pages: Vec::new(),
                sums: Vec::new(),
            }),
            alloc_lock: Mutex::new(()),
            free: Mutex::new(FreeState::default()),
            metrics: DiskMetrics::wire(registry),
            faults: FaultInjector::new(),
        }
    }

    /// Opens (or creates) a disk backed by a real file.
    ///
    /// An existing file's pages are preserved: `num_pages` is derived
    /// from its length, so a database file can be reopened across
    /// processes. A length that is not a whole number of pages (the
    /// signature of an append torn by a crash) is **rejected** as
    /// [`CfError::Corrupt`] instead of silently losing the ragged tail.
    /// Page-level persistence only — callers keep their own catalog of
    /// what lives where (see the `file_backed_db` integration test).
    ///
    /// Checksums live in a `<path>.crc` sidecar, and the freelist is
    /// its free-tagged entries below `num_pages`. Pages the sidecar
    /// does not cover — a tail past a shorter sidecar, or every page
    /// when the sidecar is missing — could be a crash between a data
    /// write and its checksum update, so only provably-fresh (all-zero,
    /// as `set_len` extension leaves them) pages are blessed; the rest
    /// get a poisoned entry that fails verification on read, and are
    /// counted in `storage_sidecar_suspect_total`.
    pub fn open_file(path: impl AsRef<Path>) -> CfResult<Self> {
        Self::open_file_on(path, Arc::new(MetricsRegistry::new()))
    }

    /// Like [`DiskManager::open_file`], publishing counters into the
    /// caller's registry.
    pub fn open_file_on(path: impl AsRef<Path>, registry: Arc<MetricsRegistry>) -> CfResult<Self> {
        let path = path.as_ref();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| CfError::io(format!("opening database file {}", path.display()), e))?;
        let meta = file
            .metadata()
            .map_err(|e| CfError::io("reading database file metadata", e))?;
        let len = meta.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(CfError::corrupt(
                PageId(len / PAGE_SIZE as u64),
                format!(
                    "database file length {len} is not a whole number of {PAGE_SIZE}-byte pages \
                     ({} ragged tail bytes — likely an append torn by a crash); refusing to \
                     silently drop the tail",
                    len % PAGE_SIZE as u64
                ),
            ));
        }
        let num_pages = (len / PAGE_SIZE as u64) as usize;

        let mut sums_path = path.as_os_str().to_owned();
        sums_path.push(".crc");
        let sums = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&sums_path)
            .map_err(|e| CfError::io("opening checksum sidecar file", e))?;
        let sums_meta = sums
            .metadata()
            .map_err(|e| CfError::io("reading checksum sidecar metadata", e))?;
        let have = (sums_meta.len() as usize) / checksum::ENTRY_SIZE;

        let metrics = DiskMetrics::wire(registry);

        // Backfill entries for pages the sidecar does not cover. The
        // gap may be a crash between a data write and its checksum
        // update. Bless only pages that are provably fresh (all zero,
        // as `set_len` extension leaves them); poison the rest so reads
        // report the uncertainty instead of blessing possibly-torn
        // bytes.
        let mut buf: PageBuf = [0u8; PAGE_SIZE];
        for idx in have..num_pages {
            file.read_exact_at(&mut buf, (idx * PAGE_SIZE) as u64)
                .map_err(|e| CfError::io("backfilling checksum sidecar", e))?;
            let (entry, counter) = if buf.iter().all(|&b| b == 0) {
                (checksum::zero_page_entry(), &metrics.sidecar_backfilled)
            } else {
                (0u64, &metrics.sidecar_suspect)
            };
            sums.write_all_at(&entry.to_le_bytes(), (idx * checksum::ENTRY_SIZE) as u64)
                .map_err(|e| CfError::io("backfilling checksum sidecar", e))?;
            counter.inc();
        }

        // Entries past the end of the file (a crash between truncating
        // the file and truncating the sidecar) are not pages.
        let mut entries = vec![0u8; have.min(num_pages) * checksum::ENTRY_SIZE];
        sums.read_exact_at(&mut entries, 0)
            .map_err(|e| CfError::io("reading checksum sidecar", e))?;
        let mut free = FreeState::default();
        for (idx, entry) in decode_entries(&entries).enumerate() {
            if checksum::is_free(entry) {
                // Ascending single pages never overlap a free run.
                free.insert_run(idx as u64, 1);
            }
        }

        Ok(Self {
            backing: RwLock::new(Backing::File {
                file,
                sums,
                num_pages,
            }),
            alloc_lock: Mutex::new(()),
            free: Mutex::new(free),
            metrics,
            faults: FaultInjector::new(),
        })
    }

    /// Flushes file-backed contents to stable storage (no-op for the
    /// in-memory backing).
    pub fn sync(&self) -> CfResult<()> {
        match &*self.backing.read().expect("disk lock poisoned") {
            Backing::Memory { .. } => Ok(()),
            Backing::File { file, sums, .. } => {
                file.sync_data()
                    .map_err(|e| CfError::io("syncing database file", e))?;
                sums.sync_data()
                    .map_err(|e| CfError::io("syncing checksum sidecar", e))
            }
        }
    }

    /// Arms a deterministic fault on this disk (see [`Fault`]).
    pub fn inject_fault(&self, fault: Fault) {
        self.faults.arm(fault);
    }

    /// Disarms all faults and resets the fault ordinal counters.
    pub fn clear_faults(&self) {
        self.faults.clear();
    }

    /// Physical `(reads, writes)` in the fault-ordinal space — counted
    /// since the last [`DiskManager::clear_faults`]. On the file
    /// backing, the sidecar entries write of a free and of an
    /// allocation from the freelist claims a write ordinal here
    /// (against the run's first page) without counting as a page
    /// write.
    pub fn fault_ops(&self) -> (u64, u64) {
        self.faults.ops()
    }

    /// Allocates a zero-filled page and returns its id.
    pub fn allocate(&self) -> CfResult<PageId> {
        self.allocate_run(1)
    }

    /// Allocates `n` consecutive pages, returning the id of the first.
    ///
    /// Consecutive allocation is what makes subfield record ranges
    /// physically contiguous. Freed runs (see [`DiskManager::free_run`])
    /// are reused best-fit before the file grows; reused pages are
    /// zeroed first, so every allocation reads back as fresh zeroes.
    ///
    /// # Errors
    ///
    /// [`CfError::Io`]/[`CfError::Injected`] if extending the file or
    /// rewriting a reused run fails. A reused run then goes back on
    /// the freelist.
    pub fn allocate_run(&self, n: usize) -> CfResult<PageId> {
        let _guard = self.alloc_lock.lock().expect("disk lock poisoned");
        if n > 0 {
            // Serve from the freelist first. The run's entries lose
            // their free tag *before* the pages are handed out: a crash
            // right after leaks the run (the caller never learned of
            // it), but can never double-allocate it.
            let mut free = self.free.lock().expect("freelist lock poisoned");
            let snapshot = free.runs.clone();
            if let Some(start) = free.take_best_fit(n as u64) {
                if let Err(e) = self.zero_run(start, n) {
                    free.runs = snapshot;
                    return Err(e);
                }
                drop(free);
                self.metrics.pages_reused.add(n as u64);
                return Ok(PageId(start));
            }
        }
        let mut backing = self.backing.write().expect("disk lock poisoned");
        match &mut *backing {
            Backing::Memory { pages, sums } => {
                let id = PageId(pages.len() as u64);
                pages.extend((0..n).map(|_| Box::new([0u8; PAGE_SIZE])));
                sums.extend((0..n).map(|_| checksum::zero_page_entry()));
                Ok(id)
            }
            Backing::File {
                file,
                sums,
                num_pages,
                ..
            } => {
                let id = PageId(*num_pages as u64);
                let first = *num_pages;
                *num_pages += n;
                file.set_len((*num_pages * PAGE_SIZE) as u64)
                    .map_err(|e| CfError::io("extending database file", e))?;
                // Fresh pages read back as zeroes; record matching
                // sidecar entries so reading them verifies.
                let mut entries = Vec::with_capacity(n * checksum::ENTRY_SIZE);
                for _ in 0..n {
                    entries.extend_from_slice(&checksum::zero_page_entry().to_le_bytes());
                }
                sums.write_all_at(&entries, (first * checksum::ENTRY_SIZE) as u64)
                    .map_err(|e| CfError::io("extending checksum sidecar", e))?;
                Ok(id)
            }
        }
    }

    /// Returns one page to the freelist. See [`DiskManager::free_run`].
    pub fn free_page(&self, id: PageId) -> CfResult<()> {
        self.free_run(id, 1)
    }

    /// Returns `n` consecutive pages starting at `id` to the freelist.
    ///
    /// Freed pages are reused by later [`DiskManager::allocate_run`]
    /// calls; a freed run ending at the current end of file shrinks the
    /// data file (and its sidecar) instead. Otherwise the run's sidecar
    /// entries are retagged free, keeping their CRCs, in one write
    /// before the in-memory state is considered changed: a crash during
    /// it frees at most a prefix of the run, which the caller had given
    /// up.
    ///
    /// Freeing is a contract, not a fence: the caller promises nothing
    /// references the run anymore. Reading a freed-but-unreused page is
    /// a caller bug (its content is unspecified until reallocation
    /// zeroes it).
    ///
    /// # Errors
    ///
    /// [`CfError::Corrupt`] if the run extends past the allocated page
    /// count or overlaps an already-free run (double free);
    /// [`CfError::Io`]/[`CfError::Injected`] if the retagging write or
    /// the file truncate fails (a failed retag leaves the freelist
    /// unchanged).
    pub fn free_run(&self, id: PageId, n: usize) -> CfResult<()> {
        self.free_run_with(id, n, true)
    }

    /// Like [`DiskManager::free_run`], but on a file a run that ends
    /// the file stays on the freelist, tagged free, instead of
    /// shrinking the file. For a caller about to allocate as much
    /// again: shrinking a file frees its blocks (≈ 2 ms for 4 MiB of
    /// synced pages on ext4) and regrowing it allocates them again,
    /// where the next best-fit allocation reuses the run in place. In
    /// memory, where shrinking costs nothing and returns the memory, it
    /// is [`DiskManager::free_run`].
    pub fn free_run_in_place(&self, id: PageId, n: usize) -> CfResult<()> {
        let backing = self.backing.read().expect("disk lock poisoned");
        let in_memory = matches!(*backing, Backing::Memory { .. });
        drop(backing);
        self.free_run_with(id, n, in_memory)
    }

    fn free_run_with(&self, id: PageId, n: usize, shrink: bool) -> CfResult<()> {
        if n == 0 {
            return Ok(());
        }
        let _guard = self.alloc_lock.lock().expect("disk lock poisoned");
        let total = self.num_pages() as u64;
        let end = match id.0.checked_add(n as u64) {
            Some(end) if end <= total => end,
            _ => {
                return Err(CfError::corrupt(
                    id,
                    format!("free of unallocated pages (run of {n} pages, disk has {total})"),
                ))
            }
        };
        let mut free = self.free.lock().expect("freelist lock poisoned");
        let snapshot = free.runs.clone();
        if !free.insert_run(id.0, n as u64) {
            return Err(CfError::corrupt(
                id,
                format!("double free: run of {n} pages ending at {end} overlaps a free run"),
            ));
        }
        // A free run ending at EOF truncates the file instead of
        // lingering on the freelist, and needs no tag. A crash before
        // the truncate leaks the untagged pages (file longer than
        // anything references) — never corrupts.
        let new_tail = if shrink {
            free.pop_tail_run(total)
        } else {
            None
        };
        if new_tail.is_none() {
            if let Err(e) = self.tag_free(id.0, n) {
                free.runs = snapshot;
                return Err(e);
            }
        }
        drop(free);
        if let Some(new_num) = new_tail {
            let mut backing = self.backing.write().expect("disk lock poisoned");
            match &mut *backing {
                Backing::Memory { pages, sums } => {
                    pages.truncate(new_num as usize);
                    sums.truncate(new_num as usize);
                }
                Backing::File {
                    file,
                    sums,
                    num_pages,
                    ..
                } => {
                    file.set_len(new_num * PAGE_SIZE as u64)
                        .map_err(|e| CfError::io("truncating database file", e))?;
                    sums.set_len(new_num * checksum::ENTRY_SIZE as u64)
                        .map_err(|e| CfError::io("truncating checksum sidecar", e))?;
                    *num_pages = new_num as usize;
                }
            }
        }
        self.metrics.pages_freed.add(n as u64);
        Ok(())
    }

    /// Total pages currently on the freelist (excluding pages returned
    /// to the OS by tail truncation).
    pub fn free_pages(&self) -> usize {
        self.free
            .lock()
            .expect("freelist lock poisoned")
            .total_free() as usize
    }

    /// How many of the `n` pages starting at `id` are on the freelist.
    /// On a reopened file these are the pages whose sidecar entries
    /// carry the free tag: a catalog that names one names a page that
    /// a later allocation may overwrite.
    pub fn free_pages_in(&self, id: PageId, n: usize) -> usize {
        self.free
            .lock()
            .expect("freelist lock poisoned")
            .free_in(id.0, n as u64) as usize
    }

    /// Zeroes a reclaimed run's pages, then writes their zero-page
    /// sidecar entries, so the allocation contract (fresh pages read
    /// as zeroes) holds for reused pages too. The entries write drops
    /// the run's free tags: it is the allocation's commit point.
    fn zero_run(&self, start: u64, n: usize) -> CfResult<()> {
        let mut backing = self.backing.write().expect("disk lock poisoned");
        let range = start as usize..start as usize + n;
        match &mut *backing {
            Backing::Memory { pages, .. } => range.for_each(|i| pages[i].fill(0)),
            Backing::File { file, .. } => {
                let zero: PageBuf = [0u8; PAGE_SIZE];
                for i in range {
                    file.write_all_at(&zero, (i * PAGE_SIZE) as u64)
                        .map_err(|e| CfError::io("zeroing reclaimed pages", e))?;
                }
            }
        }
        self.write_entries(&mut backing, start, &vec![checksum::zero_page_entry(); n])
    }

    /// Retags the sidecar entries of the `n` pages starting at `start`
    /// free, keeping their CRCs: one read-modify-write of the run's
    /// entries.
    fn tag_free(&self, start: u64, n: usize) -> CfResult<()> {
        let mut backing = self.backing.write().expect("disk lock poisoned");
        let entries: Vec<u64> = match &*backing {
            Backing::Memory { sums, .. } => sums[start as usize..start as usize + n].to_vec(),
            Backing::File { sums, .. } => {
                let mut bytes = vec![0u8; n * checksum::ENTRY_SIZE];
                sums.read_exact_at(&mut bytes, start * checksum::ENTRY_SIZE as u64)
                    .map_err(|e| CfError::io("reading checksum entries", e))?;
                decode_entries(&bytes).collect()
            }
        };
        let freed: Vec<u64> = entries.into_iter().map(checksum::free_entry).collect();
        self.write_entries(&mut backing, start, &freed)
    }

    /// Writes `entries` as the sidecar entries of the run starting at
    /// `start`: the one fault-addressable write of a free or of an
    /// allocation from the freelist. On the file backing it claims a
    /// write ordinal against the run's first page but is not counted
    /// as a page write, and a torn write lands a prefix of the entry
    /// bytes. The memory backing claims no ordinal.
    fn write_entries(&self, backing: &mut Backing, start: u64, entries: &[u64]) -> CfResult<()> {
        let sums = match backing {
            Backing::Memory { sums, .. } => {
                sums[start as usize..start as usize + entries.len()].copy_from_slice(entries);
                return Ok(());
            }
            Backing::File { sums, .. } => sums,
        };
        let bytes: Vec<u8> = entries.iter().flat_map(|e| e.to_le_bytes()).collect();
        let offset = start * checksum::ENTRY_SIZE as u64;
        let plan = self.faults.plan_write(PageId(start));
        if !matches!(plan, WriteAction::Proceed) {
            self.metrics.faults_write.inc();
        }
        let keep = match plan {
            WriteAction::Proceed => bytes.len(),
            WriteAction::Torn { keep, .. } => keep.min(bytes.len()),
            WriteAction::Fail(ordinal) => {
                return Err(CfError::Injected {
                    op: FaultOp::Write,
                    ordinal,
                })
            }
        };
        sums.write_all_at(&bytes[..keep], offset)
            .map_err(|e| CfError::io("writing checksum entries", e))?;
        if let WriteAction::Torn { ordinal, .. } = plan {
            return Err(CfError::Injected {
                op: FaultOp::Write,
                ordinal,
            });
        }
        Ok(())
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.backing.read().expect("disk lock poisoned").num_pages()
    }

    /// Reads a page into `buf`, counting one physical read and
    /// verifying the page checksum.
    ///
    /// # Errors
    ///
    /// [`CfError::Corrupt`] if the page was never allocated or its
    /// bytes fail checksum verification; [`CfError::Io`] if the backing
    /// file read fails; [`CfError::Injected`] under fault injection.
    pub fn read_page(&self, id: PageId, buf: &mut PageBuf) -> CfResult<()> {
        let clock = Stopwatch::start();
        self.metrics.reads.inc();
        tally::count_disk_read();
        let plan = self.faults.plan_read(id);
        if !matches!(plan, ReadAction::Proceed) {
            self.metrics.faults_read.inc();
        }
        if let ReadAction::Fail(ordinal) = plan {
            return Err(CfError::Injected {
                op: FaultOp::Read,
                ordinal,
            });
        }
        let expected = {
            let backing = self.backing.read().expect("disk lock poisoned");
            if id.index() >= backing.num_pages() {
                return Err(CfError::corrupt(
                    id,
                    format!(
                        "read of unallocated page (disk has {} pages)",
                        backing.num_pages()
                    ),
                ));
            }
            match &*backing {
                Backing::Memory { pages, sums } => {
                    buf.copy_from_slice(&pages[id.index()][..]);
                    sums[id.index()]
                }
                Backing::File { file, sums, .. } => {
                    file.read_exact_at(buf, (id.index() * PAGE_SIZE) as u64)
                        .map_err(|e| CfError::io(format!("reading page {}", id.0), e))?;
                    let mut entry = [0u8; checksum::ENTRY_SIZE];
                    sums.read_exact_at(&mut entry, (id.index() * checksum::ENTRY_SIZE) as u64)
                        .map_err(|e| {
                            CfError::io(format!("reading checksum entry for page {}", id.0), e)
                        })?;
                    u64::from_le_bytes(entry)
                }
            }
        };
        if let ReadAction::Short { len } = plan {
            // The "device" returned only the first `len` bytes; the
            // tail reads as zeroes and verification below catches the
            // truncation (unless the tail was all-zero anyway, in which
            // case the data is bit-identical and the read is sound).
            let len = len.min(PAGE_SIZE);
            buf[len..].fill(0);
        }
        self.metrics.checksum_verifications.inc();
        let checksum_clock = Stopwatch::start();
        let verdict = checksum::verify_page(buf, expected, id);
        self.metrics
            .checksum_ns
            .observe_ns(checksum_clock.elapsed_ns());
        if verdict.is_err() {
            self.metrics.checksum_failures.inc();
        }
        self.metrics.read_ns.observe_ns(clock.elapsed_ns());
        verdict
    }

    /// Writes `buf` to a page, counting one physical write and
    /// updating the page's sidecar checksum.
    ///
    /// # Errors
    ///
    /// [`CfError::Corrupt`] if the page was never allocated;
    /// [`CfError::Io`] if the backing file write fails;
    /// [`CfError::Injected`] under fault injection (a torn write lands
    /// a prefix of the bytes and skips the checksum update, so the next
    /// physical read reports corruption).
    pub fn write_page(&self, id: PageId, buf: &PageBuf) -> CfResult<()> {
        let clock = Stopwatch::start();
        self.metrics.writes.inc();
        tally::count_disk_write();
        let plan = self.faults.plan_write(id);
        if !matches!(plan, WriteAction::Proceed) {
            self.metrics.faults_write.inc();
        }
        if let WriteAction::Fail(ordinal) = plan {
            return Err(CfError::Injected {
                op: FaultOp::Write,
                ordinal,
            });
        }
        // Checksum computed outside the page lock so parallel writers
        // do not serialize on it.
        let checksum_clock = Stopwatch::start();
        let entry = checksum::page_entry(buf);
        self.metrics
            .checksum_ns
            .observe_ns(checksum_clock.elapsed_ns());
        let mut backing = self.backing.write().expect("disk lock poisoned");
        if id.index() >= backing.num_pages() {
            return Err(CfError::corrupt(
                id,
                format!(
                    "write to unallocated page (disk has {} pages)",
                    backing.num_pages()
                ),
            ));
        }
        if let WriteAction::Torn { keep, ordinal } = plan {
            let keep = keep.min(PAGE_SIZE);
            match &mut *backing {
                Backing::Memory { pages, .. } => {
                    pages[id.index()][..keep].copy_from_slice(&buf[..keep]);
                }
                Backing::File { file, .. } => {
                    file.write_all_at(&buf[..keep], (id.index() * PAGE_SIZE) as u64)
                        .map_err(|e| CfError::io(format!("writing page {}", id.0), e))?;
                }
            }
            return Err(CfError::Injected {
                op: FaultOp::Write,
                ordinal,
            });
        }
        match &mut *backing {
            Backing::Memory { pages, sums } => {
                pages[id.index()].copy_from_slice(buf);
                sums[id.index()] = entry;
            }
            Backing::File { file, sums, .. } => {
                file.write_all_at(buf, (id.index() * PAGE_SIZE) as u64)
                    .map_err(|e| CfError::io(format!("writing page {}", id.0), e))?;
                sums.write_all_at(
                    &entry.to_le_bytes(),
                    (id.index() * checksum::ENTRY_SIZE) as u64,
                )
                .map_err(|e| CfError::io(format!("writing checksum entry for page {}", id.0), e))?;
            }
        }
        drop(backing);
        self.metrics.write_ns.observe_ns(clock.elapsed_ns());
        Ok(())
    }

    /// Physical reads performed so far.
    pub fn reads(&self) -> u64 {
        self.metrics.reads.get()
    }

    /// Physical writes performed so far.
    pub fn writes(&self) -> u64 {
        self.metrics.writes.get()
    }

    /// Resets both counters to zero.
    pub fn reset_counters(&self) {
        self.metrics.reads.reset();
        self.metrics.writes.reset();
    }

    /// The registry this disk publishes into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Every injected fault that actually fired since the last
    /// [`DiskManager::clear_faults`], in firing order.
    pub fn fired_faults(&self) -> Vec<FiredFault> {
        self.faults.fired()
    }
}

/// Sidecar entries from their little-endian bytes.
fn decode_entries(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(checksum::ENTRY_SIZE).map(|b| {
        let mut entry = [0u8; checksum::ENTRY_SIZE];
        entry.copy_from_slice(b);
        u64::from_le_bytes(entry)
    })
}

impl Default for DiskManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "cf_disk_{tag}_{}_{:?}.db",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn cleanup(path: &std::path::Path) {
        for suffix in ["", ".crc"] {
            let mut p = path.as_os_str().to_owned();
            p.push(suffix);
            let _ = std::fs::remove_file(std::path::PathBuf::from(p));
        }
    }

    #[test]
    fn allocate_and_round_trip() {
        let disk = DiskManager::new();
        let a = disk.allocate().expect("allocate");
        let b = disk.allocate().expect("allocate");
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(disk.num_pages(), 2);

        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write_page(b, &buf).expect("write");

        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(b, &mut out).expect("read");
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);

        // Page `a` is still zeroed — and verifies against its fresh
        // zero-page checksum entry.
        disk.read_page(a, &mut out).expect("read fresh page");
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn counters_track_physical_io() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        let buf = [0u8; PAGE_SIZE];
        let mut out = [0u8; PAGE_SIZE];
        disk.write_page(id, &buf).expect("write");
        disk.read_page(id, &mut out).expect("read");
        disk.read_page(id, &mut out).expect("read");
        assert_eq!(disk.writes(), 1);
        assert_eq!(disk.reads(), 2);
        disk.reset_counters();
        assert_eq!(disk.reads(), 0);
        assert_eq!(disk.writes(), 0);
    }

    #[test]
    fn allocate_run_is_consecutive() {
        let disk = DiskManager::new();
        let _ = disk.allocate().expect("allocate");
        let first = disk.allocate_run(5).expect("allocate run");
        assert_eq!(first, PageId(1));
        assert_eq!(disk.num_pages(), 6);
    }

    #[test]
    fn read_of_unallocated_page_is_typed_corruption() {
        let disk = DiskManager::new();
        let mut buf = [0u8; PAGE_SIZE];
        let err = disk
            .read_page(PageId(7), &mut buf)
            .expect_err("unallocated read must fail");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(PageId(7)));
        assert!(err.to_string().contains("unallocated"), "{err}");
    }

    #[test]
    fn write_to_unallocated_page_is_typed_corruption() {
        let disk = DiskManager::new();
        let buf = [0u8; PAGE_SIZE];
        let err = disk
            .write_page(PageId(3), &buf)
            .expect_err("unallocated write must fail");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(PageId(3)));
    }

    #[test]
    fn fail_nth_write_is_deterministic_and_leaves_old_bytes() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 1;
        disk.write_page(id, &buf).expect("write");

        disk.clear_faults();
        disk.inject_fault(Fault::FailWrite { nth: 0 });
        buf[0] = 2;
        let err = disk.write_page(id, &buf).expect_err("injected write fault");
        assert!(err.is_injected());

        // Nothing reached the page; the old image still verifies.
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(id, &mut out)
            .expect("read after failed write");
        assert_eq!(out[0], 1);
    }

    #[test]
    fn torn_write_surfaces_as_corrupt_on_next_read() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        let mut buf = [0u8; PAGE_SIZE];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        disk.write_page(id, &buf).expect("write");

        disk.clear_faults();
        disk.inject_fault(Fault::TornWrite { nth: 0, keep: 100 });
        let mut torn = [0xFFu8; PAGE_SIZE];
        torn[0] = 9;
        let err = disk.write_page(id, &torn).expect_err("torn write faults");
        assert!(err.is_injected());

        let mut out = [0u8; PAGE_SIZE];
        let err = disk
            .read_page(id, &mut out)
            .expect_err("torn page must fail verification");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(id));
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn fail_nth_read_fires_once() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        disk.clear_faults();
        disk.inject_fault(Fault::FailRead { nth: 1 });
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(id, &mut out).expect("read 0 unaffected");
        let err = disk.read_page(id, &mut out).expect_err("read 1 faults");
        assert!(err.is_injected());
        disk.read_page(id, &mut out).expect("read 2 unaffected");
        assert_eq!(disk.fault_ops().0, 3);
    }

    #[test]
    fn short_read_of_nonzero_tail_is_corrupt() {
        let disk = DiskManager::new();
        let id = disk.allocate().expect("allocate");
        let mut buf = [0u8; PAGE_SIZE];
        buf[PAGE_SIZE - 1] = 0x5A; // nonzero tail gets truncated away
        disk.write_page(id, &buf).expect("write");

        disk.clear_faults();
        disk.inject_fault(Fault::ShortRead { nth: 0, len: 512 });
        let mut out = [0u8; PAGE_SIZE];
        let err = disk
            .read_page(id, &mut out)
            .expect_err("short read loses the tail");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(id));
    }

    #[test]
    fn file_backing_persists_checksums_across_reopen() {
        let path = temp_path("crc");
        cleanup(&path);

        let mut buf = [0u8; PAGE_SIZE];
        buf[7] = 0x77;
        {
            let disk = DiskManager::open_file(&path).expect("open");
            let id = disk.allocate().expect("allocate");
            disk.write_page(id, &buf).expect("write");
            disk.sync().expect("sync");
        }
        {
            let disk = DiskManager::open_file(&path).expect("reopen");
            assert_eq!(disk.num_pages(), 1);
            let mut out = [0u8; PAGE_SIZE];
            disk.read_page(PageId(0), &mut out)
                .expect("reopened page verifies");
            assert_eq!(out[7], 0x77);
        }
        // Corrupting the data file behind the sidecar's back is caught.
        {
            let f = File::options().write(true).open(&path).expect("raw open");
            f.write_all_at(&[0xEE], 7).expect("flip byte");
            f.sync_data().expect("sync");
        }
        {
            let disk = DiskManager::open_file(&path).expect("reopen");
            let mut out = [0u8; PAGE_SIZE];
            let err = disk
                .read_page(PageId(0), &mut out)
                .expect_err("bit rot must be caught");
            assert!(err.is_corrupt());
            assert_eq!(err.page(), Some(PageId(0)));
        }
        cleanup(&path);
    }

    #[test]
    fn legacy_file_without_sidecar_is_backfilled() {
        let path = temp_path("backfill");
        cleanup(&path);

        // Write a data page and an all-zero page with no sidecar, as an
        // older build would have, or as a deleted sidecar leaves them.
        let mut buf = [0u8; PAGE_SIZE];
        buf[100] = 0x42;
        {
            let f = File::options()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .expect("raw create");
            f.write_all_at(&buf, 0).expect("raw write");
            f.set_len(2 * PAGE_SIZE as u64).expect("grow");
            f.sync_data().expect("sync");
        }
        // The shorter-sidecar rule: only the all-zero page is blessed.
        let disk = DiskManager::open_file(&path).expect("open backfills");
        let mut out = [0u8; PAGE_SIZE];
        let err = disk
            .read_page(PageId(0), &mut out)
            .expect_err("unchecksummed bytes must not be blessed");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(PageId(0)));
        disk.read_page(PageId(1), &mut out)
            .expect("all-zero page is provably fresh");
        let metrics = disk.metrics();
        assert_eq!(metrics.counter_total("storage_sidecar_suspect_total"), 1);
        assert_eq!(metrics.counter_total("storage_sidecar_backfilled_total"), 1);

        cleanup(&path);
    }

    #[test]
    fn ragged_file_length_is_reported_not_rounded_away() {
        let path = temp_path("ragged");
        cleanup(&path);

        // A page and a half: the half is a torn append.
        {
            let f = File::options()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .expect("raw create");
            f.set_len(PAGE_SIZE as u64 + 1000).expect("set_len");
            f.sync_data().expect("sync");
        }
        let err = DiskManager::open_file(&path)
            .map(|_| ())
            .expect_err("ragged tail must be surfaced");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(PageId(1)), "the torn tail page");
        assert!(err.to_string().contains("ragged tail"), "{err}");

        cleanup(&path);
    }

    #[test]
    fn short_sidecar_blesses_only_provably_fresh_pages() {
        let path = temp_path("suspect");
        cleanup(&path);

        // Build a 1-page database normally, so the sidecar covers page 0…
        {
            let disk = DiskManager::open_file(&path).expect("open");
            let id = disk.allocate().expect("allocate");
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = 0x11;
            disk.write_page(id, &buf).expect("write");
            disk.sync().expect("sync");
        }
        // …then grow the data file behind the sidecar's back: page 1
        // all-zero (as a crashed `set_len` extension leaves it), page 2
        // carrying bytes whose checksum was never recorded — the shape
        // of a crash between a data write and its sidecar update.
        {
            let f = File::options().write(true).open(&path).expect("raw open");
            f.set_len(3 * PAGE_SIZE as u64).expect("grow");
            let mut torn = [0u8; PAGE_SIZE];
            torn[50] = 0x99;
            f.write_all_at(&torn, 2 * PAGE_SIZE as u64).expect("write");
            f.sync_data().expect("sync");
        }
        let disk = DiskManager::open_file(&path).expect("reopen");
        assert_eq!(disk.num_pages(), 3);
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(PageId(0), &mut out).expect("covered page");
        assert_eq!(out[0], 0x11);
        disk.read_page(PageId(1), &mut out)
            .expect("all-zero page is provably fresh");
        let err = disk
            .read_page(PageId(2), &mut out)
            .expect_err("unproven bytes must not be blessed");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(PageId(2)));
        assert_eq!(
            disk.metrics()
                .counter_total("storage_sidecar_suspect_total"),
            1
        );
        // Rewriting the suspect page re-establishes its checksum.
        let fresh = [0x55u8; PAGE_SIZE];
        disk.write_page(PageId(2), &fresh).expect("rewrite");
        disk.read_page(PageId(2), &mut out).expect("verifies again");
        assert_eq!(out[0], 0x55);

        cleanup(&path);
    }

    #[test]
    fn torn_data_write_is_caught_across_reopen() {
        let path = temp_path("torn_reopen");
        cleanup(&path);
        {
            let disk = DiskManager::open_file(&path).expect("open");
            let id = disk.allocate().expect("allocate");
            let mut buf = [0u8; PAGE_SIZE];
            buf.fill(0x3C);
            disk.write_page(id, &buf).expect("write");
            // "Crash" between the data write and the sidecar update:
            // the full page image lands, the checksum entry does not.
            disk.clear_faults();
            disk.inject_fault(Fault::TornWrite {
                nth: 0,
                keep: PAGE_SIZE,
            });
            buf.fill(0xC3);
            let err = disk.write_page(id, &buf).expect_err("torn write");
            assert!(err.is_injected());
            disk.sync().expect("sync");
        }
        let disk = DiskManager::open_file(&path).expect("reopen");
        let mut out = [0u8; PAGE_SIZE];
        let err = disk
            .read_page(PageId(0), &mut out)
            .expect_err("stale checksum exposes the torn write");
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        cleanup(&path);
    }

    #[test]
    fn freed_pages_are_reused_before_the_file_grows() {
        let disk = DiskManager::new();
        let first = disk.allocate_run(10).expect("allocate");
        assert_eq!(first, PageId(0));
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAA;
        disk.write_page(PageId(4), &buf).expect("write");

        disk.free_run(PageId(3), 3).expect("free");
        assert_eq!(disk.free_pages(), 3);

        // Best fit: the 2-page request carves the 3-page hole.
        let reused = disk.allocate_run(2).expect("reuse");
        assert_eq!(reused, PageId(3));
        assert_eq!(disk.free_pages(), 1);
        assert_eq!(disk.num_pages(), 10, "no growth");
        // Reused pages read back as fresh zeroes, not stale bytes.
        let mut out = [0xFFu8; PAGE_SIZE];
        disk.read_page(PageId(4), &mut out).expect("read reused");
        assert!(out.iter().all(|&b| b == 0));

        // A request too big for the hole appends instead.
        let appended = disk.allocate_run(4).expect("append");
        assert_eq!(appended, PageId(10));
        assert_eq!(disk.num_pages(), 14);
    }

    #[test]
    fn tail_free_shrinks_the_disk() {
        let disk = DiskManager::new();
        let _ = disk.allocate_run(8).expect("allocate");
        disk.free_run(PageId(2), 2).expect("free interior");
        disk.free_run(PageId(6), 2).expect("free tail");
        // The tail run is gone entirely; the interior hole remains.
        assert_eq!(disk.num_pages(), 6);
        assert_eq!(disk.free_pages(), 2);
        // Freeing the pages between the interior hole and the end
        // coalesces with it, so the whole tail run truncates away.
        disk.free_run(PageId(4), 2).expect("free new tail");
        assert_eq!(disk.num_pages(), 2);
        assert_eq!(disk.free_pages(), 0);
    }

    #[test]
    fn an_in_place_free_keeps_the_tail_of_a_file_for_the_next_allocation() {
        let memory = DiskManager::new();
        let _ = memory.allocate_run(8).expect("allocate");
        memory
            .free_run_in_place(PageId(5), 3)
            .expect("free in memory");
        assert_eq!(memory.num_pages(), 5, "memory shrinks");

        let path = temp_path("in_place");
        cleanup(&path);
        let disk = DiskManager::open_file(&path).expect("open");
        let _ = disk.allocate_run(8).expect("allocate");
        disk.free_run_in_place(PageId(5), 3)
            .expect("free tail in place");
        assert_eq!(disk.num_pages(), 8, "the file keeps its length");
        assert_eq!(disk.free_pages(), 3);
        // The next allocation of that size reuses the run, zeroed.
        assert_eq!(disk.allocate_run(3).expect("reuse"), PageId(5));
        assert_eq!((disk.num_pages(), disk.free_pages()), (8, 0));
        // A later shrinking free at the tail truncates through it.
        disk.free_run_in_place(PageId(6), 2).expect("free in place");
        disk.free_run(PageId(5), 1).expect("free");
        assert_eq!((disk.num_pages(), disk.free_pages()), (5, 0));
        drop(disk);
        cleanup(&path);
    }

    #[test]
    fn double_free_and_out_of_range_free_are_rejected() {
        let disk = DiskManager::new();
        let _ = disk.allocate_run(4).expect("allocate");
        disk.free_run(PageId(1), 2).expect("free");
        let err = disk.free_run(PageId(2), 1).expect_err("double free");
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("double free"), "{err}");
        let err = disk.free_run(PageId(3), 5).expect_err("past the end");
        assert!(err.is_corrupt());
        assert_eq!(disk.free_pages(), 2, "failed frees change nothing");
    }

    #[test]
    fn freelist_survives_reopen_on_file_backing() {
        let path = temp_path("freelist");
        cleanup(&path);
        {
            let disk = DiskManager::open_file(&path).expect("open");
            let _ = disk.allocate_run(10).expect("allocate");
            let buf = [0x5Au8; PAGE_SIZE];
            disk.write_page(PageId(9), &buf).expect("pin the tail");
            disk.free_run(PageId(2), 4).expect("free");
            disk.sync().expect("sync");
            assert_eq!(disk.free_pages(), 4);
        }
        {
            let disk = DiskManager::open_file(&path).expect("reopen");
            assert_eq!(disk.num_pages(), 10);
            assert_eq!(disk.free_pages(), 4, "freelist recovered");
            let reused = disk.allocate_run(4).expect("reuse");
            assert_eq!(reused, PageId(2));
            assert_eq!(disk.num_pages(), 10, "hole reused, no growth");
        }
        {
            let disk = DiskManager::open_file(&path).expect("reopen again");
            assert_eq!(disk.free_pages(), 0, "reuse was committed");
        }
        cleanup(&path);
    }

    fn stamp(i: u64) -> PageBuf {
        let mut page = [0u8; PAGE_SIZE];
        page[..8].copy_from_slice(&(0x5EED_0000 + i).to_le_bytes());
        page
    }

    #[test]
    fn torn_free_frees_at_most_the_torn_prefix() {
        // Pages 0..10 live and stamped; 1..3 freed cleanly; the free of
        // 4..8 is torn after `keep` bytes of its 32 entry bytes. An
        // entry is retagged exactly when its tag byte (byte 4) landed.
        for keep in 0..=32usize {
            let path = temp_path(&format!("torn_free_{keep}"));
            cleanup(&path);
            {
                let disk = DiskManager::open_file(&path).expect("open");
                let _ = disk.allocate_run(10).expect("allocate");
                for i in 0..10 {
                    disk.write_page(PageId(i), &stamp(i)).expect("write");
                }
                disk.free_run(PageId(1), 2).expect("free");
                disk.clear_faults();
                disk.inject_fault(Fault::TornWrite { nth: 0, keep });
                let err = disk.free_run(PageId(4), 4).expect_err("torn free");
                assert!(err.is_injected());
                assert_eq!(disk.free_pages(), 2, "in-memory state rolled back");
                disk.clear_faults();
                disk.sync().expect("sync");
            }
            let disk = DiskManager::open_file(&path).expect("reopen");
            let freed = ((keep + 3) / checksum::ENTRY_SIZE).min(4) as u64;
            assert_eq!(disk.free_pages() as u64, 2 + freed, "keep {keep}");
            // The free set is the clean run plus the torn prefix: every
            // other page reads back live.
            let mut out = [0u8; PAGE_SIZE];
            for i in [0, 3, 8, 9].into_iter().chain(4 + freed..8) {
                disk.read_page(PageId(i), &mut out).expect("live page");
                assert_eq!(out[..8], stamp(i)[..8], "keep {keep}, page {i}");
            }
            // The freed pages of the torn prefix still verify until reuse.
            for i in 4..4 + freed {
                disk.read_page(PageId(i), &mut out).expect("freed page");
            }
            assert_eq!(disk.allocate_run(2).expect("reuse"), PageId(1));
            if freed > 0 {
                assert_eq!(disk.allocate_run(freed as usize).expect("reuse"), PageId(4));
            }
            assert_eq!(disk.num_pages(), 10, "holes reused, no growth");
            drop(disk);
            cleanup(&path);
        }
    }

    #[test]
    fn failed_allocation_write_puts_the_run_back() {
        // Failed outright, or torn after the first entry and the
        // second's tag byte: either way the run is back on the
        // in-memory freelist, and a retry reuses it.
        for (tag, fault) in [
            ("fail", Fault::FailWrite { nth: 0 }),
            ("torn", Fault::TornWrite { nth: 0, keep: 13 }),
        ] {
            let path = temp_path(&format!("alloc_{tag}"));
            cleanup(&path);
            let disk = DiskManager::open_file(&path).expect("open");
            let _ = disk.allocate_run(6).expect("allocate");
            let buf = [0x11u8; PAGE_SIZE];
            disk.write_page(PageId(5), &buf).expect("pin the tail");
            disk.free_run(PageId(1), 3).expect("free");

            disk.clear_faults();
            disk.inject_fault(fault);
            let err = disk.allocate_run(2).expect_err("entries write fails");
            assert!(err.is_injected(), "{tag}");
            assert_eq!(disk.free_pages(), 3, "{tag}: hole back on the freelist");
            disk.clear_faults();
            let reused = disk.allocate_run(2).expect("retry succeeds");
            assert_eq!(reused, PageId(1), "{tag}");
            drop(disk);
            let disk = DiskManager::open_file(&path).expect("reopen");
            assert_eq!(disk.free_pages(), 1, "{tag}: the retry committed 1..3");
            assert_eq!(disk.allocate_run(1).expect("reuse"), PageId(3), "{tag}");
            drop(disk);
            cleanup(&path);
        }
    }

    #[test]
    fn free_tags_past_the_end_of_file_are_ignored() {
        let path = temp_path("tag_past_end");
        cleanup(&path);
        {
            let disk = DiskManager::open_file(&path).expect("open");
            let _ = disk.allocate_run(6).expect("allocate");
            for i in 0..6 {
                disk.write_page(PageId(i), &stamp(i)).expect("write");
            }
            disk.free_page(PageId(4)).expect("free interior page");
            disk.sync().expect("sync");
        }
        // A crash between truncating the data file and truncating the
        // sidecar leaves entries, a free tag among them, past the end.
        {
            let f = File::options().write(true).open(&path).expect("raw open");
            f.set_len(4 * PAGE_SIZE as u64).expect("truncate");
        }
        let disk = DiskManager::open_file(&path).expect("reopen");
        assert_eq!(disk.num_pages(), 4);
        assert_eq!(disk.free_pages(), 0);
        assert_eq!(disk.allocate_run(2).expect("grow"), PageId(4));
        let mut out = [0xFFu8; PAGE_SIZE];
        disk.read_page(PageId(4), &mut out).expect("fresh entry");
        assert!(out.iter().all(|&b| b == 0));
        drop(disk);
        cleanup(&path);
    }

    #[test]
    fn three_hundred_separated_free_runs_are_all_kept() {
        // 300 single-page holes between live pages: the freelist has no
        // run cap, in memory or across a reopen.
        fn free_every_other(disk: &DiskManager) {
            let _ = disk.allocate_run(601).expect("allocate");
            for i in 0..300 {
                disk.free_page(PageId(2 * i)).expect("free");
            }
        }
        let disk = DiskManager::new();
        free_every_other(&disk);
        assert_eq!(disk.free_pages(), 300);

        let path = temp_path("runs300");
        cleanup(&path);
        {
            let disk = DiskManager::open_file(&path).expect("open");
            free_every_other(&disk);
            assert_eq!(disk.free_pages(), 300);
            disk.sync().expect("sync");
        }
        let disk = DiskManager::open_file(&path).expect("reopen");
        assert_eq!(disk.free_pages(), 300);
        assert_eq!(disk.allocate().expect("reuse"), PageId(0));
        drop(disk);
        cleanup(&path);
    }

    #[test]
    fn file_reads_follow_writes_growth_and_raw_corruption() {
        let path = temp_path("grow");
        cleanup(&path);
        let disk = DiskManager::open_file(&path).expect("open");
        let n = 20usize;
        let _ = disk.allocate_run(n).expect("allocate");
        for i in 0..n {
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = i as u8;
            buf[PAGE_SIZE - 1] = (n - i) as u8;
            disk.write_page(PageId(i as u64), &buf).expect("write");
        }
        for i in 0..n {
            let mut out = [0u8; PAGE_SIZE];
            disk.read_page(PageId(i as u64), &mut out).expect("read");
            assert_eq!(out[0], i as u8);
            assert_eq!(out[PAGE_SIZE - 1], (n - i) as u8);
        }
        // Growth after reads: the new page is served too.
        let id = disk.allocate().expect("grow");
        let buf = [0xEEu8; PAGE_SIZE];
        disk.write_page(id, &buf).expect("write");
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(id, &mut out).expect("read grown page");
        assert_eq!(out[0], 0xEE);
        // A byte flipped behind the disk's back is caught on the next read.
        {
            let f = File::options().write(true).open(&path).expect("raw open");
            f.write_all_at(&[0xBA], 3 * PAGE_SIZE as u64 + 17)
                .expect("flip byte");
            f.sync_data().expect("sync");
        }
        let err = disk
            .read_page(PageId(3), &mut out)
            .expect_err("physical reads verify checksums");
        assert!(err.is_corrupt());
        cleanup(&path);
    }
}
