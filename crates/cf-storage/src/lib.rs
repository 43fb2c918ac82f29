//! Paged storage engine with first-class I/O accounting.
//!
//! The EDBT 2002 evaluation ran against a disk-resident database with
//! 4 KiB pages; its headline metric — execution time of field value
//! queries — is driven by the number of pages each method touches. This
//! crate reproduces that substrate:
//!
//! * [`DiskManager`] — a "disk" of [`PAGE_SIZE`] pages, in memory or on
//!   a real file, that counts every physical read/write; a physical read
//!   costs what the backing costs (no simulated latency, DESIGN.md §3.1).
//! * [`BufferPool`] — a sharded LRU page cache with pin-free closure
//!   access, per-shard hit/miss statistics and explicit invalidation (so
//!   benchmarks can run queries cold, as the paper's setup effectively
//!   did).
//! * [`StorageEngine`] — the façade bundling the two; all index and cell
//!   file accesses in the workspace go through it.
//! * [`CellFile`] — the record file: fixed-size records in consecutive
//!   pages, raw or compressed; the Hilbert-ordered cell file of the
//!   I-Hilbert method is a `CellFile` whose record ranges correspond to
//!   subfields. [`RecordFile`] names the constructors of always-raw
//!   ones.
//!
//! The engine is thread-safe: pool frames live in independently locked
//! shards so concurrent queries mostly avoid lock contention, and every
//! I/O event is tallied both globally (atomics) and per thread
//! ([`thread_io_stats`]) so parallel query paths can cost themselves
//! exactly.

//! Every operation touching pages is fallible: physical reads verify a
//! per-page checksum ([`checksum`]), failures surface as typed
//! [`CfError`]s instead of panics, and a deterministic [`Fault`]
//! injector on the disk drives crash-safety property tests.
//!
//! # Example
//!
//! ```
//! use cf_storage::{CfResult, KvRecord, RecordFile, StorageEngine};
//!
//! fn main() -> CfResult<()> {
//!     let engine = StorageEngine::in_memory();
//!     let records: Vec<KvRecord> = (0..1000)
//!         .map(|i| KvRecord { key: i, value: i as f64 * 0.5 })
//!         .collect();
//!     let file = RecordFile::create(&engine, records)?;
//!
//!     // Reading a contiguous range touches the minimal page run…
//!     engine.reset_stats();
//!     let some = file.read_range(&engine, 100..110)?;
//!     assert_eq!(some[0].key, 100);
//!     // …(256 records fit a 4 KiB page, so 10 records = 1 page).
//!     assert_eq!(engine.io_stats().logical_reads(), 1);
//!     Ok(())
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod buffer;
mod compressed;
mod disk;
mod engine;
mod error;
mod fault;
mod freelist;
mod gc;
mod heap;
mod stats;

pub use buffer::BufferPool;
pub use cf_obs::{
    answer_digest, decode_wrk, encode_wrk, Counter, EventJournal, ExplainRecord, Gauge, Histogram,
    Json, Label, MetricsRegistry, Stopwatch, TraceEvent, Tracer, WorkloadRecord,
};
pub use compressed::PageCodec;
pub use disk::{DiskManager, PageBuf, PageId, FSM_COMMIT_PAGE, PAGE_SIZE};
pub use engine::{StorageConfig, StorageEngine};
pub use error::{CfError, CfResult, FaultOp};
pub use fault::{Fault, FaultInjector, FiredFault};
pub use gc::{EpochGc, EpochPin};
pub use heap::{CellFile, KvRecord, Record, RecordFile};
pub use stats::{thread_io_stats, IoStats, ShardStats};

pub mod checksum;
pub mod codec;
pub mod compress;
