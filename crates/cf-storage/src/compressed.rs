//! The compressed page layout of a [`crate::CellFile`]: [`PageCodec`]
//! and the page [`Directory`].
//!
//! Under [`PageCodec::Compressed`] records are packed into
//! variable-fill pages by the [`crate::compress`] codec, with a trailing
//! page directory mapping each data page to the index of its first
//! record. Hilbert-ordered cell records typically fit 3–6× more per
//! page, which multiplies the paper's `P = L + E[|q|]` page count down
//! by the same factor.
//!
//! Layout of a file spanning `data_pages + dir_pages` consecutive pages:
//!
//! ```text
//! [ data page 0 | data page 1 | … | dir page 0 | … ]
//! ```
//!
//! Directory pages hold one little-endian `u32` per data page — the
//! record index where that page starts — and are read once at
//! create/open into [`Directory`]; queries touch only data pages.
//!
//! This module owns what is particular to that layout — building and
//! reading the directory, its page arithmetic, decoding a page into the
//! per-thread scratch and re-encoding one. The record file itself (the
//! range sweep, `get`, `put`, the fixed-slot layout) is
//! [`crate::CellFile`] in `heap.rs`, which reaches this module from the
//! four helpers that branch on the layout.
//!
//! This file decodes on-disk bytes and denies clippy's `unwrap_used`,
//! `expect_used` and `panic`: corruption surfaces as
//! [`CfError::Corrupt`]. Its tests may `expect`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::compress::{self, decode_page, ColSpec, PageEncoder};
use crate::{codec, CfError, CfResult, PageBuf, PageId, Record, StorageEngine, PAGE_SIZE};
use cf_obs::Stopwatch;
use std::cell::RefCell;
use std::ops::Range;

/// Which page codec a record file uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageCodec {
    /// Fixed-slot pages: `PAGE_SIZE / R::SIZE` records per page, handed
    /// to the reader straight from the pinned frame.
    #[default]
    Raw,
    /// Delta/varint columnar pages: variable-fill, more records per
    /// page, decoded through a scratch buffer.
    Compressed,
}

impl PageCodec {
    /// Stable on-disk tag (catalog slot field).
    pub fn tag(self) -> u32 {
        match self {
            PageCodec::Raw => 0,
            PageCodec::Compressed => 1,
        }
    }

    /// Decodes an on-disk tag.
    pub fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            0 => Some(PageCodec::Raw),
            1 => Some(PageCodec::Compressed),
            _ => None,
        }
    }

    /// Parses a CLI/config name (`raw` or `compressed`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "raw" => Some(PageCodec::Raw),
            "compressed" => Some(PageCodec::Compressed),
            _ => None,
        }
    }

    /// The CLI/config name of the codec.
    pub fn name(self) -> &'static str {
        match self {
            PageCodec::Raw => "raw",
            PageCodec::Compressed => "compressed",
        }
    }
}

/// Directory entries per directory page.
const DIR_ENTRIES_PER_PAGE: usize = PAGE_SIZE / 4;

thread_local! {
    /// Per-thread page decode scratch, shared by all compressed files on
    /// the thread: the copy of the page being decoded, then its record
    /// images. Sized once per (page, record) shape and reused — the
    /// range-scan hot path performs no allocation after warm-up.
    static DECODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The in-memory page directory of a compressed record file, plus the
/// column layout its pages are coded with.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    /// Record index where each data page starts (`page_starts[0] == 0`).
    page_starts: Vec<u32>,
    cols: Vec<ColSpec>,
    groups: Vec<Vec<usize>>,
}

impl Directory {
    /// Directory pages needed for `data_pages` entries.
    pub(crate) fn dir_pages_for(data_pages: usize) -> usize {
        data_pages.div_ceil(DIR_ENTRIES_PER_PAGE).max(1)
    }

    /// Data pages the directory describes.
    pub(crate) fn data_pages(&self) -> usize {
        self.page_starts.len()
    }

    /// Data page number (0-based within the file) holding record `idx`.
    pub(crate) fn page_no_of(&self, idx: usize) -> usize {
        self.page_starts.partition_point(|&s| s as usize <= idx) - 1
    }

    /// Record span of data page `page_no` in a file of `len` records.
    pub(crate) fn page_span(&self, page_no: usize, len: usize) -> Range<usize> {
        let start = self.page_starts[page_no] as usize;
        let end = self
            .page_starts
            .get(page_no + 1)
            .map_or(len, |&s| s as usize);
        start..end
    }

    /// Writes `records` in order into freshly allocated consecutive
    /// pages (data run followed by the page directory), returning the
    /// first page, the record count and the directory.
    ///
    /// Pages are encoded greedily: each takes as many records as fit
    /// within `PAGE_SIZE` minus the update reserve — slack kept free so
    /// an in-place `put` re-encode (which perturbs the updated record's
    /// delta and its successor's) fits. Repeated updates to one page can
    /// still outgrow it, which surfaces as [`CfError::PageFull`], the
    /// cue to repack. Rotation-tagged records carry one extra
    /// worst-case byte each (the 2-bit tag can open a new tag byte).
    /// The whole encoded file is staged in memory before the run is
    /// allocated (the page count is not known up front), then written
    /// through the buffered write-back path like the fixed layout. Each
    /// data page's encode time is observed in `storage_page_encode`.
    pub(crate) fn create<R: Record>(
        engine: &StorageEngine,
        records: impl IntoIterator<Item = R>,
    ) -> CfResult<(PageId, usize, Self)> {
        let cols = R::columns();
        let groups = R::column_rotation_groups();
        let reserve = 2 * (compress::worst_record_bytes(&cols) + usize::from(!groups.is_empty()));
        let mut enc = PageEncoder::new(cols.clone(), groups.clone());
        let mut pages: Vec<Box<PageBuf>> = Vec::new();
        let mut page_starts: Vec<u32> = Vec::new();
        let mut image = vec![0u8; R::SIZE];
        let mut len = 0usize;
        let mut clock = Stopwatch::start();
        let mut flush = |enc: &mut PageEncoder, len: usize| {
            let mut buf: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
            page_starts.push((len - enc.count()) as u32);
            enc.flush_into(&mut buf[..]);
            pages.push(buf);
            engine.0.page_encode_ns.observe_ns(clock.elapsed_ns());
            clock = Stopwatch::start();
        };
        for r in records {
            r.encode(&mut image);
            if !enc.try_push(&image, reserve) {
                flush(&mut enc, len);
                let ok = enc.try_push(&image, reserve);
                debug_assert!(ok, "first record of a page always fits");
            }
            len += 1;
        }
        if enc.count() > 0 {
            flush(&mut enc, len);
        }
        if pages.is_empty() {
            // Degenerate empty file: one all-zero data page, like the
            // fixed layout. No index passes the `len` check, so it is
            // never decoded.
            pages.push(Box::new([0u8; PAGE_SIZE]));
            page_starts.push(0);
        }

        let data_pages = pages.len();
        let dir_pages = Self::dir_pages_for(data_pages);
        let first_page = engine.allocate_run(data_pages + dir_pages)?;
        for (i, buf) in pages.iter().enumerate() {
            engine.write_page_buffered(PageId(first_page.0 + i as u64), buf)?;
        }
        for d in 0..dir_pages {
            let mut buf: PageBuf = [0u8; PAGE_SIZE];
            let lo = d * DIR_ENTRIES_PER_PAGE;
            let hi = (lo + DIR_ENTRIES_PER_PAGE).min(data_pages);
            for (slot, start) in page_starts[lo..hi].iter().enumerate() {
                codec::put_u32(&mut buf, slot * 4, *start);
            }
            engine.write_page_buffered(PageId(first_page.0 + (data_pages + d) as u64), &buf)?;
        }
        let dir = Self {
            page_starts,
            cols,
            groups,
        };
        Ok((first_page, len, dir))
    }

    /// Reads and validates the page directory of a file reopened from
    /// its catalog entry.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::Corrupt`] when the directory is inconsistent
    /// (non-zero first start, non-increasing starts, or a start at or
    /// past `len`).
    pub(crate) fn open<R: Record>(
        engine: &StorageEngine,
        first_page: PageId,
        len: usize,
        data_pages: usize,
    ) -> CfResult<Self> {
        let dir_pages = Self::dir_pages_for(data_pages);
        let mut page_starts = Vec::with_capacity(data_pages);
        for d in 0..dir_pages {
            let page_id = PageId(first_page.0 + (data_pages + d) as u64);
            let lo = d * DIR_ENTRIES_PER_PAGE;
            let hi = (lo + DIR_ENTRIES_PER_PAGE).min(data_pages);
            engine.with_page(page_id, |page| {
                for slot in 0..hi - lo {
                    page_starts.push(codec::get_u32(page, slot * 4));
                }
            })?;
        }
        let dir_page = |msg: String| CfError::Corrupt {
            page: Some(PageId(first_page.0 + data_pages as u64)),
            detail: msg,
        };
        if page_starts.first() != Some(&0) {
            return Err(dir_page("page directory does not start at record 0".into()));
        }
        for w in page_starts.windows(2) {
            if w[0] >= w[1] {
                return Err(dir_page(format!(
                    "page directory not strictly increasing: {} then {}",
                    w[0], w[1]
                )));
            }
        }
        if len > 0 {
            if let Some(&last) = page_starts.last() {
                if (last as usize) >= len {
                    return Err(dir_page(format!(
                        "page directory start {last} at or past len {len}"
                    )));
                }
            }
        }
        Ok(Self {
            page_starts,
            cols: R::columns(),
            groups: R::column_rotation_groups(),
        })
    }

    /// Decodes data page `page_id` into the per-thread scratch and
    /// hands `f` its `count` record images of `rec_size` bytes,
    /// validating the decoded count against the directory's. Observes
    /// the decode-time histogram.
    ///
    /// The page is copied out of its frame into the scratch under the
    /// pool-shard lock and decoded after the lock is released, so two
    /// threads decoding pages of one shard (a small pool has a single
    /// shard) overlap their decodes instead of queueing behind each
    /// other.
    pub(crate) fn with_page_images<T>(
        &self,
        engine: &StorageEngine,
        page_id: PageId,
        count: usize,
        rec_size: usize,
        f: impl FnOnce(&[u8]) -> T,
    ) -> CfResult<T> {
        DECODE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.resize(PAGE_SIZE + count * rec_size, 0);
            let (page, images) = scratch.split_at_mut(PAGE_SIZE);
            let clock = Stopwatch::start();
            engine.with_page(page_id, |frame| page.copy_from_slice(frame))?;
            let decoded =
                decode_page(&self.cols, &self.groups, rec_size, page, images).map_err(|e| {
                    CfError::Corrupt {
                        page: Some(page_id),
                        detail: format!("compressed page decode: {e}"),
                    }
                })?;
            if decoded != count {
                return Err(CfError::Corrupt {
                    page: Some(page_id),
                    detail: format!(
                        "compressed page holds {decoded} records, directory says {count}"
                    ),
                });
            }
            engine.0.page_decode_ns.observe_ns(clock.elapsed_ns());
            Ok(f(images))
        })
    }

    /// Encodes `images` as one page with no reserve held back, or
    /// `None` when they no longer fit in `PAGE_SIZE`. Observes the
    /// encode-time histogram for a page that fits.
    pub(crate) fn encode_page<'a>(
        &self,
        engine: &StorageEngine,
        images: impl Iterator<Item = &'a [u8]>,
    ) -> Option<PageBuf> {
        let clock = Stopwatch::start();
        let mut enc = PageEncoder::new(self.cols.clone(), self.groups.clone());
        for image in images {
            if !enc.try_push(image, 0) {
                return None;
            }
        }
        let mut buf: PageBuf = [0u8; PAGE_SIZE];
        enc.flush_into(&mut buf);
        engine.0.page_encode_ns.observe_ns(clock.elapsed_ns());
        Some(buf)
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::heap::tests::{self as suite, kv};
    use crate::{CellFile, KvRecord, RecordFile};

    fn compressed_file(n: usize) -> (StorageEngine, CellFile<KvRecord>) {
        let engine = suite::engine_with(PageCodec::Compressed);
        let file = CellFile::create(&engine, (0..n).map(kv).collect::<Vec<_>>()).expect("create");
        (engine, file)
    }

    #[test]
    fn round_trips_all_records() {
        suite::check_round_trip(PageCodec::Compressed);
        // Hilbert-like similarity: far fewer pages than the raw layout.
        let n = 3000usize;
        let (_engine, file) = compressed_file(n);
        let raw_pages = n.div_ceil(RecordFile::<KvRecord>::records_per_page());
        assert!(
            file.data_pages() * 2 < raw_pages,
            "{} compressed vs {} raw pages",
            file.data_pages(),
            raw_pages
        );
    }

    #[test]
    fn reopen_matches_created_file() {
        let n = 2000usize;
        let (engine, file) = compressed_file(n);
        let reopened =
            Directory::open::<KvRecord>(&engine, file.first_page(), n, file.data_pages())
                .expect("open");
        assert!(reopened.data_pages() > 1, "directory must be non-trivial");
        for page_no in 0..reopened.data_pages() {
            let span = reopened.page_span(page_no, n);
            assert_eq!(file.pages_in_range(0..span.end), page_no + 1);
            assert_eq!(reopened.page_no_of(span.start), page_no);
        }
    }

    #[test]
    fn decode_histogram_sees_every_decoded_page_once() {
        let n = 3000usize;
        let (engine, file) = compressed_file(n);
        engine.reset_stats();
        file.read_range(&engine, 0..n).expect("scan");
        let (decoded, _) = engine
            .metrics()
            .histogram_stats("storage_page_decode", &[])
            .expect("series is registered with the engine");
        assert_eq!(decoded as usize, file.data_pages());
    }

    #[test]
    fn multi_range_scan_matches_per_range() {
        suite::check_multi_range_equals_per_range(PageCodec::Compressed);
    }

    #[test]
    fn put_round_trips_and_respects_reserve() {
        suite::check_put(PageCodec::Compressed);
    }

    #[test]
    fn torn_page_decodes_to_corrupt() {
        let n = 4000usize;
        let (engine, file) = compressed_file(n);
        // Overwrite a mid-file data page with a half-written image: the
        // CRC layer is bypassed by writing a valid page of garbage.
        let victim = PageId(file.first_page().0 + 1);
        let mut buf: PageBuf = engine.with_page(victim, |p| *p).expect("read");
        for b in buf.iter_mut().skip(6).take(PAGE_SIZE / 2) {
            *b = 0xA5;
        }
        engine.write_page(victim, &buf).expect("write");
        let err = file
            .read_range(&engine, 0..n)
            .expect_err("torn page must not decode");
        assert!(err.is_corrupt(), "got {err}");
        assert_eq!(err.page(), Some(victim));
    }

    #[test]
    fn cell_file_dispatches_on_engine_codec() {
        for codec in suite::CODECS {
            let engine = suite::engine_with(codec);
            let records: Vec<KvRecord> = (0..100).map(kv).collect();
            let f = CellFile::create(&engine, records.clone()).expect("create");
            assert_eq!(f.codec(), codec);
            assert_eq!(f.get(&engine, 42).expect("get"), kv(42));
            // The facade stays raw whatever the engine is configured with.
            let raw = RecordFile::create(&engine, records).expect("create");
            assert_eq!(raw.codec(), PageCodec::Raw);
        }
    }

    #[test]
    fn empty_file_is_well_formed() {
        suite::check_empty(PageCodec::Compressed);
    }

    #[test]
    fn codec_names_round_trip() {
        for c in [PageCodec::Raw, PageCodec::Compressed] {
            assert_eq!(PageCodec::from_tag(c.tag()), Some(c));
            assert_eq!(PageCodec::parse(c.name()), Some(c));
        }
        assert_eq!(PageCodec::from_tag(7), None);
        assert_eq!(PageCodec::parse("zstd"), None);
    }
}
