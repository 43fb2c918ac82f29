//! The record file: fixed-size records in consecutive pages.
//!
//! The I-Hilbert method stores cells "physically in order of Hilbert
//! value" and a subfield is a `[start, end)` range of that file (paper
//! §3.1.2, *Data Structure of subfields*). [`CellFile`] provides exactly
//! that: records packed into consecutive pages, addressable by record
//! index, with a range sweep ([`CellFile::for_each_in_ranges`]) that
//! touches the minimal page run. It is the only record-file
//! implementation: the page layout — fixed slots or the compressed
//! directory layout of `compressed.rs` — is a
//! private field consulted once per page by four small helpers, and
//! [`RecordFile`] is merely the constructor facade of always-raw files
//! (DESIGN.md §13.3).
//!
//! This file drives record decoding from on-disk pages and denies
//! clippy's `unwrap_used` and `panic`: I/O and corruption
//! surface as [`crate::CfError`], and an index or range list that does
//! not fit the file is a typed [`crate::CfError::InvalidRange`], not an
//! assertion.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::compressed::Directory;
use crate::{codec, CfError, CfResult, PageBuf, PageCodec, PageId, StorageEngine, PAGE_SIZE};
use std::marker::PhantomData;
use std::ops::Range;

/// A value with a fixed-size on-page encoding.
pub trait Record: Sized {
    /// Encoded size in bytes. Must be `> 0` and `<= PAGE_SIZE`.
    const SIZE: usize;

    /// Encodes `self` into `buf` (exactly `SIZE` bytes).
    fn encode(&self, buf: &mut [u8]);

    /// Decodes a value from `buf` (exactly `SIZE` bytes).
    ///
    /// Decoding is infallible by design: records are plain numeric
    /// payloads, and byte-level corruption is caught below this layer
    /// by the per-page checksums on physical read.
    fn decode(buf: &[u8]) -> Self;

    /// Column layout used by the compressed page codec
    /// ([`crate::PageCodec::Compressed`]). The default treats the record
    /// as 8-byte XOR-delta words (plus one trailing 4-byte delta word
    /// when `SIZE % 8 == 4`), which fits all-`f64` records; types with
    /// small-integer columns should override with
    /// [`crate::compress::ColKind::Delta4`] specs for those words.
    fn columns() -> Vec<crate::compress::ColSpec> {
        crate::compress::generic_columns(Self::SIZE)
    }

    /// Cyclically interchangeable column groups for the compressed
    /// codec ([`crate::compress::PageEncoder`]). Each inner list names
    /// columns (indices into [`Record::columns`]) forming one unit;
    /// cyclic rotations of the unit list are alternative layouts of the
    /// same record (a TIN cell's vertex/value triples, say). The codec
    /// picks the rotation that lines shared words up with the previous
    /// record's columns, stores a 2-bit tag, and restores the original
    /// layout on decode — readers always see the bytes that were
    /// written. At most 4 units, all of equal length with kind-aligned
    /// columns. The default (no groups) is correct for records whose
    /// word positions carry fixed meaning (grid corners, packed
    /// intervals).
    fn column_rotation_groups() -> Vec<Vec<usize>> {
        Vec::new()
    }
}

/// The page layout of a [`CellFile`]: how record indexes map to data
/// pages and what a data page's bytes hold.
#[derive(Debug, Clone)]
enum Layout {
    /// `PAGE_SIZE / R::SIZE` fixed slots per page; a page's bytes are
    /// its record images followed by zero padding, and the page of a
    /// record is found by division.
    Fixed,
    /// Variable-fill [`crate::compress`] pages located through a page
    /// directory ([`crate::PageCodec::Compressed`]).
    Directory(Directory),
}

/// A file of fixed-size records packed into consecutive pages
/// (append-free: created in one shot, records updatable in place) —
/// the one record-file implementation of the storage stack.
///
/// The I-Hilbert method stores cells "physically in order of Hilbert
/// value" and a subfield is a `[start, end)` range of that file; this
/// is that file. Records never span page boundaries, and a scan of
/// records `[a, b)` touches exactly the data pages holding them, each
/// once.
///
/// How records sit in pages is a private layout chosen at creation by
/// the [`PageCodec`]: fixed slots ([`PageCodec::Raw`]) or compressed
/// variable-fill pages behind a page directory
/// ([`PageCodec::Compressed`]). Page arithmetic and page bytes branch
/// on it in four helpers only — two public ones for geometry
/// ([`CellFile::page_no_of`], [`CellFile::page_span`]), one handing a
/// page's record images to a reader (`with_page_images`) and its inverse
/// building a page from images (`encode_page`); everything else is
/// written once on top of them ([`CellFile::codec`] and
/// [`CellFile::records_per_page`] merely report which layout it is).
#[derive(Debug, Clone)]
pub struct CellFile<R: Record> {
    first_page: PageId,
    len: usize,
    data_pages: usize,
    layout: Layout,
    _marker: PhantomData<R>,
}

impl<R: Record> CellFile<R> {
    /// Records per page of the fixed layout.
    const SLOTS: usize = {
        assert!(R::SIZE > 0 && R::SIZE <= PAGE_SIZE);
        PAGE_SIZE / R::SIZE
    };

    /// Pages a fixed-layout file of `len` records occupies.
    fn fixed_pages(len: usize) -> usize {
        len.div_ceil(Self::SLOTS).max(1)
    }

    fn fixed(first_page: PageId, len: usize) -> Self {
        Self {
            first_page,
            len,
            data_pages: Self::fixed_pages(len),
            layout: Layout::Fixed,
            _marker: PhantomData,
        }
    }

    fn with_directory(first_page: PageId, len: usize, dir: Directory) -> Self {
        Self {
            first_page,
            len,
            data_pages: dir.data_pages(),
            layout: Layout::Directory(dir),
            _marker: PhantomData,
        }
    }

    /// Writes `records` in order into freshly allocated consecutive
    /// pages, laid out by the engine's configured codec
    /// ([`crate::StorageConfig::codec`]). Writes are buffered
    /// (write-back): they reach the disk on pool eviction or at the
    /// caller's next [`StorageEngine::flush`]/[`StorageEngine::sync`] —
    /// call `sync` before relying on the file surviving a crash.
    pub fn create<I>(engine: &StorageEngine, records: I) -> CfResult<Self>
    where
        I: IntoIterator<Item = R>,
        I::IntoIter: ExactSizeIterator,
    {
        Self::create_as(engine, engine.codec(), records)
    }

    /// [`CellFile::create`] laid out by `codec`, whatever the engine's
    /// configured one: a live-ingest repack rewrites a cell file with
    /// the codec of the file it replaces.
    pub fn create_as<I>(engine: &StorageEngine, codec: PageCodec, records: I) -> CfResult<Self>
    where
        I: IntoIterator<Item = R>,
        I::IntoIter: ExactSizeIterator,
    {
        match codec {
            PageCodec::Raw => Self::create_fixed(engine, records.into_iter()),
            PageCodec::Compressed => {
                let (first_page, len, dir) = Directory::create(engine, records)?;
                Ok(Self::with_directory(first_page, len, dir))
            }
        }
    }

    fn create_fixed(
        engine: &StorageEngine,
        records: impl ExactSizeIterator<Item = R>,
    ) -> CfResult<Self> {
        let len = records.len();
        let first_page = engine.allocate_run(Self::fixed_pages(len))?;

        let mut buf: PageBuf = [0u8; PAGE_SIZE];
        let mut in_page = 0usize;
        let mut page = first_page;
        let mut written_pages = 0usize;
        for r in records {
            r.encode(&mut buf[in_page * R::SIZE..(in_page + 1) * R::SIZE]);
            in_page += 1;
            if in_page == Self::SLOTS {
                engine.write_page_buffered(page, &buf)?;
                written_pages += 1;
                page = PageId(page.0 + 1);
                in_page = 0;
                buf = [0u8; PAGE_SIZE];
            }
        }
        if in_page > 0 || written_pages == 0 {
            engine.write_page_buffered(page, &buf)?;
        }
        Ok(Self::fixed(first_page, len))
    }

    /// Reopens a file from its catalog fields. `data_pages` locates the
    /// compressed layout's page directory, which is read and validated
    /// here (the raw layout derives its page count from `len` and reads
    /// nothing).
    ///
    /// # Errors
    ///
    /// Returns [`CfError::Corrupt`] when a compressed file's directory
    /// is inconsistent.
    pub fn open(
        engine: &StorageEngine,
        codec: PageCodec,
        first_page: PageId,
        len: usize,
        data_pages: usize,
    ) -> CfResult<Self> {
        match codec {
            PageCodec::Raw => Ok(Self::fixed(first_page, len)),
            PageCodec::Compressed => {
                let dir = Directory::open::<R>(engine, first_page, len, data_pages)?;
                Ok(Self::with_directory(first_page, len, dir))
            }
        }
    }

    /// Total pages a file of `codec` occupies, from its catalog fields
    /// alone — lets catalog code validate a file's span *before*
    /// opening it (which reads a compressed file's directory).
    /// `data_pages` is ignored by the raw layout, `len` by the
    /// compressed one. Saturates so an absurd corrupt count still
    /// compares, never overflows.
    pub fn span_pages(codec: PageCodec, len: usize, data_pages: usize) -> usize {
        match codec {
            PageCodec::Raw => Self::fixed_pages(len),
            PageCodec::Compressed => {
                data_pages.saturating_add(Directory::dir_pages_for(data_pages))
            }
        }
    }

    /// The codec this file is stored with.
    pub fn codec(&self) -> PageCodec {
        match self.layout {
            Layout::Fixed => PageCodec::Raw,
            Layout::Directory(_) => PageCodec::Compressed,
        }
    }

    /// Number of records in the file.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total pages the file occupies (including any page directory).
    pub fn num_pages(&self) -> usize {
        Self::span_pages(self.codec(), self.len, self.data_pages)
    }

    /// Data pages holding records (what query scans touch).
    pub fn data_pages(&self) -> usize {
        self.data_pages
    }

    /// Id of the first page of the file.
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Mean records per data page: the slot count of the fixed layout,
    /// the measured fill of the compressed one.
    pub fn records_per_page(&self) -> f64 {
        match self.layout {
            Layout::Fixed => Self::SLOTS as f64,
            Layout::Directory(_) => self.len as f64 / self.data_pages as f64,
        }
    }

    /// Data page number (0-based within the file) of record `idx < len`.
    pub fn page_no_of(&self, idx: usize) -> usize {
        match &self.layout {
            Layout::Fixed => idx / Self::SLOTS,
            Layout::Directory(dir) => dir.page_no_of(idx),
        }
    }

    /// Record span of data page `page_no < data_pages()`.
    pub fn page_span(&self, page_no: usize) -> Range<usize> {
        match &self.layout {
            Layout::Fixed => {
                let lo = page_no * Self::SLOTS;
                lo..(lo + Self::SLOTS).min(self.len)
            }
            Layout::Directory(dir) => dir.page_span(page_no, self.len),
        }
    }

    /// The one page accessor: reads data page `page_no` through the
    /// pool and hands `f` the images of the records it holds
    /// (`page_span(page_no).len() * R::SIZE` bytes) — straight from the
    /// pinned frame for the fixed layout, decoded into the per-thread
    /// scratch for the compressed one.
    fn with_page_images<T>(
        &self,
        engine: &StorageEngine,
        page_no: usize,
        f: impl FnOnce(&[u8]) -> T,
    ) -> CfResult<T> {
        let page_id = PageId(self.first_page.0 + page_no as u64);
        let count = self.page_span(page_no).len();
        match &self.layout {
            Layout::Fixed => engine.with_page(page_id, |page| f(&page[..count * R::SIZE])),
            Layout::Directory(dir) => dir.with_page_images(engine, page_id, count, R::SIZE, f),
        }
    }

    /// Inverse of [`CellFile::with_page_images`]: the bytes of a data
    /// page holding `images` in order, or `None` when a compressed page
    /// cannot fit them.
    fn encode_page<'a>(
        &self,
        engine: &StorageEngine,
        images: impl Iterator<Item = &'a [u8]>,
    ) -> Option<PageBuf> {
        match &self.layout {
            Layout::Fixed => {
                let mut buf: PageBuf = [0u8; PAGE_SIZE];
                for (slot, image) in buf.chunks_exact_mut(R::SIZE).zip(images) {
                    slot.copy_from_slice(image);
                }
                Some(buf)
            }
            Layout::Directory(dir) => dir.encode_page(engine, images),
        }
    }

    /// Locates record `idx`: its data page and its slot among that
    /// page's record images.
    fn locate(&self, idx: usize) -> CfResult<(usize, usize)> {
        if idx >= self.len {
            return Err(CfError::InvalidRange {
                detail: format!("record {idx} out of bounds (len {})", self.len),
            });
        }
        let page_no = self.page_no_of(idx);
        Ok((page_no, idx - self.page_span(page_no).start))
    }

    /// Reads one record.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::InvalidRange`] if `idx >= len`.
    pub fn get(&self, engine: &StorageEngine, idx: usize) -> CfResult<R> {
        let (page_no, slot) = self.locate(idx)?;
        self.with_page_images(engine, page_no, |images| {
            R::decode(&images[slot * R::SIZE..(slot + 1) * R::SIZE])
        })
    }

    /// Overwrites one record in place (read-modify-write of its page).
    ///
    /// # Errors
    ///
    /// Returns [`CfError::InvalidRange`] if `idx >= len`, and
    /// [`CfError::PageFull`] when a compressed page, re-encoded with
    /// the new record, no longer fits in `PAGE_SIZE` — possible after
    /// many updates concentrated on one page (the build-time reserve
    /// absorbs the first; repacking restores slack).
    pub fn put(&self, engine: &StorageEngine, idx: usize, record: &R) -> CfResult<()> {
        let (page_no, slot) = self.locate(idx)?;
        let page_id = PageId(self.first_page.0 + page_no as u64);
        let mut image = vec![0u8; R::SIZE];
        record.encode(&mut image);
        let (buf, records) = self.with_page_images(engine, page_no, |images| {
            let patched = images.chunks_exact(R::SIZE).enumerate().map(|(i, old)| {
                if i == slot {
                    &image[..]
                } else {
                    old
                }
            });
            (self.encode_page(engine, patched), images.len() / R::SIZE)
        })?;
        match buf {
            Some(buf) => engine.write_page(page_id, &buf),
            None => Err(CfError::PageFull {
                page: page_id,
                records,
            }),
        }
    }

    /// Checks that `ranges` are each `start <= end`, sorted by start,
    /// non-overlapping and inside the file.
    fn check_ranges(&self, ranges: &[Range<usize>]) -> CfResult<()> {
        let mut prev_end = 0;
        for (i, r) in ranges.iter().enumerate() {
            if r.start > r.end || r.start < prev_end {
                return Err(CfError::InvalidRange {
                    detail: format!(
                        "ranges inverted, unsorted or overlapping at #{i}: {r:?} after end {prev_end}"
                    ),
                });
            }
            prev_end = r.end;
        }
        if prev_end > self.len {
            return Err(CfError::InvalidRange {
                detail: format!("range end {prev_end} out of bounds (len {})", self.len),
            });
        }
        Ok(())
    }

    /// Invokes `f(index, record)` for every record in `range`, reading
    /// each underlying page exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::InvalidRange`] if the range is inverted or
    /// extends past the end of the file.
    pub fn for_each_in_range(
        &self,
        engine: &StorageEngine,
        range: Range<usize>,
        f: impl FnMut(usize, R),
    ) -> CfResult<()> {
        self.for_each_in_ranges(engine, std::slice::from_ref(&range), f)
    }

    /// Invokes `f(index, record)` for every record in each of `ranges`,
    /// in ascending index order, touching every underlying page **at
    /// most once across all ranges** — the one range sweep of the
    /// storage stack.
    ///
    /// `ranges` must be sorted by start and non-overlapping (empty
    /// ranges are skipped). Unlike calling
    /// [`CellFile::for_each_in_range`] per range, a page shared by the
    /// tail of one range and the head of the next (or by several small
    /// ranges) is read a single time — the access pattern of a subfield
    /// index retrieving many nearby record runs. The layout is
    /// consulted per page, never per record: `f` sees records decoded
    /// from one contiguous slice of images.
    ///
    /// # Errors
    ///
    /// Returns [`CfError::InvalidRange`], before anything is read, if
    /// any range is inverted or extends past the end of the file, or if
    /// the ranges are unsorted or overlapping.
    pub fn for_each_in_ranges(
        &self,
        engine: &StorageEngine,
        ranges: &[Range<usize>],
        mut f: impl FnMut(usize, R),
    ) -> CfResult<()> {
        self.check_ranges(ranges)?;
        let mut i = 0;
        while i < ranges.len() {
            if ranges[i].is_empty() {
                i += 1;
                continue;
            }
            // Grow a group of ranges whose page spans touch or overlap;
            // every page in the group's span then holds records of at
            // least one member range.
            let first_page = self.page_no_of(ranges[i].start);
            let mut last_page = self.page_no_of(ranges[i].end - 1);
            let mut j = i + 1;
            while j < ranges.len() {
                if !ranges[j].is_empty() {
                    if self.page_no_of(ranges[j].start) > last_page {
                        break;
                    }
                    last_page = last_page.max(self.page_no_of(ranges[j].end - 1));
                }
                j += 1;
            }

            let mut k = i; // first range that may still intersect the page
            for page_no in first_page..=last_page {
                let page = self.page_span(page_no);
                self.with_page_images(engine, page_no, |images| {
                    for rg in &ranges[k..j] {
                        if rg.start >= page.end {
                            break;
                        }
                        let lo = rg.start.max(page.start);
                        let hi = rg.end.min(page.end);
                        let run = &images[(lo - page.start) * R::SIZE..(hi - page.start) * R::SIZE];
                        for (idx, image) in (lo..hi).zip(run.chunks_exact(R::SIZE)) {
                            f(idx, R::decode(image));
                        }
                    }
                })?;
                while k < j && ranges[k].end <= page.end {
                    k += 1;
                }
            }
            i = j;
        }
        Ok(())
    }

    /// Collects the records in `range` into a vector.
    pub fn read_range(&self, engine: &StorageEngine, range: Range<usize>) -> CfResult<Vec<R>> {
        let mut out = Vec::with_capacity(range.len().min(self.len));
        self.for_each_in_range(engine, range, |_, r| out.push(r))?;
        Ok(out)
    }

    /// Number of data pages a scan of `range` touches (the unit the
    /// paper's cost model counts). `range` must lie inside the file.
    pub fn pages_in_range(&self, range: Range<usize>) -> usize {
        if range.is_empty() {
            return 0;
        }
        self.page_no_of(range.end - 1) - self.page_no_of(range.start) + 1
    }
}

/// Constructors of always-raw [`CellFile`]s, whatever codec the engine
/// is configured with — for files whose page count must follow from
/// their length alone (the catalog's position map and delta run, the
/// scan baselines' native-order cell files). Never instantiated: every
/// function returns the [`CellFile`].
pub struct RecordFile<R: Record>(PhantomData<R>);

impl<R: Record> RecordFile<R> {
    /// Records stored per page of the raw layout.
    pub const fn records_per_page() -> usize {
        CellFile::<R>::SLOTS
    }

    /// [`CellFile::create`] with the raw codec.
    pub fn create<I>(engine: &StorageEngine, records: I) -> CfResult<CellFile<R>>
    where
        I: IntoIterator<Item = R>,
        I::IntoIter: ExactSizeIterator,
    {
        CellFile::create_fixed(engine, records.into_iter())
    }

    /// Reopens a raw file from its catalog entry (`first_page`, `len`)
    /// — the inverse of reading those values off a freshly created
    /// file. Reads nothing.
    pub fn open(first_page: PageId, len: usize) -> CellFile<R> {
        CellFile::fixed(first_page, len)
    }
}

/// A trivial record for tests and examples: a `(u64, f64)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvRecord {
    /// Key.
    pub key: u64,
    /// Value.
    pub value: f64,
}

impl Record for KvRecord {
    const SIZE: usize = 16;

    fn encode(&self, buf: &mut [u8]) {
        codec::put_u64(buf, 0, self.key);
        codec::put_f64(buf, 8, self.value);
    }

    fn decode(buf: &[u8]) -> Self {
        Self {
            key: codec::get_u64(buf, 0),
            value: codec::get_f64(buf, 8),
        }
    }
}

/// One suite for both page codecs. A behaviour is written once as a
/// `check_*(codec)` body; tests loop over [`CODECS`], except where a
/// raw-named test here has a compressed-named counterpart in
/// `compressed::tests` — those two share the body, one codec each.
#[cfg(test)]
#[allow(clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use crate::{Fault, StorageConfig};
    use std::collections::BTreeSet;

    pub(crate) const CODECS: [PageCodec; 2] = [PageCodec::Raw, PageCodec::Compressed];

    /// Slowly varying like Hilbert-ordered cells, so the compressed
    /// codec packs several raw pages' worth into one.
    pub(crate) fn kv(i: usize) -> KvRecord {
        KvRecord {
            key: 10_000 + (i as u64) * 3,
            value: 5.0 + (i as f64) * 0.25,
        }
    }

    fn sample(n: usize) -> Vec<KvRecord> {
        (0..n).map(kv).collect()
    }

    pub(crate) fn engine_with(codec: PageCodec) -> StorageEngine {
        StorageEngine::new(StorageConfig {
            codec,
            ..StorageConfig::default()
        })
    }

    fn file_with(codec: PageCodec, n: usize) -> (StorageEngine, CellFile<KvRecord>) {
        let engine = engine_with(codec);
        let file = CellFile::create(&engine, sample(n)).expect("create");
        assert_eq!(file.codec(), codec);
        assert_eq!(file.len(), n);
        (engine, file)
    }

    /// Data page number of record `idx`, from the public geometry.
    fn page_of(file: &CellFile<KvRecord>, idx: usize) -> usize {
        file.pages_in_range(0..idx + 1) - 1
    }

    pub(crate) fn check_round_trip(codec: PageCodec) {
        let n = 3000usize;
        let (engine, file) = file_with(codec, n);
        for i in [0usize, 1, 255, 256, 1024, n - 1] {
            assert_eq!(file.get(&engine, i).expect("get"), kv(i));
        }
        assert_eq!(file.read_range(&engine, 0..n).expect("read"), sample(n));
        assert_eq!(file.pages_in_range(0..n), file.data_pages());

        let reopened =
            CellFile::<KvRecord>::open(&engine, codec, file.first_page(), n, file.data_pages())
                .expect("open");
        assert_eq!(reopened.num_pages(), file.num_pages());
        assert_eq!(
            reopened.num_pages(),
            CellFile::<KvRecord>::span_pages(codec, n, file.data_pages())
        );
        assert_eq!(
            reopened.read_range(&engine, 17..1321).expect("read"),
            sample(n)[17..1321]
        );
    }

    pub(crate) fn check_multi_range_equals_per_range(codec: PageCodec) {
        let (engine, file) = file_with(codec, 5000);
        let ranges = [
            0..1,
            1..2,
            4..4,
            100..300,
            300..301,
            511..513,
            900..1300,
            2999..3001,
            4999..5000,
        ];
        let mut multi = Vec::new();
        file.for_each_in_ranges(&engine, &ranges, |idx, r| multi.push((idx, r)))
            .expect("scan");
        let mut single = Vec::new();
        for rg in &ranges {
            file.for_each_in_range(&engine, rg.clone(), |idx, r| single.push((idx, r)))
                .expect("scan");
        }
        assert_eq!(multi, single);
        assert_eq!(multi.len(), ranges.iter().map(|r| r.len()).sum::<usize>());
        assert!(multi.iter().all(|&(idx, r)| r == kv(idx)));
    }

    pub(crate) fn check_put(codec: PageCodec) {
        let (engine, file) = file_with(codec, 1000);
        // Far from its neighbours: the compressed re-encode must absorb
        // it in the page's build-time reserve.
        let updated = KvRecord {
            key: u64::MAX / 3,
            value: -12345.6789,
        };
        file.put(&engine, 500, &updated).expect("put");
        assert_eq!(file.get(&engine, 500).expect("get"), updated);
        // Neighbours untouched, also after a cold re-read.
        engine.clear_cache();
        assert_eq!(file.get(&engine, 499).expect("get"), kv(499));
        assert_eq!(file.get(&engine, 501).expect("get"), kv(501));
        assert_eq!(file.get(&engine, 500).expect("get"), updated);
    }

    pub(crate) fn check_empty(codec: PageCodec) {
        let (engine, file) = file_with(codec, 0);
        assert!(file.is_empty());
        assert_eq!(file.data_pages(), 1); // one allocated page, zero records
        assert_eq!(file.pages_in_range(0..0), 0);
        file.for_each_in_range(&engine, 0..0, |_, _| unreachable!("no records"))
            .expect("empty scan");
        let reopened =
            CellFile::<KvRecord>::open(&engine, codec, file.first_page(), 0, 1).expect("open");
        assert!(reopened.read_range(&engine, 0..0).expect("read").is_empty());
    }

    #[test]
    fn create_and_read_back() {
        check_round_trip(PageCodec::Raw);
        let (_engine, file) = file_with(PageCodec::Raw, 1000);
        assert_eq!(KvRecord::SIZE, 16);
        assert_eq!(RecordFile::<KvRecord>::records_per_page(), 256);
        assert_eq!(file.num_pages(), 4);
    }

    #[test]
    fn create_surfaces_write_faults_at_flush() {
        // Creation buffers its writes, so a physical write fault fires
        // at the flush (or at a dirty eviction), not inside create.
        let engine = StorageEngine::in_memory();
        engine.inject_fault(Fault::FailWrite { nth: 2 });
        let _file = RecordFile::create(&engine, sample(1000)).expect("buffered create");
        let err = engine
            .flush()
            .expect_err("injected write fault must surface at flush");
        assert!(err.is_injected());
        engine.clear_faults();
        engine.flush().expect("retry flushes the rest");
    }

    #[test]
    fn create_with_tiny_pool_spills_through_writeback() {
        // A pool far smaller than the file forces dirty evictions
        // during create; nothing may be lost.
        for codec in CODECS {
            let engine = StorageEngine::new(StorageConfig {
                pool_pages: 2,
                codec,
            });
            let file = CellFile::create(&engine, sample(5000)).expect("create");
            assert!(file.data_pages() > 2, "{codec:?}");
            engine.sync().expect("sync");
            engine.clear_cache();
            for idx in [0usize, 255, 256, 511, 4999] {
                assert_eq!(file.get(&engine, idx).expect("get"), kv(idx));
            }
        }
    }

    #[test]
    fn range_scan_reads_minimal_pages() {
        for codec in CODECS {
            let (engine, file) = file_with(codec, 5000);
            for range in [250..260, 0..1, 700..3100, 0..5000] {
                engine.clear_cache();
                engine.reset_stats();
                let got = file.read_range(&engine, range.clone()).expect("read range");
                assert_eq!(got, sample(5000)[range.clone()]);
                assert_eq!(
                    engine.io_stats().logical_reads(),
                    file.pages_in_range(range.clone()) as u64,
                    "{codec:?} {range:?}"
                );
            }
        }
        // Raw records 250..260 straddle the page boundary at 256: 2 pages.
        let (_engine, file) = file_with(PageCodec::Raw, 1000);
        assert_eq!(file.pages_in_range(250..260), 2);
    }

    #[test]
    fn pages_in_range_formula() {
        let (_engine, file) = file_with(PageCodec::Raw, 1000);
        assert_eq!(file.pages_in_range(0..0), 0);
        assert_eq!(file.pages_in_range(0..1), 1);
        assert_eq!(file.pages_in_range(0..256), 1);
        assert_eq!(file.pages_in_range(0..257), 2);
        assert_eq!(file.pages_in_range(255..257), 2);
        assert_eq!(file.pages_in_range(0..1000), 4);
    }

    #[test]
    fn full_scan_matches_input() {
        for codec in CODECS {
            let (engine, file) = file_with(codec, 513);
            let mut seen = Vec::new();
            file.for_each_in_range(&engine, 0..513, |idx, r| {
                assert_eq!(r, kv(idx));
                seen.push(r);
            })
            .expect("scan");
            assert_eq!(seen, sample(513));
        }
    }

    #[test]
    fn multi_range_scan_reads_shared_pages_once() {
        // On raw pages 250..258 straddles pages 0|1 and 260..270 sits
        // on page 1, so the two ranges share page 1; 700..705 lives
        // alone on page 2. Whatever the layout, every page any range
        // touches is read exactly once.
        let ranges = [250..258, 260..270, 700..705];
        let want: Vec<usize> = ranges.iter().cloned().flatten().collect();
        for codec in CODECS {
            let (engine, file) = file_with(codec, 1000);
            engine.clear_cache();
            engine.reset_stats();
            let mut seen = Vec::new();
            file.for_each_in_ranges(&engine, &ranges, |idx, r| {
                assert_eq!(r, kv(idx));
                seen.push(idx);
            })
            .expect("scan");
            assert_eq!(seen, want);
            let pages: BTreeSet<usize> = want.iter().map(|&idx| page_of(&file, idx)).collect();
            assert_eq!(
                engine.io_stats().logical_reads(),
                pages.len() as u64,
                "{codec:?}"
            );
            if codec == PageCodec::Raw {
                // {0, 1} for the first two ranges, {2} for the third,
                // where per-range scans would pay 2 + 1 + 1 = 4.
                assert_eq!(pages.len(), 3);
            }
        }
    }

    #[test]
    fn multi_range_scan_equals_per_range_scans() {
        check_multi_range_equals_per_range(PageCodec::Raw);
    }

    #[test]
    fn multi_range_scan_rejects_overlap() {
        for codec in CODECS {
            let (engine, file) = file_with(codec, 100);
            #[allow(clippy::reversed_empty_ranges)]
            for ranges in [
                vec![0..10, 5..20],
                vec![20..30, 0..10],
                vec![0..8, 10..5, 6..9],
            ] {
                let err = file
                    .for_each_in_ranges(&engine, &ranges, |_, _| unreachable!("nothing is read"))
                    .expect_err("unsorted or overlapping ranges");
                assert!(err.is_invalid_range(), "{codec:?} {ranges:?}: {err}");
            }
        }
    }

    #[test]
    fn multi_range_scan_rejects_out_of_bounds() {
        for codec in CODECS {
            let (engine, file) = file_with(codec, 100);
            let err = file
                .for_each_in_ranges(&engine, &[0..10, 90..101], |_, _| {
                    unreachable!("nothing is read")
                })
                .expect_err("range past len");
            assert!(err.is_invalid_range(), "{codec:?}: {err}");
        }
    }

    #[test]
    fn put_overwrites_in_place() {
        check_put(PageCodec::Raw);
    }

    #[test]
    fn empty_file() {
        check_empty(PageCodec::Raw);
    }

    #[test]
    fn get_and_put_out_of_bounds_are_typed_errors() {
        for codec in CODECS {
            for n in [0usize, 10] {
                let (engine, file) = file_with(codec, n);
                let err = file.get(&engine, n).expect_err("get past len");
                assert!(err.is_invalid_range(), "{codec:?}: {err}");
                let err = file.put(&engine, n, &kv(0)).expect_err("put past len");
                assert!(err.is_invalid_range(), "{codec:?}: {err}");
            }
        }
    }

    #[test]
    fn range_out_of_bounds_is_a_typed_error() {
        for codec in CODECS {
            let (engine, file) = file_with(codec, 10);
            let err = file
                .for_each_in_range(&engine, 5..11, |_, _| unreachable!("nothing is read"))
                .expect_err("range past len");
            assert!(err.is_invalid_range(), "{codec:?}: {err}");
            let err = file
                .read_range(&engine, 0..usize::MAX)
                .expect_err("absurd range");
            assert!(err.is_invalid_range(), "{codec:?}: {err}");
        }
    }

    #[test]
    fn scan_surfaces_corruption_with_page_context() {
        for codec in CODECS {
            let (engine, file) = file_with(codec, 5000);
            assert!(file.data_pages() > 2, "{codec:?}");
            // Tear data page 2 of the file behind the pool's back.
            engine.clear_cache();
            engine.clear_faults(); // reset write ordinals past create's writes
            engine.inject_fault(Fault::TornWrite { nth: 0, keep: 64 });
            let torn = PageId(file.first_page().0 + 2);
            let junk = [0xA5u8; PAGE_SIZE];
            assert!(engine.write_page(torn, &junk).is_err());
            engine.clear_faults();

            let err = file
                .for_each_in_range(&engine, 0..5000, |_, _| ())
                .expect_err("scan must hit the torn page");
            assert!(err.is_corrupt(), "{codec:?}: {err}");
            assert_eq!(err.page(), Some(torn));
        }
    }
}
