//! Columnar delta/varint page compression for Hilbert-ordered records.
//!
//! The cell file stores records in Hilbert order, so consecutive records
//! are numerically similar: positions advance by small steps and vertex
//! values change slowly. This module exploits that with a per-page
//! columnar codec (the vbyte postings idea from inverted-index
//! compressors, applied to fixed-layout records):
//!
//! - [`ColKind::Delta4`] columns (`u32` words) store the first record's
//!   value raw, then zigzag-encoded deltas of consecutive values as
//!   LEB128 varints (1–5 bytes each, 1 for steps within ±63).
//! - [`ColKind::Xor8`] columns (`u64`/`f64` words) store the first value
//!   raw, then one control byte per record. A control with a non-zero
//!   low nibble is a Gorilla-style trimmed XOR against the previous
//!   record's value in the same column —
//!   `(trailing_zero_bytes << 4) | significant_byte_count` followed by
//!   the significant bytes. A control with a zero low nibble is an
//!   exact-match *reference*: `(j << 4)` means "equal to the previous
//!   record's column `j`", where `j` indexes the [`ColSpec`] list and
//!   must be an `Xor8` column at or before the current one (so the
//!   column-major decoder has already reconstructed it). References make
//!   shared words across neighbouring records cost one byte — the
//!   Hilbert scan visits mesh cells that literally share vertices, so
//!   TIN coordinates and grid corner values hit this constantly.
//!
//! A page is laid out as an 8-byte header (`magic u16`, `count u16`,
//! `payload_len u16`, reserved `u16`) followed by the column payloads in
//! [`ColSpec`] order. Every page is independently decodable (each column
//! restarts from a raw first value), so torn pages are contained.
//!
//! Records with cyclically interchangeable column units (a TIN cell's
//! vertex/value triples — see [`crate::Record::column_rotation_groups`])
//! get one more lever: the encoder stores each record under the unit
//! rotation that encodes cheapest against its predecessor, which lines a
//! shared mesh edge up with referenceable columns regardless of where
//! the triangulation put it. The rotation is recorded in a 2-bit-per-
//! record tag block (`⌈count/4⌉` bytes) at the start of the payload, and
//! the decoder permutes each record back afterwards — rotation is
//! invisible outside the codec, so readers always see exactly the bytes
//! that were written.
//!
//! Decoding works a word at a time: a trimmed XOR is one unaligned
//! `u64` load of the bytes after its control byte, masked and shifted
//! into place (only the payload's last 8 bytes fall back to a bounded
//! byte copy), and references resolve through a per-column table of
//! legal targets. It allocates nothing, so a range scan decodes into
//! the reader's warm scratch buffer.
//!
//! Decoding validates structure exhaustively — magic, count bounds,
//! payload length, control-byte sanity, and exact payload consumption —
//! and reports any violation as a `DecodeError`, which callers map to
//! [`crate::CfError::Corrupt`] with the page id attached. This file
//! denies clippy's `unwrap_used`, `expect_used` and `panic` lints:
//! on-disk bytes must never panic. Its tests may `expect`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::codec;
use crate::PAGE_SIZE;

/// Magic tag identifying a compressed record page. Public for the
/// corruption tests of dependent crates.
pub const PAGE_MAGIC: u16 = 0xC0DE;

/// Size of the fixed per-page header.
const HEADER_LEN: usize = 8;

/// How a record column is encoded on a compressed page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// A little-endian `u32` word: zigzag delta of consecutive values,
    /// LEB128 varint bytes (worst case 5 per record).
    Delta4,
    /// A little-endian `u64`/`f64` word: XOR of consecutive bit
    /// patterns, byte-trimmed behind a control byte (worst case 9 per
    /// record).
    Xor8,
}

impl ColKind {
    /// Width of the raw (first-record) value in bytes.
    #[inline]
    fn raw_width(self) -> usize {
        match self {
            ColKind::Delta4 => 4,
            ColKind::Xor8 => 8,
        }
    }

    /// Worst-case encoded bytes for one record in this column.
    #[inline]
    fn worst_delta_bytes(self) -> usize {
        match self {
            ColKind::Delta4 => 5,
            ColKind::Xor8 => 9,
        }
    }
}

/// One column of a record's fixed layout: the byte offset of the word
/// inside the record image and how it compresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColSpec {
    /// Byte offset of the column word within the record image.
    pub offset: usize,
    /// Encoding of the column.
    pub kind: ColKind,
}

/// The generic column layout for a record of `size` bytes: as many
/// [`ColKind::Xor8`] words as fit, then one [`ColKind::Delta4`] for a
/// trailing 4-byte word. `size` must be a multiple of 4.
///
/// Record types with known semantics (e.g. index columns that are really
/// `u32` counters) should override [`crate::Record::columns`] instead.
pub fn generic_columns(size: usize) -> Vec<ColSpec> {
    assert!(
        size.is_multiple_of(4),
        "record size {size} is not a multiple of 4"
    );
    let mut cols = Vec::with_capacity(size / 8 + 1);
    let mut off = 0;
    while off + 8 <= size {
        cols.push(ColSpec {
            offset: off,
            kind: ColKind::Xor8,
        });
        off += 8;
    }
    if off < size {
        cols.push(ColSpec {
            offset: off,
            kind: ColKind::Delta4,
        });
    }
    cols
}

/// Worst-case encoded bytes for one record across all columns.
pub fn worst_record_bytes(cols: &[ColSpec]) -> usize {
    cols.iter().map(|c| c.kind.worst_delta_bytes()).sum()
}

// ---------------------------------------------------------------------
// Scalar primitives
// ---------------------------------------------------------------------

/// Zigzag-maps a signed delta to an unsigned varint payload.
#[inline]
fn zigzag(d: i32) -> u32 {
    ((d << 1) ^ (d >> 31)) as u32
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u32) -> i32 {
    ((z >> 1) as i32) ^ -((z & 1) as i32)
}

/// Reads a LEB128 varint at `pos`, returning `(value, next_pos)`.
///
/// Rejects varints longer than 5 bytes and truncated buffers.
#[inline]
fn read_varint(buf: &[u8], mut pos: usize) -> Result<(u32, usize), DecodeError> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(pos).ok_or(DecodeError::TruncatedPayload)?;
        pos += 1;
        v |= u32::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok((v, pos));
        }
        shift += 7;
        if shift >= 35 {
            return Err(DecodeError::BadVarint);
        }
    }
}

/// Stages `v` as a LEB128 varint at the start of `slot`, returning its
/// length (1–5 bytes).
#[inline]
fn stage_varint(slot: &mut [u8; SLOT], mut v: u32) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        slot[n] = (v as u8) | 0x80;
        v >>= 7;
        n += 1;
    }
    slot[n] = v as u8;
    n + 1
}

/// Stages the XOR-trimmed encoding of `cur` against `prev` in `slot`:
/// the control byte, then the significant bytes (all eight payload
/// bytes are written; the returned length says how many count).
///
/// Exact matches are the encoder's job to catch first (they encode as
/// references); a zero XOR never reaches this function.
#[inline]
fn stage_xor(slot: &mut [u8; SLOT], prev: u64, cur: u64) -> usize {
    let x = prev ^ cur;
    debug_assert_ne!(x, 0, "exact matches encode as references");
    let trail = x.trailing_zeros() / 8;
    let sig = 8 - trail - x.leading_zeros() / 8;
    slot[0] = ((trail as u8) << 4) | sig as u8;
    slot[1..].copy_from_slice(&(x >> (8 * trail)).to_le_bytes());
    1 + sig as usize
}

// ---------------------------------------------------------------------
// Page encoder
// ---------------------------------------------------------------------

/// Most columns a record may declare: a reference control names its
/// column with one nibble.
const MAX_COLS: usize = 16;

/// Bytes staged per column: an `Xor8` control byte and up to 8 payload
/// bytes, a `Delta4` varint of up to 5, or a first record's raw word.
const SLOT: usize = 9;

/// One record's encoding under one rotation, staged before any of it is
/// appended: column `ci`'s bytes are the first `lens[ci]` of
/// `bytes[ci]`.
#[derive(Clone, Copy)]
struct Staged {
    bytes: [[u8; SLOT]; MAX_COLS],
    lens: [u8; MAX_COLS],
}

impl Staged {
    const EMPTY: Self = Self {
        bytes: [[0; SLOT]; MAX_COLS],
        lens: [0; MAX_COLS],
    };
}

/// Incremental encoder for one compressed page: records are appended
/// until the page (plus a caller-chosen reserve) is full, then flushed.
///
/// The encoder keeps one byte buffer and one `prev` word per column and
/// the page's running encoded length. A push is one pass: it reads the
/// record's words once, stages each candidate rotation's column
/// encodings on the stack while adding up their cost, checks the
/// cheapest against the running length, and only then appends it. A
/// rejected push leaves the encoder untouched, so the caller can flush
/// and retry the same record on a fresh page.
#[derive(Debug)]
pub struct PageEncoder {
    cols: Vec<ColSpec>,
    /// Bit `j` is set when column `j` is `Xor8`: the columns a
    /// reference may name.
    xor_cols: u32,
    /// Whether records carry rotation tags (the layout has groups).
    tagged: bool,
    /// Per rotation `r`, `src[r][ci]` is the original column whose word
    /// the stored (permuted) column `ci` carries.
    src: Vec<Vec<usize>>,
    bufs: Vec<Vec<u8>>,
    prev: [u64; MAX_COLS],
    tags: Vec<u8>,
    count: usize,
    /// Header + payload bytes the page currently occupies.
    len: usize,
}

impl PageEncoder {
    /// Creates an encoder for records with the given column layout and
    /// cyclic rotation groups (empty for fixed-layout records — see
    /// [`crate::Record::column_rotation_groups`]).
    pub fn new(cols: Vec<ColSpec>, groups: Vec<Vec<usize>>) -> Self {
        let n = cols.len();
        assert!(!cols.is_empty(), "record must have at least one column");
        assert!(
            n <= MAX_COLS,
            "reference controls index columns with one nibble (got {n} columns)"
        );
        let src = rotation_sources(&cols, &groups);
        let xor_cols = cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == ColKind::Xor8)
            .fold(0, |mask, (j, _)| mask | 1 << j);
        Self {
            cols,
            xor_cols,
            tagged: !groups.is_empty(),
            src,
            bufs: vec![Vec::new(); n],
            prev: [0; MAX_COLS],
            tags: Vec::new(),
            count: 0,
            len: HEADER_LEN,
        }
    }

    /// Records currently buffered.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Stages the first record of a page: every column's raw word, in
    /// the identity rotation. Returns its cost.
    fn stage_raw(&self, words: &[u64; MAX_COLS], out: &mut Staged) -> usize {
        let mut cost = 0;
        for (ci, c) in self.cols.iter().enumerate() {
            let width = c.kind.raw_width();
            out.bytes[ci][..8].copy_from_slice(&words[ci].to_le_bytes());
            out.lens[ci] = width as u8;
            cost += width;
        }
        cost
    }

    /// Stages the record's encoding under the rotation `src` against
    /// the previous record and returns its cost in bytes. Stops as soon
    /// as the cost reaches `bound` — a rotation at least as dear as one
    /// already staged never wins — and then returns a cost `>= bound`.
    #[inline]
    fn stage(
        &self,
        words: &[u64; MAX_COLS],
        src: &[usize],
        bound: usize,
        out: &mut Staged,
    ) -> usize {
        let mut cost = 0;
        for (ci, (c, &from)) in self.cols.iter().zip(src).enumerate() {
            let cur = words[from];
            let slot = &mut out.bytes[ci];
            let len = match c.kind {
                ColKind::Delta4 => {
                    let d = (cur as u32).wrapping_sub(self.prev[ci] as u32) as i32;
                    stage_varint(slot, zigzag(d))
                }
                ColKind::Xor8 => {
                    // An exact match against any already-decodable Xor8
                    // column of the previous record costs one byte;
                    // lowest column wins, so the choice is deterministic.
                    let mut refs = self.xor_cols & ((2 << ci) - 1);
                    loop {
                        if refs == 0 {
                            break stage_xor(slot, self.prev[ci], cur);
                        }
                        let j = refs.trailing_zeros() as usize;
                        if self.prev[j] == cur {
                            slot[0] = (j as u8) << 4;
                            break 1;
                        }
                        refs &= refs - 1;
                    }
                }
            };
            out.lens[ci] = len as u8;
            cost += len;
            if cost >= bound {
                break;
            }
        }
        cost
    }

    /// Appends one record image; returns `false` (leaving the page
    /// unchanged) when it would not fit within `PAGE_SIZE - reserve`.
    /// The first record of a page always fits.
    pub fn try_push(&mut self, image: &[u8], reserve: usize) -> bool {
        let mut words = [0u64; MAX_COLS];
        for (w, c) in words.iter_mut().zip(&self.cols) {
            *w = match c.kind {
                ColKind::Delta4 => u64::from(codec::get_u32(image, c.offset)),
                ColKind::Xor8 => codec::get_u64(image, c.offset),
            };
        }
        // Pick the cheapest unit rotation against the previous record's
        // stored words; ties go to rotation 0, so the untouched layout
        // stays the common case. For records without rotation groups
        // only the identity is considered. The first record of a page
        // is stored raw, where every rotation costs the same.
        let mut staged = [Staged::EMPTY; 2];
        let (mut rot, mut best) = (0, 0);
        let cost = if self.count == 0 {
            self.stage_raw(&words, &mut staged[0])
        } else {
            let mut cost = self.stage(&words, &self.src[0], usize::MAX, &mut staged[0]);
            for r in 1..self.src.len() {
                let c = self.stage(&words, &self.src[r], cost, &mut staged[1 - best]);
                if c < cost {
                    (rot, best, cost) = (r, 1 - best, c);
                }
            }
            cost
        };
        let tag_byte = usize::from(self.tagged && self.count.is_multiple_of(4));
        if self.count > 0 && self.len + cost + tag_byte + reserve > PAGE_SIZE {
            return false;
        }
        let staged = &staged[best];
        for ((buf, bytes), &len) in self.bufs.iter_mut().zip(&staged.bytes).zip(&staged.lens) {
            buf.extend_from_slice(bytes);
            buf.truncate(buf.len() - SLOT + usize::from(len));
        }
        if self.tagged {
            if self.count.is_multiple_of(4) {
                self.tags.push(0);
            }
            if let Some(last) = self.tags.last_mut() {
                *last |= (rot as u8) << ((self.count % 4) * 2);
            }
        }
        for (p, &from) in self.prev.iter_mut().zip(&self.src[rot]) {
            *p = words[from];
        }
        self.len += cost + tag_byte;
        self.count += 1;
        true
    }

    /// Writes the header + payload into `page` and resets the encoder.
    ///
    /// # Panics
    ///
    /// Panics if the encoded page exceeds `page.len()` or no records were
    /// pushed — both caller bugs, not data errors.
    pub fn flush_into(&mut self, page: &mut [u8]) -> usize {
        assert!(self.count > 0, "flush of an empty page");
        let total = self.len;
        debug_assert_eq!(
            total,
            HEADER_LEN + self.tags.len() + self.bufs.iter().map(Vec::len).sum::<usize>(),
            "the running length must match the buffers"
        );
        assert!(total <= page.len(), "encoded page overflows the buffer");
        let payload = total - HEADER_LEN;
        let mut off = codec::put_u16(page, 0, PAGE_MAGIC);
        off = codec::put_u16(page, off, self.count as u16);
        off = codec::put_u16(page, off, payload as u16);
        off = codec::put_u16(page, off, 0);
        page[off..off + self.tags.len()].copy_from_slice(&self.tags);
        off += self.tags.len();
        self.tags.clear();
        for buf in &mut self.bufs {
            page[off..off + buf.len()].copy_from_slice(buf);
            off += buf.len();
            buf.clear();
        }
        // Deterministic page images: zero the tail after the payload.
        page[off..].fill(0);
        self.count = 0;
        self.len = HEADER_LEN;
        self.prev.fill(0);
        total
    }
}

/// Builds, for each cyclic rotation, the map from stored (permuted)
/// column index to the original column whose word it carries. With no
/// groups only the identity rotation exists.
///
/// # Panics
///
/// Panics on a malformed group shape — more than 4 units (tags are 2
/// bits), unequal unit lengths, out-of-range or overlapping indices, or
/// kind-mismatched unit positions. All are record-type bugs, not data
/// errors.
fn rotation_sources(cols: &[ColSpec], groups: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let identity: Vec<usize> = (0..cols.len()).collect();
    if groups.is_empty() {
        return vec![identity];
    }
    let n_units = groups.len();
    assert!(
        n_units <= 4,
        "rotation tags are 2 bits (got {n_units} units)"
    );
    let len = groups[0].len();
    let mut seen = vec![false; cols.len()];
    for unit in groups {
        assert_eq!(unit.len(), len, "rotation units must have equal length");
        for (m, &c) in unit.iter().enumerate() {
            assert!(c < cols.len(), "rotation group column {c} out of range");
            assert!(
                !std::mem::replace(&mut seen[c], true),
                "rotation groups overlap on column {c}"
            );
            assert_eq!(
                cols[c].kind, cols[groups[0][m]].kind,
                "rotation unit position {m} mixes column kinds"
            );
        }
    }
    (0..n_units)
        .map(|r| {
            let mut src = identity.clone();
            for (j, unit) in groups.iter().enumerate() {
                let from = &groups[(j + r) % n_units];
                for (m, &c) in unit.iter().enumerate() {
                    src[c] = from[m];
                }
            }
            src
        })
        .collect()
}

// ---------------------------------------------------------------------
// Page decoder
// ---------------------------------------------------------------------

/// Structural decode failure of a compressed page. The record-file layer
/// wraps this into [`crate::CfError::Corrupt`] with the page id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DecodeError {
    /// The page magic did not match [`PAGE_MAGIC`].
    BadMagic(u16),
    /// The header record count was zero or inconsistent with the
    /// caller's expectation from the page directory.
    BadCount(usize),
    /// The header payload length exceeds the page.
    BadPayloadLen(usize),
    /// A column ran past the declared payload.
    TruncatedPayload,
    /// A varint exceeded the 5-byte `u32` bound.
    BadVarint,
    /// An XOR control byte declared an impossible byte span.
    BadControlByte(u8),
    /// A rotation tag named a unit rotation the record type lacks.
    BadRotationTag(u8),
    /// Decoding consumed fewer or more bytes than the declared payload.
    PayloadLenMismatch {
        /// Payload length from the header.
        declared: usize,
        /// Bytes actually consumed by the columns.
        consumed: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad compressed-page magic {m:#06x}"),
            DecodeError::BadCount(c) => write!(f, "bad compressed-page record count {c}"),
            DecodeError::BadPayloadLen(l) => write!(f, "payload length {l} exceeds page"),
            DecodeError::TruncatedPayload => write!(f, "column data truncated"),
            DecodeError::BadVarint => write!(f, "varint exceeds u32 range"),
            DecodeError::BadControlByte(b) => write!(f, "bad xor control byte {b:#04x}"),
            DecodeError::BadRotationTag(t) => write!(f, "rotation tag {t} out of range"),
            DecodeError::PayloadLenMismatch { declared, consumed } => {
                write!(
                    f,
                    "payload length mismatch: declared {declared}, consumed {consumed}"
                )
            }
        }
    }
}

/// Reads the record count of an encoded page header after validating the
/// magic and bounds (count ≥ 1, payload within the page).
fn page_count(page: &[u8]) -> Result<usize, DecodeError> {
    let magic = codec::try_get_u16(page, 0).ok_or(DecodeError::TruncatedPayload)?;
    if magic != PAGE_MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let count = codec::try_get_u16(page, 2).ok_or(DecodeError::TruncatedPayload)? as usize;
    let payload = codec::try_get_u16(page, 4).ok_or(DecodeError::TruncatedPayload)? as usize;
    if count == 0 {
        return Err(DecodeError::BadCount(count));
    }
    if HEADER_LEN + payload > page.len() {
        return Err(DecodeError::BadPayloadLen(payload));
    }
    Ok(count)
}

/// Decodes an encoded page into `count` contiguous record images of
/// `rec_size` bytes in `out` (which must hold `count * rec_size` bytes).
///
/// `groups` must match the encoder's rotation groups (empty for
/// fixed-layout records); the decoded images are always in the records'
/// original column layout.
///
/// Returns the record count. Every structural violation — wrong magic,
/// zero count, payload overrun, bad varint/control/tag bytes, or inexact
/// payload consumption — yields a [`DecodeError`]; no input can panic.
pub(crate) fn decode_page(
    cols: &[ColSpec],
    groups: &[Vec<usize>],
    rec_size: usize,
    page: &[u8],
    out: &mut [u8],
) -> Result<usize, DecodeError> {
    let count = page_count(page)?;
    let payload = codec::try_get_u16(page, 4).ok_or(DecodeError::TruncatedPayload)? as usize;
    if out.len() < count * rec_size {
        return Err(DecodeError::BadCount(count));
    }
    let buf = &page[HEADER_LEN..HEADER_LEN + payload];
    let tags_len = if groups.is_empty() {
        0
    } else {
        count.div_ceil(4)
    };
    let tags = buf.get(..tags_len).ok_or(DecodeError::TruncatedPayload)?;
    let mut pos = tags_len;
    for (ci, c) in cols.iter().enumerate() {
        pos = match c.kind {
            ColKind::Delta4 => decode_delta4_column(buf, pos, count, rec_size, c.offset, out)?,
            ColKind::Xor8 => decode_xor8_column(buf, pos, count, rec_size, cols, ci, out)?,
        };
    }
    if pos != payload {
        return Err(DecodeError::PayloadLenMismatch {
            declared: payload,
            consumed: pos,
        });
    }
    restore_rotations(cols, groups, tags, count, rec_size, out)?;
    Ok(count)
}

/// Undoes per-record unit rotation after the columns have decoded: each
/// stored record holds its units in the permuted order the encoder
/// chose; this pass copies them back to the original layout so callers
/// see exactly the bytes that were written.
///
/// Allocation-free: the move plan is built once per page on the stack
/// (the encoder admits at most 4 units over at most 16 columns), and
/// each rotated record gathers its grouped words before writing them
/// back to their original columns.
fn restore_rotations(
    cols: &[ColSpec],
    groups: &[Vec<usize>],
    tags: &[u8],
    count: usize,
    rec_size: usize,
    out: &mut [u8],
) -> Result<(), DecodeError> {
    if groups.is_empty() {
        return Ok(());
    }
    let n_units = groups.len();
    // The grouped words in (unit, position) order — stored offset and
    // whether it is an 8-byte word — and, per rotation `r`, the offset
    // each restores to: stored unit `j` carries original unit
    // `(j + r) % n_units`.
    let mut from = [(0usize, false); 16];
    let mut to = [[0usize; 16]; 4];
    let mut n = 0;
    let grouped = groups
        .iter()
        .enumerate()
        .flat_map(|(j, unit)| unit.iter().enumerate().map(move |(m, &c)| (j, m, c)));
    for ((j, m, c), (src, k)) in grouped.zip(from.iter_mut().zip(0..)) {
        *src = (cols[c].offset, cols[c].kind == ColKind::Xor8);
        for (r, dest) in to.iter_mut().enumerate().take(n_units) {
            dest[k] = cols[groups[(j + r) % n_units][m]].offset;
        }
        n = k + 1;
    }
    let mut words = [0u64; 16];
    for i in 0..count {
        let tag = (tags[i / 4] >> ((i % 4) * 2)) & 0b11;
        let r = tag as usize;
        if r == 0 {
            continue;
        }
        if r >= n_units {
            return Err(DecodeError::BadRotationTag(tag));
        }
        let rec = &mut out[i * rec_size..(i + 1) * rec_size];
        for (word, &(off, wide)) in words.iter_mut().zip(&from[..n]) {
            *word = if wide {
                codec::get_u64(rec, off)
            } else {
                u64::from(codec::get_u32(rec, off))
            };
        }
        for ((&word, &(_, wide)), &off) in words.iter().zip(&from[..n]).zip(&to[r]) {
            if wide {
                codec::put_u64(rec, off, word);
            } else {
                codec::put_u32(rec, off, word as u32);
            }
        }
    }
    Ok(())
}

/// Decodes one `Delta4` column into the record images.
///
/// The reconstruction loop runs in unrolled 8-record batches with a
/// branch-free fast path: when the next 8 payload bytes all lack the
/// varint continuation bit (the common case — Hilbert-ordered positions
/// step by small amounts), the batch decodes without per-byte loops.
fn decode_delta4_column(
    buf: &[u8],
    mut pos: usize,
    count: usize,
    rec_size: usize,
    offset: usize,
    out: &mut [u8],
) -> Result<usize, DecodeError> {
    let first = u32::from_le_bytes(
        buf.get(pos..pos + 4)
            .ok_or(DecodeError::TruncatedPayload)?
            .try_into()
            .map_err(|_| DecodeError::TruncatedPayload)?,
    );
    pos += 4;
    out[offset..offset + 4].copy_from_slice(&first.to_le_bytes());
    let mut prev = first;
    let mut i = 1usize;
    while i < count {
        let batch = (count - i).min(8);
        // Fast path: 8 single-byte varints in a row decode lane-wise.
        if batch == 8 {
            if let Some(w) = buf.get(pos..pos + 8) {
                let mut cont = 0u8;
                for (j, b) in w.iter().enumerate() {
                    cont |= (b >> 7) << j;
                }
                if cont == 0 {
                    for (j, b) in w.iter().enumerate() {
                        prev = prev.wrapping_add(unzigzag(u32::from(*b)) as u32);
                        let slot = (i + j) * rec_size + offset;
                        out[slot..slot + 4].copy_from_slice(&prev.to_le_bytes());
                    }
                    pos += 8;
                    i += 8;
                    continue;
                }
            }
        }
        for _ in 0..batch {
            let (z, np) = read_varint(buf, pos)?;
            pos = np;
            prev = prev.wrapping_add(unzigzag(z) as u32);
            let slot = i * rec_size + offset;
            out[slot..slot + 4].copy_from_slice(&prev.to_le_bytes());
            i += 1;
        }
    }
    Ok(pos)
}

/// Reads the little-endian `u64` at `buf[pos..pos + 8]`, or `None` when
/// fewer than 8 bytes remain.
#[inline(always)]
fn load_u64(buf: &[u8], pos: usize) -> Option<u64> {
    let b = buf.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Decodes one `Xor8` column (spec index `ci`) into the record images.
///
/// A control byte with a non-zero low nibble is a trimmed XOR
/// `(trail << 4) | sig` against this column's previous value; a zero low
/// nibble is a reference `(j << 4)` to the previous record's column `j`,
/// which must be an `Xor8` column at or before `ci` (columns decode in
/// spec order, so that word is already materialized in `out`).
///
/// Word at a time: a trimmed XOR loads the 8 bytes after its control
/// byte as one `u64`, masks them to the low `sig` bytes and shifts them
/// into place — only a control byte within the payload's last 8 bytes
/// takes the bounded byte copy. The legal reference targets are
/// resolved once per column into a 16-entry table, one slot per nibble.
fn decode_xor8_column(
    buf: &[u8],
    mut pos: usize,
    count: usize,
    rec_size: usize,
    cols: &[ColSpec],
    ci: usize,
    out: &mut [u8],
) -> Result<usize, DecodeError> {
    let offset = cols[ci].offset;
    let mut targets = [None; 16];
    for (slot, c) in targets.iter_mut().zip(&cols[..=ci]) {
        if c.kind == ColKind::Xor8 {
            *slot = Some(c.offset);
        }
    }
    let mut prev = load_u64(buf, pos).ok_or(DecodeError::TruncatedPayload)?;
    pos += 8;
    out[offset..offset + 8].copy_from_slice(&prev.to_le_bytes());
    for i in 1..count {
        let ctrl = *buf.get(pos).ok_or(DecodeError::TruncatedPayload)?;
        let sig = usize::from(ctrl & 0x0F);
        let trail = usize::from(ctrl >> 4);
        prev = if sig == 0 {
            let src = targets[trail].ok_or(DecodeError::BadControlByte(ctrl))?;
            pos += 1;
            codec::get_u64(out, (i - 1) * rec_size + src)
        } else {
            if trail + sig > 8 {
                return Err(DecodeError::BadControlByte(ctrl));
            }
            let bits = match load_u64(buf, pos + 1) {
                Some(w) => w & (u64::MAX >> (64 - 8 * sig)),
                None => {
                    let bytes = buf
                        .get(pos + 1..pos + 1 + sig)
                        .ok_or(DecodeError::TruncatedPayload)?;
                    let mut le = [0u8; 8];
                    le[..sig].copy_from_slice(bytes);
                    u64::from_le_bytes(le)
                }
            };
            pos += 1 + sig;
            prev ^ (bits << (8 * trail))
        };
        let slot = i * rec_size + offset;
        out[slot..slot + 8].copy_from_slice(&prev.to_le_bytes());
    }
    Ok(pos)
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;

    fn cols_kv() -> Vec<ColSpec> {
        generic_columns(16)
    }

    fn encode_records(cols: &[ColSpec], rec_size: usize, images: &[u8]) -> Vec<u8> {
        let mut enc = PageEncoder::new(cols.to_vec(), Vec::new());
        for img in images.chunks(rec_size) {
            assert!(enc.try_push(img, 0), "records must fit one page in tests");
        }
        let mut page = vec![0u8; PAGE_SIZE];
        enc.flush_into(&mut page);
        page
    }

    #[test]
    fn zigzag_round_trips() {
        for d in [0i32, 1, -1, 63, -64, i32::MAX, i32::MIN, 12345, -54321] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let vals = [0u32, 1, 127, 128, 16383, 16384, u32::MAX];
        for v in vals {
            reference::push_varint(&mut buf, v);
        }
        let mut pos = 0;
        for v in vals {
            let (got, np) = read_varint(&buf, pos).expect("test value");
            assert_eq!(got, v);
            pos = np;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn xor_column_round_trips_specials() {
        let cols = vec![ColSpec {
            offset: 0,
            kind: ColKind::Xor8,
        }];
        let vals = [
            0u64,
            1,
            f64::to_bits(1.5),
            f64::to_bits(1.5000001),
            f64::to_bits(-0.0),
            f64::to_bits(f64::NAN),
            f64::to_bits(f64::INFINITY),
            u64::MAX,
            u64::MAX, // repeat → one-byte same-column reference
        ];
        let mut images = vec![0u8; vals.len() * 8];
        for (i, v) in vals.iter().enumerate() {
            codec::put_u64(&mut images[i * 8..(i + 1) * 8], 0, *v);
        }
        let page = encode_records(&cols, 8, &images);
        let mut out = vec![0u8; images.len()];
        assert_eq!(
            decode_page(&cols, &[], 8, &page, &mut out).expect("test value"),
            vals.len()
        );
        assert_eq!(out, images);
    }

    #[test]
    fn cross_column_references_compress_shared_words() {
        // Shared-vertex pattern: column 1 of record i repeats column 0
        // of record i-1, as when a Hilbert scan walks adjacent mesh
        // cells. The repeat must encode as a one-byte reference.
        let cols = cols_kv();
        let n = 32usize;
        let v = |i: usize| f64::to_bits(1.0 + (i as f64) * std::f64::consts::PI);
        let mut images = vec![0u8; n * 16];
        for i in 0..n {
            let img = &mut images[i * 16..(i + 1) * 16];
            codec::put_u64(img, 0, v(i));
            codec::put_u64(img, 8, v(i.wrapping_sub(1)));
        }
        let page = encode_records(&cols, 16, &images);
        let mut out = vec![0u8; n * 16];
        assert_eq!(
            decode_page(&cols, &[], 16, &page, &mut out).expect("test value"),
            n
        );
        assert_eq!(out, images);
        // Column 0 pays full xor freight; column 1 is all references.
        let payload = codec::try_get_u16(&page, 4).expect("test value") as usize;
        assert!(payload <= 16 + (n - 1) * 10, "payload {payload}");
    }

    #[test]
    fn invalid_references_error_not_panic() {
        // Forward reference: column 0 cites column 1, which the
        // column-major decoder has not materialized yet.
        let cols = vec![ColSpec {
            offset: 0,
            kind: ColKind::Xor8,
        }];
        let mut page = vec![0u8; PAGE_SIZE];
        let _ = codec::put_u16(&mut page, 0, PAGE_MAGIC);
        let _ = codec::put_u16(&mut page, 2, 2);
        let _ = codec::put_u16(&mut page, 4, 9);
        codec::put_u64(&mut page[HEADER_LEN..HEADER_LEN + 8], 0, 7);
        page[HEADER_LEN + 8] = 0x10;
        let mut out = vec![0u8; 16];
        assert!(matches!(
            decode_page(&cols, &[], 8, &page, &mut out),
            Err(DecodeError::BadControlByte(0x10))
        ));

        // Reference to a Delta4 column is equally malformed.
        let cols = vec![
            ColSpec {
                offset: 0,
                kind: ColKind::Delta4,
            },
            ColSpec {
                offset: 8,
                kind: ColKind::Xor8,
            },
        ];
        let mut page = vec![0u8; PAGE_SIZE];
        let _ = codec::put_u16(&mut page, 0, PAGE_MAGIC);
        let _ = codec::put_u16(&mut page, 2, 2);
        let _ = codec::put_u16(&mut page, 4, 14);
        let body = &mut page[HEADER_LEN..];
        codec::put_u32(&mut body[0..4], 0, 3); // Delta4 first value
        body[4] = 0; // zero varint delta
        codec::put_u64(&mut body[5..13], 0, 9); // Xor8 first value
        body[13] = 0x00; // cites column 0, a Delta4 column
        let mut out = vec![0u8; 32];
        assert!(matches!(
            decode_page(&cols, &[], 16, &page, &mut out),
            Err(DecodeError::BadControlByte(0x00))
        ));
    }

    #[test]
    fn page_round_trips_byte_exact() {
        let cols = cols_kv();
        let n = 100usize;
        let mut images = vec![0u8; n * 16];
        for i in 0..n {
            let img = &mut images[i * 16..(i + 1) * 16];
            codec::put_u64(img, 0, 1000 + (i as u64) * 3);
            codec::put_f64(img, 8, 20.0 + (i as f64) * 0.125);
        }
        let page = encode_records(&cols, 16, &images);
        let mut out = vec![0u8; n * 16];
        let count = decode_page(&cols, &[], 16, &page, &mut out).expect("test value");
        assert_eq!(count, n);
        assert_eq!(out, images);
        // Similar records compress far below their raw footprint.
        let payload = codec::try_get_u16(&page, 4).expect("test value") as usize;
        assert!(
            payload < n * 16 / 3,
            "expected ≥3x compression, payload {payload} for {} raw",
            n * 16
        );
    }

    #[test]
    fn sorted_u32_column_compresses_to_about_a_byte_per_record() {
        let cols = vec![
            ColSpec {
                offset: 0,
                kind: ColKind::Delta4,
            },
            ColSpec {
                offset: 4,
                kind: ColKind::Delta4,
            },
        ];
        let n = 500usize;
        let mut images = vec![0u8; n * 8];
        for i in 0..n {
            let img = &mut images[i * 8..(i + 1) * 8];
            codec::put_u32(img, 0, (i as u32) * 7);
            codec::put_u32(img, 4, 40 + (i as u32) * 7);
        }
        let page = encode_records(&cols, 8, &images);
        let mut out = vec![0u8; n * 8];
        assert_eq!(
            decode_page(&cols, &[], 8, &page, &mut out).expect("test value"),
            n
        );
        assert_eq!(out, images);
        let payload = codec::try_get_u16(&page, 4).expect("test value") as usize;
        assert!(payload <= 8 + 2 * n, "payload {payload}");
    }

    #[test]
    fn try_push_respects_reserve_and_is_atomic() {
        let cols = cols_kv();
        let mut enc = PageEncoder::new(cols.clone(), Vec::new());
        let mut img = [0u8; 16];
        let mut pushed = 0usize;
        loop {
            codec::put_u64(&mut img, 0, pushed as u64);
            // Adversarial values: every push costs near worst case.
            codec::put_f64(&mut img, 8, (pushed as f64).sqrt() * 1e300);
            if !enc.try_push(&img, 64) {
                break;
            }
            pushed += 1;
        }
        assert!(pushed > 0);
        assert!(enc.len + 64 <= PAGE_SIZE);
        let len_before = enc.len;
        // The rejected push left the encoder unchanged.
        assert_eq!(enc.count(), pushed);
        assert_eq!(enc.len, len_before);
        let mut page = vec![0u8; PAGE_SIZE];
        enc.flush_into(&mut page);
        let mut out = vec![0u8; pushed * 16];
        assert_eq!(
            decode_page(&cols, &[], 16, &page, &mut out).expect("test value"),
            pushed
        );
    }

    #[test]
    fn random_values_round_trip() {
        // Deterministic xorshift images: worst-case incompressible data
        // still round-trips exactly (just with negative savings).
        let cols = cols_kv();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 60usize;
        let mut images = vec![0u8; n * 16];
        for i in 0..n {
            let img = &mut images[i * 16..(i + 1) * 16];
            codec::put_u64(img, 0, next());
            codec::put_u64(img, 8, next());
        }
        let page = encode_records(&cols, 16, &images);
        let mut out = vec![0u8; n * 16];
        assert_eq!(
            decode_page(&cols, &[], 16, &page, &mut out).expect("test value"),
            n
        );
        assert_eq!(out, images);
    }

    #[test]
    fn corrupt_pages_error_not_panic() {
        let cols = cols_kv();
        let n = 64usize;
        let mut images = vec![0u8; n * 16];
        for i in 0..n {
            let img = &mut images[i * 16..(i + 1) * 16];
            codec::put_u64(img, 0, i as u64);
            codec::put_f64(img, 8, i as f64);
        }
        let good = encode_records(&cols, 16, &images);
        let mut out = vec![0u8; PAGE_SIZE * 4];

        // Bad magic.
        let mut p = good.clone();
        p[0] ^= 0xFF;
        assert!(matches!(
            decode_page(&cols, &[], 16, &p, &mut out),
            Err(DecodeError::BadMagic(_))
        ));

        // Zero count.
        let mut p = good.clone();
        p[2] = 0;
        p[3] = 0;
        assert!(matches!(
            decode_page(&cols, &[], 16, &p, &mut out),
            Err(DecodeError::BadCount(0))
        ));

        // Payload overruns the page.
        let mut p = good.clone();
        p[4] = 0xFF;
        p[5] = 0xFF;
        assert!(matches!(
            decode_page(&cols, &[], 16, &p, &mut out),
            Err(DecodeError::BadPayloadLen(_))
        ));

        // Every single-byte corruption of the whole page must decode to
        // an error or to different bytes — never panic. (A flip may
        // still decode "successfully" to wrong record bytes; the CRC
        // layer below catches that. Here we only require totality.)
        for i in 0..good.len() {
            let mut p = good.clone();
            p[i] ^= 0x41;
            let _ = decode_page(&cols, &[], 16, &p, &mut out);
        }

        // Truncated payload: declare more records than encoded.
        let mut p = good.clone();
        let declared = codec::try_get_u16(&p, 2).expect("test value");
        let _ = codec::put_u16(&mut p, 2, declared + 9);
        assert!(decode_page(&cols, &[], 16, &p, &mut out).is_err());
    }

    /// Nine `Xor8` columns in three cyclic units, as a TIN cell record
    /// declares them.
    fn cols_tin() -> (Vec<ColSpec>, Vec<Vec<usize>>) {
        let cols = (0..9)
            .map(|i| ColSpec {
                offset: i * 8,
                kind: ColKind::Xor8,
            })
            .collect();
        (cols, vec![vec![0, 1, 6], vec![2, 3, 7], vec![4, 5, 8]])
    }

    #[test]
    fn rotation_restores_original_layout_and_compresses() {
        // Triangle-strip pattern: record i holds units (uᵢ, uᵢ₊₁, uᵢ₊₂)
        // of incompressible words, so consecutive records share two
        // units — but shifted one unit position left, out of reach of
        // cross-column references (which only look backwards). The
        // rotation pass must line the shared units up as references and
        // the decoder must still hand back the original layouts.
        let (cols, groups) = cols_tin();
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 32usize;
        let units: Vec<[u64; 3]> = (0..n + 2).map(|_| [next(), next(), next()]).collect();
        let mut images = vec![0u8; n * 72];
        for i in 0..n {
            let img = &mut images[i * 72..(i + 1) * 72];
            for (j, unit) in units[i..i + 3].iter().enumerate() {
                codec::put_u64(img, j * 16, unit[0]); // x → col 2j
                codec::put_u64(img, j * 16 + 8, unit[1]); // y → col 2j+1
                codec::put_u64(img, 48 + j * 8, unit[2]); // v → col 6+j
            }
        }
        let encode = |groups: Vec<Vec<usize>>| {
            let mut enc = PageEncoder::new(cols.clone(), groups);
            for img in images.chunks(72) {
                assert!(enc.try_push(img, 0), "records must fit one page");
            }
            let mut page = vec![0u8; PAGE_SIZE];
            enc.flush_into(&mut page);
            page
        };
        let rotated = encode(groups.clone());
        let plain = encode(Vec::new());
        let payload = |p: &[u8]| codec::try_get_u16(p, 4).expect("test value") as usize;
        assert!(
            payload(&rotated) * 2 < payload(&plain),
            "rotation should at least halve the strip payload: {} vs {}",
            payload(&rotated),
            payload(&plain)
        );
        let mut out = vec![0u8; n * 72];
        assert_eq!(
            decode_page(&cols, &groups, 72, &rotated, &mut out).expect("test value"),
            n
        );
        assert_eq!(out, images, "decode must restore the original layout");
    }

    #[test]
    fn bad_rotation_tag_errors_not_panic() {
        let cols = vec![
            ColSpec {
                offset: 0,
                kind: ColKind::Xor8,
            },
            ColSpec {
                offset: 8,
                kind: ColKind::Xor8,
            },
        ];
        let groups = vec![vec![0], vec![1]];
        let mut enc = PageEncoder::new(cols.clone(), groups.clone());
        let mut img = [0u8; 16];
        for i in 0..5u64 {
            codec::put_u64(&mut img, 0, i * 3);
            codec::put_u64(&mut img, 8, i * 7 + 1);
            assert!(enc.try_push(&img, 0));
        }
        let mut page = vec![0u8; PAGE_SIZE];
        enc.flush_into(&mut page);
        let mut out = vec![0u8; 5 * 16];
        decode_page(&cols, &groups, 16, &page, &mut out).expect("test value");
        // Tag of record 1 (bits 2–3 of the first tag byte) → 3, which
        // names a rotation a two-unit record lacks.
        page[HEADER_LEN] |= 0b1100;
        assert!(matches!(
            decode_page(&cols, &groups, 16, &page, &mut out),
            Err(DecodeError::BadRotationTag(3))
        ));
    }

    #[test]
    #[should_panic(expected = "rotation groups overlap")]
    fn overlapping_rotation_groups_rejected() {
        let (cols, _) = cols_tin();
        let _ = PageEncoder::new(cols, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn generic_columns_cover_the_record() {
        assert_eq!(generic_columns(16).len(), 2);
        assert_eq!(generic_columns(64).len(), 8);
        let c = generic_columns(12);
        assert_eq!(c.len(), 2);
        assert_eq!(c[1].kind, ColKind::Delta4);
        assert_eq!(c[1].offset, 8);
        assert_eq!(worst_record_bytes(&generic_columns(16)), 18);
    }

    /// The decoder as it stood before the word-at-a-time rewrite: byte
    /// assembly per control byte, references resolved per record, and an
    /// 8-identical-references batch path; and the encoder as it stood
    /// before the one-pass rewrite: each push costs every rotation, then
    /// encodes the winner again. The differential tests below hold the
    /// production codec to them, result for result and byte for byte.
    mod reference {
        use super::super::*;

        /// Appends `v` as a LEB128 varint.
        pub(in super::super) fn push_varint(out: &mut Vec<u8>, mut v: u32) {
            while v >= 0x80 {
                out.push((v as u8) | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
        }

        /// Encoded length of `v` as a LEB128 varint (1–5 bytes).
        fn varint_len(v: u32) -> usize {
            ((32 - (v | 1).leading_zeros()) as usize).div_ceil(7)
        }

        /// Appends the XOR-trimmed encoding of `cur` against `prev`.
        fn push_xor(out: &mut Vec<u8>, prev: u64, cur: u64) {
            let x = prev ^ cur;
            let trail = (x.trailing_zeros() / 8) as usize;
            let lead = (x.leading_zeros() / 8) as usize;
            let sig = 8 - trail - lead;
            out.push(((trail as u8) << 4) | sig as u8);
            out.extend_from_slice(&x.to_le_bytes()[trail..trail + sig]);
        }

        /// The two-pass page encoder.
        pub(in super::super) struct PageEncoder {
            cols: Vec<ColSpec>,
            groups: Vec<Vec<usize>>,
            src: Vec<Vec<usize>>,
            bufs: Vec<Vec<u8>>,
            prev: Vec<u64>,
            tags: Vec<u8>,
            count: usize,
        }

        impl PageEncoder {
            pub(in super::super) fn new(cols: Vec<ColSpec>, groups: Vec<Vec<usize>>) -> Self {
                let n = cols.len();
                let src = rotation_sources(&cols, &groups);
                Self {
                    cols,
                    groups,
                    src,
                    bufs: vec![Vec::new(); n],
                    prev: vec![0; n],
                    tags: Vec::new(),
                    count: 0,
                }
            }

            pub(in super::super) fn count(&self) -> usize {
                self.count
            }

            fn encoded_len(&self) -> usize {
                HEADER_LEN + self.tags.len() + self.bufs.iter().map(Vec::len).sum::<usize>()
            }

            fn word(&self, ci: usize, image: &[u8]) -> u64 {
                let c = self.cols[ci];
                match c.kind {
                    ColKind::Delta4 => u64::from(codec::get_u32(image, c.offset)),
                    ColKind::Xor8 => codec::get_u64(image, c.offset),
                }
            }

            fn push_cost(&self, image: &[u8], r: usize) -> usize {
                if self.count == 0 {
                    return self.cols.iter().map(|c| c.kind.raw_width()).sum();
                }
                (0..self.cols.len())
                    .map(|ci| {
                        let cur = self.word(self.src[r][ci], image);
                        match self.cols[ci].kind {
                            ColKind::Delta4 => {
                                let d = (cur as u32).wrapping_sub(self.prev[ci] as u32) as i32;
                                varint_len(zigzag(d))
                            }
                            ColKind::Xor8 => {
                                if (0..=ci).any(|j| {
                                    self.cols[j].kind == ColKind::Xor8 && self.prev[j] == cur
                                }) {
                                    1
                                } else {
                                    let x = self.prev[ci] ^ cur;
                                    let trail = (x.trailing_zeros() / 8) as usize;
                                    let lead = (x.leading_zeros() / 8) as usize;
                                    1 + (8 - trail - lead)
                                }
                            }
                        }
                    })
                    .sum()
            }

            pub(in super::super) fn try_push(&mut self, image: &[u8], reserve: usize) -> bool {
                let (rot, cost) = (0..self.src.len())
                    .map(|r| (r, self.push_cost(image, r)))
                    .min_by_key(|&(_, c)| c)
                    .expect("at least the identity rotation");
                let tag_byte = usize::from(!self.groups.is_empty() && self.count.is_multiple_of(4));
                if self.count > 0 && self.encoded_len() + cost + tag_byte + reserve > PAGE_SIZE {
                    return false;
                }
                for ci in 0..self.cols.len() {
                    let cur = self.word(self.src[rot][ci], image);
                    let buf = &mut self.bufs[ci];
                    if self.count == 0 {
                        match self.cols[ci].kind {
                            ColKind::Delta4 => buf.extend_from_slice(&(cur as u32).to_le_bytes()),
                            ColKind::Xor8 => buf.extend_from_slice(&cur.to_le_bytes()),
                        }
                    } else {
                        match self.cols[ci].kind {
                            ColKind::Delta4 => {
                                let d = (cur as u32).wrapping_sub(self.prev[ci] as u32) as i32;
                                push_varint(buf, zigzag(d));
                            }
                            ColKind::Xor8 => {
                                let matched = (0..=ci).find(|&j| {
                                    self.cols[j].kind == ColKind::Xor8 && self.prev[j] == cur
                                });
                                match matched {
                                    Some(j) => buf.push((j as u8) << 4),
                                    None => push_xor(buf, self.prev[ci], cur),
                                }
                            }
                        }
                    }
                }
                if !self.groups.is_empty() {
                    if self.count.is_multiple_of(4) {
                        self.tags.push(0);
                    }
                    let slot = self.tags.len() - 1;
                    self.tags[slot] |= (rot as u8) << ((self.count % 4) * 2);
                }
                for ci in 0..self.cols.len() {
                    self.prev[ci] = self.word(self.src[rot][ci], image);
                }
                self.count += 1;
                true
            }

            pub(in super::super) fn flush_into(&mut self, page: &mut [u8]) -> usize {
                let total = self.encoded_len();
                let payload = total - HEADER_LEN;
                let mut off = codec::put_u16(page, 0, PAGE_MAGIC);
                off = codec::put_u16(page, off, self.count as u16);
                off = codec::put_u16(page, off, payload as u16);
                off = codec::put_u16(page, off, 0);
                page[off..off + self.tags.len()].copy_from_slice(&self.tags);
                off += self.tags.len();
                self.tags.clear();
                for buf in &mut self.bufs {
                    page[off..off + buf.len()].copy_from_slice(buf);
                    off += buf.len();
                    buf.clear();
                }
                page[off..].fill(0);
                self.count = 0;
                self.prev.fill(0);
                total
            }
        }

        pub(super) fn decode_page(
            cols: &[ColSpec],
            groups: &[Vec<usize>],
            rec_size: usize,
            page: &[u8],
            out: &mut [u8],
        ) -> Result<usize, DecodeError> {
            let count = page_count(page)?;
            let payload =
                codec::try_get_u16(page, 4).ok_or(DecodeError::TruncatedPayload)? as usize;
            if out.len() < count * rec_size {
                return Err(DecodeError::BadCount(count));
            }
            let buf = &page[HEADER_LEN..HEADER_LEN + payload];
            let tags_len = if groups.is_empty() {
                0
            } else {
                count.div_ceil(4)
            };
            let tags = buf.get(..tags_len).ok_or(DecodeError::TruncatedPayload)?;
            let mut pos = tags_len;
            for (ci, c) in cols.iter().enumerate() {
                pos = match c.kind {
                    ColKind::Delta4 => {
                        decode_delta4_column(buf, pos, count, rec_size, c.offset, out)?
                    }
                    ColKind::Xor8 => decode_xor8_column(buf, pos, count, rec_size, cols, ci, out)?,
                };
            }
            if pos != payload {
                return Err(DecodeError::PayloadLenMismatch {
                    declared: payload,
                    consumed: pos,
                });
            }
            restore_rotations(cols, groups, tags, count, rec_size, out)?;
            Ok(count)
        }

        fn restore_rotations(
            cols: &[ColSpec],
            groups: &[Vec<usize>],
            tags: &[u8],
            count: usize,
            rec_size: usize,
            out: &mut [u8],
        ) -> Result<(), DecodeError> {
            if groups.is_empty() {
                return Ok(());
            }
            let n_units = groups.len();
            let mut tmp = vec![0u8; rec_size];
            for i in 0..count {
                let tag = (tags[i / 4] >> ((i % 4) * 2)) & 0b11;
                let r = tag as usize;
                if r == 0 {
                    continue;
                }
                if r >= n_units {
                    return Err(DecodeError::BadRotationTag(tag));
                }
                let rec = &mut out[i * rec_size..(i + 1) * rec_size];
                tmp.copy_from_slice(rec);
                for (j, unit) in groups.iter().enumerate() {
                    let orig = &groups[(j + r) % n_units];
                    for (m, &perm_col) in unit.iter().enumerate() {
                        let w = cols[perm_col].kind.raw_width();
                        let from = cols[perm_col].offset;
                        let to = cols[orig[m]].offset;
                        rec[to..to + w].copy_from_slice(&tmp[from..from + w]);
                    }
                }
            }
            Ok(())
        }

        fn decode_xor8_column(
            buf: &[u8],
            mut pos: usize,
            count: usize,
            rec_size: usize,
            cols: &[ColSpec],
            ci: usize,
            out: &mut [u8],
        ) -> Result<usize, DecodeError> {
            let offset = cols[ci].offset;
            let first = u64::from_le_bytes(
                buf.get(pos..pos + 8)
                    .ok_or(DecodeError::TruncatedPayload)?
                    .try_into()
                    .map_err(|_| DecodeError::TruncatedPayload)?,
            );
            pos += 8;
            out[offset..offset + 8].copy_from_slice(&first.to_le_bytes());
            let mut prev = first;
            let mut i = 1usize;
            while i < count {
                let batch = (count - i).min(8);
                if batch == 8 {
                    if let Some(w) = buf.get(pos..pos + 8) {
                        let ctrl = w[0];
                        let mut diff = 0u8;
                        for b in w {
                            diff |= *b ^ ctrl;
                        }
                        if diff == 0 && ctrl & 0x0F == 0 {
                            let src = ref_offset(cols, ci, ctrl)?;
                            for j in 0..8 {
                                let from = (i + j - 1) * rec_size + src;
                                let word: [u8; 8] =
                                    out[from..from + 8].try_into().expect("word slice");
                                let slot = (i + j) * rec_size + offset;
                                out[slot..slot + 8].copy_from_slice(&word);
                            }
                            let last = (i + 7) * rec_size + offset;
                            prev = u64::from_le_bytes(
                                out[last..last + 8].try_into().expect("word slice"),
                            );
                            pos += 8;
                            i += 8;
                            continue;
                        }
                    }
                }
                for _ in 0..batch {
                    let ctrl = *buf.get(pos).ok_or(DecodeError::TruncatedPayload)?;
                    let sig = (ctrl & 0x0F) as usize;
                    let v = if sig == 0 {
                        let src = ref_offset(cols, ci, ctrl)?;
                        let from = (i - 1) * rec_size + src;
                        pos += 1;
                        u64::from_le_bytes(out[from..from + 8].try_into().expect("word slice"))
                    } else {
                        let trail = (ctrl >> 4) as usize;
                        if trail + sig > 8 {
                            return Err(DecodeError::BadControlByte(ctrl));
                        }
                        let bytes = buf
                            .get(pos + 1..pos + 1 + sig)
                            .ok_or(DecodeError::TruncatedPayload)?;
                        let mut le = [0u8; 8];
                        le[trail..trail + sig].copy_from_slice(bytes);
                        pos += 1 + sig;
                        prev ^ u64::from_le_bytes(le)
                    };
                    prev = v;
                    let slot = i * rec_size + offset;
                    out[slot..slot + 8].copy_from_slice(&v.to_le_bytes());
                    i += 1;
                }
            }
            Ok(pos)
        }

        fn ref_offset(cols: &[ColSpec], ci: usize, ctrl: u8) -> Result<usize, DecodeError> {
            let j = (ctrl >> 4) as usize;
            if j > ci || cols[j].kind != ColKind::Xor8 {
                return Err(DecodeError::BadControlByte(ctrl));
            }
            Ok(cols[j].offset)
        }
    }

    /// Seeded splitmix64 stream for the differential tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A record layout of the differential sweep and its image stream.
    struct Shape {
        cols: Vec<ColSpec>,
        groups: Vec<Vec<usize>>,
        rec_size: usize,
        image: fn(&mut Rng, usize, &mut [u8]),
    }

    /// Smooth terrain value at lattice point `(x, y)`, on a coarse step
    /// so neighbouring corners often repeat exactly.
    fn terrain(x: i64, y: i64) -> f64 {
        let v = (x as f64 * 0.31).sin() * 40.0 + (y as f64 * 0.17).cos() * 25.0;
        (v * 4.0).round() / 4.0
    }

    /// Grid cells along a lattice walk: shared corners across steps.
    fn grid_image(rng: &mut Rng, i: usize, img: &mut [u8]) {
        let (x, y) = ((i as i64 / 16) + rng.below(2) as i64, (i as i64 % 16) * 2);
        let h = 0.5;
        let (x0, y0) = (x as f64 * h, y as f64 * h);
        for (k, v) in [x0, y0, x0 + h, y0 + h].into_iter().enumerate() {
            codec::put_f64(img, k * 8, v);
        }
        for (k, (dx, dy)) in [(0, 0), (1, 0), (0, 1), (1, 1)].into_iter().enumerate() {
            codec::put_f64(img, 32 + k * 8, terrain(x + dx, y + dy));
        }
    }

    /// TIN triangles of a strip, each stored under a random rotation of
    /// its vertex/value units, with the odd jump to a fresh region.
    fn tin_image(rng: &mut Rng, i: usize, img: &mut [u8]) {
        let base = if rng.below(16) == 0 {
            rng.below(1 << 20) as i64
        } else {
            i as i64
        };
        let rot = rng.below(3) as i64;
        for j in 0..3i64 {
            let k = base + (j + rot) % 3;
            let (x, y) = (k as f64 * 0.75, (k % 2) as f64 * 1.25);
            codec::put_f64(img, j as usize * 16, x);
            codec::put_f64(img, j as usize * 16 + 8, y);
            codec::put_f64(img, 48 + j as usize * 8, terrain(k, k % 2));
        }
    }

    /// Subfield-style records: sorted `u32` bounds and drifting `f64`
    /// interval ends.
    fn subfield_image(rng: &mut Rng, i: usize, img: &mut [u8]) {
        let start = (i as u32) * 66 + rng.below(8) as u32;
        codec::put_u32(img, 0, start);
        codec::put_u32(img, 4, start + 1 + rng.below(130) as u32);
        let lo = terrain(i as i64, 3) - rng.below(4) as f64;
        codec::put_f64(img, 8, lo);
        codec::put_f64(img, 16, lo + rng.below(64) as f64 * 0.25);
    }

    /// `KvRecord`-style pairs: a stepping key and a smooth value.
    fn kv_image(rng: &mut Rng, i: usize, img: &mut [u8]) {
        codec::put_u64(img, 0, (i as u64) * 3 + rng.below(3));
        codec::put_f64(img, 8, terrain(i as i64, 0));
    }

    /// A 4-byte position ahead of a grid image: the generic layout then
    /// cuts `Xor8` words across field boundaries and ends in a `Delta4`.
    fn delta_grid_image(rng: &mut Rng, i: usize, img: &mut [u8]) {
        codec::put_u32(img, 0, (i as u32) * 5 + rng.below(5) as u32);
        grid_image(rng, i, &mut img[4..]);
    }

    /// Incompressible words.
    fn random_image(rng: &mut Rng, _i: usize, img: &mut [u8]) {
        for w in img.chunks_exact_mut(8) {
            codec::put_u64(w, 0, rng.next());
        }
    }

    fn shapes() -> Vec<Shape> {
        let (tin_cols, tin_groups) = cols_tin();
        let xor8 = |offset| ColSpec {
            offset,
            kind: ColKind::Xor8,
        };
        let delta4 = |offset| ColSpec {
            offset,
            kind: ColKind::Delta4,
        };
        vec![
            Shape {
                cols: generic_columns(64),
                groups: Vec::new(),
                rec_size: 64,
                image: grid_image,
            },
            Shape {
                cols: tin_cols,
                groups: tin_groups,
                rec_size: 72,
                image: tin_image,
            },
            Shape {
                cols: vec![delta4(0), delta4(4), xor8(8), xor8(16)],
                groups: Vec::new(),
                rec_size: 24,
                image: subfield_image,
            },
            Shape {
                cols: generic_columns(16),
                groups: Vec::new(),
                rec_size: 16,
                image: kv_image,
            },
            Shape {
                cols: generic_columns(68),
                groups: Vec::new(),
                rec_size: 68,
                image: delta_grid_image,
            },
            Shape {
                cols: generic_columns(64),
                groups: Vec::new(),
                rec_size: 64,
                image: random_image,
            },
        ]
    }

    /// Encodes `n_pages` pages of the shape's image stream, each holding
    /// as many records as fit up to `cap`, with the record images.
    fn encode_pages(
        shape: &Shape,
        rng: &mut Rng,
        n_pages: usize,
        cap: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut enc = PageEncoder::new(shape.cols.clone(), shape.groups.clone());
        let mut img = vec![0u8; shape.rec_size];
        let mut images = Vec::new();
        let mut pages = Vec::new();
        let mut i = 0;
        while pages.len() < n_pages {
            (shape.image)(rng, i, &mut img);
            i += 1;
            if enc.count() == cap || !enc.try_push(&img, 0) {
                let mut page = vec![0u8; PAGE_SIZE];
                enc.flush_into(&mut page);
                pages.push((page, std::mem::take(&mut images)));
                assert!(enc.try_push(&img, 0), "first record of a page fits");
            }
            images.extend_from_slice(&img);
        }
        pages
    }

    /// Decodes `page` with both decoders into copies of `scratch` and
    /// asserts they agree: the same images on `Ok`, the same error on
    /// `Err`. Returns the production decoder's result.
    fn decode_both(shape: &Shape, page: &[u8], scratch: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let (mut a, mut b) = (scratch.to_vec(), scratch.to_vec());
        let got = decode_page(&shape.cols, &shape.groups, shape.rec_size, page, &mut a);
        let want = reference::decode_page(&shape.cols, &shape.groups, shape.rec_size, page, &mut b);
        assert_eq!(got, want, "decoders disagree on page {page:02x?}");
        got.map(|n| a[..n * shape.rec_size].to_vec())
            .inspect(|images| assert_eq!(images[..], b[..images.len()]))
    }

    /// The differential sweep: `clean` encoded pages of at most `cap`
    /// records per shape must round-trip, and every single-byte flip
    /// (under `masks` random non-zero masks) and every truncation of the
    /// first `mutated` of them must decode alike in both decoders.
    /// Returns the number of pages decoded.
    fn differential_sweep(
        seed: u64,
        cap: usize,
        clean: usize,
        mutated: usize,
        masks: usize,
    ) -> usize {
        let mut rng = Rng(seed);
        let mut decoded = 0;
        for shape in shapes() {
            let pages = encode_pages(&shape, &mut rng, clean, cap);
            for (pi, (page, images)) in pages.iter().enumerate() {
                let scratch = vec![0x5Au8; images.len() + 4 * shape.rec_size];
                assert_eq!(decode_both(&shape, page, &scratch).as_ref(), Ok(images));
                decoded += 1;
                if pi >= mutated {
                    continue;
                }
                let payload = codec::try_get_u16(page, 4).expect("test value") as usize;
                let used = HEADER_LEN + payload;
                for at in 0..used {
                    for _ in 0..masks {
                        let mut p = page.clone();
                        p[at] ^= 1 + rng.below(255) as u8;
                        let _ = decode_both(&shape, &p, &scratch);
                        decoded += 1;
                    }
                }
                for len in 0..used {
                    let _ = decode_both(&shape, &page[..len], &scratch);
                    let mut p = page.clone();
                    let _ = codec::put_u16(&mut p, 4, len as u16);
                    let _ = decode_both(&shape, &p, &scratch);
                    decoded += 2;
                }
            }
        }
        decoded
    }

    #[test]
    fn word_decoder_matches_reference_on_mutated_pages() {
        // Full pages round-trip; short pages keep the mutations cheap.
        let full = differential_sweep(0xC0DE_0001, usize::MAX, 8, 0, 0);
        let decoded = full + differential_sweep(0xC0DE_0002, 24, 8, 3, 1);
        assert!(decoded >= 20_000, "{decoded} pages");
    }

    #[test]
    #[ignore = "a million mutated pages; CI runs it in release"]
    fn word_decoder_matches_reference_on_a_million_mutated_pages() {
        let mut decoded = 0;
        let mut seed = 0xC0DE_1000;
        while decoded < 1_000_000 {
            decoded += differential_sweep(seed, usize::MAX, 16, 4, 4);
            seed += 1;
        }
    }

    /// A column layout of the encoder differential tests: columns,
    /// rotation groups and record size.
    type Layout = (Vec<ColSpec>, Vec<Vec<usize>>, usize);

    fn encoder_layouts() -> Vec<Layout> {
        let (tin_cols, tin_groups) = cols_tin();
        let xor8 = |offset| ColSpec {
            offset,
            kind: ColKind::Xor8,
        };
        let delta4 = |offset| ColSpec {
            offset,
            kind: ColKind::Delta4,
        };
        vec![
            // `Xor8` only: the grid cell, and the widest legal record.
            (generic_columns(64), Vec::new(), 64),
            (generic_columns(128), Vec::new(), 128),
            // A trailing `Delta4`, and `Delta4`s ahead of `Xor8`s.
            (generic_columns(68), Vec::new(), 68),
            (generic_columns(12), Vec::new(), 12),
            (
                vec![delta4(0), delta4(4), xor8(8), xor8(16)],
                Vec::new(),
                24,
            ),
            // TIN-shaped rotation groups: three units of three.
            (tin_cols, tin_groups, 72),
            // Four units (the 2-bit tag's most), and units that mix a
            // `Delta4` with an `Xor8`.
            (
                generic_columns(64),
                vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]],
                64,
            ),
            (
                vec![delta4(0), xor8(4), delta4(12), xor8(16), xor8(24)],
                vec![vec![0, 1], vec![2, 3]],
                32,
            ),
        ]
    }

    /// Words that stress the encoder's arms: ±0.0, NaN payloads, all
    /// bits clear or set, and words that differ in one end byte only.
    const SPECIAL_WORDS: [u64; 10] = [
        0,
        0x8000_0000_0000_0000,
        0x7FF8_0000_0000_0000,
        0x7FF0_0000_0000_0001,
        0xFFF8_0000_0000_0BAD,
        u64::MAX,
        1,
        0x0100_0000_0000_0000,
        0x3FF0_0000_0000_0000,
        0xBFF0_0000_0000_0000,
    ];

    /// Draws a record image after `prev`, the previous record's, so
    /// that every encoder arm fires: references to any column of the
    /// previous record, words repeated across columns of one record,
    /// trimmed XORs of every width (full 8-byte ones included), small
    /// `Delta4` steps and wraps, special words and all-equal records.
    fn draw_image(rng: &mut Rng, cols: &[ColSpec], prev: &[u8], img: &mut [u8]) {
        let word_of = |image: &[u8], c: &ColSpec| match c.kind {
            ColKind::Delta4 => u64::from(codec::get_u32(image, c.offset)),
            ColKind::Xor8 => codec::get_u64(image, c.offset),
        };
        let all_equal = rng.below(16) == 0;
        let shared = rng.next();
        for ci in 0..cols.len() {
            let c = cols[ci];
            let same = word_of(prev, &c);
            let w = if all_equal {
                shared
            } else {
                match rng.below(8) {
                    0 => SPECIAL_WORDS[rng.below(SPECIAL_WORDS.len() as u64) as usize],
                    1 => word_of(prev, &cols[rng.below(cols.len() as u64) as usize]),
                    2 => same,
                    3 => {
                        // Flip a run of `1..=8` bytes at a random shift.
                        let width = 1 + rng.below(8);
                        let shift = rng.below(9 - width) * 8;
                        let run = if width == 8 {
                            u64::MAX
                        } else {
                            (1u64 << (width * 8)) - 1
                        };
                        same ^ ((rng.next() | 1) & run) << shift
                    }
                    4 => rng.next(),
                    5 if ci > 0 => word_of(img, &cols[rng.below(ci as u64) as usize]),
                    6 => same.wrapping_add(rng.below(300)).wrapping_sub(150),
                    _ => shared,
                }
            };
            let _ = match c.kind {
                ColKind::Delta4 => codec::put_u32(img, c.offset, w as u32),
                ColKind::Xor8 => codec::put_u64(img, c.offset, w),
            };
        }
    }

    /// Draws `n` records of `layout` and pushes them, each with the
    /// reserve `reserve(rng)` picks, through the one-pass encoder and
    /// the two-pass reference in lockstep: every accept/reject decision,
    /// count and flushed page must be identical. Where both reject, both
    /// flush and take the record on a fresh page.
    fn encoders_agree(
        layout: &Layout,
        rng: &mut Rng,
        n: usize,
        mut reserve: impl FnMut(&mut Rng) -> usize,
    ) {
        let (cols, groups, rec_size) = layout;
        let mut enc = PageEncoder::new(cols.clone(), groups.clone());
        let mut want = reference::PageEncoder::new(cols.clone(), groups.clone());
        // Different stale bytes in the two pages: the flushes must
        // overwrite all of them alike.
        let (mut got_page, mut want_page) = (vec![0x5Au8; PAGE_SIZE], vec![0xA5u8; PAGE_SIZE]);
        let mut flush = |enc: &mut PageEncoder, want: &mut reference::PageEncoder| {
            assert_eq!(
                enc.flush_into(&mut got_page),
                want.flush_into(&mut want_page)
            );
            assert!(got_page == want_page, "pages differ: {layout:?}");
        };
        let (mut prev, mut img) = (vec![0u8; *rec_size], vec![0u8; *rec_size]);
        for i in 0..n {
            draw_image(rng, cols, &prev, &mut img);
            let reserve = reserve(rng);
            let fits = enc.try_push(&img, reserve);
            assert_eq!(
                fits,
                want.try_push(&img, reserve),
                "record {i}, reserve {reserve}: {layout:?}"
            );
            if !fits {
                flush(&mut enc, &mut want);
                assert!(enc.try_push(&img, reserve) && want.try_push(&img, reserve));
            }
            assert_eq!(enc.count(), want.count());
            std::mem::swap(&mut prev, &mut img);
        }
        if enc.count() > 0 {
            flush(&mut enc, &mut want);
        }
    }

    /// The reserve `Directory::create` holds back for a layout.
    fn build_reserve(layout: &Layout) -> usize {
        2 * (worst_record_bytes(&layout.0) + usize::from(!layout.1.is_empty()))
    }

    #[test]
    fn one_pass_encoder_matches_two_pass_reference() {
        let mut rng = Rng(0xE1C0_0001);
        for layout in encoder_layouts() {
            // Every fixed reserve from 0 to the build's, over streams
            // long enough to fill several pages at the tightest fit.
            for reserve in 0..=build_reserve(&layout) {
                encoders_agree(&layout, &mut rng, 200, |_| reserve);
            }
            // Reserves that leave room for a handful of records, or for
            // the first record only.
            for reserve in [PAGE_SIZE / 2, PAGE_SIZE - HEADER_LEN - 300, PAGE_SIZE] {
                encoders_agree(&layout, &mut rng, 100, |_| reserve);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn one_pass_encoder_matches_reference_on_random_streams(
            seed in proptest::prelude::any::<u64>(),
            layout in 0..8usize,
            n in 1..1_500usize,
            max_reserve in 0..=PAGE_SIZE,
        ) {
            let layouts = encoder_layouts();
            let layout = &layouts[layout % layouts.len()];
            let mut rng = Rng(seed);
            encoders_agree(layout, &mut rng, n, |rng| {
                rng.below(max_reserve as u64 + 1) as usize
            });
        }
    }

    #[test]
    #[ignore = "a million pushes; CI runs it in release"]
    fn one_pass_encoder_matches_reference_on_a_million_records() {
        let layouts = encoder_layouts();
        let mut rng = Rng(0xE1C0_1000);
        // 500 streams of 2 000 records.
        for _ in 0..500 {
            let layout = &layouts[rng.below(layouts.len() as u64) as usize];
            let max_reserve = match rng.below(3) {
                0 => 0,
                1 => build_reserve(layout),
                _ => PAGE_SIZE,
            };
            encoders_agree(layout, &mut rng, 2_000, |rng| {
                rng.below(max_reserve as u64 + 1) as usize
            });
        }
    }

    /// One hand-built page: header then `payload`, zero tail.
    fn hand_page(count: u16, payload: &[u8]) -> Vec<u8> {
        let mut page = vec![0u8; HEADER_LEN + payload.len() + 16];
        let _ = codec::put_u16(&mut page, 0, PAGE_MAGIC);
        let _ = codec::put_u16(&mut page, 2, count);
        let _ = codec::put_u16(&mut page, 4, payload.len() as u16);
        page[HEADER_LEN..HEADER_LEN + payload.len()].copy_from_slice(payload);
        page
    }

    #[test]
    fn word_decoder_matches_reference_on_hand_cases() {
        let one = Shape {
            cols: generic_columns(8),
            groups: Vec::new(),
            rec_size: 8,
            image: random_image,
        };
        let first = 0x1122_3344_5566_7788u64.to_le_bytes();
        let scratch = vec![0u8; 128];
        let words = |out: Result<Vec<u8>, DecodeError>| {
            out.map(|b| {
                b.chunks_exact(8)
                    .map(|w| codec::get_u64(w, 0))
                    .collect::<Vec<_>>()
            })
        };
        let run = |controls: &[&[u8]]| {
            let mut payload = first.to_vec();
            for c in controls {
                payload.extend_from_slice(c);
            }
            let page = hand_page(1 + controls.len() as u16, &payload);
            words(decode_both(&one, &page, &scratch))
        };
        let f = u64::from_le_bytes(first);
        // A control byte in the payload's last 8 bytes: the bounded copy.
        assert_eq!(run(&[&[0x03, 1, 2, 3]]), Ok(vec![f, f ^ 0x03_0201]));
        // `sig = 8`, ahead of more records and as the last record.
        let all = [0x08, 1, 2, 3, 4, 5, 6, 7, 8];
        let x = u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(run(&[&all, &all]), Ok(vec![f, f ^ x, f]));
        assert_eq!(run(&[&all]), Ok(vec![f, f ^ x]));
        // `trail = 7, sig = 1`: the top byte alone.
        assert_eq!(run(&[&[0x71, 0xAB]]), Ok(vec![f, f ^ (0xAB << 56)]));
        let long = [0x71, 0xAB, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
        assert_eq!(
            run(&[&long[..2], &long[2..3], &long[3..]]),
            Err(DecodeError::PayloadLenMismatch {
                declared: 18,
                consumed: 12
            })
        );
        // `trail + sig = 9` is impossible, in the fast and bounded paths.
        let bad = [0x72, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(run(&[&bad]), Err(DecodeError::BadControlByte(0x72)));
        assert_eq!(run(&[&bad[..3]]), Err(DecodeError::BadControlByte(0x72)));
        assert_eq!(run(&[&[0x18, 0]]), Err(DecodeError::BadControlByte(0x18)));
        // Truncated significant bytes at the payload's end.
        assert_eq!(run(&[&[0x04, 1, 2]]), Err(DecodeError::TruncatedPayload));
        // Reference `j == ci` repeats the word; `j > ci` is forward.
        assert_eq!(run(&[&[0x00], &[0x00]]), Ok(vec![f, f, f]));
        assert_eq!(run(&[&[0x10]]), Err(DecodeError::BadControlByte(0x10)));
        // Eight identical references (the old batch path) and an
        // illegal one among them.
        let refs: Vec<&[u8]> = vec![&[0x00]; 9];
        assert_eq!(run(&refs), Ok(vec![f; 10]));
        let mut refs: Vec<&[u8]> = vec![&[0x20]; 8];
        refs.insert(0, &[0x00]);
        assert_eq!(run(&refs), Err(DecodeError::BadControlByte(0x20)));

        // `j` naming a `Delta4` column, and naming an earlier `Xor8`.
        let mixed = Shape {
            cols: vec![
                ColSpec {
                    offset: 0,
                    kind: ColKind::Delta4,
                },
                ColSpec {
                    offset: 4,
                    kind: ColKind::Xor8,
                },
                ColSpec {
                    offset: 12,
                    kind: ColKind::Xor8,
                },
            ],
            groups: Vec::new(),
            rec_size: 20,
            image: random_image,
        };
        let mut payload = vec![3, 0, 0, 0, 2];
        payload.extend_from_slice(&first);
        payload.push(0x01);
        payload.push(0xFF);
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.push(0x10);
        let page = hand_page(2, &payload);
        let got = decode_both(&mixed, &page, &scratch).expect("test value");
        assert_eq!(codec::get_u32(&got, 20), 4);
        assert_eq!(codec::get_u64(&got, 24), f ^ 0xFF);
        assert_eq!(codec::get_u64(&got, 32), f, "column 1 of record 0");
        let last = payload.len() - 1;
        payload[last] = 0x00;
        let page = hand_page(2, &payload);
        assert_eq!(
            decode_both(&mixed, &page, &scratch),
            Err(DecodeError::BadControlByte(0x00))
        );
        // Column 1 citing column 2, which has not decoded yet.
        payload[last] = 0x10;
        payload[13] = 0x20;
        let page = hand_page(2, &payload);
        assert_eq!(
            decode_both(&mixed, &page, &scratch),
            Err(DecodeError::BadControlByte(0x20))
        );

        // More than 16 declared columns: references name the first 16
        // only, and decoding stays total.
        let wide = Shape {
            cols: generic_columns(8 * 20),
            groups: Vec::new(),
            rec_size: 8 * 20,
            image: random_image,
        };
        let mut payload = Vec::new();
        for c in 0..20u64 {
            payload.extend_from_slice(&c.to_le_bytes());
            payload.push(if c < 16 { (c as u8) << 4 } else { 0xF0 });
        }
        let page = hand_page(2, &payload);
        let scratch = vec![0u8; 2 * 8 * 20];
        let got = decode_both(&wide, &page, &scratch).expect("test value");
        let second: Vec<u64> = (0..20).map(|c| codec::get_u64(&got, 160 + c * 8)).collect();
        let want: Vec<u64> = (0..20u64).map(|c| c.min(15)).collect();
        assert_eq!(second, want);
    }
}
