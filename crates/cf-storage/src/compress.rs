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
//! Decoding validates structure exhaustively — magic, count bounds,
//! payload length, control-byte sanity, and exact payload consumption —
//! and reports any violation as a `DecodeError`, which callers map to
//! [`crate::CfError::Corrupt`] with the page id attached. This file is
//! covered by the CI no-unwrap grep gate: on-disk bytes must never
//! panic.

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

/// Appends `v` as a LEB128 varint.
#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
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

/// Encoded length of `v` as a LEB128 varint (1–5 bytes).
#[inline]
fn varint_len(v: u32) -> usize {
    ((32 - (v | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Appends the XOR-trimmed encoding of `cur` against `prev`.
///
/// Exact matches are the encoder's job to catch first (they encode as
/// references); a zero XOR never reaches this function.
#[inline]
fn push_xor(out: &mut Vec<u8>, prev: u64, cur: u64) {
    let x = prev ^ cur;
    debug_assert_ne!(x, 0, "exact matches encode as references");
    let trail = (x.trailing_zeros() / 8) as usize;
    let lead = (x.leading_zeros() / 8) as usize;
    let sig = 8 - trail - lead;
    out.push(((trail as u8) << 4) | sig as u8);
    out.extend_from_slice(&x.to_le_bytes()[trail..trail + sig]);
}

// ---------------------------------------------------------------------
// Page encoder
// ---------------------------------------------------------------------

/// Incremental encoder for one compressed page: records are appended
/// until the page (plus a caller-chosen reserve) is full, then flushed.
///
/// The builder keeps one byte buffer and one `prev` word per column; a
/// rejected push leaves both untouched, so the caller can flush and
/// retry the same record on a fresh page.
#[derive(Debug)]
pub struct PageEncoder {
    cols: Vec<ColSpec>,
    groups: Vec<Vec<usize>>,
    /// Per rotation `r`, `src[r][ci]` is the original column whose word
    /// the stored (permuted) column `ci` carries.
    src: Vec<Vec<usize>>,
    bufs: Vec<Vec<u8>>,
    prev: Vec<u64>,
    tags: Vec<u8>,
    count: usize,
}

impl PageEncoder {
    /// Creates an encoder for records with the given column layout and
    /// cyclic rotation groups (empty for fixed-layout records — see
    /// [`crate::Record::column_rotation_groups`]).
    pub fn new(cols: Vec<ColSpec>, groups: Vec<Vec<usize>>) -> Self {
        let n = cols.len();
        assert!(!cols.is_empty(), "record must have at least one column");
        assert!(
            n <= 16,
            "reference controls index columns with one nibble (got {n} columns)"
        );
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

    /// Records currently buffered.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Header + payload bytes the page would currently occupy.
    fn encoded_len(&self) -> usize {
        HEADER_LEN + self.tags.len() + self.bufs.iter().map(Vec::len).sum::<usize>()
    }

    /// Reads the column word of `image` for column `ci`.
    #[inline]
    fn word(&self, ci: usize, image: &[u8]) -> u64 {
        let c = self.cols[ci];
        match c.kind {
            ColKind::Delta4 => u64::from(codec::get_u32(image, c.offset)),
            ColKind::Xor8 => codec::get_u64(image, c.offset),
        }
    }

    /// Encoded bytes the record image would add under rotation `r`,
    /// mirroring the `try_push` encode arms exactly.
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
                        if (0..=ci)
                            .any(|j| self.cols[j].kind == ColKind::Xor8 && self.prev[j] == cur)
                        {
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

    /// Appends one record image; returns `false` (leaving the page
    /// unchanged) when it would not fit within `PAGE_SIZE - reserve`.
    /// The first record of a page always fits.
    pub fn try_push(&mut self, image: &[u8], reserve: usize) -> bool {
        // Pick the cheapest unit rotation against the previous record's
        // stored words; ties go to rotation 0, so the untouched layout
        // stays the common case. For records without rotation groups
        // only the identity is considered.
        let (rot, cost) = (0..self.src.len())
            .map(|r| (r, self.push_cost(image, r)))
            .min_by_key(|&(_, c)| c)
            .expect("at least the identity rotation");
        let tag_byte = usize::from(!self.groups.is_empty() && self.count.is_multiple_of(4));
        if self.count > 0 && self.encoded_len() + cost + tag_byte + reserve > PAGE_SIZE {
            return false;
        }
        let len_before = self.encoded_len();
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
                        // An exact match against any already-decodable
                        // Xor8 column of the previous record costs one
                        // byte; lowest column wins so repeated shapes
                        // produce constant control bytes (the decoder's
                        // run fast path).
                        let matched = (0..=ci)
                            .find(|&j| self.cols[j].kind == ColKind::Xor8 && self.prev[j] == cur);
                        match matched {
                            Some(j) => buf.push((j as u8) << 4),
                            None => push_xor(buf, self.prev[ci], cur),
                        }
                    }
                }
            }
        }
        debug_assert_eq!(
            self.encoded_len(),
            len_before + cost,
            "push_cost must mirror the encode arms"
        );
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

    /// Writes the header + payload into `page` and resets the encoder.
    ///
    /// # Panics
    ///
    /// Panics if the encoded page exceeds `page.len()` or no records were
    /// pushed — both caller bugs, not data errors.
    pub fn flush_into(&mut self, page: &mut [u8]) -> usize {
        assert!(self.count > 0, "flush of an empty page");
        let total = self.encoded_len();
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
            // Stored unit `j` carries original unit `(j + r) % n_units`.
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

/// Decodes one `Xor8` column (spec index `ci`) into the record images.
///
/// A control byte with a non-zero low nibble is a trimmed XOR against
/// this column's previous value; a zero low nibble is a reference
/// `(j << 4)` to the previous record's column `j`, which must be an
/// `Xor8` column at or before `ci` (columns decode in spec order, so
/// that word is already materialized in `out`).
///
/// Runs in unrolled 8-record batches with a fast path for runs of
/// identical reference bytes (shared vertices, flat terrain regions),
/// which decode as 8 word copies with no byte assembly.
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
        // Fast path: 8 identical reference bytes — each record copies
        // the referenced word of its predecessor, no byte assembly.
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
                        let word: [u8; 8] = out[from..from + 8].try_into().expect("word slice");
                        let slot = (i + j) * rec_size + offset;
                        out[slot..slot + 8].copy_from_slice(&word);
                    }
                    let last = (i + 7) * rec_size + offset;
                    prev = u64::from_le_bytes(out[last..last + 8].try_into().expect("word slice"));
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

/// Resolves a reference control byte `(j << 4)` for the `Xor8` column at
/// spec index `ci` to the byte offset of the referenced column.
#[inline]
fn ref_offset(cols: &[ColSpec], ci: usize, ctrl: u8) -> Result<usize, DecodeError> {
    let j = (ctrl >> 4) as usize;
    if j > ci || cols[j].kind != ColKind::Xor8 {
        return Err(DecodeError::BadControlByte(ctrl));
    }
    Ok(cols[j].offset)
}

#[cfg(test)]
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
            push_varint(&mut buf, v);
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
        assert!(enc.encoded_len() + 64 <= PAGE_SIZE);
        let len_before = enc.encoded_len();
        // The rejected push left the encoder unchanged.
        assert_eq!(enc.count(), pushed);
        assert_eq!(enc.encoded_len(), len_before);
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
}
