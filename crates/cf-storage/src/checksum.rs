//! Per-page checksums.
//!
//! Every page written through [`crate::DiskManager`] gets an 8-byte
//! sidecar entry: a 32-bit magic tag plus the CRC-32 (IEEE polynomial)
//! of the 4 KiB page image. The entry lives *beside* the page — in a
//! parallel vector for the in-memory backing, in a `<path>.crc` sidecar
//! file for the file backing — rather than in a page trailer, so the
//! full [`crate::PAGE_SIZE`] payload stays available to records and
//! tree nodes and the paper's page-capacity constants (256 records or
//! 170 R-tree entries per 4 KiB page) are unchanged.
//!
//! Verification happens on **physical reads only**: buffer-pool hits
//! serve already-verified frames, so the hot query path pays nothing.
//! A physical read or write pays one pass of the [`crc32`] kernel over
//! all 4 096 bytes: four interleaved 1 KiB streams of slice-by-16
//! steps, folded into one CRC by a zero-advance table. The same
//! function seals the catalog slots.
//!
//! The tag also records whether the page is free. A freed page's entry
//! keeps its CRC and carries the free tag instead of "CFPG", so the
//! sidecar is the disk's freelist too. Both tags verify the same way.
//!
//! This file decodes on-disk bytes and denies clippy's `unwrap_used`
//! and `panic`: a bad entry surfaces as [`CfError::Corrupt`].
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::disk::{PageBuf, PageId};
use crate::error::{CfError, CfResult};

/// Magic tag stored in the high half of a sidecar entry ("CFPG").
const ENTRY_MAGIC: u32 = 0x4346_5047;

/// Magic tag of a freed page's entry. It differs from [`ENTRY_MAGIC`]
/// in its lowest byte alone, which is byte 4 of the little-endian
/// entry. Retagging keeps the CRC, so a write of a run's entries torn
/// at any byte leaves each entry wholly old or wholly new. That byte is
/// the live one's complement (`!0x47`): a flipped bit in either tag
/// matches neither and reads as corrupt, never as the other tag.
const FREE_MAGIC: u32 = 0x4346_50B8;

/// Size in bytes of one sidecar entry.
pub const ENTRY_SIZE: usize = 8;

/// Input bytes folded per slice-by-16 step ([`update_block`]).
const STRIDE: usize = 16;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) slice-by-16
/// lookup tables, built at compile time. `CRC_TABLES[0]` is the classic
/// one-byte table; `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, i.e. table `k - 1` advanced one byte
/// through table 0.
const CRC_TABLES: [[u32; 256]; STRIDE] = {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Bytes per stream of one [`crc32`] chunk.
const SEGMENT: usize = 1024;

/// Bytes per [`crc32`] chunk: four streams of [`SEGMENT`] bytes each.
const CHUNK: usize = 4 * SEGMENT;

/// "Advance the CRC state over [`SEGMENT`] zero bytes", as a table
/// built at compile time: `ZERO_SEGMENT[k][b]` is the state `b << 8k`
/// advanced that far. Advancing is linear over GF(2), so the four
/// lookups of a state's bytes xor to the advanced state
/// ([`skip_segment`]). Built from the 32 advanced one-bit states.
const ZERO_SEGMENT: [[u32; 256]; 4] = {
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut n = 0;
        while n < SEGMENT {
            crc = (crc >> 8) ^ CRC_TABLES[0][(crc & 0xFF) as usize];
            n += 1;
        }
        basis[bit] = crc;
        bit += 1;
    }
    let mut table = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut i = 0;
            while i < 8 {
                if b & (1 << i) != 0 {
                    table[k][b] ^= basis[8 * k + i];
                }
                i += 1;
            }
            b += 1;
        }
        k += 1;
    }
    table
};

/// Advances the (pre-inverted) CRC state one byte at a time: the whole
/// algorithm in its textbook form. [`crc32`] uses it for the tail
/// shorter than one stride; the tests use it as the reference the
/// kernel must equal.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// One slice-by-16 step: the state is xored into the first four bytes
/// of the 16-byte `block`, then byte `j` is looked up in table
/// `15 - j` (it has `15 - j` bytes still to pass through the shift
/// register) and the sixteen independent lookups are xored together.
#[inline(always)]
fn update_block(crc: u32, block: &[u8]) -> u32 {
    let (head, rest) = block.split_at(4);
    let head = (u32::from_le_bytes([head[0], head[1], head[2], head[3]]) ^ crc).to_le_bytes();
    head.iter()
        .chain(rest)
        .zip(CRC_TABLES.iter().rev())
        .fold(0, |acc, (&b, table)| acc ^ table[b as usize])
}

/// The state `crc` advanced over [`SEGMENT`] zero bytes.
#[inline(always)]
fn skip_segment(crc: u32) -> u32 {
    crc.to_le_bytes()
        .iter()
        .zip(&ZERO_SEGMENT)
        .fold(0, |acc, (&b, table)| acc ^ table[b as usize])
}

/// CRC-32 of `bytes`.
///
/// Each 4 KiB chunk is four 1 KiB streams advanced together, one
/// slice-by-16 step each per round: four independent dependency chains
/// the CPU overlaps, where a single chain waits on its own previous
/// state every 16 bytes. Stream 0 starts from the running state and
/// streams 1–3 from 0; the CRC register is linear in state and data,
/// so the chunk's state is `((c0·Z ⊕ c1)·Z ⊕ c2)·Z ⊕ c3`, `Z` being
/// `skip_segment`. Bytes past the last whole chunk take single-chain
/// slice-by-16 steps, then the byte-at-a-time tail. The values are
/// those of the byte-at-a-time loop, bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(CHUNK);
    for chunk in &mut chunks {
        let (s0, rest) = chunk.split_at(SEGMENT);
        let (s1, rest) = rest.split_at(SEGMENT);
        let (s2, s3) = rest.split_at(SEGMENT);
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        let rounds = s0
            .chunks_exact(STRIDE)
            .zip(s1.chunks_exact(STRIDE))
            .zip(s2.chunks_exact(STRIDE))
            .zip(s3.chunks_exact(STRIDE));
        for (((b0, b1), b2), b3) in rounds {
            c0 = update_block(c0, b0);
            c1 = update_block(c1, b1);
            c2 = update_block(c2, b2);
            c3 = update_block(c3, b3);
        }
        crc = skip_segment(skip_segment(skip_segment(c0) ^ c1) ^ c2) ^ c3;
    }
    let mut blocks = chunks.remainder().chunks_exact(STRIDE);
    for block in &mut blocks {
        crc = update_block(crc, block);
    }
    !update_bytewise(crc, blocks.remainder())
}

/// The sidecar entry for a page image: `magic << 32 | crc32(page)`.
pub fn page_entry(page: &PageBuf) -> u64 {
    ((ENTRY_MAGIC as u64) << 32) | crc32(page) as u64
}

/// The entry of an all-zero page (freshly allocated, never written).
pub fn zero_page_entry() -> u64 {
    // CRC of 4096 zero bytes; computed once.
    static ZERO: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *ZERO.get_or_init(|| page_entry(&[0u8; crate::PAGE_SIZE]))
}

/// `entry` retagged as a freed page's: the same CRC, the free tag.
pub(crate) fn free_entry(entry: u64) -> u64 {
    ((FREE_MAGIC as u64) << 32) | (entry & 0xFFFF_FFFF)
}

/// Whether `entry` is a freed page's.
pub(crate) fn is_free(entry: u64) -> bool {
    (entry >> 32) as u32 == FREE_MAGIC
}

/// Verifies a page image against its sidecar `entry`, reporting
/// mismatches as [`CfError::Corrupt`] carrying the page id. A freed
/// page's entry verifies like a live one's.
pub fn verify_page(page: &PageBuf, entry: u64, id: PageId) -> CfResult<()> {
    let magic = (entry >> 32) as u32;
    if magic != ENTRY_MAGIC && magic != FREE_MAGIC {
        return Err(CfError::corrupt(
            id,
            format!("missing or invalid checksum entry (magic {magic:#010x}, expected {ENTRY_MAGIC:#010x})"),
        ));
    }
    let stored = entry as u32;
    let computed = crc32(page);
    if stored != computed {
        return Err(CfError::corrupt(
            id,
            format!("page checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        ));
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The byte-at-a-time algorithm the kernel replaced.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        !update_bytewise(0xFFFF_FFFF, bytes)
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
        // The sidecar entry of a fresh page, i.e. the `.crc` format.
        assert_eq!(crc32(&[0; PAGE_SIZE]), 0xC71C_0011);
        assert_eq!(zero_page_entry(), 0x4346_5047_C71C_0011);
    }

    #[test]
    fn kernel_equals_bytewise_reference_at_every_alignment() {
        // Every head/tail split of a 16-byte stride: lengths through
        // five strides at each start offset within one.
        let bytes = seeded_bytes(0xC0C, 2 * STRIDE + 80);
        for start in 0..STRIDE {
            for len in 0..=80 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_reference(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn kernel_equals_bytewise_reference_around_chunk_boundaries() {
        // One, two and three chunks, each a byte short, exact and a
        // byte over, at every start offset within one stride: the
        // interleaved chunks, the stride steps and the byte tail in
        // every combination.
        assert_eq!(CHUNK, PAGE_SIZE);
        let bytes = seeded_bytes(0xB0B, 3 * CHUNK + 2 * STRIDE);
        for chunks in 1..=3 {
            for len in [chunks * CHUNK - 1, chunks * CHUNK, chunks * CHUNK + 1] {
                for start in 0..STRIDE {
                    let slice = &bytes[start..start + len];
                    assert_eq!(
                        crc32(slice),
                        crc32_reference(slice),
                        "start {start}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn each_stream_folds_in_its_own_place() {
        // A chunk whose only non-zero bytes lie in one stream's
        // segment: a stream folded in the wrong place, or a segment
        // skipped by the wrong distance, changes the value. Followed by
        // a second chunk, so the folded state also carries on.
        for stream in 0..CHUNK / SEGMENT {
            let mut bytes = vec![0u8; 2 * CHUNK];
            bytes[stream * SEGMENT..(stream + 1) * SEGMENT]
                .copy_from_slice(&seeded_bytes(stream as u64, SEGMENT));
            for len in [CHUNK, 2 * CHUNK] {
                assert_eq!(
                    crc32(&bytes[..len]),
                    crc32_reference(&bytes[..len]),
                    "stream {stream}, len {len}"
                );
            }
        }
    }

    #[test]
    fn all_ones_page_equals_bytewise_reference() {
        let page = [0xFFu8; PAGE_SIZE];
        assert_eq!(crc32(&page), crc32_reference(&page));
    }

    #[test]
    fn zero_segment_table_skips_segment_zero_bytes() {
        // `skip_segment` against the byte loop over SEGMENT zero bytes,
        // for every one-bit state and a few dense ones.
        let zeros = [0u8; SEGMENT];
        let states = (0..32)
            .map(|bit| 1u32 << bit)
            .chain([0, 0xFFFF_FFFF, 0xDEAD_BEEF]);
        for state in states {
            assert_eq!(
                skip_segment(state),
                update_bytewise(state, &zeros),
                "state {state:#010x}"
            );
        }
    }

    /// Deep sweep (release; CI runs it with `--ignored`): a million
    /// seeded slices up to three chunks long at random offsets.
    #[test]
    #[ignore]
    fn kernel_equals_bytewise_reference_on_a_million_random_slices() {
        let mut rng = StdRng::seed_from_u64(0xC2C_5EED);
        let buffer_len = 3 * CHUNK + STRIDE;
        let mut bytes = seeded_bytes(0, buffer_len);
        for case in 0..1_000_000u32 {
            if case % 1024 == 0 {
                bytes = seeded_bytes(u64::from(case) + 1, buffer_len);
            }
            let start = rng.gen_range(0..STRIDE);
            let len = rng.gen_range(0..=3 * CHUNK);
            let slice = &bytes[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_reference(slice),
                "case {case}: start {start}, len {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn kernel_equals_bytewise_reference_on_random_slices(
            bytes in prop::collection::vec(any::<u8>(), 0..=3 * PAGE_SIZE),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
        }
    }

    #[test]
    fn any_single_flipped_bit_is_corrupt_with_page_context() {
        // No lane of the stride is skipped: every byte offset of the
        // page, cycling through the eight bit positions.
        let mut page = [0u8; PAGE_SIZE];
        page.copy_from_slice(&seeded_bytes(0xF11, PAGE_SIZE));
        let entry = page_entry(&page);
        let id = PageId(41);
        for offset in 0..PAGE_SIZE {
            let bit = 1u8 << (offset % 8);
            page[offset] ^= bit;
            let err = verify_page(&page, entry, id).expect_err("flipped bit must be detected");
            assert!(err.is_corrupt(), "offset {offset}: {err}");
            assert_eq!(err.page(), Some(id), "offset {offset}");
            page[offset] ^= bit;
        }
        assert!(verify_page(&page, entry, id).is_ok());
    }

    #[test]
    fn verify_accepts_matching_entry() {
        let mut page = [0u8; PAGE_SIZE];
        page[17] = 0xAB;
        let entry = page_entry(&page);
        assert!(verify_page(&page, entry, PageId(3)).is_ok());
    }

    #[test]
    fn verify_rejects_flipped_bit_with_page_context() {
        let mut page = [0u8; PAGE_SIZE];
        page[17] = 0xAB;
        let entry = page_entry(&page);
        page[17] ^= 0x01;
        let err = verify_page(&page, entry, PageId(9)).expect_err("must detect corruption");
        assert!(err.is_corrupt());
        assert_eq!(err.page(), Some(PageId(9)));
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn verify_rejects_missing_entry() {
        let page = [0u8; PAGE_SIZE];
        let err = verify_page(&page, 0, PageId(1)).expect_err("zero entry has no magic");
        assert!(err.to_string().contains("missing or invalid"), "{err}");
    }

    #[test]
    fn zero_page_entry_matches_fresh_page() {
        let page = [0u8; PAGE_SIZE];
        assert_eq!(zero_page_entry(), page_entry(&page));
        assert!(verify_page(&page, zero_page_entry(), PageId(0)).is_ok());
    }

    #[test]
    fn free_tag_keeps_the_crc_and_differs_in_one_byte() {
        let mut page = [0u8; PAGE_SIZE];
        page[5] = 0x42;
        let entry = page_entry(&page);
        let freed = free_entry(entry);
        assert!(is_free(freed) && !is_free(entry));
        assert_eq!(freed as u32, entry as u32, "same CRC");
        assert_eq!(free_entry(freed), freed);
        assert!(verify_page(&page, freed, PageId(2)).is_ok());
        page[5] ^= 1;
        let err = verify_page(&page, freed, PageId(2)).expect_err("free tag still checks the CRC");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // A torn write of the entry lands byte 4 or not: every prefix
        // of the new bytes over the old is the old or the new entry.
        let (old, new) = (entry.to_le_bytes(), freed.to_le_bytes());
        let differ: Vec<usize> = (0..8).filter(|&i| old[i] != new[i]).collect();
        assert_eq!(differ, vec![4]);
    }

    #[test]
    fn a_flipped_tag_bit_is_neither_live_nor_free() {
        let mut page = [0u8; PAGE_SIZE];
        page[9] = 0x5A;
        let live = page_entry(&page);
        for entry in [live, free_entry(live)] {
            for bit in 32..64 {
                let flipped = entry ^ (1u64 << bit);
                assert!(
                    !is_free(flipped) && flipped >> 32 != live >> 32,
                    "bit {bit} of {entry:#018x}"
                );
                let err = verify_page(&page, flipped, PageId(4))
                    .expect_err("a flipped tag bit must not verify");
                assert!(err.to_string().contains("missing or invalid"), "{err}");
            }
        }
    }
}
