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
//! A physical read or write pays one pass of the slice-by-16 kernel
//! ([`crc32`]) over all 4 096 bytes; the same function seals the
//! freelist superblock slots and the catalog slots.
//!
//! This file decodes on-disk bytes and is covered by the CI grep gate:
//! a bad entry surfaces as [`CfError::Corrupt`], never a panic.

use crate::disk::{PageBuf, PageId};
use crate::error::{CfError, CfResult};

/// Magic tag stored in the high half of a sidecar entry ("CFPG").
const ENTRY_MAGIC: u32 = 0x4346_5047;

/// Size in bytes of one sidecar entry.
pub const ENTRY_SIZE: usize = 8;

/// Input bytes folded per iteration of the [`crc32`] kernel.
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

/// Advances the (pre-inverted) CRC state one byte at a time: the whole
/// algorithm in its textbook form. [`crc32`] uses it for the tail
/// shorter than one stride; the tests use it as the reference the
/// slice-by-16 kernel must equal.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `bytes`.
///
/// Slice-by-16: the running state is xored into the first four bytes
/// of each 16-byte block, then byte `j` of the block is looked up in
/// table `15 - j` (it has `15 - j` bytes still to pass through the
/// shift register) and the sixteen independent lookups are xored
/// together — one load-dependent step per 16 bytes instead of one per
/// byte. The values are those of the byte-at-a-time loop, bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(STRIDE);
    for block in &mut blocks {
        let (head, rest) = block.split_at(4);
        let head = (u32::from_le_bytes([head[0], head[1], head[2], head[3]]) ^ crc).to_le_bytes();
        crc = head
            .iter()
            .chain(rest)
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[b as usize]);
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

/// Verifies a page image against its sidecar `entry`, reporting
/// mismatches as [`CfError::Corrupt`] carrying the page id.
pub fn verify_page(page: &PageBuf, entry: u64, id: PageId) -> CfResult<()> {
    let magic = (entry >> 32) as u32;
    if magic != ENTRY_MAGIC {
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

    proptest! {
        #[test]
        fn kernel_equals_bytewise_reference_on_random_slices(
            bytes in prop::collection::vec(any::<u8>(), 0..=2 * PAGE_SIZE),
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
}
