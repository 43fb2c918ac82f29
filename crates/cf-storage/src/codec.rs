//! Little-endian encode/decode helpers for fixed-layout page records.
//!
//! All on-page structures in the workspace (R\*-tree nodes, cell records,
//! file headers) are fixed-layout little-endian; these helpers keep the
//! offset arithmetic in one audited place.
//!
//! The `get_*` readers are bounds-checked and total: a truncated slice
//! yields a zero value instead of a panic, because the caller has already
//! sized the buffer (records decode from `R::SIZE`-byte images cut from a
//! checksum-verified page). Paths that decode *variable-length* on-disk
//! bytes — where a short slice means corruption, not a programmer error —
//! must use the fallible [`try_get_u16`] (the compressed page header's
//! only width) and map `None` to [`crate::CfError::Corrupt`]. This file
//! is covered by the CI no-unwrap grep gate.

/// Writes a `u32` at `offset`, returning the offset just past it.
#[inline(always)]
pub fn put_u32(buf: &mut [u8], offset: usize, v: u32) -> usize {
    buf[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    offset + 4
}

/// Reads a `u32` at `offset`. Returns 0 if the slice is too short.
#[inline(always)]
pub fn get_u32(buf: &[u8], offset: usize) -> u32 {
    if let Some(b) = buf.get(offset..offset + 4) {
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    } else {
        0
    }
}

/// Writes a `u64` at `offset`, returning the offset just past it.
#[inline(always)]
pub fn put_u64(buf: &mut [u8], offset: usize, v: u64) -> usize {
    buf[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    offset + 8
}

/// Reads a `u64` at `offset`. Returns 0 if the slice is too short.
#[inline(always)]
pub fn get_u64(buf: &[u8], offset: usize) -> u64 {
    if let Some(b) = buf.get(offset..offset + 8) {
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    } else {
        0
    }
}

/// Writes an `f64` at `offset`, returning the offset just past it.
#[inline(always)]
pub fn put_f64(buf: &mut [u8], offset: usize, v: f64) -> usize {
    buf[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    offset + 8
}

/// Reads an `f64` at `offset`. Returns 0.0 if the slice is too short.
#[inline(always)]
pub fn get_f64(buf: &[u8], offset: usize) -> f64 {
    f64::from_bits(get_u64(buf, offset))
}

/// Reads a `u16` at `offset`, or `None` if the slice is too short.
#[inline(always)]
pub fn try_get_u16(buf: &[u8], offset: usize) -> Option<u16> {
    let b = buf.get(offset..offset.checked_add(2)?)?;
    let mut le = [0u8; 2];
    le.copy_from_slice(b);
    Some(u16::from_le_bytes(le))
}

/// Writes a `u16` at `offset`, returning the offset just past it.
#[inline(always)]
pub fn put_u16(buf: &mut [u8], offset: usize, v: u16) -> usize {
    buf[offset..offset + 2].copy_from_slice(&v.to_le_bytes());
    offset + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut buf = [0u8; 64];
        let mut off = 0;
        off = put_u16(&mut buf, off, 0xBEEF);
        off = put_u32(&mut buf, off, 0xDEAD_BEEF);
        off = put_u64(&mut buf, off, u64::MAX - 5);
        off = put_f64(&mut buf, off, -123.456);
        assert_eq!(off, 22);
        assert_eq!(try_get_u16(&buf, 0), Some(0xBEEF));
        assert_eq!(get_u32(&buf, 2), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, 6), u64::MAX - 5);
        assert_eq!(get_f64(&buf, 14), -123.456);
    }

    #[test]
    fn special_floats_round_trip() {
        let mut buf = [0u8; 8];
        for v in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
        ] {
            put_f64(&mut buf, 0, v);
            assert_eq!(get_f64(&buf, 0).to_bits(), v.to_bits());
        }
        put_f64(&mut buf, 0, f64::NAN);
        assert!(get_f64(&buf, 0).is_nan());
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let mut buf = [0u8; 4];
        let _ = put_u64(&mut buf, 0, 1);
    }

    #[test]
    fn truncated_reads_are_total_not_panicking() {
        let buf = [0xFFu8; 4];
        // get_* never panics on a short slice…
        assert_eq!(get_u32(&buf, 2), 0);
        assert_eq!(get_u64(&buf, 0), 0);
        assert_eq!(get_f64(&buf, 0), 0.0);
        // …and try_get_u16 reports the truncation.
        assert_eq!(try_get_u16(&buf, 2), Some(u16::MAX));
        assert_eq!(try_get_u16(&buf, 3), None);
        // Offsets near usize::MAX must not overflow.
        assert_eq!(try_get_u16(&buf, usize::MAX), None);
    }
}
