//! Gray-code curve (Faloutsos 1989).
//!
//! The third curve the paper considers in §3.1.2: interleave the
//! coordinate bits (as in Z-order) and then rank the result in Gray-code
//! order, i.e. the curve position is the *inverse Gray code* of the
//! Morton code. Successive positions then differ in exactly one bit of
//! the interleaved representation.

use crate::{morton_index_2d, morton_point_2d, MAX_ORDER_2D};

/// Gray code of `v`: adjacent integers map to words differing in one bit.
#[inline]
fn gray_encode(v: u64) -> u64 {
    v ^ (v >> 1)
}

/// Inverse of [`gray_encode`].
#[inline]
fn gray_decode(mut g: u64) -> u64 {
    let mut v = g;
    while g > 0 {
        g >>= 1;
        v ^= g;
    }
    v
}

/// Gray-code-curve index of grid cell `(x, y)`.
///
/// The cell's Morton code is interpreted as a Gray-code word; its rank in
/// Gray-code order is the curve position.
///
/// # Panics
///
/// Panics if `order > MAX_ORDER_2D` or a coordinate is out of range.
pub fn gray_index_2d(x: u64, y: u64, order: u32) -> u64 {
    gray_decode(morton_index_2d(x, y, order))
}

/// Inverse of [`gray_index_2d`].
pub fn gray_point_2d(d: u64, order: u32) -> (u64, u64) {
    assert!(
        order <= MAX_ORDER_2D,
        "order {order} exceeds {MAX_ORDER_2D}"
    );
    morton_point_2d(gray_encode(d), order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_code_round_trip() {
        for v in 0..1024u64 {
            assert_eq!(gray_decode(gray_encode(v)), v);
        }
        assert_eq!(gray_decode(gray_encode(u64::MAX)), u64::MAX);
    }

    #[test]
    fn gray_neighbors_differ_in_one_bit() {
        for v in 0..1023u64 {
            let diff = gray_encode(v) ^ gray_encode(v + 1);
            assert_eq!(diff.count_ones(), 1, "at v={v}");
        }
    }

    #[test]
    fn curve_round_trip_exhaustive() {
        for order in 0..=5 {
            let side = 1u64 << order;
            for x in 0..side {
                for y in 0..side {
                    let d = gray_index_2d(x, y, order);
                    assert_eq!(gray_point_2d(d, order), (x, y));
                }
            }
        }
    }

    #[test]
    fn is_a_bijection() {
        let order = 4;
        let side = 1u64 << order;
        let mut seen = vec![false; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                let d = gray_index_2d(x, y, order) as usize;
                assert!(!seen[d]);
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn successive_cells_differ_in_one_interleaved_bit() {
        let order = 3;
        let n = 1u64 << (2 * order);
        for d in 0..n - 1 {
            let (x0, y0) = gray_point_2d(d, order);
            let (x1, y1) = gray_point_2d(d + 1, order);
            let m0 = morton_index_2d(x0, y0, order);
            let m1 = morton_index_2d(x1, y1, order);
            assert_eq!((m0 ^ m1).count_ones(), 1, "at d={d}");
        }
    }
}
