//! Fast 2-D Hilbert curve conversions.
//!
//! The curve of order `k` visits every cell of the `2^k × 2^k` grid
//! exactly once, and consecutive indices are always 4-neighbors — the
//! "no jumps" property the paper relies on when forming subfields from
//! consecutive cells.
//!
//! The encoder walks a state table. Read from the top bit down, a
//! Hilbert curve is one base pattern seen in one of four orientations:
//! the identity, the transpose (`SWAP`), the half-turn (`INVERT`,
//! both coordinates complemented) and both. Each bit pair `(x, y)` gives
//! a base-4 digit and the orientation for the bits below it. [`NIB`]
//! folds four such steps into one lookup, so a key of order `k` costs
//! `ceil(k / 4)` dependent loads from a 2 KiB table. The decoder is
//! the classic iterative quadrant rotation, one bit at a time.

use crate::MAX_ORDER_2D;

/// Rotates/flips quadrant coordinates so the child quadrant's local frame
/// matches the canonical curve orientation.
#[inline]
fn rot(side: u64, x: &mut u64, y: &mut u64, rx: u64, ry: u64) {
    if ry == 0 {
        if rx == 1 {
            *x = side - 1 - *x;
            *y = side - 1 - *y;
        }
        std::mem::swap(x, y);
    }
}

/// Orientation bit: the curve below this level is transposed.
const SWAP: u16 = 1;
/// Orientation bit: the curve below this level is turned by a half
/// turn (both coordinates complemented).
const INVERT: u16 = 2;

/// `NIB[state][x4 << 4 | y4]` is `digits << 2 | next`: the 8 key bits
/// of one coordinate nibble pair read in orientation `state`, and the
/// orientation of the nibbles below. Built from the per-bit rule: read
/// the oriented bits `(rx, ry)`, emit the digit `3·rx ^ ry`, and when
/// `ry = 0` transpose, also turning by a half turn when `rx = 1`.
const NIB: [[u16; 256]; 4] = {
    let mut table = [[0u16; 256]; 4];
    let mut start = 0;
    while start < 4 {
        let mut xy = 0;
        while xy < 256 {
            let (mut state, mut digits) = (start as u16, 0u16);
            let mut bit = 4;
            while bit > 0 {
                bit -= 1;
                let (bx, by) = ((xy >> (4 + bit)) as u16 & 1, (xy >> bit) as u16 & 1);
                let (bx, by) = if state & SWAP != 0 {
                    (by, bx)
                } else {
                    (bx, by)
                };
                let flip = (state & INVERT) >> 1;
                let (rx, ry) = (bx ^ flip, by ^ flip);
                digits = digits << 2 | ((3 * rx) ^ ry);
                if ry == 0 {
                    if rx == 1 {
                        state ^= INVERT;
                    }
                    state ^= SWAP;
                }
            }
            table[start][xy] = digits << 2 | state;
            xy += 1;
        }
        start += 1;
    }
    table
};

/// Hilbert index of grid cell `(x, y)` on the order-`order` curve.
///
/// `order` is the number of bits per coordinate; the grid side is
/// `2^order`. Coordinates must be `< 2^order`.
///
/// # Panics
///
/// Panics if `order > MAX_ORDER_2D` or a coordinate is out of range.
pub fn hilbert_index_2d(x: u64, y: u64, order: u32) -> u64 {
    assert!(
        order <= MAX_ORDER_2D,
        "order {order} exceeds {MAX_ORDER_2D}"
    );
    let side = 1u64 << order;
    assert!(x < side && y < side, "({x}, {y}) outside 2^{order} grid");
    // The walk starts at a nibble boundary, above `order`. Each zero
    // padding bit emits digit 0 and transposes, so starting transposed
    // when the padding is odd leaves the walk at the top real bit in
    // the identity orientation, as the curve of order `order` starts.
    let mut shift = order.div_ceil(4) * 4;
    let mut state = ((shift - order) & 1) as usize;
    let mut d = 0u64;
    while shift > 0 {
        shift -= 4;
        let xy = ((x >> shift) & 0xF) << 4 | ((y >> shift) & 0xF);
        let entry = NIB[state][xy as usize];
        d = d << 8 | u64::from(entry >> 2);
        state = usize::from(entry & 3);
    }
    d
}

/// Inverse of [`hilbert_index_2d`]: the grid cell visited at position `d`.
///
/// # Panics
///
/// Panics if `order > MAX_ORDER_2D` or `d >= 4^order`.
pub fn hilbert_point_2d(d: u64, order: u32) -> (u64, u64) {
    assert!(
        order <= MAX_ORDER_2D,
        "order {order} exceeds {MAX_ORDER_2D}"
    );
    let side = 1u64 << order;
    assert!(
        d < side.saturating_mul(side),
        "index {d} outside order-{order} curve"
    );
    let (mut x, mut y) = (0u64, 0u64);
    let mut t = d;
    let mut s = 1u64;
    while s < side {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        rot(s, &mut x, &mut y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
        s <<= 1;
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The encoder the state table replaced: one bit per step, each
    /// step rotating the remaining coordinates. Every key of the table
    /// encoder is checked against it.
    mod reference {
        use super::super::rot;

        pub(super) fn hilbert_index_2d(mut x: u64, mut y: u64, order: u32) -> u64 {
            let side = 1u64 << order;
            let mut d = 0u64;
            let mut s = side >> 1;
            while s > 0 {
                let rx = u64::from(x & s > 0);
                let ry = u64::from(y & s > 0);
                d += s * s * ((3 * rx) ^ ry);
                rot(side, &mut x, &mut y, rx, ry);
                s >>= 1;
            }
            d
        }
    }

    /// Every `(x, y)` of the order-`order` grid, table against bit loop.
    fn assert_matches_reference_exhaustively(order: u32) {
        let side = 1u64 << order;
        for x in 0..side {
            for y in 0..side {
                assert_eq!(
                    hilbert_index_2d(x, y, order),
                    reference::hilbert_index_2d(x, y, order),
                    "({x}, {y}) at order {order}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_exhaustively_up_to_order_10() {
        for order in 0..=10 {
            assert_matches_reference_exhaustively(order);
        }
    }

    /// `CURVE_ORDER`, the order every 2-D index build keys its cells at:
    /// all 2^30 pairs (≈ 45 s in release).
    #[test]
    #[ignore = "2^30 keys; run with --release -- --ignored"]
    fn matches_reference_exhaustively_at_order_15() {
        assert_matches_reference_exhaustively(15);
    }

    #[test]
    fn matches_reference_on_boundary_and_random_coordinates_at_every_order() {
        let mut rng = StdRng::seed_from_u64(0x4b11_be27);
        for order in 0..=MAX_ORDER_2D {
            let side = 1u64 << order;
            // 0, side − 1, and every power of two and its neighbours.
            let mut coords = vec![0, side - 1];
            for bit in 0..order {
                let p = 1u64 << bit;
                coords.extend([p - 1, p, p + 1]);
            }
            coords.retain(|&c| c < side);
            for _ in 0..64 {
                coords.push(rng.gen_range(0..side));
            }
            for &x in &coords {
                for &y in &coords {
                    assert_eq!(
                        hilbert_index_2d(x, y, order),
                        reference::hilbert_index_2d(x, y, order),
                        "({x}, {y}) at order {order}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_paper_figure_4_order_1() {
        // Fig. 4 (H1): the order-1 curve visits (0,0), (0,1), (1,1), (1,0)
        // labelled 0..3 (x = column, y = row from bottom-left origin).
        assert_eq!(hilbert_index_2d(0, 0, 1), 0);
        assert_eq!(hilbert_index_2d(0, 1, 1), 1);
        assert_eq!(hilbert_index_2d(1, 1, 1), 2);
        assert_eq!(hilbert_index_2d(1, 0, 1), 3);
    }

    #[test]
    fn round_trip_exhaustive_small_orders() {
        for order in 0..=5 {
            let side = 1u64 << order;
            for x in 0..side {
                for y in 0..side {
                    let d = hilbert_index_2d(x, y, order);
                    assert_eq!(hilbert_point_2d(d, order), (x, y));
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
                let d = hilbert_index_2d(x, y, order) as usize;
                assert!(!seen[d], "index {d} visited twice");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consecutive_indices_are_grid_neighbors() {
        // The "no jumps" property quoted in §3.1.2.
        for order in 1..=6 {
            let n = 1u64 << (2 * order);
            let (mut px, mut py) = hilbert_point_2d(0, order);
            for d in 1..n {
                let (x, y) = hilbert_point_2d(d, order);
                let manhattan = px.abs_diff(x) + py.abs_diff(y);
                assert_eq!(manhattan, 1, "jump at d={d} order={order}");
                (px, py) = (x, y);
            }
        }
    }

    #[test]
    fn high_order_round_trip_spot_checks() {
        let order = MAX_ORDER_2D;
        for &(x, y) in &[
            (0u64, 0u64),
            ((1 << 31) - 1, (1 << 31) - 1),
            (123_456_789, 987_654_321),
            (1, (1 << 31) - 1),
        ] {
            let d = hilbert_index_2d(x, y, order);
            assert_eq!(hilbert_point_2d(d, order), (x, y));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_coordinate() {
        let _ = hilbert_index_2d(4, 0, 2);
    }

    #[test]
    fn order_zero_is_single_cell() {
        assert_eq!(hilbert_index_2d(0, 0, 0), 0);
        assert_eq!(hilbert_point_2d(0, 0), (0, 0));
    }
}
