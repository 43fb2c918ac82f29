//! Arbitrary-dimension Hilbert transform (Skilling's algorithm).
//!
//! The paper notes "the Hilbert curve can be generalized for higher
//! dimensionalities" citing Bially (1969) for an n-dimensional
//! construction. We implement John Skilling's compact formulation
//! ("Programming the Hilbert curve", AIP Conf. Proc. 707, 2004), which
//! converts between coordinates and the *transpose* form of the Hilbert
//! index with O(n·b) bit operations. The vector-field extension uses this
//! for k-dimensional value domains, and 3-D volume fields (hexahedral
//! models mentioned in §2.1) use it for spatial linearization.

/// Converts coordinates to a Hilbert index, for `coords.len()` dimensions
/// with `bits` bits per coordinate.
///
/// The result is the position of the point along the n-dimensional Hilbert
/// curve, in `[0, 2^(n·bits))`.
///
/// # Panics
///
/// Panics if `coords` is empty, if `n·bits > 128`, or if any coordinate
/// needs more than `bits` bits.
pub fn hilbert_index_nd(coords: &[u64], bits: u32) -> u128 {
    let n = coords.len();
    assert!(n > 0, "need at least one dimension");
    assert!(
        (n as u32) * bits <= 128,
        "n*bits = {} exceeds 128-bit index",
        n as u32 * bits
    );
    for (d, &c) in coords.iter().enumerate() {
        assert!(
            bits == 64 || c < (1u64 << bits),
            "coordinate {c} in dim {d} needs more than {bits} bits"
        );
    }
    let mut x = coords.to_vec();
    axes_to_transpose(&mut x, bits);
    interleave_transpose(&x, bits)
}

/// Inverse of [`hilbert_index_nd`]: coordinates of the point at position
/// `index` along the n-dimensional Hilbert curve.
///
/// # Panics
///
/// Panics if `n == 0`, `n·bits > 128`, or `index >= 2^(n·bits)`.
///
/// Public for the crate's round-trip property tests.
pub fn hilbert_point_nd(index: u128, n: usize, bits: u32) -> Vec<u64> {
    assert!(n > 0, "need at least one dimension");
    let total_bits = n as u32 * bits;
    assert!(total_bits <= 128, "n*bits = {total_bits} exceeds 128");
    if total_bits < 128 {
        assert!(index < (1u128 << total_bits), "index out of range");
    }
    let mut x = deinterleave_transpose(index, n, bits);
    transpose_to_axes(&mut x, bits);
    x
}

/// Skilling: in-place conversion from axes to transpose form.
fn axes_to_transpose(x: &mut [u64], bits: u32) {
    let n = x.len();
    if bits == 0 {
        return;
    }
    let m = 1u64 << (bits - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u64;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Skilling: in-place conversion from transpose form to axes.
fn transpose_to_axes(x: &mut [u64], bits: u32) {
    let n = x.len();
    if bits == 0 {
        return;
    }
    let m = 1u64 << (bits - 1);
    // Gray decode by H ^ (H/2).
    let mut t = x[n - 1] >> 1;
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u64;
    while q != m << 1 {
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Packs the transpose form into a single index: the index's bits, from
/// most significant down, are bit `b-1` of `x[0]`, bit `b-1` of `x[1]`,
/// …, bit `0` of `x[n-1]`.
fn interleave_transpose(x: &[u64], bits: u32) -> u128 {
    let n = x.len();
    let mut out = 0u128;
    for b in (0..bits).rev() {
        for xi in x.iter().take(n) {
            out = (out << 1) | u128::from((xi >> b) & 1);
        }
    }
    out
}

/// Inverse of [`interleave_transpose`].
fn deinterleave_transpose(index: u128, n: usize, bits: u32) -> Vec<u64> {
    let mut x = vec![0u64; n];
    let total = n as u32 * bits;
    for pos in 0..total {
        // Bit `total-1-pos` of the index is bit `bits-1-(pos/n)` of x[pos%n].
        let bit = (index >> (total - 1 - pos)) & 1;
        let dim = pos as usize % n;
        let level = bits - 1 - pos / n as u32;
        x[dim] |= (bit as u64) << level;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hilbert_index_2d;

    #[test]
    fn round_trip_2d_exhaustive() {
        let bits = 4;
        for x in 0..16u64 {
            for y in 0..16u64 {
                let d = hilbert_index_nd(&[x, y], bits);
                assert_eq!(hilbert_point_nd(d, 2, bits), vec![x, y]);
            }
        }
    }

    #[test]
    fn round_trip_3d_exhaustive() {
        let bits = 3;
        for x in 0..8u64 {
            for y in 0..8u64 {
                for z in 0..8u64 {
                    let d = hilbert_index_nd(&[x, y, z], bits);
                    assert_eq!(hilbert_point_nd(d, 3, bits), vec![x, y, z]);
                }
            }
        }
    }

    #[test]
    fn is_a_bijection_3d() {
        let bits = 2;
        let mut seen = vec![false; 1 << (3 * bits)];
        for x in 0..4u64 {
            for y in 0..4u64 {
                for z in 0..4u64 {
                    let d = hilbert_index_nd(&[x, y, z], bits) as usize;
                    assert!(!seen[d]);
                    seen[d] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consecutive_indices_are_neighbors_3d() {
        // The Hilbert adjacency property must hold in any dimension.
        let bits = 3;
        let n = 1u128 << (3 * bits);
        let mut prev = hilbert_point_nd(0, 3, bits);
        for d in 1..n {
            let cur = hilbert_point_nd(d, 3, bits);
            let manhattan: u64 = prev.iter().zip(&cur).map(|(&a, &b)| a.abs_diff(b)).sum();
            assert_eq!(manhattan, 1, "jump at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn consecutive_indices_are_neighbors_4d() {
        let bits = 2;
        let n = 1u128 << (4 * bits);
        let mut prev = hilbert_point_nd(0, 4, bits);
        for d in 1..n {
            let cur = hilbert_point_nd(d, 4, bits);
            let manhattan: u64 = prev.iter().zip(&cur).map(|(&a, &b)| a.abs_diff(b)).sum();
            assert_eq!(manhattan, 1, "jump at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn one_dimension_is_identity() {
        for v in 0..64u64 {
            assert_eq!(hilbert_index_nd(&[v], 6), u128::from(v));
            assert_eq!(hilbert_point_nd(u128::from(v), 1, 6), vec![v]);
        }
    }

    #[test]
    fn nd_matches_2d_locality_statistics() {
        // The 2-D fast path and the generic path may differ by a curve
        // symmetry, but both must be true Hilbert curves: bijective with
        // unit steps. Compare total per-step displacement (must both be
        // exactly 1 per step — checked elsewhere) and spot-check that both
        // enumerate the full grid.
        let bits = 3;
        let side = 1u64 << bits;
        let mut seen_fast = vec![false; (side * side) as usize];
        let mut seen_nd = vec![false; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                seen_fast[hilbert_index_2d(x, y, bits) as usize] = true;
                seen_nd[hilbert_index_nd(&[x, y], bits) as usize] = true;
            }
        }
        assert!(seen_fast.iter().all(|&s| s));
        assert!(seen_nd.iter().all(|&s| s));
    }

    #[test]
    fn zero_bits_is_trivial() {
        assert_eq!(hilbert_index_nd(&[0, 0, 0], 0), 0);
        assert_eq!(hilbert_point_nd(0, 3, 0), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "needs more than")]
    fn rejects_oversized_coordinate() {
        let _ = hilbert_index_nd(&[8, 0], 3);
    }
}
