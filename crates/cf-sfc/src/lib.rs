//! Space-filling curves.
//!
//! The I-Hilbert method (paper §3.1.2) linearizes the cells of a field in
//! order of the Hilbert value of their centers: "a space filling curve
//! visits all the points in a k-dimensional grid exactly once and never
//! crosses itself". The paper chooses the Hilbert curve because it
//! "achieves the best clustering" among Z-order (Peano / bit-interleaving),
//! Gray-code, and Hilbert orderings (citing Faloutsos & Roseman 1989 and
//! Jagadish 1990).
//!
//! This crate provides:
//!
//! * [`hilbert_index_2d`] / [`hilbert_point_2d`] — 2-D Hilbert
//!   index ↔ coordinate conversion. The index, the key of every 2-D
//!   index build, walks a 2 KiB table one nibble pair per lookup; the
//!   inverse rotates one bit at a time;
//! * [`hilbert_index_nd`] / [`hilbert_point_nd`] — arbitrary-dimension
//!   Hilbert transform (Skilling's algorithm; Bially 1969 is the paper's
//!   citation for higher dimensionalities);
//! * [`morton_index_2d`] — the Z-order curve;
//! * [`gray_index_2d`] — the Gray-code curve;
//! * [`Curve`] — an enum unifying the orderings (plus row-major scan) so
//!   the curve choice can be ablated.
//!
//! A test-only module reproduces the run-count clustering comparison
//! that justifies the Hilbert choice.

//!
//! # Example
//!
//! ```
//! use cf_sfc::{hilbert_index_2d, hilbert_point_2d, Curve};
//!
//! // Position of grid cell (3, 5) on the order-4 (16x16) Hilbert curve…
//! let d = hilbert_index_2d(3, 5, 4);
//! // …and back.
//! assert_eq!(hilbert_point_2d(d, 4), (3, 5));
//!
//! // Consecutive curve positions are always grid neighbours.
//! let (x0, y0) = hilbert_point_2d(d, 4);
//! let (x1, y1) = hilbert_point_2d(d + 1, 4);
//! assert_eq!(x0.abs_diff(x1) + y0.abs_diff(y1), 1);
//!
//! // The unified interface used by the ablation benches.
//! assert_eq!(Curve::Hilbert.index(3, 5, 4), d);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

#[cfg(test)]
mod clustering;
mod curve;
mod gray;
mod hilbert2d;
mod hilbertnd;
mod morton;

pub use curve::Curve;
pub use gray::{gray_index_2d, gray_point_2d};
pub use hilbert2d::{hilbert_index_2d, hilbert_point_2d};
pub use hilbertnd::{hilbert_index_nd, hilbert_point_nd};
pub use morton::{morton_index_2d, morton_point_2d};

/// Maximum supported curve order (bits per coordinate) for 2-D curves.
///
/// With 31 bits per coordinate a 2-D index fits comfortably in `u64`.
pub const MAX_ORDER_2D: u32 = 31;
