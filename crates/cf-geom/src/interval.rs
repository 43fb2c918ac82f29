//! Closed 1-D value intervals.
//!
//! The EDBT 2002 paper associates every cell (and every subfield) with the
//! closed interval of all explicit *and* implicit field values it contains.
//! These intervals are what the value-domain index stores.

use crate::Aabb;
use std::fmt;

/// A closed interval `[lo, hi]` on the field value domain.
///
/// Invariant: `lo <= hi` for any interval built through the constructors.
/// An interval where `lo == hi` is valid and represents a constant cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Minimum value contained in the interval.
    pub lo: f64,
    /// Maximum value contained in the interval.
    pub hi: f64,
}

impl Interval {
    /// The interval of a cell with a NaN sample: both bounds are NaN, so
    /// it intersects no interval, contains no value, and a
    /// [`Interval::union`] with it returns the other operand. It breaks
    /// the `lo <= hi` invariant on purpose; [`Interval::is_nan`] tells
    /// it apart.
    pub const NAN: Interval = Interval {
        lo: f64::NAN,
        hi: f64::NAN,
    };

    /// `true` when either bound is NaN (see [`Interval::NAN`]).
    #[inline]
    pub fn is_nan(self) -> bool {
        self.lo.is_nan() || self.hi.is_nan()
    }

    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid interval: lo={lo} > hi={hi}");
        Self { lo, hi }
    }

    /// Creates the degenerate interval `[v, v]`.
    #[inline]
    pub fn point(v: f64) -> Self {
        Self::new(v, v)
    }

    /// The smallest interval containing every value in a non-empty slice.
    ///
    /// Returns `None` for an empty slice.
    pub fn hull(values: &[f64]) -> Option<Self> {
        let (&first, rest) = values.split_first()?;
        let mut lo = first;
        let mut hi = first;
        for &v in rest {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some(Self::new(lo, hi))
    }

    /// Width of the interval, `hi - lo`.
    #[inline]
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// The paper's *interval size*: `maximum − minimum + base`.
    ///
    /// The paper defines `I = max − min + 1` so that a constant cell
    /// (min == max) has size 1 rather than 0. The additive `base` is a
    /// scale-dependent constant; `base = 1.0` reproduces the paper, while
    /// normalized-domain workloads may pass a smaller resolution unit.
    #[inline]
    pub fn size_with_base(self, base: f64) -> f64 {
        self.width() + base
    }

    /// Returns `true` when `self` and `other` share at least one value
    /// (closed-interval semantics, matching the paper's "intersect").
    #[inline]
    pub fn intersects(self, other: Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Returns `true` when `v` lies inside the closed interval.
    #[inline]
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Returns `true` when every value of `other` lies inside `self`
    /// (the test suites of dependent crates check generated bands with it).
    #[inline]
    pub fn contains_interval(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// The smallest interval containing both `self` and `other`.
    #[inline]
    pub fn union(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn center(self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Affine map of `v ∈ [lo, hi]` onto `[0, 1]`.
    ///
    /// Returns `0.5` for a degenerate interval so that normalization of a
    /// constant field is well-defined.
    #[inline]
    pub fn normalize(self, v: f64) -> f64 {
        let w = self.width();
        if w == 0.0 {
            0.5
        } else {
            (v - self.lo) / w
        }
    }

    /// Inverse of [`Interval::normalize`]: maps `t ∈ [0, 1]` onto the
    /// interval.
    #[inline]
    pub fn denormalize(self, t: f64) -> f64 {
        self.lo + t * self.width()
    }
}

impl From<Interval> for Aabb<1> {
    #[inline]
    fn from(iv: Interval) -> Self {
        Aabb::new([iv.lo], [iv.hi])
    }
}

impl From<Aabb<1>> for Interval {
    #[inline]
    fn from(b: Aabb<1>) -> Self {
        Interval::new(b.lo[0], b.hi[0])
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_enforce_order() {
        assert_eq!(Interval::point(3.0), Interval::new(3.0, 3.0));
        assert_eq!(Interval::point(3.0).width(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn new_rejects_reversed_bounds() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn hull_of_values() {
        assert_eq!(Interval::hull(&[]), None);
        assert_eq!(
            Interval::hull(&[3.0, -1.0, 2.0]),
            Some(Interval::new(-1.0, 3.0))
        );
        assert_eq!(Interval::hull(&[7.0]), Some(Interval::point(7.0)));
    }

    #[test]
    fn paper_interval_size_definition() {
        // Paper §3.1.2: I = max − min + 1; constant cell → 1.
        assert_eq!(Interval::new(20.0, 40.0).size_with_base(1.0), 21.0);
        assert_eq!(Interval::point(30.0).size_with_base(1.0), 1.0);
    }

    #[test]
    fn closed_intersection_semantics() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(1.0, 2.0); // touch at a point
        let c = Interval::new(1.5, 3.0);
        assert!(a.intersects(b));
        assert!(b.intersects(a));
        assert!(!a.intersects(c));
    }

    #[test]
    fn nan_interval_intersects_nothing_and_vanishes_in_unions() {
        let a = Interval::new(0.0, 1.0);
        assert!(Interval::NAN.is_nan() && !a.is_nan());
        assert!(!Interval::NAN.intersects(a) && !a.intersects(Interval::NAN));
        assert!(!Interval::NAN.intersects(Interval::NAN));
        assert!(!Interval::NAN.contains(0.5));
        assert_eq!(Interval::NAN.union(a), a);
        assert_eq!(a.union(Interval::NAN), a);
    }

    #[test]
    fn union_and_containment() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        let u = a.union(b);
        assert_eq!(u, Interval::new(0.0, 3.0));
        assert!(u.contains_interval(a));
        assert!(u.contains_interval(b));
        assert!(u.contains(1.5));
        assert!(!a.contains_interval(u));
    }

    #[test]
    fn normalization_round_trip() {
        let iv = Interval::new(10.0, 30.0);
        assert_eq!(iv.normalize(20.0), 0.5);
        assert_eq!(iv.denormalize(0.25), 15.0);
        for v in [10.0, 17.3, 30.0] {
            assert!((iv.denormalize(iv.normalize(v)) - v).abs() < 1e-12);
        }
        // Degenerate interval normalizes to the center of [0, 1].
        assert_eq!(Interval::point(5.0).normalize(5.0), 0.5);
    }

    #[test]
    fn aabb_round_trip() {
        let iv = Interval::new(-2.0, 7.0);
        let b: Aabb<1> = iv.into();
        assert_eq!(Interval::from(b), iv);
    }
}
