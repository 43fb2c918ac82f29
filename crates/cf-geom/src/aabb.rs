//! Axis-aligned bounding boxes generic over dimension.
//!
//! The R\*-tree stores `Aabb<N>` keys: `N = 1` for value intervals (the
//! paper's use), `N = 2` for spatial MBRs of cells, and `N = k` for the
//! vector-field extension where a subfield's key is a box in the
//! k-dimensional value domain.

use crate::Point2;

/// An axis-aligned box `[lo, hi]` in `N` dimensions (closed on all sides).
///
/// Invariant: `lo[d] <= hi[d]` for every dimension `d` of any box built
/// through the constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<const N: usize> {
    /// Minimum corner.
    pub lo: [f64; N],
    /// Maximum corner.
    pub hi: [f64; N],
}

impl<const N: usize> Aabb<N> {
    /// Creates a box from its corners.
    ///
    /// # Panics
    ///
    /// Panics if `lo[d] > hi[d]` for any dimension.
    #[inline]
    pub fn new(lo: [f64; N], hi: [f64; N]) -> Self {
        for d in 0..N {
            assert!(
                lo[d] <= hi[d],
                "invalid Aabb in dim {d}: lo={} > hi={}",
                lo[d],
                hi[d]
            );
        }
        Self { lo, hi }
    }

    /// The degenerate box containing a single point.
    #[inline]
    pub fn point(p: [f64; N]) -> Self {
        Self { lo: p, hi: p }
    }

    /// A box positioned so union-identity holds: `EMPTY.union(b) == b`.
    ///
    /// Its corners are `+inf`/`-inf`; it intersects nothing and contains
    /// nothing. Useful as a fold seed when computing hulls.
    pub const EMPTY: Aabb<N> = Aabb {
        lo: [f64::INFINITY; N],
        hi: [f64::NEG_INFINITY; N],
    };

    /// Returns `true` if this is the [`Aabb::EMPTY`] sentinel (or any box
    /// with an inverted extent).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..N).any(|d| self.lo[d] > self.hi[d])
    }

    /// Extent along dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> f64 {
        self.hi[d] - self.lo[d]
    }

    /// Hyper-volume (area for `N = 2`, length for `N = 1`).
    ///
    /// Returns `0.0` for empty boxes.
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..N).map(|d| self.extent(d)).product()
    }

    /// Margin: the sum of extents over all dimensions.
    ///
    /// This is the quantity (half-perimeter in 2-D) minimized by the
    /// R\*-tree split-axis selection.
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..N).map(|d| self.extent(d)).sum()
    }

    /// Center point of the box.
    #[inline]
    pub fn center(&self) -> [f64; N] {
        let mut c = [0.0; N];
        for (d, slot) in c.iter_mut().enumerate() {
            *slot = 0.5 * (self.lo[d] + self.hi[d]);
        }
        c
    }

    /// Returns `true` when the closed boxes share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Aabb<N>) -> bool {
        (0..N).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// Returns `true` when `p` lies inside the closed box.
    #[inline]
    pub fn contains_point(&self, p: &[f64; N]) -> bool {
        (0..N).all(|d| self.lo[d] <= p[d] && p[d] <= self.hi[d])
    }

    /// Returns `true` when `other` lies entirely inside `self`.
    #[inline]
    pub fn contains(&self, other: &Aabb<N>) -> bool {
        (0..N).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Aabb<N>) -> Aabb<N> {
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        for d in 0..N {
            lo[d] = self.lo[d].min(other.lo[d]);
            hi[d] = self.hi[d].max(other.hi[d]);
        }
        Aabb { lo, hi }
    }

    /// Volume of the overlap region (0 when disjoint).
    #[inline]
    pub fn intersection_volume(&self, other: &Aabb<N>) -> f64 {
        let mut v = 1.0;
        for d in 0..N {
            let lo = self.lo[d].max(other.lo[d]);
            let hi = self.hi[d].min(other.hi[d]);
            if lo >= hi {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// Volume increase required for `self` to absorb `other`.
    ///
    /// This is the R-tree insertion heuristic "least enlargement".
    #[inline]
    pub fn enlargement(&self, other: &Aabb<N>) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// Grows the box in place to absorb `other`.
    #[inline]
    pub fn merge(&mut self, other: &Aabb<N>) {
        for d in 0..N {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// Smallest box containing every box yielded by the iterator.
    ///
    /// Returns [`Aabb::EMPTY`] for an empty iterator.
    pub fn hull<I: IntoIterator<Item = Aabb<N>>>(boxes: I) -> Aabb<N> {
        boxes.into_iter().fold(Aabb::EMPTY, |acc, b| acc.union(&b))
    }
}

impl Aabb<2> {
    /// Smallest 2-D box containing every point in the slice.
    ///
    /// Returns [`Aabb::EMPTY`] for an empty slice.
    pub fn hull_of_points(points: &[Point2]) -> Self {
        points
            .iter()
            .fold(Aabb::EMPTY, |acc, p| acc.union(&Aabb::point([p.x, p.y])))
    }

    /// Center of the box as a [`Point2`].
    pub fn center_point(&self) -> Point2 {
        let c = self.center();
        Point2::new(c[0], c[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_margin_center() {
        let b = Aabb::new([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(b.volume(), 6.0);
        assert_eq!(b.margin(), 5.0);
        assert_eq!(b.center(), [1.0, 1.5]);
        let iv = Aabb::new([1.0], [4.0]);
        assert_eq!(iv.volume(), 3.0);
    }

    #[test]
    #[should_panic(expected = "invalid Aabb")]
    fn new_rejects_inverted() {
        let _ = Aabb::new([1.0, 0.0], [0.0, 1.0]);
    }

    #[test]
    fn empty_is_union_identity() {
        let b = Aabb::new([1.0, 2.0], [3.0, 4.0]);
        assert_eq!(Aabb::EMPTY.union(&b), b);
        assert_eq!(b.union(&Aabb::EMPTY), b);
        assert!(Aabb::<2>::EMPTY.is_empty());
        assert_eq!(Aabb::<2>::EMPTY.volume(), 0.0);
        assert_eq!(Aabb::<2>::EMPTY.margin(), 0.0);
        assert!(!Aabb::<2>::EMPTY.intersects(&b));
    }

    #[test]
    fn closed_intersection_semantics() {
        let a = Aabb::new([0.0, 0.0], [1.0, 1.0]);
        let touching = Aabb::new([1.0, 0.0], [2.0, 1.0]);
        let disjoint = Aabb::new([1.5, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&touching));
        assert!(!a.intersects(&disjoint));
        // Touching boxes overlap with zero volume.
        assert_eq!(a.intersection_volume(&touching), 0.0);
        let overlapping = Aabb::new([0.5, 0.5], [1.5, 2.0]);
        assert!((a.intersection_volume(&overlapping) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        let outer = Aabb::new([0.0, 0.0], [10.0, 10.0]);
        let inner = Aabb::new([2.0, 2.0], [3.0, 3.0]);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains_point(&[0.0, 10.0]));
        assert!(!outer.contains_point(&[10.1, 5.0]));
    }

    #[test]
    fn enlargement_heuristic() {
        let a = Aabb::new([0.0, 0.0], [1.0, 1.0]);
        let inside = Aabb::new([0.2, 0.2], [0.8, 0.8]);
        assert_eq!(a.enlargement(&inside), 0.0);
        let outside = Aabb::new([2.0, 0.0], [3.0, 1.0]);
        // Union is [0,0]..[3,1] with volume 3; enlargement = 2.
        assert!((a.enlargement(&outside) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hull_of_boxes_and_points() {
        let h = Aabb::hull(vec![
            Aabb::new([0.0], [1.0]),
            Aabb::new([5.0], [6.0]),
            Aabb::new([-1.0], [0.0]),
        ]);
        assert_eq!(h, Aabb::new([-1.0], [6.0]));

        let pts = [
            Point2::new(1.0, 5.0),
            Point2::new(-2.0, 0.0),
            Point2::new(3.0, 2.0),
        ];
        let hb = Aabb::hull_of_points(&pts);
        assert_eq!(hb, Aabb::new([-2.0, 0.0], [3.0, 5.0]));
        assert_eq!(Aabb::hull_of_points(&[]), Aabb::EMPTY);
    }

    #[test]
    fn merge_in_place() {
        let mut a = Aabb::new([0.0], [1.0]);
        a.merge(&Aabb::new([3.0], [4.0]));
        assert_eq!(a, Aabb::new([0.0], [4.0]));
    }

    #[test]
    fn from_points_any_order() {
        let b = Aabb::hull_of_points(&[Point2::new(3.0, 1.0), Point2::new(1.0, 4.0)]);
        assert_eq!(b, Aabb::new([1.0, 1.0], [3.0, 4.0]));
        assert_eq!(b.center_point(), Point2::new(2.0, 2.5));
    }
}
