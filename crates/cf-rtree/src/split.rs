//! R\* node split (ChooseSplitAxis + ChooseSplitIndex) and ChooseSubtree
//! of the in-memory build buffer.
//!
//! Beckmann et al., §4.2: for every axis, entries are sorted by lower and
//! by upper box bound; for each sort, all distributions placing the first
//! `m - 1 + k` entries in the first group are considered. The split axis
//! is the one minimizing total margin over its distributions; along that
//! axis, the distribution minimizing overlap (ties broken by total area)
//! wins.

use crate::node::NodeEntry;
use cf_geom::Aabb;

/// Overlap candidates [`choose_subtree`] considers above the leaves.
const MAX_CANDIDATES: usize = 32;

/// R\* ChooseSubtree over the entries of one internal node: the index of
/// the entry to descend into for `mbr`.
///
/// When the children are leaves, the least overlap enlargement wins
/// (ties: area enlargement, then area); to bound the O(M²) cost, a node
/// of more than [`MAX_CANDIDATES`] entries considers only that many,
/// those of least area enlargement (the "nearly minimum overlap cost"
/// optimization of the R\* paper). Higher up, the least area
/// enlargement wins (ties: area).
pub(crate) fn choose_subtree<const N: usize>(
    entries: &[NodeEntry<N>],
    children_are_leaves: bool,
    mbr: &Aabb<N>,
) -> usize {
    if !children_are_leaves {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (j, e) in entries.iter().enumerate() {
            let b = e.mbr;
            let key = (b.enlargement(mbr), b.volume());
            if key < best_key {
                best_key = key;
                best = j;
            }
        }
        return best;
    }
    let mut order: Vec<usize> = (0..entries.len()).collect();
    if entries.len() > MAX_CANDIDATES {
        order.sort_by(|&a, &b| {
            let ea = entries[a].mbr.enlargement(mbr);
            let eb = entries[b].mbr.enlargement(mbr);
            ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(MAX_CANDIDATES);
    }
    let mut best = order[0];
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for &j in &order {
        let b = entries[j].mbr;
        let enlarged = b.union(mbr);
        let mut overlap_delta = 0.0;
        for (k, other) in entries.iter().enumerate() {
            if k != j {
                overlap_delta +=
                    enlarged.intersection_volume(&other.mbr) - b.intersection_volume(&other.mbr);
            }
        }
        let key = (overlap_delta, b.enlargement(mbr), b.volume());
        if key < best_key {
            best_key = key;
            best = j;
        }
    }
    best
}

/// Outcome of a split: the two entry groups.
pub(crate) struct Split<const N: usize> {
    /// Entries of the first group (stays in the original node).
    pub(crate) first: Vec<NodeEntry<N>>,
    /// Entries of the second group (moves to the new node).
    pub(crate) second: Vec<NodeEntry<N>>,
}

/// Splits an overflowing entry list (`max_entries + 1` entries) into two
/// groups per the R\* heuristics.
///
/// `min_entries` is the minimum fill of each group.
pub(crate) fn rstar_split<const N: usize>(
    mut entries: Vec<NodeEntry<N>>,
    min_entries: usize,
) -> Split<N> {
    let total = entries.len();
    debug_assert!(
        total >= 2 * min_entries,
        "cannot split {total} into two x {min_entries}"
    );
    let dists = total - 2 * min_entries + 1;

    // ChooseSplitAxis: minimize the margin sum over all distributions of
    // both sorts of each axis.
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..N {
        let mut margin = 0.0;
        for sort_by_upper in [false, true] {
            sort_entries(&mut entries, axis, sort_by_upper);
            let (prefix, suffix) = prefix_suffix_mbrs(&entries);
            for k in 0..dists {
                let split_at = min_entries + k;
                margin += prefix[split_at - 1].margin() + suffix[split_at].margin();
            }
        }
        if margin < best_margin {
            best_margin = margin;
            best_axis = axis;
        }
    }

    // ChooseSplitIndex along the best axis: minimize overlap, then area.
    let mut best: Option<(bool, usize, f64, f64)> = None; // (upper, split_at, overlap, area)
    for sort_by_upper in [false, true] {
        sort_entries(&mut entries, best_axis, sort_by_upper);
        let (prefix, suffix) = prefix_suffix_mbrs(&entries);
        for k in 0..dists {
            let split_at = min_entries + k;
            let g1 = prefix[split_at - 1];
            let g2 = suffix[split_at];
            let overlap = g1.intersection_volume(&g2);
            let area = g1.volume() + g2.volume();
            let better = match &best {
                None => true,
                Some((_, _, bo, ba)) => overlap < *bo || (overlap == *bo && area < *ba),
            };
            if better {
                best = Some((sort_by_upper, split_at, overlap, area));
            }
        }
    }
    let (upper, split_at, _, _) = best.expect("at least one distribution");
    sort_entries(&mut entries, best_axis, upper);
    let second = entries.split_off(split_at);
    Split {
        first: entries,
        second,
    }
}

fn sort_entries<const N: usize>(entries: &mut [NodeEntry<N>], axis: usize, by_upper: bool) {
    entries.sort_by(|a, b| {
        let (ka, kb) = if by_upper {
            (a.mbr.hi[axis], b.mbr.hi[axis])
        } else {
            (a.mbr.lo[axis], b.mbr.lo[axis])
        };
        ka.partial_cmp(&kb)
            .unwrap_or(std::cmp::Ordering::Equal)
            // Stable tiebreak on the other bound keeps splits deterministic.
            .then_with(|| {
                let (ta, tb) = if by_upper {
                    (a.mbr.lo[axis], b.mbr.lo[axis])
                } else {
                    (a.mbr.hi[axis], b.mbr.hi[axis])
                };
                ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
            })
    });
}

/// `prefix[i]` = hull of entries `0..=i`; `suffix[i]` = hull of `i..`.
fn prefix_suffix_mbrs<const N: usize>(entries: &[NodeEntry<N>]) -> (Vec<Aabb<N>>, Vec<Aabb<N>>) {
    let n = entries.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = Aabb::EMPTY;
    for e in entries {
        acc.merge(&e.mbr);
        prefix.push(acc);
    }
    let mut suffix = vec![Aabb::EMPTY; n];
    let mut acc = Aabb::EMPTY;
    for i in (0..n).rev() {
        acc.merge(&entries[i].mbr);
        suffix[i] = acc;
    }
    (prefix, suffix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ChildRef;

    fn entry1(lo: f64, hi: f64, id: u64) -> NodeEntry<1> {
        NodeEntry {
            mbr: Aabb::new([lo], [hi]),
            child: ChildRef::Data(id),
        }
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two clearly separated 1-D clusters must end up in different
        // groups with zero overlap.
        let mut entries = Vec::new();
        for i in 0..5 {
            entries.push(entry1(i as f64 * 0.1, i as f64 * 0.1 + 0.05, i));
        }
        for i in 0..5 {
            entries.push(entry1(
                100.0 + i as f64 * 0.1,
                100.0 + i as f64 * 0.1 + 0.05,
                5 + i,
            ));
        }
        let split = rstar_split(entries, 4);
        assert_eq!(split.first.len() + split.second.len(), 10);
        assert!(split.first.len() >= 4 && split.second.len() >= 4);
        let m1 = Aabb::hull(split.first.iter().map(|e| e.mbr));
        let m2 = Aabb::hull(split.second.iter().map(|e| e.mbr));
        assert_eq!(m1.intersection_volume(&m2), 0.0);
        // Every id still present exactly once.
        let mut ids: Vec<u64> = split
            .first
            .iter()
            .chain(&split.second)
            .map(|e| e.child.data())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_respects_min_entries() {
        let entries: Vec<NodeEntry<1>> = (0..11)
            .map(|i| entry1(i as f64, i as f64 + 0.5, i))
            .collect();
        let split = rstar_split(entries, 4);
        assert!(split.first.len() >= 4);
        assert!(split.second.len() >= 4);
        assert_eq!(split.first.len() + split.second.len(), 11);
    }

    #[test]
    fn split_2d_chooses_separating_axis() {
        // Entries form two groups separated along y; the split must use
        // that axis (groups have zero overlap).
        let mut entries: Vec<NodeEntry<2>> = Vec::new();
        for i in 0..6 {
            let x = i as f64;
            entries.push(NodeEntry {
                mbr: Aabb::new([x, 0.0], [x + 0.5, 1.0]),
                child: ChildRef::Data(i as u64),
            });
            entries.push(NodeEntry {
                mbr: Aabb::new([x, 50.0], [x + 0.5, 51.0]),
                child: ChildRef::Data(100 + i as u64),
            });
        }
        let split = rstar_split(entries, 5);
        let m1 = Aabb::hull(split.first.iter().map(|e| e.mbr));
        let m2 = Aabb::hull(split.second.iter().map(|e| e.mbr));
        assert_eq!(m1.intersection_volume(&m2), 0.0);
    }

    #[test]
    fn split_of_identical_boxes_is_balanced_enough() {
        // Degenerate case: all MBRs identical; split must still satisfy
        // the fill bounds.
        let entries: Vec<NodeEntry<1>> = (0..9).map(|i| entry1(1.0, 2.0, i)).collect();
        let split = rstar_split(entries, 3);
        assert!(split.first.len() >= 3 && split.second.len() >= 3);
    }
}
