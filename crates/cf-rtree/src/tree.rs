//! The build buffer of the benchmark ladder's staged trace. No product
//! path calls it: every index packs its tree with
//! [`PagedRTree::build`](crate::PagedRTree::build). The trace fills an
//! [`RStarTree`] one entry at a time and hands it to
//! [`PagedRTree::persist`](crate::PagedRTree::persist), which packs the
//! entries with `build`. The names are kept only so that trace compiles
//! until it calls `build` itself (ROADMAP item 1 (i)), which deletes
//! this module.

use cf_geom::Aabb;

/// The one configuration of a build buffer: nodes of one 4 KiB page, as
/// [`PagedRTree::build`](crate::PagedRTree::build) packs them. It has no
/// field to set.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct RTreeConfig;

impl RTreeConfig {
    /// The page-sized configuration for dimension `N` (the only one).
    pub fn page_sized<const N: usize>() -> Self {
        Self
    }
}

/// A buffer of `N`-dimensional boxes with `u64` payloads, in insertion
/// order. It has no tree shape: [`PagedRTree::persist`](crate::PagedRTree::persist)
/// packs its entries, so the pages depend only on the entry set.
#[derive(Debug, Clone)]
pub struct RStarTree<const N: usize> {
    entries: Vec<(Aabb<N>, u64)>,
}

impl<const N: usize> RStarTree<N> {
    /// Creates an empty buffer.
    pub fn new(_config: RTreeConfig) -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Appends a data item with the given bounding box.
    ///
    /// # Panics
    ///
    /// Panics if `mbr` is empty.
    pub fn insert(&mut self, mbr: Aabb<N>, data: u64) {
        assert!(!mbr.is_empty(), "cannot insert an empty MBR");
        self.entries.push((mbr, data));
    }

    /// Number of data entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the buffer holds no data.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in insertion order.
    pub(crate) fn entries(&self) -> &[(Aabb<N>, u64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PagedRTree, SearchStats};
    use cf_storage::StorageEngine;

    fn iv(lo: f64, hi: f64) -> Aabb<1> {
        Aabb::new([lo], [hi])
    }

    /// A page-sized buffer filled with `entries` in order.
    fn buffer<const N: usize>(entries: &[(Aabb<N>, u64)]) -> RStarTree<N> {
        let mut tree = RStarTree::new(RTreeConfig::page_sized::<N>());
        for &(b, d) in entries {
            tree.insert(b, d);
        }
        tree
    }

    /// The buffer persisted to a fresh in-memory engine, with its engine.
    fn persisted<const N: usize>(tree: &RStarTree<N>) -> (StorageEngine, PagedRTree<N>) {
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(tree, &engine).expect("persist");
        (engine, paged)
    }

    fn search<const N: usize>(tree: &RStarTree<N>, q: &Aabb<N>) -> Vec<u64> {
        let (engine, paged) = persisted(tree);
        let mut hits = paged.search_collect(&engine, q).expect("search");
        hits.sort_unstable();
        hits
    }

    fn linear<const N: usize>(tree: &RStarTree<N>, q: &Aabb<N>) -> Vec<u64> {
        let mut want: Vec<u64> = tree
            .entries()
            .iter()
            .filter(|(b, _)| b.intersects(q))
            .map(|&(_, d)| d)
            .collect();
        want.sort_unstable();
        want
    }

    #[test]
    fn empty_tree_search() {
        let tree: RStarTree<1> = buffer(&[]);
        assert!(tree.is_empty());
        assert_eq!(search(&tree, &iv(0.0, 1.0)), Vec::<u64>::new());
        let (_, paged) = persisted(&tree);
        assert_eq!((paged.height(), paged.num_pages()), (1, 1));
    }

    #[test]
    fn insert_and_search_small() {
        let entries: Vec<_> = (0..20u64)
            .map(|i| (iv(i as f64, i as f64 + 0.5), i))
            .collect();
        let tree = buffer(&entries);
        assert_eq!(tree.len(), 20);
        assert_eq!(search(&tree, &iv(5.2, 7.1)), vec![5, 6, 7]);
        // Point query at an interval boundary (closed semantics).
        assert_eq!(search(&tree, &iv(3.5, 3.5)), vec![3]);
    }

    #[test]
    fn search_matches_linear_scan_on_random_data() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut tree: RStarTree<1> = buffer(&[]);
        for i in 0..500u64 {
            let lo: f64 = rng.gen_range(0.0..100.0);
            tree.insert(iv(lo, lo + rng.gen_range(0.0..5.0)), i);
        }
        let (engine, paged) = persisted(&tree);
        for _ in 0..50 {
            let qlo: f64 = rng.gen_range(-5.0..105.0);
            let q = iv(qlo, qlo + rng.gen_range(0.0..10.0));
            let mut got = paged.search_collect(&engine, &q).expect("search");
            got.sort_unstable();
            assert_eq!(got, linear(&tree, &q));
        }
    }

    #[test]
    fn search_matches_linear_scan_2d() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut tree: RStarTree<2> = buffer(&[]);
        for i in 0..800u64 {
            let x: f64 = rng.gen_range(0.0..100.0);
            let y: f64 = rng.gen_range(0.0..100.0);
            let hi = [x + rng.gen_range(0.0..3.0), y + rng.gen_range(0.0..3.0)];
            tree.insert(Aabb::new([x, y], hi), i);
        }
        let (engine, paged) = persisted(&tree);
        for _ in 0..30 {
            let x: f64 = rng.gen_range(0.0..100.0);
            let y: f64 = rng.gen_range(0.0..100.0);
            let q = Aabb::new([x, y], [x + 10.0, y + 10.0]);
            let mut got = paged.search_collect(&engine, &q).expect("search");
            got.sort_unstable();
            assert_eq!(got, linear(&tree, &q));
        }
    }

    #[test]
    fn duplicate_boxes_are_all_found() {
        let entries: Vec<_> = (0..500u64).map(|i| (iv(1.0, 2.0), i)).collect();
        let tree = buffer(&entries);
        assert_eq!(search(&tree, &iv(1.5, 1.5)), (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn page_sized_config_matches_layout() {
        // One entry past a full page: two leaves under a root, for both
        // the 1-D fanout (4096 - 8) / 24 = 170 and the 2-D (4096 - 8) / 40 = 102.
        let tree: RStarTree<1> = buffer(
            &(0..171u64)
                .map(|i| (iv(i as f64, i as f64), i))
                .collect::<Vec<_>>(),
        );
        let (_, paged) = persisted(&tree);
        assert_eq!((paged.height(), paged.num_pages()), (2, 3));
        let tree: RStarTree<2> = buffer(
            &(0..103u64)
                .map(|i| (Aabb::new([i as f64, 0.0], [i as f64, 1.0]), i))
                .collect::<Vec<_>>(),
        );
        let (_, paged) = persisted(&tree);
        assert_eq!((paged.height(), paged.num_pages()), (2, 3));
    }

    #[test]
    fn search_stats_count_visits() {
        let entries: Vec<_> = (0..1000u64)
            .map(|i| (iv(i as f64, i as f64 + 0.5), i))
            .collect();
        let (engine, paged) = persisted(&buffer(&entries));
        let stats = paged
            .search(&engine, &iv(0.0, 0.1), |_, _| {})
            .expect("search");
        assert_eq!(
            stats,
            SearchStats {
                nodes_visited: paged.height() as u64,
                results: 1
            }
        );
        // A full-range query touches every node.
        let stats = paged
            .search(&engine, &iv(-1.0, 1001.0), |_, _| {})
            .expect("search");
        assert_eq!(stats.nodes_visited as usize, paged.num_pages());
        assert_eq!(stats.results, 1000);
    }

    #[test]
    #[should_panic(expected = "empty MBR")]
    fn insert_empty_mbr_panics() {
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::page_sized::<1>());
        tree.insert(Aabb::EMPTY, 0);
    }
}
