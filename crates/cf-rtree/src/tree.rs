//! The in-memory R\*-tree, built by one-by-one insertion. No product
//! path calls it: every index packs its tree with
//! [`PagedRTree::build`](crate::PagedRTree::build). It is kept, with
//! `split.rs` and `node.rs`, for the benchmark ladder's staged trace,
//! which fills one and hands it to
//! [`PagedRTree::persist`](crate::PagedRTree::persist), until that
//! trace reads the library's own build timings (ROADMAP).

use crate::node::{ChildRef, Node, NodeEntry};
use crate::split::{choose_subtree, rstar_split};
use crate::{PagedRTree, SearchStats};
use cf_geom::Aabb;
use std::collections::VecDeque;

/// Tuning parameters of the tree.
#[derive(Debug, Clone)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node (`m`), R\* recommends 40 % of `M`.
    pub min_entries: usize,
    /// Entries removed by forced reinsertion (`p`), R\* recommends 30 %.
    pub reinsert_count: usize,
}

impl RTreeConfig {
    /// Config with `M = max_entries` and the R\* recommended ratios.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 4`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "max_entries must be at least 4");
        let min_entries = ((max_entries as f64 * 0.4) as usize).max(2);
        let reinsert_count = ((max_entries as f64 * 0.3) as usize).max(1);
        Self {
            max_entries,
            min_entries,
            reinsert_count,
        }
    }

    /// Config whose fanout exactly fills a 4 KiB disk page for dimension
    /// `N` — the faithful reproduction of the paper's disk-based index
    /// (each R\*-tree node is one page).
    pub fn page_sized<const N: usize>() -> Self {
        Self::new(PagedRTree::<N>::page_fanout())
    }
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self::new(64)
    }
}

/// An in-memory R\*-tree over `N`-dimensional boxes with `u64` payloads,
/// built by one-by-one R\* insertion.
#[derive(Debug, Clone)]
pub struct RStarTree<const N: usize> {
    nodes: Vec<Node<N>>,
    root: usize,
    len: usize,
    config: RTreeConfig,
}

impl<const N: usize> Default for RStarTree<N> {
    fn default() -> Self {
        Self::new(RTreeConfig::default())
    }
}

impl<const N: usize> RStarTree<N> {
    /// Creates an empty tree.
    pub fn new(config: RTreeConfig) -> Self {
        Self {
            nodes: vec![Node::new(0)],
            root: 0,
            len: 0,
            config,
        }
    }

    /// Number of data entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the tree holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a single leaf root).
    pub fn height(&self) -> u32 {
        self.nodes[self.root].level + 1
    }

    /// The tree's configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    fn alloc_node(&mut self, node: Node<N>) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts a data item with the given bounding box.
    pub fn insert(&mut self, mbr: Aabb<N>, data: u64) {
        assert!(!mbr.is_empty(), "cannot insert an empty MBR");
        self.len += 1;
        let mut reinserted = vec![false; self.nodes[self.root].level as usize + 2];
        let mut queue: VecDeque<(Aabb<N>, ChildRef, u32)> = VecDeque::new();
        queue.push_back((mbr, ChildRef::Data(data), 0));
        while let Some((mbr, child, level)) = queue.pop_front() {
            self.insert_one(mbr, child, level, &mut reinserted, &mut queue);
        }
    }

    fn insert_one(
        &mut self,
        mbr: Aabb<N>,
        child: ChildRef,
        level: u32,
        reinserted: &mut Vec<bool>,
        queue: &mut VecDeque<(Aabb<N>, ChildRef, u32)>,
    ) {
        // Descend to the node at `level` along the R* choose-subtree path.
        let mut path = vec![self.root];
        while self.nodes[*path.last().expect("non-empty path")].level > level {
            let cur = *path.last().expect("non-empty path");
            path.push(self.choose_subtree(cur, &mbr));
        }
        let target = *path.last().expect("non-empty path");
        debug_assert_eq!(self.nodes[target].level, level, "descended to wrong level");
        self.nodes[target].entries.push(NodeEntry { mbr, child });

        // Walk back up: treat overflows, refresh parent MBRs.
        for i in (0..path.len()).rev() {
            let node_idx = path[i];
            if self.nodes[node_idx].entries.len() > self.config.max_entries {
                let lvl = self.nodes[node_idx].level as usize;
                if lvl >= reinserted.len() {
                    reinserted.resize(lvl + 1, false);
                }
                let is_root = node_idx == self.root;
                if !is_root && !reinserted[lvl] {
                    reinserted[lvl] = true;
                    self.force_reinsert(node_idx, queue);
                } else {
                    self.split_child(&path, i);
                }
            }
            if i > 0 {
                self.refresh_parent_mbr(path[i - 1], node_idx);
            }
        }
    }

    /// R\* ChooseSubtree: pick the child of `node_idx` to descend into.
    fn choose_subtree(&self, node_idx: usize, mbr: &Aabb<N>) -> usize {
        let node = &self.nodes[node_idx];
        debug_assert!(!node.is_leaf());
        let j = choose_subtree(&node.entries, node.level == 1, mbr);
        node.entries[j].child.node()
    }

    /// Forced reinsertion: remove the `p` entries whose centers are
    /// farthest from the node's MBR center and queue them for
    /// reinsertion, closest first ("close reinsert").
    fn force_reinsert(&mut self, node_idx: usize, queue: &mut VecDeque<(Aabb<N>, ChildRef, u32)>) {
        let level = self.nodes[node_idx].level;
        let center = self.nodes[node_idx].mbr().center();
        let mut entries = std::mem::take(&mut self.nodes[node_idx].entries);
        entries.sort_by(|a, b| {
            let da = dist_sq(&a.mbr.center(), &center);
            let db = dist_sq(&b.mbr.center(), &center);
            // Descending: farthest first.
            db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
        });
        let p = self
            .config
            .reinsert_count
            .min(entries.len() - self.config.min_entries);
        let removed: Vec<NodeEntry<N>> = entries.drain(..p).collect();
        self.nodes[node_idx].entries = entries;
        // Close reinsert: enqueue in increasing distance from center.
        for e in removed.into_iter().rev() {
            queue.push_back((e.mbr, e.child, level));
        }
    }

    /// Splits the node at `path[i]`, attaching the new node to its parent
    /// (or growing a new root).
    fn split_child(&mut self, path: &[usize], i: usize) {
        let node_idx = path[i];
        let level = self.nodes[node_idx].level;
        let entries = std::mem::take(&mut self.nodes[node_idx].entries);
        let split = rstar_split(entries, self.config.min_entries);
        self.nodes[node_idx].entries = split.first;
        let new_node = Node {
            level,
            entries: split.second,
        };
        let new_mbr = new_node.mbr();
        let new_idx = self.alloc_node(new_node);

        if node_idx == self.root {
            let old_mbr = self.nodes[node_idx].mbr();
            let new_root = Node {
                level: level + 1,
                entries: vec![
                    NodeEntry {
                        mbr: old_mbr,
                        child: ChildRef::Node(node_idx),
                    },
                    NodeEntry {
                        mbr: new_mbr,
                        child: ChildRef::Node(new_idx),
                    },
                ],
            };
            self.root = self.alloc_node(new_root);
        } else {
            let parent = path[i - 1];
            self.nodes[parent].entries.push(NodeEntry {
                mbr: new_mbr,
                child: ChildRef::Node(new_idx),
            });
            // Parent overflow (if any) is handled when the upward walk
            // reaches it.
        }
    }

    fn refresh_parent_mbr(&mut self, parent: usize, child: usize) {
        let child_mbr = self.nodes[child].mbr();
        let parent_node = &mut self.nodes[parent];
        for e in parent_node.entries.iter_mut() {
            if e.child == ChildRef::Node(child) {
                e.mbr = child_mbr;
                return;
            }
        }
        unreachable!("child {child} not found under parent {parent}");
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Invokes `f(data, mbr)` for every stored entry whose box intersects
    /// `query`, returning search statistics.
    pub(crate) fn search(&self, query: &Aabb<N>, mut f: impl FnMut(u64, &Aabb<N>)) -> SearchStats {
        let mut stats = SearchStats::default();
        let mut stack = vec![self.root];
        while let Some(node_idx) = stack.pop() {
            stats.nodes_visited += 1;
            let node = &self.nodes[node_idx];
            for e in &node.entries {
                if e.mbr.intersects(query) {
                    match e.child {
                        ChildRef::Data(d) => {
                            stats.results += 1;
                            f(d, &e.mbr);
                        }
                        ChildRef::Node(c) => stack.push(c),
                    }
                }
            }
        }
        stats
    }

    /// Collects the payloads of all entries intersecting `query`. Public
    /// for the crate's property tests: products search the paged tree.
    pub fn search_collect(&self, query: &Aabb<N>) -> Vec<u64> {
        // Pre-size from the tree's population: selective queries stay
        // cheap (capped) and broad ones avoid regrowth doublings.
        let mut out = Vec::with_capacity(self.len.min(64));
        self.search(query, |d, _| out.push(d));
        out
    }

    /// Total number of nodes.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ------------------------------------------------------------------
    // Invariant checking (used heavily by tests)
    // ------------------------------------------------------------------

    /// Verifies structural invariants, panicking with a description of
    /// the first violation. Returns the number of data entries found.
    #[cfg(test)]
    fn check_invariants(&self) -> usize {
        let root = &self.nodes[self.root];
        assert!(
            root.entries.len() <= self.config.max_entries,
            "root overflows"
        );
        let count = self.check_node(self.root);
        assert_eq!(
            count, self.len,
            "len mismatch: counted {count}, len {}",
            self.len
        );
        count
    }

    #[cfg(test)]
    fn check_node(&self, node_idx: usize) -> usize {
        let node = &self.nodes[node_idx];
        if node_idx != self.root {
            assert!(
                node.entries.len() >= self.config.min_entries,
                "node {node_idx} underfull: {} < {}",
                node.entries.len(),
                self.config.min_entries
            );
        }
        assert!(
            node.entries.len() <= self.config.max_entries,
            "node {node_idx} overfull"
        );
        if node.is_leaf() {
            for e in &node.entries {
                assert!(matches!(e.child, ChildRef::Data(_)), "leaf holds node ref");
            }
            node.entries.len()
        } else {
            let mut count = 0;
            for e in &node.entries {
                let child = e.child.node();
                assert_eq!(
                    self.nodes[child].level,
                    node.level - 1,
                    "level discontinuity under node {node_idx}"
                );
                assert_eq!(
                    self.nodes[child].mbr(),
                    e.mbr,
                    "stale parent MBR for child {child}"
                );
                count += self.check_node(child);
            }
            count
        }
    }
}

fn dist_sq<const N: usize>(a: &[f64; N], b: &[f64; N]) -> f64 {
    (0..N).map(|d| (a[d] - b[d]) * (a[d] - b[d])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Aabb<1> {
        Aabb::new([lo], [hi])
    }

    #[test]
    fn empty_tree_search() {
        let tree: RStarTree<1> = RStarTree::default();
        assert!(tree.is_empty());
        assert_eq!(tree.search_collect(&iv(0.0, 1.0)), Vec::<u64>::new());
        assert_eq!(tree.height(), 1);
        tree.check_invariants();
    }

    #[test]
    fn insert_and_search_small() {
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::new(4));
        for i in 0..20u64 {
            tree.insert(iv(i as f64, i as f64 + 0.5), i);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 20);
        assert!(tree.height() > 1);

        let mut hits = tree.search_collect(&iv(5.2, 7.1));
        hits.sort_unstable();
        assert_eq!(hits, vec![5, 6, 7]);

        // Point query at an interval boundary (closed semantics).
        let hits = tree.search_collect(&iv(3.5, 3.5));
        assert_eq!(hits, vec![3]);
    }

    #[test]
    fn search_matches_linear_scan_on_random_data() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::new(8));
        let mut items: Vec<(f64, f64, u64)> = Vec::new();
        for i in 0..500u64 {
            let lo: f64 = rng.gen_range(0.0..100.0);
            let hi = lo + rng.gen_range(0.0..5.0);
            items.push((lo, hi, i));
            tree.insert(iv(lo, hi), i);
        }
        tree.check_invariants();
        for _ in 0..50 {
            let qlo: f64 = rng.gen_range(-5.0..105.0);
            let qhi = qlo + rng.gen_range(0.0..10.0);
            let q = iv(qlo, qhi);
            let mut got = tree.search_collect(&q);
            got.sort_unstable();
            let mut want: Vec<u64> = items
                .iter()
                .filter(|&&(lo, hi, _)| lo <= qhi && qlo <= hi)
                .map(|&(_, _, d)| d)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn search_matches_linear_scan_2d() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut tree: RStarTree<2> = RStarTree::new(RTreeConfig::new(16));
        let mut items = Vec::new();
        for i in 0..800u64 {
            let x: f64 = rng.gen_range(0.0..100.0);
            let y: f64 = rng.gen_range(0.0..100.0);
            let b = Aabb::new(
                [x, y],
                [x + rng.gen_range(0.0..3.0), y + rng.gen_range(0.0..3.0)],
            );
            items.push((b, i));
            tree.insert(b, i);
        }
        tree.check_invariants();
        for _ in 0..30 {
            let x: f64 = rng.gen_range(0.0..100.0);
            let y: f64 = rng.gen_range(0.0..100.0);
            let q = Aabb::new([x, y], [x + 10.0, y + 10.0]);
            let mut got = tree.search_collect(&q);
            got.sort_unstable();
            let mut want: Vec<u64> = items
                .iter()
                .filter(|(b, _)| b.intersects(&q))
                .map(|&(_, d)| d)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn duplicate_boxes_are_all_found() {
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::new(4));
        for i in 0..50u64 {
            tree.insert(iv(1.0, 2.0), i);
        }
        tree.check_invariants();
        let mut got = tree.search_collect(&iv(1.5, 1.5));
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn page_sized_config_matches_layout() {
        let c1 = RTreeConfig::page_sized::<1>();
        // (4096 - 8) / 24 = 170
        assert_eq!(c1.max_entries, 170);
        let c2 = RTreeConfig::page_sized::<2>();
        // (4096 - 8) / 40 = 102
        assert_eq!(c2.max_entries, 102);
    }

    #[test]
    fn large_insert_respects_invariants() {
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::new(16));
        for i in 0..5000u64 {
            // Clustered values to force overlap-heavy structure.
            let base = (i % 10) as f64 * 10.0;
            let lo = base + (i as f64 * 0.001) % 5.0;
            tree.insert(iv(lo, lo + 0.2), i);
        }
        assert_eq!(tree.check_invariants(), 5000);
    }

    #[test]
    fn search_stats_count_visits() {
        let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::new(4));
        for i in 0..100u64 {
            tree.insert(iv(i as f64, i as f64 + 0.5), i);
        }
        let stats = tree.search(&iv(0.0, 0.1), |_, _| {});
        assert!(stats.nodes_visited >= tree.height() as u64);
        assert_eq!(stats.results, 1);
        // A full-range query touches every node.
        let stats = tree.search(&iv(-1.0, 101.0), |_, _| {});
        assert_eq!(stats.nodes_visited as usize, tree.node_count());
        assert_eq!(stats.results, 100);
    }

    #[test]
    #[should_panic(expected = "empty MBR")]
    fn insert_empty_mbr_panics() {
        let mut tree: RStarTree<1> = RStarTree::default();
        tree.insert(Aabb::EMPTY, 0);
    }
}
