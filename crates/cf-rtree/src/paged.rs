//! The R\*-tree persisted to disk pages.
//!
//! Each node occupies exactly one 4 KiB page (the paper's setting: node
//! size = page size = 4 KB). Searches fault node pages through the
//! buffer pool, so every reported page access is a real traversal cost.
//!
//! Page layout (little-endian):
//!
//! ```text
//! offset 0  u32   level (0 = leaf)
//! offset 4  u32   entry count
//! offset 8  entry[count], each:
//!             f64 lo[N], f64 hi[N], u64 child
//! ```
//!
//! `child` is a page id for internal nodes and an opaque payload for
//! leaves (the value indexes pack cell indexes or subfield record ranges
//! into it).
//!
//! Besides persisting a built tree ([`PagedRTree::persist`]), it supports
//! **incremental maintenance** directly against pages:
//! [`PagedRTree::insert`] (choose-subtree + R\* split, read-modify-write
//! along the root-to-leaf path) and [`PagedRTree::remove`]. Incremental
//! deletes do not condense underfull pages (as in many production GiST /
//! R-tree implementations); ancestor MBRs are shrunk opportunistically
//! and always remain supersets of their subtrees, which preserves search
//! correctness.

use crate::node::{ChildRef, NodeEntry};
use crate::split::{choose_subtree, rstar_split};
use crate::tree::{entry_size, RStarTree, RTreeConfig, SearchStats, NODE_HEADER_SIZE};
use cf_geom::Aabb;
use cf_storage::{codec, CfError, CfResult, Counter, PageBuf, PageId, StorageEngine, PAGE_SIZE};

/// An R\*-tree stored on pages of a [`StorageEngine`].
#[derive(Debug, Clone)]
pub struct PagedRTree<const N: usize> {
    root_page: PageId,
    height: u32,
    len: usize,
    num_pages: usize,
    /// The contiguous page run [`PagedRTree::persist`] wrote this tree
    /// onto, when known — `None` after [`PagedRTree::from_parts`] (the
    /// catalog does not record allocations). Lets a rebuild hand the
    /// dead tree back to the engine's freelist.
    run: Option<(PageId, usize)>,
    /// `rtree_node_visits_total{plane="paged"}` in the engine's registry;
    /// `None` until attached (trees persisted through [`PagedRTree::persist`]
    /// attach automatically, catalog reopens via
    /// [`PagedRTree::attach_metrics`]).
    nodes_counter: Option<Counter>,
}

/// Decoded form of one node page.
struct RawNode<const N: usize> {
    level: u32,
    entries: Vec<(Aabb<N>, u64)>,
}

impl<const N: usize> RawNode<N> {
    fn mbr(&self) -> Aabb<N> {
        Aabb::hull(self.entries.iter().map(|&(b, _)| b))
    }
}

impl<const N: usize> PagedRTree<N> {
    /// Maximum entries that fit a page for this dimension. Public for
    /// the crate's property tests.
    pub const fn page_fanout() -> usize {
        (PAGE_SIZE - NODE_HEADER_SIZE) / entry_size(N)
    }

    /// Serializes `tree` onto freshly allocated pages of `engine`.
    ///
    /// Nodes are written level by level, leaves first, so the leaf level
    /// is physically contiguous (as a packed disk-resident index would
    /// be).
    ///
    /// # Panics
    ///
    /// Panics if the tree's fanout exceeds the page capacity.
    pub fn persist(tree: &RStarTree<N>, engine: &StorageEngine) -> CfResult<Self> {
        assert!(
            tree.config().max_entries <= Self::page_fanout(),
            "tree fanout {} exceeds page capacity {}",
            tree.config().max_entries,
            Self::page_fanout()
        );

        // Collect reachable nodes grouped by level.
        let root_idx = tree.root_index();
        let height = tree.height();
        let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); height as usize];
        let mut stack = vec![root_idx];
        while let Some(idx) = stack.pop() {
            let node = tree.node(idx);
            by_level[node.level as usize].push(idx);
            if !node.is_leaf() {
                for e in &node.entries {
                    stack.push(e.child.node());
                }
            }
        }

        // Assign page ids level by level (leaves first) from one
        // contiguous run.
        let total: usize = by_level.iter().map(|v| v.len()).sum();
        let first = engine.allocate_run(total)?;
        let mut page_of = std::collections::HashMap::with_capacity(total);
        let mut next = first.0;
        for level in &by_level {
            for &idx in level {
                page_of.insert(idx, PageId(next));
                next += 1;
            }
        }

        // Write every node.
        let mut buf: PageBuf = [0u8; PAGE_SIZE];
        for level in &by_level {
            for &idx in level {
                let node = tree.node(idx);
                buf.fill(0);
                codec::put_u32(&mut buf, 0, node.level);
                codec::put_u32(&mut buf, 4, node.entries.len() as u32);
                let mut off = NODE_HEADER_SIZE;
                for e in &node.entries {
                    for d in 0..N {
                        off = codec::put_f64(&mut buf, off, e.mbr.lo[d]);
                    }
                    for d in 0..N {
                        off = codec::put_f64(&mut buf, off, e.mbr.hi[d]);
                    }
                    let child = match e.child {
                        ChildRef::Data(v) => v,
                        ChildRef::Node(c) => page_of[&c].0,
                    };
                    off = codec::put_u64(&mut buf, off, child);
                }
                // Buffered: bulk persistence goes through the pool's
                // write-back path; callers flush/sync for durability.
                engine.write_page_buffered(page_of[&idx], &buf)?;
            }
        }

        let mut tree = Self {
            root_page: page_of[&root_idx],
            height,
            len: tree.len(),
            num_pages: total,
            run: Some((first, total)),
            nodes_counter: None,
        };
        tree.attach_metrics(engine);
        Ok(tree)
    }

    /// Builds a page-fanout tree ([`RTreeConfig::page_sized`]: one node
    /// per page, the paper's setting) over `entries` by one-by-one R\*
    /// insertion in iteration order, then [`PagedRTree::persist`]s it.
    pub fn build(
        engine: &StorageEngine,
        entries: impl IntoIterator<Item = (Aabb<N>, u64)>,
    ) -> CfResult<Self> {
        let mut tree = RStarTree::new(RTreeConfig::page_sized::<N>());
        for (mbr, data) in entries {
            tree.insert(mbr, data);
        }
        Self::persist(&tree, engine)
    }

    /// Number of data entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the tree holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Id of the root page (entry point for custom traversals).
    pub fn root_page_id(&self) -> PageId {
        self.root_page
    }

    /// Invokes `f(mbr, child, is_leaf)` for every entry of the node at
    /// `page` (one buffered page read). `child` is a page id when
    /// `is_leaf` is false and the data payload otherwise.
    pub fn for_each_entry(
        &self,
        engine: &StorageEngine,
        page: PageId,
        mut f: impl FnMut(&Aabb<N>, u64, bool),
    ) -> CfResult<()> {
        let node = Self::read_node(engine, page)?;
        let is_leaf = node.level == 0;
        for (mbr, child) in &node.entries {
            f(mbr, *child, is_leaf);
        }
        Ok(())
    }

    /// Dismantles the handle into catalog fields
    /// `(root_page, height, len, num_pages)` for persistence in a
    /// database catalog; [`PagedRTree::from_parts`] is the inverse.
    pub fn to_parts(&self) -> (u64, u32, u64, u64) {
        (
            self.root_page.0,
            self.height,
            self.len as u64,
            self.num_pages as u64,
        )
    }

    /// Reattaches to a tree previously persisted in this engine (or in a
    /// file-backed engine reopened by a later process) from its catalog
    /// fields. The caller is responsible for passing fields that came
    /// from [`PagedRTree::to_parts`] on the same storage.
    pub fn from_parts(root_page: u64, height: u32, len: u64, num_pages: u64) -> Self {
        Self {
            root_page: PageId(root_page),
            height,
            len: len as usize,
            num_pages: num_pages as usize,
            run: None,
            nodes_counter: None,
        }
    }

    /// The contiguous page run this tree was persisted onto, as
    /// `(first page, page count)`, or `None` when unknown (trees
    /// reattached through [`PagedRTree::from_parts`]). Pages later
    /// allocated by incremental splits are *not* part of the run; a
    /// rebuild that frees the run leaks them until a full rebuild of
    /// the storage.
    pub fn page_run(&self) -> Option<(PageId, usize)> {
        self.run
    }

    /// Binds this tree's node-visit counter
    /// (`rtree_node_visits_total{plane="paged"}`) to `engine`'s metrics
    /// registry. [`PagedRTree::persist`] does this automatically; call it
    /// after [`PagedRTree::from_parts`] so catalog-reopened trees report
    /// into the engine they were reattached to.
    pub fn attach_metrics(&mut self, engine: &StorageEngine) {
        self.nodes_counter = Some(
            engine
                .metrics()
                .counter_with("rtree_node_visits_total", &[("plane", "paged")]),
        );
    }

    /// Tree height (1 = a single leaf page).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pages occupied by the index (its disk size).
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    // ------------------------------------------------------------------
    // Node page I/O
    // ------------------------------------------------------------------

    /// Validates a node header decoded from raw page bytes: entry
    /// counts past the page fanout or absurd levels mean the page is
    /// not (or no longer) an R-tree node of this dimension.
    fn check_header(page: PageId, level: u32, count: usize) -> CfResult<()> {
        if count > Self::page_fanout() {
            return Err(CfError::corrupt(
                page,
                format!(
                    "R-tree node entry count {count} exceeds page fanout {}",
                    Self::page_fanout()
                ),
            ));
        }
        if level >= 64 {
            return Err(CfError::corrupt(
                page,
                format!("implausible R-tree node level {level}"),
            ));
        }
        Ok(())
    }

    /// Decodes entry `i` of a node page. The bounds are bytes from disk:
    /// `lo > hi` or a NaN is reported as corruption here, where
    /// [`Aabb::new`] would assert.
    #[inline(always)]
    fn decode_entry(page: PageId, buf: &PageBuf, i: usize) -> CfResult<(Aabb<N>, u64)> {
        let mut off = NODE_HEADER_SIZE + i * entry_size(N);
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        for slot in lo.iter_mut() {
            *slot = codec::get_f64(buf, off);
            off += 8;
        }
        for slot in hi.iter_mut() {
            *slot = codec::get_f64(buf, off);
            off += 8;
        }
        if (0..N).all(|d| lo[d] <= hi[d]) {
            Ok((Aabb { lo, hi }, codec::get_u64(buf, off)))
        } else {
            Err(Self::invalid_bounds(page, i))
        }
    }

    /// The error of [`PagedRTree::decode_entry`], kept out of the search
    /// loop's inlined body.
    #[cold]
    #[inline(never)]
    fn invalid_bounds(page: PageId, i: usize) -> CfError {
        CfError::corrupt(
            page,
            format!("R-tree node entry {i} has invalid bounds (lo > hi or NaN)"),
        )
    }

    fn read_node(engine: &StorageEngine, page: PageId) -> CfResult<RawNode<N>> {
        engine.try_with_page(page, |buf| {
            let level = codec::get_u32(buf, 0);
            let count = codec::get_u32(buf, 4) as usize;
            Self::check_header(page, level, count)?;
            let mut entries = Vec::with_capacity(count);
            for i in 0..count {
                entries.push(Self::decode_entry(page, buf, i)?);
            }
            Ok(RawNode { level, entries })
        })
    }

    fn write_node(engine: &StorageEngine, page: PageId, node: &RawNode<N>) -> CfResult<()> {
        debug_assert!(node.entries.len() <= Self::page_fanout());
        let mut buf: PageBuf = [0u8; PAGE_SIZE];
        codec::put_u32(&mut buf, 0, node.level);
        codec::put_u32(&mut buf, 4, node.entries.len() as u32);
        let mut off = NODE_HEADER_SIZE;
        for (mbr, child) in &node.entries {
            for d in 0..N {
                off = codec::put_f64(&mut buf, off, mbr.lo[d]);
            }
            for d in 0..N {
                off = codec::put_f64(&mut buf, off, mbr.hi[d]);
            }
            off = codec::put_u64(&mut buf, off, *child);
        }
        engine.write_page(page, &buf)
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    /// Inserts an entry directly into the paged tree.
    ///
    /// Descends by the R\* choose-subtree rule (minimum overlap
    /// enlargement above the leaves, minimum area enlargement higher
    /// up), splits overflowing pages with the R\* margin/overlap split,
    /// and grows a new root page when the root splits. Every touched
    /// node is one page read/write through the buffer pool.
    pub fn insert(&mut self, engine: &StorageEngine, mbr: Aabb<N>, data: u64) -> CfResult<()> {
        assert!(!mbr.is_empty(), "cannot insert an empty MBR");
        // Descend to the leaf, keeping the path and chosen entry slots.
        let mut path: Vec<(PageId, RawNode<N>, usize)> = Vec::new();
        let mut cur = self.root_page;
        loop {
            let node = Self::read_node(engine, cur)?;
            if node.level == 0 {
                path.push((cur, node, usize::MAX));
                break;
            }
            let choice = Self::choose_entry(&node, &mbr);
            let child = PageId(node.entries[choice].1);
            path.push((cur, node, choice));
            cur = child;
        }

        // Insert into the leaf, then walk up handling overflow.
        let mut pending: Option<(Aabb<N>, u64)> = Some((mbr, data));
        let mut child_hull: Option<Aabb<N>> = None;
        while let Some((page, mut node, choice)) = path.pop() {
            // Refresh the MBR of the child we descended through.
            if let Some(hull) = child_hull.take() {
                node.entries[choice].0 = hull;
            }
            if let Some((e_mbr, e_child)) = pending.take() {
                node.entries.push((e_mbr, e_child));
                if node.entries.len() > Self::page_fanout() {
                    let sibling = self.split_page(engine, page, &mut node)?;
                    pending = Some(sibling);
                }
            }
            if pending.is_none() && child_hull.is_none() {
                // Plain MBR refresh / insert without split.
                Self::write_node(engine, page, &node)?;
            }
            child_hull = Some(node.mbr());
            if pending.is_some() && path.is_empty() {
                // Root split: grow the tree.
                let (s_mbr, s_page) = pending.take().expect("checked above");
                let old_root_hull = child_hull.take().expect("set above");
                let new_root = RawNode {
                    level: node.level + 1,
                    entries: vec![(old_root_hull, page.0), (s_mbr, s_page)],
                };
                let new_root_page = engine.allocate_page()?;
                Self::write_node(engine, new_root_page, &new_root)?;
                self.root_page = new_root_page;
                self.height += 1;
                self.num_pages += 1;
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Splits an overflowing decoded node: the first group is written
    /// back to `page`, the second to a freshly allocated page; returns
    /// the sibling's `(mbr, page id)` entry for the parent.
    fn split_page(
        &mut self,
        engine: &StorageEngine,
        page: PageId,
        node: &mut RawNode<N>,
    ) -> CfResult<(Aabb<N>, u64)> {
        let min_entries = (Self::page_fanout() * 2 / 5).max(2);
        let entries: Vec<NodeEntry<N>> = node
            .entries
            .drain(..)
            .map(|(mbr, child)| NodeEntry {
                mbr,
                // Payload is opaque to the split heuristics.
                child: ChildRef::Data(child),
            })
            .collect();
        let split = rstar_split(entries, min_entries);
        node.entries = split
            .first
            .into_iter()
            .map(|e| (e.mbr, e.child.data()))
            .collect();
        let sibling = RawNode {
            level: node.level,
            entries: split
                .second
                .into_iter()
                .map(|e| (e.mbr, e.child.data()))
                .collect(),
        };
        Self::write_node(engine, page, node)?;
        let sibling_page = engine.allocate_page()?;
        Self::write_node(engine, sibling_page, &sibling)?;
        self.num_pages += 1;
        Ok((sibling.mbr(), sibling_page.0))
    }

    /// Choose-subtree on a decoded node, over all of its entries.
    fn choose_entry(node: &RawNode<N>, mbr: &Aabb<N>) -> usize {
        let all = node.entries.len();
        choose_subtree(&node.entries, |e| e.0, node.level == 1, all, mbr)
    }

    /// Removes one entry matching `(mbr, data)` exactly; returns whether
    /// an entry was removed.
    ///
    /// Underfull pages are not condensed; ancestor MBRs are shrunk where
    /// possible and otherwise left as (correct) supersets.
    pub fn remove(&mut self, engine: &StorageEngine, mbr: &Aabb<N>, data: u64) -> CfResult<bool> {
        let Some(path) = self.find_leaf_path(engine, self.root_page, mbr, data)? else {
            return Ok(false);
        };
        // path: (page, chosen entry index) from root to leaf; last entry
        // index refers to the matching entry in the leaf.
        let mut child_hull: Option<Aabb<N>> = None;
        for (depth, &(page, entry_idx)) in path.iter().enumerate().rev() {
            let mut node = Self::read_node(engine, page)?;
            if depth == path.len() - 1 {
                node.entries.remove(entry_idx);
            } else {
                let hull = child_hull.take().expect("child processed first");
                if !hull.is_empty() {
                    node.entries[entry_idx].0 = hull;
                }
                // An empty child keeps its stale (superset) MBR.
            }
            Self::write_node(engine, page, &node)?;
            child_hull = Some(node.mbr());
        }
        self.len -= 1;
        Ok(true)
    }

    /// DFS for the leaf holding `(mbr, data)`; returns the path as
    /// `(page, entry index)` pairs ending with the matching leaf slot.
    fn find_leaf_path(
        &self,
        engine: &StorageEngine,
        page: PageId,
        mbr: &Aabb<N>,
        data: u64,
    ) -> CfResult<Option<Vec<(PageId, usize)>>> {
        let node = Self::read_node(engine, page)?;
        if node.level == 0 {
            let idx = node
                .entries
                .iter()
                .position(|&(b, d)| d == data && b == *mbr);
            return Ok(idx.map(|idx| vec![(page, idx)]));
        }
        for (j, &(b, child)) in node.entries.iter().enumerate() {
            if b.contains(mbr) {
                if let Some(mut rest) = self.find_leaf_path(engine, PageId(child), mbr, data)? {
                    rest.insert(0, (page, j));
                    return Ok(Some(rest));
                }
            }
        }
        Ok(None)
    }

    /// Invokes `f(data, mbr)` for every entry intersecting `query`.
    ///
    /// Every visited node costs one logical page read through the buffer
    /// pool; `SearchStats::nodes_visited` equals that count.
    pub fn search(
        &self,
        engine: &StorageEngine,
        query: &Aabb<N>,
        mut f: impl FnMut(u64, &Aabb<N>),
    ) -> CfResult<SearchStats> {
        let mut stats = SearchStats::default();
        let mut stack = vec![self.root_page];
        while let Some(page_id) = stack.pop() {
            stats.nodes_visited += 1;
            engine.try_with_page(page_id, |page| {
                let level = codec::get_u32(page, 0);
                let count = codec::get_u32(page, 4) as usize;
                Self::check_header(page_id, level, count)?;
                for i in 0..count {
                    let (mbr, child) = Self::decode_entry(page_id, page, i)?;
                    if mbr.intersects(query) {
                        if level == 0 {
                            stats.results += 1;
                            f(child, &mbr);
                        } else {
                            stack.push(PageId(child));
                        }
                    }
                }
                Ok(())
            })?;
        }
        if let Some(counter) = &self.nodes_counter {
            counter.add(stats.nodes_visited);
        }
        Ok(stats)
    }

    /// Collects the payloads of all entries intersecting `query`.
    pub fn search_collect(&self, engine: &StorageEngine, query: &Aabb<N>) -> CfResult<Vec<u64>> {
        let mut out = Vec::with_capacity(self.len.min(64));
        self.search(engine, query, |d, _| out.push(d))?;
        Ok(out)
    }

    /// Reusable-buffer variant of [`PagedRTree::search_collect`]: clears
    /// `out` and fills it, keeping its capacity across calls.
    pub fn search_into(
        &self,
        engine: &StorageEngine,
        query: &Aabb<N>,
        out: &mut Vec<u64>,
    ) -> CfResult<SearchStats> {
        out.clear();
        self.search(engine, query, |d, _| out.push(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeConfig;

    fn iv(lo: f64, hi: f64) -> Aabb<1> {
        Aabb::new([lo], [hi])
    }

    fn build_tree(n: u64) -> RStarTree<1> {
        let mut tree = RStarTree::new(RTreeConfig::new(16));
        for i in 0..n {
            tree.insert(iv(i as f64, i as f64 + 1.5), i);
        }
        tree
    }

    #[test]
    fn paged_search_matches_in_memory() {
        let tree = build_tree(1000);
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&tree, &engine).expect("persist");
        assert_eq!(paged.len(), 1000);
        assert_eq!(paged.height(), tree.height());

        for qlo in [0.0, 123.4, 500.0, 999.0, 2000.0] {
            let q = iv(qlo, qlo + 7.0);
            let mut got = paged.search_collect(&engine, &q).expect("search");
            got.sort_unstable();
            let mut want = tree.search_collect(&q);
            want.sort_unstable();
            assert_eq!(got, want, "query {qlo}");
        }
    }

    #[test]
    fn search_cost_is_logarithmic_not_linear() {
        let tree = build_tree(10_000);
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&tree, &engine).expect("persist");
        engine.clear_cache();
        engine.reset_stats();
        let stats = paged
            .search(&engine, &iv(5000.0, 5001.0), |_, _| {})
            .expect("search");
        // A point-ish query on 10k sorted intervals should touch a tiny
        // fraction of the index pages.
        assert!(
            stats.nodes_visited < paged.num_pages() as u64 / 10,
            "visited {} of {} pages",
            stats.nodes_visited,
            paged.num_pages()
        );
        // Logical reads through the pool equal visited nodes.
        assert_eq!(engine.io_stats().logical_reads(), stats.nodes_visited);
    }

    #[test]
    fn node_entry_with_invalid_bounds_is_a_typed_error_not_a_panic() {
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&build_tree(40), &engine).expect("persist");
        // A well-formed leaf over garbage bounds, written through the
        // engine (so its checksum is valid): what a stale catalog
        // pointing at a recycled page run reads back.
        for (lo, hi) in [(5.0, 1.0), (f64::NAN, 1.0), (0.0, f64::NAN)] {
            let leaf = RawNode {
                level: 0,
                entries: vec![(Aabb { lo: [lo], hi: [hi] }, 7)],
            };
            PagedRTree::write_node(&engine, paged.root_page_id(), &leaf).expect("write");
            let err = paged
                .search(&engine, &iv(0.0, 10.0), |_, _| {})
                .expect_err("search over an invalid entry");
            assert!(err.is_corrupt(), "lo={lo} hi={hi}: {err}");
            let err = crate::FrozenTree::from_paged(&engine, &paged)
                .expect_err("flattening an invalid entry");
            assert!(err.is_corrupt(), "lo={lo} hi={hi}: {err}");
        }
    }

    #[test]
    fn paged_2d_round_trip() {
        let mut tree: RStarTree<2> = RStarTree::new(RTreeConfig::new(8));
        for i in 0..300u64 {
            let x = (i % 20) as f64;
            let y = (i / 20) as f64;
            tree.insert(Aabb::new([x, y], [x + 0.9, y + 0.9]), i);
        }
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&tree, &engine).expect("persist");
        let q = Aabb::new([3.5, 3.5], [6.5, 6.5]);
        let mut got = paged.search_collect(&engine, &q).expect("search");
        got.sort_unstable();
        let mut want = tree.search_collect(&q);
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn empty_tree_persists() {
        let tree: RStarTree<1> = RStarTree::default();
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&tree, &engine).expect("persist");
        assert!(paged.is_empty());
        assert_eq!(
            paged
                .search_collect(&engine, &iv(0.0, 1.0))
                .expect("search"),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn fanout_constants() {
        assert_eq!(PagedRTree::<1>::page_fanout(), 170);
        assert_eq!(PagedRTree::<2>::page_fanout(), 102);
        assert_eq!(PagedRTree::<3>::page_fanout(), 73);
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_fanout_rejected() {
        let tree: RStarTree<1> = RStarTree::new(RTreeConfig::new(500));
        let engine = StorageEngine::in_memory();
        let _ = PagedRTree::persist(&tree, &engine).expect("persist");
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    #[test]
    fn incremental_insert_from_empty() {
        let engine = StorageEngine::in_memory();
        let tree: RStarTree<1> = RStarTree::default();
        let mut paged = PagedRTree::persist(&tree, &engine).expect("persist");
        for i in 0..2000u64 {
            paged
                .insert(&engine, iv(i as f64, i as f64 + 1.5), i)
                .expect("insert");
        }
        assert_eq!(paged.len(), 2000);
        assert!(paged.height() >= 2);

        // Agreement with a brute-force model.
        for qlo in [0.0, 555.5, 1999.0, 5000.0] {
            let q = iv(qlo, qlo + 10.0);
            let mut got = paged.search_collect(&engine, &q).expect("search");
            got.sort_unstable();
            let want: Vec<u64> = (0..2000u64)
                .filter(|&i| i as f64 <= q.hi[0] && q.lo[0] <= i as f64 + 1.5)
                .collect();
            assert_eq!(got, want, "query {qlo}");
        }
    }

    #[test]
    fn incremental_insert_into_persisted_tree() {
        let tree = build_tree(500);
        let engine = StorageEngine::in_memory();
        let mut paged = PagedRTree::persist(&tree, &engine).expect("persist");
        for i in 500..800u64 {
            paged
                .insert(&engine, iv(i as f64, i as f64 + 1.5), i)
                .expect("insert");
        }
        assert_eq!(paged.len(), 800);
        let mut got = paged
            .search_collect(&engine, &iv(0.0, 1000.0))
            .expect("search");
        got.sort_unstable();
        assert_eq!(got, (0..800).collect::<Vec<u64>>());
    }

    #[test]
    fn incremental_remove() {
        let tree = build_tree(300);
        let engine = StorageEngine::in_memory();
        let mut paged = PagedRTree::persist(&tree, &engine).expect("persist");
        for i in (0..300u64).step_by(3) {
            assert!(paged
                .remove(&engine, &iv(i as f64, i as f64 + 1.5), i)
                .expect("remove"));
        }
        assert_eq!(paged.len(), 200);
        assert!(
            !paged.remove(&engine, &iv(0.0, 1.5), 0).expect("remove"),
            "already removed"
        );
        let mut got = paged
            .search_collect(&engine, &iv(-10.0, 1000.0))
            .expect("search");
        got.sort_unstable();
        let want: Vec<u64> = (0..300).filter(|i| i % 3 != 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_everything_leaves_empty_tree() {
        let boxes: Vec<Aabb<2>> = (0..600)
            .map(|i| {
                let x = (i % 32) as f64;
                let y = (i / 32) as f64;
                Aabb::new([x, y], [x + 0.5, y + 0.5])
            })
            .collect();
        let engine = StorageEngine::in_memory();
        let entries = boxes.iter().enumerate().map(|(i, b)| (*b, i as u64));
        let mut paged = PagedRTree::build(&engine, entries).expect("build");
        assert!(paged.height() > 1);
        let everything = Aabb::new([-1.0, -1.0], [40.0, 40.0]);
        for (i, b) in boxes.iter().enumerate() {
            assert!(paged.remove(&engine, b, i as u64).expect("remove"));
            assert!(!paged.remove(&engine, b, i as u64).expect("remove"));
        }
        assert!(paged.is_empty());
        let stats = paged
            .search(&engine, &everything, |_, _| {})
            .expect("search");
        assert_eq!(stats.results, 0);
        // The emptied pages take new entries again.
        paged.insert(&engine, boxes[7], 7).expect("insert");
        assert_eq!(
            paged.search_collect(&engine, &everything).expect("search"),
            vec![7]
        );
    }

    #[test]
    fn mixed_incremental_ops_match_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let engine = StorageEngine::in_memory();
        let tree: RStarTree<2> = RStarTree::default();
        let mut paged: PagedRTree<2> = PagedRTree::persist(&tree, &engine).expect("persist");
        let mut model: Vec<(Aabb<2>, u64)> = Vec::new();
        let mut next = 0u64;
        for _ in 0..1500 {
            if model.is_empty() || rng.gen_bool(0.7) {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                let b = Aabb::new(
                    [x, y],
                    [x + rng.gen_range(0.0..4.0), y + rng.gen_range(0.0..4.0)],
                );
                paged.insert(&engine, b, next).expect("insert");
                model.push((b, next));
                next += 1;
            } else {
                let victim = rng.gen_range(0..model.len());
                let (b, d) = model.swap_remove(victim);
                assert!(paged.remove(&engine, &b, d).expect("remove"));
            }
        }
        assert_eq!(paged.len(), model.len());
        for _ in 0..25 {
            let x: f64 = rng.gen_range(0.0..100.0);
            let y: f64 = rng.gen_range(0.0..100.0);
            let q = Aabb::new([x, y], [x + 15.0, y + 15.0]);
            let mut got = paged.search_collect(&engine, &q).expect("search");
            got.sort_unstable();
            let mut want: Vec<u64> = model
                .iter()
                .filter(|(b, _)| b.intersects(&q))
                .map(|&(_, d)| d)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn incremental_inserts_stay_page_bounded() {
        // Every page keeps at most `page_fanout` entries after many
        // inserts (the split invariant) — verified by searching with a
        // universe query and checking visit counts stay plausible.
        let engine = StorageEngine::in_memory();
        let tree: RStarTree<1> = RStarTree::default();
        let mut paged = PagedRTree::persist(&tree, &engine).expect("persist");
        let n = 3000u64;
        for i in 0..n {
            // Clustered values stress the split paths.
            let v = (i % 100) as f64 + (i as f64) * 1e-4;
            paged.insert(&engine, iv(v, v + 0.5), i).expect("insert");
        }
        let stats = paged
            .search(&engine, &iv(-1.0, 200.0), |_, _| {})
            .expect("search");
        assert_eq!(stats.results, n);
        // A tree with fanout 170 holding 3000 entries needs at least
        // ceil(3000/170) = 18 leaf pages and visits every page once.
        assert!(stats.nodes_visited >= 18);
        assert!(stats.nodes_visited as usize <= paged.num_pages());
    }
}
