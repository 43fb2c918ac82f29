//! The packed R-tree on disk pages.
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
//! [`PagedRTree::build`] packs the tree bottom-up and fixes its shape:
//! entries in Sort-Tile-Recursive order over their `2N` corners, every
//! node full but the last of its level, one contiguous page run, leaves
//! first, root last. Sorting by `(lo, hi)` rather than by interval centre
//! keeps node visits at or below the R\* insertion build it replaced
//! (DESIGN.md §8.1). Afterwards only entry boxes change
//! ([`PagedRTree::replace_entry`]), so a tree never gains or loses a
//! page and its run is derived from the root and the page count.
#![deny(clippy::unwrap_used, clippy::panic)]

use crate::tree::RStarTree;
use cf_geom::Aabb;
use cf_storage::{codec, CfError, CfResult, Counter, PageBuf, PageId, StorageEngine, PAGE_SIZE};
use std::cmp::Ordering;

/// On-page node header size: `level: u32` + `count: u32`.
const NODE_HEADER_SIZE: usize = 8;

/// On-page entry size for dimension `N`: `2N` f64 bounds + `u64` child.
const fn entry_size(n: usize) -> usize {
    16 * n + 8
}

/// Counters reported by a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Nodes visited (equals page reads for the paged tree).
    pub nodes_visited: u64,
    /// Data entries reported.
    pub results: u64,
}

/// A packed R-tree stored on pages of a [`StorageEngine`].
#[derive(Debug, Clone)]
pub struct PagedRTree<const N: usize> {
    root_page: PageId,
    height: u32,
    len: usize,
    num_pages: usize,
    /// `rtree_node_visits_total{plane="paged"}` in the engine's registry;
    /// `None` until attached (trees built through [`PagedRTree::build`]
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

    /// Packs `entries` bottom-up onto one fresh contiguous page run of
    /// `engine` (Kamel & Faloutsos's packed R-tree, the source of the
    /// paper's cost model `P = L + 0.5`).
    ///
    /// The entries are put in Sort-Tile-Recursive order over their `2N`
    /// corner coordinates (`str_order`) and cut into leaves of
    /// [`PagedRTree::page_fanout`] entries; each level's nodes, in
    /// order, fill the level above the same way, up to a single root.
    /// Pages are written level by level, leaves first, so the leaf level
    /// is physically contiguous and the root is the run's last page. An
    /// empty entry set is one empty leaf. The order breaks every tie, so
    /// the pages depend only on the entry set, not on its iteration
    /// order.
    pub fn build(
        engine: &StorageEngine,
        entries: impl IntoIterator<Item = (Aabb<N>, u64)>,
    ) -> CfResult<Self> {
        let fanout = Self::page_fanout();
        let mut level: Vec<(Aabb<N>, u64)> = entries.into_iter().collect();
        let len = level.len();
        str_order(&mut level, 0, fanout);

        // Nodes per level, leaves first: ceil(n / F^k) down to the root.
        let mut height = 0u32;
        let mut total = 0usize;
        let mut nodes = len;
        loop {
            nodes = nodes.div_ceil(fanout).max(1);
            height += 1;
            total += nodes;
            if nodes == 1 {
                break;
            }
        }

        let mut page = engine.allocate_run(total)?.0;
        for node_level in 0..height {
            let nodes = level.len().div_ceil(fanout).max(1);
            let mut parents = Vec::with_capacity(nodes);
            for i in 0..nodes {
                let chunk = &level[i * fanout..level.len().min((i + 1) * fanout)];
                // Buffered: the build goes through the pool's write-back
                // path; callers flush/sync for durability.
                engine.write_page_buffered(PageId(page), &Self::encode(node_level, chunk))?;
                parents.push((Aabb::hull(chunk.iter().map(|&(b, _)| b)), page));
                page += 1;
            }
            level = parents;
        }

        let mut tree = Self {
            root_page: PageId(page - 1),
            height,
            len,
            num_pages: total,
            nodes_counter: None,
        };
        tree.attach_metrics(engine);
        Ok(tree)
    }

    /// Packs the entries of a build buffer with [`PagedRTree::build`].
    /// Kept for the benchmark ladder's staged trace, its one caller,
    /// until it calls `build` itself (ROADMAP item 1 (i)).
    pub fn persist(tree: &RStarTree<N>, engine: &StorageEngine) -> CfResult<Self> {
        Self::build(engine, tree.entries().iter().copied())
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
            nodes_counter: None,
        }
    }

    /// The contiguous page run the tree occupies, as `(first page, page
    /// count)`: [`PagedRTree::build`] writes the root last and nothing
    /// changes the tree's shape afterwards, so the run ends at the root.
    /// The same for a tree reattached through [`PagedRTree::from_parts`].
    pub fn page_run(&self) -> (PageId, usize) {
        let first = (self.root_page.0 + 1).saturating_sub(self.num_pages as u64);
        (PageId(first), self.num_pages)
    }

    /// Binds this tree's node-visit counter
    /// (`rtree_node_visits_total{plane="paged"}`) to `engine`'s metrics
    /// registry. [`PagedRTree::build`] does this automatically; call it
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

    /// One node page: the header, then each entry's bounds and child.
    fn encode(level: u32, entries: &[(Aabb<N>, u64)]) -> PageBuf {
        debug_assert!(entries.len() <= Self::page_fanout());
        let mut buf: PageBuf = [0u8; PAGE_SIZE];
        codec::put_u32(&mut buf, 0, level);
        codec::put_u32(&mut buf, 4, entries.len() as u32);
        let mut off = NODE_HEADER_SIZE;
        for (mbr, child) in entries {
            for d in 0..N {
                off = codec::put_f64(&mut buf, off, mbr.lo[d]);
            }
            for d in 0..N {
                off = codec::put_f64(&mut buf, off, mbr.hi[d]);
            }
            off = codec::put_u64(&mut buf, off, *child);
        }
        buf
    }

    fn write_node(engine: &StorageEngine, page: PageId, node: &RawNode<N>) -> CfResult<()> {
        engine.write_page(page, &Self::encode(node.level, &node.entries))
    }

    // ------------------------------------------------------------------
    // Entry maintenance
    // ------------------------------------------------------------------

    /// Rewrites the box of the leaf entry `(old, data)` to `new`, then
    /// sets each ancestor entry on its path to the exact hull of the
    /// child node below it: one page read and one page write per level.
    /// Returns `false`, writing nothing, when no leaf holds `(old, data)`.
    ///
    /// The entry set is fixed by [`PagedRTree::build`] (the paper's
    /// subfields are grouped once), so this is the tree's only change
    /// after the build: its shape, length and page run stay as they are.
    pub fn replace_entry(
        &self,
        engine: &StorageEngine,
        old: &Aabb<N>,
        data: u64,
        new: Aabb<N>,
    ) -> CfResult<bool> {
        let Some(path) = self.find_leaf_path(engine, self.root_page, old, data)? else {
            return Ok(false);
        };
        let mut hull = new;
        for &(page, slot) in path.iter().rev() {
            let mut node = Self::read_node(engine, page)?;
            node.entries[slot].0 = hull;
            Self::write_node(engine, page, &node)?;
            hull = node.mbr();
        }
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

/// Puts `entries` in Sort-Tile-Recursive order (Leutenegger et al.)
/// over corner coordinates `axis..2N` of `(lo_0..lo_{N-1}, hi_0..hi_{N-1})`:
/// sort by corner `axis`, cut into `ceil(L^(1/k))` slabs of whole leaves
/// (`L` leaves of `fanout` entries, `k` corners left), and order each
/// slab by the next corner. For `N = 1` that is `ceil(sqrt(L))` slabs by
/// `lo`, each sorted by `hi`. Ties fall to the payload and then to every
/// corner, so equal entry sets get equal orders.
fn str_order<const N: usize>(entries: &mut [(Aabb<N>, u64)], axis: usize, fanout: usize) {
    let corner = |e: &(Aabb<N>, u64), k: usize| if k < N { e.0.lo[k] } else { e.0.hi[k - N] };
    entries.sort_unstable_by(|a, b| {
        corner(a, axis)
            .total_cmp(&corner(b, axis))
            .then(a.1.cmp(&b.1))
            .then_with(|| {
                (0..2 * N)
                    .map(|k| corner(a, k).total_cmp(&corner(b, k)))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            })
    });
    let corners_left = (2 * N - axis) as u32;
    let leaves = entries.len().div_ceil(fanout);
    if corners_left == 1 || leaves <= 1 {
        return;
    }
    // The least slab count `s` with `s^k >= leaves`.
    let mut slabs = 1usize;
    while slabs.pow(corners_left) < leaves {
        slabs += 1;
    }
    for slab in entries.chunks_mut(leaves.div_ceil(slabs) * fanout) {
        str_order(slab, axis + 1, fanout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeConfig;

    fn iv(lo: f64, hi: f64) -> Aabb<1> {
        Aabb::new([lo], [hi])
    }

    fn entries(n: u64) -> impl Iterator<Item = (Aabb<1>, u64)> {
        (0..n).map(|i| (iv(i as f64, i as f64 + 1.5), i))
    }

    #[test]
    fn paged_search_matches_in_memory() {
        let mut tree = RStarTree::new(RTreeConfig::page_sized::<1>());
        for (mbr, data) in entries(1000) {
            tree.insert(mbr, data);
        }
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::persist(&tree, &engine).expect("persist");
        assert_eq!(paged.len(), 1000);
        // Packed: ceil(1000 / 170) = 6 leaves, all full but the last,
        // under one root.
        assert_eq!((paged.height(), paged.num_pages()), (2, 7));

        for qlo in [0.0, 123.4, 500.0, 999.0, 2000.0] {
            let q = iv(qlo, qlo + 7.0);
            let mut got = paged.search_collect(&engine, &q).expect("search");
            got.sort_unstable();
            let want: Vec<u64> = entries(1000)
                .filter(|(b, _)| b.intersects(&q))
                .map(|(_, d)| d)
                .collect();
            assert_eq!(got, want, "query {qlo}");
        }
    }

    #[test]
    fn search_cost_is_logarithmic_not_linear() {
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::build(&engine, entries(10_000)).expect("build");
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
        let paged = PagedRTree::build(&engine, entries(40)).expect("build");
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
        let boxes: Vec<(Aabb<2>, u64)> = (0..300u64)
            .map(|i| {
                let (x, y) = ((i % 20) as f64, (i / 20) as f64);
                (Aabb::new([x, y], [x + 0.9, y + 0.9]), i)
            })
            .collect();
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::build(&engine, boxes.iter().copied()).expect("build");
        // STR over four corners: ceil(300 / 102) = 3 leaves.
        assert_eq!((paged.height(), paged.num_pages()), (2, 4));
        let q = Aabb::new([3.5, 3.5], [6.5, 6.5]);
        let mut got = paged.search_collect(&engine, &q).expect("search");
        got.sort_unstable();
        let want: Vec<u64> = boxes
            .iter()
            .filter(|(b, _)| b.intersects(&q))
            .map(|&(_, d)| d)
            .collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn empty_tree_persists() {
        let tree: RStarTree<1> = RStarTree::new(RTreeConfig::page_sized::<1>());
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
    fn page_run_ends_at_the_root_for_built_and_reattached_trees() {
        let engine = StorageEngine::in_memory();
        engine.allocate_run(3).expect("pages before the tree");
        let paged = PagedRTree::build(&engine, entries(1000)).expect("build");
        assert!(paged.height() > 1);
        let run = (PageId(3), engine.num_pages() - 3);
        assert_eq!(paged.page_run(), run);
        let (root, height, len, pages) = paged.to_parts();
        assert_eq!(
            PagedRTree::<1>::from_parts(root, height, len, pages).page_run(),
            run
        );
    }

    #[test]
    fn fanout_constants() {
        assert_eq!(PagedRTree::<1>::page_fanout(), 170);
        assert_eq!(PagedRTree::<2>::page_fanout(), 102);
        assert_eq!(PagedRTree::<3>::page_fanout(), 73);
    }
}
