//! A frozen, cache-resident, read-optimized form of a built R\*-tree.
//!
//! **Status:** a leaf type no product crate links. cf-index served its
//! filter step from it until PR 15; measured on the benchmark ladder it
//! saved at most 1.6 % of a query and cost a re-flattening on every
//! build, open, repack and tree-changing update, so the paged tree is
//! the only filter (DESIGN.md §8.2). It stays because the ladder's
//! staged trace (`benchmark/src/staged.rs`) still times it.
//!
//! The paged tree ([`crate::PagedRTree`]) is the faithful disk-resident
//! reproduction: every node is one 4 KiB page, every visit is a buffer
//! pool access. [`FrozenTree`] flattens a built tree into
//! contiguous level-by-level structure-of-arrays storage:
//!
//! * **SoA bounds** — `lo[]` and `hi[]` live in separate cache-aligned
//!   lane arrays (8 × f64 = one 64-byte cache line per lane), one pair
//!   per dimension, so the intersection scan streams bounds linearly
//!   instead of striding over interleaved `(lo, hi, child)` entries.
//! * **Implicit child offsets** — nodes are laid out in BFS order, so
//!   the children of a node are consecutive; each node stores only the
//!   id of its first child and the `j`-th entry's child is
//!   `first_child + j`. Leaf payloads sit in one contiguous `u64` array.
//! * **No per-node heap blocks** — the whole tree is six flat vectors,
//!   filled once by freezing; a search touches no heap.
//! * **Branchless chunked leaf scan** — entries are padded to full lanes
//!   with never-matching sentinel bounds (`lo = +∞, hi = −∞`), so the
//!   scan tests 8 entries per lane with pure arithmetic (compare, mask)
//!   and only branches on a non-zero 8-bit hit mask.
//!
//! A frozen search visits exactly the nodes the node-based traversals
//! visit (same parent-MBR pruning), so [`SearchStats::nodes_visited`]
//! equals the paged tree's page-read count for the same query.

use crate::PagedRTree;
use crate::SearchStats;
use cf_geom::Aabb;
use cf_storage::{CfResult, Counter, PageId, StorageEngine};

/// Entries per bounds lane: 8 × f64 fills one 64-byte cache line.
const LANE: usize = 8;

/// A 64-byte-aligned lane of bounds, the unit of the chunked scan.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Lane([f64; LANE]);

/// Sentinel lane that intersects nothing (padding slots).
const EMPTY_LANE_LO: Lane = Lane([f64::INFINITY; LANE]);
const EMPTY_LANE_HI: Lane = Lane([f64::NEG_INFINITY; LANE]);

/// A read-only R\*-tree flattened into level-by-level SoA arrays.
///
/// Build one with [`FrozenTree::from_paged`], which reads a persisted
/// tree's pages once.
#[derive(Debug, Clone)]
pub struct FrozenTree<const N: usize> {
    /// Per node: first slot (lane-aligned) in the bounds arrays.
    slot_base: Vec<u32>,
    /// Per node: number of real (non-padding) entries.
    entry_count: Vec<u32>,
    /// Per internal node: node id of the child of its first entry; the
    /// child of entry `j` is `first_child + j` (children are consecutive
    /// by construction). Unused (0) for leaves.
    first_child: Vec<u32>,
    /// Lower bounds, dimension-major: dimension `d` occupies lanes
    /// `[d * lanes_per_dim, (d + 1) * lanes_per_dim)`.
    lo: Vec<Lane>,
    /// Upper bounds, same layout as `lo`.
    hi: Vec<Lane>,
    /// Leaf payloads, indexed by `slot - leaf_slot_base`.
    payload: Vec<u64>,
    /// First slot of the first leaf node (leaves are the BFS suffix).
    leaf_slot_base: u32,
    /// First node id of the leaf level.
    first_leaf_node: u32,
    /// Lanes per dimension (`total_slots / LANE`).
    lanes_per_dim: usize,
    /// Number of data entries.
    len: usize,
    /// Tree height (1 = single leaf root).
    height: u32,
    /// `rtree_node_visits_total{plane="frozen"}` in the source engine's
    /// registry.
    nodes_counter: Counter,
}

/// Transient decoded node used while freezing.
struct FlatNode<const N: usize> {
    entries: Vec<(Aabb<N>, u64)>,
    is_leaf: bool,
}

impl<const N: usize> FrozenTree<N> {
    /// Freezes a persisted [`PagedRTree`], reading each node page once
    /// through the buffer pool (subsequent searches touch no pages at
    /// all).
    pub fn from_paged(engine: &StorageEngine, paged: &PagedRTree<N>) -> CfResult<Self> {
        // Pass 1: BFS to fix node ids and slot bases. Children of each
        // node get consecutive ids, which is what makes child offsets
        // implicit.
        let mut queue = std::collections::VecDeque::from([paged.root_page_id()]);
        let mut nodes: Vec<FlatNode<N>> = Vec::new();
        while let Some(page) = queue.pop_front() {
            let mut entries = Vec::new();
            let mut leaf = false;
            paged.for_each_entry(engine, page, |mbr, child, is_leaf| {
                leaf = is_leaf;
                entries.push((*mbr, child));
            })?;
            // A childless page is a (possibly empty) leaf root.
            let is_leaf = leaf || entries.is_empty();
            if !is_leaf {
                queue.extend(entries.iter().map(|&(_, child)| PageId(child)));
            }
            nodes.push(FlatNode { entries, is_leaf });
        }

        let num_nodes = nodes.len();
        let mut slot_base = Vec::with_capacity(num_nodes);
        let mut entry_count = Vec::with_capacity(num_nodes);
        let mut first_child = vec![0u32; num_nodes];
        let mut first_leaf_node = num_nodes as u32;
        let mut leaf_slot_base = 0u32;
        let mut slots = 0u32;
        {
            let mut next_child = 1u32; // node 0 is the root
            for (i, node) in nodes.iter().enumerate() {
                slot_base.push(slots);
                entry_count.push(node.entries.len() as u32);
                if node.is_leaf {
                    if (i as u32) < first_leaf_node {
                        first_leaf_node = i as u32;
                        leaf_slot_base = slots;
                    }
                } else {
                    first_child[i] = next_child;
                    next_child += node.entries.len() as u32;
                }
                // Pad every node to whole lanes.
                slots += (node.entries.len() as u32).div_ceil(LANE as u32) * LANE as u32;
            }
        }

        // Pass 2: fill the SoA arrays.
        let lanes_per_dim = (slots as usize) / LANE;
        let mut lo = vec![EMPTY_LANE_LO; lanes_per_dim * N];
        let mut hi = vec![EMPTY_LANE_HI; lanes_per_dim * N];
        let mut payload = vec![0u64; slots as usize - leaf_slot_base as usize];
        for (i, node) in nodes.iter().enumerate() {
            let base = slot_base[i] as usize;
            for (j, &(mbr, child)) in node.entries.iter().enumerate() {
                let slot = base + j;
                for d in 0..N {
                    lo[d * lanes_per_dim + slot / LANE].0[slot % LANE] = mbr.lo[d];
                    hi[d * lanes_per_dim + slot / LANE].0[slot % LANE] = mbr.hi[d];
                }
                if node.is_leaf {
                    payload[slot - leaf_slot_base as usize] = child;
                }
            }
        }

        Ok(Self {
            slot_base,
            entry_count,
            first_child,
            lo,
            hi,
            payload,
            leaf_slot_base,
            first_leaf_node,
            lanes_per_dim,
            len: paged.len(),
            height: paged.height(),
            nodes_counter: engine
                .metrics()
                .counter_with("rtree_node_visits_total", &[("plane", "frozen")]),
        })
    }

    /// Number of data entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the tree holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = a single leaf root).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Tests one slot against the query, branchlessly per dimension.
    #[inline]
    fn lane_mask(&self, lane: usize, query: &Aabb<N>) -> u8 {
        let mut mask = 0xFFu8;
        for d in 0..N {
            let ll = &self.lo[d * self.lanes_per_dim + lane].0;
            let hh = &self.hi[d * self.lanes_per_dim + lane].0;
            let mut md = 0u8;
            for j in 0..LANE {
                // Same closed-box test as `Aabb::intersects`, evaluated
                // arithmetically: padding sentinels (+∞, −∞) fail it for
                // every finite or infinite query, so padded slots never
                // set their bit.
                md |= u8::from(ll[j] <= query.hi[d] && query.lo[d] <= hh[j]) << j;
            }
            mask &= md;
        }
        mask
    }

    /// Invokes `f(data, mbr)` for every stored entry whose box intersects
    /// `query`.
    ///
    /// Visits exactly the nodes a node-based traversal visits, so
    /// `nodes_visited` equals the paged tree's page reads for the same
    /// query — but no storage engine is touched.
    pub fn search(&self, query: &Aabb<N>, mut f: impl FnMut(u64, &Aabb<N>)) -> SearchStats {
        let mut stats = SearchStats::default();
        // The BFS layout means sibling subtrees sit at ascending node
        // ids; a small stack of node ids is all the traversal state.
        let mut stack: Vec<u32> = vec![0];
        while let Some(node) = stack.pop() {
            stats.nodes_visited += 1;
            let node = node as usize;
            let base = self.slot_base[node] as usize;
            let count = self.entry_count[node] as usize;
            let is_leaf = node >= self.first_leaf_node as usize;
            let lanes = count.div_ceil(LANE);
            for l in 0..lanes {
                let lane = base / LANE + l;
                let mut mask = self.lane_mask(lane, query);
                while mask != 0 {
                    let j = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let slot = lane * LANE + j;
                    let entry = slot - base;
                    if is_leaf {
                        stats.results += 1;
                        let mbr = self.slot_mbr(slot);
                        f(self.payload[slot - self.leaf_slot_base as usize], &mbr);
                    } else {
                        stack.push(self.first_child[node] + entry as u32);
                    }
                }
            }
        }
        self.nodes_counter.add(stats.nodes_visited);
        stats
    }

    /// Collects the payloads of all entries intersecting `query`.
    pub fn search_collect(&self, query: &Aabb<N>) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len.min(64));
        self.search(query, |d, _| out.push(d));
        out
    }

    /// Reusable-buffer variant of [`FrozenTree::search_collect`]: clears
    /// `out` and fills it, keeping its capacity across calls.
    pub fn search_into(&self, query: &Aabb<N>, out: &mut Vec<u64>) -> SearchStats {
        out.clear();
        self.search(query, |d, _| out.push(d))
    }

    /// Reassembles the box stored at a slot.
    #[inline]
    fn slot_mbr(&self, slot: usize) -> Aabb<N> {
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        for d in 0..N {
            lo[d] = self.lo[d * self.lanes_per_dim + slot / LANE].0[slot % LANE];
            hi[d] = self.hi[d * self.lanes_per_dim + slot / LANE].0[slot % LANE];
        }
        Aabb { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Aabb<1> {
        Aabb::new([lo], [hi])
    }

    /// Packs `entries` into a fresh in-memory engine and freezes it.
    fn freeze<const N: usize>(entries: &[(Aabb<N>, u64)]) -> FrozenTree<N> {
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::build(&engine, entries.iter().copied()).expect("build");
        FrozenTree::from_paged(&engine, &paged).expect("freeze")
    }

    fn overlapping(n: u64) -> Vec<(Aabb<1>, u64)> {
        (0..n)
            .map(|i| (iv(i as f64 * 0.7, i as f64 * 0.7 + 2.0), i))
            .collect()
    }

    /// Payloads of the entries whose box intersects `q`, ascending.
    fn linear<const N: usize>(entries: &[(Aabb<N>, u64)], q: &Aabb<N>) -> Vec<u64> {
        let mut want: Vec<u64> = entries
            .iter()
            .filter(|(b, _)| b.intersects(q))
            .map(|&(_, d)| d)
            .collect();
        want.sort_unstable();
        want
    }

    #[test]
    fn frozen_matches_dynamic_search() {
        let entries = overlapping(800);
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::build(&engine, entries.iter().copied()).expect("build");
        let frozen = FrozenTree::from_paged(&engine, &paged).expect("freeze");
        assert_eq!(frozen.len(), 800);
        assert_eq!(frozen.height(), paged.height());
        assert_eq!(frozen.slot_base.len(), paged.num_pages());
        for qlo in [-5.0, 0.0, 113.3, 400.0, 559.9, 1000.0] {
            let q = iv(qlo, qlo + 9.0);
            let mut got = frozen.search_collect(&q);
            got.sort_unstable();
            let mut paged_hits = paged.search_collect(&engine, &q).expect("search");
            paged_hits.sort_unstable();
            assert_eq!(got, paged_hits, "query {qlo}");
            assert_eq!(got, linear(&entries, &q), "query {qlo}");
        }
    }

    #[test]
    fn frozen_matches_paged_visit_counts() {
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::build(&engine, overlapping(2000)).expect("build");
        let frozen = FrozenTree::from_paged(&engine, &paged).expect("freeze");
        assert_eq!(frozen.slot_base.len(), paged.num_pages());
        for qlo in [0.0, 250.0, 700.0, 1399.5] {
            let q = iv(qlo, qlo + 3.0);
            let ps = paged.search(&engine, &q, |_, _| {}).expect("search");
            let fs = frozen.search(&q, |_, _| {});
            assert_eq!(fs.nodes_visited, ps.nodes_visited, "query {qlo}");
            assert_eq!(fs.results, ps.results, "query {qlo}");
        }
    }

    #[test]
    fn frozen_reports_mbrs() {
        let entries: Vec<(Aabb<2>, u64)> = (0..200u64)
            .map(|i| {
                let (x, y) = ((i % 20) as f64, (i / 20) as f64);
                (Aabb::new([x, y], [x + 0.5, y + 0.5]), i)
            })
            .collect();
        let frozen = freeze(&entries);
        let q = Aabb::new([2.2, 3.2], [6.8, 7.8]);
        let mut got: Vec<(u64, Aabb<2>)> = Vec::new();
        frozen.search(&q, |d, mbr| got.push((d, *mbr)));
        got.sort_by_key(|&(d, _)| d);
        let want: Vec<(u64, Aabb<2>)> = entries
            .iter()
            .filter(|(b, _)| b.intersects(&q))
            .map(|&(b, d)| (d, b))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_tiny_trees() {
        let frozen = freeze::<1>(&[]);
        assert!(frozen.is_empty());
        assert_eq!(frozen.search_collect(&iv(0.0, 10.0)), Vec::<u64>::new());
        let stats = frozen.search(&iv(0.0, 1.0), |_, _| {});
        assert_eq!(stats.nodes_visited, 1, "the empty root is still visited");

        let frozen = freeze(&[(iv(3.0, 4.0), 77)]);
        assert_eq!(frozen.search_collect(&iv(3.5, 3.5)), vec![77]);
        assert_eq!(frozen.search_collect(&iv(5.0, 6.0)), Vec::<u64>::new());
    }

    #[test]
    fn search_into_reuses_buffer() {
        let frozen = freeze(&overlapping(300));
        let mut buf = Vec::new();
        let s1 = frozen.search_into(&iv(0.0, 50.0), &mut buf);
        assert_eq!(buf.len() as u64, s1.results);
        let cap = buf.capacity();
        let s2 = frozen.search_into(&iv(10.0, 20.0), &mut buf);
        assert_eq!(buf.len() as u64, s2.results);
        assert!(buf.capacity() >= cap, "capacity kept across calls");
    }

    #[test]
    fn node_visits_flow_into_the_engine_registry() {
        let engine = StorageEngine::in_memory();
        let paged = PagedRTree::build(&engine, overlapping(2000)).expect("build");
        let frozen = FrozenTree::from_paged(&engine, &paged).expect("freeze");
        engine.reset_stats();

        let q = iv(250.0, 260.0);
        let ps = paged.search(&engine, &q, |_, _| {}).expect("search");
        let fs = frozen.search(&q, |_, _| {});
        let m = engine.metrics();
        assert_eq!(
            m.counter_value("rtree_node_visits_total", &[("plane", "paged")]),
            Some(ps.nodes_visited)
        );
        assert_eq!(
            m.counter_value("rtree_node_visits_total", &[("plane", "frozen")]),
            Some(fs.nodes_visited)
        );
        assert_eq!(
            m.counter_total("rtree_node_visits_total"),
            ps.nodes_visited + fs.nodes_visited
        );
    }

    #[test]
    fn point_sized_boxes_on_lane_boundaries() {
        // 8, 16, 17 entries exercise exact-lane and lane+1 padding.
        for n in [8u64, 16, 17, 170] {
            let entries: Vec<(Aabb<1>, u64)> =
                (0..n).map(|i| (iv(i as f64, i as f64), i)).collect();
            let frozen = freeze(&entries);
            for i in 0..n {
                assert_eq!(
                    frozen.search_collect(&iv(i as f64, i as f64)),
                    vec![i],
                    "n={n} i={i}"
                );
            }
            assert_eq!(frozen.search_collect(&iv(-10.0, -1.0)), Vec::<u64>::new());
        }
    }
}
