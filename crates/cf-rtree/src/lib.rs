//! R\*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990).
//!
//! The paper indexes value intervals — 1-D minimum bounding rectangles —
//! in a 1-D R\*-tree (§3: "the intervals of the value domain of subfields
//! can be indexed using traditional spatial access methods, like
//! R\*-tree"). This crate implements the full R\*-tree from scratch,
//! generic over dimension `N`:
//!
//! * `N = 1` — value intervals: the I-All and I-Hilbert indexes;
//! * `N = 2` — spatial MBRs: conventional (Q1) queries over cells;
//! * `N = k` — value-domain boxes of vector fields (paper §5 future work).
//!
//! Features:
//!
//! * [`RStarTree`] — the in-memory build buffer, filled by one-by-one R\*
//!   insertion (the paper's §3.2 build): ChooseSubtree with
//!   minimum-overlap enlargement at the leaf level, **forced
//!   reinsertion** on first overflow per level, and the margin-driven
//!   ChooseSplitAxis / minimum-overlap ChooseSplitIndex split. It has no
//!   delete path: the paper's entry set (one per subfield) is fixed at
//!   build.
//! * [`PagedRTree`] — the tree serialized to 4 KiB pages of a
//!   [`cf_storage::StorageEngine`]; searches fault node pages through
//!   the buffer pool so query cost is measured in real page accesses.
//!   [`PagedRTree::build`] is the one build path of every index. Its
//!   shape is fixed there: [`PagedRTree::replace_entry`], which rewrites
//!   one entry's box and its ancestors' hulls in place, is the one
//!   maintenance path, and a tree's pages are always one contiguous run.
//! * [`FrozenTree`] — a read-optimized flattening of a built tree into
//!   contiguous cache-aligned SoA arrays (separate `lo[]`/`hi[]` lanes,
//!   implicit child offsets, branchless chunked leaf scan) with the
//!   same visit counts. No product crate links it since PR 15; kept for
//!   the benchmark ladder's staged trace (DESIGN.md §8.2).

//!
//! # Example
//!
//! ```
//! use cf_geom::Aabb;
//! use cf_rtree::{PagedRTree, RStarTree, RTreeConfig};
//! use cf_storage::{CfResult, StorageEngine};
//!
//! fn main() -> CfResult<()> {
//!     // Index 1-D value intervals (the paper's use of the R*-tree).
//!     let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::page_sized::<1>());
//!     for i in 0..1000u64 {
//!         let lo = i as f64;
//!         tree.insert(Aabb::new([lo], [lo + 1.5]), i);
//!     }
//!     let hits = tree.search_collect(&Aabb::new([10.2], [11.0]));
//!     assert!(hits.contains(&9) && hits.contains(&10));
//!
//!     // Persist to 4 KiB pages and search through the buffer pool.
//!     let engine = StorageEngine::in_memory();
//!     let paged = PagedRTree::persist(&tree, &engine)?;
//!     let paged_hits = paged.search_collect(&engine, &Aabb::new([10.2], [11.0]))?;
//!     assert_eq!(paged_hits.len(), hits.len());
//!     Ok(())
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod frozen;
mod node;
mod paged;
mod split;
mod tree;

pub use frozen::FrozenTree;
pub use node::{ChildRef, Node, NodeEntry};
pub use paged::PagedRTree;
pub use tree::{RStarTree, RTreeConfig, SearchStats};
