//! Packed R-trees on disk pages.
//!
//! The paper indexes value intervals — 1-D minimum bounding rectangles —
//! with "traditional spatial access methods, like R\*-tree" (§3), and
//! its cost model `P = L + 0.5` is Kamel & Faloutsos's for a *packed*
//! R-tree. Trees here are generic over dimension `N`:
//!
//! * `N = 1` — value intervals: the I-All and I-Hilbert indexes;
//! * `N = 2` — spatial MBRs: conventional (Q1) queries over cells;
//! * `N = k` — value-domain boxes of vector fields (paper §5 future work).
//!
//! Features:
//!
//! * [`PagedRTree`] — the tree on 4 KiB pages of a
//!   [`cf_storage::StorageEngine`]; searches fault node pages through
//!   the buffer pool so query cost is measured in real page accesses.
//!   [`PagedRTree::build`] is the one build path of every index: a
//!   bottom-up pack in Sort-Tile-Recursive order over the entries'
//!   corners, every node full but the last of its level, one contiguous
//!   page run with the root last. Its shape is fixed there:
//!   [`PagedRTree::replace_entry`], which rewrites one entry's box and
//!   its ancestors' hulls in place, is the one maintenance path.
//! * [`RStarTree`] and [`RTreeConfig`] — not a tree: an entry buffer
//!   that [`PagedRTree::persist`] packs with [`PagedRTree::build`], so
//!   its pages are `build`'s. No product path uses them; they keep the
//!   benchmark ladder's staged trace compiling until it calls `build`
//!   itself (ROADMAP item 1 (i) deletes all three). There is no R\*
//!   insertion: Bos & Haverkort back the packed build over it.
//! * [`FrozenTree`] — a read-optimized flattening of a built tree into
//!   contiguous cache-aligned SoA arrays (separate `lo[]`/`hi[]` lanes,
//!   implicit child offsets, branchless chunked leaf scan) with the
//!   same visit counts. No product crate links it; kept for the
//!   benchmark ladder's staged trace (DESIGN.md §8.2).
//!
//! # Example
//!
//! ```
//! use cf_geom::Aabb;
//! use cf_rtree::PagedRTree;
//! use cf_storage::{CfResult, StorageEngine};
//!
//! fn main() -> CfResult<()> {
//!     // Index 1-D value intervals (the paper's use of the R-tree).
//!     let engine = StorageEngine::in_memory();
//!     let entries = (0..1000u64).map(|i| (Aabb::new([i as f64], [i as f64 + 1.5]), i));
//!     let tree = PagedRTree::build(&engine, entries)?;
//!     // ceil(1000 / 170) = 6 leaves, all full but the last, under one root.
//!     assert_eq!((tree.height(), tree.num_pages()), (2, 7));
//!
//!     // Search through the buffer pool.
//!     let mut hits = tree.search_collect(&engine, &Aabb::new([10.2], [11.0]))?;
//!     hits.sort_unstable();
//!     assert_eq!(hits, vec![9, 10, 11]);
//!     Ok(())
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod frozen;
mod paged;
mod tree;

pub use frozen::FrozenTree;
pub use paged::{PagedRTree, SearchStats};
pub use tree::{RStarTree, RTreeConfig};
