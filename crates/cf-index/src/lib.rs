//! Value-domain indexes for continuous field databases — the primary
//! contribution of the EDBT 2002 paper.
//!
//! A *field value query* (Q2) asks "where does the field take values in
//! `[w′, w″]`?". Processing it means (1) a **filtering step** that finds
//! every cell whose value interval intersects the query interval, and
//! (2) an **estimation step** that reads those cells and computes the
//! exact answer regions by inverse interpolation. This crate implements
//! the paper's three evaluated methods plus its predecessor, all against
//! the same paged storage engine:
//!
//! * [`LinearScan`] — no index: scan every cell page (the baseline);
//! * [`IAll`] — one 1-D R\*-tree entry per cell interval (§3, "I-All");
//! * [`IHilbert`] — the contribution: cells linearized by the Hilbert
//!   value of their centers, greedily grouped into **subfields** by the
//!   cost function `C = P / SI` (§3.1) within each data page
//!   ([`build_subfields_by_page`]), with only subfield intervals in the
//!   1-D R\*-tree and each subfield stored as a *contiguous* record
//!   range of one page of the cell file;
//! * [`IntervalQuadtree`] — the authors' earlier CIKM 1999 method
//!   (quadtree space division with a fixed interval-size threshold),
//!   included as the division-strategy ablation.
//!
//! The three indexes are one core — a cell file in a chosen order,
//! subfields as contiguous record ranges of it, a paged 1-D R\*-tree
//! over their intervals, one query executor — and differ only in how
//! they order and group cells: I-All keeps native order with one cell
//! per subfield, I-Hilbert groups greedy runs along the curve, the
//! Interval Quadtree groups quadtree leaves.
//!
//! All methods implement [`ValueIndex`], return identical answers, and
//! report per-query [`QueryStats`] (pages read, cells examined, answer
//! area), so the benchmarks compare exactly what the paper compared.
//! The four builds above refuse a record with a NaN sample or a
//! non-finite box with [`cf_storage::CfError::InvalidRecord`] before
//! they allocate a page, as every update refuses it.
//!
//! [`LiveIngest`] takes writes beside snapshot readers over an I-Hilbert
//! base and repacks it into new generations. A repack keeps the base's
//! page codec — the one [`StorageConfig::codec`](cf_storage::StorageConfig::codec)
//! chose at build — and the generation it replaces is freed once no
//! snapshot holds it and no commit names it (DESIGN §14.3).
//!
//! Also provided: conventional Q1 queries on the I-Hilbert cell file
//! ([`IHilbert::value_at`], through a box per data page, §2.2.1),
//! [`VectorIHilbert`] extending subfields to `K`-dimensional value
//! domains (§5 future work), and
//! [`QueryBatch`] — a parallel batch executor fanning Q2 queries across
//! the resident worker threads over any [`ValueIndex`], with exact
//! per-query and aggregated statistics ([`BatchReport`]).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod batch;
mod catalog;
mod exec;
mod gc;
mod iall;
mod ihilbert;
mod ingest;
mod iquad;
mod linear;
mod order;
mod sfindex;
mod stats;
mod subfield;
mod vector;
mod volume3d;
mod workers;

pub use batch::{BatchQueryResult, BatchReport, QueryBatch};
pub use catalog::{create_database, open_database, read_bootstrap, write_bootstrap};
pub use iall::IAll;
pub use ihilbert::{IHilbert, IHilbertConfig};
pub use ingest::{DeltaRec, EpochSnapshot, IngestConfig, LiveIngest, RepackReport};
pub use iquad::IntervalQuadtree;
pub use linear::LinearScan;
pub use order::{cell_order, CURVE_ORDER};
pub use stats::{QueryStats, RegionSink, ValueIndex};
pub use subfield::{
    build_subfields, build_subfields_by_page, Subfield, SubfieldConfig, ValueSummary,
};
pub use vector::{vector_linear_scan, VectorIHilbert};
pub use volume3d::{volume_linear_scan, VolumeIHilbert};
