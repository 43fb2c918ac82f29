//! # contfield — value-domain indexing for continuous field databases
//!
//! A from-scratch Rust implementation of *"Indexing Values in Continuous
//! Field Databases"* (Kang, Faloutsos, Laurini, Servigne — EDBT 2002):
//! the **I-Hilbert** subfield index for *field value queries* ("find the
//! regions where the temperature is between 20° and 30°") over
//! continuous fields represented as DEM grids or TINs, together with
//! every substrate the paper's system needs — an R\*-tree, space-filling
//! curves, a paged storage engine with I/O accounting, Delaunay
//! triangulation, exact iso-band estimation, and the LinearScan / I-All
//! baselines.
//!
//! ## Quick start
//!
//! ```
//! use contfield::prelude::*;
//!
//! // A smooth terrain-like field (diamond-square fractal, paper §4.2).
//! let field = contfield::workload::fractal::diamond_square(6, 0.9, 42);
//!
//! // A simulated disk + buffer pool; everything the indexes touch is
//! // counted.
//! let engine = StorageEngine::in_memory();
//!
//! // Build the paper's index and run a selective field value query
//! // (top 5 % of the value domain).
//! let index = IHilbert::build(&engine, &field).expect("build");
//! let band = {
//!     let dom = field.value_domain();
//!     Interval::new(dom.denormalize(0.95), dom.denormalize(1.0))
//! };
//! engine.clear_cache();
//! let (stats, regions) = index.query_regions(&engine, band).expect("query");
//! assert_eq!(stats.num_regions, regions.len());
//!
//! // The same query by exhaustive scan gives the same answer…
//! let scan = LinearScan::build(&engine, &field).expect("build");
//! engine.clear_cache();
//! let s = scan.query_stats(&engine, band).expect("query");
//! assert_eq!(s.cells_qualifying, stats.cells_qualifying);
//! // …but the index reads far fewer pages.
//! assert!(stats.io.logical_reads() < s.io.logical_reads());
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`geom`] | points, boxes, intervals, triangles, polygon clipping |
//! | [`sfc`] | Hilbert / Z-order / Gray-code curves |
//! | [`storage`] | pages, simulated disk, buffer pool, record files |
//! | [`rtree`] | packed R-tree on pages: STR bulk build, boxes rewritten in place |
//! | [`delaunay`] | Bowyer–Watson triangulation |
//! | [`field`] | DEM / TIN / vector field models, estimation step |
//! | [`index`] | LinearScan, I-All, I-Hilbert, Interval Quadtree, Q1 |
//! | [`workload`] | fractal / monotonic / noise / ocean generators |
//! | [`obs`] | metrics registry, span tracer, exporters, HTTP endpoint |

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub use cf_delaunay as delaunay;
pub use cf_field as field;
pub use cf_geom as geom;
pub use cf_index as index;
pub use cf_obs as obs;
pub use cf_rtree as rtree;
pub use cf_sfc as sfc;
pub use cf_storage as storage;
pub use cf_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use cf_field::{FieldModel, GridField, TinField, VectorGridField};
    pub use cf_geom::{Aabb, Interval, Point2, Polygon, Triangle};
    pub use cf_index::{
        BatchReport, EpochSnapshot, IAll, IHilbert, IHilbertConfig, IngestConfig, IntervalQuadtree,
        LinearScan, LiveIngest, PointIndex, QueryBatch, QueryStats, SubfieldConfig, ValueIndex,
        VectorIHilbert,
    };
    pub use cf_sfc::Curve;
    pub use cf_storage::{IoStats, StorageConfig, StorageEngine};
}
