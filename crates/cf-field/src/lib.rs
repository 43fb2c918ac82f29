//! The continuous-field data model.
//!
//! A continuous field (paper §2.1) is a pair `(C, F)`: a subdivision of
//! the spatial domain into *cells* containing sample points, plus
//! interpolation functions that define the *implicit* values everywhere
//! inside each cell. This crate implements the two cell models the paper
//! evaluates, with the linear interpolation its experiments use:
//!
//! * [`GridField`] — a DEM: a regular grid with sample points at the
//!   vertices (Fig. 1's "DEM for a continuous field"); each rectangular
//!   cell is interpolated linearly over its two triangles;
//! * [`TinField`] — a TIN: irregular triangles over scattered sample
//!   points with barycentric linear interpolation;
//! * [`VectorGridField`] — the §5 future-work extension: a field whose
//!   value is a `K`-vector (e.g. temperature + salinity), with
//!   per-cell value *boxes* instead of intervals.
//!
//! Both query classes of §2.2 are supported:
//!
//! * **Q1** (conventional): [`FieldModel::value_at`] finds the cell
//!   containing a point and interpolates;
//! * **Q2** (field value queries): the per-cell *estimation step* —
//!   [`FieldModel::record_band_visit`] passes the exact sub-regions of a
//!   cell where the interpolated value lies in a query interval to a
//!   visitor, by clipping the cell's triangles against the two
//!   half-planes of the affine interpolant in one pass on stack buffers
//!   (see [`estimate`]). [`FieldModel::record_band_region`] collects the same
//!   regions as polygons, for callers that keep them.
//!
//! Cells also know their on-disk record encoding ([`cf_storage::Record`])
//! so the value indexes can store them in Hilbert order and run the
//! estimation step from the bytes read back from pages, exactly like the
//! paper's disk-resident system.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod estimate;
mod grid;
mod model;
mod tin;
mod vector;
mod volume;

pub use grid::{GridCellRecord, GridField};
pub use model::FieldModel;
pub use tin::{TinCellRecord, TinField};
pub use vector::{VectorCellRecord, VectorGridField};
pub use volume::{Grid3Field, VolumeCellRecord};
