//! Geometry primitives shared across the `contfield` workspace.
//!
//! This crate is dependency-free and provides the small set of geometric
//! types the continuous-field database is built on:
//!
//! * [`Point2`] — a point in the 2-D spatial domain.
//! * [`Aabb`] — an axis-aligned bounding box generic over dimension `N`,
//!   used both for spatial MBRs (`N = 2`) and value-domain MBRs
//!   (`N = 1` for scalar fields, `N = k` for vector fields).
//! * [`Interval`] — a closed 1-D value interval, the unit the EDBT 2002
//!   paper indexes ("the interval of all possible values inside a cell").
//! * [`Triangle`] — a triangle with barycentric-coordinate helpers, the
//!   cell shape of TINs and the unit of exact iso-band extraction.
//! * [`Polygon`] — a simple polygon with Sutherland–Hodgman half-plane
//!   clipping, used by the estimation step to compute exact answer
//!   regions of field value queries. The clip step and the shoelace
//!   area also work on bare vertex slices ([`clip_halfplane_into`],
//!   [`signed_area`]), which is how the query path runs them.

//!
//! # Example
//!
//! ```
//! use cf_geom::{Interval, Point2, Polygon, Triangle};
//!
//! // The value interval of a cell with sample values 20, 35, 30:
//! let iv = Interval::hull(&[20.0, 35.0, 30.0]).unwrap();
//! assert!(iv.intersects(Interval::new(33.0, 40.0)));
//!
//! // The estimation step in miniature: clip a triangle to the band
//! // where an affine field w(x, y) = x is between 0.25 and 0.5.
//! let tri: Polygon = Triangle::new(
//!     Point2::new(0.0, 0.0),
//!     Point2::new(1.0, 0.0),
//!     Point2::new(0.0, 1.0),
//! ).into();
//! let region = tri
//!     .clip_halfplane(|p| p.x - 0.25)
//!     .clip_halfplane(|p| 0.5 - p.x);
//! assert!(region.area() > 0.0 && region.area() < tri.area());
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod aabb;
mod interval;
mod point;
mod polygon;
mod triangle;

pub use aabb::Aabb;
pub use interval::Interval;
pub use point::Point2;
pub use polygon::{clip_halfplane_into, signed_area, Polygon};
pub use triangle::Triangle;

/// Tolerance used for geometric predicates on `f64` coordinates.
///
/// The workloads in this workspace operate on normalized domains
/// (coordinates and values in roughly `[0, 1]` or small integer ranges),
/// so an absolute epsilon is appropriate.
pub const EPSILON: f64 = 1e-12;
