//! Bowyer–Watson Delaunay triangulation.
//!
//! TINs (Triangulated Irregular Networks) are one of the two cell models
//! of the paper (§2.1): irregular triangles whose vertices are the sample
//! points. The paper's second real dataset is "urban noise data …
//! represented by TIN with about 9000 triangles"; to generate such TINs
//! from scattered sample points we need a triangulator, and Delaunay is
//! the canonical choice (it maximizes minimum angles, which keeps linear
//! interpolation well-conditioned).
//!
//! The implementation is the classic incremental Bowyer–Watson algorithm
//! with a super-triangle, floating-point in-circle tests with a relative
//! tolerance, and deterministic behaviour for reproducible workloads.

//!
//! # Example
//!
//! ```
//! use cf_delaunay::{triangulate, Adjacency};
//! use cf_geom::Point2;
//!
//! let sites = vec![
//!     Point2::new(0.0, 0.0),
//!     Point2::new(4.0, 0.0),
//!     Point2::new(4.0, 4.0),
//!     Point2::new(0.0, 4.0),
//!     Point2::new(2.0, 2.0),
//! ];
//! let tin = triangulate(&sites).unwrap();
//! assert_eq!(tin.triangles.len(), 4);
//!
//! // Walk-based point location.
//! let adjacency = Adjacency::build(&tin);
//! let t = adjacency.locate_walk(&tin, 0, Point2::new(1.0, 1.9)).unwrap();
//! assert!(tin.triangle(t).contains(Point2::new(1.0, 1.9)));
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod locate;
mod triangulate;

pub use locate::Adjacency;
pub use triangulate::{triangulate, Triangulation, TriangulationError};
