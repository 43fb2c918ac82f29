//! Workload generators reproducing the paper's experimental datasets.
//!
//! The evaluation (§4) uses four kinds of data:
//!
//! 1. **Real terrain** — a USGS DEM of Roseburg, 512×512. Not
//!    downloadable in this environment; [`terrain::roseburg_standin`]
//!    substitutes a seeded diamond-square fractal at the same resolution
//!    with moderate roughness (see DESIGN.md §3 for why this preserves
//!    the relevant behaviour — the paper itself validates the same
//!    generator as its synthetic workload).
//! 2. **Real urban noise TIN** — ~9000 triangles over Lyon.
//!    [`noise::urban_noise_tin`] substitutes a Delaunay TIN over random
//!    sites with a Gaussian-source noise model (dB range ≈ 30–100).
//! 3. **Synthetic fractal terrain** (§4.2) — [`fractal::diamond_square`]
//!    implements the diamond-square / midpoint-displacement algorithm
//!    with the roughness parameter `H ∈ [0, 1]`, range scaling `2^(−H)`
//!    per pass, exactly as described.
//! 4. **Synthetic monotonic data** (§4.3) — [`monotonic::monotonic_field`]
//!    builds `w(x, y) = x + y`.
//!
//! Query workloads: [`queries::interval_queries`] draws the "200
//! randomly generated interval field value queries for each query
//! interval `Qinterval`" of §4, with `Qinterval` expressed relative to
//! the normalized value domain exactly as in the paper.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod fractal;
pub mod geology;
pub mod monotonic;
pub mod noise;
pub mod ocean;
pub mod queries;
pub mod terrain;
