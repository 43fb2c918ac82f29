//! Real-terrain stand-in (substitution for the Roseburg USGS DEM).
//!
//! The paper's first real dataset is a USGS DEM of part of Roseburg,
//! USA, resolution 512×512, fetched from `edcwww.cr.usgs.gov` — not
//! reachable here. Real terrain sits between the fractal extremes the
//! paper generates: strongly autocorrelated but with ridges and valleys.
//! The stand-in is a fixed-seed diamond-square surface at the same
//! resolution with `H = 0.55` (mid-range roughness — consistent with
//! measured fractal dimensions of natural terrain), rescaled to a
//! plausible elevation range in metres.

use crate::fractal::diamond_square;
use cf_field::{FieldModel, GridField};

/// Elevation range of the stand-in terrain (metres), roughly matching
/// the Roseburg area (150–600 m).
const ELEVATION_MIN: f64 = 150.0;
/// See [`ELEVATION_MIN`].
const ELEVATION_MAX: f64 = 600.0;

/// The 512×512-cell terrain stand-in used wherever the paper uses the
/// Roseburg DEM (Fig. 8a). `k` scales the grid (`2^k` cells per side;
/// the paper-faithful value is 9).
pub fn roseburg_standin(k: u32) -> GridField {
    let raw = diamond_square(k, 0.55, 0x9059_B126); // fixed, documented seed
    rescale(&raw, ELEVATION_MIN, ELEVATION_MAX)
}

/// Affinely rescales a field's vertex values onto `[lo, hi]`.
fn rescale(field: &GridField, lo: f64, hi: f64) -> GridField {
    assert!(lo < hi, "invalid target range [{lo}, {hi}]");
    let (vw, vh) = field.vertex_dims();
    let dom = field.value_domain();
    let values: Vec<f64> = (0..vh)
        .flat_map(|y| (0..vw).map(move |x| (x, y)))
        .map(|(x, y)| lo + dom.normalize(field.vertex_value(x, y)) * (hi - lo))
        .collect();
    GridField::from_values(vw, vh, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_geom::Interval;

    #[test]
    fn standin_has_paper_resolution_at_k9() {
        let t = roseburg_standin(5); // small k for test speed
        assert_eq!(t.vertex_dims(), (33, 33));
        let dom = t.value_domain();
        assert!((dom.lo - ELEVATION_MIN).abs() < 1e-9);
        assert!((dom.hi - ELEVATION_MAX).abs() < 1e-9);
    }

    #[test]
    fn rescale_is_affine_and_exact() {
        let f = GridField::from_values(2, 2, vec![0.0, 1.0, 2.0, 4.0]);
        let r = rescale(&f, 10.0, 18.0);
        assert_eq!(r.value_domain(), Interval::new(10.0, 18.0));
        assert_eq!(r.vertex_value(1, 0), 12.0);
        assert_eq!(r.vertex_value(0, 1), 14.0);
    }

    #[test]
    fn deterministic() {
        let a = roseburg_standin(4);
        let b = roseburg_standin(4);
        assert_eq!(a.vertex_value(3, 7), b.vertex_value(3, 7));
    }
}
