//! Urban-noise TIN stand-in (substitution for the Lyon dataset).
//!
//! The paper's second real dataset is "real urban noise data measured in
//! a region of Lyon, France … represented by TIN with about 9000
//! triangles". Urban noise fields are dominated by point/line sources
//! (traffic, industry) with smooth decay, so the stand-in samples a
//! sum-of-Gaussian-sources model at random site positions and
//! Delaunay-triangulates them — preserving the "smooth with local
//! hotspots" interval structure that drives subfield formation.

use cf_field::TinField;
use cf_geom::Point2;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A synthetic noise source.
#[derive(Debug, Clone, Copy)]
struct Source {
    pos: Point2,
    /// Sound level (dB) at the 10 m reference distance.
    level: f64,
}

/// Reference distance (m) at which a source emits its nominal level.
const REF_DIST: f64 = 10.0;

/// Noise level (dB) at a point: sources decay by the inverse-square law
/// (−20 dB per distance decade) and combine with the ambient base in the
/// *energy* domain, as real sound levels do.
fn noise_level(p: Point2, base: f64, sources: &[Source]) -> f64 {
    let mut energy = 10f64.powf(base / 10.0);
    for s in sources {
        let d = p.distance(s.pos).max(REF_DIST);
        let li = s.level - 20.0 * (d / REF_DIST).log10();
        energy += 10f64.powf(li / 10.0);
    }
    10.0 * energy.log10()
}

/// Generates an urban-noise TIN with approximately `target_triangles`
/// triangles over a `1000 × 1000` m domain.
///
/// A Delaunay triangulation of `n` scattered sites has `≈ 2n` triangles,
/// so `n = target_triangles / 2` sites are drawn. Noise levels span
/// roughly 35–100 dB: a 35 dB ambient base plus 8–20 strong sources.
pub fn urban_noise_tin(target_triangles: usize, seed: u64) -> TinField {
    assert!(target_triangles >= 8, "too few triangles requested");
    let n_sites = (target_triangles / 2).max(4);
    let mut rng = StdRng::seed_from_u64(seed);

    let n_sources = rng.gen_range(8..=20);
    let sources: Vec<Source> = (0..n_sources)
        .map(|_| Source {
            pos: Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
            level: rng.gen_range(75.0..100.0),
        })
        .collect();

    let mut points = Vec::with_capacity(n_sites);
    // Pin the domain corners so the TIN covers the full square.
    points.push(Point2::new(0.0, 0.0));
    points.push(Point2::new(1000.0, 0.0));
    points.push(Point2::new(0.0, 1000.0));
    points.push(Point2::new(1000.0, 1000.0));
    while points.len() < n_sites {
        points.push(Point2::new(
            rng.gen_range(0.0..1000.0),
            rng.gen_range(0.0..1000.0),
        ));
    }
    let values: Vec<f64> = points
        .iter()
        .map(|&p| noise_level(p, 35.0, &sources))
        .collect();

    TinField::from_samples(&points, values).expect("random sites triangulate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_field::FieldModel;

    #[test]
    fn triangle_count_near_target() {
        let tin = urban_noise_tin(2000, 3);
        let t = tin.num_cells();
        assert!(
            (1600..=2100).contains(&t),
            "expected ~2000 triangles, got {t}"
        );
    }

    #[test]
    fn values_look_like_decibels() {
        let tin = urban_noise_tin(1000, 9);
        let dom = tin.value_domain();
        assert!(dom.lo >= 35.0 - 1e-9, "base level too low: {dom}");
        assert!(dom.hi <= 200.0, "implausible noise level: {dom}");
        assert!(dom.width() > 10.0, "field should have hotspots: {dom}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = urban_noise_tin(500, 7);
        let b = urban_noise_tin(500, 7);
        assert_eq!(a.num_cells(), b.num_cells());
        assert_eq!(a.value_domain(), b.value_domain());
    }

    #[test]
    fn covers_the_square_domain() {
        let tin = urban_noise_tin(800, 1);
        let area = tin.triangulation().area();
        assert!((area - 1_000_000.0).abs() < 1.0, "TIN area {area}");
    }

    /// The scale the paper's cost questions are asked at. A triangulator
    /// that scans the mesh for each site takes about 20 minutes here; the
    /// walk takes seconds, so a quadratic regression times the job out.
    #[test]
    #[ignore = "builds a 1M-triangle TIN; run with --release --ignored"]
    fn a_million_triangle_tin_uses_every_site_and_covers_the_square() {
        let tin = urban_noise_tin(1_000_000, 42);
        let t = tin.triangulation();
        let n = t.points.len();
        // The hull is the square: its corners and any site on a side.
        let on_hull = |p: &&Point2| p.x == 0.0 || p.y == 0.0 || p.x == 1000.0 || p.y == 1000.0;
        let h = t.points.iter().filter(on_hull).count();
        assert_eq!(t.triangles.len(), 2 * n - 2 - h);
        let mut used = vec![false; n];
        for &v in t.triangles.iter().flatten() {
            used[v] = true;
        }
        assert!(used.iter().all(|&u| u), "a site is in no triangle");
        let area = t.area();
        assert!((area - 1_000_000.0).abs() < 1e-3, "TIN area {area}");
    }
}
