//! Semantic end-to-end checks: the answer regions returned by the full
//! disk-resident pipeline must agree with the field itself — every
//! point inside a returned region has its interpolated value inside the
//! query band, and every point whose value is inside the band is
//! covered by some returned region.

use contfield::prelude::*;
use contfield::workload::fractal::diamond_square;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Point-in-polygon by ray casting (test-local helper; the library
/// itself never needs it).
fn polygon_contains(poly: &Polygon, p: Point2) -> bool {
    let n = poly.vertices.len();
    if n < 3 {
        return false;
    }
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let (a, b) = (poly.vertices[i], poly.vertices[j]);
        if ((a.y > p.y) != (b.y > p.y)) && (p.x < (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x) {
            inside = !inside;
        }
        j = i;
    }
    inside
}

#[test]
fn regions_are_sound_and_complete() {
    let field = diamond_square(5, 0.6, 31);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");

    let band = Interval::new(dom.denormalize(0.45), dom.denormalize(0.6));
    let (stats, regions) = index.query_regions(&engine, band).expect("query");
    assert!(stats.num_regions > 0, "query should match something");

    let mut rng = StdRng::seed_from_u64(9);
    // Soundness: interior points of regions have values in the band.
    // Sample region centroids (strictly interior for convex clip
    // results).
    let mut checked = 0;
    for r in &regions {
        if let Some(c) = r.centroid() {
            let v = field.value_at(c).expect("centroid inside domain");
            assert!(
                v >= band.lo - 1e-6 && v <= band.hi + 1e-6,
                "centroid {c} has value {v} outside {band}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0);

    // Completeness: random domain points with value in the band are
    // covered by some region.
    let domain = field.domain();
    let mut covered_checks = 0;
    let mut tries = 0;
    while covered_checks < 50 && tries < 200_000 {
        tries += 1;
        let p = Point2::new(
            rng.gen_range(domain.lo[0]..domain.hi[0]),
            rng.gen_range(domain.lo[1]..domain.hi[1]),
        );
        let Some(v) = field.value_at(p) else { continue };
        // Stay away from band boundaries where coverage is a measure-zero
        // tie decided by floating point.
        let margin = 1e-6 * band.width().max(1.0);
        if v <= band.lo + margin || v >= band.hi - margin {
            continue;
        }
        let covered = regions.iter().any(|r| polygon_contains(r, p));
        assert!(covered, "point {p} (value {v}) not covered by any region");
        covered_checks += 1;
    }
    assert!(covered_checks >= 50, "too few in-band sample points found");
}

#[test]
fn total_region_area_equals_band_measure() {
    // Partitioning the whole value domain into disjoint bands must
    // tile the whole spatial domain (up to shared boundaries).
    let field = diamond_square(4, 0.4, 8);
    let dom = field.value_domain();
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");

    let cuts = 8;
    let mut total = 0.0;
    for i in 0..cuts {
        let band = Interval::new(
            dom.denormalize(i as f64 / cuts as f64),
            dom.denormalize((i + 1) as f64 / cuts as f64),
        );
        total += index.query_stats(&engine, band).expect("query").area;
    }
    let domain_area = field.domain().volume();
    assert!(
        (total - domain_area).abs() < 1e-6 * domain_area,
        "bands tile {total}, domain is {domain_area}"
    );
}

#[test]
fn q1_and_q2_are_consistent() {
    // The value reported by a Q1 point query must be consistent with
    // the regions a Q2 value query returns around that value.
    let field = diamond_square(4, 0.7, 12);
    let engine = StorageEngine::in_memory();
    let index = IHilbert::build(&engine, &field).expect("build");

    let p = Point2::new(7.3, 4.8);
    let Some(v) = index.value_at(&engine, p).expect("query") else {
        panic!("point inside domain")
    };
    let band = Interval::new(v - 1e-9, v + 1e-9);
    let (_, regions) = index.query_regions(&engine, band).expect("query");
    let covered = regions
        .iter()
        .any(|r| polygon_contains(r, p) || r.vertices.iter().any(|&q| q.distance(p) < 1e-6));
    assert!(covered, "Q2 around the Q1 value must cover the query point");
}
