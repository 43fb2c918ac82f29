//! Diamond-square fractal terrain (paper §4.2).
//!
//! "We generated 2-D random fractal terrain of DEM by the diamond-square
//! algorithm using the midpoint displacement algorithm as random
//! displacements. … In each pass, an offset is randomly generated in the
//! random value range in each of two steps and then the random value
//! range is reduced by the scaling factor of 2^(−H). … With H set to
//! 1.0 … a very smooth fractal. With H set to 0.0 … something quite
//! jagged."

use cf_field::GridField;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Generates a fractal DEM with `(2^k + 1)²` vertices (`2^k × 2^k`
/// cells) and roughness `h ∈ [0, 1]`.
///
/// Values start in `[-1, 1]` (the paper's normalized height space); the
/// initial corner heights and every displacement are drawn from the
/// current random range, which shrinks by `2^(−h)` after each pass.
///
/// # Panics
///
/// Panics if `k == 0`, `k > 14` (2³⁰ cells — far beyond any workload),
/// or `h` is outside `[0, 1]`.
pub fn diamond_square(k: u32, h: f64, seed: u64) -> GridField {
    assert!((1..=14).contains(&k), "grid exponent {k} out of range");
    assert!((0.0..=1.0).contains(&h), "roughness H={h} outside [0, 1]");
    let size = 1usize << k; // cells per side
    let vw = size + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = vec![0.0f64; vw * vw];
    let idx = |x: usize, y: usize| y * vw + x;

    // Initial random heights at the four corners.
    let mut range = 1.0f64;
    for &(x, y) in &[(0, 0), (size, 0), (0, size), (size, size)] {
        values[idx(x, y)] = rng.gen_range(-range..=range);
    }

    let scale = 2f64.powf(-h);
    let mut step = size;
    while step > 1 {
        let half = step / 2;

        // Diamond step: centers of all squares.
        for y in (half..size).step_by(step) {
            for x in (half..size).step_by(step) {
                let avg = (values[idx(x - half, y - half)]
                    + values[idx(x + half, y - half)]
                    + values[idx(x - half, y + half)]
                    + values[idx(x + half, y + half)])
                    / 4.0;
                values[idx(x, y)] = avg + rng.gen_range(-range..=range);
            }
        }

        // Square step: the remaining midpoints (edge centers), averaging
        // their (up to four) diamond neighbours with wrap-free handling
        // at the borders.
        for y in (0..=size).step_by(half) {
            let x_start = if (y / half).is_multiple_of(2) {
                half
            } else {
                0
            };
            for x in (x_start..=size).step_by(step) {
                let mut sum = 0.0;
                let mut cnt = 0.0;
                if x >= half {
                    sum += values[idx(x - half, y)];
                    cnt += 1.0;
                }
                if x + half <= size {
                    sum += values[idx(x + half, y)];
                    cnt += 1.0;
                }
                if y >= half {
                    sum += values[idx(x, y - half)];
                    cnt += 1.0;
                }
                if y + half <= size {
                    sum += values[idx(x, y + half)];
                    cnt += 1.0;
                }
                values[idx(x, y)] = sum / cnt + rng.gen_range(-range..=range);
            }
        }

        range *= scale;
        step = half;
    }

    GridField::from_values(vw, vw, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_field::FieldModel;

    /// Mean absolute height difference between 4-neighbour vertices — a
    /// simple jaggedness statistic (larger = rougher, i.e. smaller `H`).
    fn mean_local_variation(field: &GridField) -> f64 {
        let (vw, vh) = field.vertex_dims();
        let mut sum = 0.0;
        let mut cnt = 0u64;
        for y in 0..vh {
            for x in 0..vw {
                let v = field.vertex_value(x, y);
                if x + 1 < vw {
                    sum += (v - field.vertex_value(x + 1, y)).abs();
                    cnt += 1;
                }
                if y + 1 < vh {
                    sum += (v - field.vertex_value(x, y + 1)).abs();
                    cnt += 1;
                }
            }
        }
        sum / cnt as f64
    }

    #[test]
    fn dimensions_match_exponent() {
        let f = diamond_square(5, 0.5, 1);
        assert_eq!(f.vertex_dims(), (33, 33));
        assert_eq!(f.num_cells(), 1024);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = diamond_square(4, 0.7, 42);
        let b = diamond_square(4, 0.7, 42);
        let c = diamond_square(4, 0.7, 43);
        for y in 0..17 {
            for x in 0..17 {
                assert_eq!(a.vertex_value(x, y), b.vertex_value(x, y));
            }
        }
        // Different seed must differ somewhere.
        let differs = (0..17)
            .flat_map(|y| (0..17).map(move |x| (x, y)))
            .any(|(x, y)| a.vertex_value(x, y) != c.vertex_value(x, y));
        assert!(differs);
    }

    #[test]
    fn larger_h_is_smoother() {
        // The paper's Fig. 10: H = 0.2 jagged, H = 0.8 smooth. Average
        // over a few seeds to avoid flukes.
        let mut rough = 0.0;
        let mut smooth = 0.0;
        for seed in 0..5 {
            rough += mean_local_variation(&diamond_square(6, 0.1, seed));
            smooth += mean_local_variation(&diamond_square(6, 0.9, seed));
        }
        assert!(
            smooth < rough / 2.0,
            "H=0.9 variation {smooth} not well below H=0.1 {rough}"
        );
    }

    #[test]
    fn values_are_bounded() {
        // Displacements form a geometric series: total range is bounded
        // by 1 + Σ 2^(-hk) ≤ 1 + k for any h ≥ 0.
        let k = 6;
        let f = diamond_square(k, 0.0, 7);
        let dom = f.value_domain();
        let bound = 2.0 * (1.0 + k as f64);
        assert!(dom.lo >= -bound && dom.hi <= bound, "domain {dom}");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_roughness() {
        let _ = diamond_square(4, 1.5, 0);
    }
}
