//! Value-query workloads (paper §4).
//!
//! "We used interval field value queries with variable query intervals:
//! Qinterval ranged from 0–0.1 relatively to the normalized interval
//! range of the total field value space to [0, 1]. … We generated
//! randomly 200 interval field value queries for each query interval."

use cf_geom::Interval;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Draws `count` random interval queries of relative width `qinterval`
/// (fraction of the value domain; `0` = exact-value queries) inside
/// `value_domain`.
///
/// # Panics
///
/// Panics if `qinterval` is outside `[0, 1]`.
pub fn interval_queries(
    value_domain: Interval,
    qinterval: f64,
    count: usize,
    seed: u64,
) -> Vec<Interval> {
    assert!(
        (0.0..=1.0).contains(&qinterval),
        "Qinterval {qinterval} outside [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let width = qinterval * value_domain.width();
    (0..count)
        .map(|_| {
            let lo = value_domain.lo + rng.gen::<f64>() * (value_domain.width() - width);
            Interval::new(lo, lo + width)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_stay_inside_domain() {
        let dom = Interval::new(100.0, 500.0);
        for q in interval_queries(dom, 0.1, 300, 1) {
            assert!(dom.contains_interval(q), "{q} outside {dom}");
            assert!((q.width() - 40.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_interval_is_exact_query() {
        let dom = Interval::new(0.0, 1.0);
        for q in interval_queries(dom, 0.0, 50, 2) {
            assert_eq!(q.width(), 0.0);
            assert!(dom.contains(q.lo));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let dom = Interval::new(0.0, 10.0);
        assert_eq!(
            interval_queries(dom, 0.05, 10, 7),
            interval_queries(dom, 0.05, 10, 7)
        );
        assert_ne!(
            interval_queries(dom, 0.05, 10, 7),
            interval_queries(dom, 0.05, 10, 8)
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_qinterval() {
        let _ = interval_queries(Interval::new(0.0, 1.0), 1.5, 1, 0);
    }
}
