//! Order statistics the ladder reports.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every phase runs a minimum number of
/// repetitions, so an empty sample is a harness bug.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest repetition of one operation. Interference from the
/// shared host only ever adds time, so this is the best estimate of the
/// operation's own cost.
pub fn fastest(repetitions: &[f64]) -> f64 {
    assert!(!repetitions.is_empty(), "fastest of no repetition");
    repetitions.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Rank (1-based) of the nearest-rank percentile `permille / 1000` in
/// a sample of `n`; integer arithmetic, so 90 % of 100 is rank 90.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// The tail percentile (in permille) a sample of `n` supports: `want`
/// if at least [`MIN_BEYOND`] samples lie beyond it, otherwise the
/// highest of 900 / 750 / 500 that has them (500 when none does).
pub fn supported_permille(n: usize, want: usize) -> usize {
    let supported = |p: usize| n - nearest_rank(n, p) >= MIN_BEYOND;
    [want, 900, 750]
        .into_iter()
        .find(|&p| p <= want && supported(p))
        .unwrap_or(500)
}

/// `(permille used, value)` of the tail percentile `samples` support.
pub fn tail_percentile(samples: &[f64], want: usize) -> (usize, f64) {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let v = sorted(samples);
    let p = supported_permille(v.len(), want);
    (p, v[nearest_rank(v.len(), p) - 1])
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// `numerator / denominator`, 0 when the denominator is 0 (a layer the
/// workload never entered).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 950), (950, 190.0));
        // 199 samples leave only 9 beyond p95: fall back to p90.
        assert_eq!(tail_percentile(&v[..199], 950), (900, 180.0));
        assert_eq!(tail_percentile(&v[..100], 950), (900, 90.0));
        // 30 samples support nothing above the median.
        assert_eq!(tail_percentile(&v[..30], 950), (500, 15.0));
        // 40 samples: exactly ten beyond p75.
        assert_eq!(tail_percentile(&v[..40], 950).0, 750);
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
