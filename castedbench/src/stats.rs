//! Order statistics and ratio helpers for the benchmark's reports.

/// Quantile `q` (0..=1) of `samples` by linear interpolation between
/// closest ranks: the value at fractional rank `q * (n - 1)` of the
/// sorted samples (numpy's default rule, Python's
/// `statistics.quantiles(method="inclusive")`).
///
/// Panics on an empty slice: every workload records at least one
/// operation before it summarizes.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (see [`quantile`]).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no values");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geometric mean needs positive values"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted (`den == 0`): a ratio
/// over an empty base reads as "none of nothing", never NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert!((quantile(&xs, 0.5) - 50.5).abs() < 1e-12);
        // rank 0.99 * 99 = 98.01 → 99 + 0.01 * (100 - 99)
        assert!((quantile(&xs, 0.99) - 99.01).abs() < 1e-9);
        assert!((quantile(&xs, 0.25) - 25.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&xs), 5.0);
        assert_eq!(quantile(&xs, 0.25), 3.0);
        assert!((quantile(&xs, 0.9) - 8.2).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(quantile(&[4.5], 0.0), 4.5);
        assert_eq!(quantile(&[4.5], 0.99), 4.5);
    }

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_over_empty_base_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
