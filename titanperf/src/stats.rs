//! Order statistics over timing samples.

/// Sorts `values` and returns them; timings are finite, so the order is
/// total.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of an ascending, non-empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The median of unsorted values.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values.to_vec()))
}

/// The percentile at `per_mille` thousandths (nearest rank) of an ascending
/// slice, or `None` when fewer than ten samples lie beyond it — a tail with
/// less behind it does not repeat from run to run and is not reported.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (n * per_mille).div_ceil(1000).max(1);
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// The highest of p99.9, p99, p90 and p50 that [`percentile`] supports,
/// with its label.
pub fn highest_percentile(sorted: &[f64]) -> Option<(&'static str, f64)> {
    [(999, "p99.9"), (990, "p99"), (900, "p90"), (500, "p50")]
        .into_iter()
        .find_map(|(per_mille, label)| percentile(sorted, per_mille).map(|v| (label, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is the 90th, with exactly ten beyond it
        assert_eq!(percentile(&ramp(100), 900), Some(90.0));
        assert_eq!(percentile(&ramp(99), 900), None);
        assert_eq!(percentile(&ramp(100), 990), None);
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
        assert_eq!(percentile(&ramp(19), 500), None);
    }

    #[test]
    fn the_highest_supported_percentile_is_chosen() {
        assert_eq!(highest_percentile(&ramp(19)), None);
        assert_eq!(highest_percentile(&ramp(60)), Some(("p50", 30.0)));
        assert_eq!(highest_percentile(&ramp(150)), Some(("p90", 135.0)));
        assert_eq!(highest_percentile(&ramp(2000)), Some(("p99", 1980.0)));
        assert_eq!(highest_percentile(&ramp(10_000)), Some(("p99.9", 9990.0)));
    }
}
