//! Exact order statistics over raw samples.
//!
//! Percentiles come from the sorted sample vector itself (nearest rank),
//! never from a histogram: `vcad-obs` buckets snap to powers of two,
//! which is how `BENCH_loadgen.json` came to report p50 = p90 = 2^23 ns.

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of an ascending
/// slice, or `None` unless at least [`MIN_BEYOND`] samples lie beyond it
/// — a tail read off fewer samples is noise with a name.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    let beyond = sorted.len() - 1 - index;
    (beyond >= MIN_BEYOND).then(|| sorted[index])
}

/// The median of `values` (mean of the two middle samples for an even
/// count). Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    sort(values);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Sorts ascending. Panics on NaN: no measurement produces one.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Nanosecond samples as ascending microseconds.
pub fn sorted_us<T: Into<u64>>(samples_ns: impl IntoIterator<Item = T>) -> Vec<f64> {
    let mut us: Vec<f64> = samples_ns
        .into_iter()
        .map(|ns| ns.into() as f64 / 1_000.0)
        .collect();
    sort(&mut us);
    us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 50.0), Some(500.0));
        assert_eq!(percentile(&s, 90.0), Some(900.0));
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        // No interpolation: the answer is always a sample that occurred.
        let s = vec![1.0; 40]
            .into_iter()
            .chain(vec![7.0; 60])
            .collect::<Vec<_>>();
        assert_eq!(percentile(&s, 50.0), Some(7.0));
        assert_eq!(percentile(&s, 40.0), Some(1.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 sits at index 989, ten samples lie beyond.
        assert!(percentile(&ramp(1000), 99.0).is_some());
        // 999 samples: rank 990, only nine beyond.
        assert!(percentile(&ramp(999), 99.0).is_none());
        assert!(percentile(&ramp(999), 90.0).is_some());
        // p100 never has anything beyond it.
        assert!(percentile(&ramp(5000), 100.0).is_none());
        assert!(percentile(&[], 50.0).is_none());
        // The median of 20 samples has exactly ten beyond; of 19, nine.
        assert!(percentile(&ramp(20), 50.0).is_some());
        assert!(percentile(&ramp(19), 50.0).is_none());
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn sorted_us_converts_and_orders() {
        assert_eq!(sorted_us([3_000u32, 1_500, 2_000]), vec![1.5, 2.0, 3.0]);
        assert_eq!(sorted_us([2_500u64, 500]), vec![0.5, 2.5]);
    }
}
