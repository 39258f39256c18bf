//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `pct`% of the sample at or below it. `pct` is
/// clamped to `[0, 100]`; an empty sample yields `0`.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let pct = pct.clamp(0.0, 100.0);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns the nearest-rank `pct` percentile.
pub fn percentile_of(values: &mut [u64], pct: f64) -> u64 {
    values.sort_unstable();
    percentile(values, pct)
}

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean of `values`; `0.0` when empty.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when the denominator is zero.
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
    fn nearest_rank_picks_the_smallest_value_covering_the_share() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 99.5), 100);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
    }

    #[test]
    fn nearest_rank_on_small_and_empty_samples() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 1.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        // Four values: p50 is the 2nd (rank ceil(2.0)), p51 the 3rd.
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 51.0), 30);
        // Out-of-range percentages clamp instead of indexing out of bounds.
        assert_eq!(percentile(&[10, 20, 30, 40], 150.0), 40);
        assert_eq!(percentile(&[10, 20, 30, 40], -5.0), 10);
    }

    #[test]
    fn percentile_of_sorts_its_input() {
        let mut values = vec![5, 1, 4, 2, 3];
        assert_eq!(percentile_of(&mut values, 50.0), 3);
        assert_eq!(values, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn median_mean_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 3]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
