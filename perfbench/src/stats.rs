//! Order statistics over timing samples.

/// Percentiles the tail latency may be reported at, lowest first.
pub const TAIL_LADDER: &[f64] = &[50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a percentile before it may be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Number of the `n` samples that lie beyond percentile `p`: the ones
/// ranked above the nearest-rank position of `p`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// tolerance keeps a product like `99.9 / 100 * 1000` (which is
/// `999.0000000000001` in floating point) at its exact rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`], at most `cap`, that has at
/// least [`TAIL_MIN_BEYOND`] of `n` samples beyond it; `None` when even
/// the median has too few.
///
/// Each workload passes a fixed `cap` chosen for the sample count its
/// run length gives, so the reported percentile does not switch between
/// runs when a run is a little faster or slower.
#[must_use]
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&p| p <= cap && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum divided by count, 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
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
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(tail_percentile(1000, 99.9), Some(99.0));
        // 999 samples: p99 is rank 990, 9 beyond, so p95 is the tail.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99.9), Some(95.0));
        // 40 samples: p75 leaves 10; 39 samples fall back to the median.
        assert_eq!(tail_percentile(40, 99.9), Some(75.0));
        assert_eq!(tail_percentile(39, 99.9), Some(50.0));
        assert_eq!(tail_percentile(19, 99.9), None);
    }

    #[test]
    fn tail_respects_the_workload_cap() {
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100_000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(30, 90.0), Some(50.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
