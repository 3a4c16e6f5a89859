//! Order statistics over one run's samples.
//!
//! A timing is reported as its median and its tail percentile (p90),
//! which keeps at least [`MIN_TAIL`] samples beyond it from 100 samples
//! on; every run prints the highest percentile its sample count supports.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// The tail percentile every workload reports.
pub const TAIL: u32 = 90;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty): the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest whole percentile (50..=99) of `n` samples that has at
/// least [`MIN_TAIL`] samples strictly beyond its rank; `None` when even
/// the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - rank(n, p) >= MIN_TAIL)
}

/// A sorted copy of `values`, ready for [`percentile`].
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`, or 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values), 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond, p91 only 9.
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(99), Some(89));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        // Fewer than 20 samples cannot even support the median.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        for n in 20..2000 {
            let p = highest_supported_percentile(n).unwrap();
            assert!(n - rank(n, p) >= MIN_TAIL, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < MIN_TAIL, "n={n}: p{} also fits", p + 1);
            }
        }
    }
}
