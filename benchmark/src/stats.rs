//! Order statistics over latency samples.
//!
//! Percentiles are nearest-rank: the value at 1-based rank `⌈p/100 · n⌉` of
//! the sorted samples, so every reported percentile is a measured sample.
//! A tail percentile is reported only when at least [`TAIL_BEYOND`]
//! samples lie beyond it; otherwise it would be one of the few largest
//! samples and say more about one outlier than about the tail.

/// Samples that must lie strictly beyond a tail percentile's rank.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100, in steps of 0.1)
/// among `n` samples. Integer per-mille arithmetic, because `0.999 · n` in
/// floating point can land just above an integer and round up a rank.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples`; `None` when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Whether `n` samples leave at least [`TAIL_BEYOND`] beyond percentile `p`.
pub fn supports_tail(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= TAIL_BEYOND
}

/// The highest of p99.9, p99 and p90 that `samples` support, as
/// `(percentile, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| supports_tail(samples.len(), p))
        .and_then(|p| percentile(samples, p).map(|v| (p, v)))
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean; `None` when there are no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let s = one_to(10);
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(1.0));
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&one_to(4)), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 99 samples has rank 90: only 9 lie beyond it.
        assert!(!supports_tail(99, 90.0));
        assert!(supports_tail(100, 90.0));
        assert!(!supports_tail(999, 99.0));
        assert!(supports_tail(1000, 99.0));
        assert_eq!(tail(&one_to(99)), None);
        assert_eq!(tail(&one_to(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&one_to(999)), Some((90.0, 900.0)));
        assert_eq!(tail(&one_to(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&one_to(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&one_to(4)), Some(2.5));
        assert_eq!(mean(&[]), None);
    }
}
