//! Percentiles and the sample-count rule.
//!
//! A percentile is reported only where the run has at least
//! [`MIN_BEYOND`] samples beyond it; otherwise the tail is not measured,
//! only guessed. Percentiles are nearest-rank over the sorted samples, so
//! each one is a latency some request actually saw.

/// Samples a reported percentile needs strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// 0-based nearest-rank index of percentile `p` (0 < p ≤ 100) among `n`.
pub fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// How many of `n` samples lie strictly beyond percentile `p`'s rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of unsorted `samples` (sorted in place).
/// Failed requests are recorded as `f64::INFINITY`: they miss every limit.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[rank(samples.len(), p)]
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        // p99 of 1000 samples: rank 990 (0-based 989), 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        // p90 needs 100 samples, p80 needs 50.
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(50, 80.0));
        assert!(!supports(49, 80.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn nearest_rank_values() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 90.0), 90.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        let mut failed = vec![1.0, f64::INFINITY, 2.0];
        assert_eq!(percentile(&mut failed, 100.0), f64::INFINITY);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
