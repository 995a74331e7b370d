//! Quantiles from raw per-call samples, and the rule for which percentiles
//! a sample set can support.

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Number of samples ranked strictly above percentile `pct` of `n` samples:
/// `n - ceil(n * pct / 100)`.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((n as f64 * pct / 100.0).ceil() as usize).min(n)
}

/// Whether `n` samples support reporting percentile `pct`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, pct: f64) -> bool {
    beyond(n, pct) >= MIN_BEYOND
}

/// Percentile `pct` of `samples` by linear interpolation between the two
/// closest ranks (rank `pct/100 * (n-1)`), or `None` when the samples do
/// not support it (see [`supports`]) — except the median, which any
/// non-empty sample set supports.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || (pct > 50.0 && !supports(n, pct)) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = pct / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(200, 95.0), 10);
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(!supports(9, 50.0));
        assert!(supports(20, 50.0) && !supports(20, 75.0));
        assert!(supports(40, 75.0) && !supports(40, 90.0));
    }

    #[test]
    fn unsupported_tail_is_refused_not_estimated() {
        let xs: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), None);
        assert!(percentile(&xs, 90.0).is_some());
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quantiles_interpolate_raw_samples() {
        // Unsorted input, exact values: no bucketing anywhere.
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        let ys: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank 0.95 * 199 = 189.05 -> 190 + 0.05 * (191 - 190)
        let p95 = percentile(&ys, 95.0).unwrap();
        assert!((p95 - 190.05).abs() < 1e-9, "{p95}");
        // A value between two log2 buckets stays exact.
        let zs = vec![17.0; 300];
        assert_eq!(percentile(&zs, 95.0), Some(17.0));
    }
}
