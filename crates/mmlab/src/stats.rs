//! Small statistics helpers for figure generation: empirical CDFs, quantile
//! boxplot summaries, and percentage breakdowns.

use mmcore::kernel::sum_f64;

/// Empirical CDF points `(x, F(x)·100%)`, one per sample, sorted.
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, x)| (x, 100.0 * (i + 1) as f64 / n as f64))
        .collect()
}

/// Fraction (%) of values strictly above `threshold`.
pub fn pct_above(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    100.0 * values.iter().filter(|v| **v > threshold).count() as f64 / values.len() as f64
}

/// Linear-interpolated quantile (`q` in `[0,1]`); `None` for an empty set
/// (mirroring [`boxstats`] — library code must not panic on empty data,
/// which is reachable e.g. when a carrier deploys no cells of a RAT).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - pos.floor();
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Five-number boxplot summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

/// Compute boxplot stats; `None` for an empty set.
pub fn boxstats(values: &[f64]) -> Option<BoxStats> {
    Some(BoxStats {
        min: quantile(values, 0.0)?,
        q1: quantile(values, 0.25)?,
        median: quantile(values, 0.5)?,
        q3: quantile(values, 0.75)?,
        max: quantile(values, 1.0)?,
        n: values.len(),
    })
}

/// Mean of a value slice (0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sum_f64(values.iter().copied()) / values.len() as f64
}

/// Percentage breakdown of labelled counts, in input order.
pub fn percentages<T: Clone>(counts: &[(T, usize)]) -> Vec<(T, f64)> {
    let total: usize = counts.iter().map(|(_, c)| c).sum();
    counts
        .iter()
        .map(|(l, c)| {
            (
                l.clone(),
                if total == 0 {
                    0.0
                } else {
                    100.0 * *c as f64 / total as f64
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_ends_at_100() {
        let c = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(c[0], (1.0, 100.0 / 3.0));
        assert_eq!(c.last().unwrap().1, 100.0);
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert!((quantile(&v, 0.3).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[], 0.0), None);
    }

    #[test]
    fn boxstats_cover_five_numbers() {
        let b = boxstats(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((b.min, b.median, b.max), (1.0, 3.0, 5.0));
        assert_eq!(b.n, 5);
        assert!(boxstats(&[]).is_none());
    }

    #[test]
    fn pct_above_counts_strictly() {
        assert_eq!(pct_above(&[1.0, 2.0, 3.0, 4.0], 2.0), 50.0);
        assert_eq!(pct_above(&[], 0.0), 0.0);
    }

    #[test]
    fn percentages_sum_to_100() {
        let p = percentages(&[("a", 3), ("b", 1)]);
        assert_eq!(p, vec![("a", 75.0), ("b", 25.0)]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
