//! Statistics helpers: medians, tail percentiles that refuse to report
//! what the samples cannot support, and interval unions for span self
//! time.

use std::fmt;

/// Samples a tail percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// One reported statistic: a value with the number of samples behind it,
/// or `n/a` when there were too few. Never a silent zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    /// A measured value over `n` samples.
    Value { v: f64, n: usize },
    /// Not enough samples (`n` of them) to report anything.
    NotAvailable { n: usize },
}

impl Stat {
    /// The value, if there is one.
    pub fn value(self) -> Option<f64> {
        match self {
            Stat::Value { v, .. } => Some(v),
            Stat::NotAvailable { .. } => None,
        }
    }

    /// The sample count behind the statistic.
    pub fn n(self) -> usize {
        match self {
            Stat::Value { n, .. } | Stat::NotAvailable { n } => n,
        }
    }

    /// Scale the value (unit conversion); `n/a` stays `n/a`.
    pub fn scaled(self, k: f64) -> Stat {
        match self {
            Stat::Value { v, n } => Stat::Value { v: v * k, n },
            na => na,
        }
    }
}

impl fmt::Display for Stat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stat::Value { v, n } => write!(f, "{v:.6} (n={n})"),
            Stat::NotAvailable { n } => write!(f, "n/a (n={n})"),
        }
    }
}

/// `num / den` with its base; `n/a` when the base is zero.
pub fn ratio(num: f64, den: u64) -> Stat {
    if den == 0 {
        Stat::NotAvailable { n: 0 }
    } else {
        Stat::Value {
            v: num / den as f64,
            n: den as usize,
        }
    }
}

/// A count is its own sample size.
pub fn count(v: u64) -> Stat {
    Stat::Value { v: v as f64, n: 1 }
}

/// `n` items over `ms` milliseconds, per second; `n/a` over no time.
pub fn rate(n: u64, ms: f64) -> Stat {
    if ms > 0.0 {
        Stat::Value {
            v: n as f64 / (ms / 1e3),
            n: n as usize,
        }
    } else {
        Stat::NotAvailable { n: n as usize }
    }
}

/// Sorted copy of `xs` (total order, so NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, `n/a` without samples.
pub fn median(xs: &[f64]) -> Stat {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Stat::NotAvailable { n };
    }
    let mid = n / 2;
    let m = if n % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    Stat::Value { v: m, n }
}

/// The mean, `n/a` without samples.
pub fn mean(xs: &[f64]) -> Stat {
    if xs.is_empty() {
        return Stat::NotAvailable { n: 0 };
    }
    Stat::Value {
        v: xs.iter().sum::<f64>() / xs.len() as f64,
        n: xs.len(),
    }
}

/// The mean of each group's median: every group (one seeded world) weighs
/// the same however many samples it has. `n` counts all samples.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> Stat {
    let medians: Vec<f64> = groups.iter().filter_map(|g| median(g).value()).collect();
    if medians.is_empty() {
        return Stat::NotAvailable { n: 0 };
    }
    Stat::Value {
        v: medians.iter().sum::<f64>() / medians.len() as f64,
        n: groups.iter().map(Vec::len).sum(),
    }
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond percentile `p`'s rank in `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(p, n)
    }
}

/// Nearest-rank percentile `p`, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it; otherwise `n/a`.
pub fn percentile(xs: &[f64], p: f64) -> Stat {
    let n = xs.len();
    if n == 0 || beyond(p, n) < MIN_BEYOND {
        return Stat::NotAvailable { n };
    }
    let v = sorted(xs);
    Stat::Value {
        v: v[rank(p, n)],
        n,
    }
}

/// Per-bucket growth of a histogram between two readings of its counts;
/// a bucket missing from `before` counts from zero.
pub fn bucket_growth(before: &[u64], after: &[u64]) -> Vec<u64> {
    after
        .iter()
        .enumerate()
        .map(|(i, &v)| v.saturating_sub(before.get(i).copied().unwrap_or(0)))
        .collect()
}

/// The largest observation a histogram's growth can hold: the upper bound
/// of the highest bucket that grew. `n/a` when nothing grew or only the
/// overflow bucket holds it; `n` counts the observations.
pub fn highest_bucket(bounds: &[u64], grown: &[u64]) -> Stat {
    let n = grown.iter().sum::<u64>() as usize;
    match grown.iter().rposition(|&c| c > 0).map(|i| bounds.get(i)) {
        Some(Some(&b)) => Stat::Value { v: b as f64, n },
        _ => Stat::NotAvailable { n },
    }
}

/// Total length of the union of half-open intervals `[start, end)`:
/// overlapping intervals (children on two worker threads) count once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the union of
/// its children's intervals, each clipped to the span.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(cs, ce)| (cs.max(s), ce.min(e)))
        .collect();
    (e.saturating_sub(s)).saturating_sub(union_len(&clipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_nothing_is_not_available_not_zero() {
        assert_eq!(median(&[]), Stat::NotAvailable { n: 0 });
        assert_eq!(median(&[]).to_string(), "n/a (n=0)");
        assert_eq!(median(&[3.0, 1.0, 2.0]), Stat::Value { v: 2.0, n: 3 });
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Stat::Value { v: 2.5, n: 4 });
    }

    #[test]
    fn mean_of_nothing_is_not_available() {
        assert_eq!(mean(&[]), Stat::NotAvailable { n: 0 });
        assert_eq!(mean(&[1.0, 2.0]), Stat::Value { v: 1.5, n: 2 });
    }

    #[test]
    fn groups_weigh_alike_in_a_mean_of_medians() {
        let groups = vec![vec![1.0, 1.0, 100.0], vec![3.0], vec![]];
        assert_eq!(mean_of_medians(&groups), Stat::Value { v: 2.0, n: 4 });
        assert_eq!(mean_of_medians(&[]), Stat::NotAvailable { n: 0 });
    }

    #[test]
    fn ratio_with_zero_base_is_not_available() {
        assert_eq!(ratio(0.0, 0), Stat::NotAvailable { n: 0 });
        assert_eq!(ratio(1.0, 4), Stat::Value { v: 0.25, n: 4 });
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly 10 beyond.
        assert_eq!(beyond(90.0, 100), 10);
        assert_eq!(percentile(&xs, 90.0), Stat::Value { v: 90.0, n: 100 });
        // p99 leaves one beyond: not reportable.
        assert_eq!(percentile(&xs, 99.0), Stat::NotAvailable { n: 100 });
        // p50 of 19 samples leaves 9 beyond; of 20 leaves 10.
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&small, 50.0), Stat::NotAvailable { n: 19 });
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Stat::Value { v: 10.0, n: 20 });
        assert_eq!(percentile(&[], 50.0), Stat::NotAvailable { n: 0 });
    }

    #[test]
    fn highest_bucket_reads_only_what_grew() {
        let bounds = [1, 4, 16];
        // An earlier, deeper run (bucket 16) is not part of the growth.
        let grown = bucket_growth(&[0, 2, 5, 0], &[3, 2, 5, 0]);
        assert_eq!(grown, [3, 0, 0, 0]);
        assert_eq!(
            highest_bucket(&bounds, &grown),
            Stat::Value { v: 1.0, n: 3 }
        );
        assert_eq!(
            highest_bucket(&bounds, &bucket_growth(&[], &[0, 1, 0, 0])),
            Stat::Value { v: 4.0, n: 1 }
        );
        assert_eq!(
            highest_bucket(&bounds, &[0, 0, 0, 0]),
            Stat::NotAvailable { n: 0 }
        );
        assert_eq!(
            highest_bucket(&bounds, &[1, 0, 0, 2]),
            Stat::NotAvailable { n: 3 }
        );
    }

    #[test]
    fn overlapping_children_on_two_threads_count_once() {
        // Parent [0, 100); two workers' children overlap on [20, 40).
        let children = [(10, 40), (20, 60)];
        assert_eq!(union_len(&children), 50);
        assert_eq!(self_time((0, 100), &children), 50);
        // Disjoint children add; a child poking past the parent is clipped.
        assert_eq!(self_time((0, 100), &[(0, 10), (90, 150)]), 80);
        // Nested and identical intervals collapse.
        assert_eq!(union_len(&[(0, 10), (0, 10), (2, 5)]), 10);
        assert_eq!(self_time((0, 10), &[]), 10);
    }
}
