//! Weighted categorical distributions — the building block of every carrier
//! profile. Handoff parameters in the wild take a *finite set* of values
//! with very uneven popularity (paper Figs 14–15); a categorical over that
//! support is exactly the right generative object, and its Simpson index /
//! coefficient of variation can be computed in closed form for calibration
//! tests.

use mm_rng::Rng;
use mmcore::kernel::sum_f64;

/// A weighted categorical distribution over `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical<T> {
    items: Vec<(T, f64)>,
    total: f64,
}

impl<T: Clone> Categorical<T> {
    /// Build from `(value, weight)` pairs.
    ///
    /// # Panics
    /// Panics on an empty support or non-positive weights — a profile with
    /// no values is a calibration bug.
    pub fn new(items: Vec<(T, f64)>) -> Self {
        assert!(!items.is_empty(), "empty categorical support");
        for (_, w) in &items {
            assert!(*w > 0.0, "non-positive categorical weight");
        }
        let total = items.iter().map(|(_, w)| w).sum();
        Categorical { items, total }
    }

    /// A single-valued (deterministic) distribution.
    pub fn single(value: T) -> Self {
        Categorical::new(vec![(value, 1.0)])
    }

    /// Uniform over the given values.
    pub fn uniform(values: Vec<T>) -> Self {
        Categorical::new(values.into_iter().map(|v| (v, 1.0)).collect())
    }

    /// Draw one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        let mut x = rng.gen::<f64>() * self.total;
        for (v, w) in &self.items {
            x -= w;
            if x <= 0.0 {
                return v.clone();
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "Categorical::new rejects an empty support"
        )]
        self.items.last().expect("non-empty").0.clone()
    }

    /// The support values.
    pub fn support(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(v, _)| v)
    }

    /// Number of distinct values (richness `m`).
    pub fn richness(&self) -> usize {
        self.items.len()
    }

    /// The modal (highest-weight) value.
    pub fn mode(&self) -> &T {
        #[expect(
            clippy::expect_used,
            reason = "Categorical::new rejects an empty support"
        )]
        &self
            .items
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty")
            .0
    }

    /// Theoretical Simpson index of diversity `D = 1 − Σ pᵢ²`.
    pub fn simpson_index(&self) -> f64 {
        1.0 - sum_f64(self.items.iter().map(|(_, w)| (w / self.total).powi(2)))
    }

    /// Probability of one support entry by index.
    pub fn prob(&self, idx: usize) -> f64 {
        self.items[idx].1 / self.total
    }
}

impl Categorical<f64> {
    /// Theoretical coefficient of variation `Cv = σ/|μ|` of the value
    /// distribution (used to cross-check calibrations against Fig 16/17).
    pub fn coefficient_of_variation(&self) -> f64 {
        let mean: f64 = self.items.iter().map(|(v, w)| v * w / self.total).sum();
        let var: f64 = self
            .items
            .iter()
            .map(|(v, w)| (v - mean).powi(2) * w / self.total)
            .sum();
        if mean.abs() < 1e-12 {
            return 0.0;
        }
        var.sqrt() / mean.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_rng::SmallRng;

    #[test]
    fn single_always_returns_its_value() {
        let d = Categorical::single(42);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 42);
        }
        assert_eq!(d.simpson_index(), 0.0);
        assert_eq!(d.richness(), 1);
    }

    #[test]
    fn sampling_matches_weights() {
        let d = Categorical::new(vec![("a", 8.0), ("b", 2.0)]);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let mut a = 0;
        for _ in 0..n {
            if d.sample(&mut rng) == "a" {
                a += 1;
            }
        }
        let frac = f64::from(a) / f64::from(n);
        assert!((frac - 0.8).abs() < 0.02, "{frac}");
    }

    #[test]
    fn simpson_index_closed_form() {
        // p = (0.5, 0.5) → D = 0.5; p = (0.9, 0.1) → D = 1 - 0.82 = 0.18.
        let even = Categorical::new(vec![(1, 1.0), (2, 1.0)]);
        assert!((even.simpson_index() - 0.5).abs() < 1e-12);
        let skewed = Categorical::new(vec![(1, 9.0), (2, 1.0)]);
        assert!((skewed.simpson_index() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn cv_matches_hand_computation() {
        let d = Categorical::new(vec![(2.0, 1.0), (4.0, 1.0)]);
        // mean 3, sd 1 → Cv = 1/3.
        assert!((d.coefficient_of_variation() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mode_is_heaviest() {
        let d = Categorical::new(vec![(1, 1.0), (2, 5.0), (3, 2.0)]);
        assert_eq!(*d.mode(), 2);
    }

    #[test]
    #[should_panic(expected = "empty categorical")]
    fn empty_support_panics() {
        let _: Categorical<u8> = Categorical::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_weight_panics() {
        let _ = Categorical::new(vec![(1, 0.0)]);
    }

    #[test]
    fn uniform_is_even() {
        let d = Categorical::uniform(vec![1, 2, 3, 4]);
        assert!((d.simpson_index() - 0.75).abs() < 1e-12);
    }
}
