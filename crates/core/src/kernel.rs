//! Order-pinned floating-point reduction kernels.
//!
//! Floating-point addition is not associative, so an f64 reduction is only
//! reproducible if its evaluation order is pinned. Workspace code that
//! runs under the mm-exec scatter path must not hand-roll `sum()` /
//! `fold` reductions (the F001 lint); it routes them through this module,
//! where the order is fixed once: a strict left fold in iterator order.
//! Callers keep their iteration order deterministic (slices, `BTreeMap`
//! ranges) and the kernel guarantees the accumulation order on top.
//!
//! The left fold with a `+0.0` start matches the standard library's
//! `Sum<f64>` bit for bit on every input except one made only of `-0.0`
//! (std starts from `-0.0`), so routing an existing `sum::<f64>()` through
//! [`sum_f64`] leaves the golden FNV hashes over every table unmoved.

/// Left-fold sum of `xs` in iterator order, starting from `+0.0`.
pub fn sum_f64(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(0.0, |acc, x| acc + x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_std_sum_bit_for_bit() {
        // A spread of magnitudes where association order matters.
        let xs = [1e16, 1.0, -1e16, 0.1, 3.5e-7, 2.0f64.powi(-40)];
        let std_sum: f64 = xs.iter().sum();
        assert_eq!(sum_f64(xs).to_bits(), std_sum.to_bits());
    }

    #[test]
    fn sum_of_nothing_is_positive_zero() {
        assert_eq!(sum_f64(std::iter::empty()).to_bits(), 0.0f64.to_bits());
    }
}
