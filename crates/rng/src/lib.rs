//! # mm-rng — the deterministic randomness subsystem
//!
//! Every stochastic component in the reproduction (shadowing fields,
//! measurement noise, configuration sampling, decision jitter) derives from
//! explicit 64-bit seeds so that every figure regenerates bit-identically.
//! This crate is the single in-tree source of randomness: a
//! SplitMix64-seeded **xoshiro256++** generator behind a minimal
//! `rand`-compatible trait surface ([`Rng`]: `gen`, `gen_range`,
//! `gen_bool`), the stable hash-based sub-seeding scheme used to derive
//! independent streams, and the Gaussian samplers (Box–Muller for
//! sequential draws, Acklam's inverse CDF for lattice fields).
//!
//! ## Determinism contract
//!
//! The output stream of [`Xoshiro256pp`] for a given seed, and the values
//! of [`splitmix64`]/[`sub_seed`]/[`lattice_uniform`], are **pinned by
//! golden-value tests** (`tests/golden.rs`). Changing either is a breaking
//! change to every recorded experiment trajectory: all figures and tables
//! in `EXPERIMENTS.md` regenerate from these streams. The xoshiro256++
//! step function is additionally verified against the published reference
//! test vector, so the stream matches any conforming implementation.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod xoshiro;

pub use xoshiro::Xoshiro256pp;

/// The workspace's default small, fast generator (xoshiro256++).
///
/// Named for source compatibility with the `rand::rngs::SmallRng` call
/// sites this crate replaced; unlike `rand`'s, this alias is guaranteed
/// stable across platforms and releases.
pub type SmallRng = Xoshiro256pp;

/// A source of random 64-bit words. The only method an engine must provide.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Expand a 64-bit seed into a full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling surface, implemented for every [`RngCore`].
///
/// Mirrors the subset of `rand::Rng` the workspace uses, so call sites read
/// identically: `rng.gen::<f64>()`, `rng.gen_range(0.0..size)`,
/// `rng.gen_range(80..=230)`, `rng.gen_bool(0.3)`.
pub trait Rng: RngCore {
    /// Sample a value of a [`Standard`]-distributed type (`f64`/`f32` are
    /// uniform in `[0, 1)`; integers are uniform over their full range).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a range (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// Panics on an empty range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        gen_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform `f64` in `[0, 1)` with the full 53-bit mantissa.
pub fn gen_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift with
/// rejection — exactly uniform and branch-cheap. `bound = 0` means the
/// full 2⁶⁴ range.
pub fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    if bound == 0 {
        return rng.next_u64();
    }
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(bound);
        if m as u64 >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Types samplable from the "standard" distribution (see [`Rng::gen`]).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        gen_f64(rng)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges a value can be sampled from (see [`Rng::gen_range`]).
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(
            self.start < self.end,
            "empty range {}..{}",
            self.start,
            self.end
        );
        let v = self.start + (self.end - self.start) * gen_f64(rng);
        // Floating rounding can land exactly on `end`; fold it back.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + (hi - lo) * gen_f64(rng)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(
            self.start < self.end,
            "empty range {}..{}",
            self.start,
            self.end
        );
        let v = self.start + (self.end - self.start) * f32::sample(rng);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range {}..{}", self.start, self.end);
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range {lo}..={hi}");
                // Span `hi - lo + 1`; a full-width range wraps to 0, which
                // `uniform_below` reads as "any u64".
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ---------------------------------------------------------------------------
// Sub-seeding: derive independent streams from a master seed.
// ---------------------------------------------------------------------------

/// SplitMix64 step — a high-quality 64→64 bit mixer used to derive
/// independent sub-seeds from a master seed plus a stream label.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a sub-seed from a master seed and an arbitrary stream label.
pub fn sub_seed(master: u64, label: u64) -> u64 {
    splitmix64(master ^ splitmix64(label))
}

/// Derive a sub-seed from a master seed and up to three stream labels.
pub fn sub_seed3(master: u64, a: u64, b: u64, c: u64) -> u64 {
    sub_seed(sub_seed(sub_seed(master, a), b), c)
}

/// A seeded small RNG for the given (master, label) stream.
pub fn stream_rng(master: u64, label: u64) -> SmallRng {
    SmallRng::seed_from_u64(sub_seed(master, label))
}

// ---------------------------------------------------------------------------
// Gaussian samplers.
// ---------------------------------------------------------------------------

/// Draw one standard-normal sample via Box–Muller.
pub fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u = 0 which would yield ln(0).
    let u: f64 = loop {
        let u = gen_f64(rng);
        if u > f64::EPSILON {
            break u;
        }
    };
    let v: f64 = gen_f64(rng);
    (-2.0 * u.ln()).sqrt() * (2.0 * core::f64::consts::PI * v).cos()
}

/// Draw one `N(mean, sigma²)` sample.
pub fn normal<R: RngCore + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * standard_normal(rng)
}

/// Deterministic unit-interval value for an integer lattice site — used for
/// spatially correlated shadowing fields (same site, same value, any order
/// of evaluation).
pub fn lattice_uniform(master: u64, cell: u64, ix: i64, iy: i64) -> f64 {
    unit_of(sub_seed3(master, cell, ix as u64, iy as u64))
}

/// Deterministic standard-normal value for an integer lattice site, via the
/// inverse-CDF rational approximation of Acklam (max abs error ~1.15e-9).
pub fn lattice_normal(master: u64, cell: u64, ix: i64, iy: i64) -> f64 {
    normal_of(sub_seed3(master, cell, ix as u64, iy as u64))
}

/// A site hash as a unit-interval value: its 53-bit mantissa → `[0, 1)`.
fn unit_of(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A site hash as a standard-normal value.
fn normal_of(h: u64) -> f64 {
    inverse_normal_cdf(unit_of(h).clamp(1e-12, 1.0 - 1e-12))
}

/// The four corners of one lattice square, `(ix, iy)`, `(ix + 1, iy)`,
/// `(ix, iy + 1)` and `(ix + 1, iy + 1)`, with each coordinate hashed once.
/// A field sampled for many cells at one point then costs two hashes per
/// cell and corner instead of six.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatticeSquare {
    hx: [u64; 2],
    hy: [u64; 2],
}

impl LatticeSquare {
    /// The square whose lower-left corner is `(ix, iy)`.
    pub fn new(ix: i64, iy: i64) -> LatticeSquare {
        LatticeSquare {
            hx: [splitmix64(ix as u64), splitmix64((ix + 1) as u64)],
            hy: [splitmix64(iy as u64), splitmix64((iy + 1) as u64)],
        }
    }

    /// [`lattice_normal`] of `(master, cell)` at the four corners, in the
    /// order above.
    pub fn normals(&self, master: u64, cell: u64) -> [f64; 4] {
        // sub_seed3(master, cell, x, y) = sub_seed(sub_seed(sub_seed(master, cell), x), y)
        let s = sub_seed(master, cell);
        let [x0, x1] = self.hx.map(|hx| splitmix64(s ^ hx));
        let [y0, y1] = self.hy;
        [x0 ^ y0, x1 ^ y0, x0 ^ y1, x1 ^ y1].map(|h| normal_of(splitmix64(h)))
    }
}

/// Acklam's inverse normal CDF approximation.
#[allow(
    clippy::excessive_precision,
    reason = "Acklam's coefficients are quoted exactly as published, including digits beyond f64 round-trip precision"
)]
pub fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seed_is_deterministic_and_label_sensitive() {
        assert_eq!(sub_seed(42, 7), sub_seed(42, 7));
        assert_ne!(sub_seed(42, 7), sub_seed(42, 8));
        assert_ne!(sub_seed(42, 7), sub_seed(43, 7));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn inverse_cdf_matches_known_quantiles() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.8413447) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn lattice_values_are_stable_and_distinct() {
        let a = lattice_normal(9, 1, 10, -3);
        let b = lattice_normal(9, 1, 10, -3);
        assert_eq!(a, b);
        assert_ne!(a, lattice_normal(9, 1, 11, -3));
        assert_ne!(a, lattice_normal(9, 2, 10, -3));
    }

    #[test]
    fn lattice_square_matches_lattice_normal_at_its_corners() {
        for (ix, iy) in [(0, 0), (10, -3), (-7, 42), (i64::MAX - 1, i64::MIN)] {
            for cell in [0, 1, 365, u64::MAX] {
                let got = LatticeSquare::new(ix, iy).normals(9, cell);
                let want = [
                    lattice_normal(9, cell, ix, iy),
                    lattice_normal(9, cell, ix + 1, iy),
                    lattice_normal(9, cell, ix, iy + 1),
                    lattice_normal(9, cell, ix + 1, iy + 1),
                ];
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn lattice_uniform_in_unit_interval() {
        for i in -20..20 {
            let u = lattice_uniform(3, 5, i, -i);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds_for_ints() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            let v = rng.gen_range(0..4usize);
            seen[v] = true;
            let w = rng.gen_range(3..=8i32);
            assert!((3..=8).contains(&w));
            let d = rng.gen_range(80..=230u64);
            assert!((80..=230).contains(&d));
        }
        assert!(seen.iter().all(|s| *s), "all four values should appear");
    }

    #[test]
    fn gen_range_respects_bounds_for_floats() {
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..10_000 {
            let v = rng.gen_range(0.0..5_000.0);
            assert!((0.0..5_000.0).contains(&v));
            let w = rng.gen_range(-3.0..=3.0);
            assert!((-3.0..=3.0).contains(&w));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(17);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "{frac}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.1));
    }

    #[test]
    fn uniform_below_is_unbiased_over_small_bound() {
        let mut rng = SmallRng::seed_from_u64(19);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[uniform_below(&mut rng, 3) as usize] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "{frac}");
        }
    }

    #[test]
    fn works_through_unsized_generic_bound() {
        // The `R: Rng + ?Sized` pattern used across the workspace.
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = SmallRng::seed_from_u64(23);
        let a = draw(&mut rng);
        assert!((0.0..1.0).contains(&a));
    }
}
