//! Propagation: log-distance path loss, spatially correlated shadowing, and
//! per-sample measurement noise.
//!
//! The paper leans on one physical fact — "3dB measurement dynamics is
//! common" (§4.1) — and otherwise only needs RSRP/RSRQ values with realistic
//! spatial structure so that reporting events and reselection rankings fire
//! the way they do in the wild. We use the classic log-distance model with a
//! frequency term, plus a Gudmundson-style correlated shadowing field
//! realized on a deterministic lattice (bilinearly interpolated), plus i.i.d.
//! fast measurement noise.

use crate::band::ChannelNumber;
use crate::geom::Point;
use crate::signal::{Dbm, Rsrp, Rsrq};
use mm_rng::LatticeSquare;

/// Deployment environment, controlling path-loss exponent and shadowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Dense city core (Chicago-like): high exponent, strong shadowing.
    DenseUrban,
    /// Typical city (Indianapolis/Lafayette-like).
    Urban,
    /// Suburban fringe.
    Suburban,
    /// Open highway corridors.
    Highway,
}

impl Environment {
    /// Path-loss exponent `n` of the log-distance model.
    pub fn path_loss_exponent(self) -> f64 {
        match self {
            Environment::DenseUrban => 3.8,
            Environment::Urban => 3.5,
            Environment::Suburban => 3.2,
            Environment::Highway => 2.9,
        }
    }

    /// Lognormal shadowing standard deviation, dB.
    pub fn shadowing_sigma_db(self) -> f64 {
        match self {
            Environment::DenseUrban => 8.0,
            Environment::Urban => 7.0,
            Environment::Suburban => 6.0,
            Environment::Highway => 4.5,
        }
    }

    /// Shadowing decorrelation distance, meters (Gudmundson; macro-cell
    /// scales — the serving cell must plausibly stay the strongest for tens
    /// of seconds of driving, as real A5 traces show).
    pub fn decorrelation_distance_m(self) -> f64 {
        match self {
            Environment::DenseUrban => 70.0,
            Environment::Urban => 110.0,
            Environment::Suburban => 160.0,
            Environment::Highway => 250.0,
        }
    }
}

/// One instantaneous measurement of a cell as seen by a UE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioSample {
    /// Reference signal received power.
    pub rsrp: Rsrp,
    /// Reference signal received quality.
    pub rsrq: Rsrq,
}

/// The propagation model: deterministic given (seed, cell id, position).
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationModel {
    /// Environment preset.
    pub environment: Environment,
    /// Master seed for the shadowing field.
    pub seed: u64,
    /// Std-dev of i.i.d. per-sample measurement noise, dB. The paper treats
    /// 3 dB swings as ordinary measurement dynamics.
    pub measurement_noise_db: f64,
    /// Reference path loss at 1 m for 1 GHz, dB.
    pub pl0_db: f64,
}

impl PropagationModel {
    /// A model with paper-calibrated defaults for the given environment.
    pub fn new(environment: Environment, seed: u64) -> Self {
        PropagationModel {
            environment,
            seed,
            measurement_noise_db: 1.5,
            pl0_db: 32.0,
        }
    }

    /// Median path loss in dB at distance `d` meters on channel `chan`.
    ///
    /// `PL = PL0 + 20·log10(f/1GHz) + 10·n·log10(max(d, 1))`
    pub fn path_loss_db(&self, d_m: f64, chan: ChannelNumber) -> f64 {
        self.path_loss_from(self.channel_loss_db(chan), d_m)
    }

    /// The part of the path loss fixed by the channel: `PL0 + 20·log10(f/1GHz)`.
    pub(crate) fn channel_loss_db(&self, chan: ChannelNumber) -> f64 {
        let f_ghz = chan.frequency_mhz().unwrap_or(1900.0) / 1000.0;
        self.pl0_db + 20.0 * f_ghz.max(0.1).log10()
    }

    /// [`PropagationModel::path_loss_db`] given the channel's
    /// [`PropagationModel::channel_loss_db`].
    pub(crate) fn path_loss_from(&self, channel_loss_db: f64, d_m: f64) -> f64 {
        let n = self.environment.path_loss_exponent();
        channel_loss_db + 10.0 * n * d_m.max(1.0).log10()
    }

    /// Correlated shadowing in dB for a cell at a UE position.
    ///
    /// A deterministic standard-normal lattice with spacing equal to the
    /// decorrelation distance is bilinearly interpolated; this yields a
    /// smooth field whose autocorrelation decays on roughly the configured
    /// scale, is independent across cells, and is reproducible from the
    /// seed alone.
    pub fn shadowing_db(&self, cell_label: u64, pos: Point) -> f64 {
        self.shadowing_at(pos).db(cell_label)
    }

    /// The shadowing field at `pos`, ready to be read for any cell.
    pub(crate) fn shadowing_at(&self, pos: Point) -> ShadowingAt {
        let dx = self.environment.decorrelation_distance_m();
        let gx = pos.x / dx;
        let gy = pos.y / dx;
        let fx = gx - gx.floor();
        let fy = gy - gy.floor();
        // Bilinear interpolation shrinks variance between lattice sites;
        // renormalize by the expected variance at the interpolation point so
        // sigma stays environment-accurate everywhere.
        let w00 = (1.0 - fx) * (1.0 - fy);
        let w10 = fx * (1.0 - fy);
        let w01 = (1.0 - fx) * fy;
        let w11 = fx * fy;
        let norm = (w00 * w00 + w10 * w10 + w01 * w01 + w11 * w11).sqrt();
        let (ix, iy) = (gx.floor() as i64, gy.floor() as i64);
        ShadowingAt {
            key: SquareKey {
                seed: self.seed,
                ix,
                iy,
            },
            square: LatticeSquare::new(ix, iy),
            fx,
            fy,
            sigma_db: self.environment.shadowing_sigma_db(),
            norm: norm.max(1e-6),
        }
    }

    /// Median received power (no noise) for a transmitter of `tx_power_dbm`
    /// at distance `d_m` on channel `chan`, including shadowing.
    pub fn received_power(
        &self,
        cell_label: u64,
        tx_power_dbm: Dbm,
        d_m: f64,
        chan: ChannelNumber,
        pos: Point,
    ) -> Dbm {
        let shadowing_db = self.shadowing_at(pos).db(cell_label);
        let channel_loss_db = self.channel_loss_db(chan);
        self.received_power_from(channel_loss_db, shadowing_db, tx_power_dbm, d_m)
    }

    /// [`PropagationModel::received_power`] given the channel's
    /// [`PropagationModel::channel_loss_db`] and the cell's shadowing at the
    /// UE position.
    pub(crate) fn received_power_from(
        &self,
        channel_loss_db: f64,
        shadowing_db: f64,
        tx_power_dbm: Dbm,
        d_m: f64,
    ) -> Dbm {
        let pl = self.path_loss_from(channel_loss_db, d_m);
        Dbm(tx_power_dbm.0 - pl + shadowing_db)
    }
}

/// What a cell's four lattice corner normals depend on besides the cell:
/// the field's seed and the lattice square. Two positions with equal keys
/// read the same corners for every cell, whatever the lattice spacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SquareKey {
    seed: u64,
    ix: i64,
    iy: i64,
}

/// The shadowing field at one UE position: the lattice square it falls in
/// and the interpolation weights. Every cell heard at that position shares
/// them, so only the cell's own lattice values are left to compute.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShadowingAt {
    key: SquareKey,
    square: LatticeSquare,
    fx: f64,
    fy: f64,
    sigma_db: f64,
    /// Interpolated-variance normalizer, floored away from zero.
    norm: f64,
}

impl ShadowingAt {
    /// Shadowing in dB of the cell labelled `cell_label`.
    pub(crate) fn db(&self, cell_label: u64) -> f64 {
        self.db_from(self.corners(cell_label))
    }

    /// The lattice square this position falls in, as a cache key for
    /// [`ShadowingAt::corners`].
    pub(crate) fn key(&self) -> SquareKey {
        self.key
    }

    /// The lattice normals of the cell labelled `cell_label` at the four
    /// corners of the square: a pure function of the cell and
    /// [`ShadowingAt::key`].
    pub(crate) fn corners(&self, cell_label: u64) -> [f64; 4] {
        self.square.normals(self.key.seed, cell_label)
    }

    /// Shadowing in dB of a cell whose [`ShadowingAt::corners`] are
    /// `[v00, v10, v01, v11]`: the bilinear interpolation at this position,
    /// scaled to the environment's sigma.
    pub(crate) fn db_from(&self, [v00, v10, v01, v11]: [f64; 4]) -> f64 {
        let v0 = v00 + (v10 - v00) * self.fx;
        let v1 = v01 + (v11 - v01) * self.fx;
        let v = v0 + (v1 - v0) * self.fy;
        self.sigma_db * v / self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::ChannelNumber;

    fn model() -> PropagationModel {
        PropagationModel::new(Environment::Urban, 77)
    }

    #[test]
    fn path_loss_grows_with_distance() {
        let m = model();
        let c = ChannelNumber::earfcn(850);
        let near = m.path_loss_db(100.0, c);
        let far = m.path_loss_db(1000.0, c);
        // 10·n per decade.
        assert!((far - near - 35.0).abs() < 0.5, "{near} {far}");
    }

    #[test]
    fn path_loss_grows_with_frequency() {
        let m = model();
        let low = m.path_loss_db(500.0, ChannelNumber::earfcn(5110)); // ~730 MHz
        let high = m.path_loss_db(500.0, ChannelNumber::earfcn(9820)); // ~2350 MHz
        assert!(high > low + 8.0, "{low} {high}");
    }

    #[test]
    fn shadowing_is_deterministic() {
        let m = model();
        let p = Point::new(123.4, -567.8);
        assert_eq!(m.shadowing_db(5, p), m.shadowing_db(5, p));
        assert_ne!(m.shadowing_db(5, p), m.shadowing_db(6, p));
    }

    /// The shadowing field evaluated corner by corner, straight from its
    /// definition.
    fn shadowing_by_definition(m: &PropagationModel, cell_label: u64, pos: Point) -> f64 {
        let dx = m.environment.decorrelation_distance_m();
        let (gx, gy) = (pos.x / dx, pos.y / dx);
        let (ix, iy) = (gx.floor() as i64, gy.floor() as i64);
        let (fx, fy) = (gx - gx.floor(), gy - gy.floor());
        let v00 = mm_rng::lattice_normal(m.seed, cell_label, ix, iy);
        let v10 = mm_rng::lattice_normal(m.seed, cell_label, ix + 1, iy);
        let v01 = mm_rng::lattice_normal(m.seed, cell_label, ix, iy + 1);
        let v11 = mm_rng::lattice_normal(m.seed, cell_label, ix + 1, iy + 1);
        let v0 = v00 + (v10 - v00) * fx;
        let v1 = v01 + (v11 - v01) * fx;
        let v = v0 + (v1 - v0) * fy;
        let w00 = (1.0 - fx) * (1.0 - fy);
        let w10 = fx * (1.0 - fy);
        let w01 = (1.0 - fx) * fy;
        let w11 = fx * fy;
        let norm = (w00 * w00 + w10 * w10 + w01 * w01 + w11 * w11).sqrt();
        m.environment.shadowing_sigma_db() * v / norm.max(1e-6)
    }

    #[test]
    fn split_path_loss_is_bit_identical_to_the_definition() {
        let m = model();
        for chan in [850, 5110, 9820, 70_000].map(ChannelNumber::earfcn) {
            let f_ghz = chan.frequency_mhz().unwrap_or(1900.0) / 1000.0;
            for d in [0.5f64, 1.0, 37.0, 812.5, 14_999.0] {
                let want = m.pl0_db
                    + 20.0 * f_ghz.max(0.1).log10()
                    + 10.0 * m.environment.path_loss_exponent() * f64::log10(d.max(1.0));
                assert_eq!(m.path_loss_db(d, chan).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn prepared_shadowing_is_bit_identical_to_the_definition() {
        let m = model();
        for k in 0..200u32 {
            let k = f64::from(k);
            // Both signs, lattice corners exactly, and points between them.
            let pos = Point::new(k * 37.3 - 3_000.0, 5_000.0 - k * 110.0);
            let at = m.shadowing_at(pos);
            for cell in [0, 1, 77, 1_000_363] {
                let want = shadowing_by_definition(&m, cell, pos).to_bits();
                assert_eq!(at.db(cell).to_bits(), want, "cell {cell} at {pos:?}");
                assert_eq!(m.shadowing_db(cell, pos).to_bits(), want);
            }
        }
    }

    #[test]
    fn shadowing_is_spatially_correlated() {
        let m = model();
        // 1 m apart: nearly equal. 10 decorrelation distances apart: free.
        let a = m.shadowing_db(3, Point::new(0.0, 0.0));
        let b = m.shadowing_db(3, Point::new(1.0, 0.0));
        assert!((a - b).abs() < 1.5, "near points differ: {a} vs {b}");
    }

    #[test]
    fn shadowing_sigma_is_approximately_environmental() {
        let m = model();
        let mut sum = 0.0;
        let mut sq = 0.0;
        let n = 4000;
        for i in 0..n {
            // Sample on a coarse grid (≫ decorrelation distance) so samples
            // are independent.
            let p = Point::new(f64::from(i) * 500.0, f64::from(i % 63) * 700.0);
            let s = m.shadowing_db(9, p);
            sum += s;
            sq += s * s;
        }
        let mean = sum / f64::from(n);
        let sd = (sq / f64::from(n) - mean * mean).sqrt();
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!((sd - 7.0).abs() < 0.7, "sd {sd}");
    }

    #[test]
    fn received_power_reasonable_at_cell_edge() {
        let m = model();
        let p = m.received_power(
            1,
            Dbm(46.0),
            800.0,
            ChannelNumber::earfcn(850),
            Point::new(800.0, 0.0),
        );
        assert!((-135.0..-70.0).contains(&p.0), "{}", p.0);
    }

    #[test]
    fn environments_are_ordered_by_harshness() {
        assert!(
            Environment::DenseUrban.path_loss_exponent()
                > Environment::Highway.path_loss_exponent()
        );
        assert!(
            Environment::DenseUrban.shadowing_sigma_db()
                > Environment::Highway.shadowing_sigma_db()
        );
        assert!(
            Environment::DenseUrban.decorrelation_distance_m()
                < Environment::Highway.decorrelation_distance_m()
        );
    }
}
