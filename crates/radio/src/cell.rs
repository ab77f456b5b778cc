//! Physical cells and deployments.
//!
//! A [`PhyCell`] is a transmitter: identity, site position, channel, RAT and
//! power. A [`Deployment`] is the set of cells a UE can possibly hear, plus
//! the propagation model; it answers the only question the upper layers ask:
//! *"standing at point P, what do I measure for each detectable cell?"*

use crate::band::{ChannelNumber, Rat};
use crate::geom::Point;
use crate::propagation::{PropagationModel, RadioSample, ShadowingAt, SquareKey};
use crate::signal::{noise_floor_dbm, rsrq_from_rssi, Dbm, Rsrp, Sinr};
use mm_rng::Rng;

/// Globally unique cell identifier (the ECGI analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CellId(pub u32);

impl core::fmt::Display for CellId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// A physical cell (one sector of one site on one carrier frequency).
#[derive(Debug, Clone, PartialEq)]
pub struct PhyCell {
    /// Unique id.
    pub id: CellId,
    /// Physical-layer cell identity (PCI, 0..=503 for LTE); not unique.
    pub pci: u16,
    /// Site position.
    pub pos: Point,
    /// Downlink channel (RAT-qualified).
    pub channel: ChannelNumber,
    /// Reference-signal transmit power per resource element, dBm.
    pub tx_power_dbm: Dbm,
    /// Fraction of downlink resources occupied by other users' traffic,
    /// `[0, 1]` — drives RSRQ degradation under load.
    pub load: f64,
}

impl PhyCell {
    /// The RAT of this cell.
    pub fn rat(&self) -> Rat {
        self.channel.rat
    }
}

/// RSRP below which a cell is undetectable and never reported.
pub const DETECTION_FLOOR_DBM: f64 = -135.0;

/// Sites farther than this are left out of every measurement. This is a
/// modelling cut, not a physical bound: a strong low-band site can still
/// clear the detection floor beyond it. A 46 dBm cell on EARFCN 5110
/// (~739 MHz) in [`crate::propagation::Environment::Urban`] has a 15 km
/// median of about −129.5 dBm before any shadowing, above the −135 dBm
/// floor. ROADMAP.md's "Bound measurement by what a UE can hear" item
/// replaces the cut with a received-power floor.
pub const MAX_AUDIBLE_DISTANCE_M: f64 = 15_000.0;

/// Measurement bandwidth (in PRB) used for the RSSI/RSRQ computation.
pub const MEAS_BANDWIDTH_PRB: u32 = 50;

/// A set of physical cells sharing one propagation model.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    cells: Vec<PhyCell>,
    /// The propagation model computing what a UE hears.
    pub model: PropagationModel,
}

/// What a UE measures for one cell at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Which cell.
    pub cell: CellId,
    /// Where the cell sits in [`Deployment::cells`].
    pub index: usize,
    /// RSRP/RSRQ pair.
    pub sample: RadioSample,
}

/// The linear median power of every cell audible at one position, grouped
/// by channel, and each one's shadowing lattice corners.
///
/// [`Deployment::measure_into`] fills it once per UE epoch;
/// [`Deployment::sinr_in`] reads it for as long as the UE stays at that
/// position, so an epoch computes each cell's path loss, shadowing and
/// `powf` once. A refill in the same lattice square as the last one reuses
/// the corners of every cell it heard, so a UE draws a cell's four lattice
/// normals once per square it crosses, not once per epoch. Refilling it
/// reuses its buffers.
#[derive(Debug, Clone, Default)]
pub struct Survey {
    pos: Point,
    /// The lattice square `corners` were drawn in; `None` before the first
    /// fill.
    square: Option<SquareKey>,
    /// Each audible channel's group, in the order the channels were first
    /// heard.
    groups: Vec<Group>,
    /// Every audible cell, grouped by channel, in ascending cell index
    /// within a group.
    heard: Vec<Heard>,
    /// Each `heard` cell's [`ShadowingAt::corners`] in `square`.
    corners: Vec<[f64; 4]>,
}

/// One audible cell of a [`Survey`]: 16 bytes, no padding.
#[derive(Debug, Clone, Copy)]
struct Heard {
    /// The cell's median power, mW.
    mw: f64,
    /// Where the cell sits in [`Deployment::cells`]; a `u32` keeps the
    /// survey small, and deployments hold far fewer than 2³² cells.
    index: u32,
    /// The cell's [`CellId`]: the corners are valid for a later fill only
    /// if the cell at `index` still carries it.
    label: u32,
}

/// The audible cells of one channel in a [`Survey`].
#[derive(Debug, Clone, Copy)]
struct Group {
    channel: ChannelNumber,
    /// The channel's [`PropagationModel::channel_loss_db`].
    loss_db: f64,
    /// Where the group ends in `Survey::heard`.
    end: usize,
}

impl Survey {
    /// The range of `heard` holding group `slot`.
    fn group_at(&self, slot: usize) -> core::ops::Range<usize> {
        let start = slot
            .checked_sub(1)
            .and_then(|prev| self.groups.get(prev))
            .map_or(0, |g| g.end);
        let end = self.groups.get(slot).map_or(start, |g| g.end);
        start..end
    }

    /// Where the audible cells on `channel` sit in `heard`, in ascending
    /// cell index.
    fn group(&self, channel: ChannelNumber) -> core::ops::Range<usize> {
        match self.groups.iter().position(|g| g.channel == channel) {
            Some(slot) => self.group_at(slot),
            None => 0..0,
        }
    }
}

/// Working buffers of [`Deployment::measure_into`]. Nothing in them
/// outlives a call, so one scratch can serve every UE of an engine.
#[derive(Debug, Clone, Default)]
pub struct MeasureScratch {
    /// `(cell index, median dBm, channel slot)` of every audible cell, in
    /// ascending cell index.
    medians: Vec<(usize, f64, usize)>,
    /// The corners of each `medians` cell.
    corners: Vec<[f64; 4]>,
    /// Where each cell's corners sit in the survey being refilled, by cell
    /// index; empty unless the refill stays in the survey's lattice square.
    cached_at: Vec<u32>,
    /// Each [`Survey`] entry's load-weighted RSSI contribution, aligned
    /// with `Survey::heard`.
    terms: Vec<f64>,
    /// The last call's measurements.
    found: Vec<Measurement>,
}

impl Deployment {
    /// Build a deployment from cells and a propagation model.
    pub fn new(cells: Vec<PhyCell>, model: PropagationModel) -> Self {
        Deployment { cells, model }
    }

    /// All cells.
    pub fn cells(&self) -> &[PhyCell] {
        &self.cells
    }

    /// Find a cell by id.
    pub fn cell(&self, id: CellId) -> Option<&PhyCell> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// Where the cell `id` sits in [`Deployment::cells`].
    pub fn index_of(&self, id: CellId) -> Option<usize> {
        self.cells.iter().position(|c| c.id == id)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Add a cell.
    pub fn push(&mut self, cell: PhyCell) {
        self.cells.push(cell);
    }

    /// Median RSRP (path loss + shadowing, no measurement noise) of one cell
    /// at `pos`.
    pub fn median_rsrp(&self, cell: &PhyCell, pos: Point) -> Rsrp {
        let shadowing = self.model.shadowing_at(pos);
        let corners = shadowing.corners(u64::from(cell.id.0));
        let channel_loss_db = self.model.channel_loss_db(cell.channel);
        self.median_at(
            cell,
            &shadowing,
            corners,
            channel_loss_db,
            cell.pos.distance(pos),
        )
    }

    /// [`Deployment::median_rsrp`] with the shadowing field at the UE
    /// position, the cell's corners in it and the channel loss prepared,
    /// and the site distance `d` known.
    fn median_at(
        &self,
        cell: &PhyCell,
        shadowing: &ShadowingAt,
        corners: [f64; 4],
        channel_loss_db: f64,
        d: f64,
    ) -> Rsrp {
        let p = self.model.received_power_from(
            channel_loss_db,
            shadowing.db_from(corners),
            cell.tx_power_dbm,
            d,
        );
        Rsrp::new(p.0)
    }

    /// Measure every detectable cell at `pos`. Measurement noise is drawn
    /// from `rng`; RSRQ accounts for co-channel interference and per-cell
    /// load. Results are sorted by descending RSRP.
    pub fn measure_all<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> Vec<Measurement> {
        let mut scratch = MeasureScratch::default();
        self.measure_into(pos, rng, &mut Survey::default(), &mut scratch);
        scratch.found
    }

    /// [`Deployment::measure_all`] into reusable buffers: `survey` is left
    /// holding the medians at `pos` for [`Deployment::sinr_in`].
    pub fn measure_into<'s, R: Rng + ?Sized>(
        &self,
        pos: Point,
        rng: &mut R,
        survey: &mut Survey,
        scratch: &'s mut MeasureScratch,
    ) -> &'s [Measurement] {
        self.fill_survey(pos, None, survey, scratch);
        let n = f64::from(MEAS_BANDWIDTH_PRB);
        let noise_mw = noise_floor_dbm(9e6).to_mw();
        scratch.found.clear();
        scratch.found.reserve(scratch.medians.len());
        for &(i, median_dbm, slot) in &scratch.medians {
            if median_dbm < DETECTION_FLOOR_DBM {
                continue;
            }
            let cell = &self.cells[i];
            let noise = mm_rng::normal(rng, 0.0, self.model.measurement_noise_db);
            let rsrp = Rsrp::new(median_dbm + noise);

            // RSSI over the measurement bandwidth: serving RS power scaled to
            // full band + co-channel interferers weighted by their load. The
            // interferers are summed term by term, never as "channel total
            // minus own", so every f64 matches the pairwise definition.
            let own_mw = Dbm(rsrp.dbm()).to_mw() * n * (1.0 + 11.0 * cell.load);
            let group = survey.group_at(slot);
            let mut interf_mw = 0.0;
            for (heard, &term) in survey.heard[group.clone()]
                .iter()
                .zip(&scratch.terms[group])
            {
                if heard.index as usize != i {
                    // Accumulation order is the fixed `cells` order, identical on every run.
                    interf_mw += term;
                }
            }
            let rssi = Dbm::from_mw(own_mw + interf_mw + noise_mw * n);
            let rsrq = rsrq_from_rssi(rsrp, rssi, MEAS_BANDWIDTH_PRB);
            scratch.found.push(Measurement {
                cell: cell.id,
                index: i,
                sample: RadioSample { rsrp, rsrq },
            });
        }
        // The index tie-break makes the unstable sort agree with a stable
        // sort of the ascending-index input.
        scratch.found.sort_unstable_by(|a, b| {
            b.sample
                .rsrp
                .dbm()
                .total_cmp(&a.sample.rsrp.dbm())
                .then(a.cell.cmp(&b.cell))
                .then(a.index.cmp(&b.index))
        });
        &scratch.found
    }

    /// Fill `survey` with every cell audible at `pos` (only those on
    /// channel `only`, if given), and `scratch` with their medians in
    /// ascending cell index and their RSSI terms.
    ///
    /// A cell's corners are taken from `survey` when its last fill was in
    /// the same lattice square and heard the same cell at the same index;
    /// otherwise they are drawn afresh. Either way they are the same f64s.
    fn fill_survey(
        &self,
        pos: Point,
        only: Option<ChannelNumber>,
        survey: &mut Survey,
        scratch: &mut MeasureScratch,
    ) {
        // The scratch is sized once for the whole deployment, so refills
        // never regrow it; each UE's survey only for the cells it hears.
        let most = self.cells.len();
        let shadowing = self.model.shadowing_at(pos);
        scratch.cached_at.clear();
        if survey.square == Some(shadowing.key()) {
            // u32::MAX: no heard entry, so no cached corners.
            scratch.cached_at.resize(most, u32::MAX);
            for (at, heard) in survey.heard.iter().enumerate() {
                if let Some(slot) = scratch.cached_at.get_mut(heard.index as usize) {
                    *slot = at as u32;
                }
            }
        }
        survey.pos = pos;
        survey.square = Some(shadowing.key());
        survey.groups.clear();
        scratch.medians.clear();
        scratch.medians.reserve(most);
        scratch.corners.clear();
        scratch.corners.reserve(most);
        scratch.terms.clear();
        scratch.terms.reserve(most);
        for (i, c) in self.cells.iter().enumerate() {
            if only.is_some_and(|ch| ch != c.channel) {
                continue;
            }
            let d = c.pos.distance(pos);
            if d > MAX_AUDIBLE_DISTANCE_M {
                continue;
            }
            let slot = match survey.groups.iter().position(|g| g.channel == c.channel) {
                Some(slot) => slot,
                None => {
                    survey.groups.push(Group {
                        channel: c.channel,
                        loss_db: self.model.channel_loss_db(c.channel),
                        end: 0,
                    });
                    survey.groups.len() - 1
                }
            };
            let loss_db = survey.groups[slot].loss_db;
            let cached = scratch
                .cached_at
                .get(i)
                .map(|&at| at as usize)
                .filter(|&at| survey.heard.get(at).is_some_and(|h| h.label == c.id.0))
                .and_then(|at| survey.corners.get(at));
            let corners = match cached {
                Some(&corners) => corners,
                None => shadowing.corners(u64::from(c.id.0)),
            };
            let median = self.median_at(c, &shadowing, corners, loss_db, d);
            scratch.medians.push((i, median.dbm(), slot));
            scratch.corners.push(corners);
        }
        // Group by channel, keeping ascending cell index inside each group.
        let audible = scratch.medians.len();
        survey.heard.clear();
        survey.heard.reserve_exact(audible);
        survey.corners.clear();
        survey.corners.reserve_exact(audible);
        let n = f64::from(MEAS_BANDWIDTH_PRB);
        for (slot, group) in survey.groups.iter_mut().enumerate() {
            for (&(i, median_dbm, s), &corners) in scratch.medians.iter().zip(&scratch.corners) {
                if s == slot {
                    let cell = &self.cells[i];
                    let mw = Dbm(median_dbm).to_mw();
                    survey.heard.push(Heard {
                        mw,
                        index: i as u32,
                        label: cell.id.0,
                    });
                    survey.corners.push(corners);
                    scratch.terms.push(mw * n * (1.0 + 11.0 * cell.load));
                }
            }
            group.end = survey.heard.len();
        }
    }

    /// Downlink SINR of `cell_id` at `pos` given median powers (used by the
    /// throughput model): [`Deployment::sinr_in`] over a one-off survey of
    /// the cell's channel.
    pub fn sinr(&self, cell_id: CellId, pos: Point) -> Option<Sinr> {
        let index = self.index_of(cell_id)?;
        let mut survey = Survey::default();
        let only = Some(self.cells[index].channel);
        self.fill_survey(pos, only, &mut survey, &mut MeasureScratch::default());
        Some(self.sinr_in(index, &survey))
    }

    /// Downlink SINR of the cell at `index` from the medians in `survey`,
    /// at the survey's position. A cell beyond the audibility cut is not
    /// in the survey; its own power falls back to
    /// [`Deployment::median_rsrp`].
    ///
    /// Panics if `index` is out of range.
    pub fn sinr_in(&self, index: usize, survey: &Survey) -> Sinr {
        let cell = &self.cells[index];
        let mut own_mw = None;
        let mut interf_mw = 0.0;
        for heard in &survey.heard[survey.group(cell.channel)] {
            let (j, mw) = (heard.index as usize, heard.mw);
            let other = &self.cells[j];
            if j == index {
                own_mw = Some(mw);
            }
            if other.id == cell.id {
                continue;
            }
            // mm-allow(F001): accumulation order is the fixed `cells` order, identical on every run
            interf_mw += mw * other.load.max(0.05);
        }
        let own_mw =
            own_mw.unwrap_or_else(|| Dbm(self.median_rsrp(cell, survey.pos).dbm()).to_mw());
        // Per-RE noise: thermal over one 15 kHz subcarrier.
        let noise_mw = noise_floor_dbm(15e3).to_mw();
        Sinr::from_linear(own_mw / (interf_mw + noise_mw))
    }

    /// Cells whose site lies within `radius_m` of `pos`.
    pub fn cells_within(&self, pos: Point, radius_m: f64) -> Vec<&PhyCell> {
        self.cells
            .iter()
            .filter(|c| c.pos.distance(pos) <= radius_m)
            .collect()
    }

    /// The strongest detectable cell at `pos` by median RSRP, optionally
    /// restricted to one RAT.
    pub fn strongest(&self, pos: Point, rat: Option<Rat>) -> Option<(CellId, Rsrp)> {
        self.cells
            .iter()
            .filter(|c| rat.is_none_or(|r| c.rat() == r))
            .map(|c| (c.id, self.median_rsrp(c, pos)))
            .filter(|(_, r)| r.dbm() >= DETECTION_FLOOR_DBM)
            .max_by(|a, b| a.1.dbm().total_cmp(&b.1.dbm()))
    }

    /// [`Deployment::strongest`] over every RAT, through `survey`: it is
    /// refilled at `pos` as [`Deployment::measure_into`] would leave it, so
    /// the audible cells' shadowing corners come from, and stay in, its
    /// cache. Cells beyond the audibility cut are still candidates, as in
    /// [`Deployment::strongest`].
    pub fn strongest_in(
        &self,
        pos: Point,
        survey: &mut Survey,
        scratch: &mut MeasureScratch,
    ) -> Option<(CellId, Rsrp)> {
        self.fill_survey(pos, None, survey, scratch);
        let mut audible = scratch.medians.iter().peekable();
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| match audible.next_if(|m| m.0 == i) {
                Some(&(_, median_dbm, _)) => (c.id, Rsrp::new(median_dbm)),
                None => (c.id, self.median_rsrp(c, pos)),
            })
            .filter(|(_, r)| r.dbm() >= DETECTION_FLOOR_DBM)
            .max_by(|a, b| a.1.dbm().total_cmp(&b.1.dbm()))
    }
}

/// Convenience constructor for tests and examples.
pub fn cell(id: u32, x: f64, y: f64, chan: ChannelNumber, tx_dbm: f64) -> PhyCell {
    PhyCell {
        id: CellId(id),
        pci: (id % 504) as u16,
        pos: Point::new(x, y),
        channel: chan,
        tx_power_dbm: Dbm(tx_dbm),
        load: 0.3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::Environment;
    use mm_rng::SmallRng;

    fn two_cell_deployment() -> Deployment {
        let model = PropagationModel::new(Environment::Urban, 11);
        Deployment::new(
            vec![
                cell(1, 0.0, 0.0, ChannelNumber::earfcn(850), 46.0),
                cell(2, 2000.0, 0.0, ChannelNumber::earfcn(850), 46.0),
            ],
            model,
        )
    }

    #[test]
    fn nearer_cell_is_stronger_on_median() {
        let d = two_cell_deployment();
        let p = Point::new(200.0, 0.0);
        let r1 = d.median_rsrp(d.cell(CellId(1)).unwrap(), p);
        let r2 = d.median_rsrp(d.cell(CellId(2)).unwrap(), p);
        assert!(r1.dbm() > r2.dbm());
    }

    #[test]
    fn measure_all_sorted_desc_and_detectable_only() {
        let d = two_cell_deployment();
        let mut rng = SmallRng::seed_from_u64(5);
        let ms = d.measure_all(Point::new(200.0, 0.0), &mut rng);
        assert!(!ms.is_empty());
        for w in ms.windows(2) {
            assert!(w[0].sample.rsrp.dbm() >= w[1].sample.rsrp.dbm());
        }
        for m in &ms {
            assert!(m.sample.rsrp.dbm() >= DETECTION_FLOOR_DBM);
        }
    }

    #[test]
    fn strongest_picks_the_near_cell() {
        let d = two_cell_deployment();
        let (id, _) = d.strongest(Point::new(100.0, 0.0), None).unwrap();
        assert_eq!(id, CellId(1));
        let (id, _) = d.strongest(Point::new(1900.0, 0.0), None).unwrap();
        assert_eq!(id, CellId(2));
    }

    #[test]
    fn strongest_respects_rat_filter() {
        let model = PropagationModel::new(Environment::Urban, 3);
        let mut d = Deployment::new(
            vec![cell(1, 0.0, 0.0, ChannelNumber::earfcn(850), 46.0)],
            model,
        );
        d.push(cell(9, 50.0, 0.0, ChannelNumber::uarfcn(4435), 43.0));
        let p = Point::new(40.0, 0.0);
        let (id, _) = d.strongest(p, Some(Rat::Umts)).unwrap();
        assert_eq!(id, CellId(9));
    }

    #[test]
    fn sinr_degrades_with_co_channel_neighbor() {
        let model = PropagationModel::new(Environment::Urban, 21);
        let lone = Deployment::new(
            vec![cell(1, 0.0, 0.0, ChannelNumber::earfcn(850), 46.0)],
            model.clone(),
        );
        let crowded = two_cell_deployment();
        // Halfway between the two cells interference is maximal.
        let p = Point::new(1000.0, 0.0);
        let s_lone = lone.sinr(CellId(1), p).unwrap();
        let s_crowded = crowded.sinr(CellId(1), p).unwrap();
        assert!(s_lone.0 > s_crowded.0);
    }

    #[test]
    fn rsrq_worse_under_interference() {
        let d = two_cell_deployment();
        let mut rng = SmallRng::seed_from_u64(8);
        // Near cell 1: good RSRQ. Midway: worse RSRQ for cell 1.
        let near = d.measure_all(Point::new(100.0, 0.0), &mut rng);
        let mid = d.measure_all(Point::new(1000.0, 0.0), &mut rng);
        let q_near = near
            .iter()
            .find(|m| m.cell == CellId(1))
            .unwrap()
            .sample
            .rsrq;
        let q_mid = mid
            .iter()
            .find(|m| m.cell == CellId(1))
            .unwrap()
            .sample
            .rsrq;
        assert!(
            q_near.db() > q_mid.db(),
            "{} vs {}",
            q_near.db(),
            q_mid.db()
        );
    }

    #[test]
    fn the_audibility_cut_drops_cells_above_the_floor() {
        let model = PropagationModel::new(Environment::Urban, 1);
        let loss = model.path_loss_db(MAX_AUDIBLE_DISTANCE_M, ChannelNumber::earfcn(5110));
        let median = 46.0 - loss;
        assert!((median - -129.5).abs() < 0.1, "{median}");
        assert!(median > DETECTION_FLOOR_DBM);
    }

    #[test]
    fn cells_within_radius() {
        let d = two_cell_deployment();
        assert_eq!(d.cells_within(Point::new(0.0, 0.0), 100.0).len(), 1);
        assert_eq!(d.cells_within(Point::new(1000.0, 0.0), 1500.0).len(), 2);
    }

    /// A 365-cell city shaped like `mmlab::campaign::city_network`'s: 363
    /// cells scattered over a 20 km square on four shared channels, loads
    /// in `[0.15, 0.6)`, plus one cell alone on its own channel and one
    /// site far outside the city.
    fn city() -> Deployment {
        const CITY_M: f64 = 20_000.0;
        let shared = [850, 1975, 5110, 9820].map(ChannelNumber::earfcn);
        let mut rng = SmallRng::seed_from_u64(2018);
        let mut cells: Vec<PhyCell> = (0..363u32)
            .map(|i| PhyCell {
                load: rng.gen_range(0.15..0.6),
                ..cell(
                    1000 + i,
                    rng.gen_range(0.0..CITY_M),
                    rng.gen_range(0.0..CITY_M),
                    shared[i as usize % shared.len()],
                    46.0,
                )
            })
            .collect();
        cells.push(cell(
            5,
            9_000.0,
            11_000.0,
            ChannelNumber::earfcn(2300),
            46.0,
        ));
        cells.push(cell(7, 60_000.0, 60_000.0, shared[0], 46.0));
        Deployment::new(cells, PropagationModel::new(Environment::DenseUrban, 0xC1))
    }

    /// Seeded positions across the city, its corners (where sites sit
    /// beyond the audibility cut), and one far outside it, where nothing is
    /// detected.
    fn city_positions() -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(365);
        let mut at: Vec<Point> = (0..24)
            .map(|_| Point::new(rng.gen_range(0.0..20_000.0), rng.gen_range(0.0..20_000.0)))
            .collect();
        at.extend([
            Point::new(0.0, 0.0),
            Point::new(20_000.0, 20_000.0),
            Point::new(9_050.0, 11_020.0),
            Point::new(-200_000.0, 0.0),
        ]);
        at
    }

    /// The pairwise definition of `measure_all`: for every detected cell,
    /// rescan the audible cells and convert each co-channel median.
    fn measure_all_pairwise<R: Rng + ?Sized>(
        d: &Deployment,
        pos: Point,
        rng: &mut R,
    ) -> Vec<(CellId, RadioSample)> {
        let medians: Vec<(usize, f64)> = d
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.pos.distance(pos) <= MAX_AUDIBLE_DISTANCE_M)
            .map(|(i, c)| (i, d.median_rsrp(c, pos).dbm()))
            .collect();
        let noise_mw = noise_floor_dbm(9e6).to_mw();
        let mut out = Vec::new();
        for &(i, median_dbm) in &medians {
            if median_dbm < DETECTION_FLOOR_DBM {
                continue;
            }
            let cell = &d.cells()[i];
            let noise = mm_rng::normal(rng, 0.0, d.model.measurement_noise_db);
            let rsrp = Rsrp::new(median_dbm + noise);
            let n = f64::from(MEAS_BANDWIDTH_PRB);
            let own_mw = Dbm(rsrp.dbm()).to_mw() * n * (1.0 + 11.0 * cell.load);
            let mut interf_mw = 0.0;
            for &(j, other_dbm) in &medians {
                if j == i || d.cells()[j].channel != cell.channel {
                    continue;
                }
                interf_mw += Dbm(other_dbm).to_mw() * n * (1.0 + 11.0 * d.cells()[j].load);
            }
            let rssi = Dbm::from_mw(own_mw + interf_mw + noise_mw * n);
            let rsrq = rsrq_from_rssi(rsrp, rssi, MEAS_BANDWIDTH_PRB);
            out.push((cell.id, RadioSample { rsrp, rsrq }));
        }
        out.sort_by(|a, b| {
            b.1.rsrp
                .dbm()
                .total_cmp(&a.1.rsrp.dbm())
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// The full-scan definition of `sinr`: every co-channel audible cell's
    /// median recomputed from the propagation model.
    fn sinr_full_scan(d: &Deployment, cell_id: CellId, pos: Point) -> Sinr {
        let cell = d.cell(cell_id).unwrap();
        let own = d.median_rsrp(cell, pos).dbm();
        let mut interf_mw = 0.0;
        for other in d.cells() {
            if other.id == cell_id
                || other.channel != cell.channel
                || other.pos.distance(pos) > MAX_AUDIBLE_DISTANCE_M
            {
                continue;
            }
            let p = d.median_rsrp(other, pos).dbm();
            interf_mw += Dbm(p).to_mw() * other.load.max(0.05);
        }
        let noise_mw = noise_floor_dbm(15e3).to_mw();
        Sinr::from_linear(Dbm(own).to_mw() / (interf_mw + noise_mw))
    }

    #[test]
    fn measure_all_is_bit_identical_to_the_pairwise_loop() {
        let d = city();
        assert!(d.len() >= 300);
        let (mut survey, mut scratch) = (Survey::default(), MeasureScratch::default());
        let mut sizes = Vec::new();
        for (k, pos) in city_positions().into_iter().enumerate() {
            let mut want_rng = SmallRng::seed_from_u64(k as u64);
            let mut got_rng = want_rng.clone();
            let want = measure_all_pairwise(&d, pos, &mut want_rng);
            let got = d.measure_into(pos, &mut got_rng, &mut survey, &mut scratch);
            assert_eq!(got.len(), want.len(), "at {pos:?}");
            for (g, (id, w)) in got.iter().zip(&want) {
                assert_eq!(g.cell, *id, "order at {pos:?}");
                assert_eq!(d.cells()[g.index].id, g.cell);
                assert_eq!(g.sample.rsrp.dbm().to_bits(), w.rsrp.dbm().to_bits());
                assert_eq!(g.sample.rsrq.db().to_bits(), w.rsrq.db().to_bits());
            }
            // Same number of noise draws: both streams continue in step.
            assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>());
            // The allocating wrapper is the same computation.
            let wrapped = d.measure_all(pos, &mut SmallRng::seed_from_u64(k as u64));
            assert_eq!(wrapped.as_slice(), got);
            sizes.push(got.len());
        }
        assert_eq!(sizes.last(), Some(&0), "nothing is detected far outside");
        assert!(sizes.iter().any(|&n| n > 50), "{sizes:?}");
        // The lone-channel cell is measured, with no co-channel interferer.
        let near_lone = Point::new(9_050.0, 11_020.0);
        let ms = d.measure_all(near_lone, &mut SmallRng::seed_from_u64(1));
        assert!(ms.iter().any(|m| m.cell == CellId(5)));
    }

    #[test]
    fn sinr_from_the_survey_is_bit_identical_to_the_full_scan() {
        let d = city();
        let (mut survey, mut scratch) = (Survey::default(), MeasureScratch::default());
        let mut beyond_cut = 0;
        for (k, pos) in city_positions().into_iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(k as u64);
            d.measure_into(pos, &mut rng, &mut survey, &mut scratch);
            assert_eq!(survey.pos, pos);
            for (i, c) in d.cells().iter().enumerate() {
                let want = sinr_full_scan(&d, c.id, pos).0.to_bits();
                assert_eq!(
                    d.sinr_in(i, &survey).0.to_bits(),
                    want,
                    "{} at {pos:?}",
                    c.id
                );
                assert_eq!(d.sinr(c.id, pos).unwrap().0.to_bits(), want);
                if c.pos.distance(pos) > MAX_AUDIBLE_DISTANCE_M {
                    beyond_cut += 1;
                }
            }
        }
        assert!(beyond_cut > 0, "the fallback path must be exercised");
        assert_eq!(d.sinr(CellId(99_999), Point::new(0.0, 0.0)), None);
    }

    /// Every bit of a measurement list, for exact comparison.
    fn bits(ms: &[Measurement]) -> Vec<(CellId, usize, u64, u64)> {
        ms.iter()
            .map(|m| {
                let s = m.sample;
                (
                    m.cell,
                    m.index,
                    s.rsrp.dbm().to_bits(),
                    s.rsrq.db().to_bits(),
                )
            })
            .collect()
    }

    /// [`Deployment::strongest`]'s answer, bit for bit.
    fn strongest_bits(best: Option<(CellId, Rsrp)>) -> Option<(CellId, u64)> {
        best.map(|(id, r)| (id, r.dbm().to_bits()))
    }

    /// A route from (-1050, 525) to (1050, -525) in 14 m × 7 m steps,
    /// about one 1 s epoch of city driving each: both signs of both
    /// coordinates, a lattice corner of the city's 70 m lattice every
    /// tenth step (from the fifth), and sites crossing the audibility cut
    /// as it goes.
    fn route() -> impl Iterator<Item = Point> {
        (0..=150u32).map(|k| {
            let k = f64::from(k);
            Point::new(k * 14.0 - 1_050.0, 525.0 - k * 7.0)
        })
    }

    #[test]
    fn a_survey_carried_along_a_route_matches_fresh_ones() {
        let d = city();
        let spacing = d.model.environment.decorrelation_distance_m();
        let (mut survey, mut scratch) = (Survey::default(), MeasureScratch::default());
        let mut last: Option<(SquareKey, Vec<u32>)> = None;
        let (mut squares, mut corners_hit, mut heard_changed_in_square) = (0, 0, 0);
        for (k, pos) in route().enumerate() {
            let mut want_rng = SmallRng::seed_from_u64(k as u64);
            let mut got_rng = want_rng.clone();
            let want = d.measure_all(pos, &mut want_rng);
            let got = d.measure_into(pos, &mut got_rng, &mut survey, &mut scratch);
            assert_eq!(bits(got), bits(&want), "at {pos:?}");
            assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>());

            let mut fresh = Survey::default();
            let mut rng = SmallRng::seed_from_u64(0);
            d.measure_into(pos, &mut rng, &mut fresh, &mut MeasureScratch::default());
            for (i, c) in d.cells().iter().enumerate() {
                let got = d.sinr_in(i, &survey).0.to_bits();
                assert_eq!(got, d.sinr_in(i, &fresh).0.to_bits(), "{} at {pos:?}", c.id);
                if i % 23 == 0 {
                    assert_eq!(got, d.sinr(c.id, pos).unwrap().0.to_bits());
                }
            }

            let square = survey.square.unwrap();
            let mut heard: Vec<u32> = survey.heard.iter().map(|h| h.index).collect();
            heard.sort_unstable();
            match &last {
                Some((prev, prev_heard)) if *prev == square => {
                    heard_changed_in_square += usize::from(*prev_heard != heard);
                }
                _ => squares += 1,
            }
            last = Some((square, heard));
            if pos.x % spacing == 0.0 && pos.y % spacing == 0.0 {
                corners_hit += 1;
            }

            // Attach and re-establishment pick the same cell through the
            // cache, and leave the survey as the measurement left it.
            let best = d.strongest_in(pos, &mut survey, &mut scratch);
            assert_eq!(strongest_bits(best), strongest_bits(d.strongest(pos, None)));
            for (i, c) in d.cells().iter().enumerate().step_by(23) {
                assert_eq!(
                    d.sinr_in(i, &survey).0.to_bits(),
                    d.sinr_in(i, &fresh).0.to_bits(),
                    "{} at {pos:?}",
                    c.id
                );
            }
        }
        assert!(squares >= 20, "{squares} lattice squares");
        assert!(corners_hit >= 10, "{corners_hit} lattice corners");
        assert!(
            heard_changed_in_square > 0,
            "a site must cross the audibility cut inside one square"
        );
    }

    #[test]
    fn corners_are_drawn_only_when_the_square_changes() {
        let d = city();
        let (mut survey, mut scratch) = (Survey::default(), MeasureScratch::default());
        let mut rng = SmallRng::seed_from_u64(4);
        // Square (100, 100) of the 70 m lattice, then 14 m on inside it.
        let (start, same, next) = (
            Point::new(7_010.0, 7_010.0),
            Point::new(7_024.0, 7_017.0),
            Point::new(7_080.0, 7_017.0),
        );
        d.measure_into(start, &mut rng, &mut survey, &mut scratch);
        assert!(survey.corners.len() > 300);
        // A marker in place of every cached corner: a refill that reads the
        // cache instead of drawing carries it on.
        let marker = [0.25, -0.5, 1.0, -2.0];
        survey.corners.fill(marker);
        let poisoned = bits(d.measure_into(same, &mut rng.clone(), &mut survey, &mut scratch));
        assert!(survey.corners.iter().all(|&c| c == marker));
        let honest = d.measure_all(same, &mut rng.clone());
        assert_ne!(
            poisoned,
            bits(&honest),
            "the cached corners are the ones read"
        );

        // The next square draws every corner afresh.
        d.measure_into(next, &mut rng.clone(), &mut survey, &mut scratch);
        let mut fresh = Survey::default();
        d.measure_into(next, &mut rng, &mut fresh, &mut MeasureScratch::default());
        assert_ne!(survey.square, Some(d.model.shadowing_at(same).key()));
        assert_eq!(survey.corners.len(), fresh.corners.len());
        for (got, want) in survey.corners.iter().zip(&fresh.corners) {
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        }
    }

    #[test]
    fn a_survey_moved_to_another_deployment_is_never_stale() {
        let d = city();
        let model = |env, seed| PropagationModel::new(env, seed);
        let reseeded = Deployment::new(d.cells().to_vec(), model(Environment::DenseUrban, 0xC2));
        // Same sites at the same indices under other ids, the same cells
        // in another order, a prefix of the cells, and a coarser lattice
        // over the same seed.
        let relabelled = Deployment::new(
            d.cells()
                .iter()
                .map(|c| PhyCell {
                    id: CellId(c.id.0 + 50_000),
                    ..c.clone()
                })
                .collect(),
            d.model.clone(),
        );
        let reversed = Deployment::new(d.cells().iter().rev().cloned().collect(), d.model.clone());
        let prefix = Deployment::new(d.cells()[..120].to_vec(), d.model.clone());
        let coarser = Deployment::new(d.cells().to_vec(), model(Environment::Urban, 0xC1));
        // Square (71, 71) of the 70 m lattice, and one point that is in
        // square (0, 0) at every lattice spacing.
        for pos in [Point::new(5_000.0, 5_000.0), Point::new(10.0, 20.0)] {
            let (mut survey, mut scratch) = (Survey::default(), MeasureScratch::default());
            for dep in [
                &d,
                &reseeded,
                &d,
                &relabelled,
                &reversed,
                &d,
                &prefix,
                &d,
                &coarser,
                &d,
            ] {
                let rng = SmallRng::seed_from_u64(3);
                let got = bits(dep.measure_into(pos, &mut rng.clone(), &mut survey, &mut scratch));
                assert_eq!(
                    got,
                    bits(&dep.measure_all(pos, &mut rng.clone())),
                    "at {pos:?}"
                );
                for (i, c) in dep.cells().iter().enumerate() {
                    assert_eq!(
                        dep.sinr_in(i, &survey).0.to_bits(),
                        dep.sinr(c.id, pos).unwrap().0.to_bits(),
                        "{} at {pos:?}",
                        c.id
                    );
                }
            }
        }
    }

    #[test]
    fn a_lone_channel_sees_only_noise() {
        let d = city();
        let pos = Point::new(9_050.0, 11_020.0);
        let lone = d.index_of(CellId(5)).unwrap();
        let mut survey = Survey::default();
        d.measure_into(
            pos,
            &mut SmallRng::seed_from_u64(3),
            &mut survey,
            &mut MeasureScratch::default(),
        );
        assert_eq!(survey.group(d.cells()[lone].channel).len(), 1);
        let own_mw = Dbm(d.median_rsrp(&d.cells()[lone], pos).dbm()).to_mw();
        let noise_mw = noise_floor_dbm(15e3).to_mw();
        assert_eq!(
            d.sinr_in(lone, &survey).0.to_bits(),
            Sinr::from_linear(own_mw / (0.0 + noise_mw)).0.to_bits()
        );
    }

    #[test]
    fn measurement_noise_is_bounded_but_present() {
        let d = two_cell_deployment();
        let p = Point::new(300.0, 0.0);
        let median = d.median_rsrp(d.cell(CellId(1)).unwrap(), p).dbm();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut saw_diff = false;
        for _ in 0..50 {
            let ms = d.measure_all(p, &mut rng);
            let got = ms
                .iter()
                .find(|m| m.cell == CellId(1))
                .unwrap()
                .sample
                .rsrp
                .dbm();
            assert!((got - median).abs() < 10.0);
            if (got - median).abs() > 0.01 {
                saw_diff = true;
            }
        }
        assert!(saw_diff);
    }
}
