//! Carrier configuration profiles: the generative model standing in for the
//! proprietary per-cell configuration databases of the 30 operators.
//!
//! A [`CarrierProfile`] holds one categorical distribution per tunable
//! parameter, a frequency plan with per-channel priority maps (the paper's
//! §5.4.1 frequency dependence), spatial-uniformity controls (§5.4.2:
//! T-Mobile is spatially uniform, AT&T/Verizon/Sprint are not), and the
//! reporting-event mix (Fig 5). Sampling a cell's [`CellConfig`] from the
//! profile is deterministic in `(world seed, carrier, cell id, position)`.

use crate::dist::Categorical;
use mm_rng::{stream_rng, sub_seed, sub_seed3, Rng};
use mmcore::config::{CellConfig, NeighborFreqConfig, Quantity};
use mmcore::events::{EventKind, ReportConfig};
use mmcore::kernel::sum_f64;
use mmradio::band::{ChannelNumber, Rat};
use mmradio::cell::CellId;
use mmradio::geom::Point;

/// Which decisive reporting policy a cell is configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventChoice {
    /// A3 with a relative offset (the dominant policy).
    A3,
    /// A5 on RSRP thresholds.
    A5Rsrp,
    /// A5 on RSRQ thresholds.
    A5Rsrq,
    /// Carrier-configured periodic reporting.
    Periodic,
    /// A2-primary (rare; paired with a conservative A3 fallback so the cell
    /// can still hand off).
    A2Primary,
}

/// One downlink channel in a carrier's plan.
#[derive(Debug, Clone, PartialEq)]
pub struct BandPlanEntry {
    /// The channel.
    pub channel: ChannelNumber,
    /// Relative share of cells on this channel.
    pub weight: f64,
    /// Reselection priority for cells on this channel — multi-valued for
    /// the channels the paper flags as conflict-prone (§5.4.1).
    pub priority: Categorical<u8>,
}

/// The full generative profile of one carrier.
#[derive(Debug, Clone, PartialEq)]
pub struct CarrierProfile {
    /// Short code ("A", "T", "V", ... as in Table 3).
    pub code: &'static str,
    /// Full name.
    pub name: &'static str,
    /// Country/region code ("US", "CN", ...).
    pub country: &'static str,
    /// Target number of cells in the generated world (Fig 12).
    pub n_cells: usize,
    /// RAT mix, fractions summing to ~1 (Table 4).
    pub rat_mix: Vec<(Rat, f64)>,
    /// LTE frequency plan.
    pub bands: Vec<BandPlanEntry>,
    /// Spatial uniformity: `None` → every cell samples independently (high
    /// spatial diversity, AT&T-like); `Some(grid_m)` → all cells in a
    /// `grid_m`-sized square share draws (T-Mobile-like, ζ ≈ 0).
    pub spatial_grid_m: Option<f64>,

    // --- idle-state (SIB) parameter distributions ---
    /// `Hs` (q-Hyst), dB.
    pub q_hyst: Categorical<f64>,
    /// `∆min` (q-RxLevMin), dBm.
    pub q_rxlevmin: Categorical<f64>,
    /// `Θintra` (s-IntraSearchP), dB.
    pub s_intra: Categorical<f64>,
    /// `Θnonintra` (s-NonIntraSearchP), dB — clamped to ≤ the drawn Θintra
    /// except for the rare counterexample carriers (§4.2).
    pub s_nonintra: Categorical<f64>,
    /// Probability that Θnonintra may exceed Θintra (rare counterexample).
    pub nonintra_above_intra_prob: f64,
    /// `Θ(s)lower` (threshServingLowP), dB.
    pub thresh_serving_low: Categorical<f64>,
    /// `Θ(c)higher` (threshX-High), dB.
    pub thresh_x_high: Categorical<f64>,
    /// `Θ(c)lower` (threshX-Low), dB.
    pub thresh_x_low: Categorical<f64>,
    /// Treselection, s.
    pub t_reselection: Categorical<f64>,

    // --- active-state (measConfig) distributions ---
    /// Decisive-event mix (Fig 5).
    pub event_mix: Categorical<EventChoice>,
    /// `∆A3`, dB.
    pub a3_offset: Categorical<f64>,
    /// `HA3`, dB.
    pub a3_hysteresis: Categorical<f64>,
    /// `(ΘA5,S, ΘA5,C)` RSRP pairs, dBm.
    pub a5_rsrp: Categorical<(f64, f64)>,
    /// `(ΘA5,S, ΘA5,C)` RSRQ pairs, dB.
    pub a5_rsrq: Categorical<(f64, f64)>,
    /// Time-to-trigger, ms.
    pub time_to_trigger: Categorical<u32>,
    /// Report interval, ms.
    pub report_interval: Categorical<u32>,
    /// Whether A5/A2 absolute thresholds shift per frequency band — the
    /// paper's Fig 19 finds A2/A5 frequency-dependent while A1/A3 and the
    /// timers are not.
    pub a5_freq_dependent: bool,
    /// Probability a cell also carries an auxiliary (non-decisive) A2.
    pub aux_a2_prob: f64,
    /// A2 threshold distribution (RSRP dBm).
    pub a2_threshold: Categorical<f64>,

    // --- temporal dynamics (Fig 13b) ---
    /// Probability a cell's *active* (reporting) parameters change at least
    /// once over the two-year observation window.
    pub active_update_prob: f64,
    /// Same for *idle* (SIB) parameters.
    pub idle_update_prob: f64,
}

impl CarrierProfile {
    /// Per-cell stream label, ignoring spatial uniformity (used for the
    /// active measConfig, which varies per cell even in spatially uniform
    /// carriers — Fig 5b shows T-Mobile's per-instance event mix).
    fn stream_cell(&self, world_seed: u64, param: u64, cell: CellId) -> u64 {
        let carrier_hash = self
            .code
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        sub_seed3(world_seed, carrier_hash, param, u64::from(cell.0))
    }

    /// The stream label for a parameter at a cell — honoring the carrier's
    /// spatial-uniformity policy: spatially uniform carriers key draws on
    /// the position's grid square, others on the cell id.
    fn stream(&self, world_seed: u64, param: u64, cell: CellId, pos: Point) -> u64 {
        let carrier_hash = self
            .code
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        match self.spatial_grid_m {
            None => sub_seed3(world_seed, carrier_hash, param, u64::from(cell.0)),
            Some(g) => {
                let gx = (pos.x / g).floor() as i64 as u64;
                let gy = (pos.y / g).floor() as i64 as u64;
                sub_seed3(
                    world_seed,
                    carrier_hash,
                    param,
                    gx.wrapping_mul(0x9E37).wrapping_add(gy),
                )
            }
        }
    }

    /// Draw the RAT of a new cell.
    pub fn sample_rat<R: Rng + ?Sized>(&self, rng: &mut R) -> Rat {
        let total = sum_f64(self.rat_mix.iter().map(|&(_, w)| w));
        let mut x = rng.gen::<f64>() * total;
        for (rat, w) in &self.rat_mix {
            x -= w;
            if x <= 0.0 {
                return *rat;
            }
        }
        self.rat_mix.last().map(|(r, _)| *r).unwrap_or(Rat::Lte)
    }

    /// Draw the channel of a new LTE cell (spatially keyed). `boost` names a
    /// band-plan index whose weight is tripled — used to model per-market
    /// deployment differences (Fig 20: Chicago's mix differs from the other
    /// cities').
    pub fn sample_channel_biased(
        &self,
        world_seed: u64,
        cell: CellId,
        pos: Point,
        boost: Option<usize>,
    ) -> ChannelNumber {
        let dist = Categorical::new(
            self.bands
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let w = if boost == Some(i) {
                        b.weight * 3.0
                    } else {
                        b.weight
                    };
                    (b.channel, w)
                })
                .collect(),
        );
        let mut rng = stream_rng(self.stream(world_seed, 1, cell, pos), 0);
        dist.sample(&mut rng)
    }

    /// Draw the channel of a new LTE cell (spatially keyed).
    pub fn sample_channel(&self, world_seed: u64, cell: CellId, pos: Point) -> ChannelNumber {
        self.sample_channel_biased(world_seed, cell, pos, None)
    }

    /// Band-dependent shift applied to absolute A5/A2 thresholds when
    /// `a5_freq_dependent` is set: a deterministic per-band offset in
    /// {−4, 0, +4} dB (Fig 19: the absolute thresholds of A2/A5 are
    /// frequency-dependent while relative offsets and timers are not).
    pub fn band_threshold_shift_db(&self, channel: ChannelNumber) -> f64 {
        if !self.a5_freq_dependent {
            return 0.0;
        }
        let idx = self
            .bands
            .iter()
            .position(|b| b.channel == channel)
            .unwrap_or(0);
        ((idx % 3) as f64 - 1.0) * 4.0
    }

    /// The band-plan entry for a channel.
    pub fn band_entry(&self, channel: ChannelNumber) -> Option<&BandPlanEntry> {
        self.bands.iter().find(|b| b.channel == channel)
    }

    /// Build the decisive reporting configuration for an event choice.
    /// `shift_db` is the band-dependent threshold shift (0 when the carrier
    /// is not frequency-dependent in A5/A2).
    pub fn build_report_config_shifted<R: Rng + ?Sized>(
        &self,
        choice: EventChoice,
        shift_db: f64,
        rng: &mut R,
    ) -> Vec<ReportConfig> {
        let ttt = self.time_to_trigger.sample(rng);
        let interval = self.report_interval.sample(rng);
        match choice {
            EventChoice::A3 => vec![ReportConfig {
                event: EventKind::A3 {
                    offset_db: self.a3_offset.sample(rng),
                },
                quantity: Quantity::Rsrp,
                hysteresis_db: self.a3_hysteresis.sample(rng),
                time_to_trigger_ms: ttt,
                report_interval_ms: interval,
                report_amount: 1,
            }],
            EventChoice::A5Rsrp => {
                let (t1, t2) = self.a5_rsrp.sample(rng);
                // The serving "no requirement" sentinel (−44) stays exact.
                let t1 = if t1 >= -44.0 { t1 } else { t1 + shift_db };
                // A5 keeps re-reporting on the configured interval while its
                // condition holds (the paper observes "one or multiple
                // A2/A5/P events" per handoff) — this is what lets the
                // network act on weaker candidates mid-cell (Fig 6's ~half
                // non-improving A5 handoffs).
                vec![ReportConfig {
                    event: EventKind::A5 {
                        threshold1: t1,
                        threshold2: t2 + shift_db,
                    },
                    quantity: Quantity::Rsrp,
                    hysteresis_db: 1.0,
                    time_to_trigger_ms: ttt,
                    report_interval_ms: interval,
                    report_amount: 0,
                }]
            }
            EventChoice::A5Rsrq => {
                let (t1, t2) = self.a5_rsrq.sample(rng);
                let half_shift = shift_db / 4.0; // RSRQ scale is compressed
                vec![ReportConfig {
                    event: EventKind::A5 {
                        threshold1: t1 + half_shift,
                        threshold2: t2 + half_shift,
                    },
                    quantity: Quantity::Rsrq,
                    hysteresis_db: 0.5,
                    time_to_trigger_ms: ttt,
                    report_interval_ms: interval,
                    report_amount: 0,
                }]
            }
            EventChoice::Periodic => vec![ReportConfig {
                event: EventKind::Periodic,
                quantity: Quantity::Rsrp,
                hysteresis_db: 0.0,
                time_to_trigger_ms: 0,
                report_interval_ms: interval.max(480),
                report_amount: 0,
            }],
            EventChoice::A2Primary => {
                // A2 alone cannot decide a handoff; real deployments pair it
                // with a conservative fallback, which is why A2 is decisive
                // in only ~1.7% of instances (Fig 5a).
                vec![
                    ReportConfig {
                        event: EventKind::A2 {
                            threshold: self.a2_threshold.sample(rng) + shift_db,
                        },
                        quantity: Quantity::Rsrp,
                        hysteresis_db: 1.0,
                        time_to_trigger_ms: ttt,
                        report_interval_ms: interval,
                        report_amount: 1,
                    },
                    ReportConfig {
                        event: EventKind::A3 { offset_db: 8.0 },
                        quantity: Quantity::Rsrp,
                        hysteresis_db: 1.0,
                        time_to_trigger_ms: ttt,
                        report_interval_ms: interval,
                        report_amount: 1,
                    },
                ]
            }
        }
    }

    /// Build the decisive reporting configuration with no band shift.
    pub fn build_report_config<R: Rng + ?Sized>(
        &self,
        choice: EventChoice,
        rng: &mut R,
    ) -> Vec<ReportConfig> {
        self.build_report_config_shifted(choice, 0.0, rng)
    }

    /// Sample the complete broadcast configuration for an LTE cell.
    ///
    /// `neighbor_channels` lists the other channels deployed around this
    /// cell (each becomes a SIB5 layer with the channel's configured
    /// priority). `version` increments on a configuration update
    /// (temporal dynamics, §5.1); version 0 is the original deployment.
    pub fn sample_cell_config(
        &self,
        world_seed: u64,
        cell: CellId,
        pos: Point,
        channel: ChannelNumber,
        neighbor_channels: &[ChannelNumber],
        version: u32,
    ) -> CellConfig {
        // Idle-state (SIB) parameters: stream 2. Idle updates are much rarer
        // than active updates, so idle parameters re-draw only on
        // even-numbered "major" versions (see `World::observed_config`).
        let idle_version = u64::from(version / 2);
        let mut rng = stream_rng(
            self.stream(world_seed, sub_seed(2, idle_version), cell, pos),
            1,
        );
        let mut cfg = CellConfig::minimal(cell, channel);
        cfg.serving.priority = self
            .band_entry(channel)
            .map_or(3, |b| b.priority.sample(&mut rng));
        cfg.serving.q_hyst_db = self.q_hyst.sample(&mut rng);
        cfg.serving.q_rxlevmin_dbm = self.q_rxlevmin.sample(&mut rng);
        cfg.serving.s_intra_search_db = self.s_intra.sample(&mut rng);
        let nonintra = self.s_nonintra.sample(&mut rng);
        cfg.serving.s_nonintra_search_db = if rng.gen::<f64>() < self.nonintra_above_intra_prob {
            nonintra // may exceed Θintra: the rare counterexample
        } else {
            nonintra.min(cfg.serving.s_intra_search_db)
        };
        cfg.serving.thresh_serving_low_db = self.thresh_serving_low.sample(&mut rng);
        cfg.serving.t_reselection_s = self.t_reselection.sample(&mut rng);

        for &nchan in neighbor_channels {
            if nchan == channel {
                continue;
            }
            if nchan.rat != Rat::Lte {
                // Inter-RAT reselection layer (SIB6/7/8). Callers list these
                // after every LTE channel, so the draws below never shift the
                // intra-LTE parameter stream. Priorities stay strictly below
                // the lowest LTE band priority (2): legacy layers never enter
                // the higher-priority measurement plan and never outrank an
                // LTE candidate, so the drive-test datasets are unaffected.
                let priority = rng.gen_range(0..2usize) as u8;
                let x_low = self
                    .thresh_x_low
                    .sample(&mut rng)
                    .max(cfg.serving.thresh_serving_low_db + 4.0);
                cfg.neighbor_freqs.push(NeighborFreqConfig {
                    channel: nchan,
                    priority,
                    thresh_x_high_db: self.thresh_x_high.sample(&mut rng),
                    thresh_x_low_db: x_low,
                    q_rxlevmin_dbm: self.q_rxlevmin.sample(&mut rng),
                    q_offset_freq_db: 0.0,
                    t_reselection_s: self.t_reselection.sample(&mut rng),
                    meas_bandwidth_prb: 0,
                });
                continue;
            }
            let priority = self
                .band_entry(nchan)
                .map_or(3, |b| b.priority.sample(&mut rng));
            // Fig 10's invariant: carriers keep Θ(c)lower above Θ(s)lower so
            // a lower-priority target is always better than the serving cell
            // it replaces.
            let x_low = self
                .thresh_x_low
                .sample(&mut rng)
                .max(cfg.serving.thresh_serving_low_db + 4.0);
            cfg.neighbor_freqs.push(NeighborFreqConfig {
                channel: nchan,
                priority,
                thresh_x_high_db: self.thresh_x_high.sample(&mut rng),
                thresh_x_low_db: x_low,
                q_rxlevmin_dbm: cfg.serving.q_rxlevmin_dbm,
                q_offset_freq_db: 0.0,
                t_reselection_s: self.t_reselection.sample(&mut rng),
                meas_bandwidth_prb: 50,
            });
        }

        // SIB4 intra-frequency neighbour list: the entry count and PCI-style
        // ids derive from the cell id alone (no RNG, so the idle parameter
        // stream is unchanged), and every q-OffsetCell is 0 dB — the field's
        // dominant real-world value — so candidate ranking and reselection
        // behave exactly as if the list were absent.
        let n_sib4 = 9 + cell.0 % 9;
        for k in 0..n_sib4 {
            let pci = CellId(cell.0.wrapping_mul(31).wrapping_add(k * 7) % 504);
            cfg.q_offset_cell_db.push((pci, 0.0));
        }

        // Active-state (measConfig) parameters: stream 3, re-drawn on every
        // version bump (active parameters update more often, Fig 13b).
        let mut arng = stream_rng(
            self.stream_cell(world_seed, sub_seed(3, u64::from(version)), cell),
            2,
        );
        let choice = self.event_mix.sample(&mut arng);
        let shift = self.band_threshold_shift_db(channel);
        cfg.report_configs = self.build_report_config_shifted(choice, shift, &mut arng);
        if arng.gen::<f64>() < self.aux_a2_prob && !matches!(choice, EventChoice::A2Primary) {
            cfg.report_configs.push(ReportConfig {
                event: EventKind::A2 {
                    threshold: self.a2_threshold.sample(&mut arng) + shift,
                },
                quantity: Quantity::Rsrp,
                hysteresis_db: 1.0,
                time_to_trigger_ms: 320,
                report_interval_ms: 480,
                report_amount: 1,
            });
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;

    fn att() -> CarrierProfile {
        builtin::profiles()
            .into_iter()
            .find(|p| p.code == "A")
            .expect("AT&T profile exists")
    }

    fn tmobile() -> CarrierProfile {
        builtin::profiles()
            .into_iter()
            .find(|p| p.code == "T")
            .expect("T-Mobile profile exists")
    }

    #[test]
    fn sampling_is_deterministic() {
        let p = att();
        let chan = p.sample_channel(9, CellId(5), Point::new(100.0, 100.0));
        let a = p.sample_cell_config(9, CellId(5), Point::new(100.0, 100.0), chan, &[], 0);
        let b = p.sample_cell_config(9, CellId(5), Point::new(100.0, 100.0), chan, &[], 0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_cells_differ_for_spatially_diverse_carriers() {
        let p = att();
        assert!(p.spatial_grid_m.is_none(), "AT&T samples per cell");
        let pos = Point::new(100.0, 100.0);
        let chan = ChannelNumber::earfcn(850);
        let mut distinct = 0;
        for i in 0..20 {
            let a = p.sample_cell_config(9, CellId(i), pos, chan, &[], 0);
            let b = p.sample_cell_config(9, CellId(i + 100), pos, chan, &[], 0);
            if a.serving.thresh_serving_low_db != b.serving.thresh_serving_low_db
                || a.report_configs != b.report_configs
            {
                distinct += 1;
            }
        }
        assert!(distinct > 5, "{distinct}");
    }

    #[test]
    fn tmobile_is_spatially_uniform() {
        let p = tmobile();
        let g = p.spatial_grid_m.expect("T-Mobile is grid-uniform");
        // Two different cells in the same grid square get identical idle
        // configs on the same channel.
        let pos1 = Point::new(10.0, 10.0);
        let pos2 = Point::new(g / 3.0, g / 3.0);
        let chan = p.sample_channel(9, CellId(1), pos1);
        let a = p.sample_cell_config(9, CellId(1), pos1, chan, &[], 0);
        let b = p.sample_cell_config(9, CellId(2), pos2, chan, &[], 0);
        assert_eq!(
            a.serving.thresh_serving_low_db,
            b.serving.thresh_serving_low_db
        );
        assert_eq!(a.serving.q_rxlevmin_dbm, b.serving.q_rxlevmin_dbm);
    }

    #[test]
    fn version_changes_active_but_not_idle_params() {
        let p = att();
        let pos = Point::new(0.0, 0.0);
        let chan = ChannelNumber::earfcn(850);
        let v0 = p.sample_cell_config(9, CellId(3), pos, chan, &[], 0);
        let v1 = p.sample_cell_config(9, CellId(3), pos, chan, &[], 1);
        // Same idle major version (0/2 == 1/2) → SIB params identical.
        assert_eq!(v0.serving, v1.serving);
        // Active params re-drawn (may coincide by chance for one cell, so
        // check across several cells).
        let mut changed = 0;
        for i in 0..30 {
            let a = p.sample_cell_config(9, CellId(i), pos, chan, &[], 0);
            let b = p.sample_cell_config(9, CellId(i), pos, chan, &[], 1);
            if a.report_configs != b.report_configs {
                changed += 1;
            }
        }
        assert!(changed > 10, "{changed}");
    }

    #[test]
    fn neighbor_layers_get_band_priorities() {
        let p = att();
        let pos = Point::new(50.0, 50.0);
        let cfg = p.sample_cell_config(
            9,
            CellId(4),
            pos,
            ChannelNumber::earfcn(5780),
            &[ChannelNumber::earfcn(9820), ChannelNumber::earfcn(5780)],
            0,
        );
        // Serving channel excluded from neighbour layers.
        assert_eq!(cfg.neighbor_freqs.len(), 1);
        assert_eq!(cfg.neighbor_freqs[0].channel, ChannelNumber::earfcn(9820));
        // Band 30 priority must exceed band 17's (AT&T's upgrade strategy).
        assert!(cfg.neighbor_freqs[0].priority > cfg.serving.priority);
    }

    #[test]
    fn a2_primary_cells_still_can_hand_off() {
        let p = att();
        let mut rng = stream_rng(1, 2);
        let rcs = p.build_report_config(EventChoice::A2Primary, &mut rng);
        assert_eq!(rcs.len(), 2);
        assert!(matches!(rcs[0].event, EventKind::A2 { .. }));
        assert!(matches!(rcs[1].event, EventKind::A3 { .. }));
    }

    #[test]
    fn nonintra_never_exceeds_intra_for_mainstream_carriers() {
        let p = att();
        assert_eq!(p.nonintra_above_intra_prob, 0.0);
        let pos = Point::new(0.0, 0.0);
        for i in 0..200 {
            let cfg = p.sample_cell_config(3, CellId(i), pos, ChannelNumber::earfcn(850), &[], 0);
            assert!(
                cfg.serving.s_nonintra_search_db <= cfg.serving.s_intra_search_db,
                "cell {i}"
            );
        }
    }
}
