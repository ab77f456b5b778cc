//! Layer probes: direct, timed calls into the radio layer and the event
//! engine on a workload's own city network, at seeded positions and
//! routes. They run outside the traced wall time.

use crate::stats::{median, Stat};
use crate::trace::Tracer;
use mm_rng::{stream_rng, sub_seed, Rng};
use mmcarriers::world::CITY_SIZE_M;
use mmnetsim::mobility::CITY_SPEED_MPS;
use mmnetsim::sched::{CollectMode, Engine, UeOutcome};
use mmnetsim::{DriveConfig, Mobility, Network, Traffic};
use mmradio::geom::Point;
use std::hint::black_box;
use std::time::Instant;

/// Radio-layer cost per call and how much of each scan is useful.
pub struct RadioProbe {
    pub measure_all_ns: Stat,
    pub sinr_ns: Stat,
    /// Cells `measure_all` looked at, summed over calls.
    pub scanned: u64,
    /// Cells it reported as detected, summed over calls.
    pub detected: u64,
    pub calls: u64,
}

/// Time `calls` `measure_all` scans (and an SINR of the strongest cell)
/// at seeded positions across the city. Each call is also a span; the
/// timing is taken inside it.
pub fn radio(network: &Network, seed: u64, calls: usize, tr: &Tracer) -> RadioProbe {
    let dep = &network.deployment;
    let mut noise = stream_rng(seed, 0x7AD1_0000);
    let mut at = stream_rng(seed, 0x7AD1_0001);
    let (mut measure_ns, mut sinr_ns) = (Vec::new(), Vec::new());
    let (mut scanned, mut detected) = (0, 0);
    for _ in 0..calls {
        let pos = Point::new(
            at.gen_range(0.0..CITY_SIZE_M),
            at.gen_range(0.0..CITY_SIZE_M),
        );
        let (seen, ns) = tr.span("radio.measure_all", || {
            let t = Instant::now();
            let seen = black_box(dep.measure_all(black_box(pos), &mut noise));
            (seen, t.elapsed().as_nanos() as f64)
        });
        measure_ns.push(ns);
        scanned += dep.len() as u64;
        detected += seen.len() as u64;
        if let Some(best) = seen.first() {
            sinr_ns.push(tr.span("radio.sinr", || {
                let t = Instant::now();
                black_box(dep.sinr(best.cell, black_box(pos)));
                t.elapsed().as_nanos() as f64
            }));
        }
    }
    RadioProbe {
        measure_all_ns: median(&measure_ns),
        sinr_ns: median(&sinr_ns),
        scanned,
        detected,
        calls: calls as u64,
    }
}

/// One `Engine::run` over a shard of UEs.
pub struct EngineProbe {
    pub ns: u64,
    pub events: u64,
    pub max_queue_depth: u64,
    pub handoffs: u64,
    pub reports_sent: u64,
    /// Measurement epochs the UEs stepped: the engine's `measure_all`
    /// calls, one per UE per epoch.
    pub measure_calls: u64,
}

/// Run one engine over `cfgs` in `mode` and account for it.
pub fn engine(
    network: &Network,
    cfgs: &[DriveConfig],
    mode: CollectMode,
    tr: &Tracer,
) -> EngineProbe {
    let (outcome, ns) = tr.layer("netsim.engine_run", || {
        let t = Instant::now();
        let outcome = Engine::new(network).collect(mode).run(cfgs);
        (outcome, t.elapsed().as_nanos() as u64)
    });
    let (mut handoffs, mut reports_sent) = (0, 0);
    for ue in outcome.ues.iter().flatten() {
        match ue {
            UeOutcome::Full(run) => {
                handoffs += run.result.handoffs.len() as u64;
                reports_sent += run.reports_sent;
            }
            UeOutcome::Tally(t) => {
                handoffs += t.handoffs();
                reports_sent += t.reports_sent;
            }
        }
    }
    EngineProbe {
        ns,
        events: outcome.stats.events_processed,
        max_queue_depth: outcome.stats.max_queue_depth,
        handoffs,
        reports_sent,
        measure_calls: cfgs.iter().map(|c| c.duration_ms / c.epoch_ms).sum(),
    }
}

/// A seeded city drive, shaped like the fleet's and the campaigns' routes.
fn route(seed: u64) -> Mobility {
    Mobility::random_city_drive(CITY_SIZE_M, 14, CITY_SPEED_MPS, seed)
}

/// The drive configs of a fleet's first shard (`ues` UEs).
pub fn fleet_shard(seed: u64, ues: usize, duration_ms: u64, epoch_ms: u64) -> Vec<DriveConfig> {
    (0..ues)
        .map(|ue| {
            let s = sub_seed(seed, ue as u64);
            DriveConfig {
                mobility: route(s),
                traffic: Traffic::Speedtest,
                duration_ms,
                epoch_ms,
                active: true,
                seed: s,
            }
        })
        .collect()
}

/// One campaign shard's active speedtest drives (`runs` runs).
pub fn campaign_shard(seed: u64, runs: usize, duration_ms: u64) -> Vec<DriveConfig> {
    (0..runs)
        .map(|run| {
            let s = sub_seed(seed, (run as u64) << 8 | 1);
            DriveConfig::active_speedtest(route(s), duration_ms, s)
        })
        .collect()
}
