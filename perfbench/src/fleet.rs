//! `fleet_metro`: `run_fleet_on` for carrier A in C1 at world scale 0.2,
//! the sched engine in Tally mode. Radio measurement dominates.

use crate::inputs::{fleet_configs, FLEET_CONFIGS};
use crate::probe;
use crate::stats::{count, mean_of_medians, median, rate, ratio, Stat};
use crate::trace::{SpanTree, Tracer};
use crate::{m, pins, Timed, Traced};
use mm_exec::Executor;
use mm_store::fnv1a64;
use mmcarriers::world::World;
use mmexperiments::{run_fleet_on, FleetConfig, FleetReport};
use mmlab::campaign::city_network;
use mmnetsim::sched::CollectMode;
use mmnetsim::Network;
use std::time::Instant;

/// Set-up rounds per timed run, each over every configuration's world;
/// `setup_s` is the median.
const SETUP_ROUNDS: usize = 5;
/// Whole cycles over the configurations per timed run, at least.
const MIN_CYCLES: usize = 2;

/// What a fleet's set-up builds: the world and the city network.
fn setup(cfg: &FleetConfig, tr: &Tracer) -> Network {
    let world = tr.layer("carriers.world_generate", || {
        World::generate(cfg.seed, cfg.scale)
    });
    tr.layer("mmlab.city_network", || {
        city_network(&world, &cfg.carrier, cfg.city, cfg.seed)
    })
    .expect("carrier A has LTE cells in C1")
}

/// Whether a report of configuration `k` of the workload `seed` passes:
/// under the default seed its digest must equal the pin for `k`; under
/// any other seed every UE attached and every simulated millisecond was
/// stepped.
fn report_ok(seed: u64, k: usize, cfg: &FleetConfig, report: &FleetReport) -> bool {
    let digest = fnv1a64(report.render().as_bytes());
    let ok = match pins::fleet(seed, k) {
        Some(p) => p == digest,
        None => {
            let ues = cfg.ues as u64;
            report.tally.ues_attached == ues && report.tally.sim_ms == ues * cfg.duration_ms
        }
    };
    if !ok {
        eprintln!("# fleet_metro: report {k} failed its check (digest {digest:016x})");
    }
    ok
}

/// One run of configuration `k` of the workload `seed`, checked by
/// [`report_ok`].
fn fleet_run(
    seed: u64,
    k: usize,
    cfg: &FleetConfig,
    exec: &Executor,
    tr: &Tracer,
) -> (Option<FleetReport>, bool) {
    match tr.layer("experiments.run_fleet_on", || run_fleet_on(cfg, exec)) {
        Ok(r) => {
            let ok = report_ok(seed, k, cfg, &r);
            (Some(r), ok)
        }
        Err(e) => {
            eprintln!("# fleet_metro: run failed: {e}");
            (None, false)
        }
    }
}

pub fn timed(seed: u64, seconds: f64, exec: &Executor) -> Timed {
    let cfgs = fleet_configs(seed);
    let off = Tracer::new(false);
    let mut setups = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        for cfg in &cfgs {
            let t = Instant::now();
            drop(setup(cfg, &off));
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let (mut failed, mut events, mut run_s) = (0, 0, 0.0);
    let mut first: Vec<Option<String>> = vec![None; FLEET_CONFIGS];
    let mut walls = vec![Vec::new(); FLEET_CONFIGS];
    let start = Instant::now();
    // Whole cycles only, so every run weighs each configuration alike.
    let mut k = 0;
    while k < MIN_CYCLES * FLEET_CONFIGS
        || k % FLEET_CONFIGS != 0
        || start.elapsed().as_secs_f64() < seconds
    {
        let i = k % FLEET_CONFIGS;
        k += 1;
        let t = Instant::now();
        let (report, ok) = fleet_run(seed, i, &cfgs[i], exec, &off);
        let wall = t.elapsed().as_secs_f64();
        walls[i].push(wall);
        let Some(report) = report else {
            failed += 1;
            continue;
        };
        let text = report.render();
        let repeats = first[i].as_ref().is_none_or(|f| *f == text);
        if first[i].is_none() {
            eprintln!("# fleet_metro digest {i} {:016x}", fnv1a64(text.as_bytes()));
            first[i] = Some(text);
        }
        if !ok || !repeats {
            failed += 1;
        }
        events += report.stats.events_processed;
        run_s += wall;
    }
    let events_per_s = Stat::Value {
        v: events as f64 / run_s,
        n: k,
    };
    Timed {
        attempted: k as u64,
        failed,
        setup_s: median(&setups),
        throughput: events_per_s,
        op_ms: mean_of_medians(&walls).scaled(1e3),
        report: vec![m("fleet_ue_events_per_s", "1/s", events_per_s)],
    }
}

pub fn traced(seed: u64, exec: &Executor) -> Traced {
    let cfg = &fleet_configs(seed)[0];
    let off = Tracer::new(false);
    let t = Instant::now();
    drop(setup(cfg, &off));
    drop(fleet_run(seed, 0, cfg, exec, &off));
    let untraced_s = t.elapsed().as_secs_f64();

    let tr = Tracer::new(true);
    let t = Instant::now();
    let (network, (report, ok)) = tr.span("fleet_metro", || {
        let network = setup(cfg, &tr);
        let run = fleet_run(seed, 0, cfg, exec, &tr);
        (network, run)
    });
    let traced_s = t.elapsed().as_secs_f64();

    // One shard of the fleet on its own engine, and radio probes on the
    // fleet's network.
    let shard_ues = cfg.ues / cfg.shards.max(1);
    let cfgs = probe::fleet_shard(cfg.seed, shard_ues, cfg.duration_ms, cfg.epoch_ms);
    let (engine, radio) = tr.span("fleet_metro.probes", || {
        (
            probe::engine(&network, &cfgs, CollectMode::Tally, &tr),
            probe::radio(&network, seed, 400, &tr),
        )
    });

    let tree = SpanTree::new(tr.spans());
    let run_ms = tree.total_ms("experiments.run_fleet_on");
    let events = report.as_ref().map_or(0, |r| r.stats.events_processed);
    let c = |section: &str, name: &str| tree.counter("experiments.run_fleet_on", section, name);
    let mut layers = vec![
        m(
            "carriers.world_generate_ms",
            "ms",
            tree.ms("carriers.world_generate"),
        ),
        m("mmlab.city_network_ms", "ms", tree.ms("mmlab.city_network")),
        m(
            "experiments.run_fleet_on_ms",
            "ms",
            tree.ms("experiments.run_fleet_on"),
        ),
        m("experiments.ue_events_per_s", "1/s", rate(events, run_ms)),
        m(
            "sched.events_processed",
            "count",
            count(c("sched", "events_processed")),
        ),
        m(
            "exec.fanout_busy_ms",
            "ms",
            Stat::Value {
                v: c("exec", "busy_ns") as f64 / 1e6,
                n: 1,
            },
        ),
        m(
            "exec.fanout_speedup",
            "x",
            ratio(c("exec", "busy_ns") as f64, c("exec", "wall_ns")),
        ),
        m("exec.steals", "count", count(c("exec", "tasks_stolen"))),
        m(
            "exec.max_queue_depth",
            "count",
            tree.queue_depth_max("experiments.run_fleet_on"),
        ),
    ];
    layers.extend(crate::netsim_metrics(&engine));
    layers.extend(crate::radio_metrics(&radio, &engine));
    layers.extend(crate::trace_metrics(
        &tree,
        "fleet_metro",
        untraced_s,
        traced_s,
    ));
    Traced {
        workload: "fleet_metro",
        layers,
        tree,
        attempted: 1,
        failed: u64::from(!ok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;
    use mmexperiments::FleetTally;
    use mmnetsim::sched::EngineStats;

    /// A report that meets the invariants but matches no pinned digest.
    fn plausible(cfg: &FleetConfig) -> FleetReport {
        let ues = cfg.ues as u64;
        FleetReport {
            cfg: cfg.clone(),
            tally: FleetTally {
                ues_attached: ues,
                sim_ms: ues * cfg.duration_ms,
                ..FleetTally::default()
            },
            stats: EngineStats::default(),
        }
    }

    #[test]
    fn every_config_is_held_to_its_pin_under_the_default_seed() {
        for (k, cfg) in fleet_configs(DEFAULT_SEED).iter().enumerate() {
            let report = plausible(cfg);
            assert!(
                !report_ok(DEFAULT_SEED, k, cfg, &report),
                "config {k} digest-checked"
            );
        }
        for (k, cfg) in fleet_configs(DEFAULT_SEED + 1).iter().enumerate() {
            let report = plausible(cfg);
            assert!(
                report_ok(DEFAULT_SEED + 1, k, cfg, &report),
                "config {k} invariants"
            );
        }
    }
}
