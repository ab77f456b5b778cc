//! The event-driven fleet runtime (DESIGN.md §12): many UEs
//! interleaved on one shared event queue per shard, scattered across
//! mm-exec.
//!
//! The report attaches a `fleet_rate` section with sustained UE-events/sec
//! over a large population — the number the fleet acceptance gate in
//! `scripts/verify.sh` reads (`ue_events_per_sec`).

use mm_bench::Report;
use mm_exec::Executor;
use mm_json::Json;
use mmexperiments::{run_fleet_on, FleetConfig};

/// One timed pass over a larger fleet — 100k UEs in a full run, a small
/// population under `--smoke` (same code path) — attached to the JSON
/// report as `fleet_rate`.
fn attach_fleet_rate(bench: &mut Report) {
    let (ues, duration_ms) = if bench.is_smoke() {
        (2_000, 2_000)
    } else {
        (100_000, 2_000)
    };
    let cfg = FleetConfig {
        ues,
        shards: 64,
        duration_ms,
        ..FleetConfig::default()
    };
    let exec = Executor::from_env();
    let t0 = std::time::Instant::now();
    let report = run_fleet_on(&cfg, &exec).expect("fleet runs");
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let events = report.stats.events_processed as f64;
    bench.attach(
        "fleet_rate",
        Json::Obj(vec![
            ("ues".to_string(), Json::Num(ues as f64)),
            ("shards".to_string(), Json::Num(cfg.shards as f64)),
            ("duration_ms".to_string(), Json::Num(duration_ms as f64)),
            ("events_processed".to_string(), Json::Num(events)),
            ("threads".to_string(), Json::Num(exec.threads() as f64)),
            ("ue_events_per_sec".to_string(), Json::Num(events / wall_s)),
        ]),
    );
}

fn main() {
    let mut report = Report::from_args();
    attach_fleet_rate(&mut report);
    report.write().expect("write the bench report");
}
