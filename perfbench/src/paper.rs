//! `paper`: in-process `mmx all ablations` on a mid-size context — the
//! context warm-up (world, D2 crawl, D2 aggregate, both D1 campaigns)
//! followed by the 25-artifact fan-out over mm-exec.

use crate::inputs::{instance_seed, paper_artifacts, paper_ctx};
use crate::probe;
use crate::stats::{count, mean, median, rate, ratio, Stat};
use crate::trace::{SpanTree, Tracer};
use crate::{m, pins, Metric, Timed, Traced};
use mm_exec::{Executor, RunStats};
use mm_store::fnv1a64;
use mmcarriers::city::City;
use mmexperiments::{run, ArtifactOutput, Ctx};
use mmlab::campaign::city_network;
use mmnetsim::sched::CollectMode;
use std::time::Instant;

/// Contexts per timed run: one seeded world per [`SECONDS_PER_CONTEXT`]
/// of run time (a fan-out takes about that long on 2 cores), at least
/// [`MIN_CONTEXTS`]. The count depends on `--seconds` alone, so two
/// commits always do the same work. Each context is warmed up and fanned
/// out once; `setup_s` is the median warm-up and `render_s` the mean
/// fan-out, so each world weighs alike.
const MIN_CONTEXTS: usize = 3;
const SECONDS_PER_CONTEXT: f64 = 3.0;
/// Artifacts reported on their own; the rest are summed.
const NAMED: [&str; 5] = ["f8", "f7", "abl-a3", "abl-ttt", "abl-qhyst"];

/// Build and warm the context every artifact reads.
fn setup(seed: u64, tr: &Tracer) -> Ctx {
    let ctx = paper_ctx(seed);
    tr.layer("carriers.world_generate", || {
        ctx.world();
    });
    tr.layer("mmlab.crawl", || {
        ctx.d2();
    });
    tr.layer("experiments.d2_agg", || {
        ctx.d2_agg();
    });
    tr.layer("mmlab.campaign_active", || {
        ctx.d1_active();
    });
    tr.layer("mmlab.campaign_idle", || {
        ctx.d1_idle();
    });
    ctx
}

/// Render all 25 artifacts as tasks on the pool, in request order.
fn fanout(ctx: &Ctx, exec: &Executor, tr: &Tracer) -> (Vec<ArtifactOutput>, RunStats) {
    tr.layer("exec.fanout", || {
        let parent = tr.current();
        exec.scatter_gather_stats(paper_artifacts(), |_, a| {
            tr.adopt(parent, || {
                tr.span(&format!("experiments.artifact.{}", a.id()), || run(ctx, a))
            })
        })
    })
}

/// Check one fan-out: 25 non-empty artifacts in request order, equal to
/// the pinned digests under the default seed. Returns (attempted, failed).
fn check(seed: u64, outs: &[ArtifactOutput]) -> (u64, u64) {
    let want = paper_artifacts();
    let mut failed = want.len().saturating_sub(outs.len()) as u64;
    for (o, a) in outs.iter().zip(&want) {
        let d = fnv1a64(o.text.as_bytes());
        let id = o.artifact.id();
        let pinned = pins::paper(seed, id).is_none_or(|p| p == d);
        if o.text.trim().is_empty() || !pinned || o.artifact != *a {
            eprintln!("# paper: artifact {id} failed its check (digest {d:016x})");
            failed += 1;
        }
    }
    (want.len() as u64, failed)
}

pub fn timed(seed: u64, seconds: f64, exec: &Executor) -> Timed {
    let off = Tracer::new(false);
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let contexts = ((seconds / SECONDS_PER_CONTEXT).ceil() as usize).max(MIN_CONTEXTS);
    for i in 0..contexts {
        let ctx_seed = instance_seed(seed, i);
        let t = Instant::now();
        let ctx = setup(ctx_seed, &off);
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (outs, _) = fanout(&ctx, exec, &off);
        walls.push(t.elapsed().as_secs_f64());
        let (a, f) = check(ctx_seed, &outs);
        attempted += a;
        failed += f;
    }
    let render_s = mean(&walls);
    let n_artifacts = paper_artifacts().len() as f64;
    Timed {
        attempted,
        failed,
        setup_s: median(&setups),
        throughput: match render_s {
            Stat::Value { v, n } => Stat::Value {
                v: n_artifacts / v,
                n,
            },
            na => na,
        },
        op_ms: render_s.scaled(1e3),
        report: vec![m("render_s", "s", render_s)],
    }
}

pub fn traced(seed: u64, exec: &Executor) -> Traced {
    let off = Tracer::new(false);
    let t = Instant::now();
    let ctx = setup(seed, &off);
    drop(fanout(&ctx, exec, &off));
    let untraced_s = t.elapsed().as_secs_f64();
    drop(ctx);

    let tr = Tracer::new(true);
    let t = Instant::now();
    let (ctx, outs, stats) = tr.span("paper", || {
        let ctx = setup(seed, &tr);
        let (outs, stats) = fanout(&ctx, exec, &tr);
        (ctx, outs, stats)
    });
    let traced_s = t.elapsed().as_secs_f64();
    let (attempted, failed) = check(seed, &outs);

    // Probes on one drive city's network, as the campaigns build it.
    let network = city_network(ctx.world(), "A", City::C1, ctx.seed ^ 0xD1A)
        .expect("carrier A has LTE cells in C1");
    let cfgs = probe::campaign_shard(ctx.seed ^ 0xD1A, ctx.runs, ctx.duration_ms);
    let (radio, engine) = tr.span("paper.probes", || {
        (
            probe::radio(&network, seed, 400, &tr),
            probe::engine(&network, &cfgs, CollectMode::Full, &tr),
        )
    });

    let tree = SpanTree::new(tr.spans());
    let mut layers = Vec::new();
    layers.push(m(
        "carriers.world_generate_ms",
        "ms",
        tree.ms("carriers.world_generate"),
    ));
    let crawl_ms = tree.total_ms("mmlab.crawl");
    let samples = tree.counter("mmlab.crawl", "crawl", "samples_emitted");
    layers.push(m("mmlab.crawl_ms", "ms", tree.ms("mmlab.crawl")));
    layers.push(m(
        "mmlab.crawl_samples_per_s",
        "1/s",
        rate(samples, crawl_ms),
    ));
    layers.push(m(
        "mmlab.campaign_active_ms",
        "ms",
        tree.ms("mmlab.campaign_active"),
    ));
    layers.push(m(
        "mmlab.campaign_idle_ms",
        "ms",
        tree.ms("mmlab.campaign_idle"),
    ));
    let drives = tree.counter("mmlab.campaign_active", "campaign", "drives_completed")
        + tree.counter("mmlab.campaign_idle", "campaign", "drives_completed");
    layers.push(m("mmlab.drives_completed", "count", count(drives)));
    layers.push(m(
        "experiments.d2_agg_ms",
        "ms",
        tree.ms("experiments.d2_agg"),
    ));
    let mut rest = 0.0;
    for a in paper_artifacts() {
        let span = format!("experiments.artifact.{}", a.id());
        if NAMED.contains(&a.id()) {
            layers.push(m(format!("{span}_ms"), "ms", tree.ms(&span)));
        } else {
            rest += tree.total_ms(&span);
        }
    }
    layers.push(m(
        "experiments.artifact.rest_ms",
        "ms",
        Stat::Value {
            v: rest,
            n: paper_artifacts().len() - NAMED.len(),
        },
    ));
    layers.extend(exec_metrics(&stats));
    let events: u64 = [
        "mmlab.campaign_active",
        "mmlab.campaign_idle",
        "exec.fanout",
    ]
    .iter()
    .map(|s| tree.counter(s, "sched", "events_processed"))
    .sum();
    layers.push(m("sched.events_processed", "count", count(events)));
    layers.extend(crate::netsim_metrics(&engine));
    layers.extend(crate::radio_metrics(&radio, &engine));
    layers.extend(crate::trace_metrics(&tree, "paper", untraced_s, traced_s));
    Traced {
        workload: "paper",
        layers,
        tree,
        attempted,
        failed,
    }
}

/// The fan-out's scheduler accounting.
fn exec_metrics(stats: &RunStats) -> Vec<Metric> {
    let tasks = stats.tasks();
    vec![
        m(
            "exec.fanout_busy_ms",
            "ms",
            Stat::Value {
                v: stats.busy_ns() as f64 / 1e6,
                n: tasks,
            },
        ),
        m(
            "exec.fanout_speedup",
            "x",
            ratio(stats.busy_ns() as f64, stats.wall_ns),
        ),
        m("exec.steals", "count", count(stats.steals())),
        m(
            "exec.max_queue_depth",
            "count",
            count(stats.max_queue_depth as u64),
        ),
    ]
}
