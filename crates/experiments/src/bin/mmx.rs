//! `mmx` — regenerate any table or figure of the paper.
//!
//! ```text
//! mmx <artifact>... [--seed N] [--scale X|paper] [--runs N] [--duration-s N] [--quick]
//!                   [--timings] [--metrics[=FILE]]
//!                   [--store DIR] [--save] [--load]
//! mmx crawl --store DIR [--seed N] [--scale X|paper]
//! mmx --append --store DIR [--seed N] [--scale X|paper]
//! mmx fleet [--ues N] [--shards N] [--seed N] [--duration-s N] [--epoch-ms N]
//!           [--carrier CODE] [--city CODE] [--scale X|paper] [--metrics[=FILE]]
//! mmx all [--seed N] [--scale X]
//! mmx list
//! mmx --version
//! ```
//!
//! Artifacts: `t2 t3 t4 f5 f6 ... f22`. The default context uses a
//! mid-size world (scale 0.25); pass `--scale 1` (or the `paper` alias)
//! for the full ~32k-cell population the paper crawled.
//!
//! Every invocation resolves its flags into one typed [`RunMode`] before
//! anything runs: version/list, a cold crawl, an appended crawl round, or
//! an artifact render with a cache policy. Contradictory flags (`--save
//! --load`, `--quick --scale`, `--append` with artifacts, …) are usage
//! errors — exit 2 with a hint — not silently resolved precedence.
//!
//! `mmx crawl` is the cold write path at scale: it generates the world,
//! runs the sharded Type-I crawl on the `mm-exec` pool, reports the
//! crawl rate, and persists the D2 columnar store entry plus the campaign
//! manifest. `mmx --append` crawls ONE more round under the next round
//! seed and adds it as a brand-new store entry — prior-round files are
//! never rewritten, only the manifest is. Figure runs against the same
//! `--store`/seed/scale then *stream* those entries block-by-block into
//! the figure aggregate (DESIGN.md §10) — at paper scale the ~8M-sample
//! dataset is never resident in memory. (`mmq` queries the same store
//! with predicates and round ceilings; see DESIGN.md §11.)
//!
//! Independent artifacts run as tasks on the `mm-exec` work-stealing pool
//! over one pre-warmed shared context, and are printed in request order —
//! the output is byte-identical for any `MM_THREADS` setting. Pass
//! `--timings` for a per-artifact wall-clock and scheduler report on
//! stderr, `--metrics` for the deterministic telemetry snapshot as JSON
//! (stderr, or a file with `--metrics=FILE`).
//!
//! `mmx fleet` is the metro-scale multi-UE runtime (DESIGN.md §12): it
//! drops `--ues` concurrent UEs onto one carrier's city network, cut into
//! `--shards` event-queue shards scattered over the pool, and prints a
//! report of integer fleet totals that is byte-identical for any
//! `MM_THREADS` and any shard count. `--metrics` emits the retained
//! `fleet`/`sched` telemetry sections, equally invariant.
//!
//! `--store DIR` names a content-addressed artifact cache (DESIGN.md §9.5);
//! `--save` persists the shared datasets and the run bundle there, and
//! `--load` replays a stored run — byte-identical stdout and metrics —
//! without simulating anything. A `--load` miss falls back to the cold
//! path (preloading whatever datasets are cached); a corrupt entry is a
//! hard typed error, never a silent fallback.
//!
//! Exit codes: 2 for usage errors (bad flags, unknown artifacts, invalid
//! flag combinations), 3 for runtime failures (an unwritable metrics
//! file, a corrupt store entry).

use mm_exec::Executor;
use mm_json::ToJson;
use mmexperiments::cli::{parse_duration_s, parse_num, parse_scale};
use mmexperiments::store::round_seed;
use mmexperiments::{
    run, run_fleet_on, Artifact, Ctx, FleetConfig, MetricsSink, MmError, RunBundle, RunStore,
    ABLATIONS, ARTIFACTS,
};

fn usage() -> String {
    format!(
        "usage: mmx <artifact|all|crawl|list>... [--seed N] [--scale X|paper] [--runs N] \
         [--duration-s N] [--quick] [--timings] [--metrics[=FILE]] [--store DIR] [--save] \
         [--load] [--append] [--version]\n\
         artifacts: {}\nablations: {}",
        ARTIFACTS.join(" "),
        ABLATIONS.join(" ")
    )
}

/// How a render interacts with the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CachePolicy {
    /// No store interaction: simulate and print.
    Off,
    /// Cold write: render, then persist datasets + run bundle.
    Save,
    /// Warm replay: serve the stored bundle; a miss falls back to the
    /// cold path with whatever datasets are cached preloaded.
    Load,
}

/// What this invocation does — resolved exactly once from the raw flags,
/// so every downstream branch matches on a validated mode instead of
/// re-interpreting booleans.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RunMode {
    /// `--version`: print the crate version.
    Version,
    /// `list`: print every artifact id.
    List,
    /// `crawl [artifacts…]`: cold sharded crawl into the store, then
    /// render any artifacts named alongside against the fresh dataset.
    Crawl { wanted: Vec<Artifact> },
    /// `--append`: crawl one more campaign round under the next round
    /// seed and add it to the store without touching prior rounds.
    Append,
    /// Render artifacts under a cache policy.
    Render {
        wanted: Vec<Artifact>,
        cache: CachePolicy,
    },
}

/// The flags exactly as parsed, before any cross-flag validation.
#[derive(Default)]
struct RawArgs {
    seed: Option<u64>,
    scale: Option<f64>,
    runs: Option<usize>,
    duration_ms: Option<u64>,
    quick: bool,
    timings: bool,
    metrics: MetricsSink,
    store_dir: Option<String>,
    save: bool,
    load: bool,
    append: bool,
    crawl: bool,
    list: bool,
    version: bool,
    wanted: Vec<Artifact>,
}

impl RawArgs {
    fn parse(args: impl Iterator<Item = String>) -> Result<RawArgs, MmError> {
        let mut raw = RawArgs::default();
        let mut it = args;
        while let Some(a) = it.next() {
            match a.as_str() {
                "--version" => raw.version = true,
                "--seed" => raw.seed = Some(parse_num("--seed", it.next())?),
                "--scale" => raw.scale = Some(parse_scale(it.next())?),
                "--runs" => raw.runs = Some(parse_num("--runs", it.next())?),
                "--duration-s" => raw.duration_ms = Some(parse_duration_s(it.next())?),
                "--quick" => raw.quick = true,
                "--timings" => raw.timings = true,
                "--store" => {
                    raw.store_dir = Some(
                        it.next()
                            .ok_or_else(|| MmError::Config("--store expects a directory".into()))?,
                    )
                }
                "--save" => raw.save = true,
                "--load" => raw.load = true,
                "--append" => raw.append = true,
                "list" => raw.list = true,
                "all" => raw.wanted.extend(Artifact::PAPER),
                "ablations" => raw.wanted.extend(Artifact::ABLATIONS),
                "crawl" => raw.crawl = true,
                other => {
                    if let Some(sink) = MetricsSink::from_flag(other) {
                        raw.metrics = sink;
                    } else if other.starts_with("--") {
                        return Err(MmError::Config(usage()));
                    } else {
                        raw.wanted.push(other.parse::<Artifact>()?);
                    }
                }
            }
        }
        Ok(raw)
    }

    /// Cross-flag validation: exactly one coherent [`RunMode`] comes out,
    /// or a usage error naming the conflict.
    fn resolve(&self) -> Result<RunMode, MmError> {
        if self.version {
            return Ok(RunMode::Version);
        }
        if self.list {
            return Ok(RunMode::List);
        }
        if self.quick && self.scale.is_some() {
            return Err(MmError::Config(
                "--quick and --scale conflict; --quick is the fixed small preset".into(),
            ));
        }
        if self.save && self.load {
            return Err(MmError::Config(
                "--save and --load conflict; a run either writes the store or replays it".into(),
            ));
        }
        if self.append {
            if self.crawl || self.save || self.load || !self.wanted.is_empty() {
                return Err(MmError::Config(
                    "--append only appends a crawl round; drop crawl/--save/--load/artifacts \
                     (query appended rounds with mmq)"
                        .into(),
                ));
            }
            if self.store_dir.is_none() {
                return Err(MmError::Config(
                    "--append needs a cache directory (--store DIR)".into(),
                ));
            }
            return Ok(RunMode::Append);
        }
        if self.crawl {
            if self.save || self.load {
                return Err(MmError::Config(
                    "crawl persists the dataset itself; --save/--load conflict with it".into(),
                ));
            }
            if self.store_dir.is_none() {
                return Err(MmError::Config(
                    "crawl needs a cache directory (--store DIR)".into(),
                ));
            }
            return Ok(RunMode::Crawl {
                wanted: self.wanted.clone(),
            });
        }
        if (self.save || self.load) && self.store_dir.is_none() {
            return Err(MmError::Config(
                "--save/--load need a cache directory (--store DIR)".into(),
            ));
        }
        if self.wanted.is_empty() {
            return Err(MmError::Config(usage()));
        }
        let cache = match (self.save, self.load) {
            (true, false) => CachePolicy::Save,
            (false, true) => CachePolicy::Load,
            _ => CachePolicy::Off,
        };
        Ok(RunMode::Render {
            wanted: self.wanted.clone(),
            cache,
        })
    }

    fn ctx(&self) -> Ctx {
        let mut builder = Ctx::builder().seed(self.seed.unwrap_or(2018));
        builder = if self.quick {
            builder.quick()
        } else {
            builder.scale(self.scale.unwrap_or(0.25))
        };
        if let Some(r) = self.runs {
            builder = builder.runs(r);
        }
        if let Some(ms) = self.duration_ms {
            builder = builder.duration_ms(ms);
        }
        builder.build()
    }
}

fn fleet_usage() -> String {
    "usage: mmx fleet [--ues N] [--shards N] [--seed N] [--duration-s N] [--epoch-ms N] \
     [--carrier CODE] [--city CODE] [--scale X|paper] [--metrics[=FILE]]"
        .to_string()
}

/// `mmx fleet`: parse the fleet flag set, run the sharded multi-UE
/// engine, print the deterministic report on stdout. Progress and the
/// (scheduler-dependent) queue high-water mark go to stderr; `--metrics`
/// emits only the `fleet`/`sched` sections, which are invariant to
/// `MM_THREADS` and the shard count.
fn fleet_main(args: impl Iterator<Item = String>) -> Result<(), MmError> {
    let mut cfg = FleetConfig::default();
    let mut metrics = MetricsSink::Off;
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ues" => cfg.ues = parse_num("--ues", it.next())?,
            "--shards" => cfg.shards = parse_num("--shards", it.next())?,
            "--seed" => cfg.seed = parse_num("--seed", it.next())?,
            "--duration-s" => cfg.duration_ms = parse_duration_s(it.next())?,
            "--epoch-ms" => cfg.epoch_ms = parse_num("--epoch-ms", it.next())?,
            "--carrier" => {
                cfg.carrier = it
                    .next()
                    .ok_or_else(|| MmError::Config("--carrier expects a code".into()))?
            }
            "--city" => {
                let code = it
                    .next()
                    .ok_or_else(|| MmError::Config("--city expects a code".into()))?;
                cfg.city = code
                    .parse()
                    .map_err(|e| MmError::Config(format!("{e} (see `mmx f20` for codes)")))?;
            }
            "--scale" => cfg.scale = parse_scale(it.next())?,
            other => {
                if let Some(sink) = MetricsSink::from_flag(other) {
                    metrics = sink;
                } else {
                    return Err(MmError::Config(fleet_usage()));
                }
            }
        }
    }
    let exec = Executor::from_env();
    eprintln!(
        "# mmx fleet: {} UE(s) in {} shard(s) on carrier {} in {}, {} thread(s)",
        cfg.ues,
        cfg.shards,
        cfg.carrier,
        cfg.city,
        exec.threads(),
    );
    let report = run_fleet_on(&cfg, &exec)?;
    // The queue high-water mark depends on shard sizes, so it lives on
    // stderr — the stdout report stays shard-count-invariant.
    eprintln!(
        "# mmx fleet: max event-queue depth {} across shards",
        report.stats.max_queue_depth,
    );
    print!("{}", report.render());
    let json = mm_telemetry::global()
        .snapshot()
        .deterministic()
        .retain_sections(&["fleet", "sched"])
        .to_json_string();
    metrics.emit(&json)
}

fn real_main() -> Result<(), MmError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(MmError::Config(usage()));
    }
    if args[0] == "fleet" {
        return fleet_main(args.into_iter().skip(1));
    }
    let raw = RawArgs::parse(args.into_iter())?;
    let mode = raw.resolve()?;
    match &mode {
        RunMode::Version => {
            println!("mmx {}", env!("CARGO_PKG_VERSION"));
            return Ok(());
        }
        RunMode::List => {
            for artifact in Artifact::ALL {
                println!("{}", artifact.id());
            }
            return Ok(());
        }
        _ => {}
    }

    let store = match &raw.store_dir {
        Some(dir) => Some(RunStore::open(std::path::Path::new(dir))?),
        None => None,
    };
    let ctx = raw.ctx();
    let exec = Executor::from_env();
    eprintln!(
        "# mmx: seed={} scale={} ({} mode), {} thread(s)",
        ctx.seed,
        ctx.scale,
        if raw.quick { "quick" } else { "standard" },
        exec.threads(),
    );

    let (wanted, cache) = match mode {
        // Cold write path: shard the Type-I crawl over the pool, report
        // the sustained rate, and persist the columnar D2 entry plus the
        // campaign manifest. Any artifacts named alongside `crawl` render
        // afterwards against the fresh dataset.
        RunMode::Crawl { wanted } => {
            let s = store.as_ref().expect("crawl resolved against --store");
            let (d2, stats) = mmlab::crawl_with_stats(ctx.world(), ctx.seed ^ 0xD2, &exec);
            let secs = (stats.wall_ns.max(1)) as f64 / 1e9;
            eprintln!(
                "# mmx crawl: {} samples over {} cells in {:.1}s ({:.0} samples/s, {} thread(s))",
                d2.len(),
                d2.unique_cells(),
                secs,
                d2.len() as f64 / secs,
                stats.threads,
            );
            ctx.preload_d2(d2);
            s.save_d2(&ctx)?;
            if wanted.is_empty() {
                return Ok(());
            }
            (wanted, CachePolicy::Off)
        }
        // Append one campaign round: crawl under the next round seed,
        // write a brand-new entry, rewrite only the manifest.
        RunMode::Append => {
            let s = store.as_ref().expect("--append resolved against --store");
            let manifest = s.load_manifest(&ctx)?.ok_or_else(|| {
                MmError::Config(
                    "store has no campaign to append to; run `mmx crawl --store DIR` first"
                        .to_string(),
                )
            })?;
            let round = manifest.next_round();
            let (d2, stats) =
                mmlab::crawl_with_stats(ctx.world(), round_seed(ctx.seed, round), &exec);
            let secs = (stats.wall_ns.max(1)) as f64 / 1e9;
            eprintln!(
                "# mmx append: round {round}: {} samples over {} cells in {:.1}s \
                 ({:.0} samples/s, {} thread(s))",
                d2.len(),
                d2.unique_cells(),
                secs,
                d2.len() as f64 / secs,
                stats.threads,
            );
            let appended = s.append_round(&ctx, &d2)?;
            eprintln!(
                "# mmx append: store now holds {} round(s), {} samples total",
                appended + 1,
                s.load_manifest(&ctx)?.map_or(0, |m| m.total_samples()),
            );
            return Ok(());
        }
        RunMode::Render { wanted, cache } => (wanted, cache),
        RunMode::Version | RunMode::List => unreachable!("handled above"),
    };

    let ids: Vec<&'static str> = wanted.iter().map(|a| a.id()).collect();

    // Warm path: replay a stored run bundle — byte-identical stdout and
    // metrics, nothing simulated. A miss falls through to the cold path,
    // preloading whatever datasets are cached.
    if cache == CachePolicy::Load {
        let s = store.as_ref().expect("--load resolved against --store");
        if let Some(bundle) = s.load_run(&ctx, &ids)? {
            eprintln!("# mmx: store hit, replaying {} artifact(s)", ids.len());
            for (id, text) in &bundle.outputs {
                println!("########## {id} ##########");
                println!("{text}");
            }
            return raw.metrics.emit(&bundle.metrics_json);
        }
        let hits = s.load_datasets(&ctx)?;
        eprintln!("# mmx: store miss, preloaded {hits}/3 dataset(s)");
    }

    // With more than one artifact, build exactly the shared state this
    // batch will read up front (the campaign/crawl paths are parallel
    // themselves), then scatter the artifacts as tasks. Ordered gather
    // keeps stdout byte-identical to the sequential loop for any
    // MM_THREADS; warming whenever the batch has more than one artifact
    // (rather than only when threads > 1) keeps the telemetry span tree
    // thread-count-independent too. Selective warming means a figure-only
    // run never pays for drive campaigns — and, when D2 was streamed off
    // the store, never materializes the raw samples at all.
    if wanted.len() > 1 {
        ctx.warm_for(&wanted);
    }
    let ctx = &ctx;
    let (outputs, stats) = exec.scatter_gather_stats(wanted, |_, artifact| run(ctx, artifact));
    for out in &outputs {
        println!("########## {} ##########", out.artifact.id());
        println!("{}", out.text);
    }
    if raw.timings {
        eprintln!(
            "# mmx timings ({} tasks, {} thread(s))",
            stats.tasks(),
            stats.threads
        );
        for (id, ns) in ids.iter().zip(&stats.task_ns) {
            eprintln!("#   {id:>10}  {:>9.1} ms", *ns as f64 / 1e6);
        }
        eprintln!(
            "#   wall {:.1} ms, busy {:.1} ms, speedup {:.2}x, steals {}, max queue {}",
            stats.wall_ns as f64 / 1e6,
            stats.busy_ns() as f64 / 1e6,
            stats.speedup(),
            stats.steals(),
            stats.max_queue_depth,
        );
    }
    // Persist datasets *before* capturing the snapshot so the stored
    // metrics include the store counters, then bundle the captured JSON —
    // what `--metrics` prints now is exactly what a warm `--load` replays.
    if cache == CachePolicy::Save {
        let s = store.as_ref().expect("--save resolved against --store");
        s.save_datasets(ctx)?;
        let bundle = RunBundle {
            outputs: outputs
                .iter()
                .map(|o| (o.artifact.id().to_string(), o.text.clone()))
                .collect(),
            metrics_json: snapshot_json(),
        };
        s.save_run(ctx, &ids, &bundle)?;
        return raw.metrics.emit(&bundle.metrics_json);
    }
    raw.metrics.emit(&snapshot_json())
}

/// The deterministic telemetry snapshot `--metrics` emits.
fn snapshot_json() -> String {
    mm_telemetry::global()
        .snapshot()
        .deterministic()
        .to_json_string()
}

fn main() {
    if let Err(err) = real_main() {
        // Usage errors carry the full usage text; runtime errors a prefix.
        if err.is_usage() {
            eprintln!("mmx: {err}");
        } else {
            eprintln!("mmx: error: {err}");
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "mmx is a process boundary: it maps MmError to exit code 2 (usage) or 3 (runtime)"
        )]
        std::process::exit(err.exit_code());
    }
}
