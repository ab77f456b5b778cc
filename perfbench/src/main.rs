//! perfbench — the end-to-end benchmark of this workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|fleet_metro|serve_mixed [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it runs one workload untraced for `--seconds`, checks
//! its outputs, prints every end-to-end metric by name with its unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics of `BENCHMARK.json`.
//!
//! With `--trace 1` it runs the traced breakdown of all three workloads
//! (each once untraced and once traced, for the tracing overhead), prints
//! the per-layer metrics, writes the spans to
//! `perfbench/work/trace-<seed>.json`, and ends with the same JSON line
//! holding the per-layer metrics, each named `<workload>.<layer metric>`.
//!
//! Every layer is measured from outside: the spans sit around calls into
//! the crates' public functions, and the program's own telemetry counters
//! are diffed around them. `perfbench/map.json` records which end-to-end
//! metric each layer metric should move, the predictions for open work,
//! and the output digests pinned for the default seed.

mod fleet;
mod inputs;
mod paper;
mod probe;
mod serve;
mod stats;
mod trace;

use mm_exec::Executor;
use mm_json::Json;
use stats::{count, ratio, Stat};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::SpanTree;

/// The seed whose outputs are pinned in `map.json`.
pub const DEFAULT_SEED: u64 = 2018;

const WORKLOADS: [&str; 3] = ["paper", "fleet_metro", "serve_mixed"];

/// A named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub stat: Stat,
}

pub fn m(name: impl Into<String>, unit: &'static str, stat: Stat) -> Metric {
    Metric {
        name: name.into(),
        unit,
        stat,
    }
}

/// One workload's timed (untraced) run.
pub struct Timed {
    pub attempted: u64,
    pub failed: u64,
    /// Median set-up time, s.
    pub setup_s: Stat,
    /// Work per second in the measured phase.
    pub throughput: Stat,
    /// Median wall time of one operation, ms.
    pub op_ms: Stat,
    /// The workload's own end-to-end metrics, by their report names.
    pub report: Vec<Metric>,
}

/// One workload's traced breakdown.
pub struct Traced {
    pub workload: &'static str,
    pub layers: Vec<Metric>,
    pub tree: SpanTree,
    pub attempted: u64,
    pub failed: u64,
}

/// Output digests pinned in `map.json` for [`DEFAULT_SEED`].
pub mod pins {
    use mm_json::Json;
    use std::sync::OnceLock;

    fn doc() -> &'static Json {
        static DOC: OnceLock<Json> = OnceLock::new();
        DOC.get_or_init(|| {
            Json::parse(include_str!("../map.json")).expect("perfbench/map.json is valid JSON")
        })
    }

    /// The pinned digest at `path` under `pins`, when `seed` is the
    /// default seed. A missing pin reads as a digest nothing matches.
    fn pinned(seed: u64, path: &[&str]) -> Option<u64> {
        if seed != crate::DEFAULT_SEED {
            return None;
        }
        let mut node = &doc()["pins"];
        for key in path {
            node = &node[*key];
        }
        Some(
            node.as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or(0),
        )
    }

    pub fn paper(seed: u64, artifact: &str) -> Option<u64> {
        pinned(seed, &["paper", artifact])
    }

    pub fn fleet(seed: u64, config: usize) -> Option<u64> {
        pinned(seed, &["fleet_metro", &config.to_string()])
    }
}

/// `BENCHMARK.json`, which holds each metric's unit.
fn benchmark() -> &'static Json {
    static DOC: std::sync::OnceLock<Json> = std::sync::OnceLock::new();
    DOC.get_or_init(|| {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
    })
}

/// Every metric must be listed under `section` of `BENCHMARK.json`, in
/// the unit it is reported in.
fn check_units(section: &str, metrics: &[Metric]) -> Result<(), String> {
    let listed = benchmark()[section].as_array().unwrap_or_default();
    for x in metrics {
        let unit = listed
            .iter()
            .find(|d| d["name"].as_str() == Some(x.name.as_str()))
            .and_then(|d| d["unit"].as_str());
        match unit {
            Some(u) if u == x.unit => {}
            Some(u) => {
                return Err(format!(
                    "{} is reported in {} but BENCHMARK.json {section} lists it in {u}",
                    x.name, x.unit
                ))
            }
            None => return Err(format!("{} is not in BENCHMARK.json {section}", x.name)),
        }
    }
    Ok(())
}

/// Where runs leave store directories and trace files.
pub fn work_dir() -> PathBuf {
    PathBuf::from("perfbench").join("work")
}

/// The sched engine's accounting over one probed shard.
pub fn netsim_metrics(e: &probe::EngineProbe) -> Vec<Metric> {
    vec![
        m(
            "netsim.engine_ms",
            "ms",
            Stat::Value {
                v: e.ns as f64 / 1e6,
                n: 1,
            },
        ),
        m("netsim.events", "count", count(e.events)),
        m("netsim.ns_per_event", "ns", ratio(e.ns as f64, e.events)),
        m("netsim.max_queue_depth", "count", count(e.max_queue_depth)),
        m("netsim.handoffs", "count", count(e.handoffs)),
        m("netsim.reports_sent", "count", count(e.reports_sent)),
    ]
}

/// Radio cost per call, useful share of each scan, and the estimated
/// share of the probed engine's time spent measuring.
pub fn radio_metrics(r: &probe::RadioProbe, e: &probe::EngineProbe) -> Vec<Metric> {
    let share = match r.measure_all_ns {
        Stat::Value { v, .. } if e.ns > 0 => Stat::Value {
            v: v * e.measure_calls as f64 / e.ns as f64,
            n: e.measure_calls as usize,
        },
        s => Stat::NotAvailable { n: s.n() },
    };
    vec![
        m("radio.measure_all_ns", "ns", r.measure_all_ns),
        m("radio.sinr_ns", "ns", r.sinr_ns),
        m(
            "radio.cells_scanned",
            "count",
            ratio(r.scanned as f64, r.calls),
        ),
        m(
            "radio.cells_detected",
            "count",
            ratio(r.detected as f64, r.calls),
        ),
        m(
            "radio.detected_frac",
            "frac",
            ratio(r.detected as f64, r.scanned),
        ),
        m("radio.engine_share_est", "frac", share),
    ]
}

/// Tracing overhead (traced wall minus untraced wall, as a share of the
/// untraced wall) and how much of the traced wall named spans cover.
pub fn trace_metrics(tree: &SpanTree, root: &str, untraced_s: f64, traced_s: f64) -> Vec<Metric> {
    let coverage = tree
        .find(root)
        .map_or(Stat::NotAvailable { n: 0 }, |r| Stat::Value {
            v: tree.coverage(r),
            n: 1,
        });
    vec![
        m(
            "trace.overhead_frac",
            "frac",
            Stat::Value {
                v: (traced_s - untraced_s) / untraced_s,
                n: 1,
            },
        ),
        m("trace.span_coverage_frac", "frac", coverage),
    ]
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Stat {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(Stat::NotAvailable { n: 0 }, |kb| Stat::Value {
            v: kb / 1024.0,
            n: 1,
        })
}

/// One line of a command's standard output, or `n/a`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).stderr(std::process::Stdio::null());
    // Never look for a git repository above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "n/a".to_string())
}

/// What the numbers depend on besides the code.
fn fingerprint(exec: &Executor) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(exec.threads() as f64)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "mm_threads",
            Json::Str(std::env::var("MM_THREADS").unwrap_or_else(|_| "unset".to_string())),
        ),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// A number as JSON text with all its digits; `null` for `n/a`.
fn json_number(s: Stat) -> String {
    match s.value() {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                Json::Str(x.name.clone()),
                json_number(x.stat),
                Json::Str(x.unit.to_string())
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

fn print_metric(x: &Metric) {
    println!("{:<44} {:>22} {}", x.name, x.stat.to_string(), x.unit);
}

/// The end-to-end metrics by their report names, `n/a` where a metric
/// belongs to another workload.
const REPORT: [(&str, &str); 8] = [
    ("render_s", "s"),
    ("fleet_ue_events_per_s", "1/s"),
    ("serve_qps", "1/s"),
    ("serve_hit_p50_us", "us"),
    ("serve_hit_p99_us", "us"),
    ("serve_render_p50_ms", "ms"),
    ("serve_render_p90_ms", "ms"),
    ("error_rate", "frac"),
];

fn timed(workload: &str, seed: u64, seconds: f64, exec: &Executor) -> Result<String, String> {
    let t = match workload {
        "paper" => paper::timed(seed, seconds, exec),
        "fleet_metro" => fleet::timed(seed, seconds, exec),
        _ => serve::timed(seed, seconds, exec)?,
    };
    let rss = peak_rss_mb();
    let error_rate = ratio(t.failed as f64, t.attempted);
    println!("{:<44} {:>22} s", "setup_s", t.setup_s.to_string());
    for (name, unit) in REPORT {
        let stat = match t.report.iter().find(|x| x.name == name) {
            Some(x) => x.stat,
            None if name == "error_rate" => error_rate,
            None => Stat::NotAvailable { n: 0 },
        };
        print_metric(&m(name, unit, stat));
    }
    print_metric(&m("peak_rss_mb", "MB", rss));
    let metrics = [
        m("setup_s", "s", t.setup_s),
        m("throughput_per_s", "1/s", t.throughput),
        m("op_median_ms", "ms", t.op_ms),
        m("peak_rss_mb", "MB", rss),
    ];
    check_units("end_to_end", &metrics)?;
    Ok(result_line(t.attempted, t.failed, &metrics))
}

fn traced(seed: u64, exec: &Executor, fp: Json) -> Result<String, String> {
    let runs = vec![
        paper::traced(seed, exec),
        fleet::traced(seed, exec),
        serve::traced(seed, exec)?,
    ];
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut doc = Vec::new();
    for r in &runs {
        attempted += r.attempted;
        failed += r.failed;
        for x in &r.layers {
            let named = m(format!("{}.{}", r.workload, x.name), x.unit, x.stat);
            print_metric(&named);
            metrics.push(named);
        }
        doc.push((
            r.workload.to_string(),
            Json::obj([
                (
                    "metrics",
                    Json::Obj(
                        r.layers
                            .iter()
                            .map(|x| (x.name.clone(), x.stat.value().map_or(Json::Null, Json::Num)))
                            .collect(),
                    ),
                ),
                ("spans", r.tree.to_json()),
            ]),
        ));
    }
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{seed}.json"));
    let file = Json::obj([("fingerprint", fp), ("workloads", Json::Obj(doc))]);
    std::fs::write(&path, format!("{file}\n")).map_err(|e| e.to_string())?;
    println!("# spans written to {}", path.display());
    check_units("per_layer", &metrics)?;
    Ok(result_line(attempted, failed, &metrics))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let exec = Executor::from_env();
    let fp = fingerprint(&exec);
    println!("# fingerprint {fp}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let line = if args.trace {
        traced(args.seed, &exec, fp)
    } else {
        timed(&args.workload, args.seed, args.seconds, &exec)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names<'a>(doc: &'a Json, key: &str) -> Vec<&'a str> {
        doc[key]
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|x| x["name"].as_str().expect("a metric name"))
            .collect()
    }

    fn keys(doc: &Json) -> Vec<&str> {
        doc.as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn strs(doc: &Json) -> Vec<&str> {
        doc.as_array()
            .expect("a list")
            .iter()
            .map(|x| x.as_str().expect("a name"))
            .collect()
    }

    #[test]
    fn map_describes_every_benchmark_metric_and_pins_every_output() {
        let map = Json::parse(include_str!("../map.json")).unwrap();
        let bench = benchmark();
        assert_eq!(names(bench, "per_layer"), keys(&map["per_layer"]));
        let results = names(bench, "end_to_end");
        assert_eq!(results, keys(&map["result_metrics"]));
        assert_eq!(names(bench, "workloads"), WORKLOADS);
        let reported = keys(&map["report_metrics"]);
        for (name, _) in REPORT {
            assert!(reported.contains(&name), "{name} is in the map");
        }
        for (name, r) in map["report_metrics"].as_object().unwrap() {
            for x in strs(&r["result"]) {
                assert!(results.contains(&x), "{name} feeds {x}, a result metric");
            }
        }
        for (name, moves) in map["per_layer"].as_object().unwrap() {
            for x in strs(moves) {
                assert!(reported.contains(&x), "{name} moves {x}, a reported metric");
            }
        }
        for a in inputs::paper_artifacts() {
            assert_ne!(pins::paper(DEFAULT_SEED, a.id()), Some(0), "{a} pinned");
        }
        for k in 0..inputs::FLEET_CONFIGS {
            assert_ne!(
                pins::fleet(DEFAULT_SEED, k),
                Some(0),
                "fleet config {k} pinned"
            );
        }
        assert_eq!(pins::paper(DEFAULT_SEED + 1, "t2"), None);
    }

    #[test]
    fn units_are_checked_against_benchmark_json() {
        let na = Stat::NotAvailable { n: 0 };
        let ok = [m("setup_s", "s", na), m("peak_rss_mb", "MB", na)];
        assert_eq!(check_units("end_to_end", &ok), Ok(()));
        assert!(check_units("end_to_end", &[m("setup_s", "ms", na)]).is_err());
        assert!(check_units("end_to_end", &[m("unlisted", "s", na)]).is_err());
        assert!(check_units("per_layer", &[m("setup_s", "s", na)]).is_err());
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_line(
            3,
            1,
            &[
                m(
                    "a",
                    "s",
                    Stat::Value {
                        v: 0.1234567891,
                        n: 3,
                    },
                ),
                m("b", "ms", Stat::NotAvailable { n: 0 }),
            ],
        );
        let doc = Json::parse(&line).unwrap();
        assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc["correct"].as_bool(), Some(false));
        assert_eq!(doc["metrics"]["a"]["value"].as_f64(), Some(0.1234567891));
        assert_eq!(doc["metrics"]["a"]["unit"].as_str(), Some("s"));
        assert!(doc["metrics"]["b"]["value"].is_null(), "n/a is never 0");
    }
}
