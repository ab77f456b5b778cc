//! `mmq` — query a stored campaign without re-simulating anything.
//!
//! ```text
//! mmq <artifact|div|ho-active|ho-idle>... --store DIR [--seed N] [--scale X|paper]
//!                       [--runs N] [--duration-s N] [--quick]
//!                       [--carrier C] [--city CODE] [--param NAME]
//!                       [--rat lte|umts|gsm|evdo|cdma1x] [--rounds N]
//!                       [--group-by city|carrier] [--json] [--metrics[=FILE]]
//! mmq <targets|stats|shutdown>... --connect HOST:PORT [same predicate flags]
//! mmq list
//! mmq --version
//! ```
//!
//! Where `mmx` regenerates artifacts by simulating (or replaying a whole
//! stored run), `mmq` *answers questions* from the store: it opens the
//! campaign manifest, prunes whole crawl rounds against `--rounds N`,
//! streams the surviving round entries through the predicate-pushdown
//! store readers (whole row groups are skipped via per-group vocabulary
//! stats before any column is decoded), and renders through the exact
//! same artifact code paths `mmx` uses — a neutral round-0 query is
//! byte-identical to `mmx --load`. Rendered answers are cached in the
//! store (`q-…` entries) keyed on the normalized query plus the manifest
//! content hash, so a warm `mmq` rerun opens no data blocks at all and
//! any `mmx --append` invalidates every cached answer.
//!
//! Targets: the store-servable artifacts (`t2 t3 t4 f11..f22`), `div`,
//! a diversity slice (`--carrier` required, `--rat` defaults to lte):
//! every parameter's Simpson/Cv/richness for that carrier/RAT,
//! Simpson-sorted — the Fig 16 shape for any carrier — and
//! `ho-active`/`ho-idle`, handoff summaries streamed from the stored
//! drive-test dataset D1 through the same carrier/city predicate pushdown
//! (the entries a `--save` run persists). `--group-by city` (or
//! `carrier`) splits any row-scanning answer into one section per group
//! value with data.
//!
//! With `--connect HOST:PORT` the same questions go to a resident `mmqd`
//! server over the mm-net framed protocol instead of opening a store:
//! requests are validated locally, re-validated server-side, and the
//! output is byte-identical to local mode over the same store. Two
//! control targets exist only in this mode: `stats` prints the server's
//! Serve-scope telemetry snapshot, `shutdown` drains and stops it.
//!
//! Exit codes: 2 for usage errors (unknown artifacts, missing campaign,
//! contradictory flags, server `bad-request` rejections), 3 for runtime
//! failures (corrupt store entries, wire damage, server overload).

use mm_json::ToJson;
use mm_net::{Client, Request, Response};
use mmexperiments::cli::{parse_duration_s, parse_num, parse_scale};
use mmexperiments::query::{store_servable, GroupBy, QueryFormat, QueryRequest};
use mmexperiments::{Artifact, Ctx, MetricsSink, MmError, QueryEngine, QueryResult};
use mmlab::predicate::rat_from_key;
use mmradio::band::Rat;

/// Socket read/write budget in connect mode: generous enough for a cold
/// paper-scale render, finite so a wedged server is a typed timeout.
const CONNECT_TIMEOUT_MS: u64 = 120_000;

fn servable_ids() -> Vec<&'static str> {
    Artifact::ALL
        .into_iter()
        .filter(|a| store_servable(*a))
        .map(Artifact::id)
        .collect()
}

fn usage() -> String {
    format!(
        "usage: mmq <artifact|div|ho-active|ho-idle|list>... --store DIR [--seed N] \
         [--scale X|paper] [--runs N] [--duration-s N] [--quick] [--carrier C] \
         [--city CODE] [--param NAME] [--rat lte|umts|gsm|evdo|cdma1x] [--rounds N] \
         [--group-by city|carrier] [--json] [--metrics[=FILE]] [--version]\n\
         or:    mmq <targets|stats|shutdown>... --connect HOST:PORT (ask a running mmqd)\n\
         store-served artifacts: {}\n\
         div: diversity slice for --carrier (and --rat, default lte)\n\
         ho-active/ho-idle: D1 handoff summaries (needs a --save'd store)",
        servable_ids().join(" ")
    )
}

/// One requested target, before the predicate flags are folded in.
enum Target {
    Artifact(Artifact),
    Diversity,
    Handoffs {
        idle: bool,
    },
    /// `--connect` only: the server's Serve-scope telemetry snapshot.
    Stats,
    /// `--connect` only: drain the server and stop it.
    Shutdown,
}

fn flag_value(flag: &str, value: Option<String>) -> Result<String, MmError> {
    value.ok_or_else(|| MmError::Config(format!("{flag} expects a value")))
}

/// Print one answered query exactly as local mode always has: the scan
/// accounting on stderr, the banner + text (or the raw JSON line) on
/// stdout. Connect mode funnels through the same function, which is what
/// keeps the two modes byte-identical.
fn print_result(req: &QueryRequest, result: &QueryResult, json: bool) {
    if result.cached {
        eprintln!(
            "# mmq scan: {}: query-cache hit, 0 blocks opened",
            req.normalized()
        );
    } else {
        let total = result.scan.groups_decoded + result.scan.groups_skipped;
        eprintln!(
            "# mmq scan: {}: {} of {} group(s) decoded, {} skipped, {} row(s) pruned",
            req.normalized(),
            result.scan.groups_decoded,
            total,
            result.scan.groups_skipped,
            result.scan.rows_skipped,
        );
    }
    if json {
        print!("{}", result.text);
    } else {
        println!("########## {} ##########", req.target.key());
        println!("{}", result.text);
    }
}

/// Serve every target over a live mmqd connection. Query targets go
/// through the same builder as local mode (validated twice: here and
/// server-side); `stats` and `shutdown` become control frames.
fn run_connected(
    addr: &str,
    targets: &[Target],
    build_request: &dyn Fn(&Target) -> Result<QueryRequest, MmError>,
    json: bool,
) -> Result<(), MmError> {
    // Validate every query target before opening the socket, so a usage
    // error never half-runs a multi-target invocation.
    let requests: Vec<Option<QueryRequest>> = targets
        .iter()
        .map(|t| match t {
            Target::Stats | Target::Shutdown => Ok(None),
            t => build_request(t).map(Some),
        })
        .collect::<Result<_, _>>()?;
    let mut client = Client::connect(addr, CONNECT_TIMEOUT_MS).map_err(MmError::Net)?;
    eprintln!("# mmq: connected to {addr}");
    for (target, req) in targets.iter().zip(requests) {
        match (target, req) {
            (Target::Stats, _) => match client.request(&Request::Stats).map_err(MmError::Net)? {
                Response::Ok(doc) => println!("{doc}"),
                Response::Err(e) => return Err(MmError::Net(e.into())),
            },
            (Target::Shutdown, _) => {
                match client.request(&Request::Shutdown).map_err(MmError::Net)? {
                    Response::Ok(_) => eprintln!("# mmq: server draining"),
                    Response::Err(e) => return Err(MmError::Net(e.into())),
                }
            }
            (_, Some(req)) => {
                let resp = client
                    .request(&Request::Query(req.to_wire()))
                    .map_err(MmError::Net)?;
                match resp {
                    Response::Ok(doc) => {
                        let result = QueryResult::from_wire(&doc)?;
                        print_result(&req, &result, json);
                    }
                    Response::Err(e) => return Err(MmError::Net(e.into())),
                }
            }
            // build_request returns Some for every non-control target.
            (_, None) => {
                return Err(MmError::Config(
                    "internal: query target built no request".into(),
                ))
            }
        }
    }
    Ok(())
}

fn real_main() -> Result<(), MmError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(MmError::Config(usage()));
    }
    let mut seed = 2018u64;
    let mut scale: Option<f64> = None;
    let mut runs: Option<usize> = None;
    let mut duration_ms: Option<u64> = None;
    let mut quick = false;
    let mut store_dir: Option<String> = None;
    let mut carrier: Option<String> = None;
    let mut city: Option<mmcarriers::City> = None;
    let mut param: Option<String> = None;
    let mut rat: Option<Rat> = None;
    let mut rounds: Option<u32> = None;
    let mut group_by: Option<GroupBy> = None;
    let mut connect: Option<String> = None;
    let mut json = false;
    let mut metrics = MetricsSink::Off;
    let mut targets: Vec<Target> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--version" => {
                println!("mmq {}", env!("CARGO_PKG_VERSION"));
                return Ok(());
            }
            "--seed" => seed = parse_num("--seed", it.next())?,
            "--scale" => scale = Some(parse_scale(it.next())?),
            "--runs" => runs = Some(parse_num("--runs", it.next())?),
            "--duration-s" => duration_ms = Some(parse_duration_s(it.next())?),
            "--quick" => quick = true,
            "--store" => {
                store_dir = Some(
                    it.next()
                        .ok_or_else(|| MmError::Config("--store expects a directory".into()))?,
                )
            }
            "--carrier" => carrier = Some(flag_value("--carrier", it.next())?),
            "--city" => {
                let code = flag_value("--city", it.next())?;
                city = Some(
                    code.parse()
                        .map_err(|e| MmError::Config(format!("--city: {e}")))?,
                );
            }
            "--param" => param = Some(flag_value("--param", it.next())?),
            "--rat" => {
                let key = flag_value("--rat", it.next())?;
                rat = Some(rat_from_key(&key).ok_or_else(|| {
                    MmError::Config(format!(
                        "--rat: unknown RAT {key:?} (lte, umts, gsm, evdo, cdma1x)"
                    ))
                })?);
            }
            "--rounds" => rounds = Some(parse_num("--rounds", it.next())?),
            "--group-by" => {
                let dim = flag_value("--group-by", it.next())?;
                group_by = Some(match dim.as_str() {
                    "city" => GroupBy::City,
                    "carrier" => GroupBy::Carrier,
                    _ => {
                        return Err(MmError::Config(format!(
                            "--group-by: unknown dimension {dim:?} (supported: city, carrier)"
                        )))
                    }
                });
            }
            "--connect" => connect = Some(flag_value("--connect", it.next())?),
            "--json" => json = true,
            "list" => {
                for id in servable_ids() {
                    println!("{id}");
                }
                println!("div");
                println!("ho-active");
                println!("ho-idle");
                return Ok(());
            }
            "div" => targets.push(Target::Diversity),
            "ho-active" => targets.push(Target::Handoffs { idle: false }),
            "ho-idle" => targets.push(Target::Handoffs { idle: true }),
            "stats" => targets.push(Target::Stats),
            "shutdown" => targets.push(Target::Shutdown),
            other => {
                if let Some(sink) = MetricsSink::from_flag(other) {
                    metrics = sink;
                } else if other.starts_with("--") {
                    return Err(MmError::Config(usage()));
                } else {
                    targets.push(Target::Artifact(other.parse::<Artifact>()?));
                }
            }
        }
    }
    if targets.is_empty() {
        return Err(MmError::Config(usage()));
    }
    if quick && scale.is_some() {
        return Err(MmError::Config(
            "--quick and --scale conflict; --quick is the fixed small preset".into(),
        ));
    }
    if connect.is_some() && store_dir.is_some() {
        return Err(MmError::Config(
            "--connect and --store conflict; the server owns the store".into(),
        ));
    }

    // Build a request from one target + the predicate flags. Used up
    // front in local mode (a usage error exits before any store I/O) and
    // per-target in connect mode, so both modes validate identically.
    let build_request = |t: &Target| -> Result<QueryRequest, MmError> {
        let mut b = match t {
            Target::Artifact(a) => QueryRequest::artifact(*a),
            Target::Diversity => {
                let c = carrier.clone().ok_or_else(|| {
                    MmError::Config("div needs --carrier C (see `mmq t3` for codes)".into())
                })?;
                QueryRequest::diversity(c, rat.unwrap_or(Rat::Lte))
            }
            Target::Handoffs { idle } => QueryRequest::handoffs(*idle),
            Target::Stats | Target::Shutdown => {
                return Err(MmError::Config(
                    "stats/shutdown are control requests for a running server; \
                     they need --connect HOST:PORT"
                        .into(),
                ))
            }
        };
        // div folds its own carrier/RAT into the predicate; every
        // other target takes them from the flags (the builder rejects
        // constraints a target cannot serve, e.g. --rat on ho-*).
        if let Some(c) = &carrier {
            if !matches!(t, Target::Diversity) {
                b = b.carrier(c.clone());
            }
        }
        if let Some(c) = city {
            b = b.city(c);
        }
        if let Some(p) = &param {
            b = b.param(p.clone());
        }
        if let Some(r) = rat {
            if !matches!(t, Target::Diversity) {
                b = b.rat(r);
            }
        }
        if let Some(n) = rounds {
            b = b.rounds_max(n);
        }
        match group_by {
            Some(GroupBy::City) => b = b.group_by_city(),
            Some(GroupBy::Carrier) => b = b.group_by_carrier(),
            None => {}
        }
        if json {
            b = b.format(QueryFormat::Json);
        }
        b.build()
    };

    if let Some(addr) = connect {
        return run_connected(&addr, &targets, &build_request, json);
    }

    let Some(dir) = store_dir else {
        return Err(MmError::Config(
            "mmq answers from a stored campaign; name it with --store DIR \
             (or ask a server with --connect HOST:PORT)"
                .into(),
        ));
    };

    let requests: Vec<QueryRequest> = targets
        .iter()
        .map(&build_request)
        .collect::<Result<_, _>>()?;

    let mut builder = Ctx::builder().seed(seed);
    builder = if quick {
        builder.quick()
    } else {
        builder.scale(scale.unwrap_or(0.25))
    };
    if let Some(r) = runs {
        builder = builder.runs(r);
    }
    if let Some(ms) = duration_ms {
        builder = builder.duration_ms(ms);
    }
    let ctx = builder.build();
    eprintln!(
        "# mmq: seed={} scale={} ({} mode)",
        ctx.seed,
        ctx.scale,
        if quick { "quick" } else { "standard" },
    );

    let engine = QueryEngine::open(std::path::Path::new(&dir), ctx)?;
    eprintln!(
        "# mmq: campaign has {} round(s), {} samples, content {:016x}",
        engine.manifest().rounds.len(),
        engine.manifest().total_samples(),
        engine.content_hash(),
    );
    for req in &requests {
        let result = engine.run(req)?;
        print_result(req, &result, json);
    }
    metrics.emit(
        &mm_telemetry::global()
            .snapshot()
            .deterministic()
            .to_json_string(),
    )
}

fn main() {
    if let Err(err) = real_main() {
        // Usage errors carry the full usage text; runtime errors a prefix.
        if err.is_usage() {
            eprintln!("mmq: {err}");
        } else {
            eprintln!("mmq: error: {err}");
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "mmq is a process boundary: it maps MmError to exit code 2 (usage) or 3 (runtime)"
        )]
        std::process::exit(err.exit_code());
    }
}
