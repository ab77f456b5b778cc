//! `serve_mixed`: a fresh campaign store at scale 0.25 served by `serve()`
//! with 2 workers to 2 closed-loop `Client` connections replaying seeded
//! analyst sessions (cold slice scans, memo renders, answer-cache hits).

use crate::inputs::{
    self, instance_seed, serve_ctx, Expect, Slice, HIT_ASKS, MEMO_ASKS, MIN_SESSIONS,
};
use crate::stats::{bucket_growth, count, highest_bucket, median, percentile, rate, ratio, Stat};
use crate::trace::{SpanTree, Tracer};
use crate::{m, Timed, Traced};
use mm_exec::Executor;
use mm_json::Json;
use mm_net::{Client, Request, Response};
use mmexperiments::query::{QueryEngine, QueryRequest, QueryResult};
use mmexperiments::{serve, MmError, RunStore, ServeConfig};
use mmlab::store::D2StoreReader;
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Campaigns per timed run, each set up and then served for an equal
/// share of the run; `setup_s` is the median set-up.
const SETUPS: usize = 3;
/// Closed-loop client connections (and server workers).
const CLIENTS: usize = 2;
/// Client read/write timeout: a wedged server fails the run instead of
/// hanging it.
const IO_TIMEOUT_MS: u64 = 60_000;

/// A served campaign, ready to accept connections.
struct Served {
    dir: PathBuf,
    engine: QueryEngine,
    listener: TcpListener,
    slices: Vec<Slice>,
}

/// Crawl the campaign, write it into a fresh store directory, open the
/// engine over it and start listening.
fn setup(seed: u64, dir: &Path, tr: &Tracer) -> Result<Served, MmError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let ctx = serve_ctx(seed);
    let slices = tr.layer("carriers.world_generate", || inputs::slices(ctx.world()));
    tr.layer("mmlab.crawl", || {
        ctx.d2();
    });
    tr.layer("store.save_d2", || RunStore::open(dir)?.save_d2(&ctx))?;
    drop(ctx);
    let engine = tr.layer("query.open", || QueryEngine::open(dir, serve_ctx(seed)))?;
    let listener = tr.layer("net.listen", || TcpListener::bind("127.0.0.1:0"))?;
    Ok(Served {
        dir: dir.to_path_buf(),
        engine,
        listener,
        slices,
    })
}

/// How long the clients keep opening sessions.
#[derive(Clone, Copy)]
enum Budget {
    /// Exactly [`MIN_SESSIONS`] sessions.
    Sessions,
    /// New sessions until the clock runs out, and at least
    /// [`MIN_SESSIONS`].
    Seconds(f64),
}

/// One answered (or failed) request as the client saw it.
struct Sample {
    key: String,
    latency_s: f64,
    /// The wire `cached` flag; `None` when the request failed.
    cached: Option<bool>,
    expect: Expect,
}

/// The answers given to each distinct question, by any client.
#[derive(Default)]
struct Answers {
    /// First answer text per question.
    first: BTreeMap<String, (QueryRequest, String)>,
    /// Questions answered with two different texts.
    conflicted: BTreeSet<String>,
}

impl Answers {
    fn record(&mut self, key: String, req: QueryRequest, text: String) {
        match self.first.get(&key) {
            Some((_, seen)) if *seen != text => {
                self.conflicted.insert(key);
            }
            Some(_) => {}
            None => {
                self.first.insert(key, (req, text));
            }
        }
    }

    /// Fold in another client's answers: a question the two clients
    /// answered differently is conflicted too.
    fn merge(&mut self, other: Answers) {
        self.conflicted.extend(other.conflicted);
        for (key, (req, text)) in other.first {
            self.record(key, req, text);
        }
    }
}

/// What one client connection did.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    answers: Answers,
}

/// Everything a serving loop produced.
struct LoopOutcome {
    wall_s: f64,
    samples: Vec<Sample>,
    answers: Answers,
    /// Answered requests per distinct question.
    asked: BTreeMap<String, u64>,
    /// `stats` snapshots before and after the loop.
    stats: (Json, Json),
}

fn client_loop(
    addr: SocketAddr,
    seed: u64,
    slices: &[Slice],
    next: &AtomicUsize,
    budget: Budget,
    start: Instant,
    tr: &Tracer,
) -> Result<ClientLog, String> {
    let mut client =
        Client::connect(&addr.to_string(), IO_TIMEOUT_MS).map_err(|e| e.to_string())?;
    let mut log = ClientLog::default();
    loop {
        let k = next.fetch_add(1, Ordering::SeqCst);
        let more = match budget {
            Budget::Sessions => k < MIN_SESSIONS,
            Budget::Seconds(s) => k < MIN_SESSIONS || start.elapsed().as_secs_f64() < s,
        };
        if !more {
            return Ok(log);
        }
        let session = inputs::session(seed, slices, k);
        for (j, (req, expect)) in session.asks.into_iter().enumerate() {
            let rid = (k * (1 + MEMO_ASKS + HIT_ASKS) + j) as u64;
            let t = Instant::now();
            let result = tr.request("serve.request", rid, || {
                let doc = tr.span("json.request_build", || req.to_wire());
                let resp = tr.span("net.client_request", || {
                    client.request(&Request::Query(doc))
                });
                match resp {
                    Ok(Response::Ok(doc)) => tr
                        .span("query.result_decode", || QueryResult::from_wire(&doc))
                        .ok(),
                    _ => None,
                }
            });
            let latency_s = t.elapsed().as_secs_f64();
            let key = req.normalized();
            log.samples.push(Sample {
                key: key.clone(),
                latency_s,
                cached: result.as_ref().map(|r| r.cached),
                expect,
            });
            if let Some(res) = result {
                log.answers.record(key, req, res.text);
            }
        }
    }
}

/// One control request on a short-lived connection.
fn control(addr: SocketAddr, req: &Request) -> Result<Json, String> {
    let mut c = Client::connect(&addr.to_string(), IO_TIMEOUT_MS).map_err(|e| e.to_string())?;
    match c.request(req).map_err(|e| e.to_string())? {
        Response::Ok(doc) => Ok(doc),
        Response::Err(e) => Err(format!("{}: {}", e.code, e.message)),
    }
}

/// Serve `s` to the closed-loop clients until the budget is spent, then
/// drain the server. The server thread is always shut down and joined.
fn serve_loop(s: &Served, seed: u64, budget: Budget, tr: &Tracer) -> Result<LoopOutcome, String> {
    let addr = s.listener.local_addr().map_err(|e| e.to_string())?;
    let listener = s.listener.try_clone().map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        workers: CLIENTS,
        max_inflight: 2 * CLIENTS,
        ..ServeConfig::default()
    };
    let parent = tr.current();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            tr.adopt(parent, || {
                tr.span("serve.serve", || serve(&s.engine, listener, &cfg))
            })
        });
        let run = || -> Result<LoopOutcome, String> {
            let before = control(addr, &Request::Stats)?;
            let next = AtomicUsize::new(0);
            let start = Instant::now();
            let logs: Vec<Result<ClientLog, String>> = tr.layer("serve.loop", || {
                let parent = tr.current();
                std::thread::scope(|clients| {
                    let handles: Vec<_> = (0..CLIENTS)
                        .map(|_| {
                            clients.spawn(|| {
                                tr.adopt(parent, || {
                                    client_loop(addr, seed, &s.slices, &next, budget, start, tr)
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .unwrap_or_else(|_| Err("client panicked".to_string()))
                        })
                        .collect()
                })
            });
            let wall_s = start.elapsed().as_secs_f64();
            let after = control(addr, &Request::Stats)?;
            let mut out = LoopOutcome {
                wall_s,
                samples: Vec::new(),
                answers: Answers::default(),
                asked: BTreeMap::new(),
                stats: (before, after),
            };
            for log in logs {
                let log = log?;
                for sample in log.samples.iter().filter(|x| x.cached.is_some()) {
                    *out.asked.entry(sample.key.clone()).or_default() += 1;
                }
                out.samples.extend(log.samples);
                out.answers.merge(log.answers);
            }
            Ok(out)
        };
        let outcome = run();
        let drained = control(addr, &Request::Shutdown);
        let joined = server.join();
        match (outcome, drained, joined) {
            (Ok(o), Ok(_), Ok(Ok(()))) => Ok(o),
            (Err(e), _, _) | (_, Err(e), _) => Err(e),
            (_, _, Ok(Err(e))) => Err(e.to_string()),
            (_, _, Err(_)) => Err("server thread panicked".to_string()),
        }
    })
}

/// Untimed, after the loop: every distinct answer must equal what a
/// fresh in-process engine renders for the same question. Questions are
/// grouped by slice, one engine per slice, so memory stays bounded.
/// Returns the questions whose answer did not match.
fn verify<'a>(s: &Served, seed: u64, out: &'a LoopOutcome, exec: &Executor) -> Vec<&'a String> {
    let mut by_slice: BTreeMap<String, Vec<(&String, &QueryRequest, &String)>> = BTreeMap::new();
    for (key, (req, text)) in &out.answers.first {
        by_slice
            .entry(req.predicate.normalized())
            .or_default()
            .push((key, req, text));
    }
    let groups: Vec<Vec<(&String, &QueryRequest, &String)>> = by_slice.into_values().collect();
    let bad: Vec<Vec<&String>> = exec.scatter_gather(groups, |_, group| {
        let engine = match QueryEngine::open(&s.dir, serve_ctx(seed)) {
            Ok(e) => e,
            Err(_) => return group.iter().map(|(k, _, _)| *k).collect(),
        };
        group
            .into_iter()
            .filter(|(_, req, text)| !matches!(engine.render(req), Ok((want, _)) if want == **text))
            .map(|(k, _, _)| k)
            .collect()
    });
    bad.into_iter().flatten().collect()
}

/// (attempted, failed) of a loop. Failed are the refused requests and
/// every answered request to a question that got two different answers
/// or an answer unlike the in-process render.
fn check(s: &Served, seed: u64, out: &LoopOutcome, exec: &Executor) -> (u64, u64) {
    let attempted = out.samples.len() as u64;
    let refused = out.samples.iter().filter(|x| x.cached.is_none()).count() as u64;
    let mut bad: BTreeSet<&String> = out.answers.conflicted.iter().collect();
    for key in &bad {
        eprintln!("# serve_mixed: {key} was answered with two different texts");
    }
    for key in verify(s, seed, out, exec) {
        eprintln!("# serve_mixed: answer to {key} differs from the in-process render");
        bad.insert(key);
    }
    let wrong: u64 = bad
        .into_iter()
        .map(|key| out.asked.get(key).copied().unwrap_or(1))
        .sum();
    (attempted, (refused + wrong).min(attempted))
}

/// Latencies of answered requests in one wire class, in seconds.
fn class(samples: &[Sample], cached: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|x| x.cached == Some(cached))
        .map(|x| x.latency_s)
        .collect()
}

fn work_dir(seed: u64, i: usize) -> PathBuf {
    crate::work_dir().join(format!("serve-{seed}-{}-{i}", std::process::id()))
}

fn cleanup(s: Served) {
    let dir = s.dir.clone();
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

pub fn timed(seed: u64, seconds: f64, exec: &Executor) -> Result<Timed, String> {
    let off = Tracer::new(false);
    let mut setups = Vec::new();
    let (mut attempted, mut failed, mut wall_s) = (0, 0, 0.0);
    let mut samples = Vec::new();
    for i in 0..SETUPS {
        let campaign = instance_seed(seed, i);
        let t = Instant::now();
        let s = setup(campaign, &work_dir(seed, i), &off).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        let out = serve_loop(&s, campaign, Budget::Seconds(seconds / SETUPS as f64), &off);
        let out = out.map(|out| {
            let (a, f) = check(&s, campaign, &out, exec);
            (out, a, f)
        });
        cleanup(s);
        let (out, a, f) = out?;
        attempted += a;
        failed += f;
        wall_s += out.wall_s;
        samples.extend(out.samples);
    }
    let answered: Vec<f64> = samples
        .iter()
        .filter(|x| x.cached.is_some())
        .map(|x| x.latency_s)
        .collect();
    let qps = Stat::Value {
        v: answered.len() as f64 / wall_s,
        n: answered.len(),
    };
    let (hits, renders) = (class(&samples, true), class(&samples, false));
    Ok(Timed {
        attempted,
        failed,
        setup_s: median(&setups),
        throughput: qps,
        op_ms: median(&answered).scaled(1e3),
        report: vec![
            m("serve_qps", "1/s", qps),
            m(
                "serve_hit_p50_us",
                "us",
                percentile(&hits, 50.0).scaled(1e6),
            ),
            m(
                "serve_hit_p99_us",
                "us",
                percentile(&hits, 99.0).scaled(1e6),
            ),
            m(
                "serve_render_p50_ms",
                "ms",
                percentile(&renders, 50.0).scaled(1e3),
            ),
            m(
                "serve_render_p90_ms",
                "ms",
                percentile(&renders, 90.0).scaled(1e3),
            ),
        ],
    })
}

/// The `serve` section of a `stats` snapshot.
fn serve_section(doc: &Json) -> Option<&Json> {
    doc["sections"]
        .as_array()?
        .iter()
        .find(|s| s["name"].as_str() == Some("serve"))
}

fn stats_counter(doc: &Json, name: &str) -> u64 {
    serve_section(doc)
        .and_then(|s| s["counters"].as_array())
        .and_then(|cs| cs.iter().find(|c| c["name"].as_str() == Some(name)))
        .and_then(|c| c["value"].as_u64())
        .unwrap_or(0)
}

/// (bounds, per-bucket counts) of a `stats` histogram.
fn stats_histogram(doc: &Json, name: &str) -> (Vec<u64>, Vec<u64>) {
    let h = serve_section(doc)
        .and_then(|s| s["histograms"].as_array())
        .and_then(|hs| hs.iter().find(|h| h["name"].as_str() == Some(name)));
    let nums = |key: &str| -> Vec<u64> {
        h.and_then(|h| h[key].as_array())
            .map(|a| a.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default()
    };
    (nums("bounds"), nums("buckets"))
}

/// Bucket growth of a histogram between two snapshots.
fn histogram_growth(before: &Json, after: &Json, name: &str) -> (Vec<u64>, Vec<u64>) {
    let (bounds, b) = stats_histogram(before, name);
    let (_, a) = stats_histogram(after, name);
    (bounds, bucket_growth(&b, &a))
}

/// The upper bound of the bucket holding quantile `q`; `n/a` when it
/// falls in the overflow bucket or there are no observations.
fn bucket_quantile(bounds: &[u64], buckets: &[u64], q: f64) -> Stat {
    let n: u64 = buckets.iter().sum();
    let target = (q * n as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target && n > 0 {
            return match bounds.get(i) {
                Some(&b) => Stat::Value {
                    v: b as f64,
                    n: n as usize,
                },
                None => Stat::NotAvailable { n: n as usize },
            };
        }
    }
    Stat::NotAvailable { n: n as usize }
}

/// Median wall time (µs) of `reps` calls of `f`.
fn micros<R>(reps: usize, mut f: impl FnMut() -> R) -> Stat {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&xs)
}

pub fn traced(seed: u64, exec: &Executor) -> Result<Traced, String> {
    let off = Tracer::new(false);
    let t = Instant::now();
    let s = setup(seed, &work_dir(seed, 0), &off).map_err(|e| e.to_string())?;
    serve_loop(&s, seed, Budget::Sessions, &off)?;
    let untraced_s = t.elapsed().as_secs_f64();
    cleanup(s);

    let tr = Tracer::new(true);
    let t = Instant::now();
    let (s, out) = tr.span("serve_mixed", || -> Result<_, String> {
        let s = setup(seed, &work_dir(seed, 1), &tr).map_err(|e| e.to_string())?;
        let out = serve_loop(&s, seed, Budget::Sessions, &tr)?;
        Ok((s, out))
    })?;
    let traced_s = t.elapsed().as_secs_f64();
    let (attempted, failed) = check(&s, seed, &out, exec);
    let probes = tr.span("serve_mixed.probes", || {
        store_and_query_probes(&s, seed, &out, &tr)
    });
    cleanup(s);
    let probes = probes.map_err(|e| e.to_string())?;

    let tree = SpanTree::new(tr.spans());
    let c = |span: &str, section: &str, name: &str| tree.counter(span, section, name);
    let encode_ms = tree.total_ms("store.save_d2");
    let written = c("store.save_d2", "store", "bytes_written");
    let decoded = c("serve.loop", "store", "d2_groups_decoded");
    let skipped = c("serve.loop", "store", "d2_groups_skipped");
    let (hits, renders) = (class(&out.samples, true), class(&out.samples, false));
    let hit_us = percentile(&hits, 50.0).scaled(1e6);
    let (before, after) = &out.stats;
    let (svc_bounds, svc) = histogram_growth(before, after, "service_ms");
    let (depth_bounds, depth) = histogram_growth(before, after, "queue_depth");
    let depth_max = highest_bucket(&depth_bounds, &depth);
    let wire_overhead = match (hit_us, probes.cache_hit_us) {
        (Stat::Value { v: a, n }, Stat::Value { v: b, .. }) => Stat::Value { v: a - b, n },
        _ => Stat::NotAvailable { n: hits.len() },
    };
    let mut layers = vec![
        m(
            "carriers.world_generate_ms",
            "ms",
            tree.ms("carriers.world_generate"),
        ),
        m("mmlab.crawl_ms", "ms", tree.ms("mmlab.crawl")),
        m(
            "mmlab.crawl_samples_per_s",
            "1/s",
            rate(
                c("mmlab.crawl", "crawl", "samples_emitted"),
                tree.total_ms("mmlab.crawl"),
            ),
        ),
        m("store.encode_ms", "ms", tree.ms("store.save_d2")),
        m(
            "store.encode_mb_per_s",
            "MB/s",
            rate(written, encode_ms).scaled(1e-6),
        ),
        m("store.bytes_written", "B", count(written)),
        m("query.open_ms", "ms", tree.ms("query.open")),
        m("store.scan_rows_per_s", "1/s", probes.scan_rows_per_s),
        m(
            "store.pushdown_rows_per_s",
            "1/s",
            probes.pushdown_rows_per_s,
        ),
        m(
            "store.groups_skipped_frac",
            "frac",
            ratio(skipped as f64, decoded + skipped),
        ),
        m(
            "store.blocks_read",
            "count",
            count(c("serve.loop", "store", "blocks_read")),
        ),
        m(
            "store.bytes_read",
            "B",
            count(c("serve.loop", "store", "bytes_read")),
        ),
        m("query.render_ms", "ms", probes.render_ms),
        m("query.memo_render_ms", "ms", probes.memo_render_ms),
        m("query.cache_hit_us", "us", probes.cache_hit_us),
        m(
            "query.cache_hit_frac",
            "frac",
            ratio(
                c("serve.loop", "serve", "cache_hits") as f64,
                c("serve.loop", "serve", "queries"),
            ),
        ),
        m("net.wire_overhead_us", "us", wire_overhead),
        m("net.response_bytes", "B", probes.response_bytes),
        m("json.response_encode_us", "us", probes.encode_us),
        m("json.response_parse_us", "us", probes.parse_us),
        m(
            "serve.service_ms_p50",
            "ms",
            bucket_quantile(&svc_bounds, &svc, 0.5),
        ),
        m("serve.queue_depth_max", "count", depth_max),
        m(
            "serve.rejected",
            "count",
            count(
                stats_counter(after, "requests_rejected")
                    .saturating_sub(stats_counter(before, "requests_rejected")),
            ),
        ),
        m(
            "serve.class_mismatches",
            "count",
            count(
                out.samples
                    .iter()
                    .filter(|x| x.cached.is_some_and(|c| c != (x.expect == Expect::Hit)))
                    .count() as u64,
            ),
        ),
        m("serve.hit_p50_us", "us", hit_us),
        m(
            "serve.render_p50_ms",
            "ms",
            percentile(&renders, 50.0).scaled(1e3),
        ),
    ];
    layers.extend(crate::trace_metrics(
        &tree,
        "serve_mixed",
        untraced_s,
        traced_s,
    ));
    Ok(Traced {
        workload: "serve_mixed",
        layers,
        tree,
        attempted,
        failed,
    })
}

/// Direct, untraced measurements of the store and query layers.
struct Probes {
    scan_rows_per_s: Stat,
    pushdown_rows_per_s: Stat,
    render_ms: Stat,
    memo_render_ms: Stat,
    cache_hit_us: Stat,
    response_bytes: Stat,
    encode_us: Stat,
    parse_us: Stat,
}

/// Sessions whose questions the query probes re-ask.
const PROBE_SESSIONS: usize = 5;

/// Time `f` inside a span named `name`; the span's own cost stays out of
/// the returned seconds.
fn timed_span<R>(tr: &Tracer, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    tr.span(name, || {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    })
}

fn store_and_query_probes(
    s: &Served,
    seed: u64,
    out: &LoopOutcome,
    tr: &Tracer,
) -> Result<Probes, MmError> {
    // A full, unfiltered scan of the round-0 entry.
    let ctx = serve_ctx(seed);
    let store = RunStore::open(&s.dir)?;
    let entry = s
        .engine
        .manifest()
        .rounds
        .first()
        .map(|r| r.entry.clone())
        .unwrap_or_default();
    let file = std::fs::File::open(store.entry_path(&ctx, &entry))?;
    let (rows, scan_s) = timed_span(tr, "store.d2_scan", || -> Result<u64, MmError> {
        let mut rows = 0;
        for row in D2StoreReader::new(BufReader::new(file))? {
            row?;
            rows += 1;
        }
        Ok(rows)
    });
    let scan_rows_per_s = rate(rows?, scan_s * 1e3);

    // Cold renders on a fresh engine (its memo is empty; `render` skips the
    // answer cache), then a second question over the same slice.
    let engine = QueryEngine::open(&s.dir, serve_ctx(seed))?;
    let (mut pushdown, mut cold, mut memo, mut hit) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..PROBE_SESSIONS {
        let asks = inputs::session(seed, &s.slices, k).asks;
        let (first, second) = (&asks[0].0, &asks[1].0);
        let (agg, secs) = timed_span(tr, "query.aggregate", || engine.aggregate(&first.predicate));
        let (agg, scan) = agg?;
        pushdown.push((agg.len() as u64 + scan.rows_skipped) as f64 / secs);
        let (r, secs) = timed_span(tr, "query.render", || engine.render(first));
        r?;
        cold.push(secs * 1e3);
        let (r, secs) = timed_span(tr, "query.render_memo", || engine.render(second));
        r?;
        memo.push(secs * 1e3);
        // The loop already cached this answer: `run` is a cache hit.
        let mut runs = Vec::new();
        for _ in 0..50 {
            let (r, secs) = timed_span(tr, "query.run", || engine.run(first));
            r?;
            runs.push(secs * 1e6);
        }
        hit.extend(median(&runs).value());
    }
    // Response encoding, over the answers the loop actually returned.
    let responses: Vec<String> = out
        .answers
        .first
        .values()
        .map(|(_, text)| {
            QueryResult {
                text: text.clone(),
                cached: true,
                scan: Default::default(),
            }
            .to_wire()
            .to_string()
        })
        .collect();
    let mut sizes: Vec<f64> = responses.iter().map(|r| r.len() as f64).collect();
    sizes.sort_by(f64::total_cmp);
    // Time the codec on a median-sized response.
    let sample = responses
        .iter()
        .find(|r| Some(r.len() as f64) == median(&sizes).value().map(f64::floor))
        .or(responses.first())
        .cloned()
        .unwrap_or_default();
    let result = QueryResult::from_wire(&Json::parse(&sample).unwrap_or(Json::Null))?;
    Ok(Probes {
        scan_rows_per_s,
        pushdown_rows_per_s: median(&pushdown),
        render_ms: median(&cold),
        memo_render_ms: median(&memo),
        cache_hit_us: median(&hit),
        response_bytes: median(&sizes),
        encode_us: tr.span("json.response_encode", || {
            micros(200, || result.to_wire().to_string())
        }),
        parse_us: tr.span("json.response_parse", || {
            micros(200, || Json::parse(&sample))
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmradio::band::Rat;

    fn question(carrier: &str) -> (String, QueryRequest) {
        let req = QueryRequest::diversity(carrier, Rat::Lte).build().unwrap();
        (req.normalized(), req)
    }

    #[test]
    fn clients_that_disagree_conflict_the_question() {
        let (key, req) = question("A");
        let (other_key, other) = question("T");
        let mut first = Answers::default();
        first.record(key.clone(), req.clone(), "wrong".to_string());
        first.record(other_key.clone(), other.clone(), "same".to_string());
        let mut second = Answers::default();
        second.record(key.clone(), req, "right".to_string());
        second.record(other_key.clone(), other, "same".to_string());
        first.merge(second);
        assert!(first.conflicted.contains(&key), "cross-client disagreement");
        assert!(!first.conflicted.contains(&other_key));
    }

    #[test]
    fn one_client_that_changes_its_answer_conflicts_the_question() {
        let (key, req) = question("A");
        let mut answers = Answers::default();
        answers.record(key.clone(), req.clone(), "one".to_string());
        answers.record(key.clone(), req, "two".to_string());
        assert!(answers.conflicted.contains(&key));
    }
}
