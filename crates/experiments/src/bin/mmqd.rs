//! `mmqd` — the resident query server (DESIGN.md §14).
//!
//! ```text
//! mmqd --store DIR [--listen ADDR] [--seed N] [--scale X|paper] [--runs N]
//!      [--duration-s N] [--quick] [--workers N] [--max-inflight N]
//!      [--deadline-ms N] [--max-frame BYTES] [--queue-cap N]
//! mmqd --version
//! ```
//!
//! Where `mmq` opens the store, answers, and exits, `mmqd` opens it once
//! and keeps answering: one shared [`QueryEngine`] behind a fixed worker
//! pool, so the per-process aggregate memo and the store's query cache
//! are warm across every connection — a query any client has asked
//! before is served without opening a single data block. Clients connect
//! with `mmq --connect HOST:PORT`, whose output is byte-identical to
//! local `mmq` over the same store.
//!
//! `--listen 127.0.0.1:0` (the default) binds an ephemeral loopback
//! port; the actual address is printed as `mmqd: listening on ADDR` so
//! scripts can scrape it. The server runs until a client sends the
//! `shutdown` control request (`mmq --connect ADDR shutdown`), then
//! drains in-flight work and exits 0.
//!
//! Exit codes: 2 for usage errors (bad flags, missing campaign), 3 for
//! runtime failures (corrupt store, unbindable address).

use mmexperiments::cli::{parse_duration_s, parse_num, parse_scale};
use mmexperiments::{serve, Ctx, MmError, QueryEngine, ServeConfig};

fn usage() -> String {
    "usage: mmqd --store DIR [--listen ADDR] [--seed N] [--scale X|paper] [--runs N] \
     [--duration-s N] [--quick] [--workers N] [--max-inflight N] [--deadline-ms N] \
     [--max-frame BYTES] [--queue-cap N] [--version]\n\
     serves mmq queries over a framed TCP protocol; stop with \
     `mmq --connect ADDR shutdown`"
        .to_string()
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
    let mut listen = "127.0.0.1:0".to_string();
    let mut cfg = ServeConfig::default();
    let mut inflight_set = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--version" => {
                println!("mmqd {}", env!("CARGO_PKG_VERSION"));
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
            "--listen" => {
                listen = it
                    .next()
                    .ok_or_else(|| MmError::Config("--listen expects HOST:PORT".into()))?
            }
            "--workers" => cfg.workers = parse_num("--workers", it.next())?,
            "--max-inflight" => {
                cfg.max_inflight = parse_num("--max-inflight", it.next())?;
                inflight_set = true;
            }
            "--deadline-ms" => cfg.deadline_ms = parse_num("--deadline-ms", it.next())?,
            "--max-frame" => cfg.max_frame = parse_num("--max-frame", it.next())?,
            "--queue-cap" => cfg.queue_cap = parse_num("--queue-cap", it.next())?,
            _ => return Err(MmError::Config(usage())),
        }
    }
    if quick && scale.is_some() {
        return Err(MmError::Config(
            "--quick and --scale conflict; --quick is the fixed small preset".into(),
        ));
    }
    // The in-flight cap tracks the pool size unless pinned explicitly.
    if !inflight_set {
        cfg.max_inflight = cfg.workers.max(1) * 2;
    }
    let Some(dir) = store_dir else {
        return Err(MmError::Config(
            "mmqd serves a stored campaign; name it with --store DIR".into(),
        ));
    };

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

    let engine = QueryEngine::open(std::path::Path::new(&dir), ctx)?;
    eprintln!(
        "# mmqd: campaign has {} round(s), {} samples, content {:016x}",
        engine.manifest().rounds.len(),
        engine.manifest().total_samples(),
        engine.content_hash(),
    );
    let listener = std::net::TcpListener::bind(&listen)
        .map_err(|e| mmcore::NetError::Io(format!("bind {listen}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| mmcore::NetError::Io(e.to_string()))?;
    // Scraped by scripts (verify.sh): keep this line first on stdout.
    println!("mmqd: listening on {addr}");
    eprintln!(
        "# mmqd: {} worker(s), {} in-flight cap, {}ms deadline, {}-byte frames",
        cfg.workers.max(1),
        cfg.max_inflight,
        cfg.deadline_ms,
        cfg.max_frame,
    );
    serve(&engine, listener, &cfg)?;
    println!("mmqd: drained, exiting");
    Ok(())
}

fn main() {
    if let Err(err) = real_main() {
        if err.is_usage() {
            eprintln!("mmqd: {err}");
        } else {
            eprintln!("mmqd: error: {err}");
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "mmqd is a process boundary: it maps MmError to exit code 2 (usage) or 3 (runtime)"
        )]
        std::process::exit(err.exit_code());
    }
}
