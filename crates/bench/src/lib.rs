//! # mm-bench — the one-off timings `scripts/verify.sh` gates on
//!
//! Four `harness = false` benches each time one workload once and attach
//! the result to their report as a named JSON section:
//!
//! | bench | sections | verify.sh gate |
//! |---|---|---|
//! | `aggregate` | `aggregate_rate` | section present |
//! | `query` | `query_pushdown`, `query_latency` | pushdown `speedup_x` ≥ 2 |
//! | `fleet` | `fleet_rate` | section present |
//! | `serve` | `serve_rate` | warm/cold `speedup_x` ≥ 100 |
//!
//! Per-layer timing of the paper's workloads lives in perfbench, not here.
//!
//! Passing `--smoke` (e.g. `cargo bench -p mm-bench --bench query --
//! --smoke`) runs each bench on its small fixture; every other argument
//! (cargo's `--bench`) is ignored.
//!
//! Each bench binary writes one JSON report (via `mm-json`) to
//! `<target>/mm-bench/<bench>.json`, or into the directory named by the
//! `MM_BENCH_OUT` environment variable.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use mm_json::{Json, ToJson};

/// One bench binary's report: its name, whether the run is `--smoke`, and
/// the sections attached so far.
pub struct Report {
    bench: String,
    smoke: bool,
    sections: Vec<(String, Json)>,
}

impl Report {
    /// A report named after the bench binary, with `--smoke` read from the
    /// process arguments.
    pub fn from_args() -> Self {
        Report {
            bench: bench_binary_name(),
            smoke: std::env::args().skip(1).any(|a| a == "--smoke"),
            sections: Vec::new(),
        }
    }

    /// Whether this run is a `--smoke` pass. Benches use this to size
    /// their fixture.
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// Attach a named JSON section. Later attachments with the same key
    /// overwrite earlier ones.
    pub fn attach(&mut self, key: &str, value: Json) -> &mut Self {
        self.sections.retain(|(k, _)| k != key);
        self.sections.push((key.to_string(), value));
        self
    }

    /// Write the report as one line of JSON and print where it went.
    pub fn write(&self) -> std::io::Result<()> {
        let dir = match std::env::var_os("MM_BENCH_OUT") {
            Some(d) => PathBuf::from(d),
            None => default_report_dir(),
        };
        let path = dir.join(format!("{}.json", self.bench));
        std::fs::create_dir_all(&dir)?;
        std::fs::write(&path, self.to_json().to_string())?;
        println!("mm-bench report: {}", path.display());
        Ok(())
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("bench".to_string(), self.bench.to_json()),
            ("smoke".to_string(), self.smoke.to_json()),
        ];
        members.extend(self.sections.iter().cloned());
        Json::Obj(members)
    }
}

/// Bench binary file stem with cargo's `-<16 hex>` disambiguator stripped.
fn bench_binary_name() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    strip_cargo_hash(&stem).to_string()
}

fn strip_cargo_hash(stem: &str) -> &str {
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base
        }
        _ => stem,
    }
}

/// `<target>/mm-bench`, located from the bench executable's path
/// (`<target>/release/deps/<bench>-<hash>`); falls back to `./target`.
fn default_report_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.ancestors().nth(3).map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("mm-bench")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cargo_hash_is_stripped_from_the_bench_name() {
        assert_eq!(strip_cargo_hash("query-0123456789abcdef"), "query");
        assert_eq!(strip_cargo_hash("query-short"), "query-short");
        assert_eq!(strip_cargo_hash("serve"), "serve");
    }

    #[test]
    fn sections_follow_the_header_and_a_repeat_key_overwrites() {
        let mut r = Report {
            bench: "query".to_string(),
            smoke: true,
            sections: Vec::new(),
        };
        r.attach("a", Json::Num(1.0));
        r.attach("b", Json::Num(2.0));
        r.attach("a", Json::Num(3.0));
        assert_eq!(
            r.to_json().to_string(),
            r#"{"bench":"query","smoke":true,"b":2,"a":3}"#
        );
    }
}
