//! `mmlint` — run the workspace determinism & hermeticity lints.
//!
//! ```text
//! mmlint [--root DIR] [--json] [--list] [--strict-suppress]
//! mmlint --explain RULE
//! ```
//!
//! With no flags, lints the workspace rooted at the nearest ancestor of
//! the current directory whose `Cargo.toml` declares a workspace table
//! (or `--root DIR` explicitly), prints findings as
//! `file:line: RULE severity: message`, and exits 0 when clean, 3 when
//! diagnostics were found, 2 on usage errors — the same convention as
//! `mmx`.
//!
//! `--strict-suppress` turns the stale-suppression audit (S002) into an
//! error, for CI.

use mm_json::ToJson;
use mm_lint::manifest::declares_workspace;
use mm_lint::{analyze_workspace, rule_by_id, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: mmlint [--root DIR] [--json] [--list] [--strict-suppress] \
     [--explain RULE] [--version]"
        .to_string()
}

/// Find the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares a workspace table — the same test the
/// walker uses to skip nested workspaces.
fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if std::fs::read_to_string(&manifest).is_ok_and(|text| declares_workspace(&text)) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run() -> Result<ExitCode, (i32, String)> {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut strict_suppress = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--version" => {
                println!("mmlint {}", env!("CARGO_PKG_VERSION"));
                return Ok(ExitCode::SUCCESS);
            }
            "--json" => json = true,
            "--strict-suppress" => strict_suppress = true,
            "--root" => {
                let dir = args
                    .next()
                    .ok_or((2, format!("--root needs a value\n{}", usage())))?;
                root = Some(PathBuf::from(dir));
            }
            "--list" => {
                for r in RULES {
                    println!("{}  {}  {}", r.id, r.severity.label(), r.summary);
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--explain" => {
                let id = args
                    .next()
                    .ok_or((2, format!("--explain needs a rule id\n{}", usage())))?;
                let rule = rule_by_id(&id)
                    .ok_or((2, format!("unknown rule {id:?} (try `mmlint --list`)")))?;
                println!(
                    "{} ({}): {}\n\n{}",
                    rule.id,
                    rule.severity.label(),
                    rule.summary,
                    rule.explain
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err((2, format!("unknown argument {other:?}\n{}", usage()))),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| (3, format!("cwd: {e}")))?;
            find_root(cwd).ok_or((
                2,
                "no workspace root found (no ancestor Cargo.toml declares a workspace); \
                 pass --root DIR"
                    .to_string(),
            ))?
        }
    };

    let report = analyze_workspace(&root, strict_suppress)
        .map_err(|e| (3, format!("scanning {}: {e}", root.display())))?;

    if json {
        println!("{}", report.to_json_string());
    } else {
        for d in report.diagnostics.iter().filter(|d| !d.suppressed) {
            println!("{}", d.human());
        }
        if report.is_clean() {
            println!(
                "mmlint: clean — {} files + {} manifests, {} rules, {} suppressed finding(s)",
                report.files_scanned,
                report.manifests_scanned,
                RULES.len(),
                report.suppressed()
            );
        } else {
            println!(
                "mmlint: {} error(s), {} warning(s) across {} files",
                report.errors(),
                report.warnings(),
                report.files_scanned
            );
        }
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err((code, msg)) => {
            eprintln!("mmlint: {msg}");
            ExitCode::from(code as u8)
        }
    }
}
