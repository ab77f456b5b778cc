//! # mm-lint — determinism & hermeticity static analysis
//!
//! The workspace's core claim is that every table and figure of the
//! IMC'18 mobility-configuration study is byte-identical for any
//! `MM_THREADS` and any re-run. Runtime spot-checks (golden FNV hashes,
//! `MM_THREADS=1` vs `8` snapshot diffs) only cover the paths the test
//! seeds exercise; the invariants are also enforced *statically* over
//! every `.rs` file and `Cargo.toml` in the workspace.
//!
//! The rules rustc and clippy can express are checked-in configuration,
//! not code here: `HashMap`/`HashSet`, wall clocks, raw thread spawns and
//! `process::exit` are `disallowed-types`/`disallowed-methods` in the
//! `clippy.toml` files (per-crate files carry the Sched-scope exemptions),
//! library roots deny `clippy::unwrap_used`/`expect_used`, and
//! `[workspace.lints]` forbids `unsafe` and reasonless `#[allow]`/`#[expect]`
//! attributes. This crate keeps what only it can check.
//!
//! The pipeline is deliberately parser-free and runs in two phases. The
//! per-file phase: a comment/string-aware [`lexer`] turns each file into
//! a token stream, [`engine`] classifies the file (crate, determinism
//! scope, target kind) and tracks `#[cfg(test)]` regions, every
//! token-level [`rules::Rule`] is a pattern over that stream, and
//! [`items`] extracts a per-function summary (calls made, float
//! reductions, panic macros, cast subscripts, `stream_rng` labels). The
//! workspace-global phase: [`graph`] joins those summaries with the
//! crate-dependency closure from a minimal [`manifest`] reader into an
//! approximate call graph, and runs the cross-file semantic rules — RNG
//! stream discipline (R-rules), float determinism on scatter-reachable
//! paths (F001), and panic reachability from binary entry points
//! (P001/P002).
//!
//! Both phases run sequentially, so the report is a pure function of the
//! workspace's files. Findings can be silenced inline with
//! `mm-allow(RULE): reason` at the start of a comment on the same line or
//! the line above — suppressed diagnostics are marked, not dropped, and
//! reasonless, unknown-rule, or stale suppressions are themselves
//! diagnostics (S001 for token rules, S002 for graph rules — an error
//! under `--strict-suppress`), so the suppression inventory stays honest.
//!
//! The `mmlint` binary runs the whole workspace (human or `--json`
//! output, `--explain RULE` for rationale) and is gated in
//! `scripts/verify.sh` after clippy.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod diag;
pub mod engine;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod manifest;
pub mod rules;

pub use diag::{Diagnostic, Report, Severity};
pub use engine::{analyze_files, analyze_manifest_src, analyze_source, analyze_workspace};
pub use rules::{is_known_rule, rule_by_id, RULES};
