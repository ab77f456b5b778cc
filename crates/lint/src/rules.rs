//! The lint registry: every domain rule, its explanation, and its check.
//!
//! Only rules that rustc and clippy cannot express live here. The
//! container, wall-clock, thread and exit rules are `disallowed-types` /
//! `disallowed-methods` in the checked-in `clippy.toml` files, panicking
//! unwraps are `clippy::unwrap_used`/`expect_used` denied in each library
//! root, and `unsafe` is forbidden by `[workspace.lints]` (DESIGN.md §8).
//!
//! Token rules are patterns over the lexed stream of one file (see
//! [`crate::engine::FileCtx`]); the manifest rule walks the parsed
//! `Cargo.toml` subset. To add a rule: write a `check_*` function, add a
//! [`Rule`] entry to [`RULES`] with an id, summary and `explain` text, and
//! drop a fixture under `tests/fixtures/` exercising the positive,
//! suppressed, and clean cases.

use crate::diag::{Diagnostic, Severity};
use crate::engine::{FileCtx, FileKind, Scope};
use crate::manifest::{self, DepSource};

/// One registered lint.
pub struct Rule {
    /// Stable id (`R001`, ...), the key used by `mm-allow` and `--explain`.
    pub id: &'static str,
    /// Gate-failing or advisory.
    pub severity: Severity,
    /// One-line summary for listings.
    pub summary: &'static str,
    /// Long-form rationale for `--explain`.
    pub explain: &'static str,
    /// Token-level check; `None` for rules that run elsewhere (Z001 on
    /// manifests, S001 inside the suppression machinery).
    pub check: Option<fn(&FileCtx, &mut Vec<Diagnostic>)>,
}

/// The registry. Order is the reporting order for `--list`.
pub const RULES: &[Rule] = &[
    Rule {
        id: "A001",
        severity: Severity::Error,
        summary: "Relaxed atomics need a justification comment",
        explain: "Every Ordering::Relaxed on a cross-thread atomic needs a `relaxed-ok:` \
                  comment on the same line or in the contiguous comment block above saying \
                  why the weak ordering cannot corrupt a deterministic value. The comment is \
                  the review artifact; its absence is the lint. (`unsafe` needs no comment \
                  rule: the workspace forbids it outright through [workspace.lints].)",
        check: Some(check_a001),
    },
    Rule {
        id: "Z001",
        severity: Severity::Error,
        summary: "hermetic workspace: in-tree path dependencies only, no build.rs",
        explain: "The workspace builds offline with an empty cargo cache: every dependency is \
                  an in-tree crates/ path (directly or via [workspace.dependencies]). Registry \
                  or git requirements, [build-dependencies], a package.build override, or a \
                  build.rs file all break that hermeticity. Manifest findings cannot be \
                  suppressed.",
        check: None,
    },
    Rule {
        id: "R001",
        severity: Severity::Error,
        summary: "no hardcoded RNG seeds or entropy in deterministic code",
        explain: "Deterministic crates derive every RNG from the experiment's master seed \
                  through the named derivation fns (sub_seed, stream_rng, round_seed), so a \
                  run can be replayed and re-sharded bit-exactly. A seed_from_u64 whose \
                  argument is a bare literal creates a stream no replay can re-derive from \
                  the config, and from_entropy is nondeterministic by definition. crates/rng \
                  (the RNG implementation itself) is exempt.",
        check: Some(check_r001),
    },
    Rule {
        id: "R002",
        severity: Severity::Error,
        summary: "RNG values must not cross into scatter closures",
        explain: "An Rng constructed before an exec.scatter_gather call and referenced inside \
                  the task closure ties the drawn values to task scheduling: which task \
                  touches the generator first differs per thread count, so output stops \
                  being MM_THREADS-invariant. Derive a fresh stream inside the task from \
                  the master seed and the task's own index (sub_seed(master, index)) — the \
                  per-UE/per-shard pattern used by the fleet runtime.",
        check: Some(check_r002),
    },
    Rule {
        id: "R003",
        severity: Severity::Error,
        summary: "one stream label, one stream (workspace analysis)",
        explain: "stream_rng(master, label) hashes the label into the master seed, so two \
                  production call sites in one crate using the same constant label draw the \
                  *same* xoshiro stream — silently correlated randomness that biases exactly \
                  the handoff statistics the paper measures. Every independent stream needs \
                  its own label; per-item streams derive with sub_seed/round_seed. Resolved \
                  in the workspace graph phase, so single files in isolation never flag.",
        check: None,
    },
    Rule {
        id: "F001",
        severity: Severity::Error,
        summary: "f64 reductions on scatter-reachable paths live in the kernel files",
        explain: "f64 addition is not associative: a sum folded in a different order yields \
                  different low bits, so any float reduction on a path reachable from an \
                  mm-exec scatter site can silently break the byte-identical-at-any-\
                  MM_THREADS contract. Such reductions must live in the sanctioned kernel \
                  files (mmcore::kernel's ordered scalar kernels, mmlab's count-based \
                  ValueCounts/Welford aggregation) or accumulate in integers like the fleet \
                  tallies. Reachability comes from the approximate workspace call graph.",
        check: None,
    },
    Rule {
        id: "P001",
        severity: Severity::Error,
        summary: "no panic macros in library code reachable from a binary",
        explain: "panic!/unreachable!/todo!/unimplemented! in a library fn on a call path \
                  from the mmx/mmq/mmlint entry points can tear down a multi-hour campaign \
                  on an edge case. Restructure so the case cannot exist (if-let, exhaustive \
                  match, Option returns) or return MmError. This is the library-root \
                  `clippy::unwrap_used`/`expect_used` denial made call-graph-aware: \
                  binaries and dead code may panic, reachable library code may not.",
        check: None,
    },
    Rule {
        id: "P002",
        severity: Severity::Error,
        summary: "no as-cast indexing in library code reachable from a binary",
        explain: "v[i as usize] panics out of bounds when the cast value exceeds the \
                  collection — the classic silent-truncation crash at paper scale (u8/u32 \
                  codes indexing fixed tables). On call paths from a binary entry point, \
                  index with .get()/.get_mut() and handle the None, or restructure so the \
                  index is proven by construction (iterators, zip).",
        check: None,
    },
    Rule {
        id: "S001",
        severity: Severity::Error,
        summary: "suppressions must be well-formed, justified, and used",
        explain: "An mm-allow comment must name a known rule, carry a non-empty reason after \
                  the colon, and actually suppress a diagnostic on its own or the following \
                  line. Anything else — unknown rule, missing reason, stale suppression left \
                  behind after the code was fixed — is itself an error, so the suppression \
                  inventory stays honest.",
        check: None,
    },
    Rule {
        id: "S002",
        severity: Severity::Warn,
        summary: "workspace-phase suppressions must still fire",
        explain: "An mm-allow naming a graph-phase rule (R003/F001/P001/P002) can only be \
                  audited after the whole workspace is analyzed: when it no longer matches \
                  any diagnostic it is stale and must be pruned. Advisory by default because \
                  the call graph is approximate; `mmlint --strict-suppress` (the verify.sh \
                  gate) promotes it to an error so the suppression inventory cannot rot.",
        check: None,
    },
];

/// Is `id` a registered rule id?
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Look up a rule for `--explain`.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Shorthand for pushing a finding.
fn push(
    diags: &mut Vec<Diagnostic>,
    rule: &'static str,
    ctx: &FileCtx,
    line: u32,
    message: String,
) {
    diags.push(Diagnostic {
        rule,
        severity: Severity::Error,
        file: ctx.path.to_string(),
        line,
        message,
        suppressed: false,
    });
}

/// Does production (non-test) code at this line concern the rule at all?
fn production_code(ctx: &FileCtx, line: u32, kinds: &[FileKind]) -> bool {
    kinds.contains(&ctx.kind) && !ctx.in_test(line)
}

fn check_a001(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    let kinds = [
        FileKind::Lib,
        FileKind::Bin,
        FileKind::Bench,
        FileKind::Example,
    ];
    for t in &ctx.lexed.toks {
        if t.text == "Relaxed"
            && production_code(ctx, t.line, &kinds)
            && !ctx.nearby_comment_contains(t.line, "relaxed-ok:")
        {
            push(
                diags,
                "A001",
                ctx,
                t.line,
                "Ordering::Relaxed without a `relaxed-ok:` comment on this line or in the \
                 comment block above justifying the weak ordering"
                    .to_string(),
            );
        }
    }
}

/// Seed-derivation fns whose presence in a `seed_from_u64` argument makes
/// the construction legitimate for R001.
const DERIVE_FNS: &[&str] = &[
    "sub_seed",
    "sub_seed3",
    "stream_rng",
    "round_seed",
    "splitmix64",
    "run_seed",
];

fn check_r001(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if ctx.scope != Scope::Deterministic || ctx.crate_name == "rng" {
        return;
    }
    let toks = &ctx.lexed.toks;
    for (i, tok) in toks.iter().enumerate() {
        if !production_code(ctx, tok.line, &[FileKind::Lib, FileKind::Bin]) {
            continue;
        }
        if tok.text == "from_entropy" && toks.get(i + 1).is_some_and(|t| t.text == "(") {
            push(
                diags,
                "R001",
                ctx,
                tok.line,
                "from_entropy in deterministic code: every RNG must derive from the master \
                 seed so runs replay bit-exactly"
                    .to_string(),
            );
        }
        if tok.text == "seed_from_u64" && toks.get(i + 1).is_some_and(|t| t.text == "(") {
            // Scan the argument list: a construction is fine when any
            // identifier appears (a config field, a derivation call); a
            // literal-only argument is a hardcoded stream.
            let mut depth = 1i32;
            let mut j = i + 2;
            let mut has_ident = false;
            while j < toks.len() && depth > 0 && j - i < 100 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                if toks[j].kind == crate::lexer::TokKind::Ident {
                    has_ident = true;
                }
                j += 1;
            }
            if !has_ident {
                push(
                    diags,
                    "R001",
                    ctx,
                    tok.line,
                    format!(
                        "seed_from_u64 with a hardcoded literal seed in deterministic code: \
                         derive the stream from the experiment's master seed instead \
                         ({} …)",
                        DERIVE_FNS.join("/")
                    ),
                );
            }
        }
    }
}

/// Idents whose appearance in a `let` initializer marks the binding as an
/// RNG value for R002.
const RNG_SOURCES: &[&str] = &["stream_rng", "seed_from_u64", "from_entropy", "SmallRng"];

fn check_r002(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if ctx.scope != Scope::Deterministic {
        return;
    }
    let toks = &ctx.lexed.toks;
    for item in &ctx.items.fns {
        if item.in_test
            || !matches!(ctx.kind, FileKind::Lib | FileKind::Bin)
            || !item
                .calls
                .iter()
                .any(|c| c == "scatter_gather" || c == "scatter_gather_stats")
        {
            continue;
        }
        // Token index range of this fn's span.
        let lo = toks.partition_point(|t| t.line < item.line);
        let hi = toks.partition_point(|t| t.line <= item.end_line);
        // RNG-valued `let` bindings: (name, line, index of the binding).
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        let mut k = lo;
        while k < hi {
            if toks[k].text == "let" {
                let mut n = k + 1;
                if toks.get(n).is_some_and(|t| t.text == "mut") {
                    n += 1;
                }
                let name_idx = n;
                let is_binding = toks
                    .get(n)
                    .is_some_and(|t| t.kind == crate::lexer::TokKind::Ident)
                    && toks
                        .get(n + 1)
                        .is_some_and(|t| t.text == "=" || t.text == ":");
                if is_binding {
                    // Scan the initializer to the `;` for an RNG source.
                    let mut m = n + 1;
                    while m < hi && toks[m].text != ";" {
                        if RNG_SOURCES.contains(&toks[m].text.as_str()) {
                            bindings.push((&toks[name_idx].text, toks[name_idx].line, name_idx));
                            break;
                        }
                        m += 1;
                    }
                }
            }
            k += 1;
        }
        if bindings.is_empty() {
            continue;
        }
        let mut flagged = vec![false; bindings.len()];
        // Every scatter call in the span: does a binding declared before
        // it appear inside its argument parens (the task closure)?
        let mut k = lo;
        while k < hi {
            let is_scatter = (toks[k].text == "scatter_gather"
                || toks[k].text == "scatter_gather_stats")
                && toks.get(k + 1).is_some_and(|t| t.text == "(");
            if !is_scatter {
                k += 1;
                continue;
            }
            let mut depth = 1i32;
            let mut m = k + 2;
            while m < hi && depth > 0 {
                match toks[m].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                if depth > 0 && toks[m].kind == crate::lexer::TokKind::Ident {
                    for (b, &(name, line, idx)) in bindings.iter().enumerate() {
                        if idx < k && toks[m].text == name && !flagged[b] {
                            flagged[b] = true;
                            push(
                                diags,
                                "R002",
                                ctx,
                                line,
                                format!(
                                    "RNG value `{name}` built in `{}` crosses into the \
                                     scatter closure on line {}: draws then depend on task \
                                     scheduling — derive a per-task stream inside the \
                                     closure (sub_seed(master, index))",
                                    item.name, toks[k].line
                                ),
                            );
                        }
                    }
                }
                m += 1;
            }
            k = m;
        }
    }
}

/// Normalize `base/rel` textually, resolving `.` and `..` components.
/// Returns `None` when the path escapes the workspace root.
fn normalize_join(base_dir: &str, rel: &str) -> Option<String> {
    let mut parts: Vec<&str> = base_dir.split('/').filter(|p| !p.is_empty()).collect();
    for comp in rel.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                parts.pop()?;
            }
            other => parts.push(other),
        }
    }
    Some(parts.join("/"))
}

/// Z001 over one manifest.
pub fn check_manifest(rel_path: &str, src: &str, diags: &mut Vec<Diagnostic>) {
    let m = manifest::parse(src);
    let base_dir = rel_path.rsplit_once('/').map_or("", |(d, _)| d);
    let z001 = |line: u32, message: String| Diagnostic {
        rule: "Z001",
        severity: Severity::Error,
        file: rel_path.to_string(),
        line,
        message,
        suppressed: false,
    };
    for line in &m.build_dep_sections {
        diags.push(z001(
            *line,
            "[build-dependencies] is forbidden: the workspace has no compile-time codegen"
                .to_string(),
        ));
    }
    if let Some((script, line)) = &m.build_script {
        diags.push(z001(
            *line,
            format!(
                "package.build = {script:?} is forbidden: no build scripts in a hermetic workspace"
            ),
        ));
    }
    for dep in &m.deps {
        match dep.source {
            DepSource::Workspace => {}
            DepSource::External => diags.push(z001(
                dep.line,
                format!(
                    "dependency `{}` is external (registry/git): the workspace is hermetic, \
                     only in-tree crates/ paths are allowed",
                    dep.name
                ),
            )),
            DepSource::Path => {
                let inside = dep
                    .path
                    .as_deref()
                    .and_then(|p| normalize_join(base_dir, p))
                    .is_some_and(|norm| norm.starts_with("crates/"));
                if !inside {
                    diags.push(z001(
                        dep.line,
                        format!(
                            "dependency `{}` path {:?} resolves outside crates/: only in-tree \
                             crates are hermetic",
                            dep.name,
                            dep.path.as_deref().unwrap_or("")
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_known() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(is_known_rule(r.id));
            assert!(!r.summary.is_empty() && !r.explain.is_empty());
            for other in &RULES[i + 1..] {
                assert_ne!(r.id, other.id);
            }
        }
        assert!(rule_by_id("A001").is_some());
        assert!(rule_by_id("Q999").is_none());
    }

    #[test]
    fn normalize_join_resolves_parent_components() {
        assert_eq!(
            normalize_join("crates/exec", "../telemetry").as_deref(),
            Some("crates/telemetry")
        );
        assert_eq!(
            normalize_join("", "crates/core").as_deref(),
            Some("crates/core")
        );
        assert_eq!(normalize_join("crates/exec", "../../../other"), None);
    }

    #[test]
    fn manifest_rule_flags_external_and_passes_in_tree() {
        let mut diags = Vec::new();
        check_manifest(
            "crates/x/Cargo.toml",
            "[dependencies]\nmm-json = { path = \"../json\" }\nserde = \"1.0\"\n",
            &mut diags,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("serde"));
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn manifest_rule_flags_paths_escaping_crates() {
        let mut diags = Vec::new();
        check_manifest(
            "crates/x/Cargo.toml",
            "[dependencies]\nvendored = { path = \"../../vendor/thing\" }\n",
            &mut diags,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }
}
