//! Golden-fixture tests: every mmlint rule against its positive,
//! suppressed, and clean fixture under `tests/fixtures/`, plus scope/kind
//! exemptions.
//!
//! Fixture files are plain data — the directory is neither a cargo target
//! nor visited by the workspace walk, so the deliberate violations inside
//! never fail the self-check in `tests/workspace.rs`. The `d00*`, `e001_*`,
//! `a001_unsafe_*` and `expect_*` fixtures belong to the rules enforced by
//! clippy and rustc configuration; `scripts/verify.sh` runs clippy over them.

use mm_lint::{analyze_files, analyze_manifest_src, analyze_source, Diagnostic};

/// A Deterministic-scope library path (the strictest classification).
const DET_LIB: &str = "crates/core/src/fixture.rs";

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

fn assert_all(diags: &[Diagnostic], rule: &str, at_least: usize) {
    assert!(
        diags.len() >= at_least,
        "expected >= {at_least} {rule} diagnostics, got {:?}",
        rules_of(diags)
    );
    for d in diags {
        assert_eq!(d.rule, rule, "unexpected rule in {:?}", rules_of(diags));
        assert!(d.line > 0, "diagnostic must carry a line");
        assert!(!d.suppressed, "positive fixtures must fire unsuppressed");
    }
}

/// A suppressed fixture's contract: every finding is present but marked
/// `suppressed`, names `rule`, and no S-family audit finding appears —
/// i.e. the file never fails the gate yet stays visible to `--json`.
fn assert_fully_suppressed(diags: &[Diagnostic], rule: &str) {
    assert!(
        !diags.is_empty(),
        "the suppressed finding must stay visible"
    );
    for d in diags {
        assert_eq!(d.rule, rule, "unexpected rule in {:?}", rules_of(diags));
        assert!(d.suppressed, "{} must be marked suppressed", d.human());
    }
}

// ---------------------------------------------------------------- A001

#[test]
fn a001_fires_on_bare_relaxed() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/a001_positive.rs"));
    assert_all(&diags, "A001", 1);
}

#[test]
fn a001_leaves_unsafe_to_the_workspace_forbid() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/a001_unsafe_positive.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn a001_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/a001_suppressed.rs"));
    assert_fully_suppressed(&diags, "A001");
}

#[test]
fn a001_justification_comments_pass_even_wrapped() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/a001_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- R001

#[test]
fn r001_fires_on_entropy_and_literal_seeds() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r001_positive.rs"));
    assert_all(&diags, "R001", 2);
}

#[test]
fn r001_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r001_suppressed.rs"));
    assert_fully_suppressed(&diags, "R001");
}

#[test]
fn r001_clean_master_seed_derivation_passes() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r001_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn r001_exempts_the_rng_crate_itself() {
    let path = "crates/rng/src/fixture.rs";
    let diags = analyze_source(path, include_str!("fixtures/r001_positive.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- R002

#[test]
fn r002_fires_on_rng_crossing_a_scatter_closure() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r002_positive.rs"));
    assert_all(&diags, "R002", 1);
}

#[test]
fn r002_suppression_silences_with_reason() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r002_suppressed.rs"));
    assert_fully_suppressed(&diags, "R002");
}

#[test]
fn r002_clean_per_task_derivation_passes() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/r002_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// --------------------------------------------- graph-rule fixtures
// R003/F001/P001/P002 need the workspace pass: in-memory files through
// `analyze_files` (no manifests, so call resolution is global).

/// A binary entry point that reaches `root_call` — the P-rule root.
fn entry(root_call: &str) -> (String, String) {
    (
        "crates/experiments/src/bin/mmx.rs".to_string(),
        format!("fn main() {{ {root_call}; }}\n"),
    )
}

/// A Deterministic-scope library path in netsim for graph fixtures.
const GRAPH_LIB: &str = "crates/netsim/src/fixture.rs";

// ---------------------------------------------------------------- R003

#[test]
fn r003_fires_on_duplicate_labels_across_files_and_spellings() {
    let diags = analyze_files(
        &[
            (
                "crates/netsim/src/a.rs",
                include_str!("fixtures/r003_positive_a.rs"),
            ),
            (
                "crates/netsim/src/b.rs",
                include_str!("fixtures/r003_positive_b.rs"),
            ),
        ],
        false,
    );
    // `0x5e5e` in one file and `24158` in the other normalize to the same
    // label; both sites are reported.
    assert_all(&diags, "R003", 2);
    let files: Vec<&str> = diags.iter().map(|d| d.file.as_str()).collect();
    assert_eq!(files, ["crates/netsim/src/a.rs", "crates/netsim/src/b.rs"]);
}

#[test]
fn r003_suppression_silences_with_reason() {
    let diags = analyze_files(
        &[(GRAPH_LIB, include_str!("fixtures/r003_suppressed.rs"))],
        false,
    );
    assert_fully_suppressed(&diags, "R003");
}

#[test]
fn r003_clean_distinct_labels_pass() {
    let diags = analyze_files(
        &[(GRAPH_LIB, include_str!("fixtures/r003_clean.rs"))],
        false,
    );
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn r003_same_label_in_different_crates_is_fine() {
    let diags = analyze_files(
        &[
            (
                "crates/netsim/src/a.rs",
                include_str!("fixtures/r003_positive_a.rs"),
            ),
            (
                "crates/mmlab/src/b.rs",
                include_str!("fixtures/r003_positive_b.rs"),
            ),
        ],
        false,
    );
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- F001

#[test]
fn f001_fires_on_reductions_reachable_from_scatter() {
    let diags = analyze_files(
        &[(GRAPH_LIB, include_str!("fixtures/f001_positive.rs"))],
        false,
    );
    assert_all(&diags, "F001", 1);
}

#[test]
fn f001_suppression_silences_with_reason() {
    let diags = analyze_files(
        &[(GRAPH_LIB, include_str!("fixtures/f001_suppressed.rs"))],
        false,
    );
    assert_fully_suppressed(&diags, "F001");
}

#[test]
fn f001_clean_kernel_routed_reduction_passes() {
    let diags = analyze_files(
        &[(GRAPH_LIB, include_str!("fixtures/f001_clean.rs"))],
        false,
    );
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- P001

#[test]
fn p001_fires_on_panics_reachable_from_a_binary() {
    let (epath, esrc) = entry("decode(0)");
    let diags = analyze_files(
        &[
            (epath.as_str(), esrc.as_str()),
            (GRAPH_LIB, include_str!("fixtures/p001_positive.rs")),
        ],
        false,
    );
    assert_all(&diags, "P001", 1);
}

#[test]
fn p001_without_an_entry_point_stays_quiet() {
    let diags = analyze_files(
        &[(GRAPH_LIB, include_str!("fixtures/p001_positive.rs"))],
        false,
    );
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn p001_suppression_silences_with_reason() {
    let (epath, esrc) = entry("decode(0)");
    let diags = analyze_files(
        &[
            (epath.as_str(), esrc.as_str()),
            (GRAPH_LIB, include_str!("fixtures/p001_suppressed.rs")),
        ],
        false,
    );
    assert_fully_suppressed(&diags, "P001");
}

#[test]
fn p001_clean_option_return_passes() {
    let (epath, esrc) = entry("decode(0)");
    let diags = analyze_files(
        &[
            (epath.as_str(), esrc.as_str()),
            (GRAPH_LIB, include_str!("fixtures/p001_clean.rs")),
        ],
        false,
    );
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- P002

#[test]
fn p002_fires_on_cast_indexing_reachable_from_a_binary() {
    let (epath, esrc) = entry("count_for(&[], 0)");
    let diags = analyze_files(
        &[
            (epath.as_str(), esrc.as_str()),
            (GRAPH_LIB, include_str!("fixtures/p002_positive.rs")),
        ],
        false,
    );
    assert_all(&diags, "P002", 1);
}

#[test]
fn p002_suppression_silences_with_reason() {
    let (epath, esrc) = entry("count_for(&[], 0)");
    let diags = analyze_files(
        &[
            (epath.as_str(), esrc.as_str()),
            (GRAPH_LIB, include_str!("fixtures/p002_suppressed.rs")),
        ],
        false,
    );
    assert_fully_suppressed(&diags, "P002");
}

#[test]
fn p002_clean_checked_lookup_passes() {
    let (epath, esrc) = entry("count_for(&[], 0)");
    let diags = analyze_files(
        &[
            (epath.as_str(), esrc.as_str()),
            (GRAPH_LIB, include_str!("fixtures/p002_clean.rs")),
        ],
        false,
    );
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

// ---------------------------------------------------------------- S001

#[test]
fn s001_fires_on_malformed_and_unused_suppressions() {
    let diags = analyze_source(DET_LIB, include_str!("fixtures/s001_positive.rs"));
    // Unknown rule, missing reason, and an unused (stale) suppression.
    assert_all(&diags, "S001", 3);
}

// ---------------------------------------------------------------- Z001

#[test]
fn z001_fires_on_external_deps_and_build_machinery() {
    let diags = analyze_manifest_src(
        "crates/offender/Cargo.toml",
        include_str!("fixtures/z001_positive.toml"),
    );
    // serde, rand, cc, the [build-dependencies] section, package.build.
    assert_all(&diags, "Z001", 5);
}

#[test]
fn z001_clean_path_and_workspace_deps_pass() {
    let diags = analyze_manifest_src(
        "crates/hermetic/Cargo.toml",
        include_str!("fixtures/z001_clean.toml"),
    );
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}
