//! Self-check: mmlint must be clean on the workspace that ships it, and the
//! `--json` output must survive the strict in-tree parser.

use mm_json::{Json, ToJson};
use mm_lint::analyze_workspace;
use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn workspace_is_lint_clean() {
    let report = analyze_workspace(workspace_root(), false).expect("workspace walk");
    assert!(
        report.is_clean(),
        "the workspace must lint clean; diagnostics:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: a clean report because nothing was scanned would be vacuous.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
    assert!(
        report.manifests_scanned >= 13,
        "{} manifests",
        report.manifests_scanned
    );
}

#[test]
fn report_json_matches_binary_json_output() {
    let report = analyze_workspace(workspace_root(), false).expect("workspace walk");
    let out = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .arg("--root")
        .arg(workspace_root())
        .arg("--json")
        .output()
        .expect("run mmlint");
    assert!(
        out.status.success(),
        "mmlint --json exited {:?}",
        out.status.code()
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // The strict parser accepts the binary's bytes and they equal the
    // library's serialization of the same analysis.
    let parsed = Json::parse(text.trim()).expect("strict parse of --json output");
    assert_eq!(parsed, report.to_json());
    assert_eq!(parsed.get("version").and_then(Json::as_u64), Some(2));
    assert_eq!(parsed.get("errors").and_then(Json::as_u64), Some(0));
    let diags = parsed
        .get("diagnostics")
        .and_then(Json::as_array)
        .expect("diagnostics array");
    // Every diagnostic in a clean workspace is a justified suppression,
    // and each carries the full (rule, severity, file, line, suppressed)
    // tuple for `--json` consumers.
    assert!(!diags.is_empty(), "suppressed findings must stay visible");
    for d in diags {
        assert_eq!(d.get("suppressed").and_then(Json::as_bool), Some(true));
        assert!(d.get("rule").and_then(Json::as_str).is_some());
        assert!(d.get("severity").and_then(Json::as_str).is_some());
        assert!(d.get("file").and_then(Json::as_str).is_some());
        assert!(d.get("line").and_then(Json::as_u64).is_some());
        assert!(d.get("message").and_then(Json::as_str).is_some());
    }
}

#[test]
fn workspace_survives_the_strict_suppression_audit() {
    // Under --strict-suppress a stale mm-allow anywhere fails the gate;
    // the shipped workspace must have none.
    let report = analyze_workspace(workspace_root(), true).expect("workspace walk");
    assert!(
        report.is_clean(),
        "stale suppressions:\n{}",
        report
            .diagnostics
            .iter()
            .filter(|d| !d.suppressed)
            .map(|d| d.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn explain_and_list_cover_every_rule() {
    let list = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .arg("--list")
        .output()
        .expect("run mmlint --list");
    assert!(list.status.success());
    let listing = String::from_utf8(list.stdout).expect("utf-8");
    for rule in mm_lint::RULES {
        assert!(listing.contains(rule.id), "--list missing {}", rule.id);
        let explain = Command::new(env!("CARGO_BIN_EXE_mmlint"))
            .args(["--explain", rule.id])
            .output()
            .expect("run mmlint --explain");
        assert!(explain.status.success(), "--explain {} failed", rule.id);
        let text = String::from_utf8(explain.stdout).expect("utf-8");
        assert!(
            text.contains(rule.summary),
            "--explain {} missing summary",
            rule.id
        );
    }
    // Unknown rules are a usage error (exit 2).
    let bad = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .args(["--explain", "X999"])
        .output()
        .expect("run mmlint --explain X999");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn version_flag_prints_the_crate_version() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .arg("--version")
        .output()
        .expect("run mmlint --version");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        format!("mmlint {}", env!("CARGO_PKG_VERSION"))
    );
}

#[test]
fn nested_cargo_workspaces_are_not_linted() {
    // A package declaring its own `[workspace]` is not a member of the
    // linted workspace; a plain subdirectory still is.
    let root = std::env::temp_dir().join(format!("mmlint-nested-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let entropy = "pub fn rng() -> SmallRng {\n    SmallRng::from_entropy()\n}\n";
    let files = [
        ("Cargo.toml", "[workspace]\n"),
        (
            "nested/Cargo.toml",
            "[package]\nname = \"nested\"\n\n[workspace]\n",
        ),
        ("nested/src/lib.rs", entropy),
        ("plain/src/lib.rs", entropy),
    ];
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    let report = analyze_workspace(&root, false).expect("temp workspace walk");
    let _ = std::fs::remove_dir_all(&root);
    let found: Vec<(&str, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str()))
        .collect();
    assert_eq!(found, [("R001", "plain/src/lib.rs")]);
}

#[test]
fn root_found_from_a_workspace_package_table_alone() {
    // With no --root, mmlint walks up from the cwd to the first manifest
    // that declares a workspace — `[workspace.package]` counts, exactly
    // as it does for the walker's nested-workspace skip.
    let root = std::env::temp_dir().join(format!("mmlint-root-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).unwrap();
    std::fs::write(
        root.join("Cargo.toml"),
        "[package]\nname = \"solo\"\nversion.workspace = true\n\n\
         [workspace.package]\nversion = \"0.1.0\"\n",
    )
    .unwrap();
    std::fs::write(root.join("src/lib.rs"), "pub fn f() {}\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mmlint"))
        .current_dir(root.join("src"))
        .output()
        .expect("run mmlint");
    let _ = std::fs::remove_dir_all(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("mmlint: clean — 1 files + 1 manifests"),
        "{stdout}"
    );
}
