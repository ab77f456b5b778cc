//! A minimal `Cargo.toml` reader — just enough structure for Z001.
//!
//! The workspace's manifests use a narrow, regular TOML subset: `[section]`
//! headers and `key = value` lines where a dependency value is either an
//! inline table (`{ path = "...", ... }`), a `workspace = true` marker
//! (spelled inline or as `name.workspace = true`), or — what Z001 exists to
//! reject — a registry version requirement. Parsing that subset line by
//! line is deliberate: a full TOML parser would be a dependency, and Z001's
//! job is to keep dependencies out.

/// Which kind of requirement one dependency entry expresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepSource {
    /// `{ path = "..." }` — an in-tree crate.
    Path,
    /// `name.workspace = true` / `{ workspace = true }` — resolved through
    /// `[workspace.dependencies]`, which Z001 checks separately.
    Workspace,
    /// Anything else (`"1.0"`, `{ version = "..." }`, `{ git = "..." }`):
    /// an external requirement.
    External,
}

/// One dependency entry as written in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEntry {
    /// Dependency name (left-hand side, `.workspace` suffix stripped).
    pub name: String,
    /// 1-based line of the entry.
    pub line: u32,
    /// Where the dependency comes from.
    pub source: DepSource,
    /// The `path = "..."` value when present.
    pub path: Option<String>,
    /// The `[section]` the entry appeared in.
    pub section: String,
}

/// The parts of a manifest the lints look at.
#[derive(Debug, Default)]
pub struct Manifest {
    /// Every dependency entry across all `*dependencies*` sections.
    pub deps: Vec<DepEntry>,
    /// Lines of `[build-dependencies]`-style section headers.
    pub build_dep_sections: Vec<u32>,
    /// `package.build = "..."` override, with its line.
    pub build_script: Option<(String, u32)>,
}

/// Does this `[section]` name collect dependency entries?
fn is_dep_section(name: &str) -> bool {
    name == "dependencies"
        || name == "dev-dependencies"
        || name == "build-dependencies"
        || name == "workspace.dependencies"
        || name.ends_with(".dependencies")
        || name.ends_with(".dev-dependencies")
        || name.ends_with(".build-dependencies")
}

/// Parse the manifest subset. Never fails: unrecognized lines are skipped,
/// which is safe because Z001 only needs dependency-shaped lines.
pub fn parse(src: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim().to_string();
            if section == "build-dependencies" || section.ends_with(".build-dependencies") {
                m.build_dep_sections.push(line_no);
            }
            continue;
        }
        let Some((key_part, value_part)) = line.split_once('=') else {
            continue;
        };
        let key = key_part.trim();
        let value = value_part.trim();
        if section == "package" && key == "build" {
            m.build_script = Some((unquote(value), line_no));
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        // `name.workspace = true` spelling.
        if let Some(name) = key.strip_suffix(".workspace") {
            m.deps.push(DepEntry {
                name: name.trim().to_string(),
                line: line_no,
                source: DepSource::Workspace,
                path: None,
                section: section.clone(),
            });
            continue;
        }
        let (source, path) = classify_value(value);
        m.deps.push(DepEntry {
            name: key.to_string(),
            line: line_no,
            source,
            path,
            section: section.clone(),
        });
    }
    m
}

/// Does the manifest declare a `[workspace]` table (or one of its
/// `[workspace.*]` subtables)? Such a package roots a workspace of its own.
pub fn declares_workspace(src: &str) -> bool {
    src.lines().any(|raw| {
        let line = raw.trim();
        line == "[workspace]" || line.starts_with("[workspace.")
    })
}

/// Classify a dependency right-hand side.
fn classify_value(value: &str) -> (DepSource, Option<String>) {
    if value.starts_with('{') {
        let body = value.trim_start_matches('{').trim_end_matches('}');
        let mut path = None;
        let mut is_workspace = false;
        for field in body.split(',') {
            let Some((k, v)) = field.split_once('=') else {
                continue;
            };
            match k.trim() {
                "path" => path = Some(unquote(v.trim())),
                "workspace" if v.trim() == "true" => is_workspace = true,
                _ => {}
            }
        }
        if let Some(p) = path {
            (DepSource::Path, Some(p))
        } else if is_workspace {
            (DepSource::Workspace, None)
        } else {
            (DepSource::External, None)
        }
    } else {
        // Bare string: a registry version requirement.
        (DepSource::External, None)
    }
}

/// Strip surrounding quotes from a TOML string value.
fn unquote(s: &str) -> String {
    s.trim().trim_matches('"').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_path_workspace_and_external() {
        let m = parse(
            "[package]\nname = \"x\"\n\n[dependencies]\n\
             mm-json = { path = \"../json\" }\n\
             mmcore.workspace = true\n\
             serde = \"1.0\"\n\
             rand = { version = \"0.8\" }\n",
        );
        assert_eq!(m.deps.len(), 4);
        assert_eq!(m.deps[0].source, DepSource::Path);
        assert_eq!(m.deps[0].path.as_deref(), Some("../json"));
        assert_eq!(m.deps[1].source, DepSource::Workspace);
        assert_eq!(m.deps[2].source, DepSource::External);
        assert_eq!(m.deps[3].source, DepSource::External);
        assert_eq!(m.deps[2].line, 7);
    }

    #[test]
    fn build_dependency_sections_are_recorded() {
        let m = parse("[build-dependencies]\ncc = \"1.0\"\n");
        assert_eq!(m.build_dep_sections, vec![1]);
        assert_eq!(m.deps.len(), 1);
        assert_eq!(m.deps[0].section, "build-dependencies");
    }

    #[test]
    fn package_build_override_is_seen() {
        let m = parse("[package]\nbuild = \"gen.rs\"\n");
        assert_eq!(m.build_script, Some(("gen.rs".to_string(), 2)));
    }

    #[test]
    fn workspace_dependencies_section_is_a_dep_section() {
        let m = parse("[workspace.dependencies]\nmmcore = { path = \"crates/core\" }\n");
        assert_eq!(m.deps.len(), 1);
        assert_eq!(m.deps[0].source, DepSource::Path);
    }

    #[test]
    fn comments_and_noise_are_ignored() {
        let m = parse("# comment\n[dependencies]\n# another\nmm-rng = { path = \"../rng\" }\n");
        assert_eq!(m.deps.len(), 1);
    }
}
