//! KD005: dependency hermeticity.
//!
//! The workspace builds fully offline, so every dependency in every
//! `Cargo.toml` must resolve inside the repository: either a `path`
//! dependency or a `workspace = true` reference whose root entry is itself
//! a path. Anything with a bare version requirement, git URL, or registry
//! source would require network access and is rejected.
//!
//! This is a line-oriented scan, not a full TOML parser: dependency tables
//! in this workspace are simple enough that tracking `[section]` headers
//! and checking each `key = value` line for `path =` / `workspace = true`
//! is exact in practice and keeps the checker std-only.

use crate::diag::Diagnostic;

/// True for bracketed section headers whose body lines are dependencies,
/// e.g. `[dependencies]`, `[workspace.dependencies]`,
/// `[target.'cfg(unix)'.dependencies]`.
fn is_dep_table(header: &str) -> bool {
    header == "dependencies"
        || header == "dev-dependencies"
        || header == "build-dependencies"
        || header == "workspace.dependencies"
        || (header.starts_with("target.") && header.ends_with(".dependencies"))
}

/// For dotted single-dependency sections like `[dev-dependencies.foo]`,
/// returns the dependency name.
fn dep_subtable_name(header: &str) -> Option<&str> {
    for prefix in
        ["dependencies.", "dev-dependencies.", "build-dependencies.", "workspace.dependencies."]
    {
        if let Some(name) = header.strip_prefix(prefix) {
            if !name.contains('.') {
                return Some(name);
            }
        }
    }
    None
}

/// True if a dependency spec line pins the source inside the workspace.
fn line_is_hermetic(line: &str) -> bool {
    line.contains("path =")
        || line.contains("path=")
        || line.contains("workspace = true")
        || line.contains("workspace=true")
}

fn violation(rel_path: &str, lineno: usize, name: &str) -> Diagnostic {
    Diagnostic::new(
        rel_path,
        lineno,
        "KD005",
        &format!(
            "external dependency `{name}`; the build is hermetic — only `path` or \
             `workspace = true` dependencies are allowed (vendor the crate and gate \
             it behind a feature instead)"
        ),
    )
}

/// Runs KD005 over one `Cargo.toml`.
pub fn check_manifest(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Current [section] context. For a dotted dependency subtable we defer
    // judgement until the section ends, since `workspace = true` may appear
    // on any body line.
    enum Mode {
        Other,
        DepTable,
        DepSub { header_line: usize, name: String, hermetic: bool },
    }
    let mut mode = Mode::Other;

    let flush = |mode: &mut Mode, out: &mut Vec<Diagnostic>| {
        if let Mode::DepSub { header_line, name, hermetic } = mode {
            if !*hermetic {
                out.push(violation(rel_path, *header_line, name));
            }
        }
    };

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            flush(&mut mode, &mut out);
            let header = header.trim();
            mode = if is_dep_table(header) {
                Mode::DepTable
            } else if let Some(name) = dep_subtable_name(header) {
                Mode::DepSub { header_line: lineno, name: name.to_string(), hermetic: false }
            } else {
                Mode::Other
            };
            continue;
        }
        match &mut mode {
            Mode::Other => {}
            Mode::DepTable => {
                if let Some(eq) = line.find('=') {
                    if !line_is_hermetic(line) {
                        out.push(violation(rel_path, lineno, line[..eq].trim()));
                    }
                }
            }
            Mode::DepSub { hermetic, .. } => {
                if line_is_hermetic(line) {
                    *hermetic = true;
                }
            }
        }
    }
    flush(&mut mode, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_workspace_deps_pass() {
        let toml = "[dependencies]\n\
                    kindle-types = { workspace = true }\n\
                    kindle-mem = { path = \"../mem\" }\n";
        assert!(check_manifest("crates/os/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn version_dep_is_flagged() {
        let toml = "[dependencies]\nbytes = \"1.0\"\n";
        let d = check_manifest("crates/os/Cargo.toml", toml);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "KD005");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("`bytes`"), "{}", d[0].message);
    }

    #[test]
    fn git_dep_in_dev_dependencies_is_flagged() {
        let toml = "[dev-dependencies]\nproptest = { git = \"https://x\" }\n";
        let d = check_manifest("crates/os/Cargo.toml", toml);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn dotted_subtable_with_workspace_passes() {
        let toml = "[dev-dependencies.kindle-mem]\nworkspace = true\n";
        assert!(check_manifest("crates/ssp/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn dotted_subtable_with_version_is_flagged() {
        let toml = "[dev-dependencies.quickcheck]\nversion = \"1.0\"\n";
        let d = check_manifest("crates/bench/Cargo.toml", toml);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("`quickcheck`"));
    }

    #[test]
    fn non_dep_sections_are_ignored() {
        let toml = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n\
                    [features]\nproptest = []\n\
                    [[example]]\nname = \"b\"\npath = \"b.rs\"\n";
        assert!(check_manifest("crates/types/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn workspace_dependencies_must_be_paths() {
        let toml = "[workspace.dependencies]\n\
                    kindle-types = { path = \"crates/types\" }\n\
                    rand = \"0.8\"\n";
        let d = check_manifest("Cargo.toml", toml);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }
}
