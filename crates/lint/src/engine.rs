//! Workspace walking, per-file rule scoping, and the one entry point
//! that runs every rule.
//!
//! The driver scans every `.rs` file under `crates/` (the workspace's
//! own code; the `vendor/` tree holds offline stand-ins for external
//! crates and is not ours to police). Integration tests, benches,
//! examples, and lint fixtures are skipped — the panic and determinism
//! rules exist for the *flow*, and test code panics by design.

use crate::rules::{check_file, Diagnostic, FileScope};
use crate::workspace::Workspace;
use std::path::{Path, PathBuf};

/// Path prefixes (relative to the workspace root) holding flow code:
/// everything whose behaviour can reach placement, routing, or output
/// bytes. The legalizer lives in `crates/core`.
pub const FLOW_PATHS: &[&str] = &[
    "crates/core/src",
    "crates/router/src",
    "crates/grid/src",
    "crates/ilp/src",
    "crates/rsmt/src",
    // The daemon replays checkpoints bit-identically; its scheduler and
    // checkpoint codecs are flow code in the same sense as the engine.
    "crates/serve/src",
    // The global placer promises bit-identical output across thread
    // counts and resumable GP-iteration checkpoints — the full flow
    // determinism contract.
    "crates/gp/src",
];

/// Directory names that are never scanned.
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "fixtures", "tests", "benches", "examples",
];

/// Lints every workspace source file under `root`, returning all
/// diagnostics sorted by file and line.
///
/// # Errors
///
/// Returns an error when the workspace tree cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, std::io::Error> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();

    let mut sources = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }
    Ok(lint_sources(&sources))
}

/// Runs every rule over `sources`, given as `(workspace-relative path,
/// source text)` pairs scoped by [`scope_of`], and returns the
/// unsuppressed findings sorted by file then line.
#[must_use]
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let ws = Workspace::build(sources);
    let mut out = Vec::new();
    for file in &ws.files {
        check_file(file, &mut out);
    }
    crate::locks::check(&ws, &mut out);
    crate::dataflow::check(&ws, &mut out);
    crate::coverage::check(&ws, &mut out);
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    out
}

/// The rule scope of a workspace-relative path.
#[must_use]
pub fn scope_of(rel: &str) -> FileScope {
    FileScope {
        flow: FLOW_PATHS.iter().any(|p| rel.starts_with(p)),
        crate_root: rel.starts_with("crates/") && rel.ends_with("src/lib.rs"),
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes() {
        assert!(scope_of("crates/core/src/flow.rs").flow);
        assert!(scope_of("crates/rsmt/src/lib.rs").flow);
        assert!(scope_of("crates/rsmt/src/lib.rs").crate_root);
        assert!(!scope_of("crates/lefdef/src/def.rs").flow);
        assert!(scope_of("crates/lefdef/src/lib.rs").crate_root);
        assert!(!scope_of("crates/bench/src/flows.rs").flow);
        assert!(scope_of("crates/gp/src/placer.rs").flow);
        assert!(scope_of("crates/gp/src/legalize/abacus.rs").flow);
    }
}
