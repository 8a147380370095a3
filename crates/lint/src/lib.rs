#![forbid(unsafe_code)]
//! `cnp_lint` — repo-invariant static analysis for the CN-Probase
//! workspace.
//!
//! Six PRs established contracts that ordinary tests cannot keep holding
//! by themselves: the serving path never panics (PR 2/5/6), `cnp_runtime`
//! owns all concurrency and the pipeline is thread-count-deterministic
//! (PR 3), and every decoder caps allocations by remaining input (PR 4/6).
//! This crate turns those contracts into named, machine-checked rules —
//! a dependency-free Rust token scanner (no `syn`, nothing vendored, same
//! discipline as the hand-rolled HTTP and JSON layers) that runs over all
//! first-party `src/` trees and fails CI on any violation.
//!
//! The rules, their scopes and the suppression grammar are documented in
//! [`rules`] and the README's "Static analysis & invariants" section. Run
//! it locally with:
//!
//! ```text
//! cargo run -p cnp_lint            # text diagnostics, exit 1 on findings
//! cargo run -p cnp_lint -- --format json
//! cargo run -p cnp_lint -- --list-rules
//! ```

pub mod allow;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;

pub use diag::{to_json, Finding};
pub use rules::{check_file, RuleInfo, BUILTIN_ALLOWS, RULES};

use std::io;
use std::path::{Path, PathBuf};

/// The first-party source roots the scan covers, relative to the
/// workspace root. `vendor/` (third-party drop-ins), `target/`, tests,
/// benches and examples are deliberately outside: the invariants govern
/// shipped library and binary code.
pub const SCAN_ROOTS: &[&str] = &["src", "crates"];

/// Whether `rel` (forward-slash workspace-relative path) is part of the
/// scanned first-party surface.
fn scanned(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    // Root facade sources.
    if let Some(rest) = rel.strip_prefix("src/") {
        return !rest.is_empty();
    }
    // Crate sources: crates/<name>/src/**  (not tests/, benches/, …).
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((_, tail)) = rest.split_once('/') {
            return tail.starts_with("src/");
        }
    }
    false
}

/// Recursively collects every scanned `.rs` file under `root`, sorted for
/// deterministic output.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut rels: Vec<PathBuf> = files
        .into_iter()
        .filter(|p| {
            p.strip_prefix(root)
                .ok()
                .and_then(Path::to_str)
                .is_some_and(|rel| scanned(&rel.replace('\\', "/")))
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`. Returns sorted findings;
/// an empty vector means the repo upholds every codified invariant.
pub fn lint_root(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        findings.extend(check_file(&rel, &src));
    }
    findings.sort_by_key(Finding::sort_key);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_surface_is_src_trees_only() {
        assert!(scanned("src/lib.rs"));
        assert!(scanned("crates/serve/src/json.rs"));
        assert!(scanned("crates/server/src/bin/cnp_server.rs"));
        assert!(!scanned("crates/serve/tests/serve_equivalence.rs"));
        assert!(!scanned("crates/bench/benches/table2_api.rs"));
        assert!(!scanned("vendor/rand/src/lib.rs"));
        assert!(!scanned("examples/serve_http.rs"));
        assert!(!scanned("crates/lint/tests/fixtures/bad/unwrap.rs"));
        assert!(!scanned("crates/serve/src/notes.md"));
    }
}
