#![forbid(unsafe_code)]
//! `cnp_lint` — the repo invariants no compiler lint can hold.
//!
//! The workspace keeps its contracts where the toolchain reads them:
//! clippy lints denied at crate roots and file heads (the serving path
//! never panics; no `for` over a hash container in deterministic code),
//! `clippy.toml`'s `disallowed-methods` (`cnp_runtime` owns threads and
//! locks; nothing reads a clock), rustc visibility (overlay op logs stay
//! inside `cnp_taxonomy`), with `#[expect(…, reason = "…")]` for the
//! exceptions. README "Static analysis & invariants" has the table.
//!
//! What is left for this crate is what has no lint: [`rules`] holds
//! `capped-decode` and the method-chain half of `determinism-contract`,
//! enforced by a dependency-free token scanner ([`lexer`], [`scope`],
//! [`allow`]) over all first-party `src/` trees. There is one way to run
//! it, `cargo test -p cnp_lint` (so plain `cargo test` does):
//! `tests/self_check.rs` scans the workspace and also fails if a scope
//! loses its `#![deny(clippy::…)]` list or `clippy.toml` a path.

pub mod allow;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;

pub use diag::Finding;
pub use rules::{check_file, RULES};

use std::io;
use std::path::{Path, PathBuf};

/// Whether `rel` (forward-slash workspace-relative path) is part of the
/// scanned first-party surface: the root facade's `src/` and every
/// `crates/<name>/src/`. `vendor/` (third-party drop-ins), `target/`,
/// tests, benches and examples are deliberately outside: the invariants
/// govern shipped library and binary code.
fn scanned(rel: &str) -> bool {
    let in_src = |tail: &str| tail.starts_with("src/") && tail.ends_with(".rs");
    let member = rel.strip_prefix("crates/").and_then(|r| r.split_once('/'));
    in_src(rel) || member.is_some_and(|(_, tail)| in_src(tail))
}

/// Every file under `dir`, recursively, in sorted order.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let entries = std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path()));
    let mut entries = entries.collect::<io::Result<Vec<PathBuf>>>()?;
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
/// an empty vector means the repo upholds both rules.
pub fn lint_root(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    walk(&root.join("src"), &mut files)?;
    walk(&root.join("crates"), &mut files)?;
    let mut findings = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        if scanned(&rel) {
            findings.extend(check_file(&rel, &std::fs::read_to_string(&path)?));
        }
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
