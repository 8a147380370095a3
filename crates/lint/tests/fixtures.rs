//! Golden-file tests over the fixture corpus.
//!
//! Every `tests/fixtures/{good,bad}/*.rs` file starts with a `//@ path:`
//! directive naming the workspace-relative path the file pretends to live
//! at (that path decides which rules apply). `good/` fixtures must lint
//! clean; each `bad/` fixture's diagnostics must match its `.expected`
//! sibling byte for byte. Regenerate the goldens after an intentional
//! diagnostic change with `CNP_LINT_BLESS=1 cargo test -p cnp_lint`.

use cnp_lint::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// Lints every fixture of one kind, honoring its `//@ path:` directive.
/// The directive line stays in the linted source so golden line numbers
/// match the file as committed.
fn lint_fixtures(kind: &str) -> Vec<(PathBuf, Vec<Finding>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let entries = fs::read_dir(dir.join(kind)).expect("fixture dir");
    let mut files: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    files.retain(|p| p.extension().is_some_and(|e| e == "rs"));
    files.sort();
    assert!(!files.is_empty(), "no {kind} fixtures found");
    let lint = |path: PathBuf| {
        let src = fs::read_to_string(&path).expect("read fixture");
        let directive = src.lines().next().and_then(|l| l.strip_prefix("//@ path:"));
        let rel = directive.unwrap_or_else(|| panic!("{path:?} must start with `//@ path: <rel>`"));
        let findings = cnp_lint::check_file(rel.trim(), &src);
        (path, findings)
    };
    files.into_iter().map(lint).collect()
}

fn render(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

#[test]
fn good_fixtures_lint_clean() {
    for (path, findings) in lint_fixtures("good") {
        let got = render(&findings);
        assert!(findings.is_empty(), "{path:?} should be clean, got:\n{got}");
    }
}

#[test]
fn bad_fixtures_match_goldens() {
    for (path, findings) in lint_fixtures("bad") {
        assert!(
            !findings.is_empty(),
            "{path:?} is a bad fixture but produced no findings"
        );
        let golden = path.with_extension("expected");
        if std::env::var_os("CNP_LINT_BLESS").is_some() {
            fs::write(&golden, render(&findings)).expect("bless golden");
        }
        let want = fs::read_to_string(&golden).unwrap_or_else(|_| {
            panic!("missing {golden:?} — run CNP_LINT_BLESS=1 cargo test -p cnp_lint")
        });
        assert_eq!(
            render(&findings),
            want,
            "diagnostics for {path:?} diverged from {golden:?}"
        );
    }
}

/// Between them the bad fixtures trigger every rule, meta rules included.
#[test]
fn bad_fixtures_cover_every_rule() {
    let findings = lint_fixtures("bad").into_iter().flat_map(|(_, f)| f);
    let seen: Vec<&str> = findings.map(|f| f.rule).collect();
    for rule in cnp_lint::RULES.iter().chain(&["bad-annotation"]) {
        assert!(seen.contains(rule), "no bad fixture triggers rule {rule}");
    }
}
