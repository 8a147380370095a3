//! The repo checks itself. `cargo test` is the one way `cnp_lint`'s rules
//! run, and the invariants that moved to the toolchain are only as good as
//! their configuration, so this also fails when a scope loses its
//! `#![deny(clippy::…)]` list or `clippy.toml` one of its paths. (That
//! clippy then *enforces* them is the `lint` CI job's `-D warnings`.)

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let root = root.expect("workspace root above crates/lint");
    assert!(
        root.join("crates").is_dir(),
        "{root:?} is not the workspace root"
    );
    root.to_path_buf()
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn the_workspace_upholds_its_own_invariants() {
    let findings = cnp_lint::lint_root(&root()).expect("scan workspace");
    let listing: String = findings.iter().map(|f| format!("{f}\n")).collect();
    assert!(
        findings.is_empty(),
        "the repo violates its own invariants:\n{listing}"
    );
}

/// The serving path never panics.
const NO_PANIC: &str =
    "unwrap_used expect_used panic unreachable todo unimplemented indexing_slicing";
/// Pipeline, tagger and freeze output never depends on hash order.
const HASH_ORDER: &str = "iter_over_hash_type";

/// Each scoped file and the lint lists denied at its head.
const SCOPES: &[(&str, &[&str])] = &[
    ("crates/serve/src/lib.rs", &[NO_PANIC]),
    ("crates/server/src/lib.rs", &[NO_PANIC]),
    ("crates/server/src/bin/cnp_server.rs", &[NO_PANIC]),
    ("crates/tag/src/lib.rs", &[NO_PANIC, HASH_ORDER]),
    // A tag request segments and gates through these.
    ("crates/text/src/segment.rs", &[NO_PANIC]),
    ("crates/text/src/dict.rs", &[NO_PANIC]),
    ("crates/text/src/trie.rs", &[NO_PANIC]),
    ("crates/text/src/hmm.rs", &[NO_PANIC]),
    ("crates/text/src/ner.rs", &[NO_PANIC]),
    ("crates/text/src/chars.rs", &[NO_PANIC]),
    ("crates/taxonomy/src/frozen.rs", &[NO_PANIC, HASH_ORDER]),
    ("crates/taxonomy/src/view.rs", &[NO_PANIC]),
    ("crates/taxonomy/src/read.rs", &[NO_PANIC]),
    ("crates/taxonomy/src/varint.rs", &[NO_PANIC]),
    ("crates/taxonomy/src/topo.rs", &[HASH_ORDER]),
    ("crates/core/src/lib.rs", &[HASH_ORDER]),
];

#[test]
fn every_scope_denies_its_lints_at_its_head() {
    for (file, lists) in SCOPES {
        // Inner attributes hold neither `;` nor `{` and every item holds
        // one, so the tokens before the first of those are the file's head
        // (comments and docs are not tokens).
        let toks = cnp_lint::lexer::lex(&read(file)).expect("lex").toks;
        let head = toks
            .iter()
            .take_while(|t| !t.is_punct(';') && !t.is_punct('{'));
        let head: String = head.map(|t| t.text.as_str()).collect();
        let denied = head
            .split("#![deny(")
            .nth(1)
            .and_then(|d| d.split(")]").next());
        let denied: Vec<&str> = denied.unwrap_or_default().split(',').collect();
        for lint in lists.iter().flat_map(|list| list.split(' ')) {
            let lint = format!("clippy::{lint}");
            assert!(
                denied.contains(&lint.as_str()),
                "{file} no longer denies {lint} at its head"
            );
        }
    }
}

#[test]
fn clippy_toml_names_every_disallowed_path() {
    let toml = read("clippy.toml");
    for path in [
        // cnp_runtime owns threads and locks.
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::new",
        "std::sync::Mutex::new",
        "std::sync::RwLock::new",
        "parking_lot::Mutex::new",
        "parking_lot::RwLock::new",
        // Nothing reads a clock unless a duration is the point.
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::process::exit",
    ] {
        assert!(
            toml.contains(&format!("path = \"{path}\"")),
            "clippy.toml lost {path}"
        );
    }
    // Tests may panic; every suppression anywhere says why.
    for key in ["unwrap", "expect", "panic", "indexing-slicing"] {
        assert!(
            toml.contains(&format!("allow-{key}-in-tests = true")),
            "clippy.toml lost {key}"
        );
    }
    let lints = read("Cargo.toml");
    assert!(lints.contains("allow_attributes_without_reason = \"deny\""));
}
