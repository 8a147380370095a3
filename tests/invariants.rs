//! The configuration the toolchain enforces the repo's invariants from:
//! clippy denies the no-panic and hash-order lints only where a scope's
//! head asks, and bans threads, locks and clocks only by the paths
//! `clippy.toml` names; rustc forbids `unsafe` only where a crate root
//! says so. These tests fail when a head or a path goes missing.

use std::path::Path;

fn read(path: impl AsRef<Path>) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// The inner attributes at the head of a file, one string per attribute
/// with its lines trimmed and joined: everything before the first line
/// that is neither a `//` comment, a blank nor part of a `#![…]`.
fn head_attributes(src: &str) -> Vec<String> {
    let mut attrs: Vec<String> = Vec::new();
    let mut open = false;
    for line in src.lines().map(str::trim) {
        match attrs.last_mut() {
            Some(attr) if open => attr.push_str(line),
            _ if line.starts_with("#![") => attrs.push(line.to_string()),
            _ if line.is_empty() || line.starts_with("//") => continue,
            _ => break,
        }
        open = !line.ends_with(']');
    }
    attrs
}

/// The lints a file's head sets to `level` (`deny`, `forbid`).
fn head_lints(path: impl AsRef<Path>, level: &str) -> Vec<String> {
    let prefix = format!("#![{level}(");
    let lists = head_attributes(&read(path)).into_iter().filter_map(|attr| {
        let list = attr.strip_prefix(&prefix)?.strip_suffix(")]")?;
        Some(list.split(',').map(str::to_string).collect::<Vec<_>>())
    });
    lists.flatten().filter(|lint| !lint.is_empty()).collect()
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
    ("crates/taxonomy/src/interner.rs", &[NO_PANIC]),
    ("crates/taxonomy/src/view.rs", &[NO_PANIC]),
    ("crates/taxonomy/src/read.rs", &[NO_PANIC]),
    ("crates/taxonomy/src/varint.rs", &[NO_PANIC]),
    ("crates/taxonomy/src/topo.rs", &[HASH_ORDER]),
    ("crates/core/src/lib.rs", &[HASH_ORDER]),
];

#[test]
fn every_scope_denies_its_lints_at_its_head() {
    for (file, lists) in SCOPES {
        let denied = head_lints(file, "deny");
        for lint in lists.iter().flat_map(|list| list.split(' ')) {
            let lint = format!("clippy::{lint}");
            assert!(
                denied.contains(&lint),
                "{file} no longer denies {lint} at its head"
            );
        }
    }
}

/// README's claim, checked: the workspace's one `unsafe` is the counting
/// allocator in `tests/snapshot_corruption.rs`.
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut roots = vec![crates.with_file_name("src/lib.rs")];
    for krate in std::fs::read_dir(&crates).expect("crates/") {
        let krate = krate.expect("crate dir").path();
        let bins = std::fs::read_dir(krate.join("src/bin"))
            .into_iter()
            .flatten();
        roots.extend(bins.map(|bin| bin.expect("bin").path()));
        roots.push(krate.join("src/lib.rs"));
    }
    // The facade, ten crates and `cnp_server`'s binary at least.
    assert!(roots.len() >= 12, "found only {roots:?}");
    for root in &roots {
        let forbidden = head_lints(root, "forbid");
        assert!(
            forbidden.iter().any(|l| l == "unsafe_code"),
            "{root:?} allows unsafe code"
        );
    }
}

/// `cnp_runtime` owns threads and locks, nothing reads a clock unless a
/// duration is the point, tests may panic, and every suppression says why.
#[test]
fn clippy_toml_names_every_disallowed_path() {
    let toml = read("clippy.toml");
    let paths = [
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::new",
        "std::sync::Mutex::new",
        "std::sync::RwLock::new",
        "parking_lot::Mutex::new",
        "parking_lot::RwLock::new",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::process::exit",
    ];
    for path in paths.map(|path| format!("path = \"{path}\"")) {
        assert!(toml.contains(&path), "clippy.toml lost {path}");
    }
    for key in ["unwrap", "expect", "panic", "indexing-slicing"] {
        let key = format!("allow-{key}-in-tests = true");
        assert!(toml.contains(&key), "clippy.toml lost {key}");
    }
    let lints = read("Cargo.toml");
    assert!(lints.contains("allow_attributes_without_reason = \"deny\""));
}

/// Every `.rs` file under `dir`, subdirectories included.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The server reads request bodies with `wire::read_query`,
/// `read_tag_query` and `read_batch`: no `Json` tree on the request path.
#[test]
fn the_server_builds_no_json_tree_from_a_request() {
    let mut files = Vec::new();
    rust_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/server/src"),
        &mut files,
    );
    assert!(files.len() >= 5, "found only {files:?}");
    for file in &files {
        let src = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        for name in ["Json::parse", "decode_query", "decode_tag_query"] {
            assert!(!src.contains(name), "{file:?} names {name}");
        }
    }
}
