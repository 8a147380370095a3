//@ path: crates/taxonomy/src/frozen.rs
//! Real violations, each carried by a well-formed allow with a reason —
//! and every allow is used, so none is stale.

pub fn names(index: FxHashMap<String, u32>) -> Vec<String> {
    // cnp-lint: allow(determinism-contract) reason="sorted on the next line before any ordered use"
    let mut names: Vec<String> = index.keys().cloned().collect();
    names.sort_unstable();
    names
}
