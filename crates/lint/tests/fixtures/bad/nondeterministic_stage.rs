//@ path: crates/core/src/generation/sample.rs
//! Hash-order iteration by method chain in a pipeline stage — the half of
//! the determinism contract `clippy::iter_over_hash_type` does not see
//! (it reports the `for` loop below; this scanner leaves that one to it).

use std::collections::{HashMap, HashSet};

pub fn stage(items: &[(String, u32)]) -> Vec<String> {
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for (name, n) in items {
        *counts.entry(name.as_str()).or_insert(0) += n;
    }
    let mut out = Vec::new();
    for (name, _) in &counts {
        out.push(name.to_string());
    }
    counts.keys().for_each(|name| out.push(name.to_string()));
    let mut seen = HashSet::new();
    seen.insert(out.len());
    out.extend(seen.drain().map(|n| n.to_string()));
    out.extend(counts.into_iter().map(|(name, _)| name.to_string()));
    out
}
