//@ path: crates/serve/src/wire.rs
//! Every way a suppression annotation can go wrong.

pub fn f(n: usize) -> Vec<Vec<u8>> {
    // A reason is mandatory:
    let a = Vec::with_capacity(n); // cnp-lint: allow(capped-decode)
    // The reason must be non-empty:
    let b = Vec::with_capacity(n); // cnp-lint: allow(capped-decode) reason=""
    // The rule must exist (the four the toolchain took over no longer do):
    let c = Vec::with_capacity(n); // cnp-lint: allow(no-panic-serving-path) reason="now clippy's"
    // cnp-lint: allow(capped-decode) reason="stale: suppresses nothing here"
    vec![a, b, c]
}
