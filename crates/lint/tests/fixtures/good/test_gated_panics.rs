//@ path: crates/serve/src/wire.rs
//! Test-gated regions are out of scope for both rules: a test may size a
//! buffer by whatever it likes and walk a hash map in any order.

pub fn serving(n: usize, buf: &[u8]) -> Vec<u8> {
    Vec::with_capacity(n.min(buf.len()))
}

#[test]
fn a_bare_test_function() {
    let n = 1 << 20;
    assert!(Vec::<u8>::with_capacity(n).is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_fine_here() {
        let len = serving(3, &[0; 8]).capacity();
        let mut scratch = vec![0u8; len];
        scratch.reserve(len * 2);
    }
}
