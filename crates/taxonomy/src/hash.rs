//! Fast non-cryptographic hashing for internal maps.
//!
//! Symbol and string maps inside the store are hot (millions of inserts when
//! building a large taxonomy) and never face adversarial input, so we use an
//! FxHash-style multiply-rotate hasher instead of SipHash — the same
//! trade-off rustc makes (see the Rust Performance Book, “Hashing”). A set
//! whose keys all come from a snapshot may also be probed with request
//! strings (the tag index's concept names): a lookup never inserts, so
//! request strings cannot grow or skew the table, and a probe walks only
//! the collision chains the snapshot's own keys laid out.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: rotate, xor, multiply per word.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the fast hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_input() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"taxonomy");
        b.write(b"taxonomy");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_differ() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write("刘德华".as_bytes());
        b.write("张学友".as_bytes());
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_is_mixed_in_for_short_tails() {
        // "a" and "a\0" differ only by a trailing zero byte; the length tag
        // in the tail word must distinguish them.
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"a");
        b.write(b"a\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fx_map_works_with_cjk_keys() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("演员".to_string(), 1);
        m.insert("歌手".to_string(), 2);
        assert_eq!(m["演员"], 1);
        assert_eq!(m.len(), 2);
    }
}
