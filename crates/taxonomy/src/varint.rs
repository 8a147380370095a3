//! LEB128 varints and zigzag deltas — the primitives of the v3 snapshot
//! codec.
//!
//! The v3 format stores CSR columns as per-row delta streams: the first id
//! of a row is written raw, every later id as the zigzag-encoded signed
//! difference from its predecessor. Confidence-ranked hyponym rows and
//! sorted mention/ancestor rows have small deltas, so most entries shrink
//! from 4 bytes to 1.
//!
//! Every reader here is panic-free and bounds-checked: [`varint_at`]
//! returns `None` instead of reading past the slice, and rejects
//! encodings longer than [`MAX_VARINT_BYTES`], continuation bits that
//! would overflow `u64`, and overlong encodings (a final `0x00` after a
//! continuation byte), so each value has one encoding, [`put_varint`]'s.
//! Counts decoded through these helpers are *raw wire values* — any
//! pre-allocation they feed must be `.min()`-capped by the remaining
//! input (`tests/snapshot_corruption.rs` measures this).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use bytes::BufMut;

/// Longest legal encoding of a `u64` (10 × 7 payload bits ≥ 64).
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends `v` as a little-endian base-128 varint.
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Encoded byte length of `v`, without writing it.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Decodes the varint starting at `buf[pos]`.
///
/// Returns `(value, next_pos)`, or `None` when the slice ends inside the
/// varint, the encoding exceeds [`MAX_VARINT_BYTES`], a continuation
/// would overflow `u64`, or the encoding is overlong. Never panics.
#[inline]
pub fn varint_at(buf: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut p = pos;
    loop {
        let b = *buf.get(p)?;
        p += 1;
        let low = u64::from(b & 0x7F);
        // shift == 63 leaves exactly one payload bit of headroom.
        if shift > 63 || (shift == 63 && low > 1) {
            return None;
        }
        value |= low << shift;
        if b & 0x80 == 0 {
            // A final zero byte after a continuation adds no bits: the
            // value has a shorter encoding, the one `put_varint` writes.
            return (b != 0 || shift == 0).then_some((value, p));
        }
        shift += 7;
    }
}

/// Maps a signed delta onto the unsigned varint domain (0, -1, 1, -2 → 0,
/// 1, 2, 3): small magnitudes of either sign stay small on the wire.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn encode(v: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, v);
        buf.to_vec()
    }

    #[test]
    fn known_encodings() {
        assert_eq!(encode(0), [0x00]);
        assert_eq!(encode(1), [0x01]);
        assert_eq!(encode(127), [0x7F]);
        assert_eq!(encode(128), [0x80, 0x01]);
        assert_eq!(encode(300), [0xAC, 0x02]);
        assert_eq!(encode(u64::MAX).len(), MAX_VARINT_BYTES);
    }

    #[test]
    fn truncated_and_overlong_inputs_are_rejected() {
        // Ends inside a continuation.
        assert_eq!(varint_at(&[0x80], 0), None);
        assert_eq!(varint_at(&[], 0), None);
        assert_eq!(varint_at(&[0x00], 1), None);
        // 11 continuation bytes: longer than any legal u64 encoding.
        assert_eq!(varint_at(&[0x80; 11], 0), None);
        // Overlong: 0 and 127 in two and three bytes.
        assert_eq!(varint_at(&[0x80, 0x00], 0), None);
        assert_eq!(varint_at(&[0xFF, 0x80, 0x00], 0), None);
        // Tenth byte carrying more than the one remaining payload bit.
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        assert_eq!(varint_at(&overflow, 0), None);
        // ... while the max value itself decodes.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(varint_at(&max, 0), Some((u64::MAX, 10)));
    }

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(i64::MAX), u64::MAX - 1);
    }

    proptest! {
        #[test]
        fn roundtrip_u64(v in 0u64..=u64::MAX) {
            let bytes = encode(v);
            prop_assert_eq!(bytes.len(), varint_len(v));
            prop_assert_eq!(varint_at(&bytes, 0), Some((v, bytes.len())));
        }

        #[test]
        fn roundtrip_zigzag(v in i64::MIN..=i64::MAX) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        /// Decoding arbitrary bytes never panics and never reads past the
        /// slice.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=u8::MAX, 0..24), pos in 0usize..26) {
            if let Some((_, next)) = varint_at(&bytes, pos) {
                prop_assert!(next <= bytes.len());
                prop_assert!(next > pos);
            }
        }
    }
}
