//! String interning.
//!
//! A taxonomy at CN-Probase scale stores tens of millions of strings, most
//! of them repeated (concept names appear once per hyponym edge). Interning
//! maps each distinct string to a 4-byte [`Symbol`]; edges then store
//! symbols, and equality is an integer compare.
//!
//! Each string is held once. Its bytes go at the end of one text arena, a
//! `u32` end offset per symbol says where it stops, and lookup goes
//! through an open-addressing table of symbols over that arena (linear
//! probing on the high bits of the string's Fx hash, at most two thirds
//! full). A string costs its bytes, 4 B of offset and 6–12 B of table:
//! the taxonomy's names are short (≈ 11 B), so a map owning its keys
//! beside a list of them, two allocations and a map entry a string, would
//! cost several times the text itself.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::hash::FxHasher;
use std::hash::Hasher;

/// Interned string handle. `Symbol(0)` is the empty string in any interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Index form, for direct table addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An empty table slot; an occupied one holds `symbol + 1`.
const EMPTY: u32 = 0;

/// Append-only string interner: symbols are dense and in insertion order.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Every string's bytes, back to back, in symbol order.
    text: String,
    /// `ends[i]..ends[i + 1]` is symbol `i`'s range of `text`; starts at 0.
    ends: Vec<u32>,
    /// Open-addressing table, a power of two long, at most two thirds full.
    slots: Vec<u32>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

fn hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// Table length for `strings` symbols: the smallest power of two they
/// fill at most two thirds of.
fn table_len(strings: usize) -> usize {
    (strings.saturating_mul(3) / 2 + 1).next_power_of_two()
}

impl Interner {
    /// Creates an interner whose `Symbol(0)` is the empty string.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An interner with room for `strings` symbols (the empty string
    /// included) and `text_bytes` bytes of text before it reallocates.
    pub(crate) fn with_capacity(strings: usize, text_bytes: usize) -> Self {
        let mut ends = Vec::with_capacity(strings.max(1) + 1);
        ends.push(0);
        let mut i = Interner {
            text: String::with_capacity(text_bytes),
            ends,
            slots: vec![EMPTY; table_len(strings.max(1))],
        };
        i.intern("");
        i
    }

    /// Interns `s`, returning its stable symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let slot = match self.probe(s) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let sym = Symbol(self.len() as u32);
        self.text.push_str(s);
        #[expect(
            clippy::expect_used,
            reason = "build-time growth path: a taxonomy past 4 GiB of distinct text is a build bug worth aborting on"
        )]
        let end = u32::try_from(self.text.len()).expect("interner overflow");
        self.ends.push(end);
        if let Some(free) = self.slots.get_mut(slot) {
            *free = sym.0 + 1;
        }
        if self.len() * 3 > self.slots.len() * 2 {
            self.rehash(self.slots.len() * 2);
        }
        sym
    }

    /// Looks up an already-interned string.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.probe(s).ok()
    }

    /// Resolves a symbol back to its string; `""` for a symbol this
    /// interner never handed out.
    pub fn resolve(&self, sym: Symbol) -> &str {
        match self.ends.get(sym.index()..) {
            Some(&[start, end, ..]) => self.text.get(start as usize..end as usize).unwrap_or(""),
            _ => "",
        }
    }

    /// Number of interned strings (including the empty string).
    pub fn len(&self) -> usize {
        self.ends.len() - 1
    }

    /// Always false: the empty string is pre-interned.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Every string's bytes, back to back in symbol order: the text the
    /// snapshot's string table stores.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    /// Iterates `(symbol, string)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.len() as u32).map(|i| (Symbol(i), self.resolve(Symbol(i))))
    }

    /// `s`'s symbol, or the empty slot where it would go. The table is
    /// never full, so the walk always ends.
    fn probe(&self, s: &str) -> Result<Symbol, usize> {
        let mask = self.slots.len() - 1;
        let mut at = home(hash(s), self.slots.len());
        loop {
            match self.slots.get(at) {
                Some(&EMPTY) | None => return Err(at),
                Some(&held) if self.resolve(Symbol(held - 1)) == s => return Ok(Symbol(held - 1)),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    /// Rebuilds the table at `len` slots (a power of two), freeing the old
    /// one first: every key is in the arena.
    fn rehash(&mut self, len: usize) {
        self.slots = Vec::new();
        let mut slots = vec![EMPTY; len];
        let mask = len - 1;
        for sym in 0..self.len() as u32 {
            let mut at = home(hash(self.resolve(Symbol(sym))), len);
            while let Some(held) = slots.get_mut(at) {
                if *held == EMPTY {
                    *held = sym + 1;
                    break;
                }
                at = (at + 1) & mask;
            }
        }
        self.slots = slots;
    }
}

/// First slot of `hash`'s probe sequence in a table of `len` slots: its
/// high bits, which the hash's final multiply mixes from every input byte.
fn home(hash: u64, len: usize) -> usize {
    (((hash >> 32) * len as u64) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("演员");
        let b = i.intern("演员");
        assert_eq!(a, b);
        assert_eq!(i.resolve(a), "演员");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("演员");
        let b = i.intern("歌手");
        assert_ne!(a, b);
    }

    #[test]
    fn symbol_zero_is_empty_string() {
        let mut i = Interner::new();
        assert_eq!(i.intern(""), Symbol(0));
        assert_eq!(i.resolve(Symbol(0)), "");
    }

    #[test]
    fn get_without_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("无"), None);
        let s = i.intern("无");
        assert_eq!(i.get("无"), Some(s));
    }

    #[test]
    fn foreign_symbols_resolve_empty() {
        let mut i = Interner::new();
        let s = i.intern("演员");
        assert_eq!(i.resolve(Symbol(s.0 + 1)), "");
        assert_eq!(i.resolve(Symbol(u32::MAX)), "");
    }

    #[test]
    fn reserved_and_grown_interners_agree() {
        let words: Vec<String> = (0..300).map(|n| format!("概念{n}")).collect();
        let mut grown = Interner::new();
        let mut reserved =
            Interner::with_capacity(words.len(), words.iter().map(String::len).sum());
        for w in &words {
            assert_eq!(grown.intern(w), reserved.intern(w));
        }
        assert!(grown.iter().eq(reserved.iter()));
    }

    proptest! {
        /// resolve(intern(s)) == s for arbitrary strings; symbols are stable
        /// across later inserts.
        #[test]
        fn roundtrip(strings in proptest::collection::vec("[一-龥a-zA-Z0-9（）]{0,8}", 1..40)) {
            let mut i = Interner::new();
            let syms: Vec<Symbol> = strings.iter().map(|s| i.intern(s)).collect();
            for (s, sym) in strings.iter().zip(&syms) {
                prop_assert_eq!(i.resolve(*sym), s.as_str());
            }
            // Interning everything again must yield identical symbols.
            for (s, sym) in strings.iter().zip(&syms) {
                prop_assert_eq!(i.intern(s), *sym);
            }
        }

        /// Against a map + list model, over enough inserts to grow the
        /// table several times: a four-letter alphabet gives repeats,
        /// shared prefixes and the empty string; `get` and `resolve` ask
        /// about absent strings and symbols too.
        #[test]
        fn matches_a_map_model(
            ops in proptest::collection::vec((0u8..4, "[ab一二]{0,6}", 0u32..600), 1..600),
        ) {
            let mut i = Interner::new();
            let mut ids: HashMap<String, Symbol> = HashMap::from([(String::new(), Symbol(0))]);
            let mut strings = vec![String::new()];
            for (kind, s, n) in &ops {
                match kind {
                    0 | 1 => {
                        let want = *ids.entry(s.clone()).or_insert_with(|| {
                            strings.push(s.clone());
                            Symbol(strings.len() as u32 - 1)
                        });
                        prop_assert_eq!(i.intern(s), want);
                    }
                    2 => prop_assert_eq!(i.get(s), ids.get(s).copied()),
                    _ => prop_assert_eq!(
                        i.resolve(Symbol(*n)),
                        strings.get(*n as usize).map_or("", String::as_str)
                    ),
                }
            }
            prop_assert_eq!(i.len(), strings.len());
            let listed: Vec<(Symbol, &str)> = i.iter().collect();
            let model: Vec<(Symbol, &str)> = strings
                .iter()
                .enumerate()
                .map(|(n, s)| (Symbol(n as u32), s.as_str()))
                .collect();
            prop_assert_eq!(listed, model);
        }
    }
}
