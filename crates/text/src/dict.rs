//! Word dictionary: frequencies + part-of-speech tags, indexed by a trie.
//!
//! The trie keeps every node in one arena, each with its value inline and
//! its children sorted by character. The segmenter's DAG walks it once per
//! start position through `for_each_match`, a visitor that allocates
//! nothing. A dictionary costs ≈ 40 B per trie node plus 8 B per child
//! edge; a `TagIndex` over the 20k-page snapshot's 12 493 seeded names
//! holds 1.01 MB, 81 B a seeded word.
//!
//! The segmenter scores a segmentation by the sum of word log-probabilities,
//! exactly like jieba's `calc` routine. Frequencies can come from the
//! embedded base lexicon, from corpus counts (the CN-Probase pipeline
//! bootstraps its dictionary from the encyclopedia corpus itself), or both.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::pos::PosTag;
use crate::trie::Trie;

/// Dictionary entry: corpus frequency and a coarse part-of-speech tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordInfo {
    /// Raw corpus frequency (≥ 1 for any stored word).
    pub freq: u64,
    /// Coarse part-of-speech tag.
    pub pos: PosTag,
}

/// A frequency dictionary over Chinese words.
#[derive(Debug, Clone)]
pub struct Dictionary {
    trie: Trie<WordInfo>,
    total: u64,
    log_total: f64,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::new()
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary {
            trie: Trie::new(),
            total: 0,
            log_total: 0.0,
        }
    }

    /// Builds the embedded base dictionary: lexicon words, function words,
    /// measure words and common verbs with hand-assigned frequencies.
    ///
    /// This provides segmentation coverage for generic Chinese before any
    /// corpus statistics are available; pipelines then call
    /// [`Dictionary::add_word`] for every corpus-derived vocabulary item.
    pub fn base() -> Self {
        let mut d = Dictionary::new();
        for &(word, freq, pos) in crate::lexicons::BASE_VOCAB {
            d.add_word(word, freq, pos);
        }
        d
    }

    /// Inserts or updates a word. Re-inserting accumulates frequency and
    /// keeps the first non-`Other` POS tag.
    pub fn add_word(&mut self, word: &str, freq: u64, pos: PosTag) {
        debug_assert!(freq > 0, "dictionary frequencies must be positive");
        self.trie.upsert(word, WordInfo { freq, pos }, |old, new| {
            old.freq += new.freq;
            if old.pos == PosTag::Other {
                old.pos = new.pos;
            }
        });
        self.total += freq;
        self.log_total = (self.total.max(1) as f64).ln();
    }

    /// Gives the index's spare capacity back to the allocator, for a
    /// dictionary that is done growing.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.trie.shrink_to_fit();
    }

    /// Exact lookup.
    pub fn get(&self, word: &str) -> Option<WordInfo> {
        self.trie.get(word).copied()
    }

    /// Returns `true` when `word` is stored.
    pub fn contains(&self, word: &str) -> bool {
        self.trie.get(word).is_some()
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Returns `true` when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.len() == 0
    }

    /// Sum of all frequencies.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Log-probability of a known word; unknown words receive a one-count
    /// smoothed probability so the DP remains well-defined.
    pub fn log_prob(&self, word: &str) -> f64 {
        self.log_prob_of(self.get(word).map_or(1, |i| i.freq))
    }

    /// [`Dictionary::log_prob`] of a word whose frequency the caller
    /// already holds (a [`WordInfo`] from [`Dictionary::for_each_match`],
    /// or 1 for an unknown word) — the same expression, without the lookup.
    pub(crate) fn log_prob_of(&self, freq: u64) -> f64 {
        (freq.max(1) as f64).ln() - self.log_total
    }

    /// Calls `visit(end, info)` for every dictionary word that starts at
    /// `chars[start..]`, shortest first, where `end` is the char index one
    /// past the word — the segmentation DAG edges. It allocates nothing.
    pub(crate) fn for_each_match(
        &self,
        chars: &[char],
        start: usize,
        mut visit: impl FnMut(usize, WordInfo),
    ) {
        self.trie
            .for_each_prefix_match(chars, start, |end, info| visit(end, *info));
    }

    /// [`Dictionary::for_each_match`] collected, for tests.
    #[cfg(test)]
    pub(crate) fn matches_at(&self, chars: &[char], start: usize) -> Vec<(usize, WordInfo)> {
        let mut out = Vec::new();
        self.for_each_match(chars, start, |end, info| out.push((end, info)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn add_and_lookup() {
        let mut d = Dictionary::new();
        d.add_word("演员", 100, PosTag::Noun);
        assert!(d.contains("演员"));
        assert_eq!(d.get("演员").unwrap().freq, 100);
        assert_eq!(d.total(), 100);
    }

    #[test]
    fn reinsert_accumulates_frequency() {
        let mut d = Dictionary::new();
        d.add_word("歌手", 10, PosTag::Noun);
        d.add_word("歌手", 5, PosTag::Noun);
        assert_eq!(d.get("歌手").unwrap().freq, 15);
        assert_eq!(d.total(), 15);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn pos_upgrade_from_other() {
        let mut d = Dictionary::new();
        d.add_word("东西", 10, PosTag::Other);
        d.add_word("东西", 10, PosTag::Noun);
        assert_eq!(d.get("东西").unwrap().pos, PosTag::Noun);
        // A later different tag does not overwrite an established one.
        d.add_word("东西", 10, PosTag::Verb);
        assert_eq!(d.get("东西").unwrap().pos, PosTag::Noun);
    }

    #[test]
    fn log_prob_ordering_follows_frequency() {
        let mut d = Dictionary::new();
        d.add_word("的", 1000, PosTag::Particle);
        d.add_word("罕见词", 2, PosTag::Noun);
        assert!(d.log_prob("的") > d.log_prob("罕见词"));
        // Unknown word gets the floor probability.
        assert!(d.log_prob("未登录") <= d.log_prob("罕见词"));
    }

    #[test]
    fn base_dictionary_is_nonempty_and_has_function_words() {
        let d = Dictionary::base();
        assert!(d.len() > 200, "base dictionary too small: {}", d.len());
        assert!(d.contains("的"));
        assert!(d.contains("出生"));
    }

    #[test]
    fn matches_at_returns_dag_edges() {
        let mut d = Dictionary::new();
        d.add_word("中国", 10, PosTag::Noun);
        d.add_word("中", 5, PosTag::Noun);
        let chars: Vec<char> = "中国".chars().collect();
        let ends: Vec<usize> = d.matches_at(&chars, 0).iter().map(|(e, _)| *e).collect();
        assert_eq!(ends, vec![1, 2]);
    }

    proptest! {
        /// The dictionary agrees with a `BTreeMap` model built by the
        /// documented rules: a re-insertion adds its frequency and keeps
        /// the first non-`Other` tag. Words are drawn over four characters,
        /// one outside the Basic Multilingual Plane, so they share
        /// prefixes; texts add a fifth character no word holds.
        /// `matches_at(chars, i)` must be exactly the ends `j > i` with
        /// `chars[i..j]` in the model, ascending, each with the model's
        /// entry.
        #[test]
        fn dictionary_matches_a_btreemap_model(
            words in proptest::collection::vec(("[甲乙丙𠀀]{0,4}", 1u64..50, 0u8..3), 0..40),
            probes in proptest::collection::vec("[甲乙丙𠀀]{0,5}", 0..12),
            text in "[甲乙丙𠀀丁]{0,12}",
        ) {
            let mut dict = Dictionary::new();
            let mut model: BTreeMap<String, WordInfo> = BTreeMap::new();
            for (word, freq, tag) in &words {
                let pos = [PosTag::Other, PosTag::Noun, PosTag::Verb][usize::from(*tag)];
                dict.add_word(word, *freq, pos);
                let entry = model.entry(word.clone()).or_insert(WordInfo { freq: 0, pos });
                entry.freq += freq;
                if entry.pos == PosTag::Other {
                    entry.pos = pos;
                }
            }
            prop_assert_eq!(dict.len(), model.len());
            prop_assert_eq!(dict.is_empty(), model.is_empty());
            for probe in model.keys().chain(&probes) {
                prop_assert_eq!(dict.get(probe), model.get(probe).copied(), "{:?}", probe);
                prop_assert_eq!(dict.contains(probe), model.contains_key(probe));
            }
            let chars: Vec<char> = text.chars().collect();
            for i in 0..=chars.len() + 1 {
                let expected: Vec<(usize, WordInfo)> = (i + 1..=chars.len())
                    .filter_map(|j| {
                        let word: String = chars[i..j].iter().collect();
                        model.get(&word).map(|info| (j, *info))
                    })
                    .collect();
                prop_assert_eq!(dict.matches_at(&chars, i), expected, "text {:?} at {}", text, i);
            }
        }
    }
}
