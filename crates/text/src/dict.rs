//! Word dictionary: frequencies + part-of-speech tags, indexed by a trie.
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
        match self.trie.get(word).copied() {
            Some(old) => {
                let merged = WordInfo {
                    freq: old.freq + freq,
                    pos: if old.pos == PosTag::Other {
                        pos
                    } else {
                        old.pos
                    },
                };
                self.trie.insert(word, merged);
                self.total += freq;
            }
            None => {
                self.trie.insert(word, WordInfo { freq, pos });
                self.total += freq;
            }
        }
        self.log_total = (self.total.max(1) as f64).ln();
    }

    /// Exact lookup.
    pub fn get(&self, word: &str) -> Option<WordInfo> {
        self.trie.get(word).copied()
    }

    /// Returns `true` when `word` is stored.
    pub fn contains(&self, word: &str) -> bool {
        self.trie.contains(word)
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
    /// already holds (a [`WordInfo`] from [`Dictionary::matches_at`], or 1
    /// for an unknown word) — the same expression, without the lookup.
    pub(crate) fn log_prob_of(&self, freq: u64) -> f64 {
        (freq.max(1) as f64).ln() - self.log_total
    }

    /// All dictionary words starting at `chars[start..]`, as
    /// `(end_char_index_exclusive, info)` pairs — the segmentation DAG edges.
    pub fn matches_at(&self, chars: &[char], start: usize) -> Vec<(usize, WordInfo)> {
        self.trie
            .prefix_matches(chars, start)
            .into_iter()
            .map(|(end, info)| (end, *info))
            .collect()
    }

    /// Iterates `(word, info)` over all entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (String, WordInfo)> + '_ {
        self.trie.iter().map(|(w, i)| (w, *i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
