//! Named-entity recognition and NE-support statistics.
//!
//! Verification strategy B of the paper (§III-B) rejects isA relations whose
//! hypernym is itself a named entity — `isA(iPhone, America)` is wrong
//! because *America* names an individual, not a class. The strategy needs:
//!
//! * a recognizer deciding whether a string *looks like* a named entity
//!   (person / place / organization / work title), and
//! * support statistics: `s1(H) = NE(H) / total(H)` over a text corpus,
//!   combined with the taxonomy-side support `s2(H)` through the noisy-or
//!   model of Eq. 2 (implemented in `cnp-core::verification`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::chars::char_len;
use crate::dict::Dictionary;
use crate::lexicons::{is_surname, ORG_SUFFIXES, PLACE_SUFFIX_CHARS};
use std::collections::HashMap;

/// Kinds of named entities the recognizer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeKind {
    /// Person name (刘德华).
    Person,
    /// Place name (临江市, 美国).
    Place,
    /// Organization name (蚂蚁金服有限公司).
    Org,
    /// Work title (《彩云曲》).
    Work,
}

/// Heuristic Chinese named-entity recognizer.
///
/// Decisions combine surname/suffix cues with a common-word veto from the
/// dictionary: a frequent common noun is never classified as a person name
/// even when its first character happens to be a surname (e.g. 金服).
#[derive(Debug, Clone)]
pub struct NeRecognizer {
    dict: Dictionary,
}

/// Words whose dictionary frequency exceeds this are vetoed as Person.
const COMMON_WORD_FREQ_VETO: u64 = 50;

impl NeRecognizer {
    /// Creates a recognizer backed by `dict`.
    pub fn new(dict: Dictionary) -> Self {
        NeRecognizer { dict }
    }

    /// Classifies `s`, returning `None` for non-entities.
    pub fn classify(&self, s: &str) -> Option<NeKind> {
        classify(&self.dict, s)
    }

    /// Convenience: is `s` any kind of named entity?
    pub fn is_entity(&self, s: &str) -> bool {
        self.classify(s).is_some()
    }
}

/// [`NeRecognizer::classify`] against a dictionary the caller already
/// holds, so a component that segments with a dictionary can gate named
/// entities on that same dictionary instead of a second copy of it.
pub fn classify(dict: &Dictionary, s: &str) -> Option<NeKind> {
    let first = s.chars().next()?;
    let len = char_len(s);
    if s.starts_with('《') && s.ends_with('》') && len > 2 {
        return Some(NeKind::Work);
    }
    // Organization: longest-suffix match; must have a proper prefix.
    for suffix in ORG_SUFFIXES {
        if s.ends_with(suffix) && len > char_len(suffix) {
            return Some(NeKind::Org);
        }
    }
    // Place: single-char geographic suffix with a proper prefix, or a
    // dictionary-tagged place name (中国, 香港 …).
    let info = dict.get(s);
    if let Some(info) = info {
        if info.pos == crate::pos::PosTag::PlaceName {
            return Some(NeKind::Place);
        }
        if info.pos == crate::pos::PosTag::PersonName {
            return Some(NeKind::Person);
        }
    }
    let last = s.chars().next_back()?;
    if len >= 2 && PLACE_SUFFIX_CHARS.contains(&last) {
        return Some(NeKind::Place);
    }
    // Person: surname + 1-2 further Han chars, not a common word.
    if (2..=3).contains(&len) && is_surname(first.encode_utf8(&mut [0; 4])) {
        let is_common = info.is_some_and(|i| i.freq > COMMON_WORD_FREQ_VETO);
        if !is_common && s.chars().all(crate::chars::is_han) {
            return Some(NeKind::Person);
        }
    }
    None
}

/// Occurrence statistics for the NE-support score `s1(H)`.
///
/// `observe(word, as_ne)` is called once per corpus occurrence; `support`
/// returns `NE(H) / total(H)` (0 when unseen).
#[derive(Debug, Clone, Default)]
pub struct NeStats {
    counts: HashMap<String, (u64, u64)>, // (ne_occurrences, total_occurrences)
}

impl NeStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `word`, flagged as NE usage or not.
    pub fn observe(&mut self, word: &str, as_ne: bool) {
        let entry = self.counts.entry(word.to_string()).or_insert((0, 0));
        if as_ne {
            entry.0 += 1;
        }
        entry.1 += 1;
    }

    /// `s(H) = NE(H) / total(H)`; 0 for unseen words.
    pub fn support(&self, word: &str) -> f64 {
        match self.counts.get(word) {
            Some(&(ne, total)) if total > 0 => ne as f64 / total as f64,
            _ => 0.0,
        }
    }

    /// Total occurrences of `word`.
    pub fn total(&self, word: &str) -> u64 {
        self.counts.get(word).map(|&(_, t)| t).unwrap_or(0)
    }

    /// Number of distinct observed words.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Merges another statistics set into this one.
    pub fn merge(&mut self, other: NeStats) {
        for (word, (ne, total)) in other.counts {
            let entry = self.counts.entry(word).or_insert((0, 0));
            entry.0 += ne;
            entry.1 += total;
        }
    }
}

/// Noisy-or combination of independent support signals (paper Eq. 2):
/// `s(H) = 1 − (1 − s1)(1 − s2)`.
///
/// The noisy-or amplifies the support signal: either source alone being
/// confident is enough to flag the hypernym.
pub fn noisy_or(s1: f64, s2: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&s1), "s1 out of range: {s1}");
    debug_assert!((0.0..=1.0).contains(&s2), "s2 out of range: {s2}");
    1.0 - (1.0 - s1) * (1.0 - s2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::PosTag;
    use proptest::prelude::*;

    fn recognizer() -> NeRecognizer {
        let mut d = Dictionary::base();
        d.add_word("演员", 900, PosTag::Noun);
        d.add_word("金服", 200, PosTag::Noun);
        NeRecognizer::new(d)
    }

    #[test]
    fn classifies_person_names() {
        let r = recognizer();
        assert_eq!(r.classify("刘德华"), Some(NeKind::Person));
        assert_eq!(r.classify("王伟"), Some(NeKind::Person));
    }

    #[test]
    fn common_words_are_not_persons() {
        let r = recognizer();
        // 金服 starts with surname 金 but is a frequent common word.
        assert_eq!(r.classify("金服"), None);
        assert_eq!(r.classify("演员"), None);
    }

    #[test]
    fn classifies_places() {
        let r = recognizer();
        assert_eq!(r.classify("临江市"), Some(NeKind::Place));
        assert_eq!(r.classify("美国"), Some(NeKind::Place));
        assert_eq!(r.classify("香港"), Some(NeKind::Place));
        // A bare suffix char is not a place.
        assert_eq!(r.classify("市"), None);
    }

    #[test]
    fn classifies_orgs_with_longest_suffix() {
        let r = recognizer();
        assert_eq!(r.classify("星辰有限公司"), Some(NeKind::Org));
        assert_eq!(r.classify("南华大学"), Some(NeKind::Org));
        assert_eq!(r.classify("大学"), None);
    }

    #[test]
    fn classifies_work_titles() {
        let r = recognizer();
        assert_eq!(r.classify("《彩云曲》"), Some(NeKind::Work));
        assert_eq!(r.classify("《》"), None);
    }

    #[test]
    fn ne_stats_support() {
        let mut s = NeStats::new();
        for _ in 0..9 {
            s.observe("美国", true);
        }
        s.observe("美国", false);
        assert!((s.support("美国") - 0.9).abs() < 1e-12);
        assert_eq!(s.support("演员"), 0.0);
        assert_eq!(s.total("美国"), 10);
    }

    #[test]
    fn noisy_or_matches_eq2() {
        assert!((noisy_or(0.9, 0.5) - 0.95).abs() < 1e-12);
        assert_eq!(noisy_or(0.0, 0.0), 0.0);
        assert_eq!(noisy_or(1.0, 0.0), 1.0);
    }

    proptest! {
        /// Noisy-or stays in [0,1] and dominates both inputs (amplification).
        #[test]
        fn noisy_or_bounds_and_amplification(s1 in 0.0f64..=1.0, s2 in 0.0f64..=1.0) {
            let v = noisy_or(s1, s2);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
            prop_assert!(v >= s1 - 1e-12);
            prop_assert!(v >= s2 - 1e-12);
        }

        /// Noisy-or is monotone in each argument.
        #[test]
        fn noisy_or_monotone(s1 in 0.0f64..=1.0, s2 in 0.0f64..=1.0, d in 0.0f64..=0.5) {
            let base = noisy_or(s1, s2);
            let bumped = noisy_or((s1 + d).min(1.0), s2);
            prop_assert!(bumped + 1e-12 >= base);
        }

        /// Support is always a valid probability.
        #[test]
        fn support_is_probability(obs in proptest::collection::vec(("[a-c]", proptest::bool::ANY), 0..30)) {
            let mut s = NeStats::new();
            for (w, ne) in &obs {
                s.observe(w, *ne);
            }
            for w in ["a", "b", "c", "d"] {
                let v = s.support(w);
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
