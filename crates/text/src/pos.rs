//! Coarse part-of-speech tagging.
//!
//! CN-Probase needs POS information in two places: the Probase-Tran baseline
//! filters translated hypernyms that are not nouns, and the syntax-based
//! verification rules reason about noun compounds. A dictionary lookup with
//! suffix heuristics for unknown words is sufficient at that granularity
//! (this mirrors jieba's dictionary-tag approach without the full HMM
//! tagger).

use crate::dict::Dictionary;

/// Coarse part-of-speech tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PosTag {
    /// Common noun (名词) — the only tag acceptable for hypernyms.
    Noun,
    /// Verb (动词).
    Verb,
    /// Adjective (形容词).
    Adj,
    /// Adverb (副词).
    Adverb,
    /// Pronoun (代词).
    Pronoun,
    /// Numeral (数词).
    Numeral,
    /// Measure word (量词).
    Measure,
    /// Grammatical particle (助词), e.g. 的 / 了.
    Particle,
    /// Preposition or conjunction (介词/连词).
    Function,
    /// Proper noun — person name (人名).
    PersonName,
    /// Proper noun — place name (地名).
    PlaceName,
    /// Proper noun — organization name (机构名).
    OrgName,
    /// Time word (时间词), e.g. 年 / 月份.
    Time,
    /// Unknown / other.
    Other,
}

impl PosTag {
    /// Nouns and proper nouns — the tags a hypernym candidate may carry.
    pub fn is_nominal(self) -> bool {
        matches!(
            self,
            PosTag::Noun | PosTag::PersonName | PosTag::PlaceName | PosTag::OrgName
        )
    }
}

/// Dictionary-backed POS tagger with suffix heuristics for unknown words.
#[derive(Debug, Clone)]
pub struct PosTagger {
    dict: Dictionary,
}

impl PosTagger {
    /// Creates a tagger over the given dictionary.
    pub fn new(dict: Dictionary) -> Self {
        PosTagger { dict }
    }

    /// Read-only access to the backing dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Tags one word. Known words use their dictionary tag; unknown words
    /// fall back to suffix heuristics, defaulting to `Noun` (the majority
    /// class for OOV encyclopedia vocabulary).
    pub fn tag(&self, word: &str) -> PosTag {
        if let Some(info) = self.dict.get(word) {
            if info.pos != PosTag::Other {
                return info.pos;
            }
        }
        Self::guess_by_shape(word)
    }

    /// Shape/suffix heuristics for unknown words.
    pub fn guess_by_shape(word: &str) -> PosTag {
        if word.is_empty() {
            return PosTag::Other;
        }
        if word.chars().all(|c| c.is_ascii_digit()) {
            return PosTag::Numeral;
        }
        let last = word.chars().last().unwrap();
        if crate::lexicons::PLACE_SUFFIX_CHARS.contains(&last) {
            return PosTag::PlaceName;
        }
        for suffix in crate::lexicons::ORG_SUFFIXES {
            if word.ends_with(suffix)
                && crate::chars::char_len(word) > crate::chars::char_len(suffix)
            {
                return PosTag::OrgName;
            }
        }
        if matches!(last, '年' | '月' | '日' | '时') {
            return PosTag::Time;
        }
        if matches!(last, '地' | '得') && crate::chars::char_len(word) == 1 {
            return PosTag::Particle;
        }
        PosTag::Noun
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagger() -> PosTagger {
        PosTagger::new(Dictionary::base())
    }

    #[test]
    fn dictionary_tags_win() {
        let t = tagger();
        assert_eq!(t.tag("的"), PosTag::Particle);
        assert_eq!(t.tag("出生"), PosTag::Verb);
        assert_eq!(t.tag("非常"), PosTag::Adverb);
    }

    #[test]
    fn unknown_defaults_to_noun() {
        let t = tagger();
        assert_eq!(t.tag("战略官"), PosTag::Noun);
    }

    #[test]
    fn place_suffix_heuristic() {
        assert_eq!(PosTagger::guess_by_shape("临江市"), PosTag::PlaceName);
        assert_eq!(PosTagger::guess_by_shape("云梦县"), PosTag::PlaceName);
    }

    #[test]
    fn org_suffix_heuristic() {
        assert_eq!(PosTagger::guess_by_shape("星辰公司"), PosTag::OrgName);
        assert_eq!(PosTagger::guess_by_shape("南华大学"), PosTag::OrgName);
        // A bare suffix is not an organization name.
        assert_eq!(PosTagger::guess_by_shape("公司"), PosTag::Noun);
    }

    #[test]
    fn digits_are_numerals() {
        assert_eq!(PosTagger::guess_by_shape("1961"), PosTag::Numeral);
    }

    #[test]
    fn nominal_classification() {
        assert!(PosTag::Noun.is_nominal());
        assert!(PosTag::OrgName.is_nominal());
        assert!(!PosTag::Verb.is_nominal());
        assert!(!PosTag::Particle.is_nominal());
    }
}
