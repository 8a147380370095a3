//! [`TagIndex`]: the per-snapshot, vocabulary-seeded text front end.
//!
//! Built once per snapshot generation and shared by every tag query on
//! it: a [`Segmenter`] whose dictionary is the base lexicon *plus every
//! entity name and concept name the snapshot knows*, so taxonomy names
//! survive segmentation as single tokens (the stock dictionary would
//! split an unknown 三字名 into characters the HMM then guesses at); the
//! set of concept names, so span resolution asks the snapshot's
//! `find_concept` only about a window that is one; and the NER gate that
//! decides which out-of-vocabulary spans count as evidence, which reads
//! the segmenter's own dictionary — the index holds one dictionary.

use cnp_taxonomy::hash::FxHashSet;
use cnp_taxonomy::{ConceptId, EntityId, TaxonomyRead};
use cnp_text::chars::char_len;
use cnp_text::{ner, Dictionary, NeKind, PosTag, Segmenter};
use std::fmt;

/// Dictionary frequency for seeded taxonomy names. High enough that the
/// max-probability path keeps a seeded multi-character name whole against
/// a split into common single characters, low enough not to drown the
/// base lexicon's real statistics for words that are both.
const SEED_FREQ: u64 = 500;

/// The longest seeded name, in characters, the resolver's longest-match
/// window needs to cover. Names longer than this still seed the
/// dictionary (the segmenter keeps them whole in one token); the cap only
/// bounds how many *adjacent tokens* resolution will join.
pub const MAX_SPAN_TOKENS: usize = 4;

/// The per-snapshot text front end for tagging: seeded segmenter, concept
/// names and NER gate.
///
/// Deliberately snapshot-*derived* but snapshot-*independent* state: it
/// holds owned strings only, so the serving layer can cache it next to a
/// pinned generation without borrowing from it.
pub struct TagIndex {
    segmenter: Segmenter,
    /// Every concept name, hashed with FxHash: the strings come from the
    /// snapshot, and a request's text only ever looks one up.
    concept_names: FxHashSet<String>,
    seeded: usize,
}

impl TagIndex {
    /// Builds the index from a snapshot: one pass over the entity table
    /// and one over the concept table, folding every name into the base
    /// dictionary as a noun and remembering every concept name.
    ///
    /// Ids are dense on every backend (`0..num_entities`, with overlay
    /// rows appended after the base range), so enumeration by index is
    /// the representation-independent way to walk the mention table.
    pub fn build<T: TaxonomyRead>(f: &T) -> TagIndex {
        let mut dict = Dictionary::base();
        let mut seeded = 0usize;
        for i in 0..f.num_entities() {
            let rec = f.entity(EntityId(i as u32));
            seeded += seed_word(&mut dict, f.resolve(rec.name));
        }
        let mut concept_names =
            FxHashSet::with_capacity_and_hasher(f.num_concepts(), Default::default());
        for i in 0..f.num_concepts() {
            let name = f.concept_name(ConceptId(i as u32));
            seeded += seed_word(&mut dict, name);
            concept_names.insert(name.to_string());
        }
        TagIndex {
            segmenter: Segmenter::new(dict),
            concept_names,
            seeded,
        }
    }

    /// The seeded segmenter.
    pub fn segmenter(&self) -> &Segmenter {
        &self.segmenter
    }

    /// Whether `text` is the name of one of the snapshot's concepts —
    /// exactly when the snapshot's `find_concept(text)` is `Some`.
    pub(crate) fn is_concept_name(&self, text: &str) -> bool {
        self.concept_names.contains(text)
    }

    /// The NER gate for out-of-vocabulary spans, over the segmenter's
    /// dictionary.
    pub(crate) fn named_entity(&self, text: &str) -> Option<NeKind> {
        ner::classify(self.segmenter.dictionary(), text)
    }

    /// How many taxonomy names were folded into the dictionary.
    pub fn seeded_words(&self) -> usize {
        self.seeded
    }
}

impl fmt::Debug for TagIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TagIndex")
            .field("seeded", &self.seeded)
            .field("concept_names", &self.concept_names.len())
            .field("dictionary_len", &self.segmenter.dictionary().len())
            .finish()
    }
}

/// Seeds one taxonomy name into the dictionary; returns 1 if it added a
/// word. Single characters are skipped (they segment fine already and a
/// seeded frequency would skew the DP for ordinary text); words the base
/// lexicon already holds keep their real statistics.
fn seed_word(dict: &mut Dictionary, name: &str) -> usize {
    if char_len(name) < 2 || dict.contains(name) {
        return 0;
    }
    dict.add_word(name, SEED_FREQ, PosTag::Noun);
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_taxonomy::{FrozenTaxonomy, IsAMeta, Source, TaxonomyStore};

    #[test]
    fn seeded_names_survive_segmentation_whole() {
        let mut s = TaxonomyStore::new();
        let e = s.add_entity("珞珈山", None);
        let c = s.add_concept("山峰");
        s.add_entity_is_a(e, c, IsAMeta::new(Source::Tag, 0.9));
        let f = FrozenTaxonomy::freeze(&s);

        let unseeded = Segmenter::new(Dictionary::base());
        let index = TagIndex::build(&f);
        assert!(index.seeded_words() >= 2);

        let text = "珞珈山是著名山峰。";
        let seeded_tokens = index.segmenter().segment(text);
        assert!(
            seeded_tokens.iter().any(|t| t == "珞珈山"),
            "seeded: {seeded_tokens:?}"
        );
        assert!(seeded_tokens.iter().any(|t| t == "山峰"));
        // Without seeding the name need not survive as one token — the
        // point of the index. (Not asserted as a must-split: the HMM may
        // occasionally recover it; the guarantee only exists when seeded.)
        let _ = unseeded.segment(text);
    }

    #[test]
    fn single_char_names_do_not_skew_the_dictionary() {
        let mut s = TaxonomyStore::new();
        s.add_entity("水", None);
        let f = FrozenTaxonomy::freeze(&s);
        let index = TagIndex::build(&f);
        assert_eq!(index.seeded_words(), 0);
    }

    #[test]
    fn concept_names_are_exactly_what_find_concept_finds() {
        let mut s = TaxonomyStore::new();
        s.add_entity("刘德华", None);
        s.add_concept("歌手");
        s.add_concept("山"); // a single character: not seeded, still a concept
        let f = FrozenTaxonomy::freeze(&s);
        let index = TagIndex::build(&f);
        for probe in ["歌手", "山", "刘德华", "歌", "", "歌手们"] {
            assert_eq!(
                index.is_concept_name(probe),
                f.find_concept(probe).is_some(),
                "{probe:?}"
            );
        }
    }
}
