//! [`TagIndex`]: the per-snapshot, vocabulary-seeded text front end.
//!
//! Built once per snapshot generation and shared by every tag query on
//! it: a [`Segmenter`] whose dictionary is the base lexicon *plus every
//! entity name and concept name the snapshot knows*, so taxonomy names
//! survive segmentation as single tokens (the stock dictionary would
//! split an unknown 三字名 into characters the HMM then guesses at); two
//! sets of `Key` hashes — of the snapshot's bare mention keys and of its
//! concept names — so span resolution asks the snapshot's `men2ent` and
//! `find_concept` only about a window that may be one; and the NER gate
//! that decides which out-of-vocabulary spans count as evidence, which
//! reads the segmenter's own dictionary — the index holds one dictionary.
//!
//! A set holds hashes, not strings: a window whose key is in a set is
//! confirmed by asking the snapshot, and a window whose key is not is
//! known to be no mention (or no concept) without asking. A backend that
//! does not list its mention keys ([`TaxonomyRead::mention_keys`] is
//! `None`) gets no mention set, and every window asks `men2ent`.

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

/// Multiplier of [`Key`]'s polynomial (odd, so no byte's weight vanishes).
const KEY_BASE: u64 = 0x0000_0100_0000_01b3;

/// A string's hash as the index's sets hold it: a polynomial over its
/// UTF-8 bytes, `Σ bᵢ · KEY_BASE^(n-1-i)` mod 2⁶⁴, with `KEY_BASE^n`
/// carried along. A concatenation's key is its parts' keys combined
/// ([`Key::then`]), so a window of tokens is hashed from its tokens' keys
/// and a name hashes the same however the segmenter split it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    hash: u64,
    pow: u64,
}

impl Key {
    /// The empty string's key.
    pub(crate) const EMPTY: Key = Key { hash: 0, pow: 1 };

    /// The key of `text`.
    pub(crate) fn of(text: &str) -> Key {
        text.bytes().fold(Key::EMPTY, |k, b| Key {
            hash: k.hash.wrapping_mul(KEY_BASE).wrapping_add(u64::from(b)),
            pow: k.pow.wrapping_mul(KEY_BASE),
        })
    }

    /// The key of this key's string followed by `next`'s.
    pub(crate) fn then(self, next: Key) -> Key {
        Key {
            hash: self.hash.wrapping_mul(next.pow).wrapping_add(next.hash),
            pow: self.pow.wrapping_mul(next.pow),
        }
    }

    /// The 32 bits a set stores. A string's last bytes reach the
    /// polynomial's high bits only through carries, so a Fibonacci
    /// multiply spreads the low bits up before the top 32 are taken.
    fn slot(self) -> u32 {
        (self.hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
    }
}

/// The per-snapshot text front end for tagging: seeded segmenter, the
/// mention-key and concept-name sets, and the NER gate.
///
/// Deliberately snapshot-*derived* but snapshot-*independent* state: it
/// holds owned data only, so the serving layer can cache it next to a
/// pinned generation without borrowing from it.
pub struct TagIndex {
    segmenter: Segmenter,
    /// The [`Key::slot`] of every bare mention key, or `None` when the
    /// snapshot does not list them and every window asks `men2ent`.
    mention_keys: Option<FxHashSet<u32>>,
    /// The [`Key::slot`] of every concept name.
    concept_names: FxHashSet<u32>,
    seeded: usize,
}

impl TagIndex {
    /// Builds the index from a snapshot: one pass over the entity table
    /// and one over the concept table, folding every name into the base
    /// dictionary as a noun and hashing every concept name, then one pass
    /// over the snapshot's mention keys, if it lists them.
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
            concept_names.insert(Key::of(name).slot());
        }
        let mention_keys = f.mention_keys().map(|keys| {
            let mut set = FxHashSet::with_capacity_and_hasher(f.num_mentions(), Default::default());
            set.extend(keys.map(|k| Key::of(k).slot()));
            set
        });
        TagIndex {
            segmenter: Segmenter::new(dict),
            mention_keys,
            concept_names,
            seeded,
        }
    }

    /// The seeded segmenter.
    pub fn segmenter(&self) -> &Segmenter {
        &self.segmenter
    }

    /// Whether a text with this key may have a non-empty `men2ent`: true
    /// for every bare mention key, and for every text when the snapshot
    /// listed no keys. (A full `name（disambig）` key is never asked
    /// about: `（` is punctuation, and no window holds punctuation.)
    pub(crate) fn may_be_mention(&self, key: Key) -> bool {
        self.mention_keys
            .as_ref()
            .map_or(true, |set| set.contains(&key.slot()))
    }

    /// Whether a text with this key may be a concept name: true for every
    /// text whose `find_concept` is `Some`, and false for almost every
    /// other (a hash collision only costs a `find_concept` call).
    pub(crate) fn may_be_concept(&self, key: Key) -> bool {
        self.concept_names.contains(&key.slot())
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
            .field("mention_keys", &self.mention_keys.as_ref().map(|s| s.len()))
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
        // The set holds hashes, so "exactly" is this set of probes having
        // no collision; a colliding text would only cost a `find_concept`.
        for probe in ["歌手", "山", "刘德华", "歌", "", "歌手们"] {
            assert_eq!(
                index.may_be_concept(Key::of(probe)),
                f.find_concept(probe).is_some(),
                "{probe:?}"
            );
        }
    }

    #[test]
    fn a_window_key_is_its_tokens_keys_combined() {
        let whole = Key::of("武汉大学的校园");
        for cut in [
            "武".len(),
            "武汉".len(),
            "武汉大学".len(),
            "武汉大学的校".len(),
        ] {
            let (a, b) = "武汉大学的校园".split_at(cut);
            assert_eq!(Key::of(a).then(Key::of(b)), whole, "{a}|{b}");
        }
        assert_eq!(Key::EMPTY.then(whole), whole);
        assert_eq!(whole.then(Key::EMPTY), whole);
    }

    #[test]
    fn mention_keys_are_exactly_what_men2ent_finds() {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        s.add_alias(liu, "华仔");
        s.add_concept("歌手");
        let f = FrozenTaxonomy::freeze(&s);
        let index = TagIndex::build(&f);
        for probe in ["刘德华", "华仔", "歌手", "刘德", "", "中国香港男演员"] {
            assert_eq!(
                index.may_be_mention(Key::of(probe)),
                !f.men2ent(probe).is_empty(),
                "{probe:?}"
            );
        }
    }
}
