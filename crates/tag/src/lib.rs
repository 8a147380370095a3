#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::iter_over_hash_type
)]
//! # cnp_tag — taxonomy-backed document tagging
//!
//! The second serving workload of the CN-Probase reproduction: given free
//! text, rank taxonomy concepts for the *whole document*. Where the
//! Table II queries answer "what is 刘德华?", this crate answers "what is
//! this article about?" — the consumer the paper's taxonomy exists for
//! (domain classification fails without a taxonomy that models relations
//! between classes).
//!
//! The pipeline composes three ingredients the workspace already has:
//!
//! 1. **Segmentation** ([`cnp_text::Segmenter`]) with a dictionary
//!    *vocabulary-seeded from the snapshot* ([`TagIndex`]): every entity
//!    name and concept name of two or more characters is folded into the
//!    segmenter's dictionary so taxonomy names survive segmentation as
//!    single tokens instead of being split into unknown characters.
//! 2. **Mention resolution** through `men2ent`: longest-match token
//!    spans (a window of adjacent tokens is joined and probed longest
//!    first, never across punctuation, and only when the index's hash set
//!    of the snapshot's mention keys holds the window's key), then
//!    `find_concept` for a window whose key is in the index's set of
//!    concept names, with an NER-gated fallback for
//!    out-of-vocabulary spans — a span the taxonomy has never seen is
//!    kept as evidence only when [`cnp_text::ner::classify`], over the
//!    segmenter's own dictionary, recognises it as a named entity, and
//!    it contributes no concept mass.
//! 3. **Coarse-to-fine hierarchical scoring** ([`tag_with`]): evidence
//!    mass flows from hit entities up the ancestor closure with
//!    depth-discounted weights (coarse pass), then a refinement pass
//!    walks the hierarchy level by level and re-scores the evidenced
//!    children of the top-`beam` concepts of each level (one parent →
//!    child table per request), so specific concepts beat the generic
//!    ancestors they propagated mass into.
//!
//! The output is a deterministic top-k of `(concept, score, evidence
//! spans)`: tie-breaks are stable (score descending via `total_cmp`,
//! concept id ascending), accumulation order is fixed (flat vectors
//! stable-sorted by concept id, so each concept's mass adds up in span
//! order and ancestor-row order), and nothing depends on thread count or
//! snapshot representation — the same document tags identically on the
//! owned `FrozenTaxonomy`, the zero-copy `FrozenTaxonomyView` and any
//! `OverlayView` stack, at any batch width. A request allocates per
//! resolved span, not per token, per window probe or per scored concept.
//!
//! ```
//! use cnp_tag::{TagOptions, Tagger};
//! use cnp_taxonomy::{FrozenTaxonomy, IsAMeta, Source, TaxonomyStore};
//! use std::sync::Arc;
//!
//! let mut store = TaxonomyStore::new();
//! let liu = store.add_entity("刘德华", None);
//! let singer = store.add_concept("歌手");
//! let person = store.add_concept("人物");
//! store.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
//! store.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.95));
//!
//! let tagger = Tagger::new(Arc::new(FrozenTaxonomy::freeze(&store)));
//! let out = tagger.tag("刘德华发布了新专辑。", &TagOptions::default());
//! assert_eq!(out.concepts.first().map(|h| h.name.as_str()), Some("歌手"));
//! ```

pub mod index;
pub mod score;

pub use index::TagIndex;
pub use score::{classify_with, tag_with, SpanKind, TagHit, TagOptions, TagOutput, TagSpan};

use cnp_taxonomy::TaxonomyRead;
use std::sync::Arc;

/// The standalone front door: a snapshot plus its prebuilt [`TagIndex`].
///
/// The serving layer (`cnp_serve`) drives [`tag_with`] directly with a
/// per-generation cached index; `Tagger` bundles the two for examples,
/// benchmarks and offline use.
pub struct Tagger<B: TaxonomyRead> {
    snapshot: Arc<B>,
    index: TagIndex,
}

impl<B: TaxonomyRead> Tagger<B> {
    /// Builds the mention-table-seeded index for `snapshot` and wraps
    /// both. Costs one pass over the entity and concept tables and one
    /// over the mention keys.
    pub fn new(snapshot: Arc<B>) -> Self {
        let index = TagIndex::build(&*snapshot);
        Tagger { snapshot, index }
    }

    /// The snapshot the tagger serves from.
    pub fn snapshot(&self) -> &B {
        &self.snapshot
    }

    /// The vocabulary-seeded index.
    pub fn index(&self) -> &TagIndex {
        &self.index
    }

    /// Tags a document: evidence spans plus the ranked concept list.
    pub fn tag(&self, text: &str, options: &TagOptions) -> TagOutput {
        tag_with(&*self.snapshot, &self.index, text, options)
    }

    /// Classifies a document: the ranked concept list only (the same
    /// scoring pass as [`Tagger::tag`], without materialising spans in
    /// the result).
    pub fn classify(&self, text: &str, options: &TagOptions) -> Vec<TagHit> {
        classify_with(&*self.snapshot, &self.index, text, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_taxonomy::{FrozenTaxonomy, IsAMeta, Source, TaxonomyStore};

    fn music_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let person = s.add_concept("人物");
        let singer = s.add_concept("歌手");
        let actor = s.add_concept("演员");
        let work = s.add_concept("作品");
        let album = s.add_concept("专辑");
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_concept_is_a(album, work, IsAMeta::new(Source::SubConcept, 0.9));
        let liu = s.add_entity("刘德华", None);
        let zhang = s.add_entity("张学友", None);
        let kisses = s.add_entity("吻别", None);
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
        s.add_entity_is_a(liu, actor, IsAMeta::new(Source::Tag, 0.8));
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.95));
        s.add_entity_is_a(kisses, album, IsAMeta::new(Source::Infobox, 0.9));
        s
    }

    #[test]
    fn tagger_ranks_specific_concept_over_generic_ancestor() {
        let tagger = Tagger::new(Arc::new(FrozenTaxonomy::freeze(&music_store())));
        let out = tagger.tag("张学友和刘德华合唱了吻别。", &TagOptions::default());
        let names: Vec<&str> = out.concepts.iter().map(|h| h.name.as_str()).collect();
        // Two singer hits beat everything; the generic ancestor 人物
        // collects propagated mass but must rank below 歌手.
        assert_eq!(names.first(), Some(&"歌手"));
        let singer_pos = names.iter().position(|&n| n == "歌手");
        let person_pos = names.iter().position(|&n| n == "人物");
        assert!(singer_pos < person_pos, "{names:?}");
    }

    #[test]
    fn evidence_spans_point_back_into_the_document() {
        let tagger = Tagger::new(Arc::new(FrozenTaxonomy::freeze(&music_store())));
        let text = "刘德华发布新专辑。";
        let out = tagger.tag(text, &TagOptions::default());
        let chars: Vec<char> = text.chars().collect();
        for span in &out.spans {
            let covered: String = chars
                .get(span.start as usize..span.end as usize)
                .unwrap_or(&[])
                .iter()
                .collect();
            assert_eq!(covered, span.text, "span offsets must match the text");
        }
        assert!(out.spans.iter().any(|s| s.text == "刘德华"));
    }

    #[test]
    fn classify_matches_tag_concepts() {
        let tagger = Tagger::new(Arc::new(FrozenTaxonomy::freeze(&music_store())));
        let text = "刘德华和张学友都是歌手。";
        let opts = TagOptions::default();
        assert_eq!(
            tagger.classify(text, &opts),
            tagger.tag(text, &opts).concepts
        );
    }

    #[test]
    fn empty_and_unknown_text_tag_to_nothing() {
        let tagger = Tagger::new(Arc::new(FrozenTaxonomy::freeze(&music_store())));
        for text in ["", "今天天气很好。", "hello world 123"] {
            let out = tagger.tag(text, &TagOptions::default());
            assert!(out.concepts.is_empty(), "{text:?}");
        }
    }
}
