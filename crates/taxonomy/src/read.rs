//! The read-side abstraction over snapshot representations.
//!
//! [`TaxonomyRead`] is the query surface the serving layer compiles
//! against: every Table II primitive, expressed so the owned
//! [`FrozenTaxonomy`] (slice-backed, what a build freezes in process), the
//! borrowed [`FrozenTaxonomyView`] (varint-decoded on the fly, what comes
//! off a disk) and the `OverlayView` over either can implement it without
//! allocating adapters. Listing methods return iterators — slices iterate
//! for free, the view decodes lazily.
//!
//! [`BootSnapshot`] is the constructor the service's boot and hot-swap
//! `reload` paths use to bring a snapshot file up as a serving backend:
//! the view over the file's bytes, or an `OverlayView` around it.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::frozen::FrozenTaxonomy;
use crate::interner::Symbol;
use crate::persist::PersistError;
use crate::store::{ConceptId, EntityId, EntityRecord, IsAMeta};
use crate::view::FrozenTaxonomyView;
use std::path::Path;

/// Read-only Table II query surface over a frozen snapshot.
///
/// `Send + Sync` is part of the contract: implementations are served
/// concurrently behind an `Arc` by `TaxonomyService`.
pub trait TaxonomyRead: Send + Sync {
    /// Resolves an interned symbol to its string; `""` for a symbol this
    /// snapshot does not hold.
    fn resolve(&self, sym: Symbol) -> &str;

    /// Record for an entity id.
    fn entity(&self, id: EntityId) -> EntityRecord;

    /// Full display key: `name（disambig）` or just `name`.
    fn entity_key(&self, id: EntityId) -> String {
        let rec = self.entity(id);
        let name = self.resolve(rec.name);
        if rec.disambig == Symbol(0) {
            name.to_string()
        } else {
            format!("{name}（{}）", self.resolve(rec.disambig))
        }
    }

    /// Finds an entity by exact name + disambiguation.
    fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId>;

    /// Finds a concept by name.
    fn find_concept(&self, name: &str) -> Option<ConceptId>;

    /// Concept name.
    fn concept_name(&self, id: ConceptId) -> &str;

    /// Number of entities.
    fn num_entities(&self) -> usize;

    /// Number of concepts.
    fn num_concepts(&self) -> usize;

    /// Total isA edges.
    fn num_is_a(&self) -> usize;

    /// Number of distinct mention keys (names + aliases).
    fn num_mentions(&self) -> usize;

    /// Resolves a mention to candidate entity senses (every sense for a
    /// bare name or alias, exactly one for a disambiguated key).
    fn men2ent(&self, mention: &str) -> Vec<EntityId>;

    /// Every bare mention key — each name or alias whose
    /// [`men2ent`](Self::men2ent) is non-empty — in no particular order.
    /// Full `name（disambig）` keys are not listed, and a key may be
    /// listed more than once (an overlay lists a key it shares with its
    /// base twice), so the distinct keys number
    /// [`num_mentions`](Self::num_mentions). Any `mention` without a
    /// `（` that is not listed has an empty `men2ent`.
    ///
    /// `None` (the default) when the backend does not list its keys; a
    /// caller then asks `men2ent` itself.
    fn mention_keys(&self) -> Option<impl Iterator<Item = &str> + '_> {
        None::<std::iter::Empty<&str>>
    }

    /// Direct concepts of an entity, with edge metadata.
    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_;

    /// Direct entities of a concept, confidence-ranked.
    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_;

    /// Direct entities of a concept with each edge's confidence — the
    /// `getEntity` ranking input. The default probes the entity-side
    /// adjacency per hit; the view serves both from one `CENT` row.
    fn entities_with_confidence(&self, c: ConceptId) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        self.entities_of(c)
            .map(move |e| (e, self.entity_edge(e, c).map_or(0.0, |m| m.confidence)))
    }

    /// Metadata of the entity→concept isA edge, if present.
    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        self.concepts_of(e).find(|&(cc, _)| cc == c).map(|(_, m)| m)
    }

    /// Direct parent concepts, with edge metadata.
    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_;

    /// Direct child concepts.
    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_;

    /// All transitive ancestors of a concept, ascending by id.
    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_;

    /// Whether `sup` is a transitive ancestor of `c`.
    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool;

    /// Exact depth of a concept (0 for roots).
    fn depth(&self, c: ConceptId) -> usize;

    /// All transitive descendant concepts in BFS order.
    fn descendants(&self, start: ConceptId) -> Vec<ConceptId>;
}

impl TaxonomyRead for FrozenTaxonomy {
    fn resolve(&self, sym: Symbol) -> &str {
        FrozenTaxonomy::resolve(self, sym)
    }

    fn entity(&self, id: EntityId) -> EntityRecord {
        FrozenTaxonomy::entity(self, id)
    }

    fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
        FrozenTaxonomy::find_entity(self, name, disambig)
    }

    fn find_concept(&self, name: &str) -> Option<ConceptId> {
        FrozenTaxonomy::find_concept(self, name)
    }

    fn concept_name(&self, id: ConceptId) -> &str {
        FrozenTaxonomy::concept_name(self, id)
    }

    fn num_entities(&self) -> usize {
        FrozenTaxonomy::num_entities(self)
    }

    fn num_concepts(&self) -> usize {
        FrozenTaxonomy::num_concepts(self)
    }

    fn num_is_a(&self) -> usize {
        FrozenTaxonomy::num_is_a(self)
    }

    fn num_mentions(&self) -> usize {
        FrozenTaxonomy::num_mentions(self)
    }

    fn men2ent(&self, mention: &str) -> Vec<EntityId> {
        FrozenTaxonomy::men2ent(self, mention).to_vec()
    }

    fn mention_keys(&self) -> Option<impl Iterator<Item = &str> + '_> {
        Some(FrozenTaxonomy::mention_keys(self))
    }

    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        FrozenTaxonomy::concepts_of(self, e).iter().copied()
    }

    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
        FrozenTaxonomy::entities_of(self, c).iter().copied()
    }

    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        FrozenTaxonomy::entity_edge(self, e, c)
    }

    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        FrozenTaxonomy::parents_of(self, c).iter().copied()
    }

    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        FrozenTaxonomy::children_of(self, c).iter().copied()
    }

    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        FrozenTaxonomy::ancestors(self, c)
    }

    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
        FrozenTaxonomy::ancestors_of(self, c)
            .binary_search(&sup)
            .is_ok()
    }

    fn depth(&self, c: ConceptId) -> usize {
        FrozenTaxonomy::depth(self, c)
    }

    fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        FrozenTaxonomy::descendants(self, start)
    }
}

impl TaxonomyRead for FrozenTaxonomyView {
    fn resolve(&self, sym: Symbol) -> &str {
        FrozenTaxonomyView::resolve(self, sym)
    }

    fn entity(&self, id: EntityId) -> EntityRecord {
        FrozenTaxonomyView::entity(self, id)
    }

    fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
        FrozenTaxonomyView::find_entity(self, name, disambig)
    }

    fn find_concept(&self, name: &str) -> Option<ConceptId> {
        FrozenTaxonomyView::find_concept(self, name)
    }

    fn concept_name(&self, id: ConceptId) -> &str {
        FrozenTaxonomyView::concept_name(self, id)
    }

    fn num_entities(&self) -> usize {
        FrozenTaxonomyView::num_entities(self)
    }

    fn num_concepts(&self) -> usize {
        FrozenTaxonomyView::num_concepts(self)
    }

    fn num_is_a(&self) -> usize {
        FrozenTaxonomyView::num_is_a(self)
    }

    fn num_mentions(&self) -> usize {
        FrozenTaxonomyView::num_mentions(self)
    }

    fn men2ent(&self, mention: &str) -> Vec<EntityId> {
        FrozenTaxonomyView::men2ent(self, mention)
    }

    fn mention_keys(&self) -> Option<impl Iterator<Item = &str> + '_> {
        Some(FrozenTaxonomyView::mention_keys(self))
    }

    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        FrozenTaxonomyView::concepts_of(self, e)
    }

    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
        FrozenTaxonomyView::entities_of(self, c)
    }

    fn entities_with_confidence(&self, c: ConceptId) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        FrozenTaxonomyView::entities_with_confidence(self, c)
    }

    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        FrozenTaxonomyView::entity_edge(self, e, c)
    }

    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        FrozenTaxonomyView::parents_of(self, c)
    }

    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        FrozenTaxonomyView::children_of(self, c)
    }

    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        FrozenTaxonomyView::ancestors(self, c)
    }

    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
        FrozenTaxonomyView::ancestor_contains(self, c, sup)
    }

    fn depth(&self, c: ConceptId) -> usize {
        FrozenTaxonomyView::depth(self, c)
    }

    fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        FrozenTaxonomyView::descendants(self, start)
    }
}

/// Boots a serving backend from a snapshot file — the constructor behind
/// `TaxonomyService::boot_from_file` and the zero-downtime `reload`.
pub trait BootSnapshot: Sized {
    /// Loads a snapshot file into this representation.
    fn boot_from_file(path: &Path) -> Result<Self, PersistError>;
}

impl BootSnapshot for FrozenTaxonomyView {
    /// One read; the buffer read from disk *is* the view's storage.
    fn boot_from_file(path: &Path) -> Result<Self, PersistError> {
        FrozenTaxonomyView::load_from_file(path)
    }
}

// Pinned by `benchmark/src/bin/cnp_layers/{main,probe}.rs`, which this
// repository's PRs may not edit alongside served code; the next
// `benchmark` PR renames its uses to `FrozenTaxonomyView` and deletes
// this line.
#[doc(hidden)]
pub type AnySnapshot = FrozenTaxonomyView;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::{DeltaOverlay, OverlayView};
    use crate::persist::encode_frozen_v3;
    use crate::store::{Source, TaxonomyStore};

    fn demo() -> FrozenTaxonomy {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_entity_is_a(liu, actor, IsAMeta::new(Source::Bracket, 0.96));
        FrozenTaxonomy::freeze(&s)
    }

    /// Generic query code must produce identical answers over all three
    /// `TaxonomyRead` implementations.
    fn describe<T: TaxonomyRead>(t: &T) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!(
            "{} {} {} {}",
            t.num_entities(),
            t.num_concepts(),
            t.num_is_a(),
            t.num_mentions()
        ));
        for e in t.men2ent("刘德华") {
            out.push(t.entity_key(e));
            for (c, m) in t.concepts_of(e) {
                out.push(format!(
                    "{} {:?} {}",
                    t.concept_name(c),
                    m.source,
                    m.confidence
                ));
                out.push(format!(
                    "anc {:?} depth {}",
                    t.ancestors(c).collect::<Vec<_>>(),
                    t.depth(c)
                ));
            }
        }
        if let Some(c) = t.find_concept("人物") {
            out.push(format!("desc {:?}", t.descendants(c)));
            out.push(format!("hypo {:?}", t.entities_of(c).collect::<Vec<_>>()));
        }
        out
    }

    #[test]
    fn all_representations_answer_identically() {
        let frozen = demo();
        let view = FrozenTaxonomyView::open(encode_frozen_v3(&frozen)).expect("open");
        let base = describe(&frozen);
        assert_eq!(describe(&view), base);
        assert_eq!(describe(&OverlayView::new(view)), base);
        assert_eq!(describe(&OverlayView::new(frozen)), base);
    }

    /// The distinct keys `t` lists, after checking the listing's contract:
    /// every key resolves, and the keys number `num_mentions`.
    fn listed_keys<T: TaxonomyRead>(t: &T) -> std::collections::BTreeSet<String> {
        let keys: std::collections::BTreeSet<String> = t
            .mention_keys()
            .expect("backend lists its keys")
            .map(str::to_string)
            .collect();
        for key in &keys {
            assert!(!t.men2ent(key).is_empty(), "{key:?} lists no sense");
        }
        assert_eq!(keys.len(), t.num_mentions());
        keys
    }

    /// The owned snapshot, its view and an overlay whose delta adds the
    /// rest of the same content list the same bare keys: names, aliases
    /// (two the same string as another entity's name, one of them a base
    /// name the overlay lists again), never a full key.
    #[test]
    fn mention_keys_are_the_same_set_on_every_backend() {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        s.add_entity("刘德华", Some("作家"));
        let singer = s.add_concept("歌手");
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
        let mut delta = DeltaOverlay::new();
        delta.add_entity("张学友", None);
        delta.add_alias("张学友", None, "歌神");
        delta.add_alias("刘德华", Some("中国香港男演员"), "华仔");
        delta.add_alias("刘德华", Some("作家"), "张学友");
        delta.add_alias("张学友", None, "刘德华");
        let base = FrozenTaxonomy::freeze(&s);
        delta.apply_to_store(&mut s);
        let frozen = FrozenTaxonomy::freeze(&s);
        let view = FrozenTaxonomyView::open(encode_frozen_v3(&frozen)).expect("open");
        let overlay = OverlayView::new(base).apply(&delta);

        let keys = listed_keys(&frozen);
        let expected = ["刘德华", "张学友", "歌神", "华仔"];
        assert_eq!(keys, expected.iter().map(|k| k.to_string()).collect());
        assert_eq!(listed_keys(&view), keys, "view");
        assert_eq!(listed_keys(&overlay), keys, "overlay");
        assert_eq!(listed_keys(&OverlayView::new(view)), keys, "empty overlay");
    }

    /// Two senses whose full keys are the same string, `甲（乙（丙）`: the
    /// owned snapshot, its view and an overlay all split it the same way
    /// and answer the sense the first split names, not the sense whose
    /// key was registered last.
    #[test]
    fn an_ambiguous_full_key_resolves_alike_on_every_backend() {
        let mut s = TaxonomyStore::new();
        let bracketed_disambig = s.add_entity("甲", Some("乙（丙"));
        let bracketed_name = s.add_entity("甲（乙", Some("丙"));
        assert_eq!(
            s.entity_key(bracketed_name),
            s.entity_key(bracketed_disambig)
        );
        let frozen = FrozenTaxonomy::freeze(&s);
        let view = FrozenTaxonomyView::open(encode_frozen_v3(&frozen)).expect("open");
        let want = vec![bracketed_disambig];
        assert_eq!(frozen.men2ent("甲（乙（丙）"), want.as_slice());
        assert_eq!(view.men2ent("甲（乙（丙）"), want);
        let overlay = OverlayView::new(view);
        assert_eq!(TaxonomyRead::men2ent(&overlay, "甲（乙（丙）"), want);
    }

    /// Every id-taking read of `t` at ids it does not hold: `n`, `n + 1`
    /// and `u32::MAX`, alone and beside a held id; then `resolve` of two
    /// symbols no backend holds, one with the overlay's tag bit set and
    /// one without.
    fn foreign_answers<T: TaxonomyRead>(t: &T) -> Vec<String> {
        let past = |n: usize| [n as u32, n as u32 + 1, u32::MAX];
        let (held_e, held_c) = (EntityId(0), ConceptId(0));
        let mut out = Vec::new();
        for e in past(t.num_entities()).map(EntityId) {
            out.push(format!(
                "{:?} {:?} {} {:?}",
                t.entity(e),
                t.entity_key(e),
                t.concepts_of(e).count(),
                t.entity_edge(e, held_c),
            ));
        }
        for c in past(t.num_concepts()).map(ConceptId) {
            out.push(format!(
                "{:?} {} {} {} {} {} {} {} {} {:?} {:?}",
                t.concept_name(c),
                t.entities_of(c).count(),
                t.entities_with_confidence(c).count(),
                t.parents_of(c).count(),
                t.children_of(c).count(),
                t.ancestors(c).count(),
                t.ancestor_contains(c, held_c),
                t.ancestor_contains(held_c, c),
                t.depth(c),
                t.descendants(c),
                t.entity_edge(held_e, c),
            ));
        }
        out.push(format!(
            "{:?} {:?}",
            t.resolve(Symbol(u32::MAX)),
            t.resolve(Symbol(u32::MAX >> 1))
        ));
        out
    }

    /// `EntityId`, `ConceptId` and `Symbol` are plain numbers anyone can
    /// build: an id a snapshot does not hold must read as the empty
    /// answer — no panic, no bytes of a neighbouring section — and the
    /// same one on every backend, an overlay that appended ids and
    /// strings of its own included.
    #[test]
    fn foreign_ids_read_as_empty_on_every_backend() {
        let frozen = demo();
        let view = FrozenTaxonomyView::open(encode_frozen_v3(&frozen)).expect("open");
        let mut delta = DeltaOverlay::new();
        delta.upsert_entity_is_a("张学友", None, "歌手", IsAMeta::new(Source::Tag, 0.9));
        delta.upsert_concept_is_a("歌手", "人物", IsAMeta::new(Source::SubConcept, 0.8));
        let grown = OverlayView::new(view.clone()).apply(&delta);
        assert_eq!(grown.num_entities(), 2);
        assert_eq!(grown.num_concepts(), 3);

        let entity = format!("{:?} \"\" 0 None", EntityRecord::UNKNOWN);
        let concept = "\"\" 0 0 0 0 0 false false 0 [] None".to_string();
        let symbols = "\"\" \"\"".to_string();
        let expected = [vec![entity; 3], vec![concept; 3], vec![symbols]].concat();
        assert_eq!(foreign_answers(&frozen), expected, "owned");
        assert_eq!(foreign_answers(&view), expected, "view");
        assert_eq!(
            foreign_answers(&OverlayView::new(view)),
            expected,
            "overlay"
        );
        assert_eq!(
            foreign_answers(&OverlayView::new(frozen)),
            expected,
            "overlay, owned"
        );
        assert_eq!(foreign_answers(&grown), expected, "overlay with a delta");
    }
}
