//! The isA graph store.
//!
//! CN-Probase's data model (paper §I, §IV): *disambiguated entities* (name
//! plus optional bracket disambiguation, e.g. 刘德华（中国香港男演员）),
//! *concepts* (演员), entity→concept isA edges and subconcept→concept
//! edges. Every edge carries provenance — which of the four sources
//! produced it — and a confidence, which the verification module and
//! cycle-repair use as a tie-breaker.
//!
//! The store also keeps per-entity attribute sets (infobox predicates),
//! which snapshots carry; verification strategy A (§III-A) builds its
//! attribute distributions from the pages, not from here.

use crate::hash::FxHashMap;
use crate::interner::{Interner, Symbol};

/// Which encyclopedia source produced an isA edge (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Separation algorithm on the bracket noun compound.
    Bracket,
    /// Neural (CopyNet) generation from the abstract.
    Abstract,
    /// Predicate discovery on infobox SPO triples.
    Infobox,
    /// Direct extraction from tags.
    Tag,
    /// Subconcept→concept edge derived during taxonomy assembly.
    SubConcept,
    /// Imported from an external taxonomy (used by the Table I baselines).
    Import,
}

impl Source {
    /// Stable wire id for persistence.
    pub fn to_u8(self) -> u8 {
        match self {
            Source::Bracket => 0,
            Source::Abstract => 1,
            Source::Infobox => 2,
            Source::Tag => 3,
            Source::SubConcept => 4,
            Source::Import => 5,
        }
    }

    /// Inverse of [`Source::to_u8`].
    pub fn from_u8(v: u8) -> Option<Source> {
        Some(match v {
            0 => Source::Bracket,
            1 => Source::Abstract,
            2 => Source::Infobox,
            3 => Source::Tag,
            4 => Source::SubConcept,
            5 => Source::Import,
            _ => return None,
        })
    }
}

/// Per-edge metadata: provenance and confidence in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsAMeta {
    /// Producing source.
    pub source: Source,
    /// Extraction confidence; higher survives dedup and cycle repair.
    pub confidence: f32,
}

impl IsAMeta {
    /// Convenience constructor. The confidence is clamped into `[0, 1]`;
    /// a NaN collapses to `0.0` so it can never poison the ordering used
    /// by dedup and cycle repair.
    pub fn new(source: Source, confidence: f32) -> Self {
        let confidence = if confidence.is_nan() {
            0.0
        } else {
            confidence.clamp(0.0, 1.0)
        };
        IsAMeta { source, confidence }
    }
}

/// Dense entity handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// Dense concept handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConceptId(pub u32);

impl EntityId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ConceptId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A disambiguated entity: surface name + optional bracket text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityRecord {
    /// Surface name (刘德华).
    pub name: Symbol,
    /// Bracket disambiguation (中国香港男演员), `Symbol(0)` when absent.
    pub disambig: Symbol,
}

impl EntityRecord {
    /// What every snapshot answers for an entity id it does not hold.
    pub(crate) const UNKNOWN: EntityRecord = EntityRecord {
        name: Symbol(0),
        disambig: Symbol(0),
    };
}

/// The taxonomy store.
#[derive(Debug, Clone, Default)]
pub struct TaxonomyStore {
    interner: Interner,
    entities: Vec<EntityRecord>,
    entity_by_key: FxHashMap<(Symbol, Symbol), EntityId>,
    concepts: Vec<Symbol>,
    concept_by_sym: FxHashMap<Symbol, ConceptId>,
    entity_concepts: Vec<Vec<(ConceptId, IsAMeta)>>,
    concept_entities: Vec<Vec<EntityId>>,
    concept_parents: Vec<Vec<(ConceptId, IsAMeta)>>,
    concept_children: Vec<Vec<ConceptId>>,
    entity_attrs: Vec<Vec<Symbol>>,
    entity_aliases: Vec<Vec<Symbol>>,
    n_entity_isa: usize,
    n_concept_isa: usize,
}

impl TaxonomyStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            interner: Interner::new(),
            ..Default::default()
        }
    }

    // ----- interning ------------------------------------------------------

    /// Interns a string.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Resolves a symbol.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Read-only access to the interner (persistence).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    // ----- entities -------------------------------------------------------

    /// Registers (or finds) a disambiguated entity.
    pub fn add_entity(&mut self, name: &str, disambig: Option<&str>) -> EntityId {
        let name_sym = self.interner.intern(name);
        let dis_sym = disambig.map_or(Symbol(0), |d| self.interner.intern(d));
        if let Some(&id) = self.entity_by_key.get(&(name_sym, dis_sym)) {
            return id;
        }
        let id = EntityId(self.entities.len() as u32);
        self.entities.push(EntityRecord {
            name: name_sym,
            disambig: dis_sym,
        });
        self.entity_concepts.push(Vec::new());
        self.entity_attrs.push(Vec::new());
        self.entity_aliases.push(Vec::new());
        self.entity_by_key.insert((name_sym, dis_sym), id);
        id
    }

    /// Finds an entity by exact name + disambiguation.
    pub fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
        let name_sym = self.interner.get(name)?;
        let dis_sym = match disambig {
            None => Symbol(0),
            Some(d) => self.interner.get(d)?,
        };
        self.entity_by_key.get(&(name_sym, dis_sym)).copied()
    }

    /// Record for an entity id.
    pub fn entity(&self, id: EntityId) -> EntityRecord {
        self.entities[id.index()]
    }

    /// Full display key: `name（disambig）` or just `name`.
    pub fn entity_key(&self, id: EntityId) -> String {
        let rec = self.entities[id.index()];
        let name = self.interner.resolve(rec.name);
        if rec.disambig == Symbol(0) {
            name.to_string()
        } else {
            format!("{name}（{}）", self.interner.resolve(rec.disambig))
        }
    }

    /// Number of registered entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Entities that participate in at least one isA edge.
    pub fn num_linked_entities(&self) -> usize {
        self.entity_concepts
            .iter()
            .filter(|v| !v.is_empty())
            .count()
    }

    /// Iterates all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entities.len() as u32).map(EntityId)
    }

    // ----- concepts -------------------------------------------------------

    /// Registers (or finds) a concept.
    pub fn add_concept(&mut self, name: &str) -> ConceptId {
        let sym = self.interner.intern(name);
        if let Some(&id) = self.concept_by_sym.get(&sym) {
            return id;
        }
        let id = ConceptId(self.concepts.len() as u32);
        self.concepts.push(sym);
        self.concept_entities.push(Vec::new());
        self.concept_parents.push(Vec::new());
        self.concept_children.push(Vec::new());
        self.concept_by_sym.insert(sym, id);
        id
    }

    /// Finds a concept by name.
    pub fn find_concept(&self, name: &str) -> Option<ConceptId> {
        let sym = self.interner.get(name)?;
        self.concept_by_sym.get(&sym).copied()
    }

    /// Concept name.
    pub fn concept_name(&self, id: ConceptId) -> &str {
        self.interner.resolve(self.concepts[id.index()])
    }

    /// Every concept's name symbol, by concept id.
    pub(crate) fn concept_symbols(&self) -> &[Symbol] {
        &self.concepts
    }

    /// Number of registered concepts.
    pub fn num_concepts(&self) -> usize {
        self.concepts.len()
    }

    /// Iterates all concept ids.
    pub fn concept_ids(&self) -> impl Iterator<Item = ConceptId> {
        (0..self.concepts.len() as u32).map(ConceptId)
    }

    // ----- edges ----------------------------------------------------------

    /// Adds an entity→concept isA edge. Duplicate edges are merged, keeping
    /// the higher confidence; returns `true` when the edge is new.
    pub fn add_entity_is_a(&mut self, e: EntityId, c: ConceptId, meta: IsAMeta) -> bool {
        let edges = &mut self.entity_concepts[e.index()];
        if let Some(existing) = edges.iter_mut().find(|(cc, _)| *cc == c) {
            if meta.confidence > existing.1.confidence {
                existing.1 = meta;
            }
            return false;
        }
        edges.push((c, meta));
        self.concept_entities[c.index()].push(e);
        self.n_entity_isa += 1;
        true
    }

    /// Adds a subconcept→concept isA edge. Self-loops are rejected;
    /// duplicates merge like entity edges. Returns `true` when new.
    pub fn add_concept_is_a(&mut self, sub: ConceptId, sup: ConceptId, meta: IsAMeta) -> bool {
        if sub == sup {
            return false;
        }
        let edges = &mut self.concept_parents[sub.index()];
        if let Some(existing) = edges.iter_mut().find(|(cc, _)| *cc == sup) {
            if meta.confidence > existing.1.confidence {
                existing.1 = meta;
            }
            return false;
        }
        edges.push((sup, meta));
        self.concept_children[sup.index()].push(sub);
        self.n_concept_isa += 1;
        true
    }

    /// Removes an entity→concept edge; returns `true` when it existed.
    pub fn remove_entity_is_a(&mut self, e: EntityId, c: ConceptId) -> bool {
        let edges = &mut self.entity_concepts[e.index()];
        let before = edges.len();
        edges.retain(|(cc, _)| *cc != c);
        if edges.len() == before {
            return false;
        }
        self.concept_entities[c.index()].retain(|&ee| ee != e);
        self.n_entity_isa -= 1;
        true
    }

    /// Overwrites the metadata of an existing entity→concept edge **in
    /// place**: the edge keeps its position in both adjacency rows, so a
    /// confidence *decrease* — which [`TaxonomyStore::add_entity_is_a`]'s
    /// max-merge refuses — re-ranks serving output without perturbing the
    /// insertion order other rows are built from. Returns `false` (and
    /// changes nothing) when the edge does not exist.
    pub fn set_entity_is_a_meta(&mut self, e: EntityId, c: ConceptId, meta: IsAMeta) -> bool {
        match self.entity_concepts[e.index()]
            .iter_mut()
            .find(|(cc, _)| *cc == c)
        {
            Some(existing) => {
                existing.1 = meta;
                true
            }
            None => false,
        }
    }

    /// Overwrites the metadata of an existing subconcept→concept edge in
    /// place; see [`TaxonomyStore::set_entity_is_a_meta`]. Returns `false`
    /// when the edge does not exist.
    pub fn set_concept_is_a_meta(&mut self, sub: ConceptId, sup: ConceptId, meta: IsAMeta) -> bool {
        match self.concept_parents[sub.index()]
            .iter_mut()
            .find(|(cc, _)| *cc == sup)
        {
            Some(existing) => {
                existing.1 = meta;
                true
            }
            None => false,
        }
    }

    /// Removes a subconcept→concept edge; returns `true` when it existed.
    pub fn remove_concept_is_a(&mut self, sub: ConceptId, sup: ConceptId) -> bool {
        let edges = &mut self.concept_parents[sub.index()];
        let before = edges.len();
        edges.retain(|(cc, _)| *cc != sup);
        if edges.len() == before {
            return false;
        }
        self.concept_children[sup.index()].retain(|&ss| ss != sub);
        self.n_concept_isa -= 1;
        true
    }

    /// Direct concepts of an entity, with edge metadata.
    pub fn concepts_of(&self, e: EntityId) -> &[(ConceptId, IsAMeta)] {
        &self.entity_concepts[e.index()]
    }

    /// Direct entities of a concept, in insertion order.
    pub fn entities_of(&self, c: ConceptId) -> &[EntityId] {
        &self.concept_entities[c.index()]
    }

    /// Direct entities of a concept in *serving rank order*: descending
    /// edge confidence, entity id as tie-break. This is the one definition
    /// of the order [`crate::frozen::FrozenTaxonomy`] freezes into its
    /// hyponym rows (and that `getEntity` limits/pagination rely on).
    /// The freeze ranks its CSR rows in place by the same key, and the
    /// equivalence tests compare those rows with this method, so the two
    /// cannot drift apart unnoticed.
    pub fn ranked_entities_of(&self, c: ConceptId) -> Vec<EntityId> {
        let mut keyed: Vec<(f32, EntityId)> = self
            .entities_of(c)
            .iter()
            .map(|&e| {
                let conf = self
                    .concepts_of(e)
                    .iter()
                    .find(|&&(cc, _)| cc == c)
                    .map_or(0.0, |&(_, m)| m.confidence);
                (conf, e)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        keyed.into_iter().map(|(_, e)| e).collect()
    }

    /// Direct parent concepts of a concept, with edge metadata.
    pub fn parents_of(&self, c: ConceptId) -> &[(ConceptId, IsAMeta)] {
        &self.concept_parents[c.index()]
    }

    /// Direct child concepts of a concept.
    pub fn children_of(&self, c: ConceptId) -> &[ConceptId] {
        &self.concept_children[c.index()]
    }

    /// Total isA edges (entity→concept + subconcept→concept), the headline
    /// count of Table I.
    pub fn num_is_a(&self) -> usize {
        self.n_entity_isa + self.n_concept_isa
    }

    /// Entity→concept edge count.
    pub fn num_entity_is_a(&self) -> usize {
        self.n_entity_isa
    }

    /// Subconcept→concept edge count.
    pub fn num_concept_is_a(&self) -> usize {
        self.n_concept_isa
    }

    // ----- attributes & aliases -------------------------------------------

    /// Attaches an infobox attribute (predicate name) to an entity.
    pub fn add_attribute(&mut self, e: EntityId, attr: &str) {
        let sym = self.interner.intern(attr);
        let attrs = &mut self.entity_attrs[e.index()];
        if !attrs.contains(&sym) {
            attrs.push(sym);
        }
    }

    /// Attribute symbols of an entity.
    pub fn attributes_of(&self, e: EntityId) -> &[Symbol] {
        &self.entity_attrs[e.index()]
    }

    /// Adds a surface alias for `men2ent` (e.g. the English name Andy Lau).
    pub fn add_alias(&mut self, e: EntityId, alias: &str) {
        let sym = self.interner.intern(alias);
        let aliases = &mut self.entity_aliases[e.index()];
        if !aliases.contains(&sym) {
            aliases.push(sym);
        }
    }

    /// Alias symbols of an entity.
    pub fn aliases_of(&self, e: EntityId) -> &[Symbol] {
        &self.entity_aliases[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(src: Source) -> IsAMeta {
        IsAMeta::new(src, 0.9)
    }

    #[test]
    fn entities_are_deduplicated_by_name_and_disambig() {
        let mut s = TaxonomyStore::new();
        let a = s.add_entity("刘德华", Some("中国香港男演员"));
        let b = s.add_entity("刘德华", Some("中国香港男演员"));
        let c = s.add_entity("刘德华", Some("数学家"));
        let d = s.add_entity("刘德华", None);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(s.num_entities(), 3);
    }

    #[test]
    fn entity_key_formats_disambiguation() {
        let mut s = TaxonomyStore::new();
        let a = s.add_entity("刘德华", Some("男演员"));
        let b = s.add_entity("演员", None);
        assert_eq!(s.entity_key(a), "刘德华（男演员）");
        assert_eq!(s.entity_key(b), "演员");
    }

    #[test]
    fn is_a_edges_count_and_dedup() {
        let mut s = TaxonomyStore::new();
        let e = s.add_entity("刘德华", None);
        let c1 = s.add_concept("演员");
        let c2 = s.add_concept("歌手");
        assert!(s.add_entity_is_a(e, c1, meta(Source::Tag)));
        assert!(!s.add_entity_is_a(e, c1, meta(Source::Bracket)));
        assert!(s.add_entity_is_a(e, c2, meta(Source::Bracket)));
        assert_eq!(s.num_is_a(), 2);
        assert_eq!(s.concepts_of(e).len(), 2);
        assert_eq!(s.entities_of(c1), &[e]);
    }

    #[test]
    fn duplicate_edge_keeps_max_confidence() {
        let mut s = TaxonomyStore::new();
        let e = s.add_entity("e", None);
        let c = s.add_concept("c");
        s.add_entity_is_a(e, c, IsAMeta::new(Source::Tag, 0.5));
        s.add_entity_is_a(e, c, IsAMeta::new(Source::Bracket, 0.9));
        assert_eq!(s.concepts_of(e)[0].1.confidence, 0.9);
        // Lower confidence does not downgrade.
        s.add_entity_is_a(e, c, IsAMeta::new(Source::Tag, 0.1));
        assert_eq!(s.concepts_of(e)[0].1.confidence, 0.9);
    }

    #[test]
    fn remove_entity_is_a_updates_both_directions() {
        let mut s = TaxonomyStore::new();
        let e = s.add_entity("e", None);
        let c = s.add_concept("c");
        s.add_entity_is_a(e, c, meta(Source::Tag));
        assert!(s.remove_entity_is_a(e, c));
        assert!(!s.remove_entity_is_a(e, c));
        assert_eq!(s.num_is_a(), 0);
        assert!(s.entities_of(c).is_empty());
        assert!(s.concepts_of(e).is_empty());
    }

    #[test]
    fn concept_self_loop_rejected() {
        let mut s = TaxonomyStore::new();
        let c = s.add_concept("演员");
        assert!(!s.add_concept_is_a(c, c, meta(Source::SubConcept)));
        assert_eq!(s.num_is_a(), 0);
    }

    #[test]
    fn concept_hierarchy_edges() {
        let mut s = TaxonomyStore::new();
        let sub = s.add_concept("男演员");
        let sup = s.add_concept("演员");
        assert!(s.add_concept_is_a(sub, sup, meta(Source::SubConcept)));
        assert_eq!(s.parents_of(sub)[0].0, sup);
        assert_eq!(s.children_of(sup), &[sub]);
        assert!(s.remove_concept_is_a(sub, sup));
        assert_eq!(s.num_concept_is_a(), 0);
    }

    #[test]
    fn linked_entities_counts_only_entities_with_edges() {
        let mut s = TaxonomyStore::new();
        let e1 = s.add_entity("a", None);
        let _e2 = s.add_entity("b", None);
        let c = s.add_concept("c");
        s.add_entity_is_a(e1, c, meta(Source::Tag));
        assert_eq!(s.num_entities(), 2);
        assert_eq!(s.num_linked_entities(), 1);
    }

    #[test]
    fn attributes_and_aliases_dedup() {
        let mut s = TaxonomyStore::new();
        let e = s.add_entity("e", None);
        s.add_attribute(e, "职业");
        s.add_attribute(e, "职业");
        s.add_alias(e, "别名");
        s.add_alias(e, "别名");
        assert_eq!(s.attributes_of(e).len(), 1);
        assert_eq!(s.aliases_of(e).len(), 1);
    }

    #[test]
    fn is_a_meta_clamps_confidence_and_absorbs_nan() {
        assert_eq!(IsAMeta::new(Source::Tag, f32::NAN).confidence, 0.0);
        assert_eq!(IsAMeta::new(Source::Tag, 1.5).confidence, 1.0);
        assert_eq!(IsAMeta::new(Source::Tag, -0.5).confidence, 0.0);
        assert_eq!(IsAMeta::new(Source::Tag, 0.7).confidence, 0.7);
    }

    #[test]
    fn source_wire_roundtrip() {
        for src in [
            Source::Bracket,
            Source::Abstract,
            Source::Infobox,
            Source::Tag,
            Source::SubConcept,
            Source::Import,
        ] {
            assert_eq!(Source::from_u8(src.to_u8()), Some(src));
        }
        assert_eq!(Source::from_u8(99), None);
    }
}
