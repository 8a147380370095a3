//! Frozen read-path snapshot of a finished taxonomy.
//!
//! The deployed CN-Probase answers Table II traffic at scale (43.9 M
//! `men2ent` calls over six months); serving those queries off the mutable
//! build-time [`TaxonomyStore`] means pointer-chasing `Vec<Vec<_>>`
//! adjacency, a mutex-guarded ancestor cache and per-call depth/LCA
//! recomputation. [`FrozenTaxonomy`] is the immutable, densely packed
//! serving snapshot: every adjacency is CSR (offset + flat array), the
//! concept DAG's topological order and exact depths are precomputed, and
//! the transitive-ancestor closure is materialised so `getConcept
//! (transitive)` and similarity queries read slices instead of running a
//! BFS — lock-free, `&self`-only, shareable across any number of threads.
//!
//! Freeze once after construction ([`crate::closure::break_cycles`] first;
//! a still-cyclic store is tolerated by collapsing each cycle to one
//! component), then serve forever. Construction cost is `O(V + E)` for the
//! graph plus the size of the ancestor closure — for taxonomies (shallow,
//! near-tree DAGs) that closure is small; it is *not* recommended for
//! arbitrary dense DAGs.
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

use crate::hash::FxHashMap;
use crate::interner::{Interner, Symbol};
use crate::read::TaxonomyRead;
use crate::store::{ConceptId, EntityId, EntityRecord, IsAMeta, TaxonomyStore};
use crate::topo::Condensation;
use cnp_runtime::Runtime;

/// Compressed sparse row storage: `row(i)` is a contiguous slice.
///
/// Not `Default`: `offsets` always holds at least the leading 0 (both
/// constructors see to it), which is what `num_rows` stands on.
#[derive(Debug, Clone)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Packs `rows` into one flat array plus offsets.
    fn from_rows<'a, I>(rows: I) -> Self
    where
        T: 'a,
        I: Iterator<Item = &'a [T]>,
    {
        let mut offsets = Vec::with_capacity(rows.size_hint().0 + 1);
        offsets.push(0);
        let mut data = Vec::new();
        for row in rows {
            data.extend_from_slice(row);
            #[expect(
                clippy::expect_used,
                reason = "build-time freeze path, not the serving read path; a >4 GiB CSR is a build bug worth aborting on"
            )]
            offsets.push(u32::try_from(data.len()).expect("CSR overflow"));
        }
        Csr { offsets, data }
    }

    /// Rebuilds a CSR from decoded rows. The caller
    /// (`FrozenTaxonomyView::to_frozen`) builds the offsets itself: first
    /// offset 0, monotone offsets, final offset equal to `data.len()`.
    pub(crate) fn from_parts(offsets: Vec<u32>, data: Vec<T>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().copied().unwrap_or(0) as usize, data.len());
        Csr { offsets, data }
    }

    /// Unpacks into one owned row per CSR row, the build store's form;
    /// the flat arrays are freed on return.
    pub(crate) fn into_rows(self) -> Vec<Vec<T>> {
        (0..self.num_rows()).map(|i| self.row(i).to_vec()).collect()
    }

    /// Flat entry array (all rows concatenated), for the snapshot codec.
    pub(crate) fn data(&self) -> &[T] {
        &self.data
    }

    /// The `i`-th row as a slice; empty past the last row, so an id from
    /// another snapshot reads as one with no edges.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        match self.offsets.get(i..) {
            Some(&[start, end, ..]) => self
                .data
                .get(start as usize..end as usize)
                .unwrap_or_default(),
            _ => &[],
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total entries across all rows.
    pub fn num_entries(&self) -> usize {
        self.data.len()
    }
}

/// Immutable, read-optimized snapshot of a [`TaxonomyStore`].
///
/// All lookups are `&self`, allocation-free where the result is a slice,
/// and never take a lock — the struct is `Send + Sync` by construction.
#[derive(Debug, Clone)]
pub struct FrozenTaxonomy {
    // Fields are `pub(crate)` so the snapshot codec in [`crate::persist`]
    // can serialize and (after validation) reconstruct the struct.
    pub(crate) interner: Interner,
    pub(crate) entities: Vec<EntityRecord>,
    pub(crate) entity_by_key: FxHashMap<(Symbol, Symbol), EntityId>,
    pub(crate) concepts: Vec<Symbol>,
    pub(crate) concept_by_sym: FxHashMap<Symbol, ConceptId>,
    pub(crate) entity_concepts: Csr<(ConceptId, IsAMeta)>,
    pub(crate) concept_entities: Csr<EntityId>,
    pub(crate) concept_parents: Csr<(ConceptId, IsAMeta)>,
    pub(crate) concept_children: Csr<ConceptId>,
    pub(crate) entity_attrs: Csr<Symbol>,
    pub(crate) entity_aliases: Csr<Symbol>,
    /// Transitive-ancestor closure, one sorted row per concept.
    pub(crate) ancestors: Csr<ConceptId>,
    /// Topological order: parents before children, cycles adjacent.
    pub(crate) topo: Vec<ConceptId>,
    /// Exact depth per concept (longest chain to a root, cycles collapsed).
    pub(crate) depth: Vec<u32>,
    /// Mention table indexed by symbol: names and aliases → sorted senses.
    /// A full key `name（disambig）` is split and found in `entity_by_key`.
    pub(crate) by_mention: Csr<EntityId>,
}

impl FrozenTaxonomy {
    /// Freezes a finished store into the serving snapshot, parallelising
    /// the ancestor-closure materialisation over a default [`Runtime`].
    pub fn freeze(store: &TaxonomyStore) -> Self {
        Self::freeze_with(store, &Runtime::default())
    }

    /// Freezes a finished store on an existing [`Runtime`]. The snapshot
    /// is identical at every thread count.
    pub fn freeze_with(store: &TaxonomyStore, rt: &Runtime) -> Self {
        Self::freeze_parts(store, store.interner().clone(), rt)
    }

    /// [`Self::freeze_with`] of a store that is not needed afterwards (a
    /// compaction's): the snapshot takes over the store's strings instead
    /// of copying them, and the store's rows are freed on return.
    pub(crate) fn freeze_store(mut store: TaxonomyStore, rt: &Runtime) -> Self {
        let interner = store.take_interner();
        Self::freeze_parts(&store, interner, rt)
    }

    /// The freeze over `store`'s tables, with `interner` (the store's
    /// strings) as the snapshot's.
    #[expect(
        clippy::indexing_slicing,
        reason = "build-time freeze path: `comps` / `comp_reach` are indexed by the component ids `cond` itself assigned (parents' components come first in its order), `mention_rows` has one row per symbol of the interner it was sized from"
    )]
    fn freeze_parts(store: &TaxonomyStore, interner: Interner, rt: &Runtime) -> Self {
        let n_entities = store.num_entities();
        let n_concepts = store.num_concepts();

        let entities: Vec<EntityRecord> = store.entity_ids().map(|e| store.entity(e)).collect();
        let mut entity_by_key = FxHashMap::default();
        for (i, rec) in entities.iter().enumerate() {
            entity_by_key.insert((rec.name, rec.disambig), EntityId(i as u32));
        }

        let concepts: Vec<Symbol> = store.concept_symbols().to_vec();
        let mut concept_by_sym = FxHashMap::default();
        for (i, &sym) in concepts.iter().enumerate() {
            concept_by_sym.insert(sym, ConceptId(i as u32));
        }

        let entity_id = |i: usize| EntityId(i as u32);
        let concept_id = |i: usize| ConceptId(i as u32);
        let entity_concepts =
            Csr::from_rows((0..n_entities).map(|i| store.concepts_of(entity_id(i))));
        // Hyponym rows are *ranked* (`TaxonomyStore::ranked_entities_of`:
        // descending edge confidence, entity id as tie-break). This is the
        // serving-side enumeration order of `getEntity`, and pinning it at
        // freeze time is what makes limits and pagination cursors
        // deterministic across runs and thread counts (the build store
        // keeps insertion order, which depends on extraction scheduling
        // history).
        let ranked_rows: Vec<Vec<EntityId>> =
            rt.par_index_map(n_concepts, |ci| store.ranked_entities_of(concept_id(ci)));
        let concept_entities = Csr::from_rows(ranked_rows.iter().map(|r| r.as_slice()));
        let concept_parents =
            Csr::from_rows((0..n_concepts).map(|i| store.parents_of(concept_id(i))));
        let concept_children =
            Csr::from_rows((0..n_concepts).map(|i| store.children_of(concept_id(i))));
        let entity_attrs =
            Csr::from_rows((0..n_entities).map(|i| store.attributes_of(entity_id(i))));
        let entity_aliases =
            Csr::from_rows((0..n_entities).map(|i| store.aliases_of(entity_id(i))));

        // Topology: condensation → topo order, one-pass exact depths, and
        // the materialised ancestor closure (per component, then fanned out
        // to members so cycle members see each other as ancestors, exactly
        // like the BFS reachability of `closure::ancestors`).
        //
        // The component-reachability DP stays serial — component `i` reads
        // the finished rows of its parents, so it is inherently ordered —
        // but it is tiny (one row per component). The expensive part, one
        // sorted ancestor row per *concept*, has no cross-row dependency
        // and fans out over the runtime; each row is computed from the same
        // inputs regardless of scheduling, so the snapshot is byte-identical
        // at every thread count.
        let cond = Condensation::of(store);
        let depth = cond.depths(store);
        let topo = cond.topo_order();
        let comps = cond.components();
        let mut comp_reach: Vec<Vec<ConceptId>> = Vec::with_capacity(comps.len());
        for (i, members) in comps.iter().enumerate() {
            let mut set: Vec<ConceptId> = Vec::new();
            for &c in members {
                for &(p, _) in store.parents_of(c) {
                    let ps = cond.component_of(p);
                    if ps != i {
                        set.extend_from_slice(&comps[ps]);
                        set.extend_from_slice(&comp_reach[ps]);
                    }
                }
            }
            set.sort_unstable();
            set.dedup();
            comp_reach.push(set);
        }
        let ancestor_rows: Vec<Vec<ConceptId>> = rt.par_index_map(n_concepts, |ci| {
            let c = ConceptId(ci as u32);
            let comp = cond.component_of(c);
            let members = &comps[comp];
            let mut row: Vec<ConceptId> = members.iter().copied().filter(|&m| m != c).collect();
            row.extend_from_slice(&comp_reach[comp]);
            row.sort_unstable();
            row
        });
        let ancestors = Csr::from_rows(ancestor_rows.iter().map(|r| r.as_slice()));

        // Mention table: one row per interned symbol (symbols are dense),
        // covering entity names and aliases.
        let mut mention_rows: Vec<Vec<EntityId>> = vec![Vec::new(); interner.len()];
        for (i, rec) in entities.iter().enumerate() {
            let id = entity_id(i);
            mention_rows[rec.name.index()].push(id);
            for &alias in store.aliases_of(id) {
                mention_rows[alias.index()].push(id);
            }
        }
        for row in &mut mention_rows {
            row.sort_unstable();
            row.dedup();
        }
        let by_mention = Csr::from_rows(mention_rows.iter().map(|r| r.as_slice()));

        FrozenTaxonomy {
            interner,
            entities,
            entity_by_key,
            concepts,
            concept_by_sym,
            entity_concepts,
            concept_entities,
            concept_parents,
            concept_children,
            entity_attrs,
            entity_aliases,
            ancestors,
            topo,
            depth,
            by_mention,
        }
    }

    // ----- strings & handles ----------------------------------------------

    /// Resolves an interned symbol (`""` for a symbol this snapshot does
    /// not hold).
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Read-only access to the snapshot's interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
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

    /// Record for an entity id (empty name and disambiguation for an id
    /// this snapshot does not hold).
    pub fn entity(&self, id: EntityId) -> EntityRecord {
        self.entities
            .get(id.index())
            .copied()
            .unwrap_or(EntityRecord::UNKNOWN)
    }

    /// Full display key: `name（disambig）` or just `name` — the
    /// [`TaxonomyRead::entity_key`] default, callable without the trait in
    /// scope.
    pub fn entity_key(&self, id: EntityId) -> String {
        TaxonomyRead::entity_key(self, id)
    }

    /// Finds a concept by name.
    pub fn find_concept(&self, name: &str) -> Option<ConceptId> {
        let sym = self.interner.get(name)?;
        self.concept_by_sym.get(&sym).copied()
    }

    /// Concept name (`""` for an id this snapshot does not hold).
    pub fn concept_name(&self, id: ConceptId) -> &str {
        self.concepts
            .get(id.index())
            .map_or("", |&sym| self.interner.resolve(sym))
    }

    /// Iterates all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entities.len() as u32).map(EntityId)
    }

    /// Iterates all concept ids.
    pub fn concept_ids(&self) -> impl Iterator<Item = ConceptId> {
        (0..self.concepts.len() as u32).map(ConceptId)
    }

    // ----- counts ---------------------------------------------------------

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of concepts.
    pub fn num_concepts(&self) -> usize {
        self.concepts.len()
    }

    /// Entity→concept isA edges.
    pub fn num_entity_is_a(&self) -> usize {
        self.entity_concepts.num_entries()
    }

    /// Subconcept→concept isA edges.
    pub fn num_concept_is_a(&self) -> usize {
        self.concept_parents.num_entries()
    }

    /// Total isA edges.
    pub fn num_is_a(&self) -> usize {
        self.num_entity_is_a() + self.num_concept_is_a()
    }

    /// Number of distinct mention keys (names + aliases).
    pub fn num_mentions(&self) -> usize {
        self.mention_keys().count()
    }

    /// Every bare mention key (name or alias), once each, in symbol
    /// order: the strings of the non-empty mention rows.
    pub fn mention_keys(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.by_mention.num_rows())
            .filter(|&i| !self.by_mention.row(i).is_empty())
            .map(|i| self.interner.resolve(Symbol(i as u32)))
    }

    // ----- adjacency (CSR slices) -----------------------------------------

    /// Direct concepts of an entity, with edge metadata.
    pub fn concepts_of(&self, e: EntityId) -> &[(ConceptId, IsAMeta)] {
        self.entity_concepts.row(e.index())
    }

    /// Direct entities of a concept, ranked by descending edge confidence
    /// with entity id as tie-break — the stable hyponym enumeration order
    /// behind `getEntity` limits and pagination cursors.
    pub fn entities_of(&self, c: ConceptId) -> &[EntityId] {
        self.concept_entities.row(c.index())
    }

    /// Metadata of the entity→concept isA edge, if present. Entity rows
    /// hold a handful of concepts, where the linear scan beats any index.
    pub fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        self.concepts_of(e)
            .iter()
            .find(|&&(cc, _)| cc == c)
            .map(|&(_, m)| m)
    }

    /// Direct parent concepts, with edge metadata.
    pub fn parents_of(&self, c: ConceptId) -> &[(ConceptId, IsAMeta)] {
        self.concept_parents.row(c.index())
    }

    /// Direct child concepts.
    pub fn children_of(&self, c: ConceptId) -> &[ConceptId] {
        self.concept_children.row(c.index())
    }

    /// Attribute symbols of an entity.
    pub fn attributes_of(&self, e: EntityId) -> &[Symbol] {
        self.entity_attrs.row(e.index())
    }

    /// Alias symbols of an entity.
    pub fn aliases_of(&self, e: EntityId) -> &[Symbol] {
        self.entity_aliases.row(e.index())
    }

    // ----- precomputed topology -------------------------------------------

    /// All transitive ancestors of a concept as a sorted slice — the
    /// precomputed equivalent of [`crate::closure::ancestors`], with no
    /// queue, no visited set and no allocation per query.
    pub fn ancestors_of(&self, c: ConceptId) -> &[ConceptId] {
        self.ancestors.row(c.index())
    }

    /// Iterator form of [`Self::ancestors_of`]; never allocates.
    pub fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        self.ancestors_of(c).iter().copied()
    }

    /// Topological order of the concepts (parents before children).
    pub fn topo_order(&self) -> &[ConceptId] {
        &self.topo
    }

    /// Exact depth of a concept: longest parent-chain length to a root
    /// (0 for roots, and for an id this snapshot does not hold), from the
    /// freeze-time DP pass.
    pub fn depth(&self, c: ConceptId) -> usize {
        self.depth.get(c.index()).map_or(0, |&d| d as usize)
    }

    /// All transitive descendant concepts in BFS order (used by
    /// `getEntity(transitive)`); allocates its output like any listing API.
    /// Empty for an id this snapshot does not hold.
    pub fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        let mut seen = vec![false; self.concepts.len()];
        let mut order = Vec::new();
        let Some(s) = seen.get_mut(start.index()) else {
            return order;
        };
        *s = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(c) = queue.pop_front() {
            for &ch in self.children_of(c) {
                if let Some(s @ false) = seen.get_mut(ch.index()) {
                    *s = true;
                    order.push(ch);
                    queue.push_back(ch);
                }
            }
        }
        order
    }

    // ----- mention resolution (men2ent) -----------------------------------

    /// Resolves a mention to candidate entity senses, allocation-free.
    ///
    /// A disambiguated key (`刘德华（中国香港男演员）`) resolves to exactly
    /// its sense; a bare name or alias resolves to every matching sense.
    /// Full keys are only tried when the mention carries a `（…）`
    /// disambiguation, so a bracket-less sense can never shadow its
    /// disambiguated siblings. They are split the way the view splits
    /// them (`mention::full_key_splits`), so both find the same sense.
    pub fn men2ent(&self, mention: &str) -> &[EntityId] {
        if crate::mention::has_disambig(mention) {
            let sense = crate::mention::full_key_splits(mention).find_map(|(name, disambig)| {
                let key = (self.interner.get(name)?, self.interner.get(disambig)?);
                self.entity_by_key.get(&key)
            });
            if let Some(id) = sense {
                return std::slice::from_ref(id);
            }
        }
        match self.interner.get(mention) {
            Some(sym) => self.by_mention.row(sym.index()),
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure;
    use crate::mention::MentionIndex;
    use crate::query;
    use crate::store::Source;
    use proptest::prelude::*;

    fn meta(conf: f32) -> IsAMeta {
        IsAMeta::new(Source::SubConcept, conf)
    }

    /// 男演员 → 演员 → 人物; 歌手 → 人物; entities 刘德华 (2 senses), 张学友.
    fn demo_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let liu_bare = s.add_entity("刘德华", None);
        let zhang = s.add_entity("张学友", None);
        s.add_alias(liu, "Andy Lau");
        s.add_attribute(liu, "职业");
        let male_actor = s.add_concept("男演员");
        let actor = s.add_concept("演员");
        let singer = s.add_concept("歌手");
        let person = s.add_concept("人物");
        s.add_concept_is_a(male_actor, actor, meta(0.9));
        s.add_concept_is_a(actor, person, meta(0.9));
        s.add_concept_is_a(singer, person, meta(0.9));
        s.add_entity_is_a(liu, male_actor, IsAMeta::new(Source::Bracket, 0.95));
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
        s.add_entity_is_a(liu_bare, singer, IsAMeta::new(Source::Tag, 0.5));
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.9));
        s
    }

    #[test]
    fn adjacency_rows_match_store() {
        let s = demo_store();
        let f = FrozenTaxonomy::freeze(&s);
        assert_eq!(f.num_entities(), s.num_entities());
        assert_eq!(f.num_concepts(), s.num_concepts());
        assert_eq!(f.num_entity_is_a(), s.num_entity_is_a());
        assert_eq!(f.num_concept_is_a(), s.num_concept_is_a());
        for e in s.entity_ids() {
            assert_eq!(f.concepts_of(e), s.concepts_of(e));
            assert_eq!(f.attributes_of(e), s.attributes_of(e));
            assert_eq!(f.aliases_of(e), s.aliases_of(e));
            assert_eq!(f.entity_key(e), s.entity_key(e));
        }
        for c in s.concept_ids() {
            assert_eq!(f.entities_of(c), s.ranked_entities_of(c).as_slice());
            assert_eq!(f.parents_of(c), s.parents_of(c));
            assert_eq!(f.children_of(c), s.children_of(c));
            assert_eq!(f.concept_name(c), s.concept_name(c));
        }
    }

    /// Regression (ISSUE 5 satellite): hyponym rows must come out ranked by
    /// descending edge confidence with id as tie-break, identically at
    /// every thread count — insertion order depended on extraction history.
    #[test]
    fn entities_of_is_confidence_ranked_at_any_thread_count() {
        let mut s = TaxonomyStore::new();
        let c = s.add_concept("歌手");
        let unlinked = s.add_concept("演员");
        // Insert in an order that is neither confidence- nor id-sorted,
        // with a confidence tie to exercise the id tie-break.
        let e0 = s.add_entity("甲", None);
        let e1 = s.add_entity("乙", None);
        let e2 = s.add_entity("丙", None);
        let e3 = s.add_entity("丁", None);
        s.add_entity_is_a(e1, c, IsAMeta::new(Source::Tag, 0.5));
        s.add_entity_is_a(e3, c, IsAMeta::new(Source::Tag, 0.9));
        s.add_entity_is_a(e0, c, IsAMeta::new(Source::Tag, 0.5));
        s.add_entity_is_a(e2, c, IsAMeta::new(Source::Bracket, 0.7));
        let want = vec![e3, e2, e0, e1];
        for threads in [1, 8] {
            let f = FrozenTaxonomy::freeze_with(&s, &Runtime::new(threads));
            assert_eq!(f.entities_of(c), want.as_slice(), "threads={threads}");
            assert_eq!(f.entity_edge(e3, c).unwrap().confidence, 0.9);
            assert!(f.entity_edge(e3, unlinked).is_none());
        }
        assert_eq!(
            FrozenTaxonomy::freeze(&s).entity_edge(e0, c),
            Some(IsAMeta::new(Source::Tag, 0.5))
        );
    }

    #[test]
    fn ancestors_match_bfs_closure() {
        let s = demo_store();
        let f = FrozenTaxonomy::freeze(&s);
        for c in s.concept_ids() {
            let mut bfs = closure::ancestors(&s, c);
            bfs.sort_unstable();
            assert_eq!(f.ancestors_of(c), bfs.as_slice(), "concept {c:?}");
        }
    }

    #[test]
    fn depths_match_query_depth() {
        let s = demo_store();
        let f = FrozenTaxonomy::freeze(&s);
        for c in s.concept_ids() {
            assert_eq!(f.depth(c), query::depth(&s, c));
        }
    }

    #[test]
    fn topo_order_puts_parents_first() {
        let s = demo_store();
        let f = FrozenTaxonomy::freeze(&s);
        let topo = f.topo_order();
        assert_eq!(topo.len(), f.num_concepts());
        let pos: FxHashMap<ConceptId, usize> =
            topo.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        for c in f.concept_ids() {
            for &(p, _) in f.parents_of(c) {
                assert!(pos[&p] < pos[&c], "{p:?} must precede {c:?}");
            }
        }
    }

    #[test]
    fn men2ent_returns_every_sense_for_bare_names() {
        let s = demo_store();
        let f = FrozenTaxonomy::freeze(&s);
        // Bare name: both the bracket-less and the disambiguated sense.
        assert_eq!(f.men2ent("刘德华").len(), 2);
        // Full key: exactly the disambiguated sense.
        let hits = f.men2ent("刘德华（中国香港男演员）");
        assert_eq!(hits.len(), 1);
        assert_eq!(f.entity_key(hits[0]), "刘德华（中国香港男演员）");
        // Alias and unknowns.
        assert_eq!(f.men2ent("Andy Lau").len(), 1);
        assert!(f.men2ent("不存在").is_empty());
        assert!(f.men2ent("不存在（也不存在）").is_empty());
    }

    #[test]
    fn men2ent_matches_mention_index() {
        let mut s = demo_store();
        let f = FrozenTaxonomy::freeze(&s);
        let idx = MentionIndex::build(&mut s);
        for m in ["刘德华", "张学友", "Andy Lau", "刘德华（中国香港男演员）"] {
            assert_eq!(f.men2ent(m), idx.men2ent(&s, m).as_slice(), "mention {m}");
        }
    }

    #[test]
    fn descendants_match_bfs() {
        let s = demo_store();
        let f = FrozenTaxonomy::freeze(&s);
        for c in s.concept_ids() {
            assert_eq!(f.descendants(c), closure::descendants(&s, c));
        }
    }

    #[test]
    fn cyclic_store_is_tolerated() {
        let mut s = demo_store();
        let person = s.find_concept("人物").unwrap();
        let male_actor = s.find_concept("男演员").unwrap();
        s.add_concept_is_a(person, male_actor, meta(0.1));
        let f = FrozenTaxonomy::freeze(&s);
        // Cycle members see each other as ancestors, like BFS reachability.
        for c in s.concept_ids() {
            let mut bfs = closure::ancestors(&s, c);
            bfs.sort_unstable();
            assert_eq!(f.ancestors_of(c), bfs.as_slice());
            assert_eq!(f.depth(c), query::depth(&s, c));
        }
    }

    #[test]
    fn freeze_is_thread_count_independent() {
        let mut s = demo_store();
        // Include a cycle so the component fan-out path is exercised too.
        let person = s.find_concept("人物").unwrap();
        let male_actor = s.find_concept("男演员").unwrap();
        s.add_concept_is_a(person, male_actor, meta(0.1));
        let base = FrozenTaxonomy::freeze_with(&s, &Runtime::serial());
        for threads in [2, 8] {
            let f = FrozenTaxonomy::freeze_with(&s, &Runtime::new(threads));
            assert_eq!(f.topo_order(), base.topo_order(), "threads={threads}");
            for c in s.concept_ids() {
                assert_eq!(f.ancestors_of(c), base.ancestors_of(c));
                assert_eq!(f.depth(c), base.depth(c));
            }
        }
    }

    #[test]
    fn frozen_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenTaxonomy>();
    }

    proptest! {
        /// On random DAGs (edges always point from higher to lower id) the
        /// frozen snapshot agrees with the mutable-store algorithms.
        #[test]
        fn frozen_equals_mutable_on_random_dags(
            edges in proptest::collection::vec((0u32..24, 0u32..24, 0u32..100), 1..120),
            entity_links in proptest::collection::vec((0u32..8, 0u32..24), 0..24),
        ) {
            let mut s = TaxonomyStore::new();
            for i in 0..24 {
                s.add_concept(&format!("概念{i}"));
            }
            for i in 0..8 {
                s.add_entity(&format!("实体{i}"), None);
            }
            for &(a, b, conf) in &edges {
                let (sub, sup) = (a.max(b), a.min(b));
                if sub != sup {
                    s.add_concept_is_a(
                        ConceptId(sub),
                        ConceptId(sup),
                        meta(conf as f32 / 100.0),
                    );
                }
            }
            for &(e, c) in &entity_links {
                s.add_entity_is_a(EntityId(e), ConceptId(c), IsAMeta::new(Source::Tag, 0.8));
            }
            let f = FrozenTaxonomy::freeze(&s);
            for c in s.concept_ids() {
                let mut bfs = closure::ancestors(&s, c);
                bfs.sort_unstable();
                prop_assert_eq!(f.ancestors_of(c), bfs.as_slice());
                prop_assert_eq!(f.depth(c), query::depth(&s, c));
                prop_assert_eq!(f.descendants(c), closure::descendants(&s, c));
            }
        }
    }
}
