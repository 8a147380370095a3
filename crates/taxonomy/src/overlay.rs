//! Delta overlays: the incremental write path.
//!
//! CN-Probase is a *continuously refreshed* taxonomy (paper §V): the
//! pipeline re-runs over new encyclopedia pages while the old snapshot
//! keeps serving. Rebuilding and re-freezing the whole taxonomy for every
//! batch caps write throughput at "re-run the world", so this module adds
//! an LSM-flavoured write path over the immutable snapshots:
//!
//! * [`DeltaOverlay`] — a small immutable segment of taxonomy changes:
//!   new entities/concepts, new or re-weighted isA edges, aliases,
//!   attributes and explicit retractions. Internally it is an ordered op
//!   log (`DeltaOp`), which is also exactly how it replays onto a build
//!   store during compaction — one shared application order, so the
//!   overlay read view and the compacted snapshot can never disagree.
//! * [`OverlayView`] — a merging [`TaxonomyRead`]: any base snapshot plus
//!   the folded deltas, served through the same trait the executor,
//!   `TaxonomyService` and `cnp_server` already compile against. Each
//!   [`OverlayView::apply`] is cheap (it folds one op log; the base is
//!   shared behind an `Arc`) and produces a new immutable value — one
//!   generation swap per ingest, cursors stay generation-bound for free.
//! * [`IngestDelta`] — the serving-side write capability, implemented by
//!   [`OverlayView`]: apply a delta (one cheap fold) and fold accumulated
//!   overlays back into a fresh base (*compaction*, see `crate::compact`),
//!   which is byte-identical to a from-scratch freeze of the same logical
//!   content.
//!
//! Read-through contract: nothing outside this module, `compact.rs` and
//! the `persist.rs` codec may look inside a delta's op log — consumers go
//! through [`TaxonomyRead`] or the public builder API. `DeltaOp` and
//! `OverlayView::log` are `pub(crate)`, so outside this crate rustc
//! enforces it.

use crate::hash::{FxHashMap, FxHashSet};
use crate::interner::Symbol;
use crate::mention;
use crate::persist::{self, PersistError};
use crate::read::{BootSnapshot, TaxonomyRead};
use crate::store::{ConceptId, EntityId, EntityRecord, IsAMeta, TaxonomyStore};
use crate::topo::Condensation;
use bytes::Bytes;
use cnp_runtime::Runtime;
use std::path::Path;
use std::sync::Arc;

/// High bit marking a symbol minted by an overlay (the base interner is
/// `u32`-dense from zero and never reaches `2^31` strings; a snapshot that
/// large could not have been encoded). `resolve` dispatches on it.
pub(crate) const OVERLAY_SYM_TAG: u32 = 1 << 31;

/// One taxonomy change, in application order. String-keyed on purpose:
/// a delta is produced against one base generation but may be applied to
/// a later one, and surface keys are the only stable identity across
/// generations (dense ids shift with every compaction).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DeltaOp {
    /// Ensure an entity exists.
    Entity {
        name: String,
        disambig: Option<String>,
    },
    /// Ensure a concept exists.
    Concept { name: String },
    /// Add a surface alias to an entity (created if absent).
    Alias {
        name: String,
        disambig: Option<String>,
        alias: String,
    },
    /// Add an infobox attribute to an entity (created if absent).
    Attribute {
        name: String,
        disambig: Option<String>,
        attr: String,
    },
    /// Upsert an entity→concept isA edge with *exact* metadata: a new
    /// edge appends, an existing edge keeps its row position and takes
    /// `meta` verbatim (this is how a confidence *decrease* propagates —
    /// the build store's `add_entity_is_a` max-merge can only raise).
    EntityIsA {
        name: String,
        disambig: Option<String>,
        concept: String,
        meta: IsAMeta,
    },
    /// Upsert a subconcept→concept isA edge with exact metadata.
    ConceptIsA {
        sub: String,
        sup: String,
        meta: IsAMeta,
    },
    /// Remove an entity→concept edge. Unresolvable keys are a no-op.
    RetractEntityIsA {
        name: String,
        disambig: Option<String>,
        concept: String,
    },
    /// Remove a subconcept→concept edge. Unresolvable keys are a no-op.
    RetractConceptIsA { sub: String, sup: String },
}

/// An immutable batch of taxonomy changes — the unit of incremental
/// ingest. Build one with the `add_*`/`upsert_*`/`retract_*` methods (or
/// `PipelineOutcome::delta_against` in `cnp_core`), ship it as bytes
/// ([`DeltaOverlay::encode`]), and apply it to a serving snapshot through
/// [`IngestDelta`] or to a build store with
/// [`DeltaOverlay::apply_to_store`].
///
/// Application order is the construction order, and both application
/// paths (overlay fold and store replay) interpret the same log with the
/// same semantics — see the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaOverlay {
    pub(crate) ops: Vec<DeltaOp>,
}

fn norm(disambig: Option<&str>) -> Option<String> {
    disambig.filter(|d| !d.is_empty()).map(str::to_string)
}

impl DeltaOverlay {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// True when the delta records no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Records an entity (no-op on application if it already exists).
    pub fn add_entity(&mut self, name: &str, disambig: Option<&str>) {
        self.ops.push(DeltaOp::Entity {
            name: name.to_string(),
            disambig: norm(disambig),
        });
    }

    /// Records a concept.
    pub fn add_concept(&mut self, name: &str) {
        self.ops.push(DeltaOp::Concept {
            name: name.to_string(),
        });
    }

    /// Records a surface alias for an entity.
    pub fn add_alias(&mut self, name: &str, disambig: Option<&str>, alias: &str) {
        self.ops.push(DeltaOp::Alias {
            name: name.to_string(),
            disambig: norm(disambig),
            alias: alias.to_string(),
        });
    }

    /// Records an infobox attribute for an entity.
    pub fn add_attribute(&mut self, name: &str, disambig: Option<&str>, attr: &str) {
        self.ops.push(DeltaOp::Attribute {
            name: name.to_string(),
            disambig: norm(disambig),
            attr: attr.to_string(),
        });
    }

    /// Records an entity→concept isA upsert (exact metadata; see
    /// `DeltaOp::EntityIsA`).
    pub fn upsert_entity_is_a(
        &mut self,
        name: &str,
        disambig: Option<&str>,
        concept: &str,
        meta: IsAMeta,
    ) {
        self.ops.push(DeltaOp::EntityIsA {
            name: name.to_string(),
            disambig: norm(disambig),
            concept: concept.to_string(),
            meta,
        });
    }

    /// Records a subconcept→concept isA upsert.
    pub fn upsert_concept_is_a(&mut self, sub: &str, sup: &str, meta: IsAMeta) {
        self.ops.push(DeltaOp::ConceptIsA {
            sub: sub.to_string(),
            sup: sup.to_string(),
            meta,
        });
    }

    /// Records an entity→concept retraction.
    pub fn retract_entity_is_a(&mut self, name: &str, disambig: Option<&str>, concept: &str) {
        self.ops.push(DeltaOp::RetractEntityIsA {
            name: name.to_string(),
            disambig: norm(disambig),
            concept: concept.to_string(),
        });
    }

    /// Records a subconcept→concept retraction.
    pub fn retract_concept_is_a(&mut self, sub: &str, sup: &str) {
        self.ops.push(DeltaOp::RetractConceptIsA {
            sub: sub.to_string(),
            sup: sup.to_string(),
        });
    }

    /// Serializes the delta (sidecar format, magic `CNPD`).
    pub fn encode(&self) -> Bytes {
        persist::encode_delta(self)
    }

    /// Deserializes a delta, validating structure and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        persist::decode_delta(bytes)
    }

    /// Writes the delta to `path`.
    pub fn save_to_file(&self, path: &Path) -> Result<(), PersistError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Loads a delta from `path`.
    pub fn load_from_file(path: &Path) -> Result<Self, PersistError> {
        Self::decode(&std::fs::read(path)?)
    }

    /// Replays the delta onto a mutable build store, in log order. This is
    /// the compaction half of the write path; [`OverlayView::apply`] folds
    /// the identical log with identical semantics, which is what makes a
    /// compacted snapshot query-identical to the overlay it replaces.
    ///
    /// The store's tables are first reserved for exactly the entities,
    /// concepts and strings the delta adds: a store thawed at exact size
    /// would otherwise double them for the first new entity.
    pub fn apply_to_store(&self, store: &mut TaxonomyStore) {
        let new = NewKeys::of(&self.ops, store);
        store.reserve_exact(
            new.entities.len(),
            new.concepts.len(),
            new.strings.len(),
            new.text_bytes,
        );
        for op in &self.ops {
            match op {
                DeltaOp::Entity { name, disambig } => {
                    store.add_entity(name, disambig.as_deref());
                }
                DeltaOp::Concept { name } => {
                    store.add_concept(name);
                }
                DeltaOp::Alias {
                    name,
                    disambig,
                    alias,
                } => {
                    let e = store.add_entity(name, disambig.as_deref());
                    store.add_alias(e, alias);
                }
                DeltaOp::Attribute {
                    name,
                    disambig,
                    attr,
                } => {
                    let e = store.add_entity(name, disambig.as_deref());
                    store.add_attribute(e, attr);
                }
                DeltaOp::EntityIsA {
                    name,
                    disambig,
                    concept,
                    meta,
                } => {
                    let e = store.add_entity(name, disambig.as_deref());
                    let c = store.add_concept(concept);
                    if !store.add_entity_is_a(e, c, *meta) {
                        // Existed: the add max-merged, overwrite exactly.
                        store.set_entity_is_a_meta(e, c, *meta);
                    }
                }
                DeltaOp::ConceptIsA { sub, sup, meta } => {
                    let s = store.add_concept(sub);
                    let p = store.add_concept(sup);
                    if !store.add_concept_is_a(s, p, *meta) {
                        store.set_concept_is_a_meta(s, p, *meta);
                    }
                }
                DeltaOp::RetractEntityIsA {
                    name,
                    disambig,
                    concept,
                } => {
                    if let (Some(e), Some(c)) = (
                        store.find_entity(name, disambig.as_deref()),
                        store.find_concept(concept),
                    ) {
                        store.remove_entity_is_a(e, c);
                    }
                }
                DeltaOp::RetractConceptIsA { sub, sup } => {
                    if let (Some(s), Some(p)) = (store.find_concept(sub), store.find_concept(sup)) {
                        store.remove_concept_is_a(s, p);
                    }
                }
            }
        }
    }
}

/// The distinct entity keys, concept names and strings an op log would add
/// to a store, and the strings' total bytes.
#[derive(Default)]
struct NewKeys<'a> {
    entities: FxHashSet<(&'a str, Option<&'a str>)>,
    concepts: FxHashSet<&'a str>,
    strings: FxHashSet<&'a str>,
    text_bytes: usize,
}

impl<'a> NewKeys<'a> {
    fn of(ops: &'a [DeltaOp], store: &TaxonomyStore) -> Self {
        let mut new = NewKeys::default();
        for op in ops {
            match op {
                DeltaOp::Entity { name, disambig } => new.entity(store, name, disambig),
                DeltaOp::Concept { name } => new.concept(store, name),
                DeltaOp::Alias {
                    name,
                    disambig,
                    alias: s,
                }
                | DeltaOp::Attribute {
                    name,
                    disambig,
                    attr: s,
                } => {
                    new.entity(store, name, disambig);
                    new.string(store, s);
                }
                DeltaOp::EntityIsA {
                    name,
                    disambig,
                    concept,
                    ..
                } => {
                    new.entity(store, name, disambig);
                    new.concept(store, concept);
                }
                DeltaOp::ConceptIsA { sub, sup, .. } => {
                    new.concept(store, sub);
                    new.concept(store, sup);
                }
                DeltaOp::RetractEntityIsA { .. } | DeltaOp::RetractConceptIsA { .. } => {}
            }
        }
        new
    }

    fn entity(&mut self, store: &TaxonomyStore, name: &'a str, disambig: &'a Option<String>) {
        let disambig = disambig.as_deref();
        if store.find_entity(name, disambig).is_none() {
            self.entities.insert((name, disambig));
        }
        self.string(store, name);
        if let Some(d) = disambig {
            self.string(store, d);
        }
    }

    fn concept(&mut self, store: &TaxonomyStore, name: &'a str) {
        if store.find_concept(name).is_none() {
            self.concepts.insert(name);
        }
        self.string(store, name);
    }

    fn string(&mut self, store: &TaxonomyStore, s: &'a str) {
        if store.interner().get(s).is_none() && self.strings.insert(s) {
            self.text_bytes += s.len();
        }
    }
}

/// Patched entity→concept adjacency row: the *final* merged row for one
/// entity, plus the base row length for edge accounting.
#[derive(Debug, Clone, Default)]
struct PatchRow {
    base_len: usize,
    row: Vec<(ConceptId, IsAMeta)>,
}

/// Merged concept-graph tables, materialised only when a delta touches
/// the concept layer (new concepts or subconcept edges). Concepts are
/// orders of magnitude fewer than entities (paper Table I: 270K concepts
/// vs 16M entities), so rebuilding them per apply keeps the entity-heavy
/// side — the actual write volume — incremental.
#[derive(Debug, Clone)]
struct ConceptTables {
    /// Subconcept edge count of the base, recorded at activation.
    base_concept_edges: usize,
    /// Exact merged parent rows (base row order, upserts in place,
    /// additions appended in log order) — matches the compacted store.
    parents: Vec<Vec<(ConceptId, IsAMeta)>>,
    /// Exact merged child rows, same construction.
    children: Vec<Vec<ConceptId>>,
    /// Concepts whose parent row changed *topologically* since the last
    /// finalize (an edge appended or removed, or the concept is
    /// overlay-new) — the seeds of the affected set; drained by
    /// `finalize`. Meta-only upserts don't seed: they cannot move the
    /// closure.
    dirty: Vec<ConceptId>,
    /// Sorted transitive-ancestor rows, recomputed at fold finalize for
    /// *affected* concepts only: the dirty seeds plus their descendants
    /// in the merged graph. Every other concept's closure is provably
    /// unchanged, so reads serve the base's precomputed row instead of
    /// recomputing through the merged graph (the `AncestorsOf` fast
    /// path) — absence in this map *is* the fast path.
    ancestors: FxHashMap<ConceptId, Vec<ConceptId>>,
    /// Exact depths, same condensation DP as the freeze (`O(V + E)` per
    /// fold, run directly over the merged parent rows).
    depth: Vec<u32>,
}

/// The folded state of every applied delta: overlay string/entity/concept
/// tables plus patch indexes over the base. Immutable once built — an
/// apply clones and extends it into the next generation's state.
#[derive(Debug, Clone, Default)]
struct OverlayState {
    /// Full op log across all applied deltas, for compaction replay.
    log: DeltaOverlay,
    /// Number of applied deltas (the overlay depth compaction resets).
    deltas: usize,
    /// Overlay string table; `Symbol(OVERLAY_SYM_TAG | i)` resolves here.
    strings: Vec<String>,
    string_ids: FxHashMap<String, u32>,
    /// Appended entities; id = `base.num_entities() + index`.
    entities: Vec<EntityRecord>,
    /// `(name, disambig-or-empty)` → appended entity id.
    entity_ids: FxHashMap<(String, String), EntityId>,
    /// Full `name（disambig）` keys of appended disambiguated entities.
    full_keys: FxHashMap<String, EntityId>,
    /// New mention strings (names + aliases) → sorted candidate senses
    /// (may include base ids, via aliases added to existing entities).
    mentions: FxHashMap<String, Vec<EntityId>>,
    /// Appended concepts; id = `base.num_concepts() + index`.
    concept_names: Vec<String>,
    concept_ids: FxHashMap<String, ConceptId>,
    /// Final merged entity→concept rows for every touched entity.
    patches: FxHashMap<EntityId, PatchRow>,
    /// Concept → sorted touched entities (the patch rows to consult when
    /// enumerating that concept's extent).
    extent: FxHashMap<ConceptId, Vec<EntityId>>,
    tables: Option<ConceptTables>,
    /// Merged `num_is_a`, set at finalize.
    n_is_a: usize,
    /// Merged `num_mentions`, set at finalize.
    n_mentions: usize,
}

impl OverlayState {
    fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&i) = self.string_ids.get(s) {
            return Symbol(OVERLAY_SYM_TAG | i);
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.string_ids.insert(s.to_string(), i);
        Symbol(OVERLAY_SYM_TAG | i)
    }

    fn push_mention(&mut self, s: &str, id: EntityId) {
        let row = self.mentions.entry(s.to_string()).or_default();
        if let Err(pos) = row.binary_search(&id) {
            row.insert(pos, id);
        }
    }
}

/// A merging [`TaxonomyRead`]: `base` (any snapshot representation)
/// plus zero or more folded [`DeltaOverlay`]s, served as one consistent
/// read view. Values are immutable; [`OverlayView::apply`] returns the
/// next view, sharing the base behind an `Arc` — exactly the shape
/// `TaxonomyService::swap` wants for a per-ingest generation bump.
///
/// Answers are id- and order-identical to a compacted snapshot of the
/// same logical content (asserted by `tests/serve_equivalence.rs`): new
/// entities and concepts take dense ids after the base ranges in log
/// order, which is also the id order a compaction replay assigns.
#[derive(Debug)]
pub struct OverlayView<B> {
    base: Arc<B>,
    state: Arc<OverlayState>,
}

impl<B> Clone for OverlayView<B> {
    fn clone(&self) -> Self {
        OverlayView {
            base: Arc::clone(&self.base),
            state: Arc::clone(&self.state),
        }
    }
}

impl<B: TaxonomyRead> OverlayView<B> {
    /// Wraps a base snapshot with an empty overlay (depth 0). Reads
    /// delegate straight to the base until a delta is applied.
    pub fn new(base: B) -> Self {
        OverlayView {
            base: Arc::new(base),
            state: Arc::new(OverlayState::default()),
        }
    }

    /// The wrapped base snapshot.
    pub fn base(&self) -> &B {
        &self.base
    }

    /// Number of deltas folded on top of the base.
    pub fn overlay_depth(&self) -> usize {
        self.state.deltas
    }

    /// The accumulated op log (compaction replays it; see
    /// `crate::compact`).
    pub(crate) fn log(&self) -> &DeltaOverlay {
        &self.state.log
    }

    /// Folds one delta, producing the next read view. The base is shared;
    /// only the overlay state is copied and extended, so the cost scales
    /// with overlay size, not taxonomy size.
    pub fn apply(&self, delta: &DeltaOverlay) -> OverlayView<B> {
        let mut st = (*self.state).clone();
        st.deltas += 1;
        for op in &delta.ops {
            st.log.ops.push(op.clone());
            fold_op(self.base.as_ref(), &mut st, op);
        }
        finalize(self.base.as_ref(), &mut st);
        OverlayView {
            base: Arc::clone(&self.base),
            state: Arc::new(st),
        }
    }
}

// ----- fold: one DeltaOp onto the overlay state ---------------------------

fn ensure_entity<B: TaxonomyRead>(
    base: &B,
    st: &mut OverlayState,
    name: &str,
    disambig: Option<&str>,
) -> EntityId {
    let disambig = disambig.filter(|d| !d.is_empty());
    if let Some(id) = base.find_entity(name, disambig) {
        return id;
    }
    let key = (name.to_string(), disambig.unwrap_or("").to_string());
    if let Some(&id) = st.entity_ids.get(&key) {
        return id;
    }
    let id = EntityId((base.num_entities() + st.entities.len()) as u32);
    let name_sym = st.intern(name);
    let dis_sym = disambig.map_or(Symbol(0), |d| st.intern(d));
    st.entities.push(EntityRecord {
        name: name_sym,
        disambig: dis_sym,
    });
    st.entity_ids.insert(key, id);
    st.push_mention(name, id);
    if let Some(d) = disambig {
        st.full_keys.insert(format!("{name}（{d}）"), id);
    }
    // A fresh entity has an (empty) patch row: its adjacency lives
    // entirely in the overlay.
    st.patches.insert(id, PatchRow::default());
    id
}

fn find_entity_no_create<B: TaxonomyRead>(
    base: &B,
    st: &OverlayState,
    name: &str,
    disambig: Option<&str>,
) -> Option<EntityId> {
    let disambig = disambig.filter(|d| !d.is_empty());
    base.find_entity(name, disambig).or_else(|| {
        // Most overlays add no entity: skip building the probe key.
        if st.entity_ids.is_empty() {
            return None;
        }
        st.entity_ids
            .get(&(name.to_string(), disambig.unwrap_or("").to_string()))
            .copied()
    })
}

fn activate_tables<'a, B: TaxonomyRead>(
    base: &B,
    tables: &'a mut Option<ConceptTables>,
) -> &'a mut ConceptTables {
    tables.get_or_insert_with(|| {
        let n = base.num_concepts();
        let parents: Vec<Vec<(ConceptId, IsAMeta)>> = (0..n)
            .map(|i| base.parents_of(ConceptId(i as u32)).collect())
            .collect();
        let children: Vec<Vec<ConceptId>> = (0..n)
            .map(|i| base.children_of(ConceptId(i as u32)).collect())
            .collect();
        ConceptTables {
            base_concept_edges: parents.iter().map(Vec::len).sum(),
            parents,
            children,
            dirty: Vec::new(),
            ancestors: FxHashMap::default(),
            depth: Vec::new(),
        }
    })
}

fn ensure_concept<B: TaxonomyRead>(base: &B, st: &mut OverlayState, name: &str) -> ConceptId {
    if let Some(c) = base.find_concept(name) {
        return c;
    }
    if let Some(&c) = st.concept_ids.get(name) {
        return c;
    }
    let c = ConceptId((base.num_concepts() + st.concept_names.len()) as u32);
    st.concept_names.push(name.to_string());
    st.concept_ids.insert(name.to_string(), c);
    let t = activate_tables(base, &mut st.tables);
    t.parents.push(Vec::new());
    t.children.push(Vec::new());
    // The base has no closure row for an overlay-new concept, so it must
    // always be materialised, even while it has no edges.
    t.dirty.push(c);
    c
}

fn find_concept_no_create<B: TaxonomyRead>(
    base: &B,
    st: &OverlayState,
    name: &str,
) -> Option<ConceptId> {
    base.find_concept(name)
        .or_else(|| st.concept_ids.get(name).copied())
}

fn patch_row<'a, B: TaxonomyRead>(
    base: &B,
    patches: &'a mut FxHashMap<EntityId, PatchRow>,
    e: EntityId,
) -> &'a mut PatchRow {
    patches.entry(e).or_insert_with(|| {
        let row: Vec<(ConceptId, IsAMeta)> = base.concepts_of(e).collect();
        PatchRow {
            base_len: row.len(),
            row,
        }
    })
}

fn fold_op<B: TaxonomyRead>(base: &B, st: &mut OverlayState, op: &DeltaOp) {
    match op {
        DeltaOp::Entity { name, disambig } => {
            ensure_entity(base, st, name, disambig.as_deref());
        }
        DeltaOp::Concept { name } => {
            ensure_concept(base, st, name);
        }
        DeltaOp::Alias {
            name,
            disambig,
            alias,
        } => {
            let e = ensure_entity(base, st, name, disambig.as_deref());
            st.push_mention(alias, e);
        }
        DeltaOp::Attribute { name, disambig, .. } => {
            // Attributes are a build-time signal (verification strategy A);
            // they are invisible to TaxonomyRead but must still create the
            // entity, like the store replay does.
            ensure_entity(base, st, name, disambig.as_deref());
        }
        DeltaOp::EntityIsA {
            name,
            disambig,
            concept,
            meta,
        } => {
            let e = ensure_entity(base, st, name, disambig.as_deref());
            let c = ensure_concept(base, st, concept);
            let patch = patch_row(base, &mut st.patches, e);
            match patch.row.iter_mut().find(|(cc, _)| *cc == c) {
                Some(slot) => slot.1 = *meta,
                None => patch.row.push((c, *meta)),
            }
        }
        DeltaOp::ConceptIsA { sub, sup, meta } => {
            let s = ensure_concept(base, st, sub);
            let p = ensure_concept(base, st, sup);
            if s == p {
                return;
            }
            let t = activate_tables(base, &mut st.tables);
            match t.parents[s.index()].iter_mut().find(|(cc, _)| *cc == p) {
                Some(slot) => slot.1 = *meta,
                None => {
                    t.parents[s.index()].push((p, *meta));
                    t.children[p.index()].push(s);
                    t.dirty.push(s);
                }
            }
        }
        DeltaOp::RetractEntityIsA {
            name,
            disambig,
            concept,
        } => {
            let Some(e) = find_entity_no_create(base, st, name, disambig.as_deref()) else {
                return;
            };
            let Some(c) = find_concept_no_create(base, st, concept) else {
                return;
            };
            patch_row(base, &mut st.patches, e)
                .row
                .retain(|&(cc, _)| cc != c);
        }
        DeltaOp::RetractConceptIsA { sub, sup } => {
            let Some(s) = find_concept_no_create(base, st, sub) else {
                return;
            };
            let Some(p) = find_concept_no_create(base, st, sup) else {
                return;
            };
            let t = activate_tables(base, &mut st.tables);
            let before = t.parents[s.index()].len();
            t.parents[s.index()].retain(|&(cc, _)| cc != p);
            if t.parents[s.index()].len() != before {
                t.children[p.index()].retain(|&ss| ss != s);
                t.dirty.push(s);
            }
        }
    }
}

/// Rebuilds the derived indexes after a fold: per-concept extent patches,
/// merged edge/mention counts, and (when the concept layer changed) the
/// transitive closure + depths.
fn finalize<B: TaxonomyRead>(base: &B, st: &mut OverlayState) {
    st.extent.clear();
    let mut delta_entity_edges: isize = 0;
    let mut extent: FxHashMap<ConceptId, Vec<EntityId>> = FxHashMap::default();
    for (&e, patch) in &st.patches {
        delta_entity_edges += patch.row.len() as isize - patch.base_len as isize;
        let mut touched: Vec<ConceptId> = patch.row.iter().map(|&(c, _)| c).collect();
        if patch.base_len > 0 {
            touched.extend(base.concepts_of(e).map(|(c, _)| c));
        }
        touched.sort_unstable();
        touched.dedup();
        for c in touched {
            extent.entry(c).or_default().push(e);
        }
    }
    for row in extent.values_mut() {
        row.sort_unstable();
    }
    st.extent = extent;

    let mut delta_concept_edges: isize = 0;
    if let Some(t) = st.tables.as_mut() {
        let edges: usize = t.parents.iter().map(Vec::len).sum();
        delta_concept_edges = edges as isize - t.base_concept_edges as isize;

        // Depths are rebuilt exactly like the freeze — condensation +
        // one DP pass — run directly over the merged parent rows
        // (`of_rows`), so no carrier store is materialised.
        let n = t.parents.len();
        let ConceptTables {
            parents,
            children,
            dirty,
            ancestors,
            depth,
            ..
        } = t;
        let parents = &*parents;
        let cond = Condensation::of_rows(n, |c| &parents[c.index()][..]);
        *depth = cond.depths_rows(n, |c| &parents[c.index()][..]);

        // The AncestorsOf fast path: a concept's closure can change only
        // if some concept on an upward path from it had its parent row
        // edited — i.e. only the dirty seeds and their descendants in
        // the merged graph (for a removed edge the subject is a seed,
        // and everything below it still reaches it through unchanged
        // child rows). Rows recomputed in an earlier fold stay valid
        // unless re-affected, so this walk is per-apply incremental;
        // every row never affected serves the base's precomputed
        // closure by staying absent from the map.
        let mut affected = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for &c in dirty.iter() {
            if !affected[c.index()] {
                affected[c.index()] = true;
                queue.push_back(c);
            }
        }
        dirty.clear();
        while let Some(c) = queue.pop_front() {
            for &ch in &children[c.index()] {
                if !affected[ch.index()] {
                    affected[ch.index()] = true;
                    queue.push_back(ch);
                }
            }
        }

        // Upward reachability per affected concept, over the merged
        // rows; `seen` is cleared selectively so the scratch allocation
        // is paid once per finalize, not per row.
        let mut seen = vec![false; n];
        let mut stack: Vec<ConceptId> = Vec::new();
        for ci in 0..n {
            if !affected[ci] {
                continue;
            }
            let c = ConceptId(ci as u32);
            let mut row: Vec<ConceptId> = Vec::new();
            for &(p, _) in &parents[ci] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
            while let Some(v) = stack.pop() {
                row.push(v);
                for &(p, _) in &parents[v.index()] {
                    if !seen[p.index()] {
                        seen[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            for &m in &row {
                seen[m.index()] = false;
            }
            // A cycle through `c` re-discovers `c` itself; the closure
            // convention (matching the freeze) excludes it.
            row.retain(|&m| m != c);
            row.sort_unstable();
            ancestors.insert(c, row);
        }
    }

    st.n_is_a = (base.num_is_a() as isize + delta_entity_edges + delta_concept_edges) as usize;
    st.n_mentions = base.num_mentions()
        + st.mentions
            .keys()
            .filter(|s| base.men2ent(s).is_empty())
            .count();
}

// ----- the merging TaxonomyRead -------------------------------------------

/// Iterator sum type: a listing comes either from a patched row or from
/// the base.
enum Either<L, R> {
    L(L),
    R(R),
}

impl<T, L: Iterator<Item = T>, R: Iterator<Item = T>> Iterator for Either<L, R> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Either::L(l) => l.next(),
            Either::R(r) => r.next(),
        }
    }
}

impl<B: TaxonomyRead> TaxonomyRead for OverlayView<B> {
    fn resolve(&self, sym: Symbol) -> &str {
        if sym.0 & OVERLAY_SYM_TAG != 0 {
            self.state
                .strings
                .get((sym.0 & !OVERLAY_SYM_TAG) as usize)
                .map_or("", String::as_str)
        } else {
            self.base.resolve(sym)
        }
    }

    fn entity(&self, id: EntityId) -> EntityRecord {
        let base_n = self.base.num_entities();
        if id.index() < base_n {
            self.base.entity(id)
        } else {
            self.state
                .entities
                .get(id.index() - base_n)
                .copied()
                .unwrap_or(EntityRecord::UNKNOWN)
        }
    }

    fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
        find_entity_no_create(self.base.as_ref(), &self.state, name, disambig)
    }

    fn find_concept(&self, name: &str) -> Option<ConceptId> {
        find_concept_no_create(self.base.as_ref(), &self.state, name)
    }

    fn concept_name(&self, id: ConceptId) -> &str {
        let base_n = self.base.num_concepts();
        if id.index() < base_n {
            self.base.concept_name(id)
        } else {
            self.state
                .concept_names
                .get(id.index() - base_n)
                .map_or("", String::as_str)
        }
    }

    fn num_entities(&self) -> usize {
        self.base.num_entities() + self.state.entities.len()
    }

    fn num_concepts(&self) -> usize {
        self.base.num_concepts() + self.state.concept_names.len()
    }

    fn num_is_a(&self) -> usize {
        if self.state.deltas == 0 {
            self.base.num_is_a()
        } else {
            self.state.n_is_a
        }
    }

    fn num_mentions(&self) -> usize {
        if self.state.deltas == 0 {
            self.base.num_mentions()
        } else {
            self.state.n_mentions
        }
    }

    fn men2ent(&self, mention: &str) -> Vec<EntityId> {
        if mention::has_disambig(mention) {
            if let Some(&id) = self.state.full_keys.get(mention) {
                return vec![id];
            }
            let base_hit = self.base.men2ent(mention);
            if let [e] = base_hit[..] {
                // The base resolved it through its full-key table (a
                // disambiguated sense whose key is this exact string); full
                // keys shadow mention rows, so no overlay merge applies.
                if self.base.entity(e).disambig != Symbol(0) && self.base.entity_key(e) == mention {
                    return base_hit;
                }
            }
        }
        let mut out = self.base.men2ent(mention);
        if let Some(extra) = self.state.mentions.get(mention) {
            out.extend_from_slice(extra);
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    /// The base's keys, then the deltas' new mention strings — the only
    /// two places a bracket-less `men2ent` above finds a sense.
    fn mention_keys(&self) -> Option<impl Iterator<Item = &str> + '_> {
        let base = self.base.mention_keys()?;
        Some(base.chain(self.state.mentions.keys().map(String::as_str)))
    }

    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        match self.state.patches.get(&e) {
            Some(patch) => Either::L(patch.row.iter().copied()),
            None => Either::R(self.base.concepts_of(e)),
        }
    }

    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
        self.entities_with_confidence(c).map(|(e, _)| e)
    }

    fn entities_with_confidence(&self, c: ConceptId) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        let Some(touched) = self.state.extent.get(&c) else {
            return if c.index() < self.base.num_concepts() {
                // Fast path: this concept's extent is untouched by the
                // overlay and the base row is already in serving rank order.
                Either::L(self.base.entities_with_confidence(c))
            } else {
                // A new concept no entity edge ever reached: empty extent.
                Either::R(Vec::new().into_iter())
            };
        };
        let mut pairs: Vec<(EntityId, f32)> = Vec::new();
        if c.index() < self.base.num_concepts() {
            pairs.extend(
                self.base
                    .entities_with_confidence(c)
                    .filter(|(e, _)| touched.binary_search(e).is_err()),
            );
        }
        for e in touched {
            if let Some(&(_, m)) = self
                .state
                .patches
                .get(e)
                .and_then(|p| p.row.iter().find(|&&(cc, _)| cc == c))
            {
                pairs.push((*e, m.confidence));
            }
        }
        // The one serving rank order (`TaxonomyStore::ranked_entities_of`):
        // descending confidence, entity id as tie-break.
        pairs.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Either::R(pairs.into_iter())
    }

    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        match self.state.patches.get(&e) {
            Some(patch) => patch.row.iter().find(|&&(cc, _)| cc == c).map(|&(_, m)| m),
            None => self.base.entity_edge(e, c),
        }
    }

    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        match &self.state.tables {
            Some(t) => Either::L(t.parents.get(c.index()).into_iter().flatten().copied()),
            None => Either::R(self.base.parents_of(c)),
        }
    }

    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        match &self.state.tables {
            Some(t) => Either::L(t.children.get(c.index()).into_iter().flatten().copied()),
            None => Either::R(self.base.children_of(c)),
        }
    }

    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        // Fast path: a row absent from the patch map was never on an
        // edited upward path, so the base's precomputed closure is still
        // exact (and a base concept id is guaranteed: overlay-new
        // concepts are always materialised at fold time).
        match self.state.tables.as_ref().and_then(|t| t.ancestors.get(&c)) {
            Some(row) => Either::L(row.iter().copied()),
            None => Either::R(self.base.ancestors(c)),
        }
    }

    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
        match self.state.tables.as_ref().and_then(|t| t.ancestors.get(&c)) {
            Some(row) => row.binary_search(&sup).is_ok(),
            None => self.base.ancestor_contains(c, sup),
        }
    }

    fn depth(&self, c: ConceptId) -> usize {
        match &self.state.tables {
            Some(t) => t.depth.get(c.index()).map_or(0, |&d| d as usize),
            None => self.base.depth(c),
        }
    }

    fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        let Some(t) = &self.state.tables else {
            return self.base.descendants(start);
        };
        // Same BFS as `FrozenTaxonomy::descendants`, over the merged
        // child rows.
        let mut seen = vec![false; t.children.len()];
        let mut order = Vec::new();
        let Some(s) = seen.get_mut(start.index()) else {
            return order;
        };
        *s = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(c) = queue.pop_front() {
            for &ch in t.children.get(c.index()).into_iter().flatten() {
                if let Some(s @ false) = seen.get_mut(ch.index()) {
                    *s = true;
                    order.push(ch);
                    queue.push_back(ch);
                }
            }
        }
        order
    }
}

impl<B: TaxonomyRead + BootSnapshot> BootSnapshot for OverlayView<B> {
    /// Boots the base representation from a file and wraps it with an
    /// empty overlay. A service `reload` therefore *drops* accumulated
    /// overlays — the file is the new truth.
    fn boot_from_file(path: &Path) -> Result<Self, PersistError> {
        Ok(OverlayView::new(B::boot_from_file(path)?))
    }
}

/// The serving-side write capability: apply one [`DeltaOverlay`] to a
/// snapshot, producing the next one, and fold accumulated overlays back
/// into a fresh base (*compaction*).
///
/// [`OverlayView`] is the one implementor (see `crate::compact`): a plain
/// snapshot takes writes by being wrapped in an overlay first.
pub trait IngestDelta: Sized + Send + Sync {
    /// Applies one delta, returning the next serving snapshot.
    fn ingest_delta(&self, delta: &DeltaOverlay) -> Result<Self, PersistError>;

    /// Overlay segments awaiting compaction (0 = fully compacted).
    fn overlay_depth(&self) -> usize;

    /// Folds base + overlays into a fresh base of the same
    /// representation. Byte-identical to a from-scratch freeze of the
    /// same logical content (asserted in `tests/determinism.rs`).
    fn compacted(&self, rt: &Runtime) -> Result<Self, PersistError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::FrozenTaxonomy;
    use crate::store::Source;

    fn base_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_entity_is_a(liu, actor, IsAMeta::new(Source::Bracket, 0.96));
        let zhang = s.add_entity("张学友", None);
        let singer = s.add_concept("歌手");
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.85));
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.9));
        s
    }

    fn sample_delta() -> DeltaOverlay {
        let mut d = DeltaOverlay::new();
        d.add_entity("周杰伦", None);
        d.add_alias("周杰伦", None, "Jay Chou");
        d.upsert_entity_is_a("周杰伦", None, "歌手", IsAMeta::new(Source::Tag, 0.97));
        d.upsert_entity_is_a(
            "刘德华",
            Some("中国香港男演员"),
            "歌手",
            IsAMeta::new(Source::Infobox, 0.7),
        );
        d.upsert_concept_is_a("歌手", "艺人", IsAMeta::new(Source::SubConcept, 0.75));
        d.retract_entity_is_a("张学友", None, "歌手");
        d
    }

    /// The one invariant everything else rides on: an overlay view and a
    /// store replay of the same log answer identically.
    fn assert_matches_replay(view: &OverlayView<FrozenTaxonomy>, delta: &DeltaOverlay) {
        let mut store = base_store();
        delta.apply_to_store(&mut store);
        let fresh = FrozenTaxonomy::freeze(&store);
        assert_eq!(view.num_entities(), fresh.num_entities());
        assert_eq!(view.num_concepts(), fresh.num_concepts());
        assert_eq!(TaxonomyRead::num_is_a(view), fresh.num_is_a());
        assert_eq!(TaxonomyRead::num_mentions(view), fresh.num_mentions());
        for i in 0..fresh.num_concepts() {
            let c = ConceptId(i as u32);
            assert_eq!(view.concept_name(c), fresh.concept_name(c), "name {c:?}");
            assert_eq!(
                view.entities_of(c).collect::<Vec<_>>(),
                fresh.entities_of(c).to_vec(),
                "extent of {c:?}"
            );
            assert_eq!(
                view.ancestors(c).collect::<Vec<_>>(),
                fresh.ancestors(c).collect::<Vec<_>>(),
                "ancestors of {c:?}"
            );
            assert_eq!(view.depth(c), fresh.depth(c), "depth of {c:?}");
            assert_eq!(
                view.descendants(c),
                fresh.descendants(c),
                "descendants of {c:?}"
            );
            assert_eq!(
                view.parents_of(c).collect::<Vec<_>>(),
                fresh.parents_of(c).to_vec(),
                "parents of {c:?}"
            );
        }
        for i in 0..fresh.num_entities() {
            let e = EntityId(i as u32);
            assert_eq!(view.entity_key(e), fresh.entity_key(e), "key of {e:?}");
            assert_eq!(
                view.concepts_of(e).collect::<Vec<_>>(),
                fresh.concepts_of(e).to_vec(),
                "concepts of {e:?}"
            );
        }
        for mention in [
            "刘德华",
            "张学友",
            "周杰伦",
            "Jay Chou",
            "刘德华（中国香港男演员）",
        ] {
            assert_eq!(
                view.men2ent(mention),
                TaxonomyRead::men2ent(&fresh, mention),
                "men2ent {mention:?}"
            );
        }
    }

    #[test]
    fn empty_overlay_delegates_to_base() {
        let frozen = FrozenTaxonomy::freeze(&base_store());
        let view = OverlayView::new(frozen.clone());
        assert_eq!(view.overlay_depth(), 0);
        assert_eq!(view.num_entities(), frozen.num_entities());
        assert_eq!(
            view.men2ent("刘德华"),
            FrozenTaxonomy::men2ent(&frozen, "刘德华").to_vec()
        );
    }

    #[test]
    fn overlay_matches_store_replay() {
        let view = OverlayView::new(FrozenTaxonomy::freeze(&base_store()));
        let applied = view.apply(&sample_delta());
        assert_eq!(applied.overlay_depth(), 1);
        assert_matches_replay(&applied, &sample_delta());
    }

    #[test]
    fn stacked_deltas_fold_into_one_overlay() {
        let mut d1 = DeltaOverlay::new();
        d1.upsert_entity_is_a("周杰伦", None, "歌手", IsAMeta::new(Source::Tag, 0.97));
        let mut d2 = DeltaOverlay::new();
        // Lower the confidence (an add-path max-merge could not) and
        // retract a base edge.
        d2.upsert_entity_is_a("周杰伦", None, "歌手", IsAMeta::new(Source::Tag, 0.5));
        d2.retract_concept_is_a("演员", "人物");
        let view = OverlayView::new(FrozenTaxonomy::freeze(&base_store()))
            .apply(&d1)
            .apply(&d2);
        assert_eq!(view.overlay_depth(), 2);
        let mut combined = d1.clone();
        combined.ops.extend(d2.ops.clone());
        assert_matches_replay(&view, &combined);
    }

    #[test]
    fn retraction_of_unknown_keys_is_a_noop() {
        let mut d = DeltaOverlay::new();
        d.retract_entity_is_a("无此人", None, "歌手");
        d.retract_concept_is_a("无此概念", "人物");
        let view = OverlayView::new(FrozenTaxonomy::freeze(&base_store())).apply(&d);
        assert_matches_replay(&view, &d);
    }

    /// `base_store` plus a 男演员 → 演员 subconcept, so a chain deep
    /// enough to have both an edited slice and a spared sibling subtree.
    fn with_male_actor() -> TaxonomyStore {
        let mut s = base_store();
        let male = s.add_concept("男演员");
        let actor = s.find_concept("演员").expect("base concept");
        s.add_concept_is_a(male, actor, IsAMeta::new(Source::SubConcept, 0.7));
        s
    }

    #[test]
    fn untouched_ancestor_rows_delegate_to_the_base_closure() {
        let view = OverlayView::new(FrozenTaxonomy::freeze(&base_store()));
        let applied = view.apply(&sample_delta());
        // sample_delta edits only 歌手's parent row (and mints 艺人):
        // the 演员 → 人物 chain must not have been rematerialised.
        let t = applied
            .state
            .tables
            .as_ref()
            .expect("concept layer touched");
        let actor = applied.find_concept("演员").unwrap();
        let person = applied.find_concept("人物").unwrap();
        let singer = applied.find_concept("歌手").unwrap();
        let artist = applied.find_concept("艺人").unwrap();
        assert!(!t.ancestors.contains_key(&actor), "untouched row patched");
        assert!(!t.ancestors.contains_key(&person), "untouched row patched");
        assert!(t.ancestors.contains_key(&singer), "edited row not patched");
        assert!(t.ancestors.contains_key(&artist), "new row not patched");
        // Served answers are exact on both paths.
        assert_eq!(applied.ancestors(actor).collect::<Vec<_>>(), vec![person]);
        assert!(applied.ancestor_contains(singer, artist));
        assert!(applied.ancestor_contains(singer, person));
        assert_eq!(applied.depth(artist), 0);
        assert_eq!(applied.depth(singer), 1);
    }

    #[test]
    fn retractions_refresh_descendant_rows_and_spare_siblings() {
        let view = OverlayView::new(FrozenTaxonomy::freeze(&with_male_actor()));
        let mut d = DeltaOverlay::new();
        d.retract_concept_is_a("演员", "人物");
        let applied = view.apply(&d);

        let mut store = with_male_actor();
        d.apply_to_store(&mut store);
        let fresh = FrozenTaxonomy::freeze(&store);
        for i in 0..fresh.num_concepts() {
            let c = ConceptId(i as u32);
            assert_eq!(
                applied.ancestors(c).collect::<Vec<_>>(),
                fresh.ancestors(c).collect::<Vec<_>>(),
                "ancestors of {c:?}"
            );
            assert_eq!(applied.depth(c), fresh.depth(c), "depth of {c:?}");
        }
        let t = applied
            .state
            .tables
            .as_ref()
            .expect("concept layer touched");
        let actor = applied.find_concept("演员").unwrap();
        let male = applied.find_concept("男演员").unwrap();
        let singer = applied.find_concept("歌手").unwrap();
        let person = applied.find_concept("人物").unwrap();
        // The retraction's subject and everything below it were
        // recomputed (the removed edge is invisible to a merged-graph
        // walk from 男演员, which is why descendants of the seed join
        // the affected set)…
        assert!(t.ancestors.contains_key(&actor));
        assert!(t.ancestors.contains_key(&male));
        // …while the sibling subtree and the severed parent delegate.
        assert!(!t.ancestors.contains_key(&singer));
        assert!(!t.ancestors.contains_key(&person));
        assert_eq!(applied.ancestors(actor).count(), 0);
        assert_eq!(applied.ancestors(male).collect::<Vec<_>>(), vec![actor]);
    }

    #[test]
    fn stacked_deltas_grow_the_affected_set_incrementally() {
        let mut d1 = DeltaOverlay::new();
        d1.upsert_concept_is_a("歌手", "艺人", IsAMeta::new(Source::SubConcept, 0.75));
        let mut d2 = DeltaOverlay::new();
        d2.upsert_concept_is_a("演员", "艺人", IsAMeta::new(Source::SubConcept, 0.8));
        let applied = OverlayView::new(FrozenTaxonomy::freeze(&base_store()))
            .apply(&d1)
            .apply(&d2);
        // Each apply recomputes only its own affected slice; rows from
        // the first fold persist, and 人物 — never on an edited upward
        // path — still serves the base closure after both.
        let t = applied
            .state
            .tables
            .as_ref()
            .expect("concept layer touched");
        let person = applied.find_concept("人物").unwrap();
        assert!(!t.ancestors.contains_key(&person));
        let mut combined = d1.clone();
        combined.ops.extend(d2.ops.clone());
        assert_matches_replay(&applied, &combined);
    }

    #[test]
    fn cycle_creating_and_breaking_edits_keep_closures_exact() {
        // 人物 → 演员 closes a cycle {演员, 人物}; a second delta breaks
        // it again. Both transitions run through the affected-set walk.
        let mut d1 = DeltaOverlay::new();
        d1.upsert_concept_is_a("人物", "演员", IsAMeta::new(Source::SubConcept, 0.1));
        let mut d2 = DeltaOverlay::new();
        d2.retract_concept_is_a("人物", "演员");
        let view = OverlayView::new(FrozenTaxonomy::freeze(&base_store()));
        let once = view.apply(&d1);
        assert_matches_replay(&once, &d1);
        let twice = once.apply(&d2);
        let mut combined = d1.clone();
        combined.ops.extend(d2.ops.clone());
        assert_matches_replay(&twice, &combined);
    }

    #[test]
    fn new_entities_take_dense_ids_after_the_base() {
        let base = FrozenTaxonomy::freeze(&base_store());
        let n = base.num_entities();
        let view = OverlayView::new(base).apply(&sample_delta());
        let senses = view.men2ent("周杰伦");
        assert_eq!(senses, vec![EntityId(n as u32)]);
        assert_eq!(view.entity_key(senses[0]), "周杰伦");
    }
}
