//! The query executor: pure functions from an immutable snapshot (plus
//! its generation number) to typed responses.
//!
//! Every function is generic over [`TaxonomyRead`], so the same executor
//! serves the owned `FrozenTaxonomy` (slice-backed CSR) and the borrowed
//! `FrozenTaxonomyView` (varint rows decoded on the fly) — the protocol
//! cannot fork between representations. Everything here is `&`-only and
//! takes no lock, which is what lets any number of threads query one
//! [`crate::TaxonomyService`] and the hot-swap path proceed while queries
//! are in flight. A request's allocation is bounded by its page plus one
//! seen-set per walk: `getEntity` counts its `total` by a walk that keeps
//! no records, and walks for its page only as far as the page's end. The
//! one piece of interior state is
//! [`EntityTotals`], a per-generation memo of the unfloored transitive
//! `getEntity` totals — a pure function of the immutable generation, so
//! filling it races benignly and changes no answer.

use crate::query::{Cursor, ListOptions, PageRequest, Query};
use crate::response::{
    ConceptHit, CursorError, EntityHit, Paged, QueryError, QueryResponse, Response, Sense,
    SenseConcepts,
};
use cnp_tag::{classify_with, tag_with, TagIndex};
use cnp_taxonomy::hash::FxHashSet;
use cnp_taxonomy::mention::has_disambig;
use cnp_taxonomy::{ConceptId, EntityId, TaxonomyRead};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Executes one query against one pinned snapshot generation. `totals` is
/// that generation's `getEntity` memo; `tag_index` lazily supplies its
/// vocabulary-seeded [`TagIndex`], which only the tagging queries force.
pub(crate) fn execute<'a, T: TaxonomyRead>(
    f: &'a T,
    generation: u64,
    query: &Query,
    totals: &EntityTotals,
    tag_index: impl FnOnce() -> &'a TagIndex,
) -> QueryResponse {
    QueryResponse {
        generation,
        result: run(f, generation, query, totals, tag_index),
    }
}

fn run<'a, T: TaxonomyRead>(
    f: &'a T,
    generation: u64,
    query: &Query,
    totals: &EntityTotals,
    tag_index: impl FnOnce() -> &'a TagIndex,
) -> Result<Response, QueryError> {
    match query {
        Query::Men2Ent { mention } => {
            let ids = known_senses(f, mention)?;
            Ok(Response::Senses(
                ids.iter().map(|&id| sense(f, id)).collect(),
            ))
        }
        Query::MentionSenses { mention } => {
            let ids = known_senses(f, mention)?;
            let senses = ids
                .iter()
                .map(|&id| SenseConcepts {
                    sense: sense(f, id),
                    concepts: direct_concepts(f, id),
                })
                .collect();
            Ok(Response::SenseConcepts(senses))
        }
        Query::GetConcept { entity, options } => {
            let id = resolve_entity_key(f, entity)
                .ok_or_else(|| QueryError::UnknownEntity(entity.clone()))?;
            let hits = concept_hits(f, id, options);
            Ok(Response::Concepts(paginate(
                hits,
                &options.page,
                query.fingerprint(),
                generation,
            )?))
        }
        Query::GetConceptByMention { mention, options } => {
            let ids = known_senses(f, mention)?;
            let hits = merged_concept_hits(f, &ids, options);
            Ok(Response::Concepts(paginate(
                hits,
                &options.page,
                query.fingerprint(),
                generation,
            )?))
        }
        Query::GetEntity { concept, options } => {
            let c = f
                .find_concept(concept)
                .ok_or_else(|| QueryError::UnknownConcept(concept.clone()))?;
            // The total first, so a cursor is checked against it; then a
            // walk that stops at the page's end and builds display keys
            // for the returned page only.
            let total = totals.total(f, c, options);
            let (offset, end, next) =
                page_bounds(total, &options.page, query.fingerprint(), generation)?;
            Ok(Response::Entities(Paged {
                items: entity_window(f, c, options, offset, end),
                total,
                next,
            }))
        }
        Query::AncestorsOf { concept } => {
            let c = f
                .find_concept(concept)
                .ok_or_else(|| QueryError::UnknownConcept(concept.clone()))?;
            Ok(Response::Ancestors(ancestor_hits(f, c)))
        }
        Query::IsA {
            sub,
            sup,
            transitive,
        } => is_a(f, sub, sup, *transitive),
        // Tagging never errors: an empty or unresolvable document is a
        // legitimately empty result, not an unknown name.
        Query::Tag { text, options } => Ok(Response::Tags(tag_with(f, tag_index(), text, options))),
        Query::Classify { text, options } => Ok(Response::Classified(classify_with(
            f,
            tag_index(),
            text,
            options,
        ))),
    }
}

// ----- resolution ----------------------------------------------------------

/// Resolves a mention, distinguishing "unknown" from "empty": a mention
/// exists iff it has at least one sense.
fn known_senses<T: TaxonomyRead>(f: &T, mention: &str) -> Result<Vec<EntityId>, QueryError> {
    let ids = f.men2ent(mention);
    if ids.is_empty() {
        Err(QueryError::UnknownMention(mention.to_string()))
    } else {
        Ok(ids)
    }
}

/// Resolves an entity display key to exactly one entity: the bare name of
/// an undisambiguated entity, or a full `name（disambig）` key. No string
/// surgery — the snapshot's own key tables decide, so a name that itself
/// contains a full-width bracket cannot be mis-split.
fn resolve_entity_key<T: TaxonomyRead>(f: &T, key: &str) -> Option<EntityId> {
    if let Some(id) = f.find_entity(key, None) {
        return Some(id);
    }
    if !has_disambig(key) {
        return None;
    }
    f.men2ent(key).into_iter().find(|&e| f.entity_key(e) == key)
}

fn sense<T: TaxonomyRead>(f: &T, id: EntityId) -> Sense {
    let rec = f.entity(id);
    let disambig = f.resolve(rec.disambig);
    Sense {
        id,
        name: f.resolve(rec.name).to_string(),
        disambig: if disambig.is_empty() {
            None
        } else {
            Some(disambig.to_string())
        },
        key: f.entity_key(id),
    }
}

fn concept_hit<T: TaxonomyRead>(
    f: &T,
    c: ConceptId,
    direct: bool,
    confidence: Option<f32>,
) -> ConceptHit {
    ConceptHit {
        id: c,
        name: f.concept_name(c).to_string(),
        depth: f.depth(c) as u32,
        direct,
        confidence,
    }
}

// ----- list builders -------------------------------------------------------

/// Direct concepts of an entity, in snapshot edge order, no floor.
fn direct_concepts<T: TaxonomyRead>(f: &T, e: EntityId) -> Vec<ConceptHit> {
    f.concepts_of(e)
        .map(|(c, m)| concept_hit(f, c, true, Some(m.confidence)))
        .collect()
}

/// `getConcept` enumeration for one entity: direct edges in snapshot
/// order (gated by the confidence floor), then — when transitive — the
/// deduplicated ancestors of the surviving direct concepts, nearest-first
/// (deeper concepts before shallower, id as tie-break), so consumers that
/// truncate keep the most specific hypernyms.
fn concept_hits<T: TaxonomyRead>(f: &T, e: EntityId, options: &ListOptions) -> Vec<ConceptHit> {
    let mut ids: Vec<ConceptId> = Vec::new();
    let mut hits: Vec<ConceptHit> = Vec::new();
    for (c, m) in f.concepts_of(e) {
        if m.confidence >= options.min_confidence {
            ids.push(c);
            hits.push(concept_hit(f, c, true, Some(m.confidence)));
        }
    }
    if options.transitive {
        // Seen-set dedup over the appended tail: the incremental write
        // path can ingest high-fan-in entities whose combined ancestor
        // sets make the old whole-vector `contains` scan quadratic. The
        // output is unchanged — the tail is a set either way, and its
        // order comes entirely from the total (depth desc, id asc) sort
        // below, not from insertion order.
        let mut seen: FxHashSet<ConceptId> = ids.iter().copied().collect();
        let mut tail: Vec<ConceptId> = Vec::new();
        for &d in &ids {
            for a in f.ancestors(d) {
                if seen.insert(a) {
                    tail.push(a);
                }
            }
        }
        tail.sort_unstable_by(|&x, &y| f.depth(y).cmp(&f.depth(x)).then(x.cmp(&y)));
        hits.extend(tail.into_iter().map(|c| concept_hit(f, c, false, None)));
    }
    hits
}

/// `getConcept` by mention: the per-sense enumerations concatenated in
/// sense order, deduplicated by concept id at the *first* occurrence's
/// rank position — multiple senses sharing a hypernym report it once, at
/// its best rank. Directness wins over rank, though: when a later sense
/// holds a *direct*, confidence-carrying edge to a concept an earlier
/// sense only reached transitively, the hit is upgraded in place (same
/// position, `direct = true` plus the edge confidence) instead of letting
/// the indirect occurrence shadow it.
fn merged_concept_hits<T: TaxonomyRead>(
    f: &T,
    senses: &[EntityId],
    options: &ListOptions,
) -> Vec<ConceptHit> {
    let mut out: Vec<ConceptHit> = Vec::new();
    for &e in senses {
        for hit in concept_hits(f, e, options) {
            match out.iter_mut().find(|h| h.id == hit.id) {
                None => out.push(hit),
                Some(existing) => {
                    if hit.direct && !existing.direct {
                        existing.direct = true;
                        existing.confidence = hit.confidence;
                    }
                }
            }
        }
    }
    out
}

/// Walks the `getEntity` enumeration for one concept: the concept's own
/// hyponym row first, then — when transitive — each subconcept's row in
/// BFS (nearest-subconcept-first) order. Rows are confidence-ranked in
/// the snapshot; an entity reachable through several rows is reported at
/// its first position; the floor gates each entity's edge to the row's
/// concept, so an entity skipped on a weak edge can still surface later
/// through a stronger one. `first_sight` is the caller's seen-set: it
/// records an entity and says whether it is new. `visit` sees each
/// reported `(entity, via, confidence)` once, in order, and ends the walk
/// early by breaking.
fn walk_entities<T: TaxonomyRead>(
    f: &T,
    c: ConceptId,
    options: &ListOptions,
    mut first_sight: impl FnMut(EntityId) -> bool,
    mut visit: impl FnMut(EntityId, ConceptId, f32) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut row = |via: ConceptId| {
        for (e, confidence) in f.entities_with_confidence(via) {
            if confidence < options.min_confidence {
                continue;
            }
            if first_sight(e) {
                visit(e, via, confidence)?;
            }
        }
        ControlFlow::Continue(())
    };
    row(c)?;
    if options.transitive {
        for sub in f.descendants(c) {
            row(sub)?;
        }
    }
    ControlFlow::Continue(())
}

/// How many entities `getEntity` enumerates for `c` under `options` — the
/// reply's `total`, counted by a whole walk that keeps no records. The
/// walk visits the whole extent, so its seen-set is a bitset over entity
/// ids, which at that length costs far less per probe than a hash insert.
fn entity_count<T: TaxonomyRead>(f: &T, c: ConceptId, options: &ListOptions) -> usize {
    let mut seen = vec![0u64; f.num_entities().div_ceil(64)];
    let mut total = 0usize;
    let _ = walk_entities(
        f,
        c,
        options,
        |e| match seen.get_mut(e.index() / 64) {
            Some(word) => {
                let bit = 1u64 << (e.index() % 64);
                let new = *word & bit == 0;
                *word |= bit;
                new
            }
            // Every id a snapshot serves is below `num_entities`.
            None => true,
        },
        |_, _, _| {
            total += 1;
            ControlFlow::Continue(())
        },
    );
    total
}

/// The `[offset, end)` window of `getEntity`'s enumeration for `c`, with
/// display keys: the walk stops at the `end`-th entity, so a page near
/// the front of a broad transitive concept decodes a few rows, not its
/// whole extent, and its seen-set holds at most `end` entities.
fn entity_window<T: TaxonomyRead>(
    f: &T,
    c: ConceptId,
    options: &ListOptions,
    offset: usize,
    end: usize,
) -> Vec<EntityHit> {
    let mut page: Vec<EntityHit> = Vec::with_capacity(end.saturating_sub(offset));
    if offset >= end {
        return page;
    }
    let mut seen: FxHashSet<EntityId> = FxHashSet::default();
    let mut position = 0usize;
    let _ = walk_entities(
        f,
        c,
        options,
        |e| seen.insert(e),
        |id, via, confidence| {
            if position >= offset {
                page.push(EntityHit {
                    id,
                    key: f.entity_key(id),
                    via,
                    confidence,
                });
            }
            position += 1;
            if position < end {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        },
    );
    page
}

/// Slot value of a total not yet counted.
const UNCOUNTED: u32 = u32::MAX;

/// One generation's memo of `getEntity` totals for transitive requests at
/// the default floor (`minConfidence` 0 — the paper's Table II call). A
/// generation is immutable, so such a total is a pure function of the
/// concept: the first request on a concept counts it and stores it in the
/// concept's slot, every later one reads it. Racing first requests each
/// count and store the same number. Every other request, and a total that
/// does not fit below [`UNCOUNTED`], is counted per request. The table is
/// allocated on the first memoised request and dies with its generation.
#[derive(Debug, Default)]
pub(crate) struct EntityTotals {
    slots: OnceLock<Box<[AtomicU32]>>,
}

impl EntityTotals {
    /// `getEntity`'s `total` for `c` under `options`.
    pub(crate) fn total<T: TaxonomyRead>(
        &self,
        f: &T,
        c: ConceptId,
        options: &ListOptions,
    ) -> usize {
        if !options.transitive || options.min_confidence != 0.0 {
            return entity_count(f, c, options);
        }
        let slots = self.slots.get_or_init(|| {
            (0..f.num_concepts())
                .map(|_| AtomicU32::new(UNCOUNTED))
                .collect()
        });
        let Some(slot) = slots.get(c.index()) else {
            return entity_count(f, c, options);
        };
        // `Relaxed` is enough: a slot publishes only its own number, and
        // every thread that stores one stores the same number.
        match slot.load(Ordering::Relaxed) {
            UNCOUNTED => {
                let total = entity_count(f, c, options);
                if let Some(n) = u32::try_from(total).ok().filter(|&n| n != UNCOUNTED) {
                    slot.store(n, Ordering::Relaxed);
                }
                total
            }
            n => n as usize,
        }
    }
}

/// `AncestorsOf` enumeration: the precomputed closure row reordered
/// nearest-first (depth descending, id tie-break); direct parents carry
/// their edge confidence.
fn ancestor_hits<T: TaxonomyRead>(f: &T, c: ConceptId) -> Vec<ConceptHit> {
    let mut ids: Vec<ConceptId> = f.ancestors(c).collect();
    ids.sort_unstable_by(|&x, &y| f.depth(y).cmp(&f.depth(x)).then(x.cmp(&y)));
    ids.into_iter()
        .map(|a| {
            let direct_edge = f.parents_of(c).find(|&(p, _)| p == a);
            concept_hit(
                f,
                a,
                direct_edge.is_some(),
                direct_edge.map(|(_, m)| m.confidence),
            )
        })
        .collect()
}

fn is_a<T: TaxonomyRead>(
    f: &T,
    sub: &str,
    sup: &str,
    transitive: bool,
) -> Result<Response, QueryError> {
    let sup_c = f
        .find_concept(sup)
        .ok_or_else(|| QueryError::UnknownConcept(sup.to_string()))?;
    let concept_holds = |c: ConceptId| {
        if transitive {
            f.ancestor_contains(c, sup_c)
        } else {
            f.parents_of(c).any(|(p, _)| p == sup_c)
        }
    };
    let holds = if let Some(c) = f.find_concept(sub) {
        concept_holds(c)
    } else {
        let senses = f.men2ent(sub);
        if senses.is_empty() {
            return Err(QueryError::UnknownMention(sub.to_string()));
        }
        senses.iter().any(|&e| {
            f.concepts_of(e)
                .any(|(c, _)| c == sup_c || (transitive && f.ancestor_contains(c, sup_c)))
        })
    };
    Ok(Response::IsA { holds })
}

// ----- pagination ----------------------------------------------------------

/// Checks a page request against an enumeration of `total` items and
/// returns the window it asks for, `[offset, end)`, plus the cursor of
/// the page after it. A cursor must carry the query's fingerprint and the
/// serving generation and point inside the enumeration. `limit: 0` is a
/// count: no items, and no `next`, which would only point back at the
/// same empty page.
fn page_bounds(
    total: usize,
    page: &PageRequest,
    fingerprint: u64,
    generation: u64,
) -> Result<(usize, usize, Option<Cursor>), QueryError> {
    let offset = match &page.cursor {
        None => 0,
        Some(c) => {
            if c.fingerprint != fingerprint {
                return Err(QueryError::InvalidCursor(CursorError::WrongQuery));
            }
            if c.generation != generation {
                return Err(QueryError::InvalidCursor(CursorError::WrongGeneration {
                    cursor: c.generation,
                    serving: generation,
                }));
            }
            if c.offset > total {
                return Err(QueryError::InvalidCursor(CursorError::OutOfRange {
                    offset: c.offset,
                    total,
                }));
            }
            c.offset
        }
    };
    let end = offset.saturating_add(page.limit).min(total);
    let next = (end < total && page.limit > 0).then_some(Cursor {
        generation,
        offset: end,
        fingerprint,
    });
    Ok((offset, end, next))
}

/// Slices a full enumeration into the requested page ([`page_bounds`]).
fn paginate<T>(
    items: Vec<T>,
    page: &PageRequest,
    fingerprint: u64,
    generation: u64,
) -> Result<Paged<T>, QueryError> {
    let total = items.len();
    let (offset, end, next) = page_bounds(total, page, fingerprint, generation)?;
    let items: Vec<T> = items.into_iter().skip(offset).take(end - offset).collect();
    Ok(Paged { items, total, next })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_taxonomy::{FrozenTaxonomy, IsAMeta, Source, TaxonomyStore};

    /// Two senses of the same bare mention: sense 0 reaches 人物 only
    /// transitively (through 演员), sense 1 holds a direct,
    /// confidence-carrying edge to it.
    fn two_sense_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let actor_sense = s.add_entity("阿伦", Some("演员"));
        let host_sense = s.add_entity("阿伦", Some("主持人"));
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_entity_is_a(actor_sense, actor, IsAMeta::new(Source::Bracket, 0.95));
        s.add_entity_is_a(host_sense, person, IsAMeta::new(Source::Tag, 0.8));
        s
    }

    #[test]
    fn direct_hit_is_not_shadowed_by_earlier_senses_indirect_hit() {
        let f = FrozenTaxonomy::freeze(&two_sense_store());
        let senses = TaxonomyRead::men2ent(&f, "阿伦");
        assert_eq!(senses.len(), 2, "both senses resolve from the bare name");
        let person = f.find_concept("人物").unwrap();

        let hits = merged_concept_hits(&f, &senses, &ListOptions::transitive());
        let person_hit = hits.iter().find(|h| h.id == person).expect("人物 reported");
        // Pre-fix, the first sense's transitive occurrence won the dedup
        // and the direct edge's confidence was dropped.
        assert!(person_hit.direct, "direct edge must win over indirect");
        assert_eq!(person_hit.confidence, Some(0.8));

        // The upgrade keeps the earlier occurrence's rank position and
        // changes no other hit.
        let actor = f.find_concept("演员").unwrap();
        let order: Vec<ConceptId> = hits.iter().map(|h| h.id).collect();
        assert_eq!(order, vec![actor, person]);
        let actor_hit = &hits[0];
        assert!(actor_hit.direct);
        assert_eq!(actor_hit.confidence, Some(0.95));
    }

    #[test]
    fn merged_hits_keep_first_direct_occurrence() {
        // Both senses hold *direct* edges to 人物: the earlier sense's
        // confidence must survive the merge unchanged.
        let mut s = two_sense_store();
        let actor_sense = s.find_entity("阿伦", Some("演员")).unwrap();
        let person = s.find_concept("人物").unwrap();
        s.add_entity_is_a(actor_sense, person, IsAMeta::new(Source::Infobox, 0.6));
        let f = FrozenTaxonomy::freeze(&s);
        let senses = TaxonomyRead::men2ent(&f, "阿伦");

        let hits = merged_concept_hits(&f, &senses, &ListOptions::transitive());
        let person_hit = hits.iter().find(|h| h.id == person).unwrap();
        assert!(person_hit.direct);
        assert_eq!(person_hit.confidence, Some(0.6));
    }

    /// The pre-PR-9 transitive tail: whole-vector `contains` dedup. Kept
    /// as the reference the seen-set rewrite is locked against.
    fn concept_hits_reference<T: TaxonomyRead>(
        f: &T,
        e: EntityId,
        options: &ListOptions,
    ) -> Vec<ConceptHit> {
        let mut ids: Vec<ConceptId> = Vec::new();
        let mut hits: Vec<ConceptHit> = Vec::new();
        for (c, m) in f.concepts_of(e) {
            if m.confidence >= options.min_confidence {
                ids.push(c);
                hits.push(concept_hit(f, c, true, Some(m.confidence)));
            }
        }
        if options.transitive {
            let n_direct = ids.len();
            for i in 0..n_direct {
                for a in f.ancestors(ids[i]) {
                    if !ids.contains(&a) {
                        ids.push(a);
                    }
                }
            }
            let mut tail = ids.split_off(n_direct);
            tail.sort_unstable_by(|&x, &y| f.depth(y).cmp(&f.depth(x)).then(x.cmp(&y)));
            hits.extend(tail.into_iter().map(|c| concept_hit(f, c, false, None)));
        }
        hits
    }

    #[test]
    fn limit_zero_counts_without_a_next_cursor() {
        let fingerprint = 0xfeed;
        let page = paginate(vec![1, 2, 3], &PageRequest::first(0), fingerprint, 4).unwrap();
        assert_eq!(
            page,
            Paged {
                items: Vec::<i32>::new(),
                total: 3,
                next: None
            }
        );
        // From a cursor too: the whole total, and no way onward.
        let cursor = Cursor {
            generation: 4,
            offset: 1,
            fingerprint,
        };
        let page = paginate(
            vec![1, 2, 3],
            &PageRequest::after(0, cursor),
            fingerprint,
            4,
        )
        .unwrap();
        assert_eq!((page.items.len(), page.total, page.next), (0, 3, None));
    }

    #[test]
    fn seen_set_tail_matches_reference_order_exactly() {
        // A high-fan-in entity over a multi-level DAG with heavily shared
        // ancestors — the shape the overlay write path now produces, and
        // the one where insertion order into the tail differs most
        // between the two dedup strategies.
        let mut s = TaxonomyStore::new();
        let e = s.add_entity("万能选手", None);
        let root = s.add_concept("万物");
        let mut mids = Vec::new();
        for i in 0..6 {
            let m = s.add_concept(&format!("中类{i}"));
            s.add_concept_is_a(m, root, IsAMeta::new(Source::SubConcept, 0.9));
            mids.push(m);
        }
        for i in 0..24 {
            let leaf = s.add_concept(&format!("细类{i}"));
            // Each leaf hangs under two mid concepts, sharing ancestors.
            s.add_concept_is_a(leaf, mids[i % 6], IsAMeta::new(Source::SubConcept, 0.85));
            s.add_concept_is_a(
                leaf,
                mids[(i + 1) % 6],
                IsAMeta::new(Source::SubConcept, 0.8),
            );
            s.add_entity_is_a(e, leaf, IsAMeta::new(Source::Tag, 0.5 + (i as f32) * 0.02));
        }
        let f = FrozenTaxonomy::freeze(&s);

        for options in [
            ListOptions::transitive(),
            ListOptions::default(),
            ListOptions {
                transitive: true,
                min_confidence: 0.7,
                ..ListOptions::default()
            },
        ] {
            assert_eq!(
                concept_hits(&f, e, &options),
                concept_hits_reference(&f, e, &options),
                "options {options:?}"
            );
        }
    }
}
