//! Serving API v1 equivalence (ISSUE 5 acceptance).
//!
//! One snapshot served by two backends — the owned `FrozenTaxonomy` and
//! the server's `OverlayView<FrozenTaxonomyView>` over its v3 bytes —
//! must return identical replies for every Table II operation — locked in
//! here on the committed golden fixture (known world, exact expectations)
//! and on a pipeline-built corpus (breadth). Also locks the pagination
//! contract: stitching cursor-walked pages reproduces the unpaged result,
//! and stale or foreign cursors are rejected as typed errors, never
//! mis-sliced.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::serve::{CursorError, EntityHit, Paged, PinnedSnapshot};
use cn_probase::taxonomy::hash::FxHashSet;
use cn_probase::taxonomy::persist::encode_frozen_v3;
use cn_probase::taxonomy::{ConceptId, EntityId, IsAMeta, Source};
use cn_probase::{
    DeltaOverlay, FrozenTaxonomy, FrozenTaxonomyView, ListOptions, OverlayView, PageRequest, Query,
    QueryError, QueryResponse, Response, TaxonomyRead, TaxonomyService,
};
use std::path::Path;

/// The committed golden snapshot, materialised into the owned backend.
fn golden() -> FrozenTaxonomy {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v3.cnpb");
    let view = FrozenTaxonomyView::load_from_file(&path).expect("fixture opens");
    view.to_frozen().expect("fixture materialises")
}

/// Asserts that `owned` and `served`, one snapshot on two backends,
/// reply identically to every Table II operation: `men2ent` and
/// `getConcept` for every mention probe, `getConcept` by display key for
/// every entity (each key must resolve), and `getEntity` for every
/// concept plus an unknown one, at several limits.
fn assert_equivalent(
    owned: &TaxonomyService,
    served: &TaxonomyService<Serving>,
    probes: &[String],
) {
    let same = |query: Query| -> QueryResponse {
        let reply = owned.execute(&query);
        assert_eq!(reply, served.execute(&query), "{query:?}");
        reply
    };
    let both = [ListOptions::default(), ListOptions::transitive()];
    for m in probes {
        same(Query::men2ent(m));
        for options in both.clone() {
            same(Query::GetConceptByMention {
                mention: m.clone(),
                options,
            });
        }
    }

    let pinned = owned.pin();
    let f = pinned.frozen();
    for e in f.entity_ids() {
        let entity = f.entity_key(e);
        for options in both.clone() {
            let reply = same(Query::GetConcept {
                entity: entity.clone(),
                options,
            });
            assert!(reply.result.is_ok(), "getConcept({entity}) resolves");
        }
    }

    let mut concepts: Vec<String> = f
        .concept_ids()
        .map(|c| f.concept_name(c).to_string())
        .collect();
    concepts.push("绝对不存在的概念".to_string());
    for concept in &concepts {
        for options in both.clone() {
            for limit in [1usize, 2, usize::MAX] {
                same(Query::GetEntity {
                    concept: concept.clone(),
                    options: options.clone().with_page(PageRequest::first(limit)),
                });
            }
        }
    }
}

#[test]
fn wrapper_and_service_agree_on_golden_fixture() {
    let service = TaxonomyService::new(golden());
    let mut probes = vec![
        "刘德华".to_string(),
        "刘德华（中国香港男演员）".to_string(),
        "张学友".to_string(),
        "Andy Lau".to_string(),
        "不存在".to_string(),
        "不存在（也不存在）".to_string(),
    ];
    probes.sort();
    assert_equivalent(&service, &serving_service(&golden()), &probes);

    // Known-answer spot checks for the protocol-only queries.
    let r = service.execute(&Query::IsA {
        sub: "刘德华（中国香港男演员）".to_string(),
        sup: "人物".to_string(),
        transitive: true,
    });
    assert_eq!(r.result, Ok(Response::IsA { holds: true }));
    let r = service.execute(&Query::IsA {
        sub: "男演员".to_string(),
        sup: "人物".to_string(),
        transitive: false,
    });
    assert_eq!(r.result, Ok(Response::IsA { holds: false }), "direct only");
    let r = service.execute(&Query::AncestorsOf {
        concept: "男演员".to_string(),
    });
    let Ok(Response::Ancestors(ancestors)) = r.result else {
        panic!("ancestors");
    };
    let names: Vec<&str> = ancestors.iter().map(|h| h.name.as_str()).collect();
    assert_eq!(names, ["演员", "人物"], "nearest-first");
    assert!(ancestors[0].direct && ancestors[0].confidence.is_some());
    assert!(!ancestors[1].direct && ancestors[1].confidence.is_none());
    let r = service.execute(&Query::MentionSenses {
        mention: "刘德华".to_string(),
    });
    let Ok(Response::SenseConcepts(senses)) = r.result else {
        panic!("mention senses");
    };
    assert_eq!(senses.len(), 2);
    assert!(senses.iter().any(|s| s.sense.disambig.is_some()));
    assert!(senses.iter().all(|s| !s.concepts.is_empty()));
}

#[test]
fn wrapper_and_service_agree_on_generated_corpus() {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(9)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let frozen = outcome.freeze();
    let served = serving_service(&frozen);
    let probes: Vec<String> = corpus.pages.iter().map(|p| p.name.clone()).collect();
    assert!(probes.len() > 100, "corpus too small to be meaningful");
    assert_equivalent(&TaxonomyService::new(frozen), &served, &probes);
}

#[test]
fn cursor_walk_stitches_back_to_the_unpaged_result() {
    let service = TaxonomyService::new(golden());
    let unpaged_query = Query::GetEntity {
        concept: "人物".to_string(),
        options: ListOptions::transitive(),
    };
    let Ok(Response::Entities(unpaged)) = service.execute(&unpaged_query).result else {
        panic!("unpaged");
    };
    assert!(unpaged.total >= 3 && unpaged.next.is_none());

    // Walk one item at a time; the concatenation must reproduce the
    // unpaged enumeration exactly — no skips, no repeats.
    let mut stitched: Vec<EntityHit> = Vec::new();
    let mut cursor = None;
    loop {
        let query = Query::GetEntity {
            concept: "人物".to_string(),
            options: ListOptions::transitive().with_page(PageRequest { limit: 1, cursor }),
        };
        let Ok(Response::Entities(page)) = service.execute(&query).result else {
            panic!("page");
        };
        assert_eq!(page.total, unpaged.total, "total is page-invariant");
        assert!(page.items.len() <= 1);
        stitched.extend(page.items);
        match page.next {
            Some(next) => {
                // The wire token round-trips through encode/decode.
                let token = next.encode();
                cursor = Some(cn_probase::Cursor::decode(&token).expect("token round-trip"));
            }
            None => break,
        }
    }
    assert_eq!(stitched, unpaged.items);
}

#[test]
fn foreign_and_stale_cursors_are_typed_errors() {
    let service = TaxonomyService::new(golden());
    let query_for = |concept: &str, cursor: Option<cn_probase::Cursor>| Query::GetEntity {
        concept: concept.to_string(),
        options: ListOptions::transitive().with_page(PageRequest { limit: 1, cursor }),
    };
    let Ok(Response::Entities(Paged {
        next: Some(cursor), ..
    })) = service.execute(&query_for("人物", None)).result
    else {
        panic!("need a continuation cursor");
    };

    // Replayed against a different query: rejected, not mis-sliced.
    let foreign = service.execute(&query_for("歌手", Some(cursor))).result;
    assert_eq!(
        foreign,
        Err(QueryError::InvalidCursor(CursorError::WrongQuery))
    );

    // Replayed after a hot-swap: the generation no longer matches.
    assert_eq!(service.swap(golden()), 2);
    let stale = service.execute(&query_for("人物", Some(cursor))).result;
    assert_eq!(
        stale,
        Err(QueryError::InvalidCursor(CursorError::WrongGeneration {
            cursor: 1,
            serving: 2
        }))
    );

    // A fresh first page works fine on the new generation.
    let fresh = service.execute(&query_for("人物", None));
    assert_eq!(fresh.generation, 2);
    assert!(fresh.result.is_ok());
}

/// Serving `base + delta` through an [`OverlayView`] must answer every
/// query identically — same ids, same order, same confidences — to a
/// snapshot materialised from the merged content. Ids line up because the
/// overlay mints them in log order, exactly the ids a compaction replay
/// assigns.
#[test]
fn overlay_answers_match_the_materialised_snapshot() {
    let batch1 = CorpusGenerator::new(CorpusConfig::tiny(921)).generate();
    let batch2 = CorpusGenerator::new(CorpusConfig::tiny(922)).generate();
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let outcome1 = pipeline.run(&batch1);
    let base = outcome1.freeze();
    let delta = pipeline.run(&batch2).delta_against(&base);
    assert!(!delta.is_empty(), "disjoint batch produced no delta");

    let overlaid = TaxonomyService::new(OverlayView::new(base).apply(&delta));
    let mut union = outcome1.taxonomy.clone();
    delta.apply_to_store(&mut union);
    let materialised = TaxonomyService::new(FrozenTaxonomy::freeze(&union));

    let f = materialised.pin();
    let f = f.frozen();
    let mut queries: Vec<Query> = Vec::new();
    for corpus in [&batch1, &batch2] {
        for page in &corpus.pages {
            queries.push(Query::men2ent(&page.name));
            queries.push(Query::MentionSenses {
                mention: page.name.clone(),
            });
            for transitive in [false, true] {
                queries.push(Query::GetConceptByMention {
                    mention: page.name.clone(),
                    options: ListOptions {
                        transitive,
                        ..Default::default()
                    },
                });
            }
        }
    }
    for e in f.entity_ids() {
        queries.push(Query::GetConcept {
            entity: f.entity_key(e),
            options: ListOptions::transitive(),
        });
    }
    for c in f.concept_ids() {
        let name = f.concept_name(c).to_string();
        queries.push(Query::AncestorsOf {
            concept: name.clone(),
        });
        for limit in [2usize, usize::MAX] {
            queries.push(Query::GetEntity {
                concept: name.clone(),
                options: ListOptions {
                    transitive: true,
                    min_confidence: 0.0,
                    page: PageRequest::first(limit),
                },
            });
        }
    }
    assert!(queries.len() > 500, "probe battery too small");
    for query in &queries {
        assert_eq!(
            overlaid.execute(query).result,
            materialised.execute(query).result,
            "overlay and materialised snapshot disagree on {query:?}"
        );
    }
}

/// An `/admin/ingest`-style overlay apply is a generation bump like any
/// other swap: cursors minted before it are rejected with the typed
/// `WrongGeneration` error afterwards, and a fresh walk on the new
/// generation stitches the post-ingest enumeration.
#[test]
fn cursor_walks_are_generation_bound_across_ingest() {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(923)).generate();
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let outcome = pipeline.run(&corpus);
    let base = outcome.freeze();
    let concept = {
        // Pick the concept with the largest transitive extent so every
        // walk below needs several pages.
        let c = base
            .concept_ids()
            .max_by_key(|&c| base.descendants(c).len())
            .expect("nonempty taxonomy");
        base.concept_name(c).to_string()
    };
    let service = TaxonomyService::new(OverlayView::new(base));

    let query_for = |cursor: Option<cn_probase::Cursor>| Query::GetEntity {
        concept: concept.clone(),
        options: ListOptions::transitive().with_page(PageRequest { limit: 2, cursor }),
    };
    let first = service.execute(&query_for(None));
    assert_eq!(first.generation, 1);
    let Ok(Response::Entities(Paged {
        next: Some(cursor), ..
    })) = first.result
    else {
        panic!("need a continuation cursor");
    };

    // Ingest a second batch; the swap bumps the generation.
    let batch2 = CorpusGenerator::new(CorpusConfig::tiny(924)).generate();
    let delta = pipeline.run(&batch2).delta_against(service.pin().frozen());
    assert_eq!(service.ingest(&delta).expect("ingest"), 2);

    // The pre-ingest cursor is now typed-stale, never mis-sliced.
    let stale = service.execute(&query_for(Some(cursor))).result;
    assert_eq!(
        stale,
        Err(QueryError::InvalidCursor(CursorError::WrongGeneration {
            cursor: 1,
            serving: 2
        }))
    );

    // A fresh walk on generation 2 stitches back to the unpaged
    // post-ingest result.
    let unpaged_query = Query::GetEntity {
        concept: concept.clone(),
        options: ListOptions::transitive(),
    };
    let Ok(Response::Entities(unpaged)) = service.execute(&unpaged_query).result else {
        panic!("unpaged");
    };
    let mut stitched: Vec<EntityHit> = Vec::new();
    let mut cursor = None;
    loop {
        let response = service.execute(&query_for(cursor.take()));
        assert_eq!(response.generation, 2);
        let Ok(Response::Entities(page)) = response.result else {
            panic!("page");
        };
        assert_eq!(page.total, unpaged.total, "total is page-invariant");
        stitched.extend(page.items);
        match page.next {
            Some(next) => cursor = Some(next),
            None => break,
        }
    }
    assert_eq!(stitched, unpaged.items);
}

// ----- getEntity: every page against the whole-extent reference -----------

type Serving = OverlayView<FrozenTaxonomyView>;

/// Light `getEntity` record: (entity, via, confidence).
type RawEntityHit = (EntityId, ConceptId, f32);

/// The `getEntity` enumeration as the executor computed it when every
/// request walked the concept's whole transitive extent: the own row,
/// then each subconcept's row in BFS order, floor-gated per edge, each
/// entity at its first occurrence. Copied from the executor unchanged so
/// any faster enumeration is compared with the obvious one.
fn entity_hits<T: TaxonomyRead>(f: &T, c: ConceptId, options: &ListOptions) -> Vec<RawEntityHit> {
    let mut seen: FxHashSet<EntityId> = FxHashSet::default();
    let mut out: Vec<RawEntityHit> = Vec::new();
    let push_row = |via: ConceptId, seen: &mut FxHashSet<EntityId>, out: &mut Vec<RawEntityHit>| {
        for (e, confidence) in f.entities_with_confidence(via) {
            if confidence < options.min_confidence {
                continue;
            }
            if seen.insert(e) {
                out.push((e, via, confidence));
            }
        }
    };
    push_row(c, &mut seen, &mut out);
    if options.transitive {
        for sub in f.descendants(c) {
            push_row(sub, &mut seen, &mut out);
        }
    }
    out
}

/// The executor's slicing of that enumeration, with the cursor reduced to
/// the offset a client can read back from it: the page, the total, and
/// the offset of the next page when one is due. `limit: 0` is a count.
fn paginate<T: Clone>(items: &[T], limit: usize, offset: usize) -> (Vec<T>, usize, Option<usize>) {
    let total = items.len();
    assert!(offset <= total, "a served cursor points past the end");
    let end = offset.saturating_add(limit).min(total);
    let next = (end < total && limit > 0).then_some(end);
    let items: Vec<T> = items
        .iter()
        .skip(offset)
        .take(end - offset)
        .cloned()
        .collect();
    (items, total, next)
}

/// Serves `snapshot` the way `cnp_server` does: a v3 file's bytes opened
/// in place, under an empty overlay.
fn serving_service(snapshot: &FrozenTaxonomy) -> TaxonomyService<Serving> {
    let view = FrozenTaxonomyView::open(encode_frozen_v3(snapshot)).expect("v3 opens");
    TaxonomyService::new(OverlayView::new(view))
}

/// Walks every `getEntity` page — every concept of the pinned generation
/// plus one unknown name, both transitive flags, three floors, five
/// limits, following `next` to the end — and asserts each page equals
/// the reference slice. Returns the number of pages checked.
fn sweep_get_entity(pin: &PinnedSnapshot<Serving>) -> usize {
    let f = pin.frozen();
    let mut names: Vec<String> = (0..f.num_concepts() as u32)
        .map(|c| f.concept_name(ConceptId(c)).to_string())
        .collect();
    names.push("绝对不存在的概念".to_string());
    let mut pages = 0;
    for name in &names {
        for transitive in [true, false] {
            for min_confidence in [0.0f32, 0.5, 0.95] {
                let options = ListOptions {
                    transitive,
                    min_confidence,
                    page: PageRequest::all(),
                };
                let reference = f.find_concept(name).map(|c| {
                    entity_hits(f, c, &options)
                        .into_iter()
                        .map(|(id, via, confidence)| EntityHit {
                            id,
                            key: f.entity_key(id),
                            via,
                            confidence,
                        })
                        .collect::<Vec<_>>()
                });
                for limit in [0usize, 1, 3, 10, usize::MAX] {
                    let (mut cursor, mut offset) = (None, 0);
                    loop {
                        let query = Query::GetEntity {
                            concept: name.clone(),
                            options: options.clone().with_page(PageRequest { limit, cursor }),
                        };
                        let response = pin.execute(&query);
                        assert_eq!(response.generation, pin.generation());
                        pages += 1;
                        let Some(reference) = &reference else {
                            assert_eq!(
                                response.result,
                                Err(QueryError::UnknownConcept(name.clone()))
                            );
                            break;
                        };
                        let Ok(Response::Entities(page)) = response.result else {
                            panic!("{query:?}: {:?}", response.result);
                        };
                        let (items, total, next) = paginate(reference, limit, offset);
                        assert_eq!(page.items, items, "{query:?}");
                        assert_eq!(page.total, total, "{query:?}");
                        assert_eq!(page.next.map(|c| c.offset()), next, "{query:?}");
                        match page.next {
                            Some(c) => {
                                assert_eq!(c.generation(), pin.generation());
                                offset = c.offset();
                                cursor = Some(c);
                            }
                            None => break,
                        }
                    }
                }
            }
        }
    }
    pages
}

/// Every `getEntity` page the serving type answers equals the slice of
/// the whole-extent reference: on a cold generation, again on the same
/// generation once warm, on the generation an ingest publishes, and on a
/// pin of the generation before it.
#[test]
fn every_get_entity_page_matches_the_reference() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(941)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let service = serving_service(&outcome.freeze());
    let old = service.pin();
    let cold = sweep_get_entity(&old);
    assert!(cold > 5_000, "sweep too small: {cold} pages");
    assert_eq!(sweep_get_entity(&old), cold, "warm sweep");

    // A leaf under a parent with other children: the delta adds a new
    // entity to the leaf, and a second edge into the leaf for an entity
    // a sibling row already lists, so the parent's enumeration must
    // dedup it at its first occurrence.
    let f = old.frozen();
    let (leaf, sibling) = (0..f.num_concepts() as u32)
        .map(ConceptId)
        .filter(|&c| f.children_of(c).next().is_none())
        .find_map(|leaf| {
            let (parent, _) = f.parents_of(leaf).next()?;
            let sibling = f
                .children_of(parent)
                .find(|&s| s != leaf && f.entities_of(s).next().is_some())?;
            Some((leaf, sibling))
        })
        .expect("a leaf with a populated sibling");
    let existing = f.entities_of(sibling).next().expect("a populated sibling");
    let leaf_name = f.concept_name(leaf).to_string();
    let record = f.entity(existing);
    let disambig = f.resolve(record.disambig);
    let mut delta = DeltaOverlay::new();
    delta.upsert_entity_is_a(
        "参照新实体",
        None,
        &leaf_name,
        IsAMeta::new(Source::Tag, 0.97),
    );
    delta.upsert_entity_is_a(
        f.resolve(record.name),
        (!disambig.is_empty()).then_some(disambig),
        &leaf_name,
        IsAMeta::new(Source::Infobox, 0.96),
    );
    assert_eq!(service.ingest(&delta).expect("ingest"), 2);

    let new = service.pin();
    assert_eq!(new.generation(), 2);
    assert!(sweep_get_entity(&new) > cold, "the delta adds pages");
    assert_eq!(
        sweep_get_entity(&old),
        cold,
        "the old pin, after the ingest"
    );
}
