//! Serving API v1 equivalence (ISSUE 5 acceptance).
//!
//! The `ProbaseApi` compatibility wrapper and the typed `TaxonomyService`
//! must return identical answers for every Table II operation — locked in
//! here on the committed golden fixture (known world, exact expectations)
//! and on a pipeline-built corpus (breadth). Also locks the pagination
//! contract: stitching cursor-walked pages reproduces the unpaged result,
//! and stale or foreign cursors are rejected as typed errors, never
//! mis-sliced.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::serve::{CursorError, EntityHit, Paged};
use cn_probase::taxonomy::EntityId;
use cn_probase::{
    FrozenTaxonomy, FrozenTaxonomyView, ListOptions, OverlayView, PageRequest, ProbaseApi, Query,
    QueryError, Response, TaxonomyService,
};
use std::path::Path;

/// The committed golden snapshot, materialised into the owned backend.
fn golden() -> FrozenTaxonomy {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v3.cnpb");
    let view = FrozenTaxonomyView::load_from_file(&path).expect("fixture opens");
    view.to_frozen().expect("fixture materialises")
}

fn senses_of(service: &TaxonomyService, mention: &str) -> Option<Vec<EntityId>> {
    match service.execute(&Query::men2ent(mention)).result {
        Ok(Response::Senses(s)) => Some(s.into_iter().map(|x| x.id).collect()),
        Err(QueryError::UnknownMention(_)) => None,
        other => panic!("men2ent({mention}): unexpected {other:?}"),
    }
}

fn concept_names(service: &TaxonomyService, query: &Query) -> Option<Vec<String>> {
    match service.execute(query).result {
        Ok(Response::Concepts(page)) => Some(page.items.into_iter().map(|h| h.name).collect()),
        Err(QueryError::UnknownMention(_)) | Err(QueryError::UnknownEntity(_)) => None,
        other => panic!("{query:?}: unexpected {other:?}"),
    }
}

fn entity_keys(service: &TaxonomyService, query: &Query) -> Option<Vec<String>> {
    match service.execute(query).result {
        Ok(Response::Entities(page)) => Some(page.items.into_iter().map(|h| h.key).collect()),
        Err(QueryError::UnknownConcept(_)) => None,
        other => panic!("{query:?}: unexpected {other:?}"),
    }
}

/// Asserts wrapper ≡ service for every Table II operation over the given
/// mention/concept probe sets.
fn assert_equivalent(api: &ProbaseApi, service: &TaxonomyService, probes: &[String]) {
    let f = api.frozen();
    for m in probes {
        // men2ent: same senses, same order; unknown mention ≡ empty vec.
        let wrapper: Vec<EntityId> = api.men2ent(m).into_iter().map(|s| s.id).collect();
        let typed = senses_of(service, m).unwrap_or_default();
        assert_eq!(wrapper, typed, "men2ent({m})");

        // getConcept by mention, both transitive flags.
        for transitive in [false, true] {
            let query = Query::GetConceptByMention {
                mention: m.clone(),
                options: ListOptions {
                    transitive,
                    ..Default::default()
                },
            };
            assert_eq!(
                api.get_concept_by_mention(m, transitive),
                concept_names(service, &query).unwrap_or_default(),
                "getConceptByMention({m}, {transitive})"
            );
        }
    }

    // getConcept by entity key, every entity, both transitive flags.
    for e in f.entity_ids() {
        let key = f.entity_key(e);
        for transitive in [false, true] {
            let query = Query::GetConcept {
                entity: key.clone(),
                options: ListOptions {
                    transitive,
                    ..Default::default()
                },
            };
            assert_eq!(
                api.get_concept(e, transitive),
                concept_names(service, &query).expect("known entity"),
                "getConcept({key}, {transitive})"
            );
        }
    }

    // getEntity, every concept plus an unknown, several limits.
    let mut concepts: Vec<String> = f
        .concept_ids()
        .map(|c| f.concept_name(c).to_string())
        .collect();
    concepts.push("绝对不存在的概念".to_string());
    for name in &concepts {
        for transitive in [false, true] {
            for limit in [1usize, 2, usize::MAX] {
                let query = Query::GetEntity {
                    concept: name.clone(),
                    options: ListOptions {
                        transitive,
                        min_confidence: 0.0,
                        page: PageRequest::first(limit),
                    },
                };
                assert_eq!(
                    api.get_entity(name, transitive, limit),
                    entity_keys(service, &query).unwrap_or_default(),
                    "getEntity({name}, {transitive}, {limit})"
                );
            }
        }
    }
}

#[test]
fn wrapper_and_service_agree_on_golden_fixture() {
    let api = ProbaseApi::from_frozen(golden());
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
    assert_equivalent(&api, &service, &probes);

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
    let api = ProbaseApi::from_frozen(frozen.clone());
    let service = TaxonomyService::new(frozen);
    let probes: Vec<String> = corpus.pages.iter().map(|p| p.name.clone()).collect();
    assert!(probes.len() > 100, "corpus too small to be meaningful");
    assert_equivalent(&api, &service, &probes);
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
