//! Equivalence of the frozen serving snapshot and the mutable-store path.
//!
//! Builds a taxonomy with the full pipeline over a generated corpus, then
//! checks that the frozen snapshot, and a [`TaxonomyService`] serving it,
//! answer `men2ent`, `getConcept(transitive)`, `getEntity` and `depth`
//! exactly like the build-time `TaxonomyStore` primitives
//! (`MentionIndex`, `closure::ancestors`/`descendants`, `query::depths`).
//! `getConcept` asks by each entity's display key, so the check covers
//! key resolution too.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::taxonomy::mention::MentionIndex;
use cn_probase::taxonomy::store::EntityId;
use cn_probase::taxonomy::{closure, query, TaxonomyStore};
use cn_probase::{ListOptions, Query, QueryResponse, Response, TaxonomyService};

fn build() -> (TaxonomyStore, TaxonomyService) {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(42)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let service = TaxonomyService::new(outcome.freeze());
    (outcome.taxonomy, service)
}

/// The names a list answer carries: concept names or entity keys.
fn names(response: QueryResponse) -> Vec<String> {
    match response.result {
        Ok(Response::Concepts(page)) => page.items.into_iter().map(|h| h.name).collect(),
        Ok(Response::Entities(page)) => page.items.into_iter().map(|h| h.key).collect(),
        other => panic!("not a list answer: {other:?}"),
    }
}

#[test]
fn frozen_matches_mutable_store_on_generated_corpus() {
    let (mut store, service) = build();
    let pinned = service.pin();
    let frozen = pinned.frozen();
    assert!(
        store.num_entities() > 50,
        "corpus too small to be meaningful"
    );

    // --- men2ent: every name, full key and alias resolves identically ---
    let mentions: Vec<String> = store
        .entity_ids()
        .flat_map(|e| {
            let mut ms = vec![
                store.resolve(store.entity(e).name).to_string(),
                store.entity_key(e),
            ];
            for &a in store.aliases_of(e) {
                ms.push(store.resolve(a).to_string());
            }
            ms
        })
        .collect();
    let index = MentionIndex::build(&mut store);
    for m in &mentions {
        assert_eq!(
            frozen.men2ent(m),
            index.men2ent(&store, m).as_slice(),
            "men2ent({m})"
        );
    }
    // The served answer agrees with the raw ids.
    for m in mentions.iter().take(200) {
        let Ok(Response::Senses(senses)) = pinned.execute(&Query::men2ent(m)).result else {
            panic!("men2ent({m}) is not a sense list");
        };
        let ids: Vec<EntityId> = senses.into_iter().map(|s| s.id).collect();
        assert_eq!(ids.as_slice(), frozen.men2ent(m));
    }

    // --- getConcept(transitive): direct edges + BFS closure ---
    for e in store.entity_ids() {
        let direct: Vec<_> = store.concepts_of(e).iter().map(|&(c, _)| c).collect();
        let mut expected: Vec<String> = direct
            .iter()
            .map(|&c| store.concept_name(c).to_string())
            .collect();
        for &c in &direct {
            for a in closure::ancestors(&store, c) {
                let name = store.concept_name(a).to_string();
                if !expected.contains(&name) {
                    expected.push(name);
                }
            }
        }
        let mut got = names(pinned.execute(&Query::GetConcept {
            entity: store.entity_key(e),
            options: ListOptions::transitive(),
        }));
        // The transitive tails are ordered differently (BFS vs sorted
        // closure rows); compare as sets, and the direct prefix exactly.
        assert_eq!(got[..direct.len()], expected[..direct.len()]);
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "getConcept({e:?}, transitive)");
    }

    // --- getEntity: identical including the ranked-row BFS order and
    // dedup. Hyponym rows are confidence-ranked in the snapshot, so the
    // expectation walks the store's own rank order
    // (`TaxonomyStore::ranked_entities_of`). ---
    for c in store.concept_ids() {
        let name = store.concept_name(c).to_string();
        let mut expected: Vec<String> = Vec::new();
        let mut seen: Vec<EntityId> = Vec::new();
        for e in store.ranked_entities_of(c) {
            if !seen.contains(&e) {
                seen.push(e);
                expected.push(store.entity_key(e));
            }
        }
        for sub in closure::descendants(&store, c) {
            for e in store.ranked_entities_of(sub) {
                if !seen.contains(&e) {
                    seen.push(e);
                    expected.push(store.entity_key(e));
                }
            }
        }
        let query = Query::GetEntity {
            concept: name.clone(),
            options: ListOptions::transitive(),
        };
        assert_eq!(names(pinned.execute(&query)), expected, "getEntity({name})");
    }

    // --- depth: one exact pass vs the frozen array ---
    let depths = query::depths(&store);
    for c in store.concept_ids() {
        assert_eq!(frozen.depth(c), depths[c.index()] as usize, "depth({c:?})");
    }
}
