//! Equivalence of the frozen serving snapshot and the mutable-store path.
//!
//! Builds a taxonomy with the full pipeline over a generated corpus, then
//! checks that [`FrozenTaxonomy`]/[`ProbaseApi`] answer `men2ent`,
//! `getConcept(transitive)`, `getEntity` and `depth` exactly like the
//! build-time `TaxonomyStore` primitives (`MentionIndex`,
//! `closure::ancestors`/`descendants`, `query::depths`).

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::taxonomy::mention::MentionIndex;
use cn_probase::taxonomy::store::EntityId;
use cn_probase::taxonomy::{closure, query, TaxonomyStore};
use cn_probase::ProbaseApi;

fn build() -> (TaxonomyStore, ProbaseApi) {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(42)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let api = ProbaseApi::from_frozen(outcome.freeze());
    (outcome.taxonomy, api)
}

#[test]
fn frozen_matches_mutable_store_on_generated_corpus() {
    let (mut store, api) = build();
    let frozen = api.frozen();
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
    // API layer agrees with the raw ids.
    for m in mentions.iter().take(200) {
        let senses: Vec<EntityId> = api.men2ent(m).into_iter().map(|s| s.id).collect();
        assert_eq!(senses.as_slice(), frozen.men2ent(m));
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
        let mut got = api.get_concept(e, true);
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
        assert_eq!(
            api.get_entity(&name, true, usize::MAX),
            expected,
            "getEntity({name})"
        );
    }

    // --- depth: one exact pass vs the frozen array ---
    let depths = query::depths(&store);
    for c in store.concept_ids() {
        assert_eq!(frozen.depth(c), depths[c.index()] as usize, "depth({c:?})");
    }
}
