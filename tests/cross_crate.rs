//! Cross-crate integration: QA coverage over a built taxonomy, bracket
//! chains becoming subconcept edges, and mention disambiguation through
//! the full stack.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::eval::{coverage, generate_questions};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::{Query, Response, TaxonomyService};

#[test]
fn qa_coverage_matches_the_papers_shape() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(89)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let questions = generate_questions(&corpus, 3_000, 11);
    let result = coverage(&outcome.freeze(), &questions);
    // Paper: 91.68% coverage; our generator embeds ~92% mention questions.
    assert!(
        (0.80..=1.0).contains(&result.coverage()),
        "coverage {:.3} outside band",
        result.coverage()
    );
    // Paper: 2.14 concepts per covered entity — ours must exceed 1.
    assert!(
        result.avg_concepts_per_entity > 1.0,
        "avg concepts {:.2}",
        result.avg_concepts_per_entity
    );
}

#[test]
fn chief_title_chains_become_subconcept_edges() {
    // Find a corpus seed that generates 首席X brackets, then verify the
    // chain 首席X → X landed in the taxonomy as a subconcept edge.
    let corpus = CorpusGenerator::new(CorpusConfig::small(90)).generate();
    let has_chief_bracket = corpus
        .pages
        .iter()
        .any(|p| p.bracket.as_deref().is_some_and(|b| b.contains("首席")));
    assert!(has_chief_bracket, "corpus lacks 首席 brackets");
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let store = &outcome.taxonomy;
    let chief_chain = store.concept_ids().any(|c| {
        let name = store.concept_name(c);
        name.starts_with("首席")
            && store.parents_of(c).iter().any(|(p, _)| {
                let parent = store.concept_name(*p);
                name.ends_with(parent)
            })
    });
    assert!(chief_chain, "no 首席X → X subconcept chain in the taxonomy");
}

#[test]
fn ambiguous_mentions_resolve_to_multiple_senses() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(91)).generate();
    // The generator forces brackets onto colliding names.
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for p in &corpus.pages {
        if !corpus.gold.is_concept(&p.name) {
            *counts.entry(p.name.as_str()).or_insert(0) += 1;
        }
    }
    let ambiguous: Vec<&str> = counts
        .iter()
        .filter(|(_, &n)| n > 1)
        .map(|(name, _)| *name)
        .collect();
    assert!(!ambiguous.is_empty(), "no ambiguous names generated");

    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let service = TaxonomyService::from_store(outcome.taxonomy);
    let mut multi_sense_seen = false;
    for name in ambiguous {
        let Ok(Response::Senses(senses)) = service.execute(&Query::men2ent(name)).result else {
            continue;
        };
        if senses.len() > 1 {
            multi_sense_seen = true;
            // Each sense key must be the full disambiguated form.
            for sense in senses {
                assert!(sense.key.starts_with(name));
            }
        }
    }
    assert!(multi_sense_seen, "men2ent never returned multiple senses");
}

#[test]
fn thematic_tags_never_survive_as_concepts() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(92)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    for c in outcome.taxonomy.concept_ids() {
        let name = outcome.taxonomy.concept_name(c);
        assert!(
            !cn_probase::text::lexicons::is_thematic(name),
            "thematic word {name} survived as a concept"
        );
    }
}
