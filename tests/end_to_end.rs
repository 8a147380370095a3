//! End-to-end integration tests spanning all crates: corpus → pipeline →
//! taxonomy → APIs → evaluation, with the paper's headline claims asserted
//! as *shape* invariants (not point values).

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::eval;
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::taxonomy::{closure, persist, Source};
use cn_probase::{FrozenTaxonomyView, ListOptions, Query, Response, TaxonomyService};

fn small_outcome() -> (
    cn_probase::encyclopedia::Corpus,
    cn_probase::pipeline::PipelineOutcome,
) {
    let corpus = CorpusGenerator::new(CorpusConfig::small(2025)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    (corpus, outcome)
}

#[test]
fn headline_precision_is_high() {
    let (corpus, outcome) = small_outcome();
    let est = eval::estimate(&outcome.candidates, &corpus.gold, 2_000, 1);
    assert!(
        est.precision() > 0.90,
        "final precision {:.3} below the paper's ballpark (95%)",
        est.precision()
    );
    assert!(est.sampled >= 1_000, "sample too small: {}", est.sampled);
}

#[test]
fn bracket_and_tag_are_the_most_precise_sources() {
    let (corpus, outcome) = small_outcome();
    let by_source = eval::per_source(&outcome.candidates, &corpus.gold);
    let get = |s: Source| {
        by_source
            .iter()
            .find(|(src, _)| *src == s)
            .map(|(_, e)| e.precision())
            .unwrap()
    };
    // Paper: bracket 96.2%, tag 97.4% — our verified sources must clear 90%.
    assert!(
        get(Source::Bracket) > 0.90,
        "bracket {:.3}",
        get(Source::Bracket)
    );
    assert!(get(Source::Tag) > 0.92, "tag {:.3}", get(Source::Tag));
    assert!(
        get(Source::Infobox) > 0.85,
        "infobox {:.3}",
        get(Source::Infobox)
    );
}

#[test]
fn taxonomy_is_a_dag_with_subconcept_relations() {
    let (_, outcome) = small_outcome();
    assert!(closure::is_dag(&outcome.taxonomy));
    assert!(
        outcome.taxonomy.num_concept_is_a() > 0,
        "no subconcept-concept relations were built"
    );
    assert!(outcome.taxonomy.num_entity_is_a() > outcome.taxonomy.num_concept_is_a());
}

#[test]
fn api_answers_are_consistent_with_the_store() {
    let (corpus, outcome) = small_outcome();
    let service = TaxonomyService::from_store(outcome.taxonomy);
    let concepts = |entity: &str, options| {
        let query = Query::GetConcept {
            entity: entity.to_string(),
            options,
        };
        match service.execute(&query).result {
            Ok(Response::Concepts(page)) => page.items.into_iter().map(|h| h.name).collect(),
            other => panic!("getConcept({entity}): {other:?}"),
        }
    };
    let mut checked = 0;
    for page in corpus.pages.iter().take(300) {
        let Ok(Response::Senses(senses)) = service.execute(&Query::men2ent(&page.name)).result
        else {
            continue;
        };
        for sense in senses {
            let direct: Vec<String> = concepts(&sense.key, ListOptions::default());
            let transitive: Vec<String> = concepts(&sense.key, ListOptions::transitive());
            assert!(transitive.len() >= direct.len());
            for concept in &direct {
                // Reverse direction: the entity must appear under the concept.
                let query = Query::GetEntity {
                    concept: concept.clone(),
                    options: ListOptions::default(),
                };
                let Ok(Response::Entities(hyponyms)) = service.execute(&query).result else {
                    panic!("getEntity({concept}) is not a page");
                };
                assert!(
                    hyponyms.items.iter().any(|h| h.key == sense.key),
                    "{} missing from getEntity({concept})",
                    sense.key
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "too few edges checked: {checked}");
}

#[test]
fn snapshot_roundtrip_preserves_the_taxonomy() {
    let (_, outcome) = small_outcome();
    let bytes = persist::encode_frozen_v3(&outcome.freeze());
    let loaded = FrozenTaxonomyView::open(bytes).expect("open");
    assert_eq!(outcome.taxonomy.num_entities(), loaded.num_entities());
    assert_eq!(outcome.taxonomy.num_concepts(), loaded.num_concepts());
    assert_eq!(outcome.taxonomy.num_is_a(), loaded.num_is_a());
    // Every entity keeps its key and its edges, in order.
    for e in outcome.taxonomy.entity_ids() {
        assert_eq!(outcome.taxonomy.entity_key(e), loaded.entity_key(e));
        let orig: Vec<&str> = outcome
            .taxonomy
            .concepts_of(e)
            .iter()
            .map(|(c, _)| outcome.taxonomy.concept_name(*c))
            .collect();
        let re: Vec<&str> = loaded
            .concepts_of(e)
            .map(|(c, _)| loaded.concept_name(c))
            .collect();
        assert_eq!(orig, re);
    }
}

#[test]
fn pipeline_is_deterministic_for_equal_seeds() {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(77)).generate();
    let a = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let b = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    assert_eq!(a.report.merged_candidates, b.report.merged_candidates);
    assert_eq!(a.report.final_candidates, b.report.final_candidates);
    assert_eq!(a.taxonomy.num_is_a(), b.taxonomy.num_is_a());
}

#[test]
fn verification_trades_little_coverage_for_precision() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(2026)).generate();
    let verified = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let unverified = Pipeline::new(PipelineConfig::unverified()).run(&corpus);
    let p_v = eval::estimate(&verified.candidates, &corpus.gold, 2_000, 3).precision();
    let p_u = eval::estimate(&unverified.candidates, &corpus.gold, 2_000, 3).precision();
    assert!(
        p_v > p_u,
        "verification must raise precision ({p_v:.3} vs {p_u:.3})"
    );
    // Coverage cost bounded: at least 85% of edges survive.
    assert!(
        verified.candidates.len() * 100 >= unverified.candidates.len() * 85,
        "verification removed too much: {} of {}",
        verified.candidates.len(),
        unverified.candidates.len()
    );
}

/// The verification ablation the paper does not report: each strategy
/// alone (A incompatible concepts, B NER filter, C syntax rules) must
/// remove edges and raise precision over no verification, and all three
/// together must beat any one of them. Precision is exact: every
/// surviving candidate is judged against gold, not a 2 000-edge sample.
#[test]
fn each_verification_strategy_raises_precision() {
    use cn_probase::pipeline::verification::{self, VerificationConfig};
    use cn_probase::pipeline::PipelineContext;
    use cn_probase::runtime::Runtime;

    let corpus = CorpusGenerator::new(CorpusConfig::small(2025)).generate();
    let config = PipelineConfig::unverified();
    let raw = Pipeline::new(config.clone()).run(&corpus).candidates;
    let ctx = PipelineContext::build(&corpus, config.threads);
    let rt = Runtime::new(config.threads);
    let none = VerificationConfig::none();
    let strategies = [
        ("none", none.clone()),
        (
            "A incompatible",
            VerificationConfig {
                incompatible: Some(Default::default()),
                ..none.clone()
            },
        ),
        (
            "B ner",
            VerificationConfig {
                ner: Some(Default::default()),
                ..none.clone()
            },
        ),
        (
            "C syntax",
            VerificationConfig {
                syntax: Some(Default::default()),
                ..none
            },
        ),
        ("all", VerificationConfig::all()),
    ];

    println!(
        "{:<16} {:>8} {:>10} {:>8}",
        "strategies", "edges", "precision", "removed"
    );
    let mut precision = Vec::new();
    for (name, cfg) in &strategies {
        let (kept, report) = verification::verify(raw.clone(), &corpus.pages, &ctx, cfg, &rt);
        let est = eval::estimate(&kept, &corpus.gold, usize::MAX, 0);
        assert_eq!(est.sampled, kept.len(), "{name}: every edge is judged");
        assert_eq!(kept.len() + report.total(), raw.len());
        println!(
            "{:<16} {:>8} {:>10.4} {:>8}",
            name,
            kept.len(),
            est.precision(),
            report.total()
        );
        if *name != "none" {
            assert!(report.total() > 0, "{name} removed nothing");
        }
        precision.push(est.precision());
    }
    let (p_none, alone, p_all) = (precision[0], &precision[1..4], precision[4]);
    for ((name, _), &p) in strategies[1..4].iter().zip(alone) {
        assert!(p > p_none, "{name} alone: {p:.4} vs none {p_none:.4}");
        assert!(p < p_all, "{name} alone: {p:.4} vs all {p_all:.4}");
    }
}
