//! Workspace-level integration test for the `cn_probase` facade: every
//! documented re-export must resolve, and the README/lib.rs quickstart must
//! work exactly as written.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};

/// Each facade module path resolves to the member crate's public API.
/// A type/function per module keeps this a compile-time check with a
/// runtime smoke assertion where construction is cheap.
#[test]
fn reexported_modules_resolve() {
    // text → cnp_text
    let dict = cn_probase::text::Dictionary::base();
    let seg = cn_probase::text::Segmenter::new(dict);
    assert!(!seg.words("中国演员").is_empty());

    // nn → cnp_nn
    let vocab = cn_probase::nn::Vocab::new();
    assert!(vocab.len() >= 4, "PAD/BOS/EOS/UNK reserved entries");

    // encyclopedia → cnp_encyclopedia
    let config = cn_probase::encyclopedia::CorpusConfig::tiny(1);
    let _generator = cn_probase::encyclopedia::CorpusGenerator::new(config);

    // taxonomy → cnp_taxonomy
    let store = cn_probase::taxonomy::TaxonomyStore::new();
    assert_eq!(store.num_is_a(), 0);
    // The serving types are re-exported at the crate root.
    let frozen: cn_probase::FrozenTaxonomy = cn_probase::taxonomy::FrozenTaxonomy::freeze(&store);
    assert_eq!(frozen.num_is_a(), 0);
    // The submodules integration code depends on must stay public.
    let empty = cn_probase::taxonomy::persist::encode_frozen_v3(&frozen);
    assert!(cn_probase::FrozenTaxonomyView::open(empty).is_ok());

    // serve → cnp_serve: the Serving API v1 protocol at the crate root.
    let service: cn_probase::TaxonomyService = cn_probase::serve::TaxonomyService::new(frozen);
    assert_eq!(service.generation(), 1);
    let response: cn_probase::QueryResponse =
        service.execute(&cn_probase::Query::men2ent("刘德华"));
    assert!(matches!(
        response.result,
        Err(cn_probase::QueryError::UnknownMention(_))
    ));
    let options =
        cn_probase::ListOptions::transitive().with_page(cn_probase::PageRequest::first(5));
    let _query = cn_probase::Query::GetEntity {
        concept: "人物".to_string(),
        options,
    };
    assert!(matches!(
        cn_probase::Cursor::decode("not a cursor"),
        Err(cn_probase::serve::CursorError::Malformed)
    ));
    let _response_ty: Option<cn_probase::Response> = None;

    // tag → cnp_tag: the tagging workload at the crate root.
    let tagger: cn_probase::Tagger<cn_probase::FrozenTaxonomy> =
        cn_probase::tag::Tagger::new(std::sync::Arc::new(cn_probase::FrozenTaxonomy::freeze(
            &cn_probase::taxonomy::TaxonomyStore::new(),
        )));
    let output: cn_probase::TagOutput = tagger.tag("刘德华", &cn_probase::TagOptions::default());
    assert!(
        output.concepts.is_empty(),
        "an empty taxonomy yields no concept mass (the NER gate may still surface spans)"
    );

    // pipeline → cnp_core
    let _config = cn_probase::pipeline::PipelineConfig::fast();

    // eval → cnp_eval
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(1)).generate();
    let questions = cn_probase::eval::generate_questions(&corpus, 5, 9);
    assert_eq!(questions.len(), 5);
}

/// The quickstart from the facade's crate docs, verbatim.
#[test]
fn quickstart_builds_a_nonempty_taxonomy() {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(7)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    assert!(outcome.taxonomy.num_is_a() > 0);
}
