//! Quickstart: generate a corpus, build a taxonomy, query the three APIs,
//! and round-trip a binary snapshot.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::taxonomy::TaxonomyStats;
use cn_probase::{FrozenTaxonomyView, ListOptions, PageRequest, Query, Response, TaxonomyService};

fn main() {
    // 1) A small synthetic Chinese encyclopedia (CN-DBpedia stand-in).
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(2024)).generate();
    println!("generated {} encyclopedia pages", corpus.pages.len());

    // 2) Run the CN-Probase generation + verification pipeline.
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    println!("{}", TaxonomyStats::of(&outcome.taxonomy));

    // 3) Freeze the build store for serving and persist the snapshot: the
    //    mutable store is the write side, the frozen snapshot the read side.
    let path = std::env::temp_dir().join("cn_probase_quickstart.cnpb");
    let frozen = outcome.save_view(&path).expect("save snapshot");

    // 4) Ask the three public APIs of Table II off the frozen snapshot. Each
    //    call is a `Query` value the service answers: men2ent, getConcept
    //    (by the entity's display key) and getEntity.
    let concepts: Vec<String> = frozen
        .concept_ids()
        .map(|c| frozen.concept_name(c).to_string())
        .collect();
    let service = TaxonomyService::new(frozen);
    let ask = |query: Query| -> Vec<String> {
        match service.execute(&query).result {
            Ok(Response::Senses(senses)) => senses.into_iter().map(|s| s.key).collect(),
            Ok(Response::Concepts(page)) => page.items.into_iter().map(|h| h.name).collect(),
            Ok(Response::Entities(page)) => page.items.into_iter().map(|h| h.key).collect(),
            _ => Vec::new(),
        }
    };
    let page = corpus
        .pages
        .iter()
        .find(|p| !corpus.gold.is_concept(&p.name) && !ask(Query::men2ent(&p.name)).is_empty())
        .expect("a resolvable entity exists");
    println!("\nmen2ent({}):", page.name);
    for key in ask(Query::men2ent(&page.name)) {
        let concepts = ask(Query::GetConcept {
            entity: key.clone(),
            options: ListOptions::transitive(),
        });
        println!("  {key} -> getConcept: {concepts:?}");
    }
    let get_entity = |concept: &str| Query::GetEntity {
        concept: concept.to_string(),
        options: ListOptions::transitive().with_page(PageRequest::first(3)),
    };
    let concept = concepts
        .iter()
        .find(|c| !ask(get_entity(c)).is_empty())
        .expect("a populated concept exists");
    println!(
        "getEntity({concept}, limit 3): {:?}",
        ask(get_entity(concept))
    );

    // 5) Reload the persisted snapshot: the view answers straight off the
    //    file's bytes.
    let reloaded = FrozenTaxonomyView::load_from_file(&path).expect("load snapshot");
    println!(
        "\nsnapshot round-trip: {} bytes, {} isA relations preserved",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        reloaded.num_is_a()
    );
    std::fs::remove_file(&path).ok();
}
