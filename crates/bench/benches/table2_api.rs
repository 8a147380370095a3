//! **Table II** — APIs and their descriptions / usage.
//!
//! The paper reports the three deployed APIs and their call volumes over
//! six months (men2ent 43.9 M, getConcept 13.8 M, getEntity 25.8 M). This
//! bench builds a taxonomy, prints the Table II rows with the call mix, and
//! times `TaxonomyService::execute` on each call's `Query` plus the
//! production-mix workload.

use cnp_serve::{ListOptions, PageRequest, Query, Response, TaxonomyService};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The service and the three calls it is timed on, built up front so an
/// iteration is one `TaxonomyService::execute`.
struct Fixture {
    service: TaxonomyService,
    /// `men2ent`, one per page name.
    men2ent: Vec<Query>,
    /// Transitive `getConcept` by the first sense's display key.
    get_concept: Vec<Query>,
    /// Transitive `getEntity`, first 100 hyponyms, one per concept.
    get_entity: Vec<Query>,
}

fn build_fixture() -> Fixture {
    let corpus =
        cnp_encyclopedia::CorpusGenerator::new(cnp_encyclopedia::CorpusConfig::small(7)).generate();
    let outcome = cnp_core::Pipeline::new(cnp_core::PipelineConfig::fast()).run(&corpus);
    let frozen = outcome.freeze();
    let get_entity = frozen
        .concept_ids()
        .take(2000)
        .map(|c| Query::GetEntity {
            concept: frozen.concept_name(c).to_string(),
            options: ListOptions::transitive().with_page(PageRequest::first(100)),
        })
        .collect();
    let service = TaxonomyService::new(frozen);
    let men2ent: Vec<Query> = corpus
        .pages
        .iter()
        .take(4000)
        .map(|p| Query::men2ent(&p.name))
        .collect();
    let get_concept = men2ent
        .iter()
        .filter_map(|q| match service.execute(q).result {
            Ok(Response::Senses(senses)) => senses.into_iter().next(),
            _ => None,
        })
        .take(1000)
        .map(|sense| Query::GetConcept {
            entity: sense.key,
            options: ListOptions::transitive(),
        })
        .collect();
    Fixture {
        service,
        men2ent,
        get_concept,
        get_entity,
    }
}

fn print_table(f: &Fixture) {
    println!("\n================ Table II (APIs) ================");
    println!(
        "{:<12} {:<10} {:<16} {:>12}",
        "API name", "Given", "Return", "paper calls"
    );
    println!(
        "{:<12} {:<10} {:<16} {:>12}",
        "men2ent", "mention", "entity", 43_896_044
    );
    println!(
        "{:<12} {:<10} {:<16} {:>12}",
        "getConcept", "entity", "hypernym list", 13_815_076
    );
    println!(
        "{:<12} {:<10} {:<16} {:>12}",
        "getEntity", "concept", "hyponym list", 25_793_372
    );
    // A smoke sample so the printed table reflects live behaviour.
    let names = |q: &Query| -> Vec<String> {
        match f.service.execute(q).result {
            Ok(Response::Senses(senses)) => senses.into_iter().map(|s| s.key).collect(),
            Ok(Response::Concepts(page)) => page.items.into_iter().map(|h| h.name).collect(),
            _ => Vec::new(),
        }
    };
    println!(
        "live sample: men2ent -> {:?}, getConcept -> {:?}",
        names(&f.men2ent[0]),
        names(&f.get_concept[0])
    );
    println!("=================================================\n");
}

fn bench(c: &mut Criterion) {
    let f = build_fixture();
    print_table(&f);

    let mut group = c.benchmark_group("table2_api");
    let mut call = |name: &str, queries: &[Query], seed: u64| {
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(seed);
            b.iter(|| {
                let q = &queries[rng.gen_range(0..queries.len())];
                black_box(f.service.execute(black_box(q)))
            })
        });
    };
    call("men2ent", &f.men2ent, 1);
    call("get_concept_transitive", &f.get_concept, 2);
    call("get_entity_limit100", &f.get_entity, 3);
    // The production mix of Table II: 52.6% men2ent, 16.5% getConcept,
    // 30.9% getEntity.
    group.bench_function("production_mix", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            let roll: f64 = rng.gen();
            let queries = if roll < 0.526 {
                &f.men2ent
            } else if roll < 0.691 {
                &f.get_concept
            } else {
                &f.get_entity
            };
            let q = &queries[rng.gen_range(0..queries.len())];
            black_box(f.service.execute(q))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
