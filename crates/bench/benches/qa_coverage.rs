//! **§IV-B in-text** — QA coverage experiment.
//!
//! The paper: 23 472 NLPCC-2016 questions, 21 520 covered (91.68%), with
//! 2.14 concepts per covered entity. This bench generates the same number
//! of synthetic questions, prints measured coverage, and benchmarks the
//! question-scanning throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let corpus =
        cnp_encyclopedia::CorpusGenerator::new(cnp_encyclopedia::CorpusConfig::small(5)).generate();
    let outcome = cnp_core::Pipeline::new(cnp_core::PipelineConfig::fast()).run(&corpus);
    let frozen = outcome.freeze();

    // The paper's exact question count.
    let questions = cnp_eval::generate_questions(&corpus, 23_472, 5);
    let result = cnp_eval::coverage(&frozen, &questions);
    println!("\n================ QA coverage (paper: 91.68%, 2.14 concepts) ================");
    println!("questions:                {}", result.questions);
    println!("covered:                  {}", result.covered);
    println!(
        "coverage:                 {:.2}%",
        result.coverage() * 100.0
    );
    println!(
        "avg concepts per entity:  {:.2}",
        result.avg_concepts_per_entity
    );
    println!("=============================================================================\n");

    let sample: Vec<cnp_eval::Question> = questions.into_iter().take(500).collect();
    let mut group = c.benchmark_group("qa_coverage");
    group.sample_size(20);
    group.bench_function("scan_500_questions", |b| {
        b.iter(|| black_box(cnp_eval::coverage(&frozen, black_box(&sample)).covered))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
