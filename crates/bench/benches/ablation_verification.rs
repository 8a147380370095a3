//! **Ablation** — what each verification strategy contributes.
//!
//! The paper motivates three heuristics but reports only the combined 95%.
//! This bench sweeps the strategy power set (none / each alone / all) and
//! prints precision + surviving-edge counts, quantifying what the combined
//! figure hides; then benchmarks the verification module itself.

use cnp_core::verification::VerificationConfig;
use cnp_core::{Pipeline, PipelineConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn config_named(name: &str) -> VerificationConfig {
    match name {
        "none" => VerificationConfig::none(),
        "incompatible" => VerificationConfig {
            incompatible: Some(Default::default()),
            ..VerificationConfig::none()
        },
        "ner" => VerificationConfig {
            ner: Some(Default::default()),
            ..VerificationConfig::none()
        },
        "syntax" => VerificationConfig {
            syntax: Some(Default::default()),
            ..VerificationConfig::none()
        },
        "all" => VerificationConfig::all(),
        _ => unreachable!(),
    }
}

fn bench(c: &mut Criterion) {
    let corpus =
        cnp_encyclopedia::CorpusGenerator::new(cnp_encyclopedia::CorpusConfig::small(6)).generate();

    println!("\n================ Verification ablation ================");
    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "strategies", "edges", "precision", "removed"
    );
    for name in ["none", "incompatible", "ner", "syntax", "all"] {
        let mut cfg = PipelineConfig::fast();
        cfg.verification = config_named(name);
        let outcome = Pipeline::new(cfg).run(&corpus);
        let est = cnp_eval::estimate(&outcome.candidates, &corpus.gold, 2_000, 6);
        println!(
            "{:<14} {:>10} {:>11.1}% {:>10}",
            name,
            outcome.candidates.len(),
            est.precision() * 100.0,
            outcome.report.verification.total()
        );
    }
    println!("(paper: all three strategies combined reach 95.0%)");
    println!("=======================================================\n");

    // Benchmark the verification module in isolation on a fixed candidate
    // set (generation re-run once).
    let tiny =
        cnp_encyclopedia::CorpusGenerator::new(cnp_encyclopedia::CorpusConfig::tiny(6)).generate();
    let ctx = cnp_core::PipelineContext::build(&tiny, 4);
    let rt = cnp_runtime::Runtime::new(4);
    let raw = Pipeline::new(PipelineConfig::unverified()).run(&tiny);
    let mut group = c.benchmark_group("verification");
    group.sample_size(20);
    for name in ["incompatible", "ner", "syntax", "all"] {
        let cfg = config_named(name);
        group.bench_function(name, |b| {
            b.iter(|| {
                let set = cnp_core::candidate::CandidateSet {
                    items: raw.candidates.items.clone(),
                };
                let (out, report) =
                    cnp_core::verification::verify(set, black_box(&tiny.pages), &ctx, &cfg, &rt);
                black_box((out.len(), report.total()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
