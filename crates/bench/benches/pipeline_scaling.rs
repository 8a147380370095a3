//! **Pipeline scaling** — end-to-end `Pipeline::run` wall-clock versus
//! worker-thread count.
//!
//! Every stage executes on the shared `cnp_runtime` layer, so the thread
//! knob now reaches all nine stages instead of just bracket extraction and
//! context building. Output is thread-count-independent by construction
//! (the determinism suite asserts it); this bench measures the only thing
//! that is allowed to change — speed. A one-shot comparison on the larger
//! corpus prints first; the Criterion group then iterates the tiny corpus
//! at 1/2/4/8 threads.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config_with_threads(threads: usize) -> cnp_core::PipelineConfig {
    cnp_core::PipelineConfig {
        threads,
        ..cnp_core::PipelineConfig::fast()
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "a bench: the duration is the output"
)]
fn print_scaling_table() {
    let corpus = cnp_encyclopedia::CorpusGenerator::new(cnp_encyclopedia::CorpusConfig::small(11))
        .generate();
    println!("\n================ pipeline scaling (small corpus, one shot) ================");
    let mut baseline = None;
    for threads in THREAD_COUNTS {
        let clock = std::time::Instant::now();
        let outcome = cnp_core::Pipeline::new(config_with_threads(threads)).run(&corpus);
        let secs = clock.elapsed().as_secs_f64();
        let base = *baseline.get_or_insert(secs);
        println!(
            "  threads={threads}: {secs:>6.2} s  (speedup {:>4.2}x, {} final candidates)",
            base / secs,
            outcome.report.final_candidates
        );
    }
    println!("===========================================================================\n");
}

fn bench(c: &mut Criterion) {
    print_scaling_table();
    let tiny =
        cnp_encyclopedia::CorpusGenerator::new(cnp_encyclopedia::CorpusConfig::tiny(11)).generate();
    let mut group = c.benchmark_group("pipeline_scaling");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(&format!("run_threads_{threads}"), |b| {
            let config = config_with_threads(threads);
            b.iter(|| {
                let outcome = cnp_core::Pipeline::new(config.clone()).run(black_box(&tiny));
                black_box(outcome.report.final_candidates)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
