//! Figure 2 end-to-end: build a full CN-Probase taxonomy and print the
//! construction report (per-source candidates, per-strategy removals,
//! stage timings, final size) plus measured precision against gold.
//!
//! ```sh
//! cargo run --release --example build_taxonomy           # default scale
//! CNP_PAGES=2000 cargo run --release --example build_taxonomy
//! # Also persist the serving snapshot; boot it later with the
//! # serve_from_snapshot example or `cnp_server --snapshot`.
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example build_taxonomy
//! ```

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::eval;
use cn_probase::pipeline::{Pipeline, PipelineConfig};

#[expect(
    clippy::disallowed_methods,
    reason = "demo output: prints how long the step took"
)]
fn main() -> std::process::ExitCode {
    let pages: usize = std::env::var("CNP_PAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000);
    let mut config = CorpusConfig::standard(42);
    config.num_pages = pages;
    println!("generating {pages}-page synthetic encyclopedia …");
    let corpus = CorpusGenerator::new(config).generate();

    println!("running the generation + verification pipeline …\n");
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    print!("{}", outcome.report);

    if let Ok(path) = std::env::var("CNP_SNAPSHOT") {
        let path = std::path::PathBuf::from(path);
        let t = std::time::Instant::now();
        match outcome.save_view(&path) {
            Ok(frozen) => println!(
                "\nwrote snapshot to {} in {:.1?}: {} bytes, \
                 {} entities, {} concepts, {} isA edges",
                path.display(),
                t.elapsed(),
                std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                frozen.num_entities(),
                frozen.num_concepts(),
                frozen.num_is_a(),
            ),
            Err(e) => {
                eprintln!("failed to write snapshot to {}: {e}", path.display());
                return std::process::ExitCode::FAILURE;
            }
        }
    }

    let est = eval::estimate(&outcome.candidates, &corpus.gold, 2_000, 42);
    println!(
        "\nsampled precision ({} pairs): {:.1}%  (paper: 95.0%)",
        est.sampled,
        est.precision() * 100.0
    );
    for (source, est) in eval::per_source(&outcome.candidates, &corpus.gold) {
        if est.sampled > 0 {
            println!(
                "  {:<10} {:>6} pairs  {:>5.1}%",
                format!("{source:?}"),
                est.sampled,
                est.precision() * 100.0
            );
        }
    }
    std::process::ExitCode::SUCCESS
}
