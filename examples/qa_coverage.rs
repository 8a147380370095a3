//! §IV-B: the QA coverage experiment.
//!
//! Builds a taxonomy, generates an NLPCC-2016-style question set, and
//! reports coverage plus concepts-per-entity (paper: 91.68% and 2.14), with
//! sample covered/uncovered questions.
//!
//! ```sh
//! cargo run --release --example qa_coverage
//! ```

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::eval::{coverage, generate_questions};
use cn_probase::pipeline::{Pipeline, PipelineConfig};

fn main() {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(7)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let frozen = outcome.freeze();

    let questions = generate_questions(&corpus, 2_000, 7);
    let result = coverage(&frozen, &questions);

    println!("questions:               {}", result.questions);
    println!("covered:                 {}", result.covered);
    println!(
        "coverage:                {:.2}%   (paper: 91.68%)",
        result.coverage() * 100.0
    );
    println!(
        "avg concepts per entity: {:.2}    (paper: 2.14)",
        result.avg_concepts_per_entity
    );

    println!("\nsample questions:");
    for q in questions.iter().take(8) {
        let covered = coverage(&frozen, std::slice::from_ref(q)).covered == 1;
        println!(
            "  [{}] {}",
            if covered { "covered " } else { "uncovered" },
            q.text
        );
    }
}
