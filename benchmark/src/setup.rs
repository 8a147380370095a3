//! Set-up: corpus → pipeline → v3 snapshot, timed step by step. This is
//! the construction side of the system and the first thing every
//! workload pays, so its rate (`build_pages_per_s`) and the file it
//! leaves (`snapshot_bytes`) are reported on every run.

use cnp_core::{Pipeline, PipelineConfig, PipelineOutcome};
use cnp_encyclopedia::{Corpus, CorpusConfig, CorpusGenerator};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Pages of the tier `BENCHMARK.json` numbers are taken on.
pub const STANDARD_PAGES: usize = 20_000;
/// The corpus is always this seed's: at 20 000 pages, 18 123 entities,
/// 311 concepts, 41 989 isA edges, a 1 077 404-byte v3 snapshot. The
/// workload seed draws keys, documents and deltas *over* it; a corpus per
/// seed would make every metric differ between seeds by what the corpora
/// differ, and runs on different seeds could not be compared.
pub const CORPUS_SEED: u64 = 42;
/// isA edges sampled for the precision gate (the paper samples 2 000).
pub const PRECISION_SAMPLE: usize = 2_000;
/// The build is rejected below this sampled precision.
pub const MIN_PRECISION: f64 = 0.90;

/// One finished build and what it cost.
#[derive(Debug)]
pub struct Built {
    /// The generated pages and their gold labels.
    pub corpus: Corpus,
    /// Taxonomy store, report and verified candidates.
    pub outcome: PipelineOutcome,
    /// Where the v3 snapshot was written.
    pub snapshot: PathBuf,
    /// Its size.
    pub snapshot_bytes: u64,
    /// `CorpusGenerator::generate`, seconds.
    pub generate_s: f64,
    /// `Pipeline::run`, seconds.
    pub pipeline_s: f64,
    /// `PipelineOutcome::save_view` (freeze + encode + write), seconds.
    pub save_s: f64,
}

impl Built {
    /// Generate + pipeline + save, seconds.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.pipeline_s + self.save_s
    }

    /// Pages through generate + pipeline + save per second.
    pub fn pages_per_s(&self) -> f64 {
        self.corpus.pages.len() as f64 / self.total_s()
    }

    /// Sampled isA precision of the verified candidates against the
    /// corpus's gold labels (the paper's §IV protocol).
    pub fn precision(&self) -> f64 {
        cnp_eval::estimate(
            &self.outcome.candidates,
            &self.corpus.gold,
            PRECISION_SAMPLE,
            CORPUS_SEED,
        )
        .precision()
    }

    /// Non-empty page abstracts: the raw material of tagging documents.
    pub fn abstracts(&self) -> Vec<&str> {
        self.corpus
            .pages
            .iter()
            .map(|p| p.abstract_text.as_str())
            .filter(|a| !a.is_empty())
            .collect()
    }
}

/// Builds the `pages`-page corpus and writes its v3 snapshot to
/// `snapshot`.
pub fn build(pages: usize, snapshot: &Path) -> io::Result<Built> {
    let clock = Instant::now();
    let corpus = CorpusGenerator::new(CorpusConfig {
        num_pages: pages,
        ..CorpusConfig::standard(CORPUS_SEED)
    })
    .generate();
    let generate_s = clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let pipeline_s = clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    outcome
        .save_view(snapshot)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let save_s = clock.elapsed().as_secs_f64();

    Ok(Built {
        snapshot_bytes: std::fs::metadata(snapshot)?.len(),
        corpus,
        outcome,
        snapshot: snapshot.to_path_buf(),
        generate_s,
        pipeline_s,
        save_s,
    })
}
