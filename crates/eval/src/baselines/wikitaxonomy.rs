//! Chinese WikiTaxonomy (Li et al., APWeb 2015).
//!
//! Built from a *single source* — user-generated category tags — of the
//! (much smaller) Chinese Wikipedia, with strict syntactic/lexicon
//! filtering. Reproduced as: tag-only extraction over a small corpus
//! subset, with the full verification stack (their filters target the same
//! noise classes). Paper numbers: 581 k entities, 79 k concepts, 1.3 M isA,
//! 97.6% precision — high precision, ~1/25 of CN-Probase's relations.

use super::BaselineResult;
use cnp_core::pipeline::{Pipeline, PipelineConfig};
use cnp_core::verification::VerificationConfig;
use cnp_encyclopedia::Corpus;

/// Fraction of the encyclopedia a Chinese-Wikipedia-scale source covers.
pub const WIKI_FRACTION: f64 = 0.06;

/// Builds the WikiTaxonomy baseline.
pub fn build(corpus: &Corpus) -> BaselineResult {
    let sub = corpus.subset(WIKI_FRACTION, 0xE11);
    let mut config = PipelineConfig::fast();
    config.enable_bracket = false;
    config.enable_abstract = false;
    config.enable_infobox = false;
    config.verification = VerificationConfig::all();
    let outcome = Pipeline::new(config).run(&sub);
    BaselineResult {
        name: "Chinese WikiTaxonomy",
        taxonomy: outcome.taxonomy,
        candidates: outcome.candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_encyclopedia::{CorpusConfig, CorpusGenerator};

    #[test]
    fn single_source_and_small() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(91)).generate();
        let result = build(&corpus);
        // Tag-only: every candidate is a tag candidate.
        assert!(result
            .candidates
            .items
            .iter()
            .all(|c| c.source == cnp_taxonomy::Source::Tag));
        // Much smaller than the corpus itself.
        assert!(result.taxonomy.num_entities() < corpus.pages.len() / 4);
        assert!(result.taxonomy.num_is_a() > 0);
    }
}
