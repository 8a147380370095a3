#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
//! # cnp-core — the CN-Probase construction framework
//!
//! This crate is the paper's primary contribution (Chen et al., ICDE
//! 2019): a *generation and verification* framework that builds a
//! large-scale Chinese taxonomy from the four sources of an encyclopedia
//! page — bracket, abstract, infobox and tag (Figure 2).
//!
//! * [`context`] — corpus-wide statistics shared by all stages.
//! * [`generation`] — the four extraction algorithms: separation algorithm
//!   (bracket, Fig. 3), CopyNet neural generation (abstract), predicate
//!   discovery (infobox), direct extraction (tag).
//! * [`verification`] — the three filters: incompatible concepts (KL,
//!   Eq. 1), NER support (noisy-or, Eq. 2), syntax rules.
//! * [`pipeline`] — end-to-end orchestration producing a
//!   [`cnp_taxonomy::TaxonomyStore`].
//! * [`report`] — per-stage counters and timings (the Figure 2 dataflow).
//!
//! ```
//! use cnp_encyclopedia::{CorpusConfig, CorpusGenerator};
//! use cnp_core::{Pipeline, PipelineConfig};
//!
//! let corpus = CorpusGenerator::new(CorpusConfig::tiny(7)).generate();
//! let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
//! assert!(outcome.taxonomy.num_is_a() > 0);
//! println!("{}", outcome.report);
//! ```

pub mod candidate;
pub mod context;
pub mod generation;
pub mod pipeline;
pub mod report;
pub mod verification;

pub use candidate::{Candidate, CandidateSet};
pub use context::PipelineContext;
pub use pipeline::{Pipeline, PipelineConfig, PipelineOutcome};
pub use report::PipelineReport;
