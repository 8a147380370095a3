#![forbid(unsafe_code)]
//! # cnp-encyclopedia — synthetic Chinese-encyclopedia substrate
//!
//! The CN-Probase paper builds its taxonomy from CN-DBpedia (Baidu Baike +
//! Hudong Baike + Chinese Wikipedia). That dump is unavailable, so this
//! crate is the documented substitution: a generator that produces
//! encyclopedia pages with the same four sources — bracket,
//! abstract, infobox, tag (paper Figure 1) — the same noise classes the
//! verification module targets, and *known ground truth* for exact
//! precision evaluation.
//!
//! * [`ontology`] — the gold concept DAG (120+ concepts over 7 domains).
//! * [`names`] — compositional Chinese name generators.
//! * [`page`] — the page data model.
//! * [`generator`] — the corpus generator with configurable scale and
//!   noise rates.
//! * [`gold`] — ground-truth isA labels recorded during generation.

pub mod generator;
pub mod gold;
pub mod names;
pub mod ontology;
pub mod page;

pub use generator::{Corpus, CorpusConfig, CorpusGenerator, ISA_PREDICATES};
pub use gold::GoldLabels;
pub use ontology::{ConceptSpec, Domain, Ontology};
pub use page::{InfoboxTriple, Page};
