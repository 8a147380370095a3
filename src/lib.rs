#![forbid(unsafe_code)]
//! # CN-Probase — facade crate
//!
//! A complete Rust reproduction of **“CN-Probase: A Data-driven Approach for
//! Large-scale Chinese Taxonomy Construction”** (Chen et al., ICDE 2019).
//!
//! This crate re-exports the public APIs of the workspace members so a
//! downstream user can depend on a single crate:
//!
//! * [`text`] — Chinese segmentation, PMI, POS, NER ([`cnp_text`]).
//! * [`nn`] — minimal neural network library with CopyNet ([`cnp_nn`]).
//! * [`runtime`] — the shared parallel execution layer every pipeline
//!   stage runs on ([`cnp_runtime`]).
//! * [`encyclopedia`] — synthetic Chinese-encyclopedia substrate
//!   ([`cnp_encyclopedia`]).
//! * [`taxonomy`] — the taxonomy storage engine and the frozen serving
//!   snapshot ([`cnp_taxonomy`]).
//! * [`serve`] — Serving API v1: the typed [`Query`]/[`Response`] protocol
//!   the paper's Table II calls travel as, batching, pagination and
//!   zero-downtime snapshot hot-swap ([`cnp_serve`]).
//! * [`tag`] — taxonomy-backed document tagging: segment a document with
//!   the snapshot's own vocabulary, resolve mentions, and score concepts
//!   coarse-to-fine over the hierarchy ([`cnp_tag`]).
//! * [`server`] — the HTTP/1.1 network front-end over [`serve`]
//!   ([`cnp_server`]).
//! * [`pipeline`] — the generation + verification framework itself
//!   ([`cnp_core`]).
//! * [`eval`] — precision / coverage evaluation and the Table I baselines
//!   ([`cnp_eval`]).
//!
//! ## Quickstart
//!
//! ```
//! use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
//! use cn_probase::pipeline::{Pipeline, PipelineConfig};
//!
//! // Generate a small synthetic encyclopedia and build a taxonomy from it.
//! let corpus = CorpusGenerator::new(CorpusConfig::tiny(7)).generate();
//! let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
//! assert!(outcome.taxonomy.num_is_a() > 0);
//! ```

pub use cnp_core as pipeline;
pub use cnp_encyclopedia as encyclopedia;
pub use cnp_eval as eval;
pub use cnp_nn as nn;
pub use cnp_runtime as runtime;
pub use cnp_serve as serve;
pub use cnp_server as server;
pub use cnp_tag as tag;
pub use cnp_taxonomy as taxonomy;
pub use cnp_text as text;

// The headline serving types, re-exported at the crate root: build a
// taxonomy with [`pipeline`], freeze it into a [`FrozenTaxonomy`] to serve
// in process, or persist it with `PipelineOutcome::save_view` and boot a
// [`TaxonomyService`] from disk with `boot_from_file`, which serves the
// file as an [`OverlayView`] over a [`FrozenTaxonomyView`] once it passes
// the deep check; [`PersistError`] is the decode or check error. Queries
// travel as typed [`Query`] values and come back as generation-stamped
// [`QueryResponse`]s.
pub use cnp_serve::{
    Cursor, ListOptions, PageRequest, Query, QueryError, QueryResponse, Response, TaxonomyService,
};
pub use cnp_tag::{TagOptions, TagOutput, Tagger};
pub use cnp_taxonomy::{
    DeltaOverlay, FrozenTaxonomy, FrozenTaxonomyView, IngestDelta, OverlayView, PersistError,
    TaxonomyRead,
};
