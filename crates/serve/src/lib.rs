#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
//! # cnp-serve — Serving API v1 for CN-Probase
//!
//! CN-Probase's value is its serving surface: the paper's Table II APIs
//! (`men2ent`, `getConcept`, `getEntity`) answered under heavy online
//! traffic (43.9 M `men2ent` calls over six months, §V). This crate is the
//! typed read-path protocol layered on the immutable
//! [`cnp_taxonomy::FrozenTaxonomy`] snapshot:
//!
//! * [`Query`] — one enum covering every Table II operation plus
//!   [`Query::AncestorsOf`], [`Query::IsA`] and [`Query::MentionSenses`],
//!   with per-query [`ListOptions`] (transitive flag, confidence floor,
//!   stable pagination via an opaque [`Cursor`]). `men2ent` is
//!   [`Query::Men2Ent`], `getConcept` is [`Query::GetConcept`] (by entity
//!   key) or [`Query::GetConceptByMention`], `getEntity` is
//!   [`Query::GetEntity`].
//! * [`Response`] / [`QueryResponse`] — the matching typed results. Errors
//!   distinguish [`QueryError::UnknownMention`] /
//!   [`QueryError::UnknownConcept`] / [`QueryError::InvalidCursor`] from
//!   genuinely empty results, and every response carries the snapshot
//!   **generation** it was answered from.
//! * [`TaxonomyService`] — executes queries lock-free on a pinned
//!   immutable snapshot, on the caller's thread
//!   ([`TaxonomyService::execute_batch`] pins once and answers in input
//!   order), and hot-swaps snapshots under live traffic
//!   ([`TaxonomyService::reload`] / [`TaxonomyService::swap`]): in-flight
//!   queries finish on the generation they pinned, new queries see the
//!   new one, nothing blocks. [`TaxonomyService::pin`] hands out a
//!   [`PinnedSnapshot`] that answers one generation for as long as it
//!   lives.
//! * [`wire`] / [`json`] — the network-facing codec: every [`Query`] and
//!   [`QueryResponse`] as a JSON document (hand-rolled, hardened parser;
//!   no registry deps), plus the typed-error → HTTP-status mapping the
//!   `cnp_server` front-end serves.
//!
//! ## Quickstart
//!
//! ```
//! use cnp_serve::{ListOptions, Query, Response, TaxonomyService};
//! use cnp_taxonomy::{IsAMeta, Source, TaxonomyStore};
//!
//! let mut store = TaxonomyStore::new();
//! let liu = store.add_entity("刘德华", None);
//! let singer = store.add_concept("歌手");
//! let person = store.add_concept("人物");
//! store.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
//! store.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.95));
//!
//! let service = TaxonomyService::from_store(store);
//! let response = service.execute(&Query::GetConceptByMention {
//!     mention: "刘德华".to_string(),
//!     options: ListOptions::transitive(),
//! });
//! assert_eq!(response.generation, 1);
//! let Ok(Response::Concepts(page)) = response.result else {
//!     panic!("typed response");
//! };
//! let names: Vec<&str> = page.items.iter().map(|h| h.name.as_str()).collect();
//! assert_eq!(names, ["歌手", "人物"]);
//! ```

mod exec;
pub mod json;
mod query;
mod response;
mod service;
pub mod wire;

pub use query::{Cursor, ListOptions, PageRequest, Query};
pub use response::{
    ConceptHit, CursorError, EntityHit, Paged, QueryError, QueryResponse, Response, Sense,
    SenseConcepts,
};
pub use service::{PinnedSnapshot, TaxonomyService};

// The tagging workload's request/response vocabulary, re-exported so wire
// and server layers (and downstream users) need only this crate.
pub use cnp_tag::{SpanKind, TagHit, TagIndex, TagOptions, TagOutput, TagSpan};
