#![forbid(unsafe_code)]
//! # cnp-taxonomy — taxonomy storage engine for CN-Probase
//!
//! CN-Probase is deployed as a service (paper §V): the taxonomy lives in a
//! store answering three public APIs — `men2ent`, `getConcept`, `getEntity`
//! (Table II). This crate is that storage engine:
//!
//! * [`interner`] — string interning with a fast FxHash-style hasher; every
//!   entity name, concept and attribute is a 4-byte [`Symbol`].
//! * [`store`] — the isA graph: disambiguated entities, concepts,
//!   entity→concept and subconcept→concept edges with per-edge
//!   [`Source`] provenance and confidence, plus entity attribute sets
//!   (needed by the incompatible-concept verification).
//! * [`mention`] — the mention index behind `men2ent` (entity names,
//!   bracket-stripped names, aliases).
//! * [`closure`] — transitive hypernym closure with cycle handling.
//! * [`topo`] — SCC condensation of the concept graph: topological order
//!   and exact one-pass depths.
//! * [`frozen`] — [`FrozenTaxonomy`], the immutable CSR-packed serving
//!   snapshot: freeze a finished store once, then answer every Table II
//!   query lock-free from flat arrays and a precomputed ancestor closure.
//!   (The public serving protocol — `TaxonomyService` and the typed
//!   `Query` enum the Table II calls travel as — lives in the `cnp_serve`
//!   crate, layered on this snapshot.)
//! * [`query`] — concept depth straight from the store, the reference
//!   for the depth the snapshot precomputes and serves.
//! * [`persist`] — the one on-disk snapshot format (sectioned,
//!   checksummed, delta/varint-compressed; written from a row source —
//!   the build's owned [`FrozenTaxonomy`] or a fold's merge of a view
//!   with its overlay — and served in place by the view) and the delta
//!   sidecar codec.
//! * [`varint`] — the LEB128/zigzag primitives of the snapshot codec.
//! * [`view`] — [`FrozenTaxonomyView`], the borrowed serving snapshot:
//!   open a snapshot buffer with in-place validation and answer every
//!   Table II query straight off the bytes, zero per-section allocation on
//!   boot; `to_frozen()` materialises the owned form from the same bytes.
//! * [`overlay`] / [`compact`] — the write path: [`DeltaOverlay`] sidecars
//!   folded over a base by [`OverlayView`], and compaction of an overlay
//!   over a view back into a fresh view.
//! * [`read`] — [`TaxonomyRead`], the query trait the serving layer is
//!   generic over. A file comes up as a backend through
//!   [`FrozenTaxonomyView::load_from_file`]; the service's boot and reload
//!   add [`FrozenTaxonomyView::validate_deep`] before they serve it.
//! * [`stats`] — the size metrics reported in Table I.

pub mod closure;
pub mod compact;
pub mod frozen;
pub mod hash;
pub mod interner;
pub mod mention;
pub mod overlay;
pub mod persist;
pub mod query;
pub mod read;
pub mod stats;
pub mod store;
pub mod topo;
pub mod varint;
pub mod view;

// `FrozenTaxonomyView::open` takes a `Bytes` buffer; re-export the type so
// callers don't need their own dependency on the buffer crate.
pub use bytes::Bytes;
pub use frozen::FrozenTaxonomy;
pub use interner::{Interner, Symbol};
pub use overlay::{DeltaOverlay, IngestDelta, OverlayView};
pub use persist::PersistError;
#[doc(hidden)]
pub use read::AnySnapshot;
pub use read::TaxonomyRead;
pub use stats::TaxonomyStats;
pub use store::{ConceptId, EntityId, IsAMeta, Source, TaxonomyStore};
pub use view::FrozenTaxonomyView;
