//! Compaction: folding base + delta overlays back into a fresh base.
//!
//! The LSM-flavoured write path (`crate::overlay`) accumulates small
//! immutable deltas on top of an immutable base; compaction is the
//! background step that re-materialises the merged content as a plain
//! snapshot, resetting the overlay depth to zero. The correctness bar is
//! the determinism contract (PR 3): a compacted base must be
//! **byte-identical** to a from-scratch freeze of the same logical
//! content, so that `snapshot(build ∪ delta)` and
//! `compact(snapshot(build) + delta)` cannot drift apart —
//! `tests/determinism.rs` asserts exactly this.
//!
//! The pivot is `thaw`: a [`FrozenTaxonomy`] reconstructed into a
//! [`TaxonomyStore`] *verbatim* — raw adjacency rows copied, the interner
//! moved — so that replaying an overlay's op log onto the thawed store
//! takes the same branches (same dedup hits, same intern order, same row
//! positions) as replaying it onto the original build store. Only the
//! hyponym rows (`concept_entities`) come back in ranked rather than
//! insertion order, which is sound because the freeze re-ranks them under
//! a total order (descending confidence, entity id tie-break): that table
//! is the one adjacency whose build-store row order is not observable in
//! a frozen snapshot.
//!
//! A fold passes the snapshot through five forms: the view's bytes, the
//! owned snapshot `to_frozen` validates, the build store, the refrozen
//! snapshot and its bytes. Each form is freed as the next is built, and
//! each string lives in one of them at a time:
//! - `thaw` consumes the validated snapshot, moving its interner and lookup
//!   maps into the store and freeing each CSR once its rows are built;
//! - the replay reserves the store's tables for the log's new entities,
//!   concepts and strings, so it does not double exact-sized tables;
//! - the refreeze consumes the store one table at a time: the strings,
//!   the entity and concept tables and their lookup maps move, and each
//!   adjacency table is freed once its CSR is built;
//! - the encode writes the bytes once, into an allocation of their exact
//!   length, and the refrozen snapshot is freed before the view opens.
//!
//! So a fold peaks at ≈ 4 × the snapshot's bytes above the heap it starts
//! from (`tests/snapshot_corruption.rs` bounds it at 4 × + 64 KiB, and
//! prints the peak of each of [`FOLD_PHASES`]). The peak is the first
//! phase, where `to_frozen` builds the owned snapshot beside the view's
//! bytes and the thaw builds the store's rows from it.

use crate::frozen::FrozenTaxonomy;
use crate::overlay::{DeltaOverlay, IngestDelta, OverlayView};
use crate::persist::{self, PersistError};
use crate::read::TaxonomyRead;
use crate::store::{RawStoreParts, TaxonomyStore};
use crate::view::FrozenTaxonomyView;
use cnp_runtime::Runtime;

/// The phases of a fold, in order, as [`compacted`](IngestDelta::compacted)
/// marks them with [`cnp_runtime::phase`]: `to_frozen` and `thaw`, the
/// log's replay, the refreeze, then the encode and the new view's `open`.
pub static FOLD_PHASES: [&str; 4] = ["thaw", "replay", "refreeze", "encode + open"];

/// Reconstructs the build store a snapshot was frozen from, up to the one
/// non-observable row order described in the module docs. `O(size)`; the
/// snapshot's tables move or are freed as the store's are built.
pub(crate) fn thaw(f: FrozenTaxonomy) -> TaxonomyStore {
    let FrozenTaxonomy {
        interner,
        entities,
        entity_by_key,
        concepts,
        concept_by_sym,
        entity_concepts,
        concept_entities,
        concept_parents,
        concept_children,
        entity_attrs,
        entity_aliases,
        ancestors,
        topo,
        depth,
        by_mention,
    } = f;
    // The derived tables the store has no place for go first.
    drop((ancestors, topo, depth, by_mention));
    TaxonomyStore::from_raw_parts(RawStoreParts {
        interner,
        entities,
        entity_by_key,
        concepts,
        concept_by_sym,
        entity_concepts: entity_concepts.into_rows(),
        concept_entities: concept_entities.into_rows(),
        concept_parents: concept_parents.into_rows(),
        concept_children: concept_children.into_rows(),
        entity_attrs: entity_attrs.into_rows(),
        entity_aliases: entity_aliases.into_rows(),
    })
}

/// Materialises a base snapshot back into a mutable build store, the
/// first half of a compaction.
pub(crate) trait ToStore {
    fn to_store(&self) -> Result<TaxonomyStore, PersistError>;
}

/// Rebuilds `Self`'s representation from a freshly frozen taxonomy, the
/// last half of a compaction.
pub(crate) trait FromFrozen: Sized {
    fn from_frozen(f: FrozenTaxonomy) -> Result<Self, PersistError>;
}

impl ToStore for FrozenTaxonomy {
    /// The base is shared with the serving generation, so it is copied.
    fn to_store(&self) -> Result<TaxonomyStore, PersistError> {
        Ok(thaw(self.clone()))
    }
}

impl FromFrozen for FrozenTaxonomy {
    fn from_frozen(f: FrozenTaxonomy) -> Result<Self, PersistError> {
        Ok(f)
    }
}

impl ToStore for FrozenTaxonomyView {
    /// Through `to_frozen`, whose deep validation a fold must keep: the
    /// fold's output is a file the next boot trusts.
    fn to_store(&self) -> Result<TaxonomyStore, PersistError> {
        Ok(thaw(self.to_frozen()?))
    }
}

impl FromFrozen for FrozenTaxonomyView {
    fn from_frozen(f: FrozenTaxonomy) -> Result<Self, PersistError> {
        let bytes = persist::encode_frozen_v3(&f);
        drop(f);
        FrozenTaxonomyView::open(bytes)
    }
}

impl<B> IngestDelta for OverlayView<B>
where
    B: TaxonomyRead + ToStore + FromFrozen + Send + Sync,
{
    /// Overlay apply: cheap, no materialisation. The base stays shared.
    fn ingest_delta(&self, delta: &DeltaOverlay) -> Result<Self, PersistError> {
        Ok(self.apply(delta))
    }

    fn overlay_depth(&self) -> usize {
        OverlayView::overlay_depth(self)
    }

    /// Folds base + accumulated deltas into a fresh base of the same
    /// representation: thaw the base, replay the full op log (the same
    /// log, in the same order, the overlay folded), re-freeze on `rt`.
    fn compacted(&self, rt: &Runtime) -> Result<Self, PersistError> {
        if OverlayView::overlay_depth(self) == 0 {
            return Ok(self.clone());
        }
        let [thaw, replay, refreeze, encode] = FOLD_PHASES;
        cnp_runtime::phase(thaw);
        let mut store = self.base().to_store()?;
        cnp_runtime::phase(replay);
        self.log().apply_to_store(&mut store);
        cnp_runtime::phase(refreeze);
        let frozen = FrozenTaxonomy::freeze_store(store, rt);
        cnp_runtime::phase(encode);
        Ok(OverlayView::new(B::from_frozen(frozen)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IsAMeta, Source};

    fn build_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_entity_is_a(liu, actor, IsAMeta::new(Source::Bracket, 0.96));
        s.add_alias(liu, "华仔");
        s.add_attribute(liu, "出生日期");
        let zhang = s.add_entity("张学友", None);
        let singer = s.add_concept("歌手");
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.85));
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.9));
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Infobox, 0.7));
        s
    }

    fn sample_delta() -> DeltaOverlay {
        let mut d = DeltaOverlay::new();
        d.add_entity("周杰伦", None);
        d.add_alias("周杰伦", None, "Jay Chou");
        d.upsert_entity_is_a("周杰伦", None, "歌手", IsAMeta::new(Source::Tag, 0.97));
        d.upsert_entity_is_a(
            "刘德华",
            Some("中国香港男演员"),
            "歌手",
            IsAMeta::new(Source::Tag, 0.5),
        );
        d.upsert_concept_is_a("歌手", "艺人", IsAMeta::new(Source::SubConcept, 0.75));
        d.retract_entity_is_a("张学友", None, "歌手");
        d
    }

    #[test]
    fn thaw_refreeze_is_byte_identical() {
        let store = build_store();
        let frozen = FrozenTaxonomy::freeze(&store);
        let refrozen = FrozenTaxonomy::freeze(&thaw(frozen.clone()));
        assert_eq!(
            persist::encode_frozen_v3(&frozen),
            persist::encode_frozen_v3(&refrozen)
        );
    }

    #[test]
    fn replay_on_thawed_equals_replay_on_original() {
        let mut original = build_store();
        let frozen = FrozenTaxonomy::freeze(&original);
        let delta = sample_delta();

        let mut thawed = thaw(frozen);
        delta.apply_to_store(&mut thawed);
        delta.apply_to_store(&mut original);

        assert_eq!(
            persist::encode_frozen_v3(&FrozenTaxonomy::freeze(&original)),
            persist::encode_frozen_v3(&FrozenTaxonomy::freeze(&thawed))
        );
    }

    #[test]
    fn overlay_compaction_is_byte_identical_to_fresh_union() {
        let mut union_store = build_store();
        let delta = sample_delta();
        let rt = Runtime::default();

        let view = OverlayView::new(FrozenTaxonomy::freeze(&build_store()));
        let ingested = view.ingest_delta(&delta).expect("overlay apply");
        assert_eq!(IngestDelta::overlay_depth(&ingested), 1);
        let compacted = ingested.compacted(&rt).expect("compaction");
        assert_eq!(IngestDelta::overlay_depth(&compacted), 0);

        delta.apply_to_store(&mut union_store);
        let fresh = FrozenTaxonomy::freeze(&union_store);
        assert_eq!(
            persist::encode_frozen_v3(compacted.base()),
            persist::encode_frozen_v3(&fresh)
        );
    }

    #[test]
    fn view_backend_round_trips_through_compaction() {
        let frozen = FrozenTaxonomy::freeze(&build_store());
        let view_snap =
            FrozenTaxonomyView::open(persist::encode_frozen_v3(&frozen)).expect("open v3 snapshot");
        let overlay = OverlayView::new(view_snap);
        let compacted = overlay
            .apply(&sample_delta())
            .compacted(&Runtime::default())
            .expect("view compaction");
        assert!(compacted.base().find_entity("周杰伦", None).is_some());
        // The compacted base *is* a snapshot file: the bytes a fresh build
        // of the same content would have written.
        let mut union_store = build_store();
        sample_delta().apply_to_store(&mut union_store);
        assert_eq!(
            compacted.base().as_bytes(),
            persist::encode_frozen_v3(&FrozenTaxonomy::freeze(&union_store)).as_ref()
        );
    }
}
