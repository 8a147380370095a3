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
//! `tests/determinism.rs` asserts exactly this, and
//! `crates/taxonomy/tests/fold_bytes.rs` holds random op logs to it.
//!
//! The base is the served [`FrozenTaxonomyView`], the one form that folds:
//! an `OverlayView` over the owned `FrozenTaxonomy` applies deltas and
//! reads, but is no [`IngestDelta`].
//!
//! A fold is a merge. The overlay's folded state already holds everything
//! the log changed, in the form a replay onto the build store would leave
//! it: the touched entities' merged concept rows, aliases and attributes,
//! the merged concept tables with their depths, topological order and
//! affected closures, and the new entities, concepts, strings and mention
//! senses, with the strings in the order the replay interns them.
//! `Merge` reads every other row from the base, and the v3 encoder
//! writes the merged rows straight to the new bytes. Where the base's
//! section is sorted (`SSRT`, `CSRT`, `MHSH`, the ranked `CENT` rows, the
//! `MENT` rows), the few new entries are merged into it, not re-sorted.
//!
//! So a fold holds two forms of the snapshot: the base's bytes, which the
//! serving generation holds anyway, and the new bytes, written once into
//! an allocation of their exact length. The scratch beside them is the
//! deep validation's (the base's sorted entity keys, then one `u32` an
//! entity) and the encoder's (the metadata dictionary, one row, and the
//! overlay's symbol map). `tests/snapshot_corruption.rs` bounds the peak
//! above the heap a fold starts from and prints the peak of each of
//! [`FOLD_PHASES`].

use crate::hash::FxHashMap;
use crate::interner::Symbol;
use crate::overlay::{DeltaOverlay, IngestDelta, OverlayState, OverlayView, OVERLAY_SYM_TAG};
use crate::persist::{self, mention_hash, PersistError, SnapshotRows};
use crate::store::{ConceptId, EntityId, EntityRecord, IsAMeta};
use crate::view::FrozenTaxonomyView;
use cnp_runtime::Runtime;
use std::cmp::Ordering;

/// The phases of a fold, in order, as [`compacted`](IngestDelta::compacted)
/// marks them with [`cnp_runtime::phase`]: the base's deep validation,
/// then the merge's encode and the new view's `open`.
pub static FOLD_PHASES: [&str; 2] = ["validate", "encode + open"];

/// A base view's rows merged with an overlay's folded state: the rows a
/// freeze of the store the log was replayed onto holds, for the encoder to
/// write.
struct Merge<'a> {
    base: &'a FrozenTaxonomyView,
    st: &'a OverlayState,
    base_strings: usize,
    base_entities: usize,
    base_concepts: usize,
    /// The written symbol of each overlay string, by overlay index.
    syms: Vec<u32>,
    /// The overlay strings the base lacks, by overlay index, in the order
    /// the replay mints them: string `base_strings + i` is `minted[i]`.
    minted: Vec<u32>,
    /// The overlay's mention strings' written symbols and senses, by
    /// symbol.
    mentions: Vec<(u32, &'a [EntityId])>,
}

impl<'a> Merge<'a> {
    fn new(overlay: &'a OverlayView<FrozenTaxonomyView>) -> Self {
        let (base, st) = (overlay.base(), overlay.state());
        let base_strings = base.n_strings();
        let mut minted = Vec::new();
        let mut syms = Vec::with_capacity(st.strings.len());
        for (i, s) in (0u32..).zip(&st.strings) {
            syms.push(base.lookup_sym(s).map(|sym| sym.0).unwrap_or_else(|| {
                minted.push(i);
                (base_strings + minted.len() - 1) as u32
            }));
        }
        let mut mentions: Vec<(u32, &[EntityId])> = st
            .mentions
            .iter()
            .filter_map(|(s, senses)| {
                let i = *st.string_ids.get(s)?;
                Some((*syms.get(i as usize)?, senses.as_slice()))
            })
            .collect();
        mentions.sort_unstable_by_key(|&(sym, _)| sym);
        Merge {
            base,
            st,
            base_strings,
            base_entities: base.n_entities(),
            base_concepts: base.n_concepts(),
            syms,
            minted,
            mentions,
        }
    }

    /// The written symbol of a base or overlay symbol.
    fn sym(&self, sym: Symbol) -> u32 {
        match sym.0.checked_sub(OVERLAY_SYM_TAG) {
            Some(i) => self.syms.get(i as usize).copied().unwrap_or(0),
            None => sym.0,
        }
    }

    /// Pushes, after `e`'s base row in `out`, the symbols `added` gives
    /// `e` that the row does not hold: what the replay's
    /// `add_alias` / `add_attribute` append.
    fn append_once(&self, added: &FxHashMap<EntityId, Vec<Symbol>>, e: usize, out: &mut Vec<u32>) {
        for &sym in added.get(&EntityId(e as u32)).into_iter().flatten() {
            let sym = self.sym(sym);
            if !out.contains(&sym) {
                out.push(sym);
            }
        }
    }

    /// Whether the base's mention row of `sym` is empty.
    fn base_mentions_none(&self, sym: u32) -> bool {
        let mut row = Vec::new();
        self.base.ment_row(sym as usize, &mut row);
        row.is_empty()
    }
}

/// The serving rank of two hyponyms: descending confidence, entity id as
/// tie-break (`TaxonomyStore::ranked_entities_of`).
fn rank(a: &(u32, IsAMeta), b: &(u32, IsAMeta)) -> Ordering {
    b.1.confidence
        .total_cmp(&a.1.confidence)
        .then(a.0.cmp(&b.0))
}

/// Two ascending sequences as one: the next item of `b` goes first when
/// `before(b's, a's)`, else the next of `a`.
fn merge_by<T>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
    before: impl Fn(&T, &T) -> bool,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if before(y, x) => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

impl SnapshotRows for Merge<'_> {
    fn n_strings(&self) -> usize {
        self.base_strings + self.minted.len()
    }

    fn string(&self, s: usize) -> &str {
        match s.checked_sub(self.base_strings) {
            None => self.base.string(s),
            Some(i) => self
                .minted
                .get(i)
                .and_then(|&k| self.st.strings.get(k as usize))
                .map_or("", String::as_str),
        }
    }

    fn text_len(&self) -> usize {
        let minted = self.base_strings..self.n_strings();
        self.base.text_len() + minted.map(|s| self.string(s).len()).sum::<usize>()
    }

    fn ssrt(&self) -> impl Iterator<Item = u32> + '_ {
        let mut minted: Vec<u32> = (self.base_strings as u32..self.n_strings() as u32).collect();
        minted.sort_unstable_by_key(|&s| self.string(s as usize));
        let before = |&a: &u32, &b: &u32| self.string(a as usize) < self.string(b as usize);
        merge_by(self.base.ssrt(), minted.into_iter(), before)
    }

    fn n_entities(&self) -> usize {
        self.base_entities + self.st.entities.len()
    }

    fn entity_record(&self, e: usize) -> EntityRecord {
        match e.checked_sub(self.base_entities) {
            None => self.base.entity_record(e),
            Some(i) => self
                .st
                .entities
                .get(i)
                .map_or(EntityRecord::UNKNOWN, |rec| EntityRecord {
                    name: Symbol(self.sym(rec.name)),
                    disambig: Symbol(self.sym(rec.disambig)),
                }),
        }
    }

    fn n_concepts(&self) -> usize {
        self.base_concepts + self.st.concepts.len()
    }

    fn concept_symbol(&self, c: usize) -> Symbol {
        match c.checked_sub(self.base_concepts) {
            None => self.base.concept_symbol(c),
            Some(i) => Symbol(self.st.concepts.get(i).map_or(0, |&sym| self.sym(sym))),
        }
    }

    fn csrt(&self) -> impl Iterator<Item = u32> + '_ {
        let mut new: Vec<u32> = (self.base_concepts as u32..self.n_concepts() as u32).collect();
        new.sort_unstable_by_key(|&c| self.concept_symbol(c as usize));
        let before =
            |&a: &u32, &b: &u32| self.concept_symbol(a as usize) < self.concept_symbol(b as usize);
        merge_by(self.base.csrt(), new.into_iter(), before)
    }

    fn econ_row(&self, e: usize, out: &mut Vec<(u32, IsAMeta)>) {
        match self.st.patches.get(&EntityId(e as u32)) {
            Some(patch) => out.extend(patch.row.iter().map(|&(c, m)| (c.0, m))),
            None => self.base.econ_row(e, out),
        }
    }

    fn cent_row(&self, c: usize, out: &mut Vec<(u32, IsAMeta)>) {
        let Some(touched) = self.st.extent.get(&ConceptId(c as u32)) else {
            return self.base.cent_row(c, out);
        };
        // The base's hyponyms the log left alone, already ranked, merged
        // with the touched entities that still have the edge.
        let mut kept = Vec::new();
        self.base.cent_row(c, &mut kept);
        kept.retain(|&(e, _)| touched.binary_search(&EntityId(e)).is_err());
        let mut patched: Vec<(u32, IsAMeta)> = touched
            .iter()
            .filter_map(|&e| {
                let row = &self.st.patches.get(&e)?.row;
                let &(_, m) = row.iter().find(|(cc, _)| cc.index() == c)?;
                Some((e.0, m))
            })
            .collect();
        patched.sort_unstable_by(rank);
        let before = |a: &(u32, IsAMeta), b: &(u32, IsAMeta)| rank(a, b).is_lt();
        out.extend(merge_by(kept.into_iter(), patched.into_iter(), before));
    }

    fn cpar_row(&self, c: usize, out: &mut Vec<(u32, IsAMeta)>) {
        match &self.st.tables {
            Some(t) => out.extend(
                t.parents
                    .get(c)
                    .into_iter()
                    .flatten()
                    .map(|&(p, m)| (p.0, m)),
            ),
            None => self.base.cpar_row(c, out),
        }
    }

    fn cchd_row(&self, c: usize, out: &mut Vec<u32>) {
        match &self.st.tables {
            Some(t) => out.extend(t.children.get(c).into_iter().flatten().map(|ch| ch.0)),
            None => self.base.cchd_row(c, out),
        }
    }

    fn eatt_row(&self, e: usize, out: &mut Vec<u32>) {
        self.base.eatt_row(e, out);
        self.append_once(&self.st.attributes, e, out);
    }

    fn eals_row(&self, e: usize, out: &mut Vec<u32>) {
        self.base.eals_row(e, out);
        self.append_once(&self.st.aliases, e, out);
    }

    fn ancc_row(&self, c: usize, out: &mut Vec<u32>) {
        let tables = self.st.tables.as_ref();
        match tables.and_then(|t| t.ancestors.get(&ConceptId(c as u32))) {
            Some(row) => out.extend(row.iter().map(|a| a.0)),
            None => self.base.ancc_row(c, out),
        }
    }

    fn topo(&self) -> impl Iterator<Item = u32> + '_ {
        let tables = self.st.tables.as_ref();
        let merged = tables.map(|t| t.topo.iter().map(|c| c.0));
        let base = tables.is_none().then(|| self.base.topo());
        merged
            .into_iter()
            .flatten()
            .chain(base.into_iter().flatten())
    }

    fn depth_of(&self, c: usize) -> u32 {
        match &self.st.tables {
            Some(t) => t.depth.get(c).copied().unwrap_or(0),
            None => self.base.depth_of(c),
        }
    }

    fn ment_row(&self, s: usize, out: &mut Vec<u32>) {
        let extra = self
            .mentions
            .binary_search_by_key(&(s as u32), |&(sym, _)| sym)
            .ok()
            .and_then(|i| self.mentions.get(i));
        let Some(&(_, senses)) = extra else {
            return self.base.ment_row(s, out);
        };
        let mut base = Vec::new();
        self.base.ment_row(s, &mut base);
        let senses = senses.iter().map(|e| e.0);
        out.extend(merge_by(base.into_iter(), senses, |a, b| a < b));
        out.dedup();
    }

    fn mhsh(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        // The overlay's mention strings whose base row was empty (every
        // minted one among them) are the new keys.
        let mut new: Vec<(u32, u32)> = self
            .mentions
            .iter()
            .filter(|&&(sym, _)| self.base_mentions_none(sym))
            .map(|&(sym, _)| (mention_hash(self.string(sym as usize)), sym))
            .collect();
        new.sort_unstable();
        merge_by(self.base.mhsh(), new.into_iter(), |a, b| a < b)
    }
}

impl IngestDelta for OverlayView<FrozenTaxonomyView> {
    /// Overlay apply: cheap, no materialisation. The base stays shared.
    fn ingest_delta(&self, delta: &DeltaOverlay) -> Result<Self, PersistError> {
        Ok(self.apply(delta))
    }

    fn overlay_depth(&self) -> usize {
        OverlayView::overlay_depth(self)
    }

    /// Folds base + accumulated deltas into a fresh view: deep-validate
    /// the base, then encode the base's rows merged with the folded state
    /// and open the bytes. The merge is serial and reads no runtime; `rt`
    /// stays in the signature for the callers that pass one
    /// (`TaxonomyService::compact`, the benchmark's `cnp_layers`).
    fn compacted(&self, _rt: &Runtime) -> Result<Self, PersistError> {
        if OverlayView::overlay_depth(self) == 0 {
            return Ok(self.clone());
        }
        let [validate, encode] = FOLD_PHASES;
        cnp_runtime::phase(validate);
        self.base().validate_deep()?;
        cnp_runtime::phase(encode);
        let bytes = persist::encode(&Merge::new(self));
        Ok(OverlayView::new(FrozenTaxonomyView::open(bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::FrozenTaxonomy;
    use crate::store::{IsAMeta, Source, TaxonomyStore};
    use bytes::Bytes;

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

    /// Encoding an overlay that folded nothing writes its base's own
    /// bytes: every row, sorted section and dictionary index read through
    /// the merge comes out as the base holds it. Checked on the committed
    /// golden fixture and on a view of this module's store.
    #[test]
    fn a_depth_zero_merge_writes_the_view_s_own_bytes() {
        let fixture = include_bytes!("../../../tests/fixtures/golden_v3.cnpb");
        let built = persist::encode_frozen_v3(&FrozenTaxonomy::freeze(&build_store()));
        for bytes in [Bytes::copy_from_slice(fixture), built] {
            let view = FrozenTaxonomyView::open(bytes).expect("open v3 snapshot");
            let overlay = OverlayView::new(view);
            assert_eq!(overlay.overlay_depth(), 0);
            let merged = persist::encode(&Merge::new(&overlay));
            assert_eq!(&merged[..], overlay.base().as_bytes());
        }
    }
}
