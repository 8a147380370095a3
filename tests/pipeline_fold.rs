//! Folds over pipeline-built snapshots served as views, held to the bytes
//! a fresh build writes.
//!
//! A fold merges the base view's rows with the overlay's folded state and
//! encodes the merge straight to v3 bytes. An overlay that folded nothing
//! must write its base's own bytes back, for the committed golden fixture
//! and for `small(909)`; an overlay of pipeline and hand-written deltas
//! must write what `encode_frozen_v3(&FrozenTaxonomy::freeze(&replayed))`
//! writes for the build store the same deltas were replayed onto.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::runtime::Runtime;
use cn_probase::taxonomy::persist::encode_frozen_v3;
use cn_probase::taxonomy::{
    ConceptId, DeltaOverlay, EntityId, FrozenTaxonomy, FrozenTaxonomyView, IngestDelta, IsAMeta,
    OverlayView, Source,
};
use std::path::PathBuf;

fn golden_fixture() -> FrozenTaxonomyView {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v3.cnpb");
    FrozenTaxonomyView::load_from_file(&path).expect("the fixture opens")
}

#[test]
fn a_fold_of_nothing_writes_the_base_s_own_bytes() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(909)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let small = FrozenTaxonomyView::open(encode_frozen_v3(&outcome.freeze())).expect("opens");
    for (name, view) in [("golden fixture", golden_fixture()), ("small(909)", small)] {
        let want = view.as_bytes().to_vec();
        // An empty delta raises the depth, so the fold runs the whole
        // merge over an overlay that changed nothing.
        let overlay = OverlayView::new(view).apply(&DeltaOverlay::new());
        assert_eq!(overlay.overlay_depth(), 1);
        let folded = overlay.compacted(&Runtime::serial()).expect("folds");
        assert!(
            folded.base().as_bytes() == want,
            "{name}: the fold moved bytes"
        );
    }
}

#[test]
fn a_view_fold_of_small_909_writes_the_replay_s_bytes() {
    let pipeline = Pipeline::new(PipelineConfig::fast());
    let corpus = CorpusGenerator::new(CorpusConfig::small(909)).generate();
    let outcome = pipeline.run(&corpus);
    let mut store = outcome.taxonomy.clone();
    let view = FrozenTaxonomyView::open(encode_frozen_v3(&outcome.freeze())).expect("opens");
    let mut overlay = OverlayView::new(view);

    // A second batch, diffed against the live overlay as a producer would.
    let batch = pipeline.run(&CorpusGenerator::new(CorpusConfig::tiny(905)).generate());
    let from_pipeline = batch.delta_against(&overlay);
    assert!(!from_pipeline.is_empty(), "the batch adds nothing");

    // Edits of the base's own rows: a retraction and a move to a
    // confidence no base edge carries, an alias and an attribute on base
    // entities (the alias another entity's name), a new concept between
    // two base ones and a concept edge closing a cycle.
    let base = overlay.base();
    let key = |e: u32| base.entity_key(EntityId(e));
    let record = |e: u32| {
        let rec = base.entity(EntityId(e));
        let disambig = base.resolve(rec.disambig).to_string();
        (base.resolve(rec.name).to_string(), disambig)
    };
    let linked: Vec<u32> = (0..base.num_entities() as u32)
        .filter(|&e| base.concepts_of(EntityId(e)).count() > 0)
        .take(2)
        .collect();
    let [first, second] = linked[..] else {
        panic!("small(909) links fewer than two entities")
    };
    let edge_of = |e: u32| {
        let (c, _) = base.concepts_of(EntityId(e)).next().expect("linked");
        base.concept_name(c).to_string()
    };
    let child = (0..base.num_concepts() as u32)
        .map(ConceptId)
        .find(|&c| base.parents_of(c).count() > 0)
        .expect("small(909) has a concept edge");
    let (parent, _) = base.parents_of(child).next().expect("a parent");
    let (child, parent) = (
        base.concept_name(child).to_string(),
        base.concept_name(parent).to_string(),
    );
    let mut edits = DeltaOverlay::new();
    let (name, disambig) = record(first);
    let disambig = Some(disambig.as_str()).filter(|d| !d.is_empty());
    edits.retract_entity_is_a(&name, disambig, &edge_of(first));
    let (name2, disambig2) = record(second);
    let disambig2 = Some(disambig2.as_str()).filter(|d| !d.is_empty());
    let meta = IsAMeta::new(Source::Import, 0.123);
    edits.upsert_entity_is_a(&name2, disambig2, &edge_of(second), meta);
    edits.add_alias(&name, disambig, &record(second).0);
    edits.add_alias(&name2, disambig2, "增量别名");
    edits.add_attribute(&name, disambig, "增量属性");
    edits.add_attribute(&name2, disambig2, &key(first));
    let sub = IsAMeta::new(Source::SubConcept, 0.4);
    edits.upsert_concept_is_a(&child, "增量概念", sub);
    edits.upsert_concept_is_a("增量概念", &parent, sub);
    edits.upsert_concept_is_a(&parent, &child, sub);

    for delta in [from_pipeline, edits] {
        overlay = overlay.apply(&delta);
        delta.apply_to_store(&mut store);
    }
    let want = encode_frozen_v3(&FrozenTaxonomy::freeze(&store));
    let folded = overlay.compacted(&Runtime::serial()).expect("folds");
    assert_eq!(folded.overlay_depth(), 0);
    assert!(
        folded.base().as_bytes() == &want[..],
        "the fold's bytes differ from the replay's"
    );
}
