//! A fold's bytes are a fresh build's bytes.
//!
//! Compacting an overlay must write exactly the snapshot that replaying the
//! same op log onto the build store and freezing it writes: the byte oracle
//! is `encode_frozen_v3(&FrozenTaxonomy::freeze(&replayed_store))`. Random
//! deltas mix every op kind — retractions of base edges, upserts that move
//! an edge to a confidence the base's metadata dictionary lacks, concept
//! edges that close and reopen cycles, aliases and attributes on base
//! entities, new concepts, and names equal to strings the base already
//! holds (entity names, aliases, concept names, attributes) — and stack up
//! to five of them. The base is a view of the frozen base store's bytes,
//! as a server folds it.

use cnp_runtime::Runtime;
use cnp_taxonomy::persist::encode_frozen_v3;
use cnp_taxonomy::{
    DeltaOverlay, FrozenTaxonomy, FrozenTaxonomyView, IngestDelta, IsAMeta, OverlayView, Source,
    TaxonomyStore,
};
use proptest::prelude::*;

/// Entity names: base names, a base alias, a base concept, a base
/// attribute, and two strings no base holds.
const NAMES: [&str; 8] = [
    "刘德华",
    "张学友",
    "王菲",
    "Andy Lau",
    "歌手",
    "职业",
    "新人甲",
    "新人乙",
];
const DISAMBIGS: [Option<&str>; 4] = [None, Some("中国香港男演员"), Some("歌手"), Some("新义项")];
/// Concept names: the base's five, two new ones and a base entity name.
const CONCEPTS: [&str; 8] = [
    "男演员",
    "演员",
    "歌手",
    "人物",
    "艺人",
    "新概念甲",
    "新概念乙",
    "刘德华",
];
/// Alias and attribute strings, most of them already in the base.
const STRINGS: [&str; 10] = [
    "Andy Lau",
    "华仔",
    "歌神",
    "职业",
    "代表作品",
    "歌手",
    "新别名甲",
    "新别名乙",
    "刘德华",
    "人物",
];
const SOURCES: [Source; 4] = [
    Source::Tag,
    Source::Bracket,
    Source::Infobox,
    Source::Abstract,
];
/// The base's confidences are 0.9, 0.95, 0.5 and 0.8: 0.33 is new.
const CONFIDENCES: [f32; 4] = [0.9, 0.95, 0.5, 0.33];

fn base_store() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", Some("中国香港男演员"));
    let liu_bare = s.add_entity("刘德华", None);
    let zhang = s.add_entity("张学友", None);
    let wang = s.add_entity("王菲", Some("歌手"));
    let li = s.add_entity("黎明", None);
    s.add_alias(liu, "Andy Lau");
    s.add_alias(liu, "华仔");
    s.add_alias(zhang, "歌神");
    s.add_attribute(liu, "职业");
    s.add_attribute(liu, "代表作品");
    s.add_attribute(wang, "职业");
    let male_actor = s.add_concept("男演员");
    let actor = s.add_concept("演员");
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    let artist = s.add_concept("艺人");
    let sub = |c| IsAMeta::new(Source::SubConcept, c);
    s.add_concept_is_a(male_actor, actor, sub(0.9));
    s.add_concept_is_a(actor, person, sub(0.8));
    s.add_concept_is_a(singer, person, sub(0.8));
    s.add_concept_is_a(singer, artist, sub(0.9));
    s.add_entity_is_a(liu, male_actor, IsAMeta::new(Source::Bracket, 0.95));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s.add_entity_is_a(liu_bare, singer, IsAMeta::new(Source::Tag, 0.5));
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Infobox, 0.9));
    s.add_entity_is_a(wang, singer, IsAMeta::new(Source::Tag, 0.9));
    s.add_entity_is_a(li, actor, IsAMeta::new(Source::Tag, 0.5));
    s
}

/// The base's entity→concept edges, as `(name, disambig, concept)`.
const BASE_EDGES: [(&str, Option<&str>, &str); 6] = [
    ("刘德华", Some("中国香港男演员"), "男演员"),
    ("刘德华", Some("中国香港男演员"), "歌手"),
    ("刘德华", None, "歌手"),
    ("张学友", None, "歌手"),
    ("王菲", Some("歌手"), "歌手"),
    ("黎明", None, "演员"),
];

/// One op of a delta, from four random numbers.
fn push_op(d: &mut DeltaOverlay, (kind, a, b, c): (u32, u32, u32, u32)) {
    let (a, b, c) = (a as usize, b as usize, c as usize);
    let (name, disambig) = (NAMES[a / 4], DISAMBIGS[a % 4]);
    let meta = IsAMeta::new(SOURCES[c / 4], CONFIDENCES[c % 4]);
    match kind {
        0 => d.add_entity(name, disambig),
        1 => d.add_concept(CONCEPTS[b % 8]),
        2 => d.add_alias(name, disambig, STRINGS[b % 10]),
        3 => d.add_attribute(name, disambig, STRINGS[c % 10]),
        4 => d.upsert_entity_is_a(name, disambig, CONCEPTS[b % 8], meta),
        5 => d.upsert_concept_is_a(CONCEPTS[b % 8], CONCEPTS[a % 8], meta),
        6 => d.retract_entity_is_a(name, disambig, CONCEPTS[b % 8]),
        7 => d.retract_concept_is_a(CONCEPTS[b % 8], CONCEPTS[a % 8]),
        _ => {
            // Move a base edge, or retract it.
            let (name, disambig, concept) = BASE_EDGES[a % BASE_EDGES.len()];
            if b % 4 == 0 {
                d.retract_entity_is_a(name, disambig, concept);
            } else {
                d.upsert_entity_is_a(name, disambig, concept, meta);
            }
        }
    }
}

/// Folds `deltas` over a view base and checks the fold against the
/// replayed store's fresh encode.
fn assert_folds_match_replay(deltas: &[DeltaOverlay]) {
    let mut store = base_store();
    let base = encode_frozen_v3(&FrozenTaxonomy::freeze(&store));
    let mut viewed = OverlayView::new(FrozenTaxonomyView::open(base).expect("the base opens"));
    for delta in deltas {
        viewed = viewed.apply(delta);
        delta.apply_to_store(&mut store);
    }
    let want = encode_frozen_v3(&FrozenTaxonomy::freeze(&store));
    let folded = viewed
        .compacted(&Runtime::serial())
        .expect("the view base folds");
    assert_eq!(folded.overlay_depth(), 0);
    assert!(
        folded.base().as_bytes() == &want[..],
        "the fold differs from the replay's encode: {deltas:?}"
    );
}

/// The cycle case spelled out: 人物 → 男演员 closes 男演员 → 演员 → 人物,
/// the next delta reopens it at another edge, the one after closes it
/// again through a new concept.
#[test]
fn a_cycle_closed_and_reopened_folds_like_a_replay() {
    let sub = |c| IsAMeta::new(Source::SubConcept, c);
    let mut close = DeltaOverlay::new();
    close.upsert_concept_is_a("人物", "男演员", sub(0.3));
    let mut reopen = DeltaOverlay::new();
    reopen.retract_concept_is_a("演员", "人物");
    reopen.upsert_entity_is_a("黎明", None, "人物", IsAMeta::new(Source::Tag, 0.33));
    let mut through_new = DeltaOverlay::new();
    through_new.upsert_concept_is_a("演员", "新概念甲", sub(0.6));
    through_new.upsert_concept_is_a("新概念甲", "男演员", sub(0.6));
    through_new.add_alias("刘德华", None, "华仔");
    through_new.add_attribute("黎明", None, "代表作品");
    assert_folds_match_replay(&[close.clone()]);
    assert_folds_match_replay(&[close.clone(), reopen.clone()]);
    assert_folds_match_replay(&[close, reopen, through_new]);
}

proptest! {
    #[test]
    fn a_fold_writes_the_bytes_a_replay_freezes(
        deltas in proptest::collection::vec(
            proptest::collection::vec((0u32..9, 0u32..32, 0u32..16, 0u32..16), 1..12),
            1..6,
        ),
    ) {
        let deltas: Vec<DeltaOverlay> = deltas
            .into_iter()
            .map(|ops| {
                let mut d = DeltaOverlay::new();
                for op in ops {
                    push_op(&mut d, op);
                }
                d
            })
            .collect();
        assert_folds_match_replay(&deltas);
    }
}
