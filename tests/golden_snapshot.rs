//! Golden-format lock for the snapshot format.
//!
//! `tests/fixtures/golden_v3.cnpb` is a committed snapshot of the small
//! deterministic taxonomy below. Two locks hold the format down:
//!
//! 1. the fixture must keep opening and answering the known queries —
//!    in place through the view and materialised through `to_frozen()` —
//!    so an accidental codec change that would orphan deployed snapshots
//!    fails CI instead of surfacing at the next production boot;
//! 2. re-encoding today's freeze of the same store, and re-encoding the
//!    materialised fixture, must both reproduce the fixture byte-for-byte,
//!    so silent encoder drift is caught too.
//!
//! An *intentional* format change bumps the version and regenerates the
//! fixture via the ignored `regenerate_golden_fixture` test:
//!
//! ```sh
//! cargo test --test golden_snapshot -- --ignored regenerate_golden_fixture
//! ```

use cn_probase::serve::{ListOptions, Query, QueryResponse, Response, TaxonomyService};
use cn_probase::taxonomy::persist::{encode_frozen_v3, save_frozen_v3_to_file};
use cn_probase::taxonomy::{
    FrozenTaxonomy, FrozenTaxonomyView, IsAMeta, Source, TaxonomyRead, TaxonomyStore,
};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v3.cnpb")
}

fn fixture() -> FrozenTaxonomyView {
    FrozenTaxonomyView::load_from_file(&fixture_path()).expect("fixture is committed and opens")
}

/// The fixture taxonomy: 男演员 → 演员 → 人物, 歌手 → 人物, two 刘德华
/// senses (one disambiguated, with alias + attributes), 张学友.
fn golden_store() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", Some("中国香港男演员"));
    let liu_bare = s.add_entity("刘德华", None);
    let zhang = s.add_entity("张学友", None);
    s.add_alias(liu, "Andy Lau");
    s.add_attribute(liu, "职业");
    s.add_attribute(liu, "代表作品");
    let male_actor = s.add_concept("男演员");
    let actor = s.add_concept("演员");
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    s.add_concept_is_a(male_actor, actor, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.85));
    s.add_entity_is_a(liu, male_actor, IsAMeta::new(Source::Bracket, 0.95));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s.add_entity_is_a(liu_bare, singer, IsAMeta::new(Source::Tag, 0.5));
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Infobox, 0.92));
    s
}

/// The names a list answer carries: sense keys, concept names or entity
/// keys; empty for an error.
fn names(response: QueryResponse) -> Vec<String> {
    match response.result {
        Ok(Response::Senses(senses)) => senses.into_iter().map(|s| s.key).collect(),
        Ok(Response::Concepts(page)) => page.items.into_iter().map(|h| h.name).collect(),
        Ok(Response::Entities(page)) => page.items.into_iter().map(|h| h.key).collect(),
        _ => Vec::new(),
    }
}

/// The answers every reader of the fixture must give.
fn assert_known_answers<T: TaxonomyRead>(service: &TaxonomyService<T>) {
    let pinned = service.pin();
    let ask = |query: Query| names(pinned.execute(&query));
    let f = pinned.frozen();
    assert_eq!(f.num_entities(), 3);
    assert_eq!(f.num_concepts(), 4);
    assert_eq!(f.num_is_a(), 7);

    // men2ent: bare name resolves every sense, full key exactly one,
    // alias one.
    assert_eq!(ask(Query::men2ent("刘德华")).len(), 2);
    let hits = ask(Query::men2ent("刘德华（中国香港男演员）"));
    assert_eq!(hits, ["刘德华（中国香港男演员）"]);
    assert_eq!(ask(Query::men2ent("Andy Lau")).len(), 1);
    assert!(ask(Query::men2ent("不存在")).is_empty());

    // getConcept: direct then transitive, nearest-first.
    let get_concept = |options| Query::GetConcept {
        entity: hits[0].clone(),
        options,
    };
    assert_eq!(ask(get_concept(ListOptions::default())), ["男演员", "歌手"]);
    assert_eq!(
        ask(get_concept(ListOptions::transitive())),
        ["男演员", "歌手", "演员", "人物"]
    );

    // getEntity: transitive reach through the concept chain, each entity
    // reported once.
    let get_entity = |options| Query::GetEntity {
        concept: "人物".to_string(),
        options,
    };
    assert!(ask(get_entity(ListOptions::default())).is_empty());
    let all = ask(get_entity(ListOptions::transitive()));
    assert_eq!(all.len(), 3);
    assert!(all.contains(&"刘德华（中国香港男演员）".to_string()));
    assert!(all.contains(&"刘德华".to_string()));
    assert!(all.contains(&"张学友".to_string()));

    // Precomputed topology survives the disk round-trip.
    let male_actor = f.find_concept("男演员").unwrap();
    let person = f.find_concept("人物").unwrap();
    assert_eq!(f.depth(male_actor), 2);
    assert_eq!(f.depth(person), 0);
    assert_eq!(f.ancestors(male_actor).count(), 2);
    assert!(f.ancestor_contains(male_actor, person));
    assert!(!f.ancestor_contains(person, male_actor));
}

/// The fixture materialised: `to_frozen()`'s deep checks accept the
/// committed bytes and the owned snapshot answers like the view.
#[test]
fn golden_fixture_decodes_and_answers_known_queries() {
    let frozen = fixture().to_frozen().expect("fixture materialises");
    assert_known_answers(&TaxonomyService::new(frozen));
}

#[test]
fn golden_fixture_matches_current_encoder_byte_for_byte() {
    let view = fixture();
    let fresh = encode_frozen_v3(&view.to_frozen().expect("fixture materialises"));
    assert_eq!(
        fresh.as_ref(),
        view.as_bytes(),
        "the materialised fixture no longer re-encodes to its own bytes"
    );
}

/// The fixture served in place, straight off the buffer.
#[test]
fn golden_v3_fixture_decodes_and_answers_known_queries() {
    assert_known_answers(&TaxonomyService::new(fixture()));
}

#[test]
fn golden_v3_fixture_matches_current_encoder_byte_for_byte() {
    let committed = std::fs::read(fixture_path()).expect("fixture exists");
    let fresh = encode_frozen_v3(&FrozenTaxonomy::freeze(&golden_store()));
    assert_eq!(
        fresh.as_ref(),
        committed.as_slice(),
        "encoder output drifted from the committed golden fixture; if the \
         format change is intentional, bump the snapshot version and \
         regenerate via `cargo test --test golden_snapshot -- --ignored \
         regenerate_golden_fixture`"
    );
}

/// Not a check — regenerates the committed fixture after an intentional
/// format change. Run explicitly with `-- --ignored`.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    save_frozen_v3_to_file(&FrozenTaxonomy::freeze(&golden_store()), &path).unwrap();
    println!("regenerated {}", path.display());
}
