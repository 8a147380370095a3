//! Tagging equivalence (ISSUE 10 acceptance).
//!
//! `Query::Tag` and `Query::Classify` must produce *byte-identical* wire
//! responses across every snapshot representation — owned
//! [`FrozenTaxonomy`], borrowed [`FrozenTaxonomyView`], and an
//! [`OverlayView`] whose folded delta completes the same logical content —
//! on the committed golden fixture (queries run on the caller's thread, so
//! there is no thread count to vary). The tag index is rebuilt per
//! generation from the snapshot's own vocabulary, so any
//! representation-dependent drift (id order, closure rows, mention tables)
//! would surface here as a diverging byte.

use cn_probase::serve::wire;
use cn_probase::taxonomy::store::EntityRecord;
use cn_probase::taxonomy::{ConceptId, EntityId, IsAMeta, Source, Symbol, TaxonomyStore};
use cn_probase::{
    DeltaOverlay, FrozenTaxonomy, FrozenTaxonomyView, OverlayView, Query, QueryResponse, Response,
    TagOptions, TaxonomyRead, TaxonomyService,
};
use std::path::Path;

fn view() -> FrozenTaxonomyView {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v3.cnpb");
    FrozenTaxonomyView::load_from_file(&path).expect("golden fixture opens")
}

fn frozen() -> FrozenTaxonomy {
    view().to_frozen().expect("golden fixture materialises")
}

/// The golden fixture's content minus 张学友 — the overlay backend folds
/// the missing entity back in through a delta, landing on the same dense
/// ids (appends replay in log order) and the same logical answers.
fn overlay() -> OverlayView<FrozenTaxonomy> {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", Some("中国香港男演员"));
    let liu_bare = s.add_entity("刘德华", None);
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

    let mut d = DeltaOverlay::new();
    d.add_entity("张学友", None);
    d.upsert_entity_is_a("张学友", None, "歌手", IsAMeta::new(Source::Infobox, 0.92));
    OverlayView::new(FrozenTaxonomy::freeze(&s)).apply(&d)
}

/// Golden documents × option shapes, as both query kinds. Covers resolved
/// mentions, the disambiguated full key, an alias, concept-name spans,
/// out-of-vocabulary text, and the empty document.
fn probes() -> Vec<Query> {
    let docs = [
        "刘德华和张学友。",
        "歌手张学友在香港开演唱会。",
        "刘德华（中国香港男演员）的代表作品。",
        "Andy Lau 是演员。",
        "火星话xyzzy没有词典词。",
        "",
    ];
    let options = [
        TagOptions::default(),
        TagOptions::default().with_top_k(1),
        TagOptions::default().with_top_k(2).with_beam(1),
        TagOptions::default().with_min_score(0.5),
    ];
    let mut queries = Vec::new();
    for doc in docs {
        for opts in &options {
            queries.push(Query::Tag {
                text: doc.to_string(),
                options: opts.clone(),
            });
            queries.push(Query::Classify {
                text: doc.to_string(),
                options: opts.clone(),
            });
        }
    }
    queries
}

/// A response's wire bytes, as the server writes them.
fn reply(response: &QueryResponse) -> String {
    let mut out = String::new();
    wire::write_response(response, &mut out);
    out
}

/// Executes every probe and renders each response to its wire bytes.
fn rendered<T: TaxonomyRead>(service: &TaxonomyService<T>) -> Vec<String> {
    probes()
        .iter()
        .map(|q| reply(&service.execute(q)))
        .collect()
}

#[test]
fn tag_responses_are_byte_identical_across_backends() {
    let baseline = rendered(&TaxonomyService::new(frozen()));
    assert!(
        baseline.iter().any(|r| r.contains("歌手")),
        "baseline never tagged 歌手 — probes are not exercising the scorer"
    );
    let others = [
        ("view", rendered(&TaxonomyService::new(view()))),
        ("overlay", rendered(&TaxonomyService::new(overlay()))),
    ];
    for (name, r) in &others {
        assert_eq!(r, &baseline, "{name} diverged from frozen");
    }
}

#[test]
fn batched_tag_queries_match_single_execution() {
    let service = TaxonomyService::new(frozen());
    let queries = probes();
    let batched = service.execute_batch(&queries);
    assert_eq!(batched.len(), queries.len());
    for (q, b) in queries.iter().zip(&batched) {
        let single = service.execute(q);
        assert_eq!(
            reply(b),
            reply(&single),
            "batch and single execution disagree on {q:?}"
        );
    }
}

/// Every byte of the tag path, pinned: 128 paragraph-sized documents (8
/// page abstracts each, the benchmark's `tag_docs` shape) over a
/// pipeline-built `small` corpus, tagged through the zero-copy view and
/// through an overlay whose one delta re-points entities and gives
/// concepts a second parent. The constants were captured before the
/// segmenter, the span resolver or the scorer was optimised; a faster tag
/// path must tag the same bytes.
#[test]
fn tag_outputs_match_their_golden_hash() {
    use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
    use cn_probase::pipeline::{Pipeline, PipelineConfig};
    use cn_probase::runtime::stable_hash;
    use cn_probase::tag::TagIndex;
    use cn_probase::taxonomy::persist::encode_frozen_v3;
    use cn_probase::taxonomy::{ConceptId, EntityId};

    const DOCS: usize = 128;
    const ABSTRACTS_PER_DOC: usize = 8;
    const VIEW_SEEDED_WORDS: usize = 1_875;
    const OVERLAY_SEEDED_WORDS: usize = 1_875;
    const VIEW_SPANS: usize = 3_424;
    const OVERLAY_SPANS: usize = 3_424;
    const VIEW_HASH: u64 = 0xcc58_f25b_0432_43fc;
    const OVERLAY_HASH: u64 = 0xd74d_0011_9953_8e77;

    let corpus = CorpusGenerator::new(CorpusConfig::small(931)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let view = FrozenTaxonomyView::open(encode_frozen_v3(&outcome.freeze())).expect("view opens");

    let abstracts: Vec<&str> = corpus
        .pages
        .iter()
        .map(|p| p.abstract_text.as_str())
        .filter(|a| !a.is_empty())
        .collect();
    let docs: Vec<String> = (0..DOCS)
        .map(|d| {
            (0..ABSTRACTS_PER_DOC)
                .map(|k| abstracts[(d * ABSTRACTS_PER_DOC + k) * 7_919 % abstracts.len()])
                .collect()
        })
        .collect();

    // One delta: every 16th entity gains an edge to a second concept, and
    // every 4th concept below the roots gains a root it did not have as a
    // second parent — shapes the generated single-parent tree lacks.
    let mut delta = DeltaOverlay::new();
    let concepts = view.num_concepts() as u32;
    for e in (0..view.num_entities() as u32).step_by(16).map(EntityId) {
        let rec = view.entity(e);
        let disambig = (rec.disambig.0 != 0).then(|| view.resolve(rec.disambig));
        let other = ConceptId((e.0 * 31 + 7) % concepts);
        delta.upsert_entity_is_a(
            view.resolve(rec.name),
            disambig,
            view.concept_name(other),
            IsAMeta::new(Source::Infobox, 0.6),
        );
    }
    let roots: Vec<ConceptId> = (0..concepts)
        .map(ConceptId)
        .filter(|&c| view.depth(c) == 0)
        .collect();
    for c in (0..concepts).map(ConceptId).filter(|&c| view.depth(c) >= 2) {
        if c.0 % 4 != 0 {
            continue;
        }
        if let Some(&r) = roots.iter().find(|&&r| !view.ancestor_contains(c, r)) {
            delta.upsert_concept_is_a(
                view.concept_name(c),
                view.concept_name(r),
                IsAMeta::new(Source::SubConcept, 0.7),
            );
        }
    }
    let overlay = OverlayView::new(view.clone()).apply(&delta);

    fn pinned<T: TaxonomyRead>(f: T, docs: &[String]) -> (usize, usize, u64) {
        let seeded = TagIndex::build(&f).seeded_words();
        let service = TaxonomyService::new(f);
        let mut spans = 0usize;
        let mut bytes = String::new();
        for doc in docs {
            let shapes = [
                TagOptions::default(),
                TagOptions::default().with_top_k(20).with_beam(2),
            ];
            for (i, options) in shapes.into_iter().enumerate() {
                let reply = service.execute(&Query::Tag {
                    text: doc.clone(),
                    options,
                });
                if let (0, Ok(Response::Tags(out))) = (i, &reply.result) {
                    spans += out.spans.len();
                }
                wire::write_response(&reply, &mut bytes);
                bytes.push('\0');
            }
        }
        (seeded, spans, stable_hash(bytes.as_bytes()))
    }

    assert_eq!(
        pinned(view, &docs),
        (VIEW_SEEDED_WORDS, VIEW_SPANS, VIEW_HASH),
        "view"
    );
    assert_eq!(
        pinned(overlay, &docs),
        (OVERLAY_SEEDED_WORDS, OVERLAY_SPANS, OVERLAY_HASH),
        "overlay"
    );
}

#[test]
fn golden_documents_actually_tag() {
    let service = TaxonomyService::new(frozen());
    let query = Query::Tag {
        text: "刘德华和张学友。".to_string(),
        options: TagOptions::default(),
    };
    match service.execute(&query).result {
        Ok(Response::Tags(output)) => {
            assert!(!output.spans.is_empty(), "no spans resolved");
            assert!(
                output.concepts.iter().any(|h| h.name == "歌手"),
                "shared concept 歌手 missing from {:?}",
                output.concepts
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// What the generated corpora never write: an alias. A delta gives the
/// golden fixture's 刘德华 a Han alias (one the tag index does not seed,
/// so the segmenter may split it and the window must join it back) and
/// adds a new entity; a document naming both tags through the overlay
/// exactly as through the compacted snapshot of the same content.
#[test]
fn an_overlay_alias_and_new_entity_tag_as_their_compacted_snapshot() {
    use cn_probase::runtime::Runtime;
    use cn_probase::tag::SpanKind;
    use cn_probase::taxonomy::IngestDelta;

    let mut d = DeltaOverlay::new();
    d.add_alias("刘德华", Some("中国香港男演员"), "华哥");
    d.add_entity("黎明", None);
    d.upsert_entity_is_a("黎明", None, "歌手", IsAMeta::new(Source::Infobox, 0.9));
    let overlay = OverlayView::new(view()).apply(&d);
    let compacted = overlay.compacted(&Runtime::new(1)).expect("compacts");
    assert_eq!(compacted.overlay_depth(), 0);

    let query = Query::Tag {
        text: "华哥和黎明同台演出。".to_string(),
        options: TagOptions::default(),
    };
    let through_overlay = TaxonomyService::new(overlay).execute(&query);
    let through_compacted = TaxonomyService::new(compacted).execute(&query);
    assert_eq!(reply(&through_overlay), reply(&through_compacted));
    let Ok(Response::Tags(out)) = &through_overlay.result else {
        panic!("unexpected {through_overlay:?}");
    };
    for name in ["华哥", "黎明"] {
        assert!(
            out.spans
                .iter()
                .any(|s| s.text == name && matches!(s.kind, SpanKind::Entities(_))),
            "{name} did not resolve: {:?}",
            out.spans
        );
    }
}

/// A snapshot that counts its `men2ent` calls, and lists its mention keys
/// only when `lists_keys` is set; every other read is forwarded.
struct Probes<T> {
    inner: T,
    lists_keys: bool,
    men2ent: std::sync::atomic::AtomicUsize,
}

impl<T: TaxonomyRead> TaxonomyRead for Probes<T> {
    fn resolve(&self, sym: Symbol) -> &str {
        self.inner.resolve(sym)
    }
    fn entity(&self, id: EntityId) -> EntityRecord {
        self.inner.entity(id)
    }
    fn entity_key(&self, id: EntityId) -> String {
        self.inner.entity_key(id)
    }
    fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
        self.inner.find_entity(name, disambig)
    }
    fn find_concept(&self, name: &str) -> Option<ConceptId> {
        self.inner.find_concept(name)
    }
    fn concept_name(&self, id: ConceptId) -> &str {
        self.inner.concept_name(id)
    }
    fn num_entities(&self) -> usize {
        self.inner.num_entities()
    }
    fn num_concepts(&self) -> usize {
        self.inner.num_concepts()
    }
    fn num_is_a(&self) -> usize {
        self.inner.num_is_a()
    }
    fn num_mentions(&self) -> usize {
        self.inner.num_mentions()
    }
    fn men2ent(&self, mention: &str) -> Vec<EntityId> {
        self.men2ent
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.men2ent(mention)
    }
    fn mention_keys(&self) -> Option<impl Iterator<Item = &str> + '_> {
        self.inner.mention_keys().filter(|_| self.lists_keys)
    }
    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        self.inner.concepts_of(e)
    }
    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
        self.inner.entities_of(c)
    }
    fn entities_with_confidence(&self, c: ConceptId) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        self.inner.entities_with_confidence(c)
    }
    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        self.inner.entity_edge(e, c)
    }
    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        self.inner.parents_of(c)
    }
    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        self.inner.children_of(c)
    }
    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        self.inner.ancestors(c)
    }
    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
        self.inner.ancestor_contains(c, sup)
    }
    fn depth(&self, c: ConceptId) -> usize {
        self.inner.depth(c)
    }
    fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        self.inner.descendants(start)
    }
}

/// `men2ent` calls one tag request may make per resolved span. A window
/// whose key is no bare mention key never reaches the snapshot, so a
/// document asks about its entity spans, a share of its spans, and about
/// the rare window whose key collides with a mention key's; probing every
/// window made about 5.9 calls per span.
const MEN2ENT_CALLS_PER_SPAN: f64 = 1.0;

/// Span resolution asks the snapshot about likely mentions, not about
/// every window: 32 documents shaped like the benchmark's `tag_docs` (8
/// page abstracts each) over a pipeline-built `small` snapshot's view,
/// tagged once with its mention keys listed and once without — the same
/// spans both times, and `men2ent` calls near the span count only with.
#[test]
fn a_tag_request_asks_men2ent_per_span_not_per_window() {
    use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
    use cn_probase::pipeline::{Pipeline, PipelineConfig};
    use cn_probase::tag::{tag_with, TagIndex};
    use cn_probase::taxonomy::persist::encode_frozen_v3;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const DOCS: usize = 32;
    const ABSTRACTS_PER_DOC: usize = 8;

    let corpus = CorpusGenerator::new(CorpusConfig::small(909)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let view = FrozenTaxonomyView::open(encode_frozen_v3(&outcome.freeze())).expect("view opens");
    let abstracts: Vec<&str> = corpus
        .pages
        .iter()
        .map(|p| p.abstract_text.as_str())
        .filter(|a| !a.is_empty())
        .collect();
    let docs: Vec<String> = (0..DOCS)
        .map(|d| {
            (0..ABSTRACTS_PER_DOC)
                .map(|k| abstracts[(d * ABSTRACTS_PER_DOC + k) * 7_919 % abstracts.len()])
                .collect()
        })
        .collect();

    let run = |lists_keys: bool| {
        let f = Probes {
            inner: view.clone(),
            lists_keys,
            men2ent: AtomicUsize::new(0),
        };
        let index = TagIndex::build(&f);
        let outputs: Vec<_> = docs
            .iter()
            .map(|doc| tag_with(&f, &index, doc, &TagOptions::default()))
            .collect();
        (f.men2ent.load(Ordering::Relaxed), outputs)
    };
    let (keyed_calls, keyed) = run(true);
    let (every_calls, every) = run(false);
    assert_eq!(keyed, every, "listing the keys changed an answer");

    let spans: usize = keyed.iter().map(|out| out.spans.len()).sum();
    let per_doc = |n: usize| n as f64 / DOCS as f64;
    println!(
        "men2ent probes: {:.1} calls per document ({:.1} spans; {:.1} when every window asks, \
         {DOCS} documents of {ABSTRACTS_PER_DOC} abstracts)",
        per_doc(keyed_calls),
        per_doc(spans),
        per_doc(every_calls),
    );
    assert!(spans > 0, "no document resolved a span");
    assert!(
        keyed_calls as f64 <= MEN2ENT_CALLS_PER_SPAN * spans as f64,
        "{keyed_calls} men2ent calls for {spans} spans, over {MEN2ENT_CALLS_PER_SPAN} per span"
    );
}
