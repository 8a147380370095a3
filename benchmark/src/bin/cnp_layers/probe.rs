//! The probe pass: direct calls into each layer's public functions, with
//! keys decoded from a reference request stream (every lookup op, tag
//! documents, `CNPD` sidecars). Each number is a mean over the stream's
//! keys, the median of [`ROUNDS`] rounds.

use crate::Service;
use cnp_benchmark::stats::median;
use cnp_serve::json::Json;
use cnp_serve::{wire, Query, TagOptions, TaxonomyService};
use cnp_server::http::Request;
use cnp_tag::score::{resolve_spans, score_spans};
use cnp_tag::TagIndex;
use cnp_taxonomy::interner::Symbol;
use cnp_taxonomy::persist::encode_frozen_v3;
use cnp_taxonomy::store::EntityRecord;
use cnp_taxonomy::{
    AnySnapshot, Bytes, ConceptId, DeltaOverlay, EntityId, FrozenTaxonomy, FrozenTaxonomyView,
    IngestDelta, IsAMeta, OverlayView, TaxonomyRead, TaxonomyStore,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rounds per probe; the median round is reported.
const ROUNDS: usize = 5;
/// Overlay depth of the `.d4` read probes (the server's compaction
/// threshold: the deepest stack it serves through between folds).
const DEEP: usize = 4;

/// Median over rounds of the mean time of `f` per item, in nanoseconds.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let clock = Instant::now();
            for item in items {
                f(item);
            }
            clock.elapsed().as_nanos() as f64 / items.len().max(1) as f64
        })
        .collect();
    median(&rounds).unwrap_or(0.0)
}

/// Median over rounds of the time of `f`, in milliseconds.
fn whole_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let clock = Instant::now();
            black_box(f());
            clock.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&rounds).unwrap_or(0.0)
}

/// A [`TaxonomyRead`] that counts row reads on their way to `inner`: the
/// work `cnp_serve::exec` asks of the snapshot per query, as a count that
/// repeats exactly.
struct Counting<T> {
    inner: T,
    rows: AtomicU64,
}

impl<T> Counting<T> {
    fn row(&self) {
        self.rows.fetch_add(1, Ordering::Relaxed);
    }
}

impl<T: TaxonomyRead> TaxonomyRead for Counting<T> {
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
        self.row();
        self.inner.men2ent(mention)
    }
    fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        self.row();
        self.inner.concepts_of(e)
    }
    fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
        self.row();
        self.inner.entities_of(c)
    }
    fn entities_with_confidence(&self, c: ConceptId) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        self.row();
        self.inner.entities_with_confidence(c)
    }
    fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        self.row();
        self.inner.entity_edge(e, c)
    }
    fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        self.row();
        self.inner.parents_of(c)
    }
    fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        self.row();
        self.inner.children_of(c)
    }
    fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        self.row();
        self.inner.ancestors(c)
    }
    fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
        self.row();
        self.inner.ancestor_contains(c, sup)
    }
    fn depth(&self, c: ConceptId) -> usize {
        self.inner.depth(c)
    }
    fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        self.row();
        self.inner.descendants(start)
    }
}

/// The keys of the reference stream, as the server would decode them.
struct Keys {
    singles: Vec<Query>,
    batches: Vec<Vec<Query>>,
    docs: Vec<String>,
    sidecars: Vec<Vec<u8>>,
    mentions: Vec<String>,
    entity_keys: Vec<String>,
    concepts: Vec<String>,
}

fn decode_keys(requests: &[Request]) -> Result<Keys, String> {
    let mut keys = Keys {
        singles: Vec::new(),
        batches: Vec::new(),
        docs: Vec::new(),
        sidecars: Vec::new(),
        mentions: Vec::new(),
        entity_keys: Vec::new(),
        concepts: Vec::new(),
    };
    for request in requests {
        if request.target == "/admin/ingest" {
            keys.sidecars.push(request.body.clone());
            continue;
        }
        let doc = std::str::from_utf8(&request.body)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))?;
        match request.target.as_str() {
            "/v1/query" => {
                keys.singles
                    .push(wire::decode_query(&doc).map_err(|e| e.to_string())?);
            }
            "/v1/batch" => keys.batches.push(
                doc.get("queries")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .map(wire::decode_query)
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?,
            ),
            "/v1/tag" => match wire::decode_tag_query(&doc).map_err(|e| e.to_string())? {
                Query::Tag { text, .. } | Query::Classify { text, .. } => keys.docs.push(text),
                _ => {}
            },
            other => return Err(format!("probe stream names unknown endpoint {other}")),
        }
    }
    for query in &keys.singles {
        match query {
            Query::Men2Ent { mention }
            | Query::MentionSenses { mention }
            | Query::GetConceptByMention { mention, .. } => keys.mentions.push(mention.clone()),
            Query::GetConcept { entity, .. } => keys.entity_keys.push(entity.clone()),
            Query::GetEntity { concept, .. } | Query::AncestorsOf { concept } => {
                keys.concepts.push(concept.clone());
            }
            Query::IsA { sub, sup, .. } => {
                keys.mentions.push(sub.clone());
                keys.concepts.push(sup.clone());
            }
            Query::Tag { .. } | Query::Classify { .. } => {}
        }
    }
    if keys.mentions.is_empty() || keys.concepts.is_empty() || keys.docs.is_empty() {
        return Err("probe stream lacks lookups or documents".to_string());
    }
    Ok(keys)
}

fn op_name(query: &Query) -> &'static str {
    match query {
        Query::Men2Ent { .. } => "men2ent",
        Query::MentionSenses { .. } => "mentionSenses",
        Query::GetConcept { .. } => "getConcept",
        Query::GetConceptByMention { .. } => "getConceptByMention",
        Query::GetEntity { .. } => "getEntity",
        Query::AncestorsOf { .. } => "ancestorsOf",
        Query::IsA { .. } => "isA",
        Query::Tag { .. } | Query::Classify { .. } => "tag",
    }
}

/// Raw read calls on any backend, by the keys of the reference stream:
/// `(men2ent, concepts_of, ancestors)` mean nanoseconds, plus the ids
/// found (so callers can probe further with them).
fn read_probes<T: TaxonomyRead>(f: &T, keys: &Keys) -> (f64, f64, f64) {
    let entities: Vec<EntityId> = keys.mentions.iter().flat_map(|m| f.men2ent(m)).collect();
    let concepts: Vec<ConceptId> = keys
        .concepts
        .iter()
        .filter_map(|c| f.find_concept(c))
        .collect();
    (
        per_item_ns(&keys.mentions, |m| {
            black_box(f.men2ent(m));
        }),
        per_item_ns(&entities, |&e| {
            black_box(f.concepts_of(e).count());
        }),
        per_item_ns(&concepts, |&c| {
            black_box(f.ancestors(c).count());
        }),
    )
}

/// Rebuilds a build store from a snapshot through its public reads, in
/// id order, so `FrozenTaxonomy::freeze` can be timed on real content.
fn store_from(view: &FrozenTaxonomyView) -> TaxonomyStore {
    let mut store = TaxonomyStore::new();
    for c in view.concept_ids() {
        store.add_concept(view.concept_name(c));
    }
    for c in view.concept_ids() {
        for (parent, meta) in view.parents_of(c) {
            store.add_concept_is_a(c, parent, meta);
        }
    }
    for e in view.entity_ids() {
        let record = view.entity(e);
        let disambig = view.resolve(record.disambig);
        let id = store.add_entity(
            view.resolve(record.name),
            (!disambig.is_empty()).then_some(disambig),
        );
        for (c, meta) in view.concepts_of(e) {
            store.add_entity_is_a(id, c, meta);
        }
        for alias in view.aliases_of(e) {
            store.add_alias(id, view.resolve(alias));
        }
        for attr in view.attributes_of(e) {
            store.add_attribute(id, view.resolve(attr));
        }
    }
    store
}

/// Runs every probe and files its numbers under their catalogue names.
pub fn run(
    snapshot: &Path,
    service: &Service,
    requests: &[Request],
    metrics: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let keys = decode_keys(requests)?;
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };
    let pinned = service.pin();
    let serving = pinned.frozen(); // OverlayView<AnySnapshot>, depth 0
    let base: &AnySnapshot = serving.base();

    // ---- cnp_serve::exec / ::service --------------------------------------
    let mut by_op: BTreeMap<&'static str, Vec<&Query>> = BTreeMap::new();
    for query in &keys.singles {
        by_op.entry(op_name(query)).or_default().push(query);
    }
    for (op, queries) in &by_op {
        put(
            &format!("serve.execute_ns.{op}"),
            per_item_ns(queries, |q| {
                black_box(service.execute(q));
            }),
        );
    }
    let tag_queries: Vec<Query> = keys
        .docs
        .iter()
        .map(|text| Query::Tag {
            text: text.clone(),
            options: TagOptions::default(),
        })
        .collect();
    put(
        "serve.execute_ns.tag",
        per_item_ns(&tag_queries, |q| {
            black_box(service.execute(q));
        }),
    );
    put(
        "serve.execute_batch_us",
        per_item_ns(&keys.batches, |batch| {
            black_box(service.execute_batch(batch));
        }) / 1e3,
    );

    // ---- cnp_taxonomy::view (the booted base) -----------------------------
    let (men2ent, concepts_of, ancestors) = read_probes(base, &keys);
    put("taxonomy.men2ent_ns", men2ent);
    put("taxonomy.concepts_of_ns", concepts_of);
    put("taxonomy.ancestors_ns", ancestors);
    put(
        "taxonomy.find_entity_ns",
        per_item_ns(&keys.entity_keys, |k| {
            black_box(base.find_entity(k, None));
        }),
    );
    put(
        "taxonomy.find_concept_ns",
        per_item_ns(&keys.concepts, |c| {
            black_box(base.find_concept(c));
        }),
    );
    let concept_ids: Vec<ConceptId> = keys
        .concepts
        .iter()
        .filter_map(|c| base.find_concept(c))
        .collect();
    put(
        "taxonomy.entities_of_ns",
        per_item_ns(&concept_ids, |&c| {
            black_box(base.entities_of(c).count());
        }),
    );
    let counting = TaxonomyService::new(Counting {
        inner: base.clone(),
        rows: AtomicU64::new(0),
    });
    for query in &keys.singles {
        black_box(counting.execute(query));
    }
    put(
        "taxonomy.rows_decoded_per_call",
        counting.pin().frozen().rows.load(Ordering::Relaxed) as f64 / keys.singles.len() as f64,
    );

    // ---- cnp_taxonomy::overlay / ::compact --------------------------------
    let sidecars: Vec<DeltaOverlay> = keys
        .sidecars
        .iter()
        .map(|bytes| DeltaOverlay::decode(bytes).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if sidecars.len() < DEEP {
        return Err(format!("probe stream holds fewer than {DEEP} sidecars"));
    }
    put(
        "overlay.decode_us",
        per_item_ns(&keys.sidecars, |bytes| {
            black_box(DeltaOverlay::decode(bytes).is_ok());
        }) / 1e3,
    );
    let (men2ent, concepts_of, ancestors) = read_probes(serving, &keys);
    put("overlay.men2ent_ns.d0", men2ent);
    put("overlay.concepts_of_ns.d0", concepts_of);
    put("overlay.ancestors_ns.d0", ancestors);
    let mut deep: OverlayView<AnySnapshot> = serving.clone();
    let clock = Instant::now();
    for delta in &sidecars[..DEEP] {
        deep = deep.apply(delta);
    }
    put(
        "overlay.apply_ms",
        clock.elapsed().as_secs_f64() * 1e3 / DEEP as f64,
    );
    let (men2ent, concepts_of, ancestors) = read_probes(&deep, &keys);
    put("overlay.men2ent_ns.d4", men2ent);
    put("overlay.concepts_of_ns.d4", concepts_of);
    put("overlay.ancestors_ns.d4", ancestors);
    put(
        "compact.compacted_ms",
        whole_ms(|| deep.compacted(service.runtime()).is_ok()),
    );

    // The same write path through the service, as `/admin/ingest` drives
    // it: fold + generation swap per sidecar, then one compaction.
    let writer = Service::boot_from_file(snapshot).map_err(|e| e.to_string())?;
    let clock = Instant::now();
    for delta in &sidecars[..DEEP] {
        writer.ingest(delta).map_err(|e| e.to_string())?;
    }
    put(
        "serve.ingest_ms",
        clock.elapsed().as_secs_f64() * 1e3 / DEEP as f64,
    );
    let clock = Instant::now();
    writer.compact().map_err(|e| e.to_string())?;
    put("serve.compact_ms", clock.elapsed().as_secs_f64() * 1e3);

    // ---- cnp_tag / cnp_text -----------------------------------------------
    put("tag.index_build_ms", whole_ms(|| TagIndex::build(serving)));
    let index = TagIndex::build(serving);
    put("tag.index_words", index.seeded_words() as f64);
    put(
        "text.segment_us",
        per_item_ns(&keys.docs, |text| {
            black_box(index.segmenter().segment(text));
        }) / 1e3,
    );
    put(
        "tag.resolve_spans_us",
        per_item_ns(&keys.docs, |text| {
            black_box(resolve_spans(serving, &index, text));
        }) / 1e3,
    );
    let resolved: Vec<_> = keys
        .docs
        .iter()
        .map(|text| resolve_spans(serving, &index, text))
        .collect();
    put(
        "tag.spans_per_doc",
        resolved.iter().map(Vec::len).sum::<usize>() as f64 / resolved.len() as f64,
    );
    let options = TagOptions::default();
    put(
        "tag.score_spans_us",
        per_item_ns(&resolved, |spans| {
            black_box(score_spans(serving, spans, &options));
        }) / 1e3,
    );

    // ---- cnp_taxonomy::persist / ::frozen ---------------------------------
    let file = std::fs::read(snapshot).map_err(|e| e.to_string())?;
    put(
        "view.open_ms",
        whole_ms(|| FrozenTaxonomyView::open(Bytes::from(file.clone())).is_ok()),
    );
    let view = FrozenTaxonomyView::open(Bytes::from(file)).map_err(|e| e.to_string())?;
    let frozen = view.to_frozen().map_err(|e| e.to_string())?;
    put(
        "persist.encode_v3_ms",
        whole_ms(|| encode_frozen_v3(&frozen).len()),
    );
    let store = store_from(&view);
    put(
        "frozen.freeze_ms",
        whole_ms(|| FrozenTaxonomy::freeze(&store).num_entities()),
    );
    Ok(())
}
