//! The independent answer check.
//!
//! Expected answers are computed from the pipeline's mutable
//! [`TaxonomyStore`] — plain `Vec` adjacency, the structure the build
//! writes into — with this module's own maps and graph walks. Nothing
//! here touches the CSR snapshot, the varint view, the overlay or the
//! store's `MentionIndex`; the only thing shared with the server is the
//! wire decoder that turns response bytes back into typed values.

use crate::streams::{Payload, Request};
use cnp_serve::json::Json;
use cnp_serve::{wire, ConceptHit, Query, QueryError, QueryResponse, Response, SpanKind};
use cnp_taxonomy::{ConceptId, EntityId, TaxonomyStore};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Expected answers for one built taxonomy.
#[derive(Debug)]
pub struct Oracle {
    /// Bare names and aliases → every sense.
    by_mention: HashMap<String, Vec<EntityId>>,
    /// Display key (`name` or `name（disambig）`) → the one entity.
    by_key: HashMap<String, EntityId>,
    entity_keys: Vec<String>,
    /// Direct concept names per entity.
    direct: Vec<BTreeSet<String>>,
    by_concept: HashMap<String, ConceptId>,
    concept_names: Vec<String>,
    /// Transitive ancestor names per concept (self excluded).
    ancestors: Vec<BTreeSet<String>>,
    /// Distinct entities reachable through a concept and its descendants.
    entity_totals: Vec<usize>,
    /// Upper bound on what ingest can add to any `getEntity` total
    /// (0 for read-only workloads, which makes totals exact).
    ingest_slack: usize,
}

fn walk(start: usize, next: impl Fn(usize) -> Vec<usize>) -> Vec<usize> {
    let mut seen = HashSet::from([start]);
    let mut queue = VecDeque::from([start]);
    let mut out = Vec::new();
    while let Some(at) = queue.pop_front() {
        for n in next(at) {
            if seen.insert(n) {
                out.push(n);
                queue.push_back(n);
            }
        }
    }
    out
}

impl Oracle {
    /// Indexes a finished build store.
    pub fn new(store: &TaxonomyStore) -> Oracle {
        let mut by_mention: HashMap<String, Vec<EntityId>> = HashMap::new();
        let mut by_key = HashMap::new();
        let mut entity_keys = Vec::with_capacity(store.num_entities());
        let mut direct = Vec::with_capacity(store.num_entities());
        for id in store.entity_ids() {
            let record = store.entity(id);
            let mut surface = vec![store.resolve(record.name).to_string()];
            surface.extend(
                store
                    .aliases_of(id)
                    .iter()
                    .map(|&alias| store.resolve(alias).to_string()),
            );
            for name in surface {
                let senses = by_mention.entry(name).or_default();
                if !senses.contains(&id) {
                    senses.push(id);
                }
            }
            let key = store.entity_key(id);
            by_key.insert(key.clone(), id);
            entity_keys.push(key);
            direct.push(
                store
                    .concepts_of(id)
                    .iter()
                    .map(|&(c, _)| store.concept_name(c).to_string())
                    .collect(),
            );
        }

        let concept_names: Vec<String> = store
            .concept_ids()
            .map(|c| store.concept_name(c).to_string())
            .collect();
        let by_concept = store
            .concept_ids()
            .map(|c| (store.concept_name(c).to_string(), c))
            .collect();
        let ancestors = store
            .concept_ids()
            .map(|c| {
                walk(c.index(), |at| {
                    store
                        .parents_of(ConceptId(at as u32))
                        .iter()
                        .map(|&(p, _)| p.index())
                        .collect()
                })
                .into_iter()
                .map(|a| concept_names[a].clone())
                .collect()
            })
            .collect();
        let entity_totals = store
            .concept_ids()
            .map(|c| {
                let mut reachable = walk(c.index(), |at| {
                    store
                        .children_of(ConceptId(at as u32))
                        .iter()
                        .map(|d| d.index())
                        .collect()
                });
                reachable.push(c.index());
                reachable
                    .into_iter()
                    .flat_map(|d| store.entities_of(ConceptId(d as u32)).iter().copied())
                    .collect::<HashSet<EntityId>>()
                    .len()
            })
            .collect();

        Oracle {
            by_mention,
            by_key,
            entity_keys,
            direct,
            by_concept,
            concept_names,
            ancestors,
            entity_totals,
            ingest_slack: 0,
        }
    }

    /// Allows `getEntity` totals to exceed the base count by up to
    /// `entities` — the run will ingest that many under existing concepts.
    pub fn with_ingest_slack(mut self, entities: usize) -> Oracle {
        self.ingest_slack = entities;
        self
    }

    /// Every distinct mention (names and aliases).
    pub fn mentions(&self) -> Vec<String> {
        self.by_mention.keys().cloned().collect()
    }

    /// Every entity display key.
    pub fn entity_keys(&self) -> Vec<String> {
        self.entity_keys.clone()
    }

    /// Every concept name.
    pub fn concepts(&self) -> Vec<String> {
        self.concept_names.clone()
    }

    fn senses(&self, mention: &str) -> Vec<EntityId> {
        if mention.contains('（') {
            if let Some(&id) = self.by_key.get(mention) {
                return vec![id];
            }
        }
        self.by_mention.get(mention).cloned().unwrap_or_default()
    }

    fn sense_keys(&self, mention: &str) -> BTreeSet<String> {
        self.senses(mention)
            .into_iter()
            .map(|id| self.entity_keys[id.index()].clone())
            .collect()
    }

    /// Direct concepts of `entities`, and those plus all their ancestors.
    fn concepts_over(&self, entities: &[EntityId]) -> (BTreeSet<String>, BTreeSet<String>) {
        let direct: BTreeSet<String> = entities
            .iter()
            .flat_map(|e| self.direct[e.index()].iter().cloned())
            .collect();
        let mut all = direct.clone();
        for name in &direct {
            all.extend(
                self.ancestors[self.by_concept[name].index()]
                    .iter()
                    .cloned(),
            );
        }
        (direct, all)
    }

    /// The typed error a correct server answers `query` with, if any.
    fn expected_error(&self, query: &Query) -> Option<QueryError> {
        let unknown_mention = |m: &str| {
            self.senses(m)
                .is_empty()
                .then(|| QueryError::UnknownMention(m.to_string()))
        };
        let unknown_concept = |c: &str| {
            (!self.by_concept.contains_key(c)).then(|| QueryError::UnknownConcept(c.to_string()))
        };
        match query {
            Query::Men2Ent { mention }
            | Query::MentionSenses { mention }
            | Query::GetConceptByMention { mention, .. } => unknown_mention(mention),
            Query::GetConcept { entity, .. } => (!self.by_key.contains_key(entity))
                .then(|| QueryError::UnknownEntity(entity.clone())),
            Query::GetEntity { concept, .. } | Query::AncestorsOf { concept } => {
                unknown_concept(concept)
            }
            Query::IsA { sub, sup, .. } => unknown_concept(sup).or_else(|| {
                if self.by_concept.contains_key(sub) {
                    None
                } else {
                    unknown_mention(sub)
                }
            }),
            Query::Tag { .. } | Query::Classify { .. } => None,
        }
    }

    /// The HTTP status a correct server answers `query` with.
    pub fn expected_status(&self, query: &Query) -> u16 {
        match self.expected_error(query) {
            None => 200,
            Some(error) => wire::status_for_error(&error),
        }
    }

    /// Checks one decoded answer against the store. `Err` says what
    /// differed.
    pub fn check_response(&self, query: &Query, response: &QueryResponse) -> Result<(), String> {
        if response.generation == 0 {
            return Err("generation 0".to_string());
        }
        let expected_error = self.expected_error(query);
        let result = match (&response.result, expected_error) {
            (Err(got), Some(want)) if *got == want => return Ok(()),
            (Err(got), want) => return Err(format!("error {got:?}, expected {want:?}")),
            (Ok(_), Some(want)) => return Err(format!("answered, expected error {want:?}")),
            (Ok(result), None) => result,
        };
        let flagged_direct = |hits: &[ConceptHit]| -> BTreeSet<String> {
            hits.iter()
                .filter(|h| h.direct)
                .map(|h| h.name.clone())
                .collect()
        };
        let all_names = |hits: &[ConceptHit]| -> BTreeSet<String> {
            hits.iter().map(|h| h.name.clone()).collect()
        };
        let same = |what: &str, got: &BTreeSet<String>, want: &BTreeSet<String>| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}: got {got:?}, expected {want:?}"))
            }
        };
        match (query, result) {
            (Query::Men2Ent { mention }, Response::Senses(senses)) => {
                let got = senses.iter().map(|s| s.key.clone()).collect();
                same("sense keys", &got, &self.sense_keys(mention))
            }
            (Query::MentionSenses { mention }, Response::SenseConcepts(senses)) => {
                let got = senses.iter().map(|s| s.sense.key.clone()).collect();
                same("sense keys", &got, &self.sense_keys(mention))?;
                for s in senses {
                    let id = self.by_key[&s.sense.key];
                    same(
                        "direct concepts of a sense",
                        &all_names(&s.concepts),
                        &self.direct[id.index()],
                    )?;
                }
                Ok(())
            }
            (Query::GetConcept { entity, .. }, Response::Concepts(page)) => {
                let (direct, all) = self.concepts_over(&[self.by_key[entity]]);
                same("direct concepts", &flagged_direct(&page.items), &direct)?;
                same("concepts", &all_names(&page.items), &all)?;
                (page.total == all.len())
                    .then_some(())
                    .ok_or_else(|| format!("total {}, expected {}", page.total, all.len()))
            }
            (Query::GetConceptByMention { mention, .. }, Response::Concepts(page)) => {
                let (direct, all) = self.concepts_over(&self.senses(mention));
                same("direct concepts", &flagged_direct(&page.items), &direct)?;
                same("concepts", &all_names(&page.items), &all)
            }
            (Query::GetEntity { concept, options }, Response::Entities(page)) => {
                let base = self.entity_totals[self.by_concept[concept].index()];
                if page.total < base || page.total > base + self.ingest_slack {
                    return Err(format!("total {}, expected {base}", page.total));
                }
                let want_len = page.total.min(options.page.limit);
                if page.items.len() != want_len || page.next.is_some() != (page.total > want_len) {
                    return Err(format!(
                        "page of {} (next: {}), expected {want_len} of {}",
                        page.items.len(),
                        page.next.is_some(),
                        page.total
                    ));
                }
                let distinct: HashSet<&str> = page.items.iter().map(|h| h.key.as_str()).collect();
                (distinct.len() == page.items.len())
                    .then_some(())
                    .ok_or_else(|| "duplicate entity in a page".to_string())
            }
            (Query::AncestorsOf { concept }, Response::Ancestors(hits)) => same(
                "ancestors",
                &all_names(hits),
                &self.ancestors[self.by_concept[concept].index()],
            ),
            (Query::IsA { sub, sup, .. }, Response::IsA { holds }) => {
                let want = match self.by_concept.get(sub) {
                    Some(c) => self.ancestors[c.index()].contains(sup),
                    None => self.concepts_over(&self.senses(sub)).1.contains(sup),
                };
                (*holds == want)
                    .then_some(())
                    .ok_or_else(|| format!("isA {holds}, expected {want}"))
            }
            (Query::Tag { text, .. }, Response::Tags(output)) => self.check_tags(text, output),
            (query, result) => Err(format!("{result:?} does not answer {query:?}")),
        }
    }

    /// A tag result has no store-side expected value, but everything in
    /// it can be verified against the store: each span must be the text
    /// it claims at its offsets and resolve to exactly the oracle's senses
    /// (or concept) for that text, and each hit must name a real concept,
    /// cite real spans, and come in score order.
    fn check_tags(&self, text: &str, output: &cnp_serve::TagOutput) -> Result<(), String> {
        let chars: Vec<char> = text.chars().collect();
        for span in &output.spans {
            let covered: Option<String> = chars
                .get(span.start as usize..span.end as usize)
                .map(|c| c.iter().collect());
            if covered.as_deref() != Some(span.text.as_str()) {
                return Err(format!(
                    "span {:?} is not the text at its offsets",
                    span.text
                ));
            }
            match &span.kind {
                SpanKind::Entities(ids) => {
                    let got: BTreeSet<EntityId> = ids.iter().copied().collect();
                    let want: BTreeSet<EntityId> = self.senses(&span.text).into_iter().collect();
                    if got != want {
                        return Err(format!(
                            "span {:?} senses {got:?}, expected {want:?}",
                            span.text
                        ));
                    }
                }
                SpanKind::Concept(id) => {
                    if self.by_concept.get(&span.text) != Some(id) {
                        return Err(format!("span {:?} is not concept {id:?}", span.text));
                    }
                }
                SpanKind::NamedEntity => {
                    if !self.senses(&span.text).is_empty() {
                        return Err(format!("span {:?} is a known mention", span.text));
                    }
                }
            }
        }
        for pair in output.concepts.windows(2) {
            if pair[0].score < pair[1].score {
                return Err("hits out of score order".to_string());
            }
        }
        for hit in &output.concepts {
            if self.concept_names.get(hit.id.index()) != Some(&hit.name) {
                return Err(format!("hit {:?} is not concept {:?}", hit.name, hit.id));
            }
            if hit
                .evidence
                .iter()
                .any(|&i| i as usize >= output.spans.len())
            {
                return Err(format!("hit {:?} cites a span that is not there", hit.name));
            }
        }
        Ok(())
    }

    /// Checks a complete response body against what `request` asked.
    pub fn check_body(&self, request: &Request, body: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        match &request.payload {
            Payload::Lookup(query) => {
                let response = wire::decode_response(&doc).map_err(|e| e.to_string())?;
                self.check_response(query, &response)
            }
            Payload::Tag(text) => {
                let response = wire::decode_response(&doc).map_err(|e| e.to_string())?;
                let query = Query::Tag {
                    text: text.clone(),
                    options: cnp_serve::TagOptions::default(),
                };
                self.check_response(&query, &response)
            }
            Payload::Batch(queries) => {
                let generation = doc.get("generation").and_then(Json::as_u64);
                let responses = doc
                    .get("responses")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "batch without responses".to_string())?;
                if responses.len() != queries.len() {
                    return Err(format!(
                        "{} responses to {} queries",
                        responses.len(),
                        queries.len()
                    ));
                }
                for (query, item) in queries.iter().zip(responses) {
                    let response = wire::decode_response(item).map_err(|e| e.to_string())?;
                    if Some(response.generation) != generation {
                        return Err("batch answered from more than one generation".to_string());
                    }
                    self.check_response(query, &response)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cnp_serve::{ListOptions, PageRequest, Paged, Sense};
    use cnp_taxonomy::{IsAMeta, Source};

    /// 人物 ⊃ 演员 ⊃ 男演员; two senses of 刘德华, one with an alias.
    pub(crate) fn small_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let person = s.add_concept("人物");
        let actor = s.add_concept("演员");
        let male_actor = s.add_concept("男演员");
        let meta = IsAMeta::new(Source::Tag, 0.9);
        s.add_concept_is_a(actor, person, meta);
        s.add_concept_is_a(male_actor, actor, meta);
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let prof = s.add_entity("刘德华", Some("大学教授"));
        let zhang = s.add_entity("张学友", None);
        s.add_alias(liu, "Andy Lau");
        s.add_entity_is_a(liu, male_actor, meta);
        s.add_entity_is_a(prof, person, meta);
        s.add_entity_is_a(zhang, actor, meta);
        s
    }

    fn ok(generation: u64, result: Response) -> QueryResponse {
        QueryResponse {
            generation,
            result: Ok(result),
        }
    }

    fn sense(key: &str) -> Sense {
        Sense {
            id: EntityId(0),
            name: String::new(),
            disambig: None,
            key: key.to_string(),
        }
    }

    #[test]
    fn men2ent_needs_exactly_the_stores_senses() {
        let oracle = Oracle::new(&small_store());
        let query = Query::men2ent("刘德华");
        let both = vec![
            sense("刘德华（大学教授）"),
            sense("刘德华（中国香港男演员）"),
        ];
        assert_eq!(
            oracle.check_response(&query, &ok(1, Response::Senses(both))),
            Ok(())
        );
        let one = vec![sense("刘德华（大学教授）")];
        assert!(oracle
            .check_response(&query, &ok(1, Response::Senses(one)))
            .is_err());
        // Alias and full key resolve to the one sense.
        for mention in ["Andy Lau", "刘德华（中国香港男演员）"] {
            let only = vec![sense("刘德华（中国香港男演员）")];
            let query = Query::men2ent(mention);
            assert_eq!(
                oracle.check_response(&query, &ok(3, Response::Senses(only))),
                Ok(())
            );
        }
    }

    #[test]
    fn unknown_names_must_be_typed_errors() {
        let oracle = Oracle::new(&small_store());
        let query = Query::men2ent("无此人");
        assert_eq!(oracle.expected_status(&query), 404);
        let typed = QueryResponse {
            generation: 1,
            result: Err(QueryError::UnknownMention("无此人".to_string())),
        };
        assert_eq!(oracle.check_response(&query, &typed), Ok(()));
        assert!(oracle
            .check_response(&query, &ok(1, Response::Senses(vec![])))
            .is_err());
        let wrong_kind = QueryResponse {
            generation: 1,
            result: Err(QueryError::UnknownConcept("无此人".to_string())),
        };
        assert!(oracle.check_response(&query, &wrong_kind).is_err());
        // isA names the unknown `sup` before the unknown `sub`.
        let is_a = Query::IsA {
            sub: "无此人".to_string(),
            sup: "无此类".to_string(),
            transitive: true,
        };
        assert_eq!(
            oracle.expected_error(&is_a),
            Some(QueryError::UnknownConcept("无此类".to_string()))
        );
    }

    #[test]
    fn is_a_and_get_entity_follow_the_closure() {
        let oracle = Oracle::new(&small_store());
        let is_a = |sub: &str, sup: &str| Query::IsA {
            sub: sub.to_string(),
            sup: sup.to_string(),
            transitive: true,
        };
        let holds = |h| ok(1, Response::IsA { holds: h });
        assert_eq!(
            oracle.check_response(&is_a("Andy Lau", "人物"), &holds(true)),
            Ok(())
        );
        assert_eq!(
            oracle.check_response(&is_a("张学友", "男演员"), &holds(false)),
            Ok(())
        );
        assert_eq!(
            oracle.check_response(&is_a("男演员", "人物"), &holds(true)),
            Ok(())
        );
        assert!(oracle
            .check_response(&is_a("男演员", "人物"), &holds(false))
            .is_err());

        // 人物 reaches all three entities through its descendants.
        let query = Query::GetEntity {
            concept: "人物".to_string(),
            options: ListOptions::transitive().with_page(PageRequest::first(2)),
        };
        let hit = |key: &str| cnp_serve::EntityHit {
            id: EntityId(0),
            key: key.to_string(),
            via: ConceptId(0),
            confidence: 0.9,
        };
        let page = |total: usize, next: bool| {
            ok(
                1,
                Response::Entities(Paged {
                    items: vec![hit("张学友"), hit("刘德华（大学教授）")],
                    total,
                    next: next.then(|| cnp_serve::Cursor::decode("v1.g1.o2.q0").unwrap()),
                }),
            )
        };
        assert_eq!(oracle.check_response(&query, &page(3, true)), Ok(()));
        assert!(oracle.check_response(&query, &page(4, true)).is_err());
        assert!(oracle.check_response(&query, &page(3, false)).is_err());
        let slack = Oracle::new(&small_store()).with_ingest_slack(8);
        assert_eq!(slack.check_response(&query, &page(4, true)), Ok(()));
    }
}
