//! Wire-facing serde for the serving protocol: [`Query`] and
//! [`QueryResponse`] as JSON documents, plus the error → HTTP-status
//! mapping the network front-end uses.
//!
//! The encoding is deliberately flat and self-describing:
//!
//! ```json
//! {"op":"getEntity","concept":"人物",
//!  "options":{"transitive":true,"minConfidence":0.5,"limit":10,
//!             "cursor":"v1.g1.o10.q..."}}
//! ```
//!
//! comes back as
//!
//! ```json
//! {"generation":1,
//!  "result":{"type":"entities","items":[…],"total":123,"next":"v1.…"}}
//! ```
//!
//! or, on a typed refusal,
//!
//! ```json
//! {"generation":1,
//!  "error":{"kind":"unknownConcept","name":"不存在"}}
//! ```
//!
//! Every enum in the protocol round-trips exactly (`encode → decode` is
//! the identity, asserted by unit and integration tests), so the load
//! harness and any non-Rust client can rely on the documented shape.
//! Pagination cursors travel as the opaque tokens of
//! [`Cursor::encode`] / [`Cursor::decode`].
//!
//! Replies are written, not built: [`write_response`] appends a reply
//! straight to a caller-owned `String` through the number and string
//! primitives [`Json::write`] also uses, so the server allocates no tree.
//! [`encode_response`] parses that output back for callers that want a
//! tree. Requests are still parsed into a [`Json`] tree and decoded.

use crate::json::{write_arr, write_num, write_str, Json};
use crate::query::{Cursor, ListOptions, PageRequest, Query};
use crate::response::{
    ConceptHit, CursorError, EntityHit, Paged, QueryError, QueryResponse, Response, Sense,
    SenseConcepts,
};
use cnp_tag::{SpanKind, TagHit, TagOptions, TagOutput, TagSpan};
use cnp_taxonomy::{ConceptId, EntityId};
use std::fmt;

/// Why a wire document could not be decoded into a protocol value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of the malformation.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire message: {}", self.message)
    }
}

impl std::error::Error for WireError {}

// ----- error → status mapping ----------------------------------------------

/// The HTTP status code a query result maps to: `200` for `Ok`, `404` for
/// the unknown-name family, `400` for a cursor that does not even parse,
/// and `409` for a structurally valid cursor rejected against the serving
/// state (wrong generation / query / range) — the client must restart its
/// walk, nothing was wrong with the request's syntax.
pub fn status_for(result: &Result<Response, QueryError>) -> u16 {
    match result {
        Ok(_) => 200,
        Err(e) => status_for_error(e),
    }
}

/// [`status_for`], for the error alone.
pub fn status_for_error(error: &QueryError) -> u16 {
    match error {
        QueryError::UnknownMention(_)
        | QueryError::UnknownEntity(_)
        | QueryError::UnknownConcept(_) => 404,
        QueryError::InvalidCursor(CursorError::Malformed) => 400,
        QueryError::InvalidCursor(_) => 409,
    }
}

/// The stable wire identifier of a [`QueryError`] variant.
pub fn error_kind(error: &QueryError) -> &'static str {
    match error {
        QueryError::UnknownMention(_) => "unknownMention",
        QueryError::UnknownEntity(_) => "unknownEntity",
        QueryError::UnknownConcept(_) => "unknownConcept",
        QueryError::InvalidCursor(_) => "invalidCursor",
    }
}

// ----- Query ---------------------------------------------------------------

/// Encodes a [`Query`] as its wire document.
pub fn encode_query(query: &Query) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
    match query {
        Query::Men2Ent { mention } => {
            push("op", Json::str("men2ent"));
            push("mention", Json::str(mention.clone()));
        }
        Query::MentionSenses { mention } => {
            push("op", Json::str("mentionSenses"));
            push("mention", Json::str(mention.clone()));
        }
        Query::GetConcept { entity, options } => {
            push("op", Json::str("getConcept"));
            push("entity", Json::str(entity.clone()));
            push("options", encode_options(options));
        }
        Query::GetConceptByMention { mention, options } => {
            push("op", Json::str("getConceptByMention"));
            push("mention", Json::str(mention.clone()));
            push("options", encode_options(options));
        }
        Query::GetEntity { concept, options } => {
            push("op", Json::str("getEntity"));
            push("concept", Json::str(concept.clone()));
            push("options", encode_options(options));
        }
        Query::AncestorsOf { concept } => {
            push("op", Json::str("ancestorsOf"));
            push("concept", Json::str(concept.clone()));
        }
        Query::IsA {
            sub,
            sup,
            transitive,
        } => {
            push("op", Json::str("isA"));
            push("sub", Json::str(sub.clone()));
            push("sup", Json::str(sup.clone()));
            push("transitive", Json::Bool(*transitive));
        }
        Query::Tag { text, options } => {
            push("op", Json::str("tag"));
            push("text", Json::str(text.clone()));
            push("options", encode_tag_options(options));
        }
        Query::Classify { text, options } => {
            push("op", Json::str("classify"));
            push("text", Json::str(text.clone()));
            push("options", encode_tag_options(options));
        }
    }
    Json::Obj(fields)
}

/// Decodes a wire document into a [`Query`]. Unknown `op`s and missing or
/// mistyped fields are typed [`WireError`]s (the server answers 400).
pub fn decode_query(doc: &Json) -> Result<Query, WireError> {
    let op = req_str(doc, "op")?;
    match op {
        "men2ent" => Ok(Query::Men2Ent {
            mention: req_str(doc, "mention")?.to_string(),
        }),
        "mentionSenses" => Ok(Query::MentionSenses {
            mention: req_str(doc, "mention")?.to_string(),
        }),
        "getConcept" => Ok(Query::GetConcept {
            entity: req_str(doc, "entity")?.to_string(),
            options: decode_options(doc.get("options"))?,
        }),
        "getConceptByMention" => Ok(Query::GetConceptByMention {
            mention: req_str(doc, "mention")?.to_string(),
            options: decode_options(doc.get("options"))?,
        }),
        "getEntity" => Ok(Query::GetEntity {
            concept: req_str(doc, "concept")?.to_string(),
            options: decode_options(doc.get("options"))?,
        }),
        "ancestorsOf" => Ok(Query::AncestorsOf {
            concept: req_str(doc, "concept")?.to_string(),
        }),
        "isA" => Ok(Query::IsA {
            sub: req_str(doc, "sub")?.to_string(),
            sup: req_str(doc, "sup")?.to_string(),
            transitive: doc
                .get("transitive")
                .map(|v| v.as_bool().ok_or_else(|| type_err("transitive", "bool")))
                .transpose()?
                .unwrap_or(false),
        }),
        "tag" => Ok(Query::Tag {
            text: req_str(doc, "text")?.to_string(),
            options: decode_tag_options(doc.get("options"))?,
        }),
        "classify" => Ok(Query::Classify {
            text: req_str(doc, "text")?.to_string(),
            options: decode_tag_options(doc.get("options"))?,
        }),
        other => Err(WireError::new(format!("unknown op {other:?}"))),
    }
}

fn encode_options(options: &ListOptions) -> Json {
    let mut fields = vec![
        ("transitive".to_string(), Json::Bool(options.transitive)),
        (
            "minConfidence".to_string(),
            Json::num(f64::from(options.min_confidence)),
        ),
    ];
    if options.page.limit != usize::MAX {
        fields.push(("limit".to_string(), Json::num(options.page.limit as f64)));
    }
    if let Some(cursor) = &options.page.cursor {
        fields.push(("cursor".to_string(), Json::str(cursor.encode())));
    }
    Json::Obj(fields)
}

fn decode_options(doc: Option<&Json>) -> Result<ListOptions, WireError> {
    let Some(doc) = doc else {
        return Ok(ListOptions::default());
    };
    if doc.is_null() {
        return Ok(ListOptions::default());
    }
    if !matches!(doc, Json::Obj(_)) {
        return Err(type_err("options", "object"));
    }
    let transitive = match doc.get("transitive") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| type_err("transitive", "bool"))?,
    };
    let min_confidence = match doc.get("minConfidence") {
        None => 0.0,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| type_err("minConfidence", "number"))? as f32,
    };
    let limit = match doc.get("limit") {
        None => usize::MAX,
        Some(Json::Null) => usize::MAX,
        Some(v) => usize::try_from(v.as_u64().ok_or_else(|| type_err("limit", "integer"))?)
            .map_err(|_| type_err("limit", "integer"))?,
    };
    let cursor = match doc.get("cursor") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let token = v.as_str().ok_or_else(|| type_err("cursor", "string"))?;
            Some(
                Cursor::decode(token)
                    .map_err(|e| WireError::new(format!("invalid cursor token: {e}")))?,
            )
        }
    };
    Ok(ListOptions {
        transitive,
        min_confidence,
        page: PageRequest { limit, cursor },
    })
}

/// Decodes the body of the dedicated `/v1/tag` endpoint: a tagging query
/// whose `op` *defaults to `"tag"`* when absent (the endpoint already
/// names the operation), with `"op":"classify"` selecting the
/// concepts-only variant. Any other op is rejected — the endpoint serves
/// the tagging workload only; general queries go to `/v1/query`.
pub fn decode_tag_query(doc: &Json) -> Result<Query, WireError> {
    let op = match doc.get("op") {
        None | Some(Json::Null) => "tag",
        Some(v) => v.as_str().ok_or_else(|| type_err("op", "string"))?,
    };
    let text = req_str(doc, "text")?.to_string();
    let options = decode_tag_options(doc.get("options"))?;
    match op {
        "tag" => Ok(Query::Tag { text, options }),
        "classify" => Ok(Query::Classify { text, options }),
        other => Err(WireError::new(format!(
            "op {other:?} is not a tagging query"
        ))),
    }
}

fn encode_tag_options(options: &TagOptions) -> Json {
    Json::Obj(vec![
        ("topK".to_string(), Json::num(options.top_k as f64)),
        (
            "minScore".to_string(),
            Json::num(f64::from(options.min_score)),
        ),
        ("beam".to_string(), Json::num(options.beam as f64)),
    ])
}

fn decode_tag_options(doc: Option<&Json>) -> Result<TagOptions, WireError> {
    let defaults = TagOptions::default();
    let Some(doc) = doc else {
        return Ok(defaults);
    };
    if doc.is_null() {
        return Ok(defaults);
    }
    if !matches!(doc, Json::Obj(_)) {
        return Err(type_err("options", "object"));
    }
    let top_k = match doc.get("topK") {
        None | Some(Json::Null) => defaults.top_k,
        Some(v) => usize::try_from(v.as_u64().ok_or_else(|| type_err("topK", "integer"))?)
            .map_err(|_| type_err("topK", "integer"))?,
    };
    let min_score = match doc.get("minScore") {
        None | Some(Json::Null) => defaults.min_score,
        Some(v) => v.as_f64().ok_or_else(|| type_err("minScore", "number"))? as f32,
    };
    let beam = match doc.get("beam") {
        None | Some(Json::Null) => defaults.beam,
        Some(v) => usize::try_from(v.as_u64().ok_or_else(|| type_err("beam", "integer"))?)
            .map_err(|_| type_err("beam", "integer"))?,
    };
    Ok(TagOptions {
        top_k,
        min_score,
        beam,
    })
}

// ----- QueryResponse -------------------------------------------------------

/// Appends `response`'s wire document to `out`: `generation` plus either
/// `result` or `error`. This is the one description of the reply shape;
/// the server writes every reply through it into the connection's buffer.
pub fn write_response(response: &QueryResponse, out: &mut String) {
    num(out, r#"{"generation":"#, response.generation as f64);
    match &response.result {
        Ok(result) => {
            out.push_str(r#","result":"#);
            write_result(result, out);
        }
        Err(error) => {
            out.push_str(r#","error":"#);
            write_error(error, out);
        }
    }
    out.push('}');
}

/// [`write_response`]'s bytes parsed back into a [`Json`] tree, for
/// callers that want a tree (`benchmark/`'s per-layer replay times this
/// name). Its `write()` gives the writer's bytes again; the server never
/// calls it.
pub fn encode_response(response: &QueryResponse) -> Json {
    let mut out = String::new();
    write_response(response, &mut out);
    Json::parse(&out).unwrap_or(Json::Null)
}

// Each `key` below is a literal `"name":` fragment together with the `{`
// or `,` before it, so a field costs one `push_str` besides its value.

fn num(out: &mut String, key: &str, n: impl Into<f64>) {
    out.push_str(key);
    write_num(n.into(), out);
}

fn text(out: &mut String, key: &str, s: &str) {
    out.push_str(key);
    write_str(s, out);
}

fn list<T>(out: &mut String, key: &str, items: &[T], item: impl Fn(&T, &mut String)) {
    out.push_str(key);
    write_arr(items, out, item);
}

fn write_error(error: &QueryError, out: &mut String) {
    text(out, r#"{"kind":"#, error_kind(error));
    match error {
        QueryError::UnknownMention(name)
        | QueryError::UnknownEntity(name)
        | QueryError::UnknownConcept(name) => text(out, r#","name":"#, name),
        QueryError::InvalidCursor(cursor_error) => {
            out.push_str(r#","cursor":{"kind":"#);
            match cursor_error {
                CursorError::Malformed => out.push_str(r#""malformed""#),
                CursorError::WrongGeneration { cursor, serving } => {
                    num(out, r#""wrongGeneration","cursor":"#, *cursor as f64);
                    num(out, r#","serving":"#, *serving as f64);
                }
                CursorError::WrongQuery => out.push_str(r#""wrongQuery""#),
                CursorError::OutOfRange { offset, total } => {
                    num(out, r#""outOfRange","offset":"#, *offset as f64);
                    num(out, r#","total":"#, *total as f64);
                }
            }
            out.push('}');
        }
    }
    out.push('}');
}

fn write_result(result: &Response, out: &mut String) {
    match result {
        Response::Senses(senses) => items(out, "senses", senses, write_sense),
        Response::SenseConcepts(senses) => items(out, "senseConcepts", senses, |item, out| {
            out.push_str(r#"{"sense":"#);
            write_sense(&item.sense, out);
            list(out, r#","concepts":"#, &item.concepts, write_concept_hit);
            out.push('}');
        }),
        Response::Concepts(page) => write_page("concepts", page, out, write_concept_hit),
        Response::Entities(page) => write_page("entities", page, out, write_entity_hit),
        Response::Ancestors(hits) => items(out, "ancestors", hits, write_concept_hit),
        Response::IsA { holds } => {
            out.push_str(r#"{"type":"isA","holds":"#);
            out.push_str(if *holds { "true" } else { "false" });
        }
        Response::Tags(output) => {
            out.push_str(r#"{"type":"tags""#);
            list(out, r#","spans":"#, &output.spans, write_tag_span);
            list(out, r#","concepts":"#, &output.concepts, write_tag_hit);
        }
        Response::Classified(hits) => items(out, "classified", hits, write_tag_hit),
    }
    out.push('}');
}

/// Writes `{"type":kind,"items":[…]` and leaves the object open.
fn items<T>(out: &mut String, kind: &str, items: &[T], item: impl Fn(&T, &mut String)) {
    text(out, r#"{"type":"#, kind);
    list(out, r#","items":"#, items, item);
}

/// Writes a page object, all but its closing brace.
fn write_page<T>(kind: &str, page: &Paged<T>, out: &mut String, item: fn(&T, &mut String)) {
    items(out, kind, &page.items, item);
    num(out, r#","total":"#, page.total as f64);
    out.push_str(r#","next":"#);
    match &page.next {
        Some(cursor) => {
            out.push('"');
            cursor.write_token(out);
            out.push('"');
        }
        None => out.push_str("null"),
    }
}

fn write_sense(sense: &Sense, out: &mut String) {
    num(out, r#"{"id":"#, sense.id.0);
    text(out, r#","name":"#, &sense.name);
    match &sense.disambig {
        Some(d) => text(out, r#","disambig":"#, d),
        None => out.push_str(r#","disambig":null"#),
    }
    text(out, r#","key":"#, &sense.key);
    out.push('}');
}

fn write_concept_hit(hit: &ConceptHit, out: &mut String) {
    num(out, r#"{"id":"#, hit.id.0);
    text(out, r#","name":"#, &hit.name);
    num(out, r#","depth":"#, hit.depth);
    out.push_str(r#","direct":"#);
    out.push_str(if hit.direct { "true" } else { "false" });
    match hit.confidence {
        Some(c) => num(out, r#","confidence":"#, c),
        None => out.push_str(r#","confidence":null"#),
    }
    out.push('}');
}

fn write_entity_hit(hit: &EntityHit, out: &mut String) {
    num(out, r#"{"id":"#, hit.id.0);
    text(out, r#","key":"#, &hit.key);
    num(out, r#","via":"#, hit.via.0);
    num(out, r#","confidence":"#, hit.confidence);
    out.push('}');
}

fn write_tag_span(span: &TagSpan, out: &mut String) {
    num(out, r#"{"start":"#, span.start);
    num(out, r#","end":"#, span.end);
    text(out, r#","text":"#, &span.text);
    match &span.kind {
        SpanKind::Entities(ids) => {
            list(out, r#","kind":"entities","entities":"#, ids, |id, out| {
                write_num(f64::from(id.0), out);
            });
        }
        SpanKind::Concept(id) => num(out, r#","kind":"concept","concept":"#, id.0),
        SpanKind::NamedEntity => out.push_str(r#","kind":"namedEntity""#),
    }
    out.push('}');
}

fn write_tag_hit(hit: &TagHit, out: &mut String) {
    num(out, r#"{"id":"#, hit.id.0);
    text(out, r#","name":"#, &hit.name);
    num(out, r#","depth":"#, hit.depth);
    num(out, r#","score":"#, hit.score);
    list(out, r#","evidence":"#, &hit.evidence, |&i, out| {
        write_num(f64::from(i), out);
    });
    out.push('}');
}

/// Decodes a wire envelope back into a [`QueryResponse`].
pub fn decode_response(doc: &Json) -> Result<QueryResponse, WireError> {
    let generation = doc
        .get("generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| type_err("generation", "integer"))?;
    let result = match (doc.get("result"), doc.get("error")) {
        (Some(r), None) => Ok(decode_result(r)?),
        (None, Some(e)) => Err(decode_error(e)?),
        _ => {
            return Err(WireError::new(
                "envelope must carry exactly one of result/error",
            ))
        }
    };
    Ok(QueryResponse { generation, result })
}

fn decode_error(doc: &Json) -> Result<QueryError, WireError> {
    let kind = req_str(doc, "kind")?;
    match kind {
        "unknownMention" => Ok(QueryError::UnknownMention(
            req_str(doc, "name")?.to_string(),
        )),
        "unknownEntity" => Ok(QueryError::UnknownEntity(req_str(doc, "name")?.to_string())),
        "unknownConcept" => Ok(QueryError::UnknownConcept(
            req_str(doc, "name")?.to_string(),
        )),
        "invalidCursor" => {
            let c = doc
                .get("cursor")
                .ok_or_else(|| WireError::new("invalidCursor without cursor detail"))?;
            let cursor_error = match req_str(c, "kind")? {
                "malformed" => CursorError::Malformed,
                "wrongGeneration" => CursorError::WrongGeneration {
                    cursor: req_u64(c, "cursor")?,
                    serving: req_u64(c, "serving")?,
                },
                "wrongQuery" => CursorError::WrongQuery,
                "outOfRange" => CursorError::OutOfRange {
                    offset: req_usize(c, "offset")?,
                    total: req_usize(c, "total")?,
                },
                other => return Err(WireError::new(format!("unknown cursor error {other:?}"))),
            };
            Ok(QueryError::InvalidCursor(cursor_error))
        }
        other => Err(WireError::new(format!("unknown error kind {other:?}"))),
    }
}

fn decode_result(doc: &Json) -> Result<Response, WireError> {
    match req_str(doc, "type")? {
        "senses" => Ok(Response::Senses(
            req_arr(doc, "items")?
                .iter()
                .map(decode_sense)
                .collect::<Result<_, _>>()?,
        )),
        "senseConcepts" => Ok(Response::SenseConcepts(
            req_arr(doc, "items")?
                .iter()
                .map(|item| {
                    Ok(SenseConcepts {
                        sense: decode_sense(
                            item.get("sense")
                                .ok_or_else(|| type_err("sense", "object"))?,
                        )?,
                        concepts: req_arr(item, "concepts")?
                            .iter()
                            .map(decode_concept_hit)
                            .collect::<Result<_, _>>()?,
                    })
                })
                .collect::<Result<_, _>>()?,
        )),
        "concepts" => Ok(Response::Concepts(decode_page(doc, decode_concept_hit)?)),
        "entities" => Ok(Response::Entities(decode_page(doc, decode_entity_hit)?)),
        "ancestors" => Ok(Response::Ancestors(
            req_arr(doc, "items")?
                .iter()
                .map(decode_concept_hit)
                .collect::<Result<_, _>>()?,
        )),
        "isA" => Ok(Response::IsA {
            holds: doc
                .get("holds")
                .and_then(Json::as_bool)
                .ok_or_else(|| type_err("holds", "bool"))?,
        }),
        "tags" => Ok(Response::Tags(TagOutput {
            spans: req_arr(doc, "spans")?
                .iter()
                .map(decode_tag_span)
                .collect::<Result<_, _>>()?,
            concepts: req_arr(doc, "concepts")?
                .iter()
                .map(decode_tag_hit)
                .collect::<Result<_, _>>()?,
        })),
        "classified" => Ok(Response::Classified(
            req_arr(doc, "items")?
                .iter()
                .map(decode_tag_hit)
                .collect::<Result<_, _>>()?,
        )),
        other => Err(WireError::new(format!("unknown result type {other:?}"))),
    }
}

fn decode_page<T>(
    doc: &Json,
    item: impl Fn(&Json) -> Result<T, WireError>,
) -> Result<Paged<T>, WireError> {
    let items = req_arr(doc, "items")?
        .iter()
        .map(item)
        .collect::<Result<_, _>>()?;
    let total = req_usize(doc, "total")?;
    let next = match doc.get("next") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let token = v.as_str().ok_or_else(|| type_err("next", "string"))?;
            Some(
                Cursor::decode(token)
                    .map_err(|e| WireError::new(format!("invalid next cursor: {e}")))?,
            )
        }
    };
    Ok(Paged { items, total, next })
}

fn decode_sense(doc: &Json) -> Result<Sense, WireError> {
    Ok(Sense {
        id: EntityId(req_u32(doc, "id")?),
        name: req_str(doc, "name")?.to_string(),
        disambig: match doc.get("disambig") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| type_err("disambig", "string"))?
                    .to_string(),
            ),
        },
        key: req_str(doc, "key")?.to_string(),
    })
}

fn decode_concept_hit(doc: &Json) -> Result<ConceptHit, WireError> {
    Ok(ConceptHit {
        id: ConceptId(req_u32(doc, "id")?),
        name: req_str(doc, "name")?.to_string(),
        depth: req_u32(doc, "depth")?,
        direct: doc
            .get("direct")
            .and_then(Json::as_bool)
            .ok_or_else(|| type_err("direct", "bool"))?,
        confidence: match doc.get("confidence") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_f64().ok_or_else(|| type_err("confidence", "number"))? as f32),
        },
    })
}

fn decode_tag_span(doc: &Json) -> Result<TagSpan, WireError> {
    let kind = match req_str(doc, "kind")? {
        "entities" => SpanKind::Entities(
            req_arr(doc, "entities")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .map(EntityId)
                        .ok_or_else(|| type_err("entities", "array of u32"))
                })
                .collect::<Result<_, _>>()?,
        ),
        "concept" => SpanKind::Concept(ConceptId(req_u32(doc, "concept")?)),
        "namedEntity" => SpanKind::NamedEntity,
        other => return Err(WireError::new(format!("unknown span kind {other:?}"))),
    };
    Ok(TagSpan {
        start: req_u32(doc, "start")?,
        end: req_u32(doc, "end")?,
        text: req_str(doc, "text")?.to_string(),
        kind,
    })
}

fn decode_tag_hit(doc: &Json) -> Result<TagHit, WireError> {
    Ok(TagHit {
        id: ConceptId(req_u32(doc, "id")?),
        name: req_str(doc, "name")?.to_string(),
        depth: req_u32(doc, "depth")?,
        score: doc
            .get("score")
            .and_then(Json::as_f64)
            .ok_or_else(|| type_err("score", "number"))? as f32,
        evidence: req_arr(doc, "evidence")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| type_err("evidence", "array of u32"))
            })
            .collect::<Result<_, _>>()?,
    })
}

fn decode_entity_hit(doc: &Json) -> Result<EntityHit, WireError> {
    Ok(EntityHit {
        id: EntityId(req_u32(doc, "id")?),
        key: req_str(doc, "key")?.to_string(),
        via: ConceptId(req_u32(doc, "via")?),
        confidence: doc
            .get("confidence")
            .and_then(Json::as_f64)
            .ok_or_else(|| type_err("confidence", "number"))? as f32,
    })
}

// ----- field helpers -------------------------------------------------------

fn type_err(field: &str, expected: &str) -> WireError {
    WireError::new(format!("field {field:?} missing or not a {expected}"))
}

fn req_str<'a>(doc: &'a Json, field: &str) -> Result<&'a str, WireError> {
    doc.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| type_err(field, "string"))
}

fn req_u64(doc: &Json, field: &str) -> Result<u64, WireError> {
    doc.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| type_err(field, "integer"))
}

fn req_u32(doc: &Json, field: &str) -> Result<u32, WireError> {
    u32::try_from(req_u64(doc, field)?).map_err(|_| type_err(field, "u32"))
}

fn req_usize(doc: &Json, field: &str) -> Result<usize, WireError> {
    usize::try_from(req_u64(doc, field)?).map_err(|_| type_err(field, "integer"))
}

fn req_arr<'a>(doc: &'a Json, field: &str) -> Result<&'a [Json], WireError> {
    doc.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| type_err(field, "array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_round_trip(q: Query) {
        let doc = encode_query(&q);
        let text = doc.write();
        let back = decode_query(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, q, "wire round trip diverged for {text}");
    }

    #[test]
    fn every_query_variant_round_trips() {
        query_round_trip(Query::men2ent("刘德华"));
        query_round_trip(Query::MentionSenses {
            mention: "苹果".to_string(),
        });
        query_round_trip(Query::GetConcept {
            entity: "刘德华（中国香港男演员）".to_string(),
            options: ListOptions::transitive().with_min_confidence(0.25),
        });
        query_round_trip(Query::GetConceptByMention {
            mention: "苹果".to_string(),
            options: ListOptions::default(),
        });
        query_round_trip(Query::GetEntity {
            concept: "人物".to_string(),
            options: ListOptions::transitive().with_page(PageRequest::after(
                10,
                Cursor::decode("v1.g3.o20.q00000000deadbeef").unwrap(),
            )),
        });
        query_round_trip(Query::AncestorsOf {
            concept: "演员".to_string(),
        });
        query_round_trip(Query::IsA {
            sub: "刘德华".to_string(),
            sup: "人物".to_string(),
            transitive: true,
        });
        query_round_trip(Query::Tag {
            text: "刘德华在北京开演唱会。".to_string(),
            options: TagOptions::default(),
        });
        query_round_trip(Query::Classify {
            text: "《无间道》是一部电影".to_string(),
            options: TagOptions::default()
                .with_top_k(3)
                .with_min_score(0.25)
                .with_beam(4),
        });
    }

    #[test]
    fn tag_endpoint_body_defaults_op_to_tag_and_rejects_others() {
        let doc = Json::parse(r#"{"text":"苹果"}"#).unwrap();
        assert_eq!(
            decode_tag_query(&doc).unwrap(),
            Query::Tag {
                text: "苹果".to_string(),
                options: TagOptions::default(),
            }
        );
        let doc = Json::parse(r#"{"op":"classify","text":"苹果"}"#).unwrap();
        assert!(matches!(
            decode_tag_query(&doc).unwrap(),
            Query::Classify { .. }
        ));
        for bad in [
            r#"{"op":"men2ent","text":"苹果"}"#,
            r#"{"op":"tag"}"#,
            r#"{"op":7,"text":"苹果"}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(decode_tag_query(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn tag_options_default_when_absent() {
        let doc = Json::parse(r#"{"op":"tag","text":"苹果"}"#).unwrap();
        let q = decode_query(&doc).unwrap();
        assert_eq!(
            q,
            Query::Tag {
                text: "苹果".to_string(),
                options: TagOptions::default(),
            }
        );
        let doc = Json::parse(r#"{"op":"classify","text":"苹果","options":{"topK":2}}"#).unwrap();
        let q = decode_query(&doc).unwrap();
        assert_eq!(
            q,
            Query::Classify {
                text: "苹果".to_string(),
                options: TagOptions::default().with_top_k(2),
            }
        );
    }

    fn response_round_trip(r: QueryResponse) {
        let mut text = String::new();
        write_response(&r, &mut text);
        let back = decode_response(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r, "wire round trip diverged for {text}");
        assert_eq!(encode_response(&r).write(), text, "the tree shim drifted");
    }

    fn sample_sense() -> Sense {
        Sense {
            id: EntityId(7),
            name: "刘德华".to_string(),
            disambig: Some("中国香港男演员".to_string()),
            key: "刘德华（中国香港男演员）".to_string(),
        }
    }

    fn sample_hit() -> ConceptHit {
        ConceptHit {
            id: ConceptId(3),
            name: "演员".to_string(),
            depth: 2,
            direct: true,
            confidence: Some(0.875),
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        let g = 5;
        response_round_trip(QueryResponse {
            generation: g,
            result: Ok(Response::Senses(vec![
                sample_sense(),
                Sense {
                    disambig: None,
                    ..sample_sense()
                },
            ])),
        });
        response_round_trip(QueryResponse {
            generation: g,
            result: Ok(Response::SenseConcepts(vec![SenseConcepts {
                sense: sample_sense(),
                concepts: vec![sample_hit()],
            }])),
        });
        response_round_trip(QueryResponse {
            generation: g,
            result: Ok(Response::Concepts(Paged {
                items: vec![
                    sample_hit(),
                    ConceptHit {
                        direct: false,
                        confidence: None,
                        ..sample_hit()
                    },
                ],
                total: 10,
                next: Some(Cursor::decode("v1.g5.o2.q0000000000000abc").unwrap()),
            })),
        });
        response_round_trip(QueryResponse {
            generation: g,
            result: Ok(Response::Entities(Paged {
                items: vec![EntityHit {
                    id: EntityId(1),
                    key: "张学友".to_string(),
                    via: ConceptId(3),
                    confidence: 0.5,
                }],
                total: 1,
                next: None,
            })),
        });
        response_round_trip(QueryResponse {
            generation: g,
            result: Ok(Response::Ancestors(vec![sample_hit()])),
        });
        response_round_trip(QueryResponse {
            generation: g,
            result: Ok(Response::IsA { holds: true }),
        });
        response_round_trip(QueryResponse {
            generation: g,
            result: Ok(Response::Tags(TagOutput {
                spans: vec![
                    TagSpan {
                        start: 0,
                        end: 3,
                        text: "刘德华".to_string(),
                        kind: SpanKind::Entities(vec![EntityId(7), EntityId(9)]),
                    },
                    TagSpan {
                        start: 4,
                        end: 6,
                        text: "歌手".to_string(),
                        kind: SpanKind::Concept(ConceptId(3)),
                    },
                    TagSpan {
                        start: 7,
                        end: 12,
                        text: "《无间道》".to_string(),
                        kind: SpanKind::NamedEntity,
                    },
                ],
                concepts: vec![TagHit {
                    id: ConceptId(3),
                    name: "歌手".to_string(),
                    depth: 2,
                    score: 1.5,
                    evidence: vec![0, 1],
                }],
            })),
        });
        response_round_trip(QueryResponse {
            generation: g,
            result: Ok(Response::Classified(vec![TagHit {
                id: ConceptId(1),
                name: "人物".to_string(),
                depth: 0,
                score: 0.75,
                evidence: vec![0],
            }])),
        });
    }

    #[test]
    fn every_error_variant_round_trips() {
        for error in [
            QueryError::UnknownMention("无此人".to_string()),
            QueryError::UnknownEntity("无此人（到处）".to_string()),
            QueryError::UnknownConcept("无此类".to_string()),
            QueryError::InvalidCursor(CursorError::Malformed),
            QueryError::InvalidCursor(CursorError::WrongGeneration {
                cursor: 1,
                serving: 2,
            }),
            QueryError::InvalidCursor(CursorError::WrongQuery),
            QueryError::InvalidCursor(CursorError::OutOfRange {
                offset: 11,
                total: 10,
            }),
        ] {
            response_round_trip(QueryResponse {
                generation: 2,
                result: Err(error),
            });
        }
    }

    #[test]
    fn status_mapping_is_stable() {
        assert_eq!(status_for(&Ok(Response::IsA { holds: false })), 200);
        assert_eq!(
            status_for(&Err(QueryError::UnknownMention(String::new()))),
            404
        );
        assert_eq!(
            status_for(&Err(QueryError::UnknownEntity(String::new()))),
            404
        );
        assert_eq!(
            status_for(&Err(QueryError::UnknownConcept(String::new()))),
            404
        );
        assert_eq!(
            status_for(&Err(QueryError::InvalidCursor(CursorError::Malformed))),
            400
        );
        assert_eq!(
            status_for(&Err(QueryError::InvalidCursor(CursorError::WrongQuery))),
            409
        );
        assert_eq!(
            status_for(&Err(QueryError::InvalidCursor(
                CursorError::WrongGeneration {
                    cursor: 1,
                    serving: 2
                }
            ))),
            409
        );
    }

    #[test]
    fn hostile_query_documents_are_typed_errors() {
        for bad in [
            r#"{}"#,
            r#"{"op":"launchMissiles"}"#,
            r#"{"op":"men2ent"}"#,
            r#"{"op":"men2ent","mention":7}"#,
            r#"{"op":"getEntity","concept":"人物","options":7}"#,
            r#"{"op":"getEntity","concept":"人物","options":{"limit":-1}}"#,
            r#"{"op":"getEntity","concept":"人物","options":{"limit":1.5}}"#,
            r#"{"op":"getEntity","concept":"人物","options":{"cursor":"garbage"}}"#,
            r#"{"op":"isA","sub":"a","sup":"b","transitive":"yes"}"#,
            r#"{"op":"tag"}"#,
            r#"{"op":"tag","text":7}"#,
            r#"{"op":"tag","text":"苹果","options":7}"#,
            r#"{"op":"tag","text":"苹果","options":{"topK":-1}}"#,
            r#"{"op":"tag","text":"苹果","options":{"minScore":"high"}}"#,
            r#"{"op":"classify","text":"苹果","options":{"beam":1.5}}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(decode_query(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn hostile_response_documents_are_typed_errors() {
        for bad in [
            r#"{}"#,
            r#"{"generation":1}"#,
            r#"{"generation":1,"result":{"type":"nope"}}"#,
            r#"{"generation":1,"result":{"type":"isA"}}"#,
            r#"{"generation":1,"error":{"kind":"nope"}}"#,
            r#"{"generation":1,"result":{"type":"isA","holds":true},"error":{"kind":"wrongQuery"}}"#,
            r#"{"generation":-1,"result":{"type":"isA","holds":true}}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(decode_response(&doc).is_err(), "accepted {bad}");
        }
    }
}
