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
//! tree.
//!
//! Requests are read, not parsed: [`read_query`], [`read_tag_query`] and
//! [`read_batch`] pull a body's tokens from [`Reader`] and keep only the
//! fields a query needs, strings borrowed until the [`Query`] takes them.
//! [`decode_query`] and [`decode_tag_query`] take the same fields from a
//! [`Json`] tree instead, and one validation turns the fields into a
//! query for both, so the two agree on field types, defaults, `null`,
//! first-key-wins duplicates and error text. The readers' refusals keep
//! the order a whole-body parse gave them: not UTF-8, then any JSON
//! syntax error, then (for a batch) a missing `queries`, a batch over the
//! cap, and the first invalid query ([`RequestError`]).

use crate::json::{write_arr, write_num, write_str, Json, JsonError, Reader, Token};
use crate::query::{Cursor, ListOptions, PageRequest, Query};
use crate::response::{
    ConceptHit, CursorError, EntityHit, Paged, QueryError, QueryResponse, Response, Sense,
    SenseConcepts,
};
use cnp_tag::{SpanKind, TagHit, TagOptions, TagOutput, TagSpan};
use cnp_taxonomy::{ConceptId, EntityId};
use std::borrow::Cow;
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
    Fields::of(doc).into_query()
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

/// Decodes the body of the dedicated `/v1/tag` endpoint: a tagging query
/// whose `op` *defaults to `"tag"`* when absent (the endpoint already
/// names the operation), with `"op":"classify"` selecting the
/// concepts-only variant. Any other op is rejected — the endpoint serves
/// the tagging workload only; general queries go to `/v1/query`.
pub fn decode_tag_query(doc: &Json) -> Result<Query, WireError> {
    Fields::of(doc).into_tag_query()
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

// ----- requests -------------------------------------------------------------

/// Why a request body was refused, in the order the checks run: the body
/// is read as UTF-8, then as one JSON document, then as a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The body is not UTF-8.
    NotUtf8,
    /// The body is not one well-formed JSON document.
    Json(JsonError),
    /// A batch whose first `queries` field is missing or not an array.
    NoQueries,
    /// A batch with more queries than its cap.
    TooManyQueries,
    /// A document that is not a valid query; in a batch, the first such
    /// item.
    Wire(WireError),
}

impl RequestError {
    /// The HTTP status the refusal goes with: `413` for an over-cap batch,
    /// `400` for the rest.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::TooManyQueries => 413,
            _ => 400,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::NotUtf8 => f.write_str("body is not UTF-8"),
            RequestError::Json(e) => e.fmt(f),
            RequestError::NoQueries => f.write_str("field \"queries\" missing or not an array"),
            RequestError::TooManyQueries => f.write_str("batch exceeds the query-count cap"),
            RequestError::Wire(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<JsonError> for RequestError {
    fn from(e: JsonError) -> RequestError {
        RequestError::Json(e)
    }
}

/// Reads a `/v1/query` body, `{"op":…,…}`, into a [`Query`] without
/// building a tree; [`decode_query`] over [`Json::parse`]'s tree is its
/// reference.
pub fn read_query(body: &[u8]) -> Result<Query, RequestError> {
    let fields = read_body(body, Fields::read)?;
    fields.into_query().map_err(RequestError::Wire)
}

/// Reads a `/v1/tag` body as [`decode_tag_query`] decodes its tree.
pub fn read_tag_query(body: &[u8]) -> Result<Query, RequestError> {
    let fields = read_body(body, Fields::read)?;
    fields.into_tag_query().map_err(RequestError::Wire)
}

/// Reads a `/v1/batch` body, `{"queries":[…]}`, into at most `max`
/// queries. Only the first `queries` field counts, as with [`Json::get`].
/// Items past `max`, or past the first invalid one, are checked as JSON
/// and skipped.
pub fn read_batch(body: &[u8], max: usize) -> Result<Vec<Query>, RequestError> {
    match read_body(body, |reader| read_queries(reader, max))? {
        None => Err(RequestError::NoQueries),
        Some((count, _)) if count > max => Err(RequestError::TooManyQueries),
        Some((_, queries)) => queries.map_err(RequestError::Wire),
    }
}

/// Reads `body` as one JSON document through `read`. Validation comes
/// after: a syntax error anywhere in the body wins over a wire error.
fn read_body<'a, T>(
    body: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<T, RequestError> {
    let text = std::str::from_utf8(body).map_err(|_| RequestError::NotUtf8)?;
    let mut reader = Reader::new(text);
    let value = read(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// The item count of a batch's first `queries` array, with its first
/// `max` items decoded (or the first wire error among them); `None` when
/// there is no such array.
type Queries = Option<(usize, Result<Vec<Query>, WireError>)>;

fn read_queries(reader: &mut Reader<'_>, max: usize) -> Result<Queries, JsonError> {
    let token = reader.value()?;
    if token != Token::Obj {
        reader.skip_rest(&token)?;
        return Ok(None);
    }
    let mut found = None;
    let mut seen = false;
    while let Some(key) = reader.next_key()? {
        if seen || key != "queries" {
            reader.skip_value()?;
            continue;
        }
        seen = true;
        let token = reader.value()?;
        if token != Token::Arr {
            reader.skip_rest(&token)?;
            continue;
        }
        let mut count = 0;
        let mut queries = Ok(Vec::new());
        while reader.next_item()? {
            count += 1;
            match &mut queries {
                Ok(list) if count <= max => match Fields::read(reader)?.into_query() {
                    Ok(query) => list.push(query),
                    Err(e) => queries = Err(e),
                },
                _ => reader.skip_value()?,
            }
        }
        found = Some((count, queries));
    }
    Ok(found)
}

/// The fields a query's validation reads, each the first occurrence's
/// value (the one [`Json::get`] finds) or `None` when absent. A container
/// is kept as its opening token only, except the first `options` object,
/// whose fields are in `opts`. [`Fields::read`] fills it from a reader,
/// [`Fields::of`] from a tree, and one validation serves both.
#[derive(Debug, Default)]
struct Fields<'a> {
    op: Option<Token<'a>>,
    mention: Option<Token<'a>>,
    entity: Option<Token<'a>>,
    concept: Option<Token<'a>>,
    sub: Option<Token<'a>>,
    sup: Option<Token<'a>>,
    transitive: Option<Token<'a>>,
    text: Option<Token<'a>>,
    options: Option<Token<'a>>,
    opts: OptionFields<'a>,
}

/// The fields of a list or a tag `options` object.
#[derive(Debug, Default)]
struct OptionFields<'a> {
    transitive: Option<Token<'a>>,
    min_confidence: Option<Token<'a>>,
    limit: Option<Token<'a>>,
    cursor: Option<Token<'a>>,
    top_k: Option<Token<'a>>,
    min_score: Option<Token<'a>>,
    beam: Option<Token<'a>>,
}

fn token_of(doc: &Json) -> Token<'_> {
    match doc {
        Json::Null => Token::Null,
        Json::Bool(b) => Token::Bool(*b),
        Json::Num(n) => Token::Num(*n),
        Json::Str(s) => Token::Str(Cow::Borrowed(s)),
        Json::Arr(_) => Token::Arr,
        Json::Obj(_) => Token::Obj,
    }
}

impl<'a> Fields<'a> {
    fn of(doc: &'a Json) -> Fields<'a> {
        let get = |key| doc.get(key).map(token_of);
        let options = doc.get("options").filter(|o| matches!(o, Json::Obj(_)));
        let opt = |key| options.and_then(|o| o.get(key)).map(token_of);
        Fields {
            op: get("op"),
            mention: get("mention"),
            entity: get("entity"),
            concept: get("concept"),
            sub: get("sub"),
            sup: get("sup"),
            transitive: get("transitive"),
            text: get("text"),
            options: get("options"),
            opts: OptionFields {
                transitive: opt("transitive"),
                min_confidence: opt("minConfidence"),
                limit: opt("limit"),
                cursor: opt("cursor"),
                top_k: opt("topK"),
                min_score: opt("minScore"),
                beam: opt("beam"),
            },
        }
    }

    /// Reads one value; anything but an object has no fields.
    fn read(reader: &mut Reader<'a>) -> Result<Fields<'a>, JsonError> {
        let mut fields = Fields::default();
        let token = reader.value()?;
        if token == Token::Obj {
            fields.read_object(reader, false)?;
        } else {
            reader.skip_rest(&token)?;
        }
        Ok(fields)
    }

    /// Reads the rest of an object whose `{` was just read: the query's
    /// own fields, or with `nested` those of its `options`.
    fn read_object(&mut self, reader: &mut Reader<'a>, nested: bool) -> Result<(), JsonError> {
        while let Some(key) = reader.next_key()? {
            if !self.slot(&key, nested).is_some_and(|slot| slot.is_none()) {
                reader.skip_value()?;
                continue;
            }
            let token = reader.value()?;
            if token == Token::Obj && !nested && key == "options" {
                self.read_object(reader, true)?;
            } else {
                reader.skip_rest(&token)?;
            }
            if let Some(slot) = self.slot(&key, nested) {
                *slot = Some(token);
            }
        }
        Ok(())
    }

    fn slot(&mut self, key: &str, nested: bool) -> Option<&mut Option<Token<'a>>> {
        let o = &mut self.opts;
        Some(match (nested, key) {
            (false, "op") => &mut self.op,
            (false, "mention") => &mut self.mention,
            (false, "entity") => &mut self.entity,
            (false, "concept") => &mut self.concept,
            (false, "sub") => &mut self.sub,
            (false, "sup") => &mut self.sup,
            (false, "transitive") => &mut self.transitive,
            (false, "text") => &mut self.text,
            (false, "options") => &mut self.options,
            (true, "transitive") => &mut o.transitive,
            (true, "minConfidence") => &mut o.min_confidence,
            (true, "limit") => &mut o.limit,
            (true, "cursor") => &mut o.cursor,
            (true, "topK") => &mut o.top_k,
            (true, "minScore") => &mut o.min_score,
            (true, "beam") => &mut o.beam,
            _ => return None,
        })
    }

    fn into_query(self) -> Result<Query, WireError> {
        let op = req_string(self.op, "op")?;
        Ok(match &*op {
            "men2ent" => Query::Men2Ent {
                mention: req_owned(self.mention, "mention")?,
            },
            "mentionSenses" => Query::MentionSenses {
                mention: req_owned(self.mention, "mention")?,
            },
            "getConcept" => Query::GetConcept {
                entity: req_owned(self.entity, "entity")?,
                options: list_options(self.options, self.opts)?,
            },
            "getConceptByMention" => Query::GetConceptByMention {
                mention: req_owned(self.mention, "mention")?,
                options: list_options(self.options, self.opts)?,
            },
            "getEntity" => Query::GetEntity {
                concept: req_owned(self.concept, "concept")?,
                options: list_options(self.options, self.opts)?,
            },
            "ancestorsOf" => Query::AncestorsOf {
                concept: req_owned(self.concept, "concept")?,
            },
            "isA" => Query::IsA {
                sub: req_owned(self.sub, "sub")?,
                sup: req_owned(self.sup, "sup")?,
                transitive: match self.transitive {
                    None => false,
                    Some(v) => v.as_bool().ok_or_else(|| type_err("transitive", "bool"))?,
                },
            },
            "tag" => Query::Tag {
                text: req_owned(self.text, "text")?,
                options: tag_options(self.options, self.opts)?,
            },
            "classify" => Query::Classify {
                text: req_owned(self.text, "text")?,
                options: tag_options(self.options, self.opts)?,
            },
            other => return Err(WireError::new(format!("unknown op {other:?}"))),
        })
    }

    fn into_tag_query(self) -> Result<Query, WireError> {
        let op = match self.op {
            None | Some(Token::Null) => Cow::Borrowed("tag"),
            Some(v) => v.into_str().ok_or_else(|| type_err("op", "string"))?,
        };
        let text = req_owned(self.text, "text")?;
        let options = tag_options(self.options, self.opts)?;
        match &*op {
            "tag" => Ok(Query::Tag { text, options }),
            "classify" => Ok(Query::Classify { text, options }),
            other => Err(WireError::new(format!(
                "op {other:?} is not a tagging query"
            ))),
        }
    }
}

/// Whether an `options` field holds fields: `false` when it is absent or
/// `null` (every option takes its default), an error unless an object.
fn has_options(options: Option<Token<'_>>) -> Result<bool, WireError> {
    match options {
        None | Some(Token::Null) => Ok(false),
        Some(Token::Obj) => Ok(true),
        Some(_) => Err(type_err("options", "object")),
    }
}

fn list_options(options: Option<Token<'_>>, o: OptionFields<'_>) -> Result<ListOptions, WireError> {
    if !has_options(options)? {
        return Ok(ListOptions::default());
    }
    let transitive = match o.transitive {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| type_err("transitive", "bool"))?,
    };
    let min_confidence = match o.min_confidence {
        None => 0.0,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| type_err("minConfidence", "number"))? as f32,
    };
    let limit = match o.limit {
        None | Some(Token::Null) => usize::MAX,
        Some(v) => opt_usize(&v, "limit")?,
    };
    let cursor = match o.cursor {
        None | Some(Token::Null) => None,
        Some(v) => {
            let token = v.into_str().ok_or_else(|| type_err("cursor", "string"))?;
            Some(
                Cursor::decode(&token)
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

fn tag_options(options: Option<Token<'_>>, o: OptionFields<'_>) -> Result<TagOptions, WireError> {
    let defaults = TagOptions::default();
    if !has_options(options)? {
        return Ok(defaults);
    }
    let top_k = match o.top_k {
        None | Some(Token::Null) => defaults.top_k,
        Some(v) => opt_usize(&v, "topK")?,
    };
    let min_score = match o.min_score {
        None | Some(Token::Null) => defaults.min_score,
        Some(v) => v.as_f64().ok_or_else(|| type_err("minScore", "number"))? as f32,
    };
    let beam = match o.beam {
        None | Some(Token::Null) => defaults.beam,
        Some(v) => opt_usize(&v, "beam")?,
    };
    Ok(TagOptions {
        top_k,
        min_score,
        beam,
    })
}

fn opt_usize(v: &Token<'_>, field: &str) -> Result<usize, WireError> {
    v.as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| type_err(field, "integer"))
}

fn req_string<'a>(field: Option<Token<'a>>, name: &str) -> Result<Cow<'a, str>, WireError> {
    field
        .and_then(Token::into_str)
        .ok_or_else(|| type_err(name, "string"))
}

fn req_owned(field: Option<Token<'_>>, name: &str) -> Result<String, WireError> {
    req_string(field, name).map(Cow::into_owned)
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
