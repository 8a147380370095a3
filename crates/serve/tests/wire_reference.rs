//! The reply writer against the tree encoder it replaced.
//!
//! `reference` is `wire.rs`'s tree encoder and `json.rs`'s tree writer as
//! they stood before replies were written straight into bytes, moved here
//! verbatim (the writer's two methods as free functions): the server sent
//! `encode_response(..).write()`. The proptest asserts that
//! [`wire::write_response`] writes exactly those bytes for generated
//! replies: every result, error and cursor-error variant, strings that
//! need escaping, f32s with no short decimal form, counts on both sides
//! of the writer's integer cut-off, `None` and `Some` optionals, and
//! empty lists.

use cnp_serve::{
    wire, ConceptHit, Cursor, CursorError, EntityHit, Paged, QueryError, QueryResponse, Response,
    Sense, SenseConcepts, SpanKind, TagHit, TagOutput, TagSpan,
};
use cnp_taxonomy::{ConceptId, EntityId};
use proptest::collection;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

mod reference {
    use cnp_serve::json::Json;
    use cnp_serve::wire::error_kind;
    use cnp_serve::{
        ConceptHit, CursorError, EntityHit, Paged, QueryError, QueryResponse, Response, Sense,
        SpanKind, TagHit, TagSpan,
    };

    /// Serializes the value. Deterministic: object fields keep insertion
    /// order, numbers use Rust's shortest round-trip float formatting.
    pub fn write(value: &Json) -> String {
        let mut out = String::new();
        write_into(value, &mut out);
        out
    }

    fn write_into(value: &Json, out: &mut String) {
        match value {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest representation that round-trips through
                    // `f64::from_str` — integers print without ".0".
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    // JSON has no NaN/Inf; degrade to null rather than
                    // emit an unparseable token.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_into(item, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    write_into(v, out);
                }
                out.push('}');
            }
        }
    }

    fn write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Encodes a [`QueryResponse`] envelope: `generation` plus either
    /// `result` or `error`.
    pub fn encode_response(response: &QueryResponse) -> Json {
        let mut fields = vec![(
            "generation".to_string(),
            Json::num(response.generation as f64),
        )];
        match &response.result {
            Ok(result) => fields.push(("result".to_string(), encode_result(result))),
            Err(error) => fields.push(("error".to_string(), encode_error(error))),
        }
        Json::Obj(fields)
    }

    fn encode_error(error: &QueryError) -> Json {
        let mut fields = vec![("kind".to_string(), Json::str(error_kind(error)))];
        match error {
            QueryError::UnknownMention(name)
            | QueryError::UnknownEntity(name)
            | QueryError::UnknownConcept(name) => {
                fields.push(("name".to_string(), Json::str(name.clone())));
            }
            QueryError::InvalidCursor(cursor_error) => {
                let cursor = match cursor_error {
                    CursorError::Malformed => vec![("kind".to_string(), Json::str("malformed"))],
                    CursorError::WrongGeneration { cursor, serving } => vec![
                        ("kind".to_string(), Json::str("wrongGeneration")),
                        ("cursor".to_string(), Json::num(*cursor as f64)),
                        ("serving".to_string(), Json::num(*serving as f64)),
                    ],
                    CursorError::WrongQuery => vec![("kind".to_string(), Json::str("wrongQuery"))],
                    CursorError::OutOfRange { offset, total } => vec![
                        ("kind".to_string(), Json::str("outOfRange")),
                        ("offset".to_string(), Json::num(*offset as f64)),
                        ("total".to_string(), Json::num(*total as f64)),
                    ],
                };
                fields.push(("cursor".to_string(), Json::Obj(cursor)));
            }
        }
        Json::Obj(fields)
    }

    fn encode_result(result: &Response) -> Json {
        match result {
            Response::Senses(senses) => Json::Obj(vec![
                ("type".to_string(), Json::str("senses")),
                (
                    "items".to_string(),
                    Json::Arr(senses.iter().map(encode_sense).collect()),
                ),
            ]),
            Response::SenseConcepts(items) => Json::Obj(vec![
                ("type".to_string(), Json::str("senseConcepts")),
                (
                    "items".to_string(),
                    Json::Arr(
                        items
                            .iter()
                            .map(|sc| {
                                Json::Obj(vec![
                                    ("sense".to_string(), encode_sense(&sc.sense)),
                                    (
                                        "concepts".to_string(),
                                        Json::Arr(
                                            sc.concepts.iter().map(encode_concept_hit).collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Concepts(page) => encode_page("concepts", page, encode_concept_hit),
            Response::Entities(page) => encode_page("entities", page, encode_entity_hit),
            Response::Ancestors(hits) => Json::Obj(vec![
                ("type".to_string(), Json::str("ancestors")),
                (
                    "items".to_string(),
                    Json::Arr(hits.iter().map(encode_concept_hit).collect()),
                ),
            ]),
            Response::IsA { holds } => Json::Obj(vec![
                ("type".to_string(), Json::str("isA")),
                ("holds".to_string(), Json::Bool(*holds)),
            ]),
            Response::Tags(output) => Json::Obj(vec![
                ("type".to_string(), Json::str("tags")),
                (
                    "spans".to_string(),
                    Json::Arr(output.spans.iter().map(encode_tag_span).collect()),
                ),
                (
                    "concepts".to_string(),
                    Json::Arr(output.concepts.iter().map(encode_tag_hit).collect()),
                ),
            ]),
            Response::Classified(hits) => Json::Obj(vec![
                ("type".to_string(), Json::str("classified")),
                (
                    "items".to_string(),
                    Json::Arr(hits.iter().map(encode_tag_hit).collect()),
                ),
            ]),
        }
    }

    fn encode_page<T>(kind: &str, page: &Paged<T>, item: impl Fn(&T) -> Json) -> Json {
        Json::Obj(vec![
            ("type".to_string(), Json::str(kind)),
            (
                "items".to_string(),
                Json::Arr(page.items.iter().map(item).collect()),
            ),
            ("total".to_string(), Json::num(page.total as f64)),
            (
                "next".to_string(),
                match &page.next {
                    Some(cursor) => Json::str(cursor.encode()),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn encode_sense(sense: &Sense) -> Json {
        Json::Obj(vec![
            ("id".to_string(), Json::num(f64::from(sense.id.0))),
            ("name".to_string(), Json::str(sense.name.clone())),
            (
                "disambig".to_string(),
                match &sense.disambig {
                    Some(d) => Json::str(d.clone()),
                    None => Json::Null,
                },
            ),
            ("key".to_string(), Json::str(sense.key.clone())),
        ])
    }

    fn encode_concept_hit(hit: &ConceptHit) -> Json {
        Json::Obj(vec![
            ("id".to_string(), Json::num(f64::from(hit.id.0))),
            ("name".to_string(), Json::str(hit.name.clone())),
            ("depth".to_string(), Json::num(f64::from(hit.depth))),
            ("direct".to_string(), Json::Bool(hit.direct)),
            (
                "confidence".to_string(),
                match hit.confidence {
                    Some(c) => Json::num(f64::from(c)),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn encode_tag_span(span: &TagSpan) -> Json {
        let mut fields = vec![
            ("start".to_string(), Json::num(f64::from(span.start))),
            ("end".to_string(), Json::num(f64::from(span.end))),
            ("text".to_string(), Json::str(span.text.clone())),
        ];
        match &span.kind {
            SpanKind::Entities(ids) => {
                fields.push(("kind".to_string(), Json::str("entities")));
                fields.push((
                    "entities".to_string(),
                    Json::Arr(ids.iter().map(|id| Json::num(f64::from(id.0))).collect()),
                ));
            }
            SpanKind::Concept(id) => {
                fields.push(("kind".to_string(), Json::str("concept")));
                fields.push(("concept".to_string(), Json::num(f64::from(id.0))));
            }
            SpanKind::NamedEntity => {
                fields.push(("kind".to_string(), Json::str("namedEntity")));
            }
        }
        Json::Obj(fields)
    }

    fn encode_tag_hit(hit: &TagHit) -> Json {
        Json::Obj(vec![
            ("id".to_string(), Json::num(f64::from(hit.id.0))),
            ("name".to_string(), Json::str(hit.name.clone())),
            ("depth".to_string(), Json::num(f64::from(hit.depth))),
            ("score".to_string(), Json::num(f64::from(hit.score))),
            (
                "evidence".to_string(),
                Json::Arr(
                    hit.evidence
                        .iter()
                        .map(|&i| Json::num(f64::from(i)))
                        .collect(),
                ),
            ),
        ])
    }

    fn encode_entity_hit(hit: &EntityHit) -> Json {
        Json::Obj(vec![
            ("id".to_string(), Json::num(f64::from(hit.id.0))),
            ("key".to_string(), Json::str(hit.key.clone())),
            ("via".to_string(), Json::num(f64::from(hit.via.0))),
            (
                "confidence".to_string(),
                Json::num(f64::from(hit.confidence)),
            ),
        ])
    }
}

/// Characters reply strings are drawn from: plain ASCII and CJK, every
/// character the escaper treats specially, DEL (which it copies) and
/// characters outside the BMP.
const CHARS: &[char] = &[
    'a', 'Z', ' ', '/', '刘', '（', 'é', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}',
    '\u{1}', '\u{1f}', '\u{7f}', '😀', '𠀀',
];

/// f32s that stress the number writer: no short decimal form, signed
/// zero, subnormals, the extremes, integers on both sides of 10^15, and
/// the values JSON cannot spell.
const FLOATS: &[f32] = &[
    0.1,
    1.0 / 3.0,
    0.875,
    -0.0,
    0.0,
    1.0,
    f32::MIN_POSITIVE,
    1.0e-40,
    1.0e-45,
    f32::MAX,
    f32::MIN,
    1.0e15,
    1.0e-7,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

/// Counts on both sides of the writer's integer cut-off (10^15) and of
/// f64's exact range (2^53).
const COUNTS: &[u64] = &[
    0,
    1,
    999_999_999_999_999,
    1_000_000_000_000_000,
    1 << 53,
    (1 << 53) + 1,
    u64::MAX,
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn string(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0..6usize);
    (0..len).map(|_| pick(rng, CHARS)).collect()
}

fn float(rng: &mut TestRng) -> f32 {
    if rng.gen_bool_even() {
        pick(rng, FLOATS)
    } else {
        f32::from_bits(rng.gen_range(0..=u32::MAX))
    }
}

fn count(rng: &mut TestRng) -> u64 {
    match rng.gen_range(0..3u32) {
        0 => pick(rng, COUNTS),
        1 => rng.gen_range(0..1000u64),
        _ => rng.gen_range(0..=u64::MAX),
    }
}

fn id(rng: &mut TestRng) -> u32 {
    rng.gen_range(0..=u32::MAX)
}

fn list<T>(rng: &mut TestRng, item: impl Fn(&mut TestRng) -> T) -> Vec<T> {
    let len = rng.gen_range(0..4usize);
    (0..len).map(|_| item(rng)).collect()
}

fn sense(rng: &mut TestRng) -> Sense {
    Sense {
        id: EntityId(id(rng)),
        name: string(rng),
        disambig: rng.gen_bool_even().then(|| string(rng)),
        key: string(rng),
    }
}

fn concept_hit(rng: &mut TestRng) -> ConceptHit {
    ConceptHit {
        id: ConceptId(id(rng)),
        name: string(rng),
        depth: id(rng),
        direct: rng.gen_bool_even(),
        confidence: rng.gen_bool_even().then(|| float(rng)),
    }
}

fn entity_hit(rng: &mut TestRng) -> EntityHit {
    EntityHit {
        id: EntityId(id(rng)),
        key: string(rng),
        via: ConceptId(id(rng)),
        confidence: float(rng),
    }
}

fn tag_span(rng: &mut TestRng) -> TagSpan {
    TagSpan {
        start: id(rng),
        end: id(rng),
        text: string(rng),
        kind: match rng.gen_range(0..3u32) {
            0 => SpanKind::Entities(list(rng, |rng| EntityId(id(rng)))),
            1 => SpanKind::Concept(ConceptId(id(rng))),
            _ => SpanKind::NamedEntity,
        },
    }
}

fn tag_hit(rng: &mut TestRng) -> TagHit {
    TagHit {
        id: ConceptId(id(rng)),
        name: string(rng),
        depth: id(rng),
        score: float(rng),
        evidence: list(rng, id),
    }
}

fn page<T>(rng: &mut TestRng, item: impl Fn(&mut TestRng) -> T) -> Paged<T> {
    Paged {
        items: list(rng, item),
        total: count(rng) as usize,
        next: rng.gen_bool_even().then(|| {
            let token = format!(
                "v1.g{}.o{}.q{:016x}",
                count(rng),
                count(rng),
                rng.gen_range(0..=u64::MAX)
            );
            Cursor::decode(&token).unwrap()
        }),
    }
}

/// Any reply, each result and error variant equally likely.
struct AnyResponse;

impl Strategy for AnyResponse {
    type Value = QueryResponse;

    fn generate(&self, rng: &mut TestRng) -> QueryResponse {
        let result = match rng.gen_range(0..15u32) {
            0 => Ok(Response::Senses(list(rng, sense))),
            1 => Ok(Response::SenseConcepts(list(rng, |rng| SenseConcepts {
                sense: sense(rng),
                concepts: list(rng, concept_hit),
            }))),
            2 => Ok(Response::Concepts(page(rng, concept_hit))),
            3 => Ok(Response::Entities(page(rng, entity_hit))),
            4 => Ok(Response::Ancestors(list(rng, concept_hit))),
            5 => Ok(Response::IsA {
                holds: rng.gen_bool_even(),
            }),
            6 => Ok(Response::Tags(TagOutput {
                spans: list(rng, tag_span),
                concepts: list(rng, tag_hit),
            })),
            7 => Ok(Response::Classified(list(rng, tag_hit))),
            8 => Err(QueryError::UnknownMention(string(rng))),
            9 => Err(QueryError::UnknownEntity(string(rng))),
            10 => Err(QueryError::UnknownConcept(string(rng))),
            11 => Err(QueryError::InvalidCursor(CursorError::Malformed)),
            12 => Err(QueryError::InvalidCursor(CursorError::WrongGeneration {
                cursor: count(rng),
                serving: count(rng),
            })),
            13 => Err(QueryError::InvalidCursor(CursorError::WrongQuery)),
            _ => Err(QueryError::InvalidCursor(CursorError::OutOfRange {
                offset: count(rng) as usize,
                total: count(rng) as usize,
            })),
        };
        QueryResponse {
            generation: count(rng),
            result,
        }
    }
}

proptest! {
    #[test]
    fn writer_matches_the_reference_tree_encoder(
        responses in collection::vec(AnyResponse, 1..8)
    ) {
        for response in &responses {
            let mut written = String::new();
            wire::write_response(response, &mut written);
            let expected = reference::write(&reference::encode_response(response));
            prop_assert_eq!(&written, &expected, "for {:?}", response);
            // The shim is the writer's bytes again, never a second encoder.
            prop_assert_eq!(wire::encode_response(response).write(), expected);
        }
    }
}
