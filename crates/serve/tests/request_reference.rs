//! The request readers against the tree decoders they replaced.
//!
//! `reference` is the server's request path as it stood before bodies were
//! read straight from their bytes, moved here verbatim: the UTF-8 check,
//! `Json::parse`, then `wire::decode_query` / `decode_tag_query`, and for a
//! batch the `queries` lookup, the count cap and the first wire error.
//! Every test asserts that `wire::read_query`, `read_tag_query` and
//! `read_batch` give the same queries, or the same refusal (status and
//! detail text), on generated requests (every query variant; options
//! present, absent and `null`; escapes, astral characters, duplicate and
//! unknown keys, mistyped values, arbitrary whitespace, now and then cut
//! short or followed by garbage) and on hostile
//! bodies (malformed JSON, depth bombs at every level, bytes that are not
//! UTF-8, over-cap batches, every truncation of valid bodies).

use cnp_serve::json::{Json, MAX_DEPTH};
use cnp_serve::wire::{self, RequestError};
use cnp_serve::{Cursor, ListOptions, PageRequest, Query, TagOptions};
use proptest::collection;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

mod reference {
    use cnp_serve::json::Json;
    use cnp_serve::{wire, Query};

    /// `cnp_server`'s batch cap.
    pub const MAX_BATCH: usize = 1024;

    pub type Refusal = (u16, String);

    fn parse_body(body: &[u8]) -> Result<Json, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        Json::parse(text).map_err(|e| e.to_string())
    }

    pub fn query(body: &[u8]) -> Result<Query, Refusal> {
        parse_body(body)
            .and_then(|doc| wire::decode_query(&doc).map_err(|e| e.to_string()))
            .map_err(|detail| (400, detail))
    }

    pub fn tag(body: &[u8]) -> Result<Query, Refusal> {
        parse_body(body)
            .and_then(|doc| wire::decode_tag_query(&doc).map_err(|e| e.to_string()))
            .map_err(|detail| (400, detail))
    }

    pub fn batch(body: &[u8]) -> Result<Vec<Query>, Refusal> {
        let doc = parse_body(body).map_err(|detail| (400, detail))?;
        let Some(items) = doc.get("queries").and_then(Json::as_arr) else {
            return Err((400, "field \"queries\" missing or not an array".to_string()));
        };
        if items.len() > MAX_BATCH {
            return Err((413, "batch exceeds the query-count cap".to_string()));
        }
        items
            .iter()
            .map(wire::decode_query)
            .collect::<Result<Vec<Query>, _>>()
            .map_err(|e| (400, e.to_string()))
    }
}

fn refusal(e: RequestError) -> reference::Refusal {
    (e.status(), e.to_string())
}

/// Every endpoint's reader agrees with the reference on `body`.
fn assert_same(body: &[u8]) {
    let shown = String::from_utf8_lossy(body);
    assert_eq!(
        wire::read_query(body).map_err(refusal),
        reference::query(body),
        "/v1/query {shown:?}"
    );
    assert_eq!(
        wire::read_tag_query(body).map_err(refusal),
        reference::tag(body),
        "/v1/tag {shown:?}"
    );
    assert_eq!(
        wire::read_batch(body, reference::MAX_BATCH).map_err(refusal),
        reference::batch(body),
        "/v1/batch {shown:?}"
    );
}

// ----- generated requests ----------------------------------------------------

/// Plain, CJK, astral and must-escape characters.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '刘', '德', '华', '（', '）', '😀', '𠀀', '"', '\\', '/', '\n', '\t',
    '\u{1}', '\u{7f}', '\u{e9}', '\u{ffff}',
];

/// Numbers on both sides of every integer check: negative, fractional,
/// past `u32`, at and past 2^53, huge.
const NUMBERS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    10.0,
    -1.0,
    1.5,
    0.25,
    4_294_967_296.0,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    1e300,
    -1e300,
];

const KEYS: &[&str] = &[
    "op",
    "mention",
    "entity",
    "concept",
    "sub",
    "sup",
    "transitive",
    "text",
    "options",
    "queries",
    "unknown",
    "",
];

const OPTION_KEYS: &[&str] = &[
    "transitive",
    "minConfidence",
    "limit",
    "cursor",
    "topK",
    "minScore",
    "beam",
    "extra",
];

const OPS: &[&str] = &[
    "men2ent",
    "mentionSenses",
    "getConcept",
    "getConceptByMention",
    "getEntity",
    "ancestorsOf",
    "isA",
    "tag",
    "classify",
    "launchMissiles",
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn one_in(rng: &mut TestRng, n: u32) -> bool {
    rng.gen_range(0..n) == 0
}

fn string(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0..6usize);
    (0..len).map(|_| pick(rng, CHARS)).collect()
}

fn cursor(rng: &mut TestRng) -> Cursor {
    let token = format!(
        "v1.g{}.o{}.q{:016x}",
        rng.gen_range(0..100u64),
        rng.gen_range(0..100u64),
        rng.gen_range(0..=u64::MAX)
    );
    Cursor::decode(&token).unwrap()
}

fn list_options(rng: &mut TestRng) -> ListOptions {
    let mut options = if rng.gen_bool_even() {
        ListOptions::transitive()
    } else {
        ListOptions::default()
    };
    if rng.gen_bool_even() {
        options = options.with_min_confidence(pick(rng, &[0.0, 0.25, 0.875, 1.0]));
    }
    match rng.gen_range(0..3u32) {
        0 => options,
        1 => options.with_page(PageRequest::first(rng.gen_range(0..50usize))),
        _ => options.with_page(PageRequest::after(rng.gen_range(0..50usize), cursor(rng))),
    }
}

fn tag_options(rng: &mut TestRng) -> TagOptions {
    TagOptions::default()
        .with_top_k(rng.gen_range(0..10usize))
        .with_min_score(pick(rng, &[0.0, 0.25, 2.5]))
        .with_beam(rng.gen_range(0..10usize))
}

/// Every query variant, with generated names and options.
fn query(rng: &mut TestRng) -> Query {
    match rng.gen_range(0..9u32) {
        0 => Query::men2ent(string(rng)),
        1 => Query::MentionSenses {
            mention: string(rng),
        },
        2 => Query::GetConcept {
            entity: string(rng),
            options: list_options(rng),
        },
        3 => Query::GetConceptByMention {
            mention: string(rng),
            options: list_options(rng),
        },
        4 => Query::GetEntity {
            concept: string(rng),
            options: list_options(rng),
        },
        5 => Query::AncestorsOf {
            concept: string(rng),
        },
        6 => Query::IsA {
            sub: string(rng),
            sup: string(rng),
            transitive: rng.gen_bool_even(),
        },
        7 => Query::Tag {
            text: string(rng),
            options: tag_options(rng),
        },
        _ => Query::Classify {
            text: string(rng),
            options: tag_options(rng),
        },
    }
}

/// A value of any type, small containers included.
fn junk(rng: &mut TestRng, depth: u32) -> Json {
    match rng.gen_range(0..if depth > 1 { 5 } else { 7u32 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool_even()),
        2 => Json::Num(pick(rng, NUMBERS)),
        3 => Json::Str(string(rng)),
        4 => Json::str(pick(rng, OPS)),
        5 => Json::Arr(
            (0..rng.gen_range(0..3usize))
                .map(|_| junk(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..3usize))
                .map(|_| (pick(rng, OPTION_KEYS).to_string(), junk(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// Drops, duplicates, retypes, adds and reorders the fields of an object,
/// naming keys from `keys`.
fn mutate(fields: &mut Vec<(String, Json)>, keys: &[&str], rng: &mut TestRng) {
    for _ in 0..rng.gen_range(0..4u32) {
        let at = rng.gen_range(0..=fields.len());
        match rng.gen_range(0..6u32) {
            0 if at < fields.len() => {
                fields.remove(at);
            }
            1 if at < fields.len() => fields[at].1 = junk(rng, 0),
            2 if at < fields.len() => {
                // A second occurrence, before or after: the first wins.
                let key = fields[at].0.clone();
                let to = rng.gen_range(0..=fields.len());
                fields.insert(to, (key, junk(rng, 0)));
            }
            3 if at < fields.len() && at > 0 => fields.swap(at, at - 1),
            _ => fields.insert(at, (pick(rng, keys).to_string(), junk(rng, 0))),
        }
    }
}

/// A query's wire document, often mutated, its `options` sometimes
/// dropped, `null`ed or mutated too.
fn query_doc(rng: &mut TestRng) -> Json {
    let Json::Obj(mut fields) = wire::encode_query(&query(rng)) else {
        unreachable!("a query encodes as an object");
    };
    if let Some(at) = fields.iter().position(|(k, _)| k == "options") {
        match rng.gen_range(0..4u32) {
            0 => {
                fields.remove(at);
            }
            1 => fields[at].1 = Json::Null,
            2 => {
                if let Json::Obj(options) = &mut fields[at].1 {
                    mutate(options, OPTION_KEYS, rng);
                }
            }
            _ => {}
        }
    }
    if one_in(rng, 2) {
        mutate(&mut fields, KEYS, rng);
    }
    if one_in(rng, 20) {
        return junk(rng, 0);
    }
    Json::Obj(fields)
}

/// A batch document: a `queries` array of query documents, sometimes with
/// other keys, a second `queries`, or a first `queries` that is no array.
fn batch_doc(rng: &mut TestRng) -> Json {
    let items = (0..rng.gen_range(0..6usize))
        .map(|_| query_doc(rng))
        .collect();
    let mut fields = vec![("queries".to_string(), Json::Arr(items))];
    if one_in(rng, 3) {
        mutate(&mut fields, KEYS, rng);
    }
    Json::Obj(fields)
}

fn ws(rng: &mut TestRng, out: &mut String) {
    for _ in 0..rng.gen_range(0..3u32).saturating_sub(1) {
        out.push(pick(rng, &[' ', '\t', '\n', '\r']));
    }
}

/// Writes `s` as a JSON string, each character raw, short-escaped or
/// `\u`-escaped (astral ones as a surrogate pair) at random.
fn write_string(s: &str, rng: &mut TestRng, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let raw_ok = !matches!(c, '"' | '\\') && c >= ' ';
        match rng.gen_range(0..4u32) {
            0 | 1 if raw_ok => out.push(c),
            2 if short.is_some() => out.push_str(short.unwrap()),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    if rng.gen_bool_even() {
                        out.push_str(&format!("\\u{unit:04x}"));
                    } else {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
    }
    out.push('"');
}

/// Writes `doc` with whitespace around every token and strings escaped at
/// random; integers sometimes take an exponent or a fraction.
fn write(doc: &Json, rng: &mut TestRng, out: &mut String) {
    ws(rng, out);
    match doc {
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 && one_in(rng, 4) => {
            out.push_str(&format!(
                "{}{}",
                *n as i64,
                pick(rng, &[".0", "e0", "E+0", ".00e-0"])
            ));
        }
        Json::Str(s) => write_string(s, rng, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                write_string(key, rng, out);
                ws(rng, out);
                out.push(':');
                write(value, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => out.push_str(&scalar.write()),
    }
    ws(rng, out);
}

/// A request body for any endpoint.
struct AnyBody;

impl Strategy for AnyBody {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let doc = match rng.gen_range(0..3u32) {
            0 => batch_doc(rng),
            _ => query_doc(rng),
        };
        let mut out = String::new();
        write(&doc, rng, &mut out);
        // Now and then a syntax error after whatever the document holds:
        // it must win over every wire error.
        match rng.gen_range(0..12u32) {
            0 => {
                let cut = rng.gen_range(0..=out.len());
                let cut = (0..=cut)
                    .rev()
                    .find(|&i| out.is_char_boundary(i))
                    .unwrap_or(0);
                out.truncate(cut);
            }
            1 => out.push_str(pick(rng, &["x", ",", "}", "]", "{}"])),
            _ => {}
        }
        out
    }
}

proptest! {
    #[test]
    fn readers_match_the_tree_reference_on_generated_requests(
        bodies in collection::vec(AnyBody, 1..8)
    ) {
        for body in &bodies {
            assert_same(body.as_bytes());
        }
    }
}

/// The generator reaches the interesting outcomes, not only refusals.
#[test]
fn generated_requests_cover_queries_and_refusals() {
    let mut rng = TestRng::for_test("coverage");
    let (mut queries, mut tags, mut batches, mut refused) = (0, 0, 0, 0);
    for _ in 0..2_000 {
        let body = AnyBody.generate(&mut rng);
        queries += usize::from(wire::read_query(body.as_bytes()).is_ok());
        tags += usize::from(wire::read_tag_query(body.as_bytes()).is_ok());
        batches +=
            usize::from(wire::read_batch(body.as_bytes(), 1024).is_ok_and(|q| !q.is_empty()));
        refused += usize::from(wire::read_query(body.as_bytes()).is_err());
    }
    assert!(queries > 400, "{queries} queries");
    assert!(tags > 50, "{tags} tag queries");
    assert!(batches > 50, "{batches} batches");
    assert!(refused > 400, "{refused} refusals");
}

// ----- hostile bodies -------------------------------------------------------

/// `json.rs`'s malformed documents.
const MALFORMED: &[&str] = &[
    "",
    "{",
    "}",
    "[1,",
    "[1 2]",
    r#"{"a"}"#,
    r#"{"a":}"#,
    r#"{"a":1,}"#,
    r#"{a:1}"#,
    "nul",
    "tru",
    "01x",
    "-",
    "1.",
    "1e",
    "\"unterminated",
    "\"bad \\q escape\"",
    "\"\\u12\"",
    "\"lone \\ud800 surrogate\"",
    "01",
    "-01",
    "[00]",
    r#"{"limit":010}"#,
    "\"\\u+041\"",
    "\"\\u-041\"",
    "1 2",
    "[]extra",
    "\u{1}",
];

/// `wire.rs`'s hostile query documents.
const HOSTILE_QUERIES: &[&str] = &[
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
    r#"{"op":"men2ent","text":"苹果"}"#,
    r#"{"op":null,"text":"苹果"}"#,
    r#"{"op":"isA","sub":"a","sup":"b","transitive":null}"#,
    r#"{"op":"getEntity","concept":"人物","options":{"transitive":null}}"#,
    r#"{"op":"getEntity","concept":"人物","options":{"minConfidence":null}}"#,
    r#"{"op":"getEntity","concept":"人物","options":{"limit":null,"cursor":null}}"#,
    r#"{"op":"men2ent","mention":"a","op":"launchMissiles"}"#,
    r#"{"op":"launchMissiles","mention":"a","op":"men2ent"}"#,
    r#"{"op":"getEntity","concept":"人物","options":null,"options":{"limit":-1}}"#,
    r#"{"op":"getEntity","concept":"人物","options":{"limit":2,"limit":-1}}"#,
    r#"{"\u006fp":"men2ent","mention":"\ud83d\ude00"}"#,
];

/// The bodies `tests/snapshot_corruption.rs` bounds the allocation of.
fn bounded_bodies() -> Vec<String> {
    let good = r#"{"op":"getEntity","concept":"人物","options":{"limit":10}}"#;
    let mut bodies = vec![good.to_string()];
    for limit in ["4294967295", "18446744073709551615", "1e300", "-1"] {
        bodies.push(good.replace("10", limit));
    }
    bodies.push(format!("{}{}", "[".repeat(64), "]".repeat(64)));
    bodies.push(format!("{}{}", "[".repeat(10_000), "]".repeat(10_000)));
    bodies.push(format!("[{}0]", "0,".repeat(5_000)));
    let text = "文".repeat(5_000);
    bodies.push(format!(r#"{{"op":"tag","text":"{text}"}}"#));
    bodies
}

#[test]
fn readers_match_the_tree_reference_on_hostile_bodies() {
    for body in MALFORMED.iter().chain(HOSTILE_QUERIES) {
        assert_same(body.as_bytes());
        assert_same(format!(r#"{{"queries":[{body}]}}"#).as_bytes());
        assert_same(
            format!(r#"{{"queries":[{{"op":"men2ent","mention":"a"}},{body}]}}"#).as_bytes(),
        );
    }
    for body in bounded_bodies() {
        assert_same(body.as_bytes());
    }
    for batch in [
        r#"{"queries":null}"#,
        r#"{"queries":{}}"#,
        r#"{"queries":null,"queries":[]}"#,
        r#"{"queries":[],"queries":null}"#,
        r#"{"queries":[{"op":"men2ent","mention":"a"}],"queries":[7]}"#,
        r#"{"queries":[7],"other":[}"#,
        r#"[{"queries":[]}]"#,
        r#"{"query":[]}"#,
    ] {
        assert_same(batch.as_bytes());
    }
}

/// A value nested at every depth around the cap, as a whole body, as a
/// query field, inside `options` and as a batch item.
#[test]
fn depth_bombs_error_alike_at_every_level() {
    for depth in 0..=MAX_DEPTH + 3 {
        let arrays = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let objects = format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        let open = "[".repeat(depth);
        for nested in [&arrays, &objects, &open] {
            assert_same(nested.as_bytes());
            assert_same(format!(r#"{{"op":"men2ent","mention":{nested}}}"#).as_bytes());
            assert_same(
                format!(r#"{{"op":"getEntity","concept":"人物","options":{{"limit":{nested}}}}}"#)
                    .as_bytes(),
            );
            assert_same(format!(r#"{{"queries":[{nested}]}}"#).as_bytes());
        }
    }
}

#[test]
fn bodies_that_are_not_utf8_error_alike() {
    for body in [
        &b"\xff"[..],
        b"{\"op\":\"men2ent\",\"mention\":\"\xc3\"}",
        b"{\"op\":\"men2ent\",\"mention\":\"\xed\xa0\x80\"}",
        b"{\"queries\":[]}\x80",
        b"{\"op\":\xfe}",
        b"[1,\xc0\xaf]",
    ] {
        assert_same(body);
    }
}

/// An over-cap batch is refused with 413 before any item is validated, and
/// a syntax error anywhere wins over both.
#[test]
fn over_cap_batches_error_alike() {
    let good = r#"{"op":"men2ent","mention":"刘德华"}"#;
    let bad = r#"{"op":"launchMissiles"}"#;
    for (count, first, tail) in [
        (reference::MAX_BATCH + 1, bad, ""),
        (reference::MAX_BATCH, bad, ""),
        (reference::MAX_BATCH, good, ""),
        (reference::MAX_BATCH + 1, good, ""),
        (reference::MAX_BATCH + 1, bad, ",}"),
    ] {
        let items: Vec<&str> = std::iter::once(first)
            .chain(std::iter::repeat(good).take(count - 1))
            .collect();
        let body = format!(r#"{{"queries":[{}]{tail}}}"#, items.join(","));
        assert_same(body.as_bytes());
    }
    let over: Vec<&str> = std::iter::once(bad)
        .chain(std::iter::repeat(good).take(reference::MAX_BATCH))
        .collect();
    let body = format!(r#"{{"queries":[{}]}}"#, over.join(","));
    let err = wire::read_batch(body.as_bytes(), reference::MAX_BATCH).unwrap_err();
    assert_eq!(err.status(), 413);
}

#[test]
fn every_truncation_of_valid_bodies_errors_alike() {
    for body in [
        r#"{"op":"getEntity","concept":"人物","options":{"transitive":true,"minConfidence":0.5,"limit":10,"cursor":"v1.g1.o10.q00000000deadbeef"}}"#,
        r#"{"op":"isA","sub":"刘\"德\\华","sup":"\ud83d\ude00人物","transitive":true}"#,
        r#"{"text":"刘德华在北京。","options":{"topK":3,"minScore":0.25,"beam":4}}"#,
        r#"{"queries":[{"op":"men2ent","mention":"苹果"},{"op":"ancestorsOf","concept":"演员"}]}"#,
    ] {
        let bytes = body.as_bytes();
        for end in 0..=bytes.len() {
            assert_same(&bytes[..end]);
        }
    }
}
