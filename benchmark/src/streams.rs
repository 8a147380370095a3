//! Request streams: everything a workload sends, rendered to wire bytes
//! *before* the clock starts, as a pure function of the seed.
//!
//! Keys are drawn Zipf(s = 1) over the **whole** vocabulary of the built
//! taxonomy (every mention, every entity key, every concept); 5 % of
//! requests name something that does not exist, for which the typed 404
//! is the correct answer. Which key holds which Zipf rank is fixed by a
//! hash of its name, not by the seed: the seed picks the draws, not the
//! distribution — were the hot concept of `getEntity` a root in one seed
//! and a leaf in the next, seeds would differ by ±30 % in throughput and
//! no two runs could be compared. Each pool is fingerprinted with FNV-1a
//! over its request bytes, so two result files can show they measured
//! the same inputs.

use crate::oracle::Oracle;
use crate::stats::Fnv;
use cnp_serve::{wire, ListOptions, PageRequest, Query, TagOptions};
use cnp_server::http;
use cnp_taxonomy::{DeltaOverlay, IsAMeta, Source};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Share of requests that name an unknown mention / entity / concept.
pub const UNKNOWN_SHARE: f64 = 0.05;
/// Queries per `/v1/batch` request.
pub const BATCH_SIZE: usize = 64;
/// Page abstracts concatenated into one tagging document.
pub const ABSTRACTS_PER_DOC: usize = 8;
/// Sidecars posted back-to-back per ingest burst.
pub const DELTAS_PER_BURST: usize = 5;
/// New entities (and `upsert_entity_is_a` ops) per sidecar.
pub const ENTITIES_PER_DELTA: usize = 8;

/// Zipf(s = 1) over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks.
    pub fn new(n: usize) -> Zipf {
        assert!(n >= 1, "Zipf over an empty vocabulary");
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// The next rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let x = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// A vocabulary in rank order (by name hash, so hot keys are not the
/// lowest ids) with its Zipf sampler.
#[derive(Debug, Clone)]
struct Keys {
    names: Vec<String>,
    zipf: Zipf,
}

impl Keys {
    fn new(mut names: Vec<String>) -> Keys {
        names.sort_by_cached_key(|name| {
            let mut fnv = Fnv::default();
            fnv.update(name.as_bytes());
            (fnv.finish(), name.clone())
        });
        let zipf = Zipf::new(names.len());
        Keys { names, zipf }
    }

    fn zipf<'a>(&'a self, rng: &mut StdRng) -> &'a str {
        &self.names[self.zipf.sample(rng)]
    }
}

/// The three key spaces of the lookup API.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    mentions: Keys,
    entity_keys: Keys,
    concepts: Keys,
}

impl Vocabulary {
    /// Every mention, entity key and concept the oracle knows.
    pub fn new(oracle: &Oracle) -> Vocabulary {
        Vocabulary {
            mentions: Keys::new(oracle.mentions()),
            entity_keys: Keys::new(oracle.entity_keys()),
            concepts: Keys::new(oracle.concepts()),
        }
    }
}

/// What one request asks, kept next to its bytes so a sampled response
/// can be checked against the oracle.
#[derive(Debug, Clone)]
pub enum Payload {
    /// `POST /v1/query`.
    Lookup(Query),
    /// `POST /v1/batch`.
    Batch(Vec<Query>),
    /// `POST /v1/tag`.
    Tag(String),
}

/// One pre-rendered request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The complete HTTP request, as `http::write_request` frames it.
    pub bytes: Vec<u8>,
    /// What it asks.
    pub payload: Payload,
    /// The status a correct server answers with.
    pub status: u16,
}

impl Request {
    /// Queries this request carries (a batch counts each of its 64).
    pub fn queries(&self) -> u64 {
        match &self.payload {
            Payload::Batch(queries) => queries.len() as u64,
            Payload::Lookup(_) | Payload::Tag(_) => 1,
        }
    }

    /// Whether this is tagging traffic.
    pub fn is_tag(&self) -> bool {
        matches!(self.payload, Payload::Tag(_))
    }
}

/// A pool of requests a connection cycles through, plus its fingerprint.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The requests, in send order.
    pub requests: Vec<Request>,
    /// FNV-1a over the concatenated request bytes.
    pub hash: u64,
}

impl Pool {
    fn new(requests: Vec<Request>) -> Pool {
        let mut fnv = Fnv::default();
        for request in &requests {
            fnv.update(&request.bytes);
        }
        Pool {
            hash: fnv.finish(),
            requests,
        }
    }
}

fn frame(target: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(body.len() + 128);
    // Writing into a Vec cannot fail.
    let _ = http::write_request(&mut bytes, "POST", target, Some(body), true);
    bytes
}

fn unknown_name(rng: &mut StdRng) -> String {
    format!("无此条目{:08x}", rng.gen::<u32>())
}

/// A key from `keys`, or (5 % of the time) a name that does not exist.
fn key_or_unknown(keys: &Keys, rng: &mut StdRng) -> String {
    if rng.gen_bool(UNKNOWN_SHARE) {
        unknown_name(rng)
    } else {
        keys.zipf(rng).to_string()
    }
}

fn lookup_request(oracle: &Oracle, query: Query) -> Request {
    let body = wire::encode_query(&query).write();
    Request {
        bytes: frame("/v1/query", body.as_bytes()),
        status: oracle.expected_status(&query),
        payload: Payload::Lookup(query),
    }
}

/// One query of the paper's Table II call mix: `men2ent` 53 %,
/// `getEntity` 31 % (transitive, first page of 10), `getConcept` 16 %
/// (transitive) — 43.9 M / 25.8 M / 13.8 M calls in §V.
fn table2_query(vocab: &Vocabulary, rng: &mut StdRng) -> Query {
    let roll = rng.gen_range(0..100u32);
    if roll < 53 {
        Query::men2ent(key_or_unknown(&vocab.mentions, rng))
    } else if roll < 84 {
        Query::GetEntity {
            concept: key_or_unknown(&vocab.concepts, rng),
            options: ListOptions::transitive().with_page(PageRequest::first(10)),
        }
    } else {
        Query::GetConcept {
            entity: key_or_unknown(&vocab.entity_keys, rng),
            options: ListOptions::transitive(),
        }
    }
}

/// One query drawn uniformly from all seven lookup operations.
fn any_lookup(vocab: &Vocabulary, rng: &mut StdRng) -> Query {
    match rng.gen_range(0..7u32) {
        0 => Query::men2ent(key_or_unknown(&vocab.mentions, rng)),
        1 => Query::GetConceptByMention {
            mention: key_or_unknown(&vocab.mentions, rng),
            options: ListOptions::transitive(),
        },
        2 => Query::GetEntity {
            concept: key_or_unknown(&vocab.concepts, rng),
            options: ListOptions::transitive().with_page(PageRequest::first(10)),
        },
        3 => Query::GetConcept {
            entity: key_or_unknown(&vocab.entity_keys, rng),
            options: ListOptions::transitive(),
        },
        4 => Query::MentionSenses {
            mention: key_or_unknown(&vocab.mentions, rng),
        },
        5 => Query::IsA {
            sub: key_or_unknown(&vocab.mentions, rng),
            sup: vocab.concepts.zipf(rng).to_string(),
            transitive: true,
        },
        _ => Query::AncestorsOf {
            concept: key_or_unknown(&vocab.concepts, rng),
        },
    }
}

fn stream_rng(seed: u64, stream: &str) -> StdRng {
    let mut fnv = Fnv::default();
    fnv.update(stream.as_bytes());
    StdRng::seed_from_u64(seed ^ fnv.finish())
}

/// `point_lookup`: `n` single queries in the Table II mix.
pub fn point_lookups(oracle: &Oracle, vocab: &Vocabulary, seed: u64, n: usize) -> Pool {
    let mut rng = stream_rng(seed, "point_lookup");
    Pool::new(
        (0..n)
            .map(|_| lookup_request(oracle, table2_query(vocab, &mut rng)))
            .collect(),
    )
}

/// `batch_lookup`: `n` batches of [`BATCH_SIZE`] queries, uniform over
/// the seven lookup operations. A batch always answers 200; each inner
/// response carries its own result or typed error.
pub fn batch_lookups(vocab: &Vocabulary, seed: u64, n: usize) -> Pool {
    let mut rng = stream_rng(seed, "batch_lookup");
    Pool::new(
        (0..n)
            .map(|_| {
                let queries: Vec<Query> = (0..BATCH_SIZE)
                    .map(|_| any_lookup(vocab, &mut rng))
                    .collect();
                let body = cnp_serve::json::Json::Obj(vec![(
                    "queries".to_string(),
                    cnp_serve::json::Json::Arr(queries.iter().map(wire::encode_query).collect()),
                )])
                .write();
                Request {
                    bytes: frame("/v1/batch", body.as_bytes()),
                    status: 200,
                    payload: Payload::Batch(queries),
                }
            })
            .collect(),
    )
}

/// `tag_docs`: `n` documents, each [`ABSTRACTS_PER_DOC`] page abstracts
/// of the generated corpus concatenated — paragraphs, the shape of a
/// classification input, not the 2–4-mention strings `cnp_load` sends.
pub fn tag_docs(abstracts: &[&str], seed: u64, n: usize) -> Pool {
    assert!(!abstracts.is_empty(), "corpus has no abstracts");
    let mut rng = stream_rng(seed, "tag_docs");
    let options = TagOptions::default();
    Pool::new(
        (0..n)
            .map(|_| {
                let text: String = (0..ABSTRACTS_PER_DOC)
                    .map(|_| abstracts[rng.gen_range(0..abstracts.len())])
                    .collect();
                let body = wire::encode_query(&Query::Tag {
                    text: text.clone(),
                    options: options.clone(),
                })
                .write();
                Request {
                    bytes: frame("/v1/tag", body.as_bytes()),
                    status: 200,
                    payload: Payload::Tag(text),
                }
            })
            .collect(),
    )
}

/// `mixed_ingest`'s query connection: 75 % of the `point_lookup` stream,
/// 25 % of the `tag_docs` stream, interleaved by a seeded coin.
pub fn mixed_queries(
    oracle: &Oracle,
    vocab: &Vocabulary,
    abstracts: &[&str],
    seed: u64,
    n: usize,
) -> Pool {
    let mut rng = stream_rng(seed, "mixed_ingest");
    let lookups = point_lookups(oracle, vocab, seed, n).requests;
    let tags = tag_docs(abstracts, seed, n / 2).requests;
    let (mut lookups, mut tags) = (lookups.into_iter(), tags.into_iter());
    let mut requests = Vec::with_capacity(n);
    while requests.len() < n {
        let next = if rng.gen_bool(0.25) {
            tags.next()
        } else {
            lookups.next()
        };
        match next {
            Some(request) => requests.push(request),
            None => break,
        }
    }
    Pool::new(requests)
}

/// One synthetic sidecar and what it adds.
#[derive(Debug, Clone)]
pub struct Delta {
    /// `POST /admin/ingest` with the `CNPD` bytes as body.
    pub bytes: Vec<u8>,
    /// `(entity name, concept)` pairs the sidecar adds.
    pub adds: Vec<(String, String)>,
}

/// The `index`-th sidecar of a run: [`ENTITIES_PER_DELTA`] fresh entities,
/// each filed under a Zipf-drawn existing concept. Pure in
/// `(vocabulary, seed, index)`.
pub fn delta(vocab: &Vocabulary, seed: u64, index: usize) -> Delta {
    let mut rng = stream_rng(seed, &format!("delta-{index}"));
    let mut overlay = DeltaOverlay::new();
    let mut adds = Vec::with_capacity(ENTITIES_PER_DELTA);
    for j in 0..ENTITIES_PER_DELTA {
        let name = format!("压测实体_{seed}_{index}_{j}");
        let concept = vocab.concepts.zipf(&mut rng).to_string();
        overlay.add_entity(&name, None);
        overlay.upsert_entity_is_a(
            &name,
            None,
            &concept,
            IsAMeta::new(Source::Import, 0.5 + j as f32 * 0.05),
        );
        adds.push((name, concept));
    }
    Delta {
        bytes: frame("/admin/ingest", &overlay.encode()),
        adds,
    }
}

/// The reference stream the per-layer probes take their keys from, as
/// request bytes: 2 048 single lookups and 32 batches uniform over the
/// seven ops, 256 documents, 8 sidecars.
pub fn reference_stream(vocab: &Vocabulary, abstracts: &[&str], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = stream_rng(seed, "reference");
    let mut stream: Vec<Vec<u8>> = (0..2048)
        .map(|_| {
            let body = wire::encode_query(&any_lookup(vocab, &mut rng)).write();
            frame("/v1/query", body.as_bytes())
        })
        .collect();
    let pools = [
        batch_lookups(vocab, seed ^ 1, 32),
        tag_docs(abstracts, seed ^ 1, 256),
    ];
    stream.extend(pools.into_iter().flat_map(|p| p.requests).map(|r| r.bytes));
    stream.extend((0..8).map(|i| delta(vocab, seed ^ 1, i).bytes));
    stream
}

/// The `men2ent` request that must find an ingested entity.
pub fn readback(name: &str) -> Vec<u8> {
    let body = wire::encode_query(&Query::men2ent(name)).write();
    frame("/v1/query", body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seeded_skewed_and_in_range() {
        let zipf = Zipf::new(1000);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20_000).map(|_| zipf.sample(&mut rng)).collect()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&r| r < 1000));
        // H(1000) ≈ 7.485: rank 0 carries ≈ 13.4 % of the mass, the top
        // ten ≈ 39 %, and the tail is still reached.
        let share = |k: usize| a.iter().filter(|&&r| r < k).count() as f64 / a.len() as f64;
        assert!((share(1) - 0.134).abs() < 0.02, "rank-0 share {}", share(1));
        assert!(
            (share(10) - 0.391).abs() < 0.02,
            "top-10 share {}",
            share(10)
        );
        assert!(a.iter().any(|&r| r >= 900));
        assert_eq!(Zipf::new(1).sample(&mut StdRng::seed_from_u64(3)), 0);
    }

    #[test]
    fn equal_seeds_give_byte_identical_streams_and_other_seeds_do_not() {
        let oracle = Oracle::new(&crate::oracle::tests::small_store());
        let abstracts = [
            "刘德华是中国香港男演员。",
            "张学友是歌手。",
            "演员是人物的一种。",
        ];
        let pools = |seed: u64| {
            let vocab = Vocabulary::new(&oracle);
            let deltas: Vec<Vec<u8>> = (0..3).map(|i| delta(&vocab, seed, i).bytes).collect();
            (
                point_lookups(&oracle, &vocab, seed, 200).hash,
                batch_lookups(&vocab, seed, 10).hash,
                tag_docs(&abstracts, seed, 50).hash,
                mixed_queries(&oracle, &vocab, &abstracts, seed, 200).hash,
                deltas,
            )
        };
        assert_eq!(pools(42), pools(42));
        let (a, b) = (pools(42), pools(43));
        assert!(a.0 != b.0 && a.1 != b.1 && a.2 != b.2 && a.3 != b.3 && a.4 != b.4);
    }

    #[test]
    fn streams_have_the_stated_shape() {
        let oracle = Oracle::new(&crate::oracle::tests::small_store());
        let vocab = Vocabulary::new(&oracle);
        let points = point_lookups(&oracle, &vocab, 5, 4000);
        let share = |pred: fn(&Query) -> bool| {
            points
                .requests
                .iter()
                .filter(|r| matches!(&r.payload, Payload::Lookup(q) if pred(q)))
                .count() as f64
                / 4000.0
        };
        assert!((share(|q| matches!(q, Query::Men2Ent { .. })) - 0.53).abs() < 0.03);
        assert!((share(|q| matches!(q, Query::GetEntity { .. })) - 0.31).abs() < 0.03);
        assert!((share(|q| matches!(q, Query::GetConcept { .. })) - 0.16).abs() < 0.03);
        let unknown = points.requests.iter().filter(|r| r.status == 404).count() as f64 / 4000.0;
        assert!(
            (unknown - UNKNOWN_SHARE).abs() < 0.015,
            "unknown share {unknown}"
        );
        assert!(points
            .requests
            .iter()
            .all(|r| r.bytes.starts_with(b"POST /v1/query HTTP/1.1\r\n")));

        let batches = batch_lookups(&vocab, 5, 4);
        assert!(batches
            .requests
            .iter()
            .all(|r| r.queries() == BATCH_SIZE as u64));

        let mixed = mixed_queries(&oracle, &vocab, &["张学友是歌手。"], 5, 2000);
        let tags = mixed.requests.iter().filter(|r| r.is_tag()).count() as f64 / 2000.0;
        assert!((tags - 0.25).abs() < 0.04, "tag share {tags}");

        let sidecar = delta(&vocab, 5, 7);
        assert_eq!(sidecar.adds.len(), ENTITIES_PER_DELTA);
        assert!(sidecar
            .adds
            .iter()
            .all(|(e, _)| e.starts_with("压测实体_5_7_")));
        assert!(sidecar
            .bytes
            .starts_with(b"POST /admin/ingest HTTP/1.1\r\n"));
    }
}
