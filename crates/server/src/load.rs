//! The load harness behind the `cnp_load` binary: drive N concurrent
//! connections of mixed Table II traffic at a running [`crate::serve`]
//! front-end, measure end-to-end latency, and emit a machine-readable
//! JSON report — the artifact CI archives and future PRs regress against.
//!
//! Determinism: the workload is a pure function of `(vocab, seed,
//! connections, requests)`. Each connection gets its own
//! `StdRng::seed_from_u64(seed + index)`, so two runs against the same
//! snapshot issue byte-identical query streams (timing, of course,
//! varies).

use crate::http;
use cnp_serve::json::Json;
use cnp_serve::{wire, ListOptions, PageRequest, Query, TagOptions};
use cnp_taxonomy::{
    DeltaOverlay, FrozenTaxonomy, FrozenTaxonomyView, IsAMeta, PersistError, Source,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Query names in the workload mix, in emission-weight order.
pub const MIX_OPS: [&str; 7] = [
    "men2ent",
    "getConceptByMention",
    "getEntity",
    "getConcept",
    "mentionSenses",
    "isA",
    "ancestorsOf",
];

/// Relative weights of [`MIX_OPS`] — the Table II read mix: mention
/// resolution dominates (the paper reports 43.9 M `men2ent` calls, §V),
/// concept/entity listing follows, navigation queries trail.
pub const MIX_WEIGHTS: [u32; 7] = [30, 20, 20, 10, 10, 5, 5];

/// The probe vocabulary the generator draws from: names that exist in the
/// snapshot being served, so the expected outcome of every query is `Ok`.
#[derive(Debug, Clone)]
pub struct ProbeVocab {
    /// Mentions that resolve to at least one sense with concepts.
    pub mentions: Vec<String>,
    /// Full entity display keys.
    pub entity_keys: Vec<String>,
    /// Concepts with at least one hyponym entity.
    pub concepts: Vec<String>,
}

impl ProbeVocab {
    /// Harvests a probe vocabulary from a frozen snapshot (bounded: at
    /// most 512 of each, in snapshot id order — deterministic).
    pub fn from_frozen(f: &FrozenTaxonomy) -> ProbeVocab {
        const CAP: usize = 512;
        let mut mentions = Vec::new();
        let mut entity_keys = Vec::new();
        for e in f.entity_ids() {
            if f.concepts_of(e).is_empty() {
                continue;
            }
            if mentions.len() < CAP {
                mentions.push(f.resolve(f.entity(e).name).to_string());
            }
            if entity_keys.len() < CAP {
                entity_keys.push(f.entity_key(e));
            }
            if mentions.len() >= CAP && entity_keys.len() >= CAP {
                break;
            }
        }
        let concepts = f
            .concept_ids()
            .filter(|&c| !f.entities_of(c).is_empty())
            .take(CAP)
            .map(|c| f.concept_name(c).to_string())
            .collect();
        ProbeVocab {
            mentions,
            entity_keys,
            concepts,
        }
    }

    /// [`ProbeVocab::from_frozen`] on a snapshot file.
    pub fn from_snapshot_file(path: &Path) -> Result<ProbeVocab, PersistError> {
        Ok(Self::from_frozen(
            &FrozenTaxonomyView::load_from_file(path)?.to_frozen()?,
        ))
    }

    /// Whether the vocabulary can drive the full mix.
    pub fn is_usable(&self) -> bool {
        !self.mentions.is_empty() && !self.entity_keys.is_empty() && !self.concepts.is_empty()
    }

    fn pick<'a>(&self, pool: &'a [String], rng: &mut StdRng) -> &'a str {
        &pool[rng.gen_range(0..pool.len())]
    }

    /// The next document of the deterministic tagging stream: a short
    /// synthetic text stitched from snapshot mentions, so the tagger hits
    /// real vocabulary (and pays real segmentation + scoring cost) on
    /// every request.
    pub fn next_tag_query(&self, rng: &mut StdRng) -> Query {
        let n = rng.gen_range(2..=4);
        let mut text = String::new();
        for k in 0..n {
            if k > 0 {
                text.push_str(if k % 2 == 0 { "和" } else { "、" });
            }
            text.push_str(self.pick(&self.mentions, rng));
        }
        text.push('。');
        Query::Tag {
            text,
            options: TagOptions::default(),
        }
    }

    /// The `index`-th query of the deterministic stream for `rng`.
    pub fn next_query(&self, rng: &mut StdRng) -> Query {
        let total: u32 = MIX_WEIGHTS.iter().sum();
        let mut roll = rng.gen_range(0..total);
        // cnp-lint: allow(no-panic-serving-path) reason="MIX_OPS is a non-empty const array; [0] is the fallback before the weighted scan"
        let mut op = MIX_OPS[0];
        for (name, weight) in MIX_OPS.iter().zip(MIX_WEIGHTS) {
            if roll < weight {
                op = name;
                break;
            }
            roll -= weight;
        }
        match op {
            "men2ent" => Query::men2ent(self.pick(&self.mentions, rng)),
            "getConceptByMention" => Query::GetConceptByMention {
                mention: self.pick(&self.mentions, rng).to_string(),
                options: ListOptions::transitive(),
            },
            "getEntity" => Query::GetEntity {
                concept: self.pick(&self.concepts, rng).to_string(),
                options: ListOptions::transitive().with_page(PageRequest::first(10)),
            },
            "getConcept" => Query::GetConcept {
                entity: self.pick(&self.entity_keys, rng).to_string(),
                options: ListOptions::transitive(),
            },
            "mentionSenses" => Query::MentionSenses {
                mention: self.pick(&self.mentions, rng).to_string(),
            },
            "isA" => Query::IsA {
                sub: self.pick(&self.mentions, rng).to_string(),
                sup: self.pick(&self.concepts, rng).to_string(),
                transitive: true,
            },
            _ => Query::AncestorsOf {
                concept: self.pick(&self.concepts, rng).to_string(),
            },
        }
    }
}

/// Workload shape for [`run`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections (one runtime task each).
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Workload seed; same seed ⇒ same query stream.
    pub seed: u64,
    /// Delta sidecars to `POST /admin/ingest` *while* the query workload
    /// runs (`0` disables the ingest phase). Each delta adds a batch of
    /// synthetic entities under existing vocabulary concepts, so every
    /// apply is a real generation bump under live reads.
    pub ingest_deltas: usize,
    /// Fraction of requests issued as tagging traffic against `/v1/tag`
    /// (`0.0` disables the tag workload, `1.0` is tag-only). Tag
    /// documents are synthesized deterministically from the probe
    /// vocabulary's mentions.
    pub tag_ratio: f64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7077".to_string(),
            connections: 8,
            requests: 4000,
            seed: 42,
            ingest_deltas: 0,
            tag_ratio: 0.0,
        }
    }
}

/// Outcome counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadCounts {
    /// Requests that produced a parseable `200` envelope.
    pub ok: u64,
    /// Typed query refusals (404/400/409 with a protocol error body) —
    /// served answers, counted separately from wire failures.
    pub query_error: u64,
    /// `429` admission refusals.
    pub overloaded: u64,
    /// Anything that violates the protocol: connect/write/read failures,
    /// unparseable responses, unexpected statuses.
    pub protocol_error: u64,
    /// Subset of [`LoadCounts::protocol_error`] incurred by tag requests
    /// — gated to zero by the serving-load smoke, independently of the
    /// lookup traffic.
    pub tag_protocol_error: u64,
}

/// The measured outcome of the optional ingest phase.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Deltas acknowledged with `200 {"status":"ingested"}`.
    pub ok: u64,
    /// Deltas refused or lost on the wire.
    pub failed: u64,
    /// Wire-level overlay-apply latencies in microseconds, sorted
    /// ascending (decode + fold + swap as the client observes it).
    pub apply_latencies_us: Vec<u64>,
    /// Generations the acknowledgements reported, in apply order.
    pub generations: Vec<u64>,
}

/// The measured result of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Echo of the workload shape.
    pub config: LoadConfig,
    /// Outcome counters (summing to `config.requests`).
    pub counts: LoadCounts,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Served-request latencies in microseconds, sorted ascending
    /// (lookup and tag traffic merged).
    pub latencies_us: Vec<u64>,
    /// Served lookup-request latencies only, sorted ascending.
    pub lookup_latencies_us: Vec<u64>,
    /// Served tag-request latencies only, sorted ascending.
    pub tag_latencies_us: Vec<u64>,
    /// Tag requests issued (served or not).
    pub tag_issued: u64,
    /// Per-op issue counts, aligned with [`MIX_OPS`].
    pub per_op: [u64; 7],
    /// Ingest-phase outcome; `None` when `ingest_deltas == 0`.
    pub ingest: Option<IngestStats>,
}

/// The `q`-quantile of an ascending-sorted latency vector.
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (q * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

impl LoadReport {
    /// Served requests (ok + typed query errors) per second.
    pub fn qps(&self) -> f64 {
        let served = self.counts.ok + self.counts.query_error;
        if self.elapsed.as_secs_f64() > 0.0 {
            served as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }

    /// The `q`-quantile latency in microseconds (e.g. `0.99` for p99),
    /// over all served traffic.
    pub fn percentile_us(&self, q: f64) -> u64 {
        percentile(&self.latencies_us, q)
    }

    /// [`LoadReport::percentile_us`] over the tag traffic only.
    pub fn tag_percentile_us(&self, q: f64) -> u64 {
        percentile(&self.tag_latencies_us, q)
    }

    /// Mean served latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.iter().sum::<u64>() as f64 / self.latencies_us.len() as f64
    }

    /// The machine-readable report (the `BENCH_*.json` `load` section).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "workload".to_string(),
                Json::Obj(vec![
                    ("addr".to_string(), Json::str(self.config.addr.clone())),
                    (
                        "connections".to_string(),
                        Json::num(self.config.connections as f64),
                    ),
                    (
                        "requests".to_string(),
                        Json::num(self.config.requests as f64),
                    ),
                    ("seed".to_string(), Json::num(self.config.seed as f64)),
                    ("tagRatio".to_string(), Json::num(self.config.tag_ratio)),
                ]),
            ),
            (
                "counts".to_string(),
                Json::Obj(vec![
                    ("ok".to_string(), Json::num(self.counts.ok as f64)),
                    (
                        "queryError".to_string(),
                        Json::num(self.counts.query_error as f64),
                    ),
                    (
                        "overloaded".to_string(),
                        Json::num(self.counts.overloaded as f64),
                    ),
                    (
                        "protocolError".to_string(),
                        Json::num(self.counts.protocol_error as f64),
                    ),
                    (
                        "tagProtocolError".to_string(),
                        Json::num(self.counts.tag_protocol_error as f64),
                    ),
                ]),
            ),
            (
                "latencyByKindUs".to_string(),
                Json::Obj(
                    [
                        ("lookup", &self.lookup_latencies_us),
                        ("tag", &self.tag_latencies_us),
                    ]
                    .into_iter()
                    .map(|(kind, sorted)| {
                        (
                            kind.to_string(),
                            Json::Obj(vec![
                                ("requests".to_string(), Json::num(sorted.len() as f64)),
                                (
                                    "p50".to_string(),
                                    Json::num(percentile(sorted, 0.50) as f64),
                                ),
                                (
                                    "p90".to_string(),
                                    Json::num(percentile(sorted, 0.90) as f64),
                                ),
                                (
                                    "p99".to_string(),
                                    Json::num(percentile(sorted, 0.99) as f64),
                                ),
                                (
                                    "max".to_string(),
                                    Json::num(sorted.last().copied().unwrap_or(0) as f64),
                                ),
                            ]),
                        )
                    })
                    .collect(),
                ),
            ),
            (
                "latencyUs".to_string(),
                Json::Obj(vec![
                    (
                        "p50".to_string(),
                        Json::num(self.percentile_us(0.50) as f64),
                    ),
                    (
                        "p90".to_string(),
                        Json::num(self.percentile_us(0.90) as f64),
                    ),
                    (
                        "p99".to_string(),
                        Json::num(self.percentile_us(0.99) as f64),
                    ),
                    (
                        "p999".to_string(),
                        Json::num(self.percentile_us(0.999) as f64),
                    ),
                    (
                        "max".to_string(),
                        Json::num(self.latencies_us.last().copied().unwrap_or(0) as f64),
                    ),
                    ("meanUs".to_string(), Json::num(self.mean_us())),
                ]),
            ),
            (
                "elapsedSecs".to_string(),
                Json::num(self.elapsed.as_secs_f64()),
            ),
            ("qps".to_string(), Json::num(self.qps())),
            (
                "perOp".to_string(),
                Json::Obj(
                    MIX_OPS
                        .iter()
                        .zip(self.per_op)
                        .map(|(op, n)| ((*op).to_string(), Json::num(n as f64)))
                        .collect(),
                ),
            ),
        ];
        if let Some(ingest) = &self.ingest {
            let quantile = |q: f64| -> f64 {
                if ingest.apply_latencies_us.is_empty() {
                    return 0.0;
                }
                let rank = (q * ingest.apply_latencies_us.len() as f64).ceil() as usize;
                ingest.apply_latencies_us[rank.clamp(1, ingest.apply_latencies_us.len()) - 1] as f64
            };
            fields.push((
                "ingest".to_string(),
                Json::Obj(vec![
                    (
                        "deltas".to_string(),
                        Json::num(self.config.ingest_deltas as f64),
                    ),
                    ("ok".to_string(), Json::num(ingest.ok as f64)),
                    ("failed".to_string(), Json::num(ingest.failed as f64)),
                    (
                        "applyLatencyUs".to_string(),
                        Json::Obj(vec![
                            ("p50".to_string(), Json::num(quantile(0.50))),
                            ("max".to_string(), Json::num(quantile(1.0))),
                        ]),
                    ),
                    (
                        "generationStart".to_string(),
                        Json::num(ingest.generations.first().copied().unwrap_or(0) as f64),
                    ),
                    (
                        "generationEnd".to_string(),
                        Json::num(ingest.generations.last().copied().unwrap_or(0) as f64),
                    ),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// CI gate: zero protocol errors (query, tag *and* ingest side), and
    /// (optionally) a p99 bound.
    pub fn check(&self, max_p99_ms: Option<f64>) -> Result<(), String> {
        if self.counts.tag_protocol_error > 0 {
            return Err(format!(
                "{} tag protocol error(s) on the wire",
                self.counts.tag_protocol_error
            ));
        }
        if self.counts.protocol_error > 0 {
            return Err(format!(
                "{} protocol error(s) on the wire",
                self.counts.protocol_error
            ));
        }
        if self.config.tag_ratio > 0.0 && self.tag_issued == 0 {
            return Err("tag ratio set but no tag requests were issued".to_string());
        }
        if let Some(ingest) = &self.ingest {
            if ingest.failed > 0 {
                return Err(format!("{} delta ingest(s) failed", ingest.failed));
            }
            let monotonic = ingest
                .generations
                .iter()
                .zip(ingest.generations.iter().skip(1))
                .all(|(a, b)| a < b);
            if !monotonic {
                return Err(format!(
                    "ingest generations not strictly monotonic: {:?}",
                    ingest.generations
                ));
            }
        }
        if let Some(bound) = max_p99_ms {
            let p99_ms = self.percentile_us(0.99) as f64 / 1000.0;
            if p99_ms > bound {
                return Err(format!(
                    "p99 {p99_ms:.2} ms exceeds the {bound:.2} ms bound"
                ));
            }
        }
        Ok(())
    }
}

struct WorkerOutcome {
    lookup_latencies_us: Vec<u64>,
    tag_latencies_us: Vec<u64>,
    tag_issued: u64,
    counts: LoadCounts,
    per_op: [u64; 7],
}

/// [`MIX_OPS`] index of a lookup query; `None` for tagging queries,
/// which are counted in their own bucket.
fn op_index(query: &Query) -> Option<usize> {
    match query {
        Query::Men2Ent { .. } => Some(0),
        Query::GetConceptByMention { .. } => Some(1),
        Query::GetEntity { .. } => Some(2),
        Query::GetConcept { .. } => Some(3),
        Query::MentionSenses { .. } => Some(4),
        Query::IsA { .. } => Some(5),
        Query::AncestorsOf { .. } => Some(6),
        Query::Tag { .. } | Query::Classify { .. } => None,
    }
}

/// One persistent client connection; reconnects transparently when the
/// server closes it (after a 429 or an error response).
struct Client {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
    writer: Option<BufWriter<TcpStream>>,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            reader: None,
            writer: None,
        }
    }

    fn ensure_connected(&mut self) -> std::io::Result<()> {
        if self.writer.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        self.reader = Some(BufReader::new(stream.try_clone()?));
        self.writer = Some(BufWriter::new(stream));
        Ok(())
    }

    fn disconnect(&mut self) {
        self.reader = None;
        self.writer = None;
    }

    /// One request/response exchange; `Err` is a wire-level failure.
    fn exchange(&mut self, body: &[u8]) -> Result<http::ClientResponse, http::HttpError> {
        self.exchange_at("/v1/query", body)
    }

    /// [`Client::exchange`] against an arbitrary endpoint (ingest phase).
    fn exchange_at(
        &mut self,
        path: &str,
        body: &[u8],
    ) -> Result<http::ClientResponse, http::HttpError> {
        self.ensure_connected()?;
        let (Some(writer), Some(reader)) = (self.writer.as_mut(), self.reader.as_mut()) else {
            return Err(http::HttpError::Malformed("connection lost after connect"));
        };
        http::write_request(writer, "POST", path, Some(body), true)?;
        match http::read_client_response(reader, http::MAX_BODY_BYTES)? {
            Some(response) => {
                if !response.keep_alive {
                    self.disconnect();
                }
                Ok(response)
            }
            None => {
                self.disconnect();
                Err(http::HttpError::Malformed("server closed mid-exchange"))
            }
        }
    }
}

fn run_worker(
    index: usize,
    config: &LoadConfig,
    vocab: &ProbeVocab,
    requests: usize,
) -> WorkerOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(index as u64));
    let mut client = Client::new(&config.addr);
    let mut outcome = WorkerOutcome {
        lookup_latencies_us: Vec::with_capacity(requests),
        tag_latencies_us: Vec::new(),
        tag_issued: 0,
        counts: LoadCounts::default(),
        per_op: [0; 7],
    };
    for _ in 0..requests {
        // The kind roll comes first so the stream stays a pure function
        // of the seed whatever the ratio does to each branch's rng use.
        let is_tag = config.tag_ratio > 0.0 && rng.gen::<f64>() < config.tag_ratio;
        let query = if is_tag {
            vocab.next_tag_query(&mut rng)
        } else {
            vocab.next_query(&mut rng)
        };
        if is_tag {
            outcome.tag_issued += 1;
        } else if let Some(op) = op_index(&query) {
            outcome.per_op[op] += 1;
        }
        let body = wire::encode_query(&query).write();
        let start = Instant::now();
        // Tag traffic exercises the dedicated endpoint, not /v1/query —
        // the smoke covers the route a tagging client would actually hit.
        let exchanged = if is_tag {
            client.exchange_at("/v1/tag", body.as_bytes())
        } else {
            client.exchange(body.as_bytes())
        };
        let response = match exchanged {
            Ok(response) => response,
            Err(_) => {
                client.disconnect();
                outcome.counts.protocol_error += 1;
                if is_tag {
                    outcome.counts.tag_protocol_error += 1;
                }
                continue;
            }
        };
        let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let latencies = if is_tag {
            &mut outcome.tag_latencies_us
        } else {
            &mut outcome.lookup_latencies_us
        };
        let mut protocol_error = || {
            outcome.counts.protocol_error += 1;
            if is_tag {
                outcome.counts.tag_protocol_error += 1;
            }
        };
        match response.status {
            200 => match parse_envelope(&response.body) {
                Ok(()) => {
                    outcome.counts.ok += 1;
                    latencies.push(elapsed_us);
                }
                Err(()) => protocol_error(),
            },
            404 | 400 | 409 => match parse_envelope(&response.body) {
                Ok(()) => {
                    outcome.counts.query_error += 1;
                    latencies.push(elapsed_us);
                }
                Err(()) => protocol_error(),
            },
            429 => outcome.counts.overloaded += 1,
            _ => protocol_error(),
        }
    }
    outcome
}

/// The `k`-th synthetic delta of the ingest phase: a batch of fresh
/// entities filed under existing vocabulary concepts. Pure function of
/// `(vocab, seed, k)`, like the query stream.
fn synthetic_delta(vocab: &ProbeVocab, seed: u64, k: usize) -> DeltaOverlay {
    let mut delta = DeltaOverlay::new();
    for j in 0..8 {
        let name = format!("压测实体_{seed}_{k}_{j}");
        let concept = &vocab.concepts[(k * 8 + j) % vocab.concepts.len()];
        delta.add_entity(&name, None);
        delta.upsert_entity_is_a(
            &name,
            None,
            concept,
            IsAMeta::new(Source::Import, 0.5 + (j as f32) * 0.05),
        );
    }
    delta
}

/// The ingest phase: posts `config.ingest_deltas` sidecars spaced out over
/// the run, so the applies land while the query workers are mid-flight.
fn run_ingester(config: &LoadConfig, vocab: &ProbeVocab) -> IngestStats {
    let mut client = Client::new(&config.addr);
    let mut stats = IngestStats::default();
    for k in 0..config.ingest_deltas {
        std::thread::sleep(Duration::from_millis(50));
        let body = synthetic_delta(vocab, config.seed, k).encode();
        let start = Instant::now();
        let ok = match client.exchange_at("/admin/ingest", &body) {
            Ok(response) if response.status == 200 => {
                match std::str::from_utf8(&response.body)
                    .ok()
                    .and_then(|text| Json::parse(text).ok())
                    .and_then(|doc| doc.get("generation").and_then(Json::as_u64))
                {
                    Some(generation) => {
                        stats.generations.push(generation);
                        true
                    }
                    None => false,
                }
            }
            Ok(_) | Err(_) => {
                client.disconnect();
                false
            }
        };
        if ok {
            let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            stats.apply_latencies_us.push(elapsed_us);
            stats.ok += 1;
        } else {
            stats.failed += 1;
        }
    }
    stats.apply_latencies_us.sort_unstable();
    stats
}

/// Validates that a response body is a well-formed protocol envelope.
fn parse_envelope(body: &[u8]) -> Result<(), ()> {
    let text = std::str::from_utf8(body).map_err(|_| ())?;
    let doc = Json::parse(text).map_err(|_| ())?;
    if doc.get("generation").is_some() {
        wire::decode_response(&doc).map(|_| ()).map_err(|_| ())
    } else if doc.get("error").is_some() {
        // Server-level error body ({"error":{"kind":…}}), e.g. badRequest.
        Ok(())
    } else {
        Err(())
    }
}

/// Drives the workload and collects the merged report.
///
/// Runs one [`cnp_runtime::Runtime`] task per connection (task
/// granularity 1, so every connection drives concurrently); each issues
/// its deterministic share of the mixed query stream and measures every
/// exchange end to end.
pub fn run(config: &LoadConfig, vocab: &ProbeVocab) -> LoadReport {
    assert!(vocab.is_usable(), "probe vocabulary is empty");
    let connections = config.connections.max(1);
    let per_worker = config.requests / connections;
    let remainder = config.requests % connections;
    // The ingest phase, when enabled, rides as one extra concurrent task
    // so the deltas land while the query workers are mid-flight.
    let ingesting = config.ingest_deltas > 0;
    let tasks = connections + usize::from(ingesting);
    let rt = cnp_runtime::Runtime::new(tasks);
    let start = Instant::now();
    enum TaskOutcome {
        Worker(WorkerOutcome),
        Ingest(IngestStats),
    }
    let outcomes: Vec<TaskOutcome> = rt.par_tasks(tasks, |i| {
        if i < connections {
            let requests = per_worker + usize::from(i < remainder);
            TaskOutcome::Worker(run_worker(i, config, vocab, requests))
        } else {
            TaskOutcome::Ingest(run_ingester(config, vocab))
        }
    });
    let elapsed = start.elapsed();

    let mut lookup_latencies_us = Vec::new();
    let mut tag_latencies_us = Vec::new();
    let mut tag_issued = 0;
    let mut counts = LoadCounts::default();
    let mut per_op = [0u64; 7];
    let mut ingest = None;
    for outcome in outcomes {
        let outcome = match outcome {
            TaskOutcome::Worker(outcome) => outcome,
            TaskOutcome::Ingest(stats) => {
                ingest = Some(stats);
                continue;
            }
        };
        lookup_latencies_us.extend(outcome.lookup_latencies_us);
        tag_latencies_us.extend(outcome.tag_latencies_us);
        tag_issued += outcome.tag_issued;
        counts.ok += outcome.counts.ok;
        counts.query_error += outcome.counts.query_error;
        counts.overloaded += outcome.counts.overloaded;
        counts.protocol_error += outcome.counts.protocol_error;
        counts.tag_protocol_error += outcome.counts.tag_protocol_error;
        for (total, n) in per_op.iter_mut().zip(outcome.per_op) {
            *total += n;
        }
    }
    let mut latencies_us = Vec::with_capacity(lookup_latencies_us.len() + tag_latencies_us.len());
    latencies_us.extend_from_slice(&lookup_latencies_us);
    latencies_us.extend_from_slice(&tag_latencies_us);
    latencies_us.sort_unstable();
    lookup_latencies_us.sort_unstable();
    tag_latencies_us.sort_unstable();
    LoadReport {
        config: config.clone(),
        counts,
        elapsed,
        latencies_us,
        lookup_latencies_us,
        tag_latencies_us,
        tag_issued,
        per_op,
        ingest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latencies: Vec<u64>) -> LoadReport {
        LoadReport {
            config: LoadConfig::default(),
            counts: LoadCounts {
                ok: latencies.len() as u64,
                ..LoadCounts::default()
            },
            elapsed: Duration::from_secs(2),
            lookup_latencies_us: latencies.clone(),
            tag_latencies_us: Vec::new(),
            tag_issued: 0,
            latencies_us: latencies,
            per_op: [0; 7],
            ingest: None,
        }
    }

    #[test]
    fn percentiles_match_definition() {
        let r = report((1..=1000).collect());
        assert_eq!(r.percentile_us(0.50), 500);
        assert_eq!(r.percentile_us(0.99), 990);
        assert_eq!(r.percentile_us(0.999), 999);
        assert_eq!(r.percentile_us(1.0), 1000);
        assert_eq!(report(vec![7]).percentile_us(0.5), 7);
        assert_eq!(report(Vec::new()).percentile_us(0.99), 0);
    }

    #[test]
    fn qps_counts_served_requests() {
        let r = report(vec![10; 500]);
        assert!((r.qps() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn check_gates_on_protocol_errors_and_p99() {
        let mut r = report((1..=1000).collect());
        assert!(r.check(Some(1.0)).is_ok()); // p99 = 990us < 1ms
        assert!(r.check(Some(0.5)).is_err());
        r.counts.protocol_error = 1;
        assert!(r.check(None).is_err());
    }

    #[test]
    fn check_gates_on_ingest_failures_and_generation_order() {
        let mut r = report((1..=100).collect());
        r.ingest = Some(IngestStats {
            ok: 3,
            failed: 0,
            apply_latencies_us: vec![100, 200, 300],
            generations: vec![2, 3, 4],
        });
        assert!(r.check(None).is_ok());
        // The ingest section rides along in the JSON report.
        let doc = r.to_json();
        let ingest = doc.get("ingest").expect("ingest section");
        assert_eq!(ingest.get("ok").and_then(Json::as_u64), Some(3));
        assert_eq!(ingest.get("generationEnd").and_then(Json::as_u64), Some(4));
        assert_eq!(
            ingest
                .get("applyLatencyUs")
                .and_then(|l| l.get("p50"))
                .and_then(Json::as_u64),
            Some(200)
        );
        // A failed apply or a non-monotonic generation fails the gate.
        r.ingest.as_mut().unwrap().failed = 1;
        assert!(r.check(None).is_err());
        r.ingest = Some(IngestStats {
            ok: 2,
            failed: 0,
            apply_latencies_us: vec![100, 200],
            generations: vec![3, 3],
        });
        assert!(r.check(None).is_err(), "duplicate generation must fail");
    }

    #[test]
    fn synthetic_deltas_are_deterministic_and_nonempty() {
        let vocab = ProbeVocab {
            mentions: vec!["刘德华".to_string()],
            entity_keys: vec!["刘德华（歌手）".to_string()],
            concepts: vec!["人物".to_string(), "歌手".to_string()],
        };
        let a = synthetic_delta(&vocab, 42, 0);
        assert_eq!(a, synthetic_delta(&vocab, 42, 0));
        assert_ne!(a, synthetic_delta(&vocab, 42, 1));
        assert_ne!(a, synthetic_delta(&vocab, 43, 0));
        assert_eq!(a.num_ops(), 16);
        // The sidecar round-trips through the wire codec.
        assert_eq!(DeltaOverlay::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn query_stream_is_deterministic_per_seed() {
        let vocab = ProbeVocab {
            mentions: vec!["刘德华".to_string(), "苹果".to_string()],
            entity_keys: vec!["刘德华（歌手）".to_string()],
            concepts: vec!["人物".to_string(), "歌手".to_string()],
        };
        let stream = |seed: u64| -> Vec<Query> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| vocab.next_query(&mut rng)).collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        // The mix actually exercises every op over a long stream.
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..2000 {
            if let Some(op) = op_index(&vocab.next_query(&mut rng)) {
                seen[op] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "mix skipped an op: {seen:?}");
    }

    #[test]
    fn tag_stream_is_deterministic_and_draws_from_the_vocabulary() {
        let vocab = ProbeVocab {
            mentions: vec!["刘德华".to_string(), "苹果".to_string()],
            entity_keys: vec!["刘德华（歌手）".to_string()],
            concepts: vec!["人物".to_string()],
        };
        let stream = |seed: u64| -> Vec<Query> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| vocab.next_tag_query(&mut rng)).collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        for query in stream(3) {
            let Query::Tag { text, .. } = query else {
                panic!("tag stream emitted a non-tag query");
            };
            assert!(
                text.contains("刘德华") || text.contains("苹果"),
                "document {text:?} uses no vocabulary mention"
            );
            assert!(text.ends_with('。'));
        }
    }

    #[test]
    fn check_gates_on_tag_protocol_errors() {
        let mut r = report((1..=100).collect());
        r.counts.tag_protocol_error = 1;
        r.counts.protocol_error = 1;
        let message = r.check(None).unwrap_err();
        assert!(message.contains("tag protocol"), "got {message}");
        // A tag ratio that produced no tag traffic is a broken run.
        let mut r = report((1..=100).collect());
        r.config.tag_ratio = 0.5;
        assert!(r.check(None).is_err());
        r.tag_issued = 42;
        assert!(r.check(None).is_ok());
    }

    #[test]
    fn report_json_carries_per_kind_latency_buckets() {
        let mut r = report((1..=100).collect());
        r.config.tag_ratio = 0.25;
        r.tag_issued = 10;
        r.tag_latencies_us = (1..=10).map(|v| v * 1000).collect();
        let doc = r.to_json();
        assert_eq!(
            doc.get("workload")
                .and_then(|w| w.get("tagRatio"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        let kinds = doc.get("latencyByKindUs").expect("latencyByKindUs");
        let lookup = kinds.get("lookup").expect("lookup bucket");
        assert_eq!(lookup.get("requests").and_then(Json::as_u64), Some(100));
        assert_eq!(lookup.get("p50").and_then(Json::as_u64), Some(50));
        let tag = kinds.get("tag").expect("tag bucket");
        assert_eq!(tag.get("requests").and_then(Json::as_u64), Some(10));
        assert_eq!(tag.get("p50").and_then(Json::as_u64), Some(5000));
        assert_eq!(tag.get("max").and_then(Json::as_u64), Some(10000));
        assert_eq!(
            doc.get("counts")
                .and_then(|c| c.get("tagProtocolError"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn envelope_validation_distinguishes_protocol_errors() {
        assert!(
            parse_envelope(br#"{"generation":1,"result":{"type":"isA","holds":true}}"#).is_ok()
        );
        assert!(parse_envelope(br#"{"error":{"kind":"badRequest","detail":"x"}}"#).is_ok());
        assert!(parse_envelope(b"not json").is_err());
        assert!(parse_envelope(br#"{"generation":"x"}"#).is_err());
        assert!(parse_envelope(br#"{"unrelated":true}"#).is_err());
    }
}
