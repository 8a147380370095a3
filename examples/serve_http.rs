//! The serving stack on a wire, end to end: boot `cnp_server` on an
//! ephemeral port, talk to it over real TCP with the typed JSON protocol,
//! tag a document, hot-swap the snapshot, and ingest a delta — every
//! endpoint the server has, once.
//!
//! Uses `CNP_SNAPSHOT` when set (CI runs it against the snapshot the
//! `build_taxonomy` example just wrote), otherwise builds a small
//! taxonomy in-process. Exits non-zero on any inconsistency, so CI can
//! use it as the wire smoke test.
//!
//! ```sh
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example build_taxonomy
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example serve_http
//! ```

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::serve::json::Json;
use cn_probase::serve::wire;
use cn_probase::server::{http, serve, ServerConfig, Service};
use cn_probase::taxonomy::EntityId;
use cn_probase::{DeltaOverlay, Query, Response, TaxonomyRead};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

#[expect(
    clippy::disallowed_methods,
    reason = "diverging demo helper; the examples hold no state worth unwinding"
)]
fn fail(msg: &str) -> ! {
    eprintln!("serve_http: {msg}");
    std::process::exit(1);
}

fn build_snapshot(seed: u64, name: &str) -> PathBuf {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(seed)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let path = std::env::temp_dir().join(name);
    outcome
        .save_view(&path)
        .unwrap_or_else(|e| fail(&format!("cannot write snapshot: {e}")));
    path
}

/// Mentions of the first `limit` entities that have a concept, in id
/// order: names every lookup below resolves and the tagger scores.
fn linked_mentions(f: &impl TaxonomyRead, limit: usize) -> Vec<String> {
    (0..f.num_entities() as u32)
        .map(EntityId)
        .filter(|&e| f.concepts_of(e).next().is_some())
        .take(limit)
        .map(|e| f.resolve(f.entity(e).name).to_string())
        .collect()
}

/// One HTTP exchange on a fresh connection; returns `(status, body)`.
fn exchange(addr: std::net::SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Json) {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let read_half = stream
        .try_clone()
        .unwrap_or_else(|e| fail(&format!("clone: {e}")));
    let mut writer = BufWriter::new(stream);
    let mut reader = BufReader::new(read_half);
    let payload = (!body.is_empty()).then_some(body);
    http::write_request(&mut writer, method, path, payload, false)
        .unwrap_or_else(|e| fail(&format!("{method} {path}: write: {e}")));
    let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap_or_else(|e| fail(&format!("{method} {path}: read: {e}")))
        .unwrap_or_else(|| fail(&format!("{method} {path}: server closed early")));
    let text = std::str::from_utf8(&response.body)
        .unwrap_or_else(|_| fail(&format!("{method} {path}: non-UTF-8 body")));
    let doc = Json::parse(text)
        .unwrap_or_else(|e| fail(&format!("{method} {path}: unparseable body: {e}")));
    (response.status, doc)
}

fn main() {
    let boot_path = match std::env::var("CNP_SNAPSHOT") {
        Ok(p) if std::path::Path::new(&p).exists() => PathBuf::from(p),
        _ => build_snapshot(21, "cnp_serve_http_a.cnpb"),
    };

    // ----- boot the wire ---------------------------------------------------
    let service = Arc::new(
        Service::boot_from_file(&boot_path)
            .unwrap_or_else(|e| fail(&format!("boot from {}: {e}", boot_path.display()))),
    );
    let boot_generation = service.generation();
    let config = ServerConfig {
        snapshot_path: Some(boot_path.clone()),
        ..ServerConfig::default()
    };
    let handle =
        serve(Arc::clone(&service), config).unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = handle.addr();
    println!("cnp_server on {addr}, generation {boot_generation}");

    // ----- health ----------------------------------------------------------
    let (status, doc) = exchange(addr, "GET", "/v1/health", b"");
    if status != 200 || doc.get("status").and_then(Json::as_str) != Some("ok") {
        fail(&format!("health: status {status}, body {}", doc.write()));
    }

    // ----- a typed query over the wire -------------------------------------
    let mentions = linked_mentions(service.pin().frozen(), 16);
    let Some(mention) = mentions.first().cloned() else {
        fail("snapshot holds no linked entity to query for");
    };
    let query = Query::men2ent(mention.clone());
    let query_body = wire::encode_query(&query).write();
    let (status, doc) = exchange(addr, "POST", "/v1/query", query_body.as_bytes());
    if status != 200 {
        fail(&format!("men2ent({mention}): status {status}"));
    }
    let response = wire::decode_response(&doc)
        .unwrap_or_else(|e| fail(&format!("men2ent({mention}): bad envelope: {e}")));
    if response.generation != boot_generation || response.result.is_err() {
        fail(&format!("men2ent({mention}): {response:?}"));
    }
    // Wire round-trip matches the in-process answer exactly.
    if response.result != service.execute(&query).result {
        fail("wire answer diverges from the in-process answer");
    }
    println!("men2ent({mention}): OK over the wire, matches in-process");

    // ----- a batch ---------------------------------------------------------
    let queries: Vec<Query> = mentions.iter().cloned().map(Query::men2ent).collect();
    let batch_body = Json::Obj(vec![(
        "queries".to_string(),
        Json::Arr(queries.iter().map(wire::encode_query).collect()),
    )]);
    let (status, doc) = exchange(addr, "POST", "/v1/batch", batch_body.write().as_bytes());
    let responses = doc.get("responses").and_then(Json::as_arr);
    if status != 200 || responses.map_or(true, |r| r.len() != queries.len()) {
        fail(&format!("batch: status {status}, body {}", doc.write()));
    }
    println!("batch: {} queries in one request", queries.len());

    // ----- a document on the tagging endpoint ------------------------------
    let text = format!("{}。", mentions.join("和"));
    let tag_body = Json::Obj(vec![("text".to_string(), Json::str(&text))]).write();
    let (status, doc) = exchange(addr, "POST", "/v1/tag", tag_body.as_bytes());
    match wire::decode_response(&doc).map(|r| r.result) {
        Ok(Ok(Response::Tags(output))) if status == 200 && !output.concepts.is_empty() => {
            println!("tag: {} concepts for {text}", output.concepts.len());
        }
        other => fail(&format!("tag: status {status}, {other:?}")),
    }

    // ----- hostile input is refused, connection-by-connection --------------
    let (status, _) = exchange(addr, "POST", "/v1/query", b"this is not json");
    if status != 400 {
        fail(&format!("malformed body: expected 400, got {status}"));
    }
    let (status, _) = exchange(addr, "POST", "/v1/nope", b"{}");
    if status != 404 {
        fail(&format!("unknown endpoint: expected 404, got {status}"));
    }

    // ----- hot-swap over the wire ------------------------------------------
    let (status, doc) = exchange(addr, "POST", "/admin/reload", b"");
    let reloaded = doc.get("generation").and_then(Json::as_u64);
    if status != 200 || reloaded != Some(boot_generation + 1) {
        fail(&format!("reload: status {status}, body {}", doc.write()));
    }
    let (_, doc) = exchange(addr, "POST", "/v1/query", query_body.as_bytes());
    let served =
        wire::decode_response(&doc).unwrap_or_else(|e| fail(&format!("post-reload query: {e}")));
    if served.generation != boot_generation + 1 {
        fail("post-reload traffic not on the new generation");
    }
    println!(
        "reload over the wire: generation {} -> {}",
        boot_generation, served.generation
    );

    // ----- one delta over the wire, read back on the next generation ------
    let newcomer = "serve_http 新实体";
    let mut delta = DeltaOverlay::new();
    delta.add_entity(newcomer, None);
    let (status, doc) = exchange(addr, "POST", "/admin/ingest", &delta.encode());
    let ingested = doc.get("generation").and_then(Json::as_u64);
    if status != 200 || ingested != Some(served.generation + 1) {
        fail(&format!("ingest: status {status}, body {}", doc.write()));
    }
    let read_back = wire::encode_query(&Query::men2ent(newcomer)).write();
    let (status, doc) = exchange(addr, "POST", "/v1/query", read_back.as_bytes());
    let answer =
        wire::decode_response(&doc).unwrap_or_else(|e| fail(&format!("post-ingest query: {e}")));
    if status != 200 || answer.generation != served.generation + 1 || answer.result.is_err() {
        fail(&format!("ingested entity not served: {answer:?}"));
    }
    println!(
        "ingest over the wire: {newcomer} answers at generation {}",
        answer.generation
    );

    handle.shutdown();
    println!("serving over HTTP smoke: OK");
}
