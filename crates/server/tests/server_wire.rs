//! Wire-level integration tests: a real `cnp_server` on an ephemeral
//! port, real TCP clients, hostile bytes, admission-control saturation,
//! and a live snapshot hot-swap under concurrent traffic.

use cnp_serve::json::Json;
use cnp_serve::{wire, ListOptions, PageRequest, Query, QueryError, Response, TagOptions};
use cnp_server::{http, serve, ServerConfig, ServerHandle, Service};
use cnp_taxonomy::persist::{encode_frozen_v3, save_frozen_v3_to_file};
use cnp_taxonomy::{
    DeltaOverlay, FrozenTaxonomy, FrozenTaxonomyView, IsAMeta, OverlayView, Source, TaxonomyStore,
};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Generation 1: 刘德华 is a 歌手, 张学友 does not exist yet.
fn store_a() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", None);
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s
}

/// Generation 2: 张学友 joins the taxonomy.
fn store_b() -> TaxonomyStore {
    let mut s = store_a();
    let zhang = s.add_entity("张学友", None);
    let singer = s.find_concept("歌手").unwrap();
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.95));
    s
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnp_wire_{}_{name}.cnpb", std::process::id()))
}

fn snapshot_file(name: &str, store: &TaxonomyStore) -> PathBuf {
    let path = temp_path(name);
    save_frozen_v3_to_file(&FrozenTaxonomy::freeze(store), &path).unwrap();
    path
}

/// What an old release wrote: the v2 header, then a body this build has
/// no reader for.
fn old_format_file(name: &str) -> PathBuf {
    let path = temp_path(name);
    std::fs::write(&path, b"CNPB\x02\x00\x00\x00INTR and an owned-CSR body").unwrap();
    path
}

/// Serves what the binary serves: the store's snapshot bytes, opened in
/// place, under an empty overlay.
fn boot(store: TaxonomyStore, config: ServerConfig) -> ServerHandle {
    let bytes = encode_frozen_v3(&FrozenTaxonomy::freeze(&store));
    let view = FrozenTaxonomyView::open(bytes).unwrap();
    serve(Arc::new(Service::new(OverlayView::new(view))), config).unwrap()
}

/// One request/response on a fresh connection.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    exchange_bytes(addr, method, path, body.as_bytes())
}

/// Like [`exchange`] but with a binary payload (delta sidecars).
fn exchange_bytes(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Json) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let payload = (!body.is_empty()).then_some(body);
    http::write_request(&mut writer, method, path, payload, false).unwrap();
    let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap()
        .expect("server closed without responding");
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    (response.status, doc)
}

fn post_query(addr: SocketAddr, query: &Query) -> (u16, Json) {
    exchange(
        addr,
        "POST",
        "/v1/query",
        &wire::encode_query(query).write(),
    )
}

/// Eight clients, one persistent keep-alive connection each, hammering
/// `men2ent` until `stop`: half probe 张学友 — who exists exactly from
/// generation 2 on, whether a reload or an ingest brought him — half the
/// stable 刘德华. Every answer must match the generation that served it;
/// each client returns the generations it observed, in order.
fn spawn_clients(
    addr: SocketAddr,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<Vec<u64>>> {
    (0..8)
        .map(|i| {
            let stop = Arc::clone(stop);
            #[expect(
                clippy::disallowed_methods,
                reason = "raw client threads: these tests attack the server from outside the runtime"
            )]
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let mut observed = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let mention = if i % 2 == 0 { "张学友" } else { "刘德华" };
                    let body = wire::encode_query(&Query::men2ent(mention)).write();
                    http::write_request(
                        &mut writer,
                        "POST",
                        "/v1/query",
                        Some(body.as_bytes()),
                        true,
                    )
                    .unwrap();
                    let raw = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
                        .unwrap()
                        .expect("server closed a keep-alive connection");
                    let doc = Json::parse(std::str::from_utf8(&raw.body).unwrap()).unwrap();
                    let response = wire::decode_response(&doc).unwrap();
                    match (mention, response.generation, &response.result) {
                        ("刘德华", _, Ok(Response::Senses(_))) => {}
                        ("张学友", 1, Err(QueryError::UnknownMention(_))) => {
                            assert_eq!(raw.status, 404);
                        }
                        ("张学友", g, Ok(Response::Senses(_))) if g >= 2 => {}
                        other => panic!("generation-inconsistent answer: {other:?}"),
                    }
                    observed.push(response.generation);
                }
                observed
            })
        })
        .collect()
}

#[test]
fn mixed_traffic_stays_generation_consistent_across_live_reload() {
    let path = snapshot_file("reload", &store_a());
    let handle = boot(
        store_a(),
        ServerConfig {
            // One worker per client plus headroom for the reload requests,
            // so persistent connections never starve each other.
            workers: 10,
            queue_capacity: 20,
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients = spawn_clients(addr, &stop);

    // Let traffic flow on generation 1, then swap the snapshot file and
    // reload over the wire, mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    save_frozen_v3_to_file(&FrozenTaxonomy::freeze(&store_b()), &path).unwrap();
    let (status, doc) = exchange(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 200, "reload: {}", doc.write());
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(2));
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut saw_both = (false, false);
    for client in clients {
        let observed = client.join().unwrap();
        assert!(!observed.is_empty());
        // Generations are monotonic per client and span the swap.
        assert!(observed.windows(2).all(|w| w[0] <= w[1]));
        saw_both.0 |= observed.contains(&1);
        saw_both.1 |= observed.contains(&2);
    }
    assert!(
        saw_both.0 && saw_both.1,
        "traffic missed one side of the swap"
    );
    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

/// A reload pointed at a file this build cannot read — here one in the
/// format an earlier release wrote — is refused with the reason, and the
/// generation that was serving keeps serving.
#[test]
fn reload_at_an_old_format_file_is_refused_and_the_old_generation_keeps_serving() {
    let path = old_format_file("reload_old");
    let handle = boot(
        store_a(),
        ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let (status, doc) = exchange(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 500, "reload: {}", doc.write());
    let error = doc.get("error").expect("typed error body");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("reloadFailed")
    );
    let detail = error.get("detail").and_then(Json::as_str).unwrap();
    assert!(detail.contains("v2 is no longer readable"), "{detail}");
    assert!(detail.contains("PipelineOutcome::save_view"), "{detail}");

    assert_eq!(handle.service().generation(), 1);
    let (status, doc) = post_query(addr, &Query::men2ent("刘德华"));
    assert_eq!(status, 200);
    assert_eq!(wire::decode_response(&doc).unwrap().generation, 1);
    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

/// The same file at boot: the binary exits non-zero and says why.
#[test]
fn the_binary_refuses_to_boot_an_old_format_file() {
    let path = old_format_file("boot_old");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_cnp_server"))
        .arg("--snapshot")
        .arg(&path)
        .output()
        .expect("run cnp_server");
    std::fs::remove_file(&path).ok();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot load snapshot"), "{stderr}");
    assert!(stderr.contains("v2 is no longer readable"), "{stderr}");
    assert!(stderr.contains("build_taxonomy"), "{stderr}");
}

/// A good file: the binary prints the one line harnesses wait for (the
/// benchmark parses its prefix), serves on the port it names, and an
/// unknown flag is refused with the usage text.
#[test]
fn the_binary_boots_a_good_file_and_announces_the_address_it_serves_on() {
    /// Kills and reaps the server by handle, also when an assertion fails.
    struct Reaped(std::process::Child);
    impl Drop for Reaped {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let path = snapshot_file("boot_ok", &store_a());
    let mut server = Reaped(
        std::process::Command::new(env!("CARGO_BIN_EXE_cnp_server"))
            .arg("--snapshot")
            .arg(&path)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--queue", "4"])
            .args(["--compact-threshold", "4"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("run cnp_server"),
    );
    let mut line = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .unwrap();
    // The whole line, not just the prefix the benchmark parses.
    let port: u16 = line
        .strip_prefix("cnp_server listening on 127.0.0.1:")
        .and_then(|rest| rest.strip_suffix(" (generation 1, view snapshot)\n"))
        .and_then(|port| port.parse().ok())
        .unwrap_or_else(|| panic!("unexpected boot line {line:?}"));
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let (status, doc) = exchange(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(1));
    drop(server);
    std::fs::remove_file(&path).ok();

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_cnp_server"))
        .args(["--snapshot", "/nonexistent", "--no-such-flag"])
        .output()
        .expect("run cnp_server");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag --no-such-flag"), "{stderr}");
    assert!(
        stderr.contains("usage: cnp_server --snapshot PATH"),
        "{stderr}"
    );
}

/// `set_read_timeout(Some(Duration::ZERO))` is an error, and a connection
/// handler has nobody to report it to — so a zero timeout would mean *no*
/// timeout, and one idle peer could hold a worker for ever. The binary
/// refuses the flag by name and `serve` refuses the config.
#[test]
fn a_zero_read_timeout_is_refused_not_served_unbounded() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_cnp_server"))
        .args(["--snapshot", "/nonexistent", "--read-timeout-ms", "0"])
        .output()
        .expect("run cnp_server");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--read-timeout-ms must be at least 1"),
        "{stderr}"
    );
    assert!(
        stderr.contains("usage: cnp_server --snapshot PATH"),
        "{stderr}"
    );

    let bytes = encode_frozen_v3(&FrozenTaxonomy::freeze(&store_a()));
    let view = FrozenTaxonomyView::open(bytes).unwrap();
    let config = ServerConfig {
        read_timeout: Duration::ZERO,
        ..ServerConfig::default()
    };
    let refused = serve(Arc::new(Service::new(OverlayView::new(view))), config);
    let kind = refused.err().map(|e| e.kind());
    assert_eq!(kind, Some(std::io::ErrorKind::InvalidInput));
}

/// The ingest-under-load gate: deltas land over the wire while eight
/// persistent clients hammer the server, with background compaction armed
/// at depth 2. Every answer must match the generation that served it —
/// readers see generation N or N+1, never a torn merge — and the stats
/// invariant `requests == ok + error` must hold once traffic drains.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a deadline on waiting for the background compaction; the clock decides when to give up, never what is asserted"
)]
fn ingest_under_load_never_tears_a_generation() {
    let handle = boot(
        store_a(),
        ServerConfig {
            workers: 10,
            queue_capacity: 20,
            compact_threshold: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients = spawn_clients(addr, &stop);

    // Let traffic flow on generation 1, then land two deltas mid-flight;
    // the second crosses the compaction threshold.
    std::thread::sleep(Duration::from_millis(100));
    let mut delta = DeltaOverlay::new();
    delta.add_entity("张学友", None);
    delta.upsert_entity_is_a("张学友", None, "歌手", IsAMeta::new(Source::Tag, 0.95));
    let (status, doc) = exchange_bytes(addr, "POST", "/admin/ingest", &delta.encode());
    assert_eq!(status, 200, "ingest: {}", doc.write());
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ingested"));
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("ops").and_then(Json::as_u64), Some(2));

    let mut delta = DeltaOverlay::new();
    delta.add_entity("王菲", None);
    delta.upsert_entity_is_a("王菲", None, "歌手", IsAMeta::new(Source::Tag, 0.9));
    let (status, doc) = exchange_bytes(addr, "POST", "/admin/ingest", &delta.encode());
    assert_eq!(status, 200, "ingest: {}", doc.write());
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(3));

    // The background fold publishes as one more generation bump; wait for
    // it while the clients keep hammering.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.service().overlay_depth() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "compaction never landed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut saw_both = (false, false);
    for client in clients {
        let observed = client.join().unwrap();
        assert!(!observed.is_empty());
        // Generations are monotonic per connection and span the ingest.
        assert!(observed.windows(2).all(|w| w[0] <= w[1]));
        saw_both.0 |= observed.contains(&1);
        saw_both.1 |= observed.iter().any(|&g| g >= 2);
    }
    assert!(
        saw_both.0 && saw_both.1,
        "traffic missed one side of the ingest"
    );

    // The compacted world still serves both deltas' entities.
    let (status, doc) = post_query(addr, &Query::men2ent("王菲"));
    assert_eq!(status, 200);
    let response = wire::decode_response(&doc).unwrap();
    assert!(response.generation >= 4, "compaction did not bump");
    assert!(matches!(response.result, Ok(Response::Senses(_))));

    // A corrupt sidecar is refused with a typed 400 and no swap.
    let generation = handle.service().generation();
    let (status, doc) = exchange_bytes(addr, "POST", "/admin/ingest", b"CNPDgarbage");
    assert_eq!(status, 400);
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("badDelta")
    );
    assert_eq!(handle.service().generation(), generation);

    // Drained traffic satisfies the stats invariant.
    let stats = handle.stats();
    assert_eq!(stats.requests, stats.responses_ok + stats.responses_error);
    assert_eq!(stats.overloaded, 0);
    handle.shutdown();
}

#[test]
fn stale_cursor_is_refused_with_409_over_the_wire() {
    let path = snapshot_file("cursor", &store_b());
    let handle = boot(
        store_b(),
        ServerConfig {
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Mint a cursor on generation 1: page through 歌手's two entities.
    let page_one = Query::GetEntity {
        concept: "歌手".to_string(),
        options: ListOptions::transitive().with_page(PageRequest::first(1)),
    };
    let (status, doc) = post_query(addr, &page_one);
    assert_eq!(status, 200);
    let token = doc
        .get("result")
        .and_then(|r| r.get("next"))
        .and_then(Json::as_str)
        .expect("first page should have a next cursor")
        .to_string();

    // Hot-swap to generation 2, then replay the stale cursor.
    let (status, _) = exchange(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 200);
    let stale = format!(
        r#"{{"op":"getEntity","concept":"歌手","options":{{"transitive":true,"limit":1,"cursor":"{token}"}}}}"#
    );
    let (status, doc) = exchange(addr, "POST", "/v1/query", &stale);
    assert_eq!(status, 409, "stale cursor: {}", doc.write());
    let error = doc.get("error").expect("typed error body");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("invalidCursor")
    );
    let cursor = error.get("cursor").expect("cursor detail");
    assert_eq!(
        cursor.get("kind").and_then(Json::as_str),
        Some("wrongGeneration")
    );
    assert_eq!(cursor.get("cursor").and_then(Json::as_u64), Some(1));
    assert_eq!(cursor.get("serving").and_then(Json::as_u64), Some(2));
    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

/// `limit: 0` is a count over the wire: no items, the true total and no
/// `next`, which would send a client that follows it back to the same
/// empty page for ever.
#[test]
fn limit_zero_counts_without_a_next_cursor_over_the_wire() {
    let handle = boot(store_b(), ServerConfig::default());
    let count = Query::GetEntity {
        concept: "歌手".to_string(),
        options: ListOptions::transitive().with_page(PageRequest::first(0)),
    };
    let (status, doc) = post_query(handle.addr(), &count);
    assert_eq!(status, 200, "count: {}", doc.write());
    let Ok(Response::Entities(page)) = wire::decode_response(&doc).unwrap().result else {
        panic!("expected an entities page: {}", doc.write());
    };
    assert!(page.items.is_empty());
    assert_eq!(page.total, 2);
    assert_eq!(page.next, None);
    handle.shutdown();
}

#[test]
fn saturated_queue_returns_429_and_recovers() {
    // One worker, one queue slot: the third concurrent connection must be
    // refused by admission control, not buffered.
    let handle = boot(
        store_a(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let body = wire::encode_query(&Query::men2ent("刘德华")).write();

    // Connection A parks the only worker: full headers, missing body.
    let mut park_worker = TcpStream::connect(addr).unwrap();
    write!(
        park_worker,
        "POST /v1/query HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    park_worker.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Connection B occupies the single queue slot.
    let fill_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Connection C: queue full -> canned 429 from the accept thread.
    let refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(refused);
    let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap()
        .expect("refused connection should still get a response");
    assert_eq!(response.status, 429);
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("overloaded")
    );
    assert!(!response.keep_alive);

    // Unblock A and B; both admitted connections are still served.
    park_worker.write_all(body.as_bytes()).unwrap();
    park_worker.flush().unwrap();
    park_worker
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(park_worker.try_clone().unwrap());
    let served = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap()
        .expect("parked connection should be served");
    assert_eq!(served.status, 200);

    let mut writer = BufWriter::new(fill_queue.try_clone().unwrap());
    http::write_request(
        &mut writer,
        "POST",
        "/v1/query",
        Some(body.as_bytes()),
        false,
    )
    .unwrap();
    fill_queue
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(fill_queue);
    let served = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
        .unwrap()
        .expect("queued connection should be served");
    assert_eq!(served.status, 200);

    assert_eq!(handle.stats().overloaded, 1);
    handle.shutdown();
}

#[test]
fn hostile_bytes_get_typed_refusals_and_the_server_survives() {
    let handle = boot(
        store_a(),
        ServerConfig {
            read_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let hostile: &[(&[u8], u16)] = &[
        (b"GARBAGE\r\n\r\n", 400),
        (b"\x00\x01\x02\x03\r\n\r\n", 400),
        (
            b"POST /v1/query HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
            413,
        ),
        (b"DELETE /v1/query HTTP/1.1\r\n\r\n", 405),
        (
            b"POST /v1/query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            400,
        ),
        (b"POST /v1/query HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
        // Two lengths that disagree: the first frames a well-formed query,
        // so answering it would leave the two ends split on where it ends.
        (
            b"POST /v1/query HTTP/1.1\r\ncontent-length: 30\r\ncontent-length: 50\r\n\r\n{\"op\":\"men2ent\",\"mention\":\"a\"}",
            400,
        ),
    ];
    for (bytes, expected) in hostile {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
            .unwrap()
            .unwrap_or_else(|| panic!("no response for {bytes:?}"));
        assert_eq!(response.status, *expected, "for {bytes:?}");
        assert!(
            !response.keep_alive,
            "hostile input must close the connection"
        );
    }

    // A truncated request (headers never finish) just times out and closes.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/query HTTP/1.1\r\ncontent-le")
        .unwrap();
    stream.flush().unwrap();
    let mut sink = Vec::new();
    stream.read_to_end(&mut sink).unwrap();
    assert!(sink.is_empty(), "truncated request got a reply: {sink:?}");

    // After all of that, the server still serves clean traffic.
    let (status, doc) = post_query(addr, &Query::men2ent("刘德华"));
    assert_eq!(status, 200);
    assert!(wire::decode_response(&doc).unwrap().result.is_ok());
    assert!(handle.stats().malformed >= hostile.len() as u64);
    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let handle = boot(store_a(), ServerConfig::default());
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let body = wire::encode_query(&Query::men2ent("刘德华")).write();
    for i in 0..50 {
        http::write_request(
            &mut writer,
            "POST",
            "/v1/query",
            Some(body.as_bytes()),
            true,
        )
        .unwrap();
        let response = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
            .unwrap()
            .unwrap_or_else(|| panic!("request {i}: connection dropped"));
        assert_eq!(response.status, 200);
        assert!(response.keep_alive);
    }
    let stats = handle.stats();
    assert_eq!(stats.connections, 1, "keep-alive reused the connection");
    assert_eq!(stats.requests, 50);
    assert_eq!(stats.responses_ok, 50);
    handle.shutdown();
}

#[test]
fn batch_endpoint_answers_from_one_generation() {
    let handle = boot(store_b(), ServerConfig::default());
    let addr = handle.addr();
    let queries = [
        Query::men2ent("刘德华"),
        Query::men2ent("张学友"),
        Query::IsA {
            sub: "刘德华".to_string(),
            sup: "人物".to_string(),
            transitive: true,
        },
    ];
    let body = Json::Obj(vec![(
        "queries".to_string(),
        Json::Arr(queries.iter().map(wire::encode_query).collect()),
    )]);
    let (status, doc) = exchange(addr, "POST", "/v1/batch", &body.write());
    assert_eq!(status, 200);
    assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(1));
    let responses = doc.get("responses").and_then(Json::as_arr).unwrap();
    assert_eq!(responses.len(), queries.len());
    for item in responses {
        let response = wire::decode_response(item).unwrap();
        assert_eq!(response.generation, 1);
        assert!(response.result.is_ok());
    }
    // Oversized batches are refused with 413.
    let huge = format!(
        r#"{{"queries":[{}]}}"#,
        vec![wire::encode_query(&queries[0]).write(); cnp_server::MAX_BATCH + 1].join(",")
    );
    let (status, _) = exchange(addr, "POST", "/v1/batch", &huge);
    assert_eq!(status, 413);
    handle.shutdown();
}

/// The tagging workload, end to end on the wire: the dedicated `/v1/tag`
/// endpoint, the same ops through `/v1/query` and `/v1/batch`, hostile
/// bodies, and the per-kind serving counters in `/v1/health`.
#[test]
fn tag_endpoint_serves_documents_and_counts_its_kind() {
    let handle = boot(store_b(), ServerConfig::default());
    let addr = handle.addr();

    // Tag a document over the dedicated endpoint (op defaults to "tag").
    let (status, doc) = exchange(addr, "POST", "/v1/tag", r#"{"text":"刘德华和张学友。"}"#);
    assert_eq!(status, 200, "tag: {}", doc.write());
    let response = wire::decode_response(&doc).unwrap();
    assert_eq!(response.generation, 1);
    let Ok(Response::Tags(output)) = response.result else {
        panic!("expected a tags result: {:?}", response.result);
    };
    assert!(!output.spans.is_empty(), "no evidence spans");
    assert!(
        output.concepts.iter().any(|hit| hit.name == "歌手"),
        "tagger missed 歌手: {:?}",
        output.concepts
    );

    // op:"classify" selects the concepts-only variant on the same route.
    let (status, doc) = exchange(
        addr,
        "POST",
        "/v1/tag",
        r#"{"op":"classify","text":"刘德华","options":{"topK":1}}"#,
    );
    assert_eq!(status, 200);
    let response = wire::decode_response(&doc).unwrap();
    let Ok(Response::Classified(hits)) = response.result else {
        panic!("expected a classified result: {:?}", response.result);
    };
    assert_eq!(hits.len(), 1);

    // The same query family flows through /v1/query …
    let tag_query = Query::Tag {
        text: "刘德华".to_string(),
        options: TagOptions::default(),
    };
    let (status, doc) = post_query(addr, &tag_query);
    assert_eq!(status, 200);
    assert!(matches!(
        wire::decode_response(&doc).unwrap().result,
        Ok(Response::Tags(_))
    ));

    // … and /v1/batch, mixed with lookup traffic, on one generation.
    let batch = Json::Obj(vec![(
        "queries".to_string(),
        Json::Arr(vec![
            wire::encode_query(&Query::men2ent("刘德华")),
            wire::encode_query(&tag_query),
        ]),
    )]);
    let (status, doc) = exchange(addr, "POST", "/v1/batch", &batch.write());
    assert_eq!(status, 200);
    let responses = doc.get("responses").and_then(Json::as_arr).unwrap();
    assert_eq!(responses.len(), 2);
    assert!(matches!(
        wire::decode_response(&responses[1]).unwrap().result,
        Ok(Response::Tags(_))
    ));

    // Unknown text is an *empty* answer, never an error.
    let (status, doc) = exchange(addr, "POST", "/v1/tag", r#"{"text":"火星话xyzzy"}"#);
    assert_eq!(status, 200);
    let response = wire::decode_response(&doc).unwrap();
    let Ok(Response::Tags(output)) = response.result else {
        panic!("unknown text must still answer Ok");
    };
    assert!(output.concepts.is_empty());

    // Hostile bodies get typed 400s; the wrong method gets 405.
    let hostile = [
        "not json at all",
        r#"{"nota":"tagquery"}"#,
        r#"{"text":7}"#,
        r#"{"op":"men2ent","text":"刘德华"}"#,
        r#"{"text":"刘德华","options":{"topK":"many"}}"#,
        "{\"text\":\"\u{0}\\u0000黑客\u{7}\"",
    ];
    for bad in hostile {
        let (status, doc) = exchange(addr, "POST", "/v1/tag", bad);
        assert_eq!(
            status,
            400,
            "accepted hostile body {bad:?}: {}",
            doc.write()
        );
    }
    let (status, _) = exchange(addr, "GET", "/v1/tag", "");
    assert_eq!(status, 405);

    // The per-kind counters: 4 tag-kind requests (3 on /v1/tag that
    // decoded, 1 tag op on /v1/query), 1 lookup (inside the batch does
    // not count — the batch itself is the unit), 1 batch. Hostile bodies
    // and the 405 carry no kind.
    let stats = handle.stats();
    assert_eq!(stats.kind_tag, 4);
    assert_eq!(stats.kind_lookup, 0);
    assert_eq!(stats.kind_batch, 1);
    assert!(stats.kinds_total() <= stats.requests);

    // /v1/health reports the same counters over the wire.
    let (status, doc) = exchange(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    let reported = doc.get("stats").expect("stats section");
    assert_eq!(reported.get("kindTag").and_then(Json::as_u64), Some(4));
    assert_eq!(reported.get("kindBatch").and_then(Json::as_u64), Some(1));
    // The health probe itself is a request with no kind, so the sum of
    // kinds stays strictly below requests here.
    let requests = reported.get("requests").and_then(Json::as_u64).unwrap();
    assert!(requests > 5);
    handle.shutdown();
}

/// Every reply byte the server writes, pinned: one keep-alive connection
/// to a pipeline-built `small` snapshot sends every lookup op, a
/// paginated walk that follows `next`, the unknown-name refusals, each
/// kind of bad cursor, a tag document, a batch, a body that is not JSON,
/// an ingest and the health probe. The constants were captured before
/// replies were written straight into the connection's buffer; any faster
/// encoder must write the same bytes.
#[test]
fn server_replies_match_their_golden_hash() {
    use cnp_core::{Pipeline, PipelineConfig};
    use cnp_encyclopedia::{CorpusConfig, CorpusGenerator};
    use cnp_taxonomy::EntityId;

    const REPLIES: usize = 30;
    const BODY_BYTES: usize = 43_247;
    const HASH: u64 = 0x5999_c4f9_c73f_ce1f;

    let corpus = CorpusGenerator::new(CorpusConfig::small(931)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let view = FrozenTaxonomyView::open(encode_frozen_v3(&outcome.freeze())).unwrap();

    // Names come from the snapshot: the first mention with two senses,
    // and the full key of its first sense.
    let mention = (0..view.num_entities() as u32)
        .map(|e| view.resolve(view.entity(EntityId(e)).name).to_string())
        .find(|m| view.men2ent(m).len() >= 2)
        .expect("an ambiguous mention");
    let key = view.entity_key(view.men2ent(&mention)[0]);
    let text: String = corpus
        .pages
        .iter()
        .map(|p| p.abstract_text.as_str())
        .filter(|a| !a.is_empty())
        .take(4)
        .collect();

    let handle = serve(
        Arc::new(Service::new(OverlayView::new(view))),
        ServerConfig::default(),
    )
    .unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut replies: Vec<(u16, Vec<u8>)> = Vec::new();
    let mut send = |method: &str, path: &str, body: &[u8]| -> Json {
        let payload = (!body.is_empty()).then_some(body);
        http::write_request(&mut writer, method, path, payload, true).unwrap();
        let reply = http::read_client_response(&mut reader, http::MAX_BODY_BYTES)
            .unwrap()
            .expect("the server closed the connection");
        let doc = Json::parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
        replies.push((reply.status, reply.body));
        doc
    };
    let mut query = |q: &Query| {
        send(
            "POST",
            "/v1/query",
            wire::encode_query(q).write().as_bytes(),
        )
    };

    let listed = ListOptions::transitive().with_min_confidence(0.25);
    for q in [
        Query::men2ent(mention.clone()),
        Query::MentionSenses {
            mention: mention.clone(),
        },
        Query::GetConcept {
            entity: key.clone(),
            options: listed.clone(),
        },
        Query::GetConceptByMention {
            mention: mention.clone(),
            options: ListOptions::default(),
        },
        Query::GetEntity {
            concept: "歌手".to_string(),
            options: ListOptions::default(),
        },
        Query::AncestorsOf {
            concept: "流行歌手".to_string(),
        },
        Query::IsA {
            sub: mention.clone(),
            sup: "人物".to_string(),
            transitive: true,
        },
        Query::men2ent("不存在的提及"),
        Query::GetConcept {
            entity: "不存在（的实体）".to_string(),
            options: ListOptions::default(),
        },
        Query::AncestorsOf {
            concept: "不存在的概念".to_string(),
        },
    ] {
        query(&q);
    }

    // Walk 娱乐人物's transitive entities page by page.
    let walk = |cursor: Option<&str>| Query::GetEntity {
        concept: "娱乐人物".to_string(),
        options: listed.clone().with_page(match cursor {
            None => PageRequest::first(40),
            Some(token) => PageRequest::after(40, cnp_serve::Cursor::decode(token).unwrap()),
        }),
    };
    let first = query(&walk(None));
    let mut next = first
        .get("result")
        .and_then(|r| r.get("next"))
        .and_then(Json::as_str)
        .map(str::to_string);
    let token = next.clone().expect("more than one page");
    let mut pages = 1;
    while let Some(cursor) = next {
        let page = query(&walk(Some(&cursor)));
        next = page
            .get("result")
            .and_then(|r| r.get("next"))
            .and_then(Json::as_str)
            .map(str::to_string);
        pages += 1;
        assert!(pages < 100, "the walk does not end");
    }
    assert!(pages >= 3, "only {pages} pages");

    // Each way a cursor can be refused.
    let bad_cursor = |concept: &str, cursor: &str| {
        format!(
            r#"{{"op":"getEntity","concept":"{concept}","options":{{"transitive":true,"minConfidence":0.25,"limit":40,"cursor":"{cursor}"}}}}"#
        )
    };
    for body in [
        bad_cursor("娱乐人物", "v1.garbage"),
        bad_cursor("歌手", &token),
        bad_cursor("娱乐人物", &token.replacen(".g1.", ".g7.", 1)),
        bad_cursor("娱乐人物", &token.replacen(".o40.", ".o999999.", 1)),
    ] {
        send("POST", "/v1/query", body.as_bytes());
    }

    let tag = Json::Obj(vec![("text".to_string(), Json::str(text.clone()))]);
    send("POST", "/v1/tag", tag.write().as_bytes());
    let batch = Json::Obj(vec![(
        "queries".to_string(),
        Json::Arr(
            [
                Query::men2ent(mention.clone()),
                Query::GetConcept {
                    entity: key.clone(),
                    options: ListOptions::transitive(),
                },
                Query::GetEntity {
                    concept: "歌手".to_string(),
                    options: ListOptions::default().with_page(PageRequest::first(5)),
                },
                Query::men2ent("不存在的提及"),
                Query::Classify {
                    text: text.clone(),
                    options: TagOptions::default(),
                },
            ]
            .iter()
            .map(wire::encode_query)
            .collect(),
        ),
    )]);
    send("POST", "/v1/batch", batch.write().as_bytes());
    send("POST", "/v1/query", b"{\"op\":");

    let mut delta = DeltaOverlay::new();
    delta.add_entity("新人歌手", None);
    delta.upsert_entity_is_a("新人歌手", None, "歌手", IsAMeta::new(Source::Tag, 0.9));
    send("POST", "/admin/ingest", &delta.encode());
    send(
        "POST",
        "/v1/query",
        wire::encode_query(&Query::men2ent("新人歌手"))
            .write()
            .as_bytes(),
    );
    send("GET", "/v1/health", b"");

    let mut transcript = Vec::new();
    for (status, body) in &replies {
        transcript.extend_from_slice(format!("{status} ").as_bytes());
        transcript.extend_from_slice(body);
        transcript.push(b'\n');
    }
    let body_bytes: usize = replies.iter().map(|(_, body)| body.len()).sum();
    assert_eq!(
        (
            replies.len(),
            body_bytes,
            cnp_runtime::stable_hash(&transcript)
        ),
        (REPLIES, BODY_BYTES, HASH)
    );
    handle.shutdown();
}
