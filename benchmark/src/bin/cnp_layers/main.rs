#![forbid(unsafe_code)]
//! The per-layer trace.
//!
//! ```text
//! cnp_layers --snapshot PATH --replay FILE --probe FILE --trace-out FILE
//! ```
//!
//! Two passes, both in process and both from outside the layers they
//! time (spans *inside* the server are a later change):
//!
//! 1. **Replay** — the workload's exact request bytes go through the
//!    public functions `cnp_server`'s workers call, in their order:
//!    `http::read_request` → `Json::parse` → `wire::decode_query` /
//!    `decode_tag_query` → `TaxonomyService::<OverlayView<AnySnapshot>>::
//!    execute` / `execute_batch` → `wire::encode_response` → `Json::write`
//!    → `http::write_response` into a `Vec`, with a span around each
//!    call. A layer's self time is its span minus its children; the same
//!    replay with spans off gives the tracing overhead.
//! 2. **Probe** — direct calls into each layer with keys decoded from a
//!    reference request stream (see `probe.rs`).
//!
//! Prints one JSON object, metric name → value, as its last line. This
//! binary is the only part of the benchmark that names serving-internal
//! types; `cnp_benchmark` measures end to end without it.

mod probe;

use cnp_benchmark::stats::{median, percentile};
use cnp_benchmark::trace::{self, Recorder};
use cnp_serve::json::Json;
use cnp_serve::{wire, Query, QueryResponse, Response, TaxonomyService};
use cnp_server::http::{self, Request};
use cnp_taxonomy::{AnySnapshot, OverlayView};
use std::collections::BTreeMap;
use std::io::{BufReader, Cursor};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The service type `cnp_server`'s `main` boots.
pub type Service = TaxonomyService<OverlayView<AnySnapshot>>;

/// Raw spans of this many requests are kept in the span file.
const KEPT_REQUESTS: u32 = 64;
/// Off/on replay pairs; medians are reported.
const REPLAY_ROUNDS: usize = 3;

fn read_requests(path: &PathBuf) -> Result<Vec<Vec<u8>>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let header: [u8; 4] = bytes
            .get(at..at + 4)
            .and_then(|h| h.try_into().ok())
            .ok_or_else(|| format!("{}: truncated length", path.display()))?;
        let len = u32::from_le_bytes(header) as usize;
        let body = bytes
            .get(at + 4..at + 4 + len)
            .ok_or_else(|| format!("{}: truncated request", path.display()))?;
        out.push(body.to_vec());
        at += 4 + len;
    }
    Ok(out)
}

/// Parses a request file back into `http::Request`s with the server's
/// own reader — one keep-alive stream, as a connection would carry them.
pub fn parse_requests(raw: &[Vec<u8>]) -> Result<Vec<Request>, String> {
    let stream: Vec<u8> = raw.concat();
    let mut reader = BufReader::new(Cursor::new(stream));
    let mut out = Vec::with_capacity(raw.len());
    while let Some(request) =
        http::read_request(&mut reader, http::MAX_BODY_BYTES).map_err(|e| e.to_string())?
    {
        out.push(request);
    }
    Ok(out)
}

fn items_in(response: &QueryResponse) -> usize {
    match &response.result {
        Ok(Response::Senses(s)) => s.len(),
        Ok(Response::SenseConcepts(s)) => s.len(),
        Ok(Response::Concepts(p)) => p.items.len(),
        Ok(Response::Entities(p)) => p.items.len(),
        Ok(Response::Ancestors(a)) => a.len(),
        Ok(Response::IsA { .. }) => 1,
        Ok(Response::Tags(t)) => t.concepts.len(),
        Ok(Response::Classified(c)) => c.len(),
        Err(_) => 0,
    }
}

/// Byte and item counts of one replay pass.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    requests: u64,
    queries: u64,
    request_bytes: u64,
    response_bytes: u64,
    items: u64,
}

/// What one replay pass measured.
struct Pass {
    counts: Counts,
    /// Per-request wall time, nanoseconds.
    request_ns: Vec<u64>,
    total_ns: u64,
    recorder: Recorder,
}

/// One pass of the whole stream through the serving stack's public
/// functions, mirroring `cnp_server::server::{handle_connection, route}`.
fn replay(service: &Service, raw: &[Vec<u8>], spans: bool) -> Result<Pass, String> {
    let stream: Vec<u8> = raw.concat();
    let mut reader = BufReader::new(Cursor::new(stream));
    let mut sink: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut rec = Recorder::new(spans);
    let mut counts = Counts::default();
    let mut request_ns = Vec::with_capacity(raw.len());
    let all = Instant::now();
    for id in 0..raw.len() {
        rec.begin_request(id as u32);
        let clock = Instant::now();
        let outcome: Result<(), String> = rec.span("request", |rec| {
            let request = rec
                .span("http.read_request", |_| {
                    http::read_request(&mut reader, http::MAX_BODY_BYTES)
                })
                .map_err(|e| e.to_string())?
                .ok_or_else(|| "request stream ended early".to_string())?;
            counts.request_bytes += request.body.len() as u64;
            let doc = rec.span("json.parse", |_| {
                std::str::from_utf8(&request.body)
                    .map_err(|e| e.to_string())
                    .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
            })?;
            let (status, body) = match request.target.as_str() {
                "/v1/batch" => {
                    let queries: Vec<Query> = rec
                        .span("wire.decode_query", |_| {
                            doc.get("queries")
                                .and_then(Json::as_arr)
                                .unwrap_or_default()
                                .iter()
                                .map(wire::decode_query)
                                .collect::<Result<_, _>>()
                        })
                        .map_err(|e| e.to_string())?;
                    counts.queries += queries.len() as u64;
                    let responses =
                        rec.span("serve.execute_batch", |_| service.execute_batch(&queries));
                    counts.items += responses.iter().map(items_in).sum::<usize>() as u64;
                    let generation = responses.first().map_or(0, |r| r.generation);
                    let encoded = rec.span("wire.encode_response", |_| {
                        Json::Obj(vec![
                            ("generation".to_string(), Json::num(generation as f64)),
                            (
                                "responses".to_string(),
                                Json::Arr(responses.iter().map(wire::encode_response).collect()),
                            ),
                        ])
                    });
                    (200, rec.span("json.write", |_| encoded.write()))
                }
                target => {
                    let query = rec
                        .span("wire.decode_query", |_| {
                            if target == "/v1/tag" {
                                wire::decode_tag_query(&doc)
                            } else {
                                wire::decode_query(&doc)
                            }
                        })
                        .map_err(|e| e.to_string())?;
                    counts.queries += 1;
                    let response = rec.span("serve.execute", |_| service.execute(&query));
                    counts.items += items_in(&response) as u64;
                    let encoded =
                        rec.span("wire.encode_response", |_| wire::encode_response(&response));
                    (
                        wire::status_for(&response.result),
                        rec.span("json.write", |_| encoded.write()),
                    )
                }
            };
            counts.response_bytes += body.len() as u64;
            sink.clear();
            rec.span("http.write_response", |_| {
                http::write_response(&mut sink, status, body.as_bytes(), true)
            })
            .map_err(|e| e.to_string())
        });
        outcome?;
        request_ns.push(clock.elapsed().as_nanos() as u64);
        counts.requests += 1;
    }
    Ok(Pass {
        counts,
        request_ns,
        total_ns: all.elapsed().as_nanos() as u64,
        recorder: rec,
    })
}

fn run() -> Result<(), String> {
    let mut snapshot = None;
    let mut replay_path = None;
    let mut probe_path = None;
    let mut trace_out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().map(PathBuf::from);
        match flag.as_str() {
            "--snapshot" => snapshot = value,
            "--replay" => replay_path = value,
            "--probe" => probe_path = value,
            "--trace-out" => trace_out = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let usage = "usage: cnp_layers --snapshot PATH --replay FILE --probe FILE --trace-out FILE";
    let (Some(snapshot), Some(replay_path), Some(probe_path), Some(trace_out)) =
        (snapshot, replay_path, probe_path, trace_out)
    else {
        return Err(usage.to_string());
    };

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let service = Service::boot_from_file(&snapshot).map_err(|e| e.to_string())?;

    // ---- replay ----------------------------------------------------------
    let raw = read_requests(&replay_path)?;
    if raw.is_empty() {
        return Err("nothing to replay".to_string());
    }
    replay(&service, &raw, false)?; // warm: tag index, allocator, caches
    let mut off_ns = Vec::new();
    let mut on_ns = Vec::new();
    let mut last_off = None;
    let mut last_on = None;
    for _ in 0..REPLAY_ROUNDS {
        let off = replay(&service, &raw, false)?;
        off_ns.push(off.total_ns as f64);
        last_off = Some(off);
        let on = replay(&service, &raw, true)?;
        on_ns.push(on.total_ns as f64);
        last_on = Some(on);
    }
    let (off, on) = (
        last_off.expect("at least one round"),
        last_on.expect("at least one round"),
    );
    let requests = off.counts.requests as f64;
    let off_total = median(&off_ns).unwrap_or(0.0);
    let on_total = median(&on_ns).unwrap_or(0.0);
    metrics.insert("replay.request_ns".to_string(), off_total / requests);
    let mut sorted = off.request_ns.clone();
    sorted.sort_unstable();
    metrics.insert(
        "replay.request_p50_ns".to_string(),
        percentile(&sorted, 0.50).unwrap_or(0) as f64,
    );
    metrics.insert(
        "trace.overhead_share".to_string(),
        (on_total - off_total) / off_total,
    );
    let spans = on.recorder.spans();
    let by_name = trace::self_time_by_name(spans);
    let self_sum: u64 = by_name.values().map(|&(_, ns)| ns).sum();
    metrics.insert(
        "trace.self_time_coverage".to_string(),
        self_sum as f64 / trace::root_total_ns(spans).max(1) as f64,
    );
    for (span, metric) in [
        ("http.read_request", "http.read_request_ns"),
        ("http.write_response", "http.write_response_ns"),
        ("json.parse", "json.parse_ns"),
        ("json.write", "json.write_ns"),
        ("wire.decode_query", "wire.decode_query_ns"),
        ("wire.encode_response", "wire.encode_response_ns"),
    ] {
        let self_ns = by_name.get(span).map_or(0, |&(_, ns)| ns);
        metrics.insert(metric.to_string(), self_ns as f64 / requests);
    }
    let execute_ns = by_name.get("serve.execute").map_or(0, |&(_, ns)| ns)
        + by_name.get("serve.execute_batch").map_or(0, |&(_, ns)| ns);
    metrics.insert(
        "serve.execute_self_ns".to_string(),
        execute_ns as f64 / requests,
    );
    metrics.insert(
        "json.request_bytes".to_string(),
        on.counts.request_bytes as f64 / requests,
    );
    metrics.insert(
        "json.response_bytes".to_string(),
        on.counts.response_bytes as f64 / requests,
    );
    metrics.insert(
        "serve.items_per_response".to_string(),
        on.counts.items as f64 / on.counts.queries.max(1) as f64,
    );
    std::fs::write(
        &trace_out,
        trace::to_json(spans, KEPT_REQUESTS).write() + "\n",
    )
    .map_err(|e| format!("{}: {e}", trace_out.display()))?;

    // ---- probe -----------------------------------------------------------
    let probe_requests = parse_requests(&read_requests(&probe_path)?)?;
    probe::run(&snapshot, &service, &probe_requests, &mut metrics)?;

    println!(
        "{}",
        Json::Obj(
            metrics
                .into_iter()
                .map(|(name, value)| (name, Json::num(value)))
                .collect()
        )
        .write()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("cnp_layers: {message}");
            ExitCode::FAILURE
        }
    }
}
