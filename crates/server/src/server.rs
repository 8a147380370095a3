//! The network front-end: a `TcpListener` accept loop feeding a bounded
//! connection queue drained by persistent worker threads.
//!
//! The flow is deliberately boring — and bounded at every step:
//!
//! 1. The accept thread takes a connection and offers it to the
//!    [`cnp_runtime::BoundedQueue`]. A **full queue refuses the
//!    connection**: the accept thread writes a canned `429` with
//!    `Retry-After` and closes — saturation becomes an explicit, typed
//!    `Overloaded` signal instead of an ever-growing backlog ([admission
//!    control]).
//! 2. A worker pops the connection and serves its keep-alive request
//!    loop: parse the HTTP framing (hard size caps, typed 400/413/405 on
//!    hostile input), route, read the query straight from the body bytes
//!    (`wire::read_query` and its siblings build no JSON tree), execute
//!    on the [`Service`], write the JSON reply straight into the
//!    connection's one reusable body buffer.
//! 3. Snapshot reloads (`POST /admin/reload`) go through the service's
//!    generation hot-swap: the load happens on the worker, **no lock is
//!    held against readers**, in-flight queries drain on the generation
//!    they pinned, and every response carries its generation.
//! 4. [`ServerHandle::shutdown`] closes the queue (admitted connections
//!    still drain), unblocks the accept loop, and joins every thread.
//!
//! [admission control]: crate::ServerConfig::queue_capacity

use crate::http::{self, HttpError, Request};
use crate::stats::{FoldOutcome, QueryKind, ServerStats};
use cnp_runtime::{BoundedQueue, PushError, WorkerPool};
use cnp_serve::json;
use cnp_serve::{wire, Query, TaxonomyService};
use cnp_taxonomy::{DeltaOverlay, FrozenTaxonomyView, OverlayView};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on queries per `/v1/batch` request.
pub const MAX_BATCH: usize = 1024;

/// The one service type on the wire: a snapshot file's bytes answered in
/// place, under an overlay that takes `/admin/ingest` deltas and starts
/// empty. Boot it with [`TaxonomyService::boot_from_file`].
pub type Service = TaxonomyService<OverlayView<FrozenTaxonomyView>>;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Admission bound: connections queued but not yet picked up by a
    /// worker. Beyond this, new connections get `429 Overloaded`.
    pub queue_capacity: usize,
    /// Socket read timeout. Doubles as the keep-alive idle timeout and
    /// bounds how long shutdown waits for parked workers.
    pub read_timeout: Duration,
    /// Snapshot file `POST /admin/reload` re-reads. `None` disables the
    /// endpoint.
    pub snapshot_path: Option<PathBuf>,
    /// Overlay segments a `POST /admin/ingest` may accumulate before the
    /// server schedules a background compaction (base + overlays folded
    /// into a fresh base on a dedicated worker; queries and ingests keep
    /// flowing the whole time). `0` disables automatic compaction.
    pub compact_threshold: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = cnp_runtime::default_threads();
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity: workers * 2,
            read_timeout: Duration::from_secs(5),
            snapshot_path: None,
            compact_threshold: 4,
        }
    }
}

struct Shared {
    service: Arc<Service>,
    stats: Arc<ServerStats>,
    shutdown: AtomicBool,
    config: ServerConfig,
    /// One background worker with a one-slot queue: at most one
    /// compaction runs, at most one more is pending. `try_execute`'s
    /// "queue full" just means a fold is already scheduled — the next
    /// over-threshold ingest will try again.
    compactor: WorkerPool,
}

/// A running server. Dropping the handle shuts the server down; call
/// [`ServerHandle::shutdown`] for an explicit graceful stop or
/// [`ServerHandle::wait`] to park the calling thread (the `cnp_server`
/// binary does).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    queue: Arc<BoundedQueue<TcpStream>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the serving counters.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The service behind the wire — the embedding process can keep
    /// executing in-process queries and hot-swaps on it.
    pub fn service(&self) -> &Arc<Service> {
        &self.shared.service
    }

    /// Blocks until the accept loop exits (i.e. until another thread
    /// triggers shutdown or the process dies).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.finish();
    }

    /// Graceful stop: refuse new connections, drain admitted ones, join
    /// every thread.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.finish();
    }

    fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        // Unblock the accept loop with a throwaway connection; it checks
        // the flag before admitting anything.
        let _ = TcpStream::connect(self.addr);
    }

    fn finish(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.finish();
    }
}

/// Binds `config.addr` and serves `service` until the returned handle is
/// shut down or dropped.
///
/// A zero `config.read_timeout` is refused with `InvalidInput`:
/// `TcpStream::set_read_timeout` rejects `Some(Duration::ZERO)`, so it
/// would not mean "time out at once" but "never", and one idle peer would
/// hold a worker for as long as it liked.
#[expect(
    clippy::disallowed_methods,
    reason = "the HTTP accept loop and its worker pool deliberately sit on named std threads feeding cnp_runtime::BoundedQueue — the one sanctioned thread nursery outside the runtime crate"
)]
pub fn serve(service: Arc<Service>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    if config.read_timeout.is_zero() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "read_timeout must be greater than zero",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let queue: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(config.queue_capacity));
    let shared = Arc::new(Shared {
        service,
        stats: Arc::default(),
        shutdown: AtomicBool::new(false),
        config,
        compactor: WorkerPool::new("cnp-compact", 1, 1),
    });

    // A failed spawn propagates as io::Error after closing the queue so
    // any workers already running drain out and exit instead of leaking.
    let n_workers = shared.config.workers.max(1);
    let mut workers = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let queue_w = Arc::clone(&queue);
        let shared_w = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("cnp-http-{i}"))
            .spawn(move || {
                while let Some(stream) = queue_w.pop() {
                    handle_connection(stream, &shared_w);
                }
            });
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                abandon_workers(&queue, workers);
                return Err(e);
            }
        }
    }

    let accept = {
        let queue_a = Arc::clone(&queue);
        let shared_a = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("cnp-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared_a.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match queue_a.try_push(stream) {
                        Ok(()) => shared_a.stats.connection(),
                        Err(PushError::Full(stream)) => refuse_overloaded(stream, &shared_a),
                        Err(PushError::Closed(_)) => break,
                    }
                }
            });
        match spawned {
            Ok(handle) => handle,
            Err(e) => {
                abandon_workers(&queue, workers);
                return Err(e);
            }
        }
    };

    Ok(ServerHandle {
        addr,
        shared,
        queue,
        accept: Some(accept),
        workers,
    })
}

/// Boot-failure cleanup: closes the queue so every already-spawned worker
/// sees `pop() == None` and exits, then joins them.
fn abandon_workers(queue: &BoundedQueue<TcpStream>, workers: Vec<std::thread::JoinHandle<()>>) {
    queue.close();
    for worker in workers {
        let _ = worker.join();
    }
}

/// Admission control's refusal path: a canned `429` written on the accept
/// thread (never blocks on a worker), then close.
fn refuse_overloaded(stream: TcpStream, shared: &Shared) {
    shared.stats.refused();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut writer = BufWriter::new(stream);
    let mut body = String::new();
    let detail = "server work queue is full; retry later";
    let status = refuse(429, "overloaded", detail, &mut body);
    let _ = http::write_response(&mut writer, status, body.as_bytes(), false);
}

/// Writes `{"error":{"kind":…,"detail":…}}`, the body of every refusal
/// that is not a typed query error, and returns the status it goes with.
fn refuse(status: u16, kind: &str, detail: &str, out: &mut String) -> u16 {
    out.push_str(r#"{"error":{"kind":"#);
    json::write_str(kind, out);
    out.push_str(r#","detail":"#);
    json::write_str(detail, out);
    out.push_str("}}");
    status
}

/// One worker's whole tenure on one connection: the keep-alive loop.
/// Every reply body is written into one buffer, reused for each request.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut body = String::new();

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        body.clear();
        let request = match http::read_request(&mut reader, http::MAX_BODY_BYTES) {
            Ok(None) => break, // clean keep-alive end
            Ok(Some(request)) => request,
            Err(error) => {
                // Typed refusal where HTTP allows one; a socket error
                // (including the idle timeout) just closes.
                let status = match &error {
                    HttpError::Malformed(_) => 400,
                    HttpError::TooLarge(_) => 400,
                    HttpError::BodyTooLarge => 413,
                    HttpError::UnsupportedMethod => 405,
                    HttpError::Io(_) => break,
                };
                // An HTTP-layer rejection is still a request the worker
                // read and answered: count it, so `requests ==
                // responses_ok + responses_error` holds in /v1/health.
                shared.stats.request();
                shared.stats.malformed();
                shared.stats.response(status);
                refuse(status, "badRequest", &error.to_string(), &mut body);
                let _ = http::write_response(&mut writer, status, body.as_bytes(), false);
                break; // framing is unreliable after any of these
            }
        };
        shared.stats.request();
        let keep_alive = request.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
        let status = route(&request, shared, &mut body);
        shared.stats.response(status);
        if http::write_response(&mut writer, status, body.as_bytes(), keep_alive).is_err() {
            break;
        }
        if !keep_alive {
            break;
        }
    }
    let _ = writer.flush();
}

/// Answers one parsed request: writes its JSON body into `out` and
/// returns the status.
fn route(request: &Request, shared: &Shared, out: &mut String) -> u16 {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/v1/health") => health(shared, out),
        ("POST", "/v1/query") => query(&request.body, shared, out),
        ("POST", "/v1/tag") => tag(&request.body, shared, out),
        ("POST", "/v1/batch") => batch(&request.body, shared, out),
        ("POST", "/admin/reload") => reload(shared, out),
        ("POST", "/admin/ingest") => ingest(&request.body, shared, out),
        ("GET", "/v1/query" | "/v1/tag" | "/v1/batch" | "/admin/reload" | "/admin/ingest")
        | ("POST", "/v1/health") => refuse(
            405,
            "methodNotAllowed",
            "wrong method for this endpoint",
            out,
        ),
        _ => refuse(404, "notFound", "unknown endpoint", out),
    }
}

fn health(shared: &Shared, out: &mut String) -> u16 {
    let stats = shared.stats.snapshot();
    out.push_str(r#"{"status":"ok","generation":"#);
    json::write_num(shared.service.generation() as f64, out);
    out.push_str(r#","stats":{"#);
    let counters = [
        ("connections", stats.connections),
        ("requests", stats.requests),
        ("responsesOk", stats.responses_ok),
        ("responsesError", stats.responses_error),
        ("overloaded", stats.overloaded),
        ("malformed", stats.malformed),
        ("kindLookup", stats.kind_lookup),
        ("kindTag", stats.kind_tag),
        ("kindBatch", stats.kind_batch),
    ];
    for (i, (name, count)) in counters.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(name, out);
        out.push(':');
        json::write_num(count as f64, out);
    }
    out.push_str("}}");
    200
}

fn query(body: &[u8], shared: &Shared, out: &mut String) -> u16 {
    let query = match wire::read_query(body) {
        Ok(query) => query,
        Err(e) => return refuse_request(&e, out),
    };
    shared.stats.kind(match query {
        Query::Tag { .. } | Query::Classify { .. } => QueryKind::Tag,
        _ => QueryKind::Lookup,
    });
    let response = shared.service.execute(&query);
    wire::write_response(&response, out);
    wire::status_for(&response.result)
}

/// `POST /v1/tag`: the tagging workload's dedicated endpoint. The body is
/// the tag query without the `op` envelope (`{"text":…,"options":…}`,
/// with `"op":"classify"` selecting the concepts-only variant); the
/// response is the same generation-stamped envelope `/v1/query` writes.
fn tag(body: &[u8], shared: &Shared, out: &mut String) -> u16 {
    let query = match wire::read_tag_query(body) {
        Ok(query) => query,
        Err(e) => return refuse_request(&e, out),
    };
    shared.stats.kind(QueryKind::Tag);
    let response = shared.service.execute(&query);
    wire::write_response(&response, out);
    wire::status_for(&response.result)
}

fn batch(body: &[u8], shared: &Shared, out: &mut String) -> u16 {
    let queries = match wire::read_batch(body, MAX_BATCH) {
        Ok(queries) => queries,
        Err(e) => return refuse_request(&e, out),
    };
    shared.stats.kind(QueryKind::Batch);
    let responses = shared.service.execute_batch(&queries);
    let generation = responses.first().map_or_else(
        || shared.service.generation(),
        |response| response.generation,
    );
    out.push_str(r#"{"generation":"#);
    json::write_num(generation as f64, out);
    out.push_str(r#","responses":"#);
    json::write_arr(&responses, out, wire::write_response);
    out.push('}');
    200
}

/// A body the request readers refused: `badRequest`, with the reader's
/// error as the detail.
fn refuse_request(error: &wire::RequestError, out: &mut String) -> u16 {
    refuse(error.status(), "badRequest", &error.to_string(), out)
}

/// `POST /admin/reload`: re-read the configured snapshot file and hot-swap
/// it in. The load and validation run right here on the worker — no lock
/// held, traffic keeps flowing on the old generation — and the swap is a
/// single pointer store; in-flight queries drain on the generation they
/// pinned. A file that does not open (an old format, a torn write) or
/// that opens but fails the deep check (a wrong depth, an inexact
/// closure: see [`TaxonomyService::reload`]) is a `500 reloadFailed`
/// whose detail names the error, and the old generation keeps serving.
fn reload(shared: &Shared, out: &mut String) -> u16 {
    let Some(path) = &shared.config.snapshot_path else {
        return refuse(
            404,
            "reloadDisabled",
            "server started without a snapshot path",
            out,
        );
    };
    match shared.service.reload(path) {
        Ok(generation) => {
            out.push_str(r#"{"status":"reloaded","generation":"#);
            json::write_num(generation as f64, out);
            out.push('}');
            200
        }
        Err(e) => refuse(500, "reloadFailed", &e.to_string(), out),
    }
}

/// `POST /admin/ingest`: apply one binary [`DeltaOverlay`] (the `CNPD`
/// sidecar format) to the serving snapshot. Decode, fold and swap all run
/// on this worker with no lock held against readers — the swap is one
/// generation bump, in-flight queries drain on the generation they
/// pinned, so clients see either generation N or N+1, never a torn
/// merge. Once the overlay depth crosses the configured threshold, a
/// background compaction is scheduled (see [`maybe_compact`]).
fn ingest(body: &[u8], shared: &Shared, out: &mut String) -> u16 {
    let delta = match DeltaOverlay::decode(body) {
        Ok(delta) => delta,
        Err(e) => return refuse(400, "badDelta", &e.to_string(), out),
    };
    match shared.service.ingest(&delta) {
        Ok(generation) => {
            maybe_compact(shared);
            out.push_str(r#"{"status":"ingested","generation":"#);
            json::write_num(generation as f64, out);
            out.push_str(r#","ops":"#);
            json::write_num(delta.num_ops() as f64, out);
            out.push_str(r#","overlayDepth":"#);
            json::write_num(shared.service.overlay_depth() as f64, out);
            out.push('}');
            200
        }
        Err(e) => refuse(500, "ingestFailed", &e.to_string(), out),
    }
}

/// Schedules a background compaction when the overlay depth has reached
/// the configured threshold. The fold runs on the dedicated compactor
/// worker and publishes through the service's compare-and-swap
/// ([`TaxonomyService::swap_if_current`]): if more deltas arrive while it
/// runs, the stale fold is discarded and the next ingest reschedules. A
/// full compactor queue means a fold is already pending — nothing to do.
/// The `folds_*` counters record each admitted fold and how it ended.
fn maybe_compact(shared: &Shared) {
    let threshold = shared.config.compact_threshold;
    if threshold == 0 || shared.service.overlay_depth() < threshold {
        return;
    }
    let service = Arc::clone(&shared.service);
    let stats = Arc::clone(&shared.stats);
    let admitted = shared.compactor.try_execute(move || {
        // A lost race or a failed fold keeps serving the overlay — the
        // next over-threshold ingest schedules a retry.
        stats.fold_ended(match service.compact() {
            Ok(Some(_)) => FoldOutcome::Published,
            Ok(None) => FoldOutcome::Discarded,
            Err(_) => FoldOutcome::Failed,
        });
    });
    if admitted.is_ok() {
        shared.stats.fold_scheduled();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abandon_workers_closes_the_queue_so_workers_drain_out() {
        let queue: BoundedQueue<TcpStream> = BoundedQueue::new(4);
        abandon_workers(&queue, Vec::new());
        assert!(queue.is_closed());
        // What a parked worker's next pop() sees: None, i.e. "exit now".
        assert!(queue.pop().is_none());
    }
}
