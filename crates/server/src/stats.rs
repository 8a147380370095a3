//! Lock-free serving counters, reported by `GET /v1/health`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters shared by the accept loop and every worker. All
/// updates are `Relaxed` — the counters are observability, not
/// synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    responses_ok: AtomicU64,
    responses_error: AtomicU64,
    overloaded: AtomicU64,
    malformed: AtomicU64,
    kind_lookup: AtomicU64,
    kind_tag: AtomicU64,
    kind_batch: AtomicU64,
}

/// Which serving workload a decoded request belongs to, for the per-kind
/// counters in `/v1/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// A single taxonomy lookup on `/v1/query` (men2ent, getConcept, …).
    Lookup,
    /// A tagging query — `/v1/tag`, or a tag/classify op on `/v1/query`.
    Tag,
    /// A `/v1/batch` request (counted once per batch, whatever it holds).
    Batch,
}

/// A point-in-time copy of [`ServerStats`].
///
/// Invariant: `requests == responses_ok + responses_error` once the
/// connections that produced them have drained — every request a worker
/// reads (fully parsed *or* rejected at the HTTP layer) is counted, and
/// every one of them gets exactly one response. Admission-control
/// refusals happen before any request is read, so `overloaded` is
/// disjoint from both `requests` and the response counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections admitted to the worker pool.
    pub connections: u64,
    /// Requests read off the wire by a worker, including ones the HTTP
    /// layer rejected with 400/413/405 before reaching a handler.
    pub requests: u64,
    /// Responses with a 2xx status.
    pub responses_ok: u64,
    /// Responses with a non-2xx status, worker-emitted `429`s included.
    /// Admission-control refusals are *not* responses to a request and
    /// count in [`StatsSnapshot::overloaded`] instead.
    pub responses_error: u64,
    /// Connections refused with a canned `429` by admission control (the
    /// bounded queue was full; no request was read).
    pub overloaded: u64,
    /// Subset of `requests` rejected at the HTTP layer (400/413/405).
    pub malformed: u64,
    /// Single lookup queries executed via `/v1/query`.
    pub kind_lookup: u64,
    /// Tagging queries executed — `/v1/tag` plus tag/classify ops on
    /// `/v1/query`.
    pub kind_tag: u64,
    /// Batch requests executed via `/v1/batch` (one per batch).
    pub kind_batch: u64,
}

impl StatsSnapshot {
    /// Sum of the per-kind counters. The kinds are disjoint — every
    /// successfully decoded serving request is counted in exactly one —
    /// so the sum never exceeds `requests` (the remainder being health
    /// checks, admin calls and rejected bodies).
    pub fn kinds_total(&self) -> u64 {
        self.kind_lookup + self.kind_tag + self.kind_batch
    }
}

impl ServerStats {
    pub(crate) fn connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Classifies a response *to a counted request*. A non-2xx status —
    /// even a worker-emitted `429` — is a response error; admission
    /// refusals never reach this method (see [`ServerStats::refused`]).
    pub(crate) fn response(&self, status: u16) {
        if (200..300).contains(&status) {
            self.responses_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.responses_error.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An admission-control refusal: the canned `429` written on the
    /// accept thread. No request was read, so only `overloaded` moves.
    pub(crate) fn refused(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one successfully decoded serving request under its
    /// workload kind. Called exactly once per executed request, so the
    /// kinds stay disjoint and summable.
    pub(crate) fn kind(&self, kind: QueryKind) {
        let counter = match kind {
            QueryKind::Lookup => &self.kind_lookup,
            QueryKind::Tag => &self.kind_tag,
            QueryKind::Batch => &self.kind_batch,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_ok: self.responses_ok.load(Ordering::Relaxed),
            responses_error: self.responses_error.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            kind_lookup: self.kind_lookup.load(Ordering::Relaxed),
            kind_tag: self.kind_tag.load(Ordering::Relaxed),
            kind_batch: self.kind_batch.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_classify_statuses() {
        let stats = ServerStats::default();
        stats.connection();
        // Three requests: one served, one handler error, one HTTP-layer
        // rejection (counted as a request too, so the request/response
        // invariant holds).
        stats.request();
        stats.response(200);
        stats.request();
        stats.response(404);
        stats.request();
        stats.malformed();
        stats.response(400);
        // A worker-emitted 429 is a response error, not an admission
        // refusal.
        stats.request();
        stats.response(429);
        // An admission refusal is not a request or a response.
        stats.refused();
        let snap = stats.snapshot();
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.responses_ok, 1);
        assert_eq!(snap.responses_error, 3);
        assert_eq!(snap.overloaded, 1);
        assert_eq!(snap.malformed, 1);
        assert_eq!(snap.requests, snap.responses_ok + snap.responses_error);
    }

    #[test]
    fn query_kinds_are_disjoint_and_bounded_by_requests() {
        let stats = ServerStats::default();
        // Four decoded serving requests: two lookups, one tag, one batch;
        // plus one health check that carries no kind.
        for kind in [
            QueryKind::Lookup,
            QueryKind::Lookup,
            QueryKind::Tag,
            QueryKind::Batch,
        ] {
            stats.request();
            stats.kind(kind);
            stats.response(200);
        }
        stats.request();
        stats.response(200);
        let snap = stats.snapshot();
        assert_eq!(snap.kind_lookup, 2);
        assert_eq!(snap.kind_tag, 1);
        assert_eq!(snap.kind_batch, 1);
        assert_eq!(snap.kinds_total(), 4);
        assert!(snap.kinds_total() <= snap.requests);
    }
}
