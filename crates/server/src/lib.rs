#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
//! `cnp_server` — the network front-end that puts the CN-Probase serving
//! stack on a wire (Chen et al., ICDE 2019, §V: the taxonomy "has been
//! used in applications" — this crate is the application-facing edge).
//!
//! The crate is deliberately dependency-free above `std`: a hand-rolled
//! HTTP/1.1 subset over [`std::net::TcpListener`], the existing
//! `cnp_serve` typed protocol on the wire as JSON, and admission control
//! built on `cnp_runtime`'s [`cnp_runtime::BoundedQueue`].
//!
//! # Architecture
//!
//! ```text
//! TcpListener ── accept thread ──try_push──► BoundedQueue<TcpStream>
//!                     │ Full(stream)                 │ pop
//!                     ▼                              ▼
//!              canned 429 reply            cnp-http-{i} workers
//!                                          http → route → wire::read_*
//!                                            → TaxonomyService
//! ```
//!
//! * **Bounded everything.** The connection queue has a fixed capacity;
//!   when it is full the accept thread itself writes a canned
//!   `429 Too Many Requests` and closes — no unbounded buffering, no
//!   silent drops ([`server::ServerConfig::queue_capacity`]).
//! * **Hardened parsing.** Request lines, header counts, and bodies are
//!   capped *before* allocation; malformed or oversized input maps to
//!   `400`/`413`/`405`, never a panic ([`http`]). A body is read straight
//!   into `Query` values by `cnp_serve::wire::read_query`, `read_tag_query`
//!   and `read_batch`: no JSON tree is built on the request path, as none
//!   is on the reply path.
//! * **Generation-aware.** Responses carry the snapshot generation from
//!   `cnp_serve`'s hot-swap layer, so clients observe atomic reloads and
//!   stale cursors are refused with `409` over the wire.
//!
//! # Endpoints
//!
//! | Method | Path            | Purpose                                   |
//! |--------|-----------------|-------------------------------------------|
//! | GET    | `/v1/health`    | liveness + generation + serving counters  |
//! | POST   | `/v1/query`     | one typed query, JSON in / JSON out       |
//! | POST   | `/v1/tag`       | tag/classify one document against the taxonomy |
//! | POST   | `/v1/batch`     | up to [`MAX_BATCH`] queries, one snapshot |
//! | POST   | `/admin/reload` | re-read the boot snapshot, swap atomically|
//! | POST   | `/admin/ingest` | apply one binary delta sidecar (`CNPD`)   |
//!
//! # Quick start
//!
//! ```no_run
//! use cnp_server::{serve, ServerConfig, Service};
//! use std::sync::Arc;
//!
//! let service = Arc::new(Service::boot_from_file(
//!     std::path::Path::new("/tmp/cnp.snapshot"),
//! )?);
//! let handle = serve(service, ServerConfig::default())?;
//! println!("listening on {}", handle.addr());
//! handle.wait(); // blocks until shutdown() is called elsewhere
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod http;
pub mod server;
pub mod stats;

pub use server::{serve, ServerConfig, ServerHandle, Service, MAX_BATCH};
pub use stats::{QueryKind, ServerStats, StatsSnapshot};
