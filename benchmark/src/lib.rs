#![forbid(unsafe_code)]
//! `cnp_benchmark` — the repo's yardstick: one pinned, oracle-checked
//! harness over the real `cnp_server` binary and the build pipeline.
//!
//! This library holds what the end-to-end binary needs and nothing that
//! reaches behind the wire: workload streams ([`streams`]), the
//! independent answer check ([`oracle`]), the child-process and `/proc`
//! plumbing ([`server`]), the workload drivers ([`workloads`]), result
//! files and `--compare` ([`report`]), the metric catalogue
//! ([`catalogue`]), host-speed normalisation ([`host`]) and the arithmetic
//! ([`stats`], [`trace`]). The
//! per-layer replay and probes live in the separate `cnp_layers` binary.
//! See `README.md` next to this crate for the workloads, the metrics and
//! how they interact.

pub mod catalogue;
pub mod host;
pub mod oracle;
pub mod report;
pub mod server;
pub mod setup;
pub mod stats;
pub mod streams;
pub mod trace;
pub mod workloads;
