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
//! Serve a taxonomy snapshot over HTTP.
//!
//! ```text
//! cnp_server --snapshot /tmp/cnp.snapshot [--addr 127.0.0.1:7077]
//!            [--workers N] [--queue N] [--read-timeout-ms MS]
//!            [--compact-threshold N]
//! ```
//!
//! Prints `cnp_server listening on <addr> (generation N, view snapshot)`
//! once the listener is bound — harness scripts wait for that line — then
//! blocks until the process is killed. The snapshot is the one format
//! `PipelineOutcome::save_view` writes, served zero-copy off the loaded
//! buffer; any other file fails the boot with the reason.
//!
//! The snapshot serves behind a [`cnp_taxonomy::OverlayView`], so
//! `POST /admin/ingest` can apply binary delta sidecars without a
//! restart; once `--compact-threshold` deltas are stacked (default 4,
//! `0` disables) a background fold rebuilds the base.

use cnp_server::{serve, ServerConfig, Service};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: cnp_server --snapshot PATH [--addr HOST:PORT] \
                     [--workers N] [--queue N] [--read-timeout-ms MS] \
                     [--compact-threshold N]";

fn fail(message: &str) -> ExitCode {
    eprintln!("cnp_server: {message}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut snapshot: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = match flag.as_str() {
            "--snapshot" => value("--snapshot").map(|v| snapshot = Some(PathBuf::from(v))),
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--workers" => value("--workers")
                .and_then(|v| v.parse().map_err(|e| format!("--workers: {e}")))
                .map(|v: usize| config.workers = v.max(1)),
            "--queue" => value("--queue")
                .and_then(|v| v.parse().map_err(|e| format!("--queue: {e}")))
                .map(|v: usize| config.queue_capacity = v.max(1)),
            "--read-timeout-ms" => value("--read-timeout-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--read-timeout-ms: {e}")))
                .and_then(|v: u64| match v {
                    0 => Err("--read-timeout-ms must be at least 1".to_string()),
                    _ => {
                        config.read_timeout = Duration::from_millis(v);
                        Ok(())
                    }
                }),
            "--compact-threshold" => value("--compact-threshold")
                .and_then(|v| v.parse().map_err(|e| format!("--compact-threshold: {e}")))
                .map(|v: usize| config.compact_threshold = v),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(message) = result {
            return fail(&message);
        }
    }

    let Some(snapshot) = snapshot else {
        return fail("--snapshot is required");
    };

    // The overlay wrapper starts empty and only grows when
    // `/admin/ingest` applies deltas.
    let service = match Service::boot_from_file(&snapshot) {
        Ok(service) => Arc::new(service),
        Err(e) => return fail(&format!("cannot load snapshot {}: {e}", snapshot.display())),
    };
    config.snapshot_path = Some(snapshot);

    let handle = match serve(service, config) {
        Ok(handle) => handle,
        Err(e) => return fail(&format!("cannot bind: {e}")),
    };
    println!(
        "cnp_server listening on {} (generation {}, view snapshot)",
        handle.addr(),
        handle.service().generation()
    );
    handle.wait();
    ExitCode::SUCCESS
}
