//! The five workloads. The four serving ones are closed loops (an API
//! caller waits for its reply) over one query connection — plus, for
//! `mixed_ingest`, one ingest connection — against a freshly spawned
//! `cnp_server`; `build` runs the construction side with no server
//! traffic at all. Every response is checked (status and envelope on all,
//! the decoded answer against the [`Oracle`] on one in [`CHECK_EVERY`]),
//! and the server's own counters are reconciled with the client's after
//! each run.

use crate::host::{self, HostProbe, PROBE_EVERY};
use crate::oracle::Oracle;
use crate::server::{sample_proc, Affinity, Connection, ProcSample, Server};
use crate::setup::{self, Built};
use crate::stats::{median, percentile, Fnv, Windows};
use crate::streams::{self, Delta, Pool, Vocabulary, DELTAS_PER_BURST};
use cnp_serve::json::Json;
use cnp_serve::{wire, Response};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One response in this many is decoded and compared with the oracle.
pub const CHECK_EVERY: u64 = 16;
/// Windows a measured run is cut into for window-median latencies
/// (5-second windows at the 25-second default).
pub const WINDOWS: usize = 5;
/// Failure messages kept per run (the count is always complete).
const KEPT_FAILURES: usize = 8;
/// Tag requests slower than this count in `load.tag_over_2ms_share`.
const SLOW_TAG_NS: u64 = 2_000_000;

/// The workloads, in suite order.
pub const NAMES: [&str; 5] = [
    "point_lookup",
    "batch_lookup",
    "tag_docs",
    "mixed_ingest",
    "build",
];

/// Measured seconds of a workload when `--seconds` is not given.
pub fn default_seconds(workload: &str) -> f64 {
    match workload {
        "point_lookup" => 25.0,
        "mixed_ingest" => 30.0,
        _ => 20.0,
    }
}

/// A measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the unit the catalogue gives its name.
    pub value: f64,
    /// Samples behind it (requests for a latency, 1 for a single reading).
    pub samples: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Seconds the measured period actually lasted.
    pub measured_s: f64,
    /// Operations attempted while measuring (requests, applies, builds).
    pub attempted: u64,
    /// Operations that failed: transport or protocol error, wrong status,
    /// wrong answer, acknowledged write not readable, counter mismatch.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// FNV-1a of every request byte the workload may send.
    pub request_hash: u64,
    /// Metrics by catalogue name.
    pub metrics: BTreeMap<String, Measured>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, samples: u64) {
        self.metrics
            .insert(name.to_string(), Measured { value, samples });
    }

    fn put_opt(&mut self, name: &str, value: Option<f64>, samples: usize) {
        if let Some(value) = value {
            self.put(name, value, samples as u64);
        }
    }

    fn fail(&mut self, message: String) {
        self.absorb(Failures {
            count: 1,
            kept: vec![message],
        });
    }

    fn absorb(&mut self, failures: Failures) {
        self.failed += failures.count;
        self.failures.extend(failures.kept);
        self.failures.truncate(KEPT_FAILURES);
    }
}

/// Failures seen on one connection: the full count, the first few messages.
#[derive(Debug, Default)]
struct Failures {
    count: u64,
    kept: Vec<String>,
}

impl Failures {
    fn push(&mut self, message: String) {
        self.count += 1;
        if self.kept.len() < KEPT_FAILURES {
            self.kept.push(message);
        }
    }
}

/// What every workload of one harness run shares.
#[derive(Debug)]
pub struct Context {
    /// The build under test.
    pub built: Built,
    /// Expected answers for it.
    pub oracle: Oracle,
    /// Its key spaces, Zipf-ranked.
    pub vocab: Vocabulary,
    /// Workload seed.
    pub seed: u64,
    /// The `cnp_server` binary.
    pub server_binary: PathBuf,
    /// CPU placement: pinned for traffic, released for builds.
    pub affinity: Affinity,
    /// Warm-up seconds before each serving run (discarded).
    pub warmup_s: f64,
    /// Servers booted per serving run; `boot_ms` is their median.
    pub boots: usize,
    /// Seconds from harness start until this context was ready: corpus,
    /// pipeline, snapshot, oracle — the set-up every workload shares.
    pub shared_setup_s: f64,
    /// The host-speed reference loop.
    pub probe: HostProbe,
}

/// What one connection saw.
#[derive(Debug)]
struct Tally {
    requests: u64,
    correct_queries: u64,
    failures: Failures,
    all: Windows,
    lookups: Windows,
    tags: Windows,
    /// Requests sent by kind, warm-up included: lookup, tag, batch.
    sent: [u64; 3],
    /// Host-probe timings (µs) taken while measuring, and the time they
    /// took out of the measured period.
    probe_us: Vec<f64>,
    probe_time: Duration,
}

impl Tally {
    fn new(measure: Duration) -> Tally {
        let windows = || Windows::new(measure.as_nanos() as u64, WINDOWS);
        Tally {
            requests: 0,
            correct_queries: 0,
            failures: Failures::default(),
            all: windows(),
            lookups: windows(),
            tags: windows(),
            sent: [0; 3],
            probe_us: Vec::new(),
            probe_time: Duration::ZERO,
        }
    }
}

/// The query connection: a request pool cycled in a closed loop.
struct Driver<'a> {
    conn: Connection,
    pool: &'a Pool,
    cursor: usize,
    oracle: &'a Oracle,
    probe: &'a HostProbe,
    tally: Tally,
}

impl Driver<'_> {
    /// Cycles the pool until `until`. With `origin` set the exchanges are
    /// measured (latency filed under the window their start falls in) and
    /// the loop stops every [`PROBE_EVERY`] to time the host probe;
    /// without, they are warm-up and only counted as sent.
    fn run(&mut self, until: Instant, origin: Option<Instant>) -> io::Result<()> {
        let tally = &mut self.tally;
        let mut next_probe = Instant::now();
        loop {
            let started = Instant::now();
            if started >= until {
                return Ok(());
            }
            if origin.is_some() && started >= next_probe {
                let took = self.probe.run();
                tally.probe_us.push(took.as_secs_f64() * 1e6);
                tally.probe_time += took;
                next_probe = Instant::now() + PROBE_EVERY;
                continue;
            }
            let index = self.cursor;
            let request = &self.pool.requests[index % self.pool.requests.len()];
            self.cursor += 1;
            let kind = match request.payload {
                streams::Payload::Lookup(_) => 0,
                streams::Payload::Tag(_) => 1,
                streams::Payload::Batch(_) => 2,
            };
            tally.sent[kind] += 1;
            let exchanged = self.conn.exchange(&request.bytes);
            let latency_ns = started.elapsed().as_nanos() as u64;
            let verdict = match &exchanged {
                Err(e) => Err(format!("transport: {e}")),
                Ok(response) if response.status != request.status => Err(format!(
                    "status {}, expected {}",
                    response.status, request.status
                )),
                Ok(response) if index as u64 % CHECK_EVERY == 0 => {
                    self.oracle.check_body(request, &response.body)
                }
                Ok(response) if !response.body.starts_with(b"{\"generation\":") => {
                    Err("body is not a response envelope".to_string())
                }
                Ok(_) => Ok(()),
            };
            if exchanged.is_err() {
                self.conn.reconnect()?;
            }
            let Some(origin) = origin else {
                if let Err(message) = verdict {
                    return Err(io::Error::other(format!(
                        "warm-up request {index} failed: {message}"
                    )));
                }
                continue;
            };
            tally.requests += 1;
            match verdict {
                Ok(()) => {
                    tally.correct_queries += request.queries();
                    let at = started.duration_since(origin).as_nanos() as u64;
                    tally.all.record(at, latency_ns);
                    if request.is_tag() {
                        tally.tags.record(at, latency_ns);
                    } else if kind == 0 {
                        tally.lookups.record(at, latency_ns);
                    }
                }
                Err(message) => tally.failures.push(format!("request {index}: {message}")),
            }
        }
    }
}

/// What the ingest connection saw.
#[derive(Debug, Default)]
struct IngestTally {
    apply_ms: Vec<f64>,
    lag_us: Vec<u64>,
    depth_max: u64,
    failures: Failures,
    /// `(entity, generation of the ack)` for every acknowledged add.
    acked: Vec<(String, u64)>,
    lookups_sent: u64,
    posts_sent: u64,
}

/// `men2ent` of an ingested entity must answer with exactly that entity,
/// from a generation no older than the acknowledgement.
fn read_back(conn: &mut Connection, name: &str, acked_at: u64) -> Result<(), String> {
    let response = conn
        .exchange(&streams::readback(name))
        .map_err(|e| format!("transport: {e}"))?;
    let decoded = std::str::from_utf8(&response.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|doc| wire::decode_response(&doc).ok())
        .ok_or_else(|| format!("status {} with an undecodable body", response.status))?;
    if decoded.generation < acked_at {
        return Err(format!(
            "answered from generation {}, acknowledged at {acked_at}",
            decoded.generation
        ));
    }
    match decoded.result {
        Ok(Response::Senses(senses)) if senses.len() == 1 && senses[0].key == name => Ok(()),
        other => Err(format!(
            "acknowledged entity {name:?} reads back as {other:?}"
        )),
    }
}

/// The ingest connection of `mixed_ingest`: at `origin + k` seconds, post
/// burst `k` — [`DELTAS_PER_BURST`] sidecars back to back — then read
/// every added entity back, then idle until the next burst is due.
fn ingest_loop(addr: &str, bursts: &[Vec<Delta>], origin: Instant) -> io::Result<IngestTally> {
    let mut conn = Connection::open(addr)?;
    let mut tally = IngestTally::default();
    for (k, burst) in bursts.iter().enumerate() {
        let due = origin + Duration::from_secs(k as u64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        tally
            .lag_us
            .push(Instant::now().duration_since(due).as_micros() as u64);
        let mut acked_now = Vec::new();
        for delta in burst {
            let started = Instant::now();
            tally.posts_sent += 1;
            let ack = match conn.exchange(&delta.bytes) {
                Ok(response) => std::str::from_utf8(&response.body)
                    .ok()
                    .and_then(|text| Json::parse(text).ok())
                    .filter(|doc| {
                        response.status == 200
                            && doc.get("status").and_then(Json::as_str) == Some("ingested")
                    })
                    .ok_or_else(|| format!("ingest answered {}", response.status)),
                Err(e) => {
                    conn.reconnect()?;
                    Err(format!("transport: {e}"))
                }
            };
            let apply_ms = started.elapsed().as_secs_f64() * 1e3;
            match ack {
                Ok(doc) => {
                    tally.apply_ms.push(apply_ms);
                    let generation = doc.get("generation").and_then(Json::as_u64).unwrap_or(0);
                    let depth = doc.get("overlayDepth").and_then(Json::as_u64).unwrap_or(0);
                    tally.depth_max = tally.depth_max.max(depth);
                    acked_now.extend(delta.adds.iter().map(|(e, _)| (e.clone(), generation)));
                }
                Err(message) => tally.failures.push(format!("burst {k}: {message}")),
            }
        }
        for (entity, generation) in &acked_now {
            tally.lookups_sent += 1;
            if let Err(message) = read_back(&mut conn, entity, *generation) {
                tally.failures.push(message);
            }
        }
        tally.acked.extend(acked_now);
    }
    Ok(tally)
}

/// Waits until background compaction has stopped bumping the generation.
fn settle(server: &Server) -> io::Result<()> {
    let mut last = server.health()?;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(50));
        let now = server.health()?;
        if now.generation == last.generation {
            break;
        }
        last = now;
    }
    Ok(())
}

fn delta_of(before: ProcSample, after: ProcSample) -> (f64, u64) {
    (
        after.cpu_s - before.cpu_s,
        after.ctx_switches.saturating_sub(before.ctx_switches),
    )
}

/// The query-connection request pool of a serving workload, sized in
/// single requests: a batch stands for 32 of them, a document for 8.
pub fn query_pool(ctx: &Context, workload: &str, requests: usize) -> io::Result<Pool> {
    let abstracts = ctx.built.abstracts();
    let (oracle, vocab, seed) = (&ctx.oracle, &ctx.vocab, ctx.seed);
    Ok(match workload {
        "point_lookup" => streams::point_lookups(oracle, vocab, seed, requests),
        "batch_lookup" => streams::batch_lookups(vocab, seed, requests / 32),
        "tag_docs" => streams::tag_docs(&abstracts, seed, requests / 8),
        "mixed_ingest" => streams::mixed_queries(oracle, vocab, &abstracts, seed, requests),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{other:?} is not a serving workload"),
            ))
        }
    })
}

/// Runs one serving workload for `seconds` against a fresh server.
///
/// What the measured loop times — throughput, latencies, server CPU per
/// query, ingest applies — is reported at reference host speed (see
/// [`crate::host`]): times divided by the run's host scale, rates
/// multiplied by it. Set-up, build rate and boot time are as measured.
pub fn serve(ctx: &Context, workload: &str, seconds: f64) -> io::Result<Outcome> {
    let prepare = Instant::now();
    let measure = Duration::from_secs_f64(seconds);
    // Large enough that the cycle is long against the server's caches,
    // small enough to render in well under a second.
    let pool = query_pool(ctx, workload, 1 << 16)?;
    let bursts: Vec<Vec<Delta>> = if workload == "mixed_ingest" {
        (0..seconds.floor() as usize)
            .map(|k| {
                (0..DELTAS_PER_BURST)
                    .map(|d| streams::delta(&ctx.vocab, ctx.seed, k * DELTAS_PER_BURST + d))
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut out = Outcome::default();
    let mut hash = Fnv::default();
    hash.update(&pool.hash.to_le_bytes());
    for delta in bursts.iter().flatten() {
        hash.update(&delta.bytes);
        for (entity, _) in &delta.adds {
            hash.update(&streams::readback(entity));
        }
    }
    out.request_hash = hash.finish();

    // Boot: the median of `boots` spawns; the last one stays up.
    let mut boot_ms = Vec::with_capacity(ctx.boots);
    let mut server = Server::spawn(&ctx.server_binary, &ctx.built.snapshot, ctx.affinity.cpu)?;
    boot_ms.push(server.boot.as_secs_f64() * 1e3);
    for _ in 1..ctx.boots {
        drop(server);
        server = Server::spawn(&ctx.server_binary, &ctx.built.snapshot, ctx.affinity.cpu)?;
        boot_ms.push(server.boot.as_secs_f64() * 1e3);
    }

    let mut driver = Driver {
        conn: Connection::open(&server.addr)?,
        pool: &pool,
        cursor: 0,
        oracle: &ctx.oracle,
        probe: &ctx.probe,
        tally: Tally::new(measure),
    };
    driver.run(Instant::now() + Duration::from_secs_f64(ctx.warmup_s), None)?;
    let own_setup_s = prepare.elapsed().as_secs_f64();

    let server_before = server.sample()?;
    let self_before = sample_proc("self")?;
    let origin = Instant::now();
    let (mut ingest, wall_s, self_after, server_after) = std::thread::scope(|scope| {
        let ingester = (!bursts.is_empty())
            .then(|| scope.spawn(|| ingest_loop(&server.addr, &bursts, origin)));
        driver.run(origin + measure, Some(origin))?;
        // The measured period ends with the query loop; the ingest thread
        // (whose last burst started a second ago) is joined after.
        let wall_s = origin.elapsed().as_secs_f64();
        let samples = (sample_proc("self")?, server.sample()?);
        let ingest = ingester
            .map(|handle| handle.join().expect("ingest thread panicked"))
            .transpose()?;
        io::Result::Ok((ingest, wall_s, samples.0, samples.1))
    })?;
    let Driver {
        mut conn,
        mut tally,
        ..
    } = driver;

    // ---- after the clock: write readability, counter reconciliation ----
    // Probing is the harness's time, not the workload's.
    let measured_s = wall_s - tally.probe_time.as_secs_f64();
    out.measured_s = measured_s;
    out.attempted = tally.requests;
    out.absorb(std::mem::take(&mut tally.failures));
    let mut lookups_sent = tally.sent[0];
    if let Some(ingest) = &mut ingest {
        out.attempted += ingest.posts_sent + ingest.lookups_sent;
        out.absorb(std::mem::take(&mut ingest.failures));
        lookups_sent += ingest.lookups_sent;
        settle(&server)?;
        for (entity, generation) in &ingest.acked {
            out.attempted += 1;
            lookups_sent += 1;
            if let Err(message) = read_back(&mut conn, entity, *generation) {
                out.fail(format!("end of run: {message}"));
            }
        }
    }
    // The health probe being answered is itself counted as read but not
    // yet as responded when its body is built — hence the `- 1`.
    let health = server.health()?;
    for (what, server_side, client_side) in [
        ("kindLookup", health.kind_lookup, lookups_sent),
        ("kindTag", health.kind_tag, tally.sent[1]),
        ("kindBatch", health.kind_batch, tally.sent[2]),
        (
            "requests - 1 vs responsesOk + responsesError",
            health.requests - 1,
            health.responses_ok + health.responses_error,
        ),
        ("overloaded", health.overloaded, 0),
    ] {
        out.attempted += 1;
        if server_side != client_side {
            out.fail(format!(
                "/v1/health {what}: server {server_side}, client {client_side}"
            ));
        }
    }

    // ---- metrics ----
    let scale = host::scale(&tally.probe_us);
    // Nanoseconds as measured → microseconds at reference host speed.
    let us = |ns: Option<f64>| ns.map(|ns| ns / 1e3 / scale);
    let queries = tally.correct_queries.max(1) as f64;
    let (server_cpu_s, server_ctx) = delta_of(server_before, server_after);
    let (self_cpu_s, _) = delta_of(self_before, self_after);
    // Set-up, build and boot happen before the probed loop: as measured.
    out.put("setup_s", ctx.shared_setup_s + own_setup_s, 1);
    out.put("build_pages_per_s", ctx.built.pages_per_s(), 1);
    out.put("snapshot_bytes", ctx.built.snapshot_bytes as f64, 1);
    out.put_opt("boot_ms", median(&boot_ms), boot_ms.len());
    out.put(
        "qps",
        tally.correct_queries as f64 / measured_s * scale,
        tally.requests,
    );
    out.put_opt(
        "p50_us",
        us(tally.all.window_median(0.50)),
        tally.all.samples(),
    );
    out.put_opt(
        "p99_us",
        us(tally.all.window_median(0.99)),
        tally.all.samples(),
    );
    out.put(
        "server_cpu_us_per_query",
        server_cpu_s * 1e6 / queries / scale,
        1,
    );
    out.put("server_rss_mb", server_after.rss_peak_mb, 1);
    out.put(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );
    out.put(
        "server.ctx_switches_per_query",
        server_ctx as f64 / queries,
        1,
    );
    out.put_opt(
        "load.host_probe_us",
        median(&tally.probe_us),
        tally.probe_us.len(),
    );
    out.put("load.host_scale", scale, tally.probe_us.len() as u64);
    out.put(
        "load.client_cpu_share",
        self_cpu_s / (self_cpu_s + server_cpu_s).max(f64::MIN_POSITIVE),
        1,
    );
    if tally.lookups.samples() > 0 {
        let n = tally.lookups.samples();
        out.put_opt("lookup_p50_us", us(tally.lookups.window_median(0.50)), n);
        out.put_opt("lookup_p99_us", us(tally.lookups.window_median(0.99)), n);
    }
    if tally.tags.samples() > 0 {
        let n = tally.tags.samples();
        out.put_opt("tag_p50_us", us(tally.tags.window_median(0.50)), n);
        out.put_opt("tag_p99_us", us(tally.tags.window_median(0.99)), n);
        out.put(
            "load.tag_over_2ms_share",
            tally.tags.share_over(SLOW_TAG_NS),
            n as u64,
        );
    }
    if let Some(ingest) = &ingest {
        let n = tally.tags.samples();
        out.put_opt(
            "tag_p999_us",
            us(tally.tags.overall(0.999).map(|v| v as f64)),
            n,
        );
        let mut apply = ingest.apply_ms.clone();
        apply.sort_by(f64::total_cmp);
        let at = |q: f64| -> Option<f64> {
            let rank = (q * apply.len() as f64).ceil() as usize;
            apply
                .get(rank.clamp(1, apply.len().max(1)) - 1)
                .map(|ms| ms / scale)
        };
        out.put_opt("ingest_apply_p50_ms", at(0.50), apply.len());
        out.put_opt("ingest_apply_p90_ms", at(0.90), apply.len());
        let mut lag = ingest.lag_us.clone();
        lag.sort_unstable();
        out.put_opt(
            "load.send_lag_p99_us",
            percentile(&lag, 0.99).map(|v| v as f64),
            lag.len(),
        );
        out.put("serve.overlay_depth_max", ingest.depth_max as f64, 1);
        let applies = ingest.apply_ms.len() as u64;
        out.put(
            "serve.compactions_published",
            health.generation.saturating_sub(1 + applies) as f64,
            1,
        );
    }
    Ok(out)
}

/// `build`: the construction side and the operator's costs. The build
/// the harness already made is repetition one; `repetitions - 1` more
/// follow (each must reproduce the same snapshot size), then `boots`
/// spawns of `cnp_server` are timed to their first health 200. The
/// sampled isA precision must hold the paper's bar.
pub fn build(
    ctx: &Context,
    repetitions: usize,
    boots: usize,
    scratch: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut rates = vec![ctx.built.pages_per_s()];
    let pages = ctx.built.corpus.config.num_pages;
    ctx.affinity.release();
    for rep in 1..repetitions {
        let again = setup::build(pages, &scratch.join(format!("rebuild-{rep}.cnpb")))?;
        out.attempted += 1;
        if again.snapshot_bytes != ctx.built.snapshot_bytes {
            out.fail(format!(
                "rebuild {rep} wrote {} bytes, the first build {}",
                again.snapshot_bytes, ctx.built.snapshot_bytes
            ));
        }
        rates.push(again.pages_per_s());
        let _ = std::fs::remove_file(&again.snapshot);
    }
    ctx.affinity.pin();

    let mut boot_ms = Vec::with_capacity(boots);
    let mut rss_mb = 0.0;
    for _ in 0..boots {
        out.attempted += 1;
        match Server::spawn(&ctx.server_binary, &ctx.built.snapshot, ctx.affinity.cpu) {
            Ok(server) => {
                boot_ms.push(server.boot.as_secs_f64() * 1e3);
                rss_mb = server.sample()?.rss_peak_mb;
            }
            Err(e) => out.fail(format!("boot: {e}")),
        }
    }

    out.attempted += 1;
    let precision = ctx.built.precision();
    if precision < setup::MIN_PRECISION {
        out.fail(format!(
            "sampled isA precision {precision:.4} is below {}",
            setup::MIN_PRECISION
        ));
    }

    let mut hash = Fnv::default();
    hash.update(&setup::CORPUS_SEED.to_le_bytes());
    hash.update(&(pages as u64).to_le_bytes());
    out.request_hash = hash.finish();
    out.measured_s = started.elapsed().as_secs_f64() + ctx.built.total_s();
    out.put("setup_s", ctx.built.total_s(), 1);
    out.put_opt("build_pages_per_s", median(&rates), rates.len());
    out.put_opt("boot_ms", median(&boot_ms), boot_ms.len());
    out.put("snapshot_bytes", ctx.built.snapshot_bytes as f64, 1);
    out.put("server_rss_mb", rss_mb, 1);
    out.put(
        "core.isa_precision",
        precision,
        setup::PRECISION_SAMPLE as u64,
    );
    out.put(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );
    Ok(out)
}
