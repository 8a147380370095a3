#![forbid(unsafe_code)]
//! The end-to-end harness.
//!
//! ```text
//! cnp_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--pages N] [--repeat N] [--out DIR] [--manifest PATH]
//!               --server PATH [--layers PATH]
//! cnp_benchmark --compare A.json B.json
//! ```
//!
//! Without `--workload` it runs the whole suite — `point_lookup`,
//! `batch_lookup`, `tag_docs`, `mixed_ingest`, `build` — on one build of
//! the corpus, a fresh `cnp_server` per workload, prints every metric by
//! name with its unit, and writes `<out>/result.json`. With `--workload`
//! it runs that one and ends its output with the one-line JSON result
//! `BENCHMARK.json` specifies. `--trace 1` adds the per-layer numbers
//! (the `cnp_layers` binary does the in-process half). The exit code is
//! non-zero when any operation failed or any answer was wrong.
//!
//! Run it through `benchmark/run.sh`, which builds both binaries and the
//! real `cnp_server` first.

use cnp_benchmark::host::HostProbe;
use cnp_benchmark::oracle::Oracle;
use cnp_benchmark::report::{self, Environment, SuiteRun};
use cnp_benchmark::server::Affinity;
use cnp_benchmark::setup::{self, STANDARD_PAGES};
use cnp_benchmark::streams::{self, Vocabulary, DELTAS_PER_BURST, ENTITIES_PER_DELTA};
use cnp_benchmark::workloads::{self, Context, Measured, Outcome};
use cnp_serve::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: cnp_benchmark --server PATH [--layers PATH] [--workload NAME] \
                     [--seed N] [--seconds S] [--trace 0|1] [--pages N] [--repeat N] \
                     [--out DIR] [--manifest PATH] | --compare A.json B.json";

/// Seconds of wire traffic a traced run takes its wire-side numbers from.
const TRACE_WIRE_SECONDS: f64 = 4.0;
/// Requests of the workload's stream the traced replay runs through.
const REPLAY_REQUESTS: usize = 4096;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    pages: usize,
    repeat: usize,
    out: PathBuf,
    server: Option<PathBuf>,
    layers: Option<PathBuf>,
    manifest: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        pages: STANDARD_PAGES,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
        server: None,
        layers: None,
        manifest: PathBuf::from("BENCHMARK.json"),
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(&flag, value()?)?,
            "--seconds" => args.seconds = Some(number(&flag, value()?)?),
            "--trace" => args.trace = number::<u8>(&flag, value()?)? != 0,
            "--pages" => args.pages = number(&flag, value()?)?,
            "--repeat" => args.repeat = number::<usize>(&flag, value()?)?.max(1),
            "--out" => args.out = PathBuf::from(value()?),
            "--server" => args.server = Some(PathBuf::from(value()?)),
            "--layers" => args.layers = Some(PathBuf::from(value()?)),
            "--manifest" => args.manifest = PathBuf::from(value()?),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A binary `run.sh` built and named on the command line.
fn built_binary(flag: &str, path: Option<&Path>) -> Result<PathBuf, String> {
    let path = path.ok_or_else(|| format!("{flag} is required; run benchmark/run.sh"))?;
    path.canonicalize()
        .ok()
        .filter(|p| p.is_file())
        .ok_or_else(|| {
            format!(
                "{flag}: no binary at {}; run benchmark/run.sh",
                path.display()
            )
        })
}

/// Removes the run's scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_requests(path: &Path, requests: &[&[u8]]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for bytes in requests {
        file.write_all(&(bytes.len() as u32).to_le_bytes())?;
        file.write_all(bytes)?;
    }
    file.flush()
}

/// Pipeline-side per-layer numbers, read off the build's own report.
fn build_layer_metrics(ctx: &Context, into: &mut BTreeMap<String, Measured>) {
    let mut put = |name: String, value: f64| {
        into.insert(name, Measured { value, samples: 1 });
    };
    let report = &ctx.built.outcome.report;
    for (stage, took) in &report.stage_timings {
        put(format!("core.stage_ms.{stage}"), took.as_secs_f64() * 1e3);
    }
    put(
        "core.candidates_merged".to_string(),
        report.merged_candidates as f64,
    );
    put(
        "core.candidates_surviving".to_string(),
        report.final_candidates as f64,
    );
    put("core.isa_precision".to_string(), ctx.built.precision());
    put(
        "encyclopedia.generate_ms".to_string(),
        ctx.built.generate_s * 1e3,
    );
    put(
        "persist.bytes_per_edge".to_string(),
        ctx.built.snapshot_bytes as f64 / ctx.built.outcome.taxonomy.num_is_a().max(1) as f64,
    );
}

/// The in-process half of a traced run: hands `cnp_layers` the snapshot,
/// the first [`REPLAY_REQUESTS`] request bytes of the workload's stream
/// and a reference probe stream, and folds its numbers in.
fn trace_layers(
    ctx: &Context,
    workload: &str,
    layers: &Path,
    scratch: &Path,
    out_dir: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let probe = streams::reference_stream(&ctx.vocab, &ctx.built.abstracts(), ctx.seed);
    let probe: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();
    // `build` sends no requests of its own: its replay is `point_lookup`'s.
    let replayed = if workload == "build" {
        "point_lookup"
    } else {
        workload
    };
    let pool = workloads::query_pool(ctx, replayed, REPLAY_REQUESTS).map_err(|e| e.to_string())?;
    let replay: Vec<&[u8]> = pool.requests.iter().map(|r| r.bytes.as_slice()).collect();

    let replay_path = scratch.join("replay.bin");
    let probe_path = scratch.join("probe.bin");
    write_requests(&replay_path, &replay).map_err(|e| e.to_string())?;
    write_requests(&probe_path, &probe).map_err(|e| e.to_string())?;
    let trace_path = out_dir.join(format!("trace-{workload}.json"));
    let output = Command::new(layers)
        .arg("--snapshot")
        .arg(&ctx.built.snapshot)
        .arg("--replay")
        .arg(&replay_path)
        .arg("--probe")
        .arg(&probe_path)
        .arg("--trace-out")
        .arg(&trace_path)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", layers.display()))?;
    if !output.status.success() {
        return Err(format!("cnp_layers exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .ok_or_else(|| "cnp_layers printed no result".to_string())?;
    let Json::Obj(fields) = doc else {
        return Err("cnp_layers result is not an object".to_string());
    };
    for (name, value) in fields {
        if let Some(value) = value.as_f64() {
            outcome.metrics.insert(name, Measured { value, samples: 1 });
        }
    }
    // Wire p50 minus the in-process p50 of the same requests: what the
    // socket, the scheduler and the client cost. Both as measured: the
    // wire p50 is reported at reference host speed, `cnp_layers` numbers
    // are raw, so the wire side is scaled back first.
    let metric = |name: &str| outcome.metrics.get(name).copied();
    if let (Some(wire), Some(scale), Some(inproc)) = (
        metric("p50_us"),
        metric("load.host_scale"),
        metric("replay.request_p50_ns"),
    ) {
        outcome.metrics.insert(
            "socket.residual_us".to_string(),
            Measured {
                value: wire.value * scale.value - inproc.value / 1e3,
                samples: wire.samples,
            },
        );
    }
    println!("trace written to {}", trace_path.display());
    Ok(())
}

/// The one-line result `BENCHMARK.json` specifies, holding exactly the
/// metrics the manifest lists for this mode.
fn driver_line(manifest: &Json, trace: bool, outcome: &Outcome) -> Result<String, String> {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let listed = manifest
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("manifest has no {section}"))?;
    let mut metrics = Vec::with_capacity(listed.len());
    for entry in listed {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{section} entry without a name"))?;
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        let measured = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("{section} metric {name} was not measured"))?;
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::num(measured.value)),
                ("unit".to_string(), Json::str(unit)),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".to_string(), Json::Bool(outcome.failed == 0)),
        (
            "attempted".to_string(),
            Json::num(outcome.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::num(outcome.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .write())
}

fn run(args: &Args, started: Instant) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let (table, regressed) = report::compare(&read_json(a)?, &read_json(b)?)?;
        print!("{table}");
        println!("{regressed} regressed");
        return Ok(regressed == 0);
    }

    let server_binary = built_binary("--server", args.server.as_deref())?;
    let layers_binary = args
        .trace
        .then(|| built_binary("--layers", args.layers.as_deref()))
        .transpose()?;
    let affinity = Affinity::detect();
    if affinity.cpu.is_none() {
        eprintln!("cnp_benchmark: taskset unavailable, running unpinned");
    }

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = Scratch(args.out.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| e.to_string())?;

    let smoke = args.pages != STANDARD_PAGES;
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let seconds_of = |workload: &str| -> f64 {
        let full = args
            .seconds
            .unwrap_or_else(|| workloads::default_seconds(workload));
        if args.trace {
            full.min(TRACE_WIRE_SECONDS)
        } else {
            full
        }
    };
    let most_bursts = names
        .iter()
        .filter(|&&w| w == "mixed_ingest")
        .map(|w| seconds_of(w).floor() as usize)
        .max()
        .unwrap_or(0);

    let mut runs: Vec<SuiteRun> = Vec::with_capacity(args.repeat);
    let mut environment = None;
    let mut all_correct = true;
    for repeat in 0..args.repeat {
        let shared = if repeat == 0 { started } else { Instant::now() };
        affinity.release();
        let built = setup::build(args.pages, &scratch.0.join("snapshot.cnpb"))
            .map_err(|e| format!("build: {e}"))?;
        affinity.pin();
        let oracle = Oracle::new(&built.outcome.taxonomy)
            .with_ingest_slack(most_bursts * DELTAS_PER_BURST * ENTITIES_PER_DELTA);
        let vocab = Vocabulary::new(&oracle);
        let stats = &built.outcome.report.stats;
        environment.get_or_insert_with(|| Environment {
            seed: args.seed,
            pages: args.pages,
            cpu: affinity.cpu,
            smoke,
            corpus: [
                stats.entities as u64,
                stats.concepts as u64,
                built.outcome.taxonomy.num_is_a() as u64,
                built.snapshot_bytes,
            ],
        });
        let ctx = Context {
            built,
            oracle,
            vocab,
            seed: args.seed,
            server_binary: server_binary.clone(),
            affinity: affinity.clone(),
            warmup_s: if smoke { 0.5 } else { 3.0 },
            boots: 15,
            shared_setup_s: shared.elapsed().as_secs_f64(),
            probe: HostProbe::default(),
        };

        let mut suite = SuiteRun::new();
        for &workload in &names {
            let mut outcome = if workload == "build" {
                workloads::build(&ctx, 3, 10, &scratch.0)
            } else {
                workloads::serve(&ctx, workload, seconds_of(workload))
            }
            .map_err(|e| format!("{workload}: {e}"))?;
            if let Some(layers) = &layers_binary {
                build_layer_metrics(&ctx, &mut outcome.metrics);
                trace_layers(&ctx, workload, layers, &scratch.0, &args.out, &mut outcome)
                    .map_err(|e| format!("{workload}: {e}"))?;
            }
            report::print_outcome(workload, &outcome);
            all_correct &= outcome.failed == 0;
            suite.insert(workload.to_string(), outcome);
        }
        runs.push(suite);
    }

    let environment = environment.expect("at least one repeat ran");
    let result = report::result_file(&environment, &runs);
    let result_path = args.out.join(match &args.workload {
        Some(w) => format!("result-{w}.json"),
        None => "result.json".to_string(),
    });
    std::fs::write(&result_path, result.write() + "\n")
        .map_err(|e| format!("{}: {e}", result_path.display()))?;
    println!("\nresult written to {}", result_path.display());
    println!("total wall time {:.1} s", started.elapsed().as_secs_f64());

    if let Some(workload) = &args.workload {
        // The driver's contract: the last line is the result, holding
        // exactly the manifest's metrics for this mode.
        let outcome = &runs[runs.len() - 1][workload];
        match read_json(&args.manifest) {
            Ok(manifest) if workload != "build" => {
                println!("{}", driver_line(&manifest, args.trace, outcome)?);
            }
            _ => {}
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("cnp_benchmark: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cnp_benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
