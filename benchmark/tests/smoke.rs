//! The smoke pass: all five workloads, end to end, on a 300-page corpus
//! for two seconds each, against the real `cnp_server` binary — plus one
//! traced run through `cnp_layers`. Nothing may fail. Smoke results are
//! flagged as such and are never comparable.

use cnp_serve::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds the repo's `cnp_server` (a no-op when it is up to date) and
/// says where cargo put it.
fn server_binary() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--quiet",
            "--release",
            "--offline",
            "-p",
            "cnp_server",
        ])
        .args(["--bin", "cnp_server", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building cnp_server failed");
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    target.join("release/cnp_server")
}

fn run(out: &Path, extra: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_cnp_benchmark"))
        .args(["--pages", "300", "--seconds", "2", "--seed", "11"])
        .arg("--server")
        .arg(server_binary())
        .args(["--layers", env!("CARGO_BIN_EXE_cnp_layers")])
        .arg("--manifest")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .arg("--out")
        .arg(out)
        .args(extra)
        .output()
        .expect("harness runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&output.stderr));
    }
    (output.status.success(), stdout)
}

fn parse(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("result file")).expect("result is JSON")
}

#[test]
fn all_five_workloads_pass_on_a_small_corpus() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-suite");
    let (ok, _) = run(&out, &[]);
    assert!(ok, "the suite reported a failure");

    let result = parse(&out.join("result.json"));
    assert_eq!(result.get("smoke").and_then(Json::as_bool), Some(true));
    assert!(result.get("claim").is_some_and(Json::is_null));
    let environment = result.get("environment").expect("environment block");
    for key in [
        "nproc", "pinned", "kernel", "rustc", "commit", "seed", "pages", "corpus",
    ] {
        assert!(environment.get(key).is_some(), "environment lacks {key}");
    }
    let run = &result.get("runs").and_then(Json::as_arr).expect("runs")[0];
    for workload in [
        "point_lookup",
        "batch_lookup",
        "tag_docs",
        "mixed_ingest",
        "build",
    ] {
        let outcome = run
            .get(workload)
            .unwrap_or_else(|| panic!("{workload} missing"));
        assert_eq!(
            outcome.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        assert!(outcome.get("attempted").and_then(Json::as_u64) > Some(0));
        let metric = |name: &str| {
            outcome
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(metric("failed_share"), Some(0.0), "{workload}");
        assert!(metric("setup_s") > Some(0.0), "{workload}");
        assert!(metric("snapshot_bytes") > Some(0.0), "{workload}");
        if workload != "build" {
            assert!(metric("qps") > Some(0.0), "{workload}");
            assert!(metric("p99_us") >= metric("p50_us"), "{workload}");
        }
    }
    // The ingest run applied every sidecar it posted: 2 bursts of 5.
    let applies = run
        .get("mixed_ingest")
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get("ingest_apply_p50_ms"))
        .and_then(|m| m.get("samples"))
        .and_then(Json::as_u64);
    assert_eq!(applies, Some(10));

    // A smoke result is refused by --compare.
    let result_path = out.join("result.json");
    let refused = Command::new(env!("CARGO_BIN_EXE_cnp_benchmark"))
        .arg("--compare")
        .args([&result_path, &result_path])
        .output()
        .expect("harness runs");
    assert!(!refused.status.success());
}

#[test]
fn a_traced_run_reports_every_listed_layer_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace");
    let (ok, stdout) = run(&out, &["--workload", "mixed_ingest", "--trace", "1"]);
    assert!(ok, "the traced run reported a failure");

    // The last line is the driver's result: exactly the manifest's
    // per-layer metrics (the harness refuses to print it otherwise).
    let line = parse_line(stdout.lines().last().expect("output"));
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics in {line:?}");
    };
    let manifest = parse(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let listed = manifest
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert_eq!(metrics.len(), listed.len());

    let value = |name: &str| {
        line.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    // Self times partition the replay's root spans.
    assert!((value("trace.self_time_coverage") - 1.0).abs() < 0.05);
    assert!(value("replay.request_ns") > 0.0);
    assert!(value("taxonomy.rows_decoded_per_call") > 0.0);
    assert!(value("overlay.men2ent_ns.d4") > 0.0);
    assert!(value("core.stage_ms.abstract") > 0.0);

    let spans = parse(&out.join("trace-mixed_ingest.json"));
    assert!(spans.get("spansRecorded").and_then(Json::as_u64) > Some(0));
    assert!(spans
        .get("selfTimeByLayer")
        .and_then(|s| s.get("serve.execute"))
        .is_some());
}

fn parse_line(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}
