//! `--compare` on two committed result files: `fixtures/baseline.json`
//! and `fixtures/change.json` (five repeats each, hand-written numbers).

use std::path::Path;
use std::process::Command;

fn compare(a: &str, b: &str) -> (Option<i32>, String) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let output = Command::new(env!("CARGO_BIN_EXE_cnp_benchmark"))
        .arg("--compare")
        .arg(fixtures.join(a))
        .arg(fixtures.join(b))
        .output()
        .expect("harness runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned()
            + &String::from_utf8_lossy(&output.stderr),
    )
}

fn verdict_of<'a>(table: &'a str, workload: &str, metric: &str) -> &'a str {
    table
        .lines()
        .find(|line| {
            let mut cols = line.split_whitespace();
            cols.next() == Some(workload) && cols.next() == Some(metric)
        })
        .and_then(|line| line.split_whitespace().last())
        .unwrap_or_else(|| panic!("no row for {workload} {metric} in:\n{table}"))
}

#[test]
fn a_file_compared_with_itself_is_all_ok() {
    let (code, table) = compare("baseline.json", "baseline.json");
    assert_eq!(code, Some(0), "{table}");
    assert!(!table.contains("regressed\n") || table.contains("0 regressed"));
    assert_eq!(verdict_of(&table, "point_lookup", "qps"), "ok");
}

#[test]
fn verdicts_per_metric_and_exit_code_on_regression() {
    let (code, table) = compare("baseline.json", "change.json");
    assert_eq!(code, Some(1), "{table}");
    // qps fell 30 % on a 20 % bound.
    assert_eq!(verdict_of(&table, "point_lookup", "qps"), "regressed");
    // p50 rose 4 %: inside the bound.
    assert_eq!(verdict_of(&table, "point_lookup", "lookup_p50_us"), "ok");
    // p99 repeats disagree by far more than the bound: nothing can be said.
    assert_eq!(
        verdict_of(&table, "point_lookup", "lookup_p99_us"),
        "unresolved"
    );
    // An improvement is ok, whatever its size.
    assert_eq!(verdict_of(&table, "tag_docs", "tag_p50_us"), "ok");
    // failed_share has a zero bound: any increase regresses.
    assert_eq!(verdict_of(&table, "tag_docs", "failed_share"), "regressed");
    // Per-layer metrics carry no bound and are not judged.
    assert!(!table.contains("json.parse_ns"));
    assert!(table.contains("2 regressed"));
}

#[test]
fn different_request_streams_are_refused() {
    let (code, message) = compare("baseline.json", "other_inputs.json");
    assert_eq!(code, Some(1));
    assert!(message.contains("request streams differ"), "{message}");
}
