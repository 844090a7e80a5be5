//! Smoke test of the benchmark itself at tiny request counts: every
//! metric `BENCHMARK.json` names is printed with its unit, and a byte
//! mismatch on `hot-replay` is counted as an error.

use fastvg_wire::Json;
use std::process::Command;

/// Runs the benchmark binary with whitespace-separated `args`; returns
/// its standard output.
fn bench(args: &str) -> String {
    let spans = format!("{}/spans", env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_fastvg-perf"))
        .args(args.split_whitespace())
        .args(["--seconds", "1", "--spans-out", &spans])
        .output()
        .expect("run fastvg-perf");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "fastvg-perf {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The result object on the last line.
fn result(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("output has lines")).expect("last line is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_prints(stdout: &str, list: &str) {
    let metrics = result(stdout);
    let metrics = metrics
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let declared = declared(list);
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{list}: one entry per metric"
    );
    for (name, unit) in declared {
        let entry = metrics
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value)
            .unwrap_or_else(|| panic!("{list} metric {name} missing"));
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(unit.as_str())
        );
        assert!(entry
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite));
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} = ")) && l.ends_with(&unit)),
            "{name} is not printed with its unit"
        );
    }
}

fn count(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).expect(key)
}

#[test]
fn hot_replay_prints_every_end_to_end_metric() {
    let stdout = bench("--workload hot-replay --seed 1 --trace 0 --requests 30");
    let doc = result(&stdout);
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!((count(&doc, "attempted"), count(&doc, "failed")), (30, 0));
    assert_prints(&stdout, "end_to_end");
    assert!(stdout.contains("\nerror_rate: 0 "), "{stdout}");
}

#[test]
fn injected_byte_mismatch_counts_toward_error_rate() {
    let stdout =
        bench("--workload hot-replay --seed 1 --trace 0 --requests 30 --inject-mismatch 3");
    let doc = result(&stdout);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!((count(&doc, "attempted"), count(&doc, "failed")), (30, 1));
    assert!(stdout.contains("request 3: byte mismatch"), "{stdout}");
    let rate: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("error_rate: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("error_rate line");
    assert!((rate - 1.0 / 30.0).abs() < 1e-12, "error_rate {rate}");
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let stdout = bench("--workload fast-cold --seed 1 --trace 1 --requests 6");
    let doc = result(&stdout);
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_prints(&stdout, "per_layer");
}
