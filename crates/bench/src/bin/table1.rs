//! Regenerates **Table 1** of the paper: success/fail, points probed,
//! total runtime and speedup for all 12 benchmarks, fast extraction vs
//! the Canny+Hough baseline.
//!
//! ```sh
//! cargo run --release -p fastvg-bench --bin table1
//! cargo run --release -p fastvg-bench --bin table1 -- --jobs 4
//! cargo run --release -p fastvg-bench --bin table1 -- --gate --out artifacts
//! cargo run --release -p fastvg-bench --bin table1 -- --method fast
//! ```
//!
//! Flags (the standard bench set, see [`fastvg_bench::BenchArgs`]):
//!
//! * `--jobs N` — run up to `N` benchmark sessions concurrently through
//!   [`fastvg_core::batch::BatchExtractor`] (default: one per core).
//!   Results are bit-identical for every `N`.
//! * `--backend SPEC` — probe-source selection (`sim`,
//!   `throttled:<dwell>`, `record:<tape>[+inner]`, `replay:<tape>`;
//!   default `sim`). `record:tapes/{label}.tape` writes one tape per
//!   benchmark and method; replaying them reproduces this table
//!   bit-for-bit without the generator.
//! * `--method fast|hough` — run a single method (reduced table, no
//!   speedup column or artifacts). Default: both.
//! * `--out DIR` — artifact directory for `table1.csv` / `table1.json` /
//!   `BENCH_batch_throughput.json` (default `target/artifacts`).
//! * `--gate` — exit non-zero unless the reproduction holds the paper's
//!   quality bar: fast extractor ≥ 10/12 successes **and** mean speedup
//!   over mutual successes ≥ 5×. This is what CI's `table1-gate` job
//!   runs, so a quality regression fails the build instead of merging
//!   silently. Requires both methods.
//!
//! Besides the Table 1 artifacts, a run with both methods also times the
//! whole suite serially vs `--jobs 4` and writes the result to
//! `BENCH_batch_throughput.json`, so the perf trajectory is tracked
//! across PRs by the uploaded CI artifact.

use fastvg_bench::{csv_f64, fmt_secs, push_csv_row, run_method, run_suite, Artifacts, BenchArgs};
use fastvg_core::report::SuccessCriteria;
use fastvg_wire::Json;
use qd_dataset::paper_suite_jobs;
use qd_instrument::SourceBackend;
use std::time::Instant;

/// Gate thresholds (paper: 10/12 successes, speedups 5.84×–19.34×).
const GATE_MIN_FAST_SUCCESSES: usize = 10;
const GATE_MIN_MEAN_SPEEDUP: f64 = 5.0;

struct Row {
    benchmark: usize,
    size: usize,
    fast_success: bool,
    base_success: bool,
    fast_probes: usize,
    fast_coverage: f64,
    base_probes: usize,
    fast_runtime: std::time::Duration,
    base_runtime: std::time::Duration,
    speedup: Option<f64>,
    alpha12: f64,
    alpha21: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let gate = args.has_flag("--gate");
    let both = args.method.fast() && args.method.hough();
    if gate && !both {
        eprintln!("--gate needs both methods (drop --method)");
        std::process::exit(2);
    }

    let criteria = SuccessCriteria::default();
    let suite = paper_suite_jobs(args.jobs)?;
    let backend = args.resolve_backend();

    if !both {
        // Single-method mode: one table through the one generic path.
        let extractor = args.method.extractors().remove(0);
        let runs = run_method(
            backend.as_ref(),
            extractor.as_ref(),
            &suite,
            &criteria,
            args.jobs,
        );
        println!("Table 1 ({} only)", extractor.method());
        println!(
            "{:>3} {:>9} | {:>7} | {:>16} | {:>10}",
            "CSD", "Size", "Result", "Probes", "Runtime"
        );
        println!("{}", "-".repeat(60));
        let mut successes = 0usize;
        for run in &runs {
            let r = &run.report;
            successes += r.success as usize;
            println!(
                "{:>3} {:>9} | {:>7} | {:>8} ({:>5.2}%) | {:>10}",
                r.benchmark,
                format!("{0}x{0}", r.size),
                if r.success { "Success" } else { "Fail" },
                r.probes,
                100.0 * r.coverage,
                fmt_secs(r.runtime),
            );
            if let Some(reason) = &r.failure {
                println!("      failure: {reason}");
            }
        }
        println!("{}", "-".repeat(60));
        println!("{}: {successes}/{} success", extractor.method(), runs.len());
        return Ok(());
    }

    let runs = run_suite(backend.as_ref(), &suite, &criteria, args.jobs);

    println!("Table 1: Result Summary (synthetic qflow-like suite)");
    println!(
        "{:>3} {:>9} | {:>7} {:>9} | {:>16} {:>9} | {:>10} {:>10} | {:>8}",
        "CSD",
        "Size",
        "Fast",
        "Baseline",
        "Fast probes",
        "Baseline",
        "Fast time",
        "Base time",
        "Speedup"
    );
    println!("{}", "-".repeat(105));

    let mut rows = Vec::with_capacity(runs.len());
    let mut fast_successes = 0;
    let mut base_successes = 0;
    let mut speedups: Vec<f64> = Vec::new();

    for run in &runs {
        let f = &run.fast.report;
        let b = &run.baseline.report;
        fast_successes += f.success as usize;
        base_successes += b.success as usize;

        let speedup = if f.success { f.speedup_versus(b) } else { None };
        if let (true, Some(s)) = (f.success && b.success, speedup) {
            speedups.push(s);
        }
        println!(
            "{:>3} {:>9} | {:>7} {:>9} | {:>8} ({:>5.2}%) {:>9} | {:>10} {:>10} | {:>8}",
            f.benchmark,
            format!("{0}x{0}", f.size),
            if f.success { "Success" } else { "Fail" },
            if b.success { "Success" } else { "Fail" },
            f.probes,
            100.0 * f.coverage,
            b.probes,
            fmt_secs(f.runtime),
            fmt_secs(b.runtime),
            match speedup {
                Some(s) if f.success && b.success => format!("{s:.2}x"),
                Some(s) if f.success => format!("({s:.2}x)"),
                _ => "N/A".to_string(),
            }
        );
        if let Some(reason) = &f.failure {
            println!("      fast failure: {reason}");
        }
        if let Some(reason) = &b.failure {
            println!("      baseline failure: {reason}");
        }
        rows.push(Row {
            benchmark: f.benchmark,
            size: f.size,
            fast_success: f.success,
            base_success: b.success,
            fast_probes: f.probes,
            fast_coverage: f.coverage,
            base_probes: b.probes,
            fast_runtime: f.runtime,
            base_runtime: b.runtime,
            speedup: if f.success && b.success {
                speedup
            } else {
                None
            },
            alpha12: f.alpha12,
            alpha21: f.alpha21,
        });
    }

    println!("{}", "-".repeat(105));
    println!(
        "fast extraction: {fast_successes}/12 success (paper: 10/12)   baseline: {base_successes}/12 (paper: 9/12)"
    );
    let mean_speedup = if speedups.is_empty() {
        f64::NAN
    } else {
        speedups.iter().sum::<f64>() / speedups.len() as f64
    };
    if !speedups.is_empty() {
        let lo = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = speedups.iter().cloned().fold(0.0, f64::max);
        println!(
            "speedup on mutual successes: {lo:.2}x .. {hi:.2}x, mean {mean_speedup:.2}x (paper: 5.84x .. 19.34x)"
        );
    }

    let artifacts = Artifacts::at(&args.out_dir("target/artifacts"))?;
    write_artifacts(
        &artifacts,
        &rows,
        fast_successes,
        base_successes,
        mean_speedup,
    )?;
    write_throughput_bench(
        &artifacts,
        backend.as_ref(),
        &suite,
        &criteria,
        args.jobs,
        fast_successes,
        base_successes,
        mean_speedup,
    )?;
    println!("artifacts: {}", artifacts.dir().display());

    if gate {
        let successes_ok = fast_successes >= GATE_MIN_FAST_SUCCESSES;
        let speedup_ok = mean_speedup >= GATE_MIN_MEAN_SPEEDUP;
        if !(successes_ok && speedup_ok) {
            eprintln!(
                "table1 gate FAILED: fast successes {fast_successes}/12 (need >= {GATE_MIN_FAST_SUCCESSES}), \
                 mean speedup {mean_speedup:.2}x (need >= {GATE_MIN_MEAN_SPEEDUP:.2}x)"
            );
            std::process::exit(1);
        }
        println!(
            "table1 gate passed: {fast_successes}/12 successes, mean speedup {mean_speedup:.2}x"
        );
    }
    Ok(())
}

/// Times the full two-method suite serially vs `--jobs 4` and writes
/// `BENCH_batch_throughput.json` — the machine-readable perf artifact
/// tracked across PRs. Wall times are compute-bound here (replayed
/// sessions have no real dwell), so the parallel speedup reflects
/// available cores, not dwell overlap.
#[allow(clippy::too_many_arguments)]
fn write_throughput_bench(
    artifacts: &Artifacts,
    backend: &dyn SourceBackend,
    suite: &[qd_dataset::GeneratedBenchmark],
    criteria: &SuccessCriteria,
    jobs_flag: usize,
    fast_successes: usize,
    base_successes: usize,
    mean_speedup: f64,
) -> std::io::Result<()> {
    let time_with = |jobs: usize| -> (f64, usize) {
        let started = Instant::now();
        let runs = run_suite(backend, suite, criteria, jobs);
        let ok = runs.iter().filter(|r| r.fast.report.success).count();
        (started.elapsed().as_secs_f64(), ok)
    };
    let (serial_s, serial_ok) = time_with(1);
    let (jobs4_s, jobs4_ok) = time_with(4);
    assert_eq!(
        serial_ok, jobs4_ok,
        "batch determinism violated between jobs=1 and jobs=4"
    );

    let json = Json::object()
        .field("bench", "batch_throughput")
        .field("suite", "paper12-both-methods")
        .field("serial_wall_s", Json::num(serial_s))
        .field("jobs4_wall_s", Json::num(jobs4_s))
        .field(
            "throughput_speedup",
            Json::num(serial_s / jobs4_s.max(1e-12)),
        )
        .field("jobs_flag", jobs_flag)
        .field(
            "table1",
            Json::object()
                .field("fast_successes", fast_successes)
                .field("baseline_successes", base_successes)
                .field("mean_speedup", Json::num(mean_speedup))
                .build(),
        )
        .build();
    let path = artifacts.write("BENCH_batch_throughput.json", &json.pretty())?;
    println!(
        "batch throughput: {serial_s:.2}s serial vs {jobs4_s:.2}s --jobs 4 ({:.2}x) -> {}",
        serial_s / jobs4_s.max(1e-12),
        path.display()
    );
    Ok(())
}

/// Writes `table1.csv` (per-benchmark rows) and `table1.json` (summary +
/// rows) for CI artifact upload. JSON goes through the shared
/// [`fastvg_wire::Json`] serializer (the vendored serde shim has none).
fn write_artifacts(
    artifacts: &Artifacts,
    rows: &[Row],
    fast_successes: usize,
    base_successes: usize,
    mean_speedup: f64,
) -> std::io::Result<()> {
    let mut csv = String::from(
        "benchmark,size,fast_success,baseline_success,fast_probes,fast_coverage,baseline_probes,fast_runtime_s,baseline_runtime_s,speedup,alpha12,alpha21\n",
    );
    for r in rows {
        push_csv_row(
            &mut csv,
            &[
                r.benchmark.to_string(),
                r.size.to_string(),
                r.fast_success.to_string(),
                r.base_success.to_string(),
                r.fast_probes.to_string(),
                format!("{:.6}", r.fast_coverage),
                r.base_probes.to_string(),
                format!("{:.3}", r.fast_runtime.as_secs_f64()),
                format!("{:.3}", r.base_runtime.as_secs_f64()),
                r.speedup.map_or(String::new(), |s| format!("{s:.4}")),
                csv_f64(r.alpha12),
                csv_f64(r.alpha21),
            ],
        );
    }
    artifacts.write("table1.csv", &csv)?;

    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::object()
                .field("benchmark", r.benchmark)
                .field("size", r.size)
                .field("fast_success", r.fast_success)
                .field("baseline_success", r.base_success)
                .field("fast_probes", r.fast_probes)
                .field("fast_coverage", Json::num(r.fast_coverage))
                .field("baseline_probes", r.base_probes)
                .field("fast_runtime_s", Json::num(r.fast_runtime.as_secs_f64()))
                .field(
                    "baseline_runtime_s",
                    Json::num(r.base_runtime.as_secs_f64()),
                )
                .field("speedup", r.speedup.map_or(Json::Null, Json::num))
                .field("alpha12", Json::num(r.alpha12))
                .field("alpha21", Json::num(r.alpha21))
                .build()
        })
        .collect();
    let json = Json::object()
        .field("fast_successes", fast_successes)
        .field("baseline_successes", base_successes)
        .field("benchmarks", rows.len())
        .field("mean_speedup", Json::num(mean_speedup))
        .field(
            "gate",
            Json::object()
                .field("min_fast_successes", GATE_MIN_FAST_SUCCESSES)
                .field("min_mean_speedup", Json::num(GATE_MIN_MEAN_SPEEDUP))
                .build(),
        )
        .field("rows", json_rows)
        .build();
    artifacts.write("table1.json", &json.pretty())?;
    Ok(())
}
