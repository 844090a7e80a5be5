//! Randomized-cohort robustness study (extension beyond the paper).
//!
//! The paper evaluates on 12 fixed diagrams; this harness draws a cohort
//! of randomized healthy devices (lever arms, mutual capacitance,
//! temperature, noise all varied) and reports success *rates*, probe
//! statistics and α-error distributions — turning Table 1's anecdotes
//! into statistics. Methods run through the unified
//! [`fastvg_core::api::Extractor`] path, so adding a method to the study
//! means adding one trait object, not another code path.
//!
//! ```sh
//! cargo run --release -p fastvg-bench --bin robustness -- 60 7
//! #                                     cohort size ^   ^ seed
//! cargo run --release -p fastvg-bench --bin robustness -- 60 7 --jobs 4
//! cargo run --release -p fastvg-bench --bin robustness -- --method fast
//! cargo run --release -p fastvg-bench --bin robustness -- --out artifacts
//! ```
//!
//! Standard flags: `--method fast|hough` (default both), `--jobs N`
//! (generation and extraction both fan out; every spec carries its own
//! seed, so results are bit-identical for every `N`), `--backend SPEC`
//! (probe-source selection; default `sim`), `--out DIR` (writes
//! `robustness.csv` with one row per device × method).

use fastvg_bench::{csv_f64, push_csv_row, run_method, Artifacts, BenchArgs, MethodRun};
use fastvg_core::report::{Method, SuccessCriteria};
use qd_dataset::{generate_suite, random_specs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let positionals = args.positionals();
    let n: usize = positionals
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let seed: u64 = positionals.get(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let criteria = SuccessCriteria::default();

    println!("robustness cohort: {n} randomized devices (seed {seed})");
    let specs = random_specs(n, seed);
    let benches = generate_suite(&specs, args.jobs)?;

    // One generic pass per selected method — no per-method code paths,
    // and the probe source is the `--backend` flag's business.
    let backend = args.resolve_backend();
    let extractors = args.method.extractors();
    let runs: Vec<(Method, Vec<MethodRun>)> = extractors
        .iter()
        .map(|e| {
            (
                e.method(),
                run_method(backend.as_ref(), e.as_ref(), &benches, &criteria, args.jobs),
            )
        })
        .collect();

    let pct = |k: usize| 100.0 * k as f64 / n as f64;
    println!();
    for (method, method_runs) in &runs {
        let ok = method_runs.iter().filter(|r| r.report.success).count();
        println!("success rate: {method} {ok}/{n} ({:.0}%)", pct(ok));
    }

    let summarize = |label: &str, v: &[f64]| {
        if v.is_empty() {
            println!("{label}: (no data)");
            return;
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let med = sorted[sorted.len() / 2];
        let max = *sorted.last().expect("non-empty");
        println!("{label}: mean {mean:.4}, median {med:.4}, max {max:.4}");
    };

    for (method, method_runs) in &runs {
        let mut coverages = Vec::new();
        let mut errors = Vec::new();
        for (bench, run) in benches.iter().zip(method_runs) {
            if run.report.success {
                coverages.push(run.report.coverage);
                errors.push(
                    (run.report.alpha12 - bench.truth.alpha12)
                        .abs()
                        .max((run.report.alpha21 - bench.truth.alpha21).abs()),
                );
            }
        }
        summarize(&format!("{method:<15} coverage  "), &coverages);
        summarize(&format!("{method:<15} max |aerr|"), &errors);
    }

    // Speedups need both methods paired per device.
    if let (Some((_, fast)), Some((_, base))) = (
        runs.iter().find(|(m, _)| *m == Method::FastExtraction),
        runs.iter().find(|(m, _)| *m == Method::HoughBaseline),
    ) {
        let mut speedups = Vec::new();
        for (f, b) in fast.iter().zip(base) {
            if f.report.success && b.report.success {
                if let Some(s) = f.report.speedup_versus(&b.report) {
                    speedups.push(s);
                }
            }
        }
        summarize("speedup                   ", &speedups);
    }

    if let Some(dir) = &args.out {
        let artifacts = Artifacts::at(dir)?;
        let mut csv =
            String::from("device,method,success,probes,coverage,runtime_s,alpha12,alpha21\n");
        for (method, method_runs) in &runs {
            for run in method_runs {
                let r = &run.report;
                push_csv_row(
                    &mut csv,
                    &[
                        r.benchmark.to_string(),
                        method.to_string(),
                        r.success.to_string(),
                        r.probes.to_string(),
                        format!("{:.6}", r.coverage),
                        format!("{:.3}", r.runtime.as_secs_f64()),
                        csv_f64(r.alpha12),
                        csv_f64(r.alpha21),
                    ],
                );
            }
        }
        let path = artifacts.write("robustness.csv", &csv)?;
        println!("artifact: {}", path.display());
    }
    Ok(())
}
