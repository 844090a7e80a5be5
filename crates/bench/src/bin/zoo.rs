//! The robustness matrix: fast + baseline over the hostile-device zoo,
//! probed through `hwsim` instrument profiles.
//!
//! ```sh
//! cargo run --release -p fastvg-bench --bin fastvg-zoo
//! cargo run --release -p fastvg-bench --bin fastvg-zoo -- --gate --jobs 4 --out artifacts
//! cargo run --release -p fastvg-bench --bin fastvg-zoo -- 3 12345
//! ```
//!
//! Where Table 1 replays the paper's 12 hand-picked benchmarks, this
//! harness sweeps the generated zoo (`qd_dataset::zoo`): 4 scenario
//! families × 3 severity bands × N devices per cell, each probed through
//! the `hwsim:<profile>` DAC model its scenario prescribes. The output
//! is a success-rate matrix per family × severity, with probe counts,
//! virtual dwell, and the hwsim bus cost recomputed from each fast run's
//! probe scatter.
//!
//! Positionals: `[per_cell] [seed]` — scenarios per family×severity cell
//! (default 9 → 108 scenarios) and the zoo seed (default the pinned CI
//! seed). Flags: the standard bench set (`--jobs`, `--out`) plus
//! `--gate`, which exits non-zero unless the aggregate fast success rate
//! over ≥ 100 scenarios holds the floor — the robustness counterpart of
//! the Table 1 gate.
//!
//! Determinism: scenario generation is seeded, `hwsim` is deterministic
//! from each scenario's seed, and scoring never depends on execution
//! order — so the matrix is bit-identical for every `--jobs` value
//! (asserted by tier-1 `tests/hwsim.rs`).

use fastvg_bench::{csv_f64, push_csv_row, score, Artifacts, BenchArgs, MethodRun, Tee};
use fastvg_core::api::Extractor;
use fastvg_core::baseline::HoughBaseline;
use fastvg_core::batch::BatchExtractor;
use fastvg_core::extraction::FastExtractor;
use fastvg_core::report::SuccessCriteria;
use fastvg_wire::Json;
use qd_dataset::generate_suite;
use qd_dataset::zoo::{zoo_specs, Severity, ZooFamily, ZooScenario, DEFAULT_ZOO_SEED};
use qd_instrument::hwsim::HwSimProfile;
use qd_instrument::{BackendRegistry, SourceBackend, SourceScenario, VoltageWindow};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Gate floors. The zoo is built to *hurt*: severe bands are meant to
/// fail most of the time, so the aggregate floor sits well below Table
/// 1's 10/12 — what it guards is the overall robustness level (a
/// regression that breaks the mild band or collapses a family drops the
/// aggregate through the floor).
const GATE_MIN_SCENARIOS: usize = 100;
const GATE_MIN_FAST_RATE: f64 = 0.30;
const GATE_MIN_MILD_FAST_RATE: f64 = 0.75;

/// One aggregated family × severity cell of the matrix.
struct Cell {
    family: ZooFamily,
    severity: Severity,
    n: usize,
    fast_ok: usize,
    base_ok: usize,
    fast_probes: usize,
    fast_dwell: Duration,
    bus_time: Duration,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let gate = args.has_flag("--gate");
    let positionals = args.positionals();
    let per_cell: usize = positionals
        .first()
        .map(|v| v.parse().expect("per_cell must be a number"))
        .unwrap_or(9);
    let seed: u64 = positionals
        .get(1)
        .map(|v| v.parse().expect("seed must be a u64"))
        .unwrap_or(DEFAULT_ZOO_SEED);

    let scenarios = zoo_specs(per_cell, seed);
    let specs: Vec<_> = scenarios.iter().map(|s| s.spec.clone()).collect();
    println!(
        "zoo: {} scenarios ({} families x {} bands x {per_cell}), seed {seed:#x}",
        scenarios.len(),
        ZooFamily::ALL.len(),
        Severity::ALL.len(),
    );
    let benches = generate_suite(&specs, args.jobs)?;

    // One backend per distinct profile string; scenarios share them.
    let registry = BackendRegistry::standard();
    let mut by_profile: HashMap<&str, Arc<dyn SourceBackend>> = HashMap::new();
    for s in &scenarios {
        if !by_profile.contains_key(s.backend.as_str()) {
            let backend = registry
                .resolve(&s.backend)
                .unwrap_or_else(|e| panic!("{}: {e}", s.label()));
            by_profile.insert(&s.backend, backend);
        }
    }
    let backends: Vec<Arc<dyn SourceBackend>> = scenarios
        .iter()
        .map(|s| Arc::clone(&by_profile[s.backend.as_str()]))
        .collect();

    let criteria = SuccessCriteria::default();
    let run_all = |extractor: &dyn Extractor| -> Vec<MethodRun> {
        let outcomes =
            BatchExtractor::new()
                .with_jobs(args.jobs)
                .run(extractor, benches.len(), |i| {
                    let label = format!(
                        "{}-{}",
                        scenarios[i].label(),
                        extractor.method().wire_name()
                    );
                    backends[i]
                        .session(
                            SourceScenario::new(benches[i].csd.clone())
                                .with_label(label)
                                .with_seed(benches[i].spec.seed),
                        )
                        .unwrap_or_else(|e| panic!("{}: {e}", scenarios[i].label()))
                });
        outcomes
            .into_iter()
            .zip(&benches)
            .map(|(o, b)| score(b, &criteria, extractor.method(), o))
            .collect()
    };
    let fast = run_all(&FastExtractor::new());
    let base = run_all(&HoughBaseline::new());

    // The hwsim bus cost of each fast run, recomputed from its scatter
    // (the session caches every pixel, so the scatter *is* the
    // dwell-costing probe sequence).
    let bus_times: Vec<Duration> = scenarios
        .iter()
        .zip(&benches)
        .zip(&fast)
        .map(|((s, b), run)| {
            let profile = HwSimProfile::parse(
                s.backend
                    .strip_prefix("hwsim:")
                    .expect("zoo backends are hwsim"),
            )
            .expect("zoo profiles parse");
            profile.scatter_cost(&VoltageWindow::from_grid(b.csd.grid()), &run.scatter)
        })
        .collect();

    let mut cells: Vec<Cell> = Vec::new();
    for family in ZooFamily::ALL {
        for severity in Severity::ALL {
            let mut cell = Cell {
                family,
                severity,
                n: 0,
                fast_ok: 0,
                base_ok: 0,
                fast_probes: 0,
                fast_dwell: Duration::ZERO,
                bus_time: Duration::ZERO,
            };
            for (i, s) in scenarios.iter().enumerate() {
                if s.family != family || s.severity != severity {
                    continue;
                }
                cell.n += 1;
                cell.fast_ok += fast[i].report.success as usize;
                cell.base_ok += base[i].report.success as usize;
                cell.fast_probes += fast[i].report.probes;
                cell.fast_dwell += fast[i].report.runtime;
                cell.bus_time += bus_times[i];
            }
            cells.push(cell);
        }
    }

    let mut tee = Tee::new(args.out.is_some());
    tee.line(format!(
        "{:>10} {:>9} | {:>9} {:>9} | {:>11} {:>11} {:>11}",
        "family", "severity", "fast", "baseline", "probes/run", "dwell/run", "bus/run"
    ));
    tee.line("-".repeat(84));
    for c in &cells {
        tee.line(format!(
            "{:>10} {:>9} | {:>4}/{:<4} {:>4}/{:<4} | {:>11} {:>10.2}s {:>9.1}ms",
            c.family.name(),
            c.severity.name(),
            c.fast_ok,
            c.n,
            c.base_ok,
            c.n,
            c.fast_probes / c.n.max(1),
            c.fast_dwell.as_secs_f64() / c.n.max(1) as f64,
            1e3 * c.bus_time.as_secs_f64() / c.n.max(1) as f64,
        ));
    }
    tee.line("-".repeat(84));

    let total = scenarios.len();
    let fast_ok: usize = cells.iter().map(|c| c.fast_ok).sum();
    let base_ok: usize = cells.iter().map(|c| c.base_ok).sum();
    let fast_rate = fast_ok as f64 / total.max(1) as f64;
    let mild: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.severity == Severity::Mild)
        .collect();
    let mild_n: usize = mild.iter().map(|c| c.n).sum();
    let mild_ok: usize = mild.iter().map(|c| c.fast_ok).sum();
    let mild_rate = mild_ok as f64 / mild_n.max(1) as f64;
    tee.line(format!(
        "fast: {fast_ok}/{total} ({:.1}%), mild band {mild_ok}/{mild_n} ({:.1}%)   baseline: {base_ok}/{total} ({:.1}%)",
        100.0 * fast_rate,
        100.0 * mild_rate,
        100.0 * base_ok as f64 / total.max(1) as f64,
    ));

    let artifacts = Artifacts::at(&args.out_dir("target/artifacts"))?;
    write_artifacts(
        &artifacts, &cells, &scenarios, &fast, &base, &bus_times, per_cell, seed, fast_rate,
        mild_rate,
    )?;
    if args.out.is_some() {
        artifacts.write("robustness_matrix.txt", &tee.take())?;
    }
    println!("artifacts: {}", artifacts.dir().display());

    if gate {
        let enough = total >= GATE_MIN_SCENARIOS;
        let rate_ok = fast_rate >= GATE_MIN_FAST_RATE;
        let mild_ok = mild_rate >= GATE_MIN_MILD_FAST_RATE;
        if !(enough && rate_ok && mild_ok) {
            eprintln!(
                "robustness gate FAILED: {total} scenarios (need >= {GATE_MIN_SCENARIOS}), \
                 fast rate {:.3} (need >= {GATE_MIN_FAST_RATE}), \
                 mild-band rate {:.3} (need >= {GATE_MIN_MILD_FAST_RATE})",
                fast_rate, mild_rate
            );
            std::process::exit(1);
        }
        println!(
            "robustness gate passed: fast {:.1}% over {total} scenarios, mild band {:.1}%",
            100.0 * fast_rate,
            100.0 * mild_rate
        );
    }
    Ok(())
}

/// Writes `BENCH_robustness_matrix.json` (cells + per-scenario rows +
/// gate block) and `robustness_matrix.csv` (one row per scenario).
#[allow(clippy::too_many_arguments)]
fn write_artifacts(
    artifacts: &Artifacts,
    cells: &[Cell],
    scenarios: &[ZooScenario],
    fast: &[MethodRun],
    base: &[MethodRun],
    bus_times: &[Duration],
    per_cell: usize,
    seed: u64,
    fast_rate: f64,
    mild_rate: f64,
) -> std::io::Result<()> {
    let mut csv = String::from(
        "label,family,severity,size,backend,fast_success,baseline_success,fast_probes,fast_coverage,fast_runtime_s,bus_time_s,alpha12,alpha21\n",
    );
    for (i, s) in scenarios.iter().enumerate() {
        let f = &fast[i].report;
        push_csv_row(
            &mut csv,
            &[
                s.label(),
                s.family.name().to_string(),
                s.severity.name().to_string(),
                s.spec.size.to_string(),
                s.backend.clone(),
                f.success.to_string(),
                base[i].report.success.to_string(),
                f.probes.to_string(),
                format!("{:.6}", f.coverage),
                format!("{:.3}", f.runtime.as_secs_f64()),
                format!("{:.6}", bus_times[i].as_secs_f64()),
                csv_f64(f.alpha12),
                csv_f64(f.alpha21),
            ],
        );
    }
    artifacts.write("robustness_matrix.csv", &csv)?;

    let json_cells: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::object()
                .field("family", c.family.name())
                .field("severity", c.severity.name())
                .field("scenarios", c.n)
                .field("fast_successes", c.fast_ok)
                .field("baseline_successes", c.base_ok)
                .field(
                    "fast_success_rate",
                    Json::num(c.fast_ok as f64 / c.n.max(1) as f64),
                )
                .field("mean_fast_probes", c.fast_probes / c.n.max(1))
                .field(
                    "mean_fast_runtime_s",
                    Json::num(c.fast_dwell.as_secs_f64() / c.n.max(1) as f64),
                )
                .field(
                    "mean_bus_time_s",
                    Json::num(c.bus_time.as_secs_f64() / c.n.max(1) as f64),
                )
                .build()
        })
        .collect();
    let json = Json::object()
        .field("bench", "robustness_matrix")
        .field("zoo_seed", seed)
        .field("per_cell", per_cell)
        .field("scenarios", scenarios.len())
        .field("fast_success_rate", Json::num(fast_rate))
        .field("mild_fast_success_rate", Json::num(mild_rate))
        .field(
            "gate",
            Json::object()
                .field("min_scenarios", GATE_MIN_SCENARIOS)
                .field("min_fast_rate", Json::num(GATE_MIN_FAST_RATE))
                .field("min_mild_fast_rate", Json::num(GATE_MIN_MILD_FAST_RATE))
                .build(),
        )
        .field("cells", json_cells)
        .build();
    artifacts.write("BENCH_robustness_matrix.json", &json.pretty())?;
    Ok(())
}
