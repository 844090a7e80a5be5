//! Shared-channel scaling: the 12-benchmark suite through the
//! `multiplexed:<N>` backend at K concurrent sessions.
//!
//! ```sh
//! cargo run --release -p fastvg-bench --bin fastvg-mux
//! cargo run --release -p fastvg-bench --bin fastvg-mux -- --gate --out artifacts
//! ```
//!
//! Every (K, N) config runs the fast extraction over the paper suite
//! twice: once through `multiplexed:<N>` over `sim` (bit-identity
//! check against a plain serial `sim` reference — the pool must never
//! leak into extraction bytes) and once over `throttled:1ms` (real
//! per-probe settle, so wall clock shows how much serial channel time
//! the schedule turns into overlapped dwell). The dwell-overlap ratio
//! is total settle time over wall: ~1.0 serial, approaching K when K
//! sessions' settle windows overlap while the shared channel's dwell
//! slots stay collision-free.
//!
//! A final pass re-runs the contended (K=4, N=1) config under the
//! equi-difference scheduler: bytes must not move (scheduler choice is
//! accounting, not physics), while the pool's virtual counters show
//! the CAC codewords' burst pacing (clean vs stalled acquires).
//!
//! `--gate` exits non-zero unless every config is bit-identical and
//! the contended config holds the overlap floor — the shared-channel
//! counterpart of the Table 1 gate.

use fastvg_bench::{fmt_secs, run_method, Artifacts, BenchArgs, MethodRun, Tee};
use fastvg_core::extraction::FastExtractor;
use fastvg_core::report::SuccessCriteria;
use fastvg_wire::Json;
use qd_dataset::paper_suite_jobs;
use qd_instrument::{BackendRegistry, MuxStats, SimBackend};
use std::time::{Duration, Instant};

/// Per-probe settle imposed by the throttled inner backend. Large
/// enough that dwell dominates compute (so overlap measures the
/// schedule, not the extractor), small enough that the whole sweep
/// stays a few seconds.
const DWELL: &str = "2ms";
/// Session counts swept (the K axis).
const SESSIONS: [usize; 4] = [1, 2, 4, 8];
/// Channel counts swept (the N axis).
const CHANNELS: [usize; 2] = [1, 2];
/// Overlap floor for the contended config: 0.75 × K at K = 4 on one
/// throttled channel (serial is 1.0).
const GATE_MIN_OVERLAP: f64 = 3.0;
const GATE_SESSIONS: usize = 4;
const GATE_CHANNELS: usize = 1;

/// The bit-identity fingerprint of one benchmark's outcome: everything
/// deterministic a run produces (probe count, coverage, both alphas,
/// success, the dwell-costing probe scatter in first-probe order).
/// Wall-clock fields are excluded — they are the one thing multiplexing
/// *should* change.
#[derive(Clone, PartialEq, Eq)]
struct Fingerprint {
    probes: usize,
    coverage: u64,
    alpha12: u64,
    alpha21: u64,
    success: bool,
    scatter: Vec<(i64, i64)>,
}

fn fingerprint(run: &MethodRun) -> Fingerprint {
    Fingerprint {
        probes: run.report.probes,
        coverage: run.report.coverage.to_bits(),
        alpha12: run.report.alpha12.to_bits(),
        alpha21: run.report.alpha21.to_bits(),
        success: run.report.success,
        scatter: run.scatter.clone(),
    }
}

/// One (K, N) config's measurements.
struct ConfigRun {
    sessions: usize,
    channels: usize,
    sim_identical: bool,
    throttled_identical: bool,
    wall: Duration,
    dwell: Duration,
    overlap: f64,
    busy_fraction: f64,
    wait: Duration,
}

/// Runs the fast method over the suite through `spec` at `jobs`
/// concurrent sessions, returning the scored runs, the wall clock, and
/// the backend's pool stats (when it multiplexes).
fn run_config(
    registry: &BackendRegistry,
    spec: &str,
    benches: &[qd_dataset::GeneratedBenchmark],
    criteria: &SuccessCriteria,
    jobs: usize,
) -> (Vec<MethodRun>, Duration, Option<MuxStats>) {
    let backend = registry
        .resolve(spec)
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    let start = Instant::now();
    let runs = run_method(
        backend.as_ref(),
        &FastExtractor::new(),
        benches,
        criteria,
        jobs,
    );
    let wall = start.elapsed();
    let stats = backend.channel_pool().map(|p| p.stats());
    (runs, wall, stats)
}

fn identical(reference: &[Fingerprint], runs: &[MethodRun]) -> bool {
    reference.len() == runs.len()
        && reference
            .iter()
            .zip(runs)
            .all(|(r, run)| *r == fingerprint(run))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let gate = args.has_flag("--gate");
    let registry = BackendRegistry::standard();
    let criteria = SuccessCriteria::default();
    let benches = paper_suite_jobs(args.jobs)?;
    println!(
        "mux scaling: {} benchmarks, K in {SESSIONS:?} sessions x N in {CHANNELS:?} channels, \
         {DWELL} settle per probe",
        benches.len()
    );

    // The unmultiplexed truth: plain sim, serial.
    let reference: Vec<Fingerprint> =
        run_method(&SimBackend, &FastExtractor::new(), &benches, &criteria, 1)
            .iter()
            .map(fingerprint)
            .collect();
    let dwell = qd_instrument::backend::parse_dwell(DWELL).expect("DWELL parses");

    // Longest-settle-first order for the timing legs: workers pull jobs
    // in index order, so a probe-heavy benchmark landing last leaves
    // one worker grinding alone — the classic makespan tail. Sorting by
    // the reference probe counts is plain LPT scheduling; it changes
    // which worker runs which benchmark, never what any run produces
    // (the identity legs keep natural order to exercise that path too).
    let mut order: Vec<usize> = (0..benches.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(reference[i].probes));
    let lpt_benches: Vec<qd_dataset::GeneratedBenchmark> =
        order.iter().map(|&i| benches[i].clone()).collect();
    let lpt_reference: Vec<Fingerprint> = order.iter().map(|&i| reference[i].clone()).collect();

    let mut tee = Tee::new(args.out.is_some());
    tee.line(format!(
        "{:>3} {:>3} | {:>9} {:>9} {:>8} | {:>6} {:>9} | {:>9}",
        "K", "N", "wall", "dwell", "overlap", "busy", "wait", "identical"
    ));
    tee.line("-".repeat(72));

    let mut configs: Vec<ConfigRun> = Vec::new();
    for &channels in &CHANNELS {
        for &sessions in &SESSIONS {
            // Identity leg: the pool over pure simulation. Readings,
            // probe order and scoring must be exactly the reference's.
            let (sim_runs, _, _) = run_config(
                &registry,
                &format!("multiplexed:{channels}"),
                &benches,
                &criteria,
                sessions,
            );
            let sim_identical = identical(&reference, &sim_runs);

            // Timing leg: the pool over a real per-probe settle.
            let (runs, wall, stats) = run_config(
                &registry,
                &format!("multiplexed:{channels}+throttled:{DWELL}"),
                &lpt_benches,
                &criteria,
                sessions,
            );
            let throttled_identical = identical(&lpt_reference, &runs);
            let stats = stats.expect("multiplexed backends expose their pool");
            let total_probes: usize = runs.iter().map(|r| r.report.probes).sum();
            let total_dwell = dwell * u32::try_from(total_probes).unwrap_or(u32::MAX);
            let overlap = total_dwell.as_secs_f64() / wall.as_secs_f64().max(1e-9);
            let config = ConfigRun {
                sessions,
                channels,
                sim_identical,
                throttled_identical,
                wall,
                dwell: total_dwell,
                overlap,
                busy_fraction: stats.busy_fraction(),
                wait: stats.wait(),
            };
            tee.line(format!(
                "{:>3} {:>3} | {:>9} {:>9} {:>7.2}x | {:>6.3} {:>9} | {:>9}",
                config.sessions,
                config.channels,
                fmt_secs(config.wall),
                fmt_secs(config.dwell),
                config.overlap,
                config.busy_fraction,
                fmt_secs(config.wait),
                if config.sim_identical && config.throttled_identical {
                    "yes"
                } else {
                    "NO"
                },
            ));
            configs.push(config);
        }
    }
    tee.line("-".repeat(72));

    // Scheduler A/B at the contended config: equi-difference must not
    // move a byte, only the pacing counters.
    let rr_spec = format!("multiplexed:{GATE_CHANNELS}+throttled:{DWELL}");
    let ed_spec = format!("multiplexed:{GATE_CHANNELS},policy=ed+throttled:{DWELL}");
    let (_, _, rr_stats) = run_config(&registry, &rr_spec, &lpt_benches, &criteria, GATE_SESSIONS);
    let (ed_runs, _, ed_stats) =
        run_config(&registry, &ed_spec, &lpt_benches, &criteria, GATE_SESSIONS);
    let ed_identical = identical(&lpt_reference, &ed_runs);
    let (rr_stats, ed_stats) = (rr_stats.expect("pool"), ed_stats.expect("pool"));
    let acquires = |s: &MuxStats| -> (u64, u64) {
        s.channels
            .iter()
            .fold((0, 0), |(c, st), ch| (c + ch.clean, st + ch.stalled))
    };
    let (rr_clean, rr_stalled) = acquires(&rr_stats);
    let (ed_clean, ed_stalled) = acquires(&ed_stats);
    tee.line(format!(
        "scheduler A/B at K={GATE_SESSIONS}, N={GATE_CHANNELS}: \
         rr {rr_clean} clean / {rr_stalled} stalled, \
         ed {ed_clean} clean / {ed_stalled} stalled, bytes {}",
        if ed_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    ));

    let contended = configs
        .iter()
        .find(|c| c.sessions == GATE_SESSIONS && c.channels == GATE_CHANNELS)
        .expect("gate config is in the sweep");
    let all_identical = ed_identical
        && configs
            .iter()
            .all(|c| c.sim_identical && c.throttled_identical);
    tee.line(format!(
        "contended overlap (K={GATE_SESSIONS}, N={GATE_CHANNELS}): {:.2}x of {GATE_SESSIONS} \
         (serial = 1.0)",
        contended.overlap
    ));

    let artifacts = Artifacts::at(&args.out_dir("target/artifacts"))?;
    let json_configs: Vec<Json> = configs
        .iter()
        .map(|c| {
            Json::object()
                .field("sessions", c.sessions)
                .field("channels", c.channels)
                .field("bit_identical_sim", c.sim_identical)
                .field("bit_identical_throttled", c.throttled_identical)
                .field("wall_s", Json::num(c.wall.as_secs_f64()))
                .field("dwell_s", Json::num(c.dwell.as_secs_f64()))
                .field("dwell_overlap_ratio", Json::num(c.overlap))
                .field("channel_busy_fraction", Json::num(c.busy_fraction))
                .field("channel_wait_s", Json::num(c.wait.as_secs_f64()))
                .build()
        })
        .collect();
    let scheduler_ab = Json::object()
        .field("sessions", GATE_SESSIONS)
        .field("channels", GATE_CHANNELS)
        .field("bit_identical", ed_identical)
        .field(
            "round_robin",
            Json::object()
                .field("clean_acquires", rr_clean)
                .field("stalled_acquires", rr_stalled)
                .build(),
        )
        .field(
            "equi_difference",
            Json::object()
                .field("clean_acquires", ed_clean)
                .field("stalled_acquires", ed_stalled)
                .build(),
        )
        .build();
    let json = Json::object()
        .field("bench", "mux_scaling")
        .field("benchmarks", benches.len())
        .field("probe_dwell", DWELL)
        .field("all_bit_identical", all_identical)
        .field("contended_overlap", Json::num(contended.overlap))
        .field(
            "gate",
            Json::object()
                .field("sessions", GATE_SESSIONS)
                .field("channels", GATE_CHANNELS)
                .field("min_overlap", Json::num(GATE_MIN_OVERLAP))
                .build(),
        )
        .field("configs", json_configs)
        .field("scheduler_ab", scheduler_ab)
        .build();
    artifacts.write("BENCH_mux_scaling.json", &json.pretty())?;
    if args.out.is_some() {
        artifacts.write("mux_scaling.txt", &tee.take())?;
    }
    println!("artifacts: {}", artifacts.dir().display());

    if gate {
        let overlap_ok = contended.overlap >= GATE_MIN_OVERLAP;
        if !(all_identical && overlap_ok) {
            eprintln!(
                "mux gate FAILED: bit-identical {all_identical} (need true at every (K, N)), \
                 contended overlap {:.3} (need >= {GATE_MIN_OVERLAP})",
                contended.overlap
            );
            std::process::exit(1);
        }
        println!(
            "mux gate passed: bit-identical at every (K, N), contended overlap {:.2}x",
            contended.overlap
        );
    }
    Ok(())
}
