//! `fastvg-perf` — the repository's benchmark.
//!
//! One process boots a `fastvg-router` in front of two `fastvg-serve`
//! shards (default settings, ephemeral ports) and drives one workload
//! through it as a closed loop over two keep-alive connections:
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path fastvg-perf/Cargo.toml -- \
//!     --workload fast-cold --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with client spans on half the requests, replays the window
//! in process one public call at a time, reads the router's and shards'
//! `metrics()`, and prints the per-layer metrics instead. The last line
//! of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `fastvg-perf/README.md` for the workloads and every metric.

mod alloc;
mod drive;
mod fleet;
mod replay;
mod score;
mod spans;
mod workload;

use drive::{closed_loop, LoopConfig};
use fastvg_wire::Json;
use fleet::{bucket_samples_ms, Fleet, SHARDS};
use score::{digest, Answer, Tally};
use spans::SpanLog;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Stream, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fewest timed requests per run, so at least 10 lie beyond p95.
const MIN_SAMPLES: usize = 200;

/// Set-up rounds per run. A cold round only boots the fleet and is
/// short, so it gets more rounds; a hot round also warms the 24 keys.
const COLD_SETUP_ROUNDS: usize = 41;
const HOT_SETUP_ROUNDS: usize = 4;

/// How percentiles are computed, printed with every run.
const PERCENTILE_RULE: &str = "qd_numerics::stats::percentile: linear interpolation between \
     closest ranks, rank = p/100 * (n - 1); shard histograms are spread evenly inside each bucket";

const USAGE: &str = "usage: fastvg-perf --workload <fast-cold|hough-cold|hot-replay> --seed <n> \
     --seconds <s> --trace <0|1> [--requests <n>] [--inject-mismatch <i>] [--spans-out <dir>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    requests: Option<usize>,
    inject_mismatch: Option<usize>,
    spans_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::FastCold,
        seed: 1,
        seconds: 15.0,
        trace: false,
        requests: None,
        inject_mismatch: None,
        spans_out: PathBuf::from("fastvg-perf/runs"),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = number("--seed")?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--requests" => args.requests = Some(number("--requests")?.max(1) as usize),
            "--inject-mismatch" => {
                args.inject_mismatch = Some(number("--inject-mismatch")? as usize)
            }
            "--spans-out" => args.spans_out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn pct(values: &[f64], p: f64) -> f64 {
    qd_numerics::stats::percentile(values, p).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process so far (router, shards and the
/// client's fixed-size buffers), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Sends each hot key once, in order, over one connection; every answer
/// must be a cache miss. Returns the answers' bytes.
fn warm_up(fleet: &Fleet, items: &[workload::Item]) -> Result<Vec<Vec<u8>>, String> {
    let mut client = fastvg_serve::Client::connect(fleet.addr()).map_err(|e| e.to_string())?;
    items
        .iter()
        .map(|item| {
            let response = client
                .post(drive::ROUTE, item.body.as_bytes())
                .map_err(|e| format!("warm-up: {e}"))?;
            let cache = response.header("x-fastvg-cache").unwrap_or("absent");
            if response.status != 200 || cache != "miss" {
                return Err(format!(
                    "warm-up {}: status {}, cache {cache}",
                    item.body, response.status
                ));
            }
            Ok(response.body)
        })
        .collect()
}

/// A fleet ready for the timed phase.
struct Setup {
    fleet: Fleet,
    /// Warm-up bytes per hot key.
    warm: Option<Vec<Vec<u8>>>,
}

/// One set-up round, timed: boots a fleet until the router is healthy
/// and, for the hot workload, warms it with the stream's keys, whose
/// bytes are kept. Returns it with the round's time.
fn set_up(stream: &Stream, hot: bool) -> Result<(Setup, f64), String> {
    let started = Instant::now();
    let fleet = Fleet::boot()?;
    let warm = if hot {
        Some(warm_up(&fleet, stream.keys())?)
    } else {
        None
    };
    let seconds = started.elapsed().as_secs_f64();
    Ok((Setup { fleet, warm }, seconds))
}

struct Run {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<Run, String> {
    let w = args.workload;
    let (min_requests, max_requests) = match args.requests {
        Some(n) => (n, n),
        None => (MIN_SAMPLES.max(w.default_window()), usize::MAX),
    };
    let window = w.default_window().min(min_requests);
    let stream = Stream::new(w, args.seed, window)?;

    println!(
        "fastvg-perf: workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    // Set-up runs several rounds, half before the timed phase (the last
    // of them serves it) and half after it, so the median set-up time
    // samples the machine at both ends of the run.
    let rounds = if w.hot() {
        HOT_SETUP_ROUNDS
    } else {
        COLD_SETUP_ROUNDS
    };
    let before_rounds = rounds.div_ceil(2);
    let mut setup_times = Vec::with_capacity(rounds);
    let mut ready: Option<Setup> = None;
    for _ in 0..before_rounds {
        let (setup, seconds) = set_up(&stream, w.hot())?;
        setup_times.push(seconds);
        if let Some(old) = ready.replace(setup) {
            old.fleet.stop();
        }
    }
    let Setup { fleet, warm } = ready.expect("at least one set-up round");
    println!(
        "fleet: router + {SHARDS} shards at {}, closed loop over {} keep-alive connections, \
         {} cores available",
        fleet.addr(),
        drive::CONNECTIONS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let log = SpanLog::new(args.seed ^ 0x0b5e_77ed);
    let before = fleet.snapshot();
    let timed = closed_loop(
        fleet.addr(),
        &stream,
        &LoopConfig {
            seconds: args.seconds,
            min_requests,
            max_requests,
            window,
            warm: warm.as_deref(),
            spans: args.trace.then_some(&log),
            inject_mismatch: args.inject_mismatch,
        },
    );
    let peak_rss = peak_rss_mb();
    let delta = fleet.snapshot().since(&before);
    fleet.stop();
    for _ in before_rounds..rounds {
        let (setup, seconds) = set_up(&stream, w.hot())?;
        setup_times.push(seconds);
        setup.fleet.stop();
    }

    // Score: every error, every latency, and the window's answers. A
    // cold window answer that does not parse is an error too.
    let mut errors = timed.errors;
    let mut answers: Vec<Option<Answer>> = vec![None; window];
    for (index, body) in &timed.bodies {
        match score::read(body, stream.method(*index)) {
            Ok(answer) => answers[*index] = Some(answer),
            Err(e) => errors.push((*index, format!("malformed answer: {e}"))),
        }
    }
    if let Some(warm) = &warm {
        let keys: Vec<Answer> = warm
            .iter()
            .zip(stream.keys())
            .map(|(bytes, key)| score::read(bytes, key.method))
            .collect::<Result<_, _>>()?;
        for sample in timed.window.iter().filter(|s| s.ok) {
            answers[sample.index as usize] = Some(keys[stream.key(sample.index as usize)].clone());
        }
    }
    errors.sort_by_key(|(i, _)| *i);
    let failed: std::collections::HashSet<usize> = errors.iter().map(|(i, _)| *i).collect();
    let mark = |samples: &[drive::Sample]| -> Vec<drive::Sample> {
        samples
            .iter()
            .map(|s| drive::Sample {
                ok: s.ok && !failed.contains(&(s.index as usize)),
                ..*s
            })
            .collect()
    };
    let (samples, window_samples) = (mark(&timed.samples), mark(&timed.window));
    let latencies: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(drive::Sample::latency_ms)
        .collect();
    let elapsed = timed.elapsed;
    let attempted = timed.attempted;
    let answered = attempted - errors.len();
    let window_answers: Vec<(&Answer, &workload::Item)> = answers
        .iter()
        .zip(stream.window())
        .filter_map(|(answer, item)| Some((answer.as_ref()?, item)))
        .collect();
    let tally = Tally::of(
        window_answers
            .iter()
            .map(|(answer, item)| answer.verdict(&item.truth)),
    );
    let fleet_digest = digest(window_answers.iter().map(|(answer, _)| *answer));
    let reports: Vec<&Answer> = window_answers
        .iter()
        .map(|(answer, _)| *answer)
        .filter(|a| a.probes.is_some())
        .collect();
    let probes: u64 = reports.iter().filter_map(|a| a.probes).sum();
    let dwell_ns: u64 = reports.iter().filter_map(|a| a.dwell_ns).sum();

    let mut problems: Vec<String> = errors
        .iter()
        .take(5)
        .map(|(i, e)| format!("request {i}: {e}"))
        .collect();
    if window_answers.len() < window {
        problems.push(format!(
            "only {} of the {window}-request window answered",
            window_answers.len()
        ));
    }

    println!(
        "setup: {rounds} rounds ({before_rounds} before the timed phase): min {:.4} s, \
         median {:.4} s, max {:.4} s",
        pct(&setup_times, 0.0),
        pct(&setup_times, 50.0),
        pct(&setup_times, 100.0)
    );
    let above_p95 = {
        let p95 = pct(&latencies, 95.0);
        latencies.iter().filter(|&&l| l > p95).count()
    };
    println!(
        "samples: {attempted} attempted, {answered} answered, {} errors in {:.3} s; \
         {} latencies kept (at most {} per connection), {above_p95} beyond p95",
        errors.len(),
        elapsed.as_secs_f64(),
        latencies.len(),
        drive::RESERVOIR
    );
    println!("percentiles: {PERCENTILE_RULE}");
    println!(
        "tally: correct {} / classified {} / silent-wrong {} over the {window}-request window",
        tally.correct, tally.classified, tally.silent_wrong
    );
    println!("digest: {fleet_digest:016x} (fnv1a64 of the window's deterministic answer fields)");
    let error_rate = ratio(errors.len() as f64, attempted as f64);
    let silent_wrong_rate = ratio(tally.silent_wrong as f64, window as f64);
    println!("error_rate: {error_rate} ({} of {attempted})", errors.len());
    println!("silent_wrong_rate: {silent_wrong_rate}");

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.put(
            "throughput_rps",
            answered as f64 / elapsed.as_secs_f64(),
            "1/s",
        );
        metrics.put("latency_p50_ms", pct(&latencies, 50.0), "ms");
        metrics.put("latency_p95_ms", pct(&latencies, 95.0), "ms");
        metrics.put("setup_s", pct(&setup_times, 50.0), "s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
        metrics.put(
            "correct_rate",
            ratio(tally.correct as f64, window as f64),
            "ratio",
        );
        metrics.put("trusted_rate", 1.0 - silent_wrong_rate, "ratio");
        metrics.put(
            "probes_per_request",
            ratio(probes as f64, reports.len() as f64),
            "probes",
        );
        metrics.put(
            "dwell_s_per_request",
            ratio(dwell_ns as f64 / 1e9, reports.len() as f64),
            "s",
        );
    } else {
        let replayed = replay::replay(&stream, warm.as_deref(), &log)?;
        let replay_digest = digest(&replayed.answers);
        if replay_digest != fleet_digest {
            problems.push(format!(
                "in-process replay digest {replay_digest:016x} differs from the fleet's"
            ));
        }
        per_layer(
            &mut metrics,
            &samples,
            &window_samples,
            attempted,
            &delta,
            &replayed,
            replay::current_ns(&stream)?,
            w.hot(),
        );
        let path = args
            .spans_out
            .join(format!("{}-seed{}.jsonl", w.name(), args.seed));
        log.write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", log.len(), path.display());
    }

    for problem in &problems {
        println!("problem: {problem}");
    }
    Ok(Run {
        correct: problems.is_empty(),
        attempted,
        failed: errors.len(),
        metrics,
    })
}

/// The per-layer metrics. `samples` is the latency reservoir and
/// `window` every window request.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    metrics: &mut Metrics,
    samples: &[drive::Sample],
    window: &[drive::Sample],
    attempted: usize,
    delta: &fleet::Snapshot,
    r: &replay::Replay,
    current_ns: f64,
    hot: bool,
) {
    let ok = |s: &&drive::Sample| s.ok;
    let client: Vec<f64> = samples
        .iter()
        .filter(ok)
        .map(drive::Sample::latency_ms)
        .collect();
    // Tracing overhead: traced against untraced requests of the same
    // run. Cold requests differ tenfold in cost, so there each window
    // request's latency is first divided by its replayed compute.
    let normalized = |s: &drive::Sample| -> Option<f64> {
        if hot {
            Some(s.latency_ms())
        } else {
            let us = r.compute_us.get(s.index as usize)?;
            Some(s.latency_ms() * 1e3 / us)
        }
    };
    let split = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(ok)
            .filter(|s| s.traced == traced)
            .filter_map(normalized)
            .collect()
    };
    let (traced, untraced) = (split(true), split(false));
    let n = r.compute_us.len().max(1) as f64;
    let request_ms = bucket_samples_ms(&delta.request_latency);
    let job_ms = bucket_samples_ms(&delta.job_latency);

    // Router: mean client latency minus the shards' mean request
    // latency (the histograms' exact sums; hot answers come from owner
    // cache probes, which `request_latency` does not observe). Every
    // peered request probes the owner's cache; an owner miss sweeps the
    // other shard too.
    let client_mean = ratio(client.iter().sum(), client.len() as f64);
    let shard_mean = ratio(delta.request_ns as f64 / 1e6, delta.requests as f64);
    let router_self = client_mean - shard_mean;
    let sweeps = delta.peer_hits + delta.peer_misses;
    let peer_probes = delta.routed_hits + sweeps + (SHARDS as u64 - 1) * sweeps;
    metrics.put("router.self_ms_mean", router_self, "ms");
    metrics.put(
        "router.peer_probes",
        ratio(peer_probes as f64, attempted as f64),
        "probes/req",
    );
    metrics.put(
        "router.peer_hit_ratio",
        ratio(
            (delta.routed_hits + delta.peer_hits) as f64,
            peer_probes as f64,
        ),
        "ratio",
    );
    metrics.put(
        "router.upstream_retries",
        delta.upstream_retries as f64,
        "count",
    );

    // Serve.
    let hits = (delta.cache_hits + delta.cache_peer_hits) as f64;
    metrics.put("serve.request_ms_p50", pct(&request_ms, 50.0), "ms");
    metrics.put("serve.parse_us", r.parse_us / n, "us");
    metrics.put("serve.cache_get_us", r.cache_get_us / n, "us");
    metrics.put(
        "serve.cache_insert_us",
        ratio(r.cache_insert_us, r.cache_inserts as f64),
        "us",
    );
    metrics.put(
        "serve.cache_hit_ratio",
        ratio(hits, hits + delta.cache_misses as f64),
        "ratio",
    );
    metrics.put("serve.job_ms_p50", pct(&job_ms, 50.0), "ms");
    metrics.put("serve.job_ms_p95", pct(&job_ms, 95.0), "ms");
    let waits: Vec<f64> = window
        .iter()
        .filter(ok)
        .map(|s| s.latency_ms() - router_self - r.compute_us[s.index as usize] / 1e3)
        .collect();
    metrics.put("serve.queue_wait_ms_p95", pct(&waits, 95.0), "ms");

    // Realization, physics and instrument.
    let compute: f64 = r.compute_us.iter().sum();
    metrics.put("qd-dataset.generate_ms", r.generate_us / n / 1e3, "ms");
    metrics.put(
        "qd-dataset.generate_share",
        ratio(r.generate_us, compute),
        "ratio",
    );
    metrics.put("qd-physics.current_ns", current_ns, "ns");
    metrics.put("qd-instrument.open_us", r.open_us / n, "us");
    metrics.put("qd-instrument.probes", r.probes as f64 / n, "probes/req");
    metrics.put(
        "qd-instrument.unique_pixels",
        r.unique_pixels as f64 / n,
        "pixels/req",
    );
    metrics.put("qd-instrument.coverage", r.coverage / n, "ratio");

    // Extraction and its stages.
    metrics.put("core.extract_ms", r.extract_us / n / 1e3, "ms");
    for stage in replay::STAGES {
        let (us, _) = r.stages.get(stage).copied().unwrap_or_default();
        metrics.put(format!("core.{stage}_us"), us / n, "us");
    }
    for stage in replay::STAGES {
        let (_, probes) = r.stages.get(stage).copied().unwrap_or_default();
        metrics.put(
            format!("core.{stage}.probes"),
            probes as f64 / n,
            "probes/req",
        );
    }
    metrics.put("core.verify_rejects", r.verify_rejects as f64, "count");

    // Wire, tracing overhead, allocations.
    metrics.put("wire.serialize_us", r.serialize_us / n, "us");
    metrics.put("wire.parse_us", r.response_parse_us / n, "us");
    metrics.put("wire.response_bytes", r.response_bytes as f64 / n, "bytes");
    metrics.put(
        "obs.overhead_pct",
        (ratio(pct(&traced, 50.0), pct(&untraced, 50.0)) - 1.0) * 100.0,
        "%",
    );
    metrics.put(
        "qd-dataset.allocs",
        r.allocs_dataset as f64 / n,
        "allocs/req",
    );
    metrics.put("core.allocs", r.allocs_core as f64 / n, "allocs/req");
    metrics.put("wire.allocs", r.allocs_wire as f64 / n, "allocs/req");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fastvg-perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match run(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("fastvg-perf: {e}");
            std::process::exit(1);
        }
    };
    let mut doc = Json::object();
    for (name, value, unit) in &run.metrics.0 {
        println!("metric {name} = {value} {unit}");
        doc = doc.field(
            name.as_str(),
            Json::object()
                .field("value", Json::num(*value))
                .field("unit", *unit)
                .build(),
        );
    }
    let result = Json::object()
        .field("correct", run.correct)
        .field("attempted", run.attempted)
        .field("failed", run.failed)
        .field("metrics", doc.build())
        .build();
    println!("{}", result.dump());
}
