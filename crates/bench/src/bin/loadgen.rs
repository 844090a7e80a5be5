//! `fastvg-loadgen` — drives a running `fastvg-serve` daemon with
//! concurrent connections over the 12-benchmark suite and records the
//! service's throughput/latency/cache profile as
//! `BENCH_serve_throughput.json` (the cross-PR perf artifact, next to
//! `BENCH_batch_throughput.json`).
//!
//! ```sh
//! # Against an external daemon:
//! cargo run --release -p fastvg-bench --bin fastvg-loadgen -- \
//!     --addr 127.0.0.1:8737 --connections 4 --passes 2 --out artifacts
//! # Self-contained (boots an in-process daemon on an ephemeral port):
//! cargo run --release -p fastvg-bench --bin fastvg-loadgen -- --spawn
//! ```
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — daemon to drive (required unless `--spawn`).
//! * `--spawn` — boot an in-process daemon instead (ephemeral port).
//! * `--fleet N` — run the self-contained fleet-scaling study instead
//!   of the single-daemon passes: boot 1/2/4-shard (capped at `N`)
//!   router-fronted fleets in-process, measure cold/hot throughput per
//!   count, then demonstrate cache peering under resharding. Writes
//!   `BENCH_fleet_scaling.json`; ignores `--addr`/`--spawn`/`--rate`.
//! * `--connections N` — concurrent keep-alive connections (default 4;
//!   thousands are fine — connection threads are small-stack and the
//!   daemon's reactor multiplexes them on one thread).
//! * `--passes N` — sweeps over the suite (default 2: a cold pass that
//!   populates the result cache, then a hot pass that must hit it).
//! * `--rate R` — open-loop arrivals per second for the post-cold
//!   passes: requests fire on a fixed schedule regardless of response
//!   progress, and latency is measured from the *scheduled* arrival, so
//!   overload shows up as queueing delay instead of being silently
//!   absorbed (no coordinated omission). Without `--rate`, post-cold
//!   passes stay closed-loop like the cold one.
//! * `--requests N` — requests per open-loop pass (default
//!   `max(2 × connections, suite size)`; only meaningful with `--rate`).
//! * `--method fast|hough|tuned` — extraction method (default fast).
//! * `--budget N` — cap the benchmark suite (CI smoke; default all 12).
//! * `--wait-healthz SECS` — poll `GET /healthz` up to a deadline before
//!   driving load (lets scripts race the daemon boot).
//! * `--expect-cache-hits` — exit non-zero unless every post-cold
//!   request was a cache hit.
//! * `--remote-check` — after the passes, run paper benchmark 6 through
//!   a [`fastvg_serve::RemoteExtractor`] and a local `Pipeline`, both
//!   via the same `&dyn Extractor` batch path, and exit non-zero unless
//!   the two `ExtractionReport`s agree bit-for-bit (slopes, matrix,
//!   probes, coverage) — the end-to-end proof that the daemon is a
//!   drop-in extractor.
//! * `--record-tape PATH` — tape the local comparison run's probes to
//!   `PATH` (implies nothing by itself; with `--remote-check` the tape
//!   is also replayed strictly and must reproduce the local report).
//! * `--trace-sample F` — mint a client root span and an
//!   `x-fastvg-trace` header on fraction `F` of requests (stride
//!   sampling; `1.0` traces everything, default `0` traces nothing).
//!   See `docs/OBSERVABILITY.md` for the header contract.
//! * `--trace-out PATH` — write the client spans as newline-JSON to
//!   `PATH` (merge with the daemons'/router's files via `fastvg-trace`).
//! * `--out DIR` — artifact directory (default `target/artifacts`).
//!
//! Artifacts: `BENCH_serve_throughput.json` (per-pass rps + p50/p95/p99)
//! and `BENCH_serve_latency_histogram.json` — per-pass log-bucket
//! latency histograms using the daemon's own bucket layout
//! ([`fastvg_serve::Histogram`]), schema
//! `{"passes": [{"pass", "mode", "count", "sum_s",
//! "buckets": [{"le_us": bound-or-null, "count"}…]}]}` with `le_us:
//! null` as the `+Inf` bucket.
//!
//! On startup the generator asserts the daemon's `/healthz` build info:
//! the reported crate version must match its own — and that `/metrics`
//! advertises the same version and git revision via
//! `fastvg_build_info` — so CI never load-tests a stale binary.
//!
//! Every request uses `?wait`, so a request's latency is the service's
//! end-to-end job latency (queue + schedule + extract + serialize).
//! The run fails (non-zero exit) on any transport/HTTP failure, and on
//! any response whose bytes differ from the first pass — the over-the-
//! wire restatement of the cache byte-identity guarantee.

use fastvg_obs::{IdGen, Tracer};
use fastvg_serve::{start, Client, ClientConfig, Histogram, ServeConfig};
use fastvg_wire::{Json, TraceContext, TRACE_HEADER};
use qd_numerics::stats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Args {
    addr: Option<String>,
    spawn: bool,
    fleet: Option<usize>,
    connections: usize,
    passes: usize,
    rate: Option<f64>,
    requests: Option<usize>,
    method: String,
    budget: Option<usize>,
    wait_healthz: Option<u64>,
    expect_cache_hits: bool,
    remote_check: bool,
    record_tape: Option<std::path::PathBuf>,
    trace_sample: f64,
    trace_out: Option<std::path::PathBuf>,
    out: std::path::PathBuf,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: None,
            spawn: false,
            fleet: None,
            connections: 4,
            passes: 2,
            rate: None,
            requests: None,
            method: "fast".to_string(),
            budget: None,
            wait_healthz: None,
            expect_cache_hits: false,
            remote_check: false,
            record_tape: None,
            trace_sample: 0.0,
            trace_out: None,
            out: std::path::PathBuf::from("target/artifacts"),
        }
    }
}

fn parse_args() -> Args {
    let mut parsed = Args::default();
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next()
            .unwrap_or_else(|| panic!("{flag} expects a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => parsed.addr = Some(value("--addr", &mut args)),
            "--spawn" => parsed.spawn = true,
            "--fleet" => {
                parsed.fleet = Some(
                    value("--fleet", &mut args)
                        .parse()
                        .expect("--fleet expects a shard count"),
                )
            }
            "--connections" => {
                parsed.connections = value("--connections", &mut args)
                    .parse()
                    .expect("--connections expects a number")
            }
            "--passes" => {
                parsed.passes = value("--passes", &mut args)
                    .parse()
                    .expect("--passes expects a number")
            }
            "--rate" => {
                parsed.rate = Some(
                    value("--rate", &mut args)
                        .parse()
                        .expect("--rate expects requests per second"),
                )
            }
            "--requests" => {
                parsed.requests = Some(
                    value("--requests", &mut args)
                        .parse()
                        .expect("--requests expects a number"),
                )
            }
            "--method" => parsed.method = value("--method", &mut args),
            "--budget" => {
                parsed.budget = Some(
                    value("--budget", &mut args)
                        .parse()
                        .expect("--budget expects a number"),
                )
            }
            "--wait-healthz" => {
                parsed.wait_healthz = Some(
                    value("--wait-healthz", &mut args)
                        .parse()
                        .expect("--wait-healthz expects seconds"),
                )
            }
            "--expect-cache-hits" => parsed.expect_cache_hits = true,
            "--remote-check" => parsed.remote_check = true,
            "--record-tape" => parsed.record_tape = Some(value("--record-tape", &mut args).into()),
            "--trace-sample" => {
                parsed.trace_sample = value("--trace-sample", &mut args)
                    .parse()
                    .expect("--trace-sample expects a fraction")
            }
            "--trace-out" => parsed.trace_out = Some(value("--trace-out", &mut args).into()),
            "--out" => parsed.out = value("--out", &mut args).into(),
            other => panic!("unknown flag {other:?}"),
        }
    }
    assert!(
        matches!(parsed.method.as_str(), "fast" | "hough" | "tuned"),
        "--method expects fast|hough|tuned"
    );
    parsed.connections = parsed.connections.max(1);
    parsed.passes = parsed.passes.max(1);
    if let Some(rate) = parsed.rate {
        assert!(
            rate.is_finite() && rate > 0.0,
            "--rate expects a positive requests-per-second value"
        );
    }
    assert!(
        (0.0..=1.0).contains(&parsed.trace_sample),
        "--trace-sample expects a fraction in [0, 1]"
    );
    parsed
}

/// Client-side tracing: a `client`-layer tracer plus the stride sampler
/// deciding which requests carry an `x-fastvg-trace` header. Shared by
/// every connection thread (the counter is the cross-thread stride).
struct ClientTrace {
    tracer: Arc<Tracer>,
    sample: f64,
    counter: AtomicU64,
}

impl ClientTrace {
    fn new(args: &Args) -> Option<Self> {
        if args.trace_sample <= 0.0 {
            return None;
        }
        let tracer = Tracer::new("client", IdGen::from_entropy().next_id());
        if let Some(path) = &args.trace_out {
            tracer.set_file(path).expect("open --trace-out file");
        }
        Some(Self {
            tracer,
            sample: args.trace_sample,
            counter: AtomicU64::new(0),
        })
    }

    /// Stride sampling: request `n` is traced iff the running total
    /// `n × sample` crosses an integer — exact long-run rate, no RNG.
    fn should_sample(&self) -> bool {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        ((n + 1) as f64 * self.sample).floor() > (n as f64 * self.sample).floor()
    }

    fn flush(&self) {
        self.tracer.flush();
    }
}

/// One request's record.
#[derive(Debug, Clone)]
struct Sample {
    benchmark: usize,
    status: u16,
    /// The `x-fastvg-cache` header: `hit` (local cache), `peer` (served
    /// from a sibling shard's cache through the router), or `miss`.
    cache: String,
    latency: Duration,
    body: Vec<u8>,
}

impl Sample {
    /// Whether the request avoided extraction — a local *or* peered
    /// cache hit. `--expect-cache-hits` accepts both: through a router,
    /// a warm fleet legitimately answers `peer` while seeds propagate.
    fn is_hit(&self) -> bool {
        matches!(self.cache.as_str(), "hit" | "peer")
    }
}

/// The `p`th percentile of the samples, linearly interpolated (NaN when
/// there are none).
fn percentile(ms: &[f64], p: f64) -> f64 {
    stats::percentile(ms, p).unwrap_or(f64::NAN)
}

/// The shared connect policy: generous retries so thousands of
/// simultaneous connects survive accept-backlog overflow.
fn connect_client(addr: &str) -> Client {
    ClientConfig::new()
        .connect_timeout(Duration::from_secs(10))
        .retries(10, Duration::from_millis(20))
        .connect(addr)
        .expect("connect to daemon")
}

fn post_extract(
    client: &mut Client,
    benchmark: usize,
    method: &str,
    trace: Option<&ClientTrace>,
) -> fastvg_serve::ClientResponse {
    let body = format!("{{\"benchmark\": {benchmark}, \"method\": \"{method}\"}}");
    let span = trace.filter(|t| t.should_sample()).map(|t| {
        let mut span = t.tracer.root("request");
        span.attr("benchmark", benchmark.to_string());
        span
    });
    let response = match &span {
        Some(span) => {
            let ctx = span.context();
            let header = TraceContext {
                trace: ctx.trace.0,
                span: ctx.span.0,
            }
            .encode();
            client.send_with_headers(
                "POST",
                "/extract?wait",
                body.as_bytes(),
                &[(TRACE_HEADER, &header)],
            )
        }
        None => client.post("/extract?wait", body.as_bytes()),
    };
    // The span drops here, recording the request's full wall time.
    response.expect("request completes")
}

/// Closed-loop pass: each connection fires its share of the suite
/// back-to-back; latency is service time (send → response).
fn drive_pass(
    addr: &str,
    benchmarks: &[usize],
    connections: usize,
    method: &str,
    trace: Option<&ClientTrace>,
) -> (Vec<Sample>, Duration) {
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                std::thread::Builder::new()
                    .stack_size(192 * 1024)
                    .spawn_scoped(scope, move || {
                        let mut client = connect_client(addr);
                        let mut collected = Vec::new();
                        // Static round-robin: connection c takes
                        // benchmarks c, c+connections, ...
                        for &benchmark in benchmarks.iter().skip(c).step_by(connections) {
                            let sent = Instant::now();
                            let response = post_extract(&mut client, benchmark, method, trace);
                            let cache = response
                                .header("x-fastvg-cache")
                                .unwrap_or("miss")
                                .to_string();
                            collected.push(Sample {
                                benchmark,
                                status: response.status,
                                cache,
                                latency: sent.elapsed(),
                                body: response.body,
                            });
                        }
                        collected
                    })
                    .expect("spawn connection thread")
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("connection thread"))
            .collect()
    });
    (samples, started.elapsed())
}

/// Open-loop pass: `total` arrivals at `rate` req/s on a fixed global
/// schedule, round-robined over `connections` keep-alive connections.
/// Latency runs from the *scheduled* arrival, so a server that falls
/// behind accrues queueing delay in every subsequent sample instead of
/// silently slowing the offered load (coordinated omission). Every
/// connection stays open for the whole pass (start/finish barriers), so
/// `--connections N` really means N concurrently open sockets.
fn drive_open_loop(
    addr: &str,
    benchmarks: &[usize],
    connections: usize,
    method: &str,
    rate: f64,
    total: usize,
    trace: Option<&ClientTrace>,
) -> (Vec<Sample>, Duration) {
    use std::sync::{Barrier, OnceLock};

    let barrier = Arc::new(Barrier::new(connections + 1));
    let base: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let base = Arc::clone(&base);
                std::thread::Builder::new()
                    .stack_size(192 * 1024)
                    .spawn_scoped(scope, move || {
                        let mut client = connect_client(addr);
                        barrier.wait(); // all connected
                        barrier.wait(); // parent published the schedule base
                        let base = *base.get().expect("parent sets the base");
                        let mut collected = Vec::new();
                        for i in (c..total).step_by(connections) {
                            let scheduled = base + Duration::from_secs_f64(i as f64 / rate);
                            if let Some(lead) = scheduled.checked_duration_since(Instant::now()) {
                                std::thread::sleep(lead);
                            }
                            let benchmark = benchmarks[i % benchmarks.len()];
                            let response = post_extract(&mut client, benchmark, method, trace);
                            let cache = response
                                .header("x-fastvg-cache")
                                .unwrap_or("miss")
                                .to_string();
                            collected.push(Sample {
                                benchmark,
                                status: response.status,
                                cache,
                                latency: Instant::now().saturating_duration_since(scheduled),
                                body: response.body,
                            });
                        }
                        barrier.wait(); // keep the socket open until everyone is done
                        drop(client);
                        collected
                    })
                    .expect("spawn connection thread")
            })
            .collect();
        barrier.wait(); // all connected
        base.set(Instant::now() + Duration::from_millis(20))
            .expect("base set once");
        barrier.wait(); // release the schedule
        let started = *base.get().expect("just set");
        barrier.wait(); // every connection finished its share
        let wall = started.elapsed();
        let samples = handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("connection thread"))
            .collect();
        (samples, wall)
    })
}

/// Asserts the daemon's `/healthz` build info matches this binary: same
/// workspace version, and the backend registry it claims to serve.
fn assert_build_info(addr: &str) {
    let mut client = Client::connect(addr).expect("connect for healthz");
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "daemon must be healthy");
    let doc = health.json().expect("healthz is JSON");
    let version = doc
        .get("version")
        .and_then(Json::as_str)
        .expect("healthz reports a version");
    // Every workspace crate inherits `version.workspace = true`, so
    // fastvg-serve and fastvg-bench versions move in lockstep — a
    // mismatch means the daemon binary came from a different tree.
    assert_eq!(
        version,
        env!("CARGO_PKG_VERSION"),
        "daemon version must match this load generator's build"
    );
    // `/metrics` must advertise the same build via `fastvg_build_info`
    // (the Prometheus join key for deploy metadata).
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200, "metrics must answer");
    let metrics_text = String::from_utf8_lossy(&metrics.body).into_owned();
    let build_line = metrics_text
        .lines()
        .find(|line| line.starts_with("fastvg_build_info{"))
        .unwrap_or_else(|| panic!("{addr} /metrics lacks fastvg_build_info"))
        .to_string();
    assert!(
        build_line.contains(&format!("version=\"{version}\"")),
        "fastvg_build_info version must match healthz: {build_line}"
    );
    if let Some(git) = doc.get("git").and_then(Json::as_str) {
        assert!(
            build_line.contains(&format!("git=\"{git}\"")),
            "fastvg_build_info git must match healthz ({git}): {build_line}"
        );
    }
    let backends: Vec<&str> = doc
        .get("backends")
        .and_then(Json::as_arr)
        .expect("healthz reports enabled backends")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    for required in ["sim", "throttled", "replay", "record"] {
        assert!(
            backends.contains(&required),
            "daemon must serve the {required} backend, got {backends:?}"
        );
    }
    println!(
        "daemon build: version {version}, default backend {}, schemes {}",
        doc.get("backend").and_then(Json::as_str).unwrap_or("?"),
        backends.join(",")
    );
}

/// The end-to-end interchangeability proof: a
/// [`fastvg_serve::RemoteExtractor`] and a local `Pipeline` run through
/// the *same* `&dyn Extractor` batch path on paper benchmark 6 and must
/// report identical extractions. With `--record-tape` the local run is
/// taped and strictly replayed, so the round also pins the
/// record/replay fixtures.
fn remote_check(addr: &str, record_tape: Option<&std::path::Path>) {
    use fastvg_core::api::{ExtractionReport, Extractor, Pipeline};
    use fastvg_core::batch::BatchExtractor;
    use fastvg_serve::RemoteExtractor;
    use qd_instrument::{ReplayMode, SimBackend, SourceBackend, SourceScenario};
    use std::sync::Arc;

    let bench = qd_dataset::paper_benchmark(6).expect("paper benchmark 6");
    let runner = BatchExtractor::new().with_jobs(1);
    let scenario = || {
        SourceScenario::new(bench.csd.clone())
            .with_label("remote-check")
            .with_seed(bench.spec.seed)
    };

    // One closure drives both extractors through the erased batch path.
    let run_one = |extractor: &dyn Extractor, backend: &dyn SourceBackend| -> ExtractionReport {
        let mut outcomes = runner.run(extractor, 1, |_| {
            backend.session(scenario()).expect("backend opens")
        });
        outcomes
            .remove(0)
            .outcome
            .expect("benchmark 6 extracts cleanly")
    };

    let local_backend: Arc<dyn SourceBackend> = match record_tape {
        Some(path) => Arc::new(qd_instrument::RecordBackend::new(
            path,
            Arc::new(SimBackend),
        )),
        None => Arc::new(SimBackend),
    };
    let local = run_one(&Pipeline::fast().build(), local_backend.as_ref());
    // The remote extractor acquires the window itself; it must not run
    // over the recording backend or the tape would hold its full-frame
    // acquisition instead of the local pipeline's probes.
    let remote = run_one(&RemoteExtractor::new(addr.to_string()), &SimBackend);

    assert_eq!(
        remote.method, local.method,
        "remote must run the same method"
    );
    assert_eq!(
        remote.slope_h.to_bits(),
        local.slope_h.to_bits(),
        "remote slope_h must match local"
    );
    assert_eq!(
        remote.slope_v.to_bits(),
        local.slope_v.to_bits(),
        "remote slope_v must match local"
    );
    assert_eq!(remote.matrix, local.matrix, "virtualization matrices match");
    assert_eq!(remote.probes, local.probes, "probe counts match");
    assert_eq!(
        remote.coverage.to_bits(),
        local.coverage.to_bits(),
        "coverage matches"
    );
    println!(
        "remote-check: remote report matches local pipeline (slopes {:.4}/{:.4}, {} probes)",
        local.slope_h, local.slope_v, local.probes
    );

    if let Some(path) = record_tape {
        let replay = qd_instrument::ReplayBackend::new(path, ReplayMode::Strict);
        let replayed = run_one(&Pipeline::fast().build(), &replay);
        assert_eq!(replayed.slope_h.to_bits(), local.slope_h.to_bits());
        assert_eq!(replayed.slope_v.to_bits(), local.slope_v.to_bits());
        assert_eq!(replayed.probes, local.probes);
        assert_eq!(replayed.matrix, local.matrix);
        println!(
            "remote-check: strict replay of {} reproduces the local report",
            path.display()
        );
    }
}

/// `--fleet N`: a self-contained fleet-scaling study. For each shard
/// count in {1, 2, 4} (capped at `N`) the generator boots that many
/// in-process daemons behind a [`fastvg_router`] front-end, drives a
/// cold pass plus a repeated hot suite through the router, and records
/// throughput, p50/p99 and hit rates per count. It then demonstrates
/// cache peering under resharding: a warm single-shard fleet gains an
/// empty sibling, and the next sweep must be served entirely from cache
/// — locally where ownership stayed put, via `x-fastvg-cache: peer`
/// where it moved — with the new owner seeded so a final sweep hits
/// everywhere. Writes `BENCH_fleet_scaling.json`.
///
/// Shard daemons share this process's cores, so hot-path throughput
/// only scales with shard count when spare cores exist; the peering
/// phase is the scaling evidence that survives a single-core container.
fn fleet_scaling(args: &Args, max_shards: usize) {
    use fastvg_router::{start as start_router, RouterConfig, RouterHandle, ShardSpec};
    use fastvg_serve::ServiceHandle;

    let max_shards = max_shards.clamp(1, 8);
    let mut benchmarks: Vec<usize> = (1..=12).collect();
    if let Some(budget) = args.budget {
        benchmarks.truncate(budget.max(1));
    }
    let method = args.method.as_str();
    let connections = args.connections.clamp(1, benchmarks.len());
    // Enough hot requests that the rps measurement isn't dominated by
    // the first-byte costs of a 12-request sweep.
    const HOT_REPEATS: usize = 8;
    let hot_suite: Vec<usize> = std::iter::repeat_with(|| benchmarks.iter().copied())
        .take(HOT_REPEATS)
        .flatten()
        .collect();

    let boot_daemon = || -> ServiceHandle {
        start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .expect("boot fleet daemon")
    };
    let boot_router = |daemons: &[ServiceHandle]| -> RouterHandle {
        start_router(RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: daemons
                .iter()
                .map(|d| ShardSpec::new(d.addr().to_string()))
                .collect(),
            health_interval: Duration::from_millis(500),
            ..RouterConfig::default()
        })
        .expect("boot fleet router")
    };
    let stop_fleet = |fleet: RouterHandle, daemons: Vec<ServiceHandle>| {
        fleet.shutdown();
        fleet.join();
        for daemon in daemons {
            daemon.shutdown();
            daemon.join();
        }
    };

    let mut counts: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&c| c <= max_shards)
        .collect();
    if !counts.contains(&max_shards) {
        counts.push(max_shards);
    }
    println!(
        "fastvg-loadgen: fleet scaling over {counts:?} shard(s), {} cold + {} hot requests per count, {connections} connections",
        benchmarks.len(),
        hot_suite.len(),
    );

    let mut count_docs: Vec<Json> = Vec::new();
    let mut hot_rps_by_count: BTreeMap<usize, f64> = BTreeMap::new();
    for &shards in &counts {
        let daemons: Vec<ServiceHandle> = (0..shards).map(|_| boot_daemon()).collect();
        let fleet = boot_router(&daemons);
        let addr = fleet.addr().to_string();
        // The router's aggregate healthz speaks the daemon dialect.
        assert_build_info(&addr);

        let (cold, cold_wall) = drive_pass(&addr, &benchmarks, connections, method, None);
        let (hot, hot_wall) = drive_pass(&addr, &hot_suite, connections, method, None);
        stop_fleet(fleet, daemons);

        let failures = cold.iter().chain(&hot).filter(|s| s.status != 200).count();
        assert_eq!(failures, 0, "{shards}-shard fleet served failures");
        let cold_bodies: BTreeMap<usize, &Vec<u8>> =
            cold.iter().map(|s| (s.benchmark, &s.body)).collect();
        let hot_hits = hot.iter().filter(|s| s.is_hit()).count();
        let peer_hits = hot.iter().filter(|s| s.cache == "peer").count();
        for sample in &hot {
            assert!(
                sample.is_hit(),
                "{shards}-shard hot pass recomputed benchmark {} (cache={})",
                sample.benchmark,
                sample.cache
            );
            assert_eq!(
                Some(&&sample.body),
                cold_bodies.get(&sample.benchmark),
                "{shards}-shard hot body for benchmark {} is not byte-identical",
                sample.benchmark
            );
        }

        let cold_rps = cold.len() as f64 / cold_wall.as_secs_f64().max(1e-9);
        let hot_rps = hot.len() as f64 / hot_wall.as_secs_f64().max(1e-9);
        let hot_ms: Vec<f64> = hot.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect();
        let (p50, p99) = (percentile(&hot_ms, 50.0), percentile(&hot_ms, 99.0));
        println!(
            "fleet {shards} shard(s): cold {cold_rps:.1} req/s, hot {hot_rps:.1} req/s | hot p50 {p50:.2}ms p99 {p99:.2}ms | {hot_hits}/{} hits ({peer_hits} peered)",
            hot.len(),
        );
        hot_rps_by_count.insert(shards, hot_rps);
        count_docs.push(
            Json::object()
                .field("shards", shards)
                .field("cold_requests", cold.len())
                .field("cold_rps", Json::num(cold_rps))
                .field("hot_requests", hot.len())
                .field("hot_rps", Json::num(hot_rps))
                .field("hot_p50_ms", Json::num(p50))
                .field("hot_p99_ms", Json::num(p99))
                .field(
                    "hot_hit_rate",
                    Json::num(hot_hits as f64 / hot.len().max(1) as f64),
                )
                .field("hot_peer_hits", peer_hits)
                .build(),
        );
    }

    // Peering under resharding: warm one shard, add an empty sibling.
    // Every key that moved to the newcomer must come back as a peered
    // byte-identical replay (never a recompute), and the peer sweep
    // seeds the newcomer so the final sweep hits locally everywhere.
    let seed_daemon = boot_daemon();
    let warm_fleet = boot_router(std::slice::from_ref(&seed_daemon));
    let (warm, _) = drive_pass(
        &warm_fleet.addr().to_string(),
        &benchmarks,
        connections,
        method,
        None,
    );
    assert!(
        warm.iter().all(|s| s.status == 200),
        "warmup sweep must succeed"
    );
    warm_fleet.shutdown();
    warm_fleet.join();

    let daemons = vec![seed_daemon, boot_daemon()];
    let refleet = boot_router(&daemons);
    let refleet_addr = refleet.addr().to_string();
    let (peered, _) = drive_pass(&refleet_addr, &benchmarks, connections, method, None);
    let warm_bodies: BTreeMap<usize, &Vec<u8>> =
        warm.iter().map(|s| (s.benchmark, &s.body)).collect();
    let peer_hits = peered.iter().filter(|s| s.cache == "peer").count();
    for sample in &peered {
        assert!(
            sample.is_hit(),
            "benchmark {} recomputed despite a warm sibling (cache={})",
            sample.benchmark,
            sample.cache
        );
        assert_eq!(
            Some(&&sample.body),
            warm_bodies.get(&sample.benchmark),
            "benchmark {} peered body is not byte-identical to the warm shard's",
            sample.benchmark
        );
    }
    assert!(
        peer_hits > 0,
        "resharding {} warm keys onto an empty shard produced no peer hits",
        benchmarks.len()
    );
    let (sealed, _) = drive_pass(&refleet_addr, &benchmarks, connections, method, None);
    let sealed_local = sealed.iter().filter(|s| s.cache == "hit").count();
    assert_eq!(
        sealed_local,
        sealed.len(),
        "peer sweep must seed the new owner so the next sweep hits locally"
    );
    stop_fleet(refleet, daemons);
    println!(
        "fleet reshard 1 -> 2 shards: {peer_hits}/{} keys served by the warm peer (byte-identical), next sweep {sealed_local}/{} local hits",
        peered.len(),
        sealed.len(),
    );

    let speedup = match (hot_rps_by_count.get(&1), hot_rps_by_count.get(&2)) {
        (Some(one), Some(two)) if *one > 0.0 => Some(two / one),
        _ => None,
    };
    if let Some(speedup) = speedup {
        println!("fleet hot-path speedup, 2 shards over 1: {speedup:.2}x");
    }

    let doc = Json::object()
        .field("bench", "fleet_scaling")
        .field("suite", "paper12")
        .field("method", method)
        .field("connections", connections)
        .field("hot_repeats", HOT_REPEATS)
        .field("counts", count_docs)
        .field(
            "hot_speedup_2_over_1",
            match speedup {
                Some(s) => Json::num(s),
                None => Json::Null,
            },
        )
        .field(
            "reshard",
            Json::object()
                .field("from_shards", 1u32)
                .field("to_shards", 2u32)
                .field("requests", peered.len())
                .field("peer_hits", peer_hits)
                .field(
                    "peer_rate",
                    Json::num(peer_hits as f64 / peered.len().max(1) as f64),
                )
                .field("byte_identical", true)
                .field("seeded_local_hits", sealed_local)
                .build(),
        )
        .build();
    std::fs::create_dir_all(&args.out).expect("create artifact dir");
    let path = args.out.join("BENCH_fleet_scaling.json");
    std::fs::write(&path, doc.pretty()).expect("write artifact");
    println!("artifact: {}", path.display());
}

fn main() {
    let args = parse_args();

    if let Some(max_shards) = args.fleet {
        fleet_scaling(&args, max_shards);
        return;
    }

    // Either drive an external daemon or boot one in-process.
    let spawned = if args.spawn {
        Some(
            start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..ServeConfig::default()
            })
            .expect("spawn in-process daemon"),
        )
    } else {
        None
    };
    let addr = match (&spawned, &args.addr) {
        (Some(daemon), _) => daemon.addr().to_string(),
        (None, Some(addr)) => addr.clone(),
        (None, None) => panic!("--addr HOST:PORT is required (or pass --spawn)"),
    };

    if let Some(secs) = args.wait_healthz {
        let deadline = Instant::now() + Duration::from_secs(secs);
        loop {
            let healthy = Client::connect_with_timeout(&addr, Duration::from_secs(2))
                .and_then(|mut c| c.get("/healthz"))
                .map(|r| r.status == 200)
                .unwrap_or(false);
            if healthy {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "daemon at {addr} not healthy within {secs}s"
            );
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    assert_build_info(&addr);

    let trace = ClientTrace::new(&args);

    let mut benchmarks: Vec<usize> = (1..=12).collect();
    if let Some(budget) = args.budget {
        benchmarks.truncate(budget.max(1));
    }

    // The cold pass only has one request per suite entry — more
    // connections than entries would idle; the full connection count is
    // the open-loop passes' business.
    let cold_connections = args.connections.min(benchmarks.len());
    let open_requests = args
        .requests
        .unwrap_or_else(|| (2 * args.connections).max(benchmarks.len()));

    match args.rate {
        Some(rate) => println!(
            "fastvg-loadgen: cold pass ({} requests, {cold_connections} connections), then {} open-loop pass(es) of {open_requests} requests at {rate} req/s over {} connections -> {addr}",
            benchmarks.len(),
            args.passes.saturating_sub(1),
            args.connections,
        ),
        None => println!(
            "fastvg-loadgen: {} requests/pass x {} passes over {cold_connections} connections -> {addr}",
            benchmarks.len(),
            args.passes,
        ),
    }

    let mut pass_docs: Vec<Json> = Vec::new();
    let mut histogram_docs: Vec<Json> = Vec::new();
    let mut first_pass_bodies: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    let mut failed_requests = 0usize;
    let mut identity_ok = true;
    let mut post_cold_misses = 0usize;

    for pass in 1..=args.passes {
        let open_loop = args.rate.filter(|_| pass > 1);
        let (mode, samples, wall) = match open_loop {
            Some(rate) => {
                let (samples, wall) = drive_open_loop(
                    &addr,
                    &benchmarks,
                    args.connections,
                    &args.method,
                    rate,
                    open_requests,
                    trace.as_ref(),
                );
                ("open", samples, wall)
            }
            None => {
                let (samples, wall) = drive_pass(
                    &addr,
                    &benchmarks,
                    cold_connections,
                    &args.method,
                    trace.as_ref(),
                );
                ("closed", samples, wall)
            }
        };
        if let Some(trace) = &trace {
            // Drain per pass so the span ring never overflows.
            trace.flush();
        }

        let latencies_ms: Vec<f64> = samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        let histogram = Histogram::default();
        for sample in &samples {
            histogram.observe(sample.latency);
        }
        let hits = samples.iter().filter(|s| s.is_hit()).count();
        let peer_hits = samples.iter().filter(|s| s.cache == "peer").count();
        let failures = samples.iter().filter(|s| s.status != 200).count();
        failed_requests += failures;
        if pass > 1 {
            post_cold_misses += samples.len() - hits;
        }

        for sample in &samples {
            if pass == 1 {
                first_pass_bodies.insert(sample.benchmark, sample.body.clone());
            } else if first_pass_bodies.get(&sample.benchmark) != Some(&sample.body) {
                identity_ok = false;
                eprintln!(
                    "byte-identity violation: benchmark {} differs from pass 1",
                    sample.benchmark
                );
            }
        }

        let rps = samples.len() as f64 / wall.as_secs_f64().max(1e-9);
        let (p50, p95, p99) = (
            percentile(&latencies_ms, 50.0),
            percentile(&latencies_ms, 95.0),
            percentile(&latencies_ms, 99.0),
        );
        println!(
            "pass {pass} ({mode}): {} requests in {:.3}s = {rps:.1} req/s | p50 {p50:.1}ms p95 {p95:.1}ms p99 {p99:.1}ms | {hits} cache hits ({peer_hits} peered), {failures} failed",
            samples.len(),
            wall.as_secs_f64(),
        );
        pass_docs.push(
            Json::object()
                .field("pass", pass)
                .field("mode", mode)
                .field(
                    "offered_rps",
                    match open_loop {
                        Some(rate) => Json::num(rate),
                        None => Json::Null,
                    },
                )
                .field("requests", samples.len())
                .field("wall_s", Json::num(wall.as_secs_f64()))
                .field("rps", Json::num(rps))
                .field("p50_ms", Json::num(p50))
                .field("p95_ms", Json::num(p95))
                .field("p99_ms", Json::num(p99))
                .field("cache_hits", hits)
                .field("peer_hits", peer_hits)
                .field(
                    "cache_hit_rate",
                    Json::num(hits as f64 / samples.len().max(1) as f64),
                )
                .field("failed_requests", failures)
                .build(),
        );
        histogram_docs.push(
            Json::object()
                .field("pass", pass)
                .field("mode", mode)
                .field("count", histogram.count())
                .field("sum_s", Json::num(histogram.sum().as_secs_f64()))
                .field(
                    "buckets",
                    histogram
                        .buckets()
                        .into_iter()
                        .map(|(bound, count)| {
                            Json::object()
                                .field(
                                    "le_us",
                                    match bound {
                                        Some(us) => Json::from(us),
                                        None => Json::Null,
                                    },
                                )
                                .field("count", count)
                                .build()
                        })
                        .collect::<Vec<_>>(),
                )
                .build(),
        );
    }

    let doc = Json::object()
        .field("bench", "serve_throughput")
        .field("suite", "paper12")
        .field("method", args.method.as_str())
        .field("connections", args.connections)
        .field("requests_per_pass", benchmarks.len())
        .field("passes", pass_docs)
        .field("failed_requests", failed_requests)
        .field("cache_identity_ok", identity_ok)
        .build();
    std::fs::create_dir_all(&args.out).expect("create artifact dir");
    let path = args.out.join("BENCH_serve_throughput.json");
    std::fs::write(&path, doc.pretty()).expect("write artifact");
    println!("artifact: {}", path.display());

    let histogram_doc = Json::object()
        .field("bench", "serve_latency_histogram")
        .field("connections", args.connections)
        .field(
            "rate_rps",
            match args.rate {
                Some(rate) => Json::num(rate),
                None => Json::Null,
            },
        )
        .field("passes", histogram_docs)
        .build();
    let histogram_path = args.out.join("BENCH_serve_latency_histogram.json");
    std::fs::write(&histogram_path, histogram_doc.pretty()).expect("write artifact");
    println!("artifact: {}", histogram_path.display());

    if args.remote_check {
        remote_check(&addr, args.record_tape.as_deref());
    }

    if let Some(daemon) = spawned {
        daemon.shutdown();
        daemon.join();
    }

    assert_eq!(failed_requests, 0, "failed requests");
    assert!(identity_ok, "cache-hit responses must replay cold bytes");
    if args.expect_cache_hits {
        assert_eq!(
            post_cold_misses, 0,
            "every post-cold request must hit the cache"
        );
    }
}
