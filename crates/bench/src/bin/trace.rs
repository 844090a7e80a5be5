//! `fastvg-trace` — merges span export files from the client, router
//! and daemons into end-to-end waterfalls, validates trace
//! connectivity, and writes the per-layer latency breakdown artifact.
//!
//! ```sh
//! # Gate a fleet run's trace files (CI trace-smoke):
//! fastvg-trace --gate client.jsonl router.jsonl shard0.jsonl shard1.jsonl
//! # Self-contained study: boot a traced 2-shard fleet, drive it, and
//! # write artifacts/BENCH_trace_breakdown.json:
//! fastvg-trace --study --out artifacts
//! ```
//!
//! Flags:
//!
//! * `FILE...` — newline-JSON span files (the `--trace-out` output of
//!   `fastvg-serve`, `fastvg-router` and `fastvg-loadgen`), merged into
//!   one span set before grouping by trace id.
//! * `--gate` — exit non-zero unless every trace is a *connected
//!   single-root waterfall*: exactly one root span (no parent) and
//!   zero orphans (every parent id resolves inside the trace).
//! * `--top N` — print the N slowest waterfalls (default 3; `0`
//!   silences them).
//! * `--out PATH-OR-DIR` — write `BENCH_trace_breakdown.json` (a
//!   directory gets the default file name inside it).
//! * `--study` — ignore `FILE...`; boot two traced in-process daemons
//!   behind a traced router, drive a cold pass plus repeated hot
//!   passes at sampling 1.0, then repeat the hot pass against an
//!   identical *untraced* fleet, and record the per-layer breakdown
//!   plus the tracing-overhead comparison in the artifact.
//! * `--budget N` — cap the benchmark suite in `--study` (default 12).
//! * `--hot-repeats N` — hot sweeps per fleet in `--study`
//!   (default 20).
//!
//! The breakdown artifact reports p50/p99 per layer — daemon
//! queue-wait, extraction, router proxy overhead (router span minus
//! daemon span), and network residual (client span minus router span)
//! — separately for cold (extracting) and hot (cache-served) requests.
//! See `docs/OBSERVABILITY.md` for the span schema and how to read a
//! waterfall.

use fastvg_obs::Tracer;
use fastvg_wire::{Json, TraceContext, TRACE_HEADER};
use qd_numerics::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parsed span line.
#[derive(Debug, Clone)]
struct SpanRec {
    trace: u64,
    span: u64,
    parent: Option<u64>,
    layer: String,
    name: String,
    start_us: u64,
    dur_us: u64,
    attrs: BTreeMap<String, String>,
}

impl SpanRec {
    fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }
}

fn parse_hex(value: &Json) -> Option<u64> {
    u64::from_str_radix(value.as_str()?, 16).ok()
}

/// Parses one span line of the `fastvg-obs` export schema.
fn parse_span(line: &str) -> Option<SpanRec> {
    let doc = Json::parse(line.trim()).ok()?;
    Some(SpanRec {
        trace: parse_hex(doc.get("trace")?)?,
        span: parse_hex(doc.get("span")?)?,
        parent: match doc.get("parent") {
            None | Some(Json::Null) => None,
            Some(p) => Some(parse_hex(p)?),
        },
        layer: doc.get("layer")?.as_str()?.to_string(),
        name: doc.get("name")?.as_str()?.to_string(),
        start_us: doc.get("start_us")?.as_u64()?,
        dur_us: doc.get("dur_us")?.as_u64()?,
        attrs: doc
            .get("attrs")
            .and_then(Json::as_obj)
            .map(|obj| {
                obj.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Reads every file and groups spans by trace id. Exits non-zero on a
/// malformed line — a trace file that does not parse is itself a bug.
fn load_traces(files: &[PathBuf]) -> BTreeMap<u64, Vec<SpanRec>> {
    let mut traces: BTreeMap<u64, Vec<SpanRec>> = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let span = parse_span(line).unwrap_or_else(|| {
                eprintln!("{}:{}: malformed span line", file.display(), number + 1);
                std::process::exit(2);
            });
            traces.entry(span.trace).or_default().push(span);
        }
    }
    traces
}

/// Connectivity report for one trace.
#[derive(Debug)]
struct Connectivity {
    roots: usize,
    orphans: usize,
}

fn connectivity(spans: &[SpanRec]) -> Connectivity {
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    let orphans = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| !ids.contains(&p)))
        .count();
    Connectivity { roots, orphans }
}

/// `--gate`: every trace must be a single-root, zero-orphan waterfall.
fn gate(traces: &BTreeMap<u64, Vec<SpanRec>>) -> bool {
    let mut ok = true;
    for (trace, spans) in traces {
        let c = connectivity(spans);
        if c.roots != 1 || c.orphans != 0 {
            eprintln!(
                "gate: trace {trace:016x} is not a connected waterfall \
                 ({} roots, {} orphans, {} spans)",
                c.roots,
                c.orphans,
                spans.len()
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "gate: {} trace(s), every one a connected single-root waterfall",
            traces.len()
        );
    }
    ok
}

/// Prints one trace as an indented waterfall, children ordered by
/// start time.
fn print_waterfall(spans: &[SpanRec]) {
    let mut children: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    let mut roots: Vec<&SpanRec> = Vec::new();
    for span in spans {
        match span.parent {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(span),
            _ => roots.push(span),
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| s.start_us);
    }
    roots.sort_by_key(|s| s.start_us);

    fn render(span: &SpanRec, depth: usize, children: &BTreeMap<u64, Vec<&SpanRec>>) {
        let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  {:indent$}[{:<6}] {:<14} {:>9.3}ms  {}",
            "",
            span.layer,
            span.name,
            span.dur_us as f64 / 1e3,
            attrs.join(" "),
            indent = depth * 2
        );
        for child in children.get(&span.span).map(Vec::as_slice).unwrap_or(&[]) {
            render(child, depth + 1, children);
        }
    }
    for root in roots {
        render(root, 0, &children);
    }
}

/// One trace's per-layer decomposition, all in microseconds. Missing
/// layers (e.g. no router hop) decompose as zero.
#[derive(Debug, Default, Clone, Copy)]
struct Breakdown {
    client_us: u64,
    queue_wait_us: u64,
    extract_us: u64,
    proxy_us: u64,
    residual_us: u64,
    hot: bool,
}

fn breakdown(spans: &[SpanRec]) -> Breakdown {
    let find = |layer: &str, name: &str| -> Option<&SpanRec> {
        spans.iter().find(|s| s.layer == layer && s.name == name)
    };
    let client = find("client", "request").map(|s| s.dur_us);
    let router = find("router", "request").map(|s| s.dur_us);
    let daemon = find("daemon", "request").map(|s| s.dur_us);
    let queue_wait = find("daemon", "queue_wait").map_or(0, |s| s.dur_us);
    let extract = find("daemon", "extract").map_or(0, |s| s.dur_us);
    // The hop costs are differences between enclosing spans: what the
    // router added over the daemon, and what the network/client added
    // over the router (or over the daemon when there is no router).
    // When a cache hit answers at the router the daemon span is
    // absent and the whole router span is proxy-layer time.
    let proxy = router.map_or(0, |r| r.saturating_sub(daemon.unwrap_or(0)));
    let inner = router.or(daemon).unwrap_or(0);
    let residual = client.map_or(0, |c| c.saturating_sub(inner));
    // Hot = the request was answered from a cache anywhere along the
    // path (daemon-local hit or a router peer relay).
    let hot = spans.iter().any(|s| {
        s.name == "request" && matches!(s.attr("outcome"), Some("cache_hit") | Some("peer_hit"))
    });
    Breakdown {
        client_us: client.unwrap_or(0),
        queue_wait_us: queue_wait,
        extract_us: extract,
        proxy_us: proxy,
        residual_us: residual,
        hot,
    }
}

/// The `p`th percentile of `values`, linearly interpolated (0 when there
/// are none).
fn percentile(values: &[f64], p: f64) -> f64 {
    stats::percentile(values, p).unwrap_or(0.0)
}

/// Aggregates one class (cold or hot) of breakdowns into p50/p99 docs.
fn class_doc(rows: &[Breakdown]) -> Json {
    let collect = |f: fn(&Breakdown) -> u64| -> Json {
        let values: Vec<f64> = rows.iter().map(|b| f(b) as f64).collect();
        Json::object()
            .field("p50_us", Json::num(percentile(&values, 50.0)))
            .field("p99_us", Json::num(percentile(&values, 99.0)))
            .build()
    };
    Json::object()
        .field("count", rows.len())
        .field("queue_wait_us", collect(|b| b.queue_wait_us))
        .field("extract_us", collect(|b| b.extract_us))
        .field("proxy_us", collect(|b| b.proxy_us))
        .field("residual_us", collect(|b| b.residual_us))
        .field("client_us", collect(|b| b.client_us))
        .build()
}

/// The artifact body for a span set, minus any study-only extras.
fn breakdown_doc(traces: &BTreeMap<u64, Vec<SpanRec>>) -> Json {
    let rows: Vec<Breakdown> = traces.values().map(|spans| breakdown(spans)).collect();
    let (hot, cold): (Vec<Breakdown>, Vec<Breakdown>) = rows.into_iter().partition(|b| b.hot);
    Json::object()
        .field("bench", "trace_breakdown")
        .field("traces", traces.len())
        .field("cold", class_doc(&cold))
        .field("hot", class_doc(&hot))
        .build()
}

fn write_artifact(out: &Path, doc: &Json) {
    let path = if out.extension().is_some() {
        out.to_path_buf()
    } else {
        std::fs::create_dir_all(out).expect("create artifact dir");
        out.join("BENCH_trace_breakdown.json")
    };
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, doc.pretty()).expect("write artifact");
    println!("artifact: {}", path.display());
}

fn print_top(traces: &BTreeMap<u64, Vec<SpanRec>>, top: usize) {
    let mut slowest: Vec<(&u64, &Vec<SpanRec>)> = traces.iter().collect();
    slowest.sort_by_key(|(_, spans)| {
        std::cmp::Reverse(
            spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.dur_us)
                .max()
                .unwrap_or(0),
        )
    });
    for (trace, spans) in slowest.into_iter().take(top) {
        let total = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_us)
            .max()
            .unwrap_or(0);
        println!(
            "trace {trace:016x}: {:.3}ms, {} spans",
            total as f64 / 1e3,
            spans.len()
        );
        print_waterfall(spans);
    }
}

// ---------------------------------------------------------------------
// --study: self-contained traced-fleet breakdown + overhead comparison.
// ---------------------------------------------------------------------

/// Drives `benchmarks` through `addr` once per repeat, optionally
/// minting a client root span per request; returns per-request wall
/// times.
fn sweep(
    addr: &str,
    benchmarks: &[usize],
    repeats: usize,
    tracer: Option<&Arc<Tracer>>,
    pass: &str,
) -> Vec<Duration> {
    use fastvg_serve::ClientConfig;
    let mut client = ClientConfig::new()
        .connect_timeout(Duration::from_secs(10))
        .retries(10, Duration::from_millis(20))
        .connect(addr)
        .expect("connect to fleet");
    let mut latencies = Vec::with_capacity(benchmarks.len() * repeats);
    for _ in 0..repeats {
        for &benchmark in benchmarks {
            let body = format!("{{\"benchmark\": {benchmark}, \"method\": \"fast\"}}");
            let sent = Instant::now();
            let response = match tracer {
                Some(tracer) => {
                    let mut span = tracer.root("request");
                    span.attr("benchmark", benchmark.to_string());
                    span.attr("pass", pass.to_string());
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
            }
            .expect("request completes");
            assert_eq!(response.status, 200, "benchmark {benchmark} failed");
            latencies.push(sent.elapsed());
        }
    }
    latencies
}

fn p99_ms(latencies: &[Duration]) -> f64 {
    let ms: Vec<f64> = latencies.iter().map(|l| l.as_secs_f64() * 1e3).collect();
    percentile(&ms, 99.0)
}

/// Boots a 2-shard router-fronted fleet; `trace_dir` turns on span
/// export for every process (plus deterministic ids).
fn boot_fleet(
    trace_dir: Option<&Path>,
) -> (
    fastvg_router::RouterHandle,
    Vec<fastvg_serve::ServiceHandle>,
    Vec<PathBuf>,
) {
    use fastvg_router::{start as start_router, RouterConfig, ShardSpec};
    use fastvg_serve::{start, ServeConfig};

    let mut files = Vec::new();
    let daemons: Vec<fastvg_serve::ServiceHandle> = (0..2)
        .map(|i| {
            let mut config = ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..ServeConfig::default()
            };
            if let Some(dir) = trace_dir {
                let path = dir.join(format!("trace_shard{i}.jsonl"));
                config.trace_out = Some(path.clone());
                config.trace_seed = Some(0x5eed + i as u64);
                files.push(path);
            }
            start(config).expect("boot study daemon")
        })
        .collect();
    let mut config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: daemons
            .iter()
            .map(|d| ShardSpec::new(d.addr().to_string()))
            .collect(),
        health_interval: Duration::from_millis(500),
        ..RouterConfig::default()
    };
    if let Some(dir) = trace_dir {
        let path = dir.join("trace_router.jsonl");
        config.trace_out = Some(path.clone());
        config.trace_seed = Some(0x1007e5);
        files.push(path);
    }
    let router = start_router(config).expect("boot study router");
    (router, daemons, files)
}

fn stop_fleet(router: fastvg_router::RouterHandle, daemons: Vec<fastvg_serve::ServiceHandle>) {
    router.shutdown();
    router.join();
    for daemon in daemons {
        daemon.shutdown();
        daemon.join();
    }
}

/// The study: traced cold + hot sweeps through a traced fleet, an
/// untraced hot sweep through an identical quiet fleet, then merge,
/// gate, and write the artifact.
fn study(out: &Path, budget: usize, hot_repeats: usize) {
    let mut benchmarks: Vec<usize> = (1..=12).collect();
    benchmarks.truncate(budget.max(1));

    let trace_dir = std::env::temp_dir().join(format!("fastvg-trace-{}", std::process::id()));
    std::fs::create_dir_all(&trace_dir).expect("create trace dir");

    // Traced fleet: everything exports spans, every request traced.
    let (router, daemons, mut files) = boot_fleet(Some(&trace_dir));
    let addr = router.addr().to_string();
    let client_tracer = Tracer::new("client", 0xc11e47);
    let client_file = trace_dir.join("trace_client.jsonl");
    client_tracer
        .set_file(&client_file)
        .expect("open client trace file");
    files.push(client_file);

    println!(
        "study: traced 2-shard fleet at {addr}, {} cold + {} hot requests",
        benchmarks.len(),
        benchmarks.len() * hot_repeats
    );
    let cold = sweep(&addr, &benchmarks, 1, Some(&client_tracer), "cold");
    let hot = sweep(&addr, &benchmarks, hot_repeats, Some(&client_tracer), "hot");
    client_tracer.flush();
    stop_fleet(router, daemons);

    // Untraced fleet: same topology, no export, no headers — the
    // overhead baseline.
    let (router, daemons, _) = boot_fleet(None);
    let quiet_addr = router.addr().to_string();
    let _warm = sweep(&quiet_addr, &benchmarks, 1, None, "cold");
    let untraced_hot = sweep(&quiet_addr, &benchmarks, hot_repeats, None, "hot");
    stop_fleet(router, daemons);

    let traces = load_traces(&files);
    assert!(gate(&traces), "study traces must form connected waterfalls");
    assert_eq!(
        traces.len(),
        cold.len() + hot.len(),
        "one trace per traced request"
    );

    let traced_p99 = p99_ms(&hot);
    let untraced_p99 = p99_ms(&untraced_hot);
    let delta_pct = if untraced_p99 > 0.0 {
        (traced_p99 - untraced_p99) / untraced_p99 * 100.0
    } else {
        0.0
    };
    println!(
        "study: hot p99 traced {traced_p99:.3}ms vs untraced {untraced_p99:.3}ms ({delta_pct:+.1}%)"
    );

    let doc_base = breakdown_doc(&traces);
    let mut builder = Json::object();
    for (key, value) in doc_base.as_obj().expect("breakdown doc is an object") {
        builder = builder.field(key.as_str(), value.clone());
    }
    let doc = builder
        .field("suite", "paper12")
        .field("shards", 2u32)
        .field("hot_repeats", hot_repeats)
        .field(
            "overhead",
            Json::object()
                .field("sampling", Json::num(1.0))
                .field("traced_hot_p99_ms", Json::num(traced_p99))
                .field("untraced_hot_p99_ms", Json::num(untraced_p99))
                .field("delta_pct", Json::num(delta_pct))
                .build(),
        )
        .build();
    write_artifact(out, &doc);

    let _ = std::fs::remove_dir_all(&trace_dir);
}

fn main() {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut do_gate = false;
    let mut do_study = false;
    let mut top = 3usize;
    let mut out: Option<PathBuf> = None;
    let mut budget = 12usize;
    let mut hot_repeats = 20usize;

    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next()
            .unwrap_or_else(|| panic!("{flag} expects a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => do_gate = true,
            "--study" => do_study = true,
            "--top" => top = value("--top", &mut args).parse().expect("--top expects N"),
            "--out" => out = Some(value("--out", &mut args).into()),
            "--budget" => {
                budget = value("--budget", &mut args)
                    .parse()
                    .expect("--budget expects N")
            }
            "--hot-repeats" => {
                hot_repeats = value("--hot-repeats", &mut args)
                    .parse()
                    .expect("--hot-repeats expects N")
            }
            other if other.starts_with("--") => panic!("unknown flag {other:?}"),
            file => files.push(file.into()),
        }
    }

    if do_study {
        let out = out.unwrap_or_else(|| PathBuf::from("target/artifacts"));
        study(&out, budget, hot_repeats);
        return;
    }

    assert!(
        !files.is_empty(),
        "pass span files (or --study); see the crate docs"
    );
    let traces = load_traces(&files);
    println!(
        "{} span file(s), {} trace(s), {} span(s)",
        files.len(),
        traces.len(),
        traces.values().map(Vec::len).sum::<usize>()
    );
    print_top(&traces, top);
    if let Some(out) = &out {
        write_artifact(out, &breakdown_doc(&traces));
    }
    if do_gate && !gate(&traces) {
        std::process::exit(1);
    }
}
