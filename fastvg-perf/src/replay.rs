//! The traced run's single-thread, in-process replay of the window.
//!
//! Each request goes through the same public calls the fleet makes for
//! it, one timed span per call: request parse, cache get, scenario
//! generation, backend open, `extract_with` (with one child per
//! reported extraction stage), serialization, cache insert and the
//! client's response parse. A hot request stops after the cache get.
//! Allocation calls are counted per layer with the counting allocator.

use crate::alloc::allocs;
use crate::score::{read, Answer};
use crate::spans::SpanLog;
use crate::workload::Stream;
use fastvg_core::api::{extract_with, Extractor};
use fastvg_core::baseline::HoughBaseline;
use fastvg_core::extraction::FastExtractor;
use fastvg_core::report::Method;
use fastvg_core::ErrorCategory;
use fastvg_serve::cache::CachedResult;
use fastvg_serve::queue::{failure_body, result_body};
use fastvg_serve::{CacheConfig, ExtractParser, Request, ResultCache, Scenario};
use fastvg_wire::Json;
use qd_instrument::{MeasurementSession, SourceScenario};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every extraction stage, fast then Hough, in report order.
pub const STAGES: [&str; 9] = [
    "anchors",
    "row-sweep",
    "column-sweep",
    "postprocess",
    "fit",
    "verify",
    "acquire",
    "vision",
    "refine",
];

/// Per-layer totals over the replayed requests (times in µs).
#[derive(Debug, Default)]
pub struct Replay {
    /// `ExtractParser::parse`.
    pub parse_us: f64,
    /// `ResultCache::get`.
    pub cache_get_us: f64,
    /// `ResultCache::insert`, and how many inserts.
    pub cache_insert_us: f64,
    /// Inserts timed.
    pub cache_inserts: usize,
    /// `qd_dataset::generate`.
    pub generate_us: f64,
    /// `SourceBackend::open`.
    pub open_us: f64,
    /// `extract_with`.
    pub extract_us: f64,
    /// `queue::result_body` / `failure_body`.
    pub serialize_us: f64,
    /// `Json::parse` of the response.
    pub response_parse_us: f64,
    /// Per replayed request: the sum of the calls above except the
    /// response parse — the compute a shard does for it.
    pub compute_us: Vec<f64>,
    /// Stage name -> (µs, probes), from `ExtractionReport::stages`.
    pub stages: BTreeMap<&'static str, (f64, u64)>,
    /// Session probes, distinct pixels and coverage (failures included).
    pub probes: u64,
    /// Distinct pixels probed.
    pub unique_pixels: u64,
    /// Summed coverage.
    pub coverage: f64,
    /// Response bytes.
    pub response_bytes: u64,
    /// Allocation calls in generation.
    pub allocs_dataset: u64,
    /// Allocation calls in open + extraction.
    pub allocs_core: u64,
    /// Allocation calls in serialization and response parse.
    pub allocs_wire: u64,
    /// Extraction failures the verify stage raised.
    pub verify_rejects: usize,
    /// The replay's own answers, scored like the fleet's.
    pub answers: Vec<Answer>,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f`, returning its value, wall time and allocation calls.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration, u64) {
    let before = allocs();
    let started = Instant::now();
    let value = f();
    let elapsed = started.elapsed();
    (value, elapsed, allocs() - before)
}

/// One traced request: the root span plus its children.
struct Trace<'a> {
    log: &'a SpanLog,
    trace: u64,
    root: u64,
}

impl Trace<'_> {
    fn child(
        &self,
        name: &str,
        start_us: u64,
        dur: Duration,
        attrs: Vec<(&'static str, String)>,
    ) -> u64 {
        let id = self.log.next_id();
        self.log.record(
            self.trace,
            id,
            Some(self.root),
            "replay",
            name,
            start_us,
            dur,
            attrs,
        );
        id
    }
}

/// Replays the stream's window. `warm` holds the fleet's warm-up bytes
/// per key for the hot workload; they are inserted into
/// the replay's own cache first, so hot requests hit as they do in the
/// fleet.
///
/// # Errors
///
/// Returns a message when a request the fleet accepted does not parse,
/// or a hot request misses.
pub fn replay(stream: &Stream, warm: Option<&[Vec<u8>]>, log: &SpanLog) -> Result<Replay, String> {
    let parser = ExtractParser::new("sim").map_err(|e| e.to_string())?;
    let cache = ResultCache::new(CacheConfig::default());
    let fast = FastExtractor::new();
    let hough = HoughBaseline::new();
    let mut out = Replay::default();
    let request = |body: &str| Request {
        method: "POST".into(),
        path: "/extract".into(),
        query: "wait".into(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        read_us: 0,
    };

    if let Some(warm) = warm {
        for (item, bytes) in stream.keys().iter().zip(warm) {
            let (job, _) = parser
                .parse(&request(&item.body))
                .map_err(|e| e.message.clone())?;
            let result = CachedResult {
                body: bytes.clone(),
                ok: read(bytes, item.method)?.alphas.is_some(),
            };
            let ((), took, _) = measure(|| cache.insert(job.fingerprint, &job.canonical, result));
            out.cache_insert_us += micros(took);
            out.cache_inserts += 1;
        }
    }

    for (index, item) in stream.window().iter().enumerate() {
        let trace = Trace {
            log,
            trace: log.next_id(),
            root: log.next_id(),
        };
        let root_start = fastvg_obs::unix_us();
        let root_started = Instant::now();
        let mut compute = 0.0;

        let start = fastvg_obs::unix_us();
        let http_request = request(&item.body);
        let (parsed, took, _) = measure(|| parser.parse(&http_request));
        let (job, _) = parsed.map_err(|e| format!("request {index}: {}", e.message))?;
        trace.child("parse", start, took, Vec::new());
        out.parse_us += micros(took);
        compute += micros(took);

        let start = fastvg_obs::unix_us();
        let (cached, took, _) = measure(|| cache.get(job.fingerprint, &job.canonical));
        trace.child(
            "cache_get",
            start,
            took,
            vec![("hit", cached.is_some().to_string())],
        );
        out.cache_get_us += micros(took);
        compute += micros(took);

        let body = match (cached, warm.is_some()) {
            (Some(hit), true) => hit.body,
            (None, true) => return Err(format!("request {index}: hot key missed the cache")),
            (Some(_), false) => return Err(format!("request {index}: cold key was cached")),
            (None, false) => {
                let Scenario::Spec(spec) = &job.scenario else {
                    return Err(format!("request {index}: not a spec scenario"));
                };
                let start = fastvg_obs::unix_us();
                let (generated, took, n) = measure(|| qd_dataset::generate(spec));
                let csd = generated.map_err(|e| format!("request {index}: {e}"))?.csd;
                trace.child("generate", start, took, Vec::new());
                out.generate_us += micros(took);
                out.allocs_dataset += n;
                compute += micros(took);

                let scenario = SourceScenario::new(csd)
                    .with_label(format!("replay{index}"))
                    .with_seed(spec.seed);
                let start = fastvg_obs::unix_us();
                let (source, took, n_open) = measure(|| job.backend.open(scenario));
                let source = source.map_err(|e| format!("request {index}: {e}"))?;
                trace.child("open", start, took, vec![("backend", item.backend.clone())]);
                out.open_us += micros(took);
                compute += micros(took);

                let extractor: &dyn Extractor = match job.method {
                    Method::HoughBaseline => &hough,
                    _ => &fast,
                };
                let mut session = MeasurementSession::new(source);
                let extract_start = fastvg_obs::unix_us();
                let (outcome, took, n_extract) = measure(|| extract_with(extractor, &mut session));
                let extract_id = trace.child(
                    "extract",
                    extract_start,
                    took,
                    vec![("method", job.method.wire_name().to_string())],
                );
                out.extract_us += micros(took);
                out.allocs_core += n_open + n_extract;
                compute += micros(took);
                out.probes += session.probe_count() as u64;
                out.unique_pixels += session.unique_pixels() as u64;
                out.coverage += session.coverage();

                match &outcome {
                    Ok(report) => {
                        let mut cursor = extract_start;
                        for timing in &report.stages {
                            let name = timing.stage.name();
                            let entry = out.stages.entry(name).or_default();
                            entry.0 += micros(timing.elapsed);
                            entry.1 += timing.probes as u64;
                            log.record(
                                trace.trace,
                                log.next_id(),
                                Some(extract_id),
                                "replay",
                                name,
                                cursor,
                                timing.elapsed,
                                vec![("probes", timing.probes.to_string())],
                            );
                            cursor += timing.elapsed.as_micros() as u64;
                        }
                    }
                    Err(error) if error.category() == ErrorCategory::Verify => {
                        out.verify_rejects += 1;
                    }
                    Err(_) => {}
                }

                let start = fastvg_obs::unix_us();
                let (body, took, n) = measure(|| match &outcome {
                    Ok(report) => result_body(report),
                    Err(error) => failure_body(error),
                });
                trace.child("serialize", start, took, Vec::new());
                out.serialize_us += micros(took);
                out.allocs_wire += n;
                compute += micros(took);

                let result = CachedResult {
                    body: body.clone(),
                    ok: outcome.is_ok(),
                };
                let start = fastvg_obs::unix_us();
                let ((), took, _) =
                    measure(|| cache.insert(job.fingerprint, &job.canonical, result));
                trace.child("cache_insert", start, took, Vec::new());
                out.cache_insert_us += micros(took);
                out.cache_inserts += 1;
                compute += micros(took);
                body
            }
        };

        let start = fastvg_obs::unix_us();
        let (doc, took, n) = measure(|| {
            std::str::from_utf8(&body)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    Json::parse(text.trim_end_matches('\n')).map_err(|e| e.to_string())
                })
        });
        doc.map_err(|e| format!("request {index}: response does not parse: {e}"))?;
        trace.child("response_parse", start, took, Vec::new());
        out.response_parse_us += micros(took);
        out.allocs_wire += n;
        out.response_bytes += body.len() as u64;

        log.record(
            trace.trace,
            trace.root,
            None,
            "replay",
            "request",
            root_start,
            root_started.elapsed(),
            vec![("index", index.to_string())],
        );
        out.compute_us.push(compute);
        out.answers.push(read(&body, item.method)?);
    }
    Ok(out)
}

/// Nanoseconds per `DoubleDotDevice::current` call over a fixed 16x16
/// pixel lattice of the first (up to) 16 distinct scenarios in the
/// stream's window.
///
/// # Errors
///
/// Returns a message when a device or its window cannot be built.
pub fn current_ns(stream: &Stream) -> Result<f64, String> {
    let mut specs: Vec<&qd_dataset::BenchmarkSpec> = Vec::new();
    for item in stream.window() {
        if specs.len() == 16 {
            break;
        }
        if !specs.contains(&&item.spec) {
            specs.push(&item.spec);
        }
    }
    let mut calls = 0u64;
    let mut elapsed = Duration::ZERO;
    for spec in specs {
        let device = qd_dataset::generator::build_device(spec).map_err(|e| e.to_string())?;
        let grid = qd_dataset::generator::window_for(spec, &device).map_err(|e| e.to_string())?;
        let lattice: Vec<(f64, f64)> = (0..16)
            .flat_map(|j| (0..16).map(move |i| (i, j)))
            .map(|(i, j)| {
                grid.voltage_of(i * (grid.width() - 1) / 15, j * (grid.height() - 1) / 15)
            })
            .collect();
        let started = Instant::now();
        for &(v1, v2) in &lattice {
            std::hint::black_box(device.current(&[v1, v2]).map_err(|e| e.to_string())?);
        }
        elapsed += started.elapsed();
        calls += lattice.len() as u64;
    }
    Ok(elapsed.as_secs_f64() * 1e9 / calls.max(1) as f64)
}
