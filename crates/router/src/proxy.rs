//! The proxy service: the [`Handler`] behind the router's listener, its
//! worker pool, and the fleet-level metrics.
//!
//! The reactor thread never does upstream I/O. Every proxied request is
//! pushed onto a bounded work queue and answered through the deferred
//! [`Completer`] by one of the worker threads, with the reactor's timer
//! wheel firing a `503` fallback if a worker wedges past the deadline —
//! the same never-block-the-reactor contract `fastvg-serve` itself
//! follows for `?wait` extractions.
//!
//! # Where peering lives, and why it is router-driven
//!
//! On a local cache miss the *router* — not the daemon — asks sibling
//! shards for the entry (`GET /cache/<fp>`), seeds the owner
//! (`PUT /cache/<fp>`), and relays the sibling's bytes with
//! `x-fastvg-cache: peer`. The alternative (daemons gossiping among
//! themselves) was rejected deliberately: daemons would need the fleet
//! topology pushed into every process and kept in sync, each would grow
//! its own sibling health view (an N² probe mesh), and a daemon blocked
//! on a slow sibling would burn an extraction worker. Router-driven
//! peering keeps daemons entirely fleet-unaware — a shard is just a
//! stock `fastvg-serve` — and puts the policy next to the ring, which
//! already knows who owns what and who is healthy. The price is one
//! extra hop on the miss path, paid only when peering can still win
//! (before extraction, never after).

use crate::health::FleetHealth;
use crate::ring::HashRing;
use crate::RouterConfig;
use fastvg_obs::{ActiveSpan, Tracer};
use fastvg_serve::http::{deferred, Completer, Handler, Outcome, Request, Response, ServerStats};
use fastvg_serve::metrics::{family, render_build_info, Counter, Gauge, Histogram};
use fastvg_serve::queue::reserved_failure_body;
use fastvg_serve::{Client, ClientConfig, ClientResponse, ExtractParser, RequestError};
use fastvg_wire::{Json, TraceContext, TRACE_HEADER};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Maximum shards a router may front: global job ids reserve the low
/// byte for the shard index (`gid = local << 8 | shard`).
pub const MAX_SHARDS: usize = 256;

/// Fleet-level telemetry, rendered at `GET /metrics` alongside the
/// aggregated per-shard health.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Proxied `/extract` requests.
    pub requests_extract: Counter,
    /// Proxied `/jobs/<id>` polls.
    pub requests_jobs: Counter,
    /// `GET /healthz` hits (answered locally).
    pub requests_healthz: Counter,
    /// `GET /metrics` hits (answered locally).
    pub requests_metrics: Counter,
    /// Responses relayed with `x-fastvg-cache: hit` (owner cache).
    pub routed_hits: Counter,
    /// Responses relayed with `x-fastvg-cache: miss` (owner computed).
    pub routed_misses: Counter,
    /// Responses relayed with `x-fastvg-cache: peer` (sibling cache).
    pub peer_hits: Counter,
    /// Peer sweeps that found the entry on no sibling.
    pub peer_misses: Counter,
    /// Successful `PUT /cache` seeds planted on owners.
    pub peer_seeds: Counter,
    /// Requests retried on a different shard after a transport failure.
    pub upstream_retries: Counter,
    /// Requests answered `503` because every shard was ejected.
    pub fleet_unavailable: Counter,
    /// Router-origin 4xx responses (validation, bad job ids).
    pub http_4xx: Counter,
    /// Router-origin 5xx responses (unavailable fleet, worker overflow).
    pub http_5xx: Counter,
    /// Depth of the proxy work queue.
    pub queue_depth: Gauge,
    /// End-to-end proxy latency (enqueue → relay).
    pub proxy_latency: Histogram,
}

impl RouterMetrics {
    /// Prometheus-style rendering, same conventions as the daemon's
    /// `Metrics::render` (counters suffixed `_total`, labels for
    /// enumerable outcomes, one `# HELP`/`# TYPE` preamble per family).
    pub fn render(&self) -> String {
        let mut out = String::new();
        family(
            &mut out,
            "fastvg_router_requests_total",
            "counter",
            "Requests accepted by the router, by route.",
        );
        for (route, count) in [
            ("extract", self.requests_extract.get()),
            ("jobs", self.requests_jobs.get()),
            ("healthz", self.requests_healthz.get()),
            ("metrics", self.requests_metrics.get()),
        ] {
            out.push_str(&format!(
                "fastvg_router_requests_total{{route=\"{route}\"}} {count}\n"
            ));
        }
        family(
            &mut out,
            "fastvg_router_routed_total",
            "counter",
            "Responses relayed to clients, by cache disposition.",
        );
        for (outcome, count) in [
            ("hit", self.routed_hits.get()),
            ("miss", self.routed_misses.get()),
            ("peer", self.peer_hits.get()),
        ] {
            out.push_str(&format!(
                "fastvg_router_routed_total{{cache=\"{outcome}\"}} {count}\n"
            ));
        }
        family(
            &mut out,
            "fastvg_router_peer_requests_total",
            "counter",
            "Cache-peering sweeps, by outcome.",
        );
        out.push_str(&format!(
            "fastvg_router_peer_requests_total{{outcome=\"peer_hit\"}} {}\n",
            self.peer_hits.get()
        ));
        out.push_str(&format!(
            "fastvg_router_peer_requests_total{{outcome=\"peer_miss\"}} {}\n",
            self.peer_misses.get()
        ));
        family(
            &mut out,
            "fastvg_router_peer_seeds_total",
            "counter",
            "Successful PUT /cache seeds planted on owner shards.",
        );
        out.push_str(&format!(
            "fastvg_router_peer_seeds_total {}\n",
            self.peer_seeds.get()
        ));
        family(
            &mut out,
            "fastvg_router_upstream_retries_total",
            "counter",
            "Requests retried on another shard after a transport failure.",
        );
        out.push_str(&format!(
            "fastvg_router_upstream_retries_total {}\n",
            self.upstream_retries.get()
        ));
        family(
            &mut out,
            "fastvg_router_fleet_unavailable_total",
            "counter",
            "Requests answered 503 because every shard was out.",
        );
        out.push_str(&format!(
            "fastvg_router_fleet_unavailable_total {}\n",
            self.fleet_unavailable.get()
        ));
        family(
            &mut out,
            "fastvg_router_http_responses_total",
            "counter",
            "Router-origin error responses, by status class.",
        );
        out.push_str(&format!(
            "fastvg_router_http_responses_total{{class=\"4xx\"}} {}\n",
            self.http_4xx.get()
        ));
        out.push_str(&format!(
            "fastvg_router_http_responses_total{{class=\"5xx\"}} {}\n",
            self.http_5xx.get()
        ));
        family(
            &mut out,
            "fastvg_router_queue_depth",
            "gauge",
            "Depth of the proxy work queue.",
        );
        out.push_str(&format!(
            "fastvg_router_queue_depth {}\n",
            self.queue_depth.get()
        ));
        family(
            &mut out,
            "fastvg_router_proxy_latency_seconds",
            "histogram",
            "End-to-end proxy latency, enqueue to relay.",
        );
        self.proxy_latency
            .render("fastvg_router_proxy_latency_seconds", "", &mut out);
        out
    }
}

/// Per-shard cache-peering counters, indexed like
/// `RouterService::shards` and rendered with a `shard="<addr>"` label.
#[derive(Debug, Default)]
struct PeerShardCounters {
    /// Peer hits relayed *from* this shard's cache.
    hits: Counter,
    /// Seeds planted *on* this shard as the key's owner.
    seeds: Counter,
    /// Sweeps for keys this shard owns that found no sibling entry.
    sweep_misses: Counter,
}

/// One parked request: what came in, where to answer, and when it
/// entered the queue (for the latency histogram).
struct ProxyJob {
    request: Request,
    completer: Completer,
    enqueued: Instant,
}

/// The bounded hand-off between the reactor and the proxy workers.
#[derive(Default)]
struct WorkQueue {
    jobs: Mutex<VecDeque<ProxyJob>>,
    available: Condvar,
    stopped: Mutex<bool>,
}

impl WorkQueue {
    /// Enqueues unless the queue is at `capacity`; full means the fleet
    /// is slower than the offered load — the job (and its completer) is
    /// dropped and the caller answers `503` inline.
    fn push(&self, job: ProxyJob, capacity: usize) -> Option<usize> {
        let mut jobs = self.jobs.lock().expect("work queue poisoned");
        if jobs.len() >= capacity {
            return None;
        }
        jobs.push_back(job);
        let depth = jobs.len();
        drop(jobs);
        self.available.notify_one();
        Some(depth)
    }

    /// Blocks until a job arrives or the queue is stopped.
    fn pop(&self) -> Option<ProxyJob> {
        let mut jobs = self.jobs.lock().expect("work queue poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if *self.stopped.lock().expect("stop flag poisoned") {
                return None;
            }
            jobs = self.available.wait(jobs).expect("work queue poisoned");
        }
    }

    fn stop(&self) {
        *self.stopped.lock().expect("stop flag poisoned") = true;
        self.available.notify_all();
    }
}

/// The router's request handler plus everything the workers need.
pub struct RouterService {
    parser: ExtractParser,
    ring: HashRing,
    health: Arc<FleetHealth>,
    shards: Vec<String>,
    peering: bool,
    retries: usize,
    queue_capacity: usize,
    proxy_deadline: Duration,
    client: ClientConfig,
    metrics: RouterMetrics,
    peer_shards: Vec<PeerShardCounters>,
    tracer: Arc<Tracer>,
    queue: Arc<WorkQueue>,
    started: Instant,
    pub(crate) server_stats: OnceLock<Arc<ServerStats>>,
    pub(crate) shutdown: OnceLock<fastvg_serve::ShutdownHandle>,
}

impl std::fmt::Debug for RouterService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterService").finish_non_exhaustive()
    }
}

/// The global job id visible to clients: the shard's local id shifted
/// over the shard index, so `GET /jobs/<gid>` routes back to the daemon
/// that owns the job without any router-side job table.
fn encode_job(local: u64, shard: usize) -> u64 {
    (local << 8) | shard as u64
}

/// Splits a global job id back into `(local, shard)`.
fn decode_job(gid: u64) -> (u64, usize) {
    (gid >> 8, (gid & 0xff) as usize)
}

/// The daemon's own error document, so router-origin errors are
/// indistinguishable from daemon-origin ones on the wire.
fn error_doc(status: u16, message: &str) -> Response {
    Response::json(status, reserved_failure_body("request", message))
}

impl RouterService {
    /// Builds the service (no sockets, no threads — [`crate::start`]
    /// wires those).
    pub(crate) fn new(
        config: &RouterConfig,
        ring: HashRing,
        health: Arc<FleetHealth>,
    ) -> Result<Self, fastvg_serve::ServeError> {
        let tracer = Tracer::new(
            "router",
            config
                .trace_seed
                .unwrap_or_else(|| fastvg_obs::IdGen::from_entropy().next_id()),
        );
        if let Some(path) = &config.trace_out {
            tracer.set_file(path)?;
        }
        Ok(Self {
            parser: ExtractParser::new(&config.backend)?,
            ring,
            health,
            shards: config.shards.iter().map(|s| s.addr.clone()).collect(),
            peering: config.peering,
            retries: config.retries,
            queue_capacity: config.queue_capacity,
            proxy_deadline: config.proxy_deadline,
            client: ClientConfig::new()
                .connect_timeout(config.connect_timeout)
                .read_timeout(config.proxy_deadline),
            metrics: RouterMetrics::default(),
            peer_shards: config
                .shards
                .iter()
                .map(|_| PeerShardCounters::default())
                .collect(),
            tracer,
            queue: Arc::new(WorkQueue::default()),
            started: Instant::now(),
            server_stats: OnceLock::new(),
            shutdown: OnceLock::new(),
        })
    }

    /// The fleet telemetry.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// The router's span tracer (layer `router`).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The per-shard health view.
    pub fn health(&self) -> &FleetHealth {
        &self.health
    }

    fn error_response(&self, status: u16, message: &str) -> Response {
        if status >= 500 {
            self.metrics.http_5xx.inc();
        } else {
            self.metrics.http_4xx.inc();
        }
        error_doc(status, message)
    }

    /// `503` with the health layer's reinstatement hint when no shard
    /// can take traffic.
    fn unavailable(&self) -> Response {
        self.metrics.fleet_unavailable.inc();
        self.error_response(503, "no healthy shard available")
            .with_header(
                "retry-after",
                self.health.retry_after_hint().as_secs().max(1).to_string(),
            )
    }

    /// One worker iteration. Public to the crate so [`crate::start`]'s
    /// worker threads can drive it; loops until the queue stops.
    pub(crate) fn work(&self) {
        while let Some(job) = self.queue.pop() {
            let response = self.process(&job.request, job.enqueued);
            self.metrics.proxy_latency.observe(job.enqueued.elapsed());
            self.metrics.queue_depth.set(
                self.queue
                    .jobs
                    .lock()
                    .map(|jobs| jobs.len() as u64)
                    .unwrap_or(0),
            );
            job.completer.complete(response);
        }
    }

    pub(crate) fn stop_workers(&self) {
        self.queue.stop();
    }

    /// Routes one dequeued request on a worker thread.
    fn process(&self, request: &Request, enqueued: Instant) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/extract") => self.proxy_extract(request, enqueued),
            (_, path) => match path.strip_prefix("/jobs/") {
                Some(id) => self.proxy_job(id),
                None => self.error_response(404, "no such route"),
            },
        }
    }

    /// Starts the router-hop `request` span under
    /// [`Tracer::request_span`]'s rule. The span is backdated past the
    /// worker-queue wait (and the socket read, which the reactor measured
    /// into [`Request::read_us`]), and the queue wait gets its own child
    /// so waterfalls show reactor → worker hand-off.
    fn request_span(&self, request: &Request, enqueued: Instant) -> Option<ActiveSpan> {
        let mut span = self.tracer.request_span(request.trace_parent())?;
        span.backdate(enqueued - Duration::from_micros(request.read_us));
        span.child_ending_now("queue_wait", enqueued.elapsed(), Vec::new());
        Some(span)
    }

    /// The `/extract` path: the span wrapper around
    /// [`RouterService::route_extract`], which does the actual routing.
    fn proxy_extract(&self, request: &Request, enqueued: Instant) -> Response {
        let mut span = self.request_span(request, enqueued);
        let (response, outcome) = self.route_extract(request, span.as_ref());
        if let Some(span) = &mut span {
            span.attr("outcome", outcome);
        }
        response
    }

    /// Validate exactly like a daemon, place on the ring, peer-read
    /// caches for `?wait` requests, proxy with bounded retries across
    /// healthy shards. Returns the response plus the outcome tag the
    /// request span records.
    fn route_extract(
        &self,
        request: &Request,
        span: Option<&ActiveSpan>,
    ) -> (Response, &'static str) {
        let (job, wait) = match self.parser.parse(request) {
            Ok(parsed) => parsed,
            Err(RequestError { status, message }) => {
                return (self.error_response(status, &message), "rejected")
            }
        };
        // Every distinct shard in ring order from the owner; the retry
        // budget caps how far the walk may fall back.
        let candidates: Vec<(usize, &str)> = self
            .ring
            .candidates(job.fingerprint, self.retries + 1)
            .into_iter()
            .filter_map(|member| {
                self.shard_index(&member.label)
                    .map(|index| (index, member.label.as_str()))
            })
            .filter(|(_, addr)| self.health.is_healthy(addr))
            .collect();
        let Some(&(owner_index, owner)) = candidates.first() else {
            return (self.unavailable(), "unavailable");
        };

        if wait && self.peering {
            // Owner first: its own cache answers without extraction.
            let probe_started = Instant::now();
            let probed = self.cache_probe(owner, &job.canonical, job.fingerprint);
            if let Some(span) = span {
                span.child_ending_now(
                    "peer_probe",
                    probe_started.elapsed(),
                    vec![
                        ("shard", owner.to_string()),
                        ("hit", probed.is_some().to_string()),
                    ],
                );
            }
            if let Some(response) = probed {
                self.metrics.routed_hits.inc();
                return (self.relay(response, owner_index, None), "cache_hit");
            }
            // Sibling sweep, warmest-first is unknowable so config order:
            // every healthy shard, not just the retry candidates —
            // peering is a read, it costs nothing to ask.
            let mut found = None;
            for (index, addr) in self.healthy_shards() {
                if addr == owner {
                    continue;
                }
                let probe_started = Instant::now();
                let probed = self.cache_probe(&addr, &job.canonical, job.fingerprint);
                if let Some(span) = span {
                    span.child_ending_now(
                        "peer_probe",
                        probe_started.elapsed(),
                        vec![
                            ("shard", addr.clone()),
                            ("hit", probed.is_some().to_string()),
                        ],
                    );
                }
                if let Some(response) = probed {
                    found = Some((index, addr, response));
                    break;
                }
            }
            match found {
                Some((index, addr, response)) => {
                    self.metrics.peer_hits.inc();
                    self.peer_shards[index].hits.inc();
                    let seed_started = Instant::now();
                    let seeded = self.seed_owner(owner, job.fingerprint, &job.canonical, &response);
                    if seeded {
                        self.peer_shards[owner_index].seeds.inc();
                    }
                    if let Some(span) = span {
                        span.child_ending_now(
                            "peer_seed",
                            seed_started.elapsed(),
                            vec![
                                ("shard", owner.to_string()),
                                ("from", addr),
                                ("ok", seeded.to_string()),
                            ],
                        );
                    }
                    return (self.relay(response, index, Some("peer")), "peer_hit");
                }
                None => {
                    self.metrics.peer_misses.inc();
                    self.peer_shards[owner_index].sweep_misses.inc();
                }
            }
        }

        // Extraction (or a non-wait submit): owner, then fall back
        // through the remaining candidates on transport failure only —
        // an HTTP error status is a daemon *answer* and is relayed.
        let mut target = format!("/{}", request.path.trim_start_matches('/'));
        if !request.query.is_empty() {
            target.push('?');
            target.push_str(&request.query);
        }
        for (attempt, &(index, addr)) in candidates.iter().enumerate() {
            if attempt > 0 {
                self.metrics.upstream_retries.inc();
            }
            // One span per attempt (retries included); the daemon
            // parents its own spans under *this* id, so the hop nests
            // inside the attempt that actually reached it.
            let mut attempt_span = span.map(|parent| {
                let mut s = self.tracer.child(parent.context(), "proxy_attempt");
                s.attr("shard", addr);
                s.attr("attempt", attempt.to_string());
                s
            });
            let forwarded = attempt_span.as_ref().map(|s| {
                let ctx = s.context();
                TraceContext {
                    trace: ctx.trace.0,
                    span: ctx.span.0,
                }
                .encode()
            });
            let sent = self
                .client
                .connect(addr)
                .and_then(|mut client| match &forwarded {
                    Some(value) => client.send_with_headers(
                        "POST",
                        &target,
                        &request.body,
                        &[(TRACE_HEADER, value)],
                    ),
                    None => client.post(&target, &request.body),
                });
            match sent {
                Ok(response) => {
                    if let Some(s) = &mut attempt_span {
                        s.attr("ok", "true");
                    }
                    self.health.report_success(addr);
                    match response.header("x-fastvg-cache") {
                        Some("hit") => self.metrics.routed_hits.inc(),
                        _ => self.metrics.routed_misses.inc(),
                    }
                    return (self.relay(response, index, None), "relayed");
                }
                Err(_) => {
                    if let Some(s) = &mut attempt_span {
                        s.attr("ok", "false");
                    }
                    self.health.report_failure(addr);
                }
            }
        }
        (self.unavailable(), "unavailable")
    }

    /// `GET /jobs/<gid>`: decode the shard from the global id and poll
    /// the daemon that owns the job. Job state is shard-local, so there
    /// is no alternate shard to retry on.
    fn proxy_job(&self, gid_text: &str) -> Response {
        let Ok(gid) = gid_text.parse::<u64>() else {
            return self.error_response(400, "job id must be an integer");
        };
        let (local, shard) = decode_job(gid);
        let Some(addr) = self.shards.get(shard).cloned() else {
            return self.error_response(404, "unknown job id");
        };
        let sent = self
            .client
            .connect(&addr)
            .and_then(|mut client| client.get(&format!("/jobs/{local}")));
        match sent {
            Ok(response) => {
                self.health.report_success(&addr);
                self.relay(response, shard, None)
            }
            Err(_) => {
                self.health.report_failure(&addr);
                self.unavailable()
            }
        }
    }

    /// `GET /cache/<fp>` against one shard with the canonical key as the
    /// body (the collision-checked form). `Some` only on a definite hit.
    fn cache_probe(&self, addr: &str, canonical: &str, fp: u64) -> Option<ClientResponse> {
        let mut client = match self.client.connect(addr) {
            Ok(client) => client,
            Err(_) => {
                self.health.report_failure(addr);
                return None;
            }
        };
        match client.send("GET", &format!("/cache/{fp}"), canonical.as_bytes()) {
            Ok(response) if response.status == 200 => {
                self.health.report_success(addr);
                Some(response)
            }
            Ok(_) => {
                self.health.report_success(addr);
                None
            }
            Err(_) => {
                self.health.report_failure(addr);
                None
            }
        }
    }

    /// Best-effort `PUT /cache/<fp>` planting a sibling's entry on the
    /// owner so the next request for this key hits locally. Failures are
    /// ignored: the client still gets its answer either way. Returns
    /// whether the seed landed (per-shard counters key off it).
    fn seed_owner(&self, owner: &str, fp: u64, canonical: &str, from: &ClientResponse) -> bool {
        let Ok(body) = std::str::from_utf8(&from.body) else {
            return false;
        };
        let seed = Json::object()
            .field("key", canonical)
            .field("ok", from.header("x-fastvg-status") == Some("done"))
            .field("body", body)
            .build()
            .dump();
        let seeded = self
            .client
            .connect(owner)
            .and_then(|mut client| client.put(&format!("/cache/{fp}"), seed.as_bytes()));
        let landed = matches!(seeded, Ok(response) if response.status == 200);
        if landed {
            self.metrics.peer_seeds.inc();
        }
        landed
    }

    /// Turns an upstream response into the client-facing one: global job
    /// ids in the header *and* in `202 {"job": …}` bodies, and an
    /// optional `x-fastvg-cache` override for peered answers. Everything
    /// else is relayed byte-for-byte — cache hits stay byte-identical
    /// through the router.
    fn relay(&self, upstream: ClientResponse, shard: usize, cache: Option<&str>) -> Response {
        let mut body = upstream.body.clone();
        let job_gid = upstream
            .header("x-fastvg-job")
            .and_then(|v| v.parse::<u64>().ok())
            .map(|local| encode_job(local, shard));
        if let Some(gid) = job_gid {
            // `202`/poll bodies carry the id as a "job" member; finished
            // bodies are the result document and carry no id, which is
            // what keeps them byte-identical across shards.
            if let Ok(doc) = Json::parse(String::from_utf8_lossy(&upstream.body).trim_end()) {
                if doc.get("job").is_some() {
                    if let Some(rewritten) = rewrite_job_field(&doc, gid) {
                        body = rewritten.into_bytes();
                    }
                }
            }
        }
        let mut response = Response::json(upstream.status, body);
        for (name, value) in &upstream.headers {
            let name = name.as_str();
            if name == "x-fastvg-job" || !name.starts_with("x-fastvg-") {
                continue;
            }
            if name == "x-fastvg-cache" {
                if let Some(cache) = cache {
                    response = response.with_header("x-fastvg-cache", cache);
                    continue;
                }
            }
            response = response.with_header(name.to_string(), value.clone());
        }
        if let Some(gid) = job_gid {
            response = response.with_header("x-fastvg-job", gid.to_string());
        }
        response
    }

    fn shard_index(&self, addr: &str) -> Option<usize> {
        self.shards.iter().position(|s| s == addr)
    }

    fn healthy_shards(&self) -> Vec<(usize, String)> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, addr)| self.health.is_healthy(addr))
            .map(|(i, addr)| (i, addr.clone()))
            .collect()
    }

    /// The aggregate `/healthz`: the router's own build info in the same
    /// shape the daemon reports (so `fastvg-loadgen` accepts it
    /// unmodified) plus the per-shard fleet state. Status is `200` while
    /// at least one shard takes traffic, `503` otherwise.
    fn handle_healthz(&self) -> Response {
        self.metrics.requests_healthz.inc();
        let reports = self.health.reports();
        let healthy = reports.iter().filter(|r| r.healthy).count();
        let connections = self
            .server_stats
            .get()
            .map(|stats| stats.open())
            .unwrap_or(0);
        let shards: Vec<Json> = reports
            .iter()
            .map(|r| {
                Json::object()
                    .field("addr", r.addr.as_str())
                    .field("healthy", r.healthy)
                    .field("strikes", u64::from(r.strikes))
                    .field("ejections", r.ejections)
                    .field("probe_us", r.probe_us.map(Json::from).unwrap_or(Json::Null))
                    .build()
            })
            .collect();
        let mut body = Json::object()
            .field("ok", healthy > 0)
            .field("role", "router")
            .field("version", env!("CARGO_PKG_VERSION"))
            .field("git", env!("FASTVG_GIT"))
            .field("backend", self.parser.default_backend().describe())
            .field(
                "backends",
                self.parser
                    .registry()
                    .schemes()
                    .iter()
                    .map(|s| Json::from(*s))
                    .collect::<Vec<_>>(),
            )
            .field("uptime_s", Json::num(self.started.elapsed().as_secs_f64()))
            .field("cache_peering", self.peering)
            .field("shards_total", reports.len())
            .field("shards_healthy", healthy)
            .field("shards", shards)
            .field("connections_open", connections)
            .build()
            .dump();
        body.push('\n');
        Response::json(if healthy > 0 { 200 } else { 503 }, body)
    }

    fn handle_metrics(&self) -> Response {
        self.metrics.requests_metrics.inc();
        let mut text = self.metrics.render();
        let reports = self.health.reports();
        family(
            &mut text,
            "fastvg_router_shard_healthy",
            "gauge",
            "Whether the shard currently takes traffic.",
        );
        for report in &reports {
            text.push_str(&format!(
                "fastvg_router_shard_healthy{{shard=\"{}\"}} {}\n",
                report.addr,
                u8::from(report.healthy)
            ));
        }
        family(
            &mut text,
            "fastvg_router_shard_ejections_total",
            "counter",
            "Times the shard was ejected from rotation.",
        );
        for report in &reports {
            text.push_str(&format!(
                "fastvg_router_shard_ejections_total{{shard=\"{}\"}} {}\n",
                report.addr, report.ejections
            ));
        }
        family(
            &mut text,
            "fastvg_router_peer_shard_total",
            "counter",
            "Cache-peering events by shard: hits relayed from its cache, \
             seeds planted on it as owner, sweeps for its keys that \
             missed on every sibling.",
        );
        for (addr, counters) in self.shards.iter().zip(&self.peer_shards) {
            for (event, count) in [
                ("hit", counters.hits.get()),
                ("seed", counters.seeds.get()),
                ("sweep_miss", counters.sweep_misses.get()),
            ] {
                text.push_str(&format!(
                    "fastvg_router_peer_shard_total{{shard=\"{addr}\",event=\"{event}\"}} {count}\n"
                ));
            }
        }
        family(
            &mut text,
            "fastvg_router_trace_spans_dropped_total",
            "counter",
            "Spans dropped on span-collector overflow.",
        );
        text.push_str(&format!(
            "fastvg_router_trace_spans_dropped_total {}\n",
            self.tracer.dropped()
        ));
        if let Some(stats) = self.server_stats.get() {
            family(
                &mut text,
                "fastvg_router_connections_open",
                "gauge",
                "Currently open client connections.",
            );
            text.push_str(&format!(
                "fastvg_router_connections_open {}\n",
                stats.open()
            ));
        }
        render_build_info(&mut text, env!("CARGO_PKG_VERSION"), env!("FASTVG_GIT"));
        Response::text(200, text)
    }

    /// `GET /trace/recent`: the last few hundred finished spans as
    /// newline-JSON, drained inline (no flusher required).
    fn handle_trace_recent(&self) -> Response {
        let mut text = self.tracer.recent().join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        Response::text(200, text)
    }

    fn handle_shutdown(&self) -> Response {
        self.stop_workers();
        self.health.stop();
        if let Some(handle) = self.shutdown.get() {
            handle.shutdown();
        }
        Response::json(202, "{\"ok\":true,\"status\":\"stopping\"}\n")
    }
}

/// Re-dumps a `{"job": …}` status body with the job id swapped for the
/// global one, preserving the daemon's member order and trailing
/// newline. Returns `None` if the document has an unexpected shape.
fn rewrite_job_field(doc: &Json, gid: u64) -> Option<String> {
    let obj = doc.as_obj()?;
    let mut builder = Json::object();
    for (key, value) in obj {
        builder = if key == "job" {
            builder.field("job", gid)
        } else {
            builder.field(key.as_str(), value.clone())
        };
    }
    let mut text = builder.build().dump();
    text.push('\n');
    Some(text)
}

impl Handler for RouterService {
    fn handle(&self, request: &Request) -> Outcome {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Outcome::Ready(self.handle_healthz()),
            ("GET", "/metrics") => Outcome::Ready(self.handle_metrics()),
            ("GET", "/trace/recent") => Outcome::Ready(self.handle_trace_recent()),
            ("POST", "/shutdown") => Outcome::Ready(self.handle_shutdown()),
            ("POST", "/extract") => self.defer(request, &self.metrics.requests_extract),
            (method, path) => {
                if path.starts_with("/jobs/") {
                    if method == "GET" {
                        return self.defer(request, &self.metrics.requests_jobs);
                    }
                    return Outcome::Ready(
                        self.error_response(405, &format!("{method} not allowed here")),
                    );
                }
                let known = matches!(
                    path,
                    "/extract" | "/healthz" | "/metrics" | "/trace/recent" | "/shutdown"
                );
                Outcome::Ready(if known {
                    self.error_response(405, &format!("{method} not allowed here"))
                } else {
                    self.error_response(404, "no such route")
                })
            }
        }
    }
}

impl RouterService {
    /// Parks the request on the work queue; the reactor moves on
    /// immediately and a worker completes the connection.
    fn defer(&self, request: &Request, counter: &Counter) -> Outcome {
        counter.inc();
        let (deferred, completer) = deferred();
        let job = ProxyJob {
            request: request.clone(),
            completer,
            enqueued: Instant::now(),
        };
        match self.queue.push(job, self.queue_capacity) {
            Some(depth) => {
                self.metrics.queue_depth.set(depth as u64);
                Outcome::Pending(deferred.with_fallback(
                    Instant::now() + self.proxy_deadline + Duration::from_secs(5),
                    error_doc(503, "router proxy deadline exceeded"),
                ))
            }
            None => {
                // Queue full: answer right here; drop the deferred pair.
                drop(deferred);
                Outcome::Ready(self.error_response(503, "router work queue is full"))
            }
        }
    }
}

/// Helper used by the binary and tests: `Client` reconnect loop until a
/// router/daemon at `addr` answers `/healthz` with 200, bounded by
/// `deadline`.
pub fn wait_healthy(addr: &str, deadline: Duration) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        let ok = Client::connect_with_timeout(addr, Duration::from_secs(2))
            .and_then(|mut c| c.get("/healthz"))
            .map(|r| r.status == 200)
            .unwrap_or(false);
        if ok {
            return true;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_round_trip_through_the_gid_encoding() {
        for shard in [0usize, 1, 7, 255] {
            for local in [0u64, 1, 42, 1 << 40] {
                let gid = encode_job(local, shard);
                assert_eq!(decode_job(gid), (local, shard));
            }
        }
    }

    #[test]
    fn error_docs_match_the_daemon_shape() {
        let response = error_doc(404, "no such route");
        assert_eq!(response.status, 404);
        let doc = Json::parse(String::from_utf8_lossy(&response.body).trim_end()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc.get("error").unwrap();
        assert_eq!(
            error.get("category").and_then(Json::as_str),
            Some("request")
        );
        assert_eq!(
            error.get("message").and_then(Json::as_str),
            Some("no such route")
        );
    }

    #[test]
    fn job_field_rewrite_preserves_everything_else() {
        let doc = Json::parse(r#"{"job": 7, "status": "queued", "cache": false}"#).unwrap();
        let rewritten = rewrite_job_field(&doc, encode_job(7, 3)).unwrap();
        let back = Json::parse(rewritten.trim_end()).unwrap();
        assert_eq!(back.get("job").and_then(Json::as_u64), Some((7 << 8) | 3));
        assert_eq!(back.get("status").and_then(Json::as_str), Some("queued"));
        assert_eq!(back.get("cache").and_then(Json::as_bool), Some(false));
        assert!(rewritten.ends_with('\n'));
    }
}
