//! The closed loop: two keep-alive `Client` connections, each sending
//! its next request only after the previous answer arrived, the way
//! tuning scripts, `RemoteExtractor` and the router itself call.

use crate::score;
use crate::spans::SpanLog;
use crate::workload::Stream;
use fastvg_serve::{ClientConfig, ClientResponse};
use fastvg_wire::{mix64, TraceContext, TRACE_HEADER};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Concurrent connections (one per core of the reference runner).
pub const CONNECTIONS: usize = 2;

/// The extraction route every request is sent to.
pub const ROUTE: &str = "/extract?wait";

/// Latency samples each connection keeps: a uniform reservoir over its
/// requests, allocated before the timed phase, so the client's memory
/// does not grow with throughput.
pub const RESERVOIR: usize = 1 << 15;

/// How one request ended, when there is more to it than a latency.
#[derive(Debug)]
enum Outcome {
    /// A cold answer (`200`, cache `miss`); its bytes are scored later.
    Answer(Vec<u8>),
    /// A hot answer (`200`, cache `hit`) byte-identical to its warm-up,
    /// or a well-formed cold answer past the window: nothing to score.
    Checked,
    /// A transport error, timeout, non-2xx status, wrong cache state or
    /// byte mismatch.
    Error(String),
}

/// One request of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Stream position.
    pub index: u32,
    /// Client send -> full response, ns.
    pub latency_ns: u64,
    /// Whether the request carried a client span and trace header.
    pub traced: bool,
    /// Whether the transport, status, cache state and bytes checked out.
    pub ok: bool,
}

impl Sample {
    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6
    }
}

/// Everything the timed phase produced.
#[derive(Debug, Default)]
pub struct Timed {
    /// Requests sent.
    pub attempted: usize,
    /// A uniform sample of the requests, at most [`RESERVOIR`] per
    /// connection, in stream order.
    pub samples: Vec<Sample>,
    /// Every window request, in stream order.
    pub window: Vec<Sample>,
    /// Cold window answer bytes by stream position. Cold answers past
    /// the window are only checked for form, then dropped.
    pub bodies: Vec<(usize, Vec<u8>)>,
    /// Failed requests by stream position.
    pub errors: Vec<(usize, String)>,
    /// Wall time of the whole phase.
    pub elapsed: Duration,
}

/// When the loop stops and what it checks.
pub struct LoopConfig<'a> {
    /// Measure at least this long.
    pub seconds: f64,
    /// ...and until at least this many requests were sent.
    pub min_requests: usize,
    /// Never send more than this many.
    pub max_requests: usize,
    /// Requests `0..window` are all kept in [`Timed::window`].
    pub window: usize,
    /// Warm-up bytes per key for the hot workload (`None`: cold).
    pub warm: Option<&'a [Vec<u8>]>,
    /// Trace every other request (by a hash of its position) into this
    /// log, sending its context in `x-fastvg-trace`.
    pub spans: Option<&'a SpanLog>,
    /// Corrupt the answer of this stream position before checking it
    /// (exercises the byte-mismatch path).
    pub inject_mismatch: Option<usize>,
}

/// Whether stream position `i` is traced in a traced run: a hash, not
/// parity, so the traced half does not line up with the size cycle.
pub fn sampled(i: usize) -> bool {
    mix64(i as u64 ^ 0x0b5) & 1 == 0
}

fn check(response: std::io::Result<ClientResponse>, warm: Option<&[u8]>, inject: bool) -> Outcome {
    let response = match response {
        Ok(response) => response,
        Err(e) => return Outcome::Error(format!("transport: {e}")),
    };
    if response.status != 200 {
        return Outcome::Error(format!("status {}", response.status));
    }
    let expected_cache = if warm.is_some() { "hit" } else { "miss" };
    let cache = response.header("x-fastvg-cache").unwrap_or("absent");
    if cache != expected_cache {
        return Outcome::Error(format!("cache {cache}, expected {expected_cache}"));
    }
    let mut body = response.body;
    if inject {
        match body.first_mut() {
            Some(byte) => *byte ^= 0x20,
            None => body.push(b'?'),
        }
    }
    match warm {
        Some(expected) if body != expected => Outcome::Error("byte mismatch".into()),
        Some(_) => Outcome::Checked,
        None => Outcome::Answer(body),
    }
}

/// Drives `stream` through the router at `addr`.
pub fn closed_loop(addr: &str, stream: &Stream, config: &LoopConfig<'_>) -> Timed {
    let next = AtomicUsize::new(0);
    let timed = Mutex::new(Timed::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for connection in 0..CONNECTIONS {
            let (next, timed) = (&next, &timed);
            scope.spawn(move || {
                let connect = || {
                    ClientConfig::new()
                        .read_timeout(Duration::from_secs(60))
                        .connect(addr)
                };
                let mut client = connect().ok();
                let mut reservoir = StdRng::seed_from_u64(connection as u64);
                let mut local = Timed {
                    samples: Vec::with_capacity(RESERVOIR),
                    window: Vec::with_capacity(config.window),
                    ..Timed::default()
                };
                loop {
                    let done = started.elapsed().as_secs_f64() >= config.seconds
                        && next.load(Ordering::Relaxed) >= config.min_requests;
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if done || index >= config.max_requests {
                        break;
                    }
                    let body = stream.body(index);
                    let traced = config.spans.is_some() && sampled(index);
                    let sent = Instant::now();
                    let start_us = fastvg_obs::unix_us();
                    let (trace, span) = match config.spans {
                        Some(log) if traced => (log.next_id(), log.next_id()),
                        _ => (0, 0),
                    };
                    let response = match client.as_mut() {
                        None => Err(std::io::Error::other("not connected")),
                        Some(c) if traced => {
                            let header = TraceContext { trace, span }.encode();
                            c.send_with_headers(
                                "POST",
                                ROUTE,
                                body.as_bytes(),
                                &[(TRACE_HEADER, &header)],
                            )
                        }
                        Some(c) => c.post(ROUTE, body.as_bytes()),
                    };
                    let latency = sent.elapsed();
                    if response.is_err() {
                        client = connect().ok();
                    }
                    let warm = config.warm.map(|w| w[stream.key(index)].as_slice());
                    let mut outcome = check(response, warm, config.inject_mismatch == Some(index));
                    if let Outcome::Answer(body) = &outcome {
                        if index >= config.window {
                            outcome = match score::read(body, stream.method(index)) {
                                Ok(_) => Outcome::Checked,
                                Err(e) => Outcome::Error(format!("malformed answer: {e}")),
                            };
                        }
                    }
                    if let (Some(log), true) = (config.spans, traced) {
                        let status = match &outcome {
                            Outcome::Error(e) => e.clone(),
                            _ => "ok".to_string(),
                        };
                        log.record(
                            trace,
                            span,
                            None,
                            "client",
                            "request",
                            start_us,
                            latency,
                            vec![("index", index.to_string()), ("outcome", status)],
                        );
                    }
                    let sample = Sample {
                        index: index as u32,
                        latency_ns: latency.as_nanos() as u64,
                        traced,
                        ok: !matches!(outcome, Outcome::Error(_)),
                    };
                    if index < config.window {
                        local.window.push(sample);
                    }
                    if local.samples.len() < RESERVOIR {
                        local.samples.push(sample);
                    } else {
                        let slot = reservoir.random_range(0..=local.attempted);
                        if slot < RESERVOIR {
                            local.samples[slot] = sample;
                        }
                    }
                    local.attempted += 1;
                    match outcome {
                        Outcome::Answer(body) => local.bodies.push((index, body)),
                        Outcome::Error(e) => local.errors.push((index, e)),
                        Outcome::Checked => {}
                    }
                }
                let mut timed = timed.lock().expect("samples poisoned");
                timed.attempted += local.attempted;
                timed.samples.extend(local.samples);
                timed.window.extend(local.window);
                timed.bodies.extend(local.bodies);
                timed.errors.extend(local.errors);
            });
        }
    });
    let mut timed = timed.into_inner().expect("samples poisoned");
    timed.elapsed = started.elapsed();
    timed.samples.sort_by_key(|s| s.index);
    timed.window.sort_by_key(|s| s.index);
    timed
}
