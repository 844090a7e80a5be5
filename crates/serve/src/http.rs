//! A minimal, dependency-free HTTP/1.1 server on an epoll reactor.
//!
//! One reactor thread multiplexes every connection over a level-triggered
//! readiness poller ([`mini_epoll`]), so concurrency is bounded by file
//! descriptors — not worker threads. The pieces:
//!
//! * **nonblocking accept + per-connection state machines** — each
//!   connection owns an inbound buffer and walks
//!   `Idle → ReadingHead → ReadingBody → (Awaiting) → Writing → Idle`,
//!   framing requests incrementally: heads split across reads, pipelined
//!   requests in one segment, and write backpressure (partial writes park
//!   the connection on writable interest) all fall out of the machine;
//! * **deferred responses** — a [`Handler`] returns [`Outcome::Ready`]
//!   for immediate responses or [`Outcome::Pending`] with a [`Deferred`]
//!   whose paired [`Completer`] any thread may fulfill later; completion
//!   wakes the reactor through an eventfd, so a long `?wait` extraction
//!   parks a connection, never a thread;
//! * **exact deadlines** — each connection state carries the one instant
//!   at which the connection gives up, and the reactor keeps those
//!   instants in one ordered set, one entry per connection: a keep-alive
//!   connection idling between requests hits [`HttpConfig::idle_timeout`]
//!   (silent close), a trickling client inside a request hits
//!   [`HttpConfig::request_read_deadline`] (`408`), a parked request hits
//!   its [`Deferred::with_fallback`] instant, and a peer that stops
//!   reading a response is closed one read deadline after the write
//!   first blocked;
//! * **request limits** — head and body caps are enforced before any
//!   allocation trusts the peer, and [`HttpConfig::max_connections`]
//!   bounds the descriptor budget (over-limit accepts get `503`);
//! * **graceful shutdown** — [`ShutdownHandle::shutdown`] (the SIGTERM
//!   stand-in; `std` cannot install signal handlers) wakes the reactor,
//!   which stops accepting, lets in-flight requests (including parked
//!   deferred ones) finish, closes idle connections, and force-closes
//!   stragglers after [`HttpConfig::drain_deadline`].
//!
//! Routing, bodies and status codes are the caller's job via [`Handler`];
//! this module speaks only the protocol. Response bytes are identical to
//! the threaded server this replaced.

use fastvg_obs::{SpanContext, SpanId, TraceId};
use fastvg_wire::{TraceContext, TRACE_HEADER};
use mini_epoll::{Event, Interest, Poller, Waker};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Maximum simultaneously open connections; accepts beyond the cap
    /// are answered `503` and closed.
    pub max_connections: usize,
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum request body bytes (larger bodies get `413`).
    pub max_body_bytes: usize,
    /// Hard deadline for reading one full request (head + body), armed
    /// at the first byte. Bounds how long a trickling client (slowloris)
    /// can hold a parser mid-request; expiring answers `408`. A response
    /// write that blocks gets the same span for the peer to read it
    /// before the connection is closed.
    pub request_read_deadline: Duration,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before being closed silently. Distinct from
    /// [`HttpConfig::request_read_deadline`]: an idle connection has no
    /// request in flight and gets no error response.
    pub idle_timeout: Duration,
    /// On shutdown, how long in-flight connections get to finish before
    /// being force-closed.
    pub drain_deadline: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            max_connections: 4096,
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            request_read_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(30),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Raw query string (no leading `?`; empty if absent).
    pub query: String,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Microseconds the reactor spent reading this request off the
    /// socket (first byte to dispatch). Zero when the request arrived in
    /// one read, or for requests not built by the reactor (tests).
    pub read_us: u64,
}

impl Request {
    /// First value of `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The caller's span context from a well-formed `x-fastvg-trace`
    /// header, if the request carries one.
    pub fn trace_parent(&self) -> Option<SpanContext> {
        let ctx = self.header(TRACE_HEADER).and_then(TraceContext::parse)?;
        Some(SpanContext {
            trace: TraceId(ctx.trace),
            span: SpanId(ctx.span),
        })
    }

    /// Whether the query string contains flag `name` (bare or `=true`).
    pub fn query_flag(&self, name: &str) -> bool {
        self.query.split('&').any(|pair| {
            pair == name
                || pair
                    .split_once('=')
                    .is_some_and(|(k, v)| k == name && v != "false" && v != "0")
        })
    }
}

/// One response to write.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from an already serialized document.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Appends one header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// What a [`Handler`] hands back for one request.
#[derive(Debug)]
pub enum Outcome {
    /// The response is ready now; write it.
    Ready(Response),
    /// The response will be produced later by a [`Completer`]; park the
    /// connection without blocking the reactor.
    Pending(Deferred),
}

/// What the server calls per request. Implementations are shared across
/// connections, so they take `&self`. **Must not block**: the handler
/// runs on the reactor thread, so anything slow (or anything waiting on
/// another thread) must return [`Outcome::Pending`] and complete later.
pub trait Handler: Send + Sync {
    /// Produces the outcome for one request.
    fn handle(&self, request: &Request) -> Outcome;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, request: &Request) -> Outcome {
        Outcome::Ready(self(request))
    }
}

/// Creates a linked deferred-response pair: return the [`Deferred`] from
/// a [`Handler`] (inside [`Outcome::Pending`]) and hand the
/// [`Completer`] to whatever thread will produce the response.
pub fn deferred() -> (Deferred, Completer) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState::Empty),
    });
    (
        Deferred {
            slot: Arc::clone(&slot),
            fallback: None,
        },
        Completer { slot: Some(slot) },
    )
}

/// The reactor-side half of a deferred response (see [`deferred`]).
#[derive(Debug)]
pub struct Deferred {
    slot: Arc<Slot>,
    fallback: Option<(Instant, Box<Response>)>,
}

impl Deferred {
    /// Arms a fallback: if the [`Completer`] has not fired by `at`, the
    /// server answers with `response` instead, and a late completion is
    /// discarded. Without a fallback an uncompleted response is bounded
    /// only by the `Completer` being dropped.
    #[must_use]
    pub fn with_fallback(mut self, at: Instant, response: Response) -> Self {
        self.fallback = Some((at, Box::new(response)));
        self
    }
}

/// The producer-side half of a deferred response (see [`deferred`]).
/// Send it anywhere; completing (or dropping) it wakes the reactor.
#[derive(Debug)]
pub struct Completer {
    slot: Option<Arc<Slot>>,
}

impl Completer {
    /// Fulfills the deferred response. If the connection already gave up
    /// (client disconnected, fallback fired), the response is discarded.
    pub fn complete(mut self, response: Response) {
        if let Some(slot) = self.slot.take() {
            slot.fulfill(response);
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.fulfill(Response::text(500, "response producer dropped"));
        }
    }
}

#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
}

#[derive(Debug)]
enum SlotState {
    /// No response yet; reactor not yet parked on it.
    Empty,
    /// Reactor parked; completion must wake it.
    Attached(Notify),
    /// Response produced before the reactor consumed it.
    Done(Box<Response>),
    /// Connection gave up (or consumed the response); late completions
    /// are discarded.
    Closed,
}

#[derive(Debug)]
struct Notify {
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<Waker>,
    completion: Completion,
}

/// A deferred response completed for connection `token`; stale unless
/// the connection is still at `cycle`.
#[derive(Debug, Clone, Copy)]
struct Completion {
    token: u64,
    cycle: u64,
}

impl Slot {
    fn fulfill(&self, response: Response) {
        let mut state = self.state.lock().expect("slot poisoned");
        match std::mem::replace(&mut *state, SlotState::Done(Box::new(response))) {
            SlotState::Attached(notify) => {
                drop(state);
                notify
                    .completions
                    .lock()
                    .expect("completions poisoned")
                    .push(notify.completion);
                let _ = notify.waker.wake();
            }
            SlotState::Empty => {}
            SlotState::Closed => *state = SlotState::Closed,
            // complete() consumes the Completer, so two fulfills can't
            // happen; keep the first response if it somehow does.
            done @ SlotState::Done(_) => *state = done,
        }
    }

    /// Attach the reactor's wakeup route; returns the response instead if
    /// it was already produced (completion won the race).
    fn attach(&self, notify: Notify) -> Option<Box<Response>> {
        let mut state = self.state.lock().expect("slot poisoned");
        match std::mem::replace(&mut *state, SlotState::Attached(notify)) {
            SlotState::Done(response) => {
                *state = SlotState::Closed;
                Some(response)
            }
            _ => None,
        }
    }

    /// Take the response if present, closing the slot either way.
    fn take_if_done(&self) -> Option<Box<Response>> {
        let mut state = self.state.lock().expect("slot poisoned");
        match std::mem::replace(&mut *state, SlotState::Closed) {
            SlotState::Done(response) => Some(response),
            _ => None,
        }
    }

    /// Abandon: late completions will be discarded.
    fn close(&self) {
        *self.state.lock().expect("slot poisoned") = SlotState::Closed;
    }
}

/// Reactor counters, readable from any thread (e.g. for `/metrics`).
#[derive(Debug, Default)]
pub struct ServerStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    request_timeouts: AtomicU64,
    idle_closed: AtomicU64,
}

impl ServerStats {
    /// Connections accepted since boot (including later-rejected ones).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn open(&self) -> u64 {
        self.accepted()
            .saturating_sub(self.closed.load(Ordering::Relaxed))
            .saturating_sub(self.rejected.load(Ordering::Relaxed))
    }

    /// Connections refused with `503` because
    /// [`HttpConfig::max_connections`] was reached.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests fully parsed and dispatched to the handler.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests answered `408` for exceeding the read deadline.
    pub fn request_timeouts(&self) -> u64 {
        self.request_timeouts.load(Ordering::Relaxed)
    }

    /// Keep-alive connections closed by the idle timeout.
    pub fn idle_closed(&self) -> u64 {
        self.idle_closed.load(Ordering::Relaxed)
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running HTTP server; dropping it does **not** stop it — use
/// [`ShutdownHandle::shutdown`] then [`HttpServer::join`].
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    stats: Arc<ServerStats>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

/// Triggers a graceful stop of an [`HttpServer`] — the daemon's
/// "SIGTERM channel": `std` cannot hook real signals, so anything that
/// wants the server down (CLI flag timers, the `/shutdown` route, tests)
/// calls [`ShutdownHandle::shutdown`] instead.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl ShutdownHandle {
    /// Requests the stop: the reactor wakes, stops accepting, drains
    /// in-flight requests, and closes idle connections.
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = self.waker.wake();
        }
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the reactor thread.
    ///
    /// # Errors
    ///
    /// Propagates socket and poller errors (bind failure, invalid
    /// address, descriptor exhaustion).
    pub fn bind(
        addr: &str,
        handler: Arc<dyn Handler>,
        config: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.add(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&poller, WAKER_TOKEN)?);
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());

        let reactor = Reactor {
            poller,
            listener: Some(listener),
            handler,
            config,
            stop: Arc::clone(&stop),
            waker: Arc::clone(&waker),
            completions: Arc::new(Mutex::new(Vec::new())),
            stats: Arc::clone(&stats),
            conns: Vec::new(),
            next_cycles: Vec::new(),
            free: Vec::new(),
            open: 0,
            deadlines: BTreeSet::new(),
            draining: false,
            drain_at: None,
        };
        let thread = std::thread::Builder::new()
            .name("fastvg-reactor".into())
            .spawn(move || reactor.run())?;

        Ok(HttpServer {
            addr,
            stop,
            waker,
            stats,
            reactor: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop this server from anywhere.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            waker: Arc::clone(&self.waker),
        }
    }

    /// Live reactor counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Waits until the reactor has fully stopped (drain complete). Call
    /// [`ShutdownHandle::shutdown`] first — or from another thread — or
    /// this blocks forever.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the reactor thread. Handler panics are caught
    /// per request, so only a broken reactor invariant gets here.
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            if let Err(panic) = reactor.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// Shared context a connection needs to make progress. Split from
/// `Reactor` so one connection can be operated on while the reactor's
/// other fields stay borrowable.
struct Ctx<'a> {
    poller: &'a Poller,
    handler: &'a dyn Handler,
    config: &'a HttpConfig,
    stats: &'a ServerStats,
    completions: &'a Arc<Mutex<Vec<Completion>>>,
    waker: &'a Arc<Waker>,
    token: u64,
    now: Instant,
    draining: bool,
}

struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    handler: Arc<dyn Handler>,
    config: HttpConfig,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    completions: Arc<Mutex<Vec<Completion>>>,
    stats: Arc<ServerStats>,
    conns: Vec<Option<Conn>>,
    /// Per-slot cycle seed, persisted across slot reuse so a stale
    /// completion for a dead connection can never match the slot's next
    /// tenant.
    next_cycles: Vec<u64>,
    free: Vec<usize>,
    open: usize,
    /// Exactly `{(conn.deadline(), token)}` over the open connections
    /// that have a deadline: at most one entry per open connection, so
    /// the first entry is the next instant the reactor must wake for and
    /// no entry is ever stale. [`Reactor::with_conn`] and
    /// [`Reactor::release`] keep it so.
    deadlines: BTreeSet<(Instant, u64)>,
    draining: bool,
    drain_at: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            debug_assert!(self.deadlines.len() <= self.open, "leaked deadline");
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining {
                if self.open == 0 {
                    break;
                }
                if self.drain_at.is_some_and(|at| Instant::now() >= at) {
                    break; // force-close stragglers by dropping them
                }
            }
            let next = self.deadlines.first().map(|&(at, _)| at);
            let wake = next.into_iter().chain(self.drain_at).min();
            let timeout = wake.map(|at| at.saturating_duration_since(Instant::now()));
            match self.poller.wait(&mut events, timeout) {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // poller itself failed: nothing to salvage
            }
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.waker.drain(),
                    _ => self.conn_event(event),
                }
            }
            self.drain_completions();
            self.expire_deadlines();
        }
    }

    /// Runs [`Conn::on_deadline`] for every deadline at or before now.
    /// Each entry is popped before its connection runs, so it fires once;
    /// it is always that connection's current deadline.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        while let Some(&(at, token)) = self.deadlines.first() {
            if at > now {
                break;
            }
            self.deadlines.pop_first();
            self.with_conn(token, Conn::on_deadline);
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_at = Some(Instant::now() + self.config.drain_deadline);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(&listener);
        }
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if matches!(conn.state, ConnState::Idle { .. }) && conn.write_buf.is_empty() {
                let conn = self.conns[idx].take().expect("checked above");
                self.release(idx, conn);
            } else {
                conn.close_after_write = true;
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    ServerStats::bump(&self.stats.accepted);
                    if self.open >= self.config.max_connections {
                        ServerStats::bump(&self.stats.rejected);
                        // Accepted sockets are blocking (nonblocking is
                        // not inherited); a one-shot write of a tiny 503
                        // into an empty send buffer doesn't stall.
                        let bytes = serialize_response(
                            &Response::text(503, "connection limit reached"),
                            true,
                        );
                        let mut stream = stream;
                        let _ = stream.write_all(&bytes);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        ServerStats::bump(&self.stats.closed);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = self.alloc_slot();
                    let token = FIRST_CONN_TOKEN + idx as u64;
                    if self.poller.add(&stream, token, Interest::READABLE).is_err() {
                        ServerStats::bump(&self.stats.closed);
                        self.free.push(idx);
                        continue;
                    }
                    // A silent client must not hold a descriptor forever.
                    let deadline = Instant::now() + self.config.idle_timeout;
                    self.conns[idx] = Some(Conn::new(stream, self.next_cycles[idx], deadline));
                    self.deadlines.insert((deadline, token));
                    self.open += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient per-connection failures (ECONNABORTED, EMFILE):
                // stop this sweep; level-triggered readiness retries us.
                Err(_) => return,
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(idx) = self.free.pop() {
            idx
        } else {
            self.conns.push(None);
            self.next_cycles.push(0);
            self.conns.len() - 1
        }
    }

    fn slot_of(&self, token: u64) -> Option<usize> {
        let idx = token.checked_sub(FIRST_CONN_TOKEN)? as usize;
        (idx < self.conns.len()).then_some(idx)
    }

    /// Returns the connection's slot to the free list, drops its
    /// deadline, and records its final cycle so stale completions can't
    /// touch the next tenant.
    fn release(&mut self, idx: usize, conn: Conn) {
        if let Some(at) = conn.deadline() {
            self.deadlines.remove(&(at, FIRST_CONN_TOKEN + idx as u64));
        }
        let _ = self.poller.delete(&conn.stream);
        if let ConnState::Awaiting { slot, .. } = &conn.state {
            slot.close();
        }
        self.next_cycles[idx] = conn.cycle.wrapping_add(1);
        self.free.push(idx);
        self.open -= 1;
        ServerStats::bump(&self.stats.closed);
    }

    /// Runs `op` on the connection for `token` (if still alive), closing
    /// it when `op` returns `false`, and moves the connection's entry in
    /// [`Reactor::deadlines`] to the deadline of the state `op` leaves.
    /// The `Ctx` is built field by field here (not via a constructor) so
    /// the borrows split: `conn` is taken out of `self.conns` first, then
    /// the rest of `self` lends its pieces.
    fn with_conn(&mut self, token: u64, op: impl FnOnce(&mut Conn, &mut Ctx<'_>) -> bool) {
        let Some(idx) = self.slot_of(token) else {
            return;
        };
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        if let Some(at) = conn.deadline() {
            self.deadlines.remove(&(at, token));
        }
        let mut ctx = Ctx {
            poller: &self.poller,
            handler: self.handler.as_ref(),
            config: &self.config,
            stats: &self.stats,
            completions: &self.completions,
            waker: &self.waker,
            token,
            now: Instant::now(),
            draining: self.draining,
        };
        let keep = op(&mut conn, &mut ctx);
        if keep {
            if let Some(at) = conn.deadline() {
                self.deadlines.insert((at, token));
            }
            self.conns[idx] = Some(conn);
        } else {
            self.release(idx, conn);
        }
    }

    fn conn_event(&mut self, event: Event) {
        self.with_conn(event.token, |conn, ctx| {
            if event.error {
                return false;
            }
            if event.readable && !conn.fill_read(ctx.config) {
                return false;
            }
            conn.make_progress(ctx)
        });
    }

    fn drain_completions(&mut self) {
        let pending: Vec<Completion> = {
            let mut completions = self.completions.lock().expect("completions poisoned");
            std::mem::take(&mut *completions)
        };
        for key in pending {
            self.with_conn(key.token, |conn, ctx| {
                if conn.cycle != key.cycle {
                    return true; // stale: connection moved on
                }
                conn.on_completion(ctx)
            });
        }
    }
}

/// Per-connection protocol state. Each state carries the instant at
/// which the connection gives up on it (see [`Conn::deadline`]).
#[derive(Debug)]
enum ConnState {
    /// Between requests (keep-alive) or fresh; closed silently at
    /// `deadline`, [`HttpConfig::idle_timeout`] after entering the state.
    Idle { deadline: Instant },
    /// Some request bytes arrived; the head is not complete yet.
    ReadingHead {
        /// Whole-request read deadline, fixed at the first byte.
        deadline: Instant,
    },
    /// Head parsed; waiting for `body_len` bytes.
    ReadingBody {
        head: Box<Head>,
        body_len: usize,
        deadline: Instant,
    },
    /// Request dispatched; parked on a deferred response until its
    /// fallback's instant, if it has one.
    Awaiting {
        slot: Arc<Slot>,
        fallback: Option<(Instant, Box<Response>)>,
        close: bool,
    },
    /// Response queued; flushing `write_buf`. `deadline` is set when a
    /// write first blocks: the peer must read by then.
    Writing { deadline: Option<Instant> },
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Bumped whenever a response is queued; a completion carrying an
    /// older cycle belongs to an earlier request and is ignored.
    cycle: u64,
    state: ConnState,
    /// Unconsumed inbound bytes (may hold pipelined requests).
    buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    close_after_write: bool,
    /// Peer sent FIN: serve what's buffered, then close.
    read_closed: bool,
    registered: Interest,
}

impl Conn {
    fn new(stream: TcpStream, cycle: u64, deadline: Instant) -> Conn {
        Conn {
            stream,
            cycle,
            state: ConnState::Idle { deadline },
            buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            close_after_write: false,
            read_closed: false,
            registered: Interest::READABLE,
        }
    }

    /// The instant this connection gives up in its current state.
    fn deadline(&self) -> Option<Instant> {
        match &self.state {
            ConnState::Idle { deadline }
            | ConnState::ReadingHead { deadline }
            | ConnState::ReadingBody { deadline, .. } => Some(*deadline),
            ConnState::Awaiting { fallback, .. } => fallback.as_ref().map(|(at, _)| *at),
            ConnState::Writing { deadline } => *deadline,
        }
    }

    fn buffer_cap(config: &HttpConfig) -> usize {
        config.max_head_bytes + config.max_body_bytes + 4096
    }

    /// Pulls everything available off the socket (up to the buffer cap).
    /// Returns `false` on a hard error; EOF just sets `read_closed`.
    fn fill_read(&mut self, config: &HttpConfig) -> bool {
        if self.read_closed {
            return true;
        }
        let cap = Self::buffer_cap(config);
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if self.buf.len() >= cap {
                return true; // backpressure: leave the rest in the kernel
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    return true;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        return true; // drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Advances the state machine as far as the buffered bytes allow:
    /// flushes writes, parses requests (including pipelined ones),
    /// dispatches to the handler. Returns `false` to close.
    fn make_progress(&mut self, ctx: &mut Ctx<'_>) -> bool {
        loop {
            if !self.flush_writes() {
                return false;
            }
            if self.write_pos < self.write_buf.len() {
                // Write-blocked: guard against a peer that never reads.
                if let ConnState::Writing { deadline } = &mut self.state {
                    deadline.get_or_insert(ctx.now + ctx.config.request_read_deadline);
                }
                self.sync_interest(ctx);
                return true;
            }
            if matches!(self.state, ConnState::Writing { .. }) {
                if self.close_after_write {
                    return false;
                }
                self.state = ConnState::Idle {
                    deadline: ctx.now + ctx.config.idle_timeout,
                };
            }
            match &self.state {
                ConnState::Idle { .. } => {
                    // Tolerate blank lines between requests (RFC 9112 §2.2).
                    let skip = self
                        .buf
                        .iter()
                        .take_while(|&&b| b == b'\r' || b == b'\n')
                        .count();
                    if skip > 0 {
                        self.buf.drain(..skip);
                    }
                    if self.buf.is_empty() {
                        if self.read_closed {
                            return false;
                        }
                        self.sync_interest(ctx);
                        return true;
                    }
                    // First bytes of a request: start the per-request clock.
                    self.state = ConnState::ReadingHead {
                        deadline: ctx.now + ctx.config.request_read_deadline,
                    };
                }
                ConnState::ReadingHead { deadline } => {
                    let deadline = *deadline;
                    match parse_head(
                        &self.buf,
                        ctx.config.max_head_bytes,
                        ctx.config.max_body_bytes,
                    ) {
                        HeadParse::Incomplete => {
                            if self.read_closed {
                                return false;
                            }
                            self.sync_interest(ctx);
                            return true;
                        }
                        HeadParse::Reject(status, message) => {
                            self.queue_response(ctx, Response::text(status, message), true);
                        }
                        HeadParse::Complete { head, consumed } => {
                            self.buf.drain(..consumed);
                            if head.expect_continue
                                && head.body_len > 0
                                && self.buf.len() < head.body_len
                            {
                                self.write_buf
                                    .extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                            }
                            let body_len = head.body_len;
                            self.state = ConnState::ReadingBody {
                                head,
                                body_len,
                                deadline,
                            };
                        }
                    }
                }
                ConnState::ReadingBody {
                    body_len, deadline, ..
                } => {
                    let (body_len, deadline) = (*body_len, *deadline);
                    if self.buf.len() < body_len {
                        if self.read_closed {
                            return false;
                        }
                        self.sync_interest(ctx);
                        return true;
                    }
                    let body: Vec<u8> = self.buf.drain(..body_len).collect();
                    let ConnState::ReadingBody { head, .. } =
                        std::mem::replace(&mut self.state, ConnState::Writing { deadline: None })
                    else {
                        unreachable!("state checked above");
                    };
                    ServerStats::bump(&ctx.stats.requests);
                    // The read clock started when the first byte armed the
                    // whole-request deadline; recover it from the deadline.
                    let read_us = (Instant::now() + ctx.config.request_read_deadline)
                        .saturating_duration_since(deadline)
                        .as_micros() as u64;
                    let request = Request {
                        method: head.method,
                        path: head.path,
                        query: head.query,
                        headers: head.headers,
                        body,
                        read_us,
                    };
                    let close = head.close;
                    // The reactor must survive a handler panic: one poisoned
                    // request turning into a dead daemon is the worst trade.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        ctx.handler.handle(&request)
                    }))
                    .unwrap_or_else(|_| Outcome::Ready(Response::text(500, "handler panicked")));
                    match outcome {
                        Outcome::Ready(response) => {
                            self.queue_response(ctx, response, close);
                        }
                        Outcome::Pending(Deferred { slot, fallback }) => {
                            let notify = Notify {
                                completions: Arc::clone(ctx.completions),
                                waker: Arc::clone(ctx.waker),
                                completion: Completion {
                                    token: ctx.token,
                                    cycle: self.cycle,
                                },
                            };
                            match slot.attach(notify) {
                                Some(response) => {
                                    // Completion beat us to it: no parking.
                                    self.queue_response(ctx, *response, close);
                                }
                                None => {
                                    self.state = ConnState::Awaiting {
                                        slot,
                                        fallback,
                                        close,
                                    };
                                    self.sync_interest(ctx);
                                    return true;
                                }
                            }
                        }
                    }
                }
                ConnState::Awaiting { .. } => {
                    self.sync_interest(ctx);
                    return true;
                }
                ConnState::Writing { .. } => unreachable!("flushed above"),
            }
        }
    }

    /// Serializes `response` into the write buffer and enters `Writing`.
    /// The caller's progress loop performs the actual flush.
    fn queue_response(&mut self, ctx: &mut Ctx<'_>, response: Response, close: bool) {
        let close = close || ctx.draining || self.close_after_write;
        self.write_buf
            .extend_from_slice(&serialize_response(&response, close));
        self.close_after_write = close;
        self.cycle = self.cycle.wrapping_add(1);
        self.state = ConnState::Writing { deadline: None };
    }

    /// A deferred response was completed for the current cycle.
    fn on_completion(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let ConnState::Awaiting { slot, close, .. } = &self.state else {
            return true; // spurious
        };
        let close = *close;
        // A notification without a stored response should be impossible;
        // stay parked rather than invent an answer.
        let Some(response) = slot.take_if_done() else {
            return true;
        };
        self.queue_response(ctx, *response, close);
        self.make_progress(ctx)
    }

    /// The current state's deadline passed; what that means depends on
    /// the state.
    fn on_deadline(&mut self, ctx: &mut Ctx<'_>) -> bool {
        match std::mem::replace(&mut self.state, ConnState::Writing { deadline: None }) {
            ConnState::Idle { .. } => {
                ServerStats::bump(&ctx.stats.idle_closed);
                false // idle timeout: silent close, no error response
            }
            ConnState::ReadingHead { .. } | ConnState::ReadingBody { .. } => {
                ServerStats::bump(&ctx.stats.request_timeouts);
                self.queue_response(
                    ctx,
                    Response::text(408, "request read deadline exceeded"),
                    true,
                );
                self.make_progress(ctx)
            }
            ConnState::Awaiting {
                slot,
                fallback,
                close,
            } => {
                // Race: the completion may have landed but not yet been
                // drained — prefer the real response over the fallback.
                // Either way the slot closes, discarding a late completion.
                let Some(response) = slot.take_if_done().or(fallback.map(|(_, r)| r)) else {
                    unreachable!("a parked state's only deadline is its fallback");
                };
                self.queue_response(ctx, *response, close);
                self.make_progress(ctx)
            }
            ConnState::Writing { .. } => false, // write stalled past the deadline
        }
    }

    fn flush_writes(&mut self) -> bool {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.write_pos >= self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        true
    }

    fn sync_interest(&mut self, ctx: &Ctx<'_>) {
        let desired = Interest {
            readable: !self.read_closed && self.buf.len() < Self::buffer_cap(ctx.config),
            writable: self.write_pos < self.write_buf.len(),
        };
        if desired != self.registered {
            let _ = ctx.poller.modify(&self.stream, ctx.token, desired);
            self.registered = desired;
        }
    }
}

/// A parsed request head (everything before the body).
#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
    body_len: usize,
    close: bool,
    expect_continue: bool,
}

enum HeadParse {
    /// Need more bytes.
    Incomplete,
    /// Head parsed; `consumed` bytes of the buffer belong to it.
    Complete { head: Box<Head>, consumed: usize },
    /// Protocol violation worth a status code before closing.
    Reject(u16, &'static str),
}

/// Incremental head parser over the connection's raw inbound buffer.
/// Semantics (and rejection messages) match the threaded server this
/// replaced: lowercased header names, no transfer-encoding support,
/// head/body caps enforced before trusting any length.
fn parse_head(buf: &[u8], max_head: usize, max_body: usize) -> HeadParse {
    // Find the blank line ending the head.
    let mut line_start = 0usize;
    let head_end = loop {
        match buf[line_start..].iter().position(|&b| b == b'\n') {
            None => {
                if buf.len() > max_head {
                    return HeadParse::Reject(431, "request head too large");
                }
                return HeadParse::Incomplete;
            }
            Some(rel) => {
                let nl = line_start + rel;
                let mut line = &buf[line_start..nl];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                if line.is_empty() {
                    break nl + 1;
                }
                line_start = nl + 1;
                if line_start > max_head {
                    return HeadParse::Reject(431, "request head too large");
                }
            }
        }
    };
    if head_end > max_head + 2 {
        return HeadParse::Reject(431, "request head too large");
    }
    let Ok(head_text) = std::str::from_utf8(&buf[..head_end]) else {
        return HeadParse::Reject(400, "request head is not UTF-8");
    };

    let mut lines = head_text.lines().filter(|l| !l.is_empty());
    let Some(request_line) = lines.next() else {
        return HeadParse::Reject(400, "malformed request line");
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return HeadParse::Reject(400, "malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return HeadParse::Reject(400, "unsupported protocol version");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return HeadParse::Reject(400, "malformed header line");
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return HeadParse::Reject(400, "transfer-encoding not supported");
    }
    let body_len = match find("content-length") {
        None => 0,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return HeadParse::Reject(400, "malformed content-length"),
        },
    };
    if body_len > max_body {
        return HeadParse::Reject(413, "request body too large");
    }
    let close = find("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let expect_continue = find("expect").is_some_and(|v| v.eq_ignore_ascii_case("100-continue"));

    HeadParse::Complete {
        head: Box::new(Head {
            method: method.to_uppercase(),
            path,
            query,
            headers,
            body_len,
            close,
            expect_continue,
        }),
        consumed: head_end,
    }
}

/// Serializes a response exactly as the threaded server did — the bytes
/// on the wire are part of the protocol contract (loadgen asserts
/// byte-identical cached responses).
fn serialize_response(response: &Response, close: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&response.body);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_head_incremental_and_complete() {
        let raw = b"POST /extract?wait=true HTTP/1.1\r\ncontent-length: 4\r\nHost: x\r\n\r\nbody";
        for cut in 0..raw.len() - 4 {
            assert!(
                matches!(parse_head(&raw[..cut], 16384, 4096), HeadParse::Incomplete),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let HeadParse::Complete { head, consumed } = parse_head(raw, 16384, 4096) else {
            panic!("full head should parse");
        };
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/extract");
        assert_eq!(head.query, "wait=true");
        assert_eq!(head.body_len, 4);
        assert!(!head.close);
        assert_eq!(&raw[consumed..], b"body");
    }

    #[test]
    fn parse_head_rejections_match_protocol() {
        let cases: [(&[u8], u16); 5] = [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\ncontent-length: banana\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\ncontent-length: 99999\r\n\r\n", 413),
        ];
        for (raw, want) in cases {
            let HeadParse::Reject(status, _) = parse_head(raw, 16384, 4096) else {
                panic!("{:?} should be rejected", String::from_utf8_lossy(raw));
            };
            assert_eq!(status, want);
        }
    }

    #[test]
    fn parse_head_caps_oversized_heads_even_without_newline() {
        let raw = vec![b'A'; 5000];
        let HeadParse::Reject(status, _) = parse_head(&raw, 4096, 4096) else {
            panic!("oversized head should be rejected");
        };
        assert_eq!(status, 431);
    }

    #[test]
    fn serialized_response_bytes_are_stable() {
        let response = Response::json(200, "{}").with_header("x-fastvg-cache", "hit");
        let bytes = serialize_response(&response, false);
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\nx-fastvg-cache: hit\r\n\r\n{}"
        );
    }

    #[test]
    fn completer_drop_produces_a_500() {
        let (deferred, completer) = deferred();
        drop(completer);
        let response = deferred.slot.take_if_done().expect("drop fulfills");
        assert_eq!(response.status, 500);
    }

    #[test]
    fn completion_before_attach_is_returned_at_attach() {
        let (deferred, completer) = deferred();
        completer.complete(Response::text(200, "early"));
        let (completions, _poller, waker) = {
            let poller = Poller::new().expect("poller");
            let waker = Arc::new(Waker::new(&poller, 1).expect("waker"));
            (Arc::new(Mutex::new(Vec::new())), poller, waker)
        };
        let got = deferred.slot.attach(Notify {
            completions,
            waker,
            completion: Completion { token: 2, cycle: 0 },
        });
        assert_eq!(got.expect("already done").body, b"early");
    }
}
