//! `fastvg-serve` — the extraction service daemon.
//!
//! The paper makes single-device virtual-gate extraction fast; the
//! ROADMAP's north star is a system that *serves* that extraction at
//! fleet scale. This crate is the missing layer between the two: a
//! long-running daemon that accepts extraction jobs over HTTP, runs each
//! on one of its long-lived workers through the same object-safe
//! [`fastvg_core::api::Extractor`] path the offline harnesses use,
//! caches results by content, and exposes live telemetry.
//!
//! Everything is built on `std::net` — zero new external dependencies,
//! consistent with the workspace's offline vendor policy.
//!
//! | module | role |
//! |---|---|
//! | [`http`] | hand-rolled HTTP/1.1 on an epoll reactor: nonblocking accept, keep-alive, request limits, graceful drain |
//! | [`queue`] | bounded job queue + long-lived workers, one job per worker at a time |
//! | [`cache`] | sharded LRU result cache keyed by canonical-request fingerprints |
//! | [`metrics`] | counters + latency histograms behind `GET /metrics` |
//! | [`service`] | the routes, request validation, and daemon lifecycle |
//! | [`client`] | the minimal keep-alive client used by `fastvg-loadgen`, tests and examples |
//! | [`remote`] | [`RemoteExtractor`]: the daemon as a drop-in `&dyn Extractor` |
//!
//! Scenarios are measured through a runtime-selected
//! [`qd_instrument::SourceBackend`] (`--backend` / the request's
//! `"backend"` member); see `docs/BACKENDS.md`.
//!
//! The wire protocol — newline-framed JSON over `POST /extract`,
//! `GET /jobs/<id>`, `GET /healthz`, `GET /metrics` — is specified in
//! `docs/PROTOCOL.md`. Responses reuse the workspace's own currencies:
//! success bodies embed a serialized
//! [`fastvg_core::api::ExtractionReport`], failures the flattened
//! [`fastvg_core::WireFailure`] taxonomy.
//!
//! # In-process quickstart
//!
//! ```
//! use fastvg_serve::{start, Client, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let daemon = start(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServeConfig::default()
//! })?;
//!
//! let mut client = Client::connect(&daemon.addr().to_string())?;
//! let response = client.post("/extract?wait", br#"{"benchmark": 6}"#)?;
//! assert_eq!(response.status, 200);
//! assert_eq!(response.header("x-fastvg-cache"), Some("miss"));
//! let doc = response.json()?;
//! assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(true));
//!
//! // The same request again is a cache hit with byte-identical body.
//! let again = client.post("/extract?wait", br#"{"benchmark": 6}"#)?;
//! assert_eq!(again.header("x-fastvg-cache"), Some("hit"));
//! assert_eq!(again.body, response.body);
//!
//! daemon.shutdown();
//! daemon.join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod remote;
pub mod service;

pub use cache::{CacheConfig, ResultCache};
pub use client::{Client, ClientConfig, ClientResponse};
pub use http::{
    deferred, Completer, Deferred, Handler, HttpConfig, HttpServer, Outcome, Request, Response,
    ServerStats, ShutdownHandle,
};
pub use metrics::{Histogram, Metrics};
pub use queue::{JobQueue, JobRequest, JobState, Scenario};
pub use remote::RemoteExtractor;
pub use service::{
    start, ConfigError, ExtractParser, ExtractService, RequestError, ServeConfig, ServeError,
    ServiceHandle, REQUEST_BACKEND_SCHEMES, REQUEST_MAX_DWELL,
};
