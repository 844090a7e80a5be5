//! The system under test: a `fastvg-router` in front of two
//! `fastvg-serve` shards, all in this process on ephemeral ports with
//! default settings, plus before/after snapshots of their telemetry.

use fastvg_router::{start as start_router, RouterConfig, RouterHandle, ShardSpec};
use fastvg_serve::{start as start_daemon, Histogram, ServeConfig, ServiceHandle};
use std::time::Duration;

/// Shards behind the router.
pub const SHARDS: usize = 2;

/// A running fleet.
pub struct Fleet {
    router: RouterHandle,
    daemons: Vec<ServiceHandle>,
    addr: String,
}

impl Fleet {
    /// Boots the shards, then the router, and waits until the router
    /// answers `/healthz`.
    pub fn boot() -> Result<Fleet, String> {
        let daemons = (0..SHARDS)
            .map(|_| {
                start_daemon(ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    ..ServeConfig::default()
                })
                .map_err(|e| format!("daemon: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router = start_router(RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: daemons
                .iter()
                .map(|d| ShardSpec::new(d.addr().to_string()))
                .collect(),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("router: {e}"))?;
        let addr = router.addr().to_string();
        if !fastvg_router::wait_healthy(&addr, Duration::from_secs(10)) {
            return Err("router never became healthy".into());
        }
        Ok(Fleet {
            router,
            daemons,
            addr,
        })
    }

    /// The router's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops every thread of the fleet and waits for them.
    pub fn stop(self) {
        self.router.shutdown();
        self.router.join();
        for daemon in &self.daemons {
            daemon.shutdown();
        }
        for daemon in self.daemons {
            daemon.join();
        }
    }

    /// Reads the router's and every shard's `metrics()` in process.
    pub fn snapshot(&self) -> Snapshot {
        let router = self.router.service().metrics();
        let mut snap = Snapshot {
            routed_hits: router.routed_hits.get(),
            peer_hits: router.peer_hits.get(),
            peer_misses: router.peer_misses.get(),
            upstream_retries: router.upstream_retries.get(),
            ..Snapshot::default()
        };
        for daemon in &self.daemons {
            let m = daemon.service().metrics();
            snap.cache_hits += m.cache_hits.get();
            snap.cache_misses += m.cache_misses.get();
            snap.cache_peer_hits += m.cache_peer_hits.get();
            snap.cache_peer_misses += m.cache_peer_misses.get();
            snap.request_ns += m.request_latency.sum().as_nanos() as u64;
            snap.requests += m.request_latency.count();
            add_buckets(&mut snap.request_latency, &m.request_latency);
            add_buckets(&mut snap.job_latency, &m.job_latency);
        }
        snap
    }
}

fn add_buckets(into: &mut Vec<u64>, histogram: &Histogram) {
    let counts: Vec<u64> = histogram.buckets().iter().map(|(_, n)| *n).collect();
    into.resize(counts.len(), 0);
    for (total, n) in into.iter_mut().zip(counts) {
        *total += n;
    }
}

/// Fleet counters at one instant (shard values summed over shards).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Router: owner cache probes that hit.
    pub routed_hits: u64,
    /// Router: sibling sweeps that found the entry.
    pub peer_hits: u64,
    /// Router: sibling sweeps that found nothing.
    pub peer_misses: u64,
    /// Router: retries on another shard after a transport failure.
    pub upstream_retries: u64,
    /// Shards: `/extract` answers served from the cache.
    pub cache_hits: u64,
    /// Shards: `/extract` submissions that missed the cache.
    pub cache_misses: u64,
    /// Shards: `GET /cache` probes answered with an entry.
    pub cache_peer_hits: u64,
    /// Shards: `GET /cache` probes that found nothing.
    pub cache_peer_misses: u64,
    /// Shards: `request_latency` observations.
    pub requests: u64,
    /// Shards: `request_latency` total, ns.
    pub request_ns: u64,
    /// Shards: `request_latency` bucket counts.
    pub request_latency: Vec<u64>,
    /// Shards: `job_latency` bucket counts.
    pub job_latency: Vec<u64>,
}

impl Snapshot {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let buckets = |now: &[u64], then: &[u64]| -> Vec<u64> {
            now.iter()
                .enumerate()
                .map(|(i, n)| n - then.get(i).copied().unwrap_or(0))
                .collect()
        };
        Snapshot {
            routed_hits: self.routed_hits - earlier.routed_hits,
            peer_hits: self.peer_hits - earlier.peer_hits,
            peer_misses: self.peer_misses - earlier.peer_misses,
            upstream_retries: self.upstream_retries - earlier.upstream_retries,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_peer_hits: self.cache_peer_hits - earlier.cache_peer_hits,
            cache_peer_misses: self.cache_peer_misses - earlier.cache_peer_misses,
            requests: self.requests - earlier.requests,
            request_ns: self.request_ns - earlier.request_ns,
            request_latency: buckets(&self.request_latency, &earlier.request_latency),
            job_latency: buckets(&self.job_latency, &earlier.job_latency),
        }
    }
}

/// Spreads a histogram's bucket counts evenly across each bucket's
/// `(lower, upper]` range, in milliseconds, so percentiles of the result
/// interpolate inside buckets instead of snapping to their bounds. The
/// open `+Inf` bucket is spread over `(10 s, 20 s]`.
pub fn bucket_samples_ms(counts: &[u64]) -> Vec<f64> {
    let bounds = Histogram::bucket_bounds_us();
    let mut samples = Vec::new();
    let mut lower = 0.0;
    for (i, &n) in counts.iter().enumerate() {
        let upper = bounds.get(i).map_or(2.0 * lower, |&us| us as f64);
        for j in 0..n {
            samples.push((lower + (upper - lower) * (j as f64 + 0.5) / n as f64) / 1e3);
        }
        lower = upper;
    }
    samples
}
