//! Service telemetry: lock-free counters and latency histograms with a
//! Prometheus-style text exposition on `GET /metrics`.
//!
//! Counters are plain relaxed atomics — every hot-path touch is one
//! `fetch_add`. Histograms use fixed log-spaced buckets so p50/p95/p99
//! can be read off the cumulative counts without the server retaining
//! per-request samples. Per-stage extraction latencies are fed from the
//! [`fastvg_core::api::StageTiming`]s each completed job reports, which
//! makes the paper's per-stage cost profile (§4) observable on a live
//! daemon, not just in offline benches.

use fastvg_core::api::StageTiming;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A monotonically increasing counter (relaxed atomics — telemetry does
/// not need ordering).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (µs) of the latency buckets, log-spaced from 50 µs to
/// 10 s. An implicit `+Inf` bucket catches the rest.
const BUCKET_BOUNDS_US: [u64; 16] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

/// A fixed-bucket latency histogram.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total observed time.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed))
    }

    /// The shared bucket layout: upper bounds in µs, log-spaced; an
    /// implicit `+Inf` bucket follows the last bound.
    pub fn bucket_bounds_us() -> &'static [u64] {
        &BUCKET_BOUNDS_US
    }

    /// Snapshot of `(upper_bound_us, count)` per bucket, `None` for the
    /// final `+Inf` bucket. Counts are per-bucket, not cumulative.
    pub fn buckets(&self) -> Vec<(Option<u64>, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, bucket)| {
                (
                    BUCKET_BOUNDS_US.get(i).copied(),
                    bucket.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Appends the exposition lines for a histogram named `name`.
    /// Public so `fastvg-router` renders its proxy-latency histogram in
    /// the same format.
    pub fn render(&self, name: &str, labels: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = match BUCKET_BOUNDS_US.get(i) {
                Some(&us) => format!("{}", us as f64 / 1e6),
                None => "+Inf".to_string(),
            };
            let sep = if labels.is_empty() { "" } else { "," };
            out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        out.push_str(&format!(
            "{name}_sum{braces} {}\n",
            self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
        ));
        out.push_str(&format!("{name}_count{braces} {}\n", self.count()));
    }
}

/// Appends the `# HELP` / `# TYPE` preamble for a metric family. Every
/// family in an exposition gets exactly one preamble, before its first
/// sample line. Public so `fastvg-router` (and ad-hoc lines appended
/// outside [`Metrics::render`]) emit the same format.
pub fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Appends the `fastvg_build_info` gauge: a constant `1` carrying the
/// crate version and git revision as labels — the standard Prometheus
/// idiom for joining fleet telemetry against deploy metadata. `git`
/// comes from the `FASTVG_GIT` env var each daemon/router `build.rs`
/// stamps at compile time.
pub fn render_build_info(out: &mut String, version: &str, git: &str) {
    family(
        out,
        "fastvg_build_info",
        "gauge",
        "Build metadata as labels; value is always 1.",
    );
    out.push_str(&format!(
        "fastvg_build_info{{version=\"{version}\",git=\"{git}\"}} 1\n"
    ));
}

/// Appends the multiplexed-backend contention families from a
/// [`ChannelPool`](qd_instrument::ChannelPool) snapshot: per-channel
/// stall time (virtual, in seconds), acquire outcomes
/// (`clean`/`stalled`) and the used-over-horizon busy fraction.
pub fn render_mux(stats: &qd_instrument::MuxStats, out: &mut String) {
    family(
        out,
        "fastvg_mux_channel_wait_seconds_total",
        "counter",
        "Virtual time sessions stalled waiting for scheduled dwell slots, per channel.",
    );
    let slot = stats.slot.as_secs_f64();
    for c in &stats.channels {
        out.push_str(&format!(
            "fastvg_mux_channel_wait_seconds_total{{chan=\"{}\"}} {}\n",
            c.chan,
            c.wait_slots as f64 * slot
        ));
    }
    family(
        out,
        "fastvg_mux_acquire_total",
        "counter",
        "Dwell-slot acquisitions per channel, by outcome (clean = at the session's own pace).",
    );
    for c in &stats.channels {
        for (outcome, value) in [("clean", c.clean), ("stalled", c.stalled)] {
            out.push_str(&format!(
                "fastvg_mux_acquire_total{{chan=\"{}\",outcome=\"{outcome}\"}} {value}\n",
                c.chan
            ));
        }
    }
    family(
        out,
        "fastvg_mux_channel_busy_fraction",
        "gauge",
        "Used dwell slots over the channel's schedule horizon (1 = perfectly packed).",
    );
    for c in &stats.channels {
        out.push_str(&format!(
            "fastvg_mux_channel_busy_fraction{{chan=\"{}\"}} {}\n",
            c.chan,
            c.busy_fraction()
        ));
    }
}

/// All the daemon's telemetry, shared by every connection worker and the
/// scheduler.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `POST /extract` requests accepted for parsing.
    pub requests_extract: Counter,
    /// `GET /jobs/<id>` requests.
    pub requests_jobs: Counter,
    /// `GET /healthz` requests.
    pub requests_healthz: Counter,
    /// `GET /metrics` requests.
    pub requests_metrics: Counter,
    /// Requests answered with a 4xx status.
    pub http_4xx: Counter,
    /// Requests answered with a 5xx status.
    pub http_5xx: Counter,
    /// Jobs accepted into the queue.
    pub jobs_submitted: Counter,
    /// Jobs that finished with a report.
    pub jobs_completed: Counter,
    /// Jobs that finished with an extraction failure.
    pub jobs_failed: Counter,
    /// Submissions rejected because the queue was full.
    pub queue_rejected: Counter,
    /// Jobs currently waiting in the queue.
    pub queue_depth: Gauge,
    /// Workers currently running a job.
    pub jobs_running: Gauge,
    /// Jobs that panicked, each finished with category `internal`.
    pub job_panics: Counter,
    /// Results served from the cache.
    pub cache_hits: Counter,
    /// Submissions that missed the cache.
    pub cache_misses: Counter,
    /// Entries currently cached.
    pub cache_entries: Gauge,
    /// `GET /cache/<fingerprint>` peer probes answered with an entry.
    pub cache_peer_hits: Counter,
    /// `GET /cache/<fingerprint>` peer probes that found nothing.
    pub cache_peer_misses: Counter,
    /// Entries seeded by a peer via `PUT /cache/<fingerprint>`.
    pub cache_seeds: Counter,
    /// Wall-clock latency of `POST /extract` handling (including waits).
    pub request_latency: Histogram,
    /// End-to-end job latency, submit → finished.
    pub job_latency: Histogram,
    /// Per-extraction-stage latency, fed from each report's
    /// [`StageTiming`]s.
    stage_latency: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Metrics {
    /// Folds one finished job's per-stage timings in.
    pub fn observe_stages(&self, stages: &[StageTiming]) {
        let mut map = self.stage_latency.lock().expect("metrics poisoned");
        for timing in stages {
            map.entry(timing.stage.name())
                .or_default()
                .observe(timing.elapsed);
        }
    }

    /// The `GET /metrics` exposition document. Each family carries one
    /// `# HELP` / `# TYPE` preamble ahead of its sample lines, per the
    /// Prometheus text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        family(
            &mut out,
            "fastvg_requests_total",
            "counter",
            "Requests received, by route.",
        );
        for (route, value) in [
            ("extract", self.requests_extract.get()),
            ("jobs", self.requests_jobs.get()),
            ("healthz", self.requests_healthz.get()),
            ("metrics", self.requests_metrics.get()),
        ] {
            out.push_str(&format!(
                "fastvg_requests_total{{route=\"{route}\"}} {value}\n"
            ));
        }
        family(
            &mut out,
            "fastvg_http_responses_total",
            "counter",
            "Error responses sent, by status class.",
        );
        for (class, value) in [("4xx", self.http_4xx.get()), ("5xx", self.http_5xx.get())] {
            out.push_str(&format!(
                "fastvg_http_responses_total{{class=\"{class}\"}} {value}\n"
            ));
        }
        family(
            &mut out,
            "fastvg_jobs_total",
            "counter",
            "Job lifecycle events, by state.",
        );
        for (state, value) in [
            ("submitted", self.jobs_submitted.get()),
            ("completed", self.jobs_completed.get()),
            ("failed", self.jobs_failed.get()),
            ("rejected", self.queue_rejected.get()),
        ] {
            out.push_str(&format!("fastvg_jobs_total{{state=\"{state}\"}} {value}\n"));
        }
        family(
            &mut out,
            "fastvg_cache_requests_total",
            "counter",
            "Result-cache lookups on the extract path, by outcome.",
        );
        for (outcome, value) in [
            ("hit", self.cache_hits.get()),
            ("miss", self.cache_misses.get()),
        ] {
            out.push_str(&format!(
                "fastvg_cache_requests_total{{outcome=\"{outcome}\"}} {value}\n"
            ));
        }
        family(
            &mut out,
            "fastvg_cache_peer_requests_total",
            "counter",
            "Peer cache probes served (GET /cache/<fp>), by outcome.",
        );
        for (outcome, value) in [
            ("peer_hit", self.cache_peer_hits.get()),
            ("peer_miss", self.cache_peer_misses.get()),
        ] {
            out.push_str(&format!(
                "fastvg_cache_peer_requests_total{{outcome=\"{outcome}\"}} {value}\n"
            ));
        }
        family(
            &mut out,
            "fastvg_cache_seeds_total",
            "counter",
            "Cache entries planted by peers via PUT /cache/<fp>.",
        );
        out.push_str(&format!(
            "fastvg_cache_seeds_total {}\n",
            self.cache_seeds.get()
        ));
        family(
            &mut out,
            "fastvg_cache_entries",
            "gauge",
            "Entries currently in the result cache.",
        );
        out.push_str(&format!(
            "fastvg_cache_entries {}\n",
            self.cache_entries.get()
        ));
        family(
            &mut out,
            "fastvg_queue_depth",
            "gauge",
            "Jobs waiting in the submission queue.",
        );
        out.push_str(&format!("fastvg_queue_depth {}\n", self.queue_depth.get()));
        family(
            &mut out,
            "fastvg_jobs_running",
            "gauge",
            "Extraction workers currently running a job.",
        );
        out.push_str(&format!(
            "fastvg_jobs_running {}\n",
            self.jobs_running.get()
        ));
        family(
            &mut out,
            "fastvg_job_panics_total",
            "counter",
            "Jobs that panicked and finished with category internal.",
        );
        out.push_str(&format!(
            "fastvg_job_panics_total {}\n",
            self.job_panics.get()
        ));
        family(
            &mut out,
            "fastvg_request_latency_seconds",
            "histogram",
            "Wall-clock latency of POST /extract handling.",
        );
        self.request_latency
            .render("fastvg_request_latency_seconds", "", &mut out);
        family(
            &mut out,
            "fastvg_job_latency_seconds",
            "histogram",
            "End-to-end job latency, submit to finished.",
        );
        self.job_latency
            .render("fastvg_job_latency_seconds", "", &mut out);
        let stages = self.stage_latency.lock().expect("metrics poisoned");
        if !stages.is_empty() {
            // One preamble for the whole family, not one per label set.
            family(
                &mut out,
                "fastvg_stage_latency_seconds",
                "histogram",
                "Per-extraction-stage latency from completed jobs.",
            );
        }
        for (stage, histogram) in stages.iter() {
            histogram.render(
                "fastvg_stage_latency_seconds",
                &format!("stage=\"{stage}\""),
                &mut out,
            );
        }
        out
    }

    /// The cache hit rate so far (`None` before any lookup).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits = self.cache_hits.get();
        let total = hits + self.cache_misses.get();
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastvg_core::api::Stage;

    #[test]
    fn counters_and_gauges() {
        let m = Metrics::default();
        m.requests_extract.inc();
        m.requests_extract.add(2);
        m.queue_depth.set(5);
        assert_eq!(m.requests_extract.get(), 3);
        assert_eq!(m.queue_depth.get(), 5);
    }

    #[test]
    fn histogram_buckets_count_by_upper_bound() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.observe(Duration::from_micros(80));
        }
        h.observe(Duration::from_millis(40));
        let filled: Vec<_> = h.buckets().into_iter().filter(|&(_, n)| n > 0).collect();
        assert_eq!(filled, vec![(Some(100), 99), (Some(50_000), 1)]);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn exposition_contains_every_family() {
        let m = Metrics::default();
        m.requests_extract.inc();
        m.cache_misses.inc();
        m.cache_peer_hits.inc();
        m.cache_seeds.inc();
        m.request_latency.observe(Duration::from_micros(300));
        m.observe_stages(&[StageTiming {
            stage: Stage::Anchors,
            probes: 12,
            elapsed: Duration::from_micros(90),
        }]);
        let text = m.render();
        for needle in [
            "fastvg_requests_total{route=\"extract\"} 1",
            "fastvg_cache_requests_total{outcome=\"miss\"} 1",
            "fastvg_cache_peer_requests_total{outcome=\"peer_hit\"} 1",
            "fastvg_cache_peer_requests_total{outcome=\"peer_miss\"} 0",
            "fastvg_cache_seeds_total 1",
            "fastvg_queue_depth 0",
            "fastvg_job_panics_total 0",
            "fastvg_request_latency_seconds_bucket",
            "fastvg_request_latency_seconds_count 1",
            "fastvg_stage_latency_seconds_bucket{stage=\"anchors\",le=",
            "fastvg_stage_latency_seconds_count{stage=\"anchors\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn hit_rate() {
        let m = Metrics::default();
        assert_eq!(m.cache_hit_rate(), None);
        m.cache_hits.add(3);
        m.cache_misses.add(1);
        assert_eq!(m.cache_hit_rate(), Some(0.75));
    }
}
