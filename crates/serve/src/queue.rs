//! The bounded job queue, job table, and per-job workers.
//!
//! `POST /extract` submissions land here as validated [`JobRequest`]s.
//! The [`Scheduler`] runs `jobs` long-lived workers. Each takes the
//! oldest pending job ([`JobQueue::take`]), *realizes* its scenario into
//! a pixel field (a spec's [`DeviceField`] computes only the pixels the
//! extractor probes), opens a session through the request's backend and
//! runs the same erased [`Extractor`] path every offline harness uses —
//! the daemon adds scheduling and caching, never a second extraction
//! code path. Jobs never wait for each other: a small job that starts
//! after a big one can finish first, and a job that arrives while a
//! worker is idle starts at once.
//!
//! A job that panics finishes as an uncached `ok:false` document with
//! the reserved category `internal`, counted by
//! `fastvg_job_panics_total`; its worker keeps serving.
//!
//! # Determinism
//!
//! Scenario specs carry their own seeds ([`qd_dataset::BenchmarkSpec`]),
//! generation derives per-job RNGs from them, and replay sessions are
//! pure, so resubmitting a request reproduces the same slopes, α
//! coefficients and probe counts bit-for-bit regardless of arrival order
//! or worker count — only wall-clock fields vary. That is what makes
//! result caching sound.

use crate::cache::{ResultCache, SharedResult};
use crate::metrics::Metrics;
use fastvg_core::api::{extract_with, ExtractionReport, Extractor, Stage, StageTiming};
use fastvg_core::baseline::HoughBaseline;
use fastvg_core::extraction::FastExtractor;
use fastvg_core::report::Method;
use fastvg_core::tuning::TuningLoop;
use fastvg_core::ExtractError;
use fastvg_obs::{SpanId, TraceId, Tracer};
use fastvg_wire::{Json, TraceContext};
use qd_csd::Csd;
use qd_dataset::{BenchmarkSpec, DeviceField};
use qd_instrument::{SourceBackend, SourceScenario};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one job extracts: a scenario to realize into a pixel field.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// Generate a synthetic device from a (seeded) spec.
    Spec(BenchmarkSpec),
    /// Replay an inline charge stability diagram, shared with every job
    /// that probes it.
    Grid(Arc<Csd>),
}

impl Scenario {
    /// The field the job probes, with the generation seed (0 for inline
    /// grids) that recording backends tape. A spec becomes a
    /// [`DeviceField`], which computes only the pixels the extractor
    /// reads; it is deterministic in the spec's seed, so it does not
    /// matter which worker runs it. An inline grid is shared, not copied.
    fn realize(&self) -> Result<SourceScenario, String> {
        match self {
            Scenario::Spec(spec) => DeviceField::new(spec)
                .map(|field| SourceScenario::new(field).with_seed(spec.seed))
                .map_err(|e| e.to_string()),
            Scenario::Grid(csd) => Ok(SourceScenario::new(Arc::clone(csd))),
        }
    }
}

/// A validated submission: the scenario, the method to run, the probe
/// backend realizing it, and the canonical form + fingerprint the
/// result cache is keyed by.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// What to extract.
    pub scenario: Scenario,
    /// Which method to run.
    pub method: Method,
    /// The probe backend the scenario is measured through — the
    /// daemon's default, or the request's validated `"backend"` member.
    pub backend: Arc<dyn SourceBackend>,
    /// [`fastvg_wire::fnv1a64`] of [`JobRequest::canonical`].
    pub fingerprint: u64,
    /// The canonical request document (sorted keys, resolved spec,
    /// canonical backend string).
    pub canonical: String,
    /// Trace context of the originating request (the daemon's request
    /// span), when the request is being traced. The scheduler parents
    /// its queue-wait / extract / stage spans to it. Deliberately *not*
    /// part of the canonical form: tracing never splits cache entries.
    pub trace: Option<TraceContext>,
}

/// A finished job's outcome: the serialized, newline-framed result
/// document — exactly the bytes a cache hit will replay.
#[derive(Debug, Clone)]
pub struct FinishedJob {
    /// Whether extraction succeeded (`"ok": true` in the document).
    pub ok: bool,
    /// Whether this outcome was served from the result cache.
    pub cache_hit: bool,
    /// The result document bytes, one allocation shared by the job
    /// table, completion callbacks and the result cache.
    pub body: Arc<[u8]>,
}

impl FinishedJob {
    /// The wire token for this outcome — `done` or `failed`, carried in
    /// the `x-fastvg-status` header of finished-job responses.
    pub fn status_name(&self) -> &'static str {
        if self.ok {
            "done"
        } else {
            "failed"
        }
    }
}

/// Where a job currently is.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Being run by a worker.
    Running,
    /// Finished (result or failure).
    Finished(FinishedJob),
}

impl JobState {
    /// The wire token for status documents and headers.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished(finished) => finished.status_name(),
        }
    }
}

struct JobEntry {
    state: JobState,
    /// Taken by the worker that runs the job. Boxed so the
    /// thousands of finished entries the table remembers stay small.
    request: Option<Box<JobRequest>>,
    submitted: Instant,
}

/// A one-shot completion subscription (see [`JobQueue::on_finished`]):
/// invoked with `Some(outcome)` when the job finishes, `None` if the
/// queue stops first.
pub type FinishedCallback = Box<dyn FnOnce(Option<FinishedJob>) + Send>;

struct QueueInner {
    pending: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    finished_order: VecDeque<u64>,
    watchers: HashMap<u64, Vec<FinishedCallback>>,
    stopping: bool,
}

/// The bounded submission queue plus the job table behind
/// `GET /jobs/<id>`.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    capacity: usize,
    retain_finished: usize,
    next_id: AtomicU64,
}

/// The queue refused a submission because it is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("job queue at capacity")
    }
}

impl std::error::Error for QueueFull {}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .finish_non_exhaustive()
    }
}

impl JobQueue {
    /// An empty queue holding at most `capacity` pending jobs and
    /// remembering the last `retain_finished` finished ones.
    pub fn new(capacity: usize, retain_finished: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                jobs: HashMap::new(),
                finished_order: VecDeque::new(),
                watchers: HashMap::new(),
                stopping: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            retain_finished: retain_finished.max(1),
            next_id: AtomicU64::new(1),
        }
    }

    fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Enqueues a job, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when `capacity` jobs are already pending or
    /// the queue is stopping (a stopping scheduler would never run the
    /// job, so admitting it would strand the client).
    pub fn submit(&self, request: JobRequest) -> Result<u64, QueueFull> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.pending.len() >= self.capacity || inner.stopping {
            return Err(QueueFull);
        }
        let id = self.allocate_id();
        inner.jobs.insert(
            id,
            JobEntry {
                state: JobState::Queued,
                request: Some(Box::new(request)),
                submitted: Instant::now(),
            },
        );
        inner.pending.push_back(id);
        drop(inner);
        self.cv.notify_all();
        Ok(id)
    }

    /// Registers a job that is already finished (cache hits), so
    /// `GET /jobs/<id>` works uniformly.
    pub fn insert_finished(&self, finished: FinishedJob) -> u64 {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let id = self.allocate_id();
        inner.jobs.insert(
            id,
            JobEntry {
                state: JobState::Finished(finished),
                request: None,
                submitted: Instant::now(),
            },
        );
        Self::remember_finished(&mut inner, id, self.retain_finished);
        id
    }

    fn remember_finished(inner: &mut QueueInner, id: u64, retain: usize) {
        inner.finished_order.push_back(id);
        while inner.finished_order.len() > retain {
            if let Some(old) = inner.finished_order.pop_front() {
                inner.jobs.remove(&old);
            }
        }
    }

    /// The current state of a job, if it is still remembered.
    pub fn status(&self, id: u64) -> Option<JobState> {
        let inner = self.inner.lock().expect("queue poisoned");
        inner.jobs.get(&id).map(|entry| entry.state.clone())
    }

    /// Takes the oldest pending job (blocking while the queue is empty)
    /// and marks it running. Returns `None` once the queue is stopping
    /// and drained — a worker's exit condition.
    pub fn take(&self) -> Option<(u64, JobRequest, Instant)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(id) = inner.pending.pop_front() {
                let entry = inner.jobs.get_mut(&id).expect("pending job in table");
                entry.state = JobState::Running;
                let request = entry.request.take().expect("queued job has request");
                return Some((id, *request, entry.submitted));
            }
            if inner.stopping {
                return None;
            }
            inner = self.cv.wait(inner).expect("queue poisoned");
        }
    }

    /// Records a job's outcome and fires its
    /// [`JobQueue::on_finished`] subscriptions.
    pub fn finish(&self, id: u64, finished: FinishedJob) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let mut fire: Vec<FinishedCallback> = Vec::new();
        if let Some(entry) = inner.jobs.get_mut(&id) {
            entry.state = JobState::Finished(finished.clone());
            Self::remember_finished(&mut inner, id, self.retain_finished);
            if let Some(watchers) = inner.watchers.remove(&id) {
                fire = watchers;
            }
        }
        drop(inner);
        // Callbacks run outside the queue lock: they may grab other locks
        // (the reactor's completion list) or be arbitrarily slow.
        for callback in fire {
            callback(Some(finished.clone()));
        }
    }

    /// Subscribes a one-shot callback for job `id` (this is how the
    /// reactor's deferred `?wait` responses get completed). The callback
    /// fires on whichever thread resolves the job:
    ///
    /// * immediately on this thread if the job already finished (or is
    ///   unknown / the queue is stopping — then with `None`);
    /// * on the finishing worker thread from [`JobQueue::finish`];
    /// * on the stopping thread from [`JobQueue::stop`], with `None`.
    pub fn on_finished(&self, id: u64, callback: FinishedCallback) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let immediate: Option<Option<FinishedJob>> = match inner.jobs.get(&id) {
            Some(JobEntry {
                state: JobState::Finished(finished),
                ..
            }) => Some(Some(finished.clone())),
            None => Some(None),
            Some(_) if inner.stopping => Some(None),
            Some(_) => None,
        };
        match immediate {
            Some(outcome) => {
                drop(inner);
                callback(outcome);
            }
            None => {
                inner.watchers.entry(id).or_default().push(callback);
            }
        }
    }

    /// Pending jobs waiting for a worker.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue poisoned").pending.len()
    }

    /// Starts the shutdown: wakes every worker, and fires outstanding
    /// [`JobQueue::on_finished`] subscriptions with `None` so parked
    /// connections fall back instead of hanging out the full wait
    /// timeout.
    pub fn stop(&self) {
        let fire: Vec<FinishedCallback> = {
            let mut inner = self.inner.lock().expect("queue poisoned");
            inner.stopping = true;
            inner.watchers.drain().flat_map(|(_, v)| v).collect()
        };
        self.cv.notify_all();
        for callback in fire {
            callback(None);
        }
    }
}

/// Serializes a successful extraction into the newline-framed result
/// document (`{"ok":true,"report":{…}}`).
pub fn result_body(report: &ExtractionReport) -> Vec<u8> {
    let mut body = Json::object()
        .field("ok", true)
        .field("report", report.to_json())
        .build()
        .dump();
    body.push('\n');
    body.into_bytes()
}

/// Serializes an extraction failure into the newline-framed result
/// document (`{"ok":false,"error":{…}}`), flattening the taxonomy chain.
pub fn failure_body(error: &ExtractError) -> Vec<u8> {
    let mut body = Json::object()
        .field("ok", false)
        .field("error", error.to_wire().to_json())
        .build()
        .dump();
    body.push('\n');
    body.into_bytes()
}

/// Serializes a failure outside the extraction taxonomy into the
/// newline-framed result document, with an empty chain. The daemon uses
/// two reserved categories: `"request"` for protocol-level failures
/// (invalid request, scenario realization, backend open, queue
/// administration) and `"internal"` for a job that panicked.
pub fn reserved_failure_body(category: &str, message: &str) -> Vec<u8> {
    let mut body = Json::object()
        .field("ok", false)
        .field(
            "error",
            Json::object()
                .field("category", category)
                .field("message", message)
                .field("chain", Vec::<Json>::new())
                .build(),
        )
        .build()
        .dump();
    body.push('\n');
    body.into_bytes()
}

/// The scheduler: `jobs` long-lived workers, each taking one job at a
/// time from the queue and running it through the erased [`Extractor`]
/// path.
pub struct Scheduler {
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    jobs: usize,
    tracer: Option<Arc<Tracer>>,
}

impl Scheduler {
    /// A scheduler over the shared queue/cache/metrics, running `jobs`
    /// workers (`0` = one per core).
    pub fn new(
        queue: Arc<JobQueue>,
        cache: Arc<ResultCache>,
        metrics: Arc<Metrics>,
        jobs: usize,
    ) -> Self {
        Self {
            queue,
            cache,
            metrics,
            jobs: if jobs == 0 {
                mini_rayon::available_workers()
            } else {
                jobs
            },
            tracer: None,
        }
    }

    /// Attaches the daemon's tracer: jobs carrying a
    /// [`JobRequest::trace`] context get queue-wait / extract / stage
    /// spans minted when they finish.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Runs until [`JobQueue::stop`] and the queue drains — the scheduler
    /// thread's body. The calling thread is worker 0; `jobs − 1` more run
    /// beside it.
    pub fn run(self) {
        std::thread::scope(|scope| {
            for _ in 1..self.jobs {
                scope.spawn(|| self.work());
            }
            self.work();
        });
    }

    /// One worker: take a job, run it, finish it, until the queue stops.
    fn work(&self) {
        while let Some((id, request, submitted)) = self.queue.take() {
            let picked = Instant::now();
            self.metrics.queue_depth.set(self.queue.depth() as u64);
            self.metrics.jobs_running.inc();
            let label = format!("job{id}");
            let ran = panic::catch_unwind(AssertUnwindSafe(|| run_job(&request, &label)))
                .unwrap_or_else(|payload| {
                    self.metrics.job_panics.inc();
                    let message = format!("job panicked: {}", panic_message(&*payload));
                    JobOutcome::failed("internal", message, false)
                });
            self.trace_job(&request, submitted, picked, &ran);
            if ran.cacheable {
                self.finish(id, &request, submitted, ran.finished, ran.stages.as_deref());
            } else {
                self.finish_uncached(id, submitted, ran.finished);
            }
            self.metrics.jobs_running.dec();
        }
    }

    /// Mints the scheduler-side spans for one finished traced job:
    /// `queue_wait` (submit → worker pickup) and, when extraction ran,
    /// `extract` (the extractor's wall time) plus one child span per
    /// extraction stage laid out sequentially inside it. Realization and
    /// backend open fill the gap between the two. Stage spans are
    /// re-exported from the Observer-derived [`StageTiming`]s each report
    /// carries — the pipeline itself is not re-instrumented. Spans are
    /// backdated from wall-clock "now" to the submit instant.
    fn trace_job(
        &self,
        request: &JobRequest,
        submitted: Instant,
        picked: Instant,
        ran: &JobOutcome,
    ) {
        let (Some(tracer), Some(ctx)) = (self.tracer.as_ref(), request.trace) else {
            return;
        };
        let trace = TraceId(ctx.trace);
        let parent = Some(SpanId(ctx.span));
        let since_submit = |at: Instant| at.duration_since(submitted).as_micros() as u64;
        let submit_us =
            fastvg_obs::unix_us().saturating_sub(submitted.elapsed().as_micros() as u64);
        tracer.emit(
            trace,
            parent,
            "queue_wait",
            submit_us,
            since_submit(picked),
            Vec::new(),
        );
        let Some((started, wall)) = ran.extract else {
            return;
        };
        let extract_start_us = submit_us + since_submit(started);
        let extract = tracer.emit(
            trace,
            parent,
            "extract",
            extract_start_us,
            wall.as_micros() as u64,
            vec![("method", request.method.wire_name().to_string())],
        );
        let mut cursor = extract_start_us;
        for timing in ran.stages.as_deref().unwrap_or(&[]) {
            let dur = timing.elapsed.as_micros() as u64;
            // Channel-wait is virtual time overlapping the real stages
            // (the session stalls *inside* its sweeps), so its span is
            // an overlay child at the extract start, not a slice of the
            // sequential stage tiling.
            if timing.stage == Stage::ChannelWait {
                tracer.emit(
                    trace,
                    Some(extract),
                    timing.stage.name(),
                    extract_start_us,
                    dur,
                    vec![("stalled_probes", timing.probes.to_string())],
                );
                continue;
            }
            tracer.emit(
                trace,
                Some(extract),
                timing.stage.name(),
                cursor,
                dur,
                vec![("probes", timing.probes.to_string())],
            );
            cursor += dur;
        }
    }

    fn finish(
        &self,
        id: u64,
        request: &JobRequest,
        submitted: Instant,
        finished: FinishedJob,
        stages: Option<&[StageTiming]>,
    ) {
        if let Some(stages) = stages {
            self.metrics.observe_stages(stages);
        }
        // Extraction and realization failures are cached too: they are
        // as deterministic as results. (Environmental failures go
        // through `finish_uncached` instead.)
        self.cache.insert_shared(
            request.fingerprint,
            &request.canonical,
            SharedResult {
                body: Arc::clone(&finished.body),
                ok: finished.ok,
            },
        );
        self.metrics.cache_entries.set(self.cache.len() as u64);
        self.finish_uncached(id, submitted, finished);
    }

    /// [`Scheduler::finish`] without the cache insert — for failures
    /// that depend on the daemon's environment rather than the request.
    fn finish_uncached(&self, id: u64, submitted: Instant, finished: FinishedJob) {
        if finished.ok {
            self.metrics.jobs_completed.inc();
        } else {
            self.metrics.jobs_failed.inc();
        }
        self.metrics.job_latency.observe(submitted.elapsed());
        self.queue.finish(id, finished);
    }
}

/// What one run of [`run_job`] produced.
struct JobOutcome {
    finished: FinishedJob,
    /// Whether the outcome is deterministic in the request, and so may
    /// be cached. Backend-open failures and panics are environmental.
    cacheable: bool,
    /// The report's stage timings, plus the channel-wait stage when the
    /// backend multiplexes; `None` when no report was produced.
    stages: Option<Vec<StageTiming>>,
    /// When extraction started and how long it ran; `None` when the job
    /// failed before extracting.
    extract: Option<(Instant, Duration)>,
}

impl JobOutcome {
    /// A failure outside the extraction taxonomy (see
    /// [`reserved_failure_body`]).
    fn failed(category: &str, message: String, cacheable: bool) -> Self {
        Self {
            finished: FinishedJob {
                ok: false,
                cache_hit: false,
                body: reserved_failure_body(category, &message).into(),
            },
            cacheable,
            stages: None,
            extract: None,
        }
    }
}

/// Runs one job on the calling thread — the single path every daemon
/// job takes: realize the scenario, pick the method's extractor, open a
/// session through the request's backend under `label`, extract,
/// serialize, then account any shared-channel stall as a `channel-wait`
/// stage.
fn run_job(request: &JobRequest, label: &str) -> JobOutcome {
    let scenario = match request.scenario.realize() {
        Ok(scenario) => scenario.with_label(label),
        Err(message) => return JobOutcome::failed("request", message, true),
    };
    let extractor: Box<dyn Extractor> = match request.method {
        Method::FastExtraction => Box::new(FastExtractor::new()),
        Method::HoughBaseline => Box::new(HoughBaseline::new()),
        Method::TunedFast => Box::new(TuningLoop::new()),
        // Defensive: `Method` is non-exhaustive, and a hung job would pin
        // its waiter until the timeout.
        other => {
            return JobOutcome::failed("request", format!("method {other} not servable"), true)
        }
    };
    let mut session = match request.backend.session(scenario) {
        Ok(session) => session,
        // Open failures are environmental (a tape missing *right now*, a
        // directory briefly unwritable), not deterministic properties of
        // the request — keep them out of the result cache so a fixed
        // environment serves fresh runs.
        Err(e) => return JobOutcome::failed("request", format!("backend open failed: {e}"), false),
    };
    let started = Instant::now();
    let outcome = extract_with(extractor.as_ref(), &mut session);
    let wall = started.elapsed();
    // Dropping the session files its shared-channel stall summary (if
    // its backend multiplexes); drain it whether or not extraction
    // succeeded, so the pool's finished-session ledger stays tidy.
    drop(session);
    let channel_wait = request
        .backend
        .channel_pool()
        .and_then(|pool| pool.take_session_wait(label));
    let (ok, body, mut stages) = match outcome {
        Ok(report) => (true, result_body(&report), Some(report.stages)),
        Err(error) => (false, failure_body(&error), None),
    };
    // Appended *after* `result_body(&report)` serialized the response:
    // the synthetic stage feeds metrics histograms and trace waterfalls
    // only — cached and wire bytes stay bit-identical to an
    // unmultiplexed run.
    if let (Some(stages), Some(wait)) = (stages.as_mut(), channel_wait) {
        stages.push(StageTiming {
            stage: Stage::ChannelWait,
            probes: wait.stalled as usize,
            elapsed: wait.wait,
        });
    }
    JobOutcome {
        finished: FinishedJob {
            ok,
            cache_hit: false,
            body: body.into(),
        },
        cacheable: true,
        stages,
        extract: Some((started, wall)),
    }
}

/// The message a panic was raised with, when it carries one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use qd_instrument::{BackendError, BoxedSource};
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    fn request(seed: u64) -> JobRequest {
        let mut spec = BenchmarkSpec::clean(0, 64);
        spec.seed = seed;
        let canonical = spec.to_json().canonical();
        JobRequest {
            fingerprint: fastvg_wire::fnv1a64(canonical.as_bytes()),
            canonical,
            scenario: Scenario::Spec(spec),
            method: Method::FastExtraction,
            backend: Arc::new(qd_instrument::SimBackend),
            trace: None,
        }
    }

    #[test]
    fn queue_respects_capacity_and_order() {
        let q = JobQueue::new(2, 16);
        let a = q.submit(request(1)).unwrap();
        let b = q.submit(request(2)).unwrap();
        assert_eq!(q.submit(request(3)).unwrap_err(), QueueFull);
        assert_eq!(q.depth(), 2);
        let ids = [q.take().unwrap().0, q.take().unwrap().0];
        assert_eq!(ids, [a, b], "arrival order preserved");
        assert_eq!(q.depth(), 0);
        assert!(matches!(q.status(a), Some(JobState::Running)));
    }

    /// Waits up to a minute for job `id` to finish, through
    /// [`JobQueue::on_finished`] as the daemon's `?wait` does.
    fn wait_for(queue: &JobQueue, id: u64) -> FinishedJob {
        let (tx, rx) = mpsc::channel();
        queue.on_finished(
            id,
            Box::new(move |finished| {
                let _ = tx.send(finished);
            }),
        );
        rx.recv_timeout(Duration::from_secs(60))
            .expect("job resolves in time")
            .expect("job finishes")
    }

    #[test]
    fn finish_wakes_waiters_and_is_observable() {
        let q = Arc::new(JobQueue::new(8, 16));
        let id = q.submit(request(7)).unwrap();
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || wait_for(&q, id))
        };
        let (taken, _, _) = q.take().unwrap();
        q.finish(
            taken,
            FinishedJob {
                ok: true,
                cache_hit: false,
                body: b"{}\n".as_slice().into(),
            },
        );
        let finished = waiter.join().unwrap();
        assert!(finished.ok);
        assert!(matches!(q.status(id), Some(JobState::Finished(_))));
        assert_eq!(q.status(id).unwrap().name(), "done");
    }

    #[test]
    fn take_drains_then_stop_unblocks() {
        let q = Arc::new(JobQueue::new(8, 16));
        q.submit(request(9)).unwrap();
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.take())
        };
        // take first drains the one pending job…
        assert!(blocked.join().unwrap().is_some());
        // …then stop() makes the next take return None.
        q.stop();
        assert!(q.take().is_none());
    }

    #[test]
    fn on_finished_fires_at_finish_immediately_and_on_stop() {
        let q = Arc::new(JobQueue::new(8, 16));
        let outcomes: Arc<Mutex<Vec<(&'static str, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let record = |label: &'static str| {
            let outcomes = Arc::clone(&outcomes);
            Box::new(move |finished: Option<FinishedJob>| {
                outcomes.lock().unwrap().push((label, finished.is_some()));
            })
        };

        // Subscribed before the job resolves: fires from finish().
        let id = q.submit(request(11)).unwrap();
        q.on_finished(id, record("pending"));
        assert!(outcomes.lock().unwrap().is_empty(), "not fired yet");
        let (taken, _, _) = q.take().unwrap();
        q.finish(
            taken,
            FinishedJob {
                ok: true,
                cache_hit: false,
                body: b"{}\n".as_slice().into(),
            },
        );
        // Already finished: fires inline. Unknown id: fires inline with None.
        q.on_finished(id, record("done"));
        q.on_finished(424242, record("unknown"));
        // Still-queued watcher at stop(): fired with None.
        let parked = q.submit(request(12)).unwrap();
        q.on_finished(parked, record("stopped"));
        q.stop();

        let seen = outcomes.lock().unwrap().clone();
        assert_eq!(
            seen,
            vec![
                ("pending", true),
                ("done", true),
                ("unknown", false),
                ("stopped", false),
            ]
        );
        // Stopping queues refuse new work instead of stranding it.
        assert_eq!(q.submit(request(13)).unwrap_err(), QueueFull);
    }

    #[test]
    fn finished_jobs_are_garbage_collected() {
        let q = JobQueue::new(64, 2);
        let first = q.insert_finished(FinishedJob {
            ok: true,
            cache_hit: true,
            body: b"1".as_slice().into(),
        });
        for _ in 0..2 {
            q.insert_finished(FinishedJob {
                ok: true,
                cache_hit: true,
                body: b"x".as_slice().into(),
            });
        }
        assert!(q.status(first).is_none(), "oldest finished job evicted");
    }

    /// A queue with a `jobs`-worker scheduler running behind it.
    fn scheduled(
        jobs: usize,
    ) -> (
        Arc<JobQueue>,
        Arc<ResultCache>,
        Arc<Metrics>,
        JoinHandle<()>,
    ) {
        let queue = Arc::new(JobQueue::new(16, 64));
        let cache = Arc::new(ResultCache::new(CacheConfig::default()));
        let metrics = Arc::new(Metrics::default());
        let scheduler = Scheduler::new(
            Arc::clone(&queue),
            Arc::clone(&cache),
            Arc::clone(&metrics),
            jobs,
        );
        let handle = std::thread::spawn(move || scheduler.run());
        (queue, cache, metrics, handle)
    }

    /// The `error` member of a failed job's result document.
    fn error_of(finished: &FinishedJob) -> Json {
        let doc = Json::parse(std::str::from_utf8(&finished.body).unwrap().trim()).unwrap();
        doc.get("error").cloned().expect("failure document")
    }

    #[test]
    fn scheduler_drains_and_caches() {
        let (queue, cache, metrics, handle) = scheduled(2);

        let ids: Vec<u64> = (0..3)
            .map(|k| queue.submit(request(100 + k)).unwrap())
            .collect();
        let outcomes: Vec<FinishedJob> = ids.iter().map(|&id| wait_for(&queue, id)).collect();
        for outcome in &outcomes {
            assert!(outcome.ok, "clean spec must extract");
            assert!(outcome.body.ends_with(b"\n"), "newline framing");
        }
        assert_eq!(metrics.jobs_completed.get(), 3);
        assert_eq!(cache.len(), 3, "every outcome cached");

        // The cache now replays the exact bytes, outcome attached, from
        // the same allocation the job table holds.
        let req = request(100);
        let cached = cache.get_shared(req.fingerprint, &req.canonical).unwrap();
        assert!(Arc::ptr_eq(&cached.body, &outcomes[0].body));
        assert!(cached.ok);

        queue.stop();
        handle.join().unwrap();
    }

    #[test]
    fn run_job_reproduces_reports_except_timing() {
        // Same request through run_job twice: slopes identical (timing
        // fields differ, so compare the parsed reports).
        let req = request(5);
        let (a, b) = (run_job(&req, "a"), run_job(&req, "b"));
        assert!(a.cacheable && a.extract.is_some());
        let (a, b) = (a.finished.body, b.finished.body);
        let parse = |bytes: &[u8]| {
            let doc = Json::parse(std::str::from_utf8(bytes).unwrap().trim()).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            ExtractionReport::from_json(doc.get("report").unwrap()).unwrap()
        };
        let (ra, rb) = (parse(&a), parse(&b));
        assert_eq!(ra.slope_h.to_bits(), rb.slope_h.to_bits());
        assert_eq!(ra.slope_v.to_bits(), rb.slope_v.to_bits());
        assert_eq!(ra.probes, rb.probes);
    }

    #[test]
    fn unrealizable_scenarios_fail_with_request_category() {
        let (queue, cache, metrics, handle) = scheduled(1);
        // Specs the generator rejects: lever arms that make the device
        // model singular, and a device that builds but whose transition
        // line is parallel to a gate axis — only the ground-truth check
        // catches that one, so a realization that skipped it would
        // extract (and cache) an answer instead.
        let mut singular = BenchmarkSpec::clean(0, 64);
        singular.lever_arms = [[0.01, 0.01], [0.01, 0.01]];
        let axis_parallel = Json::parse(r#"{"size":64,"lever_arms":[[1,0],[0,1]],"mutual":0}"#)
            .map(|doc| BenchmarkSpec::from_json(&doc).expect("the wire spec parses"))
            .unwrap();
        for (spec, reason) in [
            (singular, ""),
            (axis_parallel, "parallel to the gate_b axis"),
        ] {
            let canonical = spec.to_json().canonical();
            let req = JobRequest {
                fingerprint: fastvg_wire::fnv1a64(canonical.as_bytes()),
                canonical,
                scenario: Scenario::Spec(spec),
                ..request(0)
            };
            let id = queue.submit(req.clone()).unwrap();
            let finished = wait_for(&queue, id);
            assert!(!finished.ok);
            let error = error_of(&finished);
            assert_eq!(
                error.get("category").and_then(Json::as_str),
                Some("request")
            );
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(reason), "{message}");
            let cached = cache.get_shared(req.fingerprint, &req.canonical).unwrap();
            assert!(Arc::ptr_eq(&cached.body, &finished.body));
        }
        assert_eq!(metrics.jobs_failed.get(), 2);
        queue.stop();
        handle.join().unwrap();
    }

    /// A backend whose `open` panics: a stand-in for any bug in a job.
    struct PanickingBackend;

    impl SourceBackend for PanickingBackend {
        fn scheme(&self) -> &str {
            "panicking"
        }

        fn describe(&self) -> String {
            "panicking".to_string()
        }

        fn open(&self, _: SourceScenario) -> Result<BoxedSource, BackendError> {
            panic!("backend exploded")
        }
    }

    #[test]
    fn a_panicking_job_fails_internal_and_its_worker_keeps_serving() {
        let (queue, cache, metrics, handle) = scheduled(1);
        let doomed = JobRequest {
            backend: Arc::new(PanickingBackend),
            ..request(20)
        };
        let healthy = request(21);
        let ids = [
            queue.submit(doomed.clone()).unwrap(),
            queue.submit(healthy.clone()).unwrap(),
        ];
        let [crashed, served] = ids.map(|id| wait_for(&queue, id));
        assert!(!crashed.ok);
        let error = error_of(&crashed);
        assert_eq!(
            error.get("category").and_then(Json::as_str),
            Some("internal")
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("backend exploded"), "{message}");
        assert!(served.ok, "the worker survived the panic");
        assert_eq!(metrics.job_panics.get(), 1);
        assert!(cache
            .get_shared(doomed.fingerprint, &doomed.canonical)
            .is_none());
        assert!(cache
            .get_shared(healthy.fingerprint, &healthy.canonical)
            .is_some());
        queue.stop();
        handle.join().unwrap();
    }

    /// A `sim` backend whose `open` waits until the test releases it: a
    /// job that stays running for as long as the test needs.
    struct GatedBackend(Mutex<mpsc::Receiver<()>>);

    impl SourceBackend for GatedBackend {
        fn scheme(&self) -> &str {
            "gated"
        }

        fn describe(&self) -> String {
            "gated".to_string()
        }

        fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError> {
            self.0.lock().unwrap().recv().expect("gate released");
            qd_instrument::SimBackend.open(scenario)
        }
    }

    #[test]
    fn a_later_job_does_not_wait_for_a_slow_one() {
        let (queue, _, _, handle) = scheduled(2);
        let (release, gate) = mpsc::channel();
        let slow = queue
            .submit(JobRequest {
                backend: Arc::new(GatedBackend(Mutex::new(gate))),
                ..request(30)
            })
            .unwrap();
        let later = queue.submit(request(31)).unwrap();
        // The later job finishes while the slow one is held.
        assert!(wait_for(&queue, later).ok);
        assert_eq!(queue.status(slow).unwrap().name(), "running");
        release.send(()).unwrap();
        assert!(wait_for(&queue, slow).ok);
        queue.stop();
        handle.join().unwrap();
    }
}
