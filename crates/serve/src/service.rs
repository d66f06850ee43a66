//! The service: admission control, the worker pool, job states, retries.
//!
//! One [`Service`] owns one [`Engine`] and multiplexes it between tenants.
//! Submissions are charged against per-tenant token buckets and admitted
//! into a bounded priority queue; a fixed pool of worker threads drains the
//! queue, running each job's shots sequentially (service parallelism is
//! *across* jobs). Every job carries a [`CancelToken`] polled by the exec
//! shot loop, so deadline misses and client cancels stop real work.
//!
//! # Job lifecycle
//!
//! ```text
//! submit ── quota? ── queue? ──> Queued ──> Running ──> Completed
//!              │         │          │           ├─────> Failed      (permanent / retries exhausted)
//!           Rejected  Rejected      │           ├─────> Cancelled   (client cancel)
//!           (+retry-after hints)    │           └─────> DeadlineExceeded
//!                                   └── cancel/deadline before start ─┘
//! ```
//!
//! Nothing is ever lost: every admitted job reaches exactly one terminal
//! state, and every refused submission is told when to retry. A finished
//! job is remembered until [`ServiceConfig::flight_capacity`] later jobs
//! have finished, then forgotten together with its flight timeline: the
//! job table is the only copy of either, and a second list holds only the
//! finished ids, oldest first.
//!
//! Service metrics go to the engine's tracing sink
//! ([`Engine::tracer`](quipper_exec::Engine::tracer)), so one stack has one.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quipper_circuit::BCircuit;
use quipper_exec::{
    CancelReason, CancelToken, Engine, ExecError, ExecResult, Job, OptLevel, Plan, PlanSource,
};
use quipper_trace::{names, Tracer};

use crate::flight::{phases, FlightLog, FlightTimeline};
use crate::queue::{AdmissionQueue, QueueEntry};
use crate::quota::{QuotaPolicy, TenantQuotas};
use crate::retry::RetryPolicy;

/// Service-wide job identifier, unique for the life of the service.
pub type JobId = u64;

/// A unit of work submitted by a tenant. Build fluently from
/// [`Submission::new`]; unset fields keep sensible defaults (one shot,
/// seed 0, priority 0, no deadline).
#[derive(Clone, Debug)]
pub struct Submission {
    /// The submitting tenant (quota key).
    pub tenant: String,
    /// Caller-chosen correlation label, echoed in statuses and results.
    pub label: String,
    /// The circuit to execute.
    pub circuit: Arc<BCircuit>,
    /// Basis-state inputs.
    pub inputs: Vec<bool>,
    /// Number of shots.
    pub shots: u64,
    /// Base seed; shot `i` runs with `seed + i`.
    pub seed: u64,
    /// Scheduling priority; higher runs first.
    pub priority: u8,
    /// Deadline measured from admission; the job is abandoned (even
    /// mid-shot-loop) once it passes.
    pub deadline: Option<Duration>,
    /// Pin to a named backend instead of auto-routing.
    pub backend: Option<String>,
    /// Optimizer level for this job; `None` uses the engine's configured
    /// level.
    pub opt: Option<OptLevel>,
}

impl Submission {
    /// A one-shot submission with defaults.
    pub fn new(tenant: impl Into<String>, circuit: Arc<BCircuit>) -> Submission {
        Submission {
            tenant: tenant.into(),
            label: String::new(),
            circuit,
            inputs: Vec::new(),
            shots: 1,
            seed: 0,
            priority: 0,
            deadline: None,
            backend: None,
            opt: None,
        }
    }

    /// Sets the correlation label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the shot count.
    pub fn shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the inputs.
    pub fn inputs(mut self, inputs: Vec<bool>) -> Self {
        self.inputs = inputs;
        self
    }

    /// Sets the priority (higher runs first).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a deadline relative to admission.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the engine's optimizer level for this job.
    pub fn opt(mut self, level: OptLevel) -> Self {
        self.opt = Some(level);
        self
    }
}

/// Why a submission was refused at the door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue is full.
    QueueFull,
    /// The tenant's token bucket cannot cover the job's cost yet.
    QuotaExhausted,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "admission queue full"),
            RejectReason::QuotaExhausted => write!(f, "tenant quota exhausted"),
        }
    }
}

/// A synchronous refusal, carrying when a retry is likely to succeed.
#[derive(Clone, Copy, Debug)]
pub struct Rejection {
    /// What was exhausted.
    pub reason: RejectReason,
    /// How long the client should wait before resubmitting.
    pub retry_after: Duration,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; retry after {:?}", self.reason, self.retry_after)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing shots (or sleeping out a retry backoff).
    Running,
    /// All shots ran; the result is attached.
    Completed(Arc<ExecResult>),
    /// Permanent failure (compile/lint/routing error, or retries
    /// exhausted); the error rendering is attached.
    Failed(String),
    /// The client cancelled before completion.
    Cancelled,
    /// The deadline passed before completion.
    DeadlineExceeded,
}

impl JobState {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// Stable lower-snake tag used on the wire and in reports.
    pub fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed(_) => "completed",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
            JobState::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// A point-in-time status snapshot for one job.
#[derive(Clone, Debug)]
pub struct JobStatus {
    pub id: JobId,
    pub tenant: String,
    pub label: String,
    pub state: JobState,
    /// Execution attempts so far (retries increment this past 1).
    pub attempts: u32,
}

struct JobRecord {
    id: JobId,
    submission: Submission,
    token: CancelToken,
    state: Mutex<JobState>,
    attempts: AtomicU32,
    /// Lifecycle timeline, the only copy of it; epoch = admission.
    flight: FlightLog,
}

/// Per-tenant end-to-end latency SLO thresholds. A job "burns" its
/// tenant's SLO when admission-to-terminal latency exceeds the threshold;
/// checks and burns land in the `serve.slo.*` labeled counters.
#[derive(Clone, Debug, Default)]
pub struct SloPolicy {
    /// Threshold applied to tenants without an override; `None` disables
    /// SLO accounting for them.
    pub default_threshold: Option<Duration>,
    /// Per-tenant overrides, first match wins.
    pub tenants: Vec<(String, Duration)>,
}

impl SloPolicy {
    /// A policy holding every tenant to `threshold` unless overridden.
    pub fn with_default(threshold: Duration) -> SloPolicy {
        SloPolicy {
            default_threshold: Some(threshold),
            tenants: Vec::new(),
        }
    }

    /// Adds (or tightens) a per-tenant override.
    pub fn tenant(mut self, name: impl Into<String>, threshold: Duration) -> Self {
        self.tenants.push((name.into(), threshold));
        self
    }

    /// The threshold governing `tenant`, if any.
    pub fn threshold_for(&self, tenant: &str) -> Option<Duration> {
        self.tenants
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|&(_, d)| d)
            .or(self.default_threshold)
    }
}

/// Tuning for [`Service::start`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (each runs one job at a time).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are rejected with a
    /// retry-after hint.
    pub queue_capacity: usize,
    /// Per-tenant token-bucket policy.
    pub quota: QuotaPolicy,
    /// Transient-fault retry policy.
    pub retry: RetryPolicy,
    /// Per-tenant latency SLO thresholds; default has no thresholds, so
    /// nothing is checked or burned.
    pub slo: SloPolicy,
    /// How many finished jobs the service remembers: once this many have
    /// finished after it, a job is dropped from the job table, result and
    /// flight timeline together (status, result and flight then answer
    /// "unknown job id"). Queued and running jobs are never evicted.
    /// A memory budget, not a count to tune: a finished small job (3–8
    /// qubits, 64 shots, submitted as QASM) keeps 4.1–8.2 KB resident
    /// (EXPERIMENTS.md A13), so the default 4096 is 16–33 MiB; a job keeps
    /// its submitted circuit until it is evicted, so large programs cost
    /// in proportion.
    pub flight_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            queue_capacity: 256,
            quota: QuotaPolicy::default(),
            retry: RetryPolicy::default(),
            slo: SloPolicy::default(),
            flight_capacity: 4096,
        }
    }
}

/// Cumulative service counters, snapshot via [`Service::stats`]. Includes
/// the engine's plan-cache counters so the wire `stats` op reports the
/// whole stack, not just admission accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    pub submitted: u64,
    pub admitted: u64,
    pub rejected_queue_full: u64,
    pub rejected_quota: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub deadline_misses: u64,
    pub retries: u64,
    pub coalesced_compiles: u64,
    /// Engine plan-cache hits.
    pub engine_cache_hits: u64,
    /// Engine plan-cache misses (compilations).
    pub engine_cache_misses: u64,
    /// Distinct plans currently cached by the engine.
    pub engine_cached_plans: u64,
}

impl ServiceStats {
    /// Jobs that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.deadline_misses
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12}{} submitted / {} admitted / {} rejected (queue {}, quota {})",
            "admission",
            self.submitted,
            self.admitted,
            self.rejected_queue_full + self.rejected_quota,
            self.rejected_queue_full,
            self.rejected_quota,
        )?;
        writeln!(
            f,
            "{:<12}{} completed / {} failed / {} cancelled / {} deadline-missed",
            "terminal", self.completed, self.failed, self.cancelled, self.deadline_misses,
        )?;
        writeln!(
            f,
            "{:<12}{} retries, {} coalesced compiles",
            "engine", self.retries, self.coalesced_compiles,
        )?;
        write!(
            f,
            "{:<12}{} hits / {} misses / {} cached",
            "plan cache",
            self.engine_cache_hits,
            self.engine_cache_misses,
            self.engine_cached_plans,
        )
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_quota: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline_misses: AtomicU64,
    retries: AtomicU64,
    coalesced_compiles: AtomicU64,
}

struct Inner {
    engine: Engine,
    queue: AdmissionQueue,
    quotas: TenantQuotas,
    retry: RetryPolicy,
    slo: SloPolicy,
    /// The engine's tracing sink.
    trace: &'static Tracer,
    jobs: Mutex<HashMap<JobId, Arc<JobRecord>>>,
    /// Ids of the finished jobs in `jobs`, in finish order, at most
    /// `flight_capacity` of them. Locked before `jobs` when both are held.
    finished: Mutex<VecDeque<JobId>>,
    flight_capacity: usize,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    counters: Counters,
    /// Admitted-but-not-terminal job count + condvar for [`Service::drain`].
    active: Mutex<u64>,
    idle: Condvar,
}

/// The multi-tenant execution service. See the [module docs](self).
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Starts a service over `engine` with `config`'s worker pool, queue
    /// bound, quotas and retry policy.
    pub fn start(engine: Engine, config: ServiceConfig) -> Service {
        let inner = Arc::new(Inner {
            trace: engine.tracer(),
            engine,
            queue: AdmissionQueue::new(config.queue_capacity),
            quotas: TenantQuotas::new(config.quota),
            retry: config.retry,
            slo: config.slo,
            jobs: Mutex::new(HashMap::new()),
            finished: Mutex::new(VecDeque::new()),
            flight_capacity: config.flight_capacity.max(1),
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            counters: Counters::default(),
            active: Mutex::new(0),
            idle: Condvar::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        Service {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The engine the service schedules onto (plan cache, stats).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Submits a job. Admission is synchronous: the result is either the
    /// job's id or a [`Rejection`] with a retry-after hint. Admitted jobs
    /// proceed through the lifecycle asynchronously.
    pub fn submit(&self, submission: Submission) -> Result<JobId, Rejection> {
        let inner = &*self.inner;
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);

        let cost = inner.quotas.policy().cost(submission.shots);
        if let Err(retry_after) = inner.quotas.try_acquire(&submission.tenant, cost) {
            inner
                .counters
                .rejected_quota
                .fetch_add(1, Ordering::Relaxed);
            if inner.trace.enabled() {
                inner.trace.metrics().add(names::SERVE_REJECT_QUOTA, 1);
            }
            return Err(Rejection {
                reason: RejectReason::QuotaExhausted,
                retry_after,
            });
        }

        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = submission.deadline.map(|d| Instant::now() + d);
        let token = match deadline {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::new(),
        };
        let record = Arc::new(JobRecord {
            id,
            token: token.clone(),
            state: Mutex::new(JobState::Queued),
            attempts: AtomicU32::new(0),
            flight: FlightLog::new(),
            submission,
        });
        let entry = QueueEntry {
            id,
            priority: record.submission.priority,
            deadline,
            seq: inner.next_seq.fetch_add(1, Ordering::Relaxed),
        };

        inner.jobs.lock().unwrap().insert(id, Arc::clone(&record));
        *inner.active.lock().unwrap() += 1;
        // Stamped before the push: an idle worker may pop the entry and
        // stamp `compile` before `push` returns. A rejected push drops the
        // record, stamp and all.
        record.flight.stamp(phases::QUEUE, None);
        let depth = match inner.queue.push(entry) {
            Ok(depth) => depth,
            Err(retry_after) => {
                // Not admitted after all: uncharge the tenant and forget the job.
                inner.jobs.lock().unwrap().remove(&id);
                finish_active(inner);
                inner.quotas.refund(&record.submission.tenant, cost);
                inner
                    .counters
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                if inner.trace.enabled() {
                    inner.trace.metrics().add(names::SERVE_REJECT_FULL, 1);
                }
                return Err(Rejection {
                    reason: RejectReason::QueueFull,
                    retry_after,
                });
            }
        };
        inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
        if inner.trace.enabled() {
            let metrics = inner.trace.metrics();
            metrics.add(names::SERVE_ADMIT, 1);
            metrics.record_max(names::SERVE_QUEUE_DEPTH, depth as u64);
        }
        Ok(id)
    }

    /// A status snapshot for `id`, or `None` for unknown ids.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let record = Arc::clone(self.inner.jobs.lock().unwrap().get(&id)?);
        let state = record.state.lock().unwrap().clone();
        Some(JobStatus {
            id,
            tenant: record.submission.tenant.clone(),
            label: record.submission.label.clone(),
            state,
            attempts: record.attempts.load(Ordering::Relaxed),
        })
    }

    /// The result of a completed job (`None` until the job completes; check
    /// [`Service::status`] to distinguish pending from failed).
    pub fn result(&self, id: JobId) -> Option<Arc<ExecResult>> {
        match &*Arc::clone(self.inner.jobs.lock().unwrap().get(&id)?)
            .state
            .lock()
            .unwrap()
        {
            JobState::Completed(result) => Some(Arc::clone(result)),
            _ => None,
        }
    }

    /// Cancels a job. Queued jobs terminate immediately; running jobs stop
    /// at the shot loop's next token poll. Returns the resulting status, or
    /// `None` for unknown ids. Cancelling a terminal job is a no-op.
    pub fn cancel(&self, id: JobId) -> Option<JobStatus> {
        let inner = &*self.inner;
        let record = Arc::clone(inner.jobs.lock().unwrap().get(&id)?);
        {
            let mut state = record.state.lock().unwrap();
            match &*state {
                JobState::Queued => {
                    record.token.cancel();
                    // Claim the job under the lock so the worker that pops
                    // its entry skips it, then finalize outside the lock.
                    *state = JobState::Cancelled;
                    drop(state);
                    finalize(inner, &record, JobState::Cancelled);
                }
                JobState::Running => {
                    // The worker observes the fired token and finalizes.
                    record.token.cancel();
                }
                _ => {}
            }
        }
        self.status(id)
    }

    /// Cumulative counters, service-level merged with the engine's.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        let engine = self.inner.engine.stats();
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
            rejected_quota: c.rejected_quota.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deadline_misses: c.deadline_misses.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            coalesced_compiles: c.coalesced_compiles.load(Ordering::Relaxed),
            engine_cache_hits: engine.cache_hits,
            engine_cache_misses: engine.cache_misses,
            engine_cached_plans: engine.cached_plans as u64,
        }
    }

    /// A point-in-time snapshot of the service's metrics registry (the
    /// engine's tracing sink), for the exposition encoders. Empty until
    /// tracing is enabled.
    pub fn metrics_snapshot(&self) -> quipper_trace::MetricsSnapshot {
        self.inner.trace.metrics().snapshot()
    }

    /// The job's flight timeline as of now (its current state and the
    /// events stamped so far). `None` for unknown/evicted ids.
    pub fn flight(&self, id: JobId) -> Option<FlightTimeline> {
        let record = Arc::clone(self.inner.jobs.lock().unwrap().get(&id)?);
        Some(timeline(&record))
    }

    /// The timelines of the most recent `n` finished jobs, newest last.
    pub fn flights(&self, n: usize) -> Vec<FlightTimeline> {
        let records: Vec<Arc<JobRecord>> = {
            let finished = self.inner.finished.lock().unwrap();
            let jobs = self.inner.jobs.lock().unwrap();
            let newest = finished.iter().skip(finished.len().saturating_sub(n));
            newest.map(|id| Arc::clone(&jobs[id])).collect()
        };
        records.iter().map(|record| timeline(record)).collect()
    }

    /// Blocks until every admitted job has reached a terminal state.
    pub fn drain(&self) {
        let mut active = self.inner.active.lock().unwrap();
        while *active > 0 {
            active = self.inner.idle.wait(active).unwrap();
        }
    }

    /// Stops the service: no new submissions are admitted, queued jobs are
    /// finalized as cancelled, in-flight jobs are cancelled at their next
    /// token poll, and the worker pool is joined. Idempotent.
    pub fn shutdown(&self) {
        // Fire every non-terminal token so queued entries finalize fast and
        // running shot loops stop at the next poll.
        for record in self.inner.jobs.lock().unwrap().values() {
            if !record.state.lock().unwrap().is_terminal() {
                record.token.cancel();
            }
        }
        self.inner.queue.close();
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            handle.join().expect("service worker panicked");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrement the active-job count and wake [`Service::drain`]ers.
fn finish_active(inner: &Inner) {
    let mut active = inner.active.lock().unwrap();
    *active = active.saturating_sub(1);
    if *active == 0 {
        inner.idle.notify_all();
    }
}

/// A job's flight timeline as of now: its current state and the events
/// stamped so far. The one place a [`FlightTimeline`] is built.
fn timeline(record: &JobRecord) -> FlightTimeline {
    FlightTimeline {
        id: record.id,
        tenant: record.submission.tenant.clone(),
        label: record.submission.label.clone(),
        state: record.state.lock().unwrap().tag().to_string(),
        events: record.flight.events(),
    }
}

/// Finalize a job into a terminal state: set the state, bump counters and
/// metrics (including per-tenant SLO accounting), list the job as finished,
/// and forget the oldest finished job if that makes one too many.
fn finalize(inner: &Inner, record: &JobRecord, state: JobState) {
    debug_assert!(state.is_terminal());
    let (counter, metric) = match &state {
        JobState::Completed(_) => (&inner.counters.completed, names::SERVE_COMPLETED),
        JobState::Failed(_) => (&inner.counters.failed, names::SERVE_FAILED),
        JobState::Cancelled => (&inner.counters.cancelled, names::SERVE_CANCELLED),
        JobState::DeadlineExceeded => (&inner.counters.deadline_misses, names::SERVE_DEADLINE_MISS),
        _ => unreachable!(),
    };
    let tag = state.tag();
    let detail = match &state {
        JobState::Failed(err) => Some(err.clone()),
        _ => None,
    };
    record.flight.stamp(tag, detail);
    let latency = record.flight.elapsed();
    *record.state.lock().unwrap() = state;
    counter.fetch_add(1, Ordering::Relaxed);
    if inner.trace.enabled() {
        let metrics = inner.trace.metrics();
        metrics.add(metric, 1);
        let latency_us = latency.as_micros() as u64;
        // Queue wait ends when a worker picks the job up (the compile
        // stamp); jobs that die queued waited their whole life.
        let queue_wait = record.flight.first_at(phases::COMPILE).unwrap_or(latency);
        let tenant = record.submission.tenant.as_str();
        metrics.observe_labeled(
            names::SERVE_JOB_LATENCY_US,
            &[("tenant", tenant), ("state", tag)],
            latency_us,
        );
        metrics.observe_labeled(
            names::SERVE_QUEUE_WAIT_US,
            &[("tenant", tenant)],
            queue_wait.as_micros() as u64,
        );
        let attempts = record.attempts.load(Ordering::Relaxed) as u64;
        metrics.observe_labeled(
            names::SERVE_JOB_RETRIES,
            &[("tenant", tenant), ("state", tag)],
            attempts.saturating_sub(1),
        );
        if let Some(threshold) = inner.slo.threshold_for(tenant) {
            metrics.add_labeled(names::SLO_CHECKED, &[("tenant", tenant)], 1);
            if latency > threshold {
                metrics.add_labeled(names::SLO_MISS, &[("tenant", tenant)], 1);
            }
        }
    }
    // The one eviction point: only finished jobs are listed, so a queued or
    // running job is never forgotten.
    let mut finished = inner.finished.lock().unwrap();
    if finished.len() == inner.flight_capacity {
        if let Some(oldest) = finished.pop_front() {
            inner.jobs.lock().unwrap().remove(&oldest);
        }
    }
    finished.push_back(record.id);
    drop(finished);
    finish_active(inner);
}

/// Sleep out a retry backoff in small slices, polling the token so client
/// cancels and deadline expiry interrupt the wait.
fn backoff_sleep(token: &CancelToken, total: Duration) -> Result<(), CancelReason> {
    let slice = Duration::from_millis(2);
    let until = Instant::now() + total;
    loop {
        token.check()?;
        let now = Instant::now();
        if now >= until {
            return Ok(());
        }
        std::thread::sleep(slice.min(until - now));
    }
}

fn worker_loop(inner: &Inner) {
    while let Some(entry) = inner.queue.pop() {
        let record = match inner.jobs.lock().unwrap().get(&entry.id) {
            Some(record) => Arc::clone(record),
            // Rejected after the push raced, or cancelled while queued and
            // since evicted: nothing to run.
            None => continue,
        };

        // Claim the job; a concurrent cancel of a queued job may already
        // have finalized it.
        {
            let mut state = record.state.lock().unwrap();
            match &*state {
                JobState::Queued => *state = JobState::Running,
                _ => continue,
            }
        }

        // A token that fired while queued stops the job before any work.
        if let Err(reason) = record.token.check() {
            finalize(inner, &record, state_of(reason));
            continue;
        }

        let sub = &record.submission;
        let mut job = Job::new(&sub.circuit)
            .inputs(sub.inputs.clone())
            .shots(sub.shots)
            .seed(sub.seed)
            .cancel_token(record.token.clone());
        if let Some(backend) = &sub.backend {
            job = job.on_backend(backend);
        }
        if let Some(level) = sub.opt {
            job = job.opt(level);
        }

        // The engine's plan cache decides who compiles: a cached plan comes
        // straight back, and of concurrent jobs that miss on one circuit and
        // level, one compiles while the others wait for its plan.
        record.flight.stamp(phases::COMPILE, None);
        let (plan, source) = match inner.engine.resolve(&job) {
            Ok(resolved) => resolved,
            Err(e) => {
                finalize(inner, &record, JobState::Failed(e.to_string()));
                continue;
            }
        };
        if source == PlanSource::Waited {
            record.flight.stamp(phases::COALESCE, None);
            inner
                .counters
                .coalesced_compiles
                .fetch_add(1, Ordering::Relaxed);
            if inner.trace.enabled() {
                inner.trace.metrics().add(names::SERVE_COALESCED, 1);
            }
        }

        run_admitted(inner, &record, &job, &plan, source);
    }
}

fn state_of(reason: CancelReason) -> JobState {
    match reason {
        CancelReason::Cancelled => JobState::Cancelled,
        CancelReason::DeadlineExceeded => JobState::DeadlineExceeded,
    }
}

/// Run one admitted job's shots on its resolved plan, with retries; always
/// finalizes it. A retry re-runs the shots and nothing before them.
fn run_admitted(inner: &Inner, record: &JobRecord, job: &Job, plan: &Plan, source: PlanSource) {
    loop {
        let attempt = record.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        record
            .flight
            .stamp(phases::SHOTS, Some(format!("attempt {attempt}")));
        // Shots run sequentially on this worker: the service parallelizes
        // across jobs, and per-shot seeds make the outcome schedule-free.
        match inner.engine.run_resolved(job, plan, source) {
            Ok(result) => {
                finalize(inner, record, JobState::Completed(Arc::new(result)));
                return;
            }
            Err(ExecError::Cancelled { reason }) => {
                finalize(inner, record, state_of(reason));
                return;
            }
            Err(e) if e.is_transient() && inner.retry.should_retry(attempt) => {
                record.flight.stamp(phases::RETRY, Some(e.to_string()));
                inner.counters.retries.fetch_add(1, Ordering::Relaxed);
                if inner.trace.enabled() {
                    inner.trace.metrics().add(names::SERVE_RETRY, 1);
                }
                let pause = inner
                    .retry
                    .backoff(attempt, record.submission.seed ^ record.id.rotate_left(17));
                if let Err(reason) = backoff_sleep(&record.token, pause) {
                    finalize(inner, record, state_of(reason));
                    return;
                }
            }
            Err(e) => {
                finalize(inner, record, JobState::Failed(e.to_string()));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::protocol::handle_line;
    use quipper_exec::EngineConfig;

    fn remembering(capacity: usize) -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            quota: QuotaPolicy::unlimited(),
            flight_capacity: capacity,
            ..ServiceConfig::default()
        }
    }

    fn table_len(service: &Service) -> usize {
        service.inner.jobs.lock().unwrap().len()
    }

    #[test]
    fn the_job_table_forgets_what_the_flight_ring_forgets() {
        const CAPACITY: usize = 8;
        let service = Service::start(Engine::new(), remembering(CAPACITY));
        let catalog = Catalog::new();
        let ghz3 = catalog.get("ghz3").unwrap();

        // A client that collects each result as it lands loses nothing.
        let mut ids = Vec::new();
        for _ in 0..CAPACITY + 50 {
            let id = service
                .submit(Submission::new("t", Arc::clone(&ghz3)).inputs(vec![false; 3]))
                .unwrap();
            service.drain();
            assert!(service.result(id).is_some());
            ids.push(id);
        }

        let (evicted, kept) = ids.split_at(50);
        for &id in evicted {
            assert!(service.status(id).is_none());
            assert!(service.result(id).is_none());
            assert!(service.cancel(id).is_none());
            assert!(service.flight(id).is_none());
        }
        for &id in kept {
            assert!(service.result(id).is_some());
            assert_eq!(service.flight(id).unwrap().state, "completed");
        }
        // The recent list is the job table read in finish order: one
        // timeline per remembered job, the same one `flight(id)` answers.
        let recent = service.flights(usize::MAX);
        let listed: Vec<JobId> = recent.iter().map(|t| t.id).collect();
        assert_eq!(listed, kept);
        for timeline in &recent {
            assert_eq!(Some(timeline), service.flight(timeline.id).as_ref());
        }
        assert_eq!(service.flights(3), recent[CAPACITY - 3..]);
        assert_eq!(table_len(&service), CAPACITY);

        // On the wire an evicted id is an unknown id.
        let answer = |line: &str| handle_line(&service, &catalog, line).response;
        let gone = evicted[0];
        for op in ["status", "result", "cancel"] {
            assert_eq!(
                answer(&format!(r#"{{"op":"{op}","id":{gone}}}"#)),
                format!(r#"{{"ok":false,"error":"unknown job id {gone}"}}"#)
            );
        }
        assert_eq!(
            answer(&format!(r#"{{"op":"flight","id":{gone}}}"#)),
            format!(r#"{{"ok":false,"error":"no flight timeline for job id {gone}"}}"#)
        );
        service.shutdown();
    }

    #[test]
    fn a_queued_or_running_job_is_never_evicted() {
        const CAPACITY: usize = 2;
        // Every shot sleeps 1 ms, so the first job holds the only worker.
        let engine_config = EngineConfig::default();
        let slow = FaultConfig {
            spike_prob: 1.0,
            ..FaultConfig::default()
        };
        let backends = FaultInjector::wrap_default_backends(&engine_config, slow);
        let service = Service::start(
            Engine::with_backends(engine_config, backends),
            remembering(CAPACITY),
        );
        let ghz3 = Catalog::new().get("ghz3").unwrap();
        let submit = |shots| {
            let job = Submission::new("t", Arc::clone(&ghz3)).inputs(vec![false; 3]);
            service.submit(job.shots(shots)).unwrap()
        };

        let state = |id| service.status(id).unwrap().state.tag();

        let running = submit(1_000_000);
        let started_by = Instant::now() + Duration::from_secs(10);
        while state(running) != "running" {
            assert!(Instant::now() < started_by, "job never started");
            std::thread::yield_now();
        }
        let queued = submit(1);

        // Cancelling a queued job finishes it at once: five jobs through a
        // service remembering two while the other two stay where they are.
        let cancelled: Vec<JobId> = (0..CAPACITY + 3)
            .map(|_| {
                let id = submit(1);
                assert_eq!(service.cancel(id).unwrap().state.tag(), "cancelled");
                id
            })
            .collect();
        let (evicted, kept) = cancelled.split_at(3);
        assert!(evicted.iter().all(|&id| service.status(id).is_none()));
        assert!(kept.iter().all(|&id| service.status(id).is_some()));
        assert_eq!((state(running), state(queued)), ("running", "queued"));
        assert_eq!(table_len(&service), CAPACITY + 2);

        // The worker skips the evicted jobs' queue entries and runs the
        // queued job to its end.
        service.cancel(running);
        service.drain();
        assert!(service.result(queued).is_some());
        assert_eq!(table_len(&service), CAPACITY);
        service.shutdown();
    }
}
