//! The service: admission control, the worker pool, job states.
//!
//! One [`Service`] owns one [`Engine`] and multiplexes it between tenants.
//! Submissions are charged against per-tenant token buckets and admitted
//! into a bounded priority queue; a fixed pool of worker threads drains the
//! queue, running each job's shots sequentially (service parallelism is
//! *across* jobs). Every job carries a
//! [`CancelToken`](quipper_exec::CancelToken) polled by the exec shot loop,
//! so deadline misses and client cancels stop real work.
//!
//! # Job lifecycle
//!
//! ```text
//! submit ── quota? ── queue? ──> Queued ──> Running ──> Completed
//!              │         │          │           ├─────> Failed      (compile error, shot error, panic)
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
//! The state is one plain struct, `Core` (`state.rs`); this module is its
//! shell. Service metrics go to the engine's tracing sink
//! ([`Engine::tracer`](quipper_exec::Engine::tracer)), so one stack has one.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quipper_circuit::BCircuit;
use quipper_exec::{CancelReason, Engine, ExecError, ExecResult, Job, OptLevel, PlanSource};
use quipper_trace::{names, Tracer};

use crate::flight::{phases, FlightTimeline};
use crate::quota::QuotaPolicy;
use crate::state::{Core, Finished, Snapshot, Ticket};

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
    /// Optimizer level for this job; [`OptLevel::Default`] unless set.
    pub opt: OptLevel,
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
            opt: OptLevel::Default,
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

    /// Sets the optimizer level for this job.
    pub fn opt(mut self, level: OptLevel) -> Self {
        self.opt = level;
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
    /// A worker is compiling the job's plan or executing its shots.
    Running,
    /// All shots ran; the result is attached.
    Completed(Arc<ExecResult>),
    /// Failure (compile, lint or routing error, a shot's error, or a
    /// panic); the error rendering is attached.
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
    /// End-to-end latency SLO threshold, the same for every tenant: a job
    /// "burns" its tenant's SLO when admission-to-terminal latency exceeds
    /// it, and checks and burns land in the `serve.slo.*` counters labeled
    /// by tenant. `None` (the default) checks nothing.
    pub slo: Option<Duration>,
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
            slo: None,
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
            "{:<12}{} coalesced compiles",
            "engine", self.coalesced_compiles,
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

/// The lock on the service's state is poisoned only by a bug in `Core`:
/// no engine call and no metric write runs under it.
const POISONED: &str = "a transition of the service's state panicked";

struct Inner {
    engine: Engine,
    slo: Option<Duration>,
    /// The engine's tracing sink.
    trace: &'static Tracer,
    core: Mutex<Core>,
    /// Signalled after every transition a waiter can act on: a job queued
    /// (idle workers), settled ([`Service::drain`]), the service closed
    /// (all of them).
    changed: Condvar,
}

impl Inner {
    /// The service's state, locked.
    fn core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect(POISONED)
    }

    /// Writes finished jobs' metrics, then settles them and wakes every
    /// waiter: [`Service::drain`] returns only after a job's metrics are
    /// written.
    fn settle(&self, finished: impl IntoIterator<Item = Finished>) {
        let mut settled = 0;
        for finished in finished {
            self.observe(&finished);
            settled += 1;
        }
        self.core().settle(settled);
        self.changed.notify_all();
    }

    /// Writes a finished job's metrics, including per-tenant SLO
    /// accounting.
    fn observe(&self, finished: &Finished) {
        if !self.trace.enabled() {
            return;
        }
        let metrics = self.trace.metrics();
        metrics.add(
            match finished.state {
                JobState::Completed(_) => names::SERVE_COMPLETED,
                JobState::Failed(_) => names::SERVE_FAILED,
                JobState::Cancelled => names::SERVE_CANCELLED,
                _ => names::SERVE_DEADLINE_MISS,
            },
            1,
        );
        let (tenant, tag) = (finished.submission.tenant.as_str(), finished.state.tag());
        metrics.observe_labeled(
            names::SERVE_JOB_LATENCY_US,
            &[("tenant", tenant), ("state", tag)],
            finished.latency.as_micros() as u64,
        );
        metrics.observe_labeled(
            names::SERVE_QUEUE_WAIT_US,
            &[("tenant", tenant)],
            finished.queue_wait.as_micros() as u64,
        );
        if let Some(threshold) = self.slo {
            metrics.add_labeled(names::SLO_CHECKED, &[("tenant", tenant)], 1);
            if finished.latency > threshold {
                metrics.add_labeled(names::SLO_MISS, &[("tenant", tenant)], 1);
            }
        }
    }
}

/// The multi-tenant execution service. See the [module docs](self).
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts a service over `engine` with `config`'s worker pool, queue
    /// bound, quotas, SLO and memory of finished jobs.
    pub fn start(engine: Engine, config: ServiceConfig) -> Service {
        let core = Core::new(config.queue_capacity, config.quota, config.flight_capacity);
        let inner = Arc::new(Inner {
            trace: engine.tracer(),
            engine,
            slo: config.slo,
            core: Mutex::new(core),
            changed: Condvar::new(),
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
        Service { inner, workers }
    }

    /// The engine the service schedules onto (plan cache, stats).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Submits a job. Admission is synchronous: the result is either the
    /// job's id or a [`Rejection`] with a retry-after hint. Admitted jobs
    /// proceed through the lifecycle asynchronously; after
    /// [`Service::shutdown`] a submission is admitted already cancelled.
    pub fn submit(&self, submission: Submission) -> Result<JobId, Rejection> {
        let inner = &*self.inner;
        let admitted = inner.core().submit(submission, Instant::now());
        let metrics = inner.trace.enabled().then(|| inner.trace.metrics());
        match admitted {
            Ok(admitted) => {
                inner.changed.notify_all();
                if let Some(metrics) = metrics {
                    metrics.add(names::SERVE_ADMIT, 1);
                    metrics.record_max(names::SERVE_QUEUE_DEPTH, admitted.depth as u64);
                }
                if let Some(cancelled) = admitted.cancelled {
                    inner.settle([cancelled]);
                }
                Ok(admitted.id)
            }
            Err(rejection) => {
                if let Some(metrics) = metrics {
                    let name = match rejection.reason {
                        RejectReason::QueueFull => names::SERVE_REJECT_FULL,
                        RejectReason::QuotaExhausted => names::SERVE_REJECT_QUOTA,
                    };
                    metrics.add(name, 1);
                }
                Err(rejection)
            }
        }
    }

    /// A status snapshot for `id`, or `None` for unknown ids.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.core().status(id)
    }

    /// The result of a completed job (`None` until the job completes; check
    /// [`Service::status`] to distinguish pending from failed).
    pub fn result(&self, id: JobId) -> Option<Arc<ExecResult>> {
        match self.status(id)?.state {
            JobState::Completed(result) => Some(result),
            _ => None,
        }
    }

    /// Cancels a job. Queued jobs terminate immediately; running jobs stop
    /// at the shot loop's next token poll. Returns the resulting status, or
    /// `None` for unknown ids. Cancelling a terminal job is a no-op.
    pub fn cancel(&self, id: JobId) -> Option<JobStatus> {
        let (status, cancelled) = self.inner.core().cancel(id, Instant::now())?;
        self.inner.settle(cancelled);
        Some(status)
    }

    /// Cumulative counters, service-level merged with the engine's.
    pub fn stats(&self) -> ServiceStats {
        let engine = self.inner.engine.stats();
        ServiceStats {
            engine_cache_hits: engine.cache_hits,
            engine_cache_misses: engine.cache_misses,
            engine_cached_plans: engine.cached_plans as u64,
            ..self.inner.core().stats().clone()
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
        let snapshot = self.inner.core().flight(id)?;
        Some(snapshot.timeline())
    }

    /// The timelines of the most recent `n` finished jobs, newest last.
    pub fn flights(&self, n: usize) -> Vec<FlightTimeline> {
        let snapshots = self.inner.core().flights(n);
        snapshots.into_iter().map(Snapshot::timeline).collect()
    }

    /// Blocks until every admitted job has reached a terminal state and
    /// its metrics are written.
    pub fn drain(&self) {
        let inner = &*self.inner;
        let idle = inner
            .changed
            .wait_while(inner.core(), |core| core.unsettled() > 0);
        drop(idle.expect(POISONED));
    }

    /// Stops the service. In one step under the lock, every live job's
    /// token fires, queued jobs are finalized as cancelled, and the queue
    /// closes: a later submission is admitted already cancelled, without
    /// charging its tenant. Then waits until the running jobs have stopped
    /// at their next token poll and the workers are on their way out
    /// (dropping the service joins them). Idempotent.
    pub fn shutdown(&self) {
        let cancelled = self.inner.core().close(Instant::now());
        self.inner.settle(cancelled);
        self.drain();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            // A worker contains its jobs' panics; one that died anyway died
            // in `Core`, poisoning the lock, and every caller has seen it.
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let picked = {
            let mut core = inner.core();
            loop {
                match core.pick_up(Instant::now()) {
                    Some(picked) => break picked,
                    None if core.is_closed() => return,
                    None => core = inner.changed.wait(core).expect(POISONED),
                }
            }
        };
        let finished = match picked {
            Ok(ticket) => {
                let state = run(inner, &ticket);
                inner.core().finish(ticket.id, state, Instant::now())
            }
            // Its deadline passed while it was queued.
            Err(expired) => expired,
        };
        inner.settle([finished]);
    }
}

/// Resolves and runs one picked-up job and returns its terminal state.
fn run(inner: &Inner, ticket: &Ticket) -> JobState {
    let (id, sub) = (ticket.id, &*ticket.submission);
    let job = Job::new(&sub.circuit)
        .inputs(&sub.inputs)
        .shots(sub.shots)
        .seed(sub.seed)
        .cancel_token(ticket.token.clone())
        .opt(sub.opt);

    // The engine's plan cache decides who compiles: a cached plan comes
    // straight back, and of concurrent jobs that miss on one circuit and
    // level, one compiles while the others wait for its plan.
    let (plan, source) = match contained(|| inner.engine.resolve(&job)) {
        Ok(Ok(resolved)) => resolved,
        Ok(Err(e)) => return JobState::Failed(e.to_string()),
        Err(panicked) => return panicked,
    };
    let waited = source == PlanSource::Waited;
    if waited && inner.trace.enabled() {
        inner.trace.metrics().add(names::SERVE_COALESCED, 1);
    }
    {
        let mut core = inner.core();
        let now = Instant::now();
        if waited {
            core.stamp(id, phases::COALESCE, now);
        }
        core.stamp(id, phases::SHOTS, now);
    }

    // Shots run in order on this worker: the service parallelizes across
    // jobs.
    match contained(|| inner.engine.run_resolved(&job, &plan, source)) {
        Ok(Ok(result)) => JobState::Completed(Arc::new(result)),
        Ok(Err(ExecError::Cancelled { reason })) => match reason {
            CancelReason::Cancelled => JobState::Cancelled,
            CancelReason::DeadlineExceeded => JobState::DeadlineExceeded,
        },
        Ok(Err(e)) => JobState::Failed(e.to_string()),
        Err(panicked) => panicked,
    }
}

/// Runs one engine call. The panic boundary: a panic inside the call
/// becomes the job's failure, and the worker lives on.
fn contained<T>(call: impl FnOnce() -> T) -> Result<T, JobState> {
    panic::catch_unwind(AssertUnwindSafe(call)).map_err(|payload| {
        let message = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-string payload");
        JobState::Failed(format!("panicked: {message}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
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
        service.inner.core().table_len()
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
        let slow = |_| std::thread::sleep(Duration::from_millis(1));
        let engine = Engine::with_shot_hook(EngineConfig::default(), slow);
        let service = Service::start(engine, remembering(CAPACITY));
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

        // The cancelled jobs left the queue; the worker runs the queued job
        // to its end.
        service.cancel(running);
        service.drain();
        assert!(service.result(queued).is_some());
        assert_eq!(table_len(&service), CAPACITY);
        service.shutdown();
    }
}
